"""Run one expramsey CLI command with every layer entry traced.

    python3 bench/traced_cli.py SPANS_FILE <cli arguments...>

Behaves like ``python -m expramsey.cli`` (same stdout, stderr and exit
code) and writes the process's spans to SPANS_FILE for the parent
benchmark to merge.
"""

import sys

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    root = tracer.open("process")
    from expramsey import cli

    spans.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        tracer.unpatch()
        tracer.close(root)
        spans.record_caches(tracer)
        sys.stdout.flush()
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
