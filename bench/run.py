"""expramsey benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads: scan, symbolic, ramsey, cli (see workloads.py for what each one
does and why). The program under test is imported from ``src/`` of the
checkout this file sits in; nothing is installed.

A run times set-up in fresh interpreters, then repeats the workload's pass
for ``--seconds`` with tracing off and checks every output. With
``--trace 1`` it runs untraced passes for half the time and one traced pass,
and reports per-layer metrics plus the tracing overhead instead. Readable
metrics go to stdout; the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``failed`` counts wrong
outputs and unexpected exceptions; an ``ExpRamseyError`` the program raises
on purpose is a refusal, counted in ``ops_failed_frac`` but not in
``failed``. The spans of a traced run go to ``.bench_out/<workload>.spans``.

The run exits non-zero without a result line when ``src/expramsey`` is
missing or a set-up probe fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLI_SPANS = OUT / "cli-child.spans"  # written by traced_cli.py, merged here

SETUP_PROBES = 9
CLI_IMPORT_PROBES = 3
CUTOFF_VAR = "EXPRAMSEY_CUTOFF"

FIRST_FACTORINT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]);"
    "from expramsey import _arith; t = time.perf_counter(); _arith.factorint(999983);"
    "print(time.perf_counter() - t)"
)
CLI_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
    "import expramsey.cli; print(time.perf_counter() - t)"
)


def pin_to_one_cpu() -> set:
    """Run this process, and the processes it starts, on one CPU: the
    speed samples (speed.py) then describe the core the timed work runs
    on. Returns the CPUs allowed before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def child_env() -> dict:
    """This process's environment without the cutoff override, with the
    checkout's sources first on the import path."""
    env = {k: v for k, v in os.environ.items() if k != CUTOFF_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list, env: dict) -> tuple:
    """Run one process to completion: (exit code, stdout, stderr, wall s,
    peak RSS in KiB of that process alone)."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.stdout", "w+b") as fo, open(OUT / "child.stderr", "w+b") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return proc.returncode, fo.read(), fe.read(), seconds, usage.ru_maxrss


def environment() -> dict:
    import expramsey.tower

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "expramsey").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "cutoff": str(expramsey.tower.DEFAULT_CUTOFF),
        "cutoff_env": os.environ.get(CUTOFF_VAR),
    }


def median_setup_seconds(argv: list, n: int) -> float:
    """Median set-up time, in reference seconds, of n set-up probes.

    A probe prints the moment its inputs are built, then the calibration
    kernel's time on its own core (see speed.py). perf_counter is
    CLOCK_MONOTONIC, shared by all processes, so the set-up time is that
    moment minus the moment this process started the probe.
    """
    times = []
    for _ in range(n):
        t0 = perf_counter()
        code, out, err, _, _ = run_child(argv, child_env())
        if code != 0:
            raise SystemExit(f"set-up probe failed with exit {code}: {err.decode()[-500:]}")
        ready, kernel_s = map(float, out.split())
        times.append((ready - t0) * speed.REF_KERNEL_S / kernel_s)
    return statistics.median(times)


def median_child_output(code: str, n: int) -> float:
    vals = []
    for _ in range(n):
        rc, out, err, _, _ = run_child([sys.executable, "-c", code, str(SRC)], child_env())
        if rc != 0:
            raise SystemExit(f"probe failed with exit {rc}: {err.decode()[-500:]}")
        vals.append(float(out))
    return statistics.median(vals)


def run_cli(argv: list, traced: bool) -> tuple:
    """One CLI process; a traced one goes through traced_cli.py, which
    dumps its spans to CLI_SPANS."""
    if traced:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(CLI_SPANS), *argv]
    else:
        cmd = [sys.executable, "-m", "expramsey.cli", *argv]
    return run_child(cmd, child_env())


def run_passes(wl, seconds: float, min_passes: int) -> tuple:
    """Repeat the pass until ``seconds`` have gone by and at least
    ``min_passes`` ran: (raw pass walls, pass walls in reference seconds,
    results, peak RSS in MB). A pass's reference wall is the sum of its
    operations' reference times.

    The peak RSS is this process's after set-up and the first pass, before
    results of later passes pile up; for ``cli``, the largest CLI process's.
    """
    walls, ref_walls, results, rss_mb = [], [], [], None
    t_end = perf_counter() + seconds
    while len(walls) < min_passes or perf_counter() < t_end:
        wl.prepare()
        t0 = perf_counter()
        res = wl.run_pass()
        walls.append(perf_counter() - t0)
        ref_walls.append(sum(r.ref_seconds for r in res))
        results.extend(res)
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if wl.name == "cli":
        rss_mb = max(r.extra["rss_kb"] for r in results) / 1024
    return walls, ref_walls, results, rss_mb


def traced_pass(wl, tracer_mod) -> tuple:
    """One pass with every layer entry wrapped: (reference wall s, results,
    tracer)."""
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    try:
        if wl.name == "cli":
            wl.runner = _absorbing(wl.runner, tracer)
        wl.prepare()
        res = wl.run_pass(tracer=tracer)
        wall = sum(r.ref_seconds for r in res)
        if wl.name != "cli":
            tracer_mod.record_caches(tracer)
    finally:
        tracer.unpatch()
    return wall, res, tracer


def _absorbing(runner, tracer):
    def run(argv, traced):
        CLI_SPANS.unlink(missing_ok=True)
        got = runner(argv, traced)
        if CLI_SPANS.exists():
            tracer.absorb(str(CLI_SPANS))
        return got
    return run


def layer_metrics(wl, tracer, totals, results, extra) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def incl_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def frac(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    hits, misses = c.get("log2_scaled_bounds.cache_hits", 0), c.get("log2_scaled_bounds.cache_misses", 0)
    tower_names = [n for n in totals if n.startswith("tower.")]
    tower_calls = sum(calls(n) for n in tower_names)
    tower_raised = sum(c.get(n + ".raised", 0) for n in tower_names)
    instances = c.get("search.instances", 0)
    colour_entries = c.get("colour.int_calls", 0) + c.get("colour.term_calls", 0)
    patterns = [n for n in totals if n.startswith("patterns.")]
    agree = [r.output.methods_agree for r in results
             if r.kind in ("exp", "vdw") and r.exc is None]
    agree += [json.loads(r.output[1])["methods_agree"] for r in results
              if r.kind == "ramsey" and r.output[0] == 0]
    agree = [a for a in agree if a is not None]
    cli_med = {}
    for sub in ("colour", "verify", "search", "gen", "ramsey"):
        lat = [r.seconds for r in extra.get("cli_results", []) if r.kind == sub]
        cli_med[sub] = statistics.median(lat) if lat else 0.0
    m = {
        "intlog.log_star_int.calls": (calls("_intlog.log_star_int"), "count"),
        "intlog.log_star_int.self_s": (self_s("_intlog.log_star_int"), "s"),
        "intlog.log2_scaled_bounds.calls": (calls("_intlog.log2_scaled_bounds"), "count"),
        "intlog.log2_scaled_bounds.self_s": (self_s("_intlog.log2_scaled_bounds"), "s"),
        "intlog.log2_scaled_bounds.cache_hit_frac":
            (frac(hits, hits + misses), "frac"),
        "intlog.escalation_frac": (frac(c.get("log2_scaled_bounds.escalated", 0),
                                         calls("_intlog.log2_scaled_bounds")), "frac"),
        "intlog.iter_log_le.self_s": (self_s("_intlog.iter_log_le"), "s"),
        "arith.factorint.calls": (calls("_arith.factorint"), "count"),
        "arith.factorint.self_s": (self_s("_arith.factorint"), "s"),
        "arith.first_call_s": (extra["first_factorint_s"], "s"),
        "tower.eval_exact.calls": (calls("tower.eval_exact"), "count"),
        "tower.eval_exact.self_s": (self_s("tower.eval_exact"), "s"),
        "tower.log_star.calls": (calls("tower.log_star"), "count"),
        "tower.log_star.self_s": (self_s("tower.log_star"), "s"),
        "tower.compare_iter_log.self_s": (self_s("tower.compare_iter_log"), "s"),
        "tower.eval_mod.self_s": (self_s("tower.eval_mod"), "s"),
        "tower.max_root_exponent.self_s": (self_s("tower.max_root_exponent"), "s"),
        "tower.failed_frac": (frac(tower_raised, tower_calls), "frac"),
        "colourings.colour.int_calls": (c.get("colour.int_calls", 0), "count"),
        "colourings.colour.term_calls": (c.get("colour.term_calls", 0), "count"),
        "colourings.colour.self_s": (self_s("colourings.colour"), "s"),
        "colourings.colour_power.calls": (calls("colourings.colour_power"), "count"),
        "colourings.evals_per_instance":
            (frac(colour_entries + calls("colourings.colour_power"), instances), "count"),
        "colourings.memo_hit_frac": (frac(c.get("colour.memo_hits", 0),
                                          c.get("colour.memo_lookups", 0)), "frac"),
        "colourings.parse_s": (incl_s("colourings.parse_colouring"), "s"),
        "patterns.elements": (c.get("patterns.elements", 0), "count"),
        "patterns.self_s": (self_s(*patterns), "s"),
        "search.family_build_s": (incl_s("search.parse_family"), "s"),
        "search.scan.self_s": (self_s("search.find_monochromatic"), "s"),
        "search.instances": (instances, "count"),
        "search.verify.self_s": (self_s("search.verify_certificate"), "s"),
        "search.parallel_speedup": (extra.get("parallel_speedup", 0.0), "ratio"),
        "search.ramsey.vdw_s": (incl_s("search.vdw_number"), "s"),
        "search.ramsey.exp_s": (incl_s("search.exp_ramsey_number"), "s"),
        "search.ramsey.constraints": (c.get("search.ramsey.constraints", 0), "count"),
        "search.ramsey.methods_agree_frac": (frac(sum(agree), len(agree)), "frac"),
        "cli.import_s": (extra.get("cli_import_s", 0.0), "s"),
        "cli.colour_s": (cli_med["colour"], "s"),
        "cli.verify_s": (cli_med["verify"], "s"),
        "cli.search_s": (cli_med["search"], "s"),
        "cli.gen_s": (cli_med["gen"], "s"),
        "cli.ramsey_s": (cli_med["ramsey"], "s"),
    }
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload's inputs and exit (a set-up probe)")
    args = ap.parse_args(argv)

    if not (SRC / "expramsey" / "__init__.py").is_file():
        print(f"error: no expramsey sources under {SRC}", file=sys.stderr)
        return 2
    # read at import by expramsey.tower; it changes the work and the bytes
    os.environ.pop(CUTOFF_VAR, None)
    sys.path.insert(0, str(SRC))

    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        cls(args.seed)
        print(perf_counter(), speed.median_kernel_seconds())
        return 0

    allowed = pin_to_one_cpu()
    setup_s = median_setup_seconds(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"], SETUP_PROBES)
    wl = cls(args.seed)
    wl.gauge = gauge = speed.Gauge()
    if wl.name == "cli":
        wl.runner = run_cli

    with gauge:
        if args.trace:
            walls, ref_walls, results, rss = run_passes(wl, args.seconds / 2, 1)
        else:
            walls, ref_walls, results, rss = run_passes(wl, args.seconds, wl.min_passes)

    metrics, extra = {}, {}
    if args.trace:
        import spans as tracer_mod

        extra["first_factorint_s"] = median_child_output(FIRST_FACTORINT, 1)
        if wl.name == "scan":
            os.sched_setaffinity(0, allowed)  # the threads=2 scan needs the cores
            extra["parallel_speedup"], same = wl.parallel_speedup()
            pin_to_one_cpu()
            if not same:
                print("error: threads=2 certificate differs from threads=1", file=sys.stderr)
        if wl.name == "cli":
            extra["cli_import_s"] = median_child_output(CLI_IMPORT, CLI_IMPORT_PROBES)
            extra["cli_results"] = results
        with gauge:
            traced_wall, traced_results, tracer = traced_pass(wl, tracer_mod)
        OUT.mkdir(exist_ok=True)
        tracer.dump(str(OUT / f"{wl.name}.spans"))
        totals = tracer_mod.layer_totals(tracer)
        metrics = layer_metrics(wl, tracer, totals, traced_results + results, extra)
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(ref_walls), "s")
        results = results + traced_results

    verdicts = wl.check(results)
    attempted = len(verdicts)
    refused = verdicts.count(workloads.REFUSED)
    failed = sum(v in (workloads.WRONG, workloads.ERROR) for v in verdicts)
    if args.trace and wl.name == "scan" and not same:
        attempted, failed = attempted + 1, failed + 1

    lat = wl.latency_ops(results)
    tail_pct = wl.tail_pct
    end_to_end = {
        "wall_s": (statistics.median(ref_walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_p50_ms": (workloads.percentile(lat, 50) * 1000, "ms"),
        "op_tail_ms": (workloads.percentile(lat, tail_pct) * 1000, "ms"),
    }
    readable = dict(end_to_end)
    readable["wall_raw_s"] = (statistics.median(walls), "s")
    readable["kernel_s"] = (statistics.median(gauge.kernel), "s")
    readable["ops_failed_frac"] = ((refused + failed) / attempted, "frac")
    if args.trace:
        metrics["ops_failed_frac"] = readable["ops_failed_frac"]
    readable.update(wl.summary(results))

    env = environment()
    print(f"workload {wl.name}  seed {args.seed}  passes {len(walls)}  "
          f"ops {attempted} (refused {refused}, failed {failed})  "
          f"op_tail = p{tail_pct:g} of {len(lat)} samples "
          f"({len(lat) - int(-(-len(lat) * tail_pct // 100))} beyond; "
          f"p{workloads.tail_level(len(lat)):g} is the highest with >= 10)")
    for name, (value, unit) in {**readable, **metrics}.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    chosen = metrics if args.trace else end_to_end
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}.result.json").write_text(json.dumps(
        {"env": env, "seed": args.seed, "trace": args.trace, "result": line,
         "readable": {k: v for k, (v, _) in readable.items()}}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
