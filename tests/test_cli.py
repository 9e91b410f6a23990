"""Command-line interface: subcommands, exit codes, output formats."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from expramsey.cli import (
    EXIT_BUDGET,
    EXIT_COUNTEREXAMPLE,
    EXIT_EVALUATION,
    EXIT_OK,
    EXIT_PARSE,
    main,
)

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def schema(name):
    return json.loads((DOCS / name).read_text())


# ---------------------------------------------------------------------------
# gen

def test_gen_fe_example(capsys):
    code, out, _ = run(capsys, "gen", "fe", "2", "3")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert set(obj["elements"]) == {"2", "3", "2^3"}
    assert obj["seed"] == 0
    jsonschema.validate(obj, schema("patternset.schema.json"))


def test_gen_fp_example(capsys):
    code, out, _ = run(capsys, "gen", "fp", "2", "3")
    assert code == EXIT_OK
    assert set(json.loads(out)["elements"]) == {"2", "3", "6"}


def test_gen_shape_example(capsys):
    code, out, _ = run(capsys, "gen", "shape", "--edges", "1-2,2-3,2-4",
                       "2", "3", "4", "5")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert len(obj["elements"]) == 7
    assert "3^4" in obj["elements"] and "3^5" in obj["elements"]
    jsonschema.validate(obj, schema("patternset.schema.json"))


def test_gen_rejects_bad_generator(capsys):
    code, _, err = run(capsys, "gen", "fe", "1", "3")
    assert code == EXIT_PARSE


def test_gen_csv_format(capsys):
    code, out, _ = run(capsys, "gen", "fe", "2", "3", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("element")
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# colour

def test_colour_logstar_examples(capsys):
    code, out, _ = run(capsys, "colour", "logstar:r=1", "2", "4", "16")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert [a["colour"] for a in obj["assignments"]] == [1, 2, 3]
    jsonschema.validate(obj, schema("colour-assignments.schema.json"))

    code, out, _ = run(capsys, "colour", "logstar:r=1", "1")
    assert json.loads(out)["assignments"][0]["colour"] == 4


def test_colour_schurexp_of_one(capsys):
    code, out, _ = run(capsys, "colour", "schurexp", "1")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["k"] == 16
    assert obj["assignments"][0]["colour"] == 5  # encodes the pair (1, 0)


def test_colour_accepts_tower_syntax(capsys):
    code, out, _ = run(capsys, "colour", "logstar:r=2", "2^65536")
    assert code == EXIT_OK
    assert json.loads(out)["assignments"][0]["colour"] == 1


def test_colour_unknown_spec_is_parse_error(capsys):
    code, _, _ = run(capsys, "colour", "wat:k=1", "5")
    assert code == EXIT_PARSE


def test_colour_table_out_of_domain(capsys, tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"k": 2, "map": [1, 2]}))
    jsonschema.validate(json.loads(p.read_text()),
                        schema("table-colouring.schema.json"))
    code, _, err = run(capsys, "colour", f"table:{p}", "9")
    assert code == EXIT_EVALUATION


# ---------------------------------------------------------------------------
# verify / search

def test_verify_counterexample_exit_and_witness(capsys):
    code, out, _ = run(capsys, "verify", "const:k=1", "exptriple",
                       "--bound", "16")
    assert code == EXIT_COUNTEREXAMPLE
    obj = json.loads(out)
    wit = obj["result"]["witness"]
    assert wit["generators"] == [2, 2]
    assert {e["value"] for e in wit["elements"]} == {"2", "4"}
    jsonschema.validate(obj, schema("certificate.schema.json"))


def test_verify_avoidance_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "logstar:r=1", "exptriple-logcond",
                       "--bound", "1048576")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["result"] == {"type": "AvoidanceVerified"}
    jsonschema.validate(obj, schema("certificate.schema.json"))


def test_verify_schurexp_schurplusexp(capsys):
    code, out, _ = run(capsys, "verify", "schurexp", "schurplusexp",
                       "--bound", "10000")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["type"] == "AvoidanceVerified"


def test_search_writes_eager_line_to_stderr(capsys):
    code, out, err = run(capsys, "search", "const:k=1", "schur", "--bound", "9")
    assert code == EXIT_COUNTEREXAMPLE
    assert "counterexample" in err
    assert json.loads(out)["result"]["type"] == "Counterexample"


def test_verify_budget_exit(capsys):
    code, _, err = run(capsys, "verify", "logstar:r=1", "exptriple",
                       "--bound", "100000", "--budget-secs", "1e-9")
    assert code == EXIT_BUDGET


def test_verify_unknown_family_exit(capsys):
    code, _, _ = run(capsys, "verify", "const:k=1", "nosuchfamily",
                     "--bound", "4")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("bound", ["-5", "0"])
def test_verify_rejects_bound_below_one(capsys, bound):
    code, out, err = run(capsys, "verify", "logstar:r=1", "exptriple",
                         "--bound", bound)
    assert code == EXIT_PARSE and out == ""
    assert "--bound" in err


def test_unexpected_exception_is_not_a_counterexample(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("expramsey.cli.find_monochromatic", broken)
    code, out, err = run(capsys, "verify", "logstar:r=1", "exptriple",
                         "--bound", "16")
    assert code == EXIT_EVALUATION and out == ""
    assert err.startswith("internal error: RuntimeError: boom")


def test_huge_bound_is_not_a_counterexample(capsys):
    # about 10^200 power pairs: the cap refuses them before any list is built
    code, out, _ = run(capsys, "verify", "logstar:r=1", "exptriple",
                       "--bound", str(10**400))
    assert code != EXIT_COUNTEREXAMPLE
    assert code == EXIT_BUDGET and out == ""


def test_verify_csv_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "const:k=1", "exptriple",
                       "--bound", "16", "--format", "csv")
    assert code == EXIT_COUNTEREXAMPLE
    lines = out.strip().split("\n")
    assert lines[0].split(",")[:2] == ["schema", "family"]
    assert "2;2;4" in lines[1]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "cert.json"
    code, out, _ = run(capsys, "verify", "logstar:r=1", "exptriple-logcond",
                       "--bound", "65536", "--out", str(target))
    assert code == EXIT_OK
    obj = json.loads(target.read_text())
    assert obj["result"]["type"] == "AvoidanceVerified"


def test_threads_flag_output_identical(capsys):
    _, one, _ = run(capsys, "verify", "logstar:r=1", "exptriple",
                    "--bound", "4096", "--threads", "1")
    _, two, _ = run(capsys, "verify", "logstar:r=1", "exptriple",
                    "--bound", "4096", "--threads", "2")
    assert one == two


# ---------------------------------------------------------------------------
# ramsey

def test_ramsey_exptriple_one(capsys):
    code, out, _ = run(capsys, "ramsey", "exptriple", "--k", "1")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["value"] == 4 and obj["methods_agree"] is True
    jsonschema.validate(obj, schema("ramsey.schema.json"))


def test_ramsey_vdw(capsys):
    code, out, _ = run(capsys, "ramsey", "vdw", "--k", "2", "--len", "3")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["value"] == 9
    assert len(obj["witness"]["colours"]) == 8
    jsonschema.validate(obj, schema("ramsey.schema.json"))


def test_ramsey_budget_exit(capsys):
    code, out, _ = run(capsys, "ramsey", "exptriple", "--k", "2",
                       "--nmax", "100")
    assert code == EXIT_BUDGET
    assert json.loads(out)["value"] is None


def test_ramsey_vdw_needs_len(capsys):
    code, _, _ = run(capsys, "ramsey", "vdw", "--k", "2")
    assert code == EXIT_PARSE


# ---------------------------------------------------------------------------
# whole-process behaviours

def test_usage_error_exit_code(capsys):
    assert main(["gen"]) == EXIT_PARSE
    assert main([]) == EXIT_PARSE


def test_reproducible_verify_across_processes():
    cmd = [sys.executable, "-m", "expramsey.cli", "verify", "logstar:r=1",
           "exptriple-logcond", "--bound", "1048576", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == EXIT_OK
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["seed"] == 7


def test_cutoff_env_var_changes_exactness():
    code = (
        "from expramsey.tower import power, eval_exact\n"
        "print(eval_exact(power(2, 10)).is_exact)\n"
    )
    env = dict(os.environ, EXPRAMSEY_CUTOFF="100")
    got = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert got.stdout.strip() == "False"
    env = dict(os.environ, EXPRAMSEY_CUTOFF="2000")
    got = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert got.stdout.strip() == "True"


@pytest.mark.skipif(
    shutil.which("expramsey") is None,
    reason="console script `expramsey` is not on PATH; "
           "install the package with `pip install -e .` to run this test")
def test_console_script_installed():
    got = subprocess.run(["expramsey", "colour", "logstar:r=1", "16"],
                         capture_output=True, text=True)
    assert got.returncode == EXIT_OK
    assert json.loads(got.stdout)["assignments"][0]["colour"] == 3


def test_console_script_declaration_runs():
    # Runs the [project.scripts] target the way the generated wrapper does,
    # so the declaration stays tested where the script is not installed.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"expramsey": "expramsey.cli:main"}
    code = "import sys; from expramsey.cli import main; sys.exit(main())"
    got = subprocess.run([sys.executable, "-c", code,
                          "colour", "logstar:r=1", "16"],
                         capture_output=True, text=True)
    assert got.returncode == EXIT_OK
    assert json.loads(got.stdout)["assignments"][0]["colour"] == 3
