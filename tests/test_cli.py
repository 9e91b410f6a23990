"""Command-line interface: subcommands, exit codes, output formats."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_gen_cap_bounds_every_pattern(capsys):
    # fs, fp: 2^m - 1 candidates; fpw: prod(W_i + 1); shape: m + |edges|;
    # fe: each block's candidates, counted before the block is built
    code, out, err = run(capsys, "gen", "fe", "2", "3", "4", "5", "6", "--cap", "100")
    assert (code, out) == (EXIT_BUDGET, "") and "element cap 100" in err
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "gen", "fe", "2", "3", "4", "5", "6", "7")
    assert (code, out) == (EXIT_BUDGET, "") and time.perf_counter() - t0 < 5
    for argv, fits in ((["fs", "2", "3", "4"], 7), (["fp", "2", "3", "4"], 7),
                       (["fpw", "--w", "2", "2", "3"], 9),
                       (["shape", "--edges", "1-2", "2", "3"], 3)):
        assert run(capsys, "gen", *argv, "--cap", str(fits))[0] == EXIT_OK, argv
        code, out, _ = run(capsys, "gen", *argv, "--cap", str(fits - 1))
        assert (code, out) == (EXIT_BUDGET, ""), argv


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


def test_colour_non_ascii_digit_is_parse_error(capsys):
    code, out, err = run(capsys, "colour", "logstar:r=1", "2^²")
    assert code == EXIT_PARSE == 2
    assert out == "" and "position 2" in err


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


def test_verify_nan_budget_is_a_parse_error(capsys):
    verify = ["verify", "logstar:r=1", "schur", "--bound", "100"]
    code, out, err = run(capsys, *verify, "--budget-secs", "nan")
    assert code == EXIT_PARSE and out == "" and "nan" in err
    # a negative budget is spent before the scan starts
    assert run(capsys, *verify, "--budget-secs", "-1")[0] == EXIT_BUDGET


def test_verify_unknown_colouring_key_exit(capsys):
    code, out, err = run(capsys, "verify", "logstar:rr=3", "exptriple",
                         "--bound", "64")
    assert code == EXIT_PARSE
    assert out == "" and "'rr'" in err


def test_subcommands_refuse_flags_they_ignore(capsys):
    ramsey = ["ramsey", "vdw", "--k", "2", "--len", "3"]
    colour = ["colour", "logstar:r=1", "16"]
    gen = ["gen", "fep", "2", "3"]
    for argv in (ramsey + ["--budget-secs", "0.001"], ramsey + ["--threads", "9"],
                 ramsey + ["--cap", "1"], colour + ["--threads", "4"],
                 colour + ["--cap", "0"], colour + ["--budget-secs", "1"],
                 gen + ["--threads", "2"], gen + ["--budget-secs", "1"]):
        assert run(capsys, *argv)[0] == EXIT_PARSE, argv
    # the flags each subcommand reads, and the shared ones, still parse
    for argv in (ramsey + ["--seed", "3", "--format", "csv"],
                 colour + ["--seed", "3", "--format", "csv"],
                 gen + ["--cap", "100", "--seed", "3"],
                 ["verify", "logstar:r=1", "exptriple", "--bound", "64", "--cap",
                  "100", "--threads", "1", "--budget-secs", "5", "--seed", "3"]):
        assert run(capsys, *argv)[0] == EXIT_OK, argv


def test_gen_fep_cap_counts_distinct_elements(capsys):
    # generators 2, 2 give the set {2, 4}: its later candidates repeat them
    code, out, _ = run(capsys, "gen", "fep", "2", "2", "--cap", "2")
    assert code == EXIT_OK
    assert json.loads(out)["elements"] == ["2", "2^2"]
    assert run(capsys, "gen", "fep", "2", "2", "--cap", "1")[0] == EXIT_BUDGET


def test_verify_unknown_family_exit(capsys):
    code, _, _ = run(capsys, "verify", "const:k=1", "nosuchfamily",
                     "--bound", "4")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("spec, named", [
    ("exptriple:stirct=1", "'stirct'"), ("schur:bound=5", "'bound'"),
    ("grid:len=2,foo=3", "'foo'"), ("fep:m=2,w=x", "for w"),
])
def test_verify_bad_family_key_exit(capsys, spec, named):
    code, out, err = run(capsys, "verify", "logstar:r=1", spec, "--bound", "64")
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("parse error:") and named in err


@pytest.mark.parametrize("bound", ["-5", "0"])
def test_verify_rejects_bound_below_one(capsys, bound):
    code, out, err = run(capsys, "verify", "logstar:r=1", "exptriple",
                         "--bound", bound)
    assert code == EXIT_PARSE and out == ""
    assert "--bound" in err


# a name expramsey.cli binds lazily -> a command that calls it
LAZY_CALLS = {
    "find_monochromatic": ["verify", "logstar:r=1", "exptriple", "--bound", "16"],
    "vdw_number": ["ramsey", "vdw", "--k", "2", "--len", "3"],
    "exp_ramsey_number": ["ramsey", "exptriple", "--k", "1"],
    "finite_exponentials": ["gen", "fe", "2", "3"],
    "parse_colouring": ["colour", "logstar:r=1", "2", "4"],
}


@pytest.mark.parametrize("name", LAZY_CALLS)
def test_unexpected_exception_is_not_a_counterexample(capsys, monkeypatch, name):
    # the subcommands import their modules when they run, but call these
    # names as attributes of expramsey.cli, so a patch there takes effect
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(f"expramsey.cli.{name}", broken)
    code, out, err = run(capsys, *LAZY_CALLS[name])
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


def test_threads_below_one_exit_parse(capsys):
    for cmd, threads in (("verify", "0"), ("search", "-3")):
        code, out, err = run(capsys, cmd, "logstar:r=1", "exptriple",
                             "--bound", "64", "--threads", threads)
        assert code == EXIT_PARSE and out == "" and "threads" in err


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


def test_ramsey_ceiling_over_the_triple_cap_exits_budget(capsys):
    code, out, err = run(capsys, "ramsey", "exptriple", "--k", "3",
                         "--nmax", str(10**18))
    assert code == EXIT_BUDGET and out == "" and "cap" in err


def test_ramsey_vdw_needs_len(capsys):
    code, _, _ = run(capsys, "ramsey", "vdw", "--k", "2")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("kind", [["exptriple", "--k", "1"],
                                  ["vdw", "--k", "2", "--len", "3"]])
@pytest.mark.parametrize("nmax", ["0", "-5"])
def test_ramsey_nmax_below_one_exits_parse(capsys, kind, nmax):
    code, out, err = run(capsys, "ramsey", *kind, "--nmax", nmax)
    assert code == EXIT_PARSE and out == "" and "n_max" in err


def test_ramsey_exptriple_refuses_len(capsys):
    code, out, err = run(capsys, "ramsey", "exptriple", "--k", "1", "--len", "3")
    assert code == EXIT_PARSE and out == "" and "--len" in err


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


def test_cutoff_env_var_changes_no_output():
    # the exactness cutoff is a constant: no value of the old override
    # variable, valid or not, changes an exit code or a certificate byte
    base = {k: v for k, v in os.environ.items() if k != "EXPRAMSEY_CUTOFF"}
    for argv in (["colour", "logstar:r=1", "16"],
                 ["verify", "lacunary:seq=n*2^n,nmax=2", "expquad", "--bound", "64"]):
        cmd = [sys.executable, "-m", "expramsey.cli", *argv]
        want = subprocess.run(cmd, env=base, capture_output=True)
        assert want.returncode in (EXIT_OK, EXIT_COUNTEREXAMPLE)
        for value in ("", "abc", "0", "1000"):
            got = subprocess.run(cmd, env=dict(base, EXPRAMSEY_CUTOFF=value),
                                 capture_output=True)
            assert (got.returncode, got.stdout) == (want.returncode, want.stdout), value


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


# ---------------------------------------------------------------------------
# fuzzed argv

COLOURING_SPECS = [
    "const:k=1", "const:k=2", "logstar", "logstar:r=1", "logstar:r=2", "schurexp",
    "pow2abb:nmax=6", "abbb:nmax=6", "lacunary:seq=n*2^n,nmax=8",
    "product:logstar:r=1+const:k=2",
]
BAD_COLOURING_SPECS = [
    "", ":", "nosuch", "logstar:r=x", "logstar:r=-1", "const:k=0", "product:",
    "lacunary:seq=foo", "table:/nonexistent/colours.json",
    "logstar:rr=3", "const:kk=2", "lacunary:seq=3^n,nmx=5", "pow2abb:nmax=10,foo=1",
    "abbb:n=3", "schurexp:x=1",
]
FAMILY_SPECS = [
    "exptriple", "exptriple:strict=1", "exptriple-logcond", "exptriple-logcond:r=2",
    "expquad", "schur", "schurplusexp", "shape:m=2,edges=1-2",
    "shape:m=3,edges=1-2;2-3;3-1", "fep:m=2,w=1", "diffpair:seq=3^n,nmax=4",
    "diffpair:seq=n*2^n", "grid:len=2",
]
BAD_FAMILY_SPECS = [
    "", "nosuch", "exptriple:stirct=1", "exptriple:strict", "schur:bound=5",
    "grid:len=2,foo=3", "grid:len=0", "fep:m=2,w=x", "fep:m=2,w=table",
    "shape:m=2,edges=1-x", "shape:m=2,edges=1-5", "diffpair:seq=foo",
    "diffpair:seq=n^n*log2n", "exptriple-logcond:r=", "fep:m=0,w=1", "fep:m=-1,w=1",
]
SPEC_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789:=,;-+^*", max_size=24)


def specs(good, bad):
    """A valid spec about half the time, else a malformed or random one."""
    return st.one_of(st.sampled_from(good), st.sampled_from(bad), SPEC_TEXT,
                     st.sampled_from(good))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["verify", "search"]),
       specs(COLOURING_SPECS, BAD_COLOURING_SPECS),
       specs(FAMILY_SPECS, BAD_FAMILY_SPECS),
       st.integers(-3, 3000),
       st.lists(st.sampled_from([("--format", "csv"), ("--cap", "50"),
                                 ("--threads", "2")]), unique=True))
def test_fuzzed_argv_keeps_the_exit_code_contract(command, colouring, family,
                                                  bound, flags):
    # the time budget keeps slow avoidance walks short; a spent budget is exit 3
    argv = [command, colouring, family, "--bound", str(bound),
            "--budget-secs", "0.5", *(x for flag in flags for x in flag)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_COUNTEREXAMPLE, EXIT_PARSE, EXIT_BUDGET,
                    EXIT_EVALUATION), argv
    if code == EXIT_COUNTEREXAMPLE:
        assert "Counterexample" in out.getvalue(), argv
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
