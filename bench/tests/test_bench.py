"""Tests of the benchmark itself: its oracles reject forged outputs, and each
workload runs end to end at a tiny size.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import expramsey as E  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# oracles agree with the definitions they encode

def test_log_star_thresholds():
    from expramsey._intlog import log_star_int

    for n in list(range(1, 300)) + [65535, 65536, 65537, 2**65536, 2**65536 - 1]:
        assert oracles.log_star(n) == log_star_int(n)


def test_max_root_exponent_by_roots():
    assert oracles.max_root_exponent(1) == 0
    assert oracles.max_root_exponent(72) == 1
    assert oracles.max_root_exponent(2**12) == 12
    assert oracles.max_root_exponent(6**6 * 5**12) == 6
    assert oracles.max_root_exponent((10**6 + 3) ** 4) == 4
    for n in range(2, 3000):
        assert oracles.max_root_exponent(n) == E.max_root_exponent(n)


def test_iter_log_le_matches_tower():
    for a in range(1, 600):
        for r in (0, 1, 2, 3):
            for b in (1, 2, 3, 4, 9):
                assert oracles.iter_log_le(a, r, b) == E.compare_iter_log(a, r, b)


def test_fe_values():
    assert W.fe_values([2, 3]) == {(2, 1), (3, 1), (2, 3)}
    for gens in ([2, 3, 5], [4, 7, 6], [2, 4, 3]):
        got = {W.fe_element_key(E.to_text(t))
               for t in E.finite_exponentials(gens).elements}
        assert got == W.fe_values(gens)


# ---------------------------------------------------------------------------
# forged outputs are rejected

EXPTRIPLE_JOB = 4
SCHUR_JOB = 5


def test_scan_replay_rejects_false_avoidance_that_sampling_accepts():
    wl = W.Scan(0)
    _, fam, _, bound, _ = W.SCAN_JOBS[EXPTRIPLE_JOB]
    family = E.parse_family(fam, bound)
    for seed in range(400):
        forged = E.Certificate(family=family.descriptor(), colouring="logstar:r=1",
                               bound=bound, instances_checked=family.count(),
                               result={"type": "AvoidanceVerified"}, seed=seed)
        if E.verify_certificate(forged):
            break
    else:
        pytest.skip("no seed made the sampled verifier accept the forgery")
    assert not wl.matches_replay(EXPTRIPLE_JOB, forged)


def test_scan_rejects_forged_witness():
    wl = W.Scan(0)
    spec, fam, _, bound, _ = W.SCAN_JOBS[SCHUR_JOB]
    cert, ok, _ = W._scan_job(wl.colourings[spec], fam, bound, 0)
    assert wl.check_job(SCHUR_JOB, cert, ok)
    wrong_colour = copy.deepcopy(cert)
    wrong_colour.result["witness"]["colour"] += 1
    assert not wl.check_job(SCHUR_JOB, wrong_colour, True)
    later = copy.deepcopy(cert)
    later.instances_checked += 1
    assert not wl.check_job(SCHUR_JOB, later, True)
    assert not wl.check_job(SCHUR_JOB, cert, False)


def test_symbolic_rejects_wrong_value(monkeypatch):
    monkeypatch.setattr(W, "TERMS_PER_SHAPE", 2)
    monkeypatch.setattr(W, "SYMBOLIC_SCANS", (("logstar:r=1", "shape:m=2,edges=1-2", {"m": 2}, 6),))
    wl = W.Symbolic(3)
    wl.gauge = speed.Gauge()
    wl.prepare()
    results = wl.run_pass()
    assert W.WRONG not in wl.check(results)
    checked = [r for r in results if r.exc is None and r.kind != "scan"
               and wl.expected(r.kind, r.key) is not None]
    assert {r.kind for r in checked} >= {"log_star", "eval_mod", "colour:logstar:r=1"}
    for r in checked:
        forged = W.Result(r.kind, r.key, r.seconds, not r.output if r.kind == "compare_iter_log"
                          else r.output + 1)
        assert wl.check([forged]) == [W.WRONG]


def test_ramsey_rejects_wrong_value_and_witness():
    comp = E.vdw_number(2, 3)
    assert W.check_ramsey(("vdw", 2, 3), comp)
    assert not W.check_ramsey(("vdw", 2, 3), _with(comp, value=8))
    mono = _with(comp, witness={"n": 8, "colours": [1] * 8})
    assert not W.check_ramsey(("vdw", 2, 3), mono)
    exp2 = E.exp_ramsey_number(2)
    assert W.check_ramsey(("exp", 2), exp2)
    assert not W.check_ramsey(("exp", 2), _with(exp2, value=65535))


def _with(comp, **changes):
    out = copy.deepcopy(comp)
    for k, v in changes.items():
        setattr(out, k, v)
    return out


def test_cli_rejects_forged_output():
    wl = W.Cli(0, runner=run.run_cli)
    wl.gauge = speed.Gauge()
    results = wl.run_pass()
    assert wl.check(results) == [W.OK] * len(results)

    def forge(i, **kw):
        out = list(results)
        r = out[i]
        code, stdout, stderr = r.output
        out[i] = W.Result(r.kind, r.key, r.seconds,
                          (kw.get("code", code), kw.get("stdout", stdout), stderr))
        return wl.check(out)[i]

    colour = next(i for i, r in enumerate(results) if r.kind == "colour")
    obj = json.loads(results[colour].output[1])
    obj["assignments"][0]["colour"] += 1
    assert forge(colour, stdout=json.dumps(obj).encode()) == W.WRONG
    verify = next(i for i, r in enumerate(results) if r.kind == "verify")
    assert forge(verify, stdout=results[verify].output[1] + b" ") == W.WRONG
    search = next(i for i, r in enumerate(results) if r.kind == "search")
    assert forge(search, code=0) == W.WRONG


# ---------------------------------------------------------------------------
# every workload at a tiny size, untraced and traced

TINY = {
    "scan": {"SCAN_JOBS": (
        ("logstar:r=1", "expquad", {}, 40, "AvoidanceVerified"),
        ("lacunary:seq=n*2^n,nmax=12", "diffpair:seq=n*2^n,nmax=12",
         {"seq": "n*2^n", "nmax": 12}, 1500, "AvoidanceVerified"),
        ("schurexp", "schurplusexp", {}, 100, "AvoidanceVerified"),
        ("logstar:r=2", "exptriple-logcond:r=2", {"r": 2}, 2**16, "AvoidanceVerified"),
        ("logstar:r=1", "exptriple", {}, 10**4, "Counterexample"),
        ("schurexp", "schur", {}, 300, "Counterexample"),
    )},
    "symbolic": {"TERMS_PER_SHAPE": 2,
                 "SYMBOLIC_SCANS": (("logstar:r=1", "shape:m=3,edges=1-2;2-3", {"m": 3}, 6),
                                    ("logstar:r=1", "fep:m=2,w=1", {"m": 2}, 6))},
    "ramsey": {"RAMSEY_JOBS": (("exp", 1), ("exp", 2), ("vdw", 2, 3))},
    "cli": {},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_smoke(name, trace, monkeypatch, capsys):
    for attr, value in TINY[name].items():
        monkeypatch.setattr(W, attr, value)
    monkeypatch.setattr(W.WORKLOADS[name], "min_passes", 1)
    allowed = os.sched_getaffinity(0)
    try:
        assert run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    finally:
        os.sched_setaffinity(0, allowed)  # run.main pins the process to one CPU
    last = capsys.readouterr().out.strip().splitlines()[-1]
    line = json.loads(last)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in line["metrics"].items()}


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
