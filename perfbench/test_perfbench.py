"""Tests of the benchmark itself: its output checks catch perturbed results,
seeds give the promised inputs, and the tracer accounts spans correctly.

Run with: python3 -m pytest perfbench
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _reference_outputs() -> dict:
    """Outputs of the seed-0 tasks as the package printed them."""
    tc_primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    return {
        "delta": {"group": "gamma_m:2", "delta": 0.2748820650354028,
                  "bisection": 0.2748820650354028, "zeta_zero": 0.27488206025532314},
        "np": {"p": 7, "sigma": 0.15, "count": 0},
        "jensen": {"p": 5, "sigma": 0.2, "tau": 0.015625, "K": 2.0, "bound": 110.692478227292},
        "trace_check": {
            "primes": tc_primes, "total_mismatches": 0,
            "per_prime": [{"p": p, "surjective": True, "closure_size": p * (p * p - 1),
                           "words_checked": 160, "mismatches": 0} for p in tc_primes],
        },
        "hs_sum": {"tau": 0.015625, "s": "(0.9+0j)", "x": 60.0,
                   "primes": [31, 37, 41, 43, 47, 53, 59],
                   "direct": 1.1320493887205498, "decomposed": 1.1320493887205496,
                   "diagonal": 1.1327808902856398, "off_diagonal": -0.0007315015650900684,
                   "fallback_pairs": 0},
        "charsum": {"records": [
            {"d": d, "x": x, "sum": total, "unweighted": float(unweighted),
             "bound_ratio": abs(total) / (x**0.5 * math.log(d * x) ** 2),
             "prime_count": checks.PRIME_COUNTS[x]}
            for (d, x), (total, unweighted) in sorted(checks.CHARSUM.items())
        ]},
        "euler": {"euler": [0.9795294067559174, 0.0],
                  "zeta_det": [0.9795294067559033, 4.473938535709622e-19]},
    }


def _seed0_tasks() -> dict:
    return {t["name"]: t for w in workloads.WORKLOADS for t in workloads.tasks(w, 0)}


def test_reference_outputs_pass():
    tasks = _seed0_tasks()
    for name, output in _reference_outputs().items():
        assert checks.check(tasks[name], output) == [], name


PERTURBATIONS = [
    ("delta", lambda r: r.update(delta=r["delta"] + 2e-7, bisection=r["bisection"] + 2e-7)),
    ("delta", lambda r: r.update(zeta_zero=r["zeta_zero"] + 2e-7)),
    ("np", lambda r: r.update(count=1)),
    ("jensen", lambda r: r.update(bound=r["bound"] * (1 + 2e-6))),
    ("jensen", lambda r: r.update(bound=float("nan"))),
    ("trace_check", lambda r: r.update(total_mismatches=1)),
    ("trace_check", lambda r: r["per_prime"][3].update(words_checked=159)),
    ("trace_check", lambda r: r["per_prime"][0].update(closure_size=60)),
    ("trace_check", lambda r: r.update(primes=r["primes"][:-1])),
    ("hs_sum", lambda r: r.update(decomposed=r["decomposed"] * (1 + 1e-8))),
    ("hs_sum", lambda r: r.update(direct=r["direct"] * (1 + 1e-8), decomposed=r["decomposed"] * (1 + 1e-8))),
    ("charsum", lambda r: r["records"][2].update(prime_count=36961)),
    ("charsum", lambda r: r["records"][5].update(sum=r["records"][5]["sum"] + 1e-3)),
    ("charsum", lambda r: r["records"][1].update(unweighted=r["records"][1]["unweighted"] + 2)),
    ("charsum", lambda r: r["records"].pop()),
    ("euler", lambda r: r.update(euler=[r["euler"][0] + 1e-9, 0.0])),
]


@pytest.mark.parametrize("name,perturb", PERTURBATIONS)
def test_perturbed_output_fails(name, perturb):
    output = copy.deepcopy(_reference_outputs()[name])
    perturb(output)
    assert checks.check(_seed0_tasks()[name], output)


def test_charsum_check_recomputes_other_discriminants():
    # A seed that draws new discriminants has no pinned sums, so the check
    # must catch a wrong value by recomputing it.
    d, x = 7, 1e6
    total, unweighted = checks._character_sums(d, x)
    task = {"name": "charsum", "argv": ["charsum", "--d", "7", "--x", "1e6"]}
    ratio = abs(total) / (x**0.5 * math.log(d * x) ** 2)
    record = {"d": d, "x": x, "sum": total, "unweighted": float(unweighted),
              "bound_ratio": ratio, "prime_count": checks.PRIME_COUNTS[x]}
    assert checks.check(task, {"records": [record]}) == []
    record["unweighted"] += 2
    assert checks.check(task, {"records": [record]})


def test_malformed_output_is_a_failure():
    assert checks.check(_seed0_tasks()["np"], {"p": 7})


def test_seed_zero_gives_reference_inputs():
    tasks = _seed0_tasks()
    assert tasks["np"]["argv"][-1] == "0.15"
    assert "0.2" in tasks["jensen"]["argv"]
    assert tasks["charsum"]["argv"][2] == "5,8,13,60"
    assert tasks["euler"]["s"] == 1.2


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seeds_are_reproducible_and_stay_on_checked_grids(workload):
    names = [t["name"] for t in workloads.tasks(workload, 0)]
    for seed in range(1, 40):
        tasks = workloads.tasks(workload, seed)
        assert tasks == workloads.tasks(workload, seed)
        assert [t["name"] for t in tasks] == names
        for t in tasks:
            argv = t.get("argv", [])
            if t["name"] == "jensen":
                assert float(argv[argv.index("--sigma") + 1]) in checks.JENSEN_BOUNDS
            if t["name"] == "np":
                assert float(argv[argv.index("--sigma") + 1]) in workloads.NP_SIGMAS
            if t["name"] == "hs_sum":
                assert float(argv[argv.index("--s") + 1]) in checks.HS_VALUES
            if t["name"] == "charsum":
                ds = [int(v) for v in argv[argv.index("--d") + 1].split(",")]
                assert len(set(ds)) == 4
                for d, (lo, hi) in zip(ds, workloads.CHARSUM_STRATA):
                    assert lo <= d <= hi
            if t["name"] == "euler":
                assert workloads.EULER_S_RANGE[0] <= t["s"] <= workloads.EULER_S_RANGE[1]


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_tracer_self_time_and_groups():
    tr = tracer.Tracer()
    inner = tr.wrap("reps.UnitaryRep.image", lambda: _spin(0.02))
    outer = tr.wrap("reps.UnitaryRep.inverse_image", lambda: (inner(), _spin(0.01)))
    outer()
    inner()
    summary = tr.summary()
    calls = summary["calls"]
    assert calls["reps.UnitaryRep.image"][0] == 2
    assert calls["reps.UnitaryRep.inverse_image"][1] == pytest.approx(0.01, abs=5e-3)
    assert calls["reps.UnitaryRep.image"][1] == pytest.approx(0.04, abs=5e-3)
    # image nested in inverse_image is one outer call of the group
    outer_calls, inclusive = summary["groups"]["reps.image"]
    assert outer_calls == 2
    assert inclusive == pytest.approx(0.05, abs=5e-3)
    (child, parent, first, *_), (root, no_parent, *_), _ = tr.spans
    assert parent == root and no_parent == -1 and tr.names[first] == "reps.UnitaryRep.image"
    metrics = tracer.layer_metrics(summary, run_s=0.06)
    assert metrics["reps.image.calls"] == 2
    assert metrics["cli.unattributed.s"] == pytest.approx(0.01, abs=5e-3)


def test_tracer_span_cap_keeps_totals():
    tr = tracer.Tracer(span_cap=3)
    f = tr.wrap("arithmetic.kronecker", lambda: None)
    for _ in range(10):
        f()
    assert len(tr.spans) == 3 and tr.dropped == 7
    assert tr.summary()["calls"]["arithmetic.kronecker"][0] == 10


def test_traced_pass_sees_names_bound_in_other_modules(tmp_path):
    # cli binds zeta_det by name; the traced pass must count calls made
    # through that binding and numpy's det as zeta sees it.
    task = {"name": "zeta", "argv": ["zeta", "--group", "gamma_m:2", "--re-lo", "0.5",
                                     "--re-hi", "1.0", "--points", "3"]}
    spec = {"tasks": [task], "out": str(tmp_path), "trace": True,
            "spans": str(tmp_path / "spans.json")}
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec), str(result)],
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    summary = json.loads(result.read_text())["trace"]
    metrics = tracer.layer_metrics(summary, run_s=1.0)
    assert summary["calls"]["cli.main"][0] == 1
    assert metrics["zeta.det.calls"] == 3
    assert metrics["zeta.linalg_det.calls"] == 3
    assert metrics["transfer.assemble.calls"] == 3
    assert metrics["transfer.assemble.blocks"] == 3 * 12
    assert metrics["transfer.matrix_dim.max"] == 64
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["names"][spans["spans"][-1][2]] == "task.zeta"


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "exact-arith", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
