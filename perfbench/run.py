"""Benchmark of the schottky-zeta CLI and library, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload runs in a fresh interpreter (`child.py`), as a CLI
user runs it, with one BLAS thread and `--workers 1`. Passes repeat until
`--seconds` are used. `--trace 0` reports the end-to-end metrics as medians
over passes; `--trace 1` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones. Every task's output is checked
(`checks.py`). The last line of standard output is the result object; the
line before it records the environment, the inputs and every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s, even if a pass hangs
WORK_DIR = ROOT / ".perfbench"
TASK_METRICS = ("delta", "np", "jensen", "trace_check", "hs_sum", "charsum", "euler")


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK_DIR)
    env.pop("SCHOTTKY_ZETA_OUT", None)
    return env


def run_pass(tasks: list[dict], deadline: float, trace: bool = False,
             environment: bool = False, spans: Path | None = None) -> dict:
    """Run one pass in a fresh interpreter; wall time is spawn to exit."""
    out = WORK_DIR / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = WORK_DIR / "result.json"
    result_path.unlink(missing_ok=True)
    spec = {"tasks": tasks, "out": str(out), "trace": trace,
            "spans": str(spans) if spans else None, "environment": environment}
    t_spawn = time.perf_counter()
    timeout = max(deadline - t_spawn, 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec), str(result_path)],
            cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
        stderr, code = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired:
        stderr, code = f"pass killed after {timeout:.0f} s", None
    wall = time.perf_counter() - t_spawn
    shutil.rmtree(out, ignore_errors=True)
    if code != 0 or not result_path.exists():
        return {"wall_s": wall, "ok": False, "error": f"exit {code}: {stderr[-2000:]}"}
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result.update(wall_s=wall, ok=True, setup_s=result["t_import"] - t_spawn)
    return result


def _failures(result: dict, tasks: list[dict]) -> dict[str, list[str]]:
    """Problems by failed task; a pass that died fails all its tasks."""
    if not result["ok"]:
        return {t["name"]: [result["error"]] for t in tasks}
    failed = {}
    for task, done in zip(tasks, result["tasks"]):
        problems = [done["error"]] if done["error"] else checks.check(task, done["output"])
        if problems:
            failed[task["name"]] = problems
    return failed


def _task_samples(passes: list[dict], tasks: list[dict]) -> dict:
    return {t["name"]: [d["seconds"] for p in passes for d in p["tasks"] if d["name"] == t["name"]]
            for t in tasks}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.perf_counter() + RUN_LIMIT_S
    tasks = workloads.tasks(workload, seed)
    WORK_DIR.mkdir(exist_ok=True)

    probes = [run_pass([], deadline, environment=(i == 0)) for i in range(SETUP_PROBES)]
    if not all(p["ok"] for p in probes):
        raise RuntimeError(f"set-up probe failed: {[p.get('error') for p in probes if not p['ok']]}")
    setup = [p["setup_s"] for p in probes]

    kinds = (False, True) if trace else (False,)
    passes = {False: [], True: []}
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        spans = WORK_DIR / f"spans-{workload}.json" if traced else None
        result = run_pass(tasks, deadline, trace=traced, spans=spans)
        attempted += len(tasks)
        failures = _failures(result, tasks)
        failed += len(failures)
        problems += [f"pass {i}, {name}: {p}" for name, ps in failures.items() for p in ps]
        passes[traced].append(result)
        if result["ok"] and not traced:
            setup.append(result["setup_s"])
        i += 1
        upcoming = passes[kinds[i % len(kinds)]] or passes[traced]
        estimate = _median([p["wall_s"] for p in upcoming])
        now = time.perf_counter()
        if now >= deadline or (all(passes[k] for k in kinds) and now - start + estimate > seconds):
            break

    plain = [p for p in passes[False] if p["ok"]]
    traced_ok = [p for p in passes[True] if p["ok"]]
    walls = [p["wall_s"] for p in passes[False]]
    task_s = _task_samples(plain, tasks)
    if trace:
        per_pass = [tracer.layer_metrics(p["trace"], p["t_end"] - p["t_import"]) for p in traced_ok]
        metrics = {k: (_median([m[k] for m in per_pass]), unit_of(k)) for k in per_pass[0]} \
            if per_pass else {}
        traced_wall = _median([p["wall_s"] for p in passes[True]])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - _median(walls), "s")
        for name in TASK_METRICS:
            metrics[f"{name}_s"] = (_median(task_s.get(name, [])), "s")
    else:
        metrics = {
            "wall_s": (_median(walls), "s"),
            "setup_s": (_median(setup), "s"),
            "peak_rss_mb": (_median([p["peak_rss_mb"] for p in plain]), "MB"),
        }

    record = {
        "workload": workload,
        "why": workloads.WORKLOADS[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "blas_threads_set": BLAS_THREADS,
            **(probes[0].get("environment") or {}),
        },
        "sizes": workloads.sizes(workload),
        "tasks": tasks,
        "samples": {
            "setup_s": setup,
            "wall_s": walls,
            "traced_wall_s": [p["wall_s"] for p in passes[True]],
            "task_s": task_s,
            "traced_task_s": _task_samples(traced_ok, tasks),
        },
        "spans_file": str(WORK_DIR.relative_to(ROOT) / f"spans-{workload}.json") if trace else None,
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record, result


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith("flops"):
        return "flop"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "schottky_zeta" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
