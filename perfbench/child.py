"""One pass of a workload in a fresh interpreter, so package caches start cold.

Usage: python3 perfbench/child.py SPEC RESULT

SPEC is a JSON object: {"tasks": [...], "out": DIR, "trace": bool,
"spans": PATH or null, "environment": bool}. The pass runs the tasks in
order, times each, and writes a JSON result to RESULT. Clock readings use
`time.perf_counter`, which on Linux is the system-wide monotonic clock, so
the parent can compare them with its own.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import schottky_zeta  # noqa: E402
import schottky_zeta.cli  # noqa: E402,F401  (the console entry point imports it)

T_IMPORT = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from schottky_zeta import cli, schottky, zeta  # noqa: E402


def _cli_task(argv: list[str], out: str) -> None:
    code = cli.main(["--out", out, "--workers", "1", *argv])
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with code {code}")


def _cli_report(argv: list[str], out: str) -> dict:
    path = Path(out) / f"{argv[0].replace('-', '_')}.json"
    return json.loads(path.read_text())["report"]


def _euler_task(task: dict) -> complex:
    group = schottky.named_group(task["group"])
    return zeta.euler_product(group, task["s"], len_max=task["len_max"])


def _run(task: dict, out: str, wrap) -> dict:
    start = time.perf_counter()
    try:
        if "argv" in task:
            wrap(task["name"], _cli_task)(task["argv"], out)
        else:
            value = wrap(task["name"], _euler_task)(task)
        seconds = time.perf_counter() - start
    except Exception:
        return {"name": task["name"], "seconds": time.perf_counter() - start,
                "error": traceback.format_exc(limit=3), "output": None}
    if "argv" in task:
        output = _cli_report(task["argv"], out)
    else:
        # The reference determinant is computed outside the timed call.
        group = schottky.named_group(task["group"])
        det = complex(zeta.zeta_det(group, task["s"]))
        output = {"euler": [value.real, value.imag], "zeta_det": [det.real, det.imag]}
    return {"name": task["name"], "seconds": seconds, "error": None, "output": output}


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict form of its build config
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "schottky_zeta": schottky_zeta.__version__,
    }


def main(spec_json: str, result_path: str) -> int:
    spec = json.loads(spec_json)
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        wrap = lambda name, fn: tracer.wrap(f"task.{name}", fn)  # noqa: E731
    else:
        wrap = lambda name, fn: fn  # noqa: E731

    tasks = [_run(task, spec["out"], wrap) for task in spec["tasks"]]
    t_end = time.perf_counter()
    result = {
        "t_import": T_IMPORT,
        "t_end": t_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks": tasks,
        "trace": tracer.summary() if tracer else None,
        "environment": environment() if spec.get("environment") else None,
    }
    if tracer is not None and spec.get("spans"):
        tracer.write_spans(spec["spans"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
