"""Run the pulsesense benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

Run from the root of a source checkout; the program is imported from its
``src`` directory. One workload runs in this process; ``all`` (the default)
runs each workload in a fresh process of its own. The metric names, units
and bounds come from BENCHMARK.json at the checkout root. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline_batch", "train_epochs", "live_streams")
# The workload sizes were chosen with one BLAS thread; every workload runs
# in one Python thread, so a run stays within one core.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test only")
    return ap.parse_args(argv)


def blas_info() -> dict:
    """BLAS library, version and live thread count as numpy reports them."""
    import ctypes

    import numpy as np
    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = int(getter())
                return info
    info["blas_threads"] = f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"
    return info


def machine() -> dict:
    import numpy as np
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            **blas_info()}


def run_one(args, spec) -> int:
    src = ROOT / "src"
    if not (src / "pulsesense" / "__init__.py").is_file():
        print(f"error: no pulsesense sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    workload = importlib.import_module(args.workload)

    print(f"machine {json.dumps(machine())}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")
    res = workload.run(args.seed, args.seconds, bool(args.trace), args.tiny)
    for line in res.lines:
        print(line)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = res.metrics.get(name)
        if got is None and args.trace:
            value, n = 0.0, 0  # a layer this workload does not run
        elif got is None:
            print(f"error: {args.workload} did not measure {name}", file=sys.stderr)
            return 1
        elif got.unit != unit:
            print(f"error: {name} measured in {got.unit}, BENCHMARK.json says {unit}",
                  file=sys.stderr)
            return 1
        else:
            value, n = got.value, got.n
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:14.6g} {unit:8s} n={n}")
    print(f"  {'failed_frac':32s} {res.failed / max(res.attempted, 1):14.6g} "
          f"{'ratio':8s} n={res.attempted}")
    print(json.dumps({"correct": res.failed == 0, "attempted": max(res.attempted, 1),
                      "failed": res.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory and warm caches do
    not carry from one workload into the next."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with code {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    if status == 0:
        print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
