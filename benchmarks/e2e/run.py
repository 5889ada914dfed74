"""End-to-end benchmark of semi-external DFS and BFS: one command.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--scale F] [--out FILE]

Runs each workload in a fresh interpreter, one after another, with the
checkout's ``src`` on ``PYTHONPATH`` and every ``REPRO_*`` variable
removed.  Prints every metric as ``workload metric value unit``, then one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its
per-layer metrics, and no ``--trace`` both.  Exits non-zero when a
traversal failed or its output was wrong, and when the checkout holds no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "benchmarks", "results", "e2e")
WORKLOADS = layers.ALL_WORKLOADS
#: Units of the end-to-end values printed beside those BENCHMARK.json bounds.
EXTRA_UNITS = {"error_rate": "ratio", "setup_wall_s": "s", "run_wall_s": "s",
               "host_speed": "ratio"}
#: A workload's interpreter is stopped after this long.
CHILD_TIMEOUT_SECONDS = 170.0


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def host_stamp() -> Dict[str, Any]:
    """CPU model, physical cores and usable CPUs of this host."""
    model: Optional[str] = None
    cores = set()
    physical = core = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key, value = key.strip(), value.strip()
                if key == "model name" and model is None:
                    model = value
                elif key == "physical id":
                    physical = value
                elif key == "core id":
                    core = value
                elif not key and core is not None:
                    cores.add((physical, core))
                    physical = core = None
        if core is not None:
            cores.add((physical, core))
    except OSError:
        pass
    return {
        "cpu_model": model,
        "physical_cores": len(cores) or None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SOURCE, env.get("PYTHONPATH")) if path
    )
    return env


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Measure one workload in a fresh interpreter; its parsed JSON result."""
    os.makedirs(RESULTS, exist_ok=True)
    work_dir = os.path.join(RESULTS, f"work-{name}-{os.getpid()}")
    command = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "both" if args.trace is None else args.trace,
        "--scale", str(args.scale), "--work-dir", work_dir,
    ]
    if args.trace != "0":
        command += ["--trace-file",
                    os.path.join(RESULTS, f"trace-{name}-seed{args.seed}.jsonl")]
    try:
        completed = subprocess.run(
            command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_SECONDS, check=False, text=True,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {name} did not finish within "
                         f"{CHILD_TIMEOUT_SECONDS:.0f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)  # the child may be killed
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"error: {name} exited with code {completed.returncode}")
    return json.loads(lines[-1])


def report(results: Dict[str, Dict[str, Any]], benchmark: Dict[str, Any],
           trace: Optional[str]) -> Dict[str, Any]:
    """Print every metric; return the final contract line."""
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    units.update(EXTRA_UNITS)
    units.update((name, spec[0]) for name, spec in layers.layer_metrics().items())
    selected: List[str] = []
    if trace != "1":
        selected += [m["name"] for m in benchmark["end_to_end"]]
    if trace != "0":
        selected += [m["name"] for m in benchmark["per_layer"]]
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, result in results.items():
        absent = {metric for target in layers.TARGETS
                  if target.name in result["absent"] for metric in target.metrics}
        values = {**result["e2e"], **dict(sorted(result["layers"].items()))}
        # Label a peak RSS read over the whole process, not since set-up.
        rss_source = result["details"].get("peak_rss_source")
        for metric, value in values.items():
            shown = "absent" if metric in absent else repr(value)
            label = (f" ({rss_source})" if metric == "peak_rss_mb"
                     and rss_source != "VmHWM" else "")
            print(f"{name} {metric} {shown} {units[metric]}{label}")
        for error in result["errors"]:
            print(f"{name} error {error}", file=sys.stderr)
        for metric in selected:
            value = values[metric]
            if not math.isfinite(value):
                raise SystemExit(f"error: {name} {metric} is {value}")
            key = metric if len(results) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: every workload, every metric.")
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=1,
                        help="graph seed (default 1; 2 is held out for claims)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload and mode "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "default both")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every graph's node count (smoke runs)")
    parser.add_argument("--out", help="write every result and the host stamp here")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: no repro package under {SOURCE}; run from a checkout",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    results = {name: run_workload(name, args) for name in names}
    line = report(results, benchmark, args.trace)
    if args.out:
        first = next(iter(results.values()))
        stamp = {**host_stamp(), **first["versions"]}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"host": stamp, "seed": args.seed, "seconds": args.seconds,
                       "scale": args.scale, "trace": args.trace,
                       "workloads": results}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
