"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 bench/collect.py --workloads stream-200 turning-200 --seeds 1 2 3 4 5 \
        --trace 0 1 --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, trace mode, seed), one after the
other, and reports per workload and metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the distance
between the quartiles as a share of the median, beside the metric's bound.
With both trace modes, the tracing overhead of each end-to-end number is its
traced median over its untraced median, minus one. ``--out`` writes all of it,
with the machine and program revision, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def _summary(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    row = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        row["bound"] = bound
    return row


def _revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0])
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "revision": _revision(),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        entry = {}
        for trace in args.trace:
            results, walls = [], []
            for seed in args.seeds:
                result, wall = _run(workload, seed, spec["run_seconds"], trace)
                results.append(result)
                walls.append(wall)
                print(f"{workload} trace={trace} seed={seed} wall={wall:.1f}s "
                      f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)
            metrics = {}
            for name in results[0]["metrics"]:
                row = _summary([r["metrics"][name]["value"] for r in results], bounds.get(name))
                metrics[name] = {"unit": units[name], **row}
            entry["traced" if trace else "untraced"] = {
                "correct": all(r["correct"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "wall_s": _summary(walls, None),
                "metrics": metrics,
            }
        if "traced" in entry and "untraced" in entry:
            plain, traced = entry["untraced"]["metrics"], entry["traced"]["metrics"]
            entry["tracing_overhead"] = {
                name: traced["traced." + name]["median"] / plain[name]["median"] - 1.0
                for name in ("setup_s", "frame_latency_p50_ms", "fuse_boxes_per_s", "eval_s", "inverse_s")
            }
        report["workloads"][workload] = entry
        _print(workload, entry)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


def _print(workload: str, entry: dict) -> None:
    for mode in ("untraced", "traced"):
        if mode not in entry:
            continue
        block = entry[mode]
        print(f"== {workload} {mode}: correct={block['correct']} failed={block['failed']}/"
              f"{block['attempted']} wall median {block['wall_s']['median']:.1f}s")
        for name, row in block["metrics"].items():
            bound = f" bound {row['bound']:.2f}" if "bound" in row else ""
            print(f"  {name:<44} {row['median']:>14.6g} {row['unit']:<10} "
                  f"spread {row['spread']:.3f}{bound}")
    for name, value in entry.get("tracing_overhead", {}).items():
        print(f"  tracing overhead {name:<28} {value:+.3f}")


if __name__ == "__main__":
    sys.exit(main())
