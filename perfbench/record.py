"""Run every workload over several seeds and record the baseline.

    python3 perfbench/record.py --runs 10
    python3 perfbench/record.py --runs 10 --first-seed 11

Each run is a separate `perfbench/run.py` process of BENCHMARK.json's
run_seconds, and every workload of BENCHMARK.json is run. For every end-to-end
metric this prints and records the median, the quartiles and the spread
(interquartile distance over the median, as `statistics.quantiles(n=4)`
gives it) next to the metric's bound. The figures run.py prints on its
`extra` line (the tail of completed ops among them) are recorded per run.
One traced run per workload supplies the per-layer numbers.
perfbench/BASELINE.json is rewritten in full.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the `extra` line of one run.py run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    extra = next(json.loads(line[len("extra "):]) for line in lines if line.startswith("extra "))
    return json.loads(lines[-1]), extra


def _machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "fibk3_commit": commit,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "cli_limit_n": "default (10^7)",
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "machine": _machine(),
        "settings": {"runs": args.runs, "seconds": seconds, "first_seed": args.first_seed},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        results = [r for r, _ in runs]
        entry = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "extra": [x for _, x in runs],
            "end_to_end": {},
        }
        print(f"{workload}: correct={entry['correct']} attempted={entry['attempted']} failed={entry['failed']}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "values": values,
            }
            flag = "" if spread <= bound / 3 else ("  above bound/3" if spread <= bound else "  ABOVE BOUND")
            print(f"  {name:15s} median {median:12.6g} {entry['end_to_end'][name]['unit']:6s}"
                  f" spread {spread:.4f} (bound {bound}){flag}")
        tails = [x["completed_op_tail_ms"] for x in entry["extra"] if x["completed_op_tail_ms"] is not None]
        if tails:
            print(f"  completed-op tail: median {statistics.median(tails):.6g} ms over {len(tails)} runs")
        traced, traced_extra = _run(workload, args.first_seed, seconds, 1)
        entry["per_layer_seed"] = args.first_seed
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_extra"] = traced_extra
        print(f"  traced: overhead {entry['per_layer']['trace.overhead_ratio']:.4f},"
              f" accounted {100 * traced_extra['accounted_share']:.2f}% of wall")
        record["workloads"][workload] = entry
    (HERE / "BASELINE.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
