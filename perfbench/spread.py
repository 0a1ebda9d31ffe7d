"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload field_map --seeds 1-10
    python3 perfbench/spread.py ... --baseline perfbench/baseline.json
    python3 perfbench/spread.py --workload field_map --seeds 1-2 --trace --baseline ...

For each end-to-end metric (per-layer with ``--trace``) it prints the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and for end-to-end metrics the quartile distance as a share of the median
next to the metric's bound from BENCHMARK.json.  ``--baseline`` stores
these figures under the workload's name (``<name>:trace`` for traced
runs) in a JSON file, keeping the other entries.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(args.trace))],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        env = json.loads(next(l for l in lines if l.startswith("env ")).removeprefix("env "))
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']}" for k, v in result["metrics"].items()), flush=True)
    figures = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        if None in values:
            figures[name] = {"unit": metric["unit"], "values": values}
            continue
        n, q1, med, q3 = summary(values)
        figures[name] = {"unit": metric["unit"], "n": n, "median": med, "q1": q1, "q3": q3,
                         "values": values}
        line = f"{name:40s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} {metric['unit']}"
        if "bound" in metric:
            spread = (q3 - q1) / med
            figures[name]["spread"] = spread
            line += (f" spread={spread:.4f} bound={metric['bound']} "
                     f"{'ok' if spread <= metric['bound'] / 3 else 'WIDE'}")
        print(line)
    if args.baseline:
        data = json.loads(args.baseline.read_text()) if args.baseline.is_file() else {}
        env.pop("seed")
        data[args.workload + (":trace" if args.trace else "")] = {
            "seconds": seconds, "seeds": args.seeds, "env": env,
            "all_correct": all(r["correct"] for r in runs), "metrics": figures}
        args.baseline.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
