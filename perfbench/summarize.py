"""Run one workload on several seeds and print each metric's median and spread.

    python3 perfbench/summarize.py --workload battery --seeds 1-10 [--trace 1]

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4). Runs are made one after another.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    results = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        ).stdout
        results.append(json.loads(out.splitlines()[-1]))
        print(json.dumps(results[-1]), flush=True)
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print(f"{args.workload}: {len(results)} runs, failed/attempted {shares}, "
          f"correct {all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        line = f"  {name:36s} median {med:.6g} {results[0]['metrics'][name]['unit']}"
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line += f"  spread {(q3 - q1) / med:.3f}"
        print(line)


if __name__ == "__main__":
    main()
