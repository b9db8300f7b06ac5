"""Record the benchmark in alternating parent/change pairs into BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --tag NAME [--first-seed S] [--note TEXT]
                                 [--workloads NAME ...]

Extracts clean checkouts of both commits (`git archive`) into a temporary
directory and runs each one's own, unmodified `perfbench/run.py` from its
root, one run at a time: PAIRS pairs on every workload of BENCHMARK.json
(or only those --workloads names, in BENCHMARK.json's order), each run as
long as its run_seconds. Pair i (seed first-seed + i) runs the parent first
when i is even and the change first when i is odd. --parent and --change
may name the same commit: that A/A record measures the recorder's own null.

The record at the repository root, BENCH_<tag>.json, holds:
  runs                     every run's last stdout line (the end-to-end metrics),
                           os.getloadavg() just before and just after the run, and
                           its bytecode_cache
  bytecode_cache           sys.flags.dont_write_bytecode of the recorder and the
                           PYTHONDONTWRITEBYTECODE value (null when unset) that every
                           run inherits: without a bytecode cache each `cli` process
                           compiles projspec's sources
  medians                  per workload and metric: each side's median, Q1 and Q3,
                           the parent's spread (Q3 - Q1) / median, and the pairs
                           in which the change's run is better (BENCHMARK.json's
                           `better`)
  per_kind_median_ms       the median over each side's runs of each run's median
                           probe-scaled seconds per operation kind, from the
                           run's details file .perfbench/<workload>-seed<n>-trace0.json
  eigensolve_calls_per_op  np.linalg.eigh, np.linalg.eig, np.linalg.eigvals and
                           core.joint_diagonalize calls per operation in one
                           untimed run of each checkout
                           (large: seed 1, 20 rounds; battery and spectral: seed 1,
                           10 rounds; cli: seed 1, one round through projspec.cli.main)
  traced                   TRACE_PAIRS alternating pairs of --trace 1 runs on
                           every workload of BENCHMARK.json: the median over each
                           side's runs of every traced function's self
                           milliseconds per operation, from the runs' spans files
and the commits, seeds, nproc, Python and numpy versions. Stdlib only; the
counting runs import numpy inside the checkouts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Counts eigensolves per operation in one checkout; argv: workload seed rounds.
COUNT_SCRIPT = r"""
import collections, contextlib, io, json, os, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = ["src", "perfbench"]
import numpy as np
import bench_workloads
from projspec import cli, core
name, seed, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
kind = [None]
counts = collections.defaultdict(collections.Counter)
def counted(owner, attr, label):
    real = getattr(owner, attr)
    def wrapper(*args, **kwargs):
        counts[kind[0]][label] += 1
        return real(*args, **kwargs)
    setattr(owner, attr, wrapper)
counted(np.linalg, "eigh", "np.linalg.eigh")
counted(np.linalg, "eig", "np.linalg.eig")
counted(np.linalg, "eigvals", "np.linalg.eigvals")
counted(core, "joint_diagonalize", "core.joint_diagonalize")
if name == "cli":
    import tempfile
    from pathlib import Path
    tmp = tempfile.mkdtemp()
    workload = bench_workloads.Cli(seed, Path(tmp))
else:
    workload = {"battery": bench_workloads.Battery, "large": bench_workloads.Large,
                "spectral": bench_workloads.Spectral}[name](seed)
ops = collections.Counter()
for r in range(rounds):
    for op in workload.round(r):
        kind[0] = op.kind
        ops[op.kind] += 1
        if op.argv is not None:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(op.argv)
        else:
            op.call()
total = sum(ops.values())
every = collections.Counter()
for c in counts.values():
    every.update(c)
print(json.dumps({
    "ops": total,
    "per_op": {k: v / total for k, v in sorted(every.items())},
    "per_op_by_kind": {k: {f: v / ops[k] for f, v in sorted(counts[k].items())} for k in sorted(ops) if counts[k]},
}))
"""

COUNT_ROUNDS = {"large": 20, "battery": 10, "spectral": 10, "cli": 1}

PAIRS = 10
# Traced runs: the seed of the first pair, seconds per run, pairs.
TRACE_SEED = 4242
TRACE_SECONDS = 8
TRACE_PAIRS = 3


def checkout(rev: str, dest: Path) -> str:
    """Extract rev into dest with git archive; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", f"{rev}^{{commit}}"], cwd=REPO, check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=REPO, check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_bench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def bytecode_cache() -> dict:
    """Whether this process writes no bytecode cache, and the
    PYTHONDONTWRITEBYTECODE value (None when unset) that its runs inherit."""
    return {"dont_write_bytecode": sys.flags.dont_write_bytecode,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def load_run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """run_bench's result of one --trace 0 run, with the machine's 1, 5 and
    15 minute load averages (os.getloadavg) just before and just after it,
    and the bytecode_cache it ran under."""
    before = list(os.getloadavg())
    result = run_bench(root, workload, seed, seconds, 0)
    return {"result": result, "loadavg_before": before, "loadavg_after": list(os.getloadavg()),
            "bytecode_cache": bytecode_cache()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def medians(runs, workload, metrics):
    """Each side's median and quartiles, the parent's spread and the pairs
    the change wins, per end-to-end metric of one workload."""
    by_seed = {}
    for run in runs:
        if run["workload"] == workload:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [p for _, p in sorted(by_seed.items()) if len(p) == 2]
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"][name]["value"] for p in pairs]
        change = [p["change"][name]["value"] for p in pairs]
        pq1, pq3 = quartiles(parent)
        cq1, cq3 = quartiles(change)
        pm = statistics.median(parent)
        out[name] = {
            "parent_median": pm,
            "change_median": statistics.median(change),
            "parent_q1": pq1,
            "parent_q3": pq3,
            "parent_spread": (pq3 - pq1) / pm if pm else None,
            "change_q1": cq1,
            "change_q3": cq3,
            "pairs": len(pairs),
            "pairs_change_better": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
        }
    return out


def self_ms_per_op(spans_path: Path, ops: int) -> dict:
    """Self milliseconds per operation of each traced function: its spans'
    durations less their child spans', summed and divided by ops."""
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    own = {}
    for (name, start, end, _, _), kids in zip(spans, child):
        own[name] = own.get(name, 0.0) + (end - start) - kids
    total = sum(own.values()) or 1.0
    return {name: {"self_ms_per_op": 1e3 * s / ops, "self_share": s / total}
            for name, s in sorted(own.items(), key=lambda kv: -kv[1])}


def median_functions(runs) -> dict:
    """Per traced function, the median over runs of self_ms_per_op's figures
    (0 in a run that never called it), largest first."""
    names = {name for run in runs for name in run["functions"]}
    zero = {"self_ms_per_op": 0.0, "self_share": 0.0}
    out = {name: {key: statistics.median(run["functions"].get(name, zero)[key] for run in runs) for key in zero}
           for name in names}
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_ms_per_op"]))


def select_workloads(spec, names=None) -> list:
    """The names of spec's workloads, in its order; only those in names when
    names is given. ValueError names any that spec does not have."""
    workloads = [w["name"] for w in spec["workloads"]]
    if not names:
        return workloads
    unknown = sorted(set(names) - set(workloads))
    if unknown:
        raise ValueError(f"unknown workloads {', '.join(unknown)}; BENCHMARK.json has {', '.join(workloads)}")
    return [w for w in workloads if w in names]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--tag", required=True, help="the record is BENCH_<tag>.json at the repository root")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--note", default="", help="text for the record's summary, such as the claim it supports")
    p.add_argument("--workloads", nargs="+", metavar="NAME", help="run only these workloads (default: every one)")
    args = p.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    try:
        workloads = select_workloads(spec, args.workloads)
    except ValueError as exc:
        p.error(str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: checkout(getattr(args, side), roots[side]) for side in roots}
        numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                       check=True, capture_output=True, text=True).stdout.strip()
        runs, per_kind = [], {}
        for workload in workloads:
            kinds = {"parent": [], "change": []}
            for i in range(PAIRS):
                seed = args.first_seed + i
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    run = load_run(roots[side], workload, seed, seconds)
                    runs.append({"workload": workload, "side": side, "seed": seed, **run})
                    details = json.loads((roots[side] / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text())
                    kinds[side].append(details["median_s"])
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.5g}" for k, v in run["result"]["metrics"].items())
                          + f" load {run['loadavg_before'][0]:.2f}->{run['loadavg_after'][0]:.2f}", flush=True)
            per_kind[workload] = {
                side: {k: 1e3 * statistics.median(run[k] for run in rows) for k in sorted(rows[0])}
                for side, rows in kinds.items()
            }
        counts = {}
        for workload in workloads:
            for side, root in roots.items():
                out = subprocess.run([sys.executable, "-c", COUNT_SCRIPT, workload, "1", str(COUNT_ROUNDS[workload])],
                                     cwd=root, check=True, capture_output=True, text=True).stdout
                counts[f"{workload}/{side}"] = json.loads(out.splitlines()[-1])
        traced = {}
        for workload in workloads:
            rows = {"parent": [], "change": []}
            for i in range(TRACE_PAIRS):
                seed = TRACE_SEED + i
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = run_bench(roots[side], workload, seed, TRACE_SECONDS, 1)
                    spans = roots[side] / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl"
                    rows[side].append({"seed": seed, "ops": result["attempted"], "failed": result["failed"],
                                       "functions": self_ms_per_op(spans, result["attempted"])})
            traced[workload] = {side: {"runs": [{k: run[k] for k in ("seed", "ops", "failed")} for run in runs_],
                                       "functions": median_functions(runs_)}
                                for side, runs_ in rows.items()}

    record = {
        "workloads": workloads,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "python": platform.python_version(),
        "bytecode_cache": bytecode_cache(),
        "seeds": [args.first_seed + i for i in range(PAIRS)],
        "seconds": seconds,
        "command": shlex.join(["python3", "tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])]),
        "order": (f"pair i (0-based, seed {args.first_seed} + i) runs the parent first when i is even, "
                  "the change first when i is odd; each run is python3 perfbench/run.py --workload W --seed S "
                  f"--seconds {seconds} --trace 0 from the root of a clean checkout (git archive) of its commit"),
        "summary": ("medians of each side and the quartiles of each side; parent_spread is (Q3 - Q1) / median of "
                    "the parent's own runs; pairs_change_better counts the pairs in which the change's run is "
                    "better than the parent's, by BENCHMARK.json's `better`. Each run holds os.getloadavg() "
                    "(1, 5 and 15 minute load averages) just before and just after it, and the bytecode_cache it "
                    "ran under. " + args.note).strip(),
        "medians": {w: medians(runs, w, spec["end_to_end"]) for w in workloads},
        "runs": runs,
        "eigensolve_calls_per_op": {
            "what": ("np.linalg.eigh, np.linalg.eig, np.linalg.eigvals and core.joint_diagonalize calls per "
                     "operation, counted by wrapping them in a separate untimed run of each checkout: "
                     + "; ".join(f"{w} seed 1, {COUNT_ROUNDS[w]} rounds" for w in workloads)),
            "figures": counts,
        },
        "per_kind_median_ms": {
            "what": ("median over each side's runs of each run's median probe-scaled seconds per operation kind, "
                     "in ms, from the details file .perfbench/<workload>-seed<n>-trace0.json of the runs above"),
            "figures": per_kind,
        },
        "traced": {
            "what": (f"{TRACE_PAIRS} alternating pairs of --trace 1 runs, seed {TRACE_SEED} + i, "
                     f"{TRACE_SECONDS} s each: the median over each side's runs of each traced function's "
                     "self time (its spans less their child spans) in ms per operation and as a share of all "
                     "traced self time, from .perfbench/spans-<workload>-seed<n>.jsonl"),
            "figures": traced,
        },
    }
    out = REPO / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload in workloads:
        for name, m in record["medians"][workload].items():
            print(f"{workload:9s} {name:12s} {m['parent_median']:.5g} -> {m['change_median']:.5g} "
                  f"(parent spread {m['parent_spread'] or 0:.3f}, change better in {m['pairs_change_better']}"
                  f"/{m['pairs']})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
