"""projspec benchmark: one run of one workload.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; projspec is imported from ./src. A run sets
up (import, input generation, one untimed warm-up operation), then repeats
whole rounds of operations, one at a time, until --seconds have passed, and
checks every result (bench_checks.py). The end-to-end times are scaled to a
nominal machine speed by a probe timed between operations (bench_speed.py).
The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and the metrics BENCHMARK.json names, the end-to-end ones with --trace 0 and
the per-layer ones with --trace 1.
Failures, tail latency and time shares go to .perfbench/ (README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("battery", "large", "spectral", "cli")

BLAS_THREADS = "1"
SETUP_SAMPLES = 3  # setup_s is the median of this many set-ups
SETUP_PROBES = 9  # probe samples after each set-up, for its speed
CLI_START_PROBES = 5
PROBE_TIMEOUT_S = 120


def setup(name, seed):
    """Import, input generation and the untimed warm-up of an in-process
    workload; returns (workload, round 0, seconds)."""
    start = time.perf_counter()
    import bench_workloads

    workload = {"battery": bench_workloads.Battery, "large": bench_workloads.Large,
                "spectral": bench_workloads.Spectral}[name](seed)
    first = workload.round(0)
    first[0].call()
    return workload, first, time.perf_counter() - start


def scaled(seconds, probe):
    """seconds at the probe's nominal speed, from probes taken right after."""
    import bench_speed

    return seconds * bench_speed.PROBE_REF_S / probe.median(SETUP_PROBES)


def setup_samples(name, seed, own, probe):
    """This run's set-up time plus set-ups in fresh processes, each scaled."""
    samples = [scaled(own, probe)]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S,
        ).stdout
        samples.append(scaled(float(out.split()[-1]), probe))
    return samples


def cli_setup(workdir, seed, probe):
    """Set-ups of the cli workload: write the input files into an empty
    directory and run one warm-up process on them. Returns the last
    set-up's workload and round 0, and the median scaled seconds."""
    import bench_workloads

    samples = []
    for i in range(SETUP_SAMPLES):
        fresh = workdir / f"setup-{i}"
        fresh.mkdir()
        start = time.perf_counter()
        workload = bench_workloads.Cli(seed, fresh)
        first = workload.round(0)
        first[0].call()
        samples.append(scaled(time.perf_counter() - start, probe))
    return workload, first, statistics.median(samples)


def cold_start_seconds(code, timed_inside):
    """Median over CLI_START_PROBES fresh interpreters running code.

    timed_inside: the child prints its own figure (import time); otherwise
    the wall time of the whole process is taken.
    """
    samples = []
    for _ in range(CLI_START_PROBES):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=PROBE_TIMEOUT_S).stdout
        wall = time.perf_counter() - start
        samples.append(float(out.split()[-1]) if timed_inside else wall)
    return statistics.median(samples)


class Run:
    """The timed loop and what it records."""

    def __init__(self, workload, tracer=None, probe=None):
        self.workload = workload
        self.tracer = tracer
        self.probe = probe  # bench_speed.SpeedProbe, timed after every operation when given
        self.records = []  # dicts: kind, n, seconds, failure, fault, stats, probe
        self.poly_residuals = []

    def loop(self, first, seconds):
        start = time.perf_counter()
        ops, r = first, 0
        while True:
            for op in ops:
                self.one(op)
            r += 1
            if time.perf_counter() - start >= seconds:
                return
            ops = self.workload.round(r)

    def one(self, op):
        import bench_checks

        if self.tracer is not None:
            self.tracer.op_id = len(self.records)
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # a raising operation counts as failed; the run goes on
            error = exc
        seconds = time.perf_counter() - start
        rec = {"kind": op.kind, "n": op.n, "seconds": seconds, "failure": None, "fault": None, "stats": {}}
        if error is not None:
            rec["failure"] = f"raised {type(error).__name__}: {error}"
        else:
            try:
                rec["stats"] = op.check(result)
            except bench_checks.CheckFailed as exc:
                rec.update(failure=exc.reason, fault=exc.fault, stats=exc.stats)
        if self.probe is not None:
            rec["probe"] = self.probe.sample()
        self.records.append(rec)
        if self.tracer is not None:
            self.after_traced(op)

    def after_traced(self, op):
        """Untimed work of the traced run: polynomial residuals and CLI replays."""
        import bench_checks
        import numpy as np

        if op.argv is not None:
            from projspec import cli

            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(op.argv)
        for _, args, _, poly in self.tracer.captured:
            a = np.asarray(args[0], dtype=np.complex128)
            b = np.asarray(args[1], dtype=np.complex128)
            seed = len(self.poly_residuals)
            self.poly_residuals.append(bench_checks.poly_relative_residual(poly.coeffs, a, b, seed))
        self.tracer.captured.clear()

    def summary(self):
        """Figures of the timed loop; with a probe, each operation's seconds
        are scaled to the probe's nominal speed and the wall figures kept
        beside them."""
        import bench_speed

        wall = [rec["seconds"] for rec in self.records]
        durs = wall
        if self.probe is not None:
            probes = [rec["probe"] for rec in self.records]
            durs = [s * k for s, k in zip(wall, bench_speed.scales(probes))]
        total = sum(durs)
        kinds = {}
        for rec, sec in zip(self.records, durs):
            key = f"{rec['kind']} n={rec['n']}"
            kinds.setdefault(key, []).append(sec)
        out = {
            "attempted": len(durs),
            "failed": sum(rec["failure"] is not None for rec in self.records),
            "ops_per_s": len(durs) / total,
            "op_p50_s": statistics.median(durs),
            "wall_ops_per_s": len(wall) / sum(wall),
            "wall_op_p50_s": statistics.median(wall),
            "time_share": {k: sum(v) / total for k, v in sorted(kinds.items())},
            "median_s": {k: statistics.median(v) for k, v in sorted(kinds.items())},
            "failures": [dict(rec, op=i) for i, rec in enumerate(self.records) if rec["failure"] is not None],
            "ops": [[rec["kind"], rec["n"], rec["seconds"], rec.get("probe")] for rec in self.records],
        }
        if len(durs) >= 40:
            # highest percentile with at least ten samples above it
            ordered = sorted(durs)
            out["op_tail_s"] = {"value": ordered[-11], "percentile": 100 * (len(durs) - 10) / len(durs),
                                "samples": len(durs)}
        return out


def stat_max(records, key):
    return max((rec["stats"][key] for rec in records if key in rec["stats"]), default=0.0)


def per_layer(names, run, funcs, extra):
    """Per-layer figures; funcs is Tracer.per_function()."""
    nops = len(run.records)
    special = {
        "detpoly.check_residual_max": max(run.poly_residuals, default=0.0),
        "commute.indeterminate": sum(rec["stats"].get("indeterminate", 0) for rec in run.records) / nops,
        "commute.line_distance_max": stat_max(run.records, "line_distance"),
        **extra,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        func, _, field = name.rpartition(".")
        calls, _, own = funcs.get(func, (0, 0.0, 0.0))
        values[name] = {"calls": calls, "self_s": own}[field] / nops
    return values


def cli_layer_metrics(tracer):
    main_s = tracer.durations("cli.main")
    return {
        "cli.interp_s": cold_start_seconds("pass", timed_inside=False),
        "cli.import_s": cold_start_seconds(
            "import time; t = time.perf_counter(); import projspec.cli; print(time.perf_counter() - t)",
            timed_inside=True),
        "cli.main_s": statistics.median(main_s) if main_s else 0.0,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "projspec" / "__init__.py").is_file():
        print(f"error: no projspec sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        print(setup(args.workload, args.seed)[2])
        return 0

    workdir = None
    try:
        if args.workload == "cli":
            import bench_speed

            probe = bench_speed.SpeedProbe()
            workdir = OUT / f"cli-{os.getpid()}"
            workdir.mkdir()
            workload, first, setup_s = cli_setup(workdir, args.seed, probe)
        else:
            workload, first, own = setup(args.workload, args.seed)
            import bench_speed  # after the set-up, whose numpy import it would take

            probe = bench_speed.SpeedProbe()
            setup_s = statistics.median(setup_samples(args.workload, args.seed, own, probe))

        tracer = None
        if args.trace:
            import bench_trace

            tracer = bench_trace.Tracer(capture=("detpoly.char_poly_pair",))
            tracer.install()
        run = Run(workload, tracer, None if args.trace else probe)
        run.loop(first, args.seconds)
        summary = run.summary()

        if tracer is None:
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            values = {
                "setup_s": setup_s,
                "ops_per_s": summary["ops_per_s"],
                "op_p50_s": summary["op_p50_s"],
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            }
            group = "end_to_end"
        else:
            tracer.uninstall()
            extra = cli_layer_metrics(tracer) if args.workload == "cli" else {
                "cli.interp_s": 0.0, "cli.import_s": 0.0, "cli.main_s": 0.0}
            funcs = tracer.per_function()
            values = per_layer([m["name"] for m in spec["per_layer"]], run, funcs, extra)
            total_self = sum(own for _, _, own in funcs.values()) or 1.0
            summary["self_share"] = {k: v[2] / total_self for k, v in sorted(funcs.items())}
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            group = "per_layer"
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    summary.update(workload=args.workload, seed=args.seed, trace=args.trace, setup_s=setup_s)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    tail = summary.get("op_tail_s")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {summary['attempted']} ops, "
          f"{summary['failed']} failed, {summary['ops_per_s']:.4g} ops/s, p50 {summary['op_p50_s']:.4g} s"
          + (f", p{tail['percentile']:.1f} {tail['value']:.4g} s of {tail['samples']}" if tail else "")
          + f"; wall {summary['wall_ops_per_s']:.4g} ops/s, p50 {summary['wall_op_p50_s']:.4g} s",
          file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    correct = all(f["fault"] in ("a", "b") for f in summary["failures"])
    print(json.dumps({"correct": correct, "attempted": summary["attempted"], "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
