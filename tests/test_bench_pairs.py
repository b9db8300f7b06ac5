"""tools/bench_pairs.py's workload filter; the recording itself runs the benchmark and is not run here."""

import json
import sys
from pathlib import Path

import pytest

from helpers import tool_module

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_select_workloads_keeps_the_benchmark_order():
    bench_pairs = tool_module("bench_pairs")
    every = [w["name"] for w in SPEC["workloads"]]
    assert bench_pairs.select_workloads(SPEC) == every
    assert bench_pairs.select_workloads(SPEC, ["spectral"]) == ["spectral"]
    assert bench_pairs.select_workloads(SPEC, list(reversed(every))) == every
    with pytest.raises(ValueError, match="^unknown workloads nope; BENCHMARK.json has "):
        bench_pairs.select_workloads(SPEC, ["spectral", "nope"])


def test_unknown_workload_is_a_usage_error_before_any_checkout(capsys):
    bench_pairs = tool_module("bench_pairs")
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--tag", "t", "--workloads", "nope"])
    assert exc.value.code == 2
    assert "error: unknown workloads nope" in capsys.readouterr().err


def test_each_run_records_the_load_before_and_after(monkeypatch):
    bench_pairs = tool_module("bench_pairs")
    loads = iter([(0.5, 0.25, 0.125), (1.5, 0.75, 0.375)])
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: next(loads))
    monkeypatch.setattr(bench_pairs, "run_bench", lambda root, workload, seed, seconds, trace: {"seed": seed, "trace": trace})
    assert bench_pairs.load_run(Path("."), "spectral", 3, 20) == {
        "result": {"seed": 3, "trace": 0},
        "loadavg_before": [0.5, 0.25, 0.125],
        "loadavg_after": [1.5, 0.75, 0.375],
        "bytecode_cache": bench_pairs.bytecode_cache(),
    }


@pytest.mark.parametrize("value", [None, "1"])
def test_each_run_records_the_bytecode_cache(monkeypatch, value):
    bench_pairs = tool_module("bench_pairs")
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: (0.5, 0.25, 0.125))
    monkeypatch.setattr(bench_pairs, "run_bench", lambda root, workload, seed, seconds, trace: {"seed": seed})
    assert bench_pairs.load_run(Path("."), "cli", 1, 20)["bytecode_cache"] == {
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "PYTHONDONTWRITEBYTECODE": value,
    }
