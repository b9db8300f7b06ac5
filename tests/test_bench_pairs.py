"""tools/bench_pairs.py's workload filter; the recording itself runs the benchmark and is not run here."""

import json
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
