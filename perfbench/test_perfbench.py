"""The benchmark's own tests: checkers reject corrupted answers, seeds change
inputs but not outcomes, and the tracer sees calls through every binding.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import dataclasses
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_checks as checks  # noqa: E402
import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402
from projspec import cli, commute, detpoly, linegeom, riesz  # noqa: E402


def rejects(fn, *args, **kwargs):
    with pytest.raises(checks.CheckFailed):
        fn(*args, **kwargs)


def test_line_moved_by_1e4_is_rejected():
    a, b, lam, mu = wl.commuting_pair(np.random.default_rng(5), 6)
    rep = commute.equivalence_check(a, b)
    checks.commuting_pair(rep, lam, mu)
    arr = rep.verdict.arrangement
    (line, mult), *rest = arr.lines
    moved = [(linegeom.Line(line.lam + 1e-4, line.mu), mult), *rest]
    verdict = dataclasses.replace(rep.verdict, arrangement=linegeom.LineArrangement(moved, arr.deficit))
    rejects(checks.commuting_pair, dataclasses.replace(rep, verdict=verdict), lam, mu)


def test_witness_moved_off_the_curve_is_rejected():
    a, b, _ = wl.noncommuting_pair(np.random.default_rng(6), 6)
    rep = commute.equivalence_check(a, b)
    checks.noncommuting_pair(rep, a, b)
    z, w = rep.verdict.witness
    verdict = dataclasses.replace(rep.verdict, witness=(z + 1e-4, w))
    rejects(checks.noncommuting_pair, dataclasses.replace(rep, verdict=verdict), a, b)


def test_commuting_pair_reported_notlines_is_fault_a():
    a, b, lam, mu = wl.commuting_pair(np.random.default_rng(7), 4)
    rep = commute.equivalence_check(a, b)
    z = 0.3 + 0.1j
    w = -(1 + lam[0] * z) / mu[0]  # on the first constructed line
    verdict = linegeom.LineVerdict(False, None, (z, w), 0.0)
    with pytest.raises(checks.CheckFailed) as err:
        checks.commuting_pair(dataclasses.replace(rep, verdict=verdict, consistent=False), lam, mu)
    assert err.value.fault == "a"
    assert err.value.stats["witness_line_distance"] < 1e-12


def test_projection_with_a_column_dropped_is_rejected():
    rng = np.random.default_rng(8)
    vals, u, a, c0 = wl.spectral_instance(rng, 8, 2)
    res = riesz.riesz_projection(a, riesz.Contour(complex(c0), wl.CONTOUR_RADIUS))
    checks.riesz_projection(res, u, [0, 1])
    dropped = res.projection.copy()
    dropped[:, 0] = 0
    rejects(checks.riesz_projection, dataclasses.replace(res, projection=dropped), u, [0, 1])
    missing = res.projection - np.outer(u[:, 1], u[:, 1].conj())
    rejects(checks.riesz_projection, dataclasses.replace(res, projection=missing), u, [0, 1])


def test_spectral_checkers_reject_perturbed_answers():
    rng = np.random.default_rng(9)
    vals, u, a, c0 = wl.spectral_instance(rng, 8, 1)
    b, _ = wl.normal_matrix(rng, 8)
    t = riesz.first_order_term(a, b, riesz.Contour(complex(c0), wl.CONTOUR_RADIUS))
    checks.first_order_term(t, vals, u, b, [0])
    rejects(checks.first_order_term, t + 1e-6, vals, u, b, [0])

    la, lb, mu, x = wl.lemma34_instance(rng, 8)
    res = riesz.lemma34_solver(la, lb, mu)
    checks.lemma34(res, la, lb, mu, x)
    rejects(checks.lemma34, dataclasses.replace(res, vector=res.vector * np.exp(1j * np.arange(8))), la, lb, mu, x)

    spec = wl.Spectral(1)
    dec, wit, prof = spec._agmon_call(a, 0.5)
    checks.agmon((dec, wit, prof), vals, 0.5)
    rejects(checks.agmon, (dec, dataclasses.replace(wit, epsilon=1.0), prof), vals, 0.5)
    rejects(checks.agmon, (dec, wit, dataclasses.replace(prof, radii=prof.radii * 1.001)), vals, 0.5)

    rows = spec.agmon.escape_ladder(5, 0.5)
    checks.ladder(rows, 0.5, 5)
    nu5 = sum(1 / k for k in range(1, 6))
    lowered = rows[:4] + [(5, rows[4][1], rows[4][2], 0.99 * 0.5 * nu5)]
    rejects(checks.ladder, lowered, 0.5, 5)


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def swap(text, i, j):
    lines = text.splitlines()
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def test_cli_output_with_a_line_swapped_is_rejected(tmp_path):
    wl.write_inputs(tmp_path, 1)
    rc, text = cli_output(["commute", str(tmp_path / "a.mat"), str(tmp_path / "b.mat")])
    checks.cli_commute_lines(rc, text, checks.QUICKSTART_LINES)
    rejects(checks.cli_commute_lines, rc, swap(text, 0, 2), checks.QUICKSTART_LINES)

    rc, text = cli_output(["escape", "--ladder", "4", "--epsilon", "0.5"])
    checks.cli_ladder(rc, text, 0.5, 4)
    rejects(checks.cli_ladder, rc, swap(text, 3, 4), 0.5, 4)

    rc, text = cli_output(["tuple", str(tmp_path / "t.tup")])
    checks.cli_tuple(rc, text, [(1, 3, 5), (2, 4, 6)])
    rejects(checks.cli_tuple, rc, swap(text, 1, 2), [(1, 3, 5), (2, 4, 6)])
    rejects(checks.cli_tuple, 1, text, [(1, 3, 5), (2, 4, 6)])


def fingerprint(values):
    """Hashable summary of the arrays and numbers an operation hands to projspec."""
    out = []
    for v in values or ():
        if isinstance(v, np.ndarray):
            out.append(v.tobytes())
        elif isinstance(v, (list, tuple)):
            out.append(tuple(fingerprint(v)))
        elif isinstance(v, (int, float, complex, str)):
            out.append(v)
    return out


def outcomes(ops):
    result = []
    for op in ops:
        try:
            op.check(op.call())
            result.append(None)
        except checks.CheckFailed as exc:
            result.append(exc.fault or exc.reason)
    return result


@pytest.mark.parametrize("name", ["battery", "large", "spectral"])
def test_seed_changes_inputs_not_outcomes(name):
    cls = {"battery": wl.Battery, "large": wl.Large, "spectral": wl.Spectral}[name]
    one, two = cls(1).round(0), cls(2).round(0)
    assert [op.kind for op in one] == [op.kind for op in two]
    assert fingerprint(op.call.__defaults__ for op in one) != fingerprint(op.call.__defaults__ for op in two)
    got = outcomes(one)
    assert got == outcomes(two)
    # only the fixed inputs of `large` hit the named faults
    assert all(f is None for f in got) if name != "large" else set(got) == {None, "a", "b"}


def test_cli_seed_changes_inputs_not_outcomes(tmp_path):
    (tmp_path / "1").mkdir()
    (tmp_path / "2").mkdir()
    one, two = wl.Cli(1, tmp_path / "1"), wl.Cli(2, tmp_path / "2")
    assert (tmp_path / "1" / "g.mat").read_text() != (tmp_path / "2" / "g.mat").read_text()
    assert (tmp_path / "1" / "a.mat").read_text() == (tmp_path / "2" / "a.mat").read_text()
    for ops in (one.round(0), two.round(0)):
        for op in ops:
            op.check(cli_output(op.argv))


def test_tracer_wraps_every_binding_and_computes_self_time():
    tracer = bench_trace.Tracer(capture=("detpoly.char_poly_pair",))
    original = detpoly.char_poly_pair
    tracer.install()
    try:
        assert commute.char_poly_pair is detpoly.char_poly_pair is not original
        assert linegeom.univariate_slice is detpoly.univariate_slice
        assert riesz.strong_agmon_check.__wrapped__ is sys.modules["projspec.agmon"].strong_agmon_check.__wrapped__
        a, b, _, _ = wl.commuting_pair(np.random.default_rng(3), 3)
        commute.equivalence_check(a, b)
    finally:
        tracer.uninstall()
    assert detpoly.char_poly_pair is original and commute.char_poly_pair is original
    names = [s[0] for s in tracer.spans]
    root = names.index("commute.equivalence_check")
    assert tracer.spans[root][3] == -1
    for name in ("detpoly.char_poly_pair", "linegeom.factor_lines", "commute.common_eigenbasis"):
        assert tracer.spans[names.index(name)][3] == root
    assert tracer.spans[names.index("detpoly.univariate_slice")][3] == names.index("linegeom.factor_lines")
    assert len(tracer.captured) == 1
    stats = tracer.per_function()
    calls, total, own = stats["commute.equivalence_check"]
    assert calls == 1 and 0 <= own < total
    assert math.isclose(sum(s for _, _, s in stats.values()), total, rel_tol=1e-9)


def test_self_time_subtracts_child_spans():
    tracer = bench_trace.Tracer()
    tracer.spans = [("x.outer", 0.0, 10.0, -1, 0), ("x.inner", 1.0, 4.0, 0, 0),
                    ("x.inner", 5.0, 6.0, 0, 0), ("x.leaf", 2.0, 3.0, 1, 0)]
    stats = tracer.per_function()
    assert stats["x.outer"] == (1, 10.0, 6.0)
    assert stats["x.inner"] == (2, 4.0, 3.0)
    assert stats["x.leaf"] == (1, 1.0, 1.0)


def test_speed_scaling_follows_the_nearest_probes():
    ref = bench_speed.PROBE_REF_S
    slow, fast = 2 * ref, ref / 2
    probes = [slow] * 20 + [fast] * 20
    scales = bench_speed.scales(probes)
    assert scales[0] == 0.5 and scales[-1] == 2.0
    # an operation's own probe cannot swing its scale on its own
    assert bench_speed.scales([ref] * 4 + [10 * ref] + [ref] * 4)[4] == 1.0
