import itertools
import math
import warnings

import numpy as np
import pytest

from projspec import core, detpoly, linegeom
from projspec.errors import DegenerateInput, NumericalAmbiguity, ParseError
from projspec.linegeom import Line, LineArrangement

from helpers import (
    OVERFLOWING_RAY,
    PAULI_X,
    PAULI_Z,
    line_powers,
    line_product,
    noncommuting_pair,
    off_curve_witnesses,
    reference_cluster_tuples,
    reference_cluster_tuples_all_rows,
)


def _arrangement(*pairs):
    return LineArrangement([(Line(complex(l), complex(m)), mult) for l, m, mult in pairs])


def _poly_from_lines(pairs, n=None):
    lines = [(Line(complex(l), complex(m)), mult) for l, m, mult in pairs]
    degree = sum(mult for _, _, mult in pairs)
    return linegeom.expand_arrangement(lines, degree if n is None else n)


def test_factor_product_of_two_lines():
    p = _poly_from_lines([(1, 3, 1), (2, 4, 1)])
    v = linegeom.factor_lines(p)
    assert v.is_lines
    got = sorted(
        ((line.lam, line.mu) for line, _ in v.arrangement.lines),
        key=lambda t: t[0].real,
    )
    assert got[0][0] == pytest.approx(1.0)
    assert got[0][1] == pytest.approx(3.0)
    assert got[1][0] == pytest.approx(2.0)
    assert got[1][1] == pytest.approx(4.0)
    assert v.arrangement.deficit == 0
    assert v.arrangement.total_multiplicity() == 2


def test_conic_is_not_lines():
    p = detpoly.char_poly_pair(PAULI_Z, PAULI_X)  # 1 - z^2 - w^2
    v = linegeom.factor_lines(p)
    assert not v.is_lines
    z, w = v.witness
    # the witness really sits on the zero set ...
    assert abs(p.evaluate(z, w)) <= 1e-8
    assert v.witness_residual <= 1e-8
    # ... and on none of the candidate lines (slice values are +-1 here)
    for lam in (1, -1):
        for mu in (1, -1):
            assert abs(1 + lam * z + mu * w) > 1e-6


def test_constant_poly_all_deficit():
    p = detpoly.BivarPoly(3, np.eye(4, dtype=complex) * 0 + np.diag([0.0] * 4))
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = 1.0
    p = detpoly.BivarPoly(3, c)
    v = linegeom.factor_lines(p)
    assert v.is_lines
    assert v.arrangement.lines == []
    assert v.arrangement.deficit == 3


def test_double_line():
    p = _poly_from_lines([(1, 1, 2)])  # (1 + z + w)^2
    v = linegeom.factor_lines(p)
    assert v.is_lines
    assert len(v.arrangement.lines) == 1
    line, mult = v.arrangement.lines[0]
    assert mult == 2
    assert line.lam == pytest.approx(1.0)
    assert line.mu == pytest.approx(1.0)


def test_double_line_times_simple():
    p = _poly_from_lines([(1, 1, 2), (2, 3, 1)])
    v = linegeom.factor_lines(p)
    assert v.is_lines
    mults = sorted(m for _, m in v.arrangement.lines)
    assert mults == [1, 2]
    ref = _arrangement((1, 1, 2), (2, 3, 1))
    assert linegeom.compare_arrangements(v.arrangement, ref) <= 1e-8


def test_axis_lines():
    # (1 + w)(1 + z): one factor has lam = 0, the other mu = 0
    p = _poly_from_lines([(0, 1, 1), (1, 0, 1)])
    v = linegeom.factor_lines(p)
    assert v.is_lines
    got = sorted(
        ((line.lam, line.mu) for line, _ in v.arrangement.lines),
        key=lambda t: t[0].real,
    )
    assert got[0][0] == pytest.approx(0.0, abs=1e-12)
    assert got[0][1] == pytest.approx(1.0)
    assert got[1][0] == pytest.approx(1.0)
    assert got[1][1] == pytest.approx(0.0, abs=1e-12)


def test_deficit_from_padding():
    # degree-2 product inside a degree-4 table: deficit 2
    p = _poly_from_lines([(1, 3, 1), (2, 4, 1)], n=4)
    v = linegeom.factor_lines(p)
    assert v.is_lines
    assert v.arrangement.deficit == 2
    assert v.arrangement.total_multiplicity() == 2


def test_complex_coefficients():
    p = _poly_from_lines([(1j, 2 - 1j, 1), (-0.5 + 0.25j, 1 + 1j, 1), (2, -3j, 1)])
    v = linegeom.factor_lines(p)
    assert v.is_lines
    ref = _arrangement((1j, 2 - 1j, 1), (-0.5 + 0.25j, 1 + 1j, 1), (2, -3j, 1))
    assert linegeom.compare_arrangements(v.arrangement, ref) <= 1e-9


@pytest.mark.parametrize("k", range(8))
def test_random_roundtrip(k):
    rng = np.random.default_rng(500 + k)
    n = int(rng.integers(2, 9))
    pairs = []
    for _ in range(n):
        lam = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        mu = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        pairs.append((lam, mu, 1))
    p = _poly_from_lines(pairs)
    v = linegeom.factor_lines(p, seed=k)
    assert v.is_lines
    ref = _arrangement(*pairs)
    assert linegeom.compare_arrangements(v.arrangement, ref) <= 1e-7


def test_conjugation_equivariance():
    pairs = [(1 + 2j, -0.5j, 1), (0.5 - 1j, 2 + 1j, 1)]
    p = _poly_from_lines(pairs)
    q = detpoly.BivarPoly(p.n, p.coeffs.conj())
    vp = linegeom.factor_lines(p)
    vq = linegeom.factor_lines(q)
    conj = LineArrangement(
        [(Line(line.lam.conjugate(), line.mu.conjugate()), m) for line, m in vp.arrangement.lines]
    )
    assert linegeom.compare_arrangements(vq.arrangement, conj) <= 1e-9


def test_line_through_point():
    arr = _arrangement((1, 3, 1), (2, 4, 1))
    hits = linegeom.line_through_point(arr, -1.0, 0.0)
    assert len(hits) == 1
    assert hits[0].lam == 1
    # intersection point of both lines: 1+z+3w=0, 1+2z+4w=0 -> z=1, w=-2/3... solve:
    # subtract: z + w = 0 -> w = -z; 1 + z - 3z = 0 -> z = 1/2, w = -1/2
    hits = linegeom.line_through_point(arr, 0.5, -0.5)
    assert len(hits) == 2
    assert linegeom.line_through_point(arr, 5.0, 5.0) == []


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_line_through_point_is_scale_invariant(c):
    # |1 + 2c z| = 1 at z = -1/c: the second line misses the point at every
    # scale, though 1 is below tol.line (1 + |z|) when c is small
    arr = _arrangement((c, 0, 1), (2 * c, 0, 1))
    assert linegeom.line_through_point(arr, -1.0 / c, 0.0) == [arr.lines[0][0]]


def test_compare_arrangements_cases():
    a = _arrangement((1, 3, 1), (2, 4, 1))
    assert linegeom.compare_arrangements(a, a) == 0.0
    b = _arrangement((1 + 1e-9, 3, 1), (2, 4 - 1e-9, 1))
    d = linegeom.compare_arrangements(a, b)
    assert 0 < d <= 2e-9
    # count mismatch -> inf
    c = _arrangement((1, 3, 1))
    assert linegeom.compare_arrangements(a, c) == math.inf
    # multiplicity-2 line equals two coincident simple lines
    m2 = _arrangement((1, 3, 2))
    twice = _arrangement((1, 3, 1), (1, 3, 1))
    assert linegeom.compare_arrangements(m2, twice) == 0.0
    # a double line against two near-coincident lines: both copies are
    # nearest the first line, so the matching must send one to the second
    near = _arrangement((1, 3, 1), (1 + 1e-7, 3, 1))
    assert linegeom.compare_arrangements(m2, near) == pytest.approx(1e-7, rel=1e-6)
    # tied costs: each line of a is equally far from both lines of b
    ties = _arrangement((1.5, 3, 1), (1.5, 3, 1))
    e = _arrangement((1, 3, 1), (2, 3, 1))
    assert linegeom.compare_arrangements(ties, e) == 0.5
    # order of the lines does not matter
    p1 = _arrangement((1, 3, 1), (2, 4, 1), (0.5j, -1, 1))
    p2 = _arrangement((0.5j, -1, 1), (2, 4, 1), (1, 3, 1))
    assert linegeom.compare_arrangements(p1, p2) == 0.0
    assert linegeom.compare_arrangements(p1, a) == math.inf
    assert linegeom.compare_arrangements(LineArrangement([]), LineArrangement([], 3)) == 0.0


def _brute_bottleneck(cost):
    n = cost.shape[0]
    return min(max(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


@pytest.mark.parametrize("seed", range(6))
def test_bottleneck_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 8):
        for cost in (
            rng.uniform(size=(n, n)),
            rng.integers(0, 3, size=(n, n)).astype(float),  # many ties
            np.repeat(rng.uniform(size=(1, n)), n, axis=0),  # every row alike
        ):
            assert linegeom._bottleneck(cost) == _brute_bottleneck(cost)


def _brute_perfect_matching(adj):
    n = adj.shape[0]
    return any(all(adj[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


@pytest.mark.parametrize("seed", range(4))
def test_has_perfect_matching_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 8):
        for density in (0.15, 0.3, 0.5, 0.7, 0.95):
            adj = rng.random((n, n)) < density
            assert linegeom._has_perfect_matching(adj) == _brute_perfect_matching(adj)
    assert linegeom._has_perfect_matching(np.eye(7, dtype=bool)[::-1])
    assert not linegeom._has_perfect_matching(np.ones((7, 7), dtype=bool) & (np.arange(7) < 6))


def test_has_perfect_matching_follows_a_path_through_every_row():
    # rows i < n-1 see columns {i, i+1}, the last row only column 0: the last
    # row's search moves every earlier row one column along, a path of depth n
    n = 1200
    adj = np.zeros((n, n), dtype=bool)
    rows = np.arange(n - 1)
    adj[rows, rows] = adj[rows, rows + 1] = True
    adj[n - 1, 0] = True
    assert linegeom._has_perfect_matching(adj)
    adj[n - 2, n - 1] = False
    assert not linegeom._has_perfect_matching(adj)


def test_scale_covariance():
    pairs = [(0.8, -1.1, 1), (1.5j, 0.6, 1)]
    p = _poly_from_lines(pairs)
    v = linegeom.factor_lines(p)
    ref = _arrangement(*pairs)
    assert linegeom.compare_arrangements(v.arrangement, ref) <= 1e-9


def test_degenerate_input():
    c = np.zeros((2, 2), dtype=complex)
    c[0, 0] = 2.0
    c[1, 0] = 1.0
    with pytest.raises(DegenerateInput):
        linegeom.factor_lines(detpoly.BivarPoly(1, c))


def test_degenerate_input_when_a_ray_slice_overflows():
    # seed 2: the ray phase at which the slice's 1.7e308 (1 + g) overflows
    p = detpoly.parse_bipoly(OVERFLOWING_RAY)
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateInput, match="identically zero"):
            linegeom.factor_lines(p, seed=2)


def test_numerical_ambiguity_when_witness_unreachable(monkeypatch):
    # the only candidate witness is off the curve 1 - z^2 - w^2; the honest
    # outcome is the indeterminate exception, never a fabricated verdict
    p = detpoly.char_poly_pair(PAULI_Z, PAULI_X)
    monkeypatch.setattr(linegeom, "_curvature_witnesses", off_curve_witnesses)
    with pytest.raises(NumericalAmbiguity):
        linegeom.factor_lines(p)


def test_pencil_verdict_refuses_when_the_witness_svd_fails(monkeypatch):
    # a non-commuting pair fails the Schur-basis check and has curved
    # branches; the singular values at their witness do not converge
    a, b = noncommuting_pair(np.random.default_rng(23), 8)
    real = np.linalg.svd

    def failing(m, *args, compute_uv=True, **kwargs):
        if not compute_uv:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(m, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(NumericalAmbiguity, match="witness singular values did not converge: SVD did not converge$"):
        linegeom.pencil_verdict(a, b)


def test_pencil_verdict_refuses_when_no_branch_bends(monkeypatch):
    # no simple branch above its rounding bound leaves no witness to try
    monkeypatch.setattr(linegeom, "_curvature_witnesses", lambda *args: [])
    with pytest.raises(NumericalAmbiguity, match="no simple eigenvalue branch of A \\+ gB bends above its rounding bound$"):
        linegeom.pencil_verdict(PAULI_Z, PAULI_X)


def test_poly_roots_basic():
    # (t - 1)(t - 2) = 2 - 3t + t^2
    r = linegeom.poly_roots([2.0, -3.0, 1.0])
    assert r == pytest.approx([1.0, 2.0])
    # constant polynomial: no roots
    assert linegeom.poly_roots([5.0]).size == 0
    # dust leading coefficient is ignored
    r = linegeom.poly_roots([2.0, -3.0, 1.0, 1e-17])
    assert r == pytest.approx([1.0, 2.0])
    with pytest.raises(ValueError):
        linegeom.poly_roots([0.0, 0.0])


def test_expand_arrangement_kernel():
    p = linegeom.expand_arrangement([(Line(1.0, 3.0), 1), (Line(2.0, 4.0), 1)], 2)
    assert p.coeffs[0, 0] == 1.0
    assert p.coeffs[1, 0] == pytest.approx(3.0)
    assert p.coeffs[0, 1] == pytest.approx(7.0)
    assert p.coeffs[2, 0] == pytest.approx(2.0)
    assert p.coeffs[1, 1] == pytest.approx(10.0)
    assert p.coeffs[0, 2] == pytest.approx(12.0)
    with pytest.raises(ValueError):
        linegeom.expand_arrangement([(Line(1.0, 1.0), 3)], 2)


def test_cluster_tuples():
    pairs = [(1.0, 2.0), (1.0 + 1e-9, 2.0 - 1e-9), (3.0, 4.0)]
    out = linegeom.cluster_tuples(pairs)
    assert len(out) == 2
    counts = sorted(m for _, m in out)
    assert counts == [1, 2]


def _bits(clusters):
    """cluster_tuples output with each centroid entry as float.hex, so -0.0
    and every last bit must match."""
    return [(tuple((c.real.hex(), c.imag.hex()) for c in t), m) for t, m in clusters]


def _assert_clusters_match_reference(tuples, rel=linegeom.CLUSTER_REL):
    want = _bits(reference_cluster_tuples(tuples, rel))
    assert _bits(linegeom.cluster_tuples(tuples, rel)) == want
    assert _bits(linegeom.cluster_tuples(np.array(tuples, dtype=complex).reshape(len(tuples), -1), rel)) == want


def test_cluster_tuples_matches_reference_loop():
    rng = np.random.default_rng(8100)
    assert linegeom.cluster_tuples([]) == []
    assert linegeom.cluster_tuples(np.zeros((0, 2), dtype=complex)) == []
    for k in (1, 2, 3):
        for m in (1, 2, 7, 40, 64):
            base = rng.normal(size=(max(1, m // 3), k)) + 1j * rng.normal(size=(max(1, m // 3), k))
            pick = base[rng.integers(0, len(base), m)]
            noise = 10 ** rng.uniform(-10, -5, (m, 1)) * (rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k)))
            _assert_clusters_match_reference([tuple(t) for t in pick + noise])
    # 12 members of one cluster: the centroid depends on the summation order
    big = [(1 + 1e-9 * rng.normal() + 1e-9j * rng.normal(), 2 - 1e-9 * rng.normal()) for _ in range(12)]
    _assert_clusters_match_reference(big)
    assert [m for _, m in linegeom.cluster_tuples(big)] == [12]


def _cluster_bits(clusters):
    return [(tuple((c.real.hex(), c.imag.hex()) for c in center), type(mult), mult) for center, mult in clusters]


def test_cluster_tuples_bit_identical_to_the_all_rows_pass():
    # singletons, clusters, exact repeats, members a few ulps either side of
    # the radius and signed zeros, for k = 1-4 and m up to 64: the greedy
    # pass over contested rows only gives the same bits as over every row
    rng = np.random.default_rng(8200)
    rel = linegeom.CLUSTER_REL
    for k in (1, 2, 3, 4):
        for m in (1, 2, 5, 16, 40, 64):
            spread = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
            base = spread[rng.integers(0, max(1, m // 4), m)]
            noise = 10 ** rng.uniform(-10, -5, (m, 1)) * (rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k)))
            seeds = spread[: max(1, m // 2)]
            step = rel * (1 + np.abs(seeds).sum(axis=1, keepdims=True)) / np.sqrt(k)
            edge = seeds + step * (1 + rng.integers(-3, 4, seeds.shape) * 1e-16)
            signed = np.where(rng.uniform(size=(m, k)) < 0.5, complex(-0.0, -0.0), 0.0) + base * (rng.uniform(size=(m, 1)) < 0.5)
            for tuples in (spread, base, base + noise, np.concatenate([seeds, edge])[:m], signed):
                got = linegeom.cluster_tuples(tuples)
                assert _cluster_bits(got) == _cluster_bits(reference_cluster_tuples_all_rows(tuples)), (k, m)
                assert all(type(c) is complex for center, _ in got for c in center)


def test_cluster_tuples_signed_zero_and_radius_edge():
    neg = complex(-0.0, -0.0)
    for tuples in ([(neg,), (-0.0,)], [(neg, 1.0), (-0.0, 1.0)], [(neg, neg, neg)]):
        _assert_clusters_match_reference(tuples)
        for center, _ in linegeom.cluster_tuples(tuples):
            assert all(math.copysign(1.0, c.real) == 1.0 for c in center)
    # members exactly at the radius join; the next float out does not
    edge = np.nextafter(0.25, 1.0)
    for tuples in ([(0.0,), (0.25,), (edge,)], [(0.0, 0.0), (0.25, 0.0), (edge, 0.0)], [(0.0, 0.0), (0.0, 0.25j)]):
        _assert_clusters_match_reference(tuples, rel=0.25)
    assert [m for _, m in linegeom.cluster_tuples([(0.0,), (1e-6,)])] == [2]


def test_cluster_tuples_decides_boundary_members_by_the_scalar_formula():
    # two members at the radius about the seed in C^2, on which np.hypot and
    # math.hypot round to different sides of it: the first is out by the
    # scalar formula and the second in
    seed = (0.21451298000864244 + 0.8249342612897279j, 1.4414390855870582 - 1.3877888074597262j)
    out = (0.21773532340464144 + 0.825037039807414j, 1.4428944269378439 - 1.3862604749885374j)
    inside = (0.21695764243020604 + 0.824346351308331j, 1.4441496896123085 - 1.3867032236113301j)
    rel = 1e-3
    radius = rel * sum((abs(x) for x in seed), 1.0)
    for member, scalar_in in ((out, False), (inside, True)):
        moduli = [abs(x - y) for x, y in zip(member, seed)]
        assert (math.hypot(*moduli) <= radius) == scalar_in != (np.hypot(*moduli) <= radius)
    _assert_clusters_match_reference([seed, out, inside], rel=rel)
    assert sorted(m for _, m in linegeom.cluster_tuples([seed, out, inside], rel)) == [1, 2]


def test_cluster_tuples_isolated_rows_window_edge():
    # rows whose sorted real parts of the first coordinate step by more than
    # the widest radius times (1 + 2 _RADIUS_BAND) are returned as they are;
    # every other input takes the distance matrix; both give the bits of the
    # all-rows pass
    rel = linegeom.CLUSTER_REL
    neg = complex(-0.0, -0.0)
    reach = rel * (1.0 + 10.0) * (1.0 + 2.0 * linegeom._RADIUS_BAND)
    cases = [
        # real parts inside the window, apart in the imaginary part or in a
        # later coordinate
        [(0.0,), (1j,), (2j,)],
        [(1.0, 0.0), (1.0 + 1e-8, 5.0), (1.0 + 2e-8, -5.0)],
        [(1.0, 2.0, 0.0), (1.0, 2.0, 1.0), (3.0, 2.0, 1.0)],
        [(neg, 1.0), (0.0, 2.0)],
        # a step exactly at the reach, and the next float past it; the third
        # row sets the widest radius
        [(0.0,), (reach,), (10.0,)],
        [(0.0,), (np.nextafter(reach, 1.0),), (10.0,)],
        # m = 1
        [(neg,)],
        [(neg, 2.5 - 1j)],
        [(1e-300j, neg, -3.0)],
    ]
    rng = np.random.default_rng(8300)
    for k in (1, 2, 3):
        spread = rng.normal(size=(64, k)) + 1j * rng.normal(size=(64, k))
        steps = np.diff(np.sort(spread[:, 0].real))
        assert steps.min() > rel * (1 + np.abs(spread).sum(axis=1)).max()
        cases.append(spread)
    for tuples in cases:
        got = linegeom.cluster_tuples(tuples)
        assert _cluster_bits(got) == _cluster_bits(reference_cluster_tuples_all_rows(tuples)), tuples
        assert all(type(c) is complex for center, _ in got for c in center)
    assert [m for _, m in linegeom.cluster_tuples([(0.0, 0.0), (1e-7, 1e-7j)])] == [2]


def test_cluster_tuples_scales_measure_each_coordinate_in_its_own_size():
    rng = np.random.default_rng(8400)
    for k in (1, 2, 3):
        base = rng.normal(size=(6, k)) + 1j * rng.normal(size=(6, k))
        tuples = base[rng.integers(0, 6, 20)] + 1e-9 * rng.normal(size=(20, k))
        want = _cluster_bits(linegeom.cluster_tuples(tuples))
        # unit scales change no bit
        assert _cluster_bits(linegeom.cluster_tuples(tuples, scales=np.ones(k))) == want
        mults = sorted(m for _, m in linegeom.cluster_tuples(tuples))
        for s in (1e-12, 1e-7, 1e7, 1e12):
            sizes = s ** np.arange(1, k + 1)
            got = linegeom.cluster_tuples(tuples * sizes, scales=sizes)
            assert sorted(m for _, m in got) == mults, (k, s)
    # a zero member: its coordinate is all zeros, its scale floored
    assert [m for _, m in linegeom.cluster_tuples([(1.0, 0.0), (2.0, 0.0)], scales=(1.0, 0.0))] == [1, 1]
    # without scales the absolute 1 of the radius merges pairs of size 1e-7
    tiny = [(1e-7, 3e-7), (2e-7, 4e-7)]
    assert [m for _, m in linegeom.cluster_tuples(tiny)] == [2]
    assert [m for _, m in linegeom.cluster_tuples(tiny, scales=(1e-7, 5e-7))] == [1, 1]


def test_arrangement_roundtrip():
    arr = _arrangement((1.25, -3.5, 2), (0.125 + 1j, 4, 1))
    back = linegeom.parse_arrangement(linegeom.emit_arrangement(arr))
    assert linegeom.compare_arrangements(arr, back) == 0.0
    assert [m for _, m in back.lines] == [m for _, m in arr.lines]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "lines\n",
        "lines 2\n1 0 3 0 1\n",              # count mismatch
        "lines 1\n1 0 3 0\n",                 # short row
        "lines 1\n1 0 3 0 0\n",               # zero multiplicity
        "lines 1\nx 0 3 0 1\n",               # bad number
    ],
)
def test_arrangement_parse_errors(text):
    with pytest.raises(ParseError):
        linegeom.parse_arrangement(text)


@pytest.mark.parametrize("row", ["nan 0 inf 0 1", "1 0 -inf 0 1", "1 nan 0 0 2", "1e400 0 0 0 1"])
def test_arrangement_refuses_nonfinite_coefficients(row):
    with pytest.raises(ParseError) as info:
        linegeom.parse_arrangement(f"# c\nlines 1\n{row}\n")
    assert (info.value.line, info.value.col) == (3, 1)
    assert str(info.value) == "line coefficients must be finite (line 3, col 1)"


def test_line_refuses_nonfinite_coefficients():
    # so emit_arrangement never writes a row that parse_arrangement refuses
    nan, inf = math.nan, math.inf
    for lam, mu in [(nan, 0), (1, inf), (complex(1, -inf), 2), (complex(nan, 0), complex(0, nan))]:
        with pytest.raises(ValueError, match="^line coefficients must be finite$"):
            Line(complex(lam), complex(mu))
    line = Line(complex(1e308, -2.5), complex(-0.0, 5e-324))
    text = linegeom.emit_arrangement(LineArrangement([(line, 2)]))
    assert linegeom.parse_arrangement(text).lines == [(line, 2)]


@pytest.mark.parametrize("seed", range(8))
def test_an_overflowing_ray_is_refused_at_every_seed(seed):
    # ||coeffs|| overflows to inf, so no reconstruction residual can be
    # certified against tol.recon * ||coeffs||; at seed 6 the ray slice
    # does not overflow and the pairing succeeds
    p = detpoly.parse_bipoly(OVERFLOWING_RAY)
    with np.errstate(over="ignore"):
        with pytest.raises((DegenerateInput, NumericalAmbiguity)):
            linegeom.factor_lines(p, seed=seed)


def test_factor_lines_from_interpolated_pair():
    # full pipeline: commuting normal matrices -> char poly -> lines
    from helpers import random_unitary

    rng = np.random.default_rng(77)
    u = random_unitary(rng, 5)
    va = np.array([1.0, 2.0, 0.5j, -1.0, 1 + 1j])
    vb = np.array([0.5, -0.5, 1.0, 2.0j, -1 - 1j])
    a = (u * va) @ u.conj().T
    b = (u * vb) @ u.conj().T
    p = detpoly.char_poly_pair(a, b)
    v = linegeom.factor_lines(p)
    assert v.is_lines
    ref = _arrangement(*[(l, m, 1) for l, m in zip(va, vb)])
    assert linegeom.compare_arrangements(v.arrangement, ref) <= 1e-8


def test_polish_roots_guards_each_root_in_one_call():
    # p(x) = x^30 - 1: p'(0) = 0 exactly; from 0.5 the Newton step lands near
    # 1.8e7, where |p| is far larger; 1e12^30 overflows the power table
    d = 30
    monic = np.zeros(d + 1, dtype=complex)
    monic[0], monic[d] = -1.0, 1.0
    unity = np.exp(2j * np.pi * np.arange(3) / d)
    start = np.concatenate([[0.0, 0.5, 1e12], unity * (1 + 1e-7)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = linegeom._polish_roots(monic, start)
    assert out[0] == 0.0
    assert out[1] == 0.5
    assert out[2] == 1e12
    assert np.abs(out[3:] - unity).max() <= 1e-13


def _polish_reference(monic, roots, steps=3):
    """Root-by-root Newton with Horner evaluation, the guards spelled out."""
    dc = [k * c for k, c in enumerate(monic)][1:]

    def horner(c, x):
        acc = 0j
        for coef in reversed(c):
            acc = acc * x + coef
        return acc

    out = []
    for r in roots:
        val = horner(monic, r)
        for _ in range(steps):
            dv = horner(dc, r)
            if dv == 0:
                break
            cand = r - val / dv
            cval = horner(monic, cand)
            if abs(cval) >= abs(val):
                break
            r, val = cand, cval
        out.append(r)
    return np.array(out)


def test_polish_roots_matches_root_by_root_reference():
    rng = np.random.default_rng(3)
    exact = rng.normal(size=12) + 1j * rng.normal(size=12)
    monic = np.poly(exact)[::-1]
    start = exact * (1 + 1e-6 * rng.normal(size=12))
    got = linegeom._polish_roots(monic, start)
    ref = _polish_reference(monic, start)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(exact).max()
    assert np.abs(got - exact).max() <= 1e-10 * np.abs(exact).max()


def test_factor_lines_gates_on_the_reconstruction_residual(monkeypatch):
    # one expansion of the lines read from the ray is the whole check: the
    # residual it leaves (1.1e-15 relative here) passes tol.recon, and a
    # bound below it refuses the same polynomial
    p = _poly_from_lines([(1.0, 2.0, 1), (-0.5, 0.3, 2), (0.2 + 0.4j, -1.1, 1)], n=6)
    calls = []
    expand = linegeom.expand_arrangement

    def counted_expand(lines, n):
        out = expand(lines, n)
        calls.append(float(np.linalg.norm(p.coeffs - out.coeffs)))
        return out

    monkeypatch.setattr(linegeom, "expand_arrangement", counted_expand)
    v = linegeom.factor_lines(p)
    assert v.is_lines and [m for _, m in v.arrangement.lines] == [2, 1, 1]
    assert len(calls) == 1 and 0 < calls[0] <= 1e-14 * np.linalg.norm(p.coeffs)
    calls.clear()
    with pytest.raises(NumericalAmbiguity, match="reconstruction"):
        linegeom.factor_lines(p, tol=core.Tolerances(recon=1e-17))
    assert len(calls) == 1


def _scaled(p, c):
    """The polynomial (z, w) -> p(cz, cw)."""
    j, k = np.indices(p.coeffs.shape)
    return detpoly.BivarPoly(p.n, p.coeffs * c ** (j + k))


def _assert_certified_witness(p, verdict):
    z, w = verdict.witness
    assert verdict.witness_residual == abs(p.evaluate(z, w)) <= linegeom.WITNESS_PTOL
    d = detpoly.total_degree(p)
    lz = linegeom._monic_reversed_roots(p.coeffs[:, 0], d)[:, None] * z
    mw = linegeom._monic_reversed_roots(p.coeffs[0, :], d)[None, :] * w
    ratio = linegeom._line_ratio(1.0, -(lz + mw), np.abs(lz) + np.abs(mw))
    assert ratio.min() > core.default_tolerances().line


def test_factor_lines_witness_is_on_curve_and_off_every_line():
    rng = np.random.default_rng(5)
    polys = [detpoly.char_poly_pair(*noncommuting_pair(rng, n)) for n in range(2, 13) for _ in range(4)]
    conic = np.zeros((3, 3))
    conic[0, 0], conic[2, 0], conic[0, 2] = 1.0, -1.0, -1.0
    one_plus_zw = np.zeros((3, 3))
    one_plus_zw[0, 0] = one_plus_zw[1, 1] = 1.0  # no pure z or w terms: both norms are 0
    polys += [detpoly.BivarPoly(2, conic), detpoly.BivarPoly(2, one_plus_zw)]
    truncated = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in polys:
            v = linegeom.factor_lines(p)
            assert not v.is_lines
            _assert_certified_witness(p, v)
            for c in (1e-2, 1e2):
                q = _scaled(p, c)
                if detpoly.total_degree(q) < detpoly.total_degree(p):
                    # the top coefficients fell below DUST_REL of c00 = 1, so
                    # q is read as a lower-degree polynomial; never certify lines
                    truncated += 1
                    try:
                        assert not linegeom.factor_lines(q).is_lines
                    except NumericalAmbiguity:
                        pass
                    continue
                vq = linegeom.factor_lines(q)
                assert not vq.is_lines
                _assert_certified_witness(q, vq)
    assert truncated == 28  # c = 1e-2 at n >= 6


@pytest.mark.parametrize("m, lines", list(line_powers()))
def test_line_powers_are_never_notlines(m, lines):
    # m >= 4 came out notlines at every seed from the axis-slice pairing,
    # and m = 3 as three separate lines
    p = line_product(lines)
    for seed in range(4):
        v = linegeom.factor_lines(p, seed=seed)
        assert v.is_lines, seed
        assert linegeom.compare_arrangements(v.arrangement, _arrangement(*lines)) <= 1e-9
        assert sorted(k for _, k in v.arrangement.lines) == sorted(k for _, _, k in lines)


def test_scaled_line_products_are_never_notlines():
    # products of 4-12 random lines scaled by c = 1e-2, (z, w) -> (cz, cw),
    # whose total degree is kept: the axis slices lost their top
    # coefficients to dust and certified notlines on some of them
    rng = np.random.default_rng(7)
    verdicts = []
    while len(verdicts) < 60:
        k = int(rng.integers(4, 13))
        lam, mu = (rng.uniform(0.3, 1.5, (2, k)) * np.exp(2j * np.pi * rng.uniform(size=(2, k))))
        q = _scaled(line_product([(l, m, 1) for l, m in zip(lam, mu)]), 1e-2)
        if detpoly.total_degree(q) == k:
            try:
                verdicts.append(linegeom.factor_lines(q).is_lines)
            except NumericalAmbiguity:
                verdicts.append(None)
    assert False not in verdicts
    assert verdicts.count(True) >= 38
