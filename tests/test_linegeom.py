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
    commuting_pair,
    noncommuting_pair,
    off_curve_witnesses,
    random_unitary,
    reference_cluster_tuples,
    reference_cluster_tuples_all_rows,
    reference_greedy_pairing,
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
    p = detpoly.parse_bipoly(OVERFLOWING_RAY)
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateInput, match="identically zero"):
            linegeom.factor_lines(p, seed=0)


def test_numerical_ambiguity_when_witness_unreachable(monkeypatch):
    # the only candidate witness is off the curve 1 - z^2 - w^2; the honest
    # outcome is the indeterminate exception, never a fabricated verdict
    p = detpoly.char_poly_pair(PAULI_Z, PAULI_X)
    monkeypatch.setattr(linegeom, "_ray_witnesses", off_curve_witnesses)
    with pytest.raises(NumericalAmbiguity):
        linegeom.factor_lines(p)


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


def _pencil_candidates(a, b, seed):
    """lams, mus, two ray directions and their spectra; the first direction
    is pencil_verdict's g0 for this seed."""
    gammas = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(0.0, 1.0, size=2))
    spectra = np.linalg.eigvals(np.stack([a, b, a + gammas[0] * b, a + gammas[1] * b]))
    return linegeom._sorted_complex(spectra[0]), linegeom._sorted_complex(spectra[1]), gammas, spectra[2:]


def _pairing_case(family, rng, n):
    if family == "commuting" or (family == "noncommuting" and n == 1):
        return _pencil_candidates(*commuting_pair(rng, n), n)
    if family == "noncommuting":
        return _pencil_candidates(*noncommuting_pair(rng, n), n)
    if family == "near_commuting":
        a, b = commuting_pair(rng, n)
        return _pencil_candidates(a + 10 ** rng.uniform(-8, -4) * rng.normal(size=(n, n)), b, n)
    if family == "repeated_zero":
        # a (0, 0) pair, a doubled pair and a pair with lambda = 0
        lam = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        mu = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        lam[:5], mu[:5] = [0, 0.7, 0.7, 0.0, 0.3][:n], [0, 1.1j, 1.1j, 0.9, 0.3][:n]
        u = random_unitary(rng, n)
        return _pencil_candidates((u * lam) @ u.conj().T, (u * mu) @ u.conj().T, n)
    # "tied": exact small-integer spectra and rays, so many pairs cost exactly
    # the same and many ray roots coincide
    lam = rng.integers(-2, 3, n) + 1j * rng.integers(-1, 2, n)
    mu = rng.integers(-2, 3, n).astype(complex)
    gammas = np.array([1.0, 1j])
    rays = np.stack([rng.permutation(lam + g * mu) for g in gammas])
    return linegeom._sorted_complex(lam), linegeom._sorted_complex(mu), gammas, rays


_PAIRING_FAMILIES = ("commuting", "noncommuting", "near_commuting", "repeated_zero", "tied")


@pytest.mark.parametrize("family", _PAIRING_FAMILIES)
def test_greedy_pairing_matches_reference_loop(family):
    # every n from 1 to 64 falls to one family; each family also runs 1, 2, 64
    k = _PAIRING_FAMILIES.index(family)
    rng = np.random.default_rng(8000 + k)
    outcomes = set()
    for n in sorted({1, 2, 64, *range(1 + k, 65, len(_PAIRING_FAMILIES))}):
        case = _pairing_case(family, rng, n)
        got = linegeom._greedy_pairing(*case, linegeom.PAIR_TOL)
        assert got == reference_greedy_pairing(*case, linegeom.PAIR_TOL), n
        outcomes.add(got is None)
    if family in ("commuting", "repeated_zero"):
        assert outcomes == {False}
    if family == "noncommuting":
        assert True in outcomes


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


def test_greedy_pairing_consumes_the_first_of_equidistant_roots():
    # lambda = 0 sits midway between the ray-0 roots -delta and +delta; taking
    # the first leaves +delta, 2 delta from lambda = 3 delta, within PAIR_TOL;
    # taking the second would leave -delta, 4 delta away, beyond it
    delta = 2.0**-18
    lams = np.array([0.0, 3 * delta], dtype=complex)
    mus = np.zeros(2, dtype=complex)
    gammas = np.array([1.0, 1j])
    rays = np.array([[-delta, delta], [0.0, 3 * delta]], dtype=complex)
    got = linegeom._greedy_pairing(lams, mus, gammas, rays, linegeom.PAIR_TOL)
    assert got == [(0j, 0j), (3 * delta + 0j, 0j)]
    assert got == reference_greedy_pairing(lams, mus, gammas, rays, linegeom.PAIR_TOL)


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


def _shifted_derivatives(lines, n):
    """Coefficient tables of d expand / d lam_i and d mu_i, one factor removed."""
    cols = []
    for i, (_, mult) in enumerate(lines):
        others = [(line, mt - (j == i)) for j, (line, mt) in enumerate(lines) if mt - (j == i) > 0]
        q = linegeom.expand_arrangement(others, n).coeffs
        dz = np.zeros_like(q)
        dz[1:, :] = mult * q[:n, :]
        dw = np.zeros_like(q)
        dw[:, 1:] = mult * q[:, :n]
        cols += [dz, dw]
    return cols


# a double line, and 1 - z = 0, which meets the grid column z = 1
_GRID_LINES = [
    (Line(0.3 + 0.2j, -0.5 + 0.1j), 2),
    (Line(-1.0 + 0j, 0j), 1),
    (Line(0.7 + 0j, 1.1j), 1),
]


def test_grid_jacobian_matches_coefficient_derivatives():
    n = 5
    m = n + 1
    jac = linegeom._grid_jacobian(_GRID_LINES, n)
    assert jac.shape == (m * m, 2 * len(_GRID_LINES))
    assert np.isfinite(jac).all()
    for col, ref in zip(jac.T, _shifted_derivatives(_GRID_LINES, n)):
        got = np.fft.fft2(col.reshape(m, m), norm="ortho")
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_polish_lines_recovers_perturbed_lines():
    n = 5
    coeffs = linegeom.expand_arrangement(_GRID_LINES, n).coeffs
    rng = np.random.default_rng(11)
    kick = 1e-6 * (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    start = [
        (Line(line.lam + dl, line.mu + dm), mult)
        for (line, mult), (dl, dm) in zip(_GRID_LINES, kick)
    ]
    out, err = linegeom._polish_lines(coeffs, start, n)
    assert err == float(np.linalg.norm(coeffs - linegeom.expand_arrangement(out, n).coeffs))
    assert [mult for _, mult in out] == [2, 1, 1]
    for (got, _), (ref, _) in zip(out, _GRID_LINES):
        assert abs(got.lam - ref.lam) <= 1e-10
        assert abs(got.mu - ref.mu) <= 1e-10


def test_factor_lines_gates_on_the_polish_residual(monkeypatch):
    # the reconstruction gate reads the residual _polish_lines scored, so a
    # commuting polynomial costs no expansion outside the polish
    calls = {"total": 0, "in_polish": 0}
    expand = linegeom.expand_arrangement
    polish = linegeom._polish_lines

    def counted_expand(*args, **kwargs):
        calls["total"] += 1
        return expand(*args, **kwargs)

    def counted_polish(*args, **kwargs):
        before = calls["total"]
        out = polish(*args, **kwargs)
        calls["in_polish"] += calls["total"] - before
        return out

    monkeypatch.setattr(linegeom, "expand_arrangement", counted_expand)
    monkeypatch.setattr(linegeom, "_polish_lines", counted_polish)
    p = _poly_from_lines([(1.0, 2.0, 1), (-0.5, 0.3, 2), (0.2 + 0.4j, -1.1, 1)], n=6)
    calls["total"] = 0
    v = linegeom.factor_lines(p)
    assert v.is_lines
    assert calls["in_polish"] >= 1
    assert calls["total"] == calls["in_polish"]


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
