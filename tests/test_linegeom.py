import math
import warnings

import numpy as np
import pytest

from projspec import core, detpoly, linegeom
from projspec.errors import DegenerateInput, NumericalAmbiguity, ParseError
from projspec.linegeom import Line, LineArrangement

from helpers import PAULI_X, PAULI_Z, noncommuting_pair


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


def test_numerical_ambiguity_when_witness_unreachable(monkeypatch):
    # force the no-pairing route to fail its witness hunt; the honest outcome
    # is the indeterminate exception, never a fabricated verdict
    p = detpoly.char_poly_pair(PAULI_Z, PAULI_X)
    monkeypatch.setattr(linegeom, "_witness_search", lambda *a, **k: None)
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


def test_witness_search_builds_axis_slices_only_when_needed(monkeypatch):
    calls = []
    real = linegeom.poly_roots
    monkeypatch.setattr(linegeom, "poly_roots", lambda *a, **k: calls.append(1) or real(*a, **k))
    a, b = noncommuting_pair(np.random.default_rng(5), 4)
    p = detpoly.char_poly_pair(a, b)
    v = linegeom.factor_lines(p)
    assert not v.is_lines
    assert calls == []
    z, w = v.witness
    assert abs(p.evaluate(z, w)) <= linegeom.WITNESS_PTOL
    d = detpoly.total_degree(p)
    lams = linegeom._monic_reversed_roots(p.coeffs[:, 0], d)
    mus = linegeom._monic_reversed_roots(p.coeffs[0, :], d)
    margin = 1e-6 * (1 + abs(z) + abs(w))
    assert np.abs(1 + np.add.outer(lams * z, mus * w)).min() > margin
    # with no ray points the first axis slice is built, and it suffices
    conic = detpoly.char_poly_pair(PAULI_Z, PAULI_X)
    rng = np.random.default_rng(0)
    tol = core.default_tolerances()
    found = linegeom._witness_search(conic, [1.0, -1.0], [1.0, -1.0], [], rng, tol)
    assert found is not None
    assert calls == [1]
