import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projspec import commute, core, detpoly, linegeom
from projspec.errors import DegreeBudgetExceeded, DimMismatch, InterpolationFailure, ParseError

from helpers import (
    PAULI_X,
    PAULI_Z,
    commuting_pair,
    fail_batched_eigvals,
    noncommuting_pair,
    random_diag_vals,
    random_normal,
    random_unitary,
    reference_lu_fill,
)


def _diag_pair():
    return np.diag([1.0, 2.0]).astype(complex), np.diag([3.0, 4.0]).astype(complex)


def test_char_poly_diagonal_pair():
    # det(I + zA + wB) = (1 + z + 3w)(1 + 2z + 4w)
    a, b = _diag_pair()
    p = detpoly.char_poly_pair(a, b)
    c = p.coeffs
    assert c[0, 0] == 1.0
    assert c[1, 0] == pytest.approx(3.0)
    assert c[0, 1] == pytest.approx(7.0)
    assert c[2, 0] == pytest.approx(2.0)
    assert c[1, 1] == pytest.approx(10.0)
    assert c[0, 2] == pytest.approx(12.0)


def test_char_poly_pauli_pair():
    # det(I + z sigma_z + w sigma_x) = 1 - z^2 - w^2
    p = detpoly.char_poly_pair(PAULI_Z, PAULI_X)
    c = p.coeffs
    assert c[0, 0] == 1.0
    assert c[2, 0] == pytest.approx(-1.0)
    assert c[0, 2] == pytest.approx(-1.0)
    for j, k in [(1, 0), (0, 1), (1, 1)]:
        assert abs(c[j, k]) <= 1e-12


def test_char_poly_zero_pair_is_one():
    p = detpoly.char_poly_pair(np.zeros((3, 3)), np.zeros((3, 3)))
    assert p.coeffs[0, 0] == 1.0
    assert np.abs(p.coeffs).sum() == 1.0
    assert detpoly.total_degree(p) == 0


def test_eval_examples():
    a, b = _diag_pair()
    p = detpoly.char_poly_pair(a, b)
    assert p.evaluate(0, 0) == pytest.approx(1.0)
    assert p.evaluate(1.0, 0.0) == pytest.approx(6.0)
    assert p.evaluate(1.0, 1.0) == pytest.approx(35.0)
    # zero of the first factor
    assert abs(p.evaluate(-1.0, 0.0)) <= 1e-12


def test_constant_term_pinned():
    rng = np.random.default_rng(7)
    for n in (2, 5, 9):
        a, b = noncommuting_pair(rng, n)
        p = detpoly.char_poly_pair(a, b)
        assert p.coeffs[0, 0] == 1.0


def test_upper_triangle_exactly_zero():
    rng = np.random.default_rng(8)
    a, b = noncommuting_pair(rng, 6)
    p = detpoly.char_poly_pair(a, b)
    j, k = np.indices(p.coeffs.shape)
    assert np.all(p.coeffs[j + k > p.n] == 0.0)


def test_real_symmetric_gives_real_coeffs():
    rng = np.random.default_rng(11)
    m1 = rng.normal(size=(5, 5))
    m2 = rng.normal(size=(5, 5))
    a = (m1 + m1.T) / 2
    b = (m2 + m2.T) / 2
    p = detpoly.char_poly_pair(a, b)
    assert np.abs(p.coeffs.imag).max() <= 1e-10


@pytest.mark.parametrize("n", [2, 4, 7, 12])
def test_char_poly_matches_direct_determinant(n):
    rng = np.random.default_rng(200 + n)
    a, b = noncommuting_pair(rng, n)
    p = detpoly.char_poly_pair(a, b)
    eye = np.eye(n)
    for _ in range(12):
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        direct = np.linalg.det(eye + z * a + w * b)
        scale = max(1.0, abs(direct))
        assert abs(p.evaluate(z, w) - direct) <= 1e-7 * scale


def test_slice_roots_hit_eigenvalues():
    # fix_w at 0: p(t, 0) = det(I + tA), roots at -1/lambda
    rng = np.random.default_rng(13)
    vals = np.array([1.0, 2.0, -0.5 + 0.5j])
    a = random_normal(rng, 3, vals=vals)
    b = random_normal(rng, 3)
    p = detpoly.char_poly_pair(a, b)
    s = detpoly.univariate_slice(p, "fix_w", 0.0)
    roots = np.roots(s[::-1])
    expect = sorted((-1 / v for v in vals), key=lambda z: (z.real, z.imag))
    got = sorted(roots, key=lambda z: (z.real, z.imag))
    for u, v in zip(got, expect):
        assert abs(u - v) <= 1e-8


def test_univariate_slice_modes():
    a, b = _diag_pair()
    p = detpoly.char_poly_pair(a, b)
    # fix_w 0: (1 + t)(1 + 2t) = 1 + 3t + 2t^2
    s = detpoly.univariate_slice(p, "fix_w", 0.0)
    assert s == pytest.approx([1.0, 3.0, 2.0])
    # fix_z 0: (1 + 3t)(1 + 4t) = 1 + 7t + 12t^2
    s = detpoly.univariate_slice(p, "fix_z", 0.0)
    assert s == pytest.approx([1.0, 7.0, 12.0])
    # ray gamma=1: (1 + 4t)(1 + 6t) = 1 + 10t + 24t^2
    s = detpoly.univariate_slice(p, "ray", 1.0)
    assert s == pytest.approx([1.0, 10.0, 24.0])


def test_univariate_slice_conic():
    p = detpoly.char_poly_pair(PAULI_Z, PAULI_X)
    s = detpoly.univariate_slice(p, "fix_w", 0.0)
    assert s == pytest.approx([1.0, 0.0, -1.0])


def test_univariate_slice_matches_eval():
    rng = np.random.default_rng(17)
    a, b = noncommuting_pair(rng, 4)
    p = detpoly.char_poly_pair(a, b)
    t = 0.3 - 0.7j
    for mode, at in [("fix_z", 0.2 + 0.1j), ("fix_w", -0.4j), ("ray", 1.5 - 0.5j)]:
        s = detpoly.univariate_slice(p, mode, at)
        val = np.polyval(s[::-1], t)
        if mode == "fix_z":
            ref = p.evaluate(at, t)
        elif mode == "fix_w":
            ref = p.evaluate(t, at)
        else:
            ref = p.evaluate(t, at * t)
        assert abs(val - ref) <= 1e-10 * (1 + abs(ref))


def test_univariate_slice_bad_mode():
    p = detpoly.char_poly_pair(*_diag_pair())
    with pytest.raises(ValueError):
        detpoly.univariate_slice(p, "diag", 0.0)


def test_degree_budget():
    n = 65
    with pytest.raises(DegreeBudgetExceeded):
        detpoly.char_poly_pair(np.eye(n), np.eye(n))


def test_dim_mismatch():
    with pytest.raises(DimMismatch):
        detpoly.char_poly_pair(np.eye(2), np.eye(3))


def test_bivar_poly_validation():
    with pytest.raises(DimMismatch):
        detpoly.BivarPoly(2, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        detpoly.BivarPoly(-1, np.zeros((0, 0)))
    c = np.zeros((3, 3), dtype=complex)
    c[2, 2] = 5.0  # violates total degree; constructor zeroes it
    p = detpoly.BivarPoly(2, c)
    assert p.coeffs[2, 2] == 0.0
    c[0, 1] = np.inf
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        detpoly.BivarPoly(2, c)


def test_total_degree():
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = 1.0
    c[1, 2] = 3.0
    p = detpoly.BivarPoly(3, c)
    assert detpoly.total_degree(p) == 3
    assert detpoly.total_degree(detpoly.BivarPoly(0, np.ones((1, 1)))) == 0


def test_bipoly_roundtrip():
    rng = np.random.default_rng(23)
    a, b = commuting_pair(rng, 4)
    p = detpoly.char_poly_pair(a, b)
    q = detpoly.parse_bipoly(detpoly.emit_bipoly(p))
    assert q.n == p.n
    assert np.array_equal(q.coeffs, p.coeffs)


@pytest.mark.parametrize(
    "text",
    [
        "",                                  # empty
        "bipoly\n",                          # missing n
        "poly 2\n",                          # bad keyword
        "bipoly 2\n0 0 1\n",                 # short row
        "bipoly 2\n0 3 1 0\n",               # index outside table
        "bipoly 2\n2 1 1 0\n",               # violates total degree
        "bipoly 2\n0 0 1 0\n0 0 2 0\n",      # duplicate index
        "bipoly 2\n0 0 x 0\n",               # bad number
        "bipoly 1\n0 0 inf 0\n",             # non-finite coefficient
    ],
)
def test_bipoly_parse_errors(text):
    with pytest.raises(ParseError):
        detpoly.parse_bipoly(text)


def test_commuting_pair_determinant_factorizes():
    # commuting normal pair: p is a product of affine factors, so evaluating
    # at any point equals the product over paired eigenvalues
    rng = np.random.default_rng(29)
    u_vals_a = np.array([1.0, 2.0, 3.0])
    u_vals_b = np.array([0.5, -1.0, 1.5])
    from helpers import random_unitary

    u = random_unitary(rng, 3)
    a = (u * u_vals_a) @ u.conj().T
    b = (u * u_vals_b) @ u.conj().T
    p = detpoly.char_poly_pair(a, b)
    z, w = 0.7 - 0.3j, -0.2 + 0.9j
    expect = np.prod([1 + lam * z + mu * w for lam, mu in zip(u_vals_a, u_vals_b)])
    assert abs(p.evaluate(z, w) - expect) <= 1e-9 * abs(expect)


_FILL_CASES = [(1, "commuting")] + [
    (n, kind) for n in (2, 5, 16, 31, 32, 48, 64) for kind in ("commuting", "noncommuting")
]


@pytest.mark.parametrize("n, kind", _FILL_CASES, ids=[f"{kind}-{n}" for n, kind in _FILL_CASES])
def test_lu_and_eigen_fills_agree(n, kind):
    # above ~24 the self-check tolerance cannot catch a wrong fill, so the
    # eigen fill is held to LU determinants directly
    rng = np.random.default_rng(300 + n)
    a, b = (commuting_pair if kind == "commuting" else noncommuting_pair)(rng, n)
    rho_a = 1.0 / np.linalg.norm(a, 2)
    rho_b = 1.0 / np.linalg.norm(b, 2)
    lu = reference_lu_fill(a, b, rho_a, rho_b)
    eig = detpoly._eigen_fill(a, b, rho_a, rho_b)
    assert np.abs(eig - lu).max() <= 1e-10 * np.abs(lu).max()


@pytest.mark.parametrize("n", [0, 1])
def test_noncommuting_pair_refuses_dimensions_that_always_commute(n):
    with pytest.raises(ValueError, match="always commute"):
        noncommuting_pair(np.random.default_rng(0), n)


@pytest.mark.parametrize("n", [48, 64])
def test_commuting_pair_matches_exact_expansion(n):
    rng = np.random.default_rng(400 + n)
    u = random_unitary(rng, n)
    lam = random_diag_vals(rng, n)
    mu = random_diag_vals(rng, n)
    a = (u * lam) @ u.conj().T
    b = (u * mu) @ u.conj().T
    lines = [(linegeom.Line(l, m), 1) for l, m in zip(lam, mu)]
    exact = linegeom.expand_arrangement(lines, n).coeffs
    got = detpoly.char_poly_pair(a, b).coeffs
    assert np.abs(got - exact).max() <= 1e-11 * np.abs(exact).max()


def test_eigen_fill_nonconvergence_is_interpolation_failure(monkeypatch):
    fail_batched_eigvals(monkeypatch)
    for n in (2, 32):
        a, b = noncommuting_pair(np.random.default_rng(19), n)
        with pytest.raises(InterpolationFailure, match="did not converge"):
            detpoly.char_poly_pair(a, b)
        # equivalence_check builds neither the grid nor any batched
        # eigensolve, so it still certifies the pair
        rep = commute.equivalence_check(a, b)
        assert rep.indeterminate is None and rep.consistent
        assert not rep.commute and not rep.verdict.is_lines


def _perturbed_fill(monkeypatch, delta):
    """Make detpoly._eigen_fill return its grid with the value at [1, 1]
    moved by delta, which moves every interpolated coefficient by
    delta / m^2 before the radii are divided out."""
    real = detpoly._eigen_fill

    def perturbed(*args):
        vals = real(*args)
        vals[1, 1] += delta
        return vals

    monkeypatch.setattr(detpoly, "_eigen_fill", perturbed)


def test_c00_guard_refuses_a_shifted_constant_coefficient(monkeypatch):
    # 0.1 / 3^2 = 0.011 above det(I) = 1, past the 1e-3 guard
    _perturbed_fill(monkeypatch, 0.1)
    with pytest.raises(InterpolationFailure, match="^constant coefficient interpolated to 1.0111"):
        detpoly.char_poly_pair(*_diag_pair())


@pytest.mark.parametrize("n", [2, 8])
def test_self_check_refuses_one_perturbed_grid_value(monkeypatch, n):
    # 1e-4 m^2 moves the constant coefficient by 1e-4, inside the guard, and
    # the probes see the other coefficients move; A and B have spectral
    # norm 1, so the bound 1e-8 (1 + ||A||_F + ||B||_F)^n is 9.1e-8 at
    # n = 2 and 7.9e-5 at n = 8 (at n = 16 it is 0.92 and admits the same
    # perturbation)
    d = np.diag(np.r_[1.0, np.full(n - 1, 0.1)]).astype(complex)
    _perturbed_fill(monkeypatch, 1e-4 * (n + 1) ** 2)
    with pytest.raises(InterpolationFailure, match="^self-check residual"):
        detpoly.char_poly_pair(d, d[::-1, ::-1])


def test_large_norm_failure_names_the_coefficient_range():
    # two 48 x 48 Hermitian X + X*, ||.||_2 about 27: the coefficients span
    # more than 1e12, so dust trimming would zero the constant term 1
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 48, 48)) + 1j * rng.normal(size=(2, 48, 48))
    a, b = x + x.conj().transpose(0, 2, 1)
    with pytest.raises(InterpolationFailure, match="coefficient range exceeds double precision"):
        detpoly.char_poly_pair(a, b)


def test_char_poly_pair_leaves_scipy_unloaded():
    # importing scipy.linalg would cost cold CLI processes about 0.35 s
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, numpy as np; from projspec import detpoly; "
        "a, b = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 48, 48)))[0]; "
        "detpoly.char_poly_pair(a, b); "
        "assert 'scipy' not in sys.modules, 'scipy loaded'"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
