"""Bivariate determinantal polynomial p(z,w) = det(I + zA + wB).

The zero set of p is the point projective spectrum of the pair (A, B).
Coefficients are recovered by evaluation-interpolation: determinants on a
tensor grid of scaled roots of unity, then one 2-d discrete Fourier pass.
Below EIGEN_FILL_MIN_N the grid is filled with one LU determinant per node;
from there up, with one eigensolve per wrapped diagonal of the grid, whose
nodes all lie on one line w = g z through the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .errors import DegreeBudgetExceeded, DimMismatch, InterpolationFailure

DEGREE_BUDGET = 64

# Interpolation dust: coefficients below this fraction of the largest are
# snapped to zero.
DUST_REL = 1e-12

# Self-check configuration: probe count and base tolerance are contract
# values; the seed is internal (independent of user-facing seeds).
PROBE_COUNT = 100
PROBE_TOL_BASE = 1e-8
_PROBE_SEED = 74207281

# The constant coefficient must interpolate to det(I) = 1 within this guard
# before it is pinned exactly.
_C00_GUARD = 1e-3

# Positive floor keeping grid radii finite for (near-)zero matrices.
_RADIUS_FLOOR = 2.0 ** -40

# Smallest dimension whose grid is filled by eigensolves rather than LU
# determinants. Below it, the m LUs of a wrapped diagonal cost less than one
# general eigensolve of the same size; measured by a per-n sweep of both
# fills on commuting and non-commuting pairs.
EIGEN_FILL_MIN_N = 32


@dataclass
class BivarPoly:
    """Dense coefficient table: coeffs[j, k] multiplies z^j w^k.

    For polynomials produced by char_poly_pair, coeffs[0, 0] = 1 and the
    total degree is at most n (upper anti-triangle exactly zero; enforced at
    construction for every instance).
    """

    n: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        if self.n < 0:
            raise ValueError(f"degree bound must be nonnegative, got {self.n}")
        if c.shape != (self.n + 1, self.n + 1):
            raise DimMismatch(
                f"coefficient table has shape {c.shape}, expected {(self.n + 1, self.n + 1)}"
            )
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        j, k = np.indices(c.shape)
        c[j + k > self.n] = 0.0
        self.coeffs = c

    def evaluate(self, z: complex, w: complex) -> complex:
        """Value of the polynomial at a point."""
        m = self.n + 1
        pz = np.power(complex(z), np.arange(m))
        pw = np.power(complex(w), np.arange(m))
        return complex(pz @ self.coeffs @ pw)


def total_degree(p: BivarPoly, rel: float = DUST_REL) -> int:
    """Largest j + k carrying a coefficient above the dust threshold."""
    mags = np.abs(p.coeffs)
    top = mags.max()
    if top == 0.0:
        return 0
    j, k = np.nonzero(mags > rel * top)
    if len(j) == 0:
        return 0
    return int((j + k).max())


def char_poly_pair(a, b, *, budget: int = DEGREE_BUDGET) -> BivarPoly:
    """Interpolate det(I + zA + wB) on a scaled roots-of-unity grid.

    Grid radii are reciprocal spectral-norm scales, which keeps determinant
    values bounded while giving the recovered coefficients uniform absolute
    accuracy across total degrees. The (n+1)^2 grid values come from LU
    determinants below EIGEN_FILL_MIN_N, O(n^5) in all, and from n + 1
    eigensolves from there up, O(n^4) (see _eigen_fill). A 100-point
    self-check on the unit bicircle, against LU determinants, guards the
    result.
    """
    a = core.as_cmatrix(a)
    b = core.as_cmatrix(b)
    if a.shape != b.shape:
        raise DimMismatch(f"operands have shapes {a.shape} and {b.shape}")
    n = a.shape[0]
    if n > budget:
        raise DegreeBudgetExceeded(f"dimension {n} exceeds degree budget {budget}")
    m = n + 1
    rho_a = 1.0 / (_RADIUS_FLOOR + np.linalg.norm(a, 2))
    rho_b = 1.0 / (_RADIUS_FLOOR + np.linalg.norm(b, 2))
    fill = _lu_fill if n < EIGEN_FILL_MIN_N else _eigen_fill
    vals = fill(a, b, rho_a, rho_b)
    # Values are samples of gamma[j,k] = c[j,k] rho_a^j rho_b^k on the grid
    # of positive-frequency roots of unity, so fft2 / m^2 inverts.
    gamma = np.fft.fft2(vals) / (m * m)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        scal = np.power(rho_a, np.arange(m))[:, None] * np.power(rho_b, np.arange(m))[None, :]
        coeffs = gamma / scal
    if not np.isfinite(coeffs).all():
        raise InterpolationFailure(
            "coefficient magnitudes exceed double-precision range at these matrix norms"
        )
    j, k = np.indices(coeffs.shape)
    coeffs[j + k > n] = 0.0
    top = np.abs(coeffs).max()
    if abs(coeffs[0, 0]) < DUST_REL * top:
        raise InterpolationFailure(
            f"coefficient range exceeds double precision: the constant coefficient "
            f"falls below DUST_REL = {DUST_REL:.0e} times the largest, {top:.3e}"
        )
    coeffs[np.abs(coeffs) < DUST_REL * top] = 0.0
    if abs(coeffs[0, 0] - 1.0) > _C00_GUARD:
        raise InterpolationFailure(
            f"constant coefficient interpolated to {coeffs[0, 0]:.6g}, expected 1"
        )
    coeffs[0, 0] = 1.0
    p = BivarPoly(n, coeffs)
    eye = np.eye(n, dtype=np.complex128)
    fa = core.frobenius(a)
    fb = core.frobenius(b)
    try:
        probe_tol = PROBE_TOL_BASE * (1.0 + fa + fb) ** n
    except OverflowError:
        probe_tol = math.inf
    rng = np.random.default_rng(_PROBE_SEED)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(PROBE_COUNT, 2))
    pz = np.exp(1j * angles[:, 0])
    pw = np.exp(1j * angles[:, 1])
    powers_z = pz[:, None] ** np.arange(m)[None, :]
    powers_w = pw[:, None] ** np.arange(m)[None, :]
    approx = np.einsum("pj,jk,pk->p", powers_z, p.coeffs, powers_w)
    exact = np.linalg.det(
        eye[None, :, :] + pz[:, None, None] * a[None, :, :] + pw[:, None, None] * b[None, :, :]
    )
    worst = float(np.abs(approx - exact).max())
    if worst > probe_tol:
        raise InterpolationFailure(
            f"self-check residual {worst:.3e} exceeds tolerance {probe_tol:.3e}"
        )
    return p


def _lu_fill(a, b, rho_a: float, rho_b: float) -> np.ndarray:
    """Grid values det(I + z_s A + w_k B), one LU determinant per node."""
    n = a.shape[0]
    m = n + 1
    zs = rho_a * np.exp(2j * np.pi * np.arange(m) / m)
    ws = rho_b * np.exp(2j * np.pi * np.arange(m) / m)
    eye = np.eye(n, dtype=np.complex128)
    vals = np.empty((m, m), dtype=np.complex128)
    for s in range(m):
        stack = eye[None, :, :] + zs[s] * a[None, :, :] + ws[:, None, None] * b[None, :, :]
        vals[s, :] = np.linalg.det(stack)
    return vals


def _eigen_fill(a, b, rho_a: float, rho_b: float) -> np.ndarray:
    """Grid values det(I + z_s A + w_k B), one eigensolve per wrapped diagonal.

    With z_s = rho_a omega^s and w_k = rho_b omega^k on the m-th roots of
    unity, the nodes with (k - s) mod m = d lie on one line through the
    origin, where I + z_s A + w_k B = I + omega^s M_d with
    M_d = rho_a A + rho_b omega^d B. So the determinant there is
    prod_i (1 + omega^s lambda_i(M_d)), and the m eigenvalue sets of the M_d
    give all m^2 values. The Schur form makes the product exact for some
    M_d + E with ||E|| = O(u ||M_d||), the same backward stability as LU.
    The radii make ||M_d|| <= 2, so each factor is at most 3 in modulus and
    the products stay finite.
    """
    m = a.shape[0] + 1
    d = np.arange(m)
    try:
        omega, lam = direction_spectra(a, b, rho_a, rho_b)
    except np.linalg.LinAlgError as exc:
        raise InterpolationFailure(f"grid eigensolve did not converge: {exc}") from None
    diag = np.prod(1.0 + omega[None, :, None] * lam[:, None, :], axis=2)
    vals = np.empty((m, m), dtype=np.complex128)
    vals[d[None, :], (d[None, :] + d[:, None]) % m] = diag
    return vals


def direction_spectra(a, b, rho_a: float, rho_b: float):
    """Eigenvalues of M_d = rho_a A + rho_b omega^d B for d = 0..n.

    omega = exp(2 pi i / (n + 1)); returns (omega^d, eigenvalues), the
    latter of shape (n + 1, n), from one batched LAPACK call. The n + 1
    directions are distinct lines w = g z through the origin, on each of
    which det(I + t M_d) = prod_i (1 + t lambda_i(M_d)). A failed eigensolve
    raises numpy.linalg.LinAlgError.
    """
    m = a.shape[0] + 1
    omega = np.exp(2j * np.pi * np.arange(m) / m)
    mats = rho_a * a[None, :, :] + (rho_b * omega)[:, None, None] * b[None, :, :]
    return omega, np.linalg.eigvals(mats)


def univariate_slice(p: BivarPoly, mode: str, value: complex) -> np.ndarray:
    """Coefficients of a univariate restriction of p, length n + 1.

    fix_z: t -> p(value, t); fix_w: t -> p(t, value); ray: t -> p(t, value*t).
    """
    m = p.n + 1
    value = complex(value)
    if mode == "fix_z":
        pz = np.power(value, np.arange(m))
        return np.asarray(pz @ p.coeffs, dtype=np.complex128)
    if mode == "fix_w":
        pw = np.power(value, np.arange(m))
        return np.asarray(p.coeffs @ pw, dtype=np.complex128)
    if mode == "ray":
        out = np.zeros(m, dtype=np.complex128)
        gpow = np.power(value, np.arange(m))
        for deg in range(m):
            ks = np.arange(deg + 1)
            out[deg] = np.sum(p.coeffs[deg - ks, ks] * gpow[ks])
        return out
    raise ValueError(f"unknown slice mode {mode!r}")


def parse_bipoly(text: str) -> BivarPoly:
    """Parse the bipoly text format: `bipoly <n>` then `<j> <k> <re> <im>` rows."""
    from .errors import ParseError

    items = list(core._content_lines(text))
    if not items:
        raise ParseError("expected 'bipoly <n>' header, found end of input")
    lineno, line = items[0]
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "bipoly":
        raise ParseError("expected 'bipoly <n>' header", line=lineno, col=1)
    try:
        n = int(tokens[1])
    except ValueError:
        raise ParseError("degree bound must be an integer", line=lineno, col=1) from None
    if n < 0:
        raise ParseError("degree bound must be nonnegative", line=lineno, col=1)
    coeffs = np.zeros((n + 1, n + 1), dtype=np.complex128)
    seen = set()
    for lineno, line in items[1:]:
        tokens = line.split()
        if len(tokens) != 4:
            raise ParseError("expected '<j> <k> <re> <im>'", line=lineno, col=1)
        try:
            j, k = int(tokens[0]), int(tokens[1])
            re_part, im_part = float(tokens[2]), float(tokens[3])
        except ValueError:
            raise ParseError("bad coefficient row", line=lineno, col=1) from None
        if not (0 <= j <= n and 0 <= k <= n):
            raise ParseError(f"index ({j},{k}) outside table", line=lineno, col=1)
        if j + k > n:
            raise ParseError(f"index ({j},{k}) violates total degree {n}", line=lineno, col=1)
        if (j, k) in seen:
            raise ParseError(f"duplicate index ({j},{k})", line=lineno, col=1)
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise ParseError("coefficient must be finite", line=lineno, col=1)
        seen.add((j, k))
        coeffs[j, k] = complex(re_part, im_part)
    return BivarPoly(n, coeffs)


def emit_bipoly(p: BivarPoly) -> str:
    out = [f"bipoly {p.n}"]
    for j in range(p.n + 1):
        for k in range(p.n + 1):
            c = p.coeffs[j, k]
            if c != 0:
                out.append(f"{j} {k} {c.real:.17g} {c.imag:.17g}")
    return "\n".join(out) + "\n"
