"""Bivariate determinantal polynomial p(z,w) = det(I + zA + wB).

The zero set of p is the point projective spectrum of the pair (A, B).
Coefficients are recovered by evaluation-interpolation: determinants on a
tensor grid of scaled roots of unity, then one 2-d discrete Fourier pass.
The grid is filled by one eigensolve per wrapped diagonal, whose nodes all
lie on one line w = g z through the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .errors import DegreeBudgetExceeded, DimMismatch, InterpolationFailure, ParseError

DEGREE_BUDGET = 64

# Dust: coefficients at most this fraction of the largest are zero, both when
# interpolated coefficients are snapped and when degrees are read (above_dust).
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


def above_dust(coeffs) -> np.ndarray:
    """Where |coeffs| exceeds DUST_REL times its largest entry; nowhere when all are 0.

    The one dust rule: degrees are the largest indices above it, and
    char_poly_pair snaps everything else to zero.
    """
    mags = np.abs(coeffs)
    return mags > DUST_REL * mags.max(initial=0.0)


def total_degree(p: BivarPoly) -> int:
    """Largest j + k carrying a coefficient above dust (above_dust); 0 for p = 0."""
    j, k = np.nonzero(above_dust(p.coeffs))
    return int((j + k).max(initial=0))


def char_poly_pair(a, b) -> BivarPoly:
    """Interpolate det(I + zA + wB) on a scaled roots-of-unity grid.

    Grid radii are reciprocal spectral-norm scales, which keeps determinant
    values bounded while giving the recovered coefficients uniform absolute
    accuracy across total degrees. The (n+1)^2 grid values come from n + 1
    eigensolves, O(n^4) in all (see _eigen_fill). A 100-point self-check on
    the unit bicircle, against LU determinants, guards the result.
    """
    a, b = core.as_cmatrices(a, b)
    n = a.shape[0]
    if n > DEGREE_BUDGET:
        raise DegreeBudgetExceeded(f"dimension {n} exceeds degree budget {DEGREE_BUDGET}")
    m = n + 1
    rho_a = 1.0 / (_RADIUS_FLOOR + np.linalg.norm(a, 2))
    rho_b = 1.0 / (_RADIUS_FLOOR + np.linalg.norm(b, 2))
    vals = _eigen_fill(a, b, rho_a, rho_b)
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
    keep = above_dust(coeffs)
    if not keep[0, 0]:
        raise InterpolationFailure(
            f"coefficient range exceeds double precision: the constant coefficient "
            f"falls below DUST_REL = {DUST_REL:.0e} times the largest, {np.abs(coeffs).max():.3e}"
        )
    coeffs[~keep] = 0.0
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
    if not (worst <= probe_tol):
        raise InterpolationFailure(
            f"self-check residual {worst:.3e} exceeds tolerance {probe_tol:.3e}"
        )
    return p


def _eigen_fill(a, b, rho_a: float, rho_b: float) -> np.ndarray:
    """Grid values det(I + z_s A + w_k B), one eigensolve per wrapped diagonal.

    With z_s = rho_a omega^s and w_k = rho_b omega^k on the m-th roots of
    unity, the nodes with (k - s) mod m = d lie on one line through the
    origin, where I + z_s A + w_k B = I + omega^s M_d with
    M_d = rho_a A + rho_b omega^d B. So the determinant there is
    prod_i (1 + omega^s lambda_i(M_d)), and the eigenvalues of the m
    matrices M_d, from one batched LAPACK call, give all m^2 values. The
    Schur form makes the product exact for some M_d + E with
    ||E|| = O(u ||M_d||), the same backward stability as LU. The radii make
    ||M_d|| <= 2, so each factor is at most 3 in modulus and the products
    stay finite.
    """
    m = a.shape[0] + 1
    d = np.arange(m)
    omega = np.exp(2j * np.pi * d / m)
    mats = rho_a * a[None, :, :] + (rho_b * omega)[:, None, None] * b[None, :, :]
    try:
        lam = np.linalg.eigvals(mats)
    except np.linalg.LinAlgError as exc:
        raise InterpolationFailure(f"grid eigensolve did not converge: {exc}") from None
    diag = np.prod(1.0 + omega[None, :, None] * lam[:, None, :], axis=2)
    vals = np.empty((m, m), dtype=np.complex128)
    vals[d[None, :], (d[None, :] + d[:, None]) % m] = diag
    return vals


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
    items = list(core._content_lines(text))
    _, (n,) = core._header(items, 0, "bipoly <n>", "degree bound", 0)
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
