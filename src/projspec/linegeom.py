"""Line geometry of determinantal zero sets.

Decides whether the zero set of a bivariate polynomial with p(0,0) = 1 is a
union of complex lines {1 + lambda z + mu w = 0} and extracts the arrangement
when it is. factor_lines reads it from one ray w = g z: the roots
t = -1/nu of p(t, g t) are the branches nu(g) of the curve, and the curve
is a union of lines exactly when every branch is affine, nu = lam + g mu
(property L, Motzkin & Taussky). Each root, or cluster of roots, gives nu
and, by implicit differentiation, mu = nu'(g); a reconstruction check is
mandatory before any affirmative verdict.

For a matrix pair, pencil_verdict decides the same question for
det(I + zA + wB) without the polynomial: the certificate is one unitary that
makes A and B triangular within tol.line, whose diagonal pairs are the
lines. For a normal A + gB, as every commuting normal pair gives, that
unitary comes from Hermitian eigensolves (core._normal_eigenbasis); else
from LAPACK eig and a QR.

Each backs a notlines verdict with a witness on its curve, by one rule
(_curvature_witnesses): a simple branch whose curvature nu''(g) is above
its rounding bound gives the point z = -1/nu, w = g z. factor_lines takes
nu'' and its bound from the ray slice, under the dust rule's coefficient
noise (_ray_curvatures), and admits the point when |p(z, w)| <= WITNESS_PTOL;
pencil_verdict takes them from the eigensolve of A + g B
(_branch_curvatures), and admits the point when it lies on the matrices'
own curve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import core
from .detpoly import DEGREE_BUDGET, DUST_REL, BivarPoly, above_dust, total_degree, univariate_slice
from .errors import (
    DegenerateInput,
    DegreeBudgetExceeded,
    NoConvergence,
    NotNormal,
    NumericalAmbiguity,
    ParseError,
)

# Multiplicity clustering radius, relative to 1 + |lambda| + |mu| (for a
# coefficient tuple, 1 plus the sum of its moduli), each coordinate in the
# units of cluster_tuples' scales.
CLUSTER_REL = 1e-6

# cluster_tuples re-decides membership in scalar arithmetic where the array
# distance is this close to the radius, relative to it.
_RADIUS_BAND = 1e-12

# factor_lines' witness admission: |p(witness)| bound (absolute).
WITNESS_PTOL = 1e-8

# Eigenvalue pairs with both entries below this size, relative to each
# matrix's ||.||_F, correspond to constant factors of the determinant, not
# lines.
ZERO_PAIR_REL = 1e-12

# A notlines witness (z, w) of pencil_verdict must lie on the curve of the
# matrices: sigma_min(I + zA + wB), relative to
# 1 + |z| ||A||_F + |w| ||B||_F, at most this.
WITNESS_SIGMA_REL = 1e-8

# pencil_verdict admits the curvature nu_i'' of a branch of A + gB at g0
# only above its rounding bound, derived, not tuned (_branch_curvatures).
# The eigenpairs (nu, V) of M = A + g0 B are taken as exact for M + E with
# ||E||_F <= n _EPS ||M||_F, the eigensolver's backward error. Let kappa be
# the largest row norm of V^-1, at most cond_2(V) as V has unit columns.
# To first order in E each nu_k moves by at most eta = kappa n _EPS ||M||_F,
# and C = V^-1 B V by at most D = |C| G + G |C| + n _EPS kappa ||B||_F
# entrywise, G_jk = eta / |nu_j - nu_k| the eigenvector rotation bound (the
# last term is the rounding of forming C), G_jk = 0 for a tied pair,
# |nu_j - nu_k| <= 2 eta, whose rotation leaves every other branch's sum
# unchanged. Then nu_i'' moves by at most
#   2 sum_{k != i} [(D_ik |C_ki| + |C_ik| D_ki + D_ik D_ki) / |d_ik|
#                   + |C_ik C_ki| 2 eta / (|d_ik| (|d_ik| - 2 eta))],
# d_ik = nu_i - nu_k. nu_i is simple when every |d_ik| exceeds 2 eta.
_EPS = float(np.finfo(np.float64).eps)

# p(0,0) must equal 1 within this bound before factorization is attempted.
_C00_TOL = 1e-6

_NEWTON_STEPS = 3


@dataclass(frozen=True)
class Line:
    """The affine complex line {1 + lam*z + mu*w = 0}; (lam, mu) != (0, 0).

    Non-finite coefficients raise ValueError, as in BivarPoly, so that
    emit_arrangement writes only rows that parse_arrangement reads back.
    """

    lam: complex
    mu: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.lam) and cmath.isfinite(self.mu)):
            raise ValueError("line coefficients must be finite")


@dataclass
class LineArrangement:
    """Distinct lines with multiplicities; deficit counts missing degree.

    Multiplicities sum to the total degree of the source polynomial; when
    that degree falls short of the ambient bound n the difference is the
    deficit (degree carried by lines at infinity, absent from this chart).
    """

    lines: list
    deficit: int = 0

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.lines)


@dataclass
class LineVerdict:
    """Outcome of factor_lines or pencil_verdict: a certified arrangement or a
    certified witness. A lines verdict of a matrix pair also keeps its
    certificate, the relative lower parts (l_A, l_B) of _schur_diagonals."""

    is_lines: bool
    arrangement: Optional[LineArrangement] = None
    witness: Optional[Tuple[complex, complex]] = None
    witness_residual: Optional[float] = None
    lower_parts: Optional[Tuple[float, float]] = None


def _sorted_complex(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    return arr[np.lexsort((arr.imag, arr.real))]


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Polished roots of an ascending-coefficient polynomial of degree >= 1.

    The leading coefficient, coeffs[-1], must be nonzero; callers trim dust.
    """
    monic = coeffs / coeffs[-1]
    deg = monic.size - 1
    comp = np.zeros((deg, deg), dtype=np.complex128)
    comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[:deg]
    return _polish_roots(monic, np.linalg.eigvals(comp))


def poly_roots(coeffs) -> np.ndarray:
    """Roots of an ascending-coefficient polynomial via its companion matrix.

    Leading coefficients that are dust (detpoly.above_dust) are treated as zero.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    keep = np.flatnonzero(above_dust(c))
    if keep.size == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    deg = int(keep[-1])
    if deg == 0:
        return np.zeros(0, dtype=np.complex128)
    return _sorted_complex(_companion_roots(c[: deg + 1]))


def _polish_roots(monic_ascending: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """A few guarded Newton steps on all roots at once.

    p and p' come from one power table per step. A step is kept only where
    it lowers |p|; a root whose derivative vanishes or whose step is rejected
    stays where it is for the remaining steps. Roots large enough to overflow
    the power table are rejected the same way, so floating-point warnings
    are silenced here.
    """
    c = np.asarray(monic_ascending, dtype=np.complex128)
    powers = np.arange(c.size)
    dc = c[1:] * powers[1:]
    r = np.array(roots, dtype=np.complex128)
    live = np.ones(r.shape, dtype=bool)
    with np.errstate(all="ignore"):
        table = r[:, None] ** powers
        val = table @ c
        for _ in range(_NEWTON_STEPS):
            dv = table[:, :-1] @ dc
            live &= dv != 0
            cand = np.where(live, r - val / dv, r)
            table_c = cand[:, None] ** powers
            cval = table_c @ c
            live &= np.abs(cval) < np.abs(val)
            r = np.where(live, cand, r)
            val = np.where(live, cval, val)
            table = np.where(live[:, None], table_c, table)
    return r


def _monic_reversed_roots(slice_coeffs, d: int) -> np.ndarray:
    """Line coefficients read off a slice of p with p-slice(0) = 1.

    For a slice q(t) = prod(1 + s_i t) of total-degree budget d, returns the
    multiset {s_i} padded with exact zeros for the degree deficit: reversing
    q at length (effective degree + 1) is monic because the constant term is
    1, so companion roots need no leading-coefficient guesswork. A slice
    with an infinite coefficient makes every entry dust against it and is
    refused as DegenerateInput.
    """
    s = np.asarray(slice_coeffs, dtype=np.complex128)[: d + 1]
    keep = np.flatnonzero(above_dust(s))
    if keep.size == 0:
        raise DegenerateInput("slice polynomial is identically zero")
    k = int(keep[-1])
    if k == 0:
        return np.zeros(d, dtype=np.complex128)
    y = _companion_roots(s[: k + 1][::-1])
    vals = np.concatenate([-y, np.zeros(d - k, dtype=np.complex128)])
    return _sorted_complex(vals)


def _within(item, seed, rel: float) -> bool:
    """cluster_tuples' membership test in scalar arithmetic, on Python complex entries."""
    radius = rel * sum((abs(x) for x in seed), 1.0)
    return math.hypot(*(abs(x - y) for x, y in zip(item, seed))) <= radius


def cluster_tuples(tuples, rel: float = CLUSTER_REL, scales=None):
    """Greedy radius clustering of coefficient tuples into (centroid, multiplicity).

    tuples is an (m, k) array (or a list of equal-length tuples), k >= 1.
    scales, when given, holds k positive sizes, one per coordinate (for a
    pair or tuple, each member's ||.||_F; entries are floored at 1e-300):
    distances and radii are then measured on x_c / scales[c], so the
    clusters do not change when a member is rescaled. Centroids stay in the
    original coordinates. Without scales every coordinate has size 1.
    Deterministic: seeds are taken in lexicographic (re, im) order, ties in
    input order, and each absorbs every unused tuple within
    rel * (1 + sum of the seed's moduli) in Euclidean distance. A centroid
    is the sum of its members in that order, starting from 0 (so -0.0
    entries give 0.0), over their count. Output is sorted by centroid the
    same way. Pairs (lam, mu) are the line case.

    Cost: one sort, O(m log m). After it the real part of the first
    (scaled) coordinate rises row by row and bounds every distance from
    below, so when each step between neighbouring rows exceeds the widest
    radius by more than 2 _RADIUS_BAND of it, every tuple is a cluster of
    its own and the sorted rows are the output. Otherwise one m x m
    distance matrix, O(m^2 k), then one mask per contested seed, and the
    centroid sums in one unbuffered np.add.at, which adds each cluster's
    members in row order. Moduli are taken with np.hypot, which
    rounds as Python's abs(complex) does; np.abs on complex128 and np.hypot
    over k >= 2 components can differ from the scalar formula in the last
    bit, so distances within _RADIUS_BAND of the radius are decided by that
    formula (_within). A tuple within no other's radius, and with no other
    within its own, is a seed of its own; only the other, contested, tuples
    take the sequential greedy pass.
    """
    x = np.asarray(tuples, dtype=np.complex128)
    if x.size == 0:
        return []
    m, k = x.shape
    parts = np.stack([x.real, x.imag], axis=2).reshape(m, 2 * k)
    order = np.lexsort(parts.T[::-1])
    x, parts = x[order], parts[order]
    if scales is not None:
        x = x / np.maximum(np.asarray(scales, dtype=float), 1e-300)
    moduli = np.hypot(x.real, x.imag)
    radius = np.ones(m)
    for c in range(k):  # left to right, as the scalar formula sums
        radius = radius + moduli[:, c]
    radius = rel * radius[:, None]
    if np.all(np.diff(x[:, 0].real) > radius.max() * (1.0 + 2.0 * _RADIUS_BAND)):
        return list(zip(map(tuple, (parts + 0.0).view(np.complex128).tolist()), [1] * m))
    diff = x[:, None, :] - x[None, :, :]
    gaps = np.hypot(diff.real, diff.imag)
    dist = gaps[:, :, 0]
    for c in range(1, k):  # left to right, as np.hypot.reduce does
        dist = np.hypot(dist, gaps[:, :, c])
    within = dist <= radius
    for p, q in zip(*np.nonzero(np.abs(dist - radius) <= _RADIUS_BAND * radius)):
        within[p, q] = _within(x[q].tolist(), x[p].tolist(), rel)
    np.fill_diagonal(within, False)
    seed = np.arange(m)
    used = np.zeros(m, dtype=bool)
    for p in np.flatnonzero(within.any(axis=0) | within.any(axis=1)).tolist():
        if used[p]:
            continue
        members = within[p] & ~used
        used |= members
        used[p] = True
        seed[members] = p
    is_seed = seed == np.arange(m)
    label = (np.cumsum(is_seed) - 1)[seed]
    count = int(is_seed.sum())
    sizes = np.bincount(label, minlength=count)
    sums = np.zeros((count, 2 * k))
    np.add.at(sums, label, parts)
    centers = sums / sizes[:, None]
    final = np.lexsort(centers.T[::-1])
    values = np.ascontiguousarray(centers[final]).view(np.complex128).tolist()
    return list(zip(map(tuple, values), sizes[final].tolist()))


def expand_arrangement(lines, n: int) -> BivarPoly:
    """Expand prod(1 + lam z + mu w)^mult into a coefficient table of bound n."""
    degree = sum(m for _, m in lines)
    if degree > n:
        raise ValueError(f"arrangement degree {degree} exceeds bound {n}")
    coeffs = np.zeros((n + 1, n + 1), dtype=np.complex128)
    coeffs[0, 0] = 1.0
    for line, mult in lines:
        for _ in range(mult):
            nxt = coeffs.copy()
            nxt[1:, :] += line.lam * coeffs[:-1, :]
            nxt[:, 1:] += line.mu * coeffs[:, :-1]
            coeffs = nxt
    return BivarPoly(n, coeffs)


def _dust_noise(c, x, d):
    """noise[e], how far each coefficient of p of total degree d - e may
    move: the one noise model of _ray_clusters and _ray_curvatures.

    The dust rule (detpoly.above_dust) resolves DUST_REL max|c|. It is read
    on p(z/r, w/r), r = max(1, geometric mean of the nonzero ray roots x):
    a coefficient of total degree a moves by DUST_REL max_jk |c_jk|
    r^(a - j - k). So r = 1, the rule as it stands, unless the roots are
    above 1 on average; there p(cz, cw) gets the same relative noise at
    every c >= 1, where the rule as it stands would call c_00 = 1 dust.
    """
    r = max(1.0, float(np.exp(np.log(np.abs(x)).sum() / max(x.size, 1))))
    jk = np.add.outer(np.arange(c.shape[0]), np.arange(c.shape[1]))
    return DUST_REL * np.max(np.abs(c) / r**jk) * r ** (d - np.arange(d + 1.0))


def _ray_clusters(x, poly, noise):
    """Index arrays of the clusters of the roots x of the ascending polynomial poly.

    poly is G(., g) of factor_lines. Each of the d - e + 1 coefficients of p
    of total degree d - e moves by noise[e] (_dust_noise), so G(x) moves by
    at most N(|x|) = sum_e (d - e + 1) noise[e] |x|^e. Under that, an m-fold
    root at c spreads its computed roots up to
    rho_m(c) = (N(|c|) / |G^(m)(c) / m!|)^(1/m) from c. For each root the m
    nearest roots, nearest first, ties in index order, form a cluster when
    each lies within rho_m of their mean; the root takes its largest such
    m. Clusters are then taken largest first, ties in root order, when they
    share no root with one already taken; every other root is a cluster of
    its own.
    """
    npoly = np.polynomial.polynomial
    r = x.size
    order = np.argsort(np.abs(x[:, None] - x[None, :]), axis=1, kind="stable")
    near = x[order]
    centers = np.cumsum(near, axis=1) / np.arange(1, r + 1)
    spread = np.abs(near[:, None, :] - centers[:, :, None])
    spread = np.where(np.tri(r, dtype=bool), spread, 0.0).max(axis=2, initial=0.0)
    error = npoly.polyval(np.abs(centers), noise * np.arange(poly.size, 0, -1.0))
    accept = np.ones((r, r), dtype=bool)
    for m in range(2, r + 1):
        top = np.abs(npoly.polyval(centers[:, m - 1], npoly.polyder(poly, m) / math.factorial(m)))
        accept[:, m - 1] = spread[:, m - 1] <= (error[:, m - 1] / top) ** (1.0 / m)
    size = np.where(accept, np.arange(1, r + 1), 0).max(axis=1, initial=1)
    used = np.zeros(r, dtype=bool)
    out = []
    for i in np.argsort(-size, kind="stable").tolist():
        members = order[i, : size[i]]
        if not used[members].any():
            used[members] = True
            out.append(members)
    return out + [np.array([i]) for i in np.flatnonzero(~used).tolist()]


def _ray_curvatures(x, polys, g, noise):
    """nu''(g) of the roots x of G(., g), and its rounding bound.

    polys holds G, G_g and G_gg, ascending in x. Differentiating
    G(nu(g), g) = 0 twice gives nu' = -G_g / G_x and
    nu'' = -(G_xx nu'^2 + 2 G_xg nu' + G_gg) / G_x. The bound is the
    first-order change of nu'' when every coefficient c_jk of p of total
    degree at most d moves by noise[d - j - k] (_dust_noise). That change is
    linear in the jet of the change of G at (x, g), and the monomial
    z^j w^k changes G by +-g^k x^e, e = d - j - k, so it adds
    noise[e] |x|^e |A_k + e B_k / x + e (e - 1) C / x^2| to the bound, A_k,
    B_k and C from the jet of G. The bound is +inf where x is not simple:
    within rho_i + rho_j of another root, rho = N(|x|) / |G_x| its
    first-order displacement (N as in _ray_clusters).
    """
    npoly = np.polynomial.polynomial
    d = polys[0].size - 1
    gx, gxx, gxxx, gg, gxg, gxxg, ggg, gxgg = (
        npoly.polyval(x, npoly.polyder(polys[b], k))
        for b, k in ((0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1))
    )
    d1 = -gg / gx
    curv = -(gxx * d1 * d1 + 2.0 * gxg * d1 + ggg) / gx
    # coefficients of the change of curv on the jet (h, h_x, h_g, h_xx, h_xg, h_gg)
    u = gxg + gxx * d1
    w = gxxx * d1 * d1 + 2.0 * gxxg * d1 + gxgg + curv * gxx
    k_h = (w * gx - 2.0 * u * u) / gx**3
    k_x = (2.0 * u * d1 / gx - curv) / gx
    k_g, k_xx, k_xg, k_gg = 2.0 * u / gx**2, -d1 * d1 / gx, -2.0 * d1 / gx, -1.0 / gx
    e = np.arange(d + 1.0)[:, None]
    k = np.arange(d + 1.0)[None, :]
    col = (slice(None), None, None)
    a_k = k_h[col] + (k_g[col] + k_gg[col] * (k - 1.0) / g) * k / g
    b_k = k_x[col] + k_xg[col] * k / g
    xs = x[col]
    moves = np.abs(xs) ** e * np.abs(a_k + e * b_k / xs + e * (e - 1.0) * k_xx[col] / xs**2)
    bound = (noise * np.where(e + k <= d, moves, 0.0).sum(axis=2)).sum(axis=1)
    rho = npoly.polyval(np.abs(x), noise * np.arange(d + 1.0, 0.0, -1.0)) / np.abs(gx)
    near = np.abs(x[:, None] - x[None, :]) <= rho[:, None] + rho[None, :]
    np.fill_diagonal(near, False)
    return curv, np.where(near.any(axis=1), np.inf, bound)


def factor_lines(p: BivarPoly, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> LineVerdict:
    """Decide union-of-lines structure for the zero set of p from one ray.

    On the ray w = g z, g the first phase of _phases(seed, 2), the roots t
    of p(t, g t) are t = -1/nu(g), nu(g) the branches of the curve; p is a
    union of lines exactly when every branch is affine, nu = lam + g mu.
    The nu are the roots of G(x, g) = x^d p(-1/x, -g/x) as a polynomial in
    x, read by _monic_reversed_roots from the ray slice of p and clustered
    by _ray_clusters. Each cluster of m roots gives one line of multiplicity
    m: its mean, refined by Newton steps on G^(m-1), is nu, and
    mu = nu' = -G_g^(m-1)(nu) / G^(m)(nu), lam = nu - g mu (implicit
    differentiation; the same as mu = nu s^(m-1)(t) / q^(m)(t) for
    q(t) = p(t, g t) and s(t) = p_w(t, g t)). G_g and G_gg come from the
    ray slices of dp/dw and d^2p/dw^2 (univariate_slice). Lines within
    CLUSTER_REL of each other are merged (cluster_tuples).

    An affirmative verdict always passes the reconstruction check (the
    expanded product within tol.recon * ||coeffs|| of p); a bound that is
    not finite, ||coeffs|| having overflowed, raises NumericalAmbiguity, and
    a ray slice that overflows raises DegenerateInput (_monic_reversed_roots),
    neither with a numpy warning.
    Otherwise the witness is z = -1/nu, w = g z for a simple root nu, a
    cluster of one, whose branch bends: |nu''| above its rounding bound
    under the dust rule's noise (_ray_curvatures, _dust_noise), largest
    margin first (_curvature_witnesses), with |p(z, w)| <= WITNESS_PTOL;
    that value is its witness_residual. Anything weaker raises
    NumericalAmbiguity.
    """
    npoly = np.polynomial.polynomial  # imported on first use, not with the CLI
    if tol is None:
        tol = core.default_tolerances()
    c = p.coeffs
    if abs(c[0, 0] - 1.0) > _C00_TOL:
        raise DegenerateInput(f"p(0,0) = {c[0, 0]:.6g}, expected 1")
    d = total_degree(p)
    deficit = p.n - d
    if d == 0:
        return LineVerdict(True, LineArrangement([], deficit))
    (g,) = _phases(seed, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        slices = [univariate_slice(p, "ray", g)]
        bound = tol.recon * float(np.linalg.norm(c))
    nus = _monic_reversed_roots(slices[0], d)
    if not math.isfinite(bound):
        # ||coeffs|| overflowed: no residual can be measured against it
        raise NumericalAmbiguity(f"reconstruction bound {bound:.3e} is not finite")
    table = c  # every |c_jk| < 1.4e154 here, so no derivative table overflows
    for _ in range(2):
        table = np.pad(table[:, 1:] * np.arange(1, p.n + 1), ((0, 0), (0, 1)))
        slices.append(univariate_slice(BivarPoly(p.n, table), "ray", g))
    sign = (-1.0) ** np.arange(d + 1)
    polys = [(sign * np.pad(s[: d + 1 - b], (b, 0)))[::-1] for b, s in enumerate(slices)]
    x = nus[nus != 0]
    err = math.inf
    with np.errstate(all="ignore"):  # a non-finite value fails every test below
        noise = _dust_noise(c, x, d)
        clusters = _ray_clusters(x, polys[0], noise)
        read = []
        for members in clusters:
            m = members.size
            nu = _polish_roots(npoly.polyder(polys[0], m - 1), x[members].mean(keepdims=True))[0]
            mu = -npoly.polyval(nu, npoly.polyder(polys[1], m - 1)) / npoly.polyval(nu, npoly.polyder(polys[0], m))
            read += [(nu - g * mu, mu)] * m
        if x.size == d and np.isfinite(read).all():
            lines = [(Line(l, m), k) for (l, m), k in cluster_tuples(read)]
            err = float(np.linalg.norm(c - expand_arrangement(lines, p.n).coeffs))
            if err <= bound:
                return LineVerdict(True, LineArrangement(lines, deficit))
        curv, rounding = _ray_curvatures(x, polys, g, noise)
    single = np.zeros(x.size, dtype=bool)
    single[[members[0] for members in clusters if members.size == 1]] = True
    for z, w in _curvature_witnesses(x, curv, np.where(single, rounding, np.inf), g, float(np.linalg.norm(x))):
        val = abs(p.evaluate(z, w))
        if val <= WITNESS_PTOL:
            return LineVerdict(False, None, (z, w), val)
    raise NumericalAmbiguity(
        f"the lines read from the ray leave reconstruction residual {err:.3e} above {bound:.3e}, and no "
        f"simple branch that bends above its rounding bound has |p| <= {WITNESS_PTOL:.0e}"
    )


def drop_constant_factors(diags, norms):
    """Joint value k-tuples of k matrices, without those that are constant factors.

    diags is a (k, m) array whose column j holds the j-th joint value of
    each matrix. A column with every entry diags[i, j] at most ZERO_PAIR_REL
    times its own matrix's norms[i] contributes a constant factor to
    det(I + sum_i z_i M_i), not a hyperplane. Returns the (m', k) array of
    the other columns, in order, and m - m', the deficit.
    """
    x = np.asarray(diags, dtype=np.complex128)
    bound = ZERO_PAIR_REL * np.maximum(np.asarray(norms, dtype=float), 1e-300)
    keep = (np.abs(x) > bound[:, None]).any(axis=0)
    return x.T[keep], int(x.shape[1] - keep.sum())


def pair_arrangement(lams, mus, *, norm_a: float, norm_b: float) -> LineArrangement:
    """Lines {1 + lams[j] z + mus[j] w = 0} from paired values, with multiplicity.

    Pairs that are constant determinant factors (drop_constant_factors) are
    counted in the deficit instead. Lines are clustered with lams measured
    in norm_a and mus in norm_b (cluster_tuples' scales), so multiplicities
    do not change when A or B is rescaled.
    """
    la = np.asarray(lams, dtype=np.complex128).ravel()
    mu = np.asarray(mus, dtype=np.complex128).ravel()
    pairs, deficit = drop_constant_factors(np.stack([la, mu]), (norm_a, norm_b))
    lines = [(Line(l, m), mult) for (l, m), mult in cluster_tuples(pairs, scales=(norm_a, norm_b))]
    return LineArrangement(lines, deficit=deficit)


def _line_ratio(x, s, size):
    """|x - s| / (|x| + size): the one point-on-line test, on arrays that broadcast.

    A point (z, w) is on the line {1 + lam z + mu w = 0} when this is at most
    tol.line for x = 1, s = -(lam z + mu w), size = |lam z| + |mu w|
    (line_through_point). At z = -1/nu, w = g z that is the same ratio as
    for x = nu, s = lam + g mu, size = |lam| + |g| |mu|, both terms
    multiplied by |nu|. Scaling the lines by c and the point by 1/c leaves
    it unchanged.
    """
    return np.abs(x - s) / (np.abs(x) + size)


def _phases(seed, k):
    """The k - 1 phases g_i of _schur_diagonals' combination for k members,
    uniform on the unit circle, drawn from default_rng(seed); factor_lines
    takes its ray phase as _phases(seed, 2), the phase of pencil_verdict."""
    return np.exp(2j * np.pi * np.random.default_rng(seed).uniform(0.0, 1.0, size=k - 1))


def _triangular_parts(ts, norms, tol):
    """The (k, n) diagonals of the matrices T_i = Q* M_i Q in ts, the (k,)
    relative strictly lower parts ||lower(T_i)||_F / norms[i], and whether
    every one of those is at most tol.line: the certificate of a common
    Schur basis Q."""
    lower = np.array([np.linalg.norm(np.tril(t, -1)) / max(norm, 1e-300) for t, norm in zip(ts, norms)])
    return np.stack([np.diag(t) for t in ts]), lower, bool((lower <= tol.line).all())


def _schur_diagonals(mats, phases, norms, tol):
    """One common Schur basis Q of k square matrices of one size, and its certificate.

    Q is a Schur basis of C = M_0 + sum_{i >= 1} phases[i-1] M_i (a phase
    shared by all k weights changes no Schur basis, so M_0's is 1), found on
    one of two routes. When C passes core.require_normal (tol.normal), as it
    does for commuting normal members, a unitary eigenbasis of C is a Schur
    basis, and Q comes from Hermitian eigensolves: the one eigenbasis rule,
    core._normal_eigenbasis on [C] at radius core.DEFLATION_CLUSTER_REL
    ||C||_F, as core.eig_normal runs it on one matrix. That Q is kept when it
    leaves C diagonal within tol.normal ||C||_F, the accuracy at which C
    was admitted as normal, and is certified. Otherwise, or when that eigh
    does not converge, Q = qr(V) for the eigenvectors V of C from LAPACK
    eig. The certificate bounds a backward error that holds for any unitary
    Q, so the Hermitian route decides nothing by itself: it only spares eig
    and QR where it certifies.

    Returns the eigenvalues of C and unit eigenvectors V of C (on the
    Hermitian route, the diagonal of Q* C Q and Q), the (k, n) array of the
    diagonals of Q* M_i Q, the (k,) array of ||strictly lower part of
    Q* M_i Q||_F / norms[i], and whether Q certifies lines: every one of
    those relative lower parts at most tol.line (_triangular_parts). An eig
    that does not converge raises NumericalAmbiguity.
    """
    n = mats[0].shape[0]
    if n > DEGREE_BUDGET:
        raise DegreeBudgetExceeded(f"dimension {n} exceeds degree budget {DEGREE_BUDGET}")
    combo = mats[0]
    for g, m in zip(phases, mats[1:]):
        combo = combo + g * m
    try:
        size, _ = core.require_normal(combo, tol, "pencil combination: normality defect {defect:.3e}")
        q = core._normal_eigenbasis([combo], [size])
    except (NotNormal, NoConvergence):
        pass
    else:
        ts = [q.conj().T @ m @ q for m in mats]
        t = sum((g * x for g, x in zip(phases, ts[1:])), ts[0])
        nus = np.diag(t)
        if np.linalg.norm(t - np.diag(nus)) <= tol.normal * size:
            certificate = _triangular_parts(ts, norms, tol)
            if certificate[-1]:
                return (nus, q, *certificate)
    try:
        nus, v = np.linalg.eig(combo)
    except np.linalg.LinAlgError as exc:
        raise NumericalAmbiguity(f"pencil eigensolve did not converge: {exc}") from None
    q = np.linalg.qr(v)[0]
    return (nus, v, *_triangular_parts([q.conj().T @ m @ q for m in mats], norms, tol))


def _schur_lines(diags, lower, norms, i, j) -> LineVerdict:
    """The lines verdict of members i and j certified by a common Schur
    basis: the lines of their diagonal pairs (pair_arrangement, in their
    norms) and the certificate (l_i, l_j), from _schur_diagonals' diagonals
    and relative lower parts."""
    lines = pair_arrangement(diags[i], diags[j], norm_a=norms[i], norm_b=norms[j])
    return LineVerdict(True, lines, lower_parts=(float(lower[i]), float(lower[j])))


def _branch_curvatures(nus, v, b, size_m, size_b):
    """nu_i''(g0) of every eigenvalue branch of A + gB, and its rounding bound.

    nus and v are the eigenvalues and unit eigenvectors of M = A + g0 B,
    size_m and size_b bounds on ||M||_F and ||B||_F. With C = V^-1 B V, one
    solve and two products, second-order perturbation theory gives
    nu_i'' = 2 sum_{k != i} C_ik C_ki / (nu_i - nu_k). The bound is the one
    stated at _EPS; it is +inf where nu_i is not simple. Both scale as A and
    B do, so their ratio does not depend on a common scale.
    """
    n = nus.size
    w = np.linalg.solve(v, np.eye(n, dtype=np.complex128))
    c = w @ b @ v
    kappa = float(np.sqrt((np.abs(w) ** 2).sum(axis=1).max()))
    eta = kappa * n * _EPS * size_m
    d = nus[:, None] - nus[None, :]
    gap = np.abs(d)
    tied = gap <= 2.0 * eta
    np.fill_diagonal(tied, True)
    # A tied pair, the diagonal included, adds nothing: a rotation inside a
    # cluster of tied eigenvalues leaves sum_{k in cluster} C_ik C_ki of a
    # branch i outside it unchanged, and the rows of the cluster are not
    # simple. With gap = inf there, every division below is finite.
    gap[tied] = np.inf
    d[tied] = 1.0
    ac = np.abs(c)
    rot = eta / gap
    err_c = ac @ rot + rot @ ac + n * _EPS * kappa * size_b
    pair = np.where(tied, 0.0, c * c.T)
    curv = 2.0 * (pair / d).sum(axis=1)
    moved = np.abs(pair) * 2.0 * eta / (gap * (gap - 2.0 * eta))
    err = 2.0 * ((err_c * ac.T + ac * err_c.T + err_c * err_c.T) / gap + moved).sum(axis=1)
    simple = tied.sum(axis=1) == 1
    return curv, np.where(simple, err, np.inf)


def _curvature_witnesses(nus, curv, bound, g, size):
    """notlines witnesses of a curve from bent branches on the ray w = g z.

    A component of the curve through z = -1/nu, w = g z, nu(g) a simple
    branch on that ray, is a line exactly when the branch is affine
    (property L). So every branch whose |nu''| (curv) exceeds its rounding
    bound gives the witness (-1/nu, -g/nu); those are returned by that
    ratio, largest first. Branches with |nu| at most ZERO_PAIR_REL size are
    constant factors and give no point. pencil_verdict takes curv and bound
    from _branch_curvatures, factor_lines from _ray_curvatures.
    """
    keep = (np.abs(curv) > bound) & (np.abs(nus) > ZERO_PAIR_REL * size)
    margin = np.abs(curv[keep]) / bound[keep]
    z = -1.0 / nus[keep][np.argsort(-margin, kind="stable")]
    return [(complex(x), complex(g * x)) for x in z]


def pencil_verdict(a, b, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> LineVerdict:
    """Decide union-of-lines structure of det(I + zA + wB) by one common Schur basis.

    Q is a Schur basis of A + g0 B, g0 a random phase drawn from seed
    (_phases), from _schur_diagonals (commute.tuple_test runs both once on a
    whole tuple, and reads each certified pair by _schur_lines, as here): a
    unitary eigenbasis from Hermitian eigensolves when A + g0 B is normal
    and that basis diagonalizes it and is certified, else Q = qr(V) for the
    eigenvectors V of A + g0 B from LAPACK eig. Let L_A and L_B be the
    strictly lower parts of Q*AQ and Q*BQ. Then A - Q L_A Q* and B - Q L_B
    Q* are triangular in one basis, so their determinant is exactly prod_i
    (1 + (Q*AQ)_ii z + (Q*BQ)_ii w). A lines verdict is certified when
    ||L_A||_F <= tol.line ||A||_F and ||L_B||_F <= tol.line ||B||_F:
    tol.line is the relative backward error, in each matrix, under which the
    arrangement of those diagonal pairs is exact. For commuting normal A and
    B every eigenvector of a generic A + g0 B is one of A and of B, so both
    lower parts vanish up to rounding; for a normal pair the zero set is a
    union of lines only then (property L, Motzkin & Taussky).

    A notlines verdict reuses the eigensolve of the eig route, which every
    refused pair runs. Its witness is the point z = -1/nu, w = g0 z of the
    simple eigenvalue nu of A + g0 B whose branch bends the most above its
    rounding bound (_curvature_witnesses), and whose sigma_min(I + zA + wB),
    relative to 1 + |z| ||A||_F + |w| ||B||_F, is at most
    WITNESS_SIGMA_REL; that value is its witness_residual.
    Anything weaker, an eigensolve that does not converge or a singular V,
    raises NumericalAmbiguity.
    """
    a, b = core.as_cmatrices(a, b)
    n = a.shape[0]
    if tol is None:
        tol = core.default_tolerances()
    fa = core.frobenius(a)
    fb = core.frobenius(b)
    (g,) = _phases(seed, 2)
    nus, v, diags, lower, certified = _schur_diagonals([a, b], [g], (fa, fb), tol)
    if certified:
        return _schur_lines(diags, lower, (fa, fb), 0, 1)
    low_a, low_b = (float(x) for x in lower)
    reason = (
        f"no common Schur basis: relative lower parts {low_a:.3e} of Q*AQ and {low_b:.3e} "
        f"of Q*BQ, above tol.line = {tol.line:.1e}"
    )
    try:
        curv, bound = _branch_curvatures(nus, v, b, fa + fb, fb)
    except np.linalg.LinAlgError as exc:
        raise NumericalAmbiguity(f"{reason}, and the pencil eigenvector solve failed: {exc}") from None
    witnesses = _curvature_witnesses(nus, curv, bound, g, fa + fb)
    eye = np.eye(n, dtype=np.complex128)
    best = math.inf
    for z, w in witnesses:
        try:
            smin = np.linalg.svd(eye + z * a + w * b, compute_uv=False)[-1]
        except np.linalg.LinAlgError as exc:
            raise NumericalAmbiguity(f"witness singular values did not converge: {exc}") from None
        sigma = float(smin / (1.0 + abs(z) * fa + abs(w) * fb))
        if sigma <= WITNESS_SIGMA_REL:
            return LineVerdict(False, None, (z, w), sigma)
        best = min(best, sigma)
    if best < math.inf:
        raise NumericalAmbiguity(
            f"{reason}, and every curved-branch witness is off the matrix curve: smallest "
            f"relative sigma_min(I + zA + wB) {best:.3e} exceeds {WITNESS_SIGMA_REL:.1e}"
        )
    raise NumericalAmbiguity(
        f"{reason}, and no simple eigenvalue branch of A + gB bends above its rounding bound"
    )


def line_through_point(arr: LineArrangement, z: complex, w: complex, *, tol=None):
    """All arrangement lines through the point (z, w): _line_ratio at most tol.line."""
    if tol is None:
        tol = core.default_tolerances()
    z = complex(z)
    w = complex(w)
    hits = []
    for line, _ in arr.lines:
        lz, mw = line.lam * z, line.mu * w
        if _line_ratio(1.0, -(lz + mw), abs(lz) + abs(mw)) <= tol.line:
            hits.append(line)
    return hits


def _has_perfect_matching(adj: np.ndarray) -> bool:
    """Whether the square boolean biadjacency matrix admits a perfect matching.

    Kuhn's augmenting paths: each row in turn takes a column that is free
    or whose row can move, depth first, to another column not yet seen in
    that search. The search keeps an explicit stack of (row, its column
    iterator, the column it holds) so deep paths need no recursion; a free
    column hands each row on the stack the column above it. A search that
    fails leaves that row unmatched.
    """
    cols_of = [np.flatnonzero(row).tolist() for row in adj]
    row_of = [-1] * len(cols_of)
    for start in range(len(cols_of)):
        seen, stack = set(), [(start, iter(cols_of[start]), -1)]
        while stack:
            for col in stack[-1][1]:
                if col not in seen:
                    break
            else:
                stack.pop()
                continue
            if row_of[col] < 0:
                for row, _, held in reversed(stack):
                    row_of[col], col = row, held
                break
            seen.add(col)
            stack.append((row_of[col], iter(cols_of[row_of[col]]), col))
        if not stack:
            return False
    return True


def _bottleneck(cost: np.ndarray) -> float:
    """Least possible largest entry over perfect matchings of a square cost matrix.

    The largest row minimum bounds every matching from below. When the row
    argmins are distinct, that permutation attains it, so it is exact; it
    also minimizes the sum, so it agrees with an optimal assignment.
    Otherwise bisect over the distinct costs at or above the bound, testing
    each threshold for a perfect matching.
    """
    n = cost.shape[0]
    lower = cost.min(axis=1).max()
    if np.unique(cost.argmin(axis=1)).size == n:
        return float(lower)
    levels = np.unique(cost[cost >= lower])
    lo, hi = 0, levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(cost <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def tuple_distance(x, y) -> float:
    """Minimum-bottleneck matching distance between two multisets of k-tuples.

    x and y are (m, k) arrays, one tuple a row. Returns the least achievable
    largest Euclidean distance over one-to-one matchings of the rows, or
    +inf when the row counts differ.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if len(x) != len(y):
        return math.inf
    if not len(x):
        return 0.0
    squares = sum(np.abs(x[:, None, c] - y[None, :, c]) ** 2 for c in range(x.shape[1]))
    return _bottleneck(np.sqrt(squares))


def compare_arrangements(a: LineArrangement, b: LineArrangement) -> float:
    """tuple_distance between multiplicity-expanded arrangements: the least
    achievable largest (lam, mu) distance over one-to-one matchings of the
    lines, each counted with its multiplicity, or +inf when the expanded
    cardinalities differ."""
    ea = [(line.lam, line.mu) for line, m in a.lines for _ in range(m)]
    eb = [(line.lam, line.mu) for line, m in b.lines for _ in range(m)]
    return tuple_distance(np.reshape(ea, (-1, 2)), np.reshape(eb, (-1, 2)))


def parse_arrangement(text: str) -> LineArrangement:
    """Parse the arrangement format: `lines <count>` then coefficient rows."""
    items = list(core._content_lines(text))
    lineno, (count,) = core._header(items, 0, "lines <count>", "line count", 0)
    if len(items) - 1 != count:
        raise ParseError(f"expected {count} line rows, found {len(items) - 1}", line=lineno, col=1)
    out = []
    for lineno, row in items[1:]:
        tokens = row.split()
        if len(tokens) != 5:
            raise ParseError("expected '<re l> <im l> <re m> <im m> <mult>'", line=lineno, col=1)
        try:
            rl, il, rm, im = (float(t) for t in tokens[:4])
            mult = int(tokens[4])
        except ValueError:
            raise ParseError("bad arrangement row", line=lineno, col=1) from None
        if mult <= 0:
            raise ParseError("multiplicity must be positive", line=lineno, col=1)
        if not all(map(math.isfinite, (rl, il, rm, im))):
            raise ParseError("line coefficients must be finite", line=lineno, col=1)
        out.append((Line(complex(rl, il), complex(rm, im)), mult))
    return LineArrangement(out)


def emit_arrangement(arr: LineArrangement) -> str:
    out = [f"lines {len(arr.lines)}"]
    for line, mult in arr.lines:
        out.append(
            f"{line.lam.real:.17g} {line.lam.imag:.17g} "
            f"{line.mu.real:.17g} {line.mu.imag:.17g} {mult}"
        )
    return "\n".join(out) + "\n"
