"""Line geometry of determinantal zero sets.

Decides whether the zero set of a bivariate polynomial with p(0,0) = 1 is a
union of complex lines {1 + lambda z + mu w = 0} and extracts the arrangement
when it is. The candidate multisets come from axis slices; the pairing of
lambda with mu values is resolved on two independent random rays; a
reconstruction check is mandatory before any affirmative verdict.

For a matrix pair, pencil_verdict decides the same question for
det(I + zA + wB) without the polynomial: the candidates are the spectra of A
and B, the rays are spectra of A + gB, and the certificate is a spectral
match on n + 1 directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import core
from .detpoly import (
    _RADIUS_FLOOR,
    DEGREE_BUDGET,
    BivarPoly,
    direction_spectra,
    total_degree,
    univariate_slice,
)
from .errors import (
    DegenerateInput,
    DegreeBudgetExceeded,
    DimMismatch,
    NumericalAmbiguity,
    ParseError,
)

# Greedy pairing acceptance: per-pair ray mismatch relative to the pair scale.
PAIR_TOL = 1e-5

# Multiplicity clustering radius, relative to 1 + |lambda| + |mu| (for a
# coefficient tuple, 1 plus the sum of its moduli).
CLUSTER_REL = 1e-6

# Off-line witness admission: |p(witness)| bound (absolute).
WITNESS_PTOL = 1e-8

# Eigenvalue pairs with both entries below this size, relative to each
# matrix's ||.||_F, correspond to constant factors of the determinant, not
# lines.
ZERO_PAIR_REL = 1e-12

# A notlines witness (z, w) of pencil_verdict must lie on the curve of the
# matrices: sigma_min(I + zA + wB), relative to
# 1 + |z| ||A||_F + |w| ||B||_F, at most this.
WITNESS_SIGMA_REL = 1e-8

# Dust threshold when reading degrees off slice coefficient vectors.
_SLICE_DUST_REL = 1e-12

# p(0,0) must equal 1 within this bound before factorization is attempted.
_C00_TOL = 1e-6

_NEWTON_STEPS = 3


@dataclass(frozen=True)
class Line:
    """The affine complex line {1 + lam*z + mu*w = 0}; (lam, mu) != (0, 0)."""

    lam: complex
    mu: complex


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
    certified witness."""

    is_lines: bool
    arrangement: Optional[LineArrangement] = None
    witness: Optional[Tuple[complex, complex]] = None
    witness_residual: Optional[float] = None


def _sorted_complex(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.size == 0:
        return arr
    order = np.lexsort((arr.imag, arr.real))
    return arr[order]


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


def poly_roots(coeffs, rel: float = _SLICE_DUST_REL) -> np.ndarray:
    """Roots of an ascending-coefficient polynomial via its companion matrix.

    Leading coefficients below rel * max|c| are treated as zero.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    mags = np.abs(c)
    top = mags.max() if c.size else 0.0
    if top == 0.0:
        raise ValueError("zero polynomial has no well-defined roots")
    deg = int(np.nonzero(mags > rel * top)[0].max())
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
    1, so companion roots need no leading-coefficient guesswork.
    """
    s = np.asarray(slice_coeffs, dtype=np.complex128)[: d + 1]
    mags = np.abs(s)
    top = mags.max()
    if top == 0.0:
        raise DegenerateInput("slice polynomial is identically zero")
    k = int(np.nonzero(mags > _SLICE_DUST_REL * top)[0].max())
    if k == 0:
        return np.zeros(d, dtype=np.complex128)
    y = _companion_roots(s[: k + 1][::-1])
    vals = np.concatenate([-y, np.zeros(d - k, dtype=np.complex128)])
    return _sorted_complex(vals)


def cluster_tuples(tuples, rel: float = CLUSTER_REL):
    """Greedy radius clustering of coefficient tuples into (centroid, multiplicity).

    Deterministic: seeds are taken in lexicographic (re, im) order and absorb
    every unused tuple within rel * (1 + sum of the seed's moduli); output is
    sorted the same way. Pairs (lam, mu) are the line case.
    """
    items = [tuple(complex(x) for x in t) for t in tuples]

    def key(t):
        return tuple(v for x in t for v in (x.real, x.imag))

    order = sorted(range(len(items)), key=lambda i: key(items[i]))
    used = [False] * len(items)
    clusters = []
    for i in order:
        if used[i]:
            continue
        seed = items[i]
        radius = rel * sum((abs(x) for x in seed), 1.0)
        members = []
        for j in order:
            if not used[j] and math.hypot(*(abs(x - y) for x, y in zip(items[j], seed))) <= radius:
                members.append(j)
                used[j] = True
        center = tuple(sum(items[j][c] for j in members) / len(members) for c in range(len(seed)))
        clusters.append((center, len(members)))
    clusters.sort(key=lambda t: key(t[0]))
    return clusters


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


def _grid_jacobian(lines, n: int) -> np.ndarray:
    """Jacobian of expand_arrangement(lines, n) on the unit roots-of-unity grid.

    Columns alternate d/d lam_i, d/d mu_i over the lines in order; rows are
    the (n+1) x (n+1) grid nodes (z_a, w_b), z_a = w_a = exp(2 pi i a/(n+1)),
    raveled with a major. The derivative in lam_i is mult_i * z * Q_i, in
    mu_i mult_i * w * Q_i, where Q_i is the product with one copy of factor i
    removed: prefix and suffix products of the other factors' powers times
    factor i to the power mult_i - 1. No factor value is divided by, since a
    line through a grid node makes one vanish there. Values are scaled by
    1/(n+1), so the grid map of a coefficient table C is
    np.fft.ifft2(C, norm="ortho"), a unitary transform.
    """
    m = n + 1
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    z = nodes[:, None]
    w = nodes[None, :]
    mult = np.array([mt for _, mt in lines])
    factors = np.stack([1.0 + line.lam * z + line.mu * w for line, _ in lines])
    lower = factors ** (mult - 1)[:, None, None]
    full = lower * factors
    ones = np.ones((1, m, m), dtype=np.complex128)
    before = np.concatenate([ones, np.cumprod(full[:-1], axis=0)])
    after = np.concatenate([np.cumprod(full[:0:-1], axis=0)[::-1], ones])
    q = (mult / m)[:, None, None] * before * after * lower
    cols = np.stack([q * z, q * w], axis=1)
    return cols.reshape(2 * len(lines), m * m).T


def _polish_lines(coeffs: np.ndarray, lines, n: int, steps: int = 3):
    """Joint Gauss-Newton refinement of all line parameters at once.

    Returns (lines, err), err = ||expand(lines) - coeffs||_F for exactly the
    lines returned. Minimizes that residual over every (lam_i, mu_i). The
    residual and the best-so-far choice use the exact expansion in
    coefficient space, one expansion per step. The Jacobian is built on the
    roots-of-unity grid (_grid_jacobian) and the residual mapped there by
    the unitary inverse DFT; by Parseval that least-squares problem is the
    coefficient-space one. Individual slice roots carry interpolation noise
    amplified by conditioning; fitting the whole table washes that out
    quadratically.
    """
    work = [[line.lam, line.mu, mult] for line, mult in lines]
    norm_c = np.linalg.norm(coeffs)
    best = None
    for _ in range(steps):
        current = [(Line(l, m), mu) for l, m, mu in work]
        recon = expand_arrangement(current, n)
        r = coeffs - recon.coeffs
        err = float(np.linalg.norm(r))
        if best is not None and err >= best[1]:
            return best
        best = (current, err)
        if err <= 1e-15 * norm_c:
            return best
        jac = _grid_jacobian(current, n)
        delta, *_ = np.linalg.lstsq(jac, np.fft.ifft2(r, norm="ortho").ravel(), rcond=None)
        for i in range(len(work)):
            work[i][0] = work[i][0] + complex(delta[2 * i])
            work[i][1] = work[i][1] + complex(delta[2 * i + 1])
    current = [(Line(l, m), mu) for l, m, mu in work]
    recon = expand_arrangement(current, n)
    err = float(np.linalg.norm(coeffs - recon.coeffs))
    if best is not None and err >= best[1]:
        return best
    return current, err


def _greedy_pairing(lams, mus, gammas, ray_roots, pair_tol):
    """Pair lambda and mu candidates using nearest ray-root consistency.

    Returns the list of paired (lam, mu) or None when some selection exceeds
    the pairing tolerance.
    """
    d = len(lams)
    lam_arr = np.asarray(lams)
    mu_arr = np.asarray(mus)
    avail_l = np.ones(d, dtype=bool)
    avail_m = np.ones(d, dtype=bool)
    avail_s = [np.ones(d, dtype=bool) for _ in gammas]
    predicted = [np.add.outer(lam_arr, g * mu_arr) for g in gammas]
    pairs = []
    for _ in range(d):
        li = np.flatnonzero(avail_l)
        mi = np.flatnonzero(avail_m)
        ray_min = []
        ray_arg = []
        for r in range(len(gammas)):
            si = np.flatnonzero(avail_s[r])
            dist = np.abs(predicted[r][np.ix_(li, mi)][:, :, None] - ray_roots[r][si][None, None, :])
            ray_min.append(dist.min(axis=2))
            ray_arg.append((si, dist.argmin(axis=2)))
        cost = np.maximum.reduce(ray_min)
        ii, jj = np.unravel_index(int(cost.argmin()), cost.shape)
        i0, j0 = int(li[ii]), int(mi[jj])
        scale = 1.0 + max(abs(predicted[r][i0, j0]) for r in range(len(gammas)))
        if cost[ii, jj] > pair_tol * scale:
            return None
        pairs.append((complex(lam_arr[i0]), complex(mu_arr[j0])))
        avail_l[i0] = False
        avail_m[j0] = False
        for r in range(len(gammas)):
            si, arg = ray_arg[r]
            avail_s[r][si[arg[ii, jj]]] = False
    return pairs


def _witness_points(p, lam_vals, mu_vals, ray_info, rng):
    """Candidate zero-set points, built only as far as they are consumed.

    First the roots of each ray slice (t, gamma t), polished together per
    ray; then six axis slices alternating fixed z and fixed w, each drawn,
    sliced and solved only when every earlier point has been rejected.
    """
    for gamma, coeffs, roots in ray_info:
        ts = _polish_roots(coeffs / coeffs[0], -1.0 / roots[np.abs(roots) >= 1e-12])
        for t in ts:
            yield complex(t), gamma * complex(t)
    scale_l = max((abs(v) for v in lam_vals), default=0.0)
    scale_m = max((abs(v) for v in mu_vals), default=0.0)
    for attempt in range(6):
        fix_z = attempt % 2 == 0
        scale = scale_l if fix_z else scale_m
        v0 = complex((1.0 / (1.0 + scale)) * np.exp(2j * np.pi * rng.uniform()))
        try:
            roots = poly_roots(univariate_slice(p, "fix_z" if fix_z else "fix_w", v0))
        except ValueError:
            continue
        for root in roots:
            yield (v0, complex(root)) if fix_z else (complex(root), v0)


def _witness_search(p, lam_vals, mu_vals, ray_info, rng, tol):
    """Hunt for a certified point of the zero set off every candidate line."""
    cand = [(l, m) for l in lam_vals for m in mu_vals]
    for z, w in _witness_points(p, lam_vals, mu_vals, ray_info, rng):
        val = abs(p.evaluate(z, w))
        if val > WITNESS_PTOL:
            continue
        margin = tol.line * (1.0 + abs(z) + abs(w))
        if all(abs(1.0 + l * z + m * w) > margin for l, m in cand):
            return (z, w), val
    return None


def factor_lines(p: BivarPoly, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> LineVerdict:
    """Decide union-of-lines structure for the zero set of p.

    Affirmative verdicts always pass the reconstruction check (expanded
    product within tol.recon * ||coeffs|| of p); negative verdicts carry a
    zero-set point separated from every candidate line. Anything weaker
    raises NumericalAmbiguity.
    """
    if tol is None:
        tol = core.default_tolerances()
    c = p.coeffs
    if abs(c[0, 0] - 1.0) > _C00_TOL:
        raise DegenerateInput(f"p(0,0) = {c[0, 0]:.6g}, expected 1")
    norm_c = float(np.linalg.norm(c))
    d = total_degree(p)
    deficit = p.n - d
    if d == 0:
        return LineVerdict(True, LineArrangement([], deficit))
    lams = _monic_reversed_roots(c[:, 0], d)
    mus = _monic_reversed_roots(c[0, :], d)
    rng = np.random.default_rng(seed)
    gammas = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=2))
    ray_info = []
    for g in gammas:
        coeffs = univariate_slice(p, "ray", g)
        ray_info.append((complex(g), coeffs, _monic_reversed_roots(coeffs, d)))
    ray_roots = [info[2] for info in ray_info]
    pairs = _greedy_pairing(lams, mus, gammas, ray_roots, PAIR_TOL)
    if pairs is not None:
        lines = [(Line(l, m), mult) for (l, m), mult in cluster_tuples(pairs)]
        lines, err = _polish_lines(c, lines, p.n)
        lines.sort(
            key=lambda t: (t[0].lam.real, t[0].lam.imag, t[0].mu.real, t[0].mu.imag)
        )
        if err <= tol.recon * norm_c:
            return LineVerdict(True, LineArrangement(lines, deficit))
        raise NumericalAmbiguity(
            f"pairing succeeded but reconstruction residual {err:.3e} exceeds "
            f"{tol.recon * norm_c:.3e}"
        )
    lam_vals = [l for (l,), _ in cluster_tuples([(l,) for l in lams])]
    mu_vals = [m for (m,), _ in cluster_tuples([(m,) for m in mus])]
    found = _witness_search(p, lam_vals, mu_vals, ray_info, rng, tol)
    if found is not None:
        (z, w), val = found
        return LineVerdict(False, None, (z, w), val)
    raise NumericalAmbiguity("no consistent line pairing and no certified off-line witness")


def pair_arrangement(lams, mus, *, norm_a: float = 1.0, norm_b: float = 1.0) -> LineArrangement:
    """Lines {1 + lams[j] z + mus[j] w = 0} from paired values, with multiplicity.

    Pairs with both entries below ZERO_PAIR_REL times norm_a and norm_b
    contribute constant determinant factors and are counted in the deficit
    instead.
    """
    la = np.asarray(lams, dtype=np.complex128).ravel()
    mu = np.asarray(mus, dtype=np.complex128).ravel()
    keep = (np.abs(la) > ZERO_PAIR_REL * max(norm_a, 1e-300)) | (
        np.abs(mu) > ZERO_PAIR_REL * max(norm_b, 1e-300)
    )
    pairs = list(zip(la[keep], mu[keep]))
    lines = [(Line(l, m), mult) for (l, m), mult in cluster_tuples(pairs)]
    return LineArrangement(lines, deficit=int(la.size - len(pairs)))


def _ray_witnesses(lams, mus, rays, tol):
    """Candidate notlines witnesses from ray spectra, most separated first.

    Each ray (g, eigenvalues nu of A + gB) gives the points z = -1/nu,
    w = g z of the zero set. Kept are those farther than
    tol.line (1 + |z| + |w|) from every candidate line 1 + lambda_i z + mu_j w,
    which there equals (nu - lambda_i - g mu_j) / nu, ordered by that
    distance over its bound.
    """
    margins, points = [], []
    for g, nus in rays:
        nus = nus[np.abs(nus) >= 1e-12]
        cand = (lams[:, None] + g * mus[None, :]).ravel()
        dist = np.abs(nus[:, None] - cand[None, :]).min(axis=1) / np.abs(nus)
        z = -1.0 / nus
        margins.append(dist / (tol.line * (1.0 + (1.0 + abs(g)) * np.abs(z))))
        points.append(np.stack([z, g * z], axis=1))
    margin = np.concatenate(margins)
    order = np.argsort(-margin, kind="stable")
    return [(complex(z), complex(w)) for z, w in np.concatenate(points)[order[margin[order] > 1.0]]]


def pencil_verdict(a, b, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> LineVerdict:
    """Decide union-of-lines structure of det(I + zA + wB) from pencil spectra.

    On the line w = g z the determinant is prod_i (1 + z nu_i) over the
    eigenvalues nu_i of A + gB, so for normal A and B the zero set is the
    union of the lines {1 + lambda_i z + mu_i w = 0} exactly when one
    pairing of the eigenvalues of A and B gives spec(A + gB) = {lambda_i +
    g mu_i} for every g (property L, Motzkin & Taussky). The pairing is
    found on two random rays drawn from seed. A lines verdict is certified
    on the n + 1 directions M_d of detpoly.direction_spectra, whose
    restrictions fix a polynomial of degree n: the bottleneck matching of
    each spectrum against the paired prediction must be within tol.line,
    relative since ||M_d|| <= 2. A notlines verdict carries a point of a ray
    (see _ray_witnesses) whose sigma_min(I + zA + wB), relative to
    1 + |z| ||A||_F + |w| ||B||_F, is at most WITNESS_SIGMA_REL; that value
    is its witness_residual. Anything weaker, or an eigensolve that does not
    converge, raises NumericalAmbiguity.
    """
    a = core.as_cmatrix(a)
    b = core.as_cmatrix(b)
    if a.shape != b.shape:
        raise DimMismatch(f"operands have shapes {a.shape} and {b.shape}")
    n = a.shape[0]
    if n > DEGREE_BUDGET:
        raise DegreeBudgetExceeded(f"dimension {n} exceeds degree budget {DEGREE_BUDGET}")
    if tol is None:
        tol = core.default_tolerances()
    fa = core.frobenius(a)
    fb = core.frobenius(b)
    rng = np.random.default_rng(seed)
    gammas = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=2))
    try:
        spectra = np.linalg.eigvals(np.stack([a, b, a + gammas[0] * b, a + gammas[1] * b]))
    except np.linalg.LinAlgError as exc:
        raise NumericalAmbiguity(f"pencil eigensolve did not converge: {exc}") from None
    lams = _sorted_complex(spectra[0])
    mus = _sorted_complex(spectra[1])
    rays = list(zip(gammas, spectra[2:]))
    pairs = _greedy_pairing(lams, mus, gammas, spectra[2:], PAIR_TOL)
    reason = "no consistent line pairing"
    if pairs is not None:
        pl = np.array([l for l, _ in pairs])
        pm = np.array([m for _, m in pairs])
        rho_a = 1.0 / (_RADIUS_FLOOR + np.abs(lams).max())
        rho_b = 1.0 / (_RADIUS_FLOOR + np.abs(mus).max())
        try:
            omega, nus = direction_spectra(a, b, rho_a, rho_b)
        except np.linalg.LinAlgError as exc:
            raise NumericalAmbiguity(f"pencil eigensolve did not converge: {exc}") from None
        pred = rho_a * pl[None, :] + (rho_b * omega)[:, None] * pm[None, :]
        mismatch = [_bottleneck(np.abs(v[:, None] - p[None, :])) for v, p in zip(nus, pred)]
        worst = int(np.argmax(mismatch))
        if mismatch[worst] <= tol.line:
            return LineVerdict(True, pair_arrangement(pl, pm, norm_a=fa, norm_b=fb))
        reason = (
            f"paired spectra miss direction {worst} by {mismatch[worst]:.3e}, "
            f"above tol.line = {tol.line:.1e}"
        )
        rays.append((rho_b * omega[worst] / rho_a, nus[worst] / rho_a))
    eye = np.eye(n, dtype=np.complex128)
    best = math.inf
    for z, w in _ray_witnesses(lams, mus, rays, tol):
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
            f"{reason}, and every separated witness is off the matrix curve: smallest "
            f"relative sigma_min(I + zA + wB) {best:.3e} exceeds {WITNESS_SIGMA_REL:.1e}"
        )
    raise NumericalAmbiguity(f"{reason}, and no ray eigenvalue is off every candidate line")


def line_through_point(arr: LineArrangement, z: complex, w: complex, *, tol=None):
    """All arrangement lines passing within tol.line of the point (z, w)."""
    if tol is None:
        tol = core.default_tolerances()
    z = complex(z)
    w = complex(w)
    bound = tol.line * (1.0 + abs(z) + abs(w))
    return [line for line, _ in arr.lines if abs(1.0 + line.lam * z + line.mu * w) <= bound]


def _has_perfect_matching(adj: np.ndarray) -> bool:
    """Whether the square boolean biadjacency matrix admits a perfect matching.

    Augmenting paths, one breadth-first search per row: each layer reaches
    every unseen column adjacent to the frontier rows and records the row it
    came from; a free column ends the path, which is then flipped back to
    the starting row. A search that runs dry leaves that row unmatched.
    """
    n = adj.shape[0]
    row_of = np.full(n, -1)
    col_of = np.full(n, -1)
    for start in range(n):
        via = np.full(n, -1)
        seen = np.zeros(n, dtype=bool)
        frontier = np.array([start])
        free = None
        while free is None:
            reach = adj[frontier] & ~seen
            cols = np.flatnonzero(reach.any(axis=0))
            if cols.size == 0:
                return False
            seen[cols] = True
            via[cols] = frontier[reach[:, cols].argmax(axis=0)]
            open_cols = cols[row_of[cols] < 0]
            if open_cols.size:
                free = int(open_cols[0])
            frontier = row_of[cols]
        col = free
        while col >= 0:
            row = via[col]
            nxt = col_of[row]
            row_of[col] = row
            col_of[row] = col
            col = nxt
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


def compare_arrangements(a: LineArrangement, b: LineArrangement) -> float:
    """Minimum-bottleneck matching distance between multiplicity-expanded arrangements.

    Returns the least achievable largest pair distance over one-to-one
    matchings of the lines, each counted with its multiplicity, or +inf when
    the expanded cardinalities differ.
    """
    ea = [(line.lam, line.mu) for line, m in a.lines for _ in range(m)]
    eb = [(line.lam, line.mu) for line, m in b.lines for _ in range(m)]
    if len(ea) != len(eb):
        return math.inf
    if not ea:
        return 0.0
    la = np.array([t[0] for t in ea])
    ma = np.array([t[1] for t in ea])
    lb = np.array([t[0] for t in eb])
    mb = np.array([t[1] for t in eb])
    cost = np.sqrt(
        np.abs(la[:, None] - lb[None, :]) ** 2 + np.abs(ma[:, None] - mb[None, :]) ** 2
    )
    return _bottleneck(cost)


def parse_arrangement(text: str) -> LineArrangement:
    """Parse the arrangement format: `lines <count>` then coefficient rows."""
    items = list(core._content_lines(text))
    if not items:
        raise ParseError("expected 'lines <count>' header, found end of input")
    lineno, line = items[0]
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "lines":
        raise ParseError("expected 'lines <count>' header", line=lineno, col=1)
    try:
        count = int(tokens[1])
    except ValueError:
        raise ParseError("line count must be an integer", line=lineno, col=1) from None
    if count < 0 or len(items) - 1 != count:
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
