"""Line geometry of determinantal zero sets.

Decides whether the zero set of a bivariate polynomial with p(0,0) = 1 is a
union of complex lines {1 + lambda z + mu w = 0} and extracts the arrangement
when it is. The candidate multisets come from axis slices; the pairing of
lambda with mu values is resolved on two independent random rays; a
reconstruction check is mandatory before any affirmative verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import core
from .detpoly import BivarPoly, total_degree, univariate_slice
from .errors import DegenerateInput, NumericalAmbiguity, ParseError

# Greedy pairing acceptance: per-pair ray mismatch relative to the pair scale.
PAIR_TOL = 1e-5

# Multiplicity clustering radius, relative to 1 + |lambda| + |mu| (for a
# coefficient tuple, 1 plus the sum of its moduli).
CLUSTER_REL = 1e-6

# Off-line witness admission: |p(witness)| bound (absolute).
WITNESS_PTOL = 1e-8

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
    """Outcome of factor_lines: a certified arrangement or a certified witness."""

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


def line_through_point(arr: LineArrangement, z: complex, w: complex, *, tol=None):
    """All arrangement lines passing within tol.line of the point (z, w)."""
    if tol is None:
        tol = core.default_tolerances()
    z = complex(z)
    w = complex(w)
    bound = tol.line * (1.0 + abs(z) + abs(w))
    return [line for line, _ in arr.lines if abs(1.0 + line.lam * z + line.mu * w) <= bound]


def compare_arrangements(a: LineArrangement, b: LineArrangement) -> float:
    """Optimal-assignment distance between multiplicity-expanded arrangements.

    Returns the largest matched pair distance under a minimal-cost matching,
    or +inf when the expanded cardinalities differ.
    """
    from scipy.optimize import linear_sum_assignment

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
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


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
