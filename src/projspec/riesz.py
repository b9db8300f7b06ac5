"""Resolvent contour quadrature and its perturbation consequences.

Riesz projections P = (1/2 pi i) integral of (uI - A)^{-1} du over a circle,
the first-order term of the projector expansion under A + eps B, a slope
check for the second-order remainder of the eigen-equation identity, and the
large-|z| singular-vector construction that extracts a common eigenvector
from a line contained in the spectrum.

The N-node trapezoid sum reads A's one eigenbasis when A is normal. For a
normal A, core.eig_normal (at the default Tolerances, so that no
PROJSPEC_TOL setting reaches this module) gives U with U*AU = diag(d) + E,
E the off-diagonal residual, and _admit holds it in one record (_Basis) for
every route. With g_ji = 1/(u_j - d_i) and the weights
w_j = (r/N) e^{2 pi i j/N}, the resolvent (u_j - U*AU)^{-1} is the Neumann
series G_j sum_k (E G_j)^k, G_j = diag(g_j), of ratio q = max|g| ||E||_F.

One tail rule decides every route (_tail_terms): m is the least number of
terms whose tail q^m / (1 - q) is below the unit roundoff, defined only for
q <= 1/2. Where m <= 2 the closed form first order in E holds: P =
U (diag(f) + F o E) U* with f_i = sum_j w_j g_ji and
F_ik = sum_j w_j g_ji g_jk, and the first-order term is
U (F o C + F o (ZC - CZ) + (C o F)Z - Z(C o F)) U*, C = U*BU and
Z_im = E_im/(d_i - d_m): no solve at any node. That is the partial fraction
g_ji g_jm = (g_ji - g_jm)/(d_i - d_m), which turns the triple sums
sum_j w_j g_ji g_jm g_jk into (F_ik - F_mk)/(d_i - d_m). A near pair,
E_im != 0 with |E_im| >= |d_i - d_m|, gets Z_im = 0 and its terms by those
N-node triple sums instead; f and F stay N-node sums. perturbation_check's
contours A + eps B see U*(A + eps B)U = diag(d) + K with K = E + eps C,
C = U*BU, and need only the r rows of P0 its residual reads, r being P0's
certified rank: at q = max|g| (||E||_F + eps ||C||_2), with ||C||_2 bounded
once per call from C's Schatten-8 norm and never above ||B||_F
(_spectral_bound), they run the row series of m terms over all nodes at
once where m r <= n. Otherwise, and when
eig_normal refuses A, the solves at all nodes of a contour are one batched
LAPACK solve, summed over the nodes by one tensordot: against the identity
for a projection, against r columns for an eps contour.

Every contour is first checked to pass no closer than CONTOUR_MARGIN *
radius to the spectrum. When eig_normal admits A, whichever route the
quadrature then takes, that is checked on d, each distance shrunk by the
slack ||E||_F + n eps ||A||_F: by Bauer-Fike every eigenvalue of U*AU lies
within ||E||_2 of some d_i, and n eps ||A||_F bounds the eigensolver's
backward error. A perturbed contour is checked on the same d with the
slack ||E||_F + eps ||B||_F + n eps_mach (||A||_F + eps ||B||_F). When
eig_normal refuses A, and where a perturbed contour's disks cross the
margin, it is one LAPACK eigvals. For strongly non-normal A the computed
eigenvalues carry an error of about machine epsilon * ||A|| * their
condition number, so the integer-trace check on the finished projection
remains the backstop.

lemma34_solver finds the smallest right singular vector v of each probe and
ramp matrix M = I + zA - B/mu by inverse iteration on M*M, from one
batched inverse of the stack, and certifies it by ||Mv||, an upper bound on
the smallest singular value. The SVD still runs where that certificate
fails: the values-only SVD of the probes when some probe misses
_LINE_PROBE_TOL, and the full SVD of the ramp when its last residuals miss
_LEMMA34_RESID_TOL, an LU is exactly singular or an iterate is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import core
from .agmon import strong_agmon_check
from .errors import (
    ContourCapturesPerturbedSpectrumBoundary,
    EigenvalueOnContour,
    LineNotInSpectrum,
    NoConvergence,
    NotNormal,
    NumericalAmbiguity,
    SingularResolvent,
)

# No eigenvalue may sit closer to the circle than this fraction of the radius.
CONTOUR_MARGIN = 0.05

DEFAULT_NODES = 64

_TRACE_TOL = 1e-6

_LINE_PROBE_COUNT = 5
_LINE_PROBE_TOL = 1e-8

_LEMMA34_RESID_TOL = 1e-6

# Inverse-iteration steps on M*M per smallest right singular vector of a
# lemma34_solver probe or ramp matrix M, each two products with M's one
# computed inverse, and the step between consecutive entries of their fixed
# start vector (the golden ratio's fractional part). On 120 perfbench
# lemma34 instances (n = 8-48) one step already left every ramp vector
# within 1.0e-15 of the SVD's, as two and three steps did. The second step
# is margin: each step shrinks the error by about (sigma_min / sigma_2)^2,
# near 1e-32 there, but not where the two smallest singular values lie
# close together.
_INVERSE_STEPS = 2
_START_STEP = (math.sqrt(5.0) - 1.0) / 2.0

_EPS = float(np.finfo(np.float64).eps)
_UNIT_ROUNDOFF = _EPS / 2


@dataclass(frozen=True)
class Contour:
    """Positively oriented circle with a fixed trapezoid node count."""

    center: complex
    radius: float
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        # every node then has finite parts
        if not math.isfinite(abs(self.center) + self.radius):
            raise ValueError(f"contour about {self.center:.6g} of radius {self.radius:.6g} leaves double range")
        if self.nodes < 16:
            raise ValueError(f"nodes must be >= 16, got {self.nodes}")


@dataclass
class RieszResult:
    projection: np.ndarray
    idempotency_residual: float
    commutation_residual: float
    rank_estimate: int


@dataclass
class PerturbationReport:
    eps: np.ndarray
    residuals: np.ndarray
    slope: Optional[float]
    exact: bool


@dataclass
class Lemma34Result:
    vector: np.ndarray
    residual_a: float
    residual_b: float
    # (z, sigma, ||Av||, ||Bv - mu v||) per ramp step, v that step's vector:
    # sigma = ||(I + zA - B/mu) v||, an upper bound on the smallest singular
    # value and equal to it up to rounding, or the SVD's own smallest
    # singular value where the ramp fell back to the SVD
    history: List[Tuple[complex, float, float, float]] = field(default_factory=list)


def _check_margin(vals: np.ndarray, slack: float, c: Contour) -> None:
    """Reject contours passing within CONTOUR_MARGIN * radius of the spectrum.

    vals are computed eigenvalues, and slack bounds how far each eigenvalue
    of A may lie from the nearest of them: the test is every distance from
    vals to the circle against the margin grown by slack. Eigenvalues of
    strongly non-normal A are only as accurate as their conditioning allows,
    and _finish_projection's trace check can still reject such a contour.
    """
    margin = CONTOUR_MARGIN * c.radius + slack
    dist = np.abs(np.abs(vals - c.center) - c.radius)
    if dist.size and float(dist.min()) < margin:
        raise EigenvalueOnContour(
            f"eigenvalue within {float(dist.min()):.3e} of the contour "
            f"(margin {margin:.3e})"
        )


def _nodes(c: Contour):
    """The quadrature phases e^{2 pi i j/N} and nodes u_j = center + radius * phase."""
    phases = np.exp(2j * np.pi * np.arange(c.nodes) / c.nodes)
    return phases, c.center + c.radius * phases


def _solve_nodes(a: np.ndarray, c: Contour, rhs: np.ndarray):
    """Quadrature phases and the (nodes, n, k) stack (u_j I - A)^{-1} rhs
    for an (n, k) right-hand side, one batched solve over all nodes."""
    n = a.shape[0]
    phases, us = _nodes(c)
    # -A at every node, with u_j added along node j's diagonal
    shifted = np.broadcast_to(-a, (c.nodes, n, n)).copy()
    shifted.reshape(c.nodes, n * n)[:, :: n + 1] += us[:, None]
    # a right-hand side with as many dimensions as the stack: numpy < 2
    # reads a 2-D b next to a 3-D a as a stack of vectors
    stacked = np.broadcast_to(rhs, (c.nodes,) + rhs.shape)
    try:
        return phases, np.linalg.solve(shifted, stacked)
    except np.linalg.LinAlgError:
        pass
    # name the first node whose solve fails
    for u, m in zip(us, shifted):
        try:
            np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            raise SingularResolvent(f"resolvent solve failed at node u = {u:.6g}") from None
    raise SingularResolvent("batched resolvent solve failed")


def _resolvent_nodes(a: np.ndarray, c: Contour):
    """Quadrature phases and the (nodes, n, n) stack of resolvents (uI - A)^{-1}."""
    return _solve_nodes(a, c, np.eye(a.shape[0], dtype=np.complex128))


def _combine(phases: np.ndarray, terms, c: Contour) -> np.ndarray:
    # (1/2 pi i) * sum over nodes of f(u_j) * i r e^{i phi_j} * (2 pi / N)
    return (c.radius / c.nodes) * np.tensordot(phases, terms, axes=1)


@dataclass(frozen=True)
class _Basis:
    """A's eigenbasis at one contour, the one record every route reads: U
    from core.eig_normal at the default Tolerances, U*AU = diag(d) + E with
    E's diagonal zero and off = ||E||_F, the (nodes, n) table
    g_ji = 1/(u_j - d_i) and gmax = max|g|, wg_ji = w_j g_ji with
    _combine's weights w_j = (r/N) e^{2 pi i j/N}, and norm_a = ||A||_F."""

    u: np.ndarray
    d: np.ndarray
    e: np.ndarray
    off: float
    g: np.ndarray
    gmax: float
    wg: np.ndarray
    norm_a: float


def _admit(a: np.ndarray, c: Contour) -> Optional[_Basis]:
    """A's _Basis at c, or None when eig_normal refuses A (NotNormal,
    NoConvergence); either way the contour has passed _check_margin. When
    eig_normal admits A the margin is checked on d with the slack
    ||E||_F + n eps ||A||_F, otherwise on one LAPACK eigvals of A."""
    try:
        u = core.eig_normal(a, tol=core.Tolerances()).unitary
    except (NotNormal, NoConvergence):
        _check_margin(np.linalg.eigvals(a), 0.0, c)
        return None
    e = u.conj().T @ (a @ u)
    d = e.diagonal().copy()
    np.fill_diagonal(e, 0.0)
    phases, us = _nodes(c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = 1.0 / (us[:, None] - d)
        wg = (c.radius / c.nodes) * phases[:, None] * g
        basis = _Basis(u, d, e, float(np.linalg.norm(e)), g, float(np.abs(g).max()), wg, core.frobenius(a))
    _check_margin(d, basis.off + d.size * _EPS * basis.norm_a, c)
    return basis


def _tail_terms(q: float) -> Optional[int]:
    """The least m >= 1 with q^m <= unit roundoff (1 - q): a Neumann series
    of ratio q cut after m terms drops a tail q^m / (1 - q) relative to its
    first term, below the unit roundoff. None unless q <= 1/2, NaN and inf
    included. This one rule decides every quadrature route in A's
    eigenbasis: the closed form first order in E where m <= 2, the eps
    contours' row series where m r <= n (_series_pays), the LU otherwise."""
    if not q <= 0.5:
        return None
    m = 1
    while q**m > _UNIT_ROUNDOFF * (1.0 - q):
        m += 1
    return m


def _closed_form(basis: Optional[_Basis]) -> Optional[_Basis]:
    """basis when the closed form first order in E holds for it, that is
    _tail_terms(max|g| ||E||_F) <= 2: the Neumann terms it drops are below
    rounding relative to those it keeps. None otherwise, or when basis is."""
    if basis is None:
        return None
    m = _tail_terms(basis.gmax * basis.off)
    return basis if m is not None and m <= 2 else None


def _projection(a: np.ndarray, c: Contour, basis: Optional[_Basis]) -> np.ndarray:
    """The quadrature projection: U (diag(f) + F o E) U* where the closed
    form holds for basis (_closed_form), f_i = sum_j w_j g_ji and
    F_ik = sum_j w_j g_ji g_jk; otherwise _combine of the solved resolvents.
    It is formed with numpy's overflow warnings off; _certified_rank refuses
    one that is not finite."""
    basis = _closed_form(basis)
    with np.errstate(over="ignore", invalid="ignore"):
        if basis is None:
            return _combine(*_resolvent_nodes(a, c), c)
        m = (basis.wg.T @ basis.g) * basis.e
        # E's diagonal is zero
        np.fill_diagonal(m, basis.wg.sum(axis=0))
        return basis.u @ m @ basis.u.conj().T


def _certified_rank(p: np.ndarray) -> int:
    """The rank of a quadrature projection: its trace, which must lie within
    _TRACE_TOL of an integer. A projection that is not finite raises
    NumericalAmbiguity."""
    if not np.isfinite(p).all():
        raise NumericalAmbiguity("quadrature projection is not finite")
    tr = complex(np.trace(p))
    rank = int(round(tr.real))
    if abs(tr - rank) > _TRACE_TOL:
        raise EigenvalueOnContour(
            f"projection trace {tr:.8g} is not within {_TRACE_TOL} of an integer; "
            "the contour runs too close to the spectrum for this node count"
        )
    return rank


def _finish_projection(a: np.ndarray, p: np.ndarray) -> RieszResult:
    """The result of a quadrature projection p of a; a residual that is
    not finite (formed with numpy's overflow warnings off) raises
    NumericalAmbiguity."""
    with np.errstate(over="ignore", invalid="ignore"):
        idem = float(np.linalg.norm(p @ p - p))
        comm = float(np.linalg.norm(a @ p - p @ a))
    if not (math.isfinite(idem) and math.isfinite(comm)):
        raise NumericalAmbiguity(f"projection residuals are not finite: idempotency {idem:.3e}, commutation {comm:.3e}")
    return RieszResult(p, idem, comm, _certified_rank(p))


def riesz_projection(a, c: Contour) -> RieszResult:
    """Trapezoid quadrature of the spectral projection onto the enclosed part."""
    a = core.as_cmatrix(a)
    return _finish_projection(a, _projection(a, c, _admit(a, c)))


def _near_pair_terms(e, cb, g, wg, near) -> np.ndarray:
    """The near pairs' share of the E-correction, by N-node sums: for each
    near (p, q), E_pq C_qk H_pqk added to row p and C_ip E_pq H_ipq to
    column q, H_ipq = sum_j w_j g_ji g_jp g_jq, N n work per pair."""
    ps, qs = np.nonzero(near)
    ep = e[ps, qs]
    # h[x, t] = H_{x p_t q_t} for the t-th near pair, H being symmetric in
    # its three indices
    h = wg.T @ (g[:, ps] * g[:, qs])
    out = np.zeros_like(cb)
    np.add.at(out, ps, (ep * h).T * cb[qs])
    np.add.at(out, (slice(None), qs), cb[:, ps] * ep * h)
    return out


def first_order_term(a, b, c: Contour) -> np.ndarray:
    """Quadrature of (1/2 pi i) integral (uI-A)^{-1} B (uI-A)^{-1} du.

    On the eigenbasis route it is U (F o C + sum_m (E_im C_mk + C_im E_mk)
    H_imk) U*, C = U*BU and H_imk = sum_j w_j g_ji g_jm g_jk. The partial
    fraction g_ji g_jm = (g_ji - g_jm)/(d_i - d_m) makes H_imk =
    (F_ik - F_mk)/(d_i - d_m), so with Z_im = E_im/(d_i - d_m) the sum
    over m is F o (ZC - CZ) + (C o F)Z - Z(C o F): four n x n products,
    added to F o C. A near pair, E_im != 0 with |E_im| >= |d_i - d_m|
    (repeated or ||E||-close eigenvalues), would lose digits in Z: it gets
    Z_im = 0 and keeps its N-node H terms (_near_pair_terms). A pair with
    E_im = 0 adds nothing and divides nothing.

    Both routes are formed with numpy's overflow warnings off; a term that
    is not finite raises NumericalAmbiguity.
    """
    a, b = core.as_cmatrices(a, b)
    basis = _closed_form(_admit(a, c))
    with np.errstate(over="ignore", invalid="ignore"):
        if basis is None:
            phases, resolvents = _resolvent_nodes(a, c)
            t = _combine(phases, resolvents @ b @ resolvents, c)
        else:
            u, d, e, g, wg = basis.u, basis.d, basis.e, basis.g, basis.wg
            uh = u.conj().T
            cb = uh @ b @ u
            f = wg.T @ g
            s = f * cb
            gap = d[:, None] - d
            near = (e != 0) & (np.abs(e) >= np.abs(gap))
            z = np.divide(e, gap, out=np.zeros_like(e), where=(e != 0) & ~near)
            correction = f * (z @ cb - cb @ z) + s @ z - z @ s
            if near.any():
                correction += _near_pair_terms(e, cb, g, wg, near)
            s += correction
            t = u @ s @ uh
    if not np.isfinite(t).all():
        raise NumericalAmbiguity("first-order term is not finite")
    return t


def _series_pays(m: int, r: int, n: int) -> bool:
    """Whether m series terms against r rows cost less than _solve_nodes'
    batched LU at size n: m r <= n. Measured on one BLAS thread at 64
    nodes and r = 1-3, the series took 0.3-0.8 of the LU's time at m r = n
    for n = 12-64, and 0.2-0.6 at n = 8."""
    return m * r <= n


def _neumann_rows(x: np.ndarray, basis: _Basis, k: np.ndarray, m: int, c: Contour) -> np.ndarray:
    """sum_j w_j x U (u_j - diag(d) - K)^{-1} U* for the (r, n) rows x, by m
    terms of the Neumann series about G_j = diag(g_j): with X = xU, the
    resolvent rows are the fixed point of Y_j = (X + Y_j K) G_j, iterated
    from Y_j = 0, each term one (nodes r, n) @ (n, n) product over all
    nodes at once."""
    n = k.shape[0]
    g = basis.g[:, None, :]
    xu = x @ basis.u
    y = xu * g
    for _ in range(m - 1):
        y = (xu + (y.reshape(-1, n) @ k).reshape(y.shape)) * g
    phases, _ = _nodes(c)
    return _combine(phases, y, c) @ basis.u.conj().T


def _clears(basis: _Basis, eps: float, norm_b: float, c: Contour) -> bool:
    """Whether the Bauer-Fike disks about A's d clear c's margin for
    A_eps = A + eps B: U*A_eps U = diag(d) + K, K = E + eps U*BU, so every
    eigenvalue of A_eps lies within ||E||_F + eps ||B||_F + n eps_mach
    (||A||_F + eps ||B||_F) of some d_i, the last term for the rounding of
    U. False when that slack is not finite or a disk crosses. Run under
    the caller's errstate."""
    slack = basis.off + eps * norm_b + basis.d.size * _EPS * (basis.norm_a + eps * norm_b)
    if not math.isfinite(slack):
        return False
    try:
        _check_margin(basis.d, slack, c)
    except EigenvalueOnContour:
        return False
    return True


def _spectral_bound(m: np.ndarray, norm_f: float) -> float:
    """An upper bound on ||m||_2 for an n x n m, never above norm_f, the
    caller's ||m||_F: the smaller of norm_f and the Schatten-8 norm

        ||m||_2 <= ||(m*m)^2||_F^(1/4) = (sum_i sigma_i^8)^(1/8),

    computed on m' = m / 2^e, with 2^e the power of two that brings
    max|m_ij| into [1/2, 1), so that no product overflows or underflows,
    and scaled back by 2^e; both scalings are exact. With H = m'*m', the
    computed H and H^2 carry errors of at most gamma ||m'||_F^2 and
    gamma (3 + O(gamma)) ||m'||_F^4 in the Frobenius norm, gamma =
    gamma_(n+2) for complex inner products (Higham, Accuracy and Stability,
    Lemma 3.5), so the figure adds 8 (n + 2) eps_mach ||m'||_F^4 under the
    fourth root: 3 gamma_(n+2) with room for the rounding of the norms, the
    sum and the root. A NaN or inf figure keeps norm_f. Run under the
    caller's errstate."""
    e = math.frexp(float(np.abs(m).max()))[1]
    scaled = np.ldexp(m.view(np.float64), -e).view(np.complex128)
    h = scaled.conj().T @ scaled
    frob = float(np.linalg.norm(scaled))
    root = (float(np.linalg.norm(h @ h)) + 8.0 * (m.shape[0] + 2) * _EPS * frob**4) ** 0.25
    bound = float(np.ldexp(root, e))
    return bound if bound < norm_f else norm_f


def _series_rows(basis: _Basis, cb: np.ndarray, norm_c: float, x: np.ndarray, eps: float, c: Contour) -> Optional[np.ndarray]:
    """sum_j w_j x (u_j I - A_eps)^{-1} for the (r, n) rows x by
    _neumann_rows with K = E + eps cb, cb = U*BU, or None where the series
    does not pay or K or the sum is not finite. With norm_c >= ||cb||_2
    (_spectral_bound), q = max|g| (||E||_F + eps norm_c) bounds
    ||K G_j||_2, and the series runs its m = _tail_terms(q) terms where
    m r <= n (_series_pays). Run under the caller's errstate."""
    m = _tail_terms(basis.gmax * (basis.off + eps * norm_c))
    k = basis.e + eps * cb
    if m is None or not (_series_pays(m, *x.shape) and np.isfinite(k).all()):
        return None
    found = _neumann_rows(x, basis, k, m, c)
    return found if np.isfinite(found).all() else None


def perturbation_check(a, b, lam, mu, c: Contour, eps_list) -> PerturbationReport:
    """Residual slope of the first-order eigen-identity under A + eps B.

    For each eps, r(eps) = ||P0 (A_eps - lambda_eps I) P_eps
    - eps P0 (B - mu I) P0||_F with lambda_eps = lambda + eps mu; the
    least-squares slope of log r vs log eps certifies the quadratic
    remainder when >= 1.8. When fewer than two residuals rise above their
    rounding floor the report is exact instead of sloped. Each eps has its
    own floor, 1e-13 (||A||_F + |lambda| + eps (||B||_F + |mu|)), from the
    sizes of the terms that cancel in A_eps - lambda_eps I. Floors and
    residuals are formed with numpy's overflow warnings off, and one that
    is not finite raises NumericalAmbiguity.

    P0's rank r is certified by the integer-trace rule of riesz_projection.
    With P0 = U_r S_r V_r* from its top r singular triplets, the residual is
    ||S_r (V_r* (A_eps - lambda_eps I) P_eps - eps V_r* (B - mu I) P0)||_F,
    so each eps contour needs only the r rows x P_eps, x = V_r* (A_eps -
    lambda_eps I).

    When eig_normal admits A, its one eigenbasis (_admit) serves P0 and
    every eps: the margin is checked on A's d with the Bauer-Fike slack
    ||E||_F + eps ||B||_F + n eps_mach (||A||_F + eps ||B||_F) (_clears),
    and the rows x P_eps come from the Neumann series in that basis
    (_series_rows), whose ratio reads one bound on ||U*BU||_2 per call
    (_spectral_bound). Where those disks cross the margin, or the slack is
    not finite, the margin is checked on one LAPACK eigvals of A_eps; where the
    series does not pay, K or the sum is not finite, or eig_normal refuses
    A, the rows are one batched solve of the transposed stack
    (u_j I - A_eps)^T against r columns. lam and mu must be finite and eps
    positive and finite, refused before any contour is solved, and an A_eps
    that is not finite raises NumericalAmbiguity.
    """
    a, b = core.as_cmatrices(a, b)
    lam = complex(lam)
    mu = complex(mu)
    if not (np.isfinite(lam) and np.isfinite(mu)):
        raise ValueError("lam and mu must be finite")
    eps_arr = core.as_values(eps_list, np.float64)
    if eps_arr.size == 0 or not np.all((eps_arr > 0) & (eps_arr < np.inf)):
        raise ValueError("eps_list must contain positive finite reals")
    basis = _admit(a, c)
    p0 = _projection(a, c, basis)
    rank = _certified_rank(p0)
    _, svals, vh = np.linalg.svd(p0)
    scale = svals[:rank, None]
    rows = vh[:rank]
    eye = np.eye(a.shape[0], dtype=np.complex128)
    residuals = np.empty(eps_arr.size, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        lead = rows @ (b - mu * eye) @ p0
        norm_b = core.frobenius(b)
        cb = None if basis is None else basis.u.conj().T @ b @ basis.u
        norm_c = None if basis is None else _spectral_bound(cb, norm_b)
        for k, eps in enumerate(eps_arr):
            a_eps = a + eps * b
            if not np.isfinite(a_eps).all():
                raise NumericalAmbiguity(f"A + eps B is not finite at eps = {eps:g}")
            try:
                if basis is None or not _clears(basis, eps, norm_b, c):
                    _check_margin(np.linalg.eigvals(a_eps), 0.0, c)
            except EigenvalueOnContour as exc:
                raise ContourCapturesPerturbedSpectrumBoundary(f"at eps = {eps:g}: {exc}") from None
            x = rows @ (a_eps - (lam + eps * mu) * eye)
            found = None if basis is None else _series_rows(basis, cb, norm_c, x, eps, c)
            if found is None:
                # X (u_j I - A_eps)^{-1} = (((u_j I - A_eps)^T)^{-1} X^T)^T
                ph_e, sol = _solve_nodes(a_eps.T, c, x.T)
                found = _combine(ph_e, sol, c).T
            residuals[k] = float(np.linalg.norm(scale * (found - eps * lead)))
        floor = 1e-13 * (core.frobenius(a) + np.abs(lam) + eps_arr * (norm_b + np.abs(mu)))
    if not (np.isfinite(floor).all() and np.isfinite(residuals).all()):
        raise NumericalAmbiguity(f"rounding floor {floor.max():.3e} and largest residual {residuals.max():.3e} must be finite")
    live = residuals > floor
    if int(live.sum()) < 2:
        return PerturbationReport(eps_arr, residuals, None, True)
    slope = float(
        np.polyfit(np.log10(eps_arr[live]), np.log10(residuals[live]), 1)[0]
    )
    return PerturbationReport(eps_arr, residuals, slope, False)


def emit_slope_csv(report: PerturbationReport) -> str:
    tail = "# exact=true\n" if report.exact else f"# slope={report.slope:.17g}\n"
    return core.emit_csv(("epsilon", "residual"), zip(report.eps, report.residuals)) + tail


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """v with its largest entry made real and positive; v is a unit vector,
    so that entry is at least n^-1/2."""
    pivot = v[int(np.argmax(np.abs(v)))]
    return v * (abs(pivot) / pivot)


def _ramp(shifted: np.ndarray, zs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The stack I + zA - B/mu = shifted + zA over zs, formed with numpy's
    overflow warnings off; NumericalAmbiguity names the first z where it is
    not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        stack = shifted + zs[:, None, None] * a
    overflowed = ~np.isfinite(stack).all(axis=(1, 2))
    if overflowed.any():
        raise NumericalAmbiguity(f"ramp matrix I + zA - B/mu overflows at z = {zs[overflowed][0]:.6g}")
    return stack


def _inverse_iteration(stack: np.ndarray) -> Optional[np.ndarray]:
    """Unit vectors, one per matrix M of the (k, n, n) stack, for M's
    smallest right singular vector: one batched inverse of the whole stack,
    one LU per matrix, then _INVERSE_STEPS steps of inverse iteration on
    M*M, each x' = M^-1 (M^-* x) by two batched products and a
    normalization, from the fixed start x_j = 1 + frac(j _START_STEP), so
    the bytes are the same on every run. The start is real and positive
    with distinct entries: a real diagonal M keeps its iterates real and
    their signs, and no entry pattern such as (1, -1) is orthogonal to it.
    None when an LU is exactly singular (LinAlgError; diagonal inputs reach
    this) or an iterate is not finite; formed with numpy's warnings off."""
    k, n, _ = stack.shape
    x = np.broadcast_to((1.0 + np.mod(_START_STEP * np.arange(n), 1.0))[:, None], (k, n, 1))
    with np.errstate(all="ignore"):
        try:
            inverse = np.linalg.inv(stack)
        except np.linalg.LinAlgError:
            return None
        adjoint = inverse.conj().transpose(0, 2, 1)
        for _ in range(_INVERSE_STEPS):
            x = inverse @ (adjoint @ x)
            x = x / np.linalg.norm(x, axis=1, keepdims=True)
    return x[:, :, 0] if np.isfinite(x).all() else None


def _probes_certified(stack: np.ndarray) -> bool:
    """Whether every probe matrix M has a unit v from _inverse_iteration with
    ||Mv|| <= _LINE_PROBE_TOL: ||Mv|| bounds M's smallest singular value
    from above, so each probe is then singular to that tolerance."""
    v = _inverse_iteration(stack)
    if v is None:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        sigmas = np.linalg.norm(stack @ v[:, :, None], axis=(1, 2))
    return bool((sigmas <= _LINE_PROBE_TOL).all())


def _ramp_history(stack, zs, a, b, mu, vectors, sigmas=None):
    """(v, history) along the ramp: v is the last z's vector, and each z's
    row is (z, sigma, ||Av||, ||Bv - mu v||) for v = _fix_phase of its row
    of vectors, with sigma read from sigmas or, when sigmas is None, taken
    as ||Mv||. Formed with numpy's overflow warnings off."""
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, z in enumerate(zs):
            v = _fix_phase(vectors[k])
            sigma = np.linalg.norm(stack[k] @ v) if sigmas is None else sigmas[k]
            history.append((complex(z), float(sigma), float(np.linalg.norm(a @ v)), float(np.linalg.norm(b @ v - mu * v))))
    return v, history


def _settled(history) -> bool:
    """Whether the last ramp step's residuals are both at most
    _LEMMA34_RESID_TOL; NaN is not."""
    _, _, res_a, res_b = history[-1]
    return res_a <= _LEMMA34_RESID_TOL and res_b <= _LEMMA34_RESID_TOL


def lemma34_solver(a, b, mu, zs=None) -> Lemma34Result:
    """Common-eigenvector extraction from a line {mu w + 1 = 0} in the spectrum.

    Along a ramp of |z| -> large, the smallest right singular vector of
    M = I + zA - B/mu converges to a unit vector with Av = 0 and Bv = mu v;
    the weak-compactness selection of the infinite-dimensional argument
    becomes a deterministic singular-vector sequence here.

    Each vector comes from _INVERSE_STEPS = 2 steps of inverse iteration on
    M*M with one batched inverse of the whole stack of ramp or probe
    matrices (_inverse_iteration), and ||Mv||, an upper bound on M's smallest
    singular value, certifies it: a probe passes when ||Mv|| <=
    _LINE_PROBE_TOL, and the ramp when its last residuals are at most
    _LEMMA34_RESID_TOL. The SVD runs only where that fails: the
    values-only SVD of the probes when some probe misses, and the full SVD
    of the ramp when its residuals miss, an LU is exactly singular or an
    iterate is not finite. The gates then read the SVD's answer, so no
    verdict depends on the iteration.

    Where core.eig_normal (at the default Tolerances) admits A, ||A||_2 is
    max|d| of its eigenvalues d and the default ramp's direction theta
    comes from strong_agmon_check(d); otherwise from norm(A, 2) and one
    LAPACK eigvals. ||B||_2 stays an SVD norm, because it gates mu.

    Every gate is NaN-safe: mu is refused unless ||B||_2 is finite and
    matches |mu|, a probe whose smallest singular value is not at most
    _LINE_PROBE_TOL raises LineNotInSpectrum, and final residuals not at
    most _LEMMA34_RESID_TOL raise NoConvergence. B/mu and the residuals are
    formed with numpy's overflow warnings off, and a probe or ramp matrix
    I + zA - B/mu that is not finite raises NumericalAmbiguity naming its z
    (_ramp).
    """
    a, b = core.as_cmatrices(a, b)
    mu = complex(mu)
    if mu == 0:
        raise ValueError("mu must be nonzero")
    opn = np.linalg.norm(b, 2)
    # an opn of inf would admit every mu: inf <= 1e-8 * (1 + inf)
    if not (math.isfinite(opn) and abs(abs(mu) - opn) <= 1e-8 * (1.0 + opn)):
        raise ValueError(
            f"|mu| = {abs(mu):.12g} must match the operator norm of b ({opn:.12g})"
        )
    try:
        values = core.eig_normal(a, tol=core.Tolerances()).values
        norm_a = float(np.abs(values).max())
    except (NotNormal, NoConvergence):
        values, norm_a = None, np.linalg.norm(a, 2)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = eye - b / mu
    # probe that I + zA - B/mu is singular along the line, not just at one z
    rho = 1.0 / (1.0 + norm_a)
    probes = rho * np.exp(2j * np.pi * np.arange(_LINE_PROBE_COUNT) / _LINE_PROBE_COUNT)
    probe_stack = _ramp(shifted, probes, a)
    if not _probes_certified(probe_stack):
        sigmas = np.linalg.svd(probe_stack, compute_uv=False)[:, -1]
        for z, sigma in zip(probes, sigmas):
            if not (sigma <= _LINE_PROBE_TOL):
                raise LineNotInSpectrum(
                    f"smallest singular value {sigma:.3e} at probe z = {z:.6g} "
                    f"exceeds {_LINE_PROBE_TOL}"
                )
    if zs is None:
        spectrum = np.linalg.eigvals(a) if values is None else values
        zs = np.exp(1j * strong_agmon_check(spectrum).theta) * (10.0 ** np.arange(1, 7))
    zarr = core.as_values(zs, np.complex128)
    if zarr.size == 0:
        raise ValueError("zs must be nonempty")
    stack = _ramp(shifted, zarr, a)
    vectors = _inverse_iteration(stack)
    if vectors is not None:
        v, history = _ramp_history(stack, zarr, a, b, mu, vectors)
    if vectors is None or not _settled(history):
        _, svals, vh = np.linalg.svd(stack)
        v, history = _ramp_history(stack, zarr, a, b, mu, np.conj(vh[:, -1]), svals[:, -1])
    _, _, res_a, res_b = history[-1]
    if not _settled(history):
        raise NoConvergence(
            f"residuals ||Av|| = {res_a:.3e}, ||Bv - mu v|| = {res_b:.3e} "
            f"did not settle below {_LEMMA34_RESID_TOL} along the z ramp"
        )
    return Lemma34Result(v, res_a, res_b, history)
