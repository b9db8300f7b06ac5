"""Resolvent contour quadrature and its perturbation consequences.

Riesz projections P = (1/2 pi i) integral of (uI - A)^{-1} du over a circle,
the first-order term of the projector expansion under A + eps B, a slope
check for the second-order remainder of the eigen-equation identity, and the
large-|z| singular-vector construction that extracts a common eigenvector
from a line contained in the spectrum.

The N-node trapezoid sum takes one of two routes, chosen by the input.
For a normal A, core.eig_normal (at the default Tolerances, so that no
PROJSPEC_TOL setting reaches this module) gives U with U*AU = diag(d) + E,
E the off-diagonal residual. With g_ji = 1/(u_j - d_i) and the weights
w_j = (r/N) e^{2 pi i j/N}, the resolvent (u_j - U*AU)^{-1} is
G_j + G_j E G_j to first order in E, G_j = diag(g_j), so
P = U (diag(f) + F o E) U* with f_i = sum_j w_j g_ji and
F_ik = sum_j w_j g_ji g_jk, and the first-order term is
U (F o C + sum_m (E_im C_mk + C_im E_mk) H_imk) U*, C = U*BU and
H_imk = sum_j w_j g_ji g_jm g_jk: no solve at any node. The route is taken
only when max|g| ||E||_F <= sqrt(unit roundoff), where the Neumann terms it
drops are below rounding relative to those it keeps. Otherwise, and when
eig_normal refuses A, the solves at all nodes of a contour are one batched
LAPACK solve, summed over the nodes by one tensordot. A projection solves
against the identity; each perturbed contour of perturbation_check solves
against only the r rows of P0 its residual reads, r being P0's certified
rank, since A + eps B is not normal.

Every contour is first checked to pass no closer than CONTOUR_MARGIN *
radius to the spectrum (_eigenbasis). When eig_normal admits A, whichever
route the quadrature then takes, that is checked on d, each distance shrunk
by the slack ||E||_F + n eps ||A||_F: by Bauer-Fike every eigenvalue of
U*AU lies within ||E||_2 of some d_i, and n eps ||A||_F bounds the
eigensolver's backward error. When eig_normal refuses A, and on each
perturbed contour of perturbation_check, it is one LAPACK eigvals. For
strongly non-normal A the computed eigenvalues carry an error of about
machine epsilon * ||A|| * their condition number, so the integer-trace
check on the finished projection remains the backstop.
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

# The eigenbasis route's bound on max|g| ||E||_F: the Neumann terms it drops
# are (max|g| ||E||_F)^2 relative to those it keeps, below the unit roundoff.
_NEUMANN_BOUND = float(np.sqrt(np.finfo(np.float64).eps / 2))


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
    # (z, smallest singular value, ||Av||, ||Bv - mu v||) per ramp step
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


def _eigenbasis(a: np.ndarray, c: Contour):
    """(U, E, g, wg) of the eigenbasis route, or None when it does not apply;
    either way the contour has passed _check_margin.

    U is core.eig_normal's unitary at the default Tolerances, E the
    off-diagonal part of U*AU with diagonal d, g the (nodes, n) table
    g_ji = 1/(u_j - d_i) and wg_ji = w_j g_ji with _combine's weights
    w_j = (r/N) e^{2 pi i j/N}. When eig_normal admits A the margin is
    checked on d with the slack ||E||_F + n eps ||A||_F, and the result is
    None when max|g| ||E||_F exceeds _NEUMANN_BOUND, NaN included. When
    eig_normal refuses A (NotNormal, NoConvergence) the margin is checked on
    one LAPACK eigvals of A and the result is None.
    """
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
        off = np.linalg.norm(e)
        size = np.abs(g).max() * off
    _check_margin(d, off + d.size * np.finfo(np.float64).eps * core.frobenius(a), c)
    return (u, e, g, (c.radius / c.nodes) * phases[:, None] * g) if size <= _NEUMANN_BOUND else None


def _projection(a: np.ndarray, c: Contour) -> np.ndarray:
    """The quadrature projection: U (diag(f) + F o E) U* on the eigenbasis
    route, f_i = sum_j w_j g_ji and F_ik = sum_j w_j g_ji g_jk; otherwise
    _combine of the solved resolvents. It is formed with numpy's overflow
    warnings off; _certified_rank refuses one that is not finite."""
    basis = _eigenbasis(a, c)
    with np.errstate(over="ignore", invalid="ignore"):
        if basis is None:
            return _combine(*_resolvent_nodes(a, c), c)
        u, e, g, wg = basis
        m = (wg.T @ g) * e
        # E's diagonal is zero
        np.fill_diagonal(m, wg.sum(axis=0))
        return u @ m @ u.conj().T


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
    return _finish_projection(a, _projection(a, c))


def first_order_term(a, b, c: Contour) -> np.ndarray:
    """Quadrature of (1/2 pi i) integral (uI-A)^{-1} B (uI-A)^{-1} du.

    On the eigenbasis route it is U (F o C + sum_m (E_im C_mk + C_im E_mk)
    H_imk) U*, C = U*BU and H_imk = sum_j w_j g_ji g_jm g_jk, with H built
    at most `nodes` rows i at a time, so that no temporary is larger than
    the (nodes, n, n) resolvent stack of the solve route.
    """
    a, b = core.as_cmatrices(a, b)
    basis = _eigenbasis(a, c)
    if basis is None:
        phases, resolvents = _resolvent_nodes(a, c)
        return _combine(phases, resolvents @ b @ resolvents, c)
    u, e, g, wg = basis
    uh = u.conj().T
    cb = uh @ b @ u
    s = (wg.T @ g) * cb
    nodes, n = g.shape
    # gg[j, m * n + k] = g_jm g_jk
    gg = (g[:, :, None] * g[:, None, :]).reshape(nodes, n * n)
    for lo in range(0, n, nodes):
        rows = slice(lo, lo + nodes)
        h = (wg[:, rows].T @ gg).reshape(-1, n, n)
        s[rows] += np.einsum("im,imk,mk->ik", e[rows], h, cb) + np.einsum("im,imk,mk->ik", cb[rows], h, e)
    return u @ s @ uh


def perturbation_check(a, b, lam, mu, c: Contour, eps_list) -> PerturbationReport:
    """Residual slope of the first-order eigen-identity under A + eps B.

    For each eps, r(eps) = ||P0 (A_eps - lambda_eps I) P_eps
    - eps P0 (B - mu I) P0||_F with lambda_eps = lambda + eps mu; the
    least-squares slope of log r vs log eps certifies the quadratic
    remainder when >= 1.8. Residuals at the rounding floor for every eps are
    reported as exact instead of sloped. The floor 1e-13 (1 + ||A||_F +
    ||B||_F) and each residual are formed with numpy's overflow warnings
    off, and one that is not finite raises NumericalAmbiguity.

    P0's rank r is certified by the integer-trace rule of riesz_projection.
    With P0 = U_r S_r V_r* from its top r singular triplets, the residual is
    ||S_r (V_r* (A_eps - lambda_eps I) P_eps - eps V_r* (B - mu I) P0)||_F,
    so each eps contour solves the transposed stack (u_j I - A_eps)^T
    against r columns instead of inverting every node.
    """
    a, b = core.as_cmatrices(a, b)
    lam = complex(lam)
    mu = complex(mu)
    eps_arr = np.asarray(list(eps_list), dtype=np.float64)
    if eps_arr.size == 0 or np.any(eps_arr <= 0):
        raise ValueError("eps_list must contain positive reals")
    p0 = _projection(a, c)
    rank = _certified_rank(p0)
    _, svals, vh = np.linalg.svd(p0)
    scale = svals[:rank, None]
    rows = vh[:rank]
    eye = np.eye(a.shape[0], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        lead = rows @ (b - mu * eye) @ p0
    residuals = np.empty(eps_arr.size, dtype=np.float64)
    for k, eps in enumerate(eps_arr):
        a_eps = a + eps * b
        try:
            _check_margin(np.linalg.eigvals(a_eps), 0.0, c)
        except EigenvalueOnContour as exc:
            raise ContourCapturesPerturbedSpectrumBoundary(
                f"at eps = {eps:g}: {exc}"
            ) from None
        # X (u_j I - A_eps)^{-1} = (((u_j I - A_eps)^T)^{-1} X^T)^T for the
        # r rows X = V_r* (A_eps - lambda_eps I)
        with np.errstate(over="ignore", invalid="ignore"):
            x = rows @ (a_eps - (lam + eps * mu) * eye)
            ph_e, sol = _solve_nodes(a_eps.T, c, x.T)
            m = scale * (_combine(ph_e, sol, c).T - eps * lead)
            residuals[k] = float(np.linalg.norm(m))
    with np.errstate(over="ignore"):
        floor = 1e-13 * (1.0 + core.frobenius(a) + core.frobenius(b))
    if not (math.isfinite(floor) and np.isfinite(residuals).all()):
        raise NumericalAmbiguity(f"rounding floor {floor:.3e} and largest residual {residuals.max():.3e} must be finite")
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


def lemma34_solver(a, b, mu, zs=None) -> Lemma34Result:
    """Common-eigenvector extraction from a line {mu w + 1 = 0} in the spectrum.

    Along a ramp of |z| -> large, the smallest right singular vector of
    I + zA - B/mu converges to a unit vector with Av = 0 and Bv = mu v; the
    weak-compactness selection of the infinite-dimensional argument becomes
    a deterministic singular-vector sequence here.

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
    eye = np.eye(a.shape[0], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = eye - b / mu
    # probe that I + zA - B/mu is singular along the line, not just at one z
    rho = 1.0 / (1.0 + np.linalg.norm(a, 2))
    probes = rho * np.exp(2j * np.pi * np.arange(_LINE_PROBE_COUNT) / _LINE_PROBE_COUNT)
    sigmas = np.linalg.svd(_ramp(shifted, probes, a), compute_uv=False)[:, -1]
    for z, sigma in zip(probes, sigmas):
        if not (sigma <= _LINE_PROBE_TOL):
            raise LineNotInSpectrum(
                f"smallest singular value {sigma:.3e} at probe z = {z:.6g} "
                f"exceeds {_LINE_PROBE_TOL}"
            )
    if zs is None:
        zs = np.exp(1j * strong_agmon_check(np.linalg.eigvals(a)).theta) * (10.0 ** np.arange(1, 7))
    zarr = np.asarray(list(zs), dtype=np.complex128)
    if zarr.size == 0:
        raise ValueError("zs must be nonempty")
    history = []
    _, svals_all, vh_all = np.linalg.svd(_ramp(shifted, zarr, a))
    for z, svals, vh in zip(zarr, svals_all, vh_all):
        v = _fix_phase(np.conj(vh[-1]))
        with np.errstate(over="ignore", invalid="ignore"):
            res_a = float(np.linalg.norm(a @ v))
            res_b = float(np.linalg.norm(b @ v - mu * v))
        history.append((complex(z), float(svals[-1]), res_a, res_b))
    # res_a and res_b are the last step's
    if not (res_a <= _LEMMA34_RESID_TOL and res_b <= _LEMMA34_RESID_TOL):
        raise NoConvergence(
            f"residuals ||Av|| = {res_a:.3e}, ||Bv - mu v|| = {res_b:.3e} "
            f"did not settle below {_LEMMA34_RESID_TOL} along the z ramp"
        )
    return Lemma34Result(v, res_a, res_b, history)
