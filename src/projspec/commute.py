"""Both sides of the commutativity / line-structure equivalence.

For normal matrices, [A,B] = 0 exactly when det(I + zA + wB) factors into
linear terms, i.e. the zero set is a union of lines. This module runs the
algebraic side (commutator norm, relative to ||A||_F ||B||_F), the geometric
side (linegeom.pencil_verdict, read off one common Schur basis or, on
refusal, a bent eigenvalue branch of A + gB from the same eigensolve), and
cross-checks the recovered arrangement against the eigenvalue pairs of a
common eigenbasis. A lines certificate bounds the commutator, so a pair
whose commutator fails tol.commute but stays inside that bound is
indeterminate, not inconsistent. A tuple is
certified by one common Schur basis of all its members, which gives every
pair its lines at once; only when that basis is refused is each pair tested
on its own. Pairs and tuples share one joint eigenbasis routine and its
checks. Eigensolves that do not converge, pairs that neither share a
triangularizing basis nor yield a witness on the matrices' own curve, pairs
whose two sides disagree inside a tuple, and joint bases that fail their
checks, surface as indeterminate outcomes, never as definitive verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import core
from .errors import (
    NotCommuting,
    NotInvariant,
    NotNormal,
    NumericalAmbiguity,
)
from .linegeom import (
    LineVerdict,
    _schur_diagonals,
    cluster_tuples,
    compare_arrangements,
    drop_constant_factors,
    emit_arrangement,
    pair_arrangement,
    pencil_verdict,
    tuple_distance,
)

# Joint-diagonalization cluster radius for each member's Hermitian and skew
# parts, relative to that member's ||.||_F; wider gaps are distinct.
DEFLATION_CLUSTER_REL = 1e-7

_OFFDIAG_REL = 1e-8

_ORTHO_TOL = 1e-8
_INVARIANT_REL = 1e-8


@dataclass
class EquivalenceReport:
    commute: bool
    commutator_norm: float
    verdict: Optional[LineVerdict]
    consistent: Optional[bool]
    arrangement_vs_eigenpairs_distance: Optional[float] = None
    indeterminate: Optional[str] = None


@dataclass
class CommonEigenbasis:
    unitary: np.ndarray
    diag_a: np.ndarray
    diag_b: np.ndarray
    offdiag_residual: float


@dataclass
class TupleReport:
    reports: List[Tuple[Tuple[int, int], EquivalenceReport]]
    commute: bool
    indeterminate: Optional[str] = None
    unitary: Optional[np.ndarray] = None
    diagonals: Optional[np.ndarray] = None
    hyperplanes: Optional[list] = None
    deficit: int = 0
    schur_vs_hyperplanes_distance: Optional[float] = None


def _admit(mats, names, tol):
    """The operands as normal matrices of one shape (core.as_cmatrices and
    core.require_normal, names labelling refusals), the tolerances, and the
    operands' ||.||_F."""
    mats = core.as_cmatrices(*mats)
    if tol is None:
        tol = core.default_tolerances()
    message = ": normality defect {defect:.3e} exceeds {bound:.3e}"
    return mats, tol, [core.require_normal(m, tol, name + message)[0] for m, name in zip(mats, names)]


def _commutator(a, b, na: float, nb: float, tol: core.Tolerances) -> Tuple[float, bool]:
    """||AB - BA||_F and whether it is at most tol.commute na nb, na and nb
    being ||A||_F and ||B||_F: a bound that scales as the commutator does."""
    cn = core.commutator_norm(a, b)
    return cn, cn <= tol.commute * na * nb


def _band_refusal(cn: float, n: int, lower, na: float, nb: float) -> Optional[str]:
    """Why a lines certificate cannot decide a pair whose commutator fails
    tol.commute, or None when the commutator is beyond what it allows.

    A certificate with relative lower parts lower = (l_A, l_B) in a unitary
    basis Q bounds ||AB - BA||_F by K(n) (l_A + l_B) ||A||_F ||B||_F,
    K(n) = 2 (1 + sqrt(n - 1)): for a normal T = Q*AQ, normality of each
    leading block split gives sum_{i<j} (j - i) |t_ij|^2 =
    sum_{i>j} (i - j) |t_ij|^2, so T's strictly upper part is at most
    sqrt(n - 1) times its strictly lower part, and T = diag + N with
    ||N||_F <= (1 + sqrt(n - 1)) l_A ||A||_F. Then
    [A, B] = [T, N_S] + [N_T, diag(S)] in that basis gives the bound.
    """
    band = 2.0 * (1.0 + np.sqrt(n - 1)) * (lower[0] + lower[1]) * na * nb
    if cn > band:
        return None
    return (
        f"commutator norm {cn:.3e} exceeds tol.commute * ||A||_F * ||B||_F but not "
        f"K(n) (l_A + l_B) ||A||_F ||B||_F = {band:.3e}, the most that the lines "
        "certificate allows; it cannot separate this pair from a commuting one"
    )


def _joint_eigenbasis(mats, norms, sweeps, names, tol: core.Tolerances):
    """Joint unitary diagonalization U of commuting normal matrices.

    Cluster deflation over the Hermitian and skew parts of mats[i] for each
    i in sweeps, in that order, with radius DEFLATION_CLUSTER_REL norms[i].
    Every later member compressed to an eigenvalue cluster of mats[0] must
    be normal (else NotNormal), and U must leave every member diagonal
    within _OFFDIAG_REL times the sum of the norms (else NotCommuting).
    Returns U, the (k, n) diagonals of U* M_i U and the largest residual.
    """
    parts = [core.hermitian_parts(m) for m in mats]
    u = core.joint_diagonalize(
        [part for i in sweeps for part in parts[i]],
        [DEFLATION_CLUSTER_REL * norms[i] for i in sweeps for _ in range(2)],
    )
    ts = [u.conj().T @ m @ u for m in mats]
    diags = np.stack([np.diag(t) for t in ts])
    # mats[0]'s eigenvalue clusters, split on real then imaginary parts as
    # joint_diagonalize splits on H then K. The normality defect of a
    # compression to a cluster does not depend on the basis of its span.
    first = diags[0]
    radius = DEFLATION_CLUSTER_REL * norms[0]
    by_re = np.argsort(first.real, kind="stable")
    for group in core._split_sorted(first.real[by_re], radius):
        if group.size == 1:
            continue
        idx = by_re[group]
        idx = idx[np.argsort(first.imag[idx], kind="stable")]
        for sub in core._split_sorted(first.imag[idx], radius):
            if sub.size == 1:
                continue
            block = np.ix_(idx[sub], idx[sub])
            for t, name in zip(ts[1:], names[1:]):
                refusal = f"compressed {name} on an eigenvalue cluster of {names[0]} is not normal"
                core.require_normal(t[block], tol, refusal + " (defect {defect:.3e}); the pair does not commute cleanly")
    residual = max(float(np.linalg.norm(t - np.diag(d))) for t, d in zip(ts, diags))
    if residual > _OFFDIAG_REL * sum(norms) + 1e-300:
        what = "the pair commutes" if len(mats) == 2 else "the members commute"
        raise NotCommuting(
            f"joint diagonalization left off-diagonal residual {residual:.3e}; {what} only approximately"
        )
    return u, diags, residual


def common_eigenbasis(a, b, *, tol: Optional[core.Tolerances] = None) -> CommonEigenbasis:
    """Joint unitary diagonalization of a commuting normal pair.

    One cluster deflation over the Hermitian and skew parts of A, then of B,
    then of A again, so that neither side is left carrying the spread of a
    cluster the other side split. B compressed to each eigenvalue cluster of
    A, read off the joint basis, must be normal; the joint basis must leave
    both sides diagonal (_joint_eigenbasis, which tuple_test shares).
    """
    (a, b), tol, (na, nb) = _admit((a, b), ("a", "b"), tol)
    cn, commute = _commutator(a, b, na, nb, tol)
    if not commute:
        raise NotCommuting(f"commutator norm {cn:.3e} exceeds tol.commute * ||A||_F * ||B||_F")
    u, diags, residual = _joint_eigenbasis([a, b], (na, nb), (0, 1, 0), ("a", "b"), tol)
    return CommonEigenbasis(u, diags[0], diags[1], residual)


def equivalence_check(a, b, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> EquivalenceReport:
    """Run both sides of the equivalence and cross-check them.

    commute is decided by the commutator norm, ||AB - BA||_F at most
    tol.commute ||A||_F ||B||_F, a bound that scales with the pair; the
    geometric verdict, whether det(I + zA + wB) = 0 is a union of lines, by
    linegeom.pencil_verdict from one Schur basis of A + gB, without the
    commutator or a joint diagonalization; consistent records whether the
    two sides agree. A notlines witness is a point of the matrices' own curve, and its
    witness_residual is the relative sigma_min(I + zA + wB) there. When both
    sides are affirmative the recovered arrangement is also matched against
    the eigenvalue pairs of a common eigenbasis (common_eigenbasis's joint
    basis, _joint_eigenbasis). The pair is admitted once, here: one
    normality defect per member and one commutator serve both sides and
    the reference. A verdict that cannot be certified either way is
    reported as indeterminate, and so is a lines verdict whose pair fails
    tol.commute by less than its certificate allows (_band_refusal).
    """
    (a, b), tol, (na, nb) = _admit((a, b), ("a", "b"), tol)
    cn, commute = _commutator(a, b, na, nb, tol)
    try:
        verdict = pencil_verdict(a, b, seed=seed, tol=tol)
    except NumericalAmbiguity as exc:
        return EquivalenceReport(commute, cn, None, None, indeterminate=str(exc))
    if verdict.is_lines and not commute:
        refusal = _band_refusal(cn, a.shape[0], verdict.lower_parts, na, nb)
        if refusal is not None:
            return EquivalenceReport(commute, cn, None, None, indeterminate=refusal)
    consistent = commute == verdict.is_lines
    distance = None
    if commute and verdict.is_lines:
        try:
            _, diags, _ = _joint_eigenbasis([a, b], (na, nb), (0, 1, 0), ("a", "b"), tol)
        except (NotCommuting, NotNormal) as exc:
            return EquivalenceReport(commute, cn, verdict, None, indeterminate=str(exc))
        reference = pair_arrangement(diags[0], diags[1], norm_a=na, norm_b=nb)
        distance = compare_arrangements(verdict.arrangement, reference)
    return EquivalenceReport(commute, cn, verdict, consistent, distance)


def tuple_test(mats, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> TupleReport:
    """Equivalence over a tuple from one common Schur basis, plus a joint
    eigenbasis when it commutes.

    Q = qr(eigenvectors of M_0 + sum_i g_i M_i), phases g_i drawn from seed
    (linegeom._schur_diagonals, the basis step of pencil_verdict). When every
    strictly lower part of Q* M_i Q is within tol.line ||M_i||_F, Q
    triangularizes every pair, so each pair's verdict is lines, read off the
    diagonals, and its report adds only the pair's commutator: consistent is
    whether that commutes, and a pair that fails tol.commute by less than
    the certificate allows is indeterminate (_band_refusal), as in
    equivalence_check. Otherwise every pair runs its own
    equivalence_check, since witnesses are per pair.

    When every pair commutes and agrees, the members are jointly
    diagonalized, two sweeps over all of them, and the basis must pass the
    checks of common_eigenbasis (_joint_eigenbasis), or the tuple is
    indeterminate. The hyperplane arrangement
    {1 + sum_i a_i^{(k)} z_i = 0} is emitted from the joint diagonals,
    clustered with each coordinate in its member's ||.||_F;
    k-tuples that are constant factors (linegeom.drop_constant_factors)
    count in the deficit. A tuple certified by its Schur basis also gets
    schur_vs_hyperplanes_distance, the bottleneck distance between the Schur
    diagonal k-tuples and the multiplicity-expanded hyperplanes.
    """
    names = [f"member {i}" for i in range(len(mats))]
    mats, tol, norms = _admit(mats, names, tol)
    if not mats:
        raise ValueError("tuple must contain at least one matrix")
    k = len(mats)
    n = mats[0].shape[0]
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=k - 1))
    try:
        _, _, schur, lower, certified = _schur_diagonals(mats, phases, norms, tol)
    except NumericalAmbiguity:
        certified = False
    reports = []
    indeterminate = None
    all_commute = True
    for i in range(k):
        for j in range(i + 1, k):
            if certified:
                cn, commute = _commutator(mats[i], mats[j], norms[i], norms[j], tol)
                parts = (float(lower[i]), float(lower[j]))
                refusal = None if commute else _band_refusal(cn, n, parts, norms[i], norms[j])
                if refusal is None:
                    lines = pair_arrangement(schur[i], schur[j], norm_a=norms[i], norm_b=norms[j])
                    rep = EquivalenceReport(commute, cn, LineVerdict(True, lines, lower_parts=parts), commute)
                else:
                    rep = EquivalenceReport(commute, cn, None, None, indeterminate=refusal)
            else:
                rep = equivalence_check(mats[i], mats[j], seed=seed, tol=tol)
            reports.append(((i, j), rep))
            if indeterminate is None:
                if rep.indeterminate is not None:
                    indeterminate = f"pair ({i},{j}): {rep.indeterminate}"
                elif not rep.consistent:
                    indeterminate = f"pair ({i},{j}): commutator and line verdict disagree"
            if not rep.commute:
                all_commute = False
    if indeterminate is not None:
        return TupleReport(reports, all_commute, indeterminate=indeterminate)
    if not all_commute:
        return TupleReport(reports, False)
    try:
        u, diags, _ = _joint_eigenbasis(mats, norms, list(range(k)) * 2, names, tol)
    except (NotCommuting, NotNormal) as exc:
        return TupleReport(reports, True, indeterminate=str(exc))
    tuples, deficit = drop_constant_factors(diags, norms)
    hyperplanes = cluster_tuples(tuples, scales=norms)
    distance = None
    if certified:
        expanded = [coeffs for coeffs, mult in hyperplanes for _ in range(mult)]
        schur_tuples, _ = drop_constant_factors(schur, norms)
        distance = tuple_distance(schur_tuples, np.reshape(expanded, (-1, k)))
    return TupleReport(
        reports,
        True,
        unitary=u,
        diagonals=diags,
        hyperplanes=hyperplanes,
        deficit=deficit,
        schur_vs_hyperplanes_distance=distance,
    )


def restriction_check(a, b, basis_w, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> EquivalenceReport:
    """Equivalence check of the pair compressed to an invariant subspace:
    each matrix M may leak at most _INVARIANT_REL ||M||_F out of span(basis_w)."""
    a, b = core.as_cmatrices(a, b)
    w = np.asarray(basis_w, dtype=np.complex128)
    if w.ndim == 1:
        w = w[:, None]
    elif w.ndim == 2 and w.shape[0] != a.shape[0] and w.shape[1] == a.shape[0]:
        # sequence of row vectors
        w = w.T
    if w.ndim != 2 or w.shape[1] == 0 or w.shape[0] != a.shape[0]:
        raise ValueError("basis_w must be a nonempty set of vectors of matching dimension")
    k = w.shape[1]
    if np.linalg.norm(w.conj().T @ w - np.eye(k)) > _ORTHO_TOL:
        raise ValueError("basis_w is not orthonormal")
    proj = w @ w.conj().T
    eye = np.eye(a.shape[0], dtype=np.complex128)
    for m, tag in ((a, "a"), (b, "b")):
        leak = float(np.linalg.norm((eye - proj) @ m @ w))
        bound = _INVARIANT_REL * core.frobenius(m)
        if leak > bound:
            raise NotInvariant(f"{tag} leaks {leak:.3e} out of span(basis_w) (bound {bound:.3e})")
    return equivalence_check(w.conj().T @ a @ w, w.conj().T @ b @ w, seed=seed, tol=tol)


def format_report(report: EquivalenceReport) -> str:
    """Flat key-value text block with stable key order."""
    lines = [
        f"commute={'true' if report.commute else 'false'}",
        f"commutator_norm={report.commutator_norm:.17g}",
    ]
    if report.indeterminate is not None:
        lines.append("verdict=indeterminate")
        lines.append("consistent=indeterminate")
        msg = " ".join(str(report.indeterminate).split())
        lines.append(f"indeterminate={msg}")
        return "\n".join(lines) + "\n"
    verdict = report.verdict
    lines.append(f"verdict={'lines' if verdict.is_lines else 'notlines'}")
    lines.append(f"consistent={'true' if report.consistent else 'false'}")
    if verdict.is_lines:
        if report.arrangement_vs_eigenpairs_distance is not None:
            lines.append(
                "arrangement_vs_eigenpairs_distance="
                f"{report.arrangement_vs_eigenpairs_distance:.17g}"
            )
        lines.append(f"deficit={verdict.arrangement.deficit}")
        lines.append("lines=" + emit_arrangement(verdict.arrangement).rstrip("\n"))
    else:
        z, w = verdict.witness
        lines.append(f"witness_z={core.emit_complex(z)}")
        lines.append(f"witness_w={core.emit_complex(w)}")
        lines.append(f"witness_residual={verdict.witness_residual:.17g}")
    return "\n".join(lines) + "\n"
