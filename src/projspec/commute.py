"""Both sides of the commutativity / line-structure equivalence.

For normal matrices, [A,B] = 0 exactly when det(I + zA + wB) factors into
linear terms, i.e. the zero set is a union of lines. This module runs the
algebraic side (commutator norm, relative to ||A||_F ||B||_F), the geometric
side (linegeom.pencil_verdict, read off one common Schur basis, which
Hermitian eigensolves give when A + gB is normal, or, on refusal, a bent
eigenvalue branch of A + gB from LAPACK eig), and cross-checks the
recovered arrangement against the eigenvalue pairs of a common eigenbasis.
A lines certificate bounds the commutator, so a pair whose commutator fails
tol.commute but stays inside that bound is indeterminate, not
inconsistent. A tuple is certified by one common Schur basis of all its
members, which gives every pair its lines at once; only when that basis is
refused is each pair tested on its own, by the check of an admitted pair
that equivalence_check runs (_check_pair). Pairs and tuples share every per-pair step: one admission
(_admit), one report rule (_report), one joint eigenbasis routine with its
checks, and one cross-check against it (_joint_check). Eigensolves that
do not converge (LAPACK eig on the pencil, or eigh in a joint basis,
NoConvergence), pairs that neither share a triangularizing basis nor yield
a witness on the matrices' own curve, pairs whose two sides disagree inside
a tuple, and joint bases that fail their checks, surface as indeterminate
outcomes, never as definitive verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import core
from .errors import (
    NoConvergence,
    NotCommuting,
    NotInvariant,
    NotNormal,
    NumericalAmbiguity,
)
from .linegeom import (
    LineVerdict,
    _phases,
    _schur_diagonals,
    _schur_lines,
    cluster_tuples,
    drop_constant_factors,
    emit_arrangement,
    pencil_verdict,
    tuple_distance,
)

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


def _joint_eigenbasis(mats, norms, names, tol: core.Tolerances):
    """Joint unitary diagonalization U of commuting normal matrices.

    U is the one eigenbasis rule's (core._normal_eigenbasis): the cluster
    deflation takes the Hermitian and skew parts of each member once, in
    order, at radius core.DEFLATION_CLUSTER_REL norms[i], and ends with one
    eigh of their weighted combination inside any block still wider than
    one column. Every later member compressed to an eigenvalue cluster of
    mats[0] must be normal (else NotNormal), and U must leave every member
    diagonal within _OFFDIAG_REL times the sum of the norms (else
    NotCommuting). Returns U, the (k, n) diagonals of U* M_i U and the
    largest residual.
    """
    u = core._normal_eigenbasis(mats, norms)
    ts = [u.conj().T @ m @ u for m in mats]
    diags = np.stack([np.diag(t) for t in ts])
    # mats[0]'s eigenvalue clusters, split on real then imaginary parts as
    # joint_diagonalize splits on H then K. The normality defect of a
    # compression to a cluster does not depend on the basis of its span.
    first = diags[0]
    radius = core.DEFLATION_CLUSTER_REL * norms[0]
    by_re = np.argsort(first.real, kind="stable")
    for lo, hi in core._split_sorted(first.real[by_re], radius):
        idx = by_re[lo:hi]
        idx = idx[np.argsort(first.imag[idx], kind="stable")]
        for start, stop in core._split_sorted(first.imag[idx], radius):
            block = np.ix_(idx[start:stop], idx[start:stop])
            for t, name in zip(ts[1:], names[1:]):
                refusal = f"compressed {name} on an eigenvalue cluster of {names[0]} is not normal"
                core.require_normal(t[block], tol, refusal + " (defect {defect:.3e}); the pair does not commute cleanly")
    residual = max(float(np.linalg.norm(t - np.diag(d))) for t, d in zip(ts, diags))
    if not (residual <= _OFFDIAG_REL * sum(norms) + 1e-300):
        what = "the pair commutes" if len(mats) == 2 else "the members commute"
        raise NotCommuting(
            f"joint diagonalization left off-diagonal residual {residual:.3e}; {what} only approximately"
        )
    return u, diags, residual


def common_eigenbasis(a, b, *, tol: Optional[core.Tolerances] = None) -> CommonEigenbasis:
    """Joint unitary diagonalization of a commuting normal pair.

    One cluster deflation over the Hermitian and skew parts of A and then
    of B, each taken once, with one last eigh of their weighted combination
    inside any block still wider than one column, so that neither side is
    left carrying the spread of a cluster the other side split
    (core._normal_eigenbasis). B compressed to each eigenvalue cluster of
    A, read off the joint basis, must be normal; the joint basis must leave
    both sides diagonal (_joint_eigenbasis, which tuple_test shares).
    """
    (a, b), tol, (na, nb) = _admit((a, b), ("a", "b"), tol)
    cn, commute = _commutator(a, b, na, nb, tol)
    if not commute:
        raise NotCommuting(f"commutator norm {cn:.3e} exceeds tol.commute * ||A||_F * ||B||_F")
    u, diags, residual = _joint_eigenbasis([a, b], (na, nb), ("a", "b"), tol)
    return CommonEigenbasis(u, diags[0], diags[1], residual)


def _report(cn: float, commute: bool, verdict: LineVerdict, n: int, na: float, nb: float) -> EquivalenceReport:
    """The report of an admitted n x n pair from its commutator (_commutator,
    na and nb the pair's ||.||_F) and its line verdict: consistent is whether
    the two sides agree, but a lines verdict whose pair fails tol.commute by
    less than its certificate allows is indeterminate (_band_refusal)."""
    if verdict.is_lines and not commute:
        refusal = _band_refusal(cn, n, verdict.lower_parts, na, nb)
        if refusal is not None:
            return EquivalenceReport(commute, cn, None, None, indeterminate=refusal)
    return EquivalenceReport(commute, cn, verdict, commute == verdict.is_lines)


def _joint_check(mats, norms, names, tol: core.Tolerances, rows):
    """The joint eigenbasis of commuting members and the one cross-check of
    a certified verdict against it.

    Runs _joint_eigenbasis(mats, norms, names, tol) and returns U,
    the (k, n) joint diagonals, their k-tuples without constant factors
    (drop_constant_factors), the deficit, and the tuple_distance between
    rows, the certified value rows, and those k-tuples, unclustered (None
    when rows is None).
    """
    u, diags, _ = _joint_eigenbasis(mats, norms, names, tol)
    tuples, deficit = drop_constant_factors(diags, norms)
    return u, diags, tuples, deficit, None if rows is None else tuple_distance(rows, tuples)


def _check_pair(a, b, na: float, nb: float, seed: int, tol: core.Tolerances) -> EquivalenceReport:
    """equivalence_check of a pair already admitted (_admit), na and nb its
    ||.||_F: one commutator, pencil_verdict, the report (_report) and, when
    the pair commutes and is certified lines, the cross-check of the
    arrangement, each line counted with its multiplicity, against the
    eigenvalue pairs of a joint eigenbasis (_joint_check)."""
    cn, commute = _commutator(a, b, na, nb, tol)
    try:
        verdict = pencil_verdict(a, b, seed=seed, tol=tol)
    except NumericalAmbiguity as exc:
        return EquivalenceReport(commute, cn, None, None, indeterminate=str(exc))
    report = _report(cn, commute, verdict, a.shape[0], na, nb)
    if commute and report.consistent:
        rows = [(line.lam, line.mu) for line, mult in verdict.arrangement.lines for _ in range(mult)]
        try:
            distance = _joint_check([a, b], (na, nb), ("a", "b"), tol, rows)[-1]
        except (NoConvergence, NotCommuting, NotNormal) as exc:
            return EquivalenceReport(commute, cn, verdict, None, indeterminate=str(exc))
        report.arrangement_vs_eigenpairs_distance = distance
    return report


def equivalence_check(a, b, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> EquivalenceReport:
    """Run both sides of the equivalence and cross-check them.

    commute is decided by the commutator norm, ||AB - BA||_F at most
    tol.commute ||A||_F ||B||_F, a bound that scales with the pair; the
    geometric verdict, whether det(I + zA + wB) = 0 is a union of lines, by
    linegeom.pencil_verdict from one Schur basis of A + gB, without the
    commutator or a joint diagonalization; consistent records whether the
    two sides agree. A notlines witness is a point of the matrices' own curve, and its
    witness_residual is the relative sigma_min(I + zA + wB) there. When both
    sides are affirmative the recovered arrangement, expanded by
    multiplicity, is also matched against the eigenvalue pairs of a joint
    eigenbasis (common_eigenbasis's joint basis, _joint_eigenbasis), constant
    factors dropped and unclustered. The pair is admitted once, here (_admit),
    and then checked by _check_pair, which tuple_test shares: one normality
    defect per member and one commutator serve both sides and the
    reference. A verdict that cannot be certified either way is reported as
    indeterminate, and so is a lines verdict whose pair fails tol.commute by
    less than its certificate allows (_band_refusal).
    """
    (a, b), tol, (na, nb) = _admit((a, b), ("a", "b"), tol)
    return _check_pair(a, b, na, nb, seed, tol)


def tuple_test(mats, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> TupleReport:
    """Equivalence over a tuple from one common Schur basis, plus a joint
    eigenbasis when it commutes.

    Q is a Schur basis of M_0 + sum_i g_i M_i, phases g_i drawn from seed
    (linegeom._phases and _schur_diagonals, the basis step of
    pencil_verdict, so a pair's basis is its two-member tuple's): from
    Hermitian eigensolves when that combination is normal, as it is for
    commuting members, and from LAPACK eig and a QR otherwise. When every
    strictly lower part of Q* M_i Q is within tol.line ||M_i||_F, Q
    triangularizes every pair, so each pair's verdict is lines, read off the
    diagonals (linegeom._schur_lines, as pencil_verdict reads it), and its
    report adds only the pair's commutator, by the rule of equivalence_check
    (_report). Otherwise every pair runs the check of an admitted pair that
    equivalence_check runs (_check_pair), since witnesses are per pair; the
    members are admitted once, here.

    When every pair commutes and agrees, the members are jointly
    diagonalized, each member's Hermitian and skew parts taken once
    (core._normal_eigenbasis), and the basis must pass the
    checks of common_eigenbasis (_joint_eigenbasis), or the tuple is
    indeterminate. The hyperplane arrangement
    {1 + sum_i a_i^{(k)} z_i = 0} is emitted from the joint diagonals,
    clustered with each coordinate in its member's ||.||_F;
    k-tuples that are constant factors (linegeom.drop_constant_factors)
    count in the deficit. A tuple certified by its Schur basis also gets
    schur_vs_hyperplanes_distance, the bottleneck distance between the Schur
    diagonal k-tuples and the joint basis's k-tuples, constant factors
    dropped from both (_joint_check, the cross-check of a pair).
    """
    names = [f"member {i}" for i in range(len(mats))]
    mats, tol, norms = _admit(mats, names, tol)
    if not mats:
        raise ValueError("tuple must contain at least one matrix")
    k = len(mats)
    n = mats[0].shape[0]
    try:
        _, _, schur, lower, certified = _schur_diagonals(mats, _phases(seed, k), norms, tol)
    except NumericalAmbiguity:
        certified = False
    reports = []
    indeterminate = None
    all_commute = True
    for i in range(k):
        for j in range(i + 1, k):
            if certified:
                cn, commute = _commutator(mats[i], mats[j], norms[i], norms[j], tol)
                rep = _report(cn, commute, _schur_lines(schur, lower, norms, i, j), n, norms[i], norms[j])
            else:
                rep = _check_pair(mats[i], mats[j], norms[i], norms[j], seed, tol)
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
    rows = drop_constant_factors(schur, norms)[0] if certified else None
    try:
        u, diags, tuples, deficit, distance = _joint_check(mats, norms, names, tol, rows)
    except (NoConvergence, NotCommuting, NotNormal) as exc:
        return TupleReport(reports, True, indeterminate=str(exc))
    return TupleReport(
        reports,
        True,
        unitary=u,
        diagonals=diags,
        hyperplanes=cluster_tuples(tuples, scales=norms),
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
