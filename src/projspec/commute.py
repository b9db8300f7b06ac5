"""Both sides of the commutativity / line-structure equivalence.

For normal matrices, [A,B] = 0 exactly when det(I + zA + wB) factors into
linear terms, i.e. the zero set is a union of lines. This module runs the
algebraic side (commutator norm), the geometric side (linegeom.pencil_verdict,
read off the spectra of A, B and A + gB), cross-checks the recovered
arrangement against the eigenvalue pairs of a common eigenbasis, and extends
the test to tuples by pairwise reduction. Eigensolves that do not converge,
spectra that neither match a line pairing nor yield a witness on the
matrices' own curve, and pairs whose two sides disagree inside a tuple,
surface as indeterminate outcomes, never as definitive verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import core
from .errors import (
    DimMismatch,
    NotCommuting,
    NotInvariant,
    NotNormal,
    NumericalAmbiguity,
)
from .linegeom import (
    ZERO_PAIR_REL,
    LineArrangement,
    LineVerdict,
    cluster_tuples,
    compare_arrangements,
    pair_arrangement,
    pencil_verdict,
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


def _require_normal(m: np.ndarray, tag: str, tol: core.Tolerances) -> float:
    norm = core.frobenius(m)
    defect = core.normality_defect(m)
    if defect > tol.normal * norm:
        raise NotNormal(
            f"{tag}: normality defect {defect:.3e} exceeds {tol.normal * norm:.3e}"
        )
    return norm


def common_eigenbasis(a, b, *, tol: Optional[core.Tolerances] = None) -> CommonEigenbasis:
    """Joint unitary diagonalization of a commuting normal pair.

    One cluster deflation over the Hermitian and skew parts of A, then of B,
    then of A again, so that neither side is left carrying the spread of a
    cluster the other side split. B compressed to each eigenvalue cluster of
    A, read off the joint basis, must be normal; the joint basis must leave
    both sides diagonal.
    """
    a = core.as_cmatrix(a)
    b = core.as_cmatrix(b)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    if tol is None:
        tol = core.default_tolerances()
    na = _require_normal(a, "a", tol)
    nb = _require_normal(b, "b", tol)
    cn = core.commutator_norm(a, b)
    if cn > tol.commute * (na + nb):
        raise NotCommuting(
            f"commutator norm {cn:.3e} exceeds {tol.commute * (na + nb):.3e}"
        )
    radius_a = DEFLATION_CLUSTER_REL * na
    radius_b = DEFLATION_CLUSTER_REL * nb
    ha, ka = core.hermitian_parts(a)
    hb, kb = core.hermitian_parts(b)
    u = core.joint_diagonalize(
        [ha, ka, hb, kb, ha, ka],
        [radius_a, radius_a, radius_b, radius_b, radius_a, radius_a],
    )
    ta = u.conj().T @ a @ u
    tb = u.conj().T @ b @ u
    diag_a = np.diag(ta).copy()
    diag_b = np.diag(tb).copy()
    # A's eigenvalue clusters, split on real then imaginary parts as
    # joint_diagonalize splits on H then K. The normality defect of B's
    # compression to a cluster does not depend on the basis of its span.
    by_re = np.argsort(diag_a.real, kind="stable")
    for group in core._split_sorted(diag_a.real[by_re], radius_a):
        idx = by_re[group]
        idx = idx[np.argsort(diag_a.imag[idx], kind="stable")]
        for sub in core._split_sorted(diag_a.imag[idx], radius_a):
            if sub.size == 1:
                continue
            bc = tb[np.ix_(idx[sub], idx[sub])]
            defect = core.normality_defect(bc)
            if defect > tol.normal * max(core.frobenius(bc), 1e-300):
                raise NotNormal(
                    f"compressed b on an eigenvalue cluster of a is not normal "
                    f"(defect {defect:.3e}); the pair does not commute cleanly"
                )
    off_a = float(np.linalg.norm(ta - np.diag(diag_a)))
    off_b = float(np.linalg.norm(tb - np.diag(diag_b)))
    residual = max(off_a, off_b)
    if residual > _OFFDIAG_REL * (na + nb) + 1e-300:
        raise NotCommuting(
            f"joint diagonalization left off-diagonal residual {residual:.3e}; "
            "the pair commutes only approximately"
        )
    return CommonEigenbasis(u, diag_a, diag_b, residual)


def eigenpair_arrangement(diag_a, diag_b, *, norm_a: float = 1.0, norm_b: float = 1.0) -> LineArrangement:
    """Lines {1 + a_j z + b_j w = 0} from joint eigenvalues, with multiplicity.

    Pairs with both entries at relative zero contribute constant determinant
    factors and are counted in the deficit instead (linegeom.pair_arrangement).
    """
    return pair_arrangement(diag_a, diag_b, norm_a=norm_a, norm_b=norm_b)


def equivalence_check(a, b, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> EquivalenceReport:
    """Run both sides of the equivalence and cross-check them.

    commute is decided by the commutator norm; the geometric verdict,
    whether det(I + zA + wB) = 0 is a union of lines, by
    linegeom.pencil_verdict from the spectra of A, B and A + gB, without the
    commutator or a joint basis; consistent records whether the two sides
    agree. A notlines witness is a point of the matrices' own curve, and its
    witness_residual is the relative sigma_min(I + zA + wB) there. When both
    sides are affirmative the recovered arrangement is also matched against
    the eigenvalue pairs of a common eigenbasis. A verdict that cannot be
    certified either way is reported as indeterminate.
    """
    a = core.as_cmatrix(a)
    b = core.as_cmatrix(b)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    if tol is None:
        tol = core.default_tolerances()
    na = _require_normal(a, "a", tol)
    nb = _require_normal(b, "b", tol)
    cn = core.commutator_norm(a, b)
    commute = cn <= tol.commute * (na + nb)
    try:
        verdict = pencil_verdict(a, b, seed=seed, tol=tol)
    except NumericalAmbiguity as exc:
        return EquivalenceReport(commute, cn, None, None, indeterminate=str(exc))
    consistent = commute == verdict.is_lines
    distance = None
    if commute and verdict.is_lines:
        try:
            basis = common_eigenbasis(a, b, tol=tol)
        except (NotCommuting, NotNormal) as exc:
            return EquivalenceReport(commute, cn, verdict, None, indeterminate=str(exc))
        reference = eigenpair_arrangement(
            basis.diag_a, basis.diag_b, norm_a=na, norm_b=nb
        )
        distance = compare_arrangements(verdict.arrangement, reference)
    return EquivalenceReport(commute, cn, verdict, consistent, distance)


def tuple_test(mats, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> TupleReport:
    """Pairwise equivalence over a tuple, plus a joint eigenbasis when it commutes.

    The hyperplane arrangement {1 + sum_i a_i^{(k)} z_i = 0} is emitted from
    the joint diagonals; all-zero coefficient tuples are dropped as constant
    factors.
    """
    mats = [core.as_cmatrix(m) for m in mats]
    if not mats:
        raise ValueError("tuple must contain at least one matrix")
    n = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape != (n, n):
            raise DimMismatch(f"tuple members differ in dimension: {m.shape} vs {(n, n)}")
    if tol is None:
        tol = core.default_tolerances()
    norms = [_require_normal(m, f"member {i}", tol) for i, m in enumerate(mats)]
    reports = []
    indeterminate = None
    all_commute = True
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
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
    parts = [p for m in mats for p in core.hermitian_parts(m)]
    radii = [DEFLATION_CLUSTER_REL * norm for norm in norms for _ in range(2)]
    # two sweeps over all members settle ties
    u = core.joint_diagonalize(parts * 2, radii * 2)
    diags = np.stack([np.diag(u.conj().T @ m @ u).copy() for m in mats])
    tuples = [tuple(diags[m][k] for m in range(len(mats))) for k in range(n)]
    scale = max(norms) if norms else 1.0
    keep = [
        t for t in tuples if any(abs(x) > ZERO_PAIR_REL * max(scale, 1e-300) for x in t)
    ]
    dropped = n - len(keep)
    hyperplanes = cluster_tuples(keep)
    return TupleReport(
        reports,
        True,
        unitary=u,
        diagonals=diags,
        hyperplanes=hyperplanes,
        deficit=dropped,
    )


def restriction_check(a, b, basis_w, *, seed: int = 0, tol: Optional[core.Tolerances] = None) -> EquivalenceReport:
    """Equivalence check of the pair compressed to an invariant subspace."""
    a = core.as_cmatrix(a)
    b = core.as_cmatrix(b)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
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
        bound = _INVARIANT_REL * max(1.0, core.frobenius(m))
        if leak > bound:
            raise NotInvariant(f"{tag} leaks {leak:.3e} out of span(basis_w) (bound {bound:.3e})")
    return equivalence_check(w.conj().T @ a @ w, w.conj().T @ b @ w, seed=seed, tol=tol)


def format_report(report: EquivalenceReport) -> str:
    """Flat key-value text block with stable key order."""
    from .linegeom import emit_arrangement

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
