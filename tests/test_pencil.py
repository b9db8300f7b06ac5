"""The spectral line verdict of equivalence_check at the sizes the battery
in test_acceptance does not reach (dims 25 to DEGREE_BUDGET), and the guard
that keeps equivalence_check, tuple_test and restriction_check off the
interpolated polynomial."""

import numpy as np
import pytest

from projspec import commute, core, detpoly, linegeom, riesz
from projspec.errors import DegreeBudgetExceeded, InterpolationFailure, NumericalAmbiguity
from projspec.linegeom import Line, LineArrangement

from helpers import (
    PAULI_X,
    PAULI_Z,
    commuting_pair,
    near_commuting_pair,
    noncommuting_pair,
    random_unitary,
    reference_direction_mismatch,
    reference_ray_witness_verdict,
)

_LARGE_DIMS = [25, 32, 40, 48, 56, 64]


def _relative_sigma_min(a, b, z, w):
    """sigma_min(I + zA + wB) / (1 + |z| ||A||_F + |w| ||B||_F), by a full SVD."""
    n = a.shape[0]
    smin = np.linalg.svd(np.eye(n) + z * a + w * b, compute_uv=False)[-1]
    return smin / (1 + abs(z) * np.linalg.norm(a) + abs(w) * np.linalg.norm(b))


def _phase(seed):
    """pencil_verdict's g0 for this seed."""
    return np.exp(2j * np.pi * np.random.default_rng(seed).uniform(0.0, 1.0))


def test_large_dim_equivalence_battery():
    rng = np.random.default_rng(2564)
    indeterminate = inconsistent = lines = 0
    max_distance = max_sigma = max_mismatch = 0.0
    for k, n in enumerate(_LARGE_DIMS):
        for make in (commuting_pair, noncommuting_pair) * 2:
            a, b = make(rng, n)
            rep = commute.equivalence_check(a, b, seed=k)
            if rep.indeterminate is not None:
                indeterminate += 1
                continue
            if not rep.consistent:
                inconsistent += 1
                continue
            if rep.verdict.is_lines:
                lines += 1
                assert rep.verdict.arrangement.deficit == 0
                max_distance = max(max_distance, rep.arrangement_vs_eigenpairs_distance)
                max_mismatch = max(
                    max_mismatch, reference_direction_mismatch(a, b, rep.verdict.arrangement)
                )
            else:
                max_sigma = max(max_sigma, _relative_sigma_min(a, b, *rep.verdict.witness))
    print(
        f"[large dims] {4 * len(_LARGE_DIMS)} pairs dims {_LARGE_DIMS[0]}-{_LARGE_DIMS[-1]}: "
        f"{indeterminate} indeterminate, {inconsistent} inconsistent, {lines} lines, max "
        f"arrangement distance {max_distance:.3e}, max direction mismatch "
        f"{max_mismatch:.3e}, max witness sigma_min {max_sigma:.3e}"
    )
    assert inconsistent == 0
    # every commuting pair is certified, and no non-commuting one
    assert lines == 2 * len(_LARGE_DIMS)
    assert max_distance <= 1e-6
    assert max_mismatch <= core.default_tolerances().line
    assert max_sigma <= linegeom.WITNESS_SIGMA_REL


def _repeated_and_zero_pair():
    # three (0, 0) pairs, a line of multiplicity 2, a line through lambda = 0
    rng = np.random.default_rng(40)
    n = 40
    lam = np.concatenate([[0, 0, 0, 0.7, 0.7, 0.0], rng.uniform(-1, 1, n - 6) + 1j * rng.uniform(-1, 1, n - 6)])
    mu = np.concatenate([[0, 0, 0, 1.1j, 1.1j, 0.9], rng.uniform(-1, 1, n - 6) + 1j * rng.uniform(-1, 1, n - 6)])
    u = random_unitary(rng, n)
    return lam, mu, (u * lam) @ u.conj().T, (u * mu) @ u.conj().T


def test_repeated_and_zero_eigenpairs_at_large_dim():
    lam, mu, a, b = _repeated_and_zero_pair()
    n = a.shape[0]
    rep = commute.equivalence_check(a, b)
    assert rep.commute and rep.consistent and rep.verdict.is_lines
    arr = rep.verdict.arrangement
    assert arr.deficit == 3
    assert arr.total_multiplicity() == n - 3
    assert sorted(m for _, m in arr.lines)[-1] == 2
    ref = LineArrangement([(Line(l, m), 1) for l, m in zip(lam[3:], mu[3:])])
    assert linegeom.compare_arrangements(arr, ref) <= 1e-6
    assert reference_direction_mismatch(a, b, arr) <= core.default_tolerances().line


def test_degree_budget_still_bounds_equivalence_check():
    n = detpoly.DEGREE_BUDGET + 1
    d = np.diag(np.arange(1.0, n + 1))
    with pytest.raises(DegreeBudgetExceeded):
        commute.equivalence_check(d, d)


def test_large_norm_pair_gets_a_certified_witness():
    # two 48 x 48 Hermitian X + X*, ||.||_2 about 27, whose polynomial
    # coefficients char_poly_pair cannot hold in double precision
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 48, 48)) + 1j * rng.normal(size=(2, 48, 48))
    a, b = x + x.conj().transpose(0, 2, 1)
    with pytest.raises(InterpolationFailure, match="coefficient range exceeds double precision"):
        detpoly.char_poly_pair(a, b)
    rep = commute.equivalence_check(a, b)
    assert not rep.commute and rep.consistent and not rep.verdict.is_lines
    assert _relative_sigma_min(a, b, *rep.verdict.witness) <= linegeom.WITNESS_SIGMA_REL


def _count_matchings(monkeypatch):
    calls = [0]
    real = linegeom._has_perfect_matching

    def counting(adj):
        calls[0] += 1
        return real(adj)

    monkeypatch.setattr(linegeom, "_has_perfect_matching", counting)
    return calls


def test_few_distinct_eigenvalues_certify_without_matching(monkeypatch):
    # a conjugated pair of 0/1 diagonals: four joint eigenvalues, each
    # highly repeated, so the eigenvectors of A + gB within a cluster are
    # arbitrary; their QR basis must still triangularize both
    rng = np.random.default_rng(1)
    n = 64
    u = random_unitary(rng, n)
    da, db = rng.integers(0, 2, size=(2, n)).astype(float)
    a, b = (u * da) @ u.conj().T, (u * db) @ u.conj().T
    calls = _count_matchings(monkeypatch)
    verdict = linegeom.pencil_verdict(a, b)
    assert calls[0] == 0
    assert verdict.is_lines
    ref = linegeom.pair_arrangement(da, db, norm_a=core.frobenius(a), norm_b=core.frobenius(b))
    assert verdict.arrangement.deficit == ref.deficit
    assert linegeom.compare_arrangements(verdict.arrangement, ref) <= 1e-12
    assert reference_direction_mismatch(a, b, verdict.arrangement) <= core.default_tolerances().line


def _refuse(*args, **kwargs):
    raise AssertionError("the interpolated polynomial was used")


def test_equivalence_paths_stay_off_the_polynomial(monkeypatch):
    monkeypatch.setattr(detpoly, "char_poly_pair", _refuse)
    monkeypatch.setattr(detpoly, "univariate_slice", _refuse)
    monkeypatch.setattr(linegeom, "univariate_slice", _refuse)
    monkeypatch.setattr(linegeom, "factor_lines", _refuse)
    rng = np.random.default_rng(77)
    for n in (3, 33):
        a, b = commuting_pair(rng, n)
        rep = commute.equivalence_check(a, b)
        assert rep.commute and rep.consistent and rep.verdict.is_lines
        tup = commute.tuple_test([a, b, a @ b])
        assert tup.commute and tup.indeterminate is None and tup.hyperplanes is not None
        invariant = commute.common_eigenbasis(a, b).unitary[:, :2]
        rep = commute.restriction_check(a, b, invariant)
        assert rep.commute and rep.consistent and rep.verdict.is_lines
        c, d = noncommuting_pair(rng, n)
        for rep in (commute.equivalence_check(c, d), commute.restriction_check(c, d, np.eye(n))):
            assert not rep.commute and rep.consistent and not rep.verdict.is_lines
        tup = commute.tuple_test([a, c, d])
        assert not tup.commute and tup.indeterminate is None


@pytest.mark.parametrize("small", ["a", "b"])
def test_each_lower_part_is_relative_to_its_own_matrix(small):
    # Q triangularizes A + g0 B, so L_B = -L_A / g0: with one member 1e-8 of
    # the other's size, the shared lower part is tiny against the larger
    # member's norm and only the smaller member's own check refuses; the
    # refused pair then gets its curvature witness
    tol = core.default_tolerances()
    for n in (4, 12):
        a, b = noncommuting_pair(np.random.default_rng(n), n)
        if small == "a":
            a = 1e-8 * a
        else:
            b = 1e-8 * b
        phase = _phase(0)
        norms = (np.linalg.norm(a), np.linalg.norm(b))
        *_, lower, certified = linegeom._schur_diagonals([a, b], [phase], norms, tol)
        big, tiny = (lower[1], lower[0]) if small == "a" else (lower[0], lower[1])
        assert not certified and big <= tol.line < tiny
        verdict = linegeom.pencil_verdict(a, b)
        assert not verdict.is_lines
        assert _relative_sigma_min(a, b, *verdict.witness) <= linegeom.WITNESS_SIGMA_REL


@pytest.mark.parametrize("eps", [1e-5, 1e-4])
def test_near_commuting_pair_is_never_certified_lines(eps):
    # B conjugated by exp(i eps H) is off commuting with A by O(eps), far
    # above rounding, so a Schur basis of A + gB leaves lower parts of B
    # above tol.line; the branches bend only at O(eps^2), so a refusal may
    # find no witness and be indeterminate
    rng = np.random.default_rng(12)
    refused = 0
    for n in (4, 12, 24, 48):
        a, b = near_commuting_pair(rng, n, eps)
        try:
            verdict = linegeom.pencil_verdict(a, b)
        except NumericalAmbiguity as exc:
            assert "relative lower parts" in str(exc) and "tol.line" in str(exc)
            refused += 1
            continue
        assert not verdict.is_lines, n
        assert _relative_sigma_min(a, b, *verdict.witness) <= linegeom.WITNESS_SIGMA_REL
    print(f"[near commuting] eps {eps:.0e}: {refused} of 4 indeterminate, the rest notlines")


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-8, 1e-12, 1e-13, 1e-14, 1e4])
def test_noncommuting_verdict_is_scale_invariant(scale):
    # a witness is separated from the candidate lines by a bound homogeneous
    # in the pair, so scaling both members keeps a certified notlines
    for n in (4, 12, 24):
        a, b = noncommuting_pair(np.random.default_rng(n), n)
        rep = commute.equivalence_check(scale * a, scale * b)
        assert rep.indeterminate is None, (n, rep.indeterminate)
        assert not rep.commute and not rep.verdict.is_lines and rep.consistent
        assert _relative_sigma_min(scale * a, scale * b, *rep.verdict.witness) <= 1e-15


def _curvatures(a, b, seed=0):
    """nu'' and its rounding bound on every branch of A + gB at g0, with the
    eigenvalues nu of A + g0 B."""
    fa, fb = np.linalg.norm(a), np.linalg.norm(b)
    tol = core.default_tolerances()
    nus, v, *_ = linegeom._schur_diagonals([a, b], [_phase(seed)], (fa, fb), tol)
    curv, bound = linegeom._branch_curvatures(nus, v, b, fa + fb, fb)
    return nus, curv, bound


def _separated_branches(nus, sep):
    gap = np.abs(nus[:, None] - nus[None, :])
    np.fill_diagonal(gap, np.inf)
    return np.flatnonzero(gap.min(axis=1) > sep)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_curvature_matches_a_finite_difference(n):
    # nu(g0 + h) - 2 nu(g0) + nu(g0 - h), over h^2, on eigenvalues matched
    # to their nu by nearness: a branch 0.05 from every other moves by far
    # less than that over |h| = 1e-4
    a, b = noncommuting_pair(np.random.default_rng(600 + n), n)
    nus, curv, bound = _curvatures(a, b)
    g, h = _phase(0), 1e-4
    near = [np.linalg.eigvals(a + (g + s) * b) for s in (h, -h)]
    checked = 0
    for i in _separated_branches(nus, 0.05):
        plus, minus = (e[np.abs(e - nus[i]).argmin()] for e in near)
        fd = (plus - 2 * nus[i] + minus) / h**2
        assert abs(fd - curv[i]) <= 1e-6 * abs(curv).max(), (i, fd, curv[i])
        assert abs(curv[i]) > bound[i]
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize("n", [3, 8, 16])
def test_curvature_is_the_trace_of_the_first_order_riesz_term(n):
    # nu(g) = tr((A + gB) P(g)) for the Riesz projection P of a simple
    # eigenvalue, so nu' = tr(B P) and nu'' = tr(B P'), with P' the
    # contour integral of riesz.first_order_term
    a, b = noncommuting_pair(np.random.default_rng(700 + n), n)
    nus, curv, _ = _curvatures(a, b)
    m = a + _phase(0) * b
    branches = _separated_branches(nus, 0.05)
    assert branches.size >= 2
    for i in branches:
        contour = riesz.Contour(complex(nus[i]), 0.02, nodes=256)
        ref = np.trace(b @ riesz.first_order_term(m, b, contour))
        assert abs(ref - curv[i]) <= 1e-9 * abs(curv).max(), (i, ref, curv[i])


def test_commuting_pairs_stay_below_the_curvature_bound():
    # a commuting pair's branches are affine; rounding alone must not bend
    # one past its bound, with separated or clustered joint eigenvalues
    rng = np.random.default_rng(2816)
    worst = 0.0
    for n in (2, 3, 8, 16, 32, 48, 64):
        for seed in range(3):
            a, b = commuting_pair(rng, n)
            _, curv, bound = _curvatures(a, b, seed)
            worst = max(worst, float((np.abs(curv) / bound).max()))
        u = random_unitary(rng, n)
        lam = rng.choice([0.5, 1.0, 1j], n) + 1e-6 * rng.normal(size=n)
        mu = rng.choice([0.3, -0.7], n) + 1e-6 * rng.normal(size=n)
        _, curv, bound = _curvatures((u * lam) @ u.conj().T, (u * mu) @ u.conj().T)
        worst = max(worst, float((np.abs(curv) / bound).max()))
    print(f"[curvature] commuting pairs n 2-64: largest |nu''| / bound {worst:.3e}")
    assert worst < 1.0


def _direct_sum(p, q):
    n, m = p.shape[0], q.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n], out[n:, n:] = p, q
    return out


@pytest.mark.parametrize("block", ["zero", "identity"])
def test_tied_eigenvalue_keeps_the_curvature_witness(block):
    # a zero or identity block in both members gives A + g0 B an exactly
    # repeated eigenvalue (0 or 1 + g0); a rotation inside the tie leaves
    # the curvature of every other branch unchanged, so the bent branches
    # keep a finite bound and the pair is certified notlines, without a
    # RuntimeWarning (an error under the test configuration)
    rng = np.random.default_rng(31)
    pairs = [(PAULI_Z, PAULI_X)] + [noncommuting_pair(rng, n) for n in (3, 6)]
    for a0, b0 in pairs:
        for m in (2, 3):
            tie = np.zeros((m, m)) if block == "zero" else np.eye(m)
            a, b = _direct_sum(a0, tie), _direct_sum(b0, tie)
            nus, curv, bound = _curvatures(a, b)
            tied = np.abs(nus - nus[-1]) <= 1e-12
            assert tied.sum() == m and np.isinf(bound[tied]).all()
            assert np.isfinite(bound[~tied]).all() and (np.abs(curv[~tied]) > bound[~tied]).any()
            verdict = linegeom.pencil_verdict(a, b)
            assert not verdict.is_lines
            assert _relative_sigma_min(a, b, *verdict.witness) <= linegeom.WITNESS_SIGMA_REL
            rep = commute.equivalence_check(a, b)
            assert rep.indeterminate is None and not rep.commute and rep.consistent


def test_curvature_witness_keeps_criterion_1_verdict_classes():
    # criterion 1's 400 pairs, drawn as test_acceptance draws them: the
    # verdict class of every pair is the one of the earlier ray-witness
    # search, lines verdicts are the same arrangements, and every notlines
    # witness is on the matrices' curve
    rng = np.random.default_rng(424242)
    dims = [2 + (k * 23) // 199 for k in range(200)]
    pairs = [(commuting_pair(rng, n), k) for k, n in enumerate(dims)]
    pairs += [(noncommuting_pair(rng, n), 200 + k) for k, n in enumerate(dims)]
    notlines = 0
    for (a, b), seed in pairs:
        verdict = linegeom.pencil_verdict(a, b, seed=seed)
        ref = reference_ray_witness_verdict(a, b, seed=seed)
        assert ref is not None and verdict.is_lines == ref.is_lines, seed
        if verdict.is_lines:
            assert verdict == ref
        else:
            notlines += 1
            assert _relative_sigma_min(a, b, *verdict.witness) <= linegeom.WITNESS_SIGMA_REL
    assert notlines == 200


def test_near_commuting_sweep_has_no_wrong_certified_verdict():
    # B conjugated by exp(i eps H) for eps from 1e-12 to 1e-3: between
    # tol.commute and tol.line a pair may fail the commutator bound and still
    # be certified lines, which the certificate's own commutator bound makes
    # indeterminate; and no pair that commutes is certified notlines
    rng = np.random.default_rng(5)
    counts = {"lines": 0, "notlines": 0, "indeterminate": 0}
    for n in (4, 12, 24, 48, 64):
        for eps in np.logspace(-12, -3, 9):
            for _ in range(3):
                a, b = near_commuting_pair(rng, n, eps)
                rep = commute.equivalence_check(a, b)
                if rep.indeterminate is not None:
                    counts["indeterminate"] += 1
                    continue
                counts["lines" if rep.verdict.is_lines else "notlines"] += 1
                assert rep.consistent, (n, eps, rep.commute)
                if not rep.verdict.is_lines:
                    assert _relative_sigma_min(a, b, *rep.verdict.witness) <= linegeom.WITNESS_SIGMA_REL
    print(f"[near commuting sweep] 135 pairs: {counts}")
    assert sum(counts.values()) == 135
