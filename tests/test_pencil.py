"""The spectral line verdict of equivalence_check at the sizes the battery
in test_acceptance does not reach (dims 25 to DEGREE_BUDGET), and the guard
that keeps equivalence_check, tuple_test and restriction_check off the
interpolated polynomial."""

import numpy as np
import pytest

from projspec import commute, core, detpoly, linegeom
from projspec.errors import DegreeBudgetExceeded, InterpolationFailure, NumericalAmbiguity
from projspec.linegeom import Line, LineArrangement

from helpers import (
    commuting_pair,
    near_commuting_pair,
    noncommuting_pair,
    random_unitary,
    reference_direction_mismatch,
)

_LARGE_DIMS = [25, 32, 40, 48, 56, 64]


def _relative_sigma_min(a, b, z, w):
    """sigma_min(I + zA + wB) / (1 + |z| ||A||_F + |w| ||B||_F), by a full SVD."""
    n = a.shape[0]
    smin = np.linalg.svd(np.eye(n) + z * a + w * b, compute_uv=False)[-1]
    return smin / (1 + abs(z) * np.linalg.norm(a) + abs(w) * np.linalg.norm(b))


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
    # member's norm and only the smaller member's own check refuses
    for n in (4, 12):
        a, b = noncommuting_pair(np.random.default_rng(n), n)
        if small == "a":
            a = 1e-8 * a
        else:
            b = 1e-8 * b
        with pytest.raises(NumericalAmbiguity, match="relative lower parts"):
            linegeom.pencil_verdict(a, b)


@pytest.mark.parametrize("eps", [1e-5, 1e-4])
def test_near_commuting_pair_is_never_certified_lines(eps):
    # B conjugated by exp(i eps H) is off commuting with A by O(eps), far
    # above rounding, so a Schur basis of A + gB leaves lower parts of B
    # above tol.line; the spectra move only at O(eps^2), so a refusal may
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
