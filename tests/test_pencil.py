"""The spectral line verdict of equivalence_check at the sizes the battery
in test_acceptance does not reach (dims 25 to DEGREE_BUDGET), and the guard
that keeps equivalence_check, tuple_test and restriction_check off the
interpolated polynomial."""

import numpy as np
import pytest

from projspec import commute, detpoly, linegeom
from projspec.errors import DegreeBudgetExceeded, InterpolationFailure
from projspec.linegeom import Line, LineArrangement

from helpers import commuting_pair, noncommuting_pair, random_unitary

_LARGE_DIMS = [25, 32, 40, 48, 56, 64]


def _relative_sigma_min(a, b, z, w):
    """sigma_min(I + zA + wB) / (1 + |z| ||A||_F + |w| ||B||_F), by a full SVD."""
    n = a.shape[0]
    smin = np.linalg.svd(np.eye(n) + z * a + w * b, compute_uv=False)[-1]
    return smin / (1 + abs(z) * np.linalg.norm(a) + abs(w) * np.linalg.norm(b))


def test_large_dim_equivalence_battery():
    rng = np.random.default_rng(2564)
    indeterminate = inconsistent = 0
    max_distance = max_sigma = 0.0
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
                assert rep.verdict.arrangement.deficit == 0
                max_distance = max(max_distance, rep.arrangement_vs_eigenpairs_distance)
            else:
                max_sigma = max(max_sigma, _relative_sigma_min(a, b, *rep.verdict.witness))
    print(
        f"[large dims] {4 * len(_LARGE_DIMS)} pairs dims {_LARGE_DIMS[0]}-{_LARGE_DIMS[-1]}: "
        f"{indeterminate} indeterminate, {inconsistent} inconsistent, max arrangement "
        f"distance {max_distance:.3e}, max witness sigma_min {max_sigma:.3e}"
    )
    assert inconsistent == 0
    assert max_distance <= 1e-6
    assert max_sigma <= linegeom.WITNESS_SIGMA_REL


def test_repeated_and_zero_eigenpairs_at_large_dim():
    # three (0, 0) pairs, a line of multiplicity 2, a line through lambda = 0
    rng = np.random.default_rng(40)
    n = 40
    lam = np.concatenate([[0, 0, 0, 0.7, 0.7, 0.0], rng.uniform(-1, 1, n - 6) + 1j * rng.uniform(-1, 1, n - 6)])
    mu = np.concatenate([[0, 0, 0, 1.1j, 1.1j, 0.9], rng.uniform(-1, 1, n - 6) + 1j * rng.uniform(-1, 1, n - 6)])
    u = random_unitary(rng, n)
    a = (u * lam) @ u.conj().T
    b = (u * mu) @ u.conj().T
    rep = commute.equivalence_check(a, b)
    assert rep.commute and rep.consistent and rep.verdict.is_lines
    arr = rep.verdict.arrangement
    assert arr.deficit == 3
    assert arr.total_multiplicity() == n - 3
    assert sorted(m for _, m in arr.lines)[-1] == 2
    ref = LineArrangement([(Line(l, m), 1) for l, m in zip(lam[3:], mu[3:])])
    assert linegeom.compare_arrangements(arr, ref) <= 1e-6


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


def _mispaired(lams, mus, gammas, ray_roots, pair_tol):
    """Stand-in for linegeom._greedy_pairing: a pairing the two rays did not
    confirm, every lambda with the next mu."""
    return list(zip(lams, np.roll(mus, 1)))


def test_direction_certificate_refuses_a_wrong_pairing(monkeypatch):
    monkeypatch.setattr(linegeom, "_greedy_pairing", _mispaired)
    rng = np.random.default_rng(12)
    a, b = commuting_pair(rng, 6)
    rep = commute.equivalence_check(a, b)
    assert rep.verdict is None and "paired spectra miss direction" in rep.indeterminate
    # a non-commuting pair still gets a witness on its own curve
    c, d = noncommuting_pair(rng, 6)
    v = linegeom.pencil_verdict(c, d)
    assert not v.is_lines
    assert _relative_sigma_min(c, d, *v.witness) <= linegeom.WITNESS_SIGMA_REL
