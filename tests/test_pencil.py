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


def _record_direction_certificate(monkeypatch):
    """Wrap linegeom._bottlenecks_within and linegeom._bottleneck; returns
    the list of (cost stack, bound, verdicts) of each certificate and the
    list of the cost matrices that went to the per-matrix bisection."""
    certificates, fallbacks = [], []
    within, single = linegeom._bottlenecks_within, linegeom._bottleneck

    def record_within(cost, bound):
        out = within(cost, bound)
        certificates.append((cost, bound, out))
        return out

    def record_single(cost):
        fallbacks.append(cost)
        return single(cost)

    monkeypatch.setattr(linegeom, "_bottlenecks_within", record_within)
    monkeypatch.setattr(linegeom, "_bottleneck", record_single)
    return certificates, fallbacks


def test_batched_certificate_matches_per_direction_bottleneck(monkeypatch):
    # repeated and zero eigenpairs repeat columns of a direction's cost
    # matrix, so its row argmins can collide and the bisection fallback runs
    _, _, a, b = _repeated_and_zero_pair()
    certificates, fallbacks = _record_direction_certificate(monkeypatch)
    assert linegeom.pencil_verdict(a, b).is_lines
    [(cost, bound, ok)] = certificates
    assert cost.shape == (a.shape[0] + 1, a.shape[0], a.shape[0])
    assert ok.all() and fallbacks == []
    mismatch = linegeom._bottlenecks(cost)
    assert 0 < len(fallbacks) < len(cost)
    assert mismatch.tolist() == [linegeom._bottleneck(c) for c in cost]
    assert (mismatch <= bound).all()
    # a copied row makes every direction's argmins collide
    forced = cost.copy()
    forced[:, 1] = forced[:, 0]
    want = [linegeom._bottleneck(c) for c in forced]
    fallbacks.clear()
    assert linegeom._bottlenecks(forced).tolist() == want
    assert len(fallbacks) == len(forced)
    for level in np.unique(want):
        assert linegeom._bottlenecks_within(forced, level).tolist() == [w <= level for w in want]


def _count_matchings(monkeypatch):
    calls = [0]
    real = linegeom._has_perfect_matching

    def counting(adj):
        calls[0] += 1
        return real(adj)

    monkeypatch.setattr(linegeom, "_has_perfect_matching", counting)
    return calls


def test_few_distinct_eigenvalues_take_one_matching_test_per_direction(monkeypatch):
    # a conjugated pair of 0/1 diagonals: every direction's row argmins
    # collide, which a bisection would answer with about 9 matching tests
    rng = np.random.default_rng(1)
    n = 64
    u = random_unitary(rng, n)
    da, db = rng.integers(0, 2, size=(2, n)).astype(float)
    a, b = (u * da) @ u.conj().T, (u * db) @ u.conj().T
    calls = _count_matchings(monkeypatch)
    verdict = linegeom.pencil_verdict(a, b)
    assert calls[0] <= n + 1
    assert verdict.is_lines
    ref = linegeom.pair_arrangement(da, db)
    assert verdict.arrangement.deficit == ref.deficit
    assert linegeom.compare_arrangements(verdict.arrangement, ref) <= 1e-12


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
    certificates, _ = _record_direction_certificate(monkeypatch)
    rep = commute.equivalence_check(a, b)
    assert rep.verdict is None and "paired spectra miss direction" in rep.indeterminate
    # the named direction is the worst one by a per-direction bottleneck
    [(cost, _, ok)] = certificates
    assert not ok.all()
    per_direction = [linegeom._bottleneck(c) for c in cost]
    worst = int(np.argmax(per_direction))
    assert f"direction {worst} by {per_direction[worst]:.3e}" in rep.indeterminate
    # a non-commuting pair still gets a witness on its own curve
    c, d = noncommuting_pair(rng, 6)
    v = linegeom.pencil_verdict(c, d)
    assert not v.is_lines
    assert _relative_sigma_min(c, d, *v.witness) <= linegeom.WITNESS_SIGMA_REL
