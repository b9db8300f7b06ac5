import numpy as np
import pytest

from projspec import commute, core, linegeom
from projspec.errors import DimMismatch, NoConvergence, NotCommuting, NotInvariant, NotNormal
from projspec.linegeom import Line, LineArrangement

from helpers import (
    PAULI_X,
    PAULI_Z,
    STRADDLE_BASE,
    commuting_pair,
    commuting_tuple,
    fail_eig,
    fail_eigh,
    fail_solve,
    inconsistent_report,
    near_commuting_pair,
    noncommuting_pair,
    off_curve_witnesses,
    random_diag_vals,
    random_normal,
    random_unitary,
    refuse_common_schur_basis,
)


def _ref_arrangement(*pairs):
    return LineArrangement([(Line(complex(l), complex(m)), mult) for l, m, mult in pairs])


def test_equivalence_commuting_example():
    # sigma_x and [[1,2],[2,1]] share eigenvectors (1,+-1)/sqrt2;
    # p = (1+z+3w)(1-z-w)
    b = np.array([[1, 2], [2, 1]], dtype=complex)
    rep = commute.equivalence_check(PAULI_X, b)
    assert rep.commute
    assert rep.verdict.is_lines
    assert rep.consistent
    ref = _ref_arrangement((1, 3, 1), (-1, -1, 1))
    assert linegeom.compare_arrangements(rep.verdict.arrangement, ref) <= 1e-8
    assert rep.arrangement_vs_eigenpairs_distance <= 1e-6


def test_equivalence_pauli_example():
    rep = commute.equivalence_check(PAULI_Z, PAULI_X)
    assert not rep.commute
    assert not rep.verdict.is_lines
    assert rep.consistent
    assert rep.arrangement_vs_eigenpairs_distance is None


def test_equivalence_zero_pair():
    rep = commute.equivalence_check(np.zeros((2, 2)), np.zeros((2, 2)))
    assert rep.commute
    assert rep.verdict.is_lines
    assert rep.consistent
    assert rep.verdict.arrangement.lines == []
    assert rep.verdict.arrangement.deficit == 2


def test_equivalence_rejects_nonnormal():
    with pytest.raises(NotNormal):
        commute.equivalence_check(np.array([[0, 1], [0, 0]]), np.eye(2))


def test_equivalence_dim_mismatch():
    with pytest.raises(DimMismatch):
        commute.equivalence_check(np.eye(2), np.eye(3))


def test_common_eigenbasis_block_structure():
    # B acts as sigma_x on the two-fold eigenspace of A
    a = np.diag([1.0, 1.0, 2.0]).astype(complex)
    b = np.zeros((3, 3), dtype=complex)
    b[:2, :2] = PAULI_X
    b[2, 2] = 1.0
    basis = commute.common_eigenbasis(a, b)
    assert sorted(basis.diag_a.real.tolist()) == pytest.approx([1.0, 1.0, 2.0])
    assert sorted(basis.diag_b.real.tolist()) == pytest.approx([-1.0, 1.0, 1.0])
    assert basis.offdiag_residual <= 1e-10
    u = basis.unitary
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-10


def test_common_eigenbasis_already_diagonal():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 4.0]).astype(complex)
    basis = commute.common_eigenbasis(a, b)
    # up to the eigenvalue-ordering permutation and phases, U is a permutation
    u = np.abs(basis.unitary)
    assert np.allclose(u @ u.T, np.eye(2), atol=1e-10)
    assert sorted(basis.diag_a.real.tolist()) == pytest.approx([1.0, 2.0])


def test_common_eigenbasis_identity_reduces_to_b():
    rng = np.random.default_rng(51)
    b = random_normal(rng, 4)
    basis = commute.common_eigenbasis(np.eye(4), b)
    eb = core.eig_normal(b)
    got = sorted(basis.diag_b.tolist(), key=lambda z: (z.real, z.imag))
    ref = sorted(eb.values.tolist(), key=lambda z: (z.real, z.imag))
    for x, y in zip(got, ref):
        assert abs(x - y) <= 1e-9


def test_common_eigenbasis_roundtrip():
    rng = np.random.default_rng(53)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        a, b = commuting_pair(rng, n)
        basis = commute.common_eigenbasis(a, b)
        u = basis.unitary
        ra = (u * basis.diag_a) @ u.conj().T
        rb = (u * basis.diag_b) @ u.conj().T
        assert np.linalg.norm(ra - a) <= 1e-8 * (1 + np.linalg.norm(a))
        assert np.linalg.norm(rb - b) <= 1e-8 * (1 + np.linalg.norm(b))
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10


def test_common_eigenbasis_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        commute.common_eigenbasis(PAULI_Z, PAULI_X)


def test_common_eigenbasis_rejects_nonnormal():
    with pytest.raises(NotNormal):
        commute.common_eigenbasis(np.array([[0, 1], [0, 0]]), np.eye(2))


def test_common_eigenbasis_offdiagonal_gate():
    # A's eigenvalues 1 and 1 + 2e-7 share a deflation cluster; B mixes them,
    # with a commutator inside the admission tolerance, and the joint basis
    # is left with an off-diagonal residual of about 2e-7 / sqrt(2) in A
    a = np.diag([1.0, 1.0 + 2e-7, 3.0]).astype(complex)
    b = np.zeros((3, 3), dtype=complex)
    b[0, 1] = b[1, 0] = 0.15
    b[2, 2] = 5.0
    assert core.commutator_norm(a, b) <= 1e-8 * (np.linalg.norm(a) + np.linalg.norm(b))
    with pytest.raises(NotCommuting, match="off-diagonal residual"):
        commute.common_eigenbasis(a, b)


def test_common_eigenbasis_rejects_nonnormal_cluster_compression():
    # B is admitted as normal (defect below 1e-8 ||B||_F) and commutes with A
    # exactly, but its block on A's double eigenvalue is not normal relative to
    # its own size; the joint basis would leave an off-diagonal residual below
    # the NotCommuting gate, so only the per-cluster check refuses the pair.
    a = np.diag([1.0, 1.0, 2.0]).astype(complex)
    b = np.zeros((3, 3), dtype=complex)
    b[:2, :2] = [[0.0, 1.0 + 1.5e-8], [1.0, 0.0]]
    b[2, 2] = 5.0
    assert core.normality_defect(b) <= 1e-8 * np.linalg.norm(b)
    with pytest.raises(NotNormal, match="eigenvalue cluster"):
        commute.common_eigenbasis(a, b)


def test_common_eigenbasis_cluster_check_splits_imaginary_parts():
    # as above, with A's clusters 1 + i (double) and 1 - i sharing a real
    # part: B restricted to both is normal enough, so only the split on
    # imaginary parts finds the non-normal block
    a = np.diag([1.0 + 1j, 1.0 + 1j, 1.0 - 1j])
    b = np.zeros((3, 3), dtype=complex)
    b[:2, :2] = [[0.0, 1.0 + 1.5e-8], [1.0, 0.0]]
    b[2, 2] = 5.0
    assert core.normality_defect(b) <= 1e-8 * np.linalg.norm(b)
    with pytest.raises(NotNormal, match="eigenvalue cluster"):
        commute.common_eigenbasis(a, b)


def test_common_eigenbasis_diagonalizes_a_once(monkeypatch):
    calls = {"eig_normal": 0, "joint_diagonalize": 0}
    for name in calls:
        real = getattr(core, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(core, name, counted)
    a, b = commuting_pair(np.random.default_rng(57), 6)
    commute.common_eigenbasis(a, b)
    assert calls == {"eig_normal": 0, "joint_diagonalize": 1}


def _count_member_defects(monkeypatch, members):
    """Count core.normality_defect calls on one of members (admission) and
    on any other matrix (the normality gate of the common Schur basis's
    pencil combination) apart."""
    calls = {"member": 0, "other": 0}
    real = core.normality_defect

    def counted(m):
        calls["member" if any(m is x for x in members) else "other"] += 1
        return real(m)

    monkeypatch.setattr(core, "normality_defect", counted)
    return calls


def test_equivalence_check_admits_a_commuting_pair_once(monkeypatch):
    # the joint-eigenbasis reference reuses the admission's norms and
    # commutator: two normality defects of the members and one commutator
    # in all; the Schur step adds the one defect of its normality gate
    a, b = commuting_pair(np.random.default_rng(58), 7)
    want = commute.equivalence_check(a, b, seed=4)
    defects = _count_member_defects(monkeypatch, (a, b))
    calls = _count_calls(monkeypatch, {"commutator_norm": 0}, core)
    rep = commute.equivalence_check(a, b, seed=4)
    assert defects == {"member": 2, "other": 1}
    assert calls == {"commutator_norm": 1}
    assert rep.commute and rep.consistent and rep.verdict.is_lines
    # the same text as the route through the public common_eigenbasis
    basis = commute.common_eigenbasis(a, b)
    na, nb = core.frobenius(a), core.frobenius(b)
    reference = linegeom.pair_arrangement(basis.diag_a, basis.diag_b, norm_a=na, norm_b=nb)
    distance = linegeom.compare_arrangements(rep.verdict.arrangement, reference)
    assert rep.arrangement_vs_eigenpairs_distance == distance
    assert commute.format_report(rep) == commute.format_report(want)


def _count_calls(monkeypatch, calls, *modules):
    """Count the calls of each function named in calls, through every module
    given that binds it."""
    for name in calls:
        real = getattr(modules[0], name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_equivalence_check_clusters_a_commuting_pair_once(monkeypatch):
    # pencil_verdict clusters the certified lines; the eigenpair cross-check
    # matches them against the joint basis's own rows, unclustered
    a, b = commuting_pair(np.random.default_rng(59), 8)
    calls = _count_calls(monkeypatch, {"cluster_tuples": 0}, linegeom, commute)
    rep = commute.equivalence_check(a, b, seed=3)
    assert rep.commute and rep.consistent and rep.verdict.is_lines
    assert rep.arrangement_vs_eigenpairs_distance <= 1e-12
    assert calls == {"cluster_tuples": 1}


def test_off_curve_witness_is_indeterminate(monkeypatch):
    monkeypatch.setattr(linegeom, "_curvature_witnesses", off_curve_witnesses)
    rep = commute.equivalence_check(PAULI_Z, PAULI_X)
    assert rep.verdict is None and rep.consistent is None
    assert "off the matrix curve" in rep.indeterminate


def _fail_eigh_and_eig(monkeypatch):
    fail_eigh(monkeypatch)
    fail_eig(monkeypatch)


@pytest.mark.parametrize(
    "make, fail, message",
    [
        (commuting_pair, _fail_eigh_and_eig, "pencil eigensolve did not converge"),
        (noncommuting_pair, fail_solve, "eigenvector solve failed"),
    ],
    ids=["schur_basis", "witness_solve"],
)
def test_pencil_eigensolve_failure_is_indeterminate(monkeypatch, make, fail, message):
    # a commuting pair needs only the Schur-basis eigensolves, the Hermitian
    # ones and, when they fail, LAPACK eig; a non-commuting one goes on to
    # the eigenvector solve of its curvature witness
    a, b = make(np.random.default_rng(31), 6)
    fail(monkeypatch)
    rep = commute.equivalence_check(a, b)
    assert rep.commute == (make is commuting_pair)
    assert rep.verdict is None and rep.consistent is None
    assert message in rep.indeterminate


def test_failed_eig_leaves_a_commuting_pair_certified(monkeypatch):
    # the Hermitian route certifies a commuting pair without LAPACK eig
    a, b = commuting_pair(np.random.default_rng(31), 6)
    want = commute.equivalence_check(a, b)
    fail_eig(monkeypatch)
    rep = commute.equivalence_check(a, b)
    assert rep.commute and rep.consistent and rep.verdict.is_lines
    assert rep == want


def test_failed_eigh_is_indeterminate(monkeypatch):
    # an eigh that does not converge sends the common Schur basis to LAPACK
    # eig, which still certifies the lines; the joint eigenbasis of the
    # cross-check has no such route, so the pair and the tuple are
    # indeterminate, and eig_normal raises NoConvergence
    rng = np.random.default_rng(32)
    a, b = commuting_pair(rng, 6)
    mats = commuting_tuple(rng, 5, 3)
    fail_eigh(monkeypatch)
    rep = commute.equivalence_check(a, b)
    assert rep.commute and rep.verdict.is_lines and rep.consistent is None
    assert rep.indeterminate.startswith("Hermitian eigensolve did not converge")
    trep = commute.tuple_test(mats)
    assert trep.commute and trep.hyperplanes is None
    assert all(pair.consistent for _, pair in trep.reports)
    assert trep.indeterminate.startswith("Hermitian eigensolve did not converge")
    with pytest.raises(NoConvergence, match="Hermitian eigensolve did not converge"):
        core.eig_normal(a)


def _count_eigensolves(monkeypatch):
    return _count_calls(monkeypatch, {"eig": 0, "eigh": 0}, np.linalg)


def test_generic_commuting_pair_and_triple_run_two_eigh(monkeypatch):
    # one eigh for the Schur step's pencil combination and one for the
    # first member of the joint eigenbasis: the H pass of each splits every
    # eigenvalue apart, so no later pass runs an eigensolve
    rng = np.random.default_rng(71)
    a, b = commuting_pair(rng, 12)
    mats = commuting_tuple(rng, 10, 3)
    calls = _count_eigensolves(monkeypatch)
    rep = commute.equivalence_check(a, b)
    assert rep.commute and rep.consistent and rep.verdict.is_lines
    assert calls == {"eig": 0, "eigh": 2}
    calls["eigh"] = 0
    trep = commute.tuple_test(mats)
    assert trep.commute and trep.indeterminate is None and trep.hyperplanes is not None
    assert calls == {"eig": 0, "eigh": 2}


@pytest.mark.parametrize("seed", range(20))
def test_real_straddle_is_certified(seed):
    # A's eigenvalues 1 + 2i and 1 + 2i + 6e-8 ||A||_F straddle less than a
    # deflation radius, and B is degenerate on them: the H pass of A merges
    # the two, and the degenerate K and B compressions rotate that block
    # freely. A trailing K pass of A would mix it again; the last pass over
    # the weighted combination separates it, so the joint basis is certified
    base = STRADDLE_BASE.copy()
    base[1] += 6e-8 * np.linalg.norm(base)
    u = random_unitary(np.random.default_rng(seed), 4)
    a = (u * base) @ u.conj().T
    b = (u * np.array([0.5, 0.5, 1.5j, -0.7])) @ u.conj().T
    basis = commute.common_eigenbasis(a, b)
    assert basis.offdiag_residual <= 1e-12 * (np.linalg.norm(a) + np.linalg.norm(b))
    rep = commute.equivalence_check(a, b)
    assert rep.indeterminate is None and rep.commute and rep.consistent and rep.verdict.is_lines
    trep = commute.tuple_test([a, b, a + b])
    assert trep.indeterminate is None and trep.commute and trep.hyperplanes is not None


def test_failed_eig_leaves_a_noncommuting_triple_indeterminate(monkeypatch):
    # the combination of a non-commuting triple is not normal, so its Schur
    # basis needs LAPACK eig; when eig does not converge, every pair runs
    # the check of an admitted pair, whose pencil eig fails as well
    rng = np.random.default_rng(72)
    mats = [random_normal(rng, 5) for _ in range(3)]
    fail_eig(monkeypatch)
    rep = commute.tuple_test(mats)
    assert [ij for ij, _ in rep.reports] == [(0, 1), (0, 2), (1, 2)]
    for _, pair in rep.reports:
        assert not pair.commute and pair.verdict is None and pair.consistent is None
        assert pair.indeterminate.startswith("pencil eigensolve did not converge")
    assert not rep.commute and rep.hyperplanes is None
    assert rep.indeterminate.startswith("pair (0,1): pencil eigensolve did not converge")


@pytest.mark.parametrize("n", [2, 5, 16, 40])
def test_noncommuting_schur_step_runs_one_eig_and_no_eigh(n, monkeypatch):
    # the pencil combination of a non-commuting pair fails the normality
    # gate, so its Schur step pays the gate and one LAPACK eig only
    a, b = noncommuting_pair(np.random.default_rng(900 + n), n)
    norms = (np.linalg.norm(a), np.linalg.norm(b))
    calls = _count_eigensolves(monkeypatch)
    *_, certified = linegeom._schur_diagonals([a, b], linegeom._phases(n, 2), norms, core.Tolerances())
    assert not certified
    assert calls == {"eig": 1, "eigh": 0}


@pytest.mark.parametrize("zero_b", [False, True], ids=["b", "b_zero"])
def test_equal_real_parts_are_split_by_the_skew_pass(zero_b, monkeypatch):
    # A's eigenvalues 1, 1 + i and 1 - 2i share their real part, so with
    # B = 0 the pencil's Hermitian part has a triple eigenvalue, and only
    # the skew pass of the Hermitian route splits it; both pairs are
    # certified without LAPACK eig
    u = random_unitary(np.random.default_rng(33), 4)
    lam = np.array([1, 1 + 1j, 1 - 2j, 3])
    mu = np.zeros(4) if zero_b else np.array([2, 2, 0.5j, 1])
    a, b = ((u * d) @ u.conj().T for d in (lam, mu))
    calls = _count_eigensolves(monkeypatch)
    rep = commute.equivalence_check(a, b)
    assert calls["eig"] == 0
    assert rep.commute and rep.consistent and rep.verdict.is_lines
    assert rep.arrangement_vs_eigenpairs_distance <= 1e-12
    ref = _ref_arrangement(*((l, m, 1) for l, m in zip(lam, mu)))
    assert linegeom.compare_arrangements(rep.verdict.arrangement, ref) <= 1e-12


def _schur_step_only(replacement):
    """core._normal_eigenbasis with replacement on one-member calls (the
    Schur step's pencil combination) and the real rule on the members of a
    joint eigenbasis."""
    real = core._normal_eigenbasis

    def patched(mats, norms):
        return replacement(mats, norms) if len(mats) == 1 else real(mats, norms)

    return patched


def test_refused_hermitian_basis_gives_the_eig_route(monkeypatch):
    # a Hermitian-route basis that neither diagonalizes the pencil nor is
    # certified (the identity) falls back to eig and QR, bit for bit: the
    # same diagonals and lower
    # parts as an explicit eig + QR, and the same report as an eigh that
    # does not converge
    rng = np.random.default_rng(34)
    tol = core.Tolerances()
    for make, n in ((commuting_pair, 6), (commuting_pair, 17), (noncommuting_pair, 6)):
        a, b = make(rng, n)
        norms = (np.linalg.norm(a), np.linalg.norm(b))
        (g,) = linegeom._phases(0, 2)
        q = np.linalg.qr(np.linalg.eig(a + g * b)[1])[0]
        ts = [q.conj().T @ m @ q for m in (a, b)]
        with monkeypatch.context() as m:
            m.setattr(core, "_normal_eigenbasis", _schur_step_only(lambda mats, norms: np.eye(n, dtype=complex)))
            calls = _count_eigensolves(m)
            _, _, diags, lower, _ = linegeom._schur_diagonals([a, b], [g], norms, tol)
            assert calls == {"eig": 1, "eigh": 0}
            identity_route = commute.equivalence_check(a, b)
        assert np.array_equal(diags, np.stack([np.diag(t) for t in ts]))
        assert np.array_equal(lower, [np.linalg.norm(np.tril(t, -1)) / x for t, x in zip(ts, norms)])
        with monkeypatch.context() as m:

            def failing(mats, norms):
                raise NoConvergence("Hermitian eigensolve did not converge")

            m.setattr(core, "_normal_eigenbasis", _schur_step_only(failing))
            assert identity_route == commute.equivalence_check(a, b)
        assert identity_route.consistent and identity_route.verdict.is_lines == (make is commuting_pair)


def test_hermitian_basis_must_diagonalize_the_pencil(monkeypatch):
    # a near-commuting pair whose pencil C passes the normality gate and
    # whose Hermitian eigenbasis passes the tol.line certificate, but leaves
    # C off diagonal by more than tol.normal ||C||_F: close real parts of
    # the eigenvalues of C are split by its Hermitian part alone, which
    # resolves them poorly. The Schur step takes the eig route's basis,
    # bit for bit, whose lower parts are far smaller
    a, b = near_commuting_pair(np.random.default_rng(3), 16, 1e-10)
    tol = core.Tolerances()
    norms = (np.linalg.norm(a), np.linalg.norm(b))
    (g,) = linegeom._phases(0, 2)
    c = a + g * b
    size = np.linalg.norm(c)
    assert core.normality_defect(c) <= tol.normal * size
    u = core._normal_eigenbasis([c], [size])
    t = u.conj().T @ c @ u
    assert np.linalg.norm(t - np.diag(np.diag(t))) > tol.normal * size
    _, hermitian_lower, hermitian_certified = linegeom._triangular_parts(
        [u.conj().T @ m @ u for m in (a, b)], norms, tol
    )
    assert hermitian_certified
    q = np.linalg.qr(np.linalg.eig(c)[1])[0]
    ts = [q.conj().T @ m @ q for m in (a, b)]
    calls = _count_eigensolves(monkeypatch)
    _, _, diags, lower, certified = linegeom._schur_diagonals([a, b], [g], norms, tol)
    assert calls["eig"] == 1 and certified
    assert np.array_equal(diags, np.stack([np.diag(t) for t in ts]))
    assert lower.max() < hermitian_lower.max() / 10


_JORDAN = np.array([[0, 1], [0, 0]], dtype=complex)


def _relative_lower_parts(mats, q):
    return [np.linalg.norm(np.tril(q.conj().T @ m @ q, -1)) / np.linalg.norm(m) for m in mats]


def test_lines_certificate_bounds_the_commutator():
    # for normal A and B and any unitary Q, ||AB - BA||_F is at most
    # K(n) (l_A + l_B) ||A||_F ||B||_F with l the relative strictly lower
    # parts of Q*AQ and Q*BQ and K(n) = 2 (1 + sqrt(n - 1)); _band_refusal
    # refuses exactly up to that bound
    rng = np.random.default_rng(4242)
    tightest = 0.0
    for n in (2, 3, 5, 8, 16, 32, 64):
        pairs = [noncommuting_pair(rng, n), near_commuting_pair(rng, n, 1e-6)]
        pairs.append(near_commuting_pair(rng, n, 1e-10))
        for a, b in pairs:
            m = a + np.exp(2j * np.pi * rng.uniform()) * b
            for q in (random_unitary(rng, n), np.linalg.qr(np.linalg.eig(m)[1])[0]):
                lower = _relative_lower_parts((a, b), q)
                na, nb = np.linalg.norm(a), np.linalg.norm(b)
                cn = np.linalg.norm(a @ b - b @ a)
                band = 2 * (1 + np.sqrt(n - 1)) * sum(lower) * na * nb
                tightest = max(tightest, cn / band)
                assert commute._band_refusal(cn, n, lower, na, nb) is not None, (n, cn, band)
                assert commute._band_refusal(band * (1 + 1e-12), n, lower, na, nb) is None
    print(f"[commutator band] largest ||[A,B]||_F / bound {tightest:.3f}")
    assert tightest <= 1.0


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e4])
def test_commutator_bound_scales_with_the_pair(scale):
    # ||AB - BA||_F is quadratic in a common scale of the pair, so its bound
    # must be too: a scaled non-commuting pair stays non-commuting, and no
    # scale gets a wrong certified verdict
    for n in (4, 12):
        a, b = noncommuting_pair(np.random.default_rng(n), n)
        rep = commute.equivalence_check(scale * a, scale * b)
        assert not rep.commute and rep.consistent is not False, n
        if scale == 1.0:
            assert rep.consistent and not rep.verdict.is_lines
        with pytest.raises(NotCommuting):
            commute.common_eigenbasis(scale * a, scale * b)
    # the Jordan block is admitted as normal only at tiny scales (a
    # normality bound linear in scale), where it must not pass as commuting
    j, jt = scale * 0.1 * _JORDAN, scale * 0.1 * _JORDAN.T
    if scale < 1.0:
        rep = commute.equivalence_check(j, jt)
        assert not rep.commute and rep.consistent is not False
        with pytest.raises(NotCommuting):
            commute.common_eigenbasis(j, jt)
    else:
        with pytest.raises(NotNormal):
            commute.equivalence_check(j, jt)


def _replayed_pair(seed, rounds, n, other=40):
    """The n x n pair of round `rounds` of a generator that draws one
    non-commuting pair at n, then one at `other`, per round; each matrix is
    a random unitary followed by its eigenvalues."""
    rng = np.random.default_rng(seed)

    def draw(size):
        while True:
            mats = []
            for _ in range(2):
                u = random_unitary(rng, size)
                mats.append((u * random_diag_vals(rng, size)) @ u.conj().T)
            a, b = mats
            if np.linalg.norm(a @ b - b @ a) > 0.1:
                return a, b

    for _ in range(rounds):
        draw(n)
        draw(other)
    return draw(n)


def test_interpolated_off_curve_witness_is_not_certified():
    # the interpolated polynomial's witness here has |p| ~ 1e-12 but a
    # relative sigma_min on the matrices of 1.6e-6; the pencil witness must
    # lie on the matrices' own curve
    a, b = _replayed_pair(7373, 10, 32)
    rep = commute.equivalence_check(a, b, seed=32)
    assert not rep.commute
    assert rep.indeterminate is None and rep.consistent
    assert not rep.verdict.is_lines
    z, w = rep.verdict.witness
    smin = np.linalg.svd(np.eye(32) + z * a + w * b, compute_uv=False)[-1]
    sigma = smin / (1 + abs(z) * np.linalg.norm(a) + abs(w) * np.linalg.norm(b))
    assert sigma <= linegeom.WITNESS_SIGMA_REL
    assert rep.verdict.witness_residual == pytest.approx(sigma, rel=1e-6, abs=1e-18)


def test_pair_arrangement_deficit():
    arr = linegeom.pair_arrangement([0.0, 1.0], [0.0, 2.0], norm_a=1.0, norm_b=1.0)
    assert arr.deficit == 1
    assert len(arr.lines) == 1
    assert arr.lines[0][0].lam == pytest.approx(1.0)


def test_pair_arrangement_multiplicity():
    lams, mus = [1.0, 1.0, 2.0], [3.0, 3.0, 4.0]
    arr = linegeom.pair_arrangement(lams, mus, norm_a=np.linalg.norm(lams), norm_b=np.linalg.norm(mus))
    mults = sorted(m for _, m in arr.lines)
    assert mults == [1, 2]
    assert arr.deficit == 0


def test_tuple_diagonal_triple():
    mats = [np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.diag([5.0, 6.0])]
    rep = commute.tuple_test(mats)
    assert rep.commute
    assert rep.indeterminate is None
    assert len(rep.reports) == 3
    assert all(r.consistent for _, r in rep.reports)
    planes = sorted(rep.hyperplanes, key=lambda t: t[0][0].real)
    assert len(planes) == 2
    assert planes[0][0] == pytest.approx((1.0, 3.0, 5.0))
    assert planes[1][0] == pytest.approx((2.0, 4.0, 6.0))
    assert rep.deficit == 0


def test_tuple_pauli_fails():
    rep = commute.tuple_test([PAULI_Z, PAULI_X, PAULI_Z])
    assert not rep.commute
    assert rep.hyperplanes is None
    by_pair = dict(rep.reports)
    assert not by_pair[(0, 1)].commute
    assert by_pair[(0, 2)].commute
    assert all(r.consistent for _, r in rep.reports)


def test_tuple_singleton():
    a = np.diag([1.0, 2.0]).astype(complex)
    rep = commute.tuple_test([a])
    assert rep.commute
    assert rep.reports == []
    planes = sorted(rep.hyperplanes, key=lambda t: t[0][0].real)
    assert [p[0][0] for p in planes] == pytest.approx([1.0, 2.0])


def test_tuple_deficit():
    rep = commute.tuple_test([np.diag([0.0, 1.0]), np.diag([0.0, 2.0])])
    assert rep.commute
    assert rep.deficit == 1
    assert len(rep.hyperplanes) == 1


def test_tuple_joint_basis_diagonalizes_all():
    rng = np.random.default_rng(59)
    u = random_unitary(rng, 5)
    mats = [(u * (rng.uniform(0.5, 1.5, 5) * np.exp(2j * np.pi * rng.uniform(0, 1, 5)))) @ u.conj().T for _ in range(3)]
    rep = commute.tuple_test(mats)
    assert rep.commute
    v = rep.unitary
    for k, m in enumerate(mats):
        t = v.conj().T @ m @ v
        off = t - np.diag(np.diag(t))
        assert np.linalg.norm(off) <= 1e-7 * (1 + np.linalg.norm(m))
        assert np.abs(np.diag(t) - rep.diagonals[k]).max() <= 1e-12


def test_tuple_inconsistent_pair_is_indeterminate(monkeypatch):
    # a refused tuple basis sends each pair through the check of an
    # admitted pair that equivalence_check runs
    refuse_common_schur_basis(monkeypatch)
    monkeypatch.setattr(commute, "_check_pair", inconsistent_report)
    rep = commute.tuple_test([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
    assert rep.indeterminate.startswith("pair (0,1):")
    assert rep.hyperplanes is None


def test_tuple_joint_basis_above_the_offdiagonal_gate_is_indeterminate(monkeypatch):
    # every pair commutes and the Schur basis certifies them, but a joint
    # basis that leaves the members far from diagonal must not give
    # hyperplanes
    mats = commuting_tuple(np.random.default_rng(89), 5, 3)
    monkeypatch.setattr(core, "joint_diagonalize", lambda mats, radii: np.eye(5, dtype=complex))
    rep = commute.tuple_test(mats)
    assert rep.commute and rep.hyperplanes is None
    assert all(pair.commute and pair.consistent for _, pair in rep.reports)
    assert rep.indeterminate.startswith("joint diagonalization left off-diagonal residual")
    assert rep.indeterminate.endswith("the members commute only approximately")


def test_tuple_joint_basis_checks_cluster_compressions():
    # the pair of test_common_eigenbasis_rejects_nonnormal_cluster_compression
    # as a tuple: its Schur basis certifies lines, and the joint basis
    # refuses it as common_eigenbasis does
    a = np.diag([1.0, 1.0, 2.0]).astype(complex)
    b = np.zeros((3, 3), dtype=complex)
    b[:2, :2] = [[0.0, 1.0 + 1.5e-8], [1.0, 0.0]]
    b[2, 2] = 5.0
    rep = commute.tuple_test([a, b])
    assert rep.hyperplanes is None
    assert "compressed member 1 on an eigenvalue cluster of member 0" in rep.indeterminate
    assert "eigenvalue cluster" in commute.equivalence_check(a, b).indeterminate


def test_tuple_validation():
    with pytest.raises(ValueError):
        commute.tuple_test([])
    with pytest.raises(DimMismatch):
        commute.tuple_test([np.eye(2), np.eye(3)])


def test_tuple_drops_constant_factors_as_the_pair_does():
    # each member's entries are measured against that member's own norm, as
    # pair_arrangement does, so rescaling one member changes nothing
    a = np.diag([1e-3, 1e-13])
    b = np.diag([1e3, 1e-10])
    pair = commute.equivalence_check(a, b).verdict.arrangement
    assert (len(pair.lines), pair.deficit) == (2, 0)
    for mats in ([a, b], [1e6 * a, b], [a, 1e-6 * b]):
        rep = commute.tuple_test(mats)
        assert rep.commute and rep.indeterminate is None
        assert (len(rep.hyperplanes), rep.deficit) == (2, 0)


def _hermitian_members(rng, n, k):
    """k commuting Hermitian matrices U diag(d_i) U*, symmetrized so that
    each is exactly Hermitian, hence of normality defect 0 at every scale,
    whose joint eigenvalues repeat over one shared set of clusters."""
    u = random_unitary(rng, n)
    clusters = rng.integers(0, max(1, n // 2), n)
    mats = []
    for _ in range(k):
        m = (u * rng.uniform(-1.5, 1.5, n)[clusters]) @ u.conj().T
        mats.append((m + m.conj().T) / 2)
    return mats


def _multiplicities(arrangement):
    return sorted(m for _, m in arrangement.lines), arrangement.deficit


@pytest.mark.parametrize("c", [1e-12, 1e-7, 1e7, 1e12])
def test_line_multiplicities_are_scale_free(c):
    # joint and separate scaling keep the multiplicities of c = 1; the
    # absolute 1 of the cluster radius used to merge distinct lines once
    # the pair was small enough, or one member large enough. The Hermitian
    # members share their eigenvalue clusters, and the identity's partners
    # are diagonal, so the Schur basis of the unweighted pencil resolves
    # them at every scale
    rng = np.random.default_rng(860)
    for n in (2, 3, 5, 9, 16, 33):
        a, b, m = _hermitian_members(rng, n, 3)
        diagonal = (np.eye(n, dtype=complex), np.diag(np.diag(b)), np.diag(np.diag(m)))
        for x, y, z in ((a, b, m), diagonal):
            pair = _multiplicities(commute.equivalence_check(x, y).verdict.arrangement)
            hyper = sorted(k for _, k in commute.tuple_test([x, y, z]).hyperplanes)
            for p, q in ((c * x, c * y), (c * x, y), (x, c * y)):
                rep = commute.equivalence_check(p, q)
                assert rep.consistent and _multiplicities(rep.verdict.arrangement) == pair, (n, c)
            for mats in ([c * x, c * y, c * z], [c * x, y, z], [x, y, c * z], [x, c * y, z / c]):
                rep = commute.tuple_test(mats)
                assert rep.indeterminate is None, (n, c, rep.indeterminate)
                assert sorted(k for _, k in rep.hyperplanes) == hyper, (n, c)
                assert _multiplicities(rep.reports[0][1].verdict.arrangement) == pair, (n, c)
        assert max(_multiplicities(commute.equivalence_check(a, b).verdict.arrangement)[0]) > 1 or n == 2


@pytest.mark.parametrize("k", [2, 3, 4])
def test_commuting_tuple_is_certified_by_one_schur_basis(k, monkeypatch):
    calls = {"eig": 0, "equivalence_check": 0, "common_eigenbasis": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "eig")
    counted(commute, "equivalence_check")
    counted(commute, "common_eigenbasis")
    rng = np.random.default_rng(800 + k)
    for n in (2, 3, 8, 17, 33, 64):
        mats = commuting_tuple(rng, n, k)
        before = dict(calls)
        rep = commute.tuple_test(mats, seed=n)
        assert calls["eig"] - before["eig"] == 0, n
        assert calls["equivalence_check"] == calls["common_eigenbasis"] == 0
        assert rep.commute and rep.indeterminate is None
        assert len(rep.reports) == k * (k - 1) // 2
        for _, pair in rep.reports:
            assert pair.commute and pair.consistent and pair.verdict.is_lines
            assert pair.verdict.arrangement.total_multiplicity() == n
        assert rep.deficit == 0 and sum(m for _, m in rep.hyperplanes) == n
        assert rep.schur_vs_hyperplanes_distance <= 1e-6


def test_certified_tuple_reports_a_commutator_that_disagrees():
    # no pair commutes within 1e-300 of its norms, while the tuple's Schur
    # basis still certifies every pair's lines; the commutator is within
    # what that certificate allows, so the pair is indeterminate, as
    # equivalence_check reports it
    a, b = commuting_pair(np.random.default_rng(83), 5)
    tol = core.Tolerances().override(commute=1e-300)
    rep = commute.tuple_test([a, b], tol=tol)
    assert rep.indeterminate.startswith("pair (0,1): commutator norm")
    assert "it cannot separate this pair from a commuting one" in rep.indeterminate
    assert rep.hyperplanes is None
    (_, pair), = rep.reports
    assert not pair.commute and pair.verdict is None and pair.consistent is None
    assert pair == commute.equivalence_check(a, b, tol=tol)


def test_refused_tuple_tests_each_pair_as_equivalence_check_does():
    rng = np.random.default_rng(87)
    a, b = commuting_pair(rng, 6)
    c = random_normal(rng, 6)
    mats = [a, b, c]
    rep = commute.tuple_test(mats, seed=5)
    assert not rep.commute and rep.indeterminate is None
    assert [ij for ij, _ in rep.reports] == [(0, 1), (0, 2), (1, 2)]
    for (i, j), pair in rep.reports:
        assert pair == commute.equivalence_check(mats[i], mats[j], seed=5)
    by_pair = dict(rep.reports)
    assert by_pair[(0, 1)].commute and not by_pair[(0, 2)].commute


def test_refused_tuple_admits_each_member_once(monkeypatch):
    # the triple of the test above: its Schur basis is refused, so each pair
    # is checked on its own, with the members' admission norms
    rng = np.random.default_rng(87)
    a, b = commuting_pair(rng, 6)
    c = random_normal(rng, 6)
    defects = _count_member_defects(monkeypatch, (a, b, c))
    calls = _count_calls(monkeypatch, {"commutator_norm": 0}, core)
    rep = commute.tuple_test([a, b, c], seed=5)
    assert not rep.commute and rep.indeterminate is None
    # one gate defect for the tuple's Schur step and one for each pair's
    assert defects == {"member": 3, "other": 1 + 3}
    assert calls == {"commutator_norm": 3}


def test_restriction_eigenplane():
    # restrict a commuting diagonal pair to the first two coordinates
    a = np.diag([1.0, 2.0, 5.0]).astype(complex)
    b = np.diag([3.0, 4.0, 6.0]).astype(complex)
    w = np.eye(3, dtype=complex)[:, :2]
    rep = commute.restriction_check(a, b, w)
    assert rep.commute and rep.consistent
    ref = _ref_arrangement((1, 3, 1), (2, 4, 1))
    assert linegeom.compare_arrangements(rep.verdict.arrangement, ref) <= 1e-8


def test_restriction_basis_forms():
    # one vector as a 1-D array, and a plane as a (k, n) sequence of row
    # vectors, read as the columns they are
    a = np.diag([1.0, 2.0, 5.0]).astype(complex)
    b = np.diag([3.0, 4.0, 6.0]).astype(complex)
    e = np.eye(3, dtype=complex)
    rep = commute.restriction_check(a, b, e[1])
    assert rep.commute and rep.consistent
    assert linegeom.compare_arrangements(rep.verdict.arrangement, _ref_arrangement((2, 4, 1))) <= 1e-8
    rows = commute.restriction_check(a, b, [e[0], e[1]])
    assert commute.format_report(rows) == commute.format_report(commute.restriction_check(a, b, e[:, :2]))


def test_restriction_full_space_matches_equivalence():
    rng = np.random.default_rng(61)
    a, b = commuting_pair(rng, 3)
    full = commute.equivalence_check(a, b)
    rep = commute.restriction_check(a, b, np.eye(3))
    assert rep.commute == full.commute
    assert rep.verdict.is_lines == full.verdict.is_lines
    d = linegeom.compare_arrangements(rep.verdict.arrangement, full.verdict.arrangement)
    assert d <= 1e-8


def test_restriction_validation():
    a = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(ValueError):
        commute.restriction_check(a, a, np.zeros((2, 0)))
    # not orthonormal
    w = np.array([[1.0], [1.0]])
    with pytest.raises(ValueError):
        commute.restriction_check(a, a, w)


def test_restriction_not_invariant():
    # e1 is not invariant under sigma_x
    w = np.array([[1.0], [0.0]])
    with pytest.raises(NotInvariant):
        commute.restriction_check(PAULI_X, np.eye(2), w)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-12])
def test_restriction_invariance_bound_scales_with_the_pair(scale):
    # the leak of e1 under scale * sigma_x is scale itself, so span(e1) is
    # not invariant at any scale; the bound must shrink with the matrices
    w = np.array([[1.0], [0.0]])
    with pytest.raises(NotInvariant):
        commute.restriction_check(scale * PAULI_X, scale * np.eye(2), w)
    # two joint eigenvectors of a commuting pair span an invariant plane at
    # every scale
    rng = np.random.default_rng(67)
    u = random_unitary(rng, 4)
    a = (u * random_diag_vals(rng, 4)) @ u.conj().T
    b = (u * random_diag_vals(rng, 4)) @ u.conj().T
    rep = commute.restriction_check(scale * a, scale * b, u[:, :2])
    assert rep.commute and rep.consistent and rep.verdict.is_lines


@pytest.mark.parametrize("n", [2, 4, 7, 10])
def test_mini_battery(n):
    rng = np.random.default_rng(900 + n)
    for trial in range(3):
        a, b = commuting_pair(rng, n)
        rep = commute.equivalence_check(a, b, seed=trial)
        assert rep.indeterminate is None
        assert rep.commute and rep.consistent
        assert rep.arrangement_vs_eigenpairs_distance <= 1e-6
        a, b = noncommuting_pair(rng, n)
        rep = commute.equivalence_check(a, b, seed=trial)
        assert rep.indeterminate is None
        assert (not rep.commute) and rep.consistent


def test_format_report_lines():
    b = np.array([[1, 2], [2, 1]], dtype=complex)
    rep = commute.equivalence_check(PAULI_X, b)
    text = commute.format_report(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "commute=true"
    assert lines[1].startswith("commutator_norm=")
    assert lines[2] == "verdict=lines"
    assert lines[3] == "consistent=true"
    assert lines[4].startswith("arrangement_vs_eigenpairs_distance=")
    assert lines[5] == "deficit=0"
    assert lines[6].startswith("lines=lines 2")
    # the embedded arrangement block parses back
    arr_text = text.split("lines=", 1)[1]
    arr = linegeom.parse_arrangement(arr_text)
    assert arr.total_multiplicity() == 2


def test_format_report_notlines():
    rep = commute.equivalence_check(PAULI_Z, PAULI_X)
    text = commute.format_report(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "commute=false"
    assert lines[2] == "verdict=notlines"
    assert lines[3] == "consistent=true"
    assert any(l.startswith("witness_z=") for l in lines)
    assert any(l.startswith("witness_w=") for l in lines)
    assert any(l.startswith("witness_residual=") for l in lines)
    zline = next(l for l in lines if l.startswith("witness_z="))
    core.parse_complex(zline.split("=", 1)[1])


def test_format_report_indeterminate():
    rep = commute.EquivalenceReport(
        True, 0.0, None, None, indeterminate="could not certify\nanything"
    )
    text = commute.format_report(rep)
    lines = text.strip().splitlines()
    assert lines[2] == "verdict=indeterminate"
    assert lines[3] == "consistent=indeterminate"
    assert lines[4] == "indeterminate=could not certify anything"
