import numpy as np
import pytest

from projspec import commute, core, linegeom
from projspec.errors import DimMismatch, NotCommuting, NotInvariant, NotNormal
from projspec.linegeom import Line, LineArrangement

from helpers import (
    PAULI_X,
    PAULI_Z,
    commuting_pair,
    fail_batched_eigvals,
    inconsistent_report,
    noncommuting_pair,
    off_curve_witnesses,
    random_diag_vals,
    random_normal,
    random_unitary,
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


def test_off_curve_witness_is_indeterminate(monkeypatch):
    monkeypatch.setattr(linegeom, "_ray_witnesses", off_curve_witnesses)
    rep = commute.equivalence_check(PAULI_Z, PAULI_X)
    assert rep.verdict is None and rep.consistent is None
    assert "off the matrix curve" in rep.indeterminate


@pytest.mark.parametrize("solved", [0, 1], ids=["pencil_spectra", "directions"])
def test_pencil_eigensolve_failure_is_indeterminate(monkeypatch, solved):
    a, b = commuting_pair(np.random.default_rng(31), 6)
    fail_batched_eigvals(monkeypatch, after=solved)
    rep = commute.equivalence_check(a, b)
    assert rep.commute
    assert rep.verdict is None and rep.consistent is None
    assert "did not converge" in rep.indeterminate


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


def test_eigenpair_arrangement_deficit():
    arr = commute.eigenpair_arrangement([0.0, 1.0], [0.0, 2.0], norm_a=1.0, norm_b=1.0)
    assert arr.deficit == 1
    assert len(arr.lines) == 1
    assert arr.lines[0][0].lam == pytest.approx(1.0)


def test_eigenpair_arrangement_multiplicity():
    arr = commute.eigenpair_arrangement([1.0, 1.0, 2.0], [3.0, 3.0, 4.0])
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
    monkeypatch.setattr(commute, "equivalence_check", inconsistent_report)
    rep = commute.tuple_test([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
    assert rep.indeterminate.startswith("pair (0,1):")
    assert rep.hyperplanes is None


def test_tuple_validation():
    with pytest.raises(ValueError):
        commute.tuple_test([])
    with pytest.raises(DimMismatch):
        commute.tuple_test([np.eye(2), np.eye(3)])


def test_restriction_eigenplane():
    # restrict a commuting diagonal pair to the first two coordinates
    a = np.diag([1.0, 2.0, 5.0]).astype(complex)
    b = np.diag([3.0, 4.0, 6.0]).astype(complex)
    w = np.eye(3, dtype=complex)[:, :2]
    rep = commute.restriction_check(a, b, w)
    assert rep.commute and rep.consistent
    ref = _ref_arrangement((1, 3, 1), (2, 4, 1))
    assert linegeom.compare_arrangements(rep.verdict.arrangement, ref) <= 1e-8


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
