import dataclasses
import math

import numpy as np
import pytest

import projspec
from projspec import commute, core, detpoly, linegeom, riesz
from projspec.errors import DimMismatch, NoConvergence, NotNormal, ParseError

import helpers
from helpers import (
    PAULI_X,
    PAULI_Z,
    STRADDLE_BASE,
    answers_module,
    commuting_pair,
    random_normal,
    random_unitary,
    reference_eig_normal,
    reference_joint_diagonalize,
    reference_normal_eigenbasis,
    separated_vals,
)


def test_normality_defect_diagonal():
    assert core.normality_defect(np.diag([1.0, 1j])) == 0.0


def test_normality_defect_nilpotent():
    # A*A - AA* = diag(1, -1) for the 2x2 shift
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    assert core.normality_defect(a) == pytest.approx(math.sqrt(2))


def test_normality_defect_hermitian():
    a = np.array([[2, 1 - 1j], [1 + 1j, 3]], dtype=complex)
    assert core.normality_defect(a) <= 1e-14


def test_commutator_norm_pauli():
    # [sigma_z, sigma_x] = 2i sigma_y, Frobenius norm 2*sqrt(2)
    assert core.commutator_norm(PAULI_Z, PAULI_X) == pytest.approx(2 * math.sqrt(2))


def test_commutator_norm_diagonal_zero():
    assert core.commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0


def test_commutator_norm_powers():
    rng = np.random.default_rng(3)
    a = random_normal(rng, 5)
    assert core.commutator_norm(a, a @ a) <= 1e-12


def test_commutator_norm_symmetric_in_arguments():
    rng = np.random.default_rng(4)
    a = random_normal(rng, 4)
    b = random_normal(rng, 4)
    assert core.commutator_norm(a, b) == pytest.approx(core.commutator_norm(b, a))


def test_commutator_norm_dim_mismatch():
    with pytest.raises(DimMismatch):
        core.commutator_norm(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_eig_symmetric_2x2():
    a = np.array([[1, 2], [2, 1]], dtype=complex)
    dec = core.eig_normal(a)
    assert dec.values == pytest.approx([3.0, -1.0])
    # eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2 up to phase
    t0 = np.array([1, 1]) / math.sqrt(2)
    t1 = np.array([1, -1]) / math.sqrt(2)
    assert abs(t0 @ dec.unitary[:, 0]) == pytest.approx(1.0)
    assert abs(t1 @ dec.unitary[:, 1]) == pytest.approx(1.0)


def test_eig_ordering_modulus_then_arg():
    dec = core.eig_normal(np.diag([1 + 1j, 3.0]))
    assert dec.values == pytest.approx([3.0, 1 + 1j])
    # equal modulus: argument ascending
    dec = core.eig_normal(np.diag([-1.0, 1.0]))
    assert dec.values == pytest.approx([1.0, -1.0])


def test_eig_rejects_nonnormal():
    with pytest.raises(NotNormal):
        core.eig_normal(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_residual_gate():
    # admitted by a loose normality tolerance, but no unitary diagonalizes it
    a = np.array([[1.0, 1e-3], [0.0, 1.1]], dtype=complex)
    with pytest.raises(NoConvergence):
        core.eig_normal(a, tol=core.Tolerances(normal=1e-3))


def test_eig_zero_matrix():
    dec = core.eig_normal(np.zeros((3, 3), dtype=complex))
    assert np.all(dec.values == 0)
    assert np.linalg.norm(dec.unitary - np.eye(3)) == 0.0


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_eig_random_normal_roundtrip(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        a = random_normal(rng, n)
        dec = core.eig_normal(a)
        norm = np.linalg.norm(a)
        recon = (dec.unitary * dec.values) @ dec.unitary.conj().T
        assert np.linalg.norm(a - recon) <= 1e-10 * norm
        assert np.linalg.norm(dec.unitary.conj().T @ dec.unitary - np.eye(n)) <= 1e-10
        assert dec.residual <= 1e-9 * norm


def test_eig_degenerate_clusters():
    rng = np.random.default_rng(42)
    u = random_unitary(rng, 4)
    vals = np.array([2.0, 2.0, 2.0j, -1.0])
    a = (u * vals) @ u.conj().T
    dec = core.eig_normal(a)
    assert sorted(np.round(dec.values, 8).tolist(), key=lambda z: (z.real, z.imag)) == (
        sorted(np.round(vals, 8).tolist(), key=lambda z: (z.real, z.imag))
    )


def _offdiag(v, m):
    t = v.conj().T @ m @ v
    return np.linalg.norm(t - np.diag(np.diag(t)))


def _repeated_triple():
    # every member is degenerate, but the joint eigenvalue triples are distinct
    rng = np.random.default_rng(61)
    u = random_unitary(rng, 6)
    diags = [
        np.array([1, 1, 1, 2, 2, 2], dtype=complex),
        0.5 + 1j * np.array([3, 3, 4, 4, 5, 5]),
        np.array([-1, 6, -1, 6, -1, 6], dtype=complex),
    ]
    return [(u * d) @ u.conj().T for d in diags]


def test_joint_diagonalize_triple_with_repeated_eigenvalues():
    mats = _repeated_triple()
    parts = [p for m in mats for p in core.hermitian_parts(m)]
    radii = [core.DEFLATION_CLUSTER_REL * np.linalg.norm(m) for m in mats for _ in range(2)]
    v = core.joint_diagonalize(parts, radii)
    assert np.linalg.norm(v.conj().T @ v - np.eye(6)) <= 1e-12
    for m in mats:
        assert _offdiag(v, m) <= 1e-12 * np.linalg.norm(m)
    joint = np.round([np.diag(v.conj().T @ m @ v) for m in mats], 8)
    assert len({tuple(col) for col in joint.T}) == 6


def test_joint_diagonalize_trailing_pass_fixes_straddle():
    # Two eigenvalues share their imaginary part and have real parts 0.6
    # cluster radii apart: the H pass merges them, and the degenerate K
    # compression then rotates the merged block freely, mixing the two H
    # eigenvectors. A trailing H pass, or the last pass over the weighted
    # combination that joint_diagonalize runs on the block left wide,
    # separates them again.
    base = np.array([1 + 2j, 1 + 2j, -3 + 0.5j, 2 - 1j])
    base[1] += 0.6 * core.DEFLATION_CLUSTER_REL * np.linalg.norm(base)
    without_trailing = []
    for seed in range(20):
        u = random_unitary(np.random.default_rng(seed), 4)
        a = (u * base) @ u.conj().T
        fa = np.linalg.norm(a)
        h, k = core.hermitian_parts(a)
        radius = core.DEFLATION_CLUSTER_REL * fa
        v = core.joint_diagonalize([h, k, h], [radius] * 3)
        assert _offdiag(v, a) <= 1e-12 * fa
        dec = core.eig_normal(a)
        assert dec.residual <= 1e-12 * fa
        assert sorted(dec.values.tolist(), key=lambda z: (z.real, z.imag)) == pytest.approx(
            sorted(base.tolist(), key=lambda z: (z.real, z.imag)), abs=1e-12
        )
        v = core.joint_diagonalize([h, k], [radius] * 2)
        without_trailing.append(_offdiag(v, a) / fa)
    # without the trailing H pass, the last pass over the weighted
    # combination of the block left wide separates them as well
    assert max(without_trailing) <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_eig_normal_separates_an_imaginary_straddle(seed):
    # equal real parts and imaginary parts 6e-9 ||A||_F apart: the H pass
    # merges the two, and K does not split them within its radius. A
    # trailing H pass, degenerate on that block, would rotate it freely and
    # undo K's separation; the last pass over the weighted combination keeps it
    base = STRADDLE_BASE.copy()
    base[1] += 6e-9j * np.linalg.norm(base)
    u = random_unitary(np.random.default_rng(seed), 4)
    a = (u * base) @ u.conj().T
    dec = core.eig_normal(a)
    assert dec.residual <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("gap", [1.2e-8, 2e-8, 5e-8, 1.2e-7, 3e-7])
def test_eig_normal_close_real_parts(gap):
    # two eigenvalues 0.8 apart in their imaginary parts whose real parts
    # are gap ||A||_F apart, near the deflation radius: the shape of a
    # matrix on which eig_normal left a residual above its tol.eig gate
    for seed in range(10):
        for n in (8, 16, 40):
            rng = np.random.default_rng(seed)
            vals = rng.uniform(0.5, 1.2, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
            u = random_unitary(rng, n)
            vals[1] = vals[0].real + gap * np.linalg.norm(vals) + 1j * (vals[0].imag - 0.8)
            a = (u * vals) @ u.conj().T
            dec = core.eig_normal(a)
            assert dec.residual <= 1e-9 * np.linalg.norm(a)


def test_eig_normal_of_a_generic_matrix_runs_one_eigh(monkeypatch):
    # the H pass splits distinct real parts into blocks of one column, so
    # neither the K pass nor the last pass runs an eigensolve
    a = random_normal(np.random.default_rng(12), 12)
    real = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda x: calls.append(x.shape) or real(x))
    core.eig_normal(a)
    assert calls == [(12, 12)]


def _deflation_family(name):
    """Lists of commuting normal members on which the cluster deflation is
    pinned byte for byte to the index-array reference."""
    rng = np.random.default_rng(2101)
    if name == "generic":
        return [list(commuting_pair(rng, n)) for n in (2, 5, 16, 33)]
    if name == "clustered":
        # rounded real spectra: clusters in the Hermitian and skew parts
        cases = []
        for n in (3, 8, 20):
            u = random_unitary(rng, n)
            a = np.round(rng.uniform(-2, 2, n)) + 1j * np.round(rng.uniform(-2, 2, n))
            cases.append([(u * a) @ u.conj().T, (u * np.round(rng.uniform(-1, 1, n))) @ u.conj().T])
        return cases
    if name == "straddle":
        cases = []
        for factor in (0.9, 1.0, 1.1, 1.5):
            for shift in (1.0, 1j):
                base = STRADDLE_BASE.copy()
                base[1] += factor * shift * core.DEFLATION_CLUSTER_REL * np.linalg.norm(base)
                for seed in range(3):
                    u = random_unitary(np.random.default_rng(seed), 4)
                    cases.append([(u * base) @ u.conj().T])
        return cases
    if name == "triple":
        return [_repeated_triple()]
    if name == "negative-zero":
        # Hermitian members whose mirrored entries have real part -0.0, the
        # first of them under the diagonal, where the first Householder
        # reflector of eigh reads its sign
        cases = []
        for n in (3, 6, 11):
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (h + h.conj().T) / 2
            for i, j in ((1, 0), (n - 1, 1)):
                h[i, j] = complex(-0.0, h[i, j].imag)
                h[j, i] = complex(-0.0, h[j, i].imag)
            cases += [[h], [h, 1j * h]]
        diagonal = np.diag(rng.uniform(-1, 1, 5) + 0j)
        diagonal[~np.eye(5, dtype=bool)] = complex(-0.0, -0.0)
        return cases + [[diagonal]]
    # diagonal members: exact zeros in every part and in every eigenvector
    return [
        [np.diag(np.round(rng.uniform(-2, 2, n)) + 1j * np.round(rng.uniform(-2, 2, n))) for _ in range(2)]
        for n in (1, 4, 12)
    ] + [[np.diag(rng.uniform(-1, 1, 9) + 0j)], [np.eye(3, dtype=complex)]]


def _outcome(f):
    """f()'s arrays as bytes, or its exception's type."""
    try:
        out = f()
    except NoConvergence:
        return NoConvergence
    if isinstance(out, core.EigenDecomposition):
        return out.values.tobytes(), out.unitary.tobytes(), out.residual
    return out.tobytes()


@pytest.mark.parametrize("family", ["generic", "clustered", "straddle", "triple", "negative-zero", "diagonal"])
def test_deflation_keeps_the_index_array_bytes(monkeypatch, family):
    # contiguous column ranges, the first eigh taken whole (with V += 0.0
    # for its signed zeros) and the passes stopped once no range is left
    # give the bytes of the index-array deflation, signed zeros included
    for mats in _deflation_family(family):
        norms = [np.linalg.norm(m) for m in mats]
        parts = [p for m in mats for p in core.hermitian_parts(m)]
        radii = [core.DEFLATION_CLUSTER_REL * norm for norm in norms for _ in range(2)]
        assert _outcome(lambda: core.joint_diagonalize(parts, radii)) == _outcome(
            lambda: reference_joint_diagonalize(parts, radii)
        )
        assert _outcome(lambda: core._normal_eigenbasis(mats, norms)) == _outcome(
            lambda: reference_normal_eigenbasis(mats, norms)
        )
        got = [_outcome(lambda: core.eig_normal(m)) for m in mats]
        with monkeypatch.context() as patch:
            patch.setattr(core, "joint_diagonalize", reference_joint_diagonalize)
            assert got == [_outcome(lambda: core.eig_normal(m)) for m in mats]


def test_block_diagonal_members_keep_the_index_array_values(monkeypatch):
    # exact zero blocks: the reference's identity product V = I W keeps a
    # few of eigh's negative zeros, depending on the BLAS kernel, where
    # V += 0.0 clears them all; so here only the values are pinned (with
    # OpenBLAS on x86-64, the bytes of the n = 7 bases differ at this seed)
    rng = np.random.default_rng(2103)
    for n in (3, 7, 12):
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        a = np.zeros((n, n), dtype=complex)
        for k in range(0, n, 3):
            u = random_unitary(rng, min(3, n - k))
            a[k : k + 3, k : k + 3] = (u * vals[k : k + 3]) @ u.conj().T
        for mats in ([a], [a, a @ a]):
            norms = [np.linalg.norm(m) for m in mats]
            assert np.array_equal(core._normal_eigenbasis(mats, norms), reference_normal_eigenbasis(mats, norms))
        got = core.eig_normal(a)
        with monkeypatch.context() as patch:
            patch.setattr(core, "joint_diagonalize", reference_joint_diagonalize)
            want = core.eig_normal(a)
        assert np.array_equal(got.values, want.values) and np.array_equal(got.unitary, want.unitary)
        assert got.residual == want.residual


def _count_eigh(monkeypatch):
    real = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda x: calls.append(x.shape) or real(x))
    return calls


def test_equivalence_check_of_a_generic_pair_runs_two_whole_eighs(monkeypatch):
    # one eigh of the pencil combination's Hermitian part (the Schur step)
    # and one of A's (the joint eigenbasis): each splits every column off
    a, b = commuting_pair(np.random.default_rng(2102), 16)
    calls = _count_eigh(monkeypatch)
    report = commute.equivalence_check(a, b)
    assert report.consistent
    assert calls == [(16, 16), (16, 16)]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_k_fold_eigenvalue_leaves_only_k_by_k_eighs(monkeypatch, k):
    # the first eigh is the whole matrix; every later one is the k-fold
    # cluster's compression, and no eigh runs on a block of one column
    rng = np.random.default_rng(2103 + k)
    vals = separated_vals(rng, 12)
    vals[:k] = vals[0]
    a = random_normal(rng, 12, vals)
    calls = _count_eigh(monkeypatch)
    dec = core.eig_normal(a)
    assert dec.residual <= 1e-12 * np.linalg.norm(a)
    assert calls[0] == (12, 12) and len(calls) > 1
    assert all(shape == (k, k) for shape in calls[1:])


def test_eig_normal_keeps_the_per_scalar_order_on_ties():
    # one stable lexsort on the moduli (np.hypot of the parts, as the
    # scalar abs rounds them) and the arguments in [0, 2pi) gives the
    # reference's order, exact and last-bit ties and signed zeros included
    for label, a in answers_module().tie_heavy(helpers):
        assert _outcome(lambda: core.eig_normal(a)) == _outcome(lambda: reference_eig_normal(a)), label


def _with_one_by_one_return(real):
    """joint_diagonalize with an early return of np.ones((1, 1)) for n = 1."""

    def joint_diagonalize(hermitian_mats, radii):
        if hermitian_mats[0].shape[0] == 1:
            return np.ones((1, 1), dtype=np.complex128)
        return real(hermitian_mats, radii)

    return joint_diagonalize


def test_one_by_one_inputs_need_no_early_return(monkeypatch):
    # eigh of a 1x1 block and V += 0.0 give the bytes of np.ones((1, 1)),
    # so every 1x1 answer is the one an early return gave
    answers = answers_module()
    env = {"projspec": projspec}
    for x in answers.ONE_BY_ONE:
        a = np.full((1, 1), x)
        v = core.joint_diagonalize(list(core.hermitian_parts(a)), [core.DEFLATION_CLUSTER_REL * core.frobenius(a)] * 2)
        assert v.tobytes() == np.ones((1, 1), dtype=np.complex128).tobytes()
    got = [answers.canon(value) for _, value in answers.one_by_one(env)]
    with monkeypatch.context() as patch:
        patch.setattr(core, "joint_diagonalize", _with_one_by_one_return(core.joint_diagonalize))
        assert [answers.canon(value) for _, value in answers.one_by_one(env)] == got


def test_eig_normal_of_an_underflowing_norm_returns_zero():
    # ||[[1e-300]]||_F underflows to 0; the fa == 0 guard returns the
    # eigenvalue 0 and the identity, where the eigenbasis would give 1e-300
    dec = core.eig_normal([[1e-300]])
    assert core.frobenius([[1e-300]]) == 0.0
    assert dec.values.tobytes() == np.zeros(1, dtype=np.complex128).tobytes()
    assert dec.unitary.tobytes() == np.eye(1, dtype=np.complex128).tobytes()
    assert dec.residual == 0.0


def _reference_split_sorted(vals, radius):
    groups, start = [], 0
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] > radius:
            groups.append(np.arange(start, i))
            start = i
    groups.append(np.arange(start, len(vals)))
    return groups


def test_split_sorted_matches_gap_loop():
    # _split_sorted returns only the clusters wider than one value, as
    # (start, stop) ranges; every other value is a cluster of its own, so
    # these ranges fix every cut of the gap loop's partition
    rng = np.random.default_rng(5)
    cases = [np.zeros(0), np.array([0.5]), np.array([0.0, 0.1, 0.1, 0.2])]
    cases += [np.sort(np.round(rng.uniform(0, 1, n), 1)) for n in (2, 9, 40)]
    for vals in cases:
        for radius in (0.0, 0.1, 0.25):
            want = _reference_split_sorted(vals, radius)
            for lo in (0, 7):
                got = core._split_sorted(vals, radius, lo)
                assert got == [(lo + g[0], lo + g[-1] + 1) for g in want if g.size > 1]


def test_parse_complex_literals():
    assert core.parse_complex("1+2i") == 1 + 2j
    assert core.parse_complex("-1.5-0.25i") == -1.5 - 0.25j
    assert core.parse_complex("3+0i") == 3.0
    assert core.parse_complex("1.5e-3+2e2i") == 1.5e-3 + 200j


@pytest.mark.parametrize("bad", ["1", "2i", "1+i", "1 + 2i", "1+2j", ""])
def test_parse_complex_rejects(bad):
    with pytest.raises(ValueError):
        core.parse_complex(bad)


def test_matrix_format_one_by_one():
    assert core.parse_matrix("cmatrix 1 1\n2.0+0.0i\n")[0, 0] == 2.0


def test_matrix_format_pauli_x():
    m = core.parse_matrix("cmatrix 2 2\n0+0i 1+0i\n1+0i 0+0i\n")
    assert np.array_equal(m, PAULI_X)


def test_matrix_format_rejects_nonsquare():
    with pytest.raises(DimMismatch):
        core.parse_matrix("cmatrix 2 1\n1+0i\n2+0i\n")


def test_matrix_format_comments_and_blanks():
    text = "# a comment\ncmatrix 2 2\n\n1+0i 0+0i\n# middle\n0+0i 1+0i\n"
    assert np.array_equal(core.parse_matrix(text), np.eye(2))


@pytest.mark.parametrize(
    "text",
    [
        "cmatrix 2 2\n1+0i\n1+0i 0+0i\n",          # short row
        "cmatrix 2 2\n1+0i 0+0i\n",                  # missing row
        "matrix 2 2\n1+0i 0+0i\n0+0i 1+0i\n",        # bad header
        "cmatrix 2 2\n1+0i 0+0i\n0+0i bogus\n",      # bad literal
        "cmatrix 2 2\n1+0i 0+0i\n0+0i 1+0i\nextra\n",  # trailing junk
    ],
)
def test_matrix_format_parse_errors(text):
    with pytest.raises(ParseError):
        core.parse_matrix(text)


def test_parse_error_carries_location():
    try:
        core.parse_matrix("cmatrix 2 2\n1+0i 0+0i\n0+0i bogus\n")
    except ParseError as exc:
        assert exc.line == 3
    else:
        raise AssertionError("expected ParseError")


_PARSERS = {
    "cmatrix": core.parse_matrix,
    "ctuple": core.parse_tuple,
    "bipoly": detpoly.parse_bipoly,
    "lines": linegeom.parse_arrangement,
}

# (format, text, message, line, col): one core._header for all four formats.
_HEADER_ERRORS = [
    ("cmatrix", "", "expected 'cmatrix <rows> <cols>' header, found end of input", None, None),
    ("cmatrix", "# c\n\n", "expected 'cmatrix <rows> <cols>' header, found end of input", None, None),
    ("cmatrix", "matrix 2 2\n", "expected 'cmatrix <rows> <cols>' header", 1, 1),
    ("cmatrix", "cmatrix 2\n", "expected 'cmatrix <rows> <cols>' header", 1, 1),
    ("cmatrix", "cmatrix 2 2 2\n", "expected 'cmatrix <rows> <cols>' header", 1, 1),
    ("cmatrix", "# c\n  cmatrix q 2\n", "matrix dimensions must be integers", 2, 11),
    ("cmatrix", "cmatrix 3 2.0\n", "matrix dimensions must be integers", 1, 11),
    ("cmatrix", "cmatrix x 2\n", "matrix dimensions must be integers", 1, 9),
    ("cmatrix", "cmatrix 2 x\n", "matrix dimensions must be integers", 1, 11),
    ("cmatrix", "  cmatrix 2  2e0\n", "matrix dimensions must be integers", 1, 14),
    ("cmatrix", "\n# c\ncmatrix 22 2x\n", "matrix dimensions must be integers", 3, 12),
    ("cmatrix", "cmatrix 0 2\n", "matrix dimensions must be positive", 1, 1),
    ("cmatrix", "\ncmatrix 2 -1\n", "matrix dimensions must be positive", 2, 1),
    ("ctuple", "", "expected 'ctuple <k>' header, found end of input", None, None),
    ("ctuple", "cmatrix 1 1\n1+0i\n", "expected 'ctuple <k>' header", 1, 1),
    ("ctuple", "ctuple 1 1\n", "expected 'ctuple <k>' header", 1, 1),
    ("ctuple", "ctuple 1.5\n", "tuple size must be an integer", 1, 8),
    ("ctuple", "ctuple t\n", "tuple size must be an integer", 1, 8),
    ("ctuple", "# c\nctuple 0\n", "tuple size must be positive", 2, 1),
    ("ctuple", "ctuple 1\ncmatrix 1 x\n", "matrix dimensions must be integers", 2, 11),
    ("ctuple", "ctuple 2\ncmatrix 1 1\n1+0i\n", "expected 'cmatrix <rows> <cols>' header, found end of input", None, None),
    ("bipoly", "", "expected 'bipoly <n>' header, found end of input", None, None),
    ("bipoly", "poly 1\n", "expected 'bipoly <n>' header", 1, 1),
    ("bipoly", "bipoly\n", "expected 'bipoly <n>' header", 1, 1),
    ("bipoly", "  bipoly 1.0\n", "degree bound must be an integer", 1, 10),
    ("bipoly", "# c\n\nbipoly 2e0\n", "degree bound must be an integer", 3, 8),
    ("bipoly", "bipoly b\n", "degree bound must be an integer", 1, 8),
    ("bipoly", "bipoly -1\n", "degree bound must be nonnegative", 1, 1),
    ("lines", "", "expected 'lines <count>' header, found end of input", None, None),
    ("lines", "line 0\n", "expected 'lines <count>' header", 1, 1),
    ("lines", "lines 1 1\n", "expected 'lines <count>' header", 1, 1),
    ("lines", "lines x\n", "line count must be an integer", 1, 7),
    ("lines", "lines s\n", "line count must be an integer", 1, 7),
    ("lines", "# c\nlines -1\n", "line count must be nonnegative", 2, 1),
    ("lines", "lines -1\n1 0 0 0 1\n", "line count must be nonnegative", 1, 1),
    ("lines", "lines 2\n1 0 0 0 1\n", "expected 2 line rows, found 1", 1, 1),
]


@pytest.mark.parametrize("form, text, message, line, col", _HEADER_ERRORS)
def test_header_errors_of_the_four_formats(form, text, message, line, col):
    with pytest.raises(ParseError) as info:
        _PARSERS[form](text)
    assert type(info.value) is ParseError
    assert (info.value.line, info.value.col) == (line, col)
    where = "" if line is None else f" (line {line}, col {col})"
    assert str(info.value) == message + where


@pytest.mark.parametrize(
    "form, text, message, line, col",
    [
        ("cmatrix", "cmatrix 1 2\n1+0i 1+0\n", "bad complex literal '1+0'", 2, 6),
        ("cmatrix", "cmatrix 1 1\n1e400+0i\n", "matrix entries must be finite", 2, 1),
        ("cmatrix", "cmatrix 2 2\n1+0i 0+0i\n0+0i  1-1e999i\n", "matrix entries must be finite", 3, 7),
        ("ctuple", "ctuple 1\n# c\ncmatrix 1 1\n  -1e309-0i\n", "matrix entries must be finite", 4, 3),
    ],
)
def test_matrix_literals_are_refused_at_their_column(form, text, message, line, col):
    # '1+0' also starts the row's first literal; 1e400 and 1e309 overflow
    with pytest.raises(ParseError) as info:
        _PARSERS[form](text)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == f"{message} (line {line}, col {col})"


def test_header_fields_of_valid_texts():
    items = list(core._content_lines("# c\n\n  cmatrix 3 +2\n"))
    assert core._header(items, 0, "cmatrix <rows> <cols>", "matrix dimensions", 1) == (3, [3, 2])
    assert detpoly.parse_bipoly("bipoly 0\n").n == 0
    assert linegeom.parse_arrangement("lines 0\n").lines == []


def test_format_roundtrip_dyadic_exact():
    a = np.array([[0.5, -0.25 + 2j], [1024.0, 3.0 - 0.125j]], dtype=complex)
    assert np.array_equal(core.parse_matrix(core.emit_matrix(a)), a)


def test_format_roundtrip_random():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = core.parse_matrix(core.emit_matrix(a))
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(a, b)


def test_tuple_format_roundtrip():
    mats = [np.diag([1.0, 2.0]).astype(complex), PAULI_X]
    out = core.parse_tuple(core.emit_tuple(mats))
    assert len(out) == 2
    assert np.array_equal(out[0], mats[0])
    assert np.array_equal(out[1], mats[1])


def test_tuple_format_rejects_trailing_content():
    with pytest.raises(ParseError, match="trailing content after tuple blocks") as info:
        core.parse_tuple("ctuple 1\ncmatrix 1 1\n1+0i\nextra\n")
    assert (info.value.line, info.value.col) == (4, 1)


def test_emit_tuple_refuses_an_empty_tuple():
    with pytest.raises(ValueError, match="^tuple must be nonempty$"):
        core.emit_tuple([])


def test_tuple_format_rejects_ragged():
    text = core.emit_tuple([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])
    with pytest.raises(DimMismatch):
        core.parse_tuple(text)


def test_tolerances_from_base_scales_proportionally():
    t = core.Tolerances.from_base(1e-6)
    assert t.normal == pytest.approx(1e-6)
    assert t.eig == pytest.approx(1e-7)
    assert t.line == pytest.approx(1e-4)


@pytest.mark.parametrize("base", [1e-6, 3e-10, core.DEFAULT_TOL_BASE])
def test_tolerances_from_base_scales_every_field(base):
    t, d = core.Tolerances.from_base(base), core.Tolerances()
    names = [f.name for f in dataclasses.fields(core.Tolerances)]
    assert names == ["normal", "eig", "commute", "line", "recon"]
    for name in names:
        assert getattr(t, name) == getattr(d, name) * (base / core.DEFAULT_TOL_BASE), name


def test_tolerances_override():
    t = core.default_tolerances().override(line=1e-4, recon=None)
    assert t.line == 1e-4
    assert t.recon == 1e-6


def test_projspec_tol_env(monkeypatch):
    monkeypatch.setenv("PROJSPEC_TOL", "1e-6")
    t = core.default_tolerances()
    assert t.normal == pytest.approx(1e-6)
    monkeypatch.delenv("PROJSPEC_TOL")
    assert core.default_tolerances().normal == pytest.approx(1e-8)


@pytest.mark.parametrize(
    "raw, message",
    [("0", "tolerance base must be positive and finite, got 0.0"), ("abc", "PROJSPEC_TOL is not a number: 'abc'")],
)
def test_projspec_tol_env_refuses_a_bad_base(monkeypatch, raw, message):
    monkeypatch.setenv("PROJSPEC_TOL", raw)
    with pytest.raises(ValueError, match=f"^{message}$"):
        core.default_tolerances()


def test_as_cmatrix_rejects_bad_shapes():
    with pytest.raises(DimMismatch, match="^expected a 2-d matrix, got ndim=1$"):
        core.as_cmatrix(np.ones(3))
    with pytest.raises(DimMismatch):
        core.as_cmatrix(np.zeros((2, 3)))
    with pytest.raises(DimMismatch):
        core.as_cmatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        core.as_cmatrix(np.array([[np.nan, 0], [0, 1]]))


# Every routine that takes a pair admits it by core.as_cmatrices, and every
# routine that takes normal matrices by core.require_normal.
_PAIR_SITES = {
    "core.commutator_norm": core.commutator_norm,
    "detpoly.char_poly_pair": detpoly.char_poly_pair,
    "linegeom.pencil_verdict": linegeom.pencil_verdict,
    "commute.common_eigenbasis": commute.common_eigenbasis,
    "commute.equivalence_check": commute.equivalence_check,
    "commute.restriction_check": lambda a, b: commute.restriction_check(a, b, np.eye(2)),
    "commute.tuple_test": lambda a, b: commute.tuple_test([a, b]),
    "core.parse_tuple": lambda a, b: core.parse_tuple(core.emit_tuple([a, b])),
    "riesz.first_order_term": lambda a, b: riesz.first_order_term(a, b, riesz.Contour(0.0, 0.5)),
    "riesz.perturbation_check": lambda a, b: riesz.perturbation_check(a, b, 0.0, 0.0, riesz.Contour(0.0, 0.5), [1e-3]),
    "riesz.lemma34_solver": lambda a, b: riesz.lemma34_solver(a, b, 1.0),
}

_NORMAL_SITES = {
    "core.eig_normal": core.eig_normal,
    "commute.common_eigenbasis": lambda j: commute.common_eigenbasis(np.eye(2), j),
    "commute.equivalence_check": lambda j: commute.equivalence_check(j, np.eye(2)),
    "commute.tuple_test": lambda j: commute.tuple_test([np.eye(2), np.eye(2), j]),
}


@pytest.mark.parametrize("site", sorted(_PAIR_SITES))
def test_pair_sites_refuse_mismatched_shapes(site):
    with pytest.raises(DimMismatch):
        _PAIR_SITES[site](np.eye(2), np.eye(3))


@pytest.mark.parametrize("site", sorted(_NORMAL_SITES))
def test_normal_sites_refuse_a_jordan_block(site):
    with pytest.raises(NotNormal):
        _NORMAL_SITES[site](np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("scale", [1e154, 1e200])
@pytest.mark.parametrize("site", sorted(_NORMAL_SITES))
def test_normal_sites_refuse_a_jordan_block_whose_squares_overflow(site, scale):
    # ||A*A - AA*||_F is inf - inf = NaN here; a NaN defect must refuse
    j = scale * np.array([[1, 1], [0, 1]], dtype=complex)
    with np.errstate(all="ignore"), pytest.raises(NotNormal, match="defect nan"):
        _NORMAL_SITES[site](j)


def test_require_normal_refuses_a_norm_that_overflows():
    # ||A||_F^2 and the defect's squares overflow, so the bound and the
    # defect are both inf; inf <= inf must not admit this non-normal A,
    # whose eigenvalues are all 6e153, and numpy must print no warning
    a = np.triu(np.full((3, 3), 6e153)).astype(complex)
    with pytest.raises(NotNormal, match="^defect inf, bound inf$"):
        core.require_normal(a, core.Tolerances(), "defect {defect:.3e}, bound {bound:.3e}")
    with pytest.raises(NotNormal):
        core.eig_normal(a)


def test_require_normal_bound_and_message():
    j = np.array([[0, 1], [0, 0]], dtype=complex)
    tol = core.Tolerances()
    with pytest.raises(NotNormal, match="^J: 1.414e\\+00 > 1.000e-08 at 1e-08$"):
        core.require_normal(j, tol, "J: {defect:.3e} > {bound:.3e} at {tol.normal:.0e}")
    assert core.require_normal(np.diag([3.0, 4j]), tol, "") == (5.0, 0.0)
