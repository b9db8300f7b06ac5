import dataclasses
import importlib
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from projspec import riesz
from projspec.errors import (
    ContourCapturesPerturbedSpectrumBoundary,
    EigenvalueOnContour,
    LineNotInSpectrum,
    NoConvergence,
    NotNormal,
    NumericalAmbiguity,
    SingularResolvent,
)
from projspec.riesz import Contour

import helpers
from helpers import (
    PAULI_X,
    answers_module,
    random_diag_vals,
    random_normal,
    random_unitary,
    reference_first_order_term,
    reference_lemma34_ramp,
    reference_perturbation_check,
    reference_resolvent_nodes,
    separated_vals,
)


def test_contour_validation():
    with pytest.raises(ValueError):
        Contour(0.0, 0.0)
    with pytest.raises(ValueError):
        Contour(0.0, -1.0)
    with pytest.raises(ValueError):
        Contour(0.0, 1.0, nodes=15)
    c = Contour(1 + 1j, 0.5)
    assert c.nodes == 64


def test_contour_must_stay_in_double_range():
    # its nodes center + radius e^{i phi} would overflow
    with pytest.raises(ValueError, match="^contour about 1e\\+308 of radius 1e\\+308 leaves double range$"):
        Contour(1e308, 1e308)
    assert Contour(1e308 + 1e308j, 1.0).radius == 1.0


def test_perturbation_check_refuses_a_projection_that_overflows():
    # the solved resolvents of this A overflow in the quadrature sum, with
    # no numpy warning; riesz_projection refuses it by its residuals
    a = np.array([[2 - 1j, 1e308], [0, 1e-160]])
    c = Contour(2 - 1j, 1.0)
    with pytest.raises(NumericalAmbiguity, match="^quadrature projection is not finite$"):
        riesz.perturbation_check(a, np.eye(2), 2 - 1j, 1.0, c, [1e-3])
    with pytest.raises(NumericalAmbiguity, match="^projection residuals are not finite"):
        riesz.riesz_projection(a, c)


@pytest.mark.parametrize(
    "lam, mu",
    [(float("nan"), 1.0), (1.0, float("nan")), (1.0, float("inf")), (complex(1.0, float("-inf")), 1.0)],
)
def test_perturbation_check_refuses_a_lam_or_mu_that_is_not_finite(monkeypatch, lam, mu):
    # refused before the eigenbasis, P0 or any contour is solved
    def unreachable(*args, **kwargs):
        raise AssertionError("a contour was solved")

    for name in ("_admit", "_projection", "_resolvent_nodes"):
        monkeypatch.setattr(riesz, name, unreachable)
    a = np.diag([1.0, 3.0])
    with pytest.raises(ValueError, match="^lam and mu must be finite$"):
        riesz.perturbation_check(a, a, lam, mu, Contour(1.0, 0.5), [1e-2, 1e-3])


def test_projection_selects_enclosed_eigenvalue():
    a = np.diag([1.0, 2.0]).astype(complex)
    r = riesz.riesz_projection(a, Contour(1.0, 0.5))
    assert np.abs(r.projection - np.diag([1.0, 0.0])).max() <= 1e-12
    assert r.rank_estimate == 1
    assert r.idempotency_residual <= 1e-10
    assert r.commutation_residual <= 1e-10


def test_projection_nonnormal_jordan_like():
    # resolvent of [[1,1],[0,2]] has off-diagonal 1/((u-1)(u-2));
    # residue at u=1 is -1
    a = np.array([[1, 1], [0, 2]], dtype=complex)
    r = riesz.riesz_projection(a, Contour(1.0, 0.5))
    expect = np.array([[1, -1], [0, 0]], dtype=complex)
    assert np.abs(r.projection - expect).max() <= 1e-10
    p = r.projection
    assert np.linalg.norm(p @ p - p) <= 1e-10
    assert np.linalg.norm(a @ p - p @ a) <= 1e-10


def test_projection_empty_contour():
    a = np.diag([1.0, 2.0]).astype(complex)
    r = riesz.riesz_projection(a, Contour(10.0, 1.0))
    assert np.abs(r.projection).max() <= 1e-12
    assert r.rank_estimate == 0


def test_eigenvalue_on_contour():
    a = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(EigenvalueOnContour):
        riesz.riesz_projection(a, Contour(1.0, 1.0))
    # non-normal input: the margin check reads the eigenvalues from eigvals,
    # and the eigenvalue 2 lies on the circle
    b = np.array([[1, 1], [0, 2]], dtype=complex)
    with pytest.raises(EigenvalueOnContour):
        riesz.riesz_projection(b, Contour(1.0, 1.0))


def _triangular(rng, first, n):
    """Non-normal upper-triangular matrix with eigenvalue `first` and the
    other n - 1 eigenvalues at modulus 0.2-0.6 or 1.5-2.5."""
    mods = np.where(np.arange(n - 1) % 2 == 0, rng.uniform(0.2, 0.6, n - 1), rng.uniform(1.5, 2.5, n - 1))
    diag = np.concatenate([[first], mods * np.exp(2j * np.pi * rng.uniform(0, 1, n - 1))])
    upper = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    return np.diag(diag) + 0.5 * upper


_CONTOUR_CALLS = {
    "riesz_projection": lambda a, b, c: riesz.riesz_projection(a, c),
    "first_order_term": lambda a, b, c: riesz.first_order_term(a, b, c),
    "perturbation_check": lambda a, b, c: riesz.perturbation_check(a, b, 0.0, 0.0, c, [1e-3]),
}


@pytest.mark.parametrize("call", sorted(_CONTOUR_CALLS))
@pytest.mark.parametrize("n", [2, 48])
def test_nonnormal_eigenvalue_on_contour_between_probe_points(n, call):
    # e^{i pi / 256} sits on the unit circle halfway between two of the
    # 4 * 64 points a |det(uI - A)|^{1/n} probe would sample; the other
    # eigenvalues' factors kept such a probe above the margin
    rng = np.random.default_rng(900 + n)
    a = _triangular(rng, np.exp(1j * np.pi / 256), n)
    b = random_normal(rng, n)
    with pytest.raises(EigenvalueOnContour, match="^eigenvalue within"):
        _CONTOUR_CALLS[call](a, b, Contour(0.0, 1.0))


def test_nonnormal_margin_is_scale_invariant():
    # |det(uI - A)| of a 48 x 48 matrix scaled by 1e-8 underflows to 0
    rng = np.random.default_rng(948)
    n = 48
    a = _triangular(rng, 0.3, n)
    inside = int(np.sum(np.abs(np.diag(a)) < 1.0))
    r = riesz.riesz_projection(a, Contour(0.0, 1.0))
    scaled = riesz.riesz_projection(1e-8 * a, Contour(0.0, 1e-8))
    assert r.rank_estimate == inside
    assert scaled.rank_estimate == r.rank_estimate


def _count_calls(monkeypatch, name):
    real = getattr(np.linalg, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _closed(a, c):
    """A's _Basis at c where the closed form holds for it, else None."""
    return riesz._closed_form(riesz._admit(a, c))


def test_margin_check_is_one_eigensolve(monkeypatch):
    # the margin reads the spectrum that _admit already holds: one
    # eigvals when eig_normal refuses A, the eigenbasis's diagonal when it
    # admits A; never a determinant probe
    rng = np.random.default_rng(3)
    nonnormal = _triangular(rng, 0.3, 16)
    normal = random_normal(rng, 16, vals=0.5 * random_diag_vals(rng, 16))
    dets = _count_calls(monkeypatch, "det")
    eigvals = _count_calls(monkeypatch, "eigvals")
    real_eig_normal = riesz.core.eig_normal
    eig_normal_calls = []
    monkeypatch.setattr(
        riesz.core, "eig_normal", lambda *a, **k: eig_normal_calls.append(a) or real_eig_normal(*a, **k)
    )
    for k, (a, routed) in enumerate([(nonnormal, False), (normal, True)], start=1):
        assert (_closed(a, Contour(0.0, 1.0)) is not None) == routed
        assert dets[0] == 0
        assert eigvals[0] == 1
        assert len(eig_normal_calls) == k
    # _check_margin itself reads only the values it is given
    riesz._check_margin(np.array([0.3, 2.0]), 1e-12, Contour(0.0, 1.0))
    assert (dets[0], eigvals[0], len(eig_normal_calls)) == (0, 1, 2)


@pytest.mark.parametrize("case", ["normal", "nonnormal", "gate"])
def test_eigvals_per_call(monkeypatch, case):
    # an A that eig_normal admits reads its margin from the eigenbasis,
    # whether or not it passes the gate, and so do perturbation_check's eps
    # contours, from the Bauer-Fike disks about d: no eigvals at all. A
    # non-normal A runs one per call and one per eps contour.
    a, b, c, lam = _gate_case() if case == "gate" else _bit_case(13, case == "normal")
    assert (_closed(a, c) is not None) == (case == "normal")
    extra = 1 if case == "nonnormal" else 0
    eps_list = [1e-2, 1e-3, 1e-4]
    eigvals = _count_calls(monkeypatch, "eigvals")
    riesz.riesz_projection(a, c)
    assert eigvals[0] == extra
    riesz.first_order_term(a, b, c)
    assert eigvals[0] == 2 * extra
    riesz.perturbation_check(a, b, lam, 0.5, c, eps_list)
    assert eigvals[0] == {"normal": 0, "gate": 0, "nonnormal": 6}[case]


@pytest.mark.parametrize("case", ["normal", "gate"])
def test_perturbation_check_runs_one_eig_normal(monkeypatch, case):
    # P0, every margin and every eps contour read the one eigenbasis
    a, b, c, lam = _gate_case() if case == "gate" else _bit_case(24, True)
    real = riesz.core.eig_normal
    calls = []
    monkeypatch.setattr(riesz.core, "eig_normal", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    riesz.perturbation_check(a, b, lam, 0.5, c, [1e-2, 1e-3, 1e-4, 1e-5])
    assert len(calls) == 1


def test_eigenbasis_margin_reads_the_diagonal(monkeypatch):
    # 1.02 is 2% of the radius outside the unit circle and 0.02 from the
    # nearest node: the gate holds (E = 0) and the margin refuses d itself
    eigvals = _count_calls(monkeypatch, "eigvals")
    with pytest.raises(EigenvalueOnContour, match="^eigenvalue within 2.000e-02"):
        riesz.riesz_projection(np.diag([0.3, 1.02]).astype(complex), Contour(0.0, 1.0))
    assert eigvals[0] == 0


@pytest.mark.parametrize("scale", [1e154, 1e300])
def test_an_overflowing_normal_matrix_warns_nothing(scale):
    # eig_normal refuses s diag(1, 2), whose squares overflow, through its
    # NaN-safe gates; the margin and the quadrature then read eigvals and
    # the solves, with no numpy warning (an error under this suite)
    a = scale * np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(EigenvalueOnContour, match="^eigenvalue within"):
        riesz.riesz_projection(a, Contour(scale, scale))
    assert riesz.riesz_projection(a, Contour(scale, scale / 2)).rank_estimate == 1


def test_margin_grows_by_the_slack():
    c = Contour(0.0, 1.0)
    vals = np.array([0.3, 1.05 + 1e-12])
    riesz._check_margin(vals, 0.0, c)
    with pytest.raises(EigenvalueOnContour, match=r"\(margin 5\.000e-02\)"):
        riesz._check_margin(vals, 2e-12, c)


@pytest.mark.parametrize("case", ["normal", "near-normal"])
def test_eigenbasis_slack_holds_the_off_diagonal_residual(monkeypatch, case):
    # ||E||_F is about 1e-9 for the near-normal input and at rounding level
    # for a normal one; the slack carries it
    a, _, c, _ = _near_normal_case() if case == "near-normal" else _bit_case(13, True)
    slacks = []
    real = riesz._check_margin
    monkeypatch.setattr(riesz, "_check_margin", lambda vals, slack, c: slacks.append(slack) or real(vals, slack, c))
    assert _closed(a, c) is not None
    low, high = (1e-10, 1e-8) if case == "near-normal" else (0.0, 1e-12)
    assert len(slacks) == 1 and low < slacks[0] < high


def test_one_batched_solve_per_contour(monkeypatch):
    rng = np.random.default_rng(4)
    a = _triangular(rng, 0.3, 12)
    b = random_normal(rng, 12)
    c = Contour(0.0, 1.0)
    solves = _count_calls(monkeypatch, "solve")
    riesz.riesz_projection(a, c)
    assert solves[0] == 1
    riesz.first_order_term(a, b, c)
    assert solves[0] == 2
    riesz.perturbation_check(a, b, 0.3, 0.0, c, [1e-2, 1e-3, 1e-4])
    assert solves[0] == 2 + 4


def test_resolvent_solve_passes_a_stacked_right_hand_side(monkeypatch):
    # numpy < 2 reads a 2-D b next to a 3-D a as a stack of vectors; only a
    # b with a's dimension count means the same on both majors. nodes == n
    # is the case where the vector reading would not even fail.
    real = np.linalg.solve
    dims = []

    def recording(a, b):
        dims.append((a.ndim, np.ndim(b)))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    for n, nodes in [(3, 16), (16, 16), (5, 64)]:
        a = _triangular(np.random.default_rng(n), 0.3, n)
        phases, resolvents = riesz._resolvent_nodes(a, Contour(0.0, 1.0, nodes=nodes))
        assert resolvents.shape == (nodes, n, n)
    assert dims and all(ad == bd for ad, bd in dims)


def test_singular_resolvent_names_its_node(monkeypatch):
    # the node u = 1 of the unit circle is an eigenvalue: the batched solve
    # fails and the node-by-node re-solve names the node
    a = np.diag([1.0, 3.0]).astype(complex)
    solves = _count_calls(monkeypatch, "solve")
    with pytest.raises(SingularResolvent, match=r"node u = \(?1\+0j"):
        riesz._resolvent_nodes(a, Contour(0.0, 1.0, nodes=16))
    assert solves[0] == 2


def _bit_case(n, normal):
    """(a, b, contour, lam): a normal or non-normal, the contour around its
    eigenvalue lam with radius 0.45 of lam's gap to the others."""
    rng = np.random.default_rng(1000 * n + normal)
    vals = separated_vals(rng, n, sep=0.1)
    u = random_unitary(rng, n)
    t = np.diag(vals)
    if not normal:
        t = t + 0.2 * np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    a = u @ t @ u.conj().T
    lam = complex(vals[0])
    others = np.abs(vals[1:] - lam)
    radius = 0.45 * others.min() if others.size else 0.3
    return a, random_normal(rng, n), Contour(lam, float(radius)), lam


@pytest.mark.parametrize("normal", [True, False], ids=["normal", "nonnormal"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 24, 33, 48])
def test_batched_resolvents_bit_identical_to_node_loop(monkeypatch, n, normal):
    a, b, c, lam = _bit_case(n, normal)

    def run():
        r = riesz.riesz_projection(a, c)
        t = riesz.first_order_term(a, b, c)
        rep = riesz.perturbation_check(a, b, lam, 0.5, c, [1e-2, 1e-3, 1e-4])
        return (
            r.projection.tobytes(),
            np.array([r.idempotency_residual, r.commutation_residual]).tobytes(),
            r.rank_estimate,
            t.tobytes(),
            rep.residuals.tobytes(),
            rep.slope,
        )

    got = run()
    monkeypatch.setattr(riesz, "_resolvent_nodes", reference_resolvent_nodes)
    assert got == run()


def _assert_near(got, want):
    """got within 1e-13 (1 + ||want||_F) of want in the Frobenius norm."""
    assert np.linalg.norm(got - want) <= 1e-13 * (1.0 + np.linalg.norm(want))


@pytest.mark.parametrize("normal", [True, False], ids=["normal", "nonnormal"])
@pytest.mark.parametrize("n", [1, 2, 8, 24, 48])
def test_first_order_term_bit_identical_to_node_products(n, normal):
    # a non-normal A: one batched product over the resolvent stack, bit for
    # bit against one r @ b @ r per quadrature node. A normal A (every 1 x 1
    # matrix is one) takes the eigenbasis route, which forms no resolvent:
    # it matches the node products to rounding.
    a, b, c, _ = _bit_case(n, normal)
    phases, resolvents = riesz._resolvent_nodes(a, c)
    want = riesz._combine(phases, [r @ b @ r for r in resolvents], c)
    got = riesz.first_order_term(a, b, c)
    if normal or n == 1:
        _assert_near(got, want)
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 24, 33, 48])
def test_normal_projection_matches_the_solved_resolvents(n):
    a, b, c, _ = _bit_case(n, True)
    assert _closed(a, c) is not None
    phases, resolvents = riesz._resolvent_nodes(a, c)
    _assert_near(riesz.riesz_projection(a, c).projection, riesz._combine(phases, resolvents, c))


def test_eigenbasis_route_with_more_rows_than_nodes():
    # n = 100 > 16 nodes: more eigenvalues than quadrature nodes
    rng = np.random.default_rng(2500)
    n = 100
    vals = np.concatenate([[0.02], rng.uniform(0.5, 1.5, n - 1) * np.exp(2j * np.pi * rng.uniform(0, 1, n - 1))])
    a = random_normal(rng, n, vals=vals)
    b = random_normal(rng, n)
    c = Contour(0.0, 0.05, nodes=16)
    assert _closed(a, c) is not None
    phases, resolvents = riesz._resolvent_nodes(a, c)
    r = riesz.riesz_projection(a, c)
    assert r.rank_estimate == 1
    _assert_near(r.projection, riesz._combine(phases, resolvents, c))
    _assert_near(riesz.first_order_term(a, b, c), riesz._combine(phases, resolvents @ b @ resolvents, c))


# tools/answers.py's riesz_near inputs, each about the contour |u - 1| = 0.5
_ANSWERS = answers_module()
_NEAR_PAIR_CASES = {name: (a, b) for name, a, b in _ANSWERS.near_pair_cases(helpers)}
_NEAR_CONTOUR = Contour(*_ANSWERS.NEAR_CONTOUR)


@pytest.mark.parametrize("name", list(_NEAR_PAIR_CASES))
def test_near_pairs_match_the_solve_route_and_the_triple_sum(name):
    a, b = _NEAR_PAIR_CASES[name]
    c = _NEAR_CONTOUR
    basis = _closed(a, c)
    d, e = basis.d, basis.e
    near = (e != 0) & (np.abs(e) >= np.abs(d[:, None] - d))
    if name == "diagonal":
        # E = 0: no pair divides, and none is near
        assert not e.any()
    else:
        assert near.any() == (name != "cluster")
    got = riesz.first_order_term(a, b, c)
    phases, resolvents = riesz._resolvent_nodes(a, c)
    _assert_near(got, riesz._combine(phases, resolvents @ b @ resolvents, c))
    want = reference_first_order_term(a, b, c)
    assert np.linalg.norm(got - want) <= 1e-15 * (1.0 + np.linalg.norm(want))


def test_first_order_term_matches_the_triple_sum_on_benchmark_draws(monkeypatch):
    # perfbench `spectral` first_order_term operations, n = 8-48: no near
    # pair there, and the partial fractions round to the same bytes
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    bench = importlib.import_module("bench_workloads")
    ops = [op for seed in (1, 2, 3) for r in range(10) for op in bench.Spectral(seed).round(r) if op.kind == "first_order_term"]
    assert len(ops) == 180
    for op in ops:
        args = inspect.signature(op.call).parameters
        a, b, c = (args[k].default for k in "abc")
        assert riesz.first_order_term(a, b, c).tobytes() == reference_first_order_term(a, b, c).tobytes()


def test_no_triple_sum_without_near_pairs(monkeypatch):
    # the eigenbasis route with no near pair: no einsum, and no array as
    # large as one (nodes, n^2) table
    a, b, c, _ = _bit_case(48, True)
    basis = _closed(a, c)
    d, e = basis.d, basis.e
    assert not ((e != 0) & (np.abs(e) >= np.abs(d[:, None] - d))).any()

    def refused(*args, **kwargs):
        raise AssertionError("einsum called")

    monkeypatch.setattr(np, "einsum", refused)
    riesz.first_order_term(a, b, c)
    tracemalloc.start()
    try:
        riesz.first_order_term(a, b, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c.nodes * 48 * 48 * 16


@pytest.mark.parametrize(
    "a, b",
    [([[2, 1], [1, 2]], np.full((2, 2), 1e308)), ([[1, 1e200], [0, 3]], [[1e200, 1], [1, 1e200]])],
    ids=["eigenbasis", "solve"],
)
def test_first_order_term_refuses_values_that_overflow(a, b):
    # U*BU overflows on the eigenbasis route of the normal A, and the node
    # products on the solve route of the non-normal one; neither warns
    with pytest.raises(NumericalAmbiguity, match="^first-order term is not finite$"):
        riesz.first_order_term(a, b, Contour(1, 0.5))


def _record_solves(monkeypatch):
    real = np.linalg.solve
    shapes = []

    def recording(m, rhs):
        shapes.append(np.shape(rhs))
        return real(m, rhs)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return shapes


@pytest.mark.parametrize("n", [1, 5, 24])
def test_normal_contours_invert_no_node(monkeypatch, n):
    a, b, c, lam = _bit_case(n, True)
    shapes = _record_solves(monkeypatch)
    riesz.riesz_projection(a, c)
    riesz.first_order_term(a, b, c)
    assert shapes == []
    riesz.perturbation_check(a, b, lam, 0.5, c, [1e-2, 1e-3])
    # an eps contour solves against P0's one row only where the series
    # would cost more (m > n): both at n = 1 and 5; at n = 24 neither, since
    # the ratio reads ||U*BU||_2's bound, with which eps = 1e-2 needs 17
    # terms, where ||B||_F would need 33 > 24
    assert shapes == {1: [(c.nodes, 1, 1)] * 2, 5: [(c.nodes, 5, 1)] * 2, 24: []}[n]
    if n == 24:
        basis = riesz._admit(a, c)
        norm_b = riesz.core.frobenius(b)
        norm_c = riesz._spectral_bound(basis.u.conj().T @ b @ basis.u, norm_b)
        assert riesz._tail_terms(basis.gmax * (basis.off + 1e-2 * norm_b)) == 33
        assert riesz._tail_terms(basis.gmax * (basis.off + 1e-2 * norm_c)) == 17


def _upper_case(seed, n, delta):
    """(a, b, contour, lam): a = U (D + delta N) U*, N strictly upper
    triangular with standard complex Gaussian entries, and the contour
    about D's first eigenvalue lam."""
    rng = np.random.default_rng(seed)
    vals = separated_vals(rng, n, sep=0.3)
    u = random_unitary(rng, n)
    strict = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    a = u @ (np.diag(vals) + delta * strict) @ u.conj().T
    lam = complex(vals[0])
    return a, random_normal(rng, n), Contour(lam, float(0.45 * np.abs(vals[1:] - lam).min())), lam


def _gate_case():
    # eig_normal admits a at the default tolerances, while max|g| ||E||_F
    # exceeds the eigenbasis route's bound
    return _upper_case(2501, 8, 1e-9)


def _near_normal_case():
    # the eigenbasis route takes a, whose normality defect lies between
    # 1e-10 and 1e-8 times ||a||_F
    return _upper_case(2502, 6, 1e-10)


def test_gate_failure_takes_the_solve_route_bit_for_bit(monkeypatch):
    a, b, c, lam = _gate_case()
    riesz.core.eig_normal(a, tol=riesz.core.Tolerances())  # admitted
    assert _closed(a, c) is None
    phases, resolvents = riesz._resolvent_nodes(a, c)
    assert riesz.riesz_projection(a, c).projection.tobytes() == riesz._combine(phases, resolvents, c).tobytes()
    want = riesz._combine(phases, resolvents @ b @ resolvents, c)
    assert riesz.first_order_term(a, b, c).tobytes() == want.tobytes()
    # P0 by the solves, as with no tail rule at all; the eps contours by the
    # LU on both sides, where the gate case would run the series at 1e-4
    with monkeypatch.context() as m:
        _solve_route(m)
        got = riesz.perturbation_check(a, b, lam, 0.5, c, [1e-2, 1e-3, 1e-4])
    monkeypatch.setattr(riesz, "_tail_terms", lambda q: None)
    want = riesz.perturbation_check(a, b, lam, 0.5, c, [1e-2, 1e-3, 1e-4])
    assert (got.residuals.tobytes(), got.slope, got.exact) == (want.residuals.tobytes(), want.slope, want.exact)


def test_near_normal_input_keeps_the_terms_first_order_in_e():
    # ||E||_F is about 1e-9 here, so the F o E term and the E-correction
    # of first_order_term (no near pair here: every Z_im is E_im/(d_i - d_m))
    # are far above the 1e-13 bound, and the dropped second-order terms far
    # below it
    a, b, c, _ = _near_normal_case()
    phases, resolvents = riesz._resolvent_nodes(a, c)
    _assert_near(riesz.riesz_projection(a, c).projection, riesz._combine(phases, resolvents, c))
    _assert_near(riesz.first_order_term(a, b, c), riesz._combine(phases, resolvents @ b @ resolvents, c))


@pytest.mark.parametrize("case", [_near_normal_case, _gate_case, lambda: _bit_case(13, True)], ids=["near-normal", "gate", "normal"])
def test_projspec_tol_does_not_reach_the_quadrature(monkeypatch, case):
    a, b, c, lam = case()

    def run():
        r = riesz.riesz_projection(a, c)
        rep = riesz.perturbation_check(a, b, lam, 0.5, c, [1e-2, 1e-3, 1e-4])
        return (
            r.projection.tobytes(),
            riesz.first_order_term(a, b, c).tobytes(),
            rep.residuals.tobytes(),
            rep.slope,
            rep.exact,
        )

    monkeypatch.delenv("PROJSPEC_TOL", raising=False)
    want = run()
    for base in ("1e-10", "1e-6"):
        monkeypatch.setenv("PROJSPEC_TOL", base)
        assert run() == want


def test_near_normal_case_is_refused_at_a_tighter_base():
    # the input above on which a PROJSPEC_TOL reaching eig_normal would
    # change the route
    a, _, c, _ = _near_normal_case()
    defect = riesz.core.normality_defect(a) / np.linalg.norm(a)
    assert 1e-10 < defect < 1e-8
    assert _closed(a, c) is not None
    with pytest.raises(NotNormal):
        riesz.core.eig_normal(a, tol=riesz.core.Tolerances.from_base(1e-10))


def _assert_matches_reference(a, b, lam, mu, c, eps_list):
    got = riesz.perturbation_check(a, b, lam, mu, c, eps_list)
    want = reference_perturbation_check(a, b, lam, mu, c, eps_list)
    assert got.exact == want.exact
    if want.slope is None:
        assert got.slope is None
    else:
        assert got.slope == pytest.approx(want.slope, abs=1e-6)
    floor = 1e-13 * (1.0 + np.linalg.norm(a) + np.linalg.norm(b))
    above = want.residuals > floor
    assert np.all(got.residuals[~above] <= floor)
    assert np.all(np.abs(got.residuals[above] - want.residuals[above]) <= 1e-6 * want.residuals[above])
    return got


@pytest.mark.parametrize("normal", [True, False], ids=["normal", "nonnormal"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 24, 33, 48])
def test_perturbation_check_matches_full_inverse_reference(n, normal):
    a, b, c, lam = _bit_case(n, normal)
    for mu in (0.5, complex(b[0, 0])):
        _assert_matches_reference(a, b, lam, mu, c, [1e-2, 1e-3, 1e-4])


def _cluster_case(rng, n, size, normal):
    """(a, b, contour, lam, mu): `size` eigenvalues within 0.06 of lam, the
    contour of radius 0.2 about lam, every other eigenvalue at least 0.5
    away; mu is the Rayleigh quotient of b at lam's eigenvector."""
    lam = complex(rng.uniform(0.6, 1.2) * np.exp(2j * np.pi * rng.uniform()))
    inner = lam + 0.06 * np.exp(2j * np.pi * np.arange(size) / size) if size > 1 else np.array([lam])
    outer = []
    while len(outer) < n - size:
        z = complex(rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2))
        if abs(z - lam) >= 0.5:
            outer.append(z)
    t = np.diag(np.concatenate([inner, outer]))
    if not normal:
        t = t + 0.2 * np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    u = random_unitary(rng, n)
    b = random_normal(rng, n)
    mu = complex(u[:, 0].conj() @ b @ u[:, 0])
    return u @ t @ u.conj().T, b, Contour(lam, 0.2), complex(inner[0]), mu


@pytest.mark.parametrize("normal", [True, False], ids=["normal", "nonnormal"])
@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("n", [6, 24, 48])
def test_perturbation_check_cluster_matches_reference(n, size, normal):
    rng = np.random.default_rng(100 * n + 10 * size + normal)
    a, b, c, lam, mu = _cluster_case(rng, n, size, normal)
    _assert_matches_reference(a, b, lam, mu, c, [1e-2, 1e-3, 1e-4])


def test_perturbation_check_empty_contour_matches_reference():
    # the circle about 10 encloses nothing: P0 has rank 0, every residual is
    # exactly 0 and the report is exact, as the full-inverse residuals at
    # the floor make it
    rng = np.random.default_rng(5)
    a = random_normal(rng, 12)
    b = random_normal(rng, 12)
    rep = _assert_matches_reference(a, b, 10.0, 0.0, Contour(10.0, 1.0), [1e-2, 1e-3, 1e-4])
    assert rep.exact
    assert np.all(rep.residuals == 0.0)


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_each_eps_contour_solves_rank_many_columns(monkeypatch, size):
    rng = np.random.default_rng(30 + size)
    n = 16
    if size:
        a, b, c, lam, mu = _cluster_case(rng, n, size, True)
    else:
        a, b = random_normal(rng, n), random_normal(rng, n)
        c, lam, mu = Contour(10.0, 1.0), 10.0, 0.0
    shapes = _record_solves(monkeypatch)
    riesz.perturbation_check(a, b, lam, mu, c, [1e-2, 1e-3, 1e-4])
    # P0 of a normal A comes from its eigenbasis, and so do the eps
    # contours wherever the series pays (m r <= n); an eps contour that
    # solves solves r columns. With the ratio's ||U*BU||_2 bound the series
    # runs 14, 16 and 16 terms at eps = 1e-2 for r = 1, 2 and 3, and 8 and 6
    # at 1e-3 and 1e-4: with r = 0 and 1 none solves, with r = 2 eps = 1e-2,
    # and with r = 3 every eps
    assert shapes == [(c.nodes, n, size)] * [0, 0, 1, 3][size]


def _solve_route(monkeypatch):
    """Send every eps contour of perturbation_check to _solve_nodes."""
    monkeypatch.setattr(riesz, "_series_pays", lambda m, r, n: False)


def _series_route(monkeypatch):
    """Let the series run wherever its ratio allows, whatever it costs."""
    monkeypatch.setattr(riesz, "_series_pays", lambda m, r, n: True)


@pytest.mark.parametrize("n, size", [(n, size) for n in (2, 8, 24, 48) for size in (1, 2, 3) if size <= n])
def test_series_matches_the_solve_route(monkeypatch, n, size):
    # the Neumann series in A's eigenbasis and the batched LU give the same
    # residuals to 1e-3 of the rounding floor, and slopes to 1e-9
    rng = np.random.default_rng(3000 + 10 * n + size)
    a, b, c, lam, mu = _cluster_case(rng, n, size, True)
    eps_list = [1e-2, 1e-3, 1e-4]
    with monkeypatch.context() as m:
        _series_route(m)
        shapes = _record_solves(m)
        got = riesz.perturbation_check(a, b, lam, mu, c, eps_list)
        assert shapes == []
    with monkeypatch.context() as m:
        _solve_route(m)
        shapes = _record_solves(m)
        want = riesz.perturbation_check(a, b, lam, mu, c, eps_list)
        assert shapes == [(c.nodes, n, size)] * 3
    floor = 1e-13 * (1.0 + np.linalg.norm(a) + np.linalg.norm(b))
    assert np.abs(got.residuals - want.residuals).max() <= 1e-3 * floor
    assert got.exact == want.exact
    assert (got.slope is None) == (want.slope is None)
    if want.slope is not None:
        assert abs(got.slope - want.slope) <= 1e-9


def test_crossing_disks_fall_back_to_eigvals(monkeypatch):
    # at eps = 0.1 the disks about d = 0, 2 have radius eps ||B||_F = 1.01
    # and cross the circle |u| = 0.5; the eigenvalues of A_eps themselves,
    # about -0.0033 and 3.003, clear it, and one eigvals says so. At
    # eps = 1e-3 the disks clear the margin and no eigvals runs.
    a = np.diag([0.0, 2.0]).astype(complex)
    b = np.array([[0.0, 1.0], [1.0, 10.0]], dtype=complex)
    c = Contour(0.0, 0.5)
    basis = riesz._admit(a, c)
    norm_b = riesz.core.frobenius(b)
    assert riesz._clears(basis, 1e-3, norm_b, c) and not riesz._clears(basis, 0.1, norm_b, c)
    eigvals = _count_calls(monkeypatch, "eigvals")
    rep = riesz.perturbation_check(a, b, 0.0, 0.0, c, [1e-3, 0.1])
    assert eigvals[0] == 1
    assert np.isfinite(rep.residuals).all()
    # eigvals still refuses a perturbed eigenvalue on the contour
    with pytest.raises(ContourCapturesPerturbedSpectrumBoundary, match="^at eps = 1.118: eigenvalue within"):
        riesz.perturbation_check(a, PAULI_X, 0.0, 0.0, c, [1e-3, 1.118])
    assert eigvals[0] == 2


def test_series_rule_takes_the_solve_route(monkeypatch):
    a, b, c, lam = _bit_case(24, True)
    # a rank-one B: ||B||_2 = ||B||_F, so the Bauer-Fike disks, whose slack
    # reads ||B||_F, still clear the margin where the ratio passes 1/2, and
    # the ratio's bound is ||B||_F itself
    b = np.outer(b[:, 0], b[:, 0].conj())
    basis = riesz._admit(a, c)
    cb = basis.u.conj().T @ b @ basis.u
    norm_b = riesz.core.frobenius(b)
    norm_c = riesz._spectral_bound(cb, norm_b)
    assert norm_c == norm_b
    gmax = basis.gmax
    assert gmax == float(np.abs(basis.g).max())

    def series_rows(x, eps):
        return riesz._series_rows(basis, cb, norm_c, x, eps, c)

    # q = max|g| (||E||_F + eps norm_c) just above 1/2
    eps_wide = 1.01 * (0.5 / gmax - basis.off) / norm_c
    rows = np.random.default_rng(24).normal(size=(7, 24)).astype(complex)
    assert riesz._clears(basis, eps_wide, norm_b, c)
    assert series_rows(rows[:1], eps_wide) is None
    with monkeypatch.context() as m:
        _series_route(m)
        assert series_rows(rows[:1], eps_wide) is None
        assert series_rows(rows[:1], 0.98 * eps_wide) is not None
    # at eps = 1e-6 the series needs m = 4 terms: 4 r <= 24 pays for one
    # row and fails for seven
    q = gmax * (basis.off + 1e-6 * norm_c)
    assert riesz._tail_terms(q) == 4
    assert series_rows(rows[:1], 1e-6) is not None
    assert series_rows(rows, 1e-6) is None
    shapes = _record_solves(monkeypatch)
    riesz.perturbation_check(a, b, lam, 0.5, c, [eps_wide, 1e-6])
    assert shapes == [(c.nodes, 24, 1)]


def test_series_terms_reach_the_unit_roundoff():
    u = np.finfo(np.float64).eps / 2
    for q in (0.0, 1e-20, 1e-8, 1e-3, 0.1, 0.3, 0.5):
        m = riesz._tail_terms(q)
        assert q**m / (1 - q) <= u
        assert m == 1 or q ** (m - 1) / (1 - q) > u
    assert riesz._tail_terms(0.5) == 54


@pytest.mark.parametrize("q", [0.6, np.nan, np.inf])
def test_tail_terms_is_none_above_one_half(q):
    # no route reads a series whose ratio exceeds 1/2, nor a NaN or inf one
    assert riesz._tail_terms(q) is None


def test_closed_form_holds_where_two_terms_reach_the_unit_roundoff(monkeypatch):
    # q^2 = u (1 - q) at q* = 1.05367e-8, a relative 5.3e-9 below sqrt(u):
    # two records of one A straddle q*, and only the one whose series two
    # terms carry to the unit roundoff takes the closed form
    a, _, c, _ = _bit_case(8, True)
    basis = riesz._admit(a, c)
    u = np.finfo(np.float64).eps / 2
    star = (np.sqrt(u * u + 4 * u) - u) / 2
    assert star < np.sqrt(u)
    below, above = (dataclasses.replace(basis, off=star * f / basis.gmax) for f in (1 - 1e-10, 1 + 1e-10))
    assert riesz._tail_terms(below.gmax * below.off) == 2
    assert riesz._tail_terms(above.gmax * above.off) == 3
    shapes = _record_solves(monkeypatch)
    assert riesz._closed_form(below) is below
    riesz._projection(a, c, below)
    assert shapes == []
    assert riesz._closed_form(above) is None
    riesz._projection(a, c, above)
    assert shapes == [(c.nodes, 8, 8)]


def test_no_tail_terms_sends_every_contour_to_the_solves(monkeypatch):
    # with the rule patched to None, P0, the projection and the first-order
    # term invert every node, and every eps contour solves P0's one row;
    # unpatched none does (test_normal_contours_invert_no_node)
    a, b, c, lam = _bit_case(24, True)
    monkeypatch.setattr(riesz, "_tail_terms", lambda q: None)
    shapes = _record_solves(monkeypatch)
    riesz.riesz_projection(a, c)
    riesz.first_order_term(a, b, c)
    riesz.perturbation_check(a, b, lam, 0.5, c, [1e-2, 1e-3, 1e-4])
    assert shapes == [(c.nodes, 24, 24)] * 3 + [(c.nodes, 24, 1)] * 3


def test_non_finite_norm_of_b_falls_back_without_a_warning(monkeypatch):
    # ||B||_F = sqrt(2) 1e308 overflows: the slack and q are inf, so each
    # eps contour reads one eigvals and solves; the floor then refuses the
    # report. The suite turns any numpy warning into an error.
    a = np.diag([0.0, 2.0]).astype(complex)
    b = np.array([[0.0, 1e308], [1e308, 0.0]], dtype=complex)
    c = Contour(0.0, 0.5)
    assert riesz._admit(a, c) is not None
    eigvals = _count_calls(monkeypatch, "eigvals")
    shapes = _record_solves(monkeypatch)
    with pytest.raises(NumericalAmbiguity, match="^rounding floor inf"):
        riesz.perturbation_check(a, b, 0.0, 0.0, c, [1e-2, 1e-3])
    assert eigvals[0] == 2
    assert shapes == [(c.nodes, 2, 1)] * 2


def test_non_finite_k_falls_back(monkeypatch):
    # refused before any term: a BLAS that skips zero factors would not
    # carry an inf of K into the sum. _series_rows runs under
    # perturbation_check's errstate, as here.
    a, b, c, _ = _bit_case(8, True)
    basis = riesz._admit(a, c)
    cb = basis.u.conj().T @ b @ basis.u
    norm_b = riesz.core.frobenius(b)
    rows = np.ones((1, 8), dtype=complex)
    assert riesz._series_rows(basis, cb, norm_b, rows, 1e-4, c) is not None

    def unreachable(*args):
        raise AssertionError("the series ran on a non-finite K")

    monkeypatch.setattr(riesz, "_neumann_rows", unreachable)
    for bad in (np.inf, np.nan):
        cb[3, 5] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            assert riesz._series_rows(basis, cb, norm_b, rows, 1e-4, c) is None


def test_non_finite_sum_falls_back():
    a, b, c, _ = _bit_case(8, True)
    basis = riesz._admit(a, c)
    cb = basis.u.conj().T @ b @ basis.u
    rows = np.zeros((1, 8), dtype=complex)
    rows[0, 2] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        assert riesz._series_rows(basis, cb, riesz.core.frobenius(b), rows, 1e-4, c) is None


def _spectral_bound_cases():
    """(name, m): a complex Gaussian matrix, a normal one, a rank-one one
    and the nilpotent Jordan block at n = 2-48."""
    for n in (2, 3, 5, 8, 16, 24, 33, 48):
        rng = np.random.default_rng(3600 + n)
        x, y = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
        yield f"gaussian-{n}", rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        yield f"normal-{n}", random_normal(rng, n)
        yield f"rank-one-{n}", np.outer(x, y.conj())
        yield f"jordan-{n}", np.eye(n, k=1, dtype=complex)


_SPECTRAL_BOUND_CASES = list(_spectral_bound_cases())


@pytest.mark.parametrize("name, m", _SPECTRAL_BOUND_CASES, ids=[name for name, _ in _SPECTRAL_BOUND_CASES])
def test_spectral_bound_lies_between_the_two_norm_and_frobenius(name, m):
    # ||m||_2 <= bound <= ||m||_F, and 2^k m gets exactly 2^k times the
    # bound: unscaled, (m*m)^2 would overflow at 2^400 and underflow at
    # 2^-400, where a bound of 0 would admit any series. The SVD's sigma_1
    # carries its own rounding: for rank one, where the bound is ||m||_F,
    # the two figures are the same number rounded two ways.
    n = m.shape[0]
    eps = np.finfo(float).eps
    base = riesz._spectral_bound(m, riesz.core.frobenius(m))
    for k in (0, 400, -400):
        scaled = m * 2.0**k
        norm_f = riesz.core.frobenius(scaled)
        bound = riesz._spectral_bound(scaled, norm_f)
        assert bound == math.ldexp(base, k)
        assert np.linalg.norm(scaled, 2) <= bound * (1 + n * eps / 2) and bound <= norm_f
    if name.startswith("jordan") and n > 2:
        # m*m = diag(0, 1, ..., 1) and its square are exact: the Schatten-8
        # norm (n - 1)^(1/8), far below ||m||_F = (n - 1)^(1/2), plus the
        # rounding term 8 (n + 2) eps ||m||_F^4 under the fourth root
        assert base == pytest.approx(((n - 1) ** 0.5 + 8 * (n + 2) * eps * (n - 1) ** 2) ** 0.25, rel=1e-15)
        assert base < 1.001 * (n - 1) ** 0.125


def test_spectral_bound_keeps_every_series_contour_on_benchmark_draws(monkeypatch):
    # perfbench `spectral` perturbation_check operations, seed 1, rounds
    # 0-9: q never exceeds ||B||_F's q, so every eps contour whose series
    # paid at that ratio still runs it, and 24 of the 34 that solved no
    # longer do; at n = 48 the series runs 15, 8 and 6 terms at eps = 1e-2,
    # 1e-3 and 1e-4, where ||B||_F's ratio needed 30-33, 11 and 7
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    bench = importlib.import_module("bench_workloads")
    workload = bench.Spectral(1)
    ops = [op for r in range(10) for op in workload.round(r) if op.kind == "perturbation_check"]
    real = riesz._series_rows
    norm_b = [None]
    seen = []

    def recording(basis, cb, norm_c, x, eps, c):
        found = real(basis, cb, norm_c, x, eps, c)
        before = riesz._tail_terms(basis.gmax * (basis.off + eps * norm_b[0]))
        m = riesz._tail_terms(basis.gmax * (basis.off + eps * norm_c))
        seen.append((x.shape[1], eps, before is not None and riesz._series_pays(before, *x.shape), found is not None, m))
        return found

    monkeypatch.setattr(riesz, "_series_rows", recording)
    for op in ops:
        norm_b[0] = riesz.core.frobenius(inspect.signature(op.call).parameters["b"].default)
        op.call()
    assert len(seen) == 180
    assert all(now for _, _, before, now, _ in seen if before)
    assert (sum(before for _, _, before, _, _ in seen), sum(now for _, _, _, now, _ in seen)) == (146, 170)
    n48 = [m for n, _, _, _, m in seen if n == 48]
    assert max(m for n, eps, _, _, m in seen if n == 48 and eps == 1e-2) <= 15
    assert sum(n48) / len(n48) <= 10


def test_neumann_rows_sums_m_terms():
    # m terms are X G sum_{k < m} (K G)^k at every node, summed with the
    # trapezoid weights and mapped back by U*
    a, b, c, _ = _bit_case(8, True)
    basis = riesz._admit(a, c)
    k = basis.e + 1e-2 * (basis.u.conj().T @ b @ basis.u)
    x = np.random.default_rng(8).normal(size=(2, 8)) + 0j
    phases, _ = riesz._nodes(c)
    for m in (1, 2, 3):
        terms = []
        for g in basis.g:
            step = np.diag(g)
            term = x @ basis.u @ step
            total = term
            for _ in range(m - 1):
                term = term @ k @ step
                total = total + term
            terms.append(total)
        want = riesz._combine(phases, np.array(terms), c) @ basis.u.conj().T
        _assert_near(riesz._neumann_rows(x, basis, k, m, c), want)


def test_nonnormal_p0_contour_inverts_every_node(monkeypatch):
    rng = np.random.default_rng(32)
    n = 16
    a, b, c, lam, mu = _cluster_case(rng, n, 2, False)
    shapes = _record_solves(monkeypatch)
    riesz.perturbation_check(a, b, lam, mu, c, [1e-2, 1e-3, 1e-4])
    # P0's contour inverts every node; each eps contour solves r columns
    assert shapes == [(c.nodes, n, n)] + [(c.nodes, n, 2)] * 3


def test_perturbation_non_integer_trace_raises(monkeypatch):
    # with the margin check off, an eigenvalue 2% outside the circle leaves
    # a trapezoid error of about 1.02^-64 = 0.28 in P0's trace
    monkeypatch.setattr(riesz, "_check_margin", lambda vals, slack, c: None)
    a = np.diag([0.0, 1.02]).astype(complex)
    with pytest.raises(EigenvalueOnContour, match="^projection trace"):
        riesz.perturbation_check(a, PAULI_X, 0.0, 0.0, Contour(0.0, 1.0), [1e-3])


def test_first_order_worked_example():
    a = np.diag([0.0, 2.0]).astype(complex)
    t = riesz.first_order_term(a, PAULI_X, Contour(0.0, 0.5))
    expect = np.array([[0, -0.5], [-0.5, 0]], dtype=complex)
    assert np.abs(t - expect).max() <= 1e-10


def test_first_order_zero_perturbation():
    a = np.diag([0.0, 2.0]).astype(complex)
    t = riesz.first_order_term(a, np.zeros((2, 2)), Contour(0.0, 0.5))
    assert np.abs(t).max() == 0.0


def test_first_order_second_order_pole():
    # B = I: integrand is R^2 = -dR/du, whose contour integral vanishes
    a = np.diag([0.0, 2.0]).astype(complex)
    t = riesz.first_order_term(a, np.eye(2), Contour(0.0, 0.5))
    assert np.abs(t).max() <= 1e-12


def test_perturbation_quadratic_slope():
    a = np.diag([0.0, 2.0]).astype(complex)
    rep = riesz.perturbation_check(
        a, PAULI_X, 0.0, 0.0, Contour(0.0, 0.5), [1e-2, 1e-3, 1e-4]
    )
    assert not rep.exact
    assert rep.slope == pytest.approx(2.0, abs=0.1)


def test_perturbation_zero_b_exact():
    a = np.diag([0.0, 2.0]).astype(complex)
    rep = riesz.perturbation_check(
        a, np.zeros((2, 2)), 0.0, 0.0, Contour(0.0, 0.5), [1e-2, 1e-3]
    )
    assert rep.exact
    assert rep.slope is None
    assert np.all(rep.residuals <= 1e-13 * 3)


def test_perturbation_diagonal_exact():
    # diagonal B: A_eps - lambda_eps annihilates e1 exactly at first order
    a = np.diag([0.0, 2.0]).astype(complex)
    b = np.diag([1.0, 0.0]).astype(complex)
    rep = riesz.perturbation_check(a, b, 0.0, 1.0, Contour(0.0, 0.5), [1e-2, 1e-3])
    assert rep.exact


def test_perturbation_needs_a_finite_rounding_floor():
    # at 1e154 the floor 1e-13 (||A||_F + |lambda| + eps (||B||_F + |mu|))
    # overflows, and every finite residual would sit below it: refused, with
    # no numpy warning, where the parent certified exact; at 1e150 the floor
    # is finite
    def run(scale):
        a = scale * np.diag([1.0, 2.0]).astype(complex)
        b = scale * np.array([[0.3, 1.0], [1.0, 0.1]], dtype=complex)
        return riesz.perturbation_check(a, b, scale, 0.3 * scale, Contour(scale, scale / 2), [1e-2, 1e-3, 1e-4])

    rep = run(1e150)
    assert not rep.exact and rep.slope == pytest.approx(2.0, abs=1e-3)
    with pytest.raises(NumericalAmbiguity, match="^rounding floor inf and largest residual"):
        run(1e154)


def test_perturbation_contour_capture():
    # at eps = 1.118 the lower eigenvalue 1 - sqrt(1 + eps^2) lands on the
    # circle |u| = 0.5 within the margin
    a = np.diag([0.0, 2.0]).astype(complex)
    with pytest.raises(ContourCapturesPerturbedSpectrumBoundary):
        riesz.perturbation_check(
            a, PAULI_X, 0.0, 0.0, Contour(0.0, 0.5), [1.118]
        )


def test_perturbation_rejects_bad_eps():
    a = np.diag([0.0, 2.0]).astype(complex)
    with pytest.raises(ValueError):
        riesz.perturbation_check(a, PAULI_X, 0.0, 0.0, Contour(0.0, 0.5), [])
    with pytest.raises(ValueError):
        riesz.perturbation_check(a, PAULI_X, 0.0, 0.0, Contour(0.0, 0.5), [-1e-3])


@pytest.mark.parametrize("k", range(5))
def test_random_projection_invariants(k):
    rng = np.random.default_rng(700 + k)
    n = int(rng.integers(3, 9))
    vals = separated_vals(rng, n, sep=0.2)
    a = random_normal(rng, n, vals=vals)
    target = vals[int(rng.integers(n))]
    others = vals[np.abs(vals - target) > 1e-9]
    radius = 0.45 * np.abs(others - target).min() if others.size else 0.3
    c = Contour(complex(target), float(radius))
    r = riesz.riesz_projection(a, c)
    scale = 1.0 + np.linalg.norm(a)
    assert r.idempotency_residual <= 1e-10 * scale
    assert r.commutation_residual <= 1e-10 * scale
    enclosed = int(np.sum(np.abs(vals - target) < radius))
    assert r.rank_estimate == enclosed
    # trapezoid quadrature is exponentially convergent: doubling nodes is a no-op
    r2 = riesz.riesz_projection(a, Contour(c.center, c.radius, nodes=128))
    assert np.linalg.norm(r2.projection - r.projection) <= 1e-10


def test_projection_continuity_in_eps():
    # ||P_eps - P_0 - eps*Ptilde|| shrinks quadratically
    a = np.diag([0.0, 2.0]).astype(complex)
    c = Contour(0.0, 0.5)
    p0 = riesz.riesz_projection(a, c).projection
    pt = riesz.first_order_term(a, PAULI_X, c)
    eps = np.array([1e-2, 1e-3, 1e-4])
    errs = []
    for e in eps:
        pe = riesz.riesz_projection(a + e * PAULI_X, c).projection
        errs.append(np.linalg.norm(pe - p0 - e * pt))
    slope = np.polyfit(np.log10(eps), np.log10(errs), 1)[0]
    assert slope >= 1.8


def test_slope_csv():
    a = np.diag([0.0, 2.0]).astype(complex)
    rep = riesz.perturbation_check(
        a, PAULI_X, 0.0, 0.0, Contour(0.0, 0.5), [1e-2, 1e-3, 1e-4]
    )
    text = riesz.emit_slope_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "epsilon,residual"
    assert len(lines) == 5
    assert lines[-1].startswith("# slope=")
    rep = riesz.perturbation_check(
        a, np.zeros((2, 2)), 0.0, 0.0, Contour(0.0, 0.5), [1e-2]
    )
    assert riesz.emit_slope_csv(rep).strip().splitlines()[-1] == "# exact=true"


def test_lemma34_diagonal():
    a = np.diag([0.0, 1.0]).astype(complex)
    b = np.diag([2.0, 1.0]).astype(complex)
    res = riesz.lemma34_solver(a, b, 2.0, [10.0, 100.0, 1000.0])
    assert np.abs(res.vector - np.array([1.0, 0.0])).max() <= 1e-8
    assert res.residual_a <= 1e-12
    assert res.residual_b <= 1e-12
    assert len(res.history) == 3


def test_lemma34_zero_a():
    a = np.zeros((2, 2), dtype=complex)
    b = np.diag([2.0, 1.0]).astype(complex)
    res = riesz.lemma34_solver(a, b, 2.0)
    assert np.abs(res.vector - np.array([1.0, 0.0])).max() <= 1e-8
    assert res.residual_a == 0.0


def test_lemma34_conjugated():
    rng = np.random.default_rng(41)
    u = random_unitary(rng, 2)
    a = (u * np.array([0.0, 1.0])) @ u.conj().T
    b = (u * np.array([2.0, 1.0])) @ u.conj().T
    res = riesz.lemma34_solver(a, b, 2.0)
    assert res.residual_a <= 1e-8
    assert res.residual_b <= 1e-8
    # v equals the first column of U up to the fixed phase convention
    target = u[:, 0]
    target = target * (abs(target[np.argmax(np.abs(target))]) / target[np.argmax(np.abs(target))])
    assert np.abs(res.vector - target).max() <= 1e-6


def test_lemma34_validation():
    a = np.zeros((2, 2), dtype=complex)
    b = np.diag([2.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        riesz.lemma34_solver(a, b, 0.0)
    with pytest.raises(ValueError):
        riesz.lemma34_solver(a, b, 3.0)  # |mu| != ||B||
    with pytest.raises(ValueError):
        riesz.lemma34_solver(a, b, 2.0, [])


def test_lemma34_line_not_in_spectrum():
    # spectrum of (diag(3,4), diag(2,1)) contains no line {2w + 1 = 0}
    a = np.diag([3.0, 4.0]).astype(complex)
    b = np.diag([2.0, 1.0]).astype(complex)
    with pytest.raises(LineNotInSpectrum):
        riesz.lemma34_solver(a, b, 2.0)


@pytest.mark.parametrize("mu", [1.0, 5.0, 1e300])
def test_lemma34_refuses_mu_when_the_norm_of_b_overflows(mu):
    # ||B||_2 = 2e308 overflows to inf; the gate must refuse mu on the norm
    # itself, not leave it to a probe's LineNotInSpectrum
    a = np.diag([0.0, 1.0]).astype(complex)
    b = np.full((2, 2), 1e308, dtype=complex)
    with pytest.raises(ValueError, match=r"must match the operator norm of b \(inf\)"):
        riesz.lemma34_solver(a, b, mu)


def _lemma34_pair(n, seed):
    """A commuting pair with A e = 0 and B e = 2e for e = U e_1, ||B||_2 = 2."""
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    a_vals = np.concatenate([[0.0], rng.uniform(0.5, 1.5, n - 1)])
    b_vals = np.concatenate([[2.0], rng.uniform(0.2, 1.5, n - 1)])
    return (u * a_vals) @ u.conj().T, (u * b_vals) @ u.conj().T


_LEMMA34_ZS = np.exp(0.7j) * 10.0 ** np.arange(1, 7)


def _same_bytes(res, vector, history):
    return res.vector.tobytes() == vector.tobytes() and res.history == history


def _nan_svd(monkeypatch, compute_uv):
    """Make np.linalg.svd return NaN singular values (compute_uv False) or
    NaN singular vectors (compute_uv True), and behave normally otherwise."""
    real = np.linalg.svd

    def fake(m, *args, **kwargs):
        out = real(m, *args, **kwargs)
        if kwargs.get("compute_uv", True) != compute_uv:
            return out
        if not compute_uv:
            return np.full_like(out, np.nan)
        u, s, vh = out
        return u, s, np.full_like(vh, np.nan)

    monkeypatch.setattr(np.linalg, "svd", fake)


def _force_svd_fallback(monkeypatch):
    """Make every inverse-iteration iterate inf, so that lemma34_solver
    reaches the SVD of the probes and of the ramp on any input."""
    monkeypatch.setattr(np.linalg, "inv", lambda m: np.full(np.shape(m), np.inf, dtype=complex))


def test_lemma34_probe_gate_refuses_a_nan_singular_value(monkeypatch):
    # a diagonal pair reaches the SVD through an exactly singular LU, and a
    # conjugated one through a forced fallback
    a = np.diag([0.0, 1.0]).astype(complex)
    b = np.diag([2.0, 1.0]).astype(complex)
    ca, cb = _lemma34_pair(5, 6)
    _nan_svd(monkeypatch, compute_uv=False)
    with pytest.raises(LineNotInSpectrum, match="smallest singular value nan"):
        riesz.lemma34_solver(a, b, 2.0, [10.0])
    _force_svd_fallback(monkeypatch)
    with pytest.raises(LineNotInSpectrum, match="smallest singular value nan"):
        riesz.lemma34_solver(ca, cb, 2.0, [10.0])


def test_lemma34_residual_gate_refuses_nan_residuals(monkeypatch):
    a = np.diag([0.0, 1.0]).astype(complex)
    b = np.diag([2.0, 1.0]).astype(complex)
    ca, cb = _lemma34_pair(5, 6)
    _nan_svd(monkeypatch, compute_uv=True)
    with pytest.raises(NoConvergence, match=r"\|\|Av\|\| = nan"):
        riesz.lemma34_solver(a, b, 2.0, [10.0])
    _force_svd_fallback(monkeypatch)
    with pytest.raises(NoConvergence, match=r"\|\|Av\|\| = nan"):
        riesz.lemma34_solver(ca, cb, 2.0, [10.0])


def test_lemma34_refuses_an_overflowing_ramp():
    # z = 10 times the 1e308 eigenvalue of A overflows the ramp matrix, and
    # an SVD of a stack holding inf gives no answer to trust
    a = np.diag([1e-160, 1e-160, 1e308]).astype(complex)
    b = np.diag([3e-200, 1.0, 3e-200]).astype(complex)
    with pytest.raises(NumericalAmbiguity, match=r"^ramp matrix I \+ zA - B/mu overflows at z = 10\+0j$"):
        riesz.lemma34_solver(a, b, 1.0)


def test_lemma34_phase_convention():
    # rotate the first example by a global phase; output phase is pinned
    a = np.diag([0.0, 1.0]).astype(complex)
    b = np.diag([2.0, 1.0]).astype(complex)
    res = riesz.lemma34_solver(a, b, 2.0)
    piv = res.vector[int(np.argmax(np.abs(res.vector)))]
    assert piv.imag == pytest.approx(0.0, abs=1e-12)
    assert piv.real > 0
    assert np.linalg.norm(res.vector) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 5, 16, 33])
def test_lemma34_ramp_matches_the_svd_within_rounding(n):
    a, b = _lemma34_pair(n, 60 + n)
    mu = complex(2.0)
    res = riesz.lemma34_solver(a, b, mu)
    zs = np.array([z for z, *_ in res.history])
    stack = riesz._ramp(np.eye(n, dtype=complex) - b / mu, zs, a)
    vectors = riesz._inverse_iteration(stack)
    if n == 2:
        # this 2 x 2 ramp's adjoint has an exactly zero LU pivot; M's own
        # LU, the one the inverse reads, has none
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(stack.conj().transpose(0, 2, 1), np.ones((len(zs), n, 1)))
    _, svals, vh = np.linalg.svd(stack)
    u = np.finfo(float).eps / 2
    for k, (z, sigma, res_a, res_b) in enumerate(res.history):
        v = riesz._fix_phase(vectors[k])
        fro = np.linalg.norm(stack[k])
        # ||Mv|| bounds sigma_min from above, up to the rounding of ||Mv||
        assert svals[k, -1] - u * fro <= sigma <= svals[k, -1] + n * u * fro
        assert np.abs(v - riesz._fix_phase(np.conj(vh[k, -1]))).max() <= 1e-13
        assert sigma.hex() == float(np.linalg.norm(stack[k] @ v)).hex()
        assert res_a.hex() == float(np.linalg.norm(a @ v)).hex()
        assert res_b.hex() == float(np.linalg.norm(b @ v - mu * v)).hex()
    assert v.tobytes() == res.vector.tobytes()


def _count_svds(monkeypatch):
    """Record compute_uv of every np.linalg.svd call (norm(B, 2) calls
    numpy's own binding, not this one)."""
    calls = []
    real = np.linalg.svd

    def counting(m, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize("normal", [True, False])
def test_lemma34_fast_path_runs_no_svd_and_reads_theta_from_eig_normal(monkeypatch, normal):
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 6)
    t = np.diag(np.concatenate([[0.0], rng.uniform(0.5, 1.5, 5)])).astype(complex)
    if not normal:
        # the kernel vector stays, and A is no longer normal
        t[2, 3] = 0.1
    a = u @ t @ u.conj().T
    b = (u * np.concatenate([[2.0], rng.uniform(0.2, 1.5, 5)])) @ u.conj().T
    svds = _count_svds(monkeypatch)
    eigvals = _count_calls(monkeypatch, "eigvals")
    riesz.lemma34_solver(a, b, 2.0)
    assert svds == []
    assert eigvals == [0 if normal else 1]


def test_lemma34_singular_lu_falls_back_to_the_svd_bytes(monkeypatch):
    # the diagonal I + zA - B/mu has an exact zero pivot at every z
    a = np.diag([0.0, 1.0, 3.0]).astype(complex)
    b = np.diag([2.0, 1.0, -0.5]).astype(complex)
    assert riesz._inverse_iteration(riesz._ramp(np.eye(3) - b / 2.0, _LEMMA34_ZS, a)) is None
    svds = _count_svds(monkeypatch)
    res = riesz.lemma34_solver(a, b, 2.0, _LEMMA34_ZS)
    assert svds == [False, True]
    assert _same_bytes(res, *reference_lemma34_ramp(a, b, 2.0, _LEMMA34_ZS))


def test_lemma34_non_finite_iterate_falls_back_to_the_svd_bytes(monkeypatch):
    # diag(1e-300, 1): the first pivot of I + zA - B/mu is z 1e-300, and
    # two products with its inverse overflow
    a = np.diag([1e-300, 1.0]).astype(complex)
    b = np.diag([2.0, 1.0]).astype(complex)
    assert riesz._inverse_iteration(riesz._ramp(np.eye(2) - b / 2.0, _LEMMA34_ZS, a)) is None
    res = riesz.lemma34_solver(a, b, 2.0, _LEMMA34_ZS)
    assert _same_bytes(res, *reference_lemma34_ramp(a, b, 2.0, _LEMMA34_ZS))
    # a non-diagonal pair, its iterates forced to inf
    a, b = _lemma34_pair(7, 11)
    _force_svd_fallback(monkeypatch)
    svds = _count_svds(monkeypatch)
    res = riesz.lemma34_solver(a, b, 2.0, _LEMMA34_ZS)
    assert svds == [False, True]
    assert _same_bytes(res, *reference_lemma34_ramp(a, b, 2.0, _LEMMA34_ZS))


def test_eps_list_and_zs_read_arrays_lists_and_generators_alike():
    # core.as_values: an ndarray, a list and a generator of the same values
    # give the same bytes
    a, b, c, lam = _bit_case(8, True)
    eps = np.array([1e-2, 1e-3, 1e-4])
    want = riesz.perturbation_check(a, b, lam, 0.5, c, eps)
    for other in (eps.tolist(), (e for e in eps)):
        got = riesz.perturbation_check(a, b, lam, 0.5, c, other)
        assert (got.residuals.tobytes(), got.slope) == (want.residuals.tobytes(), want.slope)
    a, b = _lemma34_pair(6, 36)
    want = riesz.lemma34_solver(a, b, 2.0, _LEMMA34_ZS)
    for other in (_LEMMA34_ZS.tolist(), (z for z in _LEMMA34_ZS)):
        assert _same_bytes(riesz.lemma34_solver(a, b, 2.0, other), want.vector, want.history)


def test_inverse_iteration_inverts_each_stack_once(monkeypatch):
    # one batched inverse per stack and no solve; an exactly singular
    # matrix anywhere in the stack still gives None
    a, b = _lemma34_pair(6, 36)
    stack = riesz._ramp(np.eye(6) - b / 2.0, _LEMMA34_ZS, a)
    inverses = _count_calls(monkeypatch, "inv")
    monkeypatch.setattr(np.linalg, "solve", lambda *args: pytest.fail("solve called"))
    assert riesz._inverse_iteration(stack) is not None
    assert inverses == [1]
    singular = stack.copy()
    singular[3] = np.diag([1.0, 2.0, 0.0, 1.0, 1.0, 1.0])
    assert riesz._inverse_iteration(singular) is None
    assert inverses == [2]


def _wrong_vectors_at_call(monkeypatch, which):
    """Make the which-th _inverse_iteration call (0: the probes, 1: the
    ramp) return unit vectors that miss: each matrix's own vector moved by
    1e-3 into a second coordinate."""
    real = riesz._inverse_iteration
    calls = []

    def wrong(stack):
        v = real(stack)
        if len(calls) == which:
            v = v + 1e-3 * np.roll(v, 1, axis=1)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
        calls.append(1)
        return v

    monkeypatch.setattr(riesz, "_inverse_iteration", wrong)


def test_lemma34_probe_miss_runs_the_values_svd(monkeypatch):
    a, b = _lemma34_pair(8, 6)
    svds = _count_svds(monkeypatch)
    fast = riesz.lemma34_solver(a, b, 2.0, _LEMMA34_ZS)
    assert svds == []
    _wrong_vectors_at_call(monkeypatch, 0)
    res = riesz.lemma34_solver(a, b, 2.0, _LEMMA34_ZS)
    # the SVD certifies the probes, and the ramp is the fast one
    assert svds == [False]
    assert _same_bytes(res, fast.vector, fast.history)


def test_lemma34_probe_miss_raises_with_the_svd_sigma():
    # the conjugated diag(3, 4), diag(2, 1) holds no line {2w + 1 = 0}
    u = random_unitary(np.random.default_rng(8), 2)
    a = (u * np.array([3.0, 4.0])) @ u.conj().T
    b = (u * np.array([2.0, 1.0])) @ u.conj().T
    probes = np.exp(2j * np.pi * np.arange(5) / 5) / (1.0 + np.linalg.norm(a, 2))
    stack = riesz._ramp(np.eye(2) - b / 2.0, probes, a)
    assert not riesz._probes_certified(stack)
    sigma = np.linalg.svd(stack, compute_uv=False)[0, -1]
    with pytest.raises(LineNotInSpectrum) as exc:
        riesz.lemma34_solver(a, b, 2.0)
    assert str(exc.value).startswith(f"smallest singular value {sigma:.3e} at probe z = ")


def test_lemma34_residual_miss_falls_back_to_the_svd_bytes(monkeypatch):
    a, b = _lemma34_pair(8, 6)
    svds = _count_svds(monkeypatch)
    riesz.lemma34_solver(a, b, 2.0, _LEMMA34_ZS)
    assert svds == []
    _wrong_vectors_at_call(monkeypatch, 1)
    res = riesz.lemma34_solver(a, b, 2.0, _LEMMA34_ZS)
    assert svds == [True]
    assert _same_bytes(res, *reference_lemma34_ramp(a, b, 2.0, _LEMMA34_ZS))
