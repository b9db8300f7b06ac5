"""Shared random-instance generators, stand-ins and reference
implementations for the test suite.

Everything takes an explicit rng so tests stay reproducible; eigenvalue
moduli are kept inside [0.3, 1.5] and away from 0 so no route has to deal
with near-singular scaling unless a test asks for it.
"""

import functools
import importlib.util
import math
from pathlib import Path

import numpy as np

from projspec import agmon, commute, core, detpoly, linegeom, riesz
from projspec.errors import NoConvergence, SingularResolvent


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_diag_vals(rng, n, lo=0.5, hi=1.2):
    return rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def separated_vals(rng, n, lo=0.5, hi=1.5, sep=0.15):
    while True:
        vals = rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        d = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > sep:
            return vals


def random_normal(rng, n, vals=None):
    if vals is None:
        vals = random_diag_vals(rng, n)
    u = random_unitary(rng, n)
    return (u * vals) @ u.conj().T


def commuting_pair(rng, n):
    u = random_unitary(rng, n)
    a = (u * random_diag_vals(rng, n)) @ u.conj().T
    b = (u * random_diag_vals(rng, n)) @ u.conj().T
    return a, b


def noncommuting_pair(rng, n, threshold=0.1):
    if n < 2:
        raise ValueError(f"matrices of dimension {n} always commute")
    while True:
        u1 = random_unitary(rng, n)
        u2 = random_unitary(rng, n)
        a = (u1 * random_diag_vals(rng, n)) @ u1.conj().T
        b = (u2 * random_diag_vals(rng, n)) @ u2.conj().T
        c = a @ b - b @ a
        if np.linalg.norm(c) > threshold:
            return a, b


# Eigenvalues with a double value 1 + 2i; shifting one copy by less than a
# deflation radius makes a straddle that a Hermitian or skew pass merges.
STRADDLE_BASE = np.array([1 + 2j, 1 + 2j, -3 + 0.5j, 2 - 1j])

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# a bipoly with finite coefficients whose ray slice overflows: its degree-1
# term 1.7e308 * (1 + g) is inf for most phases g (for factor_lines' seeds
# 2-5), and then every entry, the constant 1 included, is dust
OVERFLOWING_RAY = "bipoly 1\n0 0 1 0\n1 0 1.7e308 0\n0 1 1.7e308 0\n"


def line_product(lines):
    """The polynomial prod (1 + lam z + mu w)^m of (lam, mu, m) triples, in
    its own total degree."""
    arr = [(linegeom.Line(complex(lam), complex(mu)), m) for lam, mu, m in lines]
    return linegeom.expand_arrangement(arr, sum(m for _, _, m in lines))


def line_powers():
    """(m, lines) for exact line powers (1 + lam z + mu w)^m, m = 2-8, alone
    and times two other lines."""
    others = [(0.5 - 0.3j, 1.2j, 1), (-0.8, 0.4 + 0.6j, 1)]
    for m in range(2, 9):
        for extra in ([], others):
            yield m, [(0.7 + 0.2j, -1.1 + 0.5j, m), *extra]


def inconsistent_report(a, b, *args, **kwargs):
    """Stand-in for commute.equivalence_check and for its check of an admitted
    pair, commute._check_pair: a commuting pair certified notlines."""
    verdict = linegeom.LineVerdict(False, None, (0.5 + 0j, 0.25 + 0j), 0.0)
    return commute.EquivalenceReport(True, 0.0, verdict, False)


def refuse_common_schur_basis(monkeypatch):
    """Make the common Schur basis of commute.tuple_test report every lower
    part as +inf, and no certificate, so the tuple is refused and each pair
    runs the check of equivalence_check, commute._check_pair."""
    real = commute._schur_diagonals

    def refusing(mats, phases, norms, tol):
        nus, v, diags, lower, _ = real(mats, phases, norms, tol)
        return nus, v, diags, np.full_like(lower, np.inf), False

    monkeypatch.setattr(commute, "_schur_diagonals", refusing)


def commuting_tuple(rng, n, k):
    """k normal matrices U diag(d_i) U* sharing one random unitary U."""
    u = random_unitary(rng, n)
    return [(u * random_diag_vals(rng, n)) @ u.conj().T for _ in range(k)]


def off_curve_witnesses(*args):
    """Stand-in for linegeom._curvature_witnesses, the witness selection of
    factor_lines and pencil_verdict: one candidate witness, off every curve
    det(I + zA + wB) = 0 that the tests pass it, e.g. 1 - z^2 - w^2 for
    (PAULI_Z, PAULI_X)."""
    return [(0.5 + 0j, 0.25 + 0j)]


def near_commuting_pair(rng, n, eps):
    """A commuting_pair (A, B) with B replaced by W B W*, W = exp(i eps H)
    for a random Hermitian H: normal, and off commuting by O(eps)."""
    a, b = commuting_pair(rng, n)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    vals, vecs = np.linalg.eigh((x + x.conj().T) / 2)
    w = (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
    return a, w @ b @ w.conj().T


def fail_eig(monkeypatch):
    """Make np.linalg.eig raise LinAlgError (the Schur-basis eigensolve of
    linegeom.pencil_verdict)."""

    def failing(x):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", failing)


def fail_eigh(monkeypatch):
    """Make np.linalg.eigh raise LinAlgError (the Hermitian eigensolves of
    core.joint_diagonalize: the normal route of the common Schur basis, the
    joint eigenbasis of commute and core.eig_normal)."""

    def failing(x):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)


def fail_solve(monkeypatch):
    """Make np.linalg.solve raise LinAlgError, as it does on a singular
    matrix (the eigenvector solve of the notlines path of
    linegeom.pencil_verdict)."""

    def failing(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing)


def fail_batched_eigvals(monkeypatch, after=0):
    """Make np.linalg.eigvals raise LinAlgError on stacks of matrices (the
    batched eigensolves of detpoly's grid) once `after` stacks have been
    solved, and behave normally on single matrices."""
    real = np.linalg.eigvals
    solved = [0]

    def failing(x):
        if np.ndim(x) == 3:
            if solved[0] >= after:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            solved[0] += 1
        return real(x)

    monkeypatch.setattr(np.linalg, "eigvals", failing)


def _ray_witnesses(lams, mus, rays, norms, tol):
    """Candidate notlines witnesses from ray spectra, most separated first:
    the earlier witness rule of linegeom.factor_lines and pencil_verdict.

    Each ray (g, roots nu of the slice t -> p(t, g t) = prod(1 + nu t),
    for a matrix pair the eigenvalues of A + gB) gives the points
    z = -1/nu, w = g z of the zero set. Roots at most ZERO_PAIR_REL
    (||A||_F + |g| ||B||_F), with norms = (||A||_F, ||B||_F), are constant
    factors and give no point. Kept are those off every candidate line
    1 + lams[i] z + mus[j] w by linegeom._line_ratio above tol.line,
    ordered by the smallest ratio, largest first.
    """
    norm_a, norm_b = norms
    margins, points = [], []
    for g, nus in rays:
        nus = nus[np.abs(nus) > linegeom.ZERO_PAIR_REL * (norm_a + abs(g) * norm_b)]
        cand = (lams[:, None] + g * mus[None, :]).ravel()
        size = (np.abs(lams)[:, None] + abs(g) * np.abs(mus)[None, :]).ravel()
        ratio = linegeom._line_ratio(nus[:, None], cand[None, :], size[None, :]).min(axis=1)
        margins.append(ratio / tol.line)
        z = -1.0 / nus
        points.append(np.stack([z, g * z], axis=1))
    margin = np.concatenate(margins)
    order = np.argsort(-margin, kind="stable")
    return [(complex(z), complex(w)) for z, w in np.concatenate(points)[order[margin[order] > 1.0]]]


def reference_ray_witness_verdict(a, b, seed=0):
    """linegeom.pencil_verdict with its earlier notlines path: on refusal,
    the witnesses of _ray_witnesses on the spectra of A, B,
    A + g0 B and A + g1 B, g1 the second phase drawn from seed, tried in
    order against the sigma_min check. Returns None where pencil_verdict
    raised NumericalAmbiguity for want of a witness."""
    a, b = core.as_cmatrices(a, b)
    tol = core.default_tolerances()
    fa, fb = core.frobenius(a), core.frobenius(b)
    gammas = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(0.0, 1.0, size=2))
    nus, _, diags, lower, certified = linegeom._schur_diagonals([a, b], gammas[:1], (fa, fb), tol)
    if certified:
        lines = linegeom.pair_arrangement(diags[0], diags[1], norm_a=fa, norm_b=fb)
        return linegeom.LineVerdict(True, lines, lower_parts=tuple(float(x) for x in lower))
    lams, mus, ray = np.linalg.eigvals(np.stack([a, b, a + gammas[1] * b]))
    rays = [(gammas[0], nus), (gammas[1], ray)]
    eye = np.eye(a.shape[0], dtype=np.complex128)
    for z, w in _ray_witnesses(lams, mus, rays, (fa, fb), tol):
        smin = np.linalg.svd(eye + z * a + w * b, compute_uv=False)[-1]
        sigma = float(smin / (1.0 + abs(z) * fa + abs(w) * fb))
        if sigma <= linegeom.WITNESS_SIGMA_REL:
            return linegeom.LineVerdict(False, None, (z, w), sigma)
    return None


def reference_direction_mismatch(a, b, arrangement):
    """The largest, over the n + 1 directions
    M_d = rho_a A + rho_b omega^d B, omega = exp(2 pi i / (n + 1)), of the
    bottleneck matching distance between the eigenvalues of M_d and the
    values rho_a lambda + rho_b omega^d mu that the arrangement predicts,
    each line counted with its multiplicity and each unit of deficit as
    (0, 0). The restrictions to these directions fix a polynomial of degree
    n, so a mismatch within tol.line certifies the arrangement's product
    against the spectra; rho_a and rho_b are reciprocal spectral norms."""
    n = a.shape[0]
    pairs = [(line.lam, line.mu) for line, m in arrangement.lines for _ in range(m)]
    pairs += [(0.0, 0.0)] * arrangement.deficit
    lam, mu = np.array(pairs, dtype=np.complex128).T
    rho_a = 1.0 / (detpoly._RADIUS_FLOOR + np.linalg.norm(a, 2))
    rho_b = 1.0 / (detpoly._RADIUS_FLOOR + np.linalg.norm(b, 2))
    omega = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    worst = 0.0
    for om in omega:
        nus = np.linalg.eigvals(rho_a * a + rho_b * om * b)
        pred = rho_a * lam + rho_b * om * mu
        worst = max(worst, linegeom._bottleneck(np.abs(nus[:, None] - pred[None, :])))
    return worst


def reference_cluster_tuples(tuples, rel=linegeom.CLUSTER_REL):
    """linegeom.cluster_tuples as a plain O(m^2) loop over Python complex
    tuples."""
    items = [tuple(complex(x) for x in t) for t in tuples]

    def key(t):
        return tuple(v for x in t for v in (x.real, x.imag))

    order = sorted(range(len(items)), key=lambda i: key(items[i]))
    used = [False] * len(items)
    clusters = []
    for i in order:
        if used[i]:
            continue
        seed = items[i]
        radius = rel * sum((abs(x) for x in seed), 1.0)
        members = []
        for j in order:
            if not used[j] and math.hypot(*(abs(x - y) for x, y in zip(items[j], seed))) <= radius:
                members.append(j)
                used[j] = True
        center = tuple(sum(items[j][c] for j in members) / len(members) for c in range(len(seed)))
        clusters.append((center, len(members)))
    clusters.sort(key=lambda t: key(t[0]))
    return clusters


def reference_cluster_tuples_all_rows(tuples, rel=linegeom.CLUSTER_REL):
    """linegeom.cluster_tuples with its earlier greedy pass over every row,
    always through the distance matrix, and the output built entry by
    entry. Bit-identical to it without scales."""
    x = np.asarray(tuples, dtype=np.complex128)
    if x.size == 0:
        return []
    m, k = x.shape
    parts = np.stack([x.real, x.imag], axis=2).reshape(m, 2 * k)
    order = np.lexsort(parts.T[::-1])
    x, parts = x[order], parts[order]
    moduli = np.hypot(x.real, x.imag)
    radius = np.ones(m)
    for c in range(k):  # left to right, as the scalar formula sums
        radius = radius + moduli[:, c]
    radius = rel * radius[:, None]
    diff = x[:, None, :] - x[None, :, :]
    dist = np.hypot.reduce(np.hypot(diff.real, diff.imag), axis=2)
    within = dist <= radius
    for p, q in zip(*np.nonzero(np.abs(dist - radius) <= linegeom._RADIUS_BAND * radius)):
        within[p, q] = linegeom._within(x[q].tolist(), x[p].tolist(), rel)
    used = np.zeros(m, dtype=bool)
    label = np.empty(m, dtype=np.intp)
    count = 0
    for p in range(m):
        if used[p]:
            continue
        members = within[p] & ~used
        used |= members
        label[members] = count
        count += 1
    sizes = np.bincount(label, minlength=count)
    by_label = np.argsort(label, kind="stable")
    rank = np.arange(m) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    sums = np.zeros((count, 2 * k))
    for r in range(int(sizes.max())):
        at = by_label[rank == r]
        sums[label[at]] += parts[at]
    centers = sums / sizes[:, None]
    final = np.lexsort(centers.T[::-1])
    return [
        (tuple(complex(re, im) for re, im in zip(row[0::2], row[1::2])), size)
        for row, size in zip(centers[final].tolist(), sizes[final].tolist())
    ]


def reference_lu_fill(a, b, rho_a, rho_b):
    """detpoly._eigen_fill as one LU determinant per grid node: the grid
    values det(I + z_s A + w_k B)."""
    n = a.shape[0]
    m = n + 1
    zs = rho_a * np.exp(2j * np.pi * np.arange(m) / m)
    ws = rho_b * np.exp(2j * np.pi * np.arange(m) / m)
    eye = np.eye(n, dtype=np.complex128)
    vals = np.empty((m, m), dtype=np.complex128)
    for s in range(m):
        stack = eye[None, :, :] + zs[s] * a[None, :, :] + ws[:, None, None] * b[None, :, :]
        vals[s, :] = np.linalg.det(stack)
    return vals


def reference_resolvent_nodes(a, c):
    """riesz._resolvent_nodes as a per-node loop: one np.linalg.solve per
    quadrature node."""
    n = a.shape[0]
    phases = np.exp(2j * np.pi * np.arange(c.nodes) / c.nodes)
    eye = np.eye(n, dtype=np.complex128)
    resolvents = []
    for ph in phases:
        u = c.center + c.radius * ph
        try:
            resolvents.append(np.linalg.solve(u * eye - a, eye))
        except np.linalg.LinAlgError:
            raise SingularResolvent(f"resolvent solve failed at node u = {u:.6g}") from None
    return phases, resolvents


def reference_escape_ladder(levels, epsilon=0.5, n_angles=agmon.DEFAULT_N_ANGLES):
    """agmon.escape_ladder as a per-level loop: every level profiles all of
    its blocks again."""
    if isinstance(levels, (int, np.integer)):
        levels = range(1, int(levels) + 1)
    rows = []
    for level in levels:
        spectrum = agmon.example_spectrum(int(level))
        profile = agmon.escape_radius_profile(spectrum, epsilon, n_angles)
        rows.append(
            (int(level), int(spectrum.size), agmon.max_circular_gap(spectrum), profile.min_radius)
        )
    return rows


def reference_combine(phases, terms, c):
    """riesz._combine as a Python accumulation over the nodes."""
    acc = np.zeros_like(terms[0])
    for ph, t in zip(phases, terms):
        acc = acc + ph * t
    return (c.radius / c.nodes) * acc


def reference_perturbation_check(a, b, lam, mu, c, eps_list):
    """riesz.perturbation_check with every contour inverted in full: P0 and
    each P_eps from all their node resolvents, and the residual
    ||P0 (A_eps - lambda_eps I) P_eps - eps P0 (B - mu I) P0||_F from the
    n x n products."""
    a = core.as_cmatrix(a)
    b = core.as_cmatrix(b)
    eps_arr = np.asarray(list(eps_list), dtype=np.float64)
    riesz._check_margin(np.linalg.eigvals(a), 0.0, c)
    phases, resolvents = riesz._resolvent_nodes(a, c)
    p0 = reference_combine(phases, resolvents, c)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    lead = p0 @ (b - mu * eye) @ p0
    residuals = np.empty(eps_arr.size, dtype=np.float64)
    for k, eps in enumerate(eps_arr):
        a_eps = a + eps * b
        riesz._check_margin(np.linalg.eigvals(a_eps), 0.0, c)
        ph_e, res_e = riesz._resolvent_nodes(a_eps, c)
        p_eps = reference_combine(ph_e, res_e, c)
        m = p0 @ (a_eps - (lam + eps * mu) * eye) @ p_eps - eps * lead
        residuals[k] = float(np.linalg.norm(m))
    floor = 1e-13 * (core.frobenius(a) + abs(lam) + eps_arr * (core.frobenius(b) + abs(mu)))
    live = residuals > floor
    if int(live.sum()) < 2:
        return riesz.PerturbationReport(eps_arr, residuals, None, True)
    slope = float(
        np.polyfit(np.log10(eps_arr[live]), np.log10(residuals[live]), 1)[0]
    )
    return riesz.PerturbationReport(eps_arr, residuals, slope, False)


def reference_lemma34_ramp(a, b, mu, zs):
    """(vector, history) of riesz.lemma34_solver's ramp by one full SVD per
    z, the solver's route before inverse iteration and now its fallback:
    each z's smallest right singular vector of I + zA - B/mu, phase-fixed
    (riesz._fix_phase), and (z, sigma_min, ||Av||, ||Bv - mu v||)."""
    shifted = np.eye(a.shape[0], dtype=np.complex128) - b / mu
    history = []
    for z in zs:
        _, svals, vh = np.linalg.svd(shifted + np.complex128(z) * a)
        v = riesz._fix_phase(np.conj(vh[-1]))
        history.append((complex(z), float(svals[-1]), float(np.linalg.norm(a @ v)), float(np.linalg.norm(b @ v - mu * v))))
    return v, history


def reference_escape_radius_profile(spectrum, epsilon, n_angles=agmon.DEFAULT_N_ANGLES):
    """agmon.escape_radius_profile on the full grid: every disk at every
    angle, in chunks of 512 angles. Returns the radii."""
    angles = 2.0 * math.pi * np.arange(n_angles, dtype=np.float64) / n_angles
    vals = np.asarray(list(spectrum), dtype=np.complex128).ravel()
    vals = vals[np.abs(vals) > 0.0]
    radii = np.zeros(n_angles, dtype=np.float64)
    if vals.size:
        centers = -1.0 / vals
        gap = np.abs(centers) ** 2 - (epsilon / np.abs(vals)) ** 2
        for lo in range(0, n_angles, 512):
            hi = min(lo + 512, n_angles)
            u = np.exp(1j * angles[lo:hi])
            b = (np.conj(u)[:, None] * centers[None, :]).real
            disc = b * b - gap[None, :]
            hit = disc >= 0.0
            t = np.where(hit, b + np.sqrt(np.where(hit, disc, 0.0)), 0.0)
            np.maximum(t, 0.0, out=t)
            radii[lo:hi] = t.max(axis=1)
    return radii


def _reference_split_sorted_blocks(vals, radius):
    """Chain-cluster ascending real values; break where the gap exceeds radius."""
    cuts = [0, *(np.flatnonzero(np.diff(vals) > radius) + 1).tolist(), len(vals)]
    return [np.arange(start, stop) for start, stop in zip(cuts[:-1], cuts[1:])]


def _reference_deflate(v, blocks, m, radius):
    """One deflation pass: rotate v's columns in each block wider than one
    column by the eigenvectors of m's compression to them, from LAPACK
    ``eigh`` (NoConvergence when it does not converge), and split the block
    wherever consecutive eigenvalues differ by more than radius. Returns
    the new blocks."""
    out = []
    for idx in blocks:
        if idx.size == 1:
            out.append(idx)
            continue
        sub = v[:, idx]
        c = sub.conj().T @ (m @ sub)
        try:
            vals, w = np.linalg.eigh((c + c.conj().T) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"Hermitian eigensolve did not converge: {exc}") from None
        v[:, idx] = sub @ w
        out.extend(idx[g] for g in _reference_split_sorted_blocks(vals, radius))
    return out


def reference_joint_diagonalize(hermitian_mats, radii):
    """core.joint_diagonalize on index-array blocks: V starts as the
    identity, every pass compresses every block (skipping blocks of one
    column) and the last pass runs when any block is wider than one column.
    hermitian_mats is read twice, so it must be a sequence."""
    n = hermitian_mats[0].shape[0]
    v = np.eye(n, dtype=np.complex128)
    blocks = [np.arange(n)]
    for m, radius in zip(hermitian_mats, radii):
        blocks = _reference_deflate(v, blocks, m, radius)
    if len(blocks) < n:
        weights = [np.sqrt(j + 2) / max(r, 1e-300) for j, r in enumerate(radii)]
        _reference_deflate(v, blocks, sum(w * m for w, m in zip(weights, hermitian_mats)), np.inf)
    return v


def reference_normal_eigenbasis(mats, norms):
    """core._normal_eigenbasis with every Hermitian and skew part formed up
    front, on reference_joint_diagonalize."""
    parts = [part for m in mats for part in ((m + m.conj().T) / 2.0, (m - m.conj().T) / 2.0j)]
    return reference_joint_diagonalize(parts, [core.DEFLATION_CLUSTER_REL * norm for norm in norms for _ in range(2)])


def _reference_arg2pi(z):
    a = float(np.angle(z))
    return a + 2.0 * math.pi if a < 0.0 else a


def reference_eig_normal(a, tol=None):
    """core.eig_normal with the per-scalar sort key: descending abs of each
    numpy scalar, then its argument mapped to [0, 2pi), then its position
    on the diagonal."""
    if tol is None:
        tol = core.default_tolerances()
    a = core.as_cmatrix(a)
    n = a.shape[0]
    fa, defect = core.require_normal(a, tol, "normality defect {defect:.3e}")
    if fa == 0.0:
        return core.EigenDecomposition(np.zeros(n, dtype=np.complex128), np.eye(n, dtype=np.complex128), 0.0)
    v = core._normal_eigenbasis([a], [fa])
    t = v.conj().T @ (a @ v)
    values = t.diagonal().copy()
    residual = float(np.linalg.norm(t - np.diag(values)))
    if residual > tol.eig * fa + defect:
        raise NoConvergence(f"diagonal residual {residual:.3e}")
    order = sorted(range(n), key=lambda j: (-abs(values[j]), _reference_arg2pi(values[j]), j))
    return core.EigenDecomposition(values[order], v[:, order], residual)


@functools.cache
def tool_module(name):
    """tools/<name>.py imported as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def answers_module():
    """tools/answers.py, the same-answers corpus, imported as a module."""
    return tool_module("answers")


def reference_first_order_term(a, b, c):
    """riesz.first_order_term on the eigenbasis route by the N-node triple
    sum: U (F o C + sum_m (E_im C_mk + C_im E_mk) H_imk) U*, C = U*BU and
    H_imk = sum_j w_j g_ji g_jm g_jk, H one (n, N) @ (N, n^2) product.
    a must take the closed form (riesz._closed_form)."""
    a, b = core.as_cmatrices(a, b)
    basis = riesz._closed_form(riesz._admit(a, c))
    assert basis is not None
    u, e, g, wg = basis.u, basis.e, basis.g, basis.wg
    nodes, n = g.shape
    uh = u.conj().T
    cb = uh @ b @ u
    s = (wg.T @ g) * cb
    h = (wg.T @ (g[:, :, None] * g[:, None, :]).reshape(nodes, n * n)).reshape(n, n, n)
    s += np.einsum("im,imk,mk->ik", e, h, cb) + np.einsum("im,imk,mk->ik", cb, h, e)
    return u @ s @ uh
