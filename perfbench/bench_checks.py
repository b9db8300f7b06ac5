"""Independent checks of projspec outputs.

Every reference value here is computed by the benchmark from the constructed
inputs (joint eigenvalues, eigenvectors, closed forms) with plain numpy, never
by projspec. A check returns a dict of measurements on success and raises
CheckFailed otherwise.

Two program faults are recognised by what the output shows, not by a list of
inputs: fault "a" is a commuting pair certified `notlines` (its witness is
reported with its distance to the nearest constructed line), fault "b" is a
tuple reported as commuting with hyperplanes although a pair report is not
consistent lines.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

LINE_TOL = 1e-6  # arrangement or hyperplane vs constructed joint eigenvalues
WITNESS_TOL = 1e-6  # normalized sigma_min at a notlines witness: relative backward error, at the scale of tol.line
MATRIX_TOL = 1e-8  # projections, first-order terms, eigenvalues
VECTOR_TOL = 1e-6  # lemma34 residuals and vector, as the solver's contract
SLOPE_MIN = 1.8
CLOSED_FORM_TOL = 1e-9  # CLI outputs on the tiny README inputs


class CheckFailed(Exception):
    """An output failed a check; fault names a known program fault or is None."""

    def __init__(self, reason: str, fault: str | None = None, stats: dict | None = None):
        super().__init__(reason)
        self.reason = reason
        self.fault = fault
        self.stats = stats or {}


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def matched_distance(got, want) -> float:
    """Largest distance of a closest-first matching between two point sets.

    Rows are points in C^k. When every computed point lies within t of its
    true partner and true points are more than 2t apart, closest-first finds
    that partner, so a small result is never an artefact of the matching.
    Returns inf when the sets differ in size.
    """
    got = np.asarray(got, dtype=np.complex128).reshape(len(got), -1)
    want = np.asarray(want, dtype=np.complex128).reshape(len(want), -1)
    if got.shape != want.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    dist = np.sqrt((np.abs(got[:, None, :] - want[None, :, :]) ** 2).sum(axis=2))
    rows, cols = np.unravel_index(np.argsort(dist, axis=None), dist.shape)
    used_r, used_c = set(), set()
    worst = 0.0
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i in used_r or j in used_c:
            continue
        used_r.add(i)
        used_c.add(j)
        worst = max(worst, float(dist[i, j]))
        if len(used_r) == len(got):
            break
    return worst


def expand(items):
    """Points repeated by multiplicity from (point, multiplicity) pairs."""
    return [pt for pt, mult in items for _ in range(mult)]


def line_points(arrangement):
    return expand(((line.lam, line.mu), mult) for line, mult in arrangement.lines)


def nearest_line_distance(z, w, lam, mu) -> float:
    """Euclidean distance in C^2 from (z, w) to the nearest line {1 + l z + m w = 0}."""
    lam = np.asarray(lam)
    mu = np.asarray(mu)
    return float(np.min(np.abs(1 + lam * z + mu * w) / np.sqrt(np.abs(lam) ** 2 + np.abs(mu) ** 2)))


def witness_residual(a, b, z, w) -> float:
    """sigma_min(I + zA + wB) / (1 + |z| ||A||_2 + |w| ||B||_2)."""
    n = a.shape[0]
    smin = np.linalg.svd(np.eye(n) + z * a + w * b, compute_uv=False)[-1]
    return float(smin / (1 + abs(z) * np.linalg.norm(a, 2) + abs(w) * np.linalg.norm(b, 2)))


def _indeterminate(rep, allow: bool) -> dict | None:
    if rep.indeterminate is None:
        return None
    if allow:
        return {"indeterminate": 1}
    raise CheckFailed(f"indeterminate: {rep.indeterminate}")


def commuting_pair(rep, lam, mu, *, allow_indeterminate: bool = False) -> dict:
    """equivalence_check on A = U diag(lam) U*, B = U diag(mu) U*."""
    skipped = _indeterminate(rep, allow_indeterminate)
    if skipped is not None:
        return skipped
    require(rep.commute, "commute=false for a commuting pair")
    if not rep.verdict.is_lines:
        z, w = rep.verdict.witness
        d = nearest_line_distance(z, w, lam, mu)
        fault = "a" if d <= LINE_TOL else None
        raise CheckFailed(
            f"certified notlines for a commuting pair; witness lies {d:.3e} from a constructed line",
            fault,
            {"witness_line_distance": d},
        )
    require(rep.consistent is True, "consistent is not true")
    require(rep.verdict.arrangement.deficit == 0, "nonzero deficit")
    d = matched_distance(line_points(rep.verdict.arrangement), list(zip(lam, mu)))
    require(d <= LINE_TOL, f"arrangement is {d:.3e} from the constructed lines")
    return {"line_distance": d}


def noncommuting_pair(rep, a, b, *, allow_indeterminate: bool = False) -> dict:
    """equivalence_check on a pair with ||AB - BA||_F > 0.1."""
    skipped = _indeterminate(rep, allow_indeterminate)
    if skipped is not None:
        return skipped
    require(not rep.commute, "commute=true for a non-commuting pair")
    require(not rep.verdict.is_lines, "verdict=lines for a non-commuting pair")
    require(rep.consistent is True, "consistent is not true")
    r = witness_residual(a, b, *rep.verdict.witness)
    require(r <= WITNESS_TOL, f"witness is off the curve: normalized sigma_min {r:.3e}")
    return {"witness_residual": r}


def commuting_tuple(rep, diags, *, allow_indeterminate: bool = False) -> dict:
    """tuple_test on members U diag(diags[k]) U*."""
    skipped = _indeterminate(rep, allow_indeterminate)
    if skipped is not None:
        return skipped
    bad = [
        ij for ij, r in rep.reports
        if r.indeterminate is not None or not (r.commute and r.verdict.is_lines and r.consistent)
    ]
    if bad:
        fault = "b" if rep.commute and rep.hyperplanes is not None else None
        raise CheckFailed(
            f"pair reports {bad} are not consistent lines, yet the tuple reports "
            f"commute={rep.commute} with {0 if rep.hyperplanes is None else len(rep.hyperplanes)} hyperplanes",
            fault,
        )
    require(rep.commute and rep.hyperplanes is not None, "commuting tuple without hyperplanes")
    require(rep.deficit == 0, "nonzero deficit")
    want = np.stack(diags, axis=1)
    d = matched_distance(expand(rep.hyperplanes), want)
    require(d <= LINE_TOL, f"hyperplanes are {d:.3e} from the constructed joint eigenvalues")
    return {"line_distance": d}


def riesz_projection(res, u, inside) -> dict:
    """Projection onto span of the eigenvectors u[:, inside]."""
    us = u[:, inside]
    err = float(np.linalg.norm(res.projection - us @ us.conj().T))
    require(err <= MATRIX_TOL, f"projection differs from U_S U_S* by {err:.3e}")
    require(res.rank_estimate == len(inside), f"rank {res.rank_estimate}, expected {len(inside)}")
    return {"error": err}


def first_order_term(t, vals, u, b, inside) -> dict:
    """(1/2 pi i) contour integral of R B R, by residues in the eigenbasis."""
    inn = np.zeros(len(vals), dtype=bool)
    inn[inside] = True
    diff = vals[:, None] - vals[None, :]
    weight = np.zeros(diff.shape, dtype=np.complex128)
    # residue at the enclosed one of lam_i, lam_j; zero when both or neither are enclosed
    i_in = inn[:, None] & ~inn[None, :]
    j_in = ~inn[:, None] & inn[None, :]
    weight[i_in] = 1.0 / diff[i_in]
    weight[j_in] = -1.0 / diff[j_in]
    exact = u @ ((u.conj().T @ b @ u) * weight) @ u.conj().T
    err = float(np.linalg.norm(t - exact))
    require(err <= MATRIX_TOL * (1 + np.linalg.norm(exact)), f"first-order term off by {err:.3e}")
    return {"error": err}


def perturbation(rep) -> dict:
    require(rep.exact or rep.slope >= SLOPE_MIN, f"slope {rep.slope} below {SLOPE_MIN}")
    return {}


def lemma34(res, a, b, mu, x) -> dict:
    v = res.vector
    ra = float(np.linalg.norm(a @ v))
    rb = float(np.linalg.norm(b @ v - mu * v))
    require(ra <= VECTOR_TOL and rb <= VECTOR_TOL, f"residuals {ra:.3e}, {rb:.3e}")
    phase = np.vdot(x, v)
    err = float(np.linalg.norm(v - x * phase / abs(phase))) if phase != 0 else math.inf
    require(err <= VECTOR_TOL, f"vector is {err:.3e} from the constructed one up to phase")
    return {}


def max_gap_half(vals) -> float:
    args = np.sort(np.mod(np.angle(vals[np.abs(vals) > 0]), 2 * math.pi))
    gaps = np.diff(np.concatenate([args, [args[0] + 2 * math.pi]]))
    return float(gaps.max()) / 2


def ray_distance(vals, theta) -> float:
    """min over t >= 0 and lam of |1 + lam e^{i theta} t|."""
    d = vals * np.exp(1j * theta) / np.abs(vals)
    dist = np.where(-d.real <= 0, 1.0, np.abs(d.imag))
    return float(dist.min())


def escape_radius(vals, epsilon, angle) -> float:
    """Largest t at which e^{i angle} t leaves a disk D(-1/lam, epsilon/|lam|)."""
    best = 0.0
    u = complex(math.cos(angle), math.sin(angle))
    for lam in vals:
        c = -1 / lam
        proj = (c * u.conjugate()).real
        off2 = abs(c) ** 2 - proj**2
        r2 = (epsilon / abs(lam)) ** 2
        if r2 >= off2:
            best = max(best, proj + math.sqrt(r2 - off2))
    return best


def agmon(result, vals, epsilon) -> dict:
    """eig_normal, strong_agmon_check and escape_radius_profile on one matrix."""
    dec, wit, prof = result
    d = matched_distance(dec.values, vals)
    require(d <= MATRIX_TOL * (1 + np.abs(vals).max()), f"eigenvalues off by {d:.3e}")
    require(abs(wit.delta - max_gap_half(vals)) <= 1e-9, "sector half-width is not half the widest gap")
    dist = ray_distance(vals, wit.theta)
    require(dist >= math.sin(wit.delta) - 1e-12, f"ray passes {dist:.3e} from -1, below sin(delta)")
    require(wit.epsilon <= dist + 1e-12, f"certified epsilon {wit.epsilon} exceeds ray distance {dist}")
    step = max(1, len(prof.angles) // 32)
    for k in range(0, len(prof.angles), step):
        want = escape_radius(vals, epsilon, prof.angles[k])
        require(
            abs(prof.radii[k] - want) <= 1e-9 * (1 + want),
            f"escape radius {prof.radii[k]} at angle {prof.angles[k]}, expected {want}",
        )
    return {}


def ladder(rows, epsilon, levels) -> dict:
    """Rows (level, dim, max_gap, min_radius) of the example family."""
    require([r[0] for r in rows] == list(range(1, levels + 1)), "ladder levels out of order")
    nu = np.cumsum(1.0 / np.arange(1, levels + 1))
    for level, dim, gap, radius in rows:
        require(dim == 2 ** (level + 1) - 2, f"level {level}: dimension {dim}")
        require(abs(gap - 2 * math.pi / 2**level) <= 1e-12, f"level {level}: gap {gap}")
        # 2^N arcsin(epsilon) >= pi for N >= 3 and epsilon >= 1/2, so every
        # ray meets a disk of the deepest block, whose points are all at
        # least (1 - epsilon) nu_N from the origin.
        if level >= 3:
            require(radius >= (1 - epsilon) * nu[level - 1] - 1e-12, f"level {level}: radius {radius}")
    return {}


def poly_relative_residual(coeffs, a, b, seed: int, points: int = 4) -> float:
    """max |p(z,w) - det(I + zA + wB)| / |det| at points with ||zA + wB||_2 <= 1/2.

    There every eigenvalue of I + zA + wB has modulus in [1/2, 3/2], so numpy's
    determinant is accurate and nonzero.
    """
    n = a.shape[0]
    m = coeffs.shape[0]
    za = 0.25 / max(np.linalg.norm(a, 2), 1e-300)
    wb = 0.25 / max(np.linalg.norm(b, 2), 1e-300)
    worst = 0.0
    for ang_z, ang_w in np.random.default_rng(seed).uniform(0, 2 * math.pi, size=(points, 2)):
        z = za * complex(math.cos(ang_z), math.sin(ang_z))
        w = wb * complex(math.cos(ang_w), math.sin(ang_w))
        val = np.power(z, np.arange(m)) @ coeffs @ np.power(w, np.arange(m))
        det = np.linalg.det(np.eye(n) + z * a + w * b)
        worst = max(worst, float(abs(val - det) / abs(det)))
    return worst


# ---------------------------------------------------------------------------
# CLI outputs


def cli_check(fn):
    """Output that does not parse fails the check instead of stopping the run."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, IndexError, KeyError) as exc:
            raise CheckFailed(f"output does not parse: {exc!r}") from None

    return checked


_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(rf"^([+-]?{_NUM})([+-]{_NUM})i$")


def parse_complex(token: str) -> complex:
    m = _COMPLEX.match(token.strip())
    if m is None:
        raise CheckFailed(f"not a complex literal: {token!r}")
    return complex(float(m.group(1)), float(m.group(2)))


def key_values(text: str, keys) -> dict:
    """Leading key=value lines, which must carry exactly `keys` in this order."""
    lines = text.splitlines()
    got = [ln.split("=", 1)[0] for ln in lines[: len(keys)]]
    require(got == list(keys), f"keys {got}, expected {list(keys)}")
    return {ln.split("=", 1)[0]: ln.split("=", 1)[1] for ln in lines[: len(keys)]}


def parse_cmatrix(lines) -> np.ndarray:
    head = lines[0].split()
    require(len(head) == 3 and head[0] == "cmatrix", f"bad cmatrix header {lines[0]!r}")
    rows, cols = int(head[1]), int(head[2])
    return np.array([[parse_complex(t) for t in ln.split()] for ln in lines[1 : rows + 1]]).reshape(rows, cols)


def cli_exit(rc: int, want: int) -> None:
    require(rc == want, f"exit code {rc}, expected {want}")


def cli_lines(text: str, want, rows_from: int) -> float:
    """Rows of a `lines <k>` block starting at line rows_from, vs points want."""
    lines = text.splitlines()
    head = lines[rows_from - 1].split()
    k = int(head[-1])
    pts = []
    for ln in lines[rows_from : rows_from + k]:
        rl, il, rm, im, mult = ln.split()
        pts.extend([(complex(float(rl), float(il)), complex(float(rm), float(im)))] * int(mult))
    d = matched_distance(pts, want)
    require(d <= CLOSED_FORM_TOL, f"lines are {d:.3e} from the closed form")
    return d


QUICKSTART_LINES = [(-1, -1), (1, 3)]
QUICKSTART_POLY = {(0, 0): 1, (0, 1): 2, (2, 0): -1, (1, 1): -4, (0, 2): -3}


@cli_check
def cli_commute_lines(rc: int, text: str, want) -> dict:
    cli_exit(rc, 0)
    kv = key_values(text, ["commute", "commutator_norm", "verdict", "consistent",
                           "arrangement_vs_eigenpairs_distance", "deficit", "lines"])
    require((kv["commute"], kv["verdict"], kv["consistent"], kv["deficit"]) == ("true", "lines", "true", "0"),
            f"report {kv}")
    return {"line_distance": cli_lines(text.replace("lines=lines", "lines"), want, 7)}


@cli_check
def cli_commute_notlines(rc: int, text: str, a, b) -> dict:
    cli_exit(rc, 1)
    kv = key_values(text, ["commute", "commutator_norm", "verdict", "consistent",
                           "witness_z", "witness_w", "witness_residual"])
    require((kv["commute"], kv["verdict"], kv["consistent"]) == ("false", "notlines", "true"), f"report {kv}")
    cn = float(np.linalg.norm(a @ b - b @ a))
    require(abs(float(kv["commutator_norm"]) - cn) <= 1e-9 * cn, "commutator norm differs")
    r = witness_residual(a, b, parse_complex(kv["witness_z"]), parse_complex(kv["witness_w"]))
    require(r <= WITNESS_TOL, f"witness is off the curve: normalized sigma_min {r:.3e}")
    return {}


@cli_check
def cli_eig(rc: int, text: str, a, vals) -> dict:
    cli_exit(rc, 0)
    lines = text.splitlines()
    head = lines[0].split()
    require(head[0] == "eigenvalues" and int(head[1]) == len(vals), f"header {lines[0]!r}")
    got = np.array([parse_complex(t) for t in lines[1 : len(vals) + 1]])
    d = matched_distance(got, vals)
    require(d <= CLOSED_FORM_TOL * (1 + np.abs(vals).max()), f"eigenvalues off by {d:.3e}")
    require(lines[len(vals) + 1].startswith("residual="), "missing residual line")
    u = parse_cmatrix(lines[len(vals) + 2 :])
    err = float(np.linalg.norm(a @ u - u * got))
    require(err <= CLOSED_FORM_TOL * (1 + np.linalg.norm(a)), f"eigenvectors off by {err:.3e}")
    return {}


@cli_check
def cli_detpoly(rc: int, poly_text: str) -> dict:
    cli_exit(rc, 0)
    lines = [ln for ln in poly_text.splitlines() if ln and not ln.startswith("#")]
    require(lines[0] == "bipoly 2", f"header {lines[0]!r}")
    got = {}
    for ln in lines[1:]:
        j, k, re_, im_ = ln.split()
        got[(int(j), int(k))] = complex(float(re_), float(im_))
    for key in set(got) | set(QUICKSTART_POLY):
        err = abs(got.get(key, 0) - QUICKSTART_POLY.get(key, 0))
        require(err <= CLOSED_FORM_TOL, f"coefficient {key} off by {err:.3e}")
    return {}


@cli_check
def cli_lines_cmd(rc: int, text: str) -> dict:
    cli_exit(rc, 0)
    require(text.splitlines()[-1] == "# deficit=0", "missing '# deficit=0'")
    return {"line_distance": cli_lines(text, QUICKSTART_LINES, 1)}


@cli_check
def cli_agmon(rc: int, text: str) -> dict:
    """b.mat has eigenvalues 3 and -1: directions 0 and pi, widest gap pi."""
    cli_exit(rc, 0)
    kv = key_values(text, ["theta", "delta", "epsilon", "sector_center", "gap"])
    want = {"theta": math.pi / 2, "delta": math.pi / 2, "sector_center": math.pi / 2, "gap": math.pi}
    for key, val in want.items():
        require(abs(float(kv[key]) - val) <= 1e-12, f"{key}={kv[key]}, expected {val}")
    eps = float(kv["epsilon"])
    # the ray e^{i pi/2} t keeps |1 + 3it| and |1 - it| >= 1
    require(1 - 1e-9 <= eps <= 1, f"epsilon={eps}, expected just below 1")
    return {}


@cli_check
def cli_riesz(rc: int, text: str) -> dict:
    cli_exit(rc, 0)
    lines = text.splitlines()
    require("# rank_estimate=1" in lines, "rank_estimate is not 1")
    body = [ln for ln in lines if not ln.startswith("#")]
    p = parse_cmatrix(body)
    err = float(np.abs(p - np.diag([1, 0])).max())
    require(err <= CLOSED_FORM_TOL, f"projection off diag(1, 0) by {err:.3e}")
    return {}


@cli_check
def cli_lemma34(rc: int, text: str) -> dict:
    cli_exit(rc, 0)
    kv = key_values(text, ["residual_a", "residual_b"])
    require(float(kv["residual_a"]) <= VECTOR_TOL and float(kv["residual_b"]) <= VECTOR_TOL, f"residuals {kv}")
    lines = text.splitlines()
    require(lines[2] == "vector 2", f"header {lines[2]!r}")
    v = np.array([parse_complex(t) for t in lines[3:5]])
    require(abs(abs(v[0]) - 1) <= CLOSED_FORM_TOL and abs(v[1]) <= CLOSED_FORM_TOL, f"vector {v}, expected e_1")
    return {}


@cli_check
def cli_tuple(rc: int, text: str, want) -> dict:
    cli_exit(rc, 0)
    keys = ["members", "commute"]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        keys += [f"pair_{i}_{j}_{k}" for k in ("commute", "commutator_norm", "verdict", "consistent")]
    keys.append("deficit")
    kv = key_values(text, keys)
    require(kv["members"] == "3" and kv["commute"] == "true" and kv["deficit"] == "0", f"report {kv}")
    for key, val in kv.items():
        if key.endswith("_verdict"):
            require(val == "lines", f"{key}={val}")
        elif key.endswith("commute") or key.endswith("consistent"):
            require(val == "true", f"{key}={val}")
    lines = text.splitlines()
    head = lines[len(keys)].split()
    require(head[0] == "hyperplanes" and head[2] == "3", f"header {lines[len(keys)]!r}")
    rows = [ln.split() for ln in lines[len(keys) + 1 : len(keys) + 1 + int(head[1])]]
    got = expand((tuple(parse_complex(t) for t in row[:3]), int(row[3])) for row in rows)
    d = matched_distance(got, want)
    require(d <= CLOSED_FORM_TOL, f"hyperplanes are {d:.3e} from the closed form")
    return {"line_distance": d}


@cli_check
def cli_ladder(rc: int, text: str, epsilon: float, levels: int) -> dict:
    cli_exit(rc, 0)
    lines = text.splitlines()
    require(lines[0] == "level,dim,max_gap,min_escape_radius", f"header {lines[0]!r}")
    rows = []
    for ln in lines[1:]:
        level, dim, gap, radius = ln.split(",")
        rows.append((int(level), int(dim), float(gap), float(radius)))
    return ladder(rows, epsilon, levels)
