"""The four workloads: seeded inputs and the projspec calls of one round.

A run repeats whole rounds. Every round of a workload has the same make-up
(kinds and sizes of operations), so per-operation figures do not depend on how
many rounds a run completes, and an operation that fails does so once in every
round. Inputs that change with the seed never hit a known fault; the inputs
that do are fixed and fail every time (see README.md).
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import bench_checks as checks

# Acceptance criterion 1: 200 commuting + 200 non-commuting pairs, dims 2-25.
CRITERION1_SEED = 424242
BATTERY_DIMS = [2 + (k * 23) // 199 for k in range(200)]
BATTERY_CLASSES = 10

LARGE_NONCOMMUTING = (32, 40)  # seeded
LARGE_NONCOMMUTING_FIXED = (64,)  # fixed inputs from default_rng(3000 + n)
LARGE_COMMUTING = (32, 40, 48, 64)  # fixed inputs from default_rng(1000 + n)
LARGE_TRIPLES = (32, 48)  # fixed inputs from default_rng(2000 + n)

SPECTRAL_SIZES = (8, 16, 24, 32, 40, 48)
CONTOUR_RADIUS = 0.2
EPS_LIST = (1e-2, 1e-3, 1e-4)
LADDER_LEVELS = 9

CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed call into projspec and the check of its result."""

    kind: str
    n: int
    call: Callable[[], Any]
    check: Callable[[Any], dict]
    argv: list | None = None  # CLI arguments, replayed in-process by the traced run


def cis(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


# The two generators below consume the rng exactly as tests/helpers.py does,
# so that default_rng(CRITERION1_SEED) reproduces criterion 1's pairs.
def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_diag_vals(rng, n, lo=0.5, hi=1.2):
    return rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def commuting_pair(rng, n):
    u = random_unitary(rng, n)
    lam = random_diag_vals(rng, n)
    mu = random_diag_vals(rng, n)
    return (u * lam) @ u.conj().T, (u * mu) @ u.conj().T, lam, mu


def commuting_tuple(rng, n, k=3):
    u = random_unitary(rng, n)
    diags = [random_diag_vals(rng, n) for _ in range(k)]
    return [(u * d) @ u.conj().T for d in diags], diags


def normal_matrix(rng, n):
    u = random_unitary(rng, n)
    vals = random_diag_vals(rng, n)
    return (u * vals) @ u.conj().T, vals


def noncommuting_pair(rng, n, threshold=0.1):
    """Normal pair with ||AB - BA||_F > threshold; also returns A's eigenvalues."""
    while True:
        a, lam = normal_matrix(rng, n)
        b, _ = normal_matrix(rng, n)
        if np.linalg.norm(a @ b - b @ a) > threshold:
            return a, b, lam


def spread_points(rng, count, *, avoid=None, avoid_dist=0.5, lo=0.3, hi=1.6, sep=0.08):
    """Points of the annulus lo <= |z| <= hi, pairwise >= sep apart and >= avoid_dist from avoid."""
    pts = []
    while len(pts) < count:
        z = math.sqrt(rng.uniform(lo * lo, hi * hi)) * cis(rng.uniform(0, 2 * math.pi))
        if avoid is not None and abs(z - avoid) < avoid_dist:
            continue
        if all(abs(z - p) >= sep for p in pts):
            pts.append(z)
    return np.array(pts, dtype=np.complex128)


def spectral_instance(rng, n, cluster):
    """Normal A = U diag(vals) U* with vals[:cluster] within 0.06 of a center c0
    and every other eigenvalue at least 0.5 from c0, so a circle of radius
    CONTOUR_RADIUS about c0 encloses exactly the cluster with a wide margin."""
    c0 = rng.uniform(0.6, 1.2) * cis(rng.uniform(0, 2 * math.pi))
    phase = rng.uniform(0, 2 * math.pi)
    inner = [c0] if cluster == 1 else [c0 + 0.06 * cis(phase + 2 * math.pi * k / cluster) for k in range(cluster)]
    vals = np.concatenate([inner, spread_points(rng, n - cluster, avoid=c0)])
    u = random_unitary(rng, n)
    return vals, u, (u * vals) @ u.conj().T, c0


def lemma34_instance(rng, n):
    """Commuting A, B with A x = 0 and B x = mu x for x = U e_1, |mu| = ||B||_2 = 1.5."""
    u = random_unitary(rng, n)
    av = np.concatenate([[0.0], spread_points(rng, n - 1)])
    mu = 1.5 * cis(rng.uniform(0, 2 * math.pi))
    bv = np.concatenate([[mu], random_diag_vals(rng, n - 1, 0.3, 1.2)])
    return (u * av) @ u.conj().T, (u * bv) @ u.conj().T, mu, u[:, 0]


class Battery:
    """Criterion 1's battery. Its 200 commuting pairs are the criterion's own
    fixed pairs, because random commuting pairs hit ROADMAP fault 3(b) now
    and then already at n = 24 (2 of 200 pairs); the non-commuting pairs are
    drawn from the seed. Each round runs the pairs with k = c mod 10 for one
    class c, in a seeded order of classes, so every round spans dims 2-25."""

    name = "battery"

    def __init__(self, seed):
        from projspec import commute

        self.commute = commute
        pool_rng = np.random.default_rng(CRITERION1_SEED)
        self.pool = [commuting_pair(pool_rng, n) for n in BATTERY_DIMS]
        self.rng = np.random.default_rng(seed)
        self.order = self.rng.permutation(BATTERY_CLASSES)

    def round(self, r):
        ks = range(int(self.order[r % BATTERY_CLASSES]), len(BATTERY_DIMS), BATTERY_CLASSES)
        ops = []
        for k in ks:
            a, b, lam, mu = self.pool[k]
            ops.append(Op(
                "commuting", len(lam),
                lambda a=a, b=b, k=k: self.commute.equivalence_check(a, b, seed=k),
                lambda rep, lam=lam, mu=mu: checks.commuting_pair(rep, lam, mu),
            ))
        for k in ks:
            a, b, _ = noncommuting_pair(self.rng, BATTERY_DIMS[k])
            ops.append(Op(
                "noncommuting", BATTERY_DIMS[k],
                lambda a=a, b=b, k=k: self.commute.equivalence_check(a, b, seed=200 + k),
                lambda rep, a=a, b=b: checks.noncommuting_pair(rep, a, b),
            ))
        return ops


class Large:
    """Pairs and triples with n from 32 to 64; nine operations per round.

    Random commuting pairs at these sizes fail at random (fault a), so the
    commuting pairs and triples are fixed inputs: some pass, and the ones hit
    by faults a and b fail in every round. Witnesses of random non-commuting
    pairs at n >= 48 now and then sit 1e-8 to 2.4e-7 (relative) off the
    curve, so the seeded non-commuting pairs have n = 32 and 40 and the one at
    n = 64 is fixed."""

    name = "large"

    def __init__(self, seed):
        from projspec import commute

        self.commute = commute
        self.fixed_nc = [(n, noncommuting_pair(np.random.default_rng(3000 + n), n)) for n in LARGE_NONCOMMUTING_FIXED]
        self.pairs = [(n, commuting_pair(np.random.default_rng(1000 + n), n)) for n in LARGE_COMMUTING]
        self.triples = [(n, commuting_tuple(np.random.default_rng(2000 + n), n)) for n in LARGE_TRIPLES]
        self.rng = np.random.default_rng(seed)

    def round(self, r):
        seeded = [(n, noncommuting_pair(self.rng, n)) for n in LARGE_NONCOMMUTING]
        ops = []
        for kind, pairs in (("noncommuting", seeded), ("noncommuting-fixed", self.fixed_nc)):
            for n, (a, b, _) in pairs:
                ops.append(Op(
                    kind, n,
                    lambda a=a, b=b, n=n: self.commute.equivalence_check(a, b, seed=n),
                    lambda rep, a=a, b=b: checks.noncommuting_pair(rep, a, b, allow_indeterminate=True),
                ))
        for n, (a, b, lam, mu) in self.pairs:
            ops.append(Op(
                "commuting-fixed", n,
                lambda a=a, b=b, n=n: self.commute.equivalence_check(a, b, seed=n),
                lambda rep, lam=lam, mu=mu: checks.commuting_pair(rep, lam, mu, allow_indeterminate=True),
            ))
        for n, (mats, diags) in self.triples:
            ops.append(Op(
                "triple-fixed", n,
                lambda mats=mats, n=n: self.commute.tuple_test(mats, seed=n),
                lambda rep, diags=diags: checks.commuting_tuple(rep, diags, allow_indeterminate=True),
            ))
        return ops


class Spectral:
    """riesz and agmon on normal matrices with known eigendecompositions; one
    operation of each kind per size, then one escape ladder."""

    name = "spectral"

    def __init__(self, seed):
        from projspec import agmon, core, riesz

        self.agmon, self.core, self.riesz = agmon, core, riesz
        self.rng = np.random.default_rng(seed)

    def _agmon_call(self, a, eps):
        dec = self.core.eig_normal(a)
        return dec, self.agmon.strong_agmon_check(dec.values), self.agmon.escape_radius_profile(dec.values, eps)

    def round(self, r):
        rng, riesz = self.rng, self.riesz
        ops = []
        for n in SPECTRAL_SIZES:
            m = int(rng.integers(1, 4))
            vals, u, a, c0 = spectral_instance(rng, n, m)
            b, _ = normal_matrix(rng, n)
            contour = riesz.Contour(complex(c0), CONTOUR_RADIUS)
            inside = list(range(m))
            ops.append(Op(
                "riesz_projection", n,
                lambda a=a, c=contour: riesz.riesz_projection(a, c),
                lambda res, u=u, inside=inside: checks.riesz_projection(res, u, inside),
            ))
            ops.append(Op(
                "first_order_term", n,
                lambda a=a, b=b, c=contour: riesz.first_order_term(a, b, c),
                lambda t, vals=vals, u=u, b=b, inside=inside: checks.first_order_term(t, vals, u, b, inside),
            ))
            eps = float(rng.uniform(0.2, 0.8))
            ops.append(Op(
                "agmon", n,
                lambda a=a, eps=eps: self._agmon_call(a, eps),
                lambda res, vals=vals, eps=eps: checks.agmon(res, vals, eps),
            ))
            pvals, pu, pa, pc0 = spectral_instance(rng, n, 1)
            pb, _ = normal_matrix(rng, n)
            pmu = complex(pu[:, 0].conj() @ pb @ pu[:, 0])
            ops.append(Op(
                "perturbation_check", n,
                lambda a=pa, b=pb, lam=complex(pvals[0]), mu=pmu, c0=complex(pc0):
                    riesz.perturbation_check(a, b, lam, mu, riesz.Contour(c0, CONTOUR_RADIUS), EPS_LIST),
                checks.perturbation,
            ))
            la, lb, lmu, x = lemma34_instance(rng, n)
            ops.append(Op(
                "lemma34_solver", n,
                lambda a=la, b=lb, mu=lmu: riesz.lemma34_solver(a, b, mu),
                lambda res, a=la, b=lb, mu=lmu, x=x: checks.lemma34(res, a, b, mu, x),
            ))
        eps = float(rng.uniform(0.5, 0.9))
        ops.append(Op(
            "escape_ladder", 2 ** (LADDER_LEVELS + 1) - 2,
            lambda: self.agmon.escape_ladder(LADDER_LEVELS, eps),
            lambda rows: checks.ladder(rows, eps, LADDER_LEVELS),
        ))
        return ops


def emit_matrix(m) -> str:
    rows = [" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in np.asarray(m, complex)]
    return f"cmatrix {m.shape[0]} {m.shape[1]}\n" + "\n".join(rows) + "\n"


def diag(*vals):
    return np.diag(np.array(vals, dtype=np.complex128))


# The README's example files; quick-start a.mat and b.mat have the closed-form
# lines (-1, -1) and (1, 3), and b.mat has eigenvalues 3 and -1.
README_FILES = {
    "a.mat": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "b.mat": np.array([[1, 2], [2, 1]], dtype=np.complex128),
    "d12.mat": diag(1, 2),
    "d01.mat": diag(0, 1),
    "d21.mat": diag(2, 1),
}
README_TUPLE = [diag(1, 2), diag(3, 4), diag(5, 6)]


def write_inputs(workdir: Path, seed: int) -> dict:
    """Write the CLI input files; g.mat and h.mat are a seeded 3x3 non-commuting pair."""
    g, h, g_vals = noncommuting_pair(np.random.default_rng(seed), 3)
    files = dict(README_FILES, **{"g.mat": g, "h.mat": h})
    for name, m in files.items():
        (workdir / name).write_text(emit_matrix(m))
    (workdir / "t.tup").write_text("ctuple 3\n" + "".join(emit_matrix(m) for m in README_TUPLE))
    return {"g": g, "h": h, "g_vals": g_vals}


def run_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "projspec.cli", *argv],
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


class Cli:
    """Cold `python -m projspec.cli` processes, one at a time, on the README
    inputs and a seeded 3x3 pair. `lines` reads the file `detpoly` wrote."""

    name = "cli"

    def __init__(self, seed, workdir: Path):
        self.dir = workdir
        self.inputs = write_inputs(workdir, seed)

    def round(self, r):
        f = {name: str(self.dir / name) for name in (*README_FILES, "g.mat", "h.mat", "t.tup", "p.poly")}
        inp = self.inputs
        quick = checks.QUICKSTART_LINES
        specs = [
            ("commute", 2, ["commute", f["a.mat"], f["b.mat"]],
             lambda out: checks.cli_commute_lines(*out, quick)),
            ("commute", 3, ["commute", f["g.mat"], f["h.mat"]],
             lambda out: checks.cli_commute_notlines(*out, inp["g"], inp["h"])),
            ("eig", 2, ["eig", f["b.mat"]],
             lambda out: checks.cli_eig(*out, README_FILES["b.mat"], np.array([3, -1]))),
            ("eig", 3, ["eig", f["g.mat"]],
             lambda out: checks.cli_eig(*out, inp["g"], inp["g_vals"])),
            ("detpoly", 2, ["detpoly", f["a.mat"], f["b.mat"], "-o", f["p.poly"]],
             lambda out: checks.cli_detpoly(out[0], Path(f["p.poly"]).read_text())),
            ("lines", 2, ["lines", f["p.poly"]], lambda out: checks.cli_lines_cmd(*out)),
            ("agmon", 2, ["agmon", f["b.mat"]], lambda out: checks.cli_agmon(*out)),
            ("riesz", 2, ["riesz", f["d12.mat"], "--center", "1", "--radius", "0.5"],
             lambda out: checks.cli_riesz(*out)),
            ("lemma34", 2, ["lemma34", f["d01.mat"], f["d21.mat"], "--mu", "2", "--zs", "10,100,1000"],
             lambda out: checks.cli_lemma34(*out)),
            ("tuple", 2, ["tuple", f["t.tup"]],
             lambda out: checks.cli_tuple(*out, [(1, 3, 5), (2, 4, 6)])),
            ("escape", 30, ["escape", "--ladder", "4", "--epsilon", "0.5"],
             lambda out: checks.cli_ladder(*out, 0.5, 4)),
        ]
        return [Op(kind, n, lambda argv=argv: run_cli(argv), check, argv) for kind, n, argv, check in specs]
