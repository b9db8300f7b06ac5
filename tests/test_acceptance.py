"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with -s to see the verdict lines on success; they also appear in captured
output on failure. Every tolerance is the contract value, not a loosened one.
"""

import math
import time

import numpy as np
import pytest

from projspec import agmon, commute, core, linegeom, riesz

from helpers import (
    PAULI_X,
    commuting_pair,
    noncommuting_pair,
    random_normal,
    random_unitary,
    reference_direction_mismatch,
    separated_vals,
)

_BATTERY_SEED = 424242
_BATTERY_DIMS = [2 + (k * 23) // 199 for k in range(200)]

_CACHE = {}


def _verdict(num, name, ok, stats):
    print(f"[acceptance] criterion {num} {name}: {'PASS' if ok else 'FAIL'} ({stats})")
    assert ok, f"criterion {num} {name}: {stats}"


def _run_battery(seed):
    """Deterministic 200+200 equivalence battery; returns (report_text, stats).

    stats["lines"] holds (A, B, arrangement) for every lines verdict.
    """
    rng = np.random.default_rng(seed)
    out = []
    lines = []
    indeterminate = 0
    inconsistent = 0
    max_distance = 0.0
    t0 = time.perf_counter()
    for k, n in enumerate(_BATTERY_DIMS):
        a, b = commuting_pair(rng, n)
        rep = commute.equivalence_check(a, b, seed=k)
        if rep.indeterminate is not None:
            indeterminate += 1
            out.append(f"commuting {k} dim={n} indeterminate")
            continue
        if not rep.consistent:
            inconsistent += 1
        d = rep.arrangement_vs_eigenpairs_distance
        if d is not None:
            max_distance = max(max_distance, d)
        if rep.verdict.is_lines:
            lines.append((a, b, rep.verdict.arrangement))
        out.append(
            f"commuting {k} dim={n} consistent={rep.consistent} "
            f"distance={d:.17g}"
        )
    for k, n in enumerate(_BATTERY_DIMS):
        a, b = noncommuting_pair(rng, n)
        rep = commute.equivalence_check(a, b, seed=200 + k)
        if rep.indeterminate is not None:
            indeterminate += 1
            out.append(f"noncommuting {k} dim={n} indeterminate")
            continue
        if not (rep.consistent and not rep.commute):
            inconsistent += 1
        if rep.verdict.is_lines:
            lines.append((a, b, rep.verdict.arrangement))
        out.append(
            f"noncommuting {k} dim={n} consistent={rep.consistent} "
            f"commutator_norm={rep.commutator_norm:.17g}"
        )
    elapsed = time.perf_counter() - t0
    return "\n".join(out) + "\n", {
        "indeterminate": indeterminate,
        "inconsistent": inconsistent,
        "max_distance": max_distance,
        "elapsed": elapsed,
        "lines": lines,
    }


def _battery():
    if "battery" not in _CACHE:
        _CACHE["battery"] = _run_battery(_BATTERY_SEED)
    return _CACHE["battery"]


def test_criterion_1_theorem_equivalence_battery():
    _, stats = _battery()
    ok = (
        stats["indeterminate"] == 0
        and stats["inconsistent"] == 0
        and stats["max_distance"] <= 1e-6
        and stats["elapsed"] <= 60.0
    )
    _verdict(
        1,
        "equivalence battery",
        ok,
        f"400 pairs dims 2-24, {stats['indeterminate']} indeterminate, "
        f"{stats['inconsistent']} inconsistent, max arrangement distance "
        f"{stats['max_distance']:.3e}, {stats['elapsed']:.1f}s of 60s",
    )


def test_battery_lines_pass_the_direction_certificate():
    # every lines verdict of the battery, certified by one Schur basis, also
    # matches the spectra on n + 1 directions within tol.line
    lines = _battery()[1]["lines"]
    assert len(lines) == len(_BATTERY_DIMS)
    worst = max(reference_direction_mismatch(a, b, arr) for a, b, arr in lines)
    print(f"[acceptance] battery lines verdicts: max direction mismatch {worst:.3e}")
    assert worst <= core.default_tolerances().line


def test_criterion_2_arrangement_oracle():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for k in range(100):
        n = 1 + (k * 15) // 99
        while True:
            lams = rng.uniform(0.3, 1.2, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
            mus = rng.uniform(0.3, 1.2, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
            pts = np.stack([lams, mus], axis=1)
            d = np.sqrt(np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2) ** 2)
            np.fill_diagonal(d, np.inf)
            if d.min() >= 1e-3:
                break
        lines = [(linegeom.Line(l, m), 1) for l, m in zip(lams, mus)]
        p = linegeom.expand_arrangement(lines, n)
        v = linegeom.factor_lines(p, seed=k)
        assert v.is_lines
        ref = linegeom.LineArrangement(lines)
        worst = max(worst, linegeom.compare_arrangements(v.arrangement, ref))
    ok = worst <= 1e-6
    _verdict(
        2,
        "arrangement oracle",
        ok,
        f"100 products dims 1-16, worst recovery distance {worst:.3e} vs 1e-6",
    )


def test_criterion_3_sector_witness():
    rng = np.random.default_rng(1003)
    checked = 0
    for k in range(100):
        n = int(rng.integers(1, 30))
        spectrum = rng.uniform(0.2, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        assert agmon.max_circular_gap(spectrum) > 1e-9
        wit = agmon.strong_agmon_check(spectrum)
        zs = agmon.witness_sequence(wit, 100)
        chk = agmon.verify_witness(spectrum, zs, math.sin(wit.delta) - 1e-12)
        assert chk.ok, f"witness failed at trial {k}: min value {chk.value:.3e}"
        checked += 1
    real_ok = 0
    for k in range(50):
        n = int(rng.integers(1, 20))
        spectrum = rng.normal(size=n) * rng.uniform(0.3, 2.0)
        wit = agmon.strong_agmon_check(spectrum)
        if wit.epsilon >= 1.0 - 1e-12:
            real_ok += 1
    ok = checked == 100 and real_ok == 50
    _verdict(
        3,
        "sector witness end-to-end",
        ok,
        f"{checked}/100 complex spectra certified over 100-term rays, "
        f"{real_ok}/50 real spectra reach epsilon >= 1-1e-12",
    )


def test_criterion_4_riesz_projection_suite():
    rng = np.random.default_rng(1004)
    worst_idem = worst_comm = worst_doubling = 0.0
    rank_errors = 0
    for k in range(100):
        n = 2 + (k * 14) // 99
        vals = separated_vals(rng, n, sep=0.15)
        a = random_normal(rng, n, vals=vals)
        j = int(rng.integers(n))
        target = vals[j]
        others = np.delete(vals, j)
        radius = 0.45 * float(np.abs(others - target).min()) if others.size else 0.3
        c = riesz.Contour(complex(target), radius, nodes=64)
        res = riesz.riesz_projection(a, c)
        worst_idem = max(worst_idem, res.idempotency_residual)
        worst_comm = max(worst_comm, res.commutation_residual)
        enclosed = int(np.sum(np.abs(vals - target) < radius))
        if res.rank_estimate != enclosed:
            rank_errors += 1
        res32 = riesz.riesz_projection(a, riesz.Contour(complex(target), radius, nodes=32))
        worst_doubling = max(
            worst_doubling, float(np.linalg.norm(res.projection - res32.projection))
        )
    ok = (
        worst_idem <= 1e-8
        and worst_comm <= 1e-8
        and rank_errors == 0
        and worst_doubling <= 1e-10
    )
    _verdict(
        4,
        "riesz projection suite",
        ok,
        f"100 normal matrices dims 2-16: idempotency {worst_idem:.3e}, "
        f"commutation {worst_comm:.3e}, rank errors {rank_errors}, "
        f"node doubling {worst_doubling:.3e} vs 1e-10",
    )


def test_criterion_5_perturbation_order():
    rng = np.random.default_rng(1005)
    worst_slope = math.inf
    for k in range(50):
        n = 2 + (k * 10) // 49
        vals = separated_vals(rng, n, sep=0.15)
        u = random_unitary(rng, n)
        a = (u * vals) @ u.conj().T
        b = random_normal(rng, n)
        j = int(rng.integers(n))
        lam = vals[j]
        x = u[:, j]
        mu = complex(x.conj() @ b @ x)
        others = np.delete(vals, j)
        radius = 0.45 * float(np.abs(others - lam).min())
        rep = riesz.perturbation_check(
            a, b, complex(lam), mu, riesz.Contour(complex(lam), radius),
            [1e-2, 1e-3, 1e-4],
        )
        if rep.exact:
            continue
        worst_slope = min(worst_slope, rep.slope)
    t = riesz.first_order_term(
        np.diag([0.0, 2.0]).astype(complex), PAULI_X, riesz.Contour(0.0, 0.5)
    )
    worked = float(np.abs(t - np.array([[0, -0.5], [-0.5, 0]])).max())
    ok = worst_slope >= 1.8 and worked <= 1e-8
    _verdict(
        5,
        "perturbation order",
        ok,
        f"50 instances, worst log-log slope {worst_slope:.3f} vs 1.8; "
        f"worked first-order term error {worked:.3e} vs 1e-8",
    )


def test_criterion_6_common_eigenvector_extraction():
    rng = np.random.default_rng(1006)
    worst_resid = 0.0
    worst_vec = 0.0
    for _ in range(50):
        u = random_unitary(rng, 2)
        a = (u * np.array([0.0, 1.0])) @ u.conj().T
        b = (u * np.array([2.0, 1.0])) @ u.conj().T
        res = riesz.lemma34_solver(a, b, 2.0)
        worst_resid = max(worst_resid, res.residual_a, res.residual_b)
        target = u[:, 0]
        pivot = target[int(np.argmax(np.abs(target)))]
        target = target * (abs(pivot) / pivot)
        worst_vec = max(worst_vec, float(np.abs(res.vector - target).max()))
    ok = worst_resid <= 1e-6 and worst_vec <= 1e-6
    _verdict(
        6,
        "common eigenvector extraction",
        ok,
        f"50 conjugated model instances: worst residual {worst_resid:.3e} vs "
        f"1e-6, worst vector error {worst_vec:.3e}",
    )


def test_criterion_7_counterexample_ladder():
    rows = agmon.escape_ladder(12, epsilon=0.5)
    _CACHE["ladder"] = rows
    gaps_ok = all(
        abs(gap - 2 * math.pi / 2**level) <= 1e-12 for level, _, gap, _ in rows
    )
    radii = [r[3] for r in rows]
    monotone = all(b >= a - 1e-12 for a, b in zip(radii, radii[1:]))
    # 2^m arcsin(1/2) >= pi first holds at m = 3, so the deepest block m = N
    # certifies the bound for every N >= 3
    nu = np.cumsum(1.0 / np.arange(1, 13))
    bound_ok = all(
        radii[level - 1] >= (1 - 0.5) * nu[level - 1] for level in range(3, 13)
    )
    diverges = radii[11] > radii[3]
    ok = gaps_ok and monotone and bound_ok and diverges
    _verdict(
        7,
        "counterexample ladder",
        ok,
        f"levels 1-12: gaps 2pi/2^N within 1e-12 ({gaps_ok}), min radius "
        f"nondecreasing ({monotone}), block bound ({bound_ok}), radius at "
        f"N=12 is {radii[11]:.3f} vs {radii[3]:.3f} at N=4",
    )


def test_criterion_8_determinism():
    text1, _ = _battery()
    text2, _ = _run_battery(_BATTERY_SEED)
    battery_same = text1 == text2
    rows = _CACHE.get("ladder") or agmon.escape_ladder(12, epsilon=0.5)
    csv1 = agmon.emit_ladder_csv(rows)
    csv2 = agmon.emit_ladder_csv(agmon.escape_ladder(12, epsilon=0.5))
    ladder_same = csv1 == csv2
    ok = battery_same and ladder_same
    _verdict(
        8,
        "determinism",
        ok,
        f"battery report byte-identical: {battery_same}; ladder CSV "
        f"byte-identical: {ladder_same}",
    )
