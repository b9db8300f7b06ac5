import math

import numpy as np
import pytest

from projspec import agmon
from projspec.errors import InvalidEpsilon, LevelTooLarge, NumericalAmbiguity

from helpers import reference_escape_ladder, reference_escape_radius_profile


def test_positive_reals_leave_left_half_plane_free():
    wit = agmon.strong_agmon_check([1.0, 2.0, 5.0])
    # one direction only: the whole circle minus a point is free
    assert wit.theta == pytest.approx(0.0, abs=1e-12)
    assert wit.delta == pytest.approx(math.pi)
    assert wit.epsilon == pytest.approx(1.0 - 1e-12)
    assert wit.sector_center == pytest.approx(math.pi)


def test_fourth_roots_sector():
    wit = agmon.strong_agmon_check([1.0, 1j, -1.0, -1j])
    # four quarter gaps; tie resolves to the smallest witness angle
    assert wit.delta == pytest.approx(math.pi / 4)
    assert wit.theta == pytest.approx(math.pi / 4)
    assert wit.epsilon == pytest.approx(math.sin(math.pi / 4))


def test_plus_minus_one_gap():
    wit = agmon.strong_agmon_check([-1.0, 1.0])
    assert wit.delta == pytest.approx(math.pi / 2)
    assert wit.epsilon == pytest.approx(1.0)
    # gaps at (0, pi) and (pi, 2pi); centers pi/2 and 3pi/2; thetas pi/2, 3pi/2
    assert wit.theta == pytest.approx(math.pi / 2)


def test_vacuous_spectra():
    wit = agmon.strong_agmon_check([])
    assert wit.theta == 0.0
    assert wit.delta == pytest.approx(math.pi)
    wit = agmon.strong_agmon_check([0.0, 0.0])
    assert wit.delta == pytest.approx(math.pi)


def test_no_sector_when_directions_dense():
    # 50 directions spaced 1e-13 leave 49 gaps of 1e-13 and one of
    # 2pi - 4.9e-12, so the sector survives
    args = np.arange(50) * 1e-13
    spectrum = np.exp(1j * args)
    assert agmon.strong_agmon_check(spectrum) is not None
    # a genuinely gap-free cover cannot be materialized at double precision
    # with > 2pi/1e-12 points, so max_circular_gap is the tested surface:
    assert agmon.max_circular_gap(spectrum) == pytest.approx(2 * math.pi)


def test_gaps_lie_between_the_eigenvalues_own_directions():
    # two directions 5e-13 apart near 4pi/3: the gap between them is 5e-13
    # wide, and the widest gaps are the exact thirds of the circle; merging
    # the two would widen a third by 5e-13 and overstate delta
    spectrum = np.exp(1j * np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3 - 5e-13, 4 * math.pi / 3]))
    assert abs(agmon.max_circular_gap(spectrum) - 2 * math.pi / 3) <= 1e-15
    # delta is the half-width of theta's own gap, never more than the widest's
    assert agmon.strong_agmon_check(spectrum).delta <= agmon.max_circular_gap(spectrum) / 2


def test_delta_is_half_the_gap_theta_comes_from():
    # the gap (2pi/3, 4pi/3 - 5e-13) ties with the widest, the exact thirds,
    # and gives the smallest theta, 2.5e-13: delta and epsilon are those of
    # that gap, 2.5e-13 below pi/3, not those of the widest
    spectrum = np.exp(1j * np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3 - 5e-13, 4 * math.pi / 3]))
    widths, starts = agmon._circular_gaps(spectrum)
    wit = agmon.strong_agmon_check(spectrum)
    own = float(widths[1]) / 2.0
    assert abs(wit.theta - 2.5e-13) <= 1e-15
    assert (wit.delta, wit.epsilon) == (own, math.sin(own))
    assert abs(wit.delta - (math.pi / 3 - 2.5e-13)) <= 1e-15
    # every direction of the spectrum keeps angular distance delta from -1
    # along the ray, so |1 + lambda z| >= epsilon there
    zs = np.exp(1j * wit.theta) * np.logspace(-3, 3, 61)
    assert agmon.verify_witness(spectrum, zs, wit.epsilon).ok


def test_a_repeated_direction_leaves_a_zero_width_gap():
    widths, starts = agmon._circular_gaps([2.0, 1j, 1.0, 3.0, 0.0])
    assert widths.tolist() == [0.0, 0.0, math.pi / 2, 3 * math.pi / 2]
    assert starts.tolist() == [0.0, 0.0, 0.0, math.pi / 2]
    wit = agmon.strong_agmon_check([2.0, 1j, 1.0, 3.0])
    assert (wit.theta, wit.delta) == (agmon.strong_agmon_check([1.0, 1j]).theta, 3 * math.pi / 4)


@pytest.mark.parametrize(
    "spectrum",
    [agmon.example_spectrum(4), np.array([2.0, 1j, 1.0, 3.0, 0.0]), np.array([[1 + 1j, 0.0], [-2.0, 0.5j]]), np.array([])],
    ids=["ladder", "repeats", "matrix", "empty"],
)
def test_circular_gaps_read_arrays_lists_and_generators_alike(spectrum):
    # an ndarray is read as it is, any other iterable through a list
    want = agmon._circular_gaps(spectrum)
    for other in (spectrum.tolist(), (x for x in spectrum)):
        got = agmon._circular_gaps(other)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _other_forms(values):
    """values as a list and as a generator, the two non-ndarray forms."""
    return values.tolist(), (x for x in values)


@pytest.mark.parametrize(
    "spectrum",
    [agmon.example_spectrum(4), np.array([2.0, 1j, 1.0, 3.0, 0.0]), np.array([[1 + 1j, 0.0], [-2.0, 0.5j]]), np.array([])],
    ids=["ladder", "repeats", "matrix", "empty"],
)
def test_profile_and_witness_read_arrays_lists_and_generators_alike(spectrum):
    # core.as_values at every site: the same bytes from each form of the
    # spectrum and, for verify_witness, of the ray points
    zs = np.exp(0.3j) * np.arange(1.0, 6.0)
    profile = agmon.escape_radius_profile(spectrum, 0.5, 64)
    check = agmon.verify_witness(spectrum, zs, 0.1)
    for other in _other_forms(spectrum):
        assert agmon.escape_radius_profile(other, 0.5, 64).radii.tobytes() == profile.radii.tobytes()
    for other in _other_forms(spectrum):
        assert agmon.verify_witness(other, zs, 0.1) == check
    for other in _other_forms(zs):
        assert agmon.verify_witness(spectrum, other, 0.1) == check


@pytest.mark.parametrize("level", range(1, 7))
def test_example_spectrum_gap(level):
    spectrum = agmon.example_spectrum(level)
    assert agmon.max_circular_gap(spectrum) == pytest.approx(2 * math.pi / 2**level, abs=1e-12)


def test_sector_avoids_spectrum():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        spectrum = rng.uniform(0.2, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        wit = agmon.strong_agmon_check(spectrum)
        center = wit.sector_center
        for lam in spectrum:
            ang = np.angle(lam) % (2 * math.pi)
            dist = abs((ang - center + math.pi) % (2 * math.pi) - math.pi)
            assert dist >= wit.delta - 1e-9


def test_witness_sequence():
    wit = agmon.SectorWitness(theta=0.0, delta=math.pi, epsilon=0.5)
    zs = agmon.witness_sequence(wit, 3)
    assert zs == pytest.approx([1.0, 2.0, 3.0])
    wit = agmon.SectorWitness(theta=math.pi / 2, delta=1.0, epsilon=0.5)
    zs = agmon.witness_sequence(wit, 2)
    assert zs == pytest.approx([1j, 2j])
    with pytest.raises(ValueError):
        agmon.witness_sequence(wit, 0)


def test_verify_witness():
    # spectrum {1}, ray along +1: |1 + n| >= 2 for n >= 1
    chk = agmon.verify_witness([1.0], [1.0, 2.0, 3.0], 0.9)
    assert chk.ok
    assert chk.value == pytest.approx(2.0)
    assert chk.lam == 1.0
    assert chk.z == 1.0
    # ray along -1 crosses the forbidden disk: |1 - 1| = 0
    chk = agmon.verify_witness([1.0], [-1.0, -2.0], 0.9)
    assert not chk.ok
    assert chk.value == pytest.approx(0.0)
    # empty spectrum is vacuously fine
    chk = agmon.verify_witness([], [1.0], 0.5)
    assert chk.ok and chk.value == math.inf


def test_end_to_end_certification():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        spectrum = rng.uniform(0.3, 1.5, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        wit = agmon.strong_agmon_check(spectrum)
        zs = agmon.witness_sequence(wit, 50)
        chk = agmon.verify_witness(spectrum, zs, wit.epsilon - 1e-12)
        assert chk.ok


def test_escape_profile_single_point():
    # spectrum {1}: forbidden disk D(-1, 1/2); the ray at angle pi exits at 1.5
    prof = agmon.escape_radius_profile([1.0], 0.5, n_angles=8)
    assert prof.radii[4] == pytest.approx(1.5)
    # perpendicular rays miss the disk entirely
    assert prof.radii[2] == 0.0
    assert prof.min_radius == 0.0
    assert prof.angles[4] == pytest.approx(math.pi)


def test_escape_profile_empty():
    prof = agmon.escape_radius_profile([0.0], 0.5, n_angles=8)
    assert np.all(prof.radii == 0.0)


def test_escape_profile_validation():
    with pytest.raises(InvalidEpsilon):
        agmon.escape_radius_profile([1.0], 0.0)
    with pytest.raises(InvalidEpsilon):
        agmon.escape_radius_profile([1.0], 1.0)
    with pytest.raises(ValueError):
        agmon.escape_radius_profile([1.0], 0.5, n_angles=7)


@pytest.mark.parametrize("tiny", [3e-200, 1e-320])
def test_escape_profile_refuses_a_disk_that_overflows(tiny):
    # the disk of 3e-200 blocks the ray at pi out to about 5e199, but
    # |c|^2 - r^2 is inf - inf; for 1e-320 the centre itself is -inf. Either
    # is refused, with no numpy warning, and never dropped as a miss
    with pytest.raises(NumericalAmbiguity, match="^forbidden disk of eigenvalue"):
        agmon.escape_radius_profile([tiny, 1.0], 0.5, n_angles=8)


def test_escape_profile_epsilon_monotone():
    spectrum = agmon.example_spectrum(3)
    small = agmon.escape_radius_profile(spectrum, 0.3, n_angles=256)
    large = agmon.escape_radius_profile(spectrum, 0.7, n_angles=256)
    assert np.all(large.radii >= small.radii - 1e-12)
    assert large.min_radius >= small.min_radius


def test_example_spectrum_level_one():
    spectrum = agmon.example_spectrum(1)
    # nu_1 = 1; two first roots of unity: 1 and -1
    assert spectrum == pytest.approx([1.0, -1.0])
    op = agmon.example_operator(1)
    assert np.abs(op - np.diag([1.0 + 0j, -1.0 + 0j])).max() <= 1e-15


def test_example_spectrum_level_two():
    spectrum = agmon.example_spectrum(2)
    assert spectrum.size == 6
    # block 1: modulus 1; block 2: modulus 1/nu_2 = 1/1.5
    assert np.abs(spectrum[:2]) == pytest.approx([1.0, 1.0])
    assert np.abs(spectrum[2:]) == pytest.approx(np.full(4, 1 / 1.5))
    # block 2 directions: fourth roots, conjugated order 1, -i, -1, i
    assert spectrum[3] * 1.5 == pytest.approx(-1j)


@pytest.mark.parametrize("level", [1, 2, 3, 5])
def test_example_dimensions(level):
    assert agmon.example_spectrum(level).size == 2 ** (level + 1) - 2


def test_example_level_bounds():
    with pytest.raises(ValueError):
        agmon.example_spectrum(0)
    with pytest.raises(LevelTooLarge):
        agmon.example_spectrum(15)


def test_escape_ladder():
    rows = agmon.escape_ladder(6, epsilon=0.5, n_angles=512)
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5, 6]
    assert [r[1] for r in rows] == [2 ** (n + 1) - 2 for n in range(1, 7)]
    nu = np.cumsum(1.0 / np.arange(1, 7))
    for level, dim, gap, radius in rows:
        assert gap == pytest.approx(2 * math.pi / 2**level, abs=1e-12)
        if level >= 3:
            # with eps = 0.5 the blocking ladder reaches the deepest block,
            # whose disks force radius >= (1 - eps) * nu_level
            assert radius >= (1 - 0.5) * nu[level - 1]
    radii = [r[3] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(radii, radii[1:]))


def test_ladder_accepts_explicit_levels():
    rows = agmon.escape_ladder([2, 4], epsilon=0.5, n_angles=256)
    assert [r[0] for r in rows] == [2, 4]
    # rows keep the caller's order, repeats included
    rows = agmon.escape_ladder([4, 2, 3, 3], epsilon=0.5, n_angles=64)
    assert [r[0] for r in rows] == [4, 2, 3, 3]
    assert rows[2] == rows[3]
    assert agmon.escape_ladder([], epsilon=0.5) == []
    assert agmon.escape_ladder(0, epsilon=0.5) == []


def _count_passes(monkeypatch):
    """Patch agmon._ray_exits to record the number of disk-direction pairs
    of every evaluation pass."""
    real = agmon._ray_exits
    passes = []

    def counting(p, gap):
        passes.append(p.size)
        return real(p, gap)

    monkeypatch.setattr(agmon, "_ray_exits", counting)
    return passes


@pytest.mark.parametrize(
    "levels, error",
    [([0], ValueError), ([-1], ValueError), ([15], LevelTooLarge),
     ([3, 0], ValueError), ([2, 15], LevelTooLarge), (15, LevelTooLarge)],
)
def test_ladder_rejects_bad_levels_before_any_work(monkeypatch, levels, error):
    # a running maximum read at level 0's dimension would read no disk;
    # every level is checked before the pass starts
    passes = _count_passes(monkeypatch)
    with pytest.raises(error):
        agmon.escape_ladder(levels, epsilon=0.5, n_angles=64)
    assert passes == []


def test_ladder_profiles_each_block_once(monkeypatch):
    # one pass per block of the top level, at most 4 disks per direction
    passes = _count_passes(monkeypatch)
    agmon.escape_ladder(9, epsilon=0.5, n_angles=64)
    assert len(passes) == 9
    assert sum(passes) <= 4 * 9 * 64


@pytest.mark.parametrize("n_angles", [8, 9, 1000, 4096])
@pytest.mark.parametrize("epsilon", [1e-6, 0.3, 0.5, 0.9, 1 - 1e-12])
def test_ladder_radii_bit_identical_to_blocking_radii(epsilon, n_angles):
    # every level's whole radii array, not only its minimum, against every
    # disk of that level on its arc
    spectrum = agmon.example_spectrum(12)
    got = agmon._ladder_radii(spectrum, epsilon, n_angles)
    assert len(got) == 12
    for level, radii in enumerate(got, start=1):
        want = agmon._blocking_radii(spectrum[: 2 ** (level + 1) - 2], epsilon, n_angles)
        assert radii.tobytes() == want.tobytes(), level


def _ladder_infimum(level, epsilon):
    """(R_L, bound): the infimum over every direction of level L's escape
    radius, R_L = h_L(pi/2^L) with h_L(phi) = nu_L (cos phi + sqrt(eps^2 -
    sin^2 phi)) when pi/2^L <= asin eps and 0 otherwise (a midpoint of the
    top block is at least pi/2^L from every disk, and h falls with phi),
    and a bound on a grid row's rounding there. The centres, the products
    b = Re(conj(u) c) and |c|^2 - r^2 each carry a few unit roundoffs u of
    nu and nu^2, so D = b^2 - gap carries k u nu^2, and sqrt(D) = nu
    sqrt(eps^2 - sin^2 phi) moves by at most k u nu / sqrt(eps^2 - sin^2
    phi): the cancellation of cos^2 phi - (1 - eps^2). The bound is 16 u nu
    (1 + 1/sqrt(eps^2 - sin^2 phi)), 16 u nu where R_L = 0; it also holds
    R_L's own rounding, within 4 u nu of 40-digit arithmetic here."""
    u = np.finfo(float).eps / 2
    nu = math.fsum(1.0 / k for k in range(1, level + 1))
    phi = math.pi / 2**level
    if phi > math.asin(epsilon):
        return 0.0, 16 * u * nu
    s = math.sin(phi)
    root = math.sqrt((epsilon - s) * (epsilon + s))
    return nu * (math.cos(phi) + root), 16 * u * nu * (1 + 1 / root)


@pytest.mark.parametrize("n_angles", [1000, 4096, 8192])
@pytest.mark.parametrize("epsilon", [1e-3, 0.5, 0.9, 1 - 1e-12])
def test_ladder_rows_bound_the_closed_form_infimum(epsilon, n_angles):
    # a grid minimum bounds the infimum from above; where n_angles is a
    # multiple of 2^(L+1) the grid holds the top block's midpoints, and the
    # row is the infimum up to rounding (at eps = 1e-3, level 12 and 8192
    # angles, 2576 ulps below this R_L, against a bound of 19357 ulps)
    for level, _, _, row in agmon.escape_ladder(12, epsilon, n_angles):
        infimum, bound = _ladder_infimum(level, epsilon)
        assert row >= infimum - bound, level
        if n_angles % 2 ** (level + 1) == 0:
            assert abs(row - infimum) <= bound, level


def test_unit_circle_table_is_shared_and_read_only():
    table = agmon._unit_circle(64)
    assert agmon._unit_circle(64) is table
    assert table.tobytes() == np.conj(np.exp(1j * agmon._angles(64))).tobytes()
    with pytest.raises(ValueError):
        table[0] = 0.0


def _hex_rows(rows):
    return [(level, dim, gap.hex(), radius.hex()) for level, dim, gap, radius in rows]


# Level 12 against the per-level reference costs about 2 s per epsilon at
# 4096 angles, so at that size it runs at the default epsilon only.
_LADDER_CASES = [
    (levels, n_angles, epsilon)
    for levels in (12, [4, 2], [3, 3], [])
    for n_angles in (8, 512, 4096)
    for epsilon in (0.3, 0.5, 0.9)
    if not (levels == 12 and n_angles == 4096 and epsilon != 0.5)
]


@pytest.mark.parametrize("levels, n_angles, epsilon", _LADDER_CASES)
def test_ladder_bit_identical_to_per_level_reference(levels, n_angles, epsilon):
    got = agmon.escape_ladder(levels, epsilon=epsilon, n_angles=n_angles)
    want = reference_escape_ladder(levels, epsilon=epsilon, n_angles=n_angles)
    assert _hex_rows(got) == _hex_rows(want)


def _profile_spectra():
    rng = np.random.default_rng(77)
    mixed = 10.0 ** rng.uniform(-3, 3, 150) * np.exp(2j * np.pi * rng.uniform(0, 1, 150))
    zeros = mixed[:40].copy()
    zeros[::3] = 0.0
    # arg(-1/lambda) within 1e-3 of 0 on both sides: arcs cross index 0
    straddle = rng.uniform(0.3, 3.0, 30) * np.exp(1j * (np.pi + rng.uniform(-1e-3, 1e-3, 30)))
    return {"mixed": mixed, "zeros": zeros, "straddle": straddle}


_PROFILE_SPECTRA = _profile_spectra()


@pytest.mark.parametrize("n_angles", [8, 512, 4096])
@pytest.mark.parametrize("epsilon", [1e-6, 0.3, 0.5, 0.9, 1 - 1e-12])
@pytest.mark.parametrize("name", sorted(_PROFILE_SPECTRA))
def test_profile_bit_identical_to_full_grid_reference(name, epsilon, n_angles):
    spectrum = _PROFILE_SPECTRA[name]
    want = reference_escape_radius_profile(spectrum, epsilon, n_angles)
    prof = agmon.escape_radius_profile(spectrum, epsilon, n_angles)
    assert [r.hex() for r in prof.radii] == [r.hex() for r in want]
    assert prof.min_radius.hex() == float(want.min()).hex()


def test_profile_chunk_edges_bit_identical(monkeypatch):
    # gathers of 3 disks: the last gather of most spectra is a partial one
    monkeypatch.setattr(agmon, "_PROFILE_DISKS", 3)
    for spectrum in _PROFILE_SPECTRA.values():
        for epsilon in (0.3, 0.9):
            want = reference_escape_radius_profile(spectrum[:20], epsilon, 512)
            got = agmon.escape_radius_profile(spectrum[:20], epsilon, 512).radii
            assert got.tobytes() == want.tobytes()


def test_profile_csv():
    prof = agmon.escape_radius_profile([1.0], 0.5, n_angles=8)
    text = agmon.emit_profile_csv(prof)
    lines = text.strip().splitlines()
    assert lines[0] == "angle,escape_radius"
    assert len(lines) == 9
    a, r = lines[5].split(",")
    assert float(a) == pytest.approx(math.pi)
    assert float(r) == pytest.approx(1.5)


def test_ladder_csv():
    rows = agmon.escape_ladder(2, epsilon=0.5, n_angles=64)
    text = agmon.emit_ladder_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "level,dim,max_gap,min_escape_radius"
    assert lines[1].startswith("1,2,")
    assert lines[2].startswith("2,6,")
