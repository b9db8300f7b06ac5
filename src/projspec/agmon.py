"""Sector analysis of spectra and escape-radius diagnostics.

A spectrum with an angular sector free of nonzero eigenvalues admits a ray
z_n = e^{i theta} n along which |1 + lambda z_n| stays bounded below; this
module finds the widest free sector, builds and checks that witness ray, and
measures how far rays must travel to clear the forbidden disks
D(-1/lambda, eps/|lambda|). The diagonal model operator with eigenvalues
1/(nu_n w) for w ranging over 2^n-th roots of unity feeds the truncation
ladder where the escape radii diverge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import core
from .errors import InvalidEpsilon, LevelTooLarge, NumericalAmbiguity

_TWO_PI = 2.0 * math.pi

# strong_agmon_check's tie rule: gaps within this many radians of the widest
# tie with it, and the witness comes from the smallest theta among them.
_GAP_TIE = 1e-12

_EPS_CAP = 1.0 - 1e-12

_MAX_LEVEL = 14

# forbidden disks per window gather in _blocking_radii
_PROFILE_DISKS = 16

DEFAULT_N_ANGLES = 4096


@dataclass(frozen=True)
class SectorWitness:
    """Certificate that a sector of half-width delta is free of spectrum.

    theta is the direction of the witness ray z_n = e^{i theta} n. The free
    sector itself is centered at the antipode of the forbidden direction,
    exposed as sector_center; epsilon is a certified lower bound for
    |1 + lambda z| along the whole ray.
    """

    theta: float
    delta: float
    epsilon: float

    @property
    def sector_center(self) -> float:
        return (math.pi - self.theta) % _TWO_PI


@dataclass
class WitnessCheck:
    ok: bool
    lam: Optional[complex]
    z: Optional[complex]
    value: float


@dataclass
class EscapeProfile:
    epsilon: float
    angles: np.ndarray
    radii: np.ndarray
    min_radius: float


def _circular_gaps(spectrum):
    """(widths, starts): the circular gaps between consecutive arguments in
    [0, 2pi) of the nonzero spectrum entries, sorted once, as an array of
    widths and one of the arguments they start at. A repeated direction
    leaves a gap of width zero; zero or one nonzero entry leaves one gap of
    exactly 2pi."""
    vals = core.as_values(spectrum, np.complex128).ravel()
    args = np.sort(np.mod(np.angle(vals[np.abs(vals) > 0.0]), _TWO_PI))
    if args.size < 2:
        return np.array([_TWO_PI]), args if args.size else np.zeros(1)
    return np.diff(args, append=args[0] + _TWO_PI), args


def max_circular_gap(spectrum) -> float:
    """Widest angular gap free of nonzero-spectrum directions (2pi if none)."""
    return float(_circular_gaps(spectrum)[0].max())


def strong_agmon_check(spectrum) -> SectorWitness:
    """Locate the widest eigenvalue-free sector and certify a witness ray.

    The gaps lie between the eigenvalues' own directions (_circular_gaps),
    and there always is a free one: k nonzero eigenvalues leave a gap of at
    least 2pi/k. Gaps within _GAP_TIE of the widest tie with it, and the
    tie resolves to the smallest returned theta; a repeated direction's
    zero-width gap never ties, as the widest is far above _GAP_TIE for any k
    that fits in memory. delta is half the width of the gap that theta
    comes from, which a tie may leave up to _GAP_TIE narrower than the
    widest, so the certificate holds along theta's own ray. The certified
    epsilon is min(sin(min(delta, pi/2)), 1 - 1e-12): along z = e^{i theta} t
    the point lambda z stays at angular distance >= delta from -1, and the
    distance from -1 to that ray is sin(delta) for delta <= pi/2 and 1
    beyond.
    """
    widths, starts = _circular_gaps(spectrum)
    tied = np.flatnonzero(widths >= widths.max() - _GAP_TIE)
    thetas = np.mod(math.pi - np.mod(starts[tied] + widths[tied] / 2.0, _TWO_PI), _TWO_PI)
    pick = int(thetas.argmin())
    theta = float(thetas[pick])
    delta = float(widths[tied[pick]]) / 2.0
    epsilon = min(math.sin(min(delta, math.pi / 2.0)), _EPS_CAP)
    return SectorWitness(theta=theta, delta=delta, epsilon=epsilon)


def witness_sequence(wit: SectorWitness, count: int) -> np.ndarray:
    """The ray points z_n = e^{i theta} n for n = 1..count."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return np.exp(1j * wit.theta) * np.arange(1, count + 1, dtype=np.float64)


def verify_witness(spectrum, zs, epsilon: float) -> WitnessCheck:
    """Check |1 + lambda z| >= epsilon over the whole spectrum-by-ray grid."""
    vals = core.as_values(spectrum, np.complex128).ravel()
    zarr = core.as_values(zs, np.complex128).ravel()
    if vals.size == 0 or zarr.size == 0:
        return WitnessCheck(True, None, None, math.inf)
    mods = np.abs(1.0 + vals[:, None] * zarr[None, :])
    flat = int(mods.argmin())
    i, j = np.unravel_index(flat, mods.shape)
    value = float(mods[i, j])
    return WitnessCheck(value >= epsilon, complex(vals[i]), complex(zarr[j]), value)


def _angles(n_angles: int) -> np.ndarray:
    return _TWO_PI * np.arange(n_angles, dtype=np.float64) / n_angles


@functools.lru_cache(maxsize=8)
def _unit_circle(n_angles: int) -> np.ndarray:
    """conj(e^{i theta_j}) at the angles theta_j = 2 pi j / n_angles, built
    once per n_angles and read-only, since every caller shares it."""
    conj_u = np.conj(np.exp(1j * _angles(n_angles)))
    conj_u.flags.writeable = False
    return conj_u


def _forbidden_disks(vals: np.ndarray, epsilon: float, n_angles: int):
    """(centers, gap) of the forbidden disks D(-1/l, eps/|l|) of vals: the
    centres c = -1/l and |c|^2 - r^2 = (1 - eps^2)/|l|^2 > 0, so no disk
    reaches the origin. InvalidEpsilon unless 0 < eps < 1, ValueError for
    fewer than 8 angles, and NumericalAmbiguity when a disk's centre or
    |c|^2 - r^2 is not a finite double."""
    if not (0.0 < epsilon < 1.0):
        raise InvalidEpsilon(f"epsilon must lie in (0,1), got {epsilon}")
    if n_angles < 8:
        raise ValueError(f"n_angles must be >= 8, got {n_angles}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        centers = -1.0 / vals
        gap = np.abs(centers) ** 2 - (epsilon / np.abs(vals)) ** 2
    if not np.isfinite(gap).all():
        raise NumericalAmbiguity(f"forbidden disk of eigenvalue {complex(vals[~np.isfinite(gap)][0]):.6g} overflows")
    return centers, gap


def _ray_exits(p: np.ndarray, gap) -> np.ndarray:
    """The ray parameters t at which rays leave disks, from p = conj(u) c
    of each ray direction u and disk centre c, and the disks' |c|^2 - r^2:
    b = Re(conj(u) c), t = b + sqrt(b^2 - gap). A ray that misses its disk
    gets NaN (the caller ignores numpy's invalid warning) and one whose
    disk lies behind the origin gets t <= 0, so np.fmax into a maximum that
    is >= 0 keeps only the radii of hits."""
    b = p.real
    t = b * b
    t -= gap
    np.sqrt(t, out=t)
    t += b
    return t


def _blocking_radii(vals: np.ndarray, epsilon: float, n_angles: int) -> np.ndarray:
    """The blocking radii of the forbidden disks D(-1/l, eps/|l|) of the
    nonzero vals at the angles 2 pi j / n_angles: entry j is the largest ray
    parameter t > 0 at which e^{i theta_j} t sits on the boundary of one of
    those disks, 0 when the ray misses them all.

    The disk about c = -1/l has radius eps |c|, so a ray meets it only when
    its direction lies within asin(eps) of arg c, whatever |l| is. Each disk
    is evaluated once, on the angle indices of that arc, widened by two
    indices a side against rounding, _PROFILE_DISKS disks to a gather, and
    maxed into its own slice of one running maximum. Every pair left out is
    one the full disk-by-angle grid sends to 0, so the radii are those of
    the full grid, bit for bit. A disk whose centre or |c|^2 - r^2 is not a
    finite double raises NumericalAmbiguity.

    Each gather is one pass of _ray_exits. A ray that misses the disk has
    b^2 - gap < 0, so its t is NaN, and np.fmax, which returns the other
    operand where one is NaN, drops it. The bits are those of a mask that
    sends a miss to 0: fmax(running, NaN) keeps running, which is >= 0, a
    hit behind the origin (t < 0) loses to it as before, and a hit's t is
    the same product, difference and sum whichever way a miss is marked.
    """
    centers, gap = _forbidden_disks(vals, epsilon, n_angles)
    step = _TWO_PI / n_angles
    reach = math.asin(epsilon) / step + 2.0
    width = min(int(2.0 * reach) + 2, n_angles)
    first = np.floor(np.mod(np.angle(centers), _TWO_PI) / step - reach).astype(np.int64) % n_angles
    # arcs run past index n_angles - 1 into a copy of the first width
    # directions, folded back (a max, so in place) at the end
    conj_u = _unit_circle(n_angles)
    windows = sliding_window_view(np.concatenate([conj_u, conj_u[:width]]), width)
    running = np.zeros(n_angles + width, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        for lo in range(0, vals.size, _PROFILE_DISKS):
            hi = min(lo + _PROFILE_DISKS, vals.size)
            p = windows[first[lo:hi]]
            p *= centers[lo:hi, None]
            t = _ray_exits(p, gap[lo:hi, None])
            for start, row in zip(first[lo:hi].tolist(), t):
                arc = running[start : start + width]
                np.fmax(arc, row, out=arc)
    np.maximum(running[:width], running[n_angles:], out=running[:width])
    return running[:n_angles]


def escape_radius_profile(spectrum, epsilon: float, n_angles: int = DEFAULT_N_ANGLES) -> EscapeProfile:
    """Per-direction blocking radii of the forbidden disks D(-1/l, eps/|l|).

    radii[k] is the largest ray parameter t > 0 at which e^{i theta_k} t sits
    on the boundary of some forbidden disk, 0 when the ray misses every disk:
    one _blocking_radii pass over the nonzero spectrum, bit for bit the
    radii of the full disk-by-angle grid. NumericalAmbiguity when a disk
    overflows (|1/l|^2 not a finite double).
    """
    vals = core.as_values(spectrum, np.complex128).ravel()
    vals = vals[np.abs(vals) > 0.0]
    radii = _blocking_radii(vals, epsilon, n_angles)
    return EscapeProfile(epsilon, _angles(n_angles), radii, float(radii.min()))


def _harmonic(level: int) -> np.ndarray:
    return np.cumsum(1.0 / np.arange(1, level + 1, dtype=np.float64))


def _check_level(level: int) -> None:
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if level > _MAX_LEVEL:
        raise LevelTooLarge(f"level {level} exceeds maximum {_MAX_LEVEL}")


def example_spectrum(level: int) -> np.ndarray:
    """Eigenvalues 1/(nu_n w_{n,i}) in (n, i) lexicographic order.

    w_{n,i} = e^{2 pi i (i-1)/2^n} for i = 1..2^n, nu_n the n-th harmonic
    number; block n contributes 2^n entries of modulus 1/nu_n at every
    2^n-th root direction (conjugated, since 1/w = conj(w) on the circle).
    """
    _check_level(level)
    nu = _harmonic(level)
    blocks = []
    for n in range(1, level + 1):
        i = np.arange(2**n, dtype=np.float64)
        blocks.append(np.exp(-2j * np.pi * i / (2**n)) / nu[n - 1])
    return np.concatenate(blocks)


def example_operator(level: int) -> np.ndarray:
    """Diagonal matrix carrying example_spectrum(level); dimension 2^{level+1}-2."""
    return np.diag(example_spectrum(level))


def _ladder_radii(spectrum: np.ndarray, epsilon: float, n_angles: int) -> list:
    """The blocking radii of each level l = 1..top of spectrum =
    example_spectrum(top), of size 2^(top+1) - 2: entry l - 1 is
    _blocking_radii of its first 2^(l+1) - 2 values, bit for bit, read off
    one running maximum after each block.

    Block n holds 2^n disks of one modulus nu_n, disk k (spectrum index
    2^n - 2 + k) centred at -nu_n e^{2 pi i k / 2^n}, which is position
    m = (k + 2^(n-1)) mod 2^n of the directions 2 pi m / 2^n. Angle j lies
    at x = j 2^n / n_angles positions, between disks floor(x) and
    floor(x) + 1, and only those two are evaluated: 2 n_angles pairs a
    block, whatever 2^n is.

    No other disk of the block can hold the maximum. The block's |c| agree
    to a few ulps, and their |c|^2 - r^2 to a few ulps of |c|^2. A ray at
    angle phi from a disk's direction leaves it at |c| (cos phi +
    sqrt(cos^2 phi - (1 - eps^2))), which falls as phi grows to pi/2, and
    beyond pi/2 it hits behind the origin or misses. The nearer of the two
    evaluated disks is at phi <= s/2, s = 2 pi / 2^n, and every other disk
    at phi >= s, so where both hit, the other's radius is lower by at least
    |c| (cos(s/2) - cos s) ~ (3/8) |c| s^2, 5.5e-8 |c| at level 14, far
    above rounding, and where the nearer one misses so does the other. The
    two evaluated disks' maximum is then the block's maximum, and fmax into
    the running maximum, as in _blocking_radii, gives the same bits in any
    order of disks.
    """
    centers, gap = _forbidden_disks(spectrum, epsilon, n_angles)
    conj_u = _unit_circle(n_angles)
    j = np.arange(n_angles, dtype=np.int64)
    running = np.zeros(n_angles, dtype=np.float64)
    out = []
    with np.errstate(invalid="ignore"):
        for n in range(1, (spectrum.size + 2).bit_length() - 1):
            size = 2**n
            left = j * size // n_angles
            disks = size - 2 + (np.stack([left, left + 1]) + size // 2) % size
            t = _ray_exits(conj_u * centers[disks], gap[disks])
            np.fmax(running, t[0], out=running)
            np.fmax(running, t[1], out=running)
            out.append(running.copy())
    return out


def escape_ladder(levels, epsilon: float = 0.5, n_angles: int = DEFAULT_N_ANGLES):
    """Rows (level, dim, max_gap, min_escape_radius) per truncation level.

    Escape radii that grow without bound down the ladder are the finite-rank
    signature of a spectrum accumulating at 0 from every direction.

    example_spectrum(l) is a prefix of example_spectrum(L) for l <= L, of
    dimension 2^{l+1} - 2, and a level's blocking radii are the maximum over
    its disks. So _ladder_radii evaluates each block of the top level once,
    at the two disks nearest each direction, and each level reads the
    running maximum after its own block: the rows are bit for bit those of
    escape_radius_profile on each level's spectrum.
    """
    if isinstance(levels, (int, np.integer)):
        levels = range(1, int(levels) + 1)
    levels = [int(level) for level in levels]
    for level in levels:
        _check_level(level)
    if not levels:
        return []
    spectrum = example_spectrum(max(levels))
    radii = _ladder_radii(spectrum, epsilon, n_angles)
    dims = [2 ** (level + 1) - 2 for level in levels]
    return [(level, dim, max_circular_gap(spectrum[:dim]), float(radii[level - 1].min())) for level, dim in zip(levels, dims)]


def emit_profile_csv(profile: EscapeProfile) -> str:
    return core.emit_csv(("angle", "escape_radius"), zip(profile.angles, profile.radii))


def emit_ladder_csv(rows) -> str:
    return core.emit_csv(("level", "dim", "max_gap", "min_escape_radius"), rows)
