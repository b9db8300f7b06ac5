"""Matrix substrate: validation, norms, normal eigendecomposition, file formats.

Complex matrices are plain ``numpy.ndarray`` objects with dtype complex128.
Admission rules live here, once each: ``as_cmatrix`` admits one matrix,
``as_cmatrices`` the operands of a pair or tuple (one shared shape), and
``require_normal`` a numerically normal matrix; every public operation
routes its inputs through them. Every unitary eigenbasis of commuting
normal matrices comes from one rule, ``_normal_eigenbasis``: each matrix M
is split into its Hermitian part H = (M + M*)/2 and skew part, and
``joint_diagonalize`` takes each of those commuting Hermitian pieces once,
LAPACK ``eigh`` on each block compression with cluster deflation at the one
radius ``DEFLATION_CLUSTER_REL`` ||M||_F, then one ``eigh`` of a weighted
combination of all of them inside any block still wider than one column.
The blocks are contiguous column ranges, and only those wider than one
column are kept, so solved columns are never visited again and the passes
stop once none is left. The first piece is diagonalized whole, with no
identity products (``V += 0.0`` gives its eigenvectors the positive zeros
such a product leaves almost everywhere). It serves ``eig_normal`` (one
matrix), ``linegeom``'s Schur basis of a normal pencil combination, and
the joint eigenbasis of commuting pairs and tuples in ``commute``.
"""

from __future__ import annotations

import cmath
import math
import os
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DimMismatch, NoConvergence, NotNormal, ParseError

# Cluster radius of the deflation, relative to each matrix's ||.||_F: the
# eigenvalues of its Hermitian or skew part that lie closer are one block.
DEFLATION_CLUSTER_REL = 1e-7

DEFAULT_TOL_BASE = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """Bundle of admission and certification tolerances; all fields are relative."""

    normal: float = 1e-8
    eig: float = 1e-9
    commute: float = 1e-8
    line: float = 1e-6
    recon: float = 1e-6

    @classmethod
    def from_base(cls, base: float) -> "Tolerances":
        """Scale every field proportionally from the default base 1e-8."""
        if not (base > 0 and math.isfinite(base)):
            raise ValueError(f"tolerance base must be positive and finite, got {base!r}")
        d = cls()
        return replace(d, **{f.name: getattr(d, f.name) * (base / DEFAULT_TOL_BASE) for f in fields(cls)})

    def override(self, **fields) -> "Tolerances":
        return replace(self, **{k: v for k, v in fields.items() if v is not None})


def default_tolerances() -> Tolerances:
    """Default tolerances, honoring the PROJSPEC_TOL environment variable."""
    raw = os.environ.get("PROJSPEC_TOL")
    if raw is None:
        return Tolerances()
    try:
        base = float(raw)
    except ValueError:
        raise ValueError(f"PROJSPEC_TOL is not a number: {raw!r}") from None
    return Tolerances.from_base(base)


def as_cmatrix(obj) -> np.ndarray:
    """Validate and coerce to a square complex128 matrix with finite entries."""
    a = np.asarray(obj, dtype=np.complex128)
    if a.ndim != 2:
        raise DimMismatch(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] != a.shape[1]:
        raise DimMismatch(f"matrix is {a.shape[0]}x{a.shape[1]}, operators must be square")
    if a.shape[0] == 0:
        raise DimMismatch("matrix must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_cmatrices(*objs) -> list:
    """as_cmatrix on each operand; the operands must share one shape."""
    mats = [as_cmatrix(obj) for obj in objs]
    if len({m.shape for m in mats}) > 1:
        raise DimMismatch("operands have shapes " + " and ".join(str(m.shape) for m in mats))
    return mats


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128)))


def normality_defect(a) -> float:
    """``||A*A - AA*||_F``; zero exactly when A is normal."""
    a = as_cmatrix(a)
    ah = a.conj().T
    return float(np.linalg.norm(ah @ a - a @ ah))


def require_normal(m, tol: Tolerances, message: str) -> tuple[float, float]:
    """Normality admission: ``||M*M - MM*||_F <= tol.normal * ||M||_F``.

    Returns (||M||_F, defect) for an admitted matrix; otherwise raises
    NotNormal with ``message`` formatted with ``defect``, ``bound`` (the
    right-hand side) and ``tol``. Both norms are formed with numpy's
    overflow and invalid warnings off: a ||M||_F that is not finite is
    refused, and so is a defect that is not finite, by the NaN-safe test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = frobenius(m)
        defect = normality_defect(m)
    bound = tol.normal * norm
    # a norm that overflows to inf would admit a defect that overflows too
    if not (defect <= bound and math.isfinite(norm)):
        raise NotNormal(message.format(defect=defect, bound=bound, tol=tol))
    return norm, defect


def commutator_norm(a, b) -> float:
    """``||AB - BA||_F`` for same-dimension square matrices."""
    a, b = as_cmatrices(a, b)
    return float(np.linalg.norm(a @ b - b @ a))


def _split_sorted(vals: np.ndarray, radius: float, lo: int = 0) -> list:
    """Chain-cluster ascending real values, breaking where the gap exceeds
    radius; returns the (start, stop) ranges, offset by lo, of the clusters
    wider than one value."""
    cuts = [0, *(np.flatnonzero(np.diff(vals) > radius) + 1).tolist(), len(vals)]
    return [(lo + start, lo + stop) for start, stop in zip(cuts, cuts[1:]) if stop - start > 1]


def hermitian_parts(a: np.ndarray):
    """(H, K) with A = H + iK and both Hermitian; they commute when A is normal."""
    ah = a.conj().T
    return (a + ah) / 2.0, (a - ah) / 2.0j


def _eigh(c: np.ndarray):
    """LAPACK ``eigh`` of c's Hermitian part: ascending eigenvalues and their
    eigenvectors. NoConvergence when it does not converge."""
    try:
        return np.linalg.eigh((c + c.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolve did not converge: {exc}") from None


def _deflate(v: np.ndarray, ranges, m: np.ndarray, radius: float) -> list:
    """One deflation pass: rotate the columns lo:hi of v, for each (lo, hi)
    in ranges, by the eigenvectors of m's compression to them (_eigh), and
    split each range wherever consecutive eigenvalues differ by more than
    radius. Returns the new ranges wider than one column."""
    out = []
    for lo, hi in ranges:
        sub = v[:, lo:hi]
        vals, w = _eigh(sub.conj().T @ (m @ sub))
        v[:, lo:hi] = sub @ w
        out += _split_sorted(vals, radius, lo)
    return out


def joint_diagonalize(hermitian_mats, radii) -> np.ndarray:
    """Unitary V with V* M V (nearly) diagonal for commuting Hermitian M,
    radii[j] the cluster radius of the j-th matrix (one radius per matrix).

    Cluster deflation (Bunse-Gerstner, Byers & Mehrmann 1993): the matrices
    are taken at most once each, in order; each one is compressed to every
    current block of columns, diagonalized there by LAPACK ``eigh``, and the
    block is split wherever consecutive eigenvalues differ by more than that
    matrix's radius (_deflate). Each block is a contiguous range of columns,
    since ``eigh`` returns ascending eigenvalues and a split cuts a sorted
    run, and only the ranges wider than one column are kept: once none is
    left, V is returned and the matrices not yet reached are skipped. The
    first matrix is diagonalized whole, without the identity products of a
    compression; ``V += 0.0`` turns its eigenvectors' negative zeros into
    the positive zeros that such a product leaves almost everywhere. (The
    product keeps a few of them, depending on the BLAS kernel: on inputs
    with exact zero blocks, V can differ from it in the sign of a zero.) A
    block that no matrix split may hold eigenvalues that a later
    compression, degenerate there, rotated freely, mixing eigenvectors an
    earlier one told apart within its radius. So when a block wider than one
    column is left, one last pass diagonalizes the combination sum_j
    sqrt(j + 2) M_j / radii[j] inside each such block: each matrix in units
    of its radius, with irrational weights, so that distinct joint
    eigenvalues coincide in it only by accident. Inputs that the passes
    split into blocks of one column never form it. An ``eigh`` that does not
    converge raises NoConvergence.
    """
    vals, v = _eigh(hermitian_mats[0])
    v += 0.0
    ranges = _split_sorted(vals, radii[0])
    for m, radius in zip(hermitian_mats[1:], radii[1:]):
        if not ranges:
            break
        ranges = _deflate(v, ranges, m, radius)
    if ranges:
        combo = sum(np.sqrt(j + 2) / max(r, 1e-300) * m for j, (r, m) in enumerate(zip(radii, hermitian_mats)))
        _deflate(v, ranges, combo, np.inf)
    return v


def _normal_eigenbasis(mats, norms) -> np.ndarray:
    """Unitary V with V* M V (nearly) diagonal for every one of commuting
    normal mats, norms[i] = ||mats[i]||_F.

    The one eigenbasis rule: joint_diagonalize over the Hermitian and skew
    parts of each member once, in order, each at radius
    DEFLATION_CLUSTER_REL norms[i]. Shared by eig_normal (one matrix),
    linegeom's common Schur basis (the pencil combination) and commute's
    joint eigenbasis (the members).
    """
    parts = [part for m in mats for part in hermitian_parts(m)]
    return joint_diagonalize(parts, [DEFLATION_CLUSTER_REL * norm for norm in norms for _ in range(2)])


@dataclass
class EigenDecomposition:
    """Unitary diagonalization A = U diag(values) U* of a normal matrix.

    values are ordered by descending modulus, then ascending argument in
    [0, 2pi), then original diagonal position.
    """

    values: np.ndarray
    unitary: np.ndarray
    residual: float


def eig_normal(a, *, tol: Tolerances | None = None) -> EigenDecomposition:
    """Eigendecomposition of a (numerically) normal matrix.

    The unitary is the one eigenbasis rule's (_normal_eigenbasis on [A]):
    ``eigh`` of H and then of K inside H's clusters, at radius
    DEFLATION_CLUSTER_REL ||A||_F, and a last ``eigh`` of their weighted
    combination inside any block still wider than one column. Raises
    NotNormal when require_normal refuses A and NoConvergence when ``eigh``
    does not converge or the diagonal residual cannot be driven below
    ``tol.eig * ||A||_F + defect``.
    """
    if tol is None:
        tol = default_tolerances()
    a = as_cmatrix(a)
    n = a.shape[0]
    fa, defect = require_normal(
        a, tol, "normality defect {defect:.3e} exceeds {tol.normal:.1e} * ||A||_F = {bound:.3e}"
    )
    if fa == 0.0:
        return EigenDecomposition(np.zeros(n, dtype=np.complex128), np.eye(n, dtype=np.complex128), 0.0)
    v = _normal_eigenbasis([a], [fa])
    t = v.conj().T @ (a @ v)
    values = t.diagonal().copy()
    residual = float(np.linalg.norm(t - np.diag(values)))
    if not (residual <= tol.eig * fa + defect):
        raise NoConvergence(
            f"diagonal residual {residual:.3e} exceeds {tol.eig:.1e} * ||A||_F + defect = {tol.eig * fa + defect:.3e}"
        )
    # np.hypot rounds the moduli as scalar abs() does; np.abs on the array
    # breaks some ties differently. lexsort is stable: exact ties keep position.
    order = np.lexsort((np.mod(np.angle(values), 2.0 * math.pi), -np.hypot(values.real, values.imag)))
    return EigenDecomposition(values[order], v[:, order], residual)


# ---------------------------------------------------------------------------
# Text formats

_NUM_BODY = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^([+-]?{_NUM_BODY})([+-]{_NUM_BODY})i$")


def parse_complex(token: str) -> complex:
    """Parse ``<re><sign><im>i`` with a mandatory signed imaginary part."""
    m = _COMPLEX_RE.match(token)
    if m is None:
        raise ValueError(f"bad complex literal {token!r}")
    return complex(float(m.group(1)), float(m.group(2)))


def emit_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def emit_csv(header, rows) -> str:
    """CSV text: the header's column names, then each row's values as ``.17g``."""
    out = [",".join(header)]
    out.extend(",".join(f"{x:.17g}" for x in row) for row in rows)
    return "\n".join(out) + "\n"


def _content_lines(text: str):
    """Yield (1-based line number, line) skipping blanks and # comments."""
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield i, line


def _tokens(line: str) -> list:
    """(1-based column, text) of each whitespace-separated token of line."""
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]


def _header(items, pos, form, what, least):
    """Read the header ``form`` (a keyword and integer fields, such as
    ``"cmatrix <rows> <cols>"``) from _content_lines items at pos. Returns
    its line number and the fields; ParseError when the input has ended,
    the keyword or field count differs, a field is not an integer (at that
    field's column) or a field is below least (1 or 0)."""
    if pos >= len(items):
        raise ParseError(f"expected '{form}' header, found end of input")
    lineno, line = items[pos]
    tokens = _tokens(line)
    keyword, *names = form.split()
    if len(tokens) != 1 + len(names) or tokens[0][1] != keyword:
        raise ParseError(f"expected '{form}' header", line=lineno, col=1)
    values = []
    for col, text in tokens[1:]:
        try:
            values.append(int(text))
        except ValueError:
            kind = "integers" if len(names) > 1 else "an integer"
            raise ParseError(f"{what} must be {kind}", line=lineno, col=col) from None
    if min(values) < least:
        raise ParseError(f"{what} must be {'positive' if least else 'nonnegative'}", line=lineno, col=1)
    return lineno, values


def _parse_matrix_block(items, pos):
    """Parse one cmatrix block from _content_lines items starting at pos."""
    lineno, (rows, cols) = _header(items, pos, "cmatrix <rows> <cols>", "matrix dimensions", 1)
    data = np.empty((rows, cols), dtype=np.complex128)
    pos += 1
    for r in range(rows):
        if pos >= len(items):
            raise ParseError(f"expected {rows} matrix rows, found {r}", line=lineno, col=1)
        rline_no, rline = items[pos]
        row_tokens = _tokens(rline)
        if len(row_tokens) != cols:
            raise ParseError(
                f"expected {cols} entries in row, found {len(row_tokens)}", line=rline_no, col=1
            )
        for c, (col, tok) in enumerate(row_tokens):
            try:
                data[r, c] = parse_complex(tok)
            except ValueError:
                raise ParseError(f"bad complex literal {tok!r}", line=rline_no, col=col) from None
            if not cmath.isfinite(data[r, c]):
                raise ParseError("matrix entries must be finite", line=rline_no, col=col)
        pos += 1
    if rows != cols:
        raise DimMismatch(f"matrix is {rows}x{cols}, operators must be square")
    return as_cmatrix(data), pos


def parse_matrix(text: str) -> np.ndarray:
    """Parse a single-matrix file in the ``cmatrix`` format."""
    items = list(_content_lines(text))
    mat, pos = _parse_matrix_block(items, 0)
    if pos != len(items):
        lineno, _ = items[pos]
        raise ParseError("trailing content after matrix block", line=lineno, col=1)
    return mat


def emit_matrix(a) -> str:
    a = as_cmatrix(a)
    rows, cols = a.shape
    out = [f"cmatrix {rows} {cols}"]
    for r in range(rows):
        out.append(" ".join(emit_complex(a[r, c]) for c in range(cols)))
    return "\n".join(out) + "\n"


def parse_tuple(text: str) -> list[np.ndarray]:
    """Parse a ``ctuple`` file: k same-dimension square matrix blocks."""
    items = list(_content_lines(text))
    _, (k,) = _header(items, 0, "ctuple <k>", "tuple size", 1)
    mats = []
    pos = 1
    for _ in range(k):
        mat, pos = _parse_matrix_block(items, pos)
        mats.append(mat)
    if pos != len(items):
        lineno, _ = items[pos]
        raise ParseError("trailing content after tuple blocks", line=lineno, col=1)
    return as_cmatrices(*mats)


def emit_tuple(mats) -> str:
    mats = [as_cmatrix(m) for m in mats]
    if not mats:
        raise ValueError("tuple must be nonempty")
    return f"ctuple {len(mats)}\n" + "".join(emit_matrix(m) for m in mats)
