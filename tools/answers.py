"""Canonical answers of one checkout on the same-answers corpus, and their digest.

    python3 tools/answers.py [--root CHECKOUT] [--out answers.txt] [--family NAME ...]

Imports projspec from CHECKOUT/src (default: this repository) and runs the
named families (default: all), one record per call: the report, exit code or
exception, written as canonical text in which every float and complex
number is exact (repr, signed zeros included) and every array is its dtype,
shape and the sha256 of its bytes, so unitaries and diagonals are compared
byte for byte. The text goes to --out; stdout gets one line per family
(records, sha256 of its text) and the sha256 of the whole text. Two
checkouts give the same answers exactly when their digests agree; a diff
of their --out files shows where they part.

The inputs come from the checkout's own generators, tests/helpers.py and
perfbench/bench_workloads.py, and the README's `$ projspec` examples, so
both sides of a comparison see the same matrices; `edges` builds its own
(ONE_BY_ONE, tie_heavy) with only helpers.random_unitary, and `formats` its
texts (FORMAT_CASES, CLI_COMPLEX). BLAS runs on one thread
and PROJSPEC_TOL is unset, so the digest does not depend on the caller's
environment. Families:

  criterion1  criterion 1's battery: 200 commuting and 200 non-commuting
              pairs, dims 2-24, default_rng(424242), equivalence_check
  battery     perfbench `battery` rounds 0-9 at seeds 1 and 2
  large       perfbench `large` rounds 0-3 at seed 1 (pairs and triples)
  spectral    eig_normal and the agmon results of perfbench `spectral`
              agmon operations, and its level-9 escape_ladder operations,
              rounds 0-14 at seed 3
  riesz       the riesz_projection, first_order_term, perturbation_check and
              lemma34_solver operations of perfbench `spectral`, rounds 0-14
              at seed 3 (`rounds` sets how many), each also on a non-normal
              copy of its A (nonnormal_copy, default_rng(2503))
  sweep       the 135-pair near-commuting sweep: default_rng(5),
              n in (4, 12, 24, 48, 64), eps in logspace(-12, -3, 9), 3 each
  readme      every `$ projspec ...` line of README.md, run in order in a
              directory holding the README's example files
  clustered   deflation-edge inputs: straddles of the deflation radius at
              0.9, 1.0, 1.1 and 1.5 times it in the real and imaginary
              part (eig_normal), commuting pairs and triples with rounded
              spectra and diagonal members (equivalence_check,
              common_eigenbasis, tuple_test)
  edges       1x1 matrices (0, -0, 1e-300, 3-2i, -1.5, 2i) through
              eig_normal, equivalence_check, common_eigenbasis and
              tuple_test; zero matrices with signed-zero entries at n = 1-6
              and the tie_heavy matrices through eig_normal
  formats     the FORMAT_CASES texts through the four parsers (cmatrix,
              ctuple, bipoly, lines): malformed headers and rows, each
              outcome with its exception type, message, line and column;
              and the CLI_COMPLEX arguments through cli._cli_complex
  detpoly_lines
              unions of lines through factor_lines: char_poly_pair of
              helpers.commuting_pair(default_rng(1000 n + s), n) (the
              pairs of perfbench's commuting_pair) for n in
              DETPOLY_LINES_NS and s = 0-5, then helpers.line_powers at
              seeds 0-3; a notlines verdict on any of them is wrong
  contract    100 in-process cli.main runs of each CONTRACT_SUBCOMMANDS
              entry (`count` sets how many) on 1x1 to 3x3 matrices, every
              other one diagonal, whose entries and options are drawn from
              CONTRACT_LITERALS by default_rng((2901, i)) for the i-th
              subcommand (contract_runs); each record holds argv, the input
              files, the exit code, stdout, stderr and the RuntimeWarnings,
              and contract_breaks says how a record breaks the CLI contract

Stdlib and numpy only. Imported as a module (the Tier-1 tests do), it
leaves the environment as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import os
import re
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    os.environ.pop("PROJSPEC_TOL", None)

import numpy as np  # noqa: E402  (after the BLAS thread settings)

FAMILIES = (
    "criterion1", "battery", "large", "spectral", "riesz", "sweep", "readme", "clustered", "edges", "formats",
    "detpoly_lines", "contract",
)


def canon(obj) -> str:
    """Exact, deterministic text of a result."""
    if isinstance(obj, np.ndarray):
        return f"array({obj.dtype},{obj.shape},{hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()})"
    if isinstance(obj, (np.floating, np.complexfloating, np.integer, np.bool_)):
        return f"{type(obj).__name__}({obj.tobytes().hex()})"
    if isinstance(obj, BaseException):
        return f"raised {type(obj).__name__}: {obj}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = ", ".join(f"{f.name}={canon(getattr(obj, f.name))}" for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, (list, tuple)):
        inner = ", ".join(canon(x) for x in obj)
        return f"{type(obj).__name__}[{inner}]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{canon(k)}: {canon(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (bool, int, float, complex, str)) or obj is None:
        return repr(obj)
    return f"{type(obj).__name__}:{obj!r}"


def outcome(call):
    """call()'s result, or the exception it raised."""
    try:
        return call()
    except Exception as exc:  # an exception is an answer too
        return exc


def criterion1(env):
    helpers, commute = env["helpers"], env["projspec"].commute
    rng = np.random.default_rng(424242)
    dims = [2 + (k * 23) // 199 for k in range(200)]
    for k, n in enumerate(dims):
        a, b = helpers.commuting_pair(rng, n)
        yield f"commuting {k} n={n}", outcome(lambda: commute.equivalence_check(a, b, seed=k))
    for k, n in enumerate(dims):
        a, b = helpers.noncommuting_pair(rng, n)
        yield f"noncommuting {k} n={n}", outcome(lambda: commute.equivalence_check(a, b, seed=200 + k))


def _rounds(workload, rounds, kinds=None):
    for r in range(rounds):
        for i, op in enumerate(workload.round(r)):
            if kinds is None or op.kind in kinds:
                yield f"round {r} op {i} {op.kind} n={op.n}", outcome(op.call)


def battery(env):
    for seed in (1, 2):
        for key, value in _rounds(env["bench"].Battery(seed), 10):
            yield f"seed {seed} {key}", value


def large(env):
    yield from _rounds(env["bench"].Large(1), 4)


def spectral(env):
    yield from _rounds(env["bench"].Spectral(3), 15, kinds=("agmon", "escape_ladder"))


RIESZ_KINDS = ("riesz_projection", "first_order_term", "perturbation_check", "lemma34_solver")


def nonnormal_copy(a, rng):
    """Q (diag(d) + 0.2 N) Q*, N strictly upper triangular with standard
    complex Gaussian entries, as tests/test_riesz.py::_bit_case builds its
    non-normal inputs: Q is the unitary factor of a QR of A's eigenvectors,
    so Q*AQ is (nearly) triangular, and d is its diagonal, A's eigenvalues."""
    q = np.linalg.qr(np.linalg.eig(a)[1])[0]
    n = a.shape[0]
    strict = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    return q @ (np.diag(np.diag(q.conj().T @ a @ q)) + 0.2 * strict) @ q.conj().T


def riesz(env, rounds=15):
    rng = np.random.default_rng(2503)
    workload = env["bench"].Spectral(3)
    for r in range(rounds):
        for i, op in enumerate(workload.round(r)):
            if op.kind in RIESZ_KINDS:
                key = f"round {r} op {i} {op.kind} n={op.n}"
                yield f"{key} normal", outcome(op.call)
                # the operation's A is its call's default argument a
                a = nonnormal_copy(inspect.signature(op.call).parameters["a"].default, rng)
                yield f"{key} nonnormal", outcome(lambda: op.call(a=a))


def sweep(env):
    helpers, commute = env["helpers"], env["projspec"].commute
    rng = np.random.default_rng(5)
    for n in (4, 12, 24, 48, 64):
        for eps in np.logspace(-12, -3, 9):
            for i in range(3):
                a, b = helpers.near_commuting_pair(rng, n, eps)
                yield f"n={n} eps={eps!r} {i}", outcome(lambda: commute.equivalence_check(a, b))


def readme(env):
    cli = env["projspec"].cli
    commands = [line[2:] for line in (env["root"] / "README.md").read_text().splitlines() if line.startswith("$ projspec ")]
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        env["bench"].write_inputs(Path(tmp), 1)
        os.chdir(tmp)
        try:
            for command in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = outcome(lambda: cli.main(shlex.split(command)[1:]))
                files = {p.name: p.read_text() for p in sorted(Path(tmp).iterdir()) if p.suffix in (".poly", ".svg")}
                yield command, {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}
        finally:
            os.chdir(here)


def clustered(env):
    helpers, (core, commute) = env["helpers"], (env["projspec"].core, env["projspec"].commute)
    base0 = helpers.STRADDLE_BASE
    for factor in (0.9, 1.0, 1.1, 1.5):
        for shift in (1.0, 1j):
            base = base0.copy()
            base[1] += factor * shift * core.DEFLATION_CLUSTER_REL * np.linalg.norm(base)
            for s in range(20):
                u = helpers.random_unitary(np.random.default_rng(s), 4)
                a = (u * base) @ u.conj().T
                yield f"straddle {factor} {shift} {s}", outcome(lambda: core.eig_normal(a))
    rng = np.random.default_rng(2110)
    for n in (4, 8, 16, 32, 64):
        for s in range(8):
            u = helpers.random_unitary(rng, n)
            diags = [np.round(rng.uniform(-2, 2, n)) + 1j * np.round(rng.uniform(-2, 2, n)) for _ in range(3)]
            mats = [(u * d) @ u.conj().T for d in diags]
            yield f"rounded pair n={n} {s}", outcome(lambda: commute.equivalence_check(*mats[:2], seed=s))
            yield f"rounded basis n={n} {s}", outcome(lambda: commute.common_eigenbasis(*mats[:2]))
            yield f"rounded eig n={n} {s}", outcome(lambda: core.eig_normal(mats[0]))
            yield f"rounded triple n={n} {s}", outcome(lambda: commute.tuple_test(mats, seed=s))
            dmats = [np.diag(d) for d in diags]
            yield f"diagonal pair n={n} {s}", outcome(lambda: commute.equivalence_check(*dmats[:2], seed=s))
            yield f"diagonal triple n={n} {s}", outcome(lambda: commute.tuple_test(dmats, seed=s))
    u = helpers.random_unitary(np.random.default_rng(61), 6)
    triple = [
        (u * np.array(d, dtype=complex)) @ u.conj().T
        for d in ([1, 1, 1, 2, 2, 2], [0.5 + 3j, 0.5 + 3j, 0.5 + 4j, 0.5 + 4j, 0.5 + 5j, 0.5 + 5j], [-1, 6, -1, 6, -1, 6])
    ]
    yield "repeated triple", outcome(lambda: commute.tuple_test(triple))


ONE_BY_ONE = (0j, complex(-0.0, -0.0), 1e-300 + 0j, 3 - 2j, -1.5 + 0j, 2j)


def tie_heavy(helpers):
    """(label, U diag(v) U*) for spectra v heavy with ties in modulus and
    argument: rounded Gaussian integers, {1, 2} times 8th roots of unity, -1
    with a +0 or -0 imaginary part, and rounded integers half replaced by
    signed zeros; U the identity, a permutation or a random unitary."""
    rng = np.random.default_rng(2201)
    for n in (3, 8, 17):
        for s in range(4):
            signs = np.copysign(0.0, rng.choice([1.0, -1.0], (2, n)))
            minus_one = np.empty(n, dtype=complex)
            minus_one.real, minus_one.imag = -1.0, signs[0]
            zeros = np.round(2 * rng.normal(size=n)) + 1j * np.round(2 * rng.normal(size=n))
            hit = rng.random(n) < 0.5
            zeros.real[hit], zeros.imag[hit] = signs[0][hit], signs[1][hit]
            spectra = {
                "integers": np.round(3 * rng.normal(size=n)) + 1j * np.round(3 * rng.normal(size=n)),
                "roots": rng.choice([1.0, 2.0], n) * np.exp(0.25j * np.pi * rng.integers(0, 8, n)),
                "minus-one": minus_one,
                "zeros": zeros,
            }
            bases = {
                "identity": np.eye(n, dtype=complex),
                "permutation": np.eye(n, dtype=complex)[rng.permutation(n)],
                "unitary": helpers.random_unitary(rng, n),
            }
            for kind, v in spectra.items():
                for basis, u in bases.items():
                    yield f"{kind} {basis} n={n} {s}", (u * v) @ u.conj().T


def one_by_one(env):
    """The ONE_BY_ONE matrices through eig_normal, and every pair and three
    cyclic neighbours of them through the pair and tuple operations."""
    p = env["projspec"]
    ones = [np.full((1, 1), x) for x in ONE_BY_ONE]
    for i, a in enumerate(ones):
        yield f"1x1 eig {i}", outcome(lambda: p.core.eig_normal(a))
        for j, b in enumerate(ones):
            yield f"1x1 pair {i} {j}", outcome(lambda: p.commute.equivalence_check(a, b))
            yield f"1x1 basis {i} {j}", outcome(lambda: p.commute.common_eigenbasis(a, b))
        yield f"1x1 triple {i}", outcome(lambda: p.commute.tuple_test([a, ones[i - 1], ones[i - 2]]))


def edges(env):
    p = env["projspec"]
    yield from one_by_one(env)
    rng = np.random.default_rng(2202)
    for n in range(1, 7):
        mixed = np.empty((n, n), dtype=complex)
        mixed.real, mixed.imag = np.copysign(0.0, rng.choice([1.0, -1.0], (2, n, n)))
        for label, z in (("+0", np.zeros((n, n), dtype=complex)), ("-0", np.full((n, n), complex(-0.0, -0.0))), ("mixed", mixed)):
            yield f"zeros {label} n={n}", outcome(lambda: p.core.eig_normal(z))
    for label, a in tie_heavy(env["helpers"]):
        yield f"ties {label}", outcome(lambda: p.core.eig_normal(a))


# (parser, text) for each format: malformed headers (end of input, keyword,
# field count, non-integer and out-of-range fields, at later lines and
# indented), malformed rows, and one valid text.
FORMAT_CASES = {
    "cmatrix": [
        "", "# only a comment\n\n", "matrix 2 2\n", "ctuple 1\n", "cmatrix\n", "cmatrix 2\n", "cmatrix 2 2 2\n",
        "cmatrix x 2\n", "cmatrix 2 x\n", "cmatrix 2.0 2\n", "  cmatrix 2  2e0\n", "\n# c\ncmatrix 22 2x\n",
        "cmatrix 0 2\n", "cmatrix 2 -1\n", "cmatrix -0 1\n", "\n  cmatrix -3 -3\n",
        "cmatrix 2 2\n1+0i\n", "cmatrix 2 2\n1+0i 0+0i\n", "cmatrix 2 2\n1+0i 0+0i\n0+0i bogus\n",
        "cmatrix 1 1\n1+0i\nextra\n", "cmatrix 2 1\n1+0i\n2+0i\n", "cmatrix 1 1\n1e400+0i\n",
        "cmatrix 1 1\n1+0i 1\n", "cmatrix 1 1\n  -0-0i\n", "cmatrix 1 2\n1+0i 1+0\n",
    ],
    "ctuple": [
        "", "tuple 1\n", "cmatrix 1 1\n1+0i\n", "ctuple\n", "ctuple 1 1\n", "ctuple x\n", "ctuple t\n",
        "ctuple 1.5\n", "# c\n  ctuple 0\n", "ctuple -2\n",
        "ctuple 2\ncmatrix 1 1\n1+0i\n", "ctuple 1\ncmatrix 1 1\n1+0i\nextra\n",
        "ctuple 2\ncmatrix 1 1\n1+0i\ncmatrix 2 2\n1+0i 0+0i\n0+0i 1+0i\n", "ctuple 1\ncmatrix 1 x\n",
        "ctuple 1\ncmatrix 1 1\n2-1i\n",
    ],
    "bipoly": [
        "", "poly 1\n", "lines 0\n", "bipoly\n", "bipoly 1 1\n", "bipoly x\n", "bipoly b\n", "  bipoly 1.0\n",
        "# c\n\nbipoly 2e0\n", "bipoly -1\n", "bipoly 0\n",
        "bipoly 1\n0 0 1\n", "bipoly 1\n0 0 x 0\n", "bipoly 1\n2 0 1 0\n", "bipoly 1\n1 1 1 0\n",
        "bipoly 1\n0 0 1 0\n0 0 1 0\n", "bipoly 1\n0 0 inf 0\n", "bipoly 1\n0 0 1 0\n1 0 -0 -0\n",
    ],
    "lines": [
        "", "line 0\n", "bipoly 0\n", "lines\n", "lines 1 1\n", "lines x\n", "lines s\n", "  lines 1.0\n",
        "# c\n\nlines 2e0\n", "lines -1\n", "lines -1\n1 0 0 0 1\n", "lines 0\n",
        "lines 2\n1 0 0 0 1\n", "lines 1\n1 0 0 0\n", "lines 1\n1 0 0 x 1\n", "lines 1\n1 0 0 0 0\n",
        "lines 1\n1 0 0 0 -1\n", "lines 1\n1 0 0 0 1.5\n", "lines 1\n-0 -0 1 2 3\n", "lines 1\nnan 0 inf 0 1\n",
    ],
}

# CLI complex arguments: file-format literals and Python's own forms.
CLI_COMPLEX = (
    "1+2i", " 3-4i ", "-0-0i", "+0-0i", "1e400+0i", "5e-324-5e-324i", "1.5e-3+2e2i", ".5-.25i", "7.+0i",
    "1", "-2.5", "0.5j", "1+2j", "i", "1+i", "2i", "(1+2j)", "1_0+0i", "nan", "",
    "inf", "1 + 2i", "1+2i+3i", "bogus",
)


def formats(env):
    p = env["projspec"]
    parsers = {"cmatrix": p.core.parse_matrix, "ctuple": p.core.parse_tuple,
               "bipoly": p.detpoly.parse_bipoly, "lines": p.linegeom.parse_arrangement}
    for form, texts in FORMAT_CASES.items():
        for text in texts:
            value = outcome(lambda: parsers[form](text))
            if isinstance(value, BaseException):
                value = (type(value).__name__, str(value), getattr(value, "line", None), getattr(value, "col", None))
            yield f"{form} {text!r}", value
    for text in CLI_COMPLEX:
        yield f"cli complex {text!r}", outcome(lambda: p.cli._cli_complex(text))


DETPOLY_LINES_NS = (24, 28, 32, 36, 40, 48, 56, 64)


def detpoly_lines(env, ns=DETPOLY_LINES_NS):
    helpers, (detpoly, linegeom) = env["helpers"], (env["projspec"].detpoly, env["projspec"].linegeom)
    for n in ns:
        for s in range(6):
            a, b = helpers.commuting_pair(np.random.default_rng(1000 * n + s), n)
            yield f"commuting n={n} s={s}", outcome(lambda: linegeom.factor_lines(detpoly.char_poly_pair(a, b)))
    for m, lines in helpers.line_powers():
        p = helpers.line_product(lines)
        for seed in range(4):
            yield f"power m={m} lines={len(lines)} seed={seed}", outcome(lambda: linegeom.factor_lines(p, seed=seed))


# The contract family's subcommands, and the literals of its matrix entries
# and options: overflow, subnormal and signed-zero edges, and plain values.
CONTRACT_SUBCOMMANDS = ("eig", "agmon", "escape", "commute", "detpoly", "riesz", "perturb", "lemma34")
CONTRACT_LITERALS = (
    "1e308+0i", "1e-320+0i", "0+0i", "-0+0i", "1e200+1e200i", "1+0i", "3e-200+0i", "2-1i", "1e-160+0i", "1e160+0i",
)


def _modulus(literal):
    return abs(complex(literal.replace("i", "j")))


def _contract_matrix(rng, n, diagonal):
    """Rows of literals of an n x n matrix: entries drawn from
    CONTRACT_LITERALS, off the diagonal "0+0i" when diagonal."""
    draw = rng.integers(len(CONTRACT_LITERALS), size=(n, n))
    return [[CONTRACT_LITERALS[d] if (i == j or not diagonal) else "0+0i" for j, d in enumerate(row)]
            for i, row in enumerate(draw)]


def contract_runs(count=100):
    """(key, argv, files) of the contract family: for the i-th subcommand,
    default_rng((2901, i)) draws each run's n in 1-3 and its matrices (the
    even runs diagonal); a contour is centred on A[0, 0], lam is A[0, 0],
    lemma34's mu is B's entry of largest modulus (|mu| = ||B||_2 when B is
    diagonal), and every other complex option or radius (a literal's
    modulus) is drawn from CONTRACT_LITERALS. The first runs of each
    subcommand do not depend on count."""
    for i, sub in enumerate(CONTRACT_SUBCOMMANDS):
        rng = np.random.default_rng((2901, i))
        for k in range(count):
            n = int(rng.integers(1, 4))
            names = ("a.mat",) if sub in ("eig", "agmon", "escape", "riesz") else ("a.mat", "b.mat")
            mats = {name: _contract_matrix(rng, n, k % 2 == 0) for name in names}
            literal, radius = (CONTRACT_LITERALS[d] for d in rng.integers(len(CONTRACT_LITERALS), size=2))
            radius = f"{_modulus(radius):.17g}"
            a00 = mats["a.mat"][0][0]
            # --name=value; cli.main reads "--name value" the same way, and
            # this form keeps the records' argv as they were recorded
            options = []
            if sub == "riesz":
                options = [f"--center={a00}", f"--radius={radius}"]
            elif sub == "perturb":
                options = [f"--lam={a00}", f"--mu={literal}", f"--center={a00}", f"--radius={radius}"]
            elif sub == "lemma34":
                options = ["--mu=" + max((x for row in mats["b.mat"] for x in row), key=_modulus)]
            files = {name: f"cmatrix {n} {n}\n" + "".join(" ".join(row) + "\n" for row in rows) for name, rows in mats.items()}
            yield f"{sub} {k}", [sub, *names, *options], files


def cli_record(cli, argv) -> dict:
    """One in-process cli.main run: its exit code (or the exception it
    raised), stdout, stderr and the messages of the RuntimeWarnings it
    issued."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = outcome(lambda: cli.main(argv))
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "warnings": runtime}


def contract_breaks(record) -> list:
    """How a cli_record breaks the CLI contract, [] when it keeps it: no
    RuntimeWarning; exit code 0, 1 or 2 (no exception); on exit 2 no
    stdout and stderr exactly one `error:` line; on exit 0 or 1 no stderr
    and no inf or nan in stdout."""
    breaks = [f"warning: {message}" for message in record["warnings"]]
    code, out, err = record["exit"], record["stdout"], record["stderr"]
    if code not in (0, 1, 2):
        return breaks + [f"exit {canon(code)}"]
    if code == 2:
        if out:
            breaks.append("stdout on exit 2")
        if not (err.startswith("error: ") and err.count("\n") == 1):
            breaks.append(f"stderr on exit 2 is not one error line: {err!r}")
    else:
        if err:
            breaks.append(f"stderr on exit {code}: {err!r}")
        if re.search(r"(?i)\b(inf|nan)\b", out):
            breaks.append(f"inf or nan in the output of exit {code}")
    return breaks


def contract(env, count=100):
    cli = env["projspec"].cli
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for key, argv, files in contract_runs(count):
                for name, text in files.items():
                    Path(name).write_text(text)
                yield key, {"argv": argv, "files": files, **cli_record(cli, argv)}
        finally:
            os.chdir(here)


def load(root: Path) -> dict:
    """The checkout's projspec, tests/helpers.py and perfbench/bench_workloads.py."""
    for sub in ("perfbench", "tests", "src"):
        sys.path.insert(0, str(root / sub))
    import bench_workloads
    import helpers
    import projspec
    from projspec import cli, commute, core  # noqa: F401  (submodules used through projspec)

    return {"root": root, "projspec": projspec, "helpers": helpers, "bench": bench_workloads}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    p.add_argument("--out", type=Path)
    p.add_argument("--family", nargs="+", action="extend", choices=FAMILIES, metavar="NAME")
    args = p.parse_args(argv)
    env = load(args.root.resolve())
    whole = hashlib.sha256()
    lines = []
    for name in args.family or FAMILIES:
        text = "".join(f"{name} | {key} | {canon(value)}\n" for key, value in globals()[name](env))
        whole.update(text.encode())
        lines.append(text)
        print(f"{name:10s} {text.count(chr(10)):5d} records  sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"{'all':10s} {sum(t.count(chr(10)) for t in lines):5d} records  sha256 {whole.hexdigest()}")
    if args.out is not None:
        args.out.write_text("".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
