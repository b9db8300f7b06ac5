"""Command-line interface: file-in/file-out subcommands over all modules.

Exit codes: 0 affirmative verdict or plain success, 1 negative verdict
(not a union of lines, not commuting, slope below threshold), 2 errors,
indeterminate outcomes and verdicts whose two routes disagree
(``consistent=false``). Identical arguments, files, and seeds produce
byte-identical output.

``main`` does all of the file input and output: it parses each input file
named on the command line (``_INPUTS``), calls the subcommand's handler,
which returns the result text and exit code, and writes that text to
stdout or ``-o``. Only ``plot-slice --svg`` writes a file of its own.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import agmon as agmon_mod
from . import commute as commute_mod
from . import core, detpoly, linegeom, riesz
from .errors import ProjspecError

_SLOPE_THRESHOLD = 1.8

_TOL_FIELDS = tuple(f.name for f in dataclasses.fields(core.Tolerances))

# The positional inputs, in argument order, and the parser of each one's format:
# main reads each given one and puts the parsed value in place of its path.
_INPUTS = {
    "matrix": core.parse_matrix,
    "matrix_a": core.parse_matrix,
    "matrix_b": core.parse_matrix,
    "poly": detpoly.parse_bipoly,
    "tuple": core.parse_tuple,
}

# The tolerance fields each reading subcommand passes on; no other --tol-* parses.
_EIG_TOLS = ("normal", "eig")
_LINE_TOLS = ("recon",)
_COMMUTE_TOLS = ("normal", "commute", "line")


def _add_common(sub, seed: bool = False, tols=()):
    sub.add_argument("-o", "--output", metavar="PATH", help="write the result here instead of stdout")
    for name in tols:
        sub.add_argument(
            f"--tol-{name}", type=float, default=None, metavar="X",
            help=f"override the {name} tolerance",
        )
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="deterministic seed (default 0)")


def _tolerances(args) -> core.Tolerances:
    return core.default_tolerances().override(**{name: getattr(args, f"tol_{name}", None) for name in _TOL_FIELDS})


def _cli_complex(text: str) -> complex:
    """A complex argument: the file format's ``<re><sign><im>i`` literals
    parse to the same bits as core.parse_complex, and Python's own forms
    (``1``, ``-2.5``, ``0.5j``, ``inf``) are accepted too: only a trailing
    imaginary unit ``i`` becomes ``j``."""
    text = text.strip()
    return complex(text[:-1] + "j" if text.endswith("i") else text)


# The options whose values are complex literals, --zs a comma-separated list.
_COMPLEX_OPTIONS = ("--center", "--lam", "--mu", "--zs")


def _is_complex_value(text: str) -> bool:
    """Whether text is a value of a _COMPLEX_OPTIONS option: complex
    literals (_cli_complex), comma-separated, at least one."""
    try:
        return [_cli_complex(t) for t in text.split(",") if t.strip()] != []
    except ValueError:
        return False


def _attach_complex_values(argv: list) -> list:
    """argv with each ``OPTION VALUE`` of a _COMPLEX_OPTIONS option whose
    VALUE is a complex value written as ``OPTION=VALUE``: argparse reads a
    separate value that starts with "-", such as -0+0i, as an option unless
    it is a plain negative number. Any other token is left to argparse, so
    an option in a value's place stays a usage error."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] in _COMPLEX_OPTIONS and i + 1 < len(argv) and _is_complex_value(argv[i + 1]):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _text(out) -> str:
    return "\n".join(out) + "\n"


def _cmd_eig(args) -> tuple[str, int]:
    dec = core.eig_normal(args.matrix, tol=_tolerances(args))
    out = [f"eigenvalues {dec.values.size}"]
    out.extend(core.emit_complex(v) for v in dec.values)
    out.append(f"residual={dec.residual:.17g}")
    out.append(core.emit_matrix(dec.unitary).rstrip("\n"))
    return _text(out), 0


def _cmd_detpoly(args) -> tuple[str, int]:
    return detpoly.emit_bipoly(detpoly.char_poly_pair(args.matrix_a, args.matrix_b)), 0


def _cmd_lines(args) -> tuple[str, int]:
    verdict = linegeom.factor_lines(args.poly, seed=args.seed, tol=_tolerances(args))
    if verdict.is_lines:
        text = linegeom.emit_arrangement(verdict.arrangement)
        return text + f"# deficit={verdict.arrangement.deficit}\n", 0
    z, w = verdict.witness
    out = [
        "notlines",
        f"witness_z={core.emit_complex(z)}",
        f"witness_w={core.emit_complex(w)}",
        f"witness_residual={verdict.witness_residual:.17g}",
    ]
    return _text(out), 1


def _cmd_agmon(args) -> tuple[str, int]:
    dec = core.eig_normal(args.matrix, tol=_tolerances(args))
    wit = agmon_mod.strong_agmon_check(dec.values)
    out = [
        f"theta={wit.theta:.17g}",
        f"delta={wit.delta:.17g}",
        f"epsilon={wit.epsilon:.17g}",
        f"sector_center={wit.sector_center:.17g}",
        f"gap={2.0 * wit.delta:.17g}",
    ]
    return _text(out), 0


def _cmd_escape(args) -> tuple[str, int]:
    if args.ladder is not None:
        if args.matrix is not None:
            raise ValueError("escape --ladder reads no matrix")
        given = [f"--tol-{name}" for name in _EIG_TOLS if getattr(args, f"tol_{name}") is not None]
        if given:
            raise ValueError(f"escape --ladder reads no tolerance; {', '.join(given)} not accepted")
        rows = agmon_mod.escape_ladder(args.ladder, args.epsilon, args.n_angles)
        return agmon_mod.emit_ladder_csv(rows), 0
    if args.matrix is None:
        raise ValueError("escape requires a matrix file unless --ladder is given")
    dec = core.eig_normal(args.matrix, tol=_tolerances(args))
    profile = agmon_mod.escape_radius_profile(dec.values, args.epsilon, args.n_angles)
    return agmon_mod.emit_profile_csv(profile), 0


def _cmd_example(args) -> tuple[str, int]:
    return core.emit_matrix(agmon_mod.example_operator(args.level)), 0


def _contour(args) -> riesz.Contour:
    return riesz.Contour(_cli_complex(args.center), args.radius, args.nodes)


def _cmd_riesz(args) -> tuple[str, int]:
    res = riesz.riesz_projection(args.matrix, _contour(args))
    out = [
        f"# idempotency_residual={res.idempotency_residual:.17g}",
        f"# commutation_residual={res.commutation_residual:.17g}",
        f"# rank_estimate={res.rank_estimate}",
        core.emit_matrix(res.projection).rstrip("\n"),
    ]
    return _text(out), 0


def _cmd_perturb(args) -> tuple[str, int]:
    eps_list = [float(t) for t in args.eps_list.split(",") if t.strip()]
    lam, mu = _cli_complex(args.lam), _cli_complex(args.mu)
    report = riesz.perturbation_check(args.matrix_a, args.matrix_b, lam, mu, _contour(args), eps_list)
    passed = report.exact or (report.slope is not None and report.slope >= _SLOPE_THRESHOLD)
    return riesz.emit_slope_csv(report), 0 if passed else 1


def _cmd_lemma34(args) -> tuple[str, int]:
    zs = None
    if args.zs:
        zs = [_cli_complex(t) for t in args.zs.split(",") if t.strip()]
    res = riesz.lemma34_solver(args.matrix_a, args.matrix_b, _cli_complex(args.mu), zs)
    out = [
        f"residual_a={res.residual_a:.17g}",
        f"residual_b={res.residual_b:.17g}",
        f"vector {res.vector.size}",
    ]
    out.extend(core.emit_complex(v) for v in res.vector)
    return _text(out), 0


def _cmd_commute(args) -> tuple[str, int]:
    report = commute_mod.equivalence_check(args.matrix_a, args.matrix_b, seed=args.seed, tol=_tolerances(args))
    text = commute_mod.format_report(report)
    if report.indeterminate is not None or not report.consistent:
        return text, 2
    return text, 0 if report.commute else 1


def _cmd_tuple(args) -> tuple[str, int]:
    mats = args.tuple
    report = commute_mod.tuple_test(mats, seed=args.seed, tol=_tolerances(args))
    out = [f"members={len(mats)}", f"commute={'true' if report.commute else 'false'}"]
    for (i, j), rep in report.reports:
        prefix = f"pair_{i}_{j}_"
        out.append(f"{prefix}commute={'true' if rep.commute else 'false'}")
        out.append(f"{prefix}commutator_norm={rep.commutator_norm:.17g}")
        if rep.indeterminate is not None:
            out.append(f"{prefix}verdict=indeterminate")
        else:
            out.append(f"{prefix}verdict={'lines' if rep.verdict.is_lines else 'notlines'}")
            out.append(f"{prefix}consistent={'true' if rep.consistent else 'false'}")
    if report.indeterminate is not None:
        msg = " ".join(report.indeterminate.split())
        out.append(f"indeterminate={msg}")
        return _text(out), 2
    if report.commute and report.hyperplanes is not None:
        out.append(f"deficit={report.deficit}")
        out.append(f"hyperplanes {len(report.hyperplanes)} {len(mats)}")
        for coeffs, mult in report.hyperplanes:
            row = " ".join(core.emit_complex(x) for x in coeffs)
            out.append(f"{row} {mult}")
    return _text(out), 0 if report.commute else 1


def plot_slice(p: detpoly.BivarPoly, wmin: float, wmax: float, samples: int):
    """Root traces of p(z, w0) for real w0 sweeping [wmin, wmax]."""
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    rows = []
    for w0 in np.linspace(wmin, wmax, samples):
        coeffs = detpoly.univariate_slice(p, "fix_w", complex(w0))
        try:
            roots = linegeom.poly_roots(coeffs)
        except ValueError:
            continue
        for z in roots:
            rows.append((float(w0), float(z.real), float(z.imag)))
    return rows


def _svg_scatter(rows, wmin: float, wmax: float) -> str:
    size, margin = 640, 48
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if rows:
        xs = [r[1] for r in rows]
        ys = [r[2] for r in rows]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        span = max(x1 - x0, y1 - y0, 1e-9)
        pad = 0.05 * span
        x0, y0, span = x0 - pad, y0 - pad, span + 2 * pad
        scale = (size - 2 * margin) / span
        wspan = max(wmax - wmin, 1e-9)
        for w0, x, y in rows:
            px = margin + (x - x0) * scale
            py = size - margin - (y - y0) * scale
            t = (w0 - wmin) / wspan
            r, g, b = int(40 + 180 * t), 60, int(220 - 180 * t)
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" '
                f'fill="rgb({r},{g},{b})"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_plot_slice(args) -> tuple[str, int]:
    rows = plot_slice(args.poly, args.wmin, args.wmax, args.samples)
    if args.svg:
        Path(args.svg).write_text(_svg_scatter(rows, args.wmin, args.wmax))
    return core.emit_csv(("w0", "re_z", "im_z"), rows), 0


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error as one ``error: <message>`` line on
    stderr and exit 2, as every other error; the subparsers are of this
    class too (add_subparsers' default parser_class is the parent's)."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="projspec",
        description="point projective spectra of matrix pairs: determinantal "
        "polynomials, line factorization, sector and escape analysis, Riesz "
        "projections, and the commutativity equivalence",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("eig", help="eigendecomposition of a normal matrix")
    s.add_argument("matrix")
    _add_common(s, tols=_EIG_TOLS)
    s.set_defaults(func=_cmd_eig)

    s = subs.add_parser("detpoly", help="coefficients of det(I + zA + wB)")
    s.add_argument("matrix_a")
    s.add_argument("matrix_b")
    _add_common(s)
    s.set_defaults(func=_cmd_detpoly)

    s = subs.add_parser("lines", help="factor a bivariate polynomial into lines")
    s.add_argument("poly")
    _add_common(s, seed=True, tols=_LINE_TOLS)
    s.set_defaults(func=_cmd_lines)

    s = subs.add_parser("agmon", help="widest eigenvalue-free sector of a spectrum")
    s.add_argument("matrix")
    _add_common(s, tols=_EIG_TOLS)
    s.set_defaults(func=_cmd_agmon)

    s = subs.add_parser("escape", help="escape-radius profile or truncation ladder")
    s.add_argument("matrix", nargs="?", default=None)
    s.add_argument("--epsilon", type=float, default=0.5, help="disk parameter in (0,1)")
    s.add_argument("--n-angles", type=int, default=agmon_mod.DEFAULT_N_ANGLES)
    s.add_argument("--ladder", type=int, default=None, metavar="N",
                   help="emit the ladder CSV for levels 1..N instead of a profile")
    _add_common(s, tols=_EIG_TOLS)
    s.set_defaults(func=_cmd_escape)

    s = subs.add_parser("example", help="diagonal model operator at a truncation level")
    s.add_argument("--level", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=_cmd_example)

    s = subs.add_parser("riesz", help="Riesz projection over a circular contour")
    s.add_argument("matrix")
    s.add_argument("--center", required=True, help="contour center (complex literal)")
    s.add_argument("--radius", type=float, required=True)
    s.add_argument("--nodes", type=int, default=riesz.DEFAULT_NODES)
    _add_common(s)
    s.set_defaults(func=_cmd_riesz)

    s = subs.add_parser("perturb", help="first-order perturbation residual slope")
    s.add_argument("matrix_a")
    s.add_argument("matrix_b")
    s.add_argument("--lam", required=True, help="unperturbed eigenvalue (complex literal)")
    s.add_argument("--mu", required=True, help="first-order eigenvalue rate (complex literal)")
    s.add_argument("--center", required=True)
    s.add_argument("--radius", type=float, required=True)
    s.add_argument("--nodes", type=int, default=riesz.DEFAULT_NODES)
    s.add_argument("--eps-list", default="1e-2,1e-3,1e-4")
    _add_common(s)
    s.set_defaults(func=_cmd_perturb)

    s = subs.add_parser("lemma34", help="common eigenvector from a spectral line")
    s.add_argument("matrix_a")
    s.add_argument("matrix_b")
    s.add_argument("--mu", required=True, help="eigenvalue with |mu| = ||B||")
    s.add_argument("--zs", default=None, help="comma-separated complex ramp points")
    _add_common(s)
    s.set_defaults(func=_cmd_lemma34)

    s = subs.add_parser("commute", help="commutativity vs line-structure equivalence")
    s.add_argument("matrix_a")
    s.add_argument("matrix_b")
    _add_common(s, seed=True, tols=_COMMUTE_TOLS)
    s.set_defaults(func=_cmd_commute)

    s = subs.add_parser("tuple", help="pairwise equivalence over an operator tuple")
    s.add_argument("tuple")
    _add_common(s, seed=True, tols=_COMMUTE_TOLS)
    s.set_defaults(func=_cmd_tuple)

    s = subs.add_parser("plot-slice", help="root traces of p(z, w0) over a real sweep")
    s.add_argument("poly")
    s.add_argument("--wmin", type=float, default=-1.0)
    s.add_argument("--wmax", type=float, default=1.0)
    s.add_argument("--samples", type=int, default=41)
    s.add_argument("--svg", default=None, metavar="PATH", help="also write an SVG scatter")
    _add_common(s)
    s.set_defaults(func=_cmd_plot_slice)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_complex_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code) if isinstance(exc.code, int) else 2
    try:
        for name, parse in _INPUTS.items():
            path = getattr(args, name, None)
            if path is not None:
                setattr(args, name, parse(Path(path).read_text()))
        text, code = args.func(args)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except (ProjspecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
