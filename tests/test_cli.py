import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projspec import cli, commute, core, detpoly, linegeom

from helpers import (
    PAULI_X,
    PAULI_Z,
    commuting_pair,
    fail_batched_eigvals,
    inconsistent_report,
    noncommuting_pair,
    off_curve_witnesses,
)


def _write_matrix(path, m):
    path.write_text(core.emit_matrix(np.asarray(m, dtype=complex)))
    return str(path)


def _run(tmp_path, *argv):
    out = tmp_path / f"out_{abs(hash(argv)) % 10**8}.txt"
    code = cli.main([*argv, "-o", str(out)])
    return code, (out.read_text() if out.exists() else "")


def test_commute_pauli(tmp_path):
    a = _write_matrix(tmp_path / "a.mat", PAULI_Z)
    b = _write_matrix(tmp_path / "b.mat", PAULI_X)
    code, text = _run(tmp_path, "commute", a, b)
    assert code == 1
    lines = text.strip().splitlines()
    assert lines[0] == "commute=false"
    assert "verdict=notlines" in lines
    assert "consistent=true" in lines


def test_commute_commuting_pair(tmp_path):
    rng = np.random.default_rng(71)
    a, b = commuting_pair(rng, 3)
    fa = _write_matrix(tmp_path / "a.mat", a)
    fb = _write_matrix(tmp_path / "b.mat", b)
    code, text = _run(tmp_path, "commute", fa, fb)
    assert code == 0
    assert text.startswith("commute=true")
    assert "verdict=lines" in text
    assert "consistent=true" in text


def test_commute_tolerance_flag_reaches_library(tmp_path):
    rng = np.random.default_rng(73)
    a, b = commuting_pair(rng, 2)
    fa = _write_matrix(tmp_path / "a.mat", a)
    fb = _write_matrix(tmp_path / "b.mat", b)
    code, text = _run(tmp_path, "commute", fa, fb, "--tol-commute", "1e-30")
    # commutator is nonzero at machine noise, so an absurdly tight tolerance
    # flips the algebraic side while the geometric side still sees lines; the
    # two routes then disagree, which is no answer (exit 2)
    assert text.startswith("commute=false")
    assert "verdict=lines" in text
    assert "consistent=false" in text
    assert code == 2


def test_commute_inconsistent_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(commute, "equivalence_check", inconsistent_report)
    fa = _write_matrix(tmp_path / "a.mat", np.diag([1.0, 2.0]))
    fb = _write_matrix(tmp_path / "b.mat", np.diag([3.0, 4.0]))
    code, text = _run(tmp_path, "commute", fa, fb)
    assert text.startswith("commute=true")
    assert "consistent=false" in text
    assert code == 2


def test_tuple_inconsistent_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(commute, "equivalence_check", inconsistent_report)
    f = tmp_path / "t.ctuple"
    f.write_text(core.emit_tuple([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]))
    code, text = _run(tmp_path, "tuple", str(f))
    lines = text.strip().splitlines()
    assert "pair_0_1_consistent=false" in lines
    assert lines[-1].startswith("indeterminate=pair (0,1):")
    assert not any(l.startswith("hyperplanes") for l in lines)
    assert code == 2


def test_commute_exits_2_on_off_curve_witness(tmp_path, monkeypatch):
    monkeypatch.setattr(linegeom, "_ray_witnesses", off_curve_witnesses)
    fa = _write_matrix(tmp_path / "a.mat", PAULI_Z)
    fb = _write_matrix(tmp_path / "b.mat", PAULI_X)
    code, text = _run(tmp_path, "commute", fa, fb)
    assert "verdict=indeterminate" in text
    assert "off the matrix curve" in text
    assert code == 2


def test_commute_exits_2_when_grid_eigensolve_fails(tmp_path, monkeypatch):
    # the pencil verdict solves batched eigenproblems at every dimension,
    # also below detpoly.EIGEN_FILL_MIN_N
    fail_batched_eigvals(monkeypatch)
    a, b = noncommuting_pair(np.random.default_rng(23), 8)
    fa = _write_matrix(tmp_path / "a.mat", a)
    fb = _write_matrix(tmp_path / "b.mat", b)
    code, text = _run(tmp_path, "commute", fa, fb)
    assert text.startswith("commute=false")
    assert "indeterminate=" in text and "did not converge" in text
    assert code == 2


def test_dead_tolerance_flags_are_usage_errors(tmp_path, capsys):
    fa = _write_matrix(tmp_path / "a.mat", np.diag([1.0, 2.0]))
    fb = _write_matrix(tmp_path / "b.mat", np.diag([3.0, 4.0]))
    assert cli.main(["commute", fa, fb, "--tol-unitary", "1e-6"]) == 2
    assert cli.main(["detpoly", fa, fb, "--tol-line", "1e-6"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    # flags that a subcommand reads still parse
    code, _ = _run(tmp_path, "commute", fa, fb, "--tol-line", "1e-6")
    assert code == 0


def test_cli_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import projspec.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_eig_output(tmp_path):
    f = _write_matrix(tmp_path / "a.mat", np.array([[1, 2], [2, 1]]))
    code, text = _run(tmp_path, "eig", f)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "eigenvalues 2"
    assert core.parse_complex(lines[1]) == pytest.approx(3.0)
    assert core.parse_complex(lines[2]) == pytest.approx(-1.0)
    assert lines[3].startswith("residual=")
    u = core.parse_matrix("\n".join(lines[4:]) + "\n")
    assert u.shape == (2, 2)


def test_eig_rejects_nonnormal(tmp_path):
    f = _write_matrix(tmp_path / "a.mat", np.array([[0, 1], [0, 0]]))
    code, _ = _run(tmp_path, "eig", f)
    assert code == 2


def test_example_and_agmon(tmp_path):
    code, text = _run(tmp_path, "example", "--level", "3")
    assert code == 0
    assert text.splitlines()[0] == "cmatrix 14 14"
    mat_file = tmp_path / "ex3.mat"
    mat_file.write_text(text)
    m = core.parse_matrix(text)
    assert np.abs(m - np.diag(np.diag(m))).max() == 0.0
    code, text = _run(tmp_path, "agmon", str(mat_file))
    assert code == 0
    fields = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert float(fields["gap"]) == pytest.approx(2 * math.pi / 8, abs=1e-12)
    assert float(fields["delta"]) == pytest.approx(math.pi / 8, abs=1e-12)
    assert float(fields["epsilon"]) == pytest.approx(math.sin(math.pi / 8))


def test_detpoly_lines_roundtrip_product(tmp_path):
    fa = _write_matrix(tmp_path / "a.mat", np.diag([1.0, 2.0]))
    fb = _write_matrix(tmp_path / "b.mat", np.diag([3.0, 4.0]))
    code, poly_text = _run(tmp_path, "detpoly", fa, fb)
    assert code == 0
    assert poly_text.splitlines()[0] == "bipoly 2"
    poly_file = tmp_path / "p.bipoly"
    poly_file.write_text(poly_text)
    code, text = _run(tmp_path, "lines", str(poly_file))
    assert code == 0
    body = [l for l in text.splitlines() if not l.startswith("#")]
    arr = linegeom.parse_arrangement("\n".join(body) + "\n")
    assert arr.total_multiplicity() == 2
    assert "# deficit=0" in text


def test_detpoly_lines_roundtrip_conic(tmp_path):
    fa = _write_matrix(tmp_path / "a.mat", PAULI_Z)
    fb = _write_matrix(tmp_path / "b.mat", PAULI_X)
    _, poly_text = _run(tmp_path, "detpoly", fa, fb)
    poly_file = tmp_path / "p.bipoly"
    poly_file.write_text(poly_text)
    code, text = _run(tmp_path, "lines", str(poly_file))
    assert code == 1
    lines = text.strip().splitlines()
    assert lines[0] == "notlines"
    assert lines[1].startswith("witness_z=")
    assert lines[2].startswith("witness_w=")
    assert lines[3].startswith("witness_residual=")


def test_riesz_cli(tmp_path):
    f = _write_matrix(tmp_path / "a.mat", np.diag([1.0, 2.0]))
    code, text = _run(tmp_path, "riesz", f, "--center", "1+0i", "--radius", "0.5")
    assert code == 0
    assert "# rank_estimate=1" in text
    p = core.parse_matrix(text)
    assert np.abs(p - np.diag([1.0, 0.0])).max() <= 1e-10


def test_riesz_cli_on_contour(tmp_path):
    f = _write_matrix(tmp_path / "a.mat", np.diag([1.0, 2.0]))
    code, _ = _run(tmp_path, "riesz", f, "--center", "1+0i", "--radius", "1.0")
    assert code == 2


def test_perturb_cli(tmp_path):
    fa = _write_matrix(tmp_path / "a.mat", np.diag([0.0, 2.0]))
    fb = _write_matrix(tmp_path / "b.mat", PAULI_X)
    code, text = _run(
        tmp_path, "perturb", fa, fb,
        "--lam", "0+0i", "--mu", "0+0i", "--center", "0+0i", "--radius", "0.5",
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "epsilon,residual"
    assert lines[-1].startswith("# slope=")
    assert float(lines[-1].split("=", 1)[1]) >= 1.8


def test_lemma34_cli(tmp_path):
    fa = _write_matrix(tmp_path / "a.mat", np.diag([0.0, 1.0]))
    fb = _write_matrix(tmp_path / "b.mat", np.diag([2.0, 1.0]))
    code, text = _run(tmp_path, "lemma34", fa, fb, "--mu", "2+0i", "--zs", "10,100,1000")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("residual_a=")
    assert lines[1].startswith("residual_b=")
    assert lines[2] == "vector 2"
    v = np.array([core.parse_complex(t) for t in lines[3:]])
    assert np.abs(v - np.array([1.0, 0.0])).max() <= 1e-8


def test_lemma34_cli_line_missing(tmp_path):
    fa = _write_matrix(tmp_path / "a.mat", np.diag([3.0, 4.0]))
    fb = _write_matrix(tmp_path / "b.mat", np.diag([2.0, 1.0]))
    code, _ = _run(tmp_path, "lemma34", fa, fb, "--mu", "2+0i")
    assert code == 2


def test_escape_profile_cli(tmp_path):
    code, text = _run(tmp_path, "example", "--level", "3")
    mat_file = tmp_path / "ex3.mat"
    mat_file.write_text(text)
    code, text = _run(tmp_path, "escape", str(mat_file), "--n-angles", "8")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "angle,escape_radius"
    assert len(lines) == 9
    angle0 = lines[1].split(",")
    nu3 = 1.0 + 0.5 + 1.0 / 3.0
    assert float(angle0[0]) == 0.0
    assert float(angle0[1]) == pytest.approx(1.5 * nu3)


def test_escape_ladder_cli(tmp_path):
    code, text = _run(tmp_path, "escape", "--ladder", "4", "--n-angles", "512")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "level,dim,max_gap,min_escape_radius"
    assert len(lines) == 5
    assert lines[1].startswith("1,2,")
    assert lines[4].startswith("4,30,")


def test_escape_ladder_rejects_tolerance_flags(tmp_path, capsys):
    # the ladder is built from closed forms and reads no tolerance
    code, text = _run(tmp_path, "escape", "--ladder", "2", "--tol-eig", "5")
    assert code == 2
    assert text == ""
    assert "--tol-eig" in capsys.readouterr().err
    # the matrix path still reads them
    fa = _write_matrix(tmp_path / "a.mat", np.diag([1.0, 1j]))
    code, _ = _run(tmp_path, "escape", fa, "--tol-eig", "1e-6")
    assert code == 0


def test_escape_requires_input(tmp_path):
    code, _ = _run(tmp_path, "escape")
    assert code == 2


def test_tuple_cli_diagonal(tmp_path):
    mats = [np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.diag([5.0, 6.0])]
    f = tmp_path / "t.ctuple"
    f.write_text(core.emit_tuple([m.astype(complex) for m in mats]))
    code, text = _run(tmp_path, "tuple", str(f))
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "members=3"
    assert lines[1] == "commute=true"
    assert "pair_0_1_commute=true" in lines
    assert "pair_1_2_verdict=lines" in lines
    hp = lines.index("hyperplanes 2 3")
    assert lines[hp - 1] == "deficit=0"
    first = lines[hp + 1].split()
    assert [core.parse_complex(t) for t in first[:3]] == [1.0, 3.0, 5.0]
    assert first[3] == "1"


def test_tuple_cli_pauli(tmp_path):
    f = tmp_path / "t.ctuple"
    f.write_text(core.emit_tuple([PAULI_Z, PAULI_X, PAULI_Z]))
    code, text = _run(tmp_path, "tuple", str(f))
    assert code == 1
    lines = text.strip().splitlines()
    assert lines[1] == "commute=false"
    assert "pair_0_1_commute=false" in lines
    assert "pair_0_2_commute=true" in lines
    assert not any(l.startswith("hyperplanes") for l in lines)


def test_plot_slice_product(tmp_path):
    p = linegeom.expand_arrangement(
        [(linegeom.Line(1.0, 3.0), 1), (linegeom.Line(2.0, 4.0), 1)], 2
    )
    f = tmp_path / "p.bipoly"
    f.write_text(detpoly.emit_bipoly(p))
    code, text = _run(
        tmp_path, "plot-slice", str(f), "--wmin", "-1", "--wmax", "1", "--samples", "3"
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "w0,re_z,im_z"
    mid = [l for l in lines[1:] if l.startswith("0,")]
    roots = sorted(float(l.split(",")[1]) for l in mid)
    assert roots == pytest.approx([-1.0, -0.5])


def test_plot_slice_conic_and_svg(tmp_path):
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = 1.0
    c[2, 0] = -1.0
    c[0, 2] = -1.0
    f = tmp_path / "conic.bipoly"
    f.write_text(detpoly.emit_bipoly(detpoly.BivarPoly(2, c)))
    svg = tmp_path / "out.svg"
    code, text = _run(
        tmp_path, "plot-slice", str(f),
        "--wmin", "0", "--wmax", "0.5", "--samples", "2", "--svg", str(svg),
    )
    assert code == 0
    at0 = [l for l in text.strip().splitlines()[1:] if l.startswith("0,")]
    roots = sorted(float(l.split(",")[1]) for l in at0)
    assert roots == pytest.approx([-1.0, 1.0])
    assert svg.read_text().startswith("<svg")


def test_plot_slice_constant_poly(tmp_path):
    c = np.ones((1, 1), dtype=complex)
    f = tmp_path / "one.bipoly"
    f.write_text(detpoly.emit_bipoly(detpoly.BivarPoly(0, c)))
    code, text = _run(tmp_path, "plot-slice", str(f))
    assert code == 0
    assert text.strip() == "w0,re_z,im_z"


def test_determinism_byte_identical(tmp_path):
    rng = np.random.default_rng(79)
    a, b = commuting_pair(rng, 4)
    fa = _write_matrix(tmp_path / "a.mat", a)
    fb = _write_matrix(tmp_path / "b.mat", b)
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert cli.main(["commute", fa, fb, "--seed", "5", "-o", str(out1)]) == cli.main(
        ["commute", fa, fb, "--seed", "5", "-o", str(out2)]
    )
    assert out1.read_bytes() == out2.read_bytes()
    assert cli.main(["escape", "--ladder", "3", "-o", str(out1)]) == 0
    assert cli.main(["escape", "--ladder", "3", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_usage_errors(tmp_path):
    assert cli.main([]) == 2
    assert cli.main(["not-a-command"]) == 2
    assert cli.main(["eig"]) == 2
    # missing file surfaces as an error exit, not a traceback
    assert cli.main(["eig", str(tmp_path / "absent.mat")]) == 2


def test_stdout_default(tmp_path, capsys):
    f = _write_matrix(tmp_path / "a.mat", np.diag([1.0, 2.0]))
    code = cli.main(["eig", f])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("eigenvalues 2")


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("cmatrix 2 2\n1+0i\n")
    assert cli.main(["eig", str(bad)]) == 2
