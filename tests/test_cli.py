import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projspec import agmon, cli, commute, core, detpoly, linegeom, riesz

from helpers import (
    OVERFLOWING_RAY,
    PAULI_X,
    PAULI_Z,
    commuting_pair,
    answers_module,
    commuting_tuple,
    fail_eig,
    fail_eigh,
    fail_solve,
    inconsistent_report,
    noncommuting_pair,
    off_curve_witnesses,
    random_normal,
    refuse_common_schur_basis,
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


def test_commute_keeps_two_lines_of_a_small_pair(tmp_path):
    # (1e-7, 3e-7) and (2e-7, 4e-7) are two lines; a cluster radius with an
    # absolute 1 in it read them as one double line
    fa = _write_matrix(tmp_path / "a.mat", 1e-7 * np.diag([1.0, 2.0]))
    fb = _write_matrix(tmp_path / "b.mat", 1e-7 * np.diag([3.0, 4.0]))
    code, text = _run(tmp_path, "commute", fa, fb)
    assert code == 0
    assert "consistent=true" in text
    assert "lines=lines 2" in text


def test_commute_tolerance_flag_reaches_library(tmp_path):
    rng = np.random.default_rng(73)
    a, b = commuting_pair(rng, 2)
    fa = _write_matrix(tmp_path / "a.mat", a)
    fb = _write_matrix(tmp_path / "b.mat", b)
    code, text = _run(tmp_path, "commute", fa, fb, "--tol-commute", "1e-30")
    # commutator is nonzero at machine noise, so an absurdly tight tolerance
    # flips the algebraic side while the geometric side still sees lines;
    # that commutator is within what the lines certificate allows, so the
    # pair is indeterminate, which is no answer (exit 2)
    assert text.startswith("commute=false")
    assert "verdict=indeterminate" in text
    assert "the lines certificate allows; it cannot separate this pair" in text
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
    # a refused tuple basis sends each pair through the check of an
    # admitted pair that equivalence_check runs
    refuse_common_schur_basis(monkeypatch)
    monkeypatch.setattr(commute, "_check_pair", inconsistent_report)
    f = tmp_path / "t.ctuple"
    f.write_text(core.emit_tuple([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]))
    code, text = _run(tmp_path, "tuple", str(f))
    lines = text.strip().splitlines()
    assert "pair_0_1_consistent=false" in lines
    assert lines[-1].startswith("indeterminate=pair (0,1):")
    assert not any(l.startswith("hyperplanes") for l in lines)
    assert code == 2


def test_tuple_exits_2_when_pair_eigensolves_fail(tmp_path, monkeypatch):
    # a non-commuting triple whose Schur-basis and pair eigensolves do not
    # converge: every pair is indeterminate
    f = tmp_path / "t.ctuple"
    rng = np.random.default_rng(72)
    f.write_text(core.emit_tuple([random_normal(rng, 5) for _ in range(3)]))
    fail_eig(monkeypatch)
    code, text = _run(tmp_path, "tuple", str(f))
    lines = text.strip().splitlines()
    assert "pair_0_1_verdict=indeterminate" in lines and "pair_1_2_verdict=indeterminate" in lines
    assert lines[-1].startswith("indeterminate=pair (0,1): pencil eigensolve did not converge")
    assert code == 2


def test_tuple_exits_2_when_the_joint_basis_leaves_residual(tmp_path, monkeypatch):
    # a joint basis that is the identity leaves a non-diagonal commuting
    # triple far above the off-diagonal gate
    f = tmp_path / "t.ctuple"
    f.write_text(core.emit_tuple(commuting_tuple(np.random.default_rng(91), 4, 3)))
    monkeypatch.setattr(core, "joint_diagonalize", lambda mats, radii: np.eye(4, dtype=complex))
    code, text = _run(tmp_path, "tuple", str(f))
    lines = text.strip().splitlines()
    assert "commute=true" in lines and "pair_0_2_consistent=true" in lines
    assert lines[-1].startswith("indeterminate=joint diagonalization left off-diagonal residual")
    assert not any(l.startswith("hyperplanes") for l in lines)
    assert code == 2


def test_commute_exits_2_on_off_curve_witness(tmp_path, monkeypatch):
    monkeypatch.setattr(linegeom, "_curvature_witnesses", off_curve_witnesses)
    fa = _write_matrix(tmp_path / "a.mat", PAULI_Z)
    fb = _write_matrix(tmp_path / "b.mat", PAULI_X)
    code, text = _run(tmp_path, "commute", fa, fb)
    assert "verdict=indeterminate" in text
    assert "off the matrix curve" in text
    assert code == 2


def test_commute_exits_2_when_witness_solve_fails(tmp_path, monkeypatch):
    # a non-commuting pair fails the Schur-basis check, and the eigenvector
    # solve of its curvature witness fails
    a, b = noncommuting_pair(np.random.default_rng(23), 8)
    fa = _write_matrix(tmp_path / "a.mat", a)
    fb = _write_matrix(tmp_path / "b.mat", b)
    fail_solve(monkeypatch)
    code, text = _run(tmp_path, "commute", fa, fb)
    assert text.startswith("commute=false")
    assert "indeterminate=" in text and "eigenvector solve failed" in text
    assert code == 2


# Minimal arguments of every subcommand, and the tolerance fields it reads.
_SUBCOMMANDS = {
    "eig": (["m"], {"normal", "eig"}),
    "detpoly": (["a", "b"], set()),
    "lines": (["p"], {"recon"}),
    "agmon": (["m"], {"normal", "eig"}),
    "escape": (["m"], {"normal", "eig"}),
    "example": (["--level", "1"], set()),
    "riesz": (["m", "--center", "1", "--radius", "0.5"], set()),
    "perturb": (["a", "b", "--lam", "1", "--mu", "3", "--center", "1", "--radius", "0.5"], set()),
    "lemma34": (["a", "b", "--mu", "1"], set()),
    "commute": (["a", "b"], {"normal", "commute", "line"}),
    "tuple": (["t"], {"normal", "commute", "line"}),
    "plot-slice": (["p"], set()),
}


def test_dead_tolerance_flags_are_usage_errors(tmp_path, capsys):
    fa = _write_matrix(tmp_path / "a.mat", np.diag([1.0, 2.0]))
    fb = _write_matrix(tmp_path / "b.mat", np.diag([3.0, 4.0]))
    assert cli.main(["commute", fa, fb, "--tol-unitary", "1e-6"]) == 2
    assert cli.main(["detpoly", fa, fb, "--tol-line", "1e-6"]) == 2
    # the contour margin check reads no tolerance
    contour = ["--center", "1", "--radius", "0.5"]
    assert cli.main(["riesz", fa, *contour, "--tol-eig", "1"]) == 2
    assert cli.main(["perturb", fa, fb, "--lam", "1", "--mu", "3", *contour, "--tol-eig", "1"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    # the commutator and the Schur basis read no eigensolver tolerance
    assert cli.main(["commute", fa, fb, "--tol-eig", "1e-6"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    # flags that a subcommand reads still parse
    code, _ = _run(tmp_path, "commute", fa, fb, "--tol-line", "1e-6")
    assert code == 0
    # every subcommand parses exactly the --tol-* flags of the fields it reads
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(_SUBCOMMANDS)
    accepted = 0
    for name, (argv, reads) in _SUBCOMMANDS.items():
        for field in core.Tolerances.__dataclass_fields__:
            flag = ["--tol-" + field, "1e-6"]
            if field in reads:
                args = parser.parse_args([name, *argv, *flag])
                assert getattr(args, "tol_" + field) == 1e-6
                accepted += 1
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([name, *argv, *flag])
                assert exc.value.code == 2, (name, field)
                assert "unrecognized arguments" in capsys.readouterr().err
    assert accepted == 13


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


def test_eig_exits_2_when_eigh_does_not_converge(tmp_path, monkeypatch, capsys):
    f = _write_matrix(tmp_path / "a.mat", np.array([[1, 2], [2, 1]]))
    fail_eigh(monkeypatch)
    code, text = _run(tmp_path, "eig", f)
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: Hermitian eigensolve did not converge")


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


@pytest.mark.parametrize("k", range(1, 9))
def test_detpoly_then_lines_of_a_repeated_identity_is_never_notlines(tmp_path, k):
    # det(I + z I_k + w I_k) = (1 + z + w)^k: one line of multiplicity k at
    # seed 0, where `commute` prints the same; indeterminate is the only
    # other admissible answer
    f = _write_matrix(tmp_path / "i.mat", np.eye(k))
    code, poly_text = _run(tmp_path, "detpoly", f, f)
    assert code == 0
    poly_file = tmp_path / "p.bipoly"
    poly_file.write_text(poly_text)
    for seed in range(4):
        code, text = _run(tmp_path, "lines", str(poly_file), "--seed", str(seed))
        assert code in (0, 2), seed
        if seed == 0:
            arr = linegeom.parse_arrangement("".join(l + "\n" for l in text.splitlines() if not l.startswith("#")))
            assert [m for _, m in arr.lines] == [k]
            (line, _), = arr.lines
            assert abs(line.lam - 1) <= 1e-9 and abs(line.mu - 1) <= 1e-9


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


def test_riesz_with_a_residual_that_overflows_exits_2(tmp_path, capsys):
    # the commutation residual of this projection is inf; it must not be
    # printed as a result with exit 0
    f = tmp_path / "ovf.mat"
    f.write_text("cmatrix 2 2\n1e200+1e200i 1e308+0i\n1e-320+0i 0+0i\n")
    out = tmp_path / "p.txt"
    with np.errstate(all="ignore"):
        assert cli.main(["riesz", str(f), "--center", "0", "--radius", "1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: projection residuals are not finite") and err.count("\n") == 1
    assert not out.exists()


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


def test_perturb_floor_counts_lambda_and_mu(tmp_path):
    # the contract family's perturb run 89: A = B = [1e-160], lambda = 1e-160
    # and mu = 1e160. The residual cancels terms of size eps |mu| (up to
    # 1e158), so its rounding noise lies below the floor
    # 1e-13 (||A||_F + |lambda| + eps (||B||_F + |mu|)) at every eps and the
    # run is exact; the floor 1e-13 (1 + ||A||_F + ||B||_F) left all three
    # residuals live and fitted a slope of 1.743 (exit 1)
    fa = _write_matrix(tmp_path / "a.mat", [[1e-160]])
    fb = _write_matrix(tmp_path / "b.mat", [[1e-160]])
    code, text = _run(
        tmp_path, "perturb", fa, fb,
        "--lam=1e-160+0i", "--mu=1e160+0i", "--center=1e-160+0i", "--radius=1e+160",
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[-1] == "# exact=true"
    eps, residuals = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]]).T
    assert list(eps) == [1e-2, 1e-3, 1e-4]
    assert np.all(residuals > 1e-13 * (1.0 + 2e-160))
    assert np.all(residuals <= 1e-13 * (2e-160 + eps * (1e-160 + 1e160)))


@pytest.mark.parametrize("eps_list", ["1e-3,nan", "1e-3,inf"])
def test_perturb_refuses_an_eps_that_is_not_finite(tmp_path, eps_list):
    # a NaN eps passed the old eps <= 0 gate and reached numpy's "Array must
    # not contain infs or NaNs"; an inf one warned in eps B before that
    fa = _write_matrix(tmp_path / "a.mat", np.diag([1.0, 3.0]))
    argv = ["perturb", fa, fa, "--lam", "1", "--mu", "1", "--center", "1", "--radius", "0.5", "--eps-list", eps_list]
    answers = answers_module()
    record = answers.cli_record(cli, argv)
    assert answers.contract_breaks(record) == []
    assert record["stderr"] == "error: eps_list must contain positive finite reals\n"


def test_perturb_refuses_an_a_eps_that_overflows(tmp_path):
    # A = B = [1e308] at eps = 1: A + eps B overflows to inf, which warned
    # and then reached numpy's LinAlgError in the eigvals of the margin
    fa = _write_matrix(tmp_path / "a.mat", [[1e308]])
    argv = ["perturb", fa, fa, "--lam", "1e308", "--mu", "1e308", "--center", "1e308", "--radius", "5e307", "--eps-list", "1"]
    answers = answers_module()
    record = answers.cli_record(cli, argv)
    assert answers.contract_breaks(record) == []
    assert record["stderr"] == "error: A + eps B is not finite at eps = 1\n"


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


def test_escape_n_angles_gives_the_library_csv_bytes(tmp_path):
    vals = agmon.example_spectrum(3)
    mat = _write_matrix(tmp_path / "ex3.mat", np.diag(vals))
    code, text = _run(tmp_path, "escape", mat, "--n-angles", "8")
    assert code == 0
    assert text == agmon.emit_profile_csv(agmon.escape_radius_profile(vals, 0.5, n_angles=8))
    code, text = _run(tmp_path, "escape", "--ladder", "3", "--n-angles", "8", "--epsilon", "0.5")
    assert code == 0
    assert text == agmon.emit_ladder_csv(agmon.escape_ladder(3, epsilon=0.5, n_angles=8))


@pytest.mark.parametrize("ladder", [False, True], ids=["matrix", "ladder"])
def test_escape_refuses_fewer_than_8_angles(tmp_path, capsys, ladder):
    source = ["--ladder", "3"] if ladder else [_write_matrix(tmp_path / "a.mat", np.diag([1.0, 2.0]))]
    code, text = _run(tmp_path, "escape", *source, "--n-angles", "7")
    assert (code, text) == (2, "")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_angles must be >= 8, got 7\n"


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


def test_escape_ladder_refuses_a_matrix(tmp_path, capsys):
    # a matrix next to --ladder would be ignored, so it is refused
    good = _write_matrix(tmp_path / "m.mat", np.diag([1.0, 1j]))
    code, text = _run(tmp_path, "escape", good, "--ladder", "2")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: escape --ladder reads no matrix\n"
    bad = tmp_path / "bad.mat"
    bad.write_text("garbage\n")
    code, text = _run(tmp_path, "escape", str(bad), "--ladder", "2")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_lines_with_an_overflowing_ray_slice_exits_2(tmp_path, capsys):
    # seed 2: the ray phase at which the slice's 1.7e308 (1 + g) overflows
    f = tmp_path / "ovf.bipoly"
    f.write_text(OVERFLOWING_RAY)
    with np.errstate(over="ignore"):
        assert cli.main(["lines", str(f), "--seed", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: slice polynomial is identically zero\n"


@pytest.mark.parametrize("seed", range(8))
def test_lines_with_an_overflowing_ray_exits_2_at_every_seed(tmp_path, capsys, seed):
    f = tmp_path / "ovf.bipoly"
    f.write_text(OVERFLOWING_RAY)
    with np.errstate(over="ignore"):
        assert cli.main(["lines", str(f), "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("seed", range(8))
def test_lines_with_an_overflowing_ray_warns_nothing(tmp_path, capsys, seed):
    # with numpy's floating-point errors at their defaults (and RuntimeWarning
    # an error under this suite's settings), neither the overflowing ray
    # slice (seeds 3-5) nor the overflowing reconstruction bound (seeds 0,
    # 1, 6, 7) may reach stderr as a warning: one error line only
    f = tmp_path / "ovf.bipoly"
    f.write_text(OVERFLOWING_RAY)
    assert cli.main(["lines", str(f), "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# Matrices of the overflow-edge sweep, entries from {1e308, 1e-320, 0, -0,
# 1e200+1e200i, 1, 3e-200, 2-1i, 1e-160, 1e160}, as rows of cmatrix
# literals; then the pair of perturbation_check's overflowing rounding floor
# (p154) and the same pair at 1e150, where the floor is finite; then the
# inputs whose riesz residual norms, perturb residual norms and lemma34 ramp
# matrices overflowed with a numpy warning, a perturb pair whose P0 trace
# overflowed into an OverflowError traceback, and a lemma34 pair whose
# overflowing ramp stack sent LAPACK's SVD into a loop that did not end.
_EDGE_MATRICES = {
    "big-diag": ["1e308+0i 0+0i", "0+0i 1+0i"],
    "big-complex": ["1e200+1e200i"],
    "big-complex-2": ["1e200+1e200i 0+0i", "0+0i 1+0i"],
    "tiny-disk": ["3e-200+0i 0+0i", "0+0i 1+0i"],
    "subnormal-disk": ["1e-320+0i 0+0i", "0+0i 2-1i"],
    "wide-diag": ["1e-160+0i 0+0i", "0+0i 1e160+0i"],
    "big-upper": ["1e160+0i 1+0i", "0+0i 1e-160+0i"],
    "zeros": ["0+0i -0+0i", "1e-320+0i 1+0i"],
    "mixed-3": ["2-1i 1e160+0i 0+0i", "0+0i 1+0i 1e-160+0i", "1e308+0i 0+0i -0+0i"],
    "one": ["1+0i 0+0i", "0+0i 2-1i"],
    "p150a": ["1e150+0i 0+0i", "0+0i 2e150+0i"],
    "p150b": ["3e149+0i 1e150+0i", "1e150+0i 1e149+0i"],
    "p154a": ["1e154+0i 0+0i", "0+0i 2e154+0i"],
    "p154b": ["3e153+0i 1e154+0i", "1e154+0i 1e153+0i"],
    "riesz-residual": ["1e200+1e200i 1e308+0i", "1e-320+0i 0+0i"],
    "perturb-a": ["1+0i 0+0i", "0+0i 1e308+0i"],
    "perturb-b": ["1e160+0i 0+0i", "0+0i 0+0i"],
    "ramp-a": ["1e-160+0i 0+0i 0+0i", "0+0i 1e-160+0i 0+0i", "0+0i 0+0i 1e308+0i"],
    "ramp-b": ["3e-200+0i 0+0i 0+0i", "0+0i 1+0i 0+0i", "0+0i 0+0i 3e-200+0i"],
    "trace-a": ["1e308+0i 1e160+0i", "2-1i 1e160+0i"],
    "trace-b": ["2-1i -0+0i", "-0+0i 1e-160+0i"],
    "svd-loop-a": ["1e308+0i 0+0i 0+0i", "0+0i 1e-160+0i 0+0i", "0+0i 0+0i 1e-320+0i"],
    "svd-loop-b": ["0+0i 0+0i 0+0i", "0+0i 2-1i 0+0i", "0+0i 0+0i 1e200+1e200i"],
}

_SINGLES = ["big-diag", "big-complex", "tiny-disk", "subnormal-disk", "wide-diag", "big-upper", "zeros", "mixed-3"]
_PAIRS = [
    ("big-diag", "one"), ("one", "big-complex-2"), ("wide-diag", "tiny-disk"), ("big-upper", "one"),
    ("zeros", "one"), ("mixed-3", "mixed-3"),
]
_EDGE_CASES = [
    *([sub, name] for name in _SINGLES for sub in ("eig", "agmon")),
    *(["escape", name, "--n-angles", "8"] for name in _SINGLES),
    *([sub, a, b] for a, b in _PAIRS for sub in ("commute", "detpoly")),
    *(
        ["perturb", f"p{s}a", f"p{s}b", "--lam", f"1e{s}", "--mu", f"3e{s - 1}",
         "--center", f"1e{s}", "--radius", f"5e{s - 1}"]
        for s in (150, 154)
    ),
    ["riesz", "riesz-residual", "--center", "0", "--radius", "1"],
    ["perturb", "perturb-a", "perturb-b", "--lam", "1", "--mu", "1", "--center", "1", "--radius", "0.5"],
    ["lemma34", "ramp-a", "ramp-b", "--mu", "1"],
    ["perturb", "trace-a", "trace-b", "--lam", "1e308", "--mu", "1e200+1e200i", "--center", "1e308", "--radius", "1.5e200"],
    ["lemma34", "svd-loop-a", "svd-loop-b", "--mu", "1e200+1e200i"],
    # a complex value starting with "-" as its own argument
    ["riesz", "one", "--center", "-0+0i", "--radius", "1"],
]


@pytest.mark.parametrize("argv", _EDGE_CASES, ids=" ".join)
def test_cli_contract_at_overflow_edges(tmp_path, argv):
    # the contract of tools/answers.py's contract family (contract_breaks):
    # exit 0, 1 or 2; exit 2 prints one error line and nothing else, exit 0
    # or 1 no stderr and no inf or nan; no numpy warning either way
    for name, rows in _EDGE_MATRICES.items():
        (tmp_path / name).write_text(f"cmatrix {len(rows)} {len(rows)}\n" + "\n".join(rows) + "\n")
    argv = [str(tmp_path / arg) if arg in _EDGE_MATRICES else arg for arg in argv]
    answers = answers_module()
    assert answers.contract_breaks(answers.cli_record(cli, argv)) == []


def test_an_unwritable_output_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    assert cli.main(["example", "--level", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    # plot-slice writes its SVG first: an unwritable one leaves no CSV
    f = tmp_path / "one.bipoly"
    f.write_text("bipoly 0\n0 0 1 0\n")
    csv = tmp_path / "slice.csv"
    assert cli.main(["plot-slice", str(f), "--svg", str(tmp_path / "missing" / "s.svg"), "-o", str(csv)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not csv.exists()


def test_emit_csv_gives_the_bytes_of_the_four_csv_outputs(tmp_path):
    # the layouts the four writers had before core.emit_csv: a header row,
    # then .17g values (the ladder's level and dim as plain ints)
    prof = agmon.escape_radius_profile([1.0, -2j, 0.5 + 0.5j], 0.5, n_angles=64)
    want = "angle,escape_radius\n" + "".join(f"{a:.17g},{r:.17g}\n" for a, r in zip(prof.angles, prof.radii))
    assert agmon.emit_profile_csv(prof) == want
    rows = agmon.escape_ladder([1, 3, 9], epsilon=0.5, n_angles=64)
    want = "level,dim,max_gap,min_escape_radius\n" + "".join(
        f"{level},{dim},{gap:.17g},{radius:.17g}\n" for level, dim, gap, radius in rows
    )
    assert agmon.emit_ladder_csv(rows) == want
    a = np.diag([0.0, 2.0]).astype(complex)
    for b, eps in ((PAULI_X, [1e-2, 1e-3, 1e-4]), (np.zeros((2, 2)), [1e-2])):
        rep = riesz.perturbation_check(a, b, 0.0, 0.0, riesz.Contour(0.0, 0.5), eps)
        tail = "# exact=true\n" if rep.exact else f"# slope={rep.slope:.17g}\n"
        want = "epsilon,residual\n" + "".join(f"{e:.17g},{r:.17g}\n" for e, r in zip(rep.eps, rep.residuals))
        assert riesz.emit_slope_csv(rep) == want + tail
    p = linegeom.expand_arrangement([(linegeom.Line(1.0, 3.0), 1), (linegeom.Line(2.0 + 1j, -4.0), 2)], 3)
    f = tmp_path / "p.bipoly"
    f.write_text(detpoly.emit_bipoly(p))
    code, text = _run(tmp_path, "plot-slice", str(f), "--samples", "7")
    want = "w0,re_z,im_z\n" + "".join(f"{w0:.17g},{x:.17g},{y:.17g}\n" for w0, x, y in cli.plot_slice(p, -1.0, 1.0, 7))
    assert (code, text) == (0, want)
    assert core.emit_csv(("w0", "re_z", "im_z"), []) == "w0,re_z,im_z\n"


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


def test_plot_slice_refuses_one_sample(tmp_path, capsys):
    f = tmp_path / "p.poly"
    f.write_text("bipoly 1\n0 0 1 0\n0 1 1 0\n")
    assert cli.main(["plot-slice", str(f), "--samples", "1"]) == 2
    assert capsys.readouterr().err == "error: samples must be >= 2, got 1\n"


def test_plot_slice_skips_a_vanishing_slice(tmp_path):
    # p = 1 + w: the slice at w0 = -1 is identically zero and is skipped;
    # those at w0 = 0 and 1 are nonzero constants with no root
    c = np.zeros((2, 2), dtype=complex)
    c[0, 0] = c[0, 1] = 1.0
    f = tmp_path / "w.bipoly"
    f.write_text(detpoly.emit_bipoly(detpoly.BivarPoly(1, c)))
    code, text = _run(tmp_path, "plot-slice", str(f), "--samples", "3")
    assert code == 0
    assert text == "w0,re_z,im_z\n"


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


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["not-a-command"], "argument command: invalid choice: 'not-a-command'"),
        (["eig"], "the following arguments are required: matrix"),
        (["eig", "a.mat", "--bogus"], "unrecognized arguments: --bogus"),
        (["riesz", "a.mat", "--center", "--radius", "1"], "argument --center: expected one argument"),
        (["escape", "--n-angles", "x"], "argument --n-angles: invalid int value: 'x'"),
        # an option, or a value that is no complex literal, in a complex value's place
        (["lemma34", "a.mat", "b.mat", "--mu", "-2+0i", "--zs", "-o"], "argument --zs: expected one argument"),
        (["lemma34", "a.mat", "b.mat", "--mu", "-x"], "argument --mu: expected one argument"),
    ],
)
def test_usage_errors_print_one_error_line(argv, message, capsys):
    # the top parser and every subparser: no usage lines, only the message
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "sub, option, value, joined",
    [
        ("riesz", "--center", "-0+0i", []),
        ("perturb", "--lam", "-1+0i", ["--mu=0.5+0i", "--center=-1+0i"]),
        ("perturb", "--mu", "-0.5-1i", ["--lam=-1+0i", "--center=-1+0i"]),
        ("lemma34", "--mu", "-2+0i", []),
        ("lemma34", "--zs", "-10+0i,-1e2-0i", ["--mu=-2+0i"]),
    ],
)
def test_complex_options_take_a_value_that_starts_with_a_minus(tmp_path, sub, option, value, joined):
    # OPTION VALUE parses as OPTION=VALUE for --center, --lam, --mu and --zs
    a = _write_matrix(tmp_path / "a.mat", np.diag([-1.0, 0.0]))
    b = _write_matrix(tmp_path / "b.mat", np.diag([0.5, -2.0]))
    mats = [a] if sub == "riesz" else [a, b]
    tail = {"riesz": ["--radius", "0.5"], "perturb": ["--radius", "0.5"], "lemma34": []}[sub]
    code, text = _run(tmp_path, sub, *mats, option, value, *joined, *tail)
    assert (code, text) == _run(tmp_path, sub, *mats, f"{option}={value}", *joined, *tail)
    assert code == 0 and text


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["riesz", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: projspec riesz [-h] --center CENTER --radius RADIUS")


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


def _file_literals(rng, count):
    """count file-format literals <re><sign><im>i: integers, decimals with
    and without digits on one side of the point, exponents from subnormal
    to overflow, random doubles' repr, and signed zeros."""
    specials = ["0", "0.0", "0e0", "5e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
                "1.7976931348623157e308", "1.7976931348623159e308", "1e400", "1e-400"]

    def number():
        kind = rng.integers(5)
        if kind == 0:
            return rng.choice(specials)
        if kind == 1:
            return repr(abs(float(rng.normal()) * 10.0 ** int(rng.integers(-320, 308))))
        if kind == 2:
            return f"{rng.integers(10**6)}.{rng.integers(10**9)}e{rng.integers(-330, 330)}"
        if kind == 3:
            return rng.choice([f".{rng.integers(10**6)}", f"{rng.integers(10**6)}.", f"{rng.integers(10**12)}"])
        return f"{rng.integers(10)}.{rng.integers(10)}E+{rng.integers(3)}"

    return [f"{rng.choice(['', '+', '-'])}{number()}{rng.choice(['+', '-'])}{number()}i" for _ in range(count)]


def test_cli_complex_matches_parse_complex_bit_for_bit():
    literals = _file_literals(np.random.default_rng(23), 3000)
    for text in literals + ["-0-0i", "+0-0i", "-0+0i", " 1+2i\n"]:
        want, got = core.parse_complex(text.strip()), cli._cli_complex(text)
        assert np.array([want]).tobytes() == np.array([got]).tobytes(), text
    assert any(math.isinf(core.parse_complex(t).real) for t in literals)


@pytest.mark.parametrize("text, value", [("1", 1 + 0j), ("-2.5", -2.5 + 0j), ("0.5j", 0.5j), (" 3-4i ", 3 - 4j)])
def test_cli_complex_accepts_python_forms(text, value):
    assert cli._cli_complex(text) == value


@pytest.mark.parametrize("scale", [1e154, 1e200])
def test_a_jordan_block_whose_squares_overflow_exits_2(tmp_path, capsys, scale):
    j = _write_matrix(tmp_path / "j.mat", scale * np.array([[1, 1], [0, 1]]))
    eye = _write_matrix(tmp_path / "i.mat", np.eye(2))
    with np.errstate(all="ignore"):
        assert cli.main(["eig", j]) == 2
        assert cli.main(["commute", j, eye]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and err.count("normality defect nan") == 2
