import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bospec
from bospec.cli import main
from bospec.eigensolver import convergence_study
from bospec.potential import quadratic_potential


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SOLVE_1D = """
[grid]
n = 1
p = 0
half_widths = 10
points = 399

[potential]
kind = quadratic
a = 1

[solver]
h = 1.0
k = 3
tol = 1e-7
seed = 0
"""


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSolve:
    def test_oscillator(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_1D)
        out = tmp_path / "spec.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        eigs = [float(r["eigenvalue"]) for r in rows]
        assert eigs == pytest.approx([1.0, 3.0, 5.0], abs=5e-3)
        assert all(r["converged"] == "true" for r in rows)

    def test_json_output(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_1D)
        out = tmp_path / "spec.json"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        data = json.loads(out.read_text())
        assert data["eigenvalues"] == pytest.approx([1.0, 3.0, 5.0], abs=5e-3)

    def test_json_repeat_runs_byte_identical(self, tmp_path):
        for config, command in ((SOLVE_1D, "solve"), (CONVERGE, "converge")):
            cfg = write_config(tmp_path, config, name=f"{command}.ini")
            outs = []
            for name in ("a.json", "b.json"):
                out = tmp_path / f"{command}-{name}"
                assert main([command, "--config", cfg, "--out", str(out),
                             "--format", "json"]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    def test_missing_grid_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[potential]\nkind = quadratic\na = 1\n")
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert "[grid] n" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_partial_convergence_exit_2(self, tmp_path):
        text = SOLVE_1D.replace("tol = 1e-7", "tol = 1e-15")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "spec.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        rows = read_csv(out)
        assert any(r["converged"] == "false" for r in rows)

    def test_boundary_warning(self, tmp_path, capsys):
        # tiny box: V at the wall is far below the spectral window
        text = SOLVE_1D.replace("half_widths = 10", "half_widths = 2")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "spec.csv"
        main(["solve", "--config", cfg, "--out", str(out)])
        assert "enlarge the box" in capsys.readouterr().err

    def test_boundary_window_ignores_unconverged(self, tmp_path, capsys):
        # the tiny box warns for converged pairs; unconverged ones set no window
        text = SOLVE_1D.replace("half_widths = 10", "half_widths = 2")
        text = text.replace("tol = 1e-7", "tol = 1e-15")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "spec.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert "enlarge the box" not in capsys.readouterr().err

    def test_no_output_path(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_1D)
        assert main(["solve", "--config", cfg]) == 1

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_1D)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


ANALYTIC = """
[grid]
n = 1
p = 1

[potential]
kind = quadratic
a = 1
b = 1

[solver]
h = 0.5

[analytic]
e_max = 3.5
"""


class TestAnalytic:
    def test_levels(self, tmp_path):
        cfg = write_config(tmp_path, ANALYTIC)
        out = tmp_path / "levels.csv"
        assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        got = [(float(r["energy"]), int(r["multiplicity"])) for r in rows]
        assert got == [(pytest.approx(1.5), 1), (pytest.approx(2.5), 1),
                       (pytest.approx(3.5), 2)]

    def test_expression_rejected(self, tmp_path):
        text = ("[grid]\nn = 1\np = 0\n\n[potential]\nkind = expression\n"
                "expression = x1^2\n")
        cfg = write_config(tmp_path, text)
        assert main(["analytic", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_e_max_and_levels_conflict(self, tmp_path):
        cfg = write_config(tmp_path, ANALYTIC + "levels = 5\n")
        assert main(["analytic", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("b, message", [("1 0", "must be square"),
                                            ("-1", "not positive definite")])
    def test_bad_b_reported_under_b(self, tmp_path, capsys, b, message):
        cfg = write_config(tmp_path, ANALYTIC.replace("b = 1", f"b = {b}"))
        assert main(["analytic", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "[potential] b:" in err and message in err

    def test_json(self, tmp_path):
        cfg = write_config(tmp_path, ANALYTIC)
        out = tmp_path / "levels.json"
        assert main(["analytic", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        data = json.loads(out.read_text())
        assert data["levels"][0] == [pytest.approx(1.5), 1]


COMPARE = """
[grid]
n = 1
p = 0
half_widths = 8
points = 255

[potential]
kind = quadratic
a = 1

[solver]
h = 1.0
k = 3
tol = 1e-8
seed = 0
"""


ISOTROPIC_2D = """
[grid]
n = 1
p = 1
half_widths = 6 6
points = 7 31

[potential]
kind = quadratic
a = 1
b = 1

[solver]
h = 1.0
k = 6
tol = 1e-8
"""


class TestCompare:
    def test_oscillator_passes(self, tmp_path):
        cfg = write_config(tmp_path, COMPARE)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert all(r["pass"] == "true" for r in rows)
        assert [int(r["numeric_multiplicity"]) for r in rows] == [1, 1, 1]

    def test_errors_within_tolerance_column(self, tmp_path):
        cfg = write_config(tmp_path, COMPARE)
        out = tmp_path / "cmp.csv"
        main(["compare", "--config", cfg, "--out", str(out)])
        for r in read_csv(out):
            assert float(r["abs_error"]) <= float(r["tolerance"])

    def test_unconverged_calibration_reported(self):
        pot = quadratic_potential([[1.0]])
        # the calibration grids compare uses for a 255-point grid
        assert convergence_study(pot, (8.0,), (63, 127), 3, tol=1e-8).converged.all()
        assert not convergence_study(pot, (8.0,), (63, 127), 3, tol=1e-15).converged.all()

    def test_partial_convergence_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, COMPARE.replace("tol = 1e-8", "tol = 1e-15"))
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
        assert len(read_csv(out)) == 3

    def test_k_too_small(self, tmp_path):
        cfg = write_config(tmp_path, COMPARE.replace("k = 3", "k = 0"))
        assert main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_expression_potential_rejected(self, tmp_path, capsys):
        text = COMPARE.replace("kind = quadratic\na = 1",
                               "kind = expression\nexpression = x1^2\nnonnegative = true")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: comparison requires a quadratic potential")
        assert not out.exists()

    # 7 x 31: three clusters against three levels, but of multiplicities
    # 1, 3, 2 against 1, 2, 3; 5 x 41: four clusters against three levels
    @pytest.mark.parametrize("points", ["7 31", "5 41"])
    def test_structural_failure_exit_3(self, tmp_path, capsys, points):
        cfg = write_config(tmp_path, ISOTROPIC_2D.replace("points = 7 31",
                                                          f"points = {points}"))
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("structural failure: ")
        rows = read_csv(out)
        assert [int(r["analytic_multiplicity"]) for r in rows] == [1, 2, 3]
        assert any(r["pass"] == "false" for r in rows)


PROBE_CERT = """
[grid]
n = 1
p = 1
half_widths = 12 12
points = 99 99

[potential]
kind = quadratic
a = 1
b = 1

[solver]
h = 1.0

[probe]
mode = certificate
lambdas = 4
radii = 3 5
"""

PROBE_ESS = """
[grid]
n = 1
p = 0
half_widths = 80
points = 1999

[solver]
h = 1.0

[probe]
mode = essential
lambdas = 0 1
radii = 5 10 20
"""


class TestProbe:
    def test_certificate_json(self, tmp_path):
        cfg = write_config(tmp_path, PROBE_CERT)
        out = tmp_path / "probe.json"
        assert main(["probe", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        entries = json.loads(out.read_text())
        assert len(entries) == 2
        assert entries[0]["lower_bound"] == pytest.approx(5.0)
        assert all(e["verdict"] == "discrete at lambda=4" for e in entries)

    def test_essential_csv(self, tmp_path):
        cfg = write_config(tmp_path, PROBE_ESS)
        out = tmp_path / "probe.csv"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 6
        assert all(r["verdict"] == "essential candidate" for r in rows)

    @pytest.mark.parametrize("radii", ["5", "5 5"])
    def test_essential_radii_without_trend_rejected(self, tmp_path, capsys, radii):
        cfg = write_config(tmp_path, PROBE_ESS.replace("radii = 5 10 20", f"radii = {radii}"))
        out = tmp_path / "probe.csv"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
        assert "ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_essential_negative_radius_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PROBE_ESS.replace("radii = 5 10 20", "radii = -1 2"))
        out = tmp_path / "probe.csv"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
        assert "radii must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_lambdas(self, tmp_path):
        cfg = write_config(tmp_path, PROBE_CERT.replace("lambdas = 4",
                                                        "lambdas ="))
        assert main(["probe", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_unknown_mode(self, tmp_path):
        cfg = write_config(tmp_path, PROBE_CERT.replace("mode = certificate",
                                                        "mode = mystery"))
        assert main(["probe", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1


CONVERGE = """
[grid]
n = 1
p = 0
half_widths = 10

[potential]
kind = quadratic
a = 1

[solver]
h = 1.0
k = 2
tol = 1e-8

[converge]
sizes = 125 250 500
"""


class TestConverge:
    def test_second_order(self, tmp_path):
        cfg = write_config(tmp_path, CONVERGE)
        out = tmp_path / "conv.csv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        for r in rows:
            assert 1.7 <= float(r["slope"]) <= 2.3
            assert r["pass"] == "true"

    def test_partial_convergence_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, CONVERGE.replace("tol = 1e-8", "tol = 1e-15"))
        out = tmp_path / "conv.csv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
        assert len(read_csv(out)) == 2

    def test_two_sizes_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           CONVERGE.replace("sizes = 125 250 500",
                                            "sizes = 125 250"))
        assert main(["converge", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "need at least 3 grid sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["125 250 250", "125 125 250"])
    def test_repeated_size_rejected(self, tmp_path, capsys, sizes):
        cfg = write_config(tmp_path, CONVERGE.replace("sizes = 125 250 500", f"sizes = {sizes}"))
        out = tmp_path / "conv.csv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
        assert "strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_reference_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CONVERGE + "reference = fdexact\n")
        out = tmp_path / "conv.csv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
        assert "reference" in capsys.readouterr().err
        assert not out.exists()

    def test_fd_exact_rejected(self, tmp_path, capsys):
        # the finest grid's discrete levels are no reference for the coarser
        # grids, even for V = 0
        text = CONVERGE.replace("kind = quadratic\na = 1",
                                "kind = expression\nexpression = 0*x1\n"
                                "nonnegative = true")
        cfg = write_config(tmp_path, text + "reference = fd_exact\n")
        out = tmp_path / "conv.csv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
        assert "[converge] reference" in capsys.readouterr().err
        assert not out.exists()


PROBE_CERT_EXPR = PROBE_CERT.replace(
    "kind = quadratic\na = 1\nb = 1",
    "kind = expression\nexpression = x1^2 + y1^2\nnonnegative = true")


def test_probe_descending_radii_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, PROBE_CERT.replace("radii = 3 5", "radii = 5 3"))
    out = tmp_path / "probe.csv"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
    assert "ascending" in capsys.readouterr().err
    assert not out.exists()


def test_probe_certificate_negative_radius_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, PROBE_CERT.replace("radii = 3 5", "radii = -5 3"))
    out = tmp_path / "probe.csv"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
    assert "nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_probe_certificate_without_radii_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, PROBE_CERT.replace("radii = 3 5", "radii ="))
    out = tmp_path / "probe.csv"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: need at least one radius")
    assert not out.exists()


@pytest.mark.parametrize("value", ["on", "ON"])
def test_nonnegative_accepts_configparser_true(tmp_path, value):
    text = PROBE_CERT_EXPR.replace("nonnegative = true", f"nonnegative = {value}")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "probe.csv"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    assert "discrete at lambda=4" in out.read_text()


@pytest.mark.parametrize("value", ["off", "Off"])
def test_nonnegative_false_refuses_certificate(tmp_path, capsys, value):
    text = PROBE_CERT_EXPR.replace("nonnegative = true", f"nonnegative = {value}")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "probe.csv"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
    assert "claimed nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_nonnegative_typo_rejected(tmp_path, capsys):
    text = PROBE_CERT_EXPR.replace("nonnegative = true", "nonnegative = treu")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "probe.csv"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [potential] nonnegative: ")
    assert not out.exists()


# A key no command reads, placed in a section each command's config has.
UNKNOWN_KEY_CASES = {
    "solve": ("solve", SOLVE_1D, "solver", "tolerance = 1e-12"),
    "analytic": ("analytic", ANALYTIC, "solver", "tolerance = 1e-12"),
    "compare": ("compare", COMPARE, "solver", "tolerance = 1e-12"),
    "probe": ("probe", PROBE_CERT, "solver", "tolerance = 1e-12"),
    "converge": ("converge", CONVERGE, "solver", "tolerance = 1e-12"),
    "probe-leftover-probes": ("probe", PROBE_CERT, "probe", "probes = 2000"),
    "converge-reference": ("converge", CONVERGE, "converge", "reference = auto"),
    "compare-gap-tol": ("compare", COMPARE, "solver", "gap_tol = 0.5"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEY_CASES))
def test_unknown_key_rejected(tmp_path, capsys, case):
    command, text, section, line = UNKNOWN_KEY_CASES[case]
    text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    key = line.split(" = ")[0]
    assert f"config error: [{section}] {key}: unknown key" in capsys.readouterr().err
    assert not out.exists()


# argparse's own exit code for these is 2, which bospec gives partial
# convergence with results written
USAGE_ERROR_CASES = {
    "missing-config": (["solve", "--out", "out.csv"], "--config"),
    "unknown-option": (["solve", "--config", "run.ini", "--out", "out.csv",
                        "--tolerance", "1e-12"], "unrecognized arguments"),
    "unknown-command": (["slove", "--config", "run.ini", "--out", "out.csv"],
                        "invalid choice"),
    "removed-dilate": (["analytic", "--config", "run.ini", "--out", "out.csv",
                        "--dilate", "2"], "unrecognized arguments"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERROR_CASES))
def test_usage_error_exits_1(tmp_path, capsys, monkeypatch, case):
    argv, message = USAGE_ERROR_CASES[case]
    write_config(tmp_path, SOLVE_1D)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: bospec" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["analytic", "compare", "converge", "probe", "solve"])
def test_readme_config_serves_every_command(tmp_path, command):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text().split("```ini\n")[1].split("```")[0]
    text = text.replace("points = 127 127", "points = 63 63")
    text = text.replace("sizes = 125 250 500", "sizes = 31 47 63")
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0


def test_unknown_section_rejected(tmp_path, capsys):
    # [output] is no section: --format and --out set the output
    for section, line in (("solvr", "tol = 1e-12"), ("output", "format = csv")):
        cfg = write_config(tmp_path, SOLVE_1D + f"\n[{section}]\n{line}\n")
        out = tmp_path / "out.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert f"config error: [{section}] : unknown section" in capsys.readouterr().err
        assert not out.exists()


def test_malformed_value_rejected_by_every_command(tmp_path, capsys):
    # values are parsed when the file is read, also those this command skips
    cfg = write_config(tmp_path, ANALYTIC + "\n[probe]\nradii = 3 five\n")
    out = tmp_path / "out.csv"
    assert main(["analytic", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: [probe] radii: cannot parse")
    assert not out.exists()


MALFORMED_CONFIGS = {
    "duplicate-section": SOLVE_1D + "\n[grid]\nn = 1\n",
    "line-without-equals": SOLVE_1D.replace("[solver]\n", "[solver]\nh 1.0\n"),
    "key-before-section": "n = 1\n" + SOLVE_1D,
    # values are read verbatim, so the expression parser rejects the '%'
    "percent-in-value": SOLVE_1D.replace("kind = quadratic\na = 1",
                                         "kind = expression\nexpression = x1^2 + 5%x1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_rejected(tmp_path, capsys, case):
    cfg = write_config(tmp_path, MALFORMED_CONFIGS[case])
    out = tmp_path / "out.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


# One tiny config per command; each runs twice per format.
# a sum of one-variable terms on a 3D grid, which the eigensolver iterates in
# the eigenbasis of two of its axes, and a 2D V that is not, which it solves
# by a sparse LU
SOLVE_SEPARABLE_3D = """
[grid]
n = 1
p = 2
half_widths = 6 6 6
points = 15 15 15

[potential]
kind = expression
expression = x1^2 + y1^2 + 2*y2^2
nonnegative = true

[solver]
h = 0.5
k = 4
"""

SOLVE_COUPLED_2D = """
[grid]
n = 1
p = 1
half_widths = 6 6
points = 31 31

[potential]
kind = expression
expression = x1^2 + y1^2 + x1^2*y1^2
nonnegative = true

[solver]
h = 0.5
k = 4
"""

DETERMINISM_CASES = {
    "solve": ("solve", SOLVE_1D),
    "solve-separable-3d": ("solve", SOLVE_SEPARABLE_3D),
    "solve-coupled-2d": ("solve", SOLVE_COUPLED_2D),
    "analytic": ("analytic", ANALYTIC),
    "compare": ("compare", COMPARE),
    "converge": ("converge", CONVERGE),
    "probe-certificate": ("probe", PROBE_CERT),
    "probe-certificate-expression": ("probe", PROBE_CERT_EXPR),
    "probe-essential": ("probe", PROBE_ESS),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(DETERMINISM_CASES))
def test_repeat_runs_byte_identical(tmp_path, case, fmt):
    command, text = DETERMINISM_CASES[case]
    cfg = write_config(tmp_path, text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.{fmt}"
        assert main([command, "--config", cfg, "--out", str(out),
                     "--format", fmt]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# Threads in effect per loaded OpenBLAS, asked from the library itself after
# the console script's import.
BLAS_THREADS_PROBE = """
import ctypes, json
import bospec.cli
found = {}
with open("/proc/self/maps") as fh:
    paths = sorted({line.split()[-1] for line in fh
                    if "openblas" in line.rsplit("/", 1)[-1].lower()})
for path in paths:
    lib = ctypes.CDLL(path)
    for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "scipy_openblas_get_num_threads64_"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            found[path] = fn()
            break
print(json.dumps(found))
"""


def test_bospec_threads_caps_blas():
    if not Path("/proc/self/maps").is_file():
        pytest.skip("needs /proc/self/maps to find the loaded BLAS")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["BOSPEC_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(bospec.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    found = json.loads(proc.stdout)
    if not found:
        pytest.skip("no OpenBLAS loaded")
    assert set(found.values()) == {1}


def test_bospec_threads_after_numpy_warns():
    # numpy's BLAS reads its thread count when numpy is imported: a cap set by
    # a later `import bospec` cannot reach it, and the import says so
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["BOSPEC_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(bospec.__file__).resolve().parent.parent)
    runs = {order: subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                                   f"import {order}"], env=env, capture_output=True,
                                  text=True, timeout=120)
            for order in ("numpy, bospec", "bospec, numpy")}
    late = runs["numpy, bospec"]
    assert late.returncode != 0 and "RuntimeWarning" in late.stderr
    assert "import bospec first, or set OPENBLAS_NUM_THREADS" in late.stderr
    assert runs["bospec, numpy"].returncode == 0
