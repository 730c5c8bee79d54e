import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bospec
from bospec.cli import main


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

    # an output path that cannot be opened is an error line and exit 1
    def test_unwritable_output_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SOLVE_1D)
        out = tmp_path / "no-such-dir" / "spec.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()

    # a directory, or a path whose directory does not exist, is refused
    # before any solve, with the message a failed write gives
    @pytest.mark.parametrize("where", ["no-such-dir", "directory"])
    def test_unwritable_output_path_refused_before_any_solve(self, tmp_path, capsys,
                                                             monkeypatch, where):
        from bospec import eigensolver

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before --out was checked")

        monkeypatch.setattr(eigensolver, "lowest_eigenpairs", no_solve)
        cfg = write_config(tmp_path, CONVERGE)
        out, reason = {"no-such-dir": (tmp_path / "no-such-dir" / "conv.csv",
                                       "No such file or directory"),
                       "directory": (tmp_path, "Is a directory")}[where]
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

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

    # each refusal once came as a bare "error:" line naming k, a name the
    # config never sets, or e_max without its section
    @pytest.mark.parametrize("cutoff, message", [
        ("levels = 0", "[analytic] levels: levels must be an integer >= 1, got levels=0"),
        ("e_max = nan", "[analytic] e_max: e_max must be finite, got nan")],
        ids=["levels", "e_max"])
    def test_cutoff_refused_under_its_key(self, tmp_path, capsys, cutoff, message):
        cfg = write_config(tmp_path, ANALYTIC.replace("e_max = 3.5", cutoff))
        out = tmp_path / "x.csv"
        assert main(["analytic", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

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
        assert err.startswith(
            "config error: [potential] kind: comparison requires a quadratic potential")
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

# V is 1 along the diagonal x1 = y1 out to the box: the exterior infimum, and
# so the lower bound, does not grow with the radius
PROBE_NONCONFINING = """
[grid]
n = 1
p = 1
half_widths = 8 8
points = 63 63

[potential]
kind = expression
expression = 1 + (x1 - y1)^2
nonnegative = true

[solver]
h = 0.5

[probe]
mode = certificate
lambdas = 0.5
radii = 1 2 3
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

    # the library's flat-valley case (tests/test_probe.py), through the command
    def test_certificate_nonconfining(self, tmp_path):
        cfg = write_config(tmp_path, PROBE_NONCONFINING)
        out = tmp_path / "probe.csv"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["lower_bound"] for r in rows] == ["0.5"] * 3
        assert all(r["verdict"] == "nonconfining" for r in rows)

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

    # converge builds its grids itself, so each is checked first and an error
    # is filed under its key, before any solve and with nothing written
    @pytest.mark.parametrize("old, new, message", [
        ("p = 0\nhalf_widths = 10", "p = 1\nhalf_widths = nan 6",
         "[grid] half_widths: half-widths must be positive and finite"),
        ("sizes = 125 250 500", "sizes = 125 2 500",
         "[converge] sizes: sizes[1] must be an integer >= 3, got sizes[1]=2"),
        ("sizes = 125 250 500", "sizes = 125 250 2000001",
         "[converge] sizes: grid size 2000001 exceeds the safety cap"),
    ], ids=["nan-half-width", "too-few-points", "over-cap"])
    def test_grid_error_names_its_key(self, tmp_path, capsys, old, new, message):
        cfg = write_config(tmp_path, CONVERGE.replace(old, new))
        out = tmp_path / "conv.csv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
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


# every comparison with NaN is false: a NaN radius or lambda must be refused
# under its key, in both modes, with nothing written
@pytest.mark.parametrize("mode", ["certificate", "essential"])
@pytest.mark.parametrize("key, value, message", [
    ("radii", "nan 5", "radii must be finite"),
    ("lambdas", "nan", "lambda must be finite"),
])
def test_probe_non_finite_rejected(tmp_path, capsys, mode, key, value, message):
    text = PROBE_CERT if mode == "certificate" else PROBE_ESS
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in text.splitlines()]
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    out = tmp_path / "probe.csv"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: [probe] {key}: {message}")
    assert not out.exists()


# a NaN tol or half-width is refused by name, and a V that is not finite by
# the first node where it is not (x1^2 overflows at the first node of a box
# 1e155 wide, where a solve once met the infinities in scipy)
@pytest.mark.parametrize("old, new, message", [
    ("tol = 1e-7", "tol = nan", "tol must be positive and finite"),
    ("half_widths = 10", "half_widths = nan", "half-widths must be positive and finite"),
    ("half_widths = 10\npoints = 399", "half_widths = 1e155\npoints = 1001",
     "error: potential evaluated to non-finite value at [-9.98003992015968e+154]\n"),
])
def test_solve_non_finite_rejected(tmp_path, capsys, old, new, message):
    cfg = write_config(tmp_path, SOLVE_1D.replace(old, new))
    out = tmp_path / "spec.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# each build_grid error is filed under the key at fault, with nothing written;
# a spacing whose square overflows or underflows to 0 leaves no stencil entry
@pytest.mark.parametrize("old, new, key", [
    ("half_widths = 10", "half_widths = nan", "half_widths"),
    ("half_widths = 10", "half_widths = 10 10", "half_widths"),
    ("half_widths = 10", "half_widths = 1e160", "half_widths"),
    ("half_widths = 10", "half_widths = 1e-170", "half_widths"),
    ("points = 399", "points = 2", "points"),
    ("n = 1", "n = 0", "n"),
], ids=["nan-half-width", "half-width-count", "stencil-overflow", "stencil-underflow",
        "too-few-points", "n-zero"])
def test_grid_error_names_its_key(tmp_path, capsys, old, new, key):
    cfg = write_config(tmp_path, SOLVE_1D.replace(old, new))
    out = tmp_path / "spec.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: [grid] {key}: ")
    assert not out.exists()


# h is refused by the library's own range check, filed under its key
@pytest.mark.parametrize("h", ["0", "2", "nan"])
def test_h_out_of_range_names_its_key(tmp_path, capsys, h):
    cfg = write_config(tmp_path, SOLVE_1D.replace("h = 1.0", f"h = {h}"))
    out = tmp_path / "spec.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: [solver] h: h must lie in (0, 1.0]")
    assert not out.exists()


# a non-finite quadratic matrix is refused by name before any level or solve:
# an infinite A once gave ten rows of inf levels from analytic
@pytest.mark.parametrize("command, config, old, new, key", [
    ("analytic", ANALYTIC, "a = 1", "a = inf", "a"),
    ("solve", SOLVE_1D, "a = 1", "a = inf", "a"),
    ("analytic", ANALYTIC, "b = 1", "b = nan", "b"),
], ids=["analytic-a-inf", "solve-a-inf", "analytic-b-nan"])
def test_non_finite_matrix_rejected(tmp_path, capsys, command, config, old, new, key):
    cfg = write_config(tmp_path, config.replace(old, new))
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: [potential] {key}: matrix {key.upper()} must be finite")
    assert not out.exists()


def test_probe_certificate_without_radii_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, PROBE_CERT.replace("radii = 3 5", "radii ="))
    out = tmp_path / "probe.csv"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: [probe] radii: need at least one radius")
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
    # numpy's generators take no negative seed, and its own error named no option
    "negative-seed": (["solve", "--config", "run.ini", "--out", "out.csv",
                       "--seed", "-1"], "argument --seed: must be a non-negative integer"),
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


def test_negative_config_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, SOLVE_1D.replace("seed = 0", "seed = -1"))
    out = tmp_path / "out.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "config error: [solver] seed: must be a non-negative integer\n"
    assert not out.exists()


# --seed replaces [solver] seed: the seed the config names gives the config's
# own bytes, and another seed other bytes
def test_seed_option_overrides_config_seed(tmp_path):
    cfg = write_config(tmp_path, SEPARABLE_ALL_COMMANDS.replace("k = 4", "k = 4\nseed = 5"))

    def solve(name, *seed):
        out = tmp_path / f"{name}.json"
        assert main(["solve", "--config", cfg, "--out", str(out), "--format", "json", *seed]) == 0
        return out.read_bytes()

    alone = solve("config-seed")
    assert solve("seed-5", "--seed", "5") == alone
    assert solve("seed-0", "--seed", "0") != alone


# refusals of the config reader and the potential builder, each filed under
# the key at fault, exit 1 with nothing written
CONFIG_REFUSAL_CASES = {
    "matrix-row-length": (SOLVE_1D.replace("a = 1", "a = 1 0; 0"),
                          "[potential] a: cannot parse '1 0; 0': rows have inconsistent lengths"),
    "default-section-key": ("[DEFAULT]\nk = 3\n" + SOLVE_1D, "[DEFAULT] k: unknown key"),
    "missing-key": (SOLVE_1D.replace("half_widths = 10\n", ""),
                    "[grid] half_widths: missing key"),
    "b-missing-with-p": (SOLVE_1D.replace("p = 0\nhalf_widths = 10\npoints = 399",
                                          "p = 1\nhalf_widths = 10 10\npoints = 31 31"),
                         "[potential] b: required when p > 0"),
    "unknown-kind": (SOLVE_1D.replace("kind = quadratic", "kind = quartic"),
                     "[potential] kind: unknown kind 'quartic'"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_REFUSAL_CASES))
def test_config_refusal_names_its_key(tmp_path, capsys, case):
    text, message = CONFIG_REFUSAL_CASES[case]
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


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
# the eigenbasis of two of its axes, a 2D V that is not, which it solves by a
# sparse LU, and a 3D V that is not, which it solves on matvecs alone
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

SOLVE_COUPLED_3D = """
[grid]
n = 1
p = 2
half_widths = 6 6 6
points = 11 13 12

[potential]
kind = expression
expression = x1^2 + y1^2 + y1*y2 + y2^2
nonnegative = true

[solver]
h = 0.5
k = 4
"""

DETERMINISM_CASES = {
    "solve": ("solve", SOLVE_1D),
    "solve-separable-3d": ("solve", SOLVE_SEPARABLE_3D),
    "solve-coupled-2d": ("solve", SOLVE_COUPLED_2D),
    "solve-coupled-3d": ("solve", SOLVE_COUPLED_3D),
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


# a sum of one-variable terms, so every solve inverts it per axis
SEPARABLE_ALL_COMMANDS = """
[grid]
n = 1
p = 1
half_widths = 6 6
points = 31 31

[potential]
kind = quadratic
a = 1
b = 1

[solver]
h = 0.5
k = 4

[converge]
sizes = 15 23 31

[probe]
mode = certificate
lambdas = 1
radii = 1.5 2.5
"""


def test_no_numpy_lapack(tmp_path, monkeypatch):
    """No bospec module calls numpy.linalg or numpy.polyfit, so no command
    pages in numpy's LAPACK: every LAPACK call runs on scipy's.  Every public
    name of `bospec.analytic` runs too, from a table that must list each."""
    import numpy as np

    from bospec import analytic
    from bospec.grid import assemble_hamiltonian, build_grid
    from bospec.potential import expression_potential
    from bospec.probe import CutoffFamily, commutator_decay, form_inequality_check

    def guarded(name, original):
        def call(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            assert not caller.startswith("bospec"), f"{caller} called numpy's {name}"
            return original(*args, **kwargs)
        return call

    for name in np.linalg.__all__:
        original = getattr(np.linalg, name)
        if callable(original) and not isinstance(original, type):
            monkeypatch.setattr(np.linalg, name, guarded(f"linalg.{name}", original))
    monkeypatch.setattr(np, "polyfit", guarded("polyfit", np.polyfit))

    cfg = write_config(tmp_path, SEPARABLE_ALL_COMMANDS)
    essential = write_config(tmp_path, SEPARABLE_ALL_COMMANDS.replace(
        "mode = certificate", "mode = essential").replace("radii = 1.5 2.5", "radii = 1.5 2"),
        name="essential.ini")
    # converge's level 2 fits slope 2.61 on sizes 15 23 31, a failed check
    for command, config, rc in (("solve", cfg, 0), ("analytic", cfg, 0), ("compare", cfg, 0),
                                ("converge", cfg, 3), ("probe", cfg, 0), ("probe", essential, 0)):
        assert main([command, "--config", config, "--out", str(tmp_path / "out.csv")]) == rc
    pot = expression_potential("x1^2 + y1^2", 1, 1, nonnegative=True)
    op = assemble_hamiltonian(build_grid(1, 1, [6.0, 6.0], [31, 31]), pot, 0.5)
    commutator_decay(op, CutoffFamily(scales=(1.5, 3.0)), probes=2)
    form_inequality_check(op, trials=3)
    analytic_calls = {
        "AnalyticSpectrum": lambda: analytic.AnalyticSpectrum(
            levels=((1, 1), (3, 2)), e_max=None, k=2, params={}).flat(),
        "enumerate_spectrum": lambda: analytic.enumerate_spectrum([1, 2], k=3),
        "bo_spectrum": lambda: analytic.bo_spectrum([[1.0]], [[1.0]], h=0.5, k=3),
        "leading_grid_error": lambda: analytic.leading_grid_error(
            [[1.0, 0.3], [0.3, 2.0]], [[1.0]], 0.5, (0.1, 0.1, 0.2), [(0, 0, 0), (1, 0, 2)]),
        "hermite_values": lambda: analytic.hermite_values(4, np.linspace(-3.0, 3.0, 7)),
    }
    assert sorted(analytic.__all__) == sorted(analytic_calls)
    for name in analytic.__all__:
        analytic_calls[name]()


# which of scipy's stacks a fresh process holds after each step, as JSON on
# the last line of stdout: the config paths and --out are its arguments
SCIPY_STACKS = """
import json, sys
loaded = []
def record(step):
    loaded.append((step, "scipy.linalg" in sys.modules, "scipy.sparse" in sys.modules))
import bospec
record("import bospec")
from bospec.cli import main
certificate, essential, coupled, out = sys.argv[1:]
for command, config in (("probe", certificate), ("probe", essential),
                        ("analytic", certificate), ("solve", coupled)):
    assert main([command, "--config", config, "--out", out]) == 0
    record(command + " " + config.rsplit("/", 1)[-1])
print(json.dumps(loaded))
"""


def test_sparse_stack_loaded_only_by_sparse_work(tmp_path):
    """Every command calls scipy's LAPACK, so `import bospec` loads
    scipy.linalg; scipy.sparse (ARPACK, SuperLU) is loaded only by a solve
    on a V that is not a sum of one-variable terms, so the probes and the
    analytic levels never load it."""
    certificate = write_config(tmp_path, SEPARABLE_ALL_COMMANDS, name="certificate.ini")
    essential = write_config(tmp_path, SEPARABLE_ALL_COMMANDS.replace(
        "mode = certificate", "mode = essential").replace("radii = 1.5 2.5", "radii = 1.5 2"),
        name="essential.ini")
    coupled = write_config(tmp_path, SEPARABLE_ALL_COMMANDS.replace(
        "kind = quadratic\na = 1\nb = 1\n",
        "kind = expression\nexpression = x1^2 + y1^2 + x1^2*y1^2\nnonnegative = true\n"),
        name="coupled.ini")
    assert "x1^2*y1^2" in Path(coupled).read_text()
    env = dict(os.environ, PYTHONPATH=str(Path(bospec.__file__).resolve().parent.parent))
    alone = subprocess.run([sys.executable, "-c", "import sys, scipy.linalg; "
                            "print('scipy.sparse' in sys.modules)"], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    if alone.stdout.split()[-1] == "True":
        pytest.skip("this scipy release's scipy.linalg imports scipy.sparse itself")
    proc = subprocess.run([sys.executable, "-c", SCIPY_STACKS, certificate, essential,
                           coupled, str(tmp_path / "out.csv")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == [["import bospec", True, False],
                      ["probe certificate.ini", True, False],
                      ["probe essential.ini", True, False],
                      ["analytic certificate.ini", True, False],
                      ["solve coupled.ini", True, True]]


# every command in both probe modes, each in CSV and in JSON, into one
# directory: the config paths and that directory are its arguments; the exit
# codes as JSON on the last line of stdout
ALL_OUTPUTS = """
import json, sys
from bospec.cli import main
certificate, essential, out = sys.argv[1:]
codes = {}
for name, command, config in (("solve", "solve", certificate),
                              ("analytic", "analytic", certificate),
                              ("compare", "compare", certificate),
                              ("converge", "converge", certificate),
                              ("certificate", "probe", certificate),
                              ("essential", "probe", essential)):
    for fmt in ("csv", "json"):
        codes[f"{name}.{fmt}"] = main([command, "--config", config, "--out",
                                       f"{out}/{name}.{fmt}", "--format", fmt])
print(json.dumps(codes))
"""


def test_outputs_byte_identical_across_hash_seeds(tmp_path):
    """The README's determinism promise for every command and format: two
    processes whose string hashes differ (PYTHONHASHSEED 0 and 1) write the
    same 12 files byte for byte."""
    certificate = write_config(tmp_path, SEPARABLE_ALL_COMMANDS, name="certificate.ini")
    essential = write_config(tmp_path, SEPARABLE_ALL_COMMANDS.replace(
        "mode = certificate", "mode = essential").replace("radii = 1.5 2.5", "radii = 1.5 2"),
        name="essential.ini")
    outputs = {}
    for seed in ("0", "1"):
        out = tmp_path / f"hash-seed-{seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(bospec.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-c", ALL_OUTPUTS, certificate, essential,
                               str(out)], env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        codes = json.loads(proc.stdout.splitlines()[-1])
        # converge's level 2 fits slope 2.61 on sizes 15 23 31, a failed check
        assert codes == {name: 3 if name.startswith("converge") else 0 for name in codes}
        outputs[seed] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(outputs["0"]) == 12
    assert outputs["0"] == outputs["1"]


# compare judges each level against the stencil's predicted error, on any
# grid and in any dimension: the half-width 2.5 box on 63^2 fails every
# row, level 0 of the 4D 9 x 11 x 9 x 11 grid misses, and the finer 4D
# grids pass
FOUR_D = (SEPARABLE_ALL_COMMANDS.replace("n = 1\n", "n = 2\n").replace("p = 1\n", "p = 2\n")
          .replace("half_widths = 6 6\n", "half_widths = 6 6 6 6\n")
          .replace("\na = 1\n", "\na = 1 0; 0 1\n").replace("\nb = 1\n", "\nb = 1 0; 0 1\n"))
COMPARE_VERDICTS = {
    "box-2.5": (SEPARABLE_ALL_COMMANDS.replace("half_widths = 6 6\n", "half_widths = 2.5 2.5\n")
                .replace("points = 31 31\n", "points = 63 63\n"), 3, [False] * 3),
    "4d-coarse": (FOUR_D.replace("points = 31 31\n", "points = 9 11 9 11\n"), 3,
                  [False, True]),
    "4d": (FOUR_D.replace("points = 31 31\n", "points = 15 17 15 17\n"), 0, [True] * 2),
    "4d-diagonal": (FOUR_D.replace("points = 31 31\n", "points = 31 33 31 33\n")
                    .replace("\na = 1 0; 0 1\n", "\na = 1 0; 0 2\n")
                    .replace("\nb = 1 0; 0 1\n", "\nb = 1 0; 0 1.5\n")
                    .replace("k = 4\n", "k = 6\n"), 0, [True] * 5),
}


@pytest.mark.parametrize("case", sorted(COMPARE_VERDICTS))
def test_compare_verdict_exit_code(tmp_path, capsys, case):
    text, rc, passes = COMPARE_VERDICTS[case]
    out = tmp_path / "out.csv"
    assert main(["compare", "--config", write_config(tmp_path, text), "--out", str(out)]) == rc
    rows = read_csv(out)
    assert [r["pass"] == "true" for r in rows] == passes
    failed = [int(r["level"]) for r in rows if r["pass"] != "true"]
    assert capsys.readouterr().err == (f"failed levels: {failed}\n" if failed else "")
    for r in rows:
        predicted = float(r["predicted_error"])
        assert predicted < 0 and float(r["tolerance"]) == 1.5 * abs(predicted)


# partial convergence takes precedence over a failed check: the box fails
# every row, and at tol = 1e-15 its solve does not converge
def test_compare_partial_convergence_before_failed_rows(tmp_path, capsys):
    text = COMPARE_VERDICTS["box-2.5"][0].replace("k = 4\n", "k = 4\ntol = 1e-15\n")
    out = tmp_path / "out.csv"
    assert main(["compare", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("partial convergence: ")
    assert all(r["pass"] == "false" for r in read_csv(out))


# a fitted slope outside SLOPE_RANGE is a failed check, exit 3 with the rows
# written: level 2 fits 2.61 on sizes 15 23 31, and every slope of the
# half-width 2.5 box lies near 0; sizes 23 31 47 fit every slope in range
@pytest.mark.parametrize("old, new, rc, message", [
    ("", "", 3, "failed levels: [2], slopes outside [1.7, 2.3]\n"),
    ("sizes = 15 23 31\n", "sizes = 23 31 47\n", 0, ""),
    ("half_widths = 6 6\n", "half_widths = 2.5 2.5\n", 3,
     "failed levels: [0, 1, 2, 3], slopes outside [1.7, 2.3]\n"),
], ids=["coarse", "fine", "box-2.5"])
def test_converge_slope_exit_code(tmp_path, capsys, old, new, rc, message):
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, SEPARABLE_ALL_COMMANDS.replace(old, new))
    assert main(["converge", "--config", cfg, "--out", str(out)]) == rc
    assert capsys.readouterr().err == message
    assert len(read_csv(out)) == 4


# a quadratic form must have one row per grid dimension of its kind: A with
# two rows on a grid with n = 1 once gave `analytic` the levels of a
# two-dimensional x-oscillator, and a B given with p = 0 was ignored; both
# are refused under their key before any solve or level, with nothing written
MISMATCHED_FORMS = {
    "a": SEPARABLE_ALL_COMMANDS.replace("a = 1\n", "a = 1 0; 0 4\n"),
    "b": SEPARABLE_ALL_COMMANDS.replace("p = 1\n", "p = 0\n")
    .replace("half_widths = 6 6\n", "half_widths = 6\n").replace("points = 31 31\n", "points = 31\n"),
}


@pytest.mark.parametrize("key", sorted(MISMATCHED_FORMS))
@pytest.mark.parametrize("command", ["solve", "analytic", "compare", "converge", "probe"])
def test_form_size_must_match_grid(tmp_path, capsys, command, key):
    cfg = write_config(tmp_path, MISMATCHED_FORMS[key])
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: [potential] {key}: ")
    assert not out.exists()


# analytic builds no grid, so its n and p are checked with the form: each is
# refused under its own key, not as a form of the wrong size
@pytest.mark.parametrize("key, old, new", [("n", "n = 1\n", "n = 0\n"),
                                           ("p", "p = 1\n", "p = -1\n")])
def test_analytic_refuses_grid_dims(tmp_path, capsys, key, old, new):
    cfg = write_config(tmp_path, ANALYTIC.replace(old, new))
    out = tmp_path / "levels.csv"
    assert main(["analytic", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: [grid] {key}: {key} must be an "
                                              "integer >= ")
    assert not out.exists()


# the pair is built once per command, also when it is refused: A is checked
# whole before B, so an error of A is filed under a even when B is bad too,
# and one of B alone under b
def test_quadratic_potential_built_once(tmp_path, capsys, monkeypatch):
    import bospec.cli as cli_module

    built = []
    build = cli_module.quadratic_potential
    monkeypatch.setattr(cli_module, "quadratic_potential",
                        lambda *args: built.append(len(args)) or build(*args))
    cfg = write_config(tmp_path, SEPARABLE_ALL_COMMANDS)
    # converge's level 2 fits slope 2.61 on sizes 15 23 31, a failed check
    for command, rc in (("solve", 0), ("analytic", 0), ("compare", 0), ("converge", 3),
                        ("probe", 0)):
        built.clear()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == rc
        assert built == [2], command
    capsys.readouterr()
    for old, new, key, message in [("a = 1\n", "a = 1 2\n", "a", "A must be square"),
                                   ("b = 1\n", "b = -1\n", "b",
                                    "matrix B is not positive definite")]:
        text = SEPARABLE_ALL_COMMANDS.replace(old, new)
        if key == "a":
            text = text.replace("b = 1\n", "b = -1\n")
        built.clear()
        out = tmp_path / "bad.csv"
        assert main(["solve", "--config", write_config(tmp_path, text, name="bad.ini"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: [potential] {key}: {message}")
        assert built == [2] and not out.exists()


# the library names the argument it refuses and the CLI files the refusal
# under the config key of that name: k and tol, which the solver refuses,
# and a radius the box leaves no room for were bare "error:" lines; so were
# essential mode's, whose bump (as wide as its radius) reached past the box
# or was unresolved
@pytest.mark.parametrize("command, old, new, message", [
    ("solve", "k = 4", "k = 0", "[solver] k: k must be an integer in [1, 240], got k=0"),
    ("solve", "k = 4", "k = 241", "[solver] k: k must be an integer in [1, 240], got k=241"),
    ("compare", "k = 4", "k = 0", "[solver] k: k must be an integer in [1, 240], got k=0"),
    ("converge", "k = 4", "k = 0", "[solver] k: k must be an integer >= 1, got k=0"),
    ("solve", "k = 4", "k = 4\ntol = nan",
     "[solver] tol: tol must be positive and finite, got nan"),
    ("compare", "k = 4", "k = 4\ntol = nan",
     "[solver] tol: tol must be positive and finite, got nan"),
    ("converge", "k = 4", "k = 4\ntol = nan",
     "[solver] tol: tol must be positive and finite, got nan"),
    ("probe", "radii = 1.5 2.5", "radii = 1.5 5.9",
     "[probe] radii: radius 5.9 leaves no room for a resolvable bump in the box: need width "
     "0.0475 >= 1.5 (4 spacings) and support radius 5.995 <= 6 (min half-width)"),
    ("probe", "mode = certificate\nlambdas = 1\nradii = 1.5 2.5",
     "mode = essential\nlambdas = 1\nradii = 1.5 3",
     "[probe] radii: radius 3 leaves no room for a resolvable bump in the box: need width "
     "3 >= 1.5 (4 spacings) and support radius 9 <= 6 (min half-width)"),
    ("probe", "mode = certificate\nlambdas = 1\nradii = 1.5 2.5",
     "mode = essential\nlambdas = 1\nradii = 0.1 2",
     "[probe] radii: radius 0.1 leaves no room for a resolvable bump in the box: need width "
     "0.1 >= 1.5 (4 spacings) and support radius 0.3 <= 6 (min half-width)"),
], ids=["solve-k-zero", "solve-k-past-dim", "compare-k-zero", "converge-k-zero",
        "solve-tol-nan", "compare-tol-nan", "converge-tol-nan", "probe-radius-no-room",
        "essential-support-past-box", "essential-width-unresolved"])
def test_library_refusal_filed_under_its_key(tmp_path, capsys, command, old, new, message):
    cfg = write_config(tmp_path, SEPARABLE_ALL_COMMANDS.replace(old, new))
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# the filing rule finds a refused argument's one key by its name alone
def test_config_key_names_unique():
    from bospec.cli import CONFIG_KEYS

    names = [key for keys in CONFIG_KEYS.values() for key in keys]
    assert len(names) == len(set(names))


# the small-h regime's anisotropic 3001 x 63 grid, whose predicted error
# weights each axis by its own spacing: every row passes
def test_anisotropic_compare_calibrates_per_axis(tmp_path):
    text = (SEPARABLE_ALL_COMMANDS.replace("half_widths = 6 6\n", "half_widths = 2 5\n")
            .replace("points = 31 31\n", "points = 3001 63\n")
            .replace("h = 0.5\nk = 4\n", "h = 0.05\nk = 6\ntol = 1e-7\n"))
    out = tmp_path / "out.csv"
    assert main(["compare", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 6 and all(r["pass"] == "true" for r in rows)


# a refused argument that no config key is named after is no config error
def test_refusal_of_no_key_is_an_error(tmp_path, capsys, monkeypatch):
    import bospec.cli as cli_module
    from bospec.potential import ArgumentError

    def refuse(*args, **kwargs):
        raise ArgumentError("count", "count must be an integer >= 1, got count=0")

    monkeypatch.setattr(cli_module, "lowest_eigenpairs", refuse)
    cfg = write_config(tmp_path, SEPARABLE_ALL_COMMANDS)
    out = tmp_path / "out.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: count must be an integer >= 1, got count=0\n"
    assert not out.exists()


CLI_2D = """
[grid]
n = 1
p = 1
half_widths = 8 8
points = 255 255

[potential]
kind = quadratic
a = 1
b = 1

[solver]
h = 0.5
k = 6
tol = 1e-7

[converge]
sizes = 63 127 255
"""


# on the commands of the cli-2d benchmark pass, building the potential
# checks A and B by `_form_matrix` with no `oscillator_frequencies` call,
# and each exact reference, one bo_spectrum call, derives their frequencies
# (2 calls): compare and converge take one reference each, and solve none
# (compare's predicted error takes the forms' normal modes by dsyevd, not by
# this call).  A command that took a reference once more would take one call
# per matrix more
def test_frequencies_derived_per_reference(tmp_path, monkeypatch):
    import bospec.analytic as analytic_module
    import bospec.potential as potential_module

    calls = []
    frequencies = potential_module.oscillator_frequencies

    def counting(*args, **kwargs):
        calls.append(1)
        return frequencies(*args, **kwargs)

    for module in (potential_module, analytic_module):
        monkeypatch.setattr(module, "oscillator_frequencies", counting)
    cfg = write_config(tmp_path, CLI_2D)
    per_command = {}
    for command in ("solve", "compare", "converge"):
        calls.clear()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
        per_command[command] = len(calls)
    assert per_command == {"solve": 0, "compare": 2, "converge": 2}


# converge solves the grids it builds: one build_grid call per size, where
# the study once built every grid again
def test_converge_builds_each_grid_once(tmp_path, monkeypatch):
    import bospec.cli as cli_module
    import bospec.eigensolver as eigensolver_module

    built = []
    build = eigensolver_module.build_grid

    def counting(*args):
        built.append(tuple(args[3]))
        return build(*args)

    for module in (cli_module, eigensolver_module):
        monkeypatch.setattr(module, "build_grid", counting)
    cfg = write_config(tmp_path, CLI_2D)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
    assert built == [(63, 63), (127, 127), (255, 255)]
