"""The benchmark's three workloads: their input files, the operations of one
pass (every seeded operation takes the pass seed), and the checks that judge
each operation from its outputs.

Every check result is one of two kinds.  A *flagged* failure is a shortfall
the program reports itself: an unconverged pair, a nonzero exit code, a row
marked ``pass = false``, a raised error.  A *silent* failure is an output that
claims to be valid but is wrong: a pair marked converged that misses the
reference, a verdict or a bound that does not hold.  Both count as a failed
operation; only silent ones make a run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import bospec
from bospec import cli

# An eigenvalue E of the grids used here must lie within
# TOL_COEFF * delta^2 * E^2 of its exact oscillator level (delta = largest
# grid spacing).  A converged shift-invert solve on every grid below gives at
# most 0.083 for |error| / (delta^2 E^2); 0.15 leaves a margin of 1.8.
TOL_COEFF = 0.15
SLOPE_RANGE = (1.7, 2.3)

_GRID_2D = """
[grid]
n = 1
p = 1
half_widths = 8 8
points = {points} {points}
"""

_QUADRATIC_2D = """
[potential]
kind = quadratic
a = 1
b = 1
"""

CLI_2D_CONFIG = _GRID_2D.format(points=255) + _QUADRATIC_2D + """
[solver]
h = 0.5
k = 6
tol = 1e-7

[converge]
sizes = 63 127 255
"""

SOLVE_3D_CONFIG = """
[grid]
n = 1
p = 2
half_widths = 8 8 8
points = 47 47 47

[potential]
kind = expression
expression = x1^2 + y1^2 + y1*y2 + y2^2
nonnegative = true

[solver]
h = 0.5
k = 6
tol = 1e-7
"""

PROBE_2D_CONFIG = _GRID_2D.format(points=191) + _QUADRATIC_2D + """
[solver]
h = 0.5

[probe]
mode = {mode}
lambdas = 4
radii = {radii}
"""

CERTIFICATE_RADII = (3.0, 5.0)
# Zhislin bumps reach 3 * radius in essential mode; they must fit the box of
# half-width 8.
ESSENTIAL_RADII = (1.25, 2.5)
CUTOFF_SCALES = (1.5, 3.0)
FORM_TRIALS = 500


@dataclass
class Outcome:
    """The verdict on one operation of one pass."""

    op: str
    flagged: list = field(default_factory=list)
    silent: list = field(default_factory=list)
    abs_errors: list = field(default_factory=list)  # |E - exact| per eigenvalue
    digest: str | None = None  # sha256 of the output file or returned value

    @property
    def failed(self) -> bool:
        return bool(self.flagged or self.silent)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sha256_value(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception is its result, judged by the check."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the check reports it as a flagged failure
        return exc


def _run_cli(command, config, out, seed, *extra):
    argv = [command, "--config", str(config), "--out", str(out),
            "--seed", str(seed), *extra]
    return _attempt(lambda: cli.main(argv))


def _energy_tol(delta: float, energy: float) -> float:
    return TOL_COEFF * delta * delta * energy * energy


def _check_exit(outcome: Outcome, rc, out: Path) -> bool:
    """Record a raised error, bad exit code or missing output; True if the
    output file can be read."""
    if isinstance(rc, Exception):
        outcome.flagged.append(f"raised {type(rc).__name__}: {rc}")
        return False
    if rc not in (0, cli.EXIT_PARTIAL, cli.EXIT_STRUCTURAL):
        outcome.flagged.append(f"exit code {rc}")
        return False
    if not out.is_file():
        outcome.silent.append(f"exit code {rc} but no output file")
        return False
    outcome.digest = _sha256_file(out)
    return True


def check_spectrum(op: str, rc, out: Path, reference, delta: float) -> Outcome:
    """`bospec solve` CSV: every pair converged and within the O(delta^2)
    tolerance of the exact level; exit 2 exactly when a pair is unconverged."""
    outcome = Outcome(op)
    if not _check_exit(outcome, rc, out):
        return outcome
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(reference):
        outcome.silent.append(f"{len(rows)} pairs, expected {len(reference)}")
        return outcome
    converged = []
    for i, (row, exact) in enumerate(zip(rows, reference)):
        energy = float(row["eigenvalue"])
        err = abs(energy - exact)
        outcome.abs_errors.append(err)
        ok = row["converged"] == "true"
        converged.append(ok)
        if not ok:
            outcome.flagged.append(
                f"pair {i} unconverged (residual {float(row['residual']):.3g})")
        elif err > _energy_tol(delta, exact):
            outcome.silent.append(
                f"pair {i} converged but {energy:.10g} misses {exact:.10g} "
                f"by {err:.3g} > {_energy_tol(delta, exact):.3g}")
    expected_rc = 0 if all(converged) else cli.EXIT_PARTIAL
    if rc != expected_rc:
        outcome.silent.append(f"exit code {rc}, converged flags imply {expected_rc}")
    return outcome


def check_compare(rc, out: Path, levels, delta: float) -> Outcome:
    """`bospec compare` CSV: one row per exact level, every row passing, and a
    passing row really within both its own and the benchmark's tolerance."""
    outcome = Outcome("compare")
    if not _check_exit(outcome, rc, out):
        return outcome
    if rc == cli.EXIT_STRUCTURAL:
        outcome.flagged.append("structural failure (cluster count mismatch)")
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(levels):
        outcome.silent.append(f"{len(rows)} rows, expected {len(levels)}")
        return outcome
    for row, (exact, mult) in zip(rows, levels):
        level = row["level"]
        if abs(float(row["analytic_energy"]) - exact) > 1e-12 * exact:
            outcome.silent.append(f"level {level}: analytic energy "
                                  f"{row['analytic_energy']} != {exact!r}")
        numeric = float(row["numeric_energy"] or "nan")
        err = abs(numeric - exact)
        if not math.isnan(err):
            outcome.abs_errors.append(err)
        if row["pass"] != "true":
            outcome.flagged.append(f"level {level} fails its tolerance")
        elif not (err <= float(row["tolerance"]) and err <= _energy_tol(delta, exact)
                  and int(row["numeric_multiplicity"]) == mult):
            outcome.silent.append(
                f"level {level} passes but {numeric:.10g} (x{row['numeric_multiplicity']}) "
                f"vs {exact:.10g} (x{mult}) exceeds a tolerance")
    return outcome


def check_converge(rc, out: Path, reference, deltas) -> Outcome:
    """`bospec converge --format json`: the exact references, every fitted
    slope in [1.7, 2.3], and every per-size error within the O(delta^2)
    tolerance."""
    outcome = Outcome("converge")
    if not _check_exit(outcome, rc, out):
        return outcome
    data = json.loads(out.read_text())
    rows = data["rows"]
    if len(rows) != len(reference) or list(data["deltas"]) != list(deltas):
        outcome.silent.append("rows or grid spacings do not match the config")
        return outcome
    lo, hi = SLOPE_RANGE
    for row, exact in zip(rows, reference):
        if abs(row["reference"] - exact) > 1e-12 * exact:
            outcome.silent.append(f"level {row['level']}: reference "
                                  f"{row['reference']!r} != {exact!r}")
        slope = row["slope"]
        in_range = slope is not None and lo <= slope <= hi
        if row["pass"] != in_range:
            outcome.silent.append(f"level {row['level']}: pass={row['pass']} "
                                  f"for slope {slope}")
        elif not in_range:
            outcome.flagged.append(f"level {row['level']} slope {slope} "
                                   f"outside [{lo}, {hi}]")
    for delta, errs in zip(deltas, data["errors"]):
        outcome.abs_errors.extend(errs)
        for err, exact in zip(errs, reference):
            if err > _energy_tol(delta, exact):
                outcome.flagged.append(
                    f"delta {delta:g}: error {err:.3g} at level {exact:.6g} "
                    f"> {_energy_tol(delta, exact):.3g}")
    return outcome


def check_decay(result) -> Outcome:
    """commutator_decay: one positive finite estimate per scale, strictly
    decreasing as the scale grows."""
    outcome = Outcome("commutator_decay")
    if isinstance(result, Exception):
        outcome.flagged.append(f"raised {type(result).__name__}: {result}")
        return outcome
    outcome.digest = _sha256_value(result)
    scales = [q for q, _ in result]
    estimates = [e for _, e in result]
    if scales != list(CUTOFF_SCALES):
        outcome.silent.append(f"scales {scales}, expected {list(CUTOFF_SCALES)}")
    if not all(math.isfinite(e) and e > 0 for e in estimates):
        outcome.silent.append(f"estimates {estimates} not positive and finite")
    elif any(b >= a for a, b in zip(estimates, estimates[1:])):
        outcome.silent.append(f"estimates {estimates} do not strictly decrease")
    return outcome


def check_form_chain(report) -> Outcome:
    """form_inequality_check: every trial respects the chain (V >= 0)."""
    outcome = Outcome("form_inequality_check")
    if isinstance(report, Exception):
        outcome.flagged.append(f"raised {type(report).__name__}: {report}")
        return outcome
    outcome.digest = _sha256_value(report)
    if report.trials != FORM_TRIALS or report.violations != 0:
        outcome.silent.append(f"{report.violations} violations in "
                              f"{report.trials} trials")
    return outcome


def check_probe(op: str, rc, out: Path, radii, verdict: str, bounds=None) -> Outcome:
    """`bospec probe --format json`: one entry per radius carrying the
    expected verdict; certificate bounds equal q^2 - lambda and hold."""
    outcome = Outcome(op)
    if not _check_exit(outcome, rc, out):
        return outcome
    entries = json.loads(out.read_text())
    if [e["radius_or_scale"] for e in entries] != list(radii):
        outcome.silent.append(f"{len(entries)} entries do not match radii {radii}")
        return outcome
    for e in entries:
        if e["verdict"] != verdict:
            outcome.silent.append(f"radius {e['radius_or_scale']}: verdict "
                                  f"{e['verdict']!r}, expected {verdict!r}")
    if bounds is not None:
        for e, bound in zip(entries, bounds):
            if abs(e["lower_bound"] - bound) > 1e-12 * max(1.0, abs(bound)) \
                    or e["residual"] < bound:
                outcome.silent.append(
                    f"radius {e['radius_or_scale']}: bound {e['lower_bound']} "
                    f"(expected {bound}), residual {e['residual']}")
    return outcome


def _spacing(half_width: float, points: int) -> float:
    return 2 * half_width / (points + 1)


class Workload:
    """A workload writes its inputs into `workdir` at construction (the set-up
    the benchmark times).  `run_pass(seed)` runs its operations once, every
    seeded operation taking the pass seed, and returns their raw results;
    `check(raw)` judges them into one `Outcome` per operation;
    `signatures()` gives the `Grid.signature()` of each grid it uses.
    `pass_s` is the nominal seconds of one pass on a 2-core host, which
    fixes how many passes a run of a given length makes."""

    name = ""
    pass_s = 1.0

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def _write(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text)
        return path

    def _fresh(self, name: str) -> Path:
        """Output path with no file left from an earlier pass."""
        path = self.workdir / name
        path.unlink(missing_ok=True)
        return path


class Cli2D(Workload):
    """The users' main path: `solve`, `compare` and `converge` on the README
    physics doubled, seven 2D eigensolves per pass at three sizes and two
    tolerances, where a shift-invert backend would be the natural choice."""

    name = "cli-2d"
    pass_s = 16.0

    def __init__(self, workdir):
        super().__init__(workdir)
        self.config = self._write("cli2d.ini", CLI_2D_CONFIG)
        spec = bospec.bo_spectrum([[1.0]], [[1.0]], 0.5, k=8)
        self.reference = [float(e) for e in spec.flat(6)]
        self.levels = [(float(e), m) for e, m in spec.levels[:4]]
        self.sizes = (63, 127, 255)
        self.deltas = [_spacing(8.0, n) for n in self.sizes]

    def signatures(self):
        return [bospec.build_grid(1, 1, (8, 8), (n, n)).signature() for n in self.sizes]

    def run_pass(self, seed):
        out = self._fresh
        return {
            "solve": _run_cli("solve", self.config, out("solve.csv"), seed),
            "compare": _run_cli("compare", self.config, out("compare.csv"), seed),
            "converge": _run_cli("converge", self.config, out("converge.json"), seed,
                                 "--format", "json"),
        }

    def check(self, raw):
        d, delta = self.workdir, self.deltas[-1]
        return [
            check_spectrum("solve", raw["solve"], d / "solve.csv", self.reference, delta),
            check_compare(raw["compare"], d / "compare.csv", self.levels, delta),
            check_converge(raw["converge"], d / "converge.json", self.reference,
                           self.deltas),
        ]


class Solve3D(Workload):
    """`solve` on a 3D expression potential that equals the quadratic form
    a = [[1]], b = [[1, .5], [.5, 1]]: the expression path with an exact
    reference, on the iterative side of any backend rule (a sparse LU of this
    operator fills in heavily).  Not listed in BENCHMARK.json, whose run-time
    budget holds two workloads at the run length they need to be steady on a
    2-core host; run it by name."""

    name = "solve-3d"
    pass_s = 10.0

    def __init__(self, workdir):
        super().__init__(workdir)
        self.config = self._write("solve3d.ini", SOLVE_3D_CONFIG)
        spec = bospec.bo_spectrum([[1.0]], [[1.0, 0.5], [0.5, 1.0]], 0.5, k=8)
        self.reference = [float(e) for e in spec.flat(6)]

    def signatures(self):
        return [bospec.build_grid(1, 2, (8, 8, 8), (47, 47, 47)).signature()]

    def run_pass(self, seed):
        return {"solve": _run_cli("solve", self.config, self._fresh("solve.csv"),
                                  seed)}

    def check(self, raw):
        return [check_spectrum("solve", raw["solve"], self.workdir / "solve.csv",
                               self.reference, _spacing(8.0, 47))]


class Probe2D(Workload):
    """The probe layer alone: commutator decay (resolvent solves), the form
    chain, and the certificate and essential probes on a 2D 191^2 grid, with
    no eigensolve, so an eigensolver change should leave it unchanged."""

    name = "probe-2d"
    pass_s = 8.0

    def __init__(self, workdir):
        super().__init__(workdir)
        radii = " ".join(f"{r:g}" for r in CERTIFICATE_RADII)
        self.cert_config = self._write("certificate.ini", PROBE_2D_CONFIG.format(
            mode="certificate", radii=radii))
        radii = " ".join(f"{r:g}" for r in ESSENTIAL_RADII)
        self.ess_config = self._write("essential.ini", PROBE_2D_CONFIG.format(
            mode="essential", radii=radii))
        # V = x^2 + y^2 has exterior infimum q^2, so the bound is q^2 - 4
        self.bounds = [q * q - 4.0 for q in CERTIFICATE_RADII]

    def signatures(self):
        return [bospec.build_grid(1, 1, (8, 8), (191, 191)).signature()]

    def _operator(self):
        grid = bospec.build_grid(1, 1, (8, 8), (191, 191))
        pot = bospec.quadratic_potential([[1.0]], [[1.0]])
        return bospec.assemble_hamiltonian(grid, pot, 0.5)

    def run_pass(self, seed):
        op = _attempt(self._operator)
        if isinstance(op, Exception):
            decay = form = op
        else:
            decay = _attempt(bospec.commutator_decay, op,
                             bospec.CutoffFamily(CUTOFF_SCALES), probes=2, seed=seed)
            form = _attempt(bospec.form_inequality_check, op, FORM_TRIALS, seed=seed)
        out = self._fresh
        return {
            "commutator_decay": decay,
            "form_inequality_check": form,
            "certificate": _run_cli("probe", self.cert_config, out("certificate.json"),
                                    seed, "--format", "json"),
            "essential": _run_cli("probe", self.ess_config, out("essential.json"),
                                  seed, "--format", "json"),
        }

    def check(self, raw):
        d = self.workdir
        return [
            check_decay(raw["commutator_decay"]),
            check_form_chain(raw["form_inequality_check"]),
            check_probe("certificate", raw["certificate"], d / "certificate.json",
                        CERTIFICATE_RADII, "discrete at lambda=4", self.bounds),
            check_probe("essential", raw["essential"], d / "essential.json",
                        ESSENTIAL_RADII, "essential candidate"),
        ]


WORKLOADS = {cls.name: cls for cls in (Cli2D, Solve3D, Probe2D)}
