"""Batch front-end: config-driven solve / analytic / compare / probe / converge
runs with machine-readable CSV or JSON outputs and deterministic seeds.

Config files are INI sections of key = value lines; matrices are given as
semicolon-separated rows ("1 0; 0 4").  Exit codes: 0 success, 1 config or
usage error, 2 partial convergence, 3 structural comparison failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys

import numpy as np

from .analytic import bo_spectrum, dilate_spectrum
from .eigensolver import cluster_multiplicities, convergence_study, lowest_eigenpairs
from .grid import DEFAULT_H_MAX, assemble_hamiltonian, build_grid
from .potential import expression_potential, quadratic_potential
from .probe import discreteness_certificate, essential_spectrum_probe

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_STRUCTURAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code bospec gives partial
    convergence; here a usage error exits 1 like a config error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


class ConfigError(Exception):
    def __init__(self, section: str, key: str, message: str):
        super().__init__(f"[{section}] {key}: {message}")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _floats(raw: str) -> list:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _ints(raw: str) -> list:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _boolean(raw: str) -> bool:
    """configparser's booleans: 1/yes/true/on or 0/no/false/off, any case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean (1/yes/true/on or 0/no/false/off)") from None


def _matrix(raw: str):
    rows = [[float(tok) for tok in row.replace(",", " ").split()]
            for row in raw.split(";") if row.strip()]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("rows have inconsistent lengths")
    return np.array(rows)


# Every key some command reads, by section, with its converter.  One table
# for all commands, because a single config file may serve every command.
CONFIG_KEYS = {
    "grid": {"n": int, "p": int, "half_widths": _floats, "points": _ints},
    "potential": {"kind": str.strip, "a": _matrix, "b": _matrix, "expression": str,
                  "nonnegative": _boolean},
    "solver": {"h": float, "k": int, "tol": float, "seed": int, "gap_tol": float},
    "analytic": {"e_max": float, "levels": int},
    "probe": {"mode": str.strip, "lambdas": _floats, "radii": _floats},
    "converge": {"sizes": _ints},
}


def _load_config(path: str) -> dict:
    """Read the config into {section: {key: value}}, each value converted;
    reject any section or key that no command reads."""
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        read = cfg.read(path)
    except configparser.Error as exc:
        raise ConfigError("config", "path", str(exc)) from None
    if not read:
        raise ConfigError("config", "path", f"cannot read {path}")
    if cfg.defaults():
        raise ConfigError(cfg.default_section, next(iter(cfg.defaults())),
                          "unknown key")
    values = {}
    for section in cfg.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(section, "", "unknown section")
        values[section] = {}
        for key, raw in cfg.items(section):
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(section, key, "unknown key")
            try:
                values[section][key] = CONFIG_KEYS[section][key](raw)
            except ValueError as exc:
                raise ConfigError(section, key, f"cannot parse {raw!r}: {exc}") from exc
    return values


def _need(cfg, section, key):
    if section not in cfg:
        raise ConfigError(section, key, "missing section")
    if key not in cfg[section]:
        raise ConfigError(section, key, "missing key")
    return cfg[section][key]


def _opt(cfg, section, key, default=None):
    return cfg.get(section, {}).get(key, default)


def _build_grid_from_config(cfg):
    n = _need(cfg, "grid", "n")
    p = _opt(cfg, "grid", "p", 0)
    half_widths = _need(cfg, "grid", "half_widths")
    points = _need(cfg, "grid", "points")
    try:
        return build_grid(n, p, half_widths, points)
    except ValueError as exc:
        raise ConfigError("grid", "points", str(exc)) from exc


def _build_potential_from_config(cfg, n: int, p: int):
    kind = _need(cfg, "potential", "kind")
    if kind == "quadratic":
        a = _need(cfg, "potential", "a")
        b = _opt(cfg, "potential", "b") if p > 0 else None
        if p > 0 and b is None:
            raise ConfigError("potential", "b", "required when p > 0")
        # A alone first, so an error of the pair is B's
        for key, matrices in (("a", (a,)), ("b", (a, b))):
            try:
                pot = quadratic_potential(*matrices)
            except ValueError as exc:
                raise ConfigError("potential", key, str(exc)) from exc
        return pot
    if kind == "expression":
        text = _need(cfg, "potential", "expression")
        nonneg = _opt(cfg, "potential", "nonnegative", False)
        try:
            return expression_potential(text, n, p, nonnegative=nonneg)
        except ValueError as exc:
            raise ConfigError("potential", "expression", str(exc)) from exc
    raise ConfigError("potential", "kind", f"unknown kind {kind!r}")


def _solver_params(cfg, seed_override=None):
    h = _opt(cfg, "solver", "h", 0.1)
    if not 0 < h <= DEFAULT_H_MAX:
        raise ConfigError("solver", "h", f"must lie in (0, {DEFAULT_H_MAX}]")
    params = {
        "h": h,
        "k": _opt(cfg, "solver", "k", 5),
        "tol": _opt(cfg, "solver", "tol", 1e-6),
        "seed": _opt(cfg, "solver", "seed", 0),
        "gap_tol": _opt(cfg, "solver", "gap_tol"),
    }
    if seed_override is not None:
        params["seed"] = seed_override
    return params


def _cell(value) -> str:
    """One CSV cell: blank for None, lower-case booleans, integers and text
    as they are, every other number in full precision."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, str)):
        return str(value)
    return f"{float(value):.17g}"


def _write(path, fmt, columns, rows, payload) -> None:
    """Write `rows` under the header `columns` as CSV, or `payload` as JSON."""
    with open(path, "w") as fh:
        if fmt == "json":
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
            return
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _boundary_warning(op, result) -> None:
    """Warn when V on the box boundary is within 10% of the spectral window,
    the largest converged eigenvalue; unconverged pairs set no window."""
    converged = result.eigenvalues[result.converged]
    if converged.size == 0:
        return
    window = float(converged.max())
    # the boundary nodes are the first and last slice along each axis
    values = op.potential_values.reshape(op.grid.points, order="F")
    min_v = min(float(np.take(values, [0, -1], axis=d).min()) for d in range(values.ndim))
    if min_v < 1.1 * window:
        print(f"warning: min boundary V = {min_v:g} is below the spectral "
              f"window {window:g} + 10%; enlarge the box", file=sys.stderr)


def cmd_solve(cfg, args) -> int:
    grid = _build_grid_from_config(cfg)
    pot = _build_potential_from_config(cfg, grid.n, grid.p)
    params = _solver_params(cfg, args.seed)
    op = assemble_hamiltonian(grid, pot, params["h"])
    result = lowest_eigenpairs(op, params["k"], tol=params["tol"], seed=params["seed"])
    _boundary_warning(op, result)
    pairs = zip(result.eigenvalues, result.residuals, result.converged)
    _write(args.out, args.format, ("index", "eigenvalue", "residual", "converged"),
           [(i, e, r, c) for i, (e, r, c) in enumerate(pairs)], {
               "eigenvalues": [float(e) for e in result.eigenvalues],
               "residuals": [float(r) for r in result.residuals],
               "converged": [bool(c) for c in result.converged],
               "iterations": result.iterations,
               "h": result.h,
               "grid_signature": result.grid_signature,
           })
    return EXIT_OK if result.all_converged else EXIT_PARTIAL


def _analytic_cutoff(cfg):
    e_max = _opt(cfg, "analytic", "e_max")
    levels = _opt(cfg, "analytic", "levels")
    if e_max is None and levels is None:
        levels = 10
    if e_max is not None and levels is not None:
        raise ConfigError("analytic", "e_max", "give e_max or levels, not both")
    return e_max, levels


def cmd_analytic(cfg, args) -> int:
    pot = _build_potential_from_config(cfg, _need(cfg, "grid", "n"),
                                       _opt(cfg, "grid", "p", 0))
    if pot.kind != "quadratic":
        raise ConfigError("potential", "kind",
                          "analytic oracle requires quadratic form")
    params = _solver_params(cfg, args.seed)
    e_max, levels = _analytic_cutoff(cfg)
    spec = bo_spectrum(pot.a, pot.b, params["h"], e_max=e_max, k=levels)
    if args.dilate is not None:
        if args.dilate <= 0:
            raise ConfigError("cli", "--dilate", "must be positive")
        spec = dilate_spectrum(spec, args.dilate)
    rows = [(float(e), m) for e, m in spec.levels]
    _write(args.out, args.format, ("energy", "multiplicity"), rows, {
        "params": {key: (float(v) if isinstance(v, (int, float)) else
                         [float(x) for x in v])
                   for key, v in spec.params.items()},
        "cutoff": {"e_max": None if spec.e_max is None else float(spec.e_max),
                   "k": spec.k},
        "levels": [list(row) for row in rows],
    })
    return EXIT_OK


def cmd_compare(cfg, args) -> int:
    grid = _build_grid_from_config(cfg)
    pot = _build_potential_from_config(cfg, grid.n, grid.p)
    if pot.kind != "quadratic":
        raise ConfigError("potential", "kind",
                          "comparison requires a quadratic potential")
    params = _solver_params(cfg, args.seed)
    k = params["k"]

    op = assemble_hamiltonian(grid, pot, params["h"])
    result = lowest_eigenpairs(op, k, tol=params["tol"], seed=params["seed"])
    spec = bo_spectrum(pot.a, pot.b, params["h"], k=k)
    # keep only analytic levels fully covered by the k computed eigenvalues
    levels = []
    total = 0
    for e, m in spec.levels:
        if total + m > k:
            break
        levels.append((float(e), m))
        total += m
    if not levels:
        raise ConfigError("solver", "k", "too small to cover one analytic level")

    gaps = [b - a for (a, _), (b, _) in zip(levels, levels[1:])]
    gap_tol = params["gap_tol"]
    if gap_tol is None:
        gap_tol = min(gaps) / 4 if gaps else 1e-6
    clusters = cluster_multiplicities(result.eigenvalues[:total], gap_tol)

    # |error| ~ C delta^2, C calibrated on grids of max(31, N // 4) and
    # max(63, N // 2) points per axis, N = max(grid.points), by a solve at
    # least as tight as the one it judges; both are coarser than the judged
    # grid only for N > 63 (N = 31 gives 31 and 63)
    base = max(grid.points)
    sizes = (max(31, base // 4), max(63, base // 2))
    study = convergence_study(pot, grid.half_widths, sizes, total, h=params["h"],
                              tol=min(params["tol"], 1e-8), seed=params["seed"])
    constants = (study.errors / np.square(study.deltas)[:, None]).max(axis=0)
    delta = max(grid.spacing)

    structural = len(clusters) != len(levels)
    rows = []
    idx = 0
    for li, (energy, mult) in enumerate(levels):
        tol_level = 1.5 * float(constants[idx: idx + mult].max()) * delta**2
        if li < len(clusters):
            cl = clusters[li]
            err = abs(cl.energy - energy)
            ok = err <= tol_level and cl.multiplicity == mult
            rows.append((li, energy, cl.energy, err, mult, cl.multiplicity,
                         tol_level, ok))
        else:
            rows.append((li, energy, None, None, mult, 0, tol_level, False))
        idx += mult

    columns = ("level", "analytic_energy", "numeric_energy", "abs_error",
               "analytic_multiplicity", "numeric_multiplicity", "tolerance", "pass")
    _write(args.out, args.format, columns, rows, {
        "gap_tol": gap_tol,
        "rows": [dict(zip(columns, row)) for row in rows],
    })
    if structural:
        print(f"structural failure: {len(clusters)} numeric clusters vs "
              f"{len(levels)} analytic levels", file=sys.stderr)
        return EXIT_STRUCTURAL
    if not (result.all_converged and study.converged.all()):
        print("partial convergence: an eigenpair of the solve or of its error "
              "calibration did not converge", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_probe(cfg, args) -> int:
    lambdas = _need(cfg, "probe", "lambdas")
    if not lambdas:
        raise ConfigError("probe", "lambdas", "empty lambda list")
    radii = _need(cfg, "probe", "radii")
    mode = _opt(cfg, "probe", "mode", "certificate")
    params = _solver_params(cfg, args.seed)
    grid = _build_grid_from_config(cfg)

    if mode == "essential":
        reports = essential_spectrum_probe(params["h"], grid, lambdas, radii)
    elif mode == "certificate":
        pot = _build_potential_from_config(cfg, grid.n, grid.p)
        op = assemble_hamiltonian(grid, pot, params["h"])
        reports = [discreteness_certificate(op, lam, radii) for lam in lambdas]
    else:
        raise ConfigError("probe", "mode", f"unknown mode {mode!r}")

    columns = ("lambda", "radius_or_scale", "residual", "lower_bound", "verdict")
    rows = [(rep.candidate_lambda, e.radius, e.residual, e.lower_bound, rep.verdict)
            for rep in reports for e in rep.entries]
    _write(args.out, args.format, columns, rows, [dict(zip(columns, row)) for row in rows])
    return EXIT_OK


def cmd_converge(cfg, args) -> int:
    grid_n = _need(cfg, "grid", "n")
    grid_p = _opt(cfg, "grid", "p", 0)
    half_widths = _need(cfg, "grid", "half_widths")
    sizes = _need(cfg, "converge", "sizes")
    if len(sizes) < 3:
        raise ConfigError("converge", "sizes", "need at least 3 grid sizes")
    pot = _build_potential_from_config(cfg, grid_n, grid_p)
    params = _solver_params(cfg, args.seed)
    study = convergence_study(pot, half_widths, sizes, params["k"], h=params["h"],
                              tol=params["tol"], seed=params["seed"])
    rows = []
    for j, slope in enumerate(study.slopes):
        ok = slope is not None and 1.7 <= slope <= 2.3
        rows.append((j, study.reference[j], slope, ok))
    columns = ("level", "reference", "slope", "pass")
    _write(args.out, args.format, columns,
           [(j, ref, "n/a" if slope is None else f"{slope:.6g}", ok)
            for j, ref, slope, ok in rows], {
               "deltas": list(study.deltas),
               "errors": study.errors.tolist(),
               "rows": [dict(zip(columns, row)) for row in rows],
           })
    if not study.converged.all():
        print("partial convergence: an eigenpair did not converge on some grid "
              "size; the slopes are unreliable", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "solve": cmd_solve,
    "analytic": cmd_analytic,
    "compare": cmd_compare,
    "probe": cmd_probe,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    parser = _Parser(
        prog="bospec",
        description="Spectral solver and analytic oracle for Born-Oppenheimer "
                    "Hamiltonians -h^2 Lap_x - Lap_y + V(x, y)")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--dilate", type=float, default=None,
                        help="scale analytic energies by this factor (analytic only)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)
    try:
        if args.out is None:
            raise ConfigError("cli", "--out", "no output path given")
        if args.dilate is not None and args.command != "analytic":
            raise ConfigError("cli", "--dilate", "only the analytic command takes it")
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:  # console-script entry
    sys.exit(main())


if __name__ == "__main__":
    run()
