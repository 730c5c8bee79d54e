"""Batch front-end: config-driven solve / analytic / compare / probe / converge
runs with machine-readable CSV or JSON outputs and deterministic seeds.

Config files are INI sections of key = value lines; matrices are given as
semicolon-separated rows ("1 0; 0 4").  Exit codes: 0 success, 1 config or
usage error, 2 partial convergence, 3 a failed check: a `compare` row that
fails (a structural mismatch included) or a `converge` slope fitted outside
SLOPE_RANGE.  Partial convergence takes precedence over a failed check.
"""

from __future__ import annotations

import argparse
import configparser
import errno
import json
import os
import sys

import numpy as np

from .analytic import bo_spectrum
from .eigensolver import (COMPARE_COLUMNS, SLOPE_RANGE, boundary_warning,
                          compare_with_oscillator, convergence_grids, convergence_study,
                          lowest_eigenpairs)
from .grid import assemble_hamiltonian, build_grid
from .potential import ArgumentError, check_count, expression_potential, quadratic_potential
from .probe import discreteness_certificate, essential_spectrum_probe

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_STRUCTURAL = 3  # a failed check: a compare row or a converge slope


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
# No key name appears in two sections, so the name of an argument the
# library refuses finds the one key that supplied it (`main`).
CONFIG_KEYS = {
    "grid": {"n": int, "p": int, "half_widths": _floats, "points": _ints},
    "potential": {"kind": str.strip, "a": _matrix, "b": _matrix, "expression": str,
                  "nonnegative": _boolean},
    "solver": {"h": float, "k": int, "tol": float, "seed": int},
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
    return build_grid(_need(cfg, "grid", "n"), _opt(cfg, "grid", "p", 0),
                      _need(cfg, "grid", "half_widths"), _need(cfg, "grid", "points"))


def _build_potential_from_config(cfg, n: int, p: int):
    kind = _need(cfg, "potential", "kind")
    if kind == "quadratic":
        a = _need(cfg, "potential", "a")
        b = _opt(cfg, "potential", "b")
        if p > 0 and b is None:
            raise ConfigError("potential", "b", "required when p > 0")
        if p == 0 and b is not None:
            raise ConfigError("potential", "b", "given, but [grid] p = 0 declares no y-dimension")
        pot = quadratic_potential(a, b)
        for key, size, axis, declared in (("a", pot.n, "n", n), ("b", pot.p, "p", p)):
            if size != declared:
                raise ConfigError("potential", key, f"{key.upper()} is {size}x{size}, "
                                  f"but [grid] {axis} = {declared}")
        return pot
    if kind == "expression":
        text = _need(cfg, "potential", "expression")
        nonneg = _opt(cfg, "potential", "nonnegative", False)
        return expression_potential(text, n, p, nonnegative=nonneg)
    raise ConfigError("potential", "kind", f"unknown kind {kind!r}")


def _solver_params(cfg, seed_override=None):
    params = {
        "h": _opt(cfg, "solver", "h", 0.1),
        "k": _opt(cfg, "solver", "k", 5),
        "tol": _opt(cfg, "solver", "tol", 1e-6),
        "seed": _opt(cfg, "solver", "seed", 0),
    }
    if params["seed"] < 0:
        raise ConfigError("solver", "seed", "must be a non-negative integer")
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


def _check_out(path) -> None:
    """The ValueError `_write` gives, raised before any solve, when `path`
    is a directory or its directory does not exist; `_write` still reports
    any other failure to open or write it."""
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or os.curdir):
        reason = errno.ENOENT
    else:
        return
    raise ValueError(f"cannot write {path}: {os.strerror(reason)}")


def _write(path, fmt, columns, rows, payload) -> None:
    """Write `rows` under the header `columns` as CSV, or `payload` as JSON;
    ValueError when the file cannot be opened or written."""
    try:
        with open(path, "w") as fh:
            if fmt == "json":
                json.dump(payload, fh, sort_keys=True, indent=2)
                fh.write("\n")
                return
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_cell(v) for v in row) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_solve(cfg, args) -> int:
    grid = _build_grid_from_config(cfg)
    pot = _build_potential_from_config(cfg, grid.n, grid.p)
    params = _solver_params(cfg, args.seed)
    op = assemble_hamiltonian(grid, pot, params["h"])
    result = lowest_eigenpairs(op, params["k"], tol=params["tol"], seed=params["seed"])
    warning = boundary_warning(op, result)
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)
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


def cmd_analytic(cfg, args) -> int:
    # build_grid checks these on the other commands; analytic builds no grid
    n = check_count("n", _need(cfg, "grid", "n"))
    p = check_count("p", _opt(cfg, "grid", "p", 0), least=0)
    pot = _build_potential_from_config(cfg, n, p)
    if pot.kind != "quadratic":
        raise ConfigError("potential", "kind",
                          "analytic oracle requires quadratic form")
    params = _solver_params(cfg, args.seed)
    e_max = _opt(cfg, "analytic", "e_max")
    levels = _opt(cfg, "analytic", "levels", 10 if e_max is None else None)
    if e_max is not None and levels is not None:
        raise ConfigError("analytic", "e_max", "give e_max or levels, not both")
    if levels is not None:
        levels = check_count("levels", levels)
    spec = bo_spectrum(pot.a, pot.b, params["h"], e_max=e_max, k=levels)
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
    params = _solver_params(cfg, args.seed)
    op = assemble_hamiltonian(grid, pot, params["h"])
    report = compare_with_oscillator(op, params["k"], tol=params["tol"],
                                     seed=params["seed"])
    _write(args.out, args.format, COMPARE_COLUMNS, report.rows, {
        "gap_tol": report.gap_tol,
        "rows": [dict(zip(COMPARE_COLUMNS, row)) for row in report.rows],
    })
    if not report.converged:
        print("partial convergence: an eigenpair of the solve did not converge",
              file=sys.stderr)
        return EXIT_PARTIAL
    if report.structural:
        print("structural failure: numeric cluster multiplicities "
              f"{[c.multiplicity for c in report.clusters]} vs analytic level "
              f"multiplicities {[m for _, m in report.levels]}", file=sys.stderr)
    if report.failed:
        print(f"failed levels: {list(report.failed)}", file=sys.stderr)
        return EXIT_STRUCTURAL
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
    sizes = _need(cfg, "converge", "sizes")
    if len(sizes) < 3:
        raise ConfigError("converge", "sizes", "need at least 3 grid sizes")
    # every grid built before the potential and any solve, so a bad grid is
    # refused before a bad potential
    grids = convergence_grids(_need(cfg, "grid", "n"), _opt(cfg, "grid", "p", 0),
                              _need(cfg, "grid", "half_widths"), sizes)
    pot = _build_potential_from_config(cfg, grids[0].n, grids[0].p)
    params = _solver_params(cfg, args.seed)
    study = convergence_study(pot, grids, params["k"], h=params["h"],
                              tol=params["tol"], seed=params["seed"])
    rows = [(j, ref, slope, ok) for j, (ref, slope, ok)
            in enumerate(zip(study.reference, study.slopes, study.passed))]
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
    if study.failed:
        lo, hi = SLOPE_RANGE
        print(f"failed levels: {list(study.failed)}, slopes outside [{lo}, {hi}]",
              file=sys.stderr)
        return EXIT_STRUCTURAL
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
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)
    # numpy's generators take no negative seed
    if args.seed is not None and args.seed < 0:
        parser.error("argument --seed: must be a non-negative integer")
    try:
        if args.out is None:
            raise ConfigError("cli", "--out", "no output path given")
        _check_out(args.out)
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except ArgumentError as exc:
        # the library names the argument it refused: a refusal is filed under
        # the config key of that name, in the one section that has it
        sections = [s for s, keys in CONFIG_KEYS.items() if exc.argument in keys]
        where = f"config error: [{sections[0]}] {exc.argument}: " if sections else "error: "
        print(f"{where}{exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def run() -> None:  # console-script entry
    sys.exit(main())


if __name__ == "__main__":
    run()
