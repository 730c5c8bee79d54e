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

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_STRUCTURAL = 3

H_MAX_DEFAULT = 1.0


class ConfigError(Exception):
    def __init__(self, section: str, key: str, message: str):
        super().__init__(f"[{section}] {key}: {message}")
        self.section = section
        self.key = key


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise ConfigError("config", "path", f"cannot read {path}")
    return cfg


def _get(cfg, section, key, conv, default=None, required=False):
    if not cfg.has_section(section):
        if required:
            raise ConfigError(section, key, "missing section")
        return default
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(section, key, "missing key")
        return default
    raw = cfg.get(section, key)
    try:
        return conv(raw)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(section, key, f"cannot parse {raw!r}: {exc}") from exc


def _floats(raw: str) -> list:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _ints(raw: str) -> list:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _matrix(raw: str):
    import numpy as np

    rows = [[float(tok) for tok in row.replace(",", " ").split()]
            for row in raw.split(";") if row.strip()]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("rows have inconsistent lengths")
    return np.array(rows)


def _build_grid_from_config(cfg):
    from .grid import build_grid

    n = _get(cfg, "grid", "n", int, required=True)
    p = _get(cfg, "grid", "p", int, default=0)
    half_widths = _get(cfg, "grid", "half_widths", _floats, required=True)
    points = _get(cfg, "grid", "points", _ints, required=True)
    try:
        return build_grid(n, p, half_widths, points)
    except ValueError as exc:
        raise ConfigError("grid", "points", str(exc)) from exc


def _build_potential_from_config(cfg, n: int, p: int):
    from . import potential as potmod

    kind = _get(cfg, "potential", "kind", str, required=True).strip()
    if kind == "quadratic":
        a = _get(cfg, "potential", "a", _matrix, required=True)
        b = _get(cfg, "potential", "b", _matrix) if p > 0 else None
        if p > 0 and b is None:
            raise ConfigError("potential", "b", "required when p > 0")
        try:
            return potmod.quadratic_potential(a, b)
        except ValueError as exc:
            raise ConfigError("potential", "a", str(exc)) from exc
    if kind == "expression":
        text = _get(cfg, "potential", "expression", str, required=True)
        nonneg = _get(cfg, "potential", "nonnegative",
                      lambda s: s.strip().lower() in ("1", "true", "yes"),
                      default=False)
        try:
            return potmod.expression_potential(text, n, p, nonnegative=nonneg)
        except ValueError as exc:
            raise ConfigError("potential", "expression", str(exc)) from exc
    raise ConfigError("potential", "kind", f"unknown kind {kind!r}")


def _solver_params(cfg, seed_override=None):
    h = _get(cfg, "solver", "h", float, default=0.1)
    if not 0 < h <= H_MAX_DEFAULT:
        raise ConfigError("solver", "h", f"must lie in (0, {H_MAX_DEFAULT}]")
    params = {
        "h": h,
        "k": _get(cfg, "solver", "k", int, default=5),
        "tol": _get(cfg, "solver", "tol", float, default=1e-6),
        "max_iter": _get(cfg, "solver", "max_iter", int, default=None),
        "seed": _get(cfg, "solver", "seed", int, default=0),
        "gap_tol": _get(cfg, "solver", "gap_tol", float, default=None),
    }
    if seed_override is not None:
        params["seed"] = seed_override
    return params


def _output_target(cfg, args):
    fmt = args.format or _get(cfg, "output", "format", str, default="csv")
    fmt = fmt.strip().lower()
    if fmt not in ("csv", "json"):
        raise ConfigError("output", "format", f"unknown format {fmt!r}")
    path = args.out or _get(cfg, "output", "path", str, default=None)
    if path is None:
        raise ConfigError("output", "path", "no output path given (use --out)")
    return fmt, path


def _json_dump(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _write_spectrum(result, fmt, path) -> None:
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("index,eigenvalue,residual,converged\n")
            for i, (e, r, c) in enumerate(zip(result.eigenvalues,
                                              result.residuals, result.converged)):
                fh.write(f"{i},{e:.17g},{r:.17g},{str(bool(c)).lower()}\n")
    else:
        _json_dump({
            "eigenvalues": [float(e) for e in result.eigenvalues],
            "residuals": [float(r) for r in result.residuals],
            "converged": [bool(c) for c in result.converged],
            "iterations": result.iterations,
            "h": result.h,
            "grid_signature": result.grid_signature,
        }, path)


def _boundary_warning(op, result) -> None:
    """Warn when V on the box boundary is within 10% of the spectral window,
    the largest converged eigenvalue; unconverged pairs set no window."""
    import numpy as np

    converged = result.eigenvalues[result.converged]
    if converged.size == 0:
        return
    window = float(converged.max())
    coords = op.grid.node_coords()
    mask = np.zeros(op.dim, dtype=bool)
    for d in range(op.grid.dim):
        axis = op.grid.axis_coords(d)
        mask |= np.isclose(np.abs(coords[:, d]), axis[-1])
    min_v = float(op.potential_values[mask].min())
    if min_v < 1.1 * window:
        print(f"warning: min boundary V = {min_v:g} is below the spectral "
              f"window {window:g} + 10%; enlarge the box", file=sys.stderr)


def cmd_solve(cfg, args) -> int:
    from .eigensolver import lowest_eigenpairs
    from .grid import assemble_hamiltonian

    grid = _build_grid_from_config(cfg)
    pot = _build_potential_from_config(cfg, grid.n, grid.p)
    params = _solver_params(cfg, args.seed)
    fmt, path = _output_target(cfg, args)
    op = assemble_hamiltonian(grid, pot, params["h"])
    result = lowest_eigenpairs(op, params["k"], tol=params["tol"],
                               max_iter=params["max_iter"], seed=params["seed"])
    _boundary_warning(op, result)
    _write_spectrum(result, fmt, path)
    return EXIT_OK if result.all_converged else EXIT_PARTIAL


def _analytic_cutoff(cfg):
    e_max = _get(cfg, "analytic", "e_max", float, default=None)
    levels = _get(cfg, "analytic", "levels", int, default=None)
    if e_max is None and levels is None:
        levels = 10
    if e_max is not None and levels is not None:
        raise ConfigError("analytic", "e_max", "give e_max or levels, not both")
    return e_max, levels


def _write_analytic(spec, fmt, path) -> None:
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("energy,multiplicity\n")
            for e, m in spec.levels:
                fh.write(f"{float(e):.17g},{m}\n")
    else:
        params = {key: (float(v) if isinstance(v, (int, float)) else
                        [float(x) for x in v])
                  for key, v in spec.params.items()}
        _json_dump({
            "params": params,
            "cutoff": {"e_max": None if spec.e_max is None else float(spec.e_max),
                       "k": spec.k},
            "levels": [[float(e), m] for e, m in spec.levels],
        }, path)


def cmd_analytic(cfg, args) -> int:
    from .analytic import bo_spectrum, dilate_spectrum

    grid_n = _get(cfg, "grid", "n", int, required=True)
    grid_p = _get(cfg, "grid", "p", int, default=0)
    pot = _build_potential_from_config(cfg, grid_n, grid_p)
    if pot.kind != "quadratic":
        raise ConfigError("potential", "kind",
                          "analytic oracle requires quadratic form")
    params = _solver_params(cfg, args.seed)
    e_max, levels = _analytic_cutoff(cfg)
    fmt, path = _output_target(cfg, args)
    spec = bo_spectrum(pot.a, pot.b, params["h"], e_max=e_max, k=levels)
    if args.dilate is not None:
        if args.dilate <= 0:
            raise ConfigError("cli", "--dilate", "must be positive")
        spec = dilate_spectrum(spec, args.dilate)
    _write_analytic(spec, fmt, path)
    return EXIT_OK


def _fit_error_constants(pot, half_widths, target_points, h, k, seed, tol):
    """Per-eigenvalue constants C with |error| ~ C * delta^2, fitted on two
    coarser grids against the analytic reference.  Returns the constants, the
    reference and whether every calibration pair converged."""
    import numpy as np

    from .analytic import bo_spectrum
    from .eigensolver import lowest_eigenpairs
    from .grid import assemble_hamiltonian, build_grid

    ref = np.asarray(bo_spectrum(pot.a, pot.b, h, k=k + 2).flat(k), dtype=float)
    base = max(target_points)
    sizes = sorted({max(31, base // 4), max(63, base // 2)})
    if len(sizes) == 1:
        sizes.append(sizes[0] * 2 + 1)
    constants = np.zeros(k)
    converged = True
    for size in sizes:
        grid = build_grid(pot.n, pot.p, half_widths, [size] * pot.dim)
        op = assemble_hamiltonian(grid, pot, h)
        res = lowest_eigenpairs(op, k, tol=tol, seed=seed)
        converged = converged and res.all_converged
        delta = max(grid.spacing)
        err = np.abs(res.eigenvalues[:k] - ref)
        constants = np.maximum(constants, err / delta**2)
    return constants, ref, converged


def cmd_compare(cfg, args) -> int:
    import numpy as np

    from .analytic import bo_spectrum
    from .eigensolver import cluster_multiplicities, lowest_eigenpairs
    from .grid import assemble_hamiltonian

    grid = _build_grid_from_config(cfg)
    pot = _build_potential_from_config(cfg, grid.n, grid.p)
    if pot.kind != "quadratic":
        raise ConfigError("potential", "kind",
                          "comparison requires a quadratic potential")
    params = _solver_params(cfg, args.seed)
    fmt, path = _output_target(cfg, args)
    k = params["k"]

    op = assemble_hamiltonian(grid, pot, params["h"])
    result = lowest_eigenpairs(op, k, tol=params["tol"],
                               max_iter=params["max_iter"], seed=params["seed"])
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

    # calibration is at least as tight as the solve it judges
    constants, _, calibrated = _fit_error_constants(
        pot, grid.half_widths, grid.points, params["h"], total, params["seed"],
        tol=min(params["tol"], 1e-8))
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

    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("level,analytic_energy,numeric_energy,abs_error,"
                     "analytic_multiplicity,numeric_multiplicity,tolerance,pass\n")
            for li, ae, ne, err, am, nm, tl, ok in rows:
                ne_s = "" if ne is None else f"{ne:.17g}"
                err_s = "" if err is None else f"{err:.17g}"
                fh.write(f"{li},{ae:.17g},{ne_s},{err_s},{am},{nm},"
                         f"{tl:.17g},{str(ok).lower()}\n")
    else:
        _json_dump({
            "gap_tol": gap_tol,
            "rows": [{
                "level": li, "analytic_energy": ae, "numeric_energy": ne,
                "abs_error": err, "analytic_multiplicity": am,
                "numeric_multiplicity": nm, "tolerance": tl, "pass": ok,
            } for li, ae, ne, err, am, nm, tl, ok in rows],
        }, path)
    if structural:
        print(f"structural failure: {len(clusters)} numeric clusters vs "
              f"{len(levels)} analytic levels", file=sys.stderr)
        return EXIT_STRUCTURAL
    if not (result.all_converged and calibrated):
        print("partial convergence: an eigenpair of the solve or of its error "
              "calibration did not converge", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_probe(cfg, args) -> int:
    from .grid import assemble_hamiltonian
    from .probe import discreteness_certificate, essential_spectrum_probe

    if not cfg.has_section("probe"):
        raise ConfigError("probe", "", "missing section")
    lambdas = _get(cfg, "probe", "lambdas", _floats, required=True)
    if not lambdas:
        raise ConfigError("probe", "lambdas", "empty lambda list")
    radii = _get(cfg, "probe", "radii", _floats, required=True)
    mode = _get(cfg, "probe", "mode", str, default="certificate").strip()
    params = _solver_params(cfg, args.seed)
    fmt, path = _output_target(cfg, args)
    grid = _build_grid_from_config(cfg)

    reports = []
    if mode == "essential":
        reports = essential_spectrum_probe(params["h"], grid, lambdas, radii)
    elif mode == "certificate":
        pot = _build_potential_from_config(cfg, grid.n, grid.p)
        op = assemble_hamiltonian(grid, pot, params["h"])
        samples = _get(cfg, "probe", "probes", int, default=2000)
        for lam in lambdas:
            reports.append(discreteness_certificate(
                op, pot, lam, radii, samples=samples, seed=params["seed"]))
    else:
        raise ConfigError("probe", "mode", f"unknown mode {mode!r}")

    entries = []
    for rep in reports:
        for e in rep.entries:
            entries.append({
                "lambda": rep.candidate_lambda,
                "radius_or_scale": e.radius,
                "residual": e.residual,
                "lower_bound": e.lower_bound,
                "verdict": rep.verdict,
            })
    if fmt == "json":
        _json_dump(entries, path)
    else:
        with open(path, "w") as fh:
            fh.write("lambda,radius_or_scale,residual,lower_bound,verdict\n")
            for e in entries:
                lb = "" if e["lower_bound"] is None else f"{e['lower_bound']:.17g}"
                fh.write(f"{e['lambda']:.17g},{e['radius_or_scale']:.17g},"
                         f"{e['residual']:.17g},{lb},{e['verdict']}\n")
    return EXIT_OK


def cmd_converge(cfg, args) -> int:
    from .eigensolver import convergence_study

    grid_n = _get(cfg, "grid", "n", int, required=True)
    grid_p = _get(cfg, "grid", "p", int, default=0)
    half_widths = _get(cfg, "grid", "half_widths", _floats, required=True)
    sizes = _get(cfg, "converge", "sizes", _ints, required=True)
    if len(sizes) < 3:
        raise ConfigError("converge", "sizes", "need at least 3 grid sizes")
    pot = _build_potential_from_config(cfg, grid_n, grid_p)
    params = _solver_params(cfg, args.seed)
    fmt, path = _output_target(cfg, args)
    reference = None
    ref_mode = _get(cfg, "converge", "reference", str, default="auto").strip()
    if ref_mode == "fd_exact":
        from .grid import build_grid

        grid = build_grid(grid_n, grid_p, half_widths, [sizes[-1]] * (grid_n + grid_p))
        reference = _fd_exact_levels(grid, params["h"], params["k"])
    study = convergence_study(pot, half_widths, sizes, params["k"],
                              h=params["h"], reference=reference,
                              tol=params["tol"], max_iter=params["max_iter"],
                              seed=params["seed"])
    rows = []
    for j, slope in enumerate(study.slopes):
        ok = slope is not None and 1.7 <= slope <= 2.3
        rows.append((j, study.reference[j], slope, ok))
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("level,reference,slope,pass\n")
            for j, ref, slope, ok in rows:
                s = "n/a" if slope is None else f"{slope:.6g}"
                fh.write(f"{j},{ref:.17g},{s},{str(ok).lower()}\n")
    else:
        _json_dump({
            "deltas": list(study.deltas),
            "errors": study.errors.tolist(),
            "rows": [{"level": j, "reference": ref, "slope": slope, "pass": ok}
                     for j, ref, slope, ok in rows],
        }, path)
    if not study.converged.all():
        print("partial convergence: an eigenpair did not converge on some grid "
              "size; the slopes are unreliable", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _fd_exact_levels(grid, h: float, k: int):
    """k smallest exact eigenvalues of the discrete free operator: heap
    enumeration of sums of per-dimension stencil eigenvalues."""
    import heapq

    import numpy as np

    per_dim = []
    for d in range(grid.dim):
        m = grid.points[d]
        delta = grid.spacing[d]
        weight = h * h if d < grid.n else 1.0
        modes = weight * (2 - 2 * np.cos(np.arange(1, m + 1) * np.pi / (m + 1))) / delta**2
        per_dim.append(np.sort(modes))

    start = (0,) * grid.dim

    def energy(idx):
        return sum(per_dim[d][i] for d, i in enumerate(idx))

    heap = [(energy(start), start)]
    seen = {start}
    out = []
    while heap and len(out) < k:
        e, idx = heapq.heappop(heap)
        out.append(float(e))
        for d in range(grid.dim):
            if idx[d] + 1 < grid.points[d]:
                succ = idx[:d] + (idx[d] + 1,) + idx[d + 1:]
                if succ not in seen:
                    seen.add(succ)
                    heapq.heappush(heap, (energy(succ), succ))
    return out


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
    parser = argparse.ArgumentParser(
        prog="bospec",
        description="Spectral solver and analytic oracle for Born-Oppenheimer "
                    "Hamiltonians -h^2 Lap_x - Lap_y + V(x, y)")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--dilate", type=float, default=None,
                        help="scale analytic energies by this factor")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)
    try:
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
