"""Benchmark of bospec: runs one workload in this process as a closed loop of
passes (each pass runs the workload's operations back to back), checks every
operation's outputs, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload cli-2d --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 1

Run it from a checkout of the repository; it imports ``bospec`` from the
checkout's ``src`` and fails when that is missing.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` runs one untraced pass, then traced passes,
and reports the per-layer metrics from the spans (see ``tracing.py``).  The
number of passes is fixed by ``--seconds`` and the workload's nominal pass
time, never by the clock, so a seed always gives the same operations and the
same count of attempted and failed ones; a run lasts about ``--seconds`` on
a 2-core host.  At least one (traced) pass always runs.

Each run appends a record to ``.bench_runs/records.jsonl``: the environment
(nproc, BLAS threads read from the loaded library, versions, git commit, grid
signatures), per-pass wall times and check results, the sha256 of every
output, and whether outputs and exact counts agree within the run and with
earlier runs of the same workload and seed.  Traced runs also write their
spans to ``.bench_runs/spans-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
WORK_DIR = ROOT / ".bench_work"
SETUP_SAMPLES = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, kind, key): kind selects the summary table
PER_LAYER = {
    "eigensolver.lowest_eigenpairs_s": ("s", "inclusive_s", "eigensolver.lowest_eigenpairs"),
    "eigensolver.calls": ("count", "calls", "eigensolver.lowest_eigenpairs"),
    "eigensolver.iterations": ("count", "counts", "iterations"),
    "eigensolver.converged_frac": ("ratio", "derived", "converged_frac"),
    "eigensolver.convergence_study_s": ("s", "inclusive_s", "eigensolver.convergence_study"),
    "eigensolver.self_s": ("s", "self_s", "eigensolver"),
    "probe.commutator_decay_s": ("s", "inclusive_s", "probe.commutator_decay"),
    "probe.resolvent_solves": ("count", "calls", "probe.resolvent_solve"),
    "probe.form_inequality_check_s": ("s", "inclusive_s", "probe.form_inequality_check"),
    "probe.discreteness_certificate_s": ("s", "inclusive_s", "probe.discreteness_certificate"),
    "probe.essential_spectrum_probe_s": ("s", "inclusive_s", "probe.essential_spectrum_probe"),
    "probe.self_s": ("s", "self_s", "probe"),
    "grid.node_coords_s": ("s", "inclusive_s", "grid.Grid.node_coords"),
    "grid.node_coords_calls": ("count", "calls", "grid.Grid.node_coords"),
    "grid.build_grid_s": ("s", "inclusive_s", "grid.build_grid"),
    "grid.assemble_hamiltonian_s": ("s", "inclusive_s", "grid.assemble_hamiltonian"),
    "grid.nnz": ("count", "counts", "nnz"),
    "grid.self_s": ("s", "self_s", "grid"),
    "potential.evaluate_many_s": ("s", "inclusive_s", "potential.Potential.evaluate_many"),
    "potential.points": ("count", "counts", "points"),
    "potential.self_s": ("s", "self_s", "potential"),
    "analytic.bo_spectrum_s": ("s", "inclusive_s", "analytic.bo_spectrum"),
    "analytic.self_s": ("s", "self_s", "analytic"),
    "cli.main_s": ("s", "inclusive_s", "cli.main"),
    "cli.self_s": ("s", "self_s", "cli"),
    "trace.spans": ("count", "derived", "spans"),
    "trace.overhead_s": ("s", "derived", "overhead_s"),
    # from the output checks of every pass: failed / attempted operations and
    # the largest |eigenvalue - exact level| (0 when no eigenvalue is computed)
    "fail_frac": ("ratio", "check", "fail_frac"),
    "max_abs_err": ("energy", "check", "max_abs_err"),
}
# exact counts that must repeat from pass to pass and run to run
COUNTS = ("eigensolver.iterations", "eigensolver.calls", "probe.resolvent_solves",
          "grid.node_coords_calls", "grid.nnz", "potential.points")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="cli-2d, solve-3d, probe-2d, or all (each in a "
                             "fresh process)")
    parser.add_argument("--seed", type=int, required=True,
                        help="non-negative; pass i uses seed * 1000 + i")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import bospec, prepare the inputs, print the "
                             "monotonic clock and exit (one set-up sample)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def prepare_process() -> int:
    """Cap BLAS threads at nproc and put the checkout's src first on the
    path; must run before numpy is imported.  Returns nproc."""
    if not (SRC / "bospec" / "__init__.py").is_file():
        raise SystemExit(f"error: no bospec sources under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    return nproc


def import_workloads():
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bospec
    import workloads

    if Path(bospec.__file__).resolve().parent != SRC / "bospec":
        raise SystemExit(f"error: imported bospec from {bospec.__file__}, not {SRC}")
    return bospec, workloads


def setup_sample(args) -> float:
    """Seconds from spawning a fresh interpreter until it has imported bospec
    and written the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up sample failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def blas_threads() -> dict:
    """Threads in effect per loaded OpenBLAS, asked from the library itself."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(nproc, bospec, workload) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bospec": bospec.__version__,
        "git_commit": git_commit(),
        "grid_signatures": workload.signatures(),
    }


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index`: solver, CLI and probe seeds all take it, so a run
    averages over solver starts and the same --seed repeats the same inputs."""
    return seed * 1000 + index


def pass_count(seconds: float, pass_s: float) -> int:
    """Passes of a run: as many nominal passes as fit in `seconds`."""
    return max(1, int(seconds // pass_s))


def run_passes(workload, seed, count, tracer):
    """Closed loop of `count` passes.  With a tracer, the first is untraced
    and the rest are traced with the same seed sequence, the first traced pass
    repeating the untraced one's seed to measure the tracing overhead."""
    passes = []

    def one_pass(index, traced):
        s = pass_seed(seed, index)
        t0 = time.perf_counter()
        raw = workload.run_pass(s)
        wall = time.perf_counter() - t0
        record = {"seed": s, "wall_s": wall, "traced": traced,
                  "outcomes": workload.check(raw)}
        if traced:
            record["spans"] = tracer.take()
        passes.append(record)

    if tracer is not None:
        one_pass(0, False)
        count = max(1, count - 1)
        tracer.install()
    try:
        for index in range(count):
            one_pass(index, tracer is not None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return passes


def layer_metrics(passes, summarize) -> tuple[dict, list]:
    """Per-layer values of each traced pass, and for the run the median over
    traced passes (exact counts: the first traced pass)."""
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    per_pass = []
    for p in passes:
        if not p["traced"]:
            continue
        summary = summarize(p["spans"])
        counts = summary["counts"]
        pairs = counts.get("pairs", 0)
        summary["derived"] = {
            "converged_frac": counts.get("converged", 0) / pairs if pairs else 0.0,
            "spans": summary["spans"],
            "overhead_s": p["wall_s"] - untraced_wall,
        }
        per_pass.append({name: summary[kind].get(key, 0)
                         for name, (_, kind, key) in PER_LAYER.items()
                         if kind != "check"})
    metrics = {name: statistics.median(values[name] for values in per_pass)
               for name in per_pass[0]}
    metrics.update({name: per_pass[0][name] for name in COUNTS})
    return metrics, per_pass


def check_metrics(passes) -> dict:
    outcomes = [o for p in passes for o in p["outcomes"]]
    errors = [e for o in outcomes for e in o.abs_errors]
    return {
        "fail_frac": sum(o.failed for o in outcomes) / len(outcomes),
        "max_abs_err": max(errors, default=0.0),
    }


def earlier_records(workload) -> list:
    path = RUNS_DIR / "records.jsonl"
    if not path.is_file():
        return []
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if r["workload"] == workload]


def agreement(records) -> dict:
    """Where the same pass seed ran more than once, in this run or an earlier
    one of the workload, did the output digests (every pass) and the exact
    counts (traced passes) repeat?  None when no pass seed ran twice."""
    found = {}
    for kind, seeds_key, values_key in (("outputs", "pass_seeds", "digests"),
                                        ("counts", "traced_seeds", "counts")):
        groups = {}
        for r in records:
            for seed, values in zip(r[seeds_key], r[values_key]):
                groups.setdefault(seed, []).append(values)
        repeated = [g for g in groups.values() if len(g) > 1]
        differ = sorted({key for g in repeated for values in g[1:]
                         for key in values if values[key] != g[0].get(key)})
        found[f"{kind}_repeat"] = not differ if repeated else None
        found[f"{kind}_differ"] = differ
    return found


def run_all(args, names) -> int:
    """Run every workload, each in a fresh process, and print each metric."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        for metric, entry in results[name]["metrics"].items():
            print(f"{name:10s} {metric:34s} {entry['value']:<22} {entry['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = prepare_process()

    if args.setup_only:
        workdir = WORK_DIR / f"setup-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            _, workloads = import_workloads()
            workloads.WORKLOADS[args.workload](workdir)
            print(time.monotonic(), flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    bospec, workloads = import_workloads()
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)} or 'all'")
    setup = [] if args.trace else [setup_sample(args) for _ in range(SETUP_SAMPLES)]
    import tracing

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        env = environment(nproc, bospec, workload)
        tracer = tracing.Tracer(bospec) if args.trace else None
        passes = run_passes(workload, args.seed,
                            pass_count(args.seconds, workload.pass_s), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = not any(o.silent for o in outcomes)
    checks = check_metrics(passes)
    per_pass_counts = []
    if args.trace:
        values, per_pass_counts = layer_metrics(passes, tracing.summarize)
        values.update(checks)
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}
        RUNS_DIR.mkdir(exist_ok=True)
        spans = [p["spans"] for p in passes if p["traced"]]
        (RUNS_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "counts"],
                        "passes": spans}))
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    traced = [p for p in passes if p["traced"]]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "setup_samples_s": setup,
        "pass_seeds": [p["seed"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "traced_seeds": [p["seed"] for p in traced],
        "peak_rss_mb": peak_rss_mb, "checks": checks,
        "digests": [{o.op: o.digest for o in p["outcomes"]} for p in passes],
        "counts": [{k: c[k] for k in COUNTS} for c in per_pass_counts],
        "outcomes": [[{"op": o.op, "flagged": o.flagged, "silent": o.silent}
                      for o in p["outcomes"]] for p in passes],
        "metrics": metrics,
    }
    agree = agreement(earlier_records(args.workload) + [record])
    record["agreement"] = agree
    RUNS_DIR.mkdir(exist_ok=True)
    with open(RUNS_DIR / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{failed}/{attempted} operations failed, correct={correct}, "
          f"agreement={agree}", file=sys.stderr)
    for o in outcomes[: len(passes[0]["outcomes"])]:
        for kind, msgs in (("flagged", o.flagged), ("silent", o.silent)):
            for msg in msgs:
                print(f"  {o.op} [{kind}]: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
