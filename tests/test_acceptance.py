"""Acceptance suite: one test per shipped guarantee, each printing a single
PASS/FAIL line with the measured quantity and its pinned tolerance."""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bospec.analytic import (
    bo_spectrum,
    enumerate_spectrum,
    hermite_values,
)
from bospec.cli import main
from bospec.eigensolver import (
    cluster_multiplicities,
    convergence_grids,
    convergence_study,
    lowest_eigenpairs,
)
from bospec.grid import assemble_hamiltonian, build_grid
from bospec.potential import expression_potential, quadratic_potential
from bospec.probe import (
    CutoffFamily,
    commutator_decay,
    discreteness_certificate,
    essential_spectrum_probe,
    form_inequality_check,
)

from reference import kinetic_operator


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({name}): {detail}")
    assert ok


def test_criterion_01_oscillator_levels():
    t0 = time.perf_counter()
    grid = build_grid(1, 0, [10.0], [1999])
    op = assemble_hamiltonian(grid, quadratic_potential([[1.0]]), 1.0)
    res = lowest_eigenpairs(op, 5, tol=1e-5, seed=0)
    elapsed = time.perf_counter() - t0
    err = np.abs(res.eigenvalues - np.array([1.0, 3.0, 5.0, 7.0, 9.0])).max()
    ok = bool(np.all(res.converged)) and err <= 2e-3 and elapsed <= 30.0
    report(1, "1d oscillator", ok,
           f"max |e_j - (2j+1)| = {err:.2e} (tol 2e-3), {elapsed:.1f}s (cap 30s)")


def test_criterion_02_anisotropic_clusters():
    pot = quadratic_potential([[1.0, 0.0], [0.0, 4.0]])
    # analytic levels (2n1+1) + 2(2n2+1): 3, 5, 7 (x2)
    levels = [(3.0, 1), (5.0, 1), (7.0, 2)]
    target_points = 95
    # fit per-level constants C with |error| ~ C delta^2 on two coarser grids
    ref = np.array([3.0, 5.0, 7.0, 7.0])
    constants = np.zeros(4)
    for size in (31, 63):
        g = build_grid(2, 0, [6.0, 6.0], [size, size])
        op = assemble_hamiltonian(g, pot, 1.0)
        r = lowest_eigenpairs(op, 4, tol=1e-8, seed=0)
        constants = np.maximum(constants,
                               np.abs(r.eigenvalues - ref) / max(g.spacing) ** 2)
    grid = build_grid(2, 0, [6.0, 6.0], [target_points, target_points])
    op = assemble_hamiltonian(grid, pot, 1.0)
    res = lowest_eigenpairs(op, 4, tol=1e-8, seed=0)
    delta = max(grid.spacing)
    clusters = cluster_multiplicities(res.eigenvalues, gap_tol=0.5)
    ok = len(clusters) == 3
    worst = 0.0
    if ok:
        idx = 0
        for cl, (energy, mult) in zip(clusters, levels):
            tol = 1.5 * constants[idx: idx + mult].max() * delta**2
            err = abs(cl.energy - energy)
            worst = max(worst, err / tol)
            ok = ok and err <= tol and cl.multiplicity == mult
            idx += mult
    mult7 = clusters[2].multiplicity if len(clusters) == 3 else None
    report(2, "anisotropic clusters", ok,
           f"3 clusters, level-7 multiplicity {mult7} (want 2), "
           f"worst error/tol = {worst:.2f} (tol fitted 1.5*C*delta^2)")


def test_criterion_03_bo_spectrum_h_half():
    grid = build_grid(1, 1, [6.0, 6.0], [95, 95])
    pot = quadratic_potential([[1.0]], [[1.0]])
    op = assemble_hamiltonian(grid, pot, 0.5)
    res = lowest_eigenpairs(op, 4, tol=1e-7, seed=0)
    clusters = cluster_multiplicities(res.eigenvalues, gap_tol=0.5)
    got = [(round(c.energy, 1), c.multiplicity) for c in clusters]
    spec = bo_spectrum([[1.0]], [[1.0]], h=0.5, e_max=3.5)
    want = [(float(e), m) for e, m in spec.levels]
    err = max(abs(c.energy - w[0]) for c, w in zip(clusters, want)) \
        if len(clusters) == len(want) else np.inf
    ok = got == [(1.5, 1), (2.5, 1), (3.5, 2)] and err <= 2e-2
    report(3, "coupled spectrum at h=1/2", ok,
           f"clusters {got} vs analytic {want}, max error {err:.2e} (tol 2e-2)")


def test_criterion_04_dilation_scaling():
    # eigenvalues of -d^2/dx^2 + lam^2 x^2 scale linearly in lam
    base = None
    worst = 0.0
    for lam in (1.0, 2.0, 4.0):
        grid = build_grid(1, 0, [6.0], [799])
        pot = expression_potential(f"{lam * lam:g}*x1^2", 1, 0, nonnegative=True)
        op = assemble_hamiltonian(grid, pot, 1.0)
        res = lowest_eigenpairs(op, 3, tol=1e-8, seed=0)
        if base is None:
            base = res.eigenvalues.copy()
        ratios = res.eigenvalues / base
        worst = max(worst, float(np.abs(ratios - lam).max() / lam))
    ok = worst <= 0.01
    report(4, "dilation covariance", ok,
           f"max relative deviation of e_j(lam)/e_j(1) from lam: "
           f"{worst:.2e} (tol 1e-2)")


def test_criterion_05_semiclassical_ground():
    worst = 0.0
    for h in (0.4, 0.2, 0.1):
        grid = build_grid(1, 0, [5.0], [799])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]]), h)
        res = lowest_eigenpairs(op, 1, tol=1e-9, seed=0)
        worst = max(worst, abs(float(res.eigenvalues[0]) - h))
    ok = worst <= 1e-3
    report(5, "semiclassical ground state", ok,
           f"max |E_0(h) - h| over h in (0.4, 0.2, 0.1): {worst:.2e} (tol 1e-3)")


def test_criterion_06_enumeration_oracle():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    cases = 0
    while cases < 200:
        dim = rng.randint(1, 3)
        w = [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(dim)]
        e_max = Fraction(rng.randint(5, 50))
        if min(w) < Fraction(1, 2) and e_max > 25:
            e_max = Fraction(25)  # keep the brute-force oracle tractable
        import warnings

        with warnings.catch_warnings():
            # a cutoff drawn below the ground energy is a legitimate case
            warnings.simplefilter("ignore", UserWarning)
            spec = enumerate_spectrum(w, e_max=e_max)
        # independent nested-product oracle
        bounds = [int((e_max / wi - 1) // 2) + 1 for wi in w]
        counts = {}
        for idx in itertools.product(*(range(b + 1) for b in bounds)):
            e = sum((2 * n + 1) * wi for n, wi in zip(idx, w))
            if e <= e_max:
                counts[e] = counts.get(e, 0) + 1
        assert spec.levels == tuple(sorted(counts.items()))
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = cases >= 200 and elapsed <= 10.0
    report(6, "exact enumeration", ok,
           f"{cases} rational cases matched brute force in {elapsed:.1f}s (cap 10s)")


def test_criterion_07_hermite_basis():
    x = np.linspace(-12.0, 12.0, 1201)
    delta = x[1] - x[0]
    vals = hermite_values(20, x)
    gram_defect = float(np.abs(vals @ vals.T * delta - np.eye(21)).max())
    # psi_0 and the Jacobi matrix of the three-term recurrence, the position
    # operator in this basis with sqrt(j/2) at (j-1, j) and (j, j-1), fix an
    # orthonormal family: a wrong recurrence coefficient shows in <psi_i, x psi_j>
    ground = float(np.abs(vals[0] - np.pi ** -0.25 * np.exp(-x * x / 2)).max())
    off = np.sqrt(np.arange(1, 21) / 2)
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    position = float(np.abs((vals * x) @ vals.T * delta - jacobi).max())
    xp = np.linspace(-10, 10, 201)
    signs = (-1.0) ** np.arange(21)[:, None]
    parity = float(np.abs(hermite_values(20, xp[::-1]) - signs * hermite_values(20, xp)).max())
    ok = gram_defect <= 1e-8 and ground <= 1e-15 and position <= 1e-12 and parity <= 1e-12
    report(7, "hermite basis", ok,
           f"gram defect {gram_defect:.1e} (tol 1e-8), ground defect {ground:.1e} "
           f"(tol 1e-15), position-matrix defect {position:.1e} (tol 1e-12), "
           f"parity defect {parity:.1e} (tol 1e-12)")


def test_criterion_08_form_chain():
    ops = [
        assemble_hamiltonian(build_grid(1, 0, [8.0], [199]),
                             quadratic_potential([[1.0]]), 1.0),
        assemble_hamiltonian(build_grid(1, 1, [6.0, 6.0], [47, 47]),
                             quadratic_potential([[2.0]], [[1.0]]), 0.5),
        assemble_hamiltonian(build_grid(1, 0, [8.0], [199]),
                             expression_potential("abs(x1)", 1, 0,
                                                  nonnegative=True), 0.3),
    ]
    # independent reference: the full chain
    # <u,Ku> <= <u,Hu> <= <u,(H+1)u> <= ||(H+1)u|| ||u|| on seeded unit
    # vectors, with H the assembled matrix and K assembled on its own
    total = 0
    violations = 0
    worst = -np.inf  # the largest defect, negative when every link has slack
    for i, op in enumerate(ops):
        kinetic = kinetic_operator(op.grid, op.h)
        rng = np.random.default_rng(100 + i)
        for _ in range(334):
            u = rng.standard_normal(op.dim)
            u /= np.linalg.norm(u)
            hu = op.matrix @ u
            full = float(u @ hu)
            shifted = full + float(u @ u)
            norm_bound = float(np.linalg.norm(hu + u))
            gaps = (float(u @ (kinetic @ u)) - full, full - shifted, shifted - norm_bound)
            defect = max(gaps) / max(1.0, norm_bound)
            worst = max(worst, defect)
            violations += defect > 1e-10
            total += 1
    library = [form_inequality_check(op, trials=334, seed=i).violations
               for i, op in enumerate(ops)]
    ok = total >= 1000 and violations == 0 and library == [0, 0, 0]
    report(8, "quadratic form chain", ok,
           f"{violations} violations in {total} random vectors, worst relative "
           f"defect {worst:.1e} (tol 1e-10); library violations {library}")


def test_criterion_09_discreteness_certificate():
    grid = build_grid(1, 1, [12.0, 12.0], [191, 191])
    pot = quadratic_potential([[1.0]], [[1.0]])  # V = |X|^2
    op = assemble_hamiltonian(grid, pot, 1.0)
    lam = 10.0
    rep = discreteness_certificate(op, lam, radii=[3.0, 5.0, 7.0])
    bounds = [e.lower_bound for e in rep.entries]
    exact = [q * q - lam for q in (3.0, 5.0, 7.0)]
    bounds_ok = bounds == pytest.approx(exact, abs=1e-12)
    respected = all(e.residual >= e.lower_bound for e in rep.entries
                    if e.lower_bound > 0)
    ok = bounds_ok and respected and rep.verdict == "discrete at lambda=10"
    report(9, "confinement certificate", ok,
           f"bounds {bounds} = q^2 - lambda exactly, residuals >= positive "
           f"bounds: {respected}, verdict '{rep.verdict}'")


def test_criterion_10_commutator_decay():
    grid = build_grid(1, 0, [70.0], [1399])
    op = assemble_hamiltonian(grid, quadratic_potential([[1.0]]), 1.0)
    results = commutator_decay(op, CutoffFamily(scales=(4.0, 8.0, 16.0, 32.0)),
                               probes=2, seed=0)
    ests = [e for _, e in results]
    ratios = [b / a for a, b in zip(ests, ests[1:])]
    ok = all(r <= 0.7 for r in ratios)
    report(10, "commutator decay", ok,
           f"octave ratios {[f'{r:.2f}' for r in ratios]} all <= 0.7")


def test_criterion_11_essential_probe():
    grid = build_grid(1, 0, [100.0], [3999])
    reports = essential_spectrum_probe(1.0, grid, [0.0, 1.0, 2.0], [8.0, 16.0, 32.0])
    ok = True
    details = []
    for rep in reports:
        res = [e.residual for e in rep.entries]
        mono = all(b <= a * 1.05 for a, b in zip(res, res[1:]))
        ok = ok and mono and rep.verdict == "essential candidate"
        details.append(f"lam={rep.candidate_lambda:g}: "
                       + "->".join(f"{r:.1e}" for r in res))
    report(11, "essential spectrum probe", ok,
           "residuals decay within 5% band; " + "; ".join(details))


def test_criterion_12_convergence_order():
    pot = quadratic_potential([[1.0]])
    study = convergence_study(pot, convergence_grids(1, 0, [10.0], [250, 500, 1000, 2000]),
                              k=3, tol=1e-9)
    slopes = [float(s) for s in study.slopes]
    ok = all(1.7 <= s <= 2.3 for s in slopes)
    report(12, "second-order convergence", ok,
           f"fitted slopes {[f'{s:.2f}' for s in slopes]} all in [1.7, 2.3]")


def test_criterion_13_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[grid]\nn = 1\np = 0\nhalf_widths = 10\npoints = 499\n\n"
        "[potential]\nkind = quadratic\na = 1\n\n"
        "[solver]\nh = 1.0\nk = 4\ntol = 1e-8\nseed = 7\n")
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    report(13, "run-to-run determinism", ok,
           f"two identical solve runs produced byte-identical CSV "
           f"({len(outs[0])} bytes)")
