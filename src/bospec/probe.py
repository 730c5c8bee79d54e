"""Numerical spectral diagnostics: Zhislin test vectors supported outside
balls, the essential-spectrum probe for the free operator, the confinement
lower-bound certificate, commutator decay of smooth cutoffs, and the kinetic
form-chain check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, GridOperator, axis_eigenpairs, kinetic_operator

__all__ = [
    "CutoffFamily",
    "ProbeEntry",
    "ZhislinReport",
    "FormChainReport",
    "bump",
    "cutoff_profile",
    "make_zhislin_vector",
    "essential_spectrum_probe",
    "discreteness_certificate",
    "commutator_decay",
    "form_inequality_check",
]

# Relative growth from one radius to the next that the essential probe still
# reads as decay.
NOISE_BAND = 0.05
# Largest relative defect a form-chain link may show before it counts as broken.
FORM_TOLERANCE = 1e-10


def bump(t):
    """Smooth compactly supported mollifier: exp(1 - 1/(1-t^2)) on (-1, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def cutoff_profile(r):
    """phi(r): 1 on [0, 1], smooth monotone decay on [1, 2], 0 beyond."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= 1] = 1.0
    mid = (r > 1) & (r < 2)
    out[mid] = bump(r[mid] - 1.0)
    return out


@dataclass(frozen=True)
class CutoffFamily:
    """phi_q(X) = phi(|X| / q) for q in `scales`, phi the profile above."""

    scales: tuple

    def values(self, grid: Grid, q: float) -> np.ndarray:
        return cutoff_profile(grid.node_radii() / q)


@dataclass(frozen=True)
class ProbeEntry:
    radius: float
    residual: float
    lower_bound: float | None = None
    target: float | None = None  # operator-level lambda the residual measures


@dataclass(frozen=True)
class ZhislinReport:
    candidate_lambda: float
    entries: tuple
    verdict: str


def make_zhislin_vector(grid: Grid, radius: float, k, width: float) -> np.ndarray:
    """Normalized e^{i k.X} times a radial bump supported in
    radius + width < |X| < radius + 2*width; complex unless k = 0."""
    spacing = max(grid.spacing)
    if width < 4 * spacing:
        raise ValueError(f"width {width} unresolvable: need >= 4 spacings ({4 * spacing:g})")
    if radius + 2 * width > min(grid.half_widths):
        raise ValueError(
            f"support radius {radius + 2 * width:g} exceeds the box "
            f"(min half-width {min(grid.half_widths)})")
    coords = grid.node_coords()
    r = np.linalg.norm(coords, axis=1)
    envelope = bump(2 * (r - radius - width) / width - 1.0)
    k = np.zeros(grid.dim) if k is None else np.asarray(k, dtype=float)
    if np.any(k != 0):
        v = envelope * np.exp(1j * coords @ k)
    else:
        v = envelope.astype(float)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("bump not resolved by any grid node")
    return v / nrm


def _residual(matrix, v: np.ndarray, lam: float) -> float:
    return float(np.linalg.norm(matrix @ v - lam * v))


def _snap_wavevector(grid: Grid, h: float, lam: float):
    """Wavevector along the first slow dimension with discrete symbol close to
    lam, snapped to multiples of pi/L; returns (k vector, realized lambda)."""
    l0 = grid.half_widths[0]
    delta0 = grid.spacing[0]
    k1 = np.sqrt(lam) / h
    k1 = np.round(k1 * l0 / np.pi) * np.pi / l0
    k = np.zeros(grid.dim)
    k[0] = k1
    realized = h * h * (2 - 2 * np.cos(k1 * delta0)) / delta0**2
    return k, float(realized)


def essential_spectrum_probe(h: float, grid: Grid, lambdas, radii) -> list[ZhislinReport]:
    """For the free operator V = 0, check that lambda >= 0 admits Zhislin-type
    vectors with residuals decaying as the bump widens (width grows with the
    exclusion radius).  A trend needs at least two strictly ascending radii.

    The residual targets the discrete symbol at the snapped wavevector, so the
    trend is not polluted by the O(delta^2) symbol mismatch.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 2 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("need at least two strictly ascending radii")
    free = kinetic_operator(grid, h)
    reports = []
    for lam in lambdas:
        lam = float(lam)
        if lam < 0:
            raise ValueError(f"lambda must be >= 0 for the free operator, got {lam}")
        k, target = _snap_wavevector(grid, h, lam)
        entries = []
        for r in radii:
            v = make_zhislin_vector(grid, r, k, width=r)
            entries.append(ProbeEntry(radius=r, residual=_residual(free, v, target),
                                      target=target))
        res = [e.residual for e in entries]
        decaying = all(b <= a * (1 + NOISE_BAND) for a, b in zip(res, res[1:]))
        verdict = "essential candidate" if decaying else "inconclusive"
        reports.append(ZhislinReport(candidate_lambda=lam,
                                     entries=tuple(entries), verdict=verdict))
    return reports


def discreteness_certificate(op: GridOperator, lam: float, radii) -> ZhislinReport:
    """Lower-bound certificate: any unit vector supported outside B(0, q)
    has residual ||(H - lam) u|| >= inf_{outside B(0,q)} V - lam, since K >= 0.

    Quadratic potentials use the exact exterior infimum lambda_min * q^2;
    expressions use the minimum of V over the grid nodes with |X| > q, which
    bounds every grid vector supported there.  V is the potential `op` was
    assembled from.  Bounds that diverge with q rule out a Zhislin sequence
    at lam.
    """
    pot = op.potential
    if not pot.nonnegative_claimed:
        raise ValueError("certificate requires a potential claimed nonnegative")
    radii = [float(q) for q in radii]
    if not radii:
        raise ValueError("need at least one radius")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly ascending")
    grid = op.grid
    spacing = max(grid.spacing)
    entries = []
    for q in radii:
        width = 0.95 * (min(grid.half_widths) - q) / 2
        if width < 4 * spacing:
            raise ValueError(
                f"radius {q} leaves no room for a resolvable bump in the box")
        if pot.kind == "quadratic":
            inf_v = pot.min_curvature() * q * q
        else:
            inf_v = float(op.potential_values[grid.node_radii() > q].min())
        v = make_zhislin_vector(grid, q, None, width)
        entries.append(ProbeEntry(radius=q, residual=_residual(op.matrix, v, lam),
                                  lower_bound=inf_v - lam, target=lam))
    bounds = [e.lower_bound for e in entries]
    respected = all(e.residual >= e.lower_bound - 1e-9 * max(1.0, abs(e.lower_bound))
                    for e in entries if e.lower_bound > 0)
    increasing = all(b > a for a, b in zip(bounds, bounds[1:]))
    if not any(b > 0 for b in bounds):
        verdict = "inconclusive"
    elif increasing and bounds[-1] > 0 and respected:
        verdict = f"discrete at lambda={lam:g}"
    elif not increasing:
        verdict = "nonconfining"
    else:
        verdict = "bound violated"
    return ZhislinReport(candidate_lambda=lam, entries=tuple(entries),
                         verdict=verdict)


def _resolvent_at_i(matrix, v: np.ndarray, z: float, rtol: float = 1e-8, M=None):
    """w = (H - z)^{-1} v for real v, the real symmetric H = `matrix` and a
    real z below its spectrum, so that H - zI is positive definite and
    scipy's CG solves it in real arithmetic.  M, if given, is a symmetric
    positive definite approximation of (H - zI)^{-1} that CG uses as its
    preconditioner.  The name is kept from the former solve at the point i
    because perfbench's tracer wraps this function by name.

    CG runs at most dim iterations; a solve that scipy reports unconverged,
    or whose true residual ||Hw - zw - v|| exceeds rtol ||v||, raises."""
    dim = matrix.shape[0]
    shifted = spla.LinearOperator((dim, dim), lambda x: matrix @ x - z * x, dtype=float)
    w, info = spla.cg(shifted, v, rtol=rtol, atol=0.0, maxiter=dim, M=M)
    target = rtol * np.linalg.norm(v)
    # a miss scipy reports raises without the product of the residual check
    if info != 0 or np.linalg.norm(matrix @ w - z * w - v) > target:
        raise RuntimeError(
            f"CG solve did not converge to residual {target:.3g} within {dim} iterations")
    return w


def _separable_resolvent(op: GridOperator, z: float):
    """(H - zI)^{-1} as a LinearOperator by per-axis fast diagonalization
    (Lynch, Rice & Thomas, Numer. Math. 6, 1964), or None.

    It is built only when V is a sum of one-variable terms on the grid: its
    node values equal the sum of its per-axis slices through the node m of
    least V, minus (dim - 1) V(m), up to 1e-12 max(1, max |V|).  H - zI is
    then the Kronecker sum of the per-axis tridiagonals T_d = w_d stencil +
    diag(slice_d), less z + (dim - 1) V(m), and the eigendecompositions
    T_d = Q_d diag(lam_d) Q_d^T invert it.  The dense Q_d are kept only while
    they hold at most two grid vectors' worth of entries,
    sum N_d^2 <= 2 prod N_d: never on a 1D grid, and in 2D only if N_0 = N_1."""
    grid = op.grid
    if sum(m * m for m in grid.points) > 2 * grid.size:
        return None
    # array axis a holds dimension dim - 1 - a, since dimension 0 runs fastest
    values = op.potential_values.reshape(grid.points[::-1])
    least = np.unravel_index(np.argmin(values), values.shape)
    slices = [values[least[:a] + (slice(None),) + least[a + 1:]] for a in range(grid.dim)]
    offset = (grid.dim - 1) * values[least]
    gap = np.abs(reduce(np.add.outer, slices) - offset - values).max()
    if gap > 1e-12 * max(1.0, float(np.abs(values).max())):
        return None
    pairs = [axis_eigenpairs(grid, op.h, grid.dim - 1 - a, s) for a, s in enumerate(slices)]
    denominators = reduce(np.add.outer, [lam for lam, _ in pairs]) - (z + offset)

    def apply(r):
        x = r.reshape(denominators.shape)
        for a, (_, q) in enumerate(pairs):  # Q_d^T along each axis
            x = np.moveaxis(np.tensordot(x, q, axes=(a, 0)), -1, a)
        x = x / denominators
        for a, (_, q) in enumerate(pairs):  # Q_d along each axis
            x = np.moveaxis(np.tensordot(x, q, axes=(a, 1)), -1, a)
        return x.ravel()

    return spla.LinearOperator((op.dim, op.dim), apply, dtype=float)


def commutator_decay(op: GridOperator, family: CutoffFamily, probes: int,
                     seed: int = 0) -> list[tuple]:
    """Monte-Carlo lower estimates of ||[H, phi_q] (H - z)^{-1}|| per scale q,
    with z = `op.shift_below_spectrum()` - 1, so H - zI >= 1 for any V.

    This measures the same decay as the resolvent at i: by the resolvent
    identity C R(i) = C R(z) (1 + (i - z) R(i)), and symmetrically, and both
    resolvents have norm <= 1, so each of ||C R(i)|| and ||C R(z)|| bounds
    the other up to the factor 1 + |i - z|; one tends to 0 iff the other does.

    Each probe is a random unit vector v seeded by (seed, probe index); one
    CG solve gives the real w = (H - z)^{-1} v, which every scale shares, so
    all scales are compared on the same probes.  When V is a sum of
    one-variable terms on the grid, CG is preconditioned by the exact inverse
    from `_separable_resolvent`; otherwise it runs unpreconditioned.  The
    commutator of the assembled matrix with Phi = diag(phi_q), H Phi - Phi H
    (the potential cancels exactly), is applied to w, and the max of
    ||[H, phi_q] w|| / ||v|| over probes is reported.  Each estimate is a
    lower estimate of the norm; both tend to 0 as q grows.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    if not family.scales or min(family.scales) <= 0:
        raise ValueError(f"need at least one cutoff scale, all > 0; got {family.scales}")
    z = op.shift_below_spectrum() - 1.0
    inverse = _separable_resolvent(op, z)
    comms = []
    for q in family.scales:
        phi = sp.diags(family.values(op.grid, q))
        comms.append(op.matrix @ phi - phi @ op.matrix)
    best = [0.0] * len(comms)
    for pi in range(probes):
        v = np.random.default_rng((seed, pi)).standard_normal(op.dim)
        v /= np.linalg.norm(v)
        w = _resolvent_at_i(op.matrix, v, z=z, M=inverse)
        best = [max(b, float(np.linalg.norm(comm @ w))) for b, comm in zip(best, comms)]
    return [(float(q), b) for q, b in zip(family.scales, best)]


@dataclass(frozen=True)
class FormChainReport:
    trials: int
    max_violation: float  # largest relative defect of <u, K u> <= <u, H u>
    violations: int       # test vectors whose defect exceeds the tolerance
    tolerance: float


def form_inequality_check(op: GridOperator, trials: int, seed: int = 0) -> FormChainReport:
    """Decide the chain <u, K u> <= <u, H u> <= <u, (H+1) u> <= ||(H+1) u|| ||u||
    for every u, where K = H - diag(V) is the kinetic part; valid whenever V >= 0.

    The second link is ||u||^2 >= 0 and the third is Cauchy-Schwarz, so both
    hold for every u and are not computed.  The first is <u, V u> >= 0.  The
    first of the `trials` test vectors is the unit vector e_m at the node m of
    least V: <e_m, V e_m> = min V <= <u, V u> / <u, u> for every u, so it
    decides the link for every u.  A vector's defect is -<u, V u> / <u, u>,
    divided by max(1, max |V|), and counts as a violation above
    FORM_TOLERANCE; so the link is reported broken iff
    min V < -FORM_TOLERANCE * max(1, max |V|), a bound set by the largest |V|
    on the grid, not by V near its minimum.  The other trials - 1 are seeded
    Gaussian vectors, each costing one weighted sum; their defects never
    exceed that of e_m, so they can add to `violations` but change neither
    `max_violation` nor whether any violation is reported.  They are drawn
    only when min V < 0: otherwise each form is a sum of nonnegative terms
    and each defect is <= 0, so the report is the one the draws would give.
    """
    if not op.potential.nonnegative_claimed:
        raise ValueError(
            "refusing to certify the form chain: potential not claimed nonnegative")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    values = op.potential_values
    scale = max(1.0, float(np.abs(values).max()))
    rng = np.random.default_rng(seed)
    forms = [float(values.min())]
    # with V >= 0 at every node no Gaussian form is negative, even rounded
    draws = trials - 1 if forms[0] < 0 else 0
    for _ in range(draws):
        squares = np.square(rng.standard_normal(op.dim))
        forms.append(float(squares @ values) / float(squares.sum()))
    defects = [-form / scale for form in forms]
    return FormChainReport(trials=trials, max_violation=max(0.0, *defects),
                           violations=sum(d > FORM_TOLERANCE for d in defects),
                           tolerance=FORM_TOLERANCE)
