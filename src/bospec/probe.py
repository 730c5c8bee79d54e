"""Numerical spectral diagnostics: Zhislin test vectors supported outside
balls, the essential-spectrum probe for the free operator, the confinement
lower-bound certificate, commutator decay of smooth cutoffs, and the kinetic
form-chain check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .grid import Grid, GridOperator, kinetic_operator, separable_inverse

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


def make_zhislin_vector(grid: Grid, radius: float, k, width: float,
                        radii=None) -> np.ndarray:
    """Normalized e^{i k.X} times a radial bump supported in
    radius + width < |X| < radius + 2*width; complex unless k = 0.  `radii`,
    if given, is `grid.node_radii()`, for callers that make several vectors
    on one grid."""
    spacing = max(grid.spacing)
    if width < 4 * spacing:
        raise ValueError(f"width {width} unresolvable: need >= 4 spacings ({4 * spacing:g})")
    if radius + 2 * width > min(grid.half_widths):
        raise ValueError(
            f"support radius {radius + 2 * width:g} exceeds the box "
            f"(min half-width {min(grid.half_widths)})")
    if radii is None:
        radii = grid.node_radii()
    envelope = bump(2 * (radii - radius - width) / width - 1.0)
    k = np.zeros(grid.dim) if k is None else np.asarray(k, dtype=float)
    if np.any(k != 0):
        # the phase k.X only where the bump is nonzero, from the per-axis
        # coordinates of those nodes
        support = np.flatnonzero(envelope)
        index = np.unravel_index(support, grid.points, order="F")
        phase = sum(kd * grid.axis_coords(d)[index[d]] for d, kd in enumerate(k) if kd != 0)
        v = np.zeros(grid.size, dtype=complex)
        v[support] = envelope[support] * np.exp(1j * phase)
    else:
        v = envelope
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("bump not resolved by any grid node")
    return v / nrm


def _residual(matrix, v: np.ndarray, lam: float) -> float:
    """||(H - lam) v|| for the real H = `matrix`; a complex v is taken as its
    real and imaginary parts, since a real sparse matrix times a complex
    vector copies the matrix into complex numbers first."""
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    return float(np.linalg.norm([np.linalg.norm(matrix @ x - lam * x) for x in parts]))


def _snap_wavevector(grid: Grid, h: float, lam: float):
    """Wavevector along the first slow dimension with discrete symbol close to
    lam, snapped to multiples of pi/L; returns (k vector, realized lambda)."""
    l0 = grid.half_widths[0]
    k = np.zeros(grid.dim)
    k[0] = np.round(np.sqrt(lam) / h * l0 / np.pi) * np.pi / l0
    return k, float(grid.symbol(h, 0, k[0] * grid.spacing[0]))


def _checked_lambda(lam) -> float:
    """A probe's lambda as a float, if finite; else ValueError."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    return lam


def _checked_radii(radii, least: int) -> list:
    """The radii of either probe mode as floats: at least `least` of them
    (1 or 2), all finite, strictly ascending and none negative; else
    ValueError."""
    radii = [float(r) for r in radii]
    if not all(math.isfinite(r) for r in radii):
        raise ValueError("radii must be finite")
    if len(radii) < least:
        raise ValueError("need at least one radius" if least == 1
                         else "need at least two strictly ascending radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly ascending")
    if radii[0] < 0:
        raise ValueError("radii must be nonnegative")
    return radii


def essential_spectrum_probe(h: float, grid: Grid, lambdas, radii) -> list[ZhislinReport]:
    """For the free operator V = 0, check that lambda >= 0 admits Zhislin-type
    vectors with residuals decaying as the bump widens (its width equals the
    radius).  A trend needs at least two strictly ascending radii, all >= 0.

    The residual targets the discrete symbol at the snapped wavevector, so the
    trend is not polluted by the O(delta^2) symbol mismatch.
    """
    radii = _checked_radii(radii, least=2)
    free = kinetic_operator(grid, h)
    node_radii = grid.node_radii()
    reports = []
    for lam in lambdas:
        lam = _checked_lambda(lam)
        if lam < 0:
            raise ValueError(f"lambda must be >= 0 for the free operator, got {lam}")
        k, target = _snap_wavevector(grid, h, lam)
        entries = []
        for r in radii:
            v = make_zhislin_vector(grid, r, k, width=r, radii=node_radii)
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
    at lam.  Radii must be nonnegative and strictly ascending: for q < 0 the
    exterior is the whole box, which lambda_min * q^2 does not bound.
    """
    pot = op.potential
    if not pot.nonnegative_claimed:
        raise ValueError("certificate requires a potential claimed nonnegative")
    lam = _checked_lambda(lam)
    radii = _checked_radii(radii, least=1)
    grid = op.grid
    spacing = max(grid.spacing)
    node_radii = grid.node_radii()
    entries = []
    for q in radii:
        width = 0.95 * (min(grid.half_widths) - q) / 2
        if width < 4 * spacing:
            raise ValueError(
                f"radius {q} leaves no room for a resolvable bump in the box")
        if pot.kind == "quadratic":
            inf_v = pot.min_curvature() * q * q
        else:
            inf_v = float(op.potential_values[node_radii > q].min())
        v = make_zhislin_vector(grid, q, None, width, radii=node_radii)
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


def _resolvent_at_i(matrix, v: np.ndarray, z: float, rtol: float = 1e-8, inverse=None):
    """w = (H - z)^{-1} v for real v, the real symmetric H = `matrix` and a
    real z below its spectrum, so that H - zI is positive definite.  With
    `inverse`, the exact (H - zI)^{-1} of `grid.separable_inverse`, w is one
    apply of it; otherwise scipy's CG solves in real arithmetic, from zero and
    for at most dim iterations.  The name is kept from the former solve at
    the point i because perfbench's tracer wraps this function by name.

    A w whose true residual ||Hw - zw - v|| exceeds rtol ||v||, or a CG solve
    that scipy reports unconverged, raises."""
    dim = matrix.shape[0]
    if inverse is not None:
        w, info = inverse(v), 0
    else:
        shifted = spla.LinearOperator((dim, dim), lambda x: matrix @ x - z * x, dtype=float)
        w, info = spla.cg(shifted, v, rtol=rtol, atol=0.0, maxiter=dim)
    target = rtol * np.linalg.norm(v)
    # a miss scipy reports raises without the product of the residual check
    if info != 0 or np.linalg.norm(matrix @ w - z * w - v) > target:
        how = "by the separable inverse" if inverse is not None else f"within {dim} CG iterations"
        raise RuntimeError(f"resolvent solve did not converge to residual {target:.3g} {how}")
    return w


def commutator_decay(op: GridOperator, family: CutoffFamily, probes: int,
                     seed: int = 0) -> list[tuple]:
    """Monte-Carlo lower estimates of ||[H, phi_q] (H - z)^{-1}|| per scale q,
    with z = `op.shift_below_spectrum()` - 1, so H - zI >= 1 for any V.

    This measures the same decay as the resolvent at i: by the resolvent
    identity C R(i) = C R(z) (1 + (i - z) R(i)), and symmetrically, and both
    resolvents have norm <= 1, so each of ||C R(i)|| and ||C R(z)|| bounds
    the other up to the factor 1 + |i - z|; one tends to 0 iff the other does.

    Each probe is a random unit vector v seeded by (seed, probe index); one
    solve gives the real w = (H - z)^{-1} v, which every scale shares, so all
    scales are compared on the same probes.  w is one apply of the exact
    `grid.separable_inverse` when that admits the operator (on numpy's BLAS,
    like the norms after it), else an unpreconditioned CG solve.  The
    commutator with Phi = diag(phi_q) is applied matrix-free, [H, Phi] w =
    H (phi w) - phi (H w), the potential cancelling in exact arithmetic, with
    H w shared by every scale; the max of ||[H, phi_q] w|| / ||v|| over
    probes is reported.  Each estimate is a lower estimate of the norm; both
    tend to 0 as q grows.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    if not family.scales or min(family.scales) <= 0:
        raise ValueError(f"need at least one cutoff scale, all > 0; got {family.scales}")
    z = op.shift_below_spectrum() - 1.0
    inverse = separable_inverse(op, z)
    radii = op.grid.node_radii()
    phis = [cutoff_profile(radii / q) for q in family.scales]
    best = [0.0] * len(phis)
    for pi in range(probes):
        v = np.random.default_rng((seed, pi)).standard_normal(op.dim)
        v /= np.linalg.norm(v)
        w = _resolvent_at_i(op.matrix, v, z=z, inverse=inverse)
        hw = op.matrix @ w
        best = [max(b, float(np.linalg.norm(op.matrix @ (phi * w) - phi * hw)))
                for b, phi in zip(best, phis)]
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
