"""Numerical spectral diagnostics: Zhislin test vectors supported outside
balls, the essential-spectrum probe for the free operator, the confinement
lower-bound certificate, commutator decay of smooth cutoffs for a separable
V, and the kinetic form-chain check.  No probe assembles H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import blas

from .grid import (Grid, GridOperator, _band_apply, _norm, _shifted_product,
                   separable_inverse)
from .potential import ArgumentError, check_count, check_h

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
    return _bump_over(np.array(t, dtype=float))


def _bump_over(t):
    """`bump` of the float array t, written over t: formed on the support
    -1 < t < 1 only (the nodes where |t| < 1), so no float array the size of
    t is allocated."""
    inside = t > -1
    inside &= t < 1
    ti = t[inside]
    t.fill(0.0)
    t[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return t


def cutoff_profile(r):
    """phi(r): 1 on [0, 1], smooth monotone decay on [1, 2], 0 beyond."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= 1] = 1.0
    mid = (r > 1) & (r < 2)
    # a fresh output: written over r, which spares `CutoffFamily.values` one
    # grid vector per scale, it raised probe-2d's peak RSS by 0.2 MB, the
    # allocator placing the profiles differently
    out[mid] = _bump_over(r[mid] - 1.0)
    return out


@dataclass(frozen=True)
class CutoffFamily:
    """phi_q(X) = phi(|X| / q) for q in `scales`, phi the profile above."""

    scales: tuple

    def values(self, grid: Grid, q: float, radii=None) -> np.ndarray:
        """phi_q at the grid nodes; `radii`, if given, is `grid.node_radii()`,
        for callers that take several scales on one grid."""
        return cutoff_profile((grid.node_radii() if radii is None else radii) / q)


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
    radius + width < |X| < radius + 2*width; complex unless k = 0.  k has one
    component per grid dimension, or is None for 0.  `radii`, if given, is
    `grid.node_radii()`, for callers that make several vectors on one grid.

    e^{i k.X} is the product of the per-axis e^{i k_d x_d} over the nonzero
    components of k, each broadcast along its axis of `Grid.nodes`: one
    complex exponential per node of an axis, not one per grid node."""
    k = np.zeros(grid.dim) if k is None else np.asarray(k, dtype=float)
    if k.shape != (grid.dim,):
        raise ValueError(f"wavevector k must be a vector of {grid.dim} components, "
                         f"one per grid dimension; got shape {k.shape}")
    _check_room(grid, radius, width)
    if radii is None:
        radii = grid.node_radii()
    # the bump's argument 2 (|X| - radius - width) / width - 1, in place
    t = np.subtract(radii, radius)
    t -= width
    t *= 2
    t /= width
    t -= 1.0
    envelope = _bump_over(t)
    waves = [np.exp(1j * (kd * grid.axis_coords(d))).reshape(
                 [-1 if e == d else 1 for e in range(grid.dim)])
             for d, kd in enumerate(k) if kd != 0]
    v = envelope
    if waves:
        v = np.empty(grid.size, dtype=complex)
        nodes = np.multiply(grid.nodes(envelope), waves[0], out=grid.nodes(v))
        for wave in waves[1:]:
            nodes *= wave
    nrm = _norm(v)
    if nrm == 0:
        raise ValueError("bump not resolved by any grid node")
    v /= nrm
    return v


def _check_room(grid: Grid, radius: float, width: float) -> None:
    """Refuse, as ArgumentError of `radii`, a bump of `make_zhislin_vector`
    narrower than 4 spacings or reaching past the box."""
    spacing, half_width = max(grid.spacing), min(grid.half_widths)
    if width < 4 * spacing or radius + 2 * width > half_width:
        raise ArgumentError("radii", f"radius {radius:g} leaves no room for a resolvable bump "
                            f"in the box: need width {width:g} >= {4 * spacing:g} (4 spacings) "
                            f"and support radius {radius + 2 * width:g} <= {half_width:g} "
                            "(min half-width)")


def _residual(apply, v: np.ndarray, lam: float) -> float:
    """||(H - lam) v|| for the real H whose product with a real vector is
    `apply` (see `_shifted_product`); a complex v is taken as its real and
    imaginary parts, which the real apply takes as strided views, both in
    the same two work vectors."""
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    product, scratch = np.empty(v.size), np.empty(v.size)
    return math.hypot(*(_norm(_shifted_product(apply, x, lam, product, scratch)) for x in parts))


def _snap_wavevector(grid: Grid, h: float, lam: float):
    """Wavevector along the first slow dimension with discrete symbol close to
    lam, snapped to multiples of pi/L; returns (k vector, realized lambda)."""
    l0 = grid.half_widths[0]
    k = np.zeros(grid.dim)
    k[0] = np.round(np.sqrt(lam) / h * l0 / np.pi) * np.pi / l0
    return k, float(grid.symbol(h, 0, k[0] * grid.spacing[0]))


def _checked_lambda(lam) -> float:
    """A probe's lambda as a float, if finite; else ArgumentError of
    `lambdas`."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise ArgumentError("lambdas", f"lambda must be finite, got {lam}")
    return lam


def _checked_radii(radii, least: int) -> list:
    """The radii of either probe mode as floats: at least `least` of them
    (1 or 2), all finite, strictly ascending and none negative; else
    ArgumentError."""
    radii = [float(r) for r in radii]
    if not all(math.isfinite(r) for r in radii):
        raise ArgumentError("radii", "radii must be finite")
    if len(radii) < least:
        raise ArgumentError("radii", "need at least one radius" if least == 1
                            else "need at least two strictly ascending radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ArgumentError("radii", "radii must be strictly ascending")
    if radii[0] < 0:
        raise ArgumentError("radii", "radii must be nonnegative")
    return radii


def essential_spectrum_probe(h: float, grid: Grid, lambdas, radii) -> list[ZhislinReport]:
    """For the free operator V = 0, check that lambda >= 0 admits Zhislin-type
    vectors with residuals decaying as the bump widens (its width equals the
    radius).  A trend needs at least two strictly ascending radii, all >= 0,
    each of whose bumps the grid holds (`_check_room`, before any is built).

    The residual targets the discrete symbol at the snapped wavevector, so the
    trend is not polluted by the O(delta^2) symbol mismatch.
    """
    radii = _checked_radii(radii, least=2)
    check_h(h)
    for r in radii:
        _check_room(grid, r, r)
    # the free operator's product from its stencil, V = 0: no matrix is built
    free = partial(_band_apply, grid, h, 0.0)
    node_radii = grid.node_radii()
    reports = []
    for lam in lambdas:
        lam = _checked_lambda(lam)
        if lam < 0:
            raise ArgumentError("lambdas", f"lambda must be >= 0 for the free operator, got {lam}")
        k, target = _snap_wavevector(grid, h, lam)
        # each vector is freed once its residual is taken
        entries = [ProbeEntry(radius=r, target=target, residual=_residual(
                       free, make_zhislin_vector(grid, r, k, width=r, radii=node_radii), target))
                   for r in radii]
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
    node_radii = grid.node_radii()
    entries = []
    for q in radii:
        width = 0.95 * (min(grid.half_widths) - q) / 2
        _check_room(grid, q, width)
        if pot.kind == "quadratic":
            inf_v = pot.min_curvature() * q * q
        else:
            inf_v = float(op.potential_values[node_radii > q].min())
        # the vector is freed once its residual is taken
        v = make_zhislin_vector(grid, q, None, width, radii=node_radii)
        entries.append(ProbeEntry(radius=q, residual=_residual(op.apply, v, lam),
                                  lower_bound=inf_v - lam, target=lam))
        del v
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


def _resolvent_at_i(op: GridOperator, v: np.ndarray, z: float, inverse, rtol=1e-8):
    """w = (H - z)^{-1} v for real v, H = `op` and a real z below its
    spectrum, as one apply of `inverse`, the exact (H - zI)^{-1} of
    `grid.separable_inverse`: no H is built.  The name is kept from the
    former solve at the point i because perfbench's tracer wraps this
    function by name.

    A w whose true residual r = Hw - zw - v (by `op.apply`, in two work
    vectors allocated once w is formed) exceeds rtol ||v|| raises
    RuntimeError naming ||r||: the inverse's full axis eigenbasis carries an
    error of about ulp times the axis norm, which a steep V makes large."""
    w = inverse(v)
    residual = _shifted_product(op.apply, w, z, np.empty(v.size), np.empty(v.size))
    residual -= v
    missed, target = _norm(residual), rtol * _norm(v)
    # a NaN residual fails the check too
    if not missed <= target:
        raise RuntimeError(f"the separable inverse missed its residual check: "
                           f"||(H - z) w - v|| = {missed:.3g} > {target:.3g}")
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
    `grid.separable_inverse` (`_resolvent_at_i`), so V must be a sum of
    one-variable terms on the grid; any other V raises ValueError before the
    first solve.  No H is assembled: the commutator with Phi = diag(phi_q)
    is applied matrix-free, [H, Phi] w = H (phi w) - phi (H w), each H by
    `GridOperator.apply`, the potential cancelling in exact arithmetic; the
    max of ||[H, phi_q] w|| / ||v|| over probes is reported.  Each estimate
    is a lower estimate of the norm; both tend to 0 as q grows.

    Besides the phi_q (`CutoffFamily.values`, from one table of node radii)
    and the inverse's axis eigenvectors, a probe holds at most four grid
    vectors at once: v and the inverse's rotated vector and factor while w
    is solved, then w and three work vectors reused for every scale (see
    `_commutator_norms`); each is freed before the next probe is drawn.
    """
    probes = check_count("probes", probes)
    # a NaN scale gives a cutoff 0 everywhere and an infinite one a cutoff 1
    # everywhere: either commutes with H, and its estimate would read 0
    if not family.scales or not all(0 < q < math.inf for q in family.scales):
        raise ValueError(f"need at least one cutoff scale, all positive and finite; "
                         f"got {family.scales}")
    z = op.shift_below_spectrum() - 1.0
    inverse = separable_inverse(op, z)
    if inverse is None:
        raise ValueError("commutator_decay needs a V that is a sum of one-variable terms "
                         "on the grid")
    radii = op.grid.node_radii()
    phis = [family.values(op.grid, q, radii=radii) for q in family.scales]
    del radii
    best = [0.0] * len(phis)
    for pi in range(probes):
        v = np.random.default_rng((seed, pi)).standard_normal(op.dim)
        v /= _norm(v)
        w = _resolvent_at_i(op, v, z=z, inverse=inverse)
        # the probe vector is freed once its resolvent is checked, and w once
        # its commutators are taken
        del v
        norms = _commutator_norms(op, w, phis)
        del w
        best = [max(b, n) for b, n in zip(best, norms)]
    return [(float(q), b) for q, b in zip(family.scales, best)]


def _commutator_norms(op: GridOperator, w: np.ndarray, phis) -> list:
    """||[H, phi] w|| = ||H (phi w) - phi (H w)|| per phi in `phis`, in that
    order of operations, in three work vectors reused for every phi: phi w,
    the product and the apply's scratch.  H w is applied anew for each phi
    into the vector phi w vacates, so that no fourth work vector holds it
    across the scales."""
    pw, product, scratch = np.empty(op.dim), np.empty(op.dim), np.empty(op.dim)
    norms = []
    for phi in phis:
        op.apply(np.multiply(phi, w, out=pw), out=product, scratch=scratch)
        product -= np.multiply(phi, op.apply(w, out=pw, scratch=scratch), out=pw)
        norms.append(_norm(product))
    return norms


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
    trials = check_count("trials", trials)
    values = op.potential_values
    scale = max(1.0, float(np.abs(values).max()))
    rng = np.random.default_rng(seed)
    forms = [float(values.min())]
    # with V >= 0 at every node no Gaussian form is negative, even rounded
    draws = trials - 1 if forms[0] < 0 else 0
    for _ in range(draws):
        squares = np.square(rng.standard_normal(op.dim))
        # a weighted sum on scipy's BLAS, not numpy's
        forms.append(float(blas.ddot(squares, values)) / float(squares.sum()))
    defects = [-form / scale for form in forms]
    return FormChainReport(trials=trials, max_violation=max(0.0, *defects),
                           violations=sum(d > FORM_TOLERANCE for d in defects),
                           tolerance=FORM_TOLERANCE)
