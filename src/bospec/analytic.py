"""Closed-form spectra of harmonic oscillators and the oscillator's Hermite
functions.

Energy levels come from weighted multi-index sums sum_i (2 n_i + 1) w_i, with
the slow-dimension weights carrying the semiclassical factor h.  Enumeration is
best-first over multi-indices, so no level below the cutoff is missed.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .potential import ArgumentError, check_count, oscillator_frequencies

__all__ = [
    "AnalyticSpectrum",
    "oscillator_frequencies",
    "enumerate_spectrum",
    "bo_spectrum",
    "frequency_spectrum",
    "hermite_values",
]

MERGE_RTOL = 1e-9


@dataclass(frozen=True)
class AnalyticSpectrum:
    levels: tuple        # ((energy, multiplicity), ...) strictly ascending
    e_max: object | None  # energy cutoff, if used
    k: int | None        # level-count cutoff, if used
    params: dict         # provenance: h, weights

    def flat(self, count: int | None = None) -> list:
        """Eigenvalues repeated by multiplicity, optionally truncated."""
        if count is not None:
            count = check_count("count", count, least=0)
        out = []
        for e, mult in self.levels:
            out.extend([e] * mult)
            if count is not None and len(out) >= count:
                return out[:count]
        return out


def _ascending_energies(energy, dim: int):
    """Energies energy(idx) over multi-indices idx in N^dim, ascending, with
    multiplicity.  `energy` must not decrease when any index grows.
    Best-first over a heap, so every energy is yielded before any larger
    one."""
    start = (0,) * dim
    heap = [(energy(start), start)]
    seen = {start}
    while heap:
        e, idx = heapq.heappop(heap)
        yield e
        for d in range(dim):
            succ = idx[:d] + (idx[d] + 1,) + idx[d + 1:]
            if succ not in seen:
                seen.add(succ)
                heapq.heappush(heap, (energy(succ), succ))


def _is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool)
               for v in values)


def enumerate_spectrum(w, e_max=None, k=None) -> AnalyticSpectrum:
    """Levels sum_i (2 n_i + 1) w_i with multiplicities, below a cutoff.

    Exactly one of e_max (energy cutoff, inclusive) and k (number of distinct
    levels) must be given.  When every weight is rational the
    enumeration and merging are exact; otherwise coinciding levels are merged
    with 1e-9 relative tolerance.
    """
    w = list(w)
    # a NaN weight makes every energy NaN, which no cutoff stops, and an
    # infinite one gives infinite levels
    if not w or not all(0 < float(x) < math.inf for x in w):
        raise ValueError("weights must be positive, finite and nonempty")
    if (e_max is None) == (k is None):
        raise ValueError("give exactly one of e_max or k")
    # no energy exceeds a NaN or infinite cutoff, so the enumeration would
    # never stop
    if e_max is not None and not math.isfinite(e_max):
        raise ArgumentError("e_max", f"e_max must be finite, got {e_max}")
    if k is not None:
        k = check_count("k", k)
    exact = _is_exact(w)
    w = [Fraction(x) if exact else float(x) for x in w]

    def energy(idx):
        return sum((2 * n + 1) * wi for n, wi in zip(idx, w))

    def same_level(e, level):
        if exact:
            return e == level
        return abs(e - level) <= MERGE_RTOL * max(1.0, abs(level))

    ground = energy((0,) * len(w))
    params = {"w": tuple(w)}
    if e_max is not None and ground > e_max * (1 + (0 if exact else MERGE_RTOL)):
        warnings.warn(f"cutoff {e_max} lies below the ground energy {ground}")
        return AnalyticSpectrum(levels=(), e_max=e_max, k=None, params=params)

    if e_max is not None:
        limit = e_max if exact else e_max + MERGE_RTOL * max(1.0, abs(float(e_max)))
    levels: list[list] = []  # [energy, multiplicity]
    for e in _ascending_energies(energy, len(w)):
        if e_max is not None and e > limit:
            break
        if levels and same_level(e, levels[-1][0]):
            levels[-1][1] += 1
        else:
            if k is not None and len(levels) == k:
                break
            levels.append([e, 1])
    return AnalyticSpectrum(
        levels=tuple((e, m) for e, m in levels),
        e_max=e_max,
        k=k,
        params=params,
    )


def bo_spectrum(a, b=None, h=1.0, e_max=None, k=None) -> AnalyticSpectrum:
    """Spectrum of -h^2 Lap_x - Lap_y + <Ax,x> + <By,y>: weighted sums with
    combined weight list (h*w_1, ..., h*w_n, mu_1, ..., mu_p)."""
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    mu = oscillator_frequencies(b, "b") if b is not None and np.size(b) > 0 else ()
    return frequency_spectrum(oscillator_frequencies(a), mu, h, e_max=e_max, k=k)


def frequency_spectrum(w, mu, h, e_max=None, k=None) -> AnalyticSpectrum:
    """`bo_spectrum` from the frequencies w of A and mu of B, as
    `oscillator_frequencies` gives them (and `Potential.frequencies` holds
    them): the levels of the weights (h*w_1, ..., h*w_n, mu_1, ..., mu_p).
    An h that is not positive and finite gives a weight that
    `enumerate_spectrum` refuses."""
    combined = [h * wi for wi in w] + list(mu)
    spec = enumerate_spectrum(combined, e_max=e_max, k=k)
    return AnalyticSpectrum(levels=spec.levels, e_max=e_max, k=k,
                            params={"h": h, "w": w, "mu": tuple(mu)})


# ---------------------------------------------------------------------------
# Hermite functions
# ---------------------------------------------------------------------------

def hermite_values(max_order: int, x) -> np.ndarray:
    """Normalized Hermite functions, orders 0..max_order, at the points x.

    Uses the stable normalized three-term recurrence
    psi_{p+1} = x sqrt(2/(p+1)) psi_p - sqrt(p/(p+1)) psi_{p-1}.
    """
    max_order = check_count("max_order", max_order, least=0)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.zeros((max_order + 1, x.size))
    vals[0] = np.pi ** -0.25 * np.exp(-x * x / 2)
    if max_order >= 1:
        vals[1] = x * np.sqrt(2.0) * vals[0]
    for p in range(1, max_order):
        vals[p + 1] = (x * np.sqrt(2.0 / (p + 1)) * vals[p]
                       - np.sqrt(p / (p + 1)) * vals[p - 1])
    return vals
