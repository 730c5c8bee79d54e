"""Closed-form spectra of harmonic oscillators, the 3-point stencil's leading
error on their states, and the oscillator's Hermite functions.

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
import scipy.linalg

from .potential import ArgumentError, _form_matrix, check_count, check_h, oscillator_frequencies

__all__ = [
    "AnalyticSpectrum",
    "enumerate_spectrum",
    "bo_spectrum",
    "leading_grid_error",
    "hermite_values",
]

MERGE_RTOL = 1e-9


@dataclass(frozen=True)
class AnalyticSpectrum:
    levels: tuple        # ((energy, multiplicity), ...) strictly ascending
    e_max: object | None  # energy cutoff, if used
    k: int | None        # level-count cutoff, if used
    params: dict         # provenance: h, weights
    states: tuple = ()   # per level, the multi-indices of its states, one
                         # index per weight

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
    """Pairs (energy(idx), idx) over multi-indices idx in N^dim, by ascending
    energy, with multiplicity.  `energy` must not decrease when any index
    grows.  Best-first over a heap, so every energy is yielded before any
    larger one."""
    start = (0,) * dim
    heap = [(energy(start), start)]
    seen = {start}
    while heap:
        e, idx = heapq.heappop(heap)
        yield e, idx
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
    levels: list[tuple] = []  # (energy, [multi-index, ...])
    for e, idx in _ascending_energies(energy, len(w)):
        if e_max is not None and e > limit:
            break
        if levels and same_level(e, levels[-1][0]):
            levels[-1][1].append(idx)
        else:
            if k is not None and len(levels) == k:
                break
            levels.append((e, [idx]))
    return AnalyticSpectrum(
        levels=tuple((e, len(states)) for e, states in levels),
        e_max=e_max,
        k=k,
        params=params,
        states=tuple(tuple(states) for _, states in levels),
    )


def bo_spectrum(a, b=None, h=1.0, e_max=None, k=None) -> AnalyticSpectrum:
    """Spectrum of -h^2 Lap_x - Lap_y + <Ax,x> + <By,y>: the levels of the
    weights (h*w_1, ..., h*w_n, mu_1, ..., mu_p), where w and mu are the
    `oscillator_frequencies` of A and B (omit B, or pass an empty one, for
    p = 0), which take the matrices `quadratic_potential` takes.  `check_h`
    refuses h as every command does."""
    check_h(h)
    w = oscillator_frequencies(a)
    mu = oscillator_frequencies(b, "b") if b is not None and np.size(b) > 0 else ()
    spec = enumerate_spectrum([h * wi for wi in w] + list(mu), e_max=e_max, k=k)
    return AnalyticSpectrum(levels=spec.levels, e_max=e_max, k=k,
                            params={"h": h, "w": w, "mu": mu}, states=spec.states)


def leading_grid_error(a, b, h, spacing, states) -> np.ndarray:
    """Per multi-index of `states`, ordered as `bo_spectrum` orders them (the
    normal modes of A, then of B, each by ascending frequency), the 3-point
    stencil's leading error on a grid of per-axis `spacing`: first-order
    perturbation by its delta^2 d^4 / 12 term, -sum_d s_d delta_d^2 <d_d^4> / 12,
    with s_d = h^2 on x-axes and 1 on y-axes.  The remainder is O(delta^4).

    Each block is U diag(alpha) U^T, by scipy's dsyevd.  Mode j has
    l_j^4 = s / alpha_j, <p_j^2> = a_j = (n_j + 1/2) / l_j^2 and <p_j^4> =
    b_j = 3/4 (2 n_j^2 + 2 n_j + 1) / l_j^4, so that on diagonal and coupled
    blocks alike <d_d^4> = 3 (sum_j U_dj^2 a_j)^2 + sum_j U_dj^4 (b_j - 3 a_j^2)."""
    check_h(h)
    blocks = [(a, "a", h * h)] + ([(b, "b", 1.0)] if b is not None and np.size(b) > 0 else [])
    modes = [(*scipy.linalg.eigh(_form_matrix(m, argument)[0], driver="evd"), s)
             for m, argument, s in blocks]
    axes = sum(alpha.size for alpha, _, _ in modes)
    spacing, indices = np.asarray(spacing, dtype=float), np.asarray(states, dtype=float)
    if spacing.shape != (axes,):
        raise ArgumentError("spacing", f"spacing must give one value per axis, {axes} axes")
    if indices.ndim != 2 or indices.shape[1] != axes:
        raise ArgumentError("states", f"states must be multi-indices of {axes} entries")
    fourth, start = [], 0  # s_d <d_d^4> per state and axis, block by block
    for alpha, u, s in modes:
        n = indices[:, start:start + alpha.size]
        start += alpha.size
        inv_l2 = np.sqrt(alpha / s)
        a_j, b_j = (n + 0.5) * inv_l2, 0.75 * (2 * n * n + 2 * n + 1) * inv_l2**2
        u2 = u * u
        fourth.append(s * (3 * (a_j @ u2.T) ** 2 + (b_j - 3 * a_j**2) @ (u2 * u2).T))
    return -(np.hstack(fourth) * spacing**2).sum(axis=1) / 12


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
