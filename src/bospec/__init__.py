"""bospec: spectral solver and analytic oracle for Born-Oppenheimer
Hamiltonians -h^2 Lap_x - Lap_y + V(x, y).

BOSPEC_THREADS caps the BLAS/OpenMP threads.  The cap is set here, before the
submodules import numpy and so load the BLAS library, which reads its thread
count once at load; explicit OMP/OPENBLAS/MKL_NUM_THREADS settings win.  A
program that imported numpy first gets a RuntimeWarning: its numpy BLAS is
not capped.
"""

import os as _os
import sys as _sys


def _apply_thread_cap() -> None:
    cap = _os.environ.get("BOSPEC_THREADS")
    if not cap:
        return
    if "numpy" in _sys.modules:
        import warnings

        warnings.warn("BOSPEC_THREADS cannot cap the BLAS threads of numpy, which was "
                      "imported before bospec: import bospec first, or set "
                      "OPENBLAS_NUM_THREADS", RuntimeWarning, stacklevel=2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(var, cap)


_apply_thread_cap()

from .analytic import (
    AnalyticSpectrum,
    bo_spectrum,
    enumerate_spectrum,
    oscillator_frequencies,
)
from .eigensolver import (
    MultiplicityCluster,
    SpectrumResult,
    boundary_warning,
    cluster_multiplicities,
    compare_with_oscillator,
    convergence_study,
    lowest_eigenpairs,
)
from .grid import (
    Grid,
    GridOperator,
    assemble_hamiltonian,
    build_grid,
)
from .potential import (
    Potential,
    expression_potential,
    parse_potential,
    quadratic_potential,
)
from .probe import (
    CutoffFamily,
    ZhislinReport,
    commutator_decay,
    discreteness_certificate,
    essential_spectrum_probe,
    form_inequality_check,
    make_zhislin_vector,
)

__version__ = "0.1.0"
