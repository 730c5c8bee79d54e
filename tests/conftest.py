# Import the package before any test module imports numpy, so a
# BOSPEC_THREADS cap reaches the BLAS library this process loads.
import bospec  # noqa: F401
