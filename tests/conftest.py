# Import the package before any test module imports numpy, so a
# BOSPEC_THREADS cap reaches the BLAS library this process loads.
import bospec  # noqa: F401
import pytest

from bospec import grid


@pytest.fixture
def record_band_matrix(monkeypatch):
    """A list that gains one entry per build of H by grid._band_matrix."""
    built = []
    band_matrix = grid._band_matrix
    monkeypatch.setattr(grid, "_band_matrix", lambda *args: built.append(1) or band_matrix(*args))
    return built
