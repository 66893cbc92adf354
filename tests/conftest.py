import pytest

from wavekernel import gen_synthetic
from wavekernel.cli import write_series


@pytest.fixture
def series_file(tmp_path):
    """30 seasonal blocks of P = 12, noise 0.3, seed 5."""
    path = tmp_path / "series.csv"
    write_series(path, gen_synthetic("seasonal_ar", 30, 12, 0.3, seed=5))
    return path


@pytest.fixture
def smoke_file(tmp_path):
    """20 seasonal blocks of P = 12, noise 0.3, seed 1."""
    path = tmp_path / "smoke.csv"
    write_series(path, gen_synthetic("seasonal_ar", 20, 12, 0.3, seed=1))
    return path
