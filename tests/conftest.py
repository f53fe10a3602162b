from functools import lru_cache

import pytest

from wavegrf.pipeline import CovarianceModel


@lru_cache(maxsize=32)
def _model(kernel: str, d: int, dt: int, p: int) -> CovarianceModel:
    return CovarianceModel(kernel=kernel, wavelet=(d, dt), p=p)


@pytest.fixture(scope="session")
def model():
    """Memoized covariance models on the paper boundary, ``model(kernel, d, dt, p)``,
    shared across the whole test session."""
    return _model


@pytest.fixture
def gram_builds(monkeypatch):
    """Shapes of the K-column blocks ``FactoredGram`` is applied to, one per
    dense Gram formed."""
    from wavegrf import kriging
    apply, shapes = kriging.FactoredGram.__call__, []

    def counted(self, v):
        if v.ndim == 2 and v.shape[0] == v.shape[1]:
            shapes.append(v.shape)
        return apply(self, v)

    monkeypatch.setattr(kriging.FactoredGram, "__call__", counted)
    return shapes
