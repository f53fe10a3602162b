import pytest

from wavegrf.pipeline import cached_model


@pytest.fixture(scope="session")
def model():
    """Memoized covariance models, shared across the whole test session."""
    return cached_model


@pytest.fixture
def gram_builds(monkeypatch):
    """Shapes of the K-column blocks ``FactoredGram`` is applied to, one per
    dense Gram formed; the kept Gram is dropped first."""
    from wavegrf import kriging
    monkeypatch.setattr(kriging, "_GRAM", (None,) * 5)
    apply, shapes = kriging.FactoredGram.__call__, []

    def counted(self, v):
        if v.ndim == 2 and v.shape[0] == v.shape[1]:
            shapes.append(v.shape)
        return apply(self, v)

    monkeypatch.setattr(kriging.FactoredGram, "__call__", counted)
    return shapes
