import numpy as np
import pytest


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class ConstantRng:
    """Stand-in stream returning a fixed uniform value, for forcing branches."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


class CountingRng:
    """Wraps a real stream; counts uniforms consumed and binomial draws taken."""

    def __init__(self, seed: int):
        self.inner = make_rng(seed)
        self.consumed = 0
        self.binomials = 0

    def random(self, size=None):
        self.consumed += 1 if size is None else int(size)
        return self.inner.random(size)

    def binomial(self, n, p):
        self.binomials += 1
        return self.inner.binomial(n, p)


@pytest.fixture
def rng():
    return make_rng(12345)
