import numpy as np
import pytest

from istlab.verify import cached_module, random_yukawas, supported_signatures  # noqa: F401


@pytest.fixture
def module_of():
    """Cached Clifford module factory (modules are immutable by convention)."""
    return cached_module


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
