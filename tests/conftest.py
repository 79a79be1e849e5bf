import dataclasses

import numpy as np
import pytest

from istlab.ist import from_clifford_module
from istlab.kspace import AntilinearOperator
from istlab.verify import cached_module, random_yukawas, supported_signatures  # noqa: F401


@pytest.fixture
def module_of():
    """Cached Clifford module factory (modules are immutable by convention)."""
    return cached_module


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def nudged_south_triple():
    """Cl(1,3) south with D = 0 and J moved by 6.5e-11 E, E anticommuting with chi as J does
    and max|E| = 1.  Every axiom passes, the worst at 9.42e-11; read a second time under a
    relative Frobenius rule, J^x = kap J was "not proportional" for this draw."""
    t = from_clifford_module(cached_module(1, 3), "south", dirac=np.zeros((4, 4)))
    rng = np.random.default_rng(113)
    E = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    E = E - t.chi @ E @ t.chi
    return dataclasses.replace(t, cc=AntilinearOperator(t.cc.mat + 6.5e-11 * E / np.abs(E).max()))
