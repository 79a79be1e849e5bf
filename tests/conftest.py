import dataclasses

import numpy as np
import pytest

from istlab.ist import from_clifford_module
from istlab.kspace import AntilinearOperator
from istlab.sm import quaternion, represent, sm_algebra
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


def sm_dense_images(n):
    """The basis and involution images of the Standard-Model algebra at n generations, each a
    dense ``sm.represent`` matrix, in ``sm_algebra``'s label order: the dense route its
    operators are checked against.  Built with the element types ``sm`` builds them with."""
    units = {"1": np.eye(2, dtype=complex), "i": quaternion(1j, 0), "j": quaternion(0, 1),
             "k": quaternion(0, 1j)}
    basis, involution = [], []
    for label in sm_algebra(1).labels:
        kind, name = label.split(":")
        lam, q, m = 0, np.zeros((2, 2)), np.zeros((3, 3), dtype=complex)
        if kind == "c":
            lam = 1j if name == "i" else 1
        elif kind == "h":
            q = units[name]
        else:
            m[int(name[-2]), int(name[-1])] = 1j if name[0] == "i" else 1
        basis.append(represent(lam, q, m, n))
        involution.append(represent(np.conj(lam), q.conj().T, m.conj().T, n))
    return basis, involution


def zero_signs_moved(got, want) -> int:
    """How many float parts of got differ from want's in their bytes, after asserting got ==
    want with equal dtype and shape, and that each such part is a zero whose sign moved."""
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
    g, w = (np.ascontiguousarray(x).reshape(-1).view(np.float64) for x in (got, want))
    moved = g.view(np.uint64) != w.view(np.uint64)
    assert (g[moved] == 0).all()
    return int(moved.sum())
