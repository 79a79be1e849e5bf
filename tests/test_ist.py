import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_yukawas, supported_signatures
from istlab import ist, ncforms
from istlab.clifford import extract_signs, measure_signs
from istlab.ist import (
    FiniteAlgebra,
    IndefiniteTriple,
    check_axioms,
    first_order,
    fluctuate,
    from_clifford_module,
    gauge_unitary,
    opposite,
    order_zero,
    scalar_algebra,
    triple_dims,
)
from istlab.kspace import AntilinearOperator, KreinForm
from istlab.sm import build_sm
from istlab.tensor import tensor_ist


def south_triple(module_of, q, p, dirac=None):
    return from_clifford_module(module_of(q, p), "south", dirac=dirac)


def test_axioms_pass_for_module_triple(module_of):
    t = south_triple(module_of, 1, 3)  # D = gamma^1
    report = check_axioms(t)
    assert report.ok
    assert report.worst <= 1e-12


def test_axioms_fail_for_even_dirac(module_of):
    m = module_of(1, 3)
    t = from_clifford_module(m, "south", dirac=m.chi)
    report = check_axioms(t)
    assert not report.ok
    assert "dirac_odd" in report.failures()


def test_axioms_fail_for_inhomogeneous_cc(module_of):
    m = module_of(1, 3)
    t = from_clifford_module(m, "south")
    # J+ is odd here; adding the even gamma^1 J+ mixes the parities
    broken = AntilinearOperator(t.cc.mat + 0.3 * m.gammas[0] @ t.cc.mat)
    bad = IndefiniteTriple(
        form=t.form, chi=t.chi, cc=broken, dirac=t.dirac,
        algebra=t.algebra, sigma=t.sigma,
    )
    report = check_axioms(bad)
    assert not report.ok
    assert "cc_homogeneous" in report.failures()


def test_axiom_gate_names_the_failing_triple(module_of):
    m = module_of(1, 3)
    good = from_clifford_module(m, "south")
    bad = from_clifford_module(m, "south", dirac=m.chi)
    for fn in (triple_dims, ncforms.one_forms, ncforms.junk_two_forms):
        with pytest.raises(ValueError, match="^triple fails axioms: .*dirac_odd"):
            fn(bad)
    with pytest.raises(ValueError, match="^first factor fails axioms: .*dirac_odd"):
        tensor_ist(bad, good)
    with pytest.raises(ValueError, match="^second factor fails axioms: .*dirac_odd"):
        tensor_ist(good, bad)


def test_triple_dims_of_conventions(module_of):
    # the physical manifold surrogate: West Cl(3,1) has (n, m) = (6, 4)
    west = from_clifford_module(module_of(3, 1), "west")
    assert check_axioms(west).ok
    assert triple_dims(west) == (6, 4)


def test_triple_signs_match_module_signs(module_of):
    for q, p in supported_signatures(6):
        m = module_of(q, p)
        for conv in ("east", "west", "south", "north"):
            t = from_clifford_module(m, conv)
            assert measure_signs(t.form, t.cc, t.chi) == extract_signs(m, conv)


def test_triple_dims_invariant_under_krein_unitary(module_of, rng):
    t = south_triple(module_of, 1, 3)
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A = X - t.form.adjoint(X)  # Krein-anti-self-adjoint
    # exponentiate by scaling-and-squaring free Taylor series
    U = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 30):
        term = term @ (0.2 * A) / k
        U = U + term
    Uinv = np.linalg.inv(U)
    moved = IndefiniteTriple(
        form=t.form,
        chi=U @ t.chi @ Uinv,
        cc=AntilinearOperator(U @ t.cc.mat @ np.conj(Uinv)),
        dirac=U @ t.dirac @ Uinv,
        algebra=scalar_algebra(4),
        sigma=t.sigma,
    )
    assert check_axioms(moved).ok
    assert triple_dims(moved) == triple_dims(t)


def test_opposite_is_antiautomorphism(module_of, rng):
    t = south_triple(module_of, 2, 2)
    n = t.dim
    assert_allclose(opposite(t, np.eye(n)), np.eye(n), atol=1e-12)
    for _ in range(5):
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = opposite(t, X @ Y)
        rhs = opposite(t, Y) @ opposite(t, X)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_order_conditions_toy_two_point():
    # two-point function algebra, J plain conjugation, offdiagonal Dirac
    basis = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    algebra = FiniteAlgebra(basis, basis, labels=["left", "right"])
    w = 0.7  # real coupling so plain conjugation commutes with the Dirac
    triple = IndefiniteTriple(
        form=KreinForm(np.eye(2)),
        chi=np.diag([1.0, -1.0]),
        cc=AntilinearOperator(np.eye(2)),
        dirac=np.array([[0.0, w], [w, 0.0]]),
        algebra=algebra,
        sigma=0,
    )
    assert check_axioms(triple).ok
    assert order_zero(triple) == 0.0
    # the two-point Dirac genuinely fails the first-order condition
    assert first_order(triple) > 0.1


def test_first_order_zero_dirac(module_of):
    t = south_triple(module_of, 1, 3, dirac=np.zeros((4, 4)))
    assert check_axioms(t).ok
    assert first_order(t) == 0.0


def test_gauge_unitary_scalar_algebra(module_of):
    t = south_triple(module_of, 1, 3)
    U = gauge_unitary(t, [1.0])
    assert_allclose(U, np.eye(4), atol=1e-12)
    U = gauge_unitary(t, [-1.0])
    assert_allclose(U, np.eye(4), atol=1e-12)  # J picks up the sign twice
    with pytest.raises(ValueError, match="unitary"):
        gauge_unitary(t, [0.5])


def test_fluctuate_zero_returns_dirac(module_of):
    t = south_triple(module_of, 1, 3)
    assert_allclose(fluctuate(t, np.zeros((4, 4))), t.dirac, atol=1e-12)


def test_fluctuate_rejects_outsiders(module_of):
    t = south_triple(module_of, 1, 3)
    outside = t.form.gram @ t.chi  # even operator, not a one-form
    outside = 0.5 * (outside + t.form.adjoint(outside))
    with pytest.raises(ValueError):
        fluctuate(t, outside)


def test_fluctuated_dirac_keeps_axioms(module_of):
    # scalar algebra has zero one-forms, so use a two-point toy with a
    # genuine one-form instead
    basis = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    algebra = FiniteAlgebra(basis, basis)
    triple = IndefiniteTriple(
        form=KreinForm(np.eye(2)),
        chi=np.diag([1.0, -1.0]),
        cc=AntilinearOperator(np.eye(2)),
        dirac=np.array([[0, 1.0], [1.0, 0]]),
        algebra=algebra,
        sigma=0,
    )
    omega = np.array([[0.0, 0.3], [0.3, 0.0]])  # real span for a real algebra
    fluct = fluctuate(triple, omega)
    moved = IndefiniteTriple(
        form=triple.form, chi=triple.chi, cc=triple.cc,
        dirac=fluct, algebra=algebra, sigma=0,
    )
    assert check_axioms(moved).ok


def test_closure_sees_products_off_the_basis_support():
    # sigma_x is zero on the diagonal, where its square, the identity, lives
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert FiniteAlgebra([sx], [sx]).closure_violation() == pytest.approx(1.0)
    closed = FiniteAlgebra([np.eye(2), sx], [np.eye(2), sx])
    assert closed.closure_violation() <= 1e-15


def test_check_axioms_evaluates_once_per_triple(module_of, rng, monkeypatch):
    evaluated = []
    evaluate = ist._evaluate_axioms
    monkeypatch.setattr(ist, "_evaluate_axioms", lambda t: evaluated.append(t) or evaluate(t))

    t = south_triple(module_of, 1, 3)
    report = check_axioms(t)
    report.violations.clear()  # each caller gets its own report
    assert check_axioms(t).ok
    triple_dims(t)
    ncforms.one_forms(t)
    ncforms.junk_two_forms(t)
    product = tensor_ist(t, t)
    assert len(evaluated) == 1 and evaluated[0] is t
    assert check_axioms(product).ok
    assert len(evaluated) == 2

    model = build_sm(random_yukawas(rng, 1))
    ncforms.project_two_form(model.triple, np.zeros((32, 32)), varpi=model.varpi)
    assert check_axioms(model.triple).ok
    assert len(evaluated) == 3


def test_triple_is_frozen_with_read_only_copies(module_of):
    t = south_triple(module_of, 1, 3)
    dirac = np.array(t.dirac)
    triple = IndefiniteTriple(
        form=t.form, chi=t.chi, cc=t.cc, dirac=dirac, algebra=t.algebra, sigma=t.sigma
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        triple.dirac = dirac
    with pytest.raises(dataclasses.FrozenInstanceError):
        triple.sigma = 1
    with pytest.raises(ValueError, match="read-only"):
        triple.dirac[0, 0] = 1.0
    dirac[0, 0] += 1.0  # the caller's array stays writable and is not shared
    assert triple.dirac[0, 0] == t.dirac[0, 0] != dirac[0, 0]


def test_one_form_generators_match_the_pairwise_products(rng):
    # the batched product gives the i-major stack of the loop it replaced, bit for bit
    for n in (1, 3):
        triple = build_sm(random_yukawas(rng, n)).triple
        comms, pairs = ist.one_form_generators(triple)
        loop = np.array([a @ c for a in triple.algebra.basis for _, c in comms])
        assert pairs.shape == loop.shape and np.array_equal(pairs, loop)
