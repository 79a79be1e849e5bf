import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (cached_module, nudged_south_triple, random_yukawas, sm_dense_images,
                      supported_signatures, zero_signs_moved)
from istlab import clifford, ist, kspace, ncforms, sm, tensor
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
from istlab.kspace import COMM_VANISH, AntilinearOperator, KreinForm, _Dense, _Monomial, realspan
from istlab.sm import build_sm, finite_dirac, sm_algebra
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


def _krein_rotated(t, rng, even=False):
    """t moved by a Krein-unitary U: chi, J and the Dirac dense, the gram kept; the algebra is
    the scalars, or with ``even`` the moved even algebra {1, U chi U^-1}, chi^x = +-chi."""
    n = t.dim
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = X - t.form.adjoint(X)  # Krein-anti-self-adjoint
    # exponentiate by scaling-and-squaring free Taylor series
    U = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 30):
        term = term @ (0.2 * A) / k
        U = U + term
    Uinv = np.linalg.inv(U)
    chi = U @ t.chi @ Uinv
    return IndefiniteTriple(
        form=t.form,
        chi=chi,
        cc=AntilinearOperator(U @ t.cc.mat @ np.conj(Uinv)),
        dirac=U @ t.dirac @ Uinv,
        algebra=FiniteAlgebra([np.eye(n), chi], [np.eye(n), (-1) ** t.sigma * chi]) if even
        else scalar_algebra(n),
        sigma=t.sigma,
    )


def test_triple_dims_invariant_under_krein_unitary(module_of, rng):
    t = south_triple(module_of, 1, 3)
    moved = _krein_rotated(t, rng)
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


def test_finite_algebra_refuses_unaligned_involution_images():
    with pytest.raises(ValueError, match="basis and involution images must align"):
        FiniteAlgebra([np.eye(2), np.eye(2)], [np.eye(2)])


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


def test_triple_dims_reads_no_sign_after_the_axiom_check(module_of, monkeypatch):
    t = south_triple(module_of, 1, 3)
    readings = []
    for module in (kspace, clifford, tensor):  # each module that calls read_sign by name
        counted = lambda *a, read=module.read_sign: readings.append(a) or read(*a)  # noqa: E731
        monkeypatch.setattr(module, "read_sign", counted)
    assert check_axioms(t).ok and len(readings) == 3  # J^2, J^x and J chi, memoised on t
    assert triple_dims(t) == triple_dims(t) == (6, 4)
    assert len(readings) == 3


def test_triple_dims_takes_the_signs_the_axiom_check_passed():
    # one reading under AXIOM_TOL: a triple within it everywhere has dims, where a second
    # reading by another rule refused this one
    t = nudged_south_triple()
    report = check_axioms(t)
    assert report.ok and 9e-11 < report.worst <= 1e-10
    assert triple_dims(t) == (6, 4)


def test_order_conditions_compose_the_opposites_once_per_triple(rng, monkeypatch):
    composed = []
    compose = ist._opposites
    monkeypatch.setattr(ist, "_opposites", lambda t: composed.append(t) or compose(t))

    t = build_sm(random_yukawas(rng, 1)).triple
    values = order_zero(t), first_order(t), order_zero(t)
    assert len(composed) == 1 and composed[0] is t and values[0] == values[2]
    moved = dataclasses.replace(t, dirac=t.dirac)  # a new triple composes its own
    assert order_zero(moved) == values[0] and first_order(moved) == values[1]
    assert len(composed) == 2 and composed[1] is moved


def test_checks_and_forms_read_no_dense_images(rng, monkeypatch):
    # the operators are the algebra's only stored form: nothing on these paths reads the
    # dense images, so a fresh algebra never builds them, at one generation or three
    monkeypatch.setattr(sm, "_ALGEBRAS", {})
    monkeypatch.setattr(FiniteAlgebra, "_images", lambda self, k: pytest.fail("images read"))
    for n in (1, 3):
        model = build_sm(random_yukawas(rng, n))
        t = model.triple
        assert check_axioms(t).ok and order_zero(t) == 0.0 and first_order(t) == 0.0
        ncforms.project_two_form(t, np.zeros((t.dim, t.dim)), varpi=model.varpi)
        assert not {"basis", "involution"} & vars(t.algebra).keys()


def test_sm_algebra_builds_no_image_at_32_generations(monkeypatch):
    # the operators (x) 1_N hold 24 perm, inv and phase rows of 1024 per image set, where a
    # dense (24, 1024, 1024) complex image stack is 384 MiB and a single image 16 MiB
    monkeypatch.setattr(sm, "_ALGEBRAS", {})
    tracemalloc.start()
    try:
        algebra = sm_algebra(32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert algebra._stacks[0].shape == (24, 1024, 1024) and peak < 8 * 2 ** 20


def test_read_back_images_are_the_dense_images_up_to_the_sign_of_zeros(module_of, rng):
    # a monomial's read-back scatters its phases into zeros: the images are == to the dense
    # routes', sm.represent's and np.kron's of the factors' dense images, i-major, and every
    # byte that differs is the sign of a zero, which the dense routes leave -0.0
    west = from_clifford_module(module_of(3, 1), "west")
    moved = 0
    for n in (1, 3):
        t = build_sm(random_yukawas(rng, n)).triple
        product = tensor_ist(west, t)
        sm_sets = sm_dense_images(n)
        product_sets = [[np.kron(np.eye(west.dim, dtype=complex), b) for b in images]
                        for images in sm_sets]
        for algebra, (basis, involution) in ((t.algebra, sm_sets), (product.algebra, product_sets)):
            assert all(isinstance(op, _Monomial) for op in algebra._stacks)
            images = algebra.basis + algebra.involution
            for got, want in zip(images, basis + involution, strict=True):
                moved += zero_signs_moved(got, want)
                assert not got.flags.writeable and not np.signbit(got[got == 0].view(float)).any()
    assert moved > 0  # the case the signs of zeros moved in


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
    # the products on the support, scattered back to (m, n, n), give the i-major stack of the
    # dense loop, bit for bit
    for n in (1, 3):
        triple = build_sm(random_yukawas(rng, n)).triple
        kept, comms, pairs = ist.one_form_generators(triple)
        D, basis = triple.dirac, triple.algebra.basis
        assert np.array_equal(comms.dense(), np.array([D @ basis[j] - basis[j] @ D for j in kept]))
        loop = np.array([a @ c for a in basis for c in comms.dense()])
        assert pairs.dense().shape == loop.shape and np.array_equal(pairs.dense(), loop)
        assert pairs.at.size == np.count_nonzero((loop != 0).any(axis=0))  # no scan found more


def test_algebra_keeps_read_only_copies():
    A = np.eye(2, dtype=complex)
    alg = FiniteAlgebra([A], [A])
    closed = alg.closure_violation()
    assert closed <= 1e-15
    A[:] = [[0, 1], [1, 0]]  # the caller's array stays writable, and the algebra does not follow
    assert np.array_equal(alg.basis[0], np.eye(2)) and np.array_equal(alg.involution[0], np.eye(2))
    assert alg.closure_violation() == closed
    assert FiniteAlgebra([A], [A]).closure_violation() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="read-only"):
        alg.basis[0][0, 0] = 2.0


def test_triples_of_one_dim_share_a_read_only_scalar_algebra(module_of):
    t1 = from_clifford_module(module_of(1, 3), "east")
    t2 = from_clifford_module(module_of(2, 2), "south")
    assert t1.algebra is t2.algebra is scalar_algebra(4)
    assert from_clifford_module(module_of(0, 2), "east").algebra is not t1.algebra
    assert tensor_ist(t1, t2).algebra is scalar_algebra(16)  # R (x) R = R
    with pytest.raises(ValueError, match="read-only"):
        t1.algebra.basis[0][0, 0] = 2.0


# --- monomial algebra products ------------------------------------------
# Every SM, Clifford and product basis element is a phased partial
# permutation with phases 1, -1, i or -i, so gathers give the dense
# products exactly and the results below agree bit for bit.


def _dense_restatement(t):
    """(order zero, first order, closure, rep_even, rep_involutive, one-form pairs) by dense
    products and per-matrix Krein adjoints."""
    basis, D = t.algebra.basis, t.dirac
    opp = [opposite(t, b) for b in basis]
    comms = [D @ a - a @ D for a in basis]

    def worst(ops):
        return max((np.abs(x @ bo - bo @ x).max() for x in ops for bo in opp), default=0.0)

    B = np.stack(basis)
    span = realspan(B)
    closure = 0.0
    for a in B:
        norms, dists = span.residuals(a @ B)
        closure = max(closure, float((dists / np.maximum(1.0, norms)).max()))
    rep_even = max(np.abs(t.chi @ b - b @ t.chi).max() for b in basis)
    rep_inv = max(np.abs(t.form.adjoint(b) - c).max() for b, c in zip(basis, t.algebra.involution))
    scale = max(1.0, np.abs(D).max())
    kept = [c for c in comms if np.abs(c).max() > COMM_VANISH * scale]
    pairs = np.array([a @ c for a in basis for c in kept]).reshape(-1, t.dim, t.dim)
    return worst(basis), worst(comms), closure, rep_even, rep_inv, pairs


def _assert_matches_dense_restatement(t, label):
    oz, fo, closure, rep_even, rep_inv, pairs = _dense_restatement(t)
    assert order_zero(t) == oz and first_order(t) == fo, label
    assert t.algebra.closure_violation() == closure, label
    violations = check_axioms(t).violations
    assert violations["rep_even"] == rep_even and violations["algebra_closed"] == closure, label
    assert violations["rep_involutive"] == rep_inv, label
    got = ist.one_form_generators(t)[2].dense()
    assert got.shape == pairs.shape and np.array_equal(got, pairs), label


DENSE_J = "cl(1,3)-south, Krein-unitarily moved, even algebra"


def _route_cases(rng):
    """(label, triple) over SM, perturbed SM, Clifford and product triples."""
    for n in (1, 3):
        yield f"sm-n{n}", build_sm(random_yukawas(rng, n)).triple
    y = random_yukawas(rng, 1)
    model = build_sm(y)
    t = model.triple
    # the perturbations of tests/test_sm.py: a leaked quaternion and a generic Z block
    basis = [np.array(b) for b in t.algebra.basis]
    k = t.algebra.labels.index("h:j")
    basis[k][model.block(2), model.block(2)] += 0.1 * basis[k][model.block(1), model.block(1)]
    algebra = FiniteAlgebra(basis, t.algebra.involution)
    yield "sm-leaked-h:j", dataclasses.replace(t, algebra=algebra)
    dirac = finite_dirac(y, -1)  # a fresh, writable array
    dirac[model.block(1), model.block(3)] = -0.5
    dirac[model.block(3), model.block(1)] = 0.5
    yield "sm-generic-z", dataclasses.replace(t, dirac=dirac)
    for q, p in ((1, 3), (2, 2), (0, 4), (3, 1)):
        for conv in ("east", "west", "south", "north"):
            c = from_clifford_module(cached_module(q, p), conv)
            chi = c.chi
            yield f"cl({q},{p})-{conv}", c
            even = FiniteAlgebra([np.eye(c.dim), chi], [np.eye(c.dim), chi])
            yield f"cl({q},{p})-{conv}-even", dataclasses.replace(c, algebra=even)
    west = from_clifford_module(cached_module(3, 1), "west")
    yield "west x sm-n1", tensor_ist(west, t)
    yield "south x north", tensor_ist(from_clifford_module(cached_module(1, 3), "south"),
                                      from_clifford_module(cached_module(2, 2), "north"))
    # chi, J and the Dirac dense, with the moved even algebra: the composed opposites take the
    # dense J and its inverse
    yield DENSE_J, _krein_rotated(from_clifford_module(cached_module(1, 3), "south"), rng, True)


def test_monomial_products_match_the_dense_restatement(rng):
    seen = set()
    for label, t in _route_cases(rng):
        assert isinstance(ist._opposites(t), _Dense if label == DENSE_J else _Monomial), label
        _assert_matches_dense_restatement(t, label)
        seen.add(label)
    assert len(seen) == 2 + 2 + 4 * 4 * 2 + 2 + 1


def test_composed_opposites_are_the_dense_opposites_bit_for_bit(rng):
    # J (H^-1 B^dag H)^* J^-1, composed once over the basis stack, read densely, is the stack
    # of per-element opposites, on every route: monomial, dense algebra and dense J
    for label, t in _route_cases(rng):
        want = np.stack([opposite(t, b) for b in t.algebra.basis])
        assert np.array_equal(ist._opposites(t).dense(), want), label
        oz, fo, *_ = _dense_restatement(t)
        assert order_zero(t) == oz and first_order(t) == fo, label


def test_dense_algebra_element_takes_the_dense_route(rng):
    t = build_sm(random_yukawas(rng, 1)).triple
    dense = rng.normal(size=(t.dim, t.dim)) + 1j * rng.normal(size=(t.dim, t.dim))
    basis = list(t.algebra.basis[:-1]) + [dense]
    moved = dataclasses.replace(t, algebra=FiniteAlgebra(basis, basis))
    # routes are picked per stack: one dense element makes the basis stack dense, and with it
    # the whole composed opposite stack, with the same values
    assert isinstance(ist._opposites(moved), _Dense)
    assert isinstance(moved.algebra._stacks[0], _Dense)
    oz, fo, closure, rep_even, rep_inv, pairs = _dense_restatement(moved)
    assert order_zero(moved) == oz > 1.0 and first_order(moved) == fo > 1.0
    assert moved.algebra.closure_violation() == closure
    violations = check_axioms(moved).violations
    assert violations["rep_even"] == rep_even and violations["rep_involutive"] == rep_inv
    assert np.array_equal(ist.one_form_generators(moved)[2].dense(), pairs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sm_algebra_and_opposites_are_monomial(n, rng):
    t = build_sm(random_yukawas(rng, n)).triple
    assert t.algebra is sm_algebra(n)
    monos, opp = sm_algebra(n)._stacks[0], ist._opposites(t)
    assert isinstance(monos, _Monomial) and isinstance(opp, _Monomial)
    assert monos.perm.shape == opp.perm.shape == (24, t.dim)
    for k, b in enumerate(t.algebra.basis):
        assert np.array_equal(monos[k].lmul(np.eye(t.dim)), b)
    assert np.array_equal(sm_algebra(n)._sparse.dense(), np.stack(t.algebra.basis))


def test_order_conditions_on_an_empty_algebra():
    c = from_clifford_module(cached_module(1, 3), "east")
    empty = dataclasses.replace(c, algebra=FiniteAlgebra([], []))
    assert order_zero(empty) == 0.0 and first_order(empty) == 0.0
    kept, comms, pairs = ist.one_form_generators(empty)
    assert kept == [] and pairs.dense().shape == (0, c.dim, c.dim)
    assert empty.algebra.closure_violation() == 0.0  # the zero algebra is closed
    assert check_axioms(empty).ok and triple_dims(empty) == triple_dims(c)
