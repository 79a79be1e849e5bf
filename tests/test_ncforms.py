import dataclasses

import numpy as np
from numpy.testing import assert_allclose

from conftest import random_yukawas
from istlab import ncforms
from istlab.ist import (
    FiniteAlgebra,
    IndefiniteTriple,
    check_axioms,
    from_clifford_module,
    one_form_generators,
)
from istlab.kspace import (
    COMM_VANISH,
    JUNK_VANISH,
    AntilinearOperator,
    KreinForm,
    _Dense,
    in_span,
    realspan,
)
from istlab.sm import build_sm, higgs_field_strength, quaternion
from test_ist import DENSE_J, _route_cases


def two_point_triple(w=0.7):
    """Real functions on two points with an offdiagonal Dirac."""
    basis = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    return IndefiniteTriple(
        form=KreinForm(np.eye(2)),
        chi=np.diag([1.0, -1.0]),
        cc=AntilinearOperator(np.eye(2)),
        dirac=np.array([[0.0, w], [w, 0.0]]),
        algebra=FiniteAlgebra(basis, basis),
        sigma=0,
    )


def test_zero_dirac_gives_zero_spaces(module_of):
    t = from_clifford_module(module_of(1, 3), "south", dirac=np.zeros((4, 4)))
    assert ncforms.one_forms(t).rank == 0
    assert ncforms.junk_two_forms(t).rank == 0
    qs = ncforms.q_space(t)
    assert qs.forms.rank == 1  # just the scalar algebra


def test_two_point_one_forms():
    t = two_point_triple()
    forms = ncforms.one_forms(t)
    assert forms.rank == 2
    assert ncforms.junk_two_forms(t).rank == 0


def test_sm_form_dimensions(rng):
    for n in (1, 3):
        model = build_sm(random_yukawas(rng, n))
        forms = ncforms.one_forms(model.triple)
        qs = ncforms.q_space(model.triple, model.varpi)
        assert (forms.rank, qs.junk.rank, qs.forms.rank) == (8, 4, 28)
        assert qs.definite


def test_sm_junk_degenerates_with_equal_masses(rng):
    y = random_yukawas(rng, 1)
    y = dataclasses.replace(y, ye=y.ynu.copy(), yd=y.yu.copy())
    model = build_sm(y)
    assert ncforms.junk_two_forms(model.triple).rank == 0


def test_sm_junk_is_even(rng):
    model = build_sm(random_yukawas(rng, 1))
    chi = model.triple.chi
    for j in ncforms.junk_two_forms(model.triple).basis:
        assert np.abs(chi @ j - j @ chi).max() <= 1e-9


def test_q_space_is_bimodule(rng):
    model = build_sm(random_yukawas(rng, 1))
    qs = ncforms.q_space(model.triple, model.varpi)
    dim = qs.forms.rank
    for a in model.triple.algebra.basis[:6]:
        for q in qs.forms.basis[:5]:
            assert in_span(qs.forms, a @ q)
            assert in_span(qs.forms, q @ a)


def test_q_space_rejects_projected_curvature(rng):
    model = build_sm(random_yukawas(rng, 1))
    qs = ncforms.q_space(model.triple, model.varpi)
    X = higgs_field_strength(model, quaternion(0.4 + 0.2j, -0.1 + 0.9j))
    resid = ncforms.project_two_form(model.triple, X, model.varpi)
    assert np.linalg.norm(resid) > 1e-3
    assert not in_span(qs.forms, resid)
    assert in_span(qs.forms, X - resid)


def test_projection_kills_members(rng):
    model = build_sm(random_yukawas(rng, 1))
    qs = ncforms.q_space(model.triple, model.varpi)
    member = sum(
        rng.normal() * s for s in qs.forms.basis
    )
    resid = ncforms.project_two_form(model.triple, member, model.varpi)
    assert np.abs(resid).max() <= 1e-9 * max(1.0, np.abs(member).max())


def test_projection_idempotent(rng):
    model = build_sm(random_yukawas(rng, 1))
    qs = ncforms.q_space(model.triple, model.varpi)
    q_h = quaternion(0.4 + 0.2j, -0.1 + 0.9j)
    X = higgs_field_strength(model, q_h)
    once = ncforms.project_two_form(model.triple, X, model.varpi)
    twice = ncforms.project_two_form(model.triple, once, model.varpi)
    assert_allclose(twice, once, atol=1e-9)


def test_projection_gauge_covariance(rng):
    model = build_sm(random_yukawas(rng, 1))
    t = model.triple
    labels = t.algebra.labels
    coeffs = np.zeros(len(labels))
    theta = 0.6
    coeffs[labels.index("c:1")] = np.cos(theta)
    coeffs[labels.index("c:i")] = np.sin(theta)
    coeffs[labels.index("h:1")] = np.cos(-0.3)
    coeffs[labels.index("h:i")] = np.sin(-0.3)
    for d in range(3):
        coeffs[labels.index(f"m:E{d}{d}")] = 1.0
    u = t.algebra.element(coeffs)
    qs = ncforms.q_space(t, model.varpi)
    q_h = quaternion(0.2 - 0.5j, 0.8 + 0.1j)
    X = higgs_field_strength(model, q_h)
    uinv = np.linalg.inv(u)
    lhs = ncforms.project_two_form(t, u @ X @ uinv, model.varpi)
    rhs = u @ ncforms.project_two_form(t, X, model.varpi) @ uinv
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_form_space_rank_threshold():
    mats = [np.eye(2), np.eye(2) * 1e-12, np.diag([1.0, -1.0])]
    space = realspan(mats)
    assert space.rank == 2


def test_q_space_carries_the_junk_span_it_builds(rng, module_of):
    triples = [build_sm(random_yukawas(rng, n)).triple for n in (1, 3)]
    for t in triples + [two_point_triple(), from_clifford_module(module_of(1, 3), "south")]:
        qs, junk = ncforms.q_space(t), ncforms.junk_two_forms(t)
        assert qs.junk.rank == junk.rank and qs.junk.basis.shape == junk.basis.shape
        assert qs.junk.basis.tobytes() == junk.basis.tobytes()


# --- the support route against the dense pipeline -------------------------


def _dense_forms(t, X, varpi):
    """(one-form span, junk span, Q span, residual of X) by the dense pipeline: every stack
    (m, n, n), products by matrix multiplication, the Gram and projection by einsum."""
    basis, D, n = t.algebra.basis, t.dirac, t.dim
    comms = [D @ b - b @ D for b in basis]
    kept = [j for j, c in enumerate(comms) if np.abs(c).max() > COMM_VANISH * max(1, np.abs(D).max())]
    C = np.array([comms[j] for j in kept]).reshape(-1, n, n)
    forms = realspan(np.array([a @ c for a in basis for c in C]).reshape(-1, n, n))
    k, nk = len(kept), forms.kernel.shape[1]
    coeff = forms.kernel.T.reshape(nk, len(basis), k)[:, kept, :].reshape(nk, k * k)
    images = (coeff @ (C[:, None] @ C[None, :]).reshape(k * k, n * n)).reshape(nk, n, n)
    big = np.abs(images).max(axis=(1, 2), initial=0) > JUNK_VANISH * np.abs(C).max(initial=0) ** 2
    junk = realspan(images[big])
    Q = realspan(np.concatenate([np.stack(basis), junk.basis]))
    W = np.eye(n) if varpi is None else varpi
    WS = W @ Q.basis.conj().transpose(0, 2, 1) @ W
    G = np.einsum("kab,lba->kl", WS, Q.basis).real
    v = np.einsum("kab,ba->k", WS, X).real
    return forms, junk, Q, X - np.einsum("k,kab->ab", np.linalg.solve(G, v), Q.basis)


def _support_route_cases(rng):
    """(label, triple, varpi, X): SM at N = 1..3, the route cases that pass the axioms the
    forms need (not the leaked quaternion nor the odd-signature even algebras), and an SM
    algebra with one dense element."""
    for n in (1, 2, 3):
        model = build_sm(random_yukawas(rng, n))
        q_h = quaternion(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
        yield f"sm-n{n}", model.triple, model.varpi, higgs_field_strength(model, q_h)
    for label, t in _route_cases(rng):
        if check_axioms(t).ok:
            yield f"route {label}", t, None, rng.normal(size=(t.dim,) * 2) + 1j * rng.normal(size=(t.dim,) * 2)
    model = build_sm(random_yukawas(rng, 1))
    t, c = model.triple, rng.normal(size=24)  # the last element a real mix of all: same span
    mix = [sum(x * b for x, b in zip(c, images)) for images in (t.algebra.basis, t.algebra.involution)]
    algebra = FiniteAlgebra(t.algebra.basis[:-1] + mix[:1], t.algebra.involution[:-1] + mix[1:])
    X = higgs_field_strength(model, quaternion(0.3 - 0.2j, 0.5j))
    yield "sm-dense-element", dataclasses.replace(t, algebra=algebra), model.varpi, X


def test_support_route_matches_the_dense_pipeline(rng):
    seen = set()
    for label, t, varpi, X in _support_route_cases(rng):
        forms, junk, Q, resid = _dense_forms(t, X, varpi)
        got_forms, qs = ncforms.one_forms(t), ncforms.q_space(t, varpi)
        # the realified pair matrix is the same, so are its rank, gap and kernel, bit for bit
        assert (got_forms.rank, got_forms.gap) == (forms.rank, forms.gap), label
        assert np.array_equal(realspan(one_form_generators(t)[2]).kernel, forms.kernel)
        for got, want in ((qs.junk, junk), (qs.forms, Q)):
            assert got.rank == want.rank and abs(got.gap - want.gap) <= 1e-12, label
        got = ncforms.project_two_form(t, X, varpi)
        assert np.abs(got - resid).max() <= 1e-12 * max(1.0, np.abs(X).max()), label
        seen.add(label)
    assert {"sm-n2", "route sm-n3", "route sm-generic-z", "route west x sm-n1",
            f"route {DENSE_J}"} <= seen
    assert "route sm-leaked-h:j" not in seen and len(seen) == 34
    assert isinstance(t.algebra._stacks[0], _Dense)  # the dense element's stack
