import numpy as np
from numpy.testing import assert_allclose

from conftest import random_yukawas
from istlab import ncforms
from istlab.ist import FiniteAlgebra, IndefiniteTriple, from_clifford_module
from istlab.kspace import AntilinearOperator, KreinForm, in_span, realspan
from istlab.sm import build_sm, higgs_field_strength, quaternion


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
    y.ye = y.ynu.copy()
    y.yd = y.yu.copy()
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
