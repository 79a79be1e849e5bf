import dataclasses
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_yukawas, sm_dense_images, zero_signs_moved
from istlab import cli, ist, ncforms, serialize, sm
from istlab.clifford import Signature, build
from istlab.ist import (
    check_axioms,
    first_order,
    fluctuate,
    from_clifford_module,
    gauge_unitary,
    order_zero,
    triple_dims,
)
from istlab.kspace import _operator, in_span
from istlab.sm import (
    GEN_LIMIT,
    N_SLOTS,
    LagrangianCoeffs,
    YukawaSet,
    ZParams,
    _blockdiag,
    _lift_left,
    build_sm,
    couplings,
    finite_dirac,
    gauge_coupling_matrices,
    gauge_field,
    higgs_coupling_matrix,
    higgs_field_strength,
    higgs_one_form,
    higgs_projection_closed,
    lagrangian_coeffs,
    lagrangian_coeffs_oracle,
    sm_algebra,
    majorana_block,
    majorana_pairing,
    quaternion,
    yukawa_block,
    yukawa_traces,
    z_matrix,
)
from istlab.tensor import tensor_ist


def unit_yukawas(n=1):
    one = np.eye(n, dtype=complex)
    return YukawaSet(one, one, one, one, one)


def test_build_sm_passes_all_checks(rng):
    model = build_sm(unit_yukawas())
    assert model.triple.dim == 32
    report = check_axioms(model.triple)
    assert report.ok
    assert order_zero(model.triple) <= 1e-12
    assert first_order(model.triple) <= 1e-12
    assert triple_dims(model.triple) == (2, 6)


def test_build_sm_rejects_bad_majorana_symmetry(rng):
    y = random_yukawas(rng, 2)
    y = dataclasses.replace(y, yr=y.yr + 0.5 * (y.yr - y.yr.T) + np.array([[0, 1], [-1, 0]]))
    with pytest.raises(ValueError, match="Y_R"):
        build_sm(y, s=-1, eps_f=-1)


def test_all_four_sign_choices_constructible(rng):
    for s in (-1, 1):
        for eps_f in (-1, 1):
            y = random_yukawas(rng, 2, s=s, eps_f=eps_f)
            model = build_sm(y, s=s, eps_f=eps_f)
            assert check_axioms(model.triple).ok
            n, _ = triple_dims(model.triple)
            assert n == (2 if eps_f == -1 else 6)


def test_seesaw_antisymmetric_rank(rng):
    # s*eps_F = -1 with three generations: antisymmetric, rank <= 2
    y = random_yukawas(rng, 3, s=-1, eps_f=1)
    assert np.abs(y.yr + y.yr.T).max() <= 1e-12
    assert np.linalg.matrix_rank(y.yr) <= 2
    model = build_sm(y, s=-1, eps_f=1)
    for _ in range(20):
        psi = rng.normal(size=24) + 1j * rng.normal(size=24)
        assert abs(majorana_pairing(model, psi)) <= 1e-12 * (np.abs(psi) ** 2).sum()


def test_majorana_pairing_alive_for_physical_signs(rng):
    model = build_sm(random_yukawas(rng, 3))
    psi = rng.normal(size=24) + 1j * rng.normal(size=24)
    assert abs(majorana_pairing(model, psi)) > 1e-6


def test_higgs_one_form_properties(rng):
    model = build_sm(random_yukawas(rng, 1))
    t = model.triple
    assert np.abs(higgs_one_form(model, np.zeros((2, 2)))).max() == 0.0
    q_h = quaternion(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
    H = higgs_one_form(model, q_h)
    # self-adjoint and inside the one-form span: fluctuation accepts it
    assert np.abs(t.form.adjoint(H) - H).max() <= 1e-12
    fluct = fluctuate(t, H)
    assert np.abs(t.chi @ fluct @ t.chi + fluct).max() <= 1e-12
    # q_H = -1 cancels the vacuum: the fluctuated Yukawa blocks vanish
    Hm1 = higgs_one_form(model, quaternion(-1.0, 0.0))
    fluct = fluctuate(t, Hm1)
    k = model.block_dim
    assert np.abs(fluct[model.block(1), model.block(0)]).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_fluctuate_uses_the_one_form_span(rng, n):
    model = build_sm(random_yukawas(rng, n))
    t = model.triple
    span = ncforms.one_forms(t)
    q_h = quaternion(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
    H = higgs_one_form(model, q_h)
    assert in_span(span, H)
    fluctuate(t, H)
    # chi is Krein self-adjoint and even, so no one-form
    assert not in_span(span, t.chi)
    with pytest.raises(ValueError, match="outside the one-form span"):
        fluctuate(t, t.chi)


def test_fluctuated_dirac_matches_block_form(rng):
    model = build_sm(random_yukawas(rng, 1))
    t = model.triple
    q_h = quaternion(0.3 + 0.4j, -0.2 + 0.1j)
    H = higgs_one_form(model, q_h)
    M = t.cc.mat
    fluct = t.dirac + H + M @ np.conj(H) @ np.linalg.inv(M)
    assert_allclose(fluct, fluctuate(t, H), atol=1e-12)
    # the coupling matrix is -eta_F times the fluctuated Dirac at q_phi = 1 + q_h
    coupled = higgs_coupling_matrix(model, np.eye(2) + q_h)
    assert_allclose(coupled, -t.form.gram @ fluct, atol=1e-12)


def test_higgs_coupling_matrix_blocks(rng):
    model = build_sm(random_yukawas(rng, 2))
    q_phi = quaternion(0.6 - 0.1j, 0.2 + 0.3j)
    mat = higgs_coupling_matrix(model, q_phi)
    from istlab.sm import _lift_left, yukawa_block

    qt = _lift_left(q_phi, 2)
    Y = yukawa_block(model.yukawas)
    assert_allclose(mat[model.block(1), model.block(0)], qt @ Y, atol=1e-12)
    assert_allclose(
        mat[model.block(0), model.block(1)], Y.conj().T @ qt.conj().T, atol=1e-12
    )
    # vacuum: pure mass matrix -eta_F D_F
    vac = higgs_coupling_matrix(model, np.eye(2))
    assert_allclose(vac, -model.triple.form.gram @ model.triple.dirac, atol=1e-12)
    # q_phi = 0 keeps only the Majorana blocks
    bare = higgs_coupling_matrix(model, np.zeros((2, 2)))
    assert np.abs(bare[model.block(1), model.block(0)]).max() == 0.0
    assert np.abs(bare[model.block(2), model.block(0)]).max() > 0.0


def _six_block_coupling(model, q_phi) -> np.ndarray:
    """-eta_F (D_F + H + JHJ^-1) written out block by block, as a reference.

    With q~ the left lift of q_phi, the nonzero blocks (0-indexed R, L, Rbar, Lbar) are
    (0,1) = Y^dag q~^dag, (1,0) = q~ Y, (0,2) = -eps_F conj(M), (2,0) = -s M,
    (2,3) = s Y^T q~^T and (3,2) = s conj(q~) conj(Y).
    """
    s, eps_f = model.s, model.eps_f
    Y, M = yukawa_block(model.yukawas), majorana_block(model.yukawas)
    qt = _lift_left(np.asarray(q_phi, dtype=complex), model.n_gen)
    blocks = {(0, 1): Y.conj().T @ qt.conj().T, (1, 0): qt @ Y,
              (0, 2): -eps_f * M.conj(), (2, 0): -s * M,
              (2, 3): s * Y.T @ qt.T, (3, 2): s * qt.conj() @ Y.conj()}
    out = np.zeros((4 * model.block_dim,) * 2, dtype=complex)
    for (i, j), blk in blocks.items():
        out[model.block(i), model.block(j)] = blk
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s, eps_f", [(-1, -1), (-1, 1), (1, -1), (1, 1)])
def test_higgs_coupling_matrix_matches_the_six_blocks(n, s, eps_f, rng):
    model = build_sm(random_yukawas(rng, n, s, eps_f), s, eps_f)
    q_phi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))  # not a quaternion
    for q in (q_phi, quaternion(0.6 - 0.1j, 0.2 + 0.3j), np.eye(2), np.zeros((2, 2))):
        got, want = higgs_coupling_matrix(model, q), _six_block_coupling(model, q)
        scale = max(1.0, np.abs(want).max())
        for i in range(4):
            for j in range(4):
                diff = got[model.block(i), model.block(j)] - want[model.block(i), model.block(j)]
                assert np.abs(diff).max() <= 1e-15 * scale, (i, j)


def test_useful_identities(rng):
    # [Y, a_R] = [Y, a_Rbar] = [Y, a_Lbar] = 0 and M a_R = a_Rbar M
    from istlab.sm import majorana_block, yukawa_block

    y = random_yukawas(rng, 2)
    model = build_sm(y)
    Y, M = yukawa_block(y), majorana_block(y)
    k = model.block_dim
    for a in model.triple.algebra.basis:
        a_r = a[model.block(0), model.block(0)]
        a_rbar = a[model.block(2), model.block(2)]
        a_lbar = a[model.block(3), model.block(3)]
        assert np.abs(Y @ a_r - a_r @ Y).max() <= 1e-12
        assert np.abs(Y @ a_rbar - a_rbar @ Y).max() <= 1e-12
        assert np.abs(Y @ a_lbar - a_lbar @ Y).max() <= 1e-12
        assert np.abs(M @ a_r - a_rbar @ M).max() <= 1e-12


def test_one_forms_have_higgs_block_pattern(rng):
    model = build_sm(random_yukawas(rng, 1))
    forms = ncforms.one_forms(model.triple)
    assert forms.rank == 8
    for S in forms.basis:
        off = S.copy()
        off[model.block(0), model.block(1)] = 0
        off[model.block(1), model.block(0)] = 0
        assert np.abs(off).max() <= 1e-12


def test_chiral_kinetic_pairing_needs_odd_gram(rng):
    # sigma = 0 finite triple: the pairing of a chiral vector with D psi vanishes
    model = build_sm(random_yukawas(rng, 1))
    t = model.triple
    psi = rng.normal(size=t.dim) + 1j * rng.normal(size=t.dim)
    psi = 0.5 * (psi + t.chi @ psi)
    assert abs(np.conj(psi) @ t.form.gram @ (t.dirac @ psi)) <= 1e-12
    # sigma = 1 module triple keeps it alive
    south = from_clifford_module(build(Signature(1, 3)), "south")
    assert south.sigma == 1
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = 0.5 * (phi + south.chi @ phi)
    assert abs(np.conj(phi) @ south.form.gram @ (south.dirac @ phi)) > 1e-3


def test_majorana_weyl_conditions_on_total_triple(rng):
    west = from_clifford_module(build(Signature(3, 1)), "west")
    assert triple_dims(west) == (6, 4)
    model = build_sm(random_yukawas(rng, 1))
    total = tensor_ist(west, model.triple)
    assert triple_dims(total) == (0, 2)
    M, chi = total.cc.mat, total.chi
    assert np.abs(total.cc.square() - np.eye(total.dim)).max() <= 1e-12
    assert np.abs(M @ np.conj(chi) - chi @ M).max() <= 1e-12
    psi = rng.normal(size=total.dim) + 1j * rng.normal(size=total.dim)
    psi = 0.5 * (psi + chi @ psi)
    fixed = psi + total.cc(psi)
    assert np.linalg.norm(fixed) > 1.0
    assert np.linalg.norm(total.cc(fixed) - fixed) <= 1e-12
    assert np.linalg.norm(chi @ fixed - fixed) <= 1e-12


def test_yukawa_traces_unit_case():
    c1, c2, c3, ok = yukawa_traces(unit_yukawas())
    assert (c1, c2, c3) == (8.0, 8.0, 4.0)
    assert ok
    zero = YukawaSet(*(np.zeros((1, 1)),) * 5)
    assert yukawa_traces(zero) == (0.0, 0.0, 0.0, True)


def test_cauchy_schwarz_sweep(rng):
    for _ in range(300):
        y = random_yukawas(rng, int(rng.integers(1, 4)))
        assert yukawa_traces(y)[3]


def test_higgs_projection_closed_props(rng):
    y = random_yukawas(rng, 1)
    # vanishing prefactor: |q|^2 + 2 Re q = 0 at alpha = -2
    assert np.abs(higgs_projection_closed(quaternion(-2.0, 0.0), y)).max() <= 1e-12
    q_h = quaternion(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
    proj = higgs_projection_closed(q_h, y)
    assert abs(np.trace(proj)) <= 1e-10


def test_higgs_projection_matches_generic(rng):
    for n in (1,) * 5 + (2, 3):  # N = 2 and 3 after the five N = 1 draws
        y = random_yukawas(rng, n)
        model = build_sm(y)
        q_h = quaternion(
            rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        )
        X = higgs_field_strength(model, q_h)
        generic = ncforms.project_two_form(model.triple, X, varpi=model.varpi)
        closed = higgs_projection_closed(q_h, y)
        scale = max(1.0, np.linalg.norm(closed))
        assert np.linalg.norm(generic - closed) / scale <= 1e-9


def test_lagrangian_coeffs_examples(rng):
    got = lagrangian_coeffs(ZParams(1, 1, 1, 1, 1, 1), random_yukawas(rng, 3))
    assert (got.a, got.b, got.c) == (80.0, 24.0, 24.0)
    zero = lagrangian_coeffs(ZParams(0, 0, 0, 0, 0, 0), random_yukawas(rng, 3))
    assert zero.as_tuple() == (0, 0, 0, 0, 0)


def test_lagrangian_positivity(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        z = ZParams(*rng.uniform(0.05, 3.0, size=6))
        got = lagrangian_coeffs(z, random_yukawas(rng, n))
        assert min(got.as_tuple()) > 0


def test_lagrangian_oracle_matches_closed_form(rng):
    for n in (1, 3):
        for _ in range(3):
            y = random_yukawas(rng, n)
            z = ZParams(*rng.uniform(0.1, 2.0, size=6))
            closed = lagrangian_coeffs(z, y)
            oracle = lagrangian_coeffs_oracle(z, y)
            for u, v in zip(closed.as_tuple(), oracle.as_tuple()):
                assert abs(u - v) <= 1e-9 * max(1.0, abs(v))


def test_oracle_zero_yukawas():
    n = 2
    zeros = np.zeros((n, n))
    y = YukawaSet(zeros, zeros, zeros, zeros, zeros)
    z = ZParams(1, 1, 1, 1, 1, 1)
    got = lagrangian_coeffs_oracle(z, y)
    assert got.d == 0.0
    assert abs(got.e) <= 1e-12
    assert got.a > 0 and got.b > 0 and got.c > 0


def test_z_matrix_commutes_with_algebra(rng):
    model = build_sm(random_yukawas(rng, 2))
    Z = z_matrix(ZParams(*rng.uniform(0.1, 2.0, size=6)), 2)
    for a in model.triple.algebra.basis:
        assert np.abs(Z @ a - a @ Z).max() <= 1e-12
    for op in (model.triple.chi, model.varpi, model.triple.form.gram):
        assert np.abs(Z @ op - op @ Z).max() <= 1e-12


def test_couplings():
    c = couplings(LagrangianCoeffs(0.25, 1, 1, 4, 16))
    assert c.g_y == 1.0
    assert c.v0 == 1.0
    assert c.v == 2.0
    n3 = couplings(LagrangianCoeffs(80, 24, 24, 4, 16))
    assert abs(n3.g_y - 1 / np.sqrt(320)) <= 1e-15
    assert abs(n3.g_w - 1 / np.sqrt(192)) <= 1e-15
    assert abs(n3.g_c - 1 / np.sqrt(192)) <= 1e-15
    with pytest.raises(ValueError, match="positive"):
        couplings(LagrangianCoeffs(-1, 1, 1, 1, 1))


def test_hypercharge_spectrum():
    for n in (1, 3):
        right, left = gauge_coupling_matrices(1.0, np.zeros((2, 2)), np.zeros((3, 3)), n)
        vals, counts = np.unique(np.round(np.diag(right).real, 9), return_counts=True)
        got = dict(zip(vals, counts))
        assert got == {
            -2.0: n,
            round(-2 / 3, 9): 3 * n,
            0.0: n,
            round(4 / 3, 9): 3 * n,
        }
        lvals, lcounts = np.unique(np.round(np.diag(left).real, 9), return_counts=True)
        assert dict(zip(lvals, lcounts)) == {-1.0: 2 * n, round(1 / 3, 9): 6 * n}


def test_pure_color_field_has_no_hypercharge_part():
    a_c = np.diag([1.0, -1.0, 0.0])
    right, left = gauge_coupling_matrices(0.0, np.zeros((2, 2)), a_c, 1)
    # lepton slots untouched
    assert np.abs(right[:2, :2]).max() == 0.0
    assert np.abs(left[:2, :2]).max() == 0.0


def test_gauge_field_unimodular(rng):
    a_w = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, -0.5]])
    a_c = np.diag([1.0, -2.0, 1.0])
    B = gauge_field(0.7, a_w, a_c, 3)
    assert abs(np.trace(B)) <= 1e-12
    assert np.abs(B + B.conj().T).max() <= 1e-12


def test_gauge_coupling_input_validation():
    with pytest.raises(ValueError, match="hermitian"):
        gauge_coupling_matrices(1.0, np.array([[0, 1], [0, 0]]), np.zeros((3, 3)), 1)
    with pytest.raises(ValueError, match="traceless"):
        gauge_coupling_matrices(1.0, np.eye(2), np.zeros((3, 3)), 1)


def test_gauge_unitary_sm_phases(rng):
    model = build_sm(random_yukawas(rng, 1))
    t = model.triple
    labels = t.algebra.labels
    coeffs = np.zeros(len(labels))
    theta = 0.9
    coeffs[labels.index("c:1")] = np.cos(theta)
    coeffs[labels.index("c:i")] = np.sin(theta)
    coeffs[labels.index("h:1")] = 1.0
    for d in range(3):
        coeffs[labels.index(f"m:E{d}{d}")] = 1.0
    U = gauge_unitary(t, coeffs)
    assert np.abs(t.form.adjoint(U) @ U - np.eye(t.dim)).max() <= 1e-10
    assert np.abs(U - np.diag(np.diag(U))).max() <= 1e-12
    phases = np.unique(np.round(np.angle(np.diag(U)), 9))
    assert len(phases) > 1  # genuinely lambda-dependent


def test_gauge_covariant_fluctuation(rng):
    model = build_sm(random_yukawas(rng, 1))
    t = model.triple
    labels = t.algebra.labels
    coeffs = np.zeros(len(labels))
    coeffs[labels.index("c:1")] = np.cos(0.7)
    coeffs[labels.index("c:i")] = np.sin(0.7)
    coeffs[labels.index("h:1")] = np.cos(0.4)
    coeffs[labels.index("h:j")] = np.sin(0.4)
    for d in range(3):
        coeffs[labels.index(f"m:E{d}{d}")] = 1.0
    u = t.algebra.element(coeffs)
    U = gauge_unitary(t, coeffs)
    q_h = quaternion(0.3 - 0.2j, 0.5 + 0.4j)
    omega = higgs_one_form(model, q_h)
    ux = t.form.adjoint(u)
    omega_t = u @ omega @ ux + (u @ t.dirac - t.dirac @ u) @ ux
    lhs = fluctuate(t, omega_t)
    rhs = U @ fluctuate(t, omega) @ np.linalg.inv(U)
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_opposite_conjugates_blocks(rng):
    # pi(a)^o carries conjugated particle blocks in the antiparticle slots
    from istlab.ist import opposite

    model = build_sm(random_yukawas(rng, 1))
    t = model.triple
    for a, astar in zip(t.algebra.basis[:8], t.algebra.involution[:8]):
        opp = opposite(t, a)
        b = model.block
        assert_allclose(opp[b(2), b(2)], np.conj(astar[b(0), b(0)]), atol=1e-12)
        assert_allclose(opp[b(3), b(3)], np.conj(astar[b(1), b(1)]), atol=1e-12)
        assert_allclose(opp[b(0), b(0)], np.conj(astar[b(2), b(2)]), atol=1e-12)


def test_order_conditions_break_under_perturbation(rng):
    from istlab.ist import order_zero
    from istlab.ist import FiniteAlgebra, IndefiniteTriple

    model = build_sm(random_yukawas(rng, 1))
    t = model.triple
    basis = [b.copy() for b in t.algebra.basis]
    # leak the left-handed j-quaternion into the antiparticle sector
    k = t.algebra.labels.index("h:j")
    basis[k][model.block(2), model.block(2)] += 0.1 * basis[k][
        model.block(1), model.block(1)
    ]
    perturbed = IndefiniteTriple(
        form=t.form, chi=t.chi, cc=t.cc, dirac=t.dirac,
        algebra=FiniteAlgebra(basis, t.algebra.involution), sigma=0,
    )
    assert order_zero(perturbed) > 1e-3


def test_first_order_breaks_with_generic_z_block(rng):
    # a generic symmetric Z block couples L and Lbar and spoils order one
    from istlab.ist import first_order, IndefiniteTriple

    y = random_yukawas(rng, 1)
    model = build_sm(y)
    Z = 0.5 * np.ones((8, 8))
    dirac = finite_dirac(y, -1)  # a fresh, writable array
    dirac[model.block(1), model.block(3)] = -Z.conj()
    dirac[model.block(3), model.block(1)] = Z
    perturbed = IndefiniteTriple(
        form=model.triple.form, chi=model.triple.chi, cc=model.triple.cc,
        dirac=dirac, algebra=model.triple.algebra, sigma=0,
    )
    assert first_order(perturbed) > 1e-3


def test_total_dims_for_positive_conjugation_square(rng):
    # the eps_F = +1 finite triple has (6, 2); tensoring with the West
    # manifold surrogate (6, 4) lands on (4, 6)
    y = random_yukawas(rng, 1, s=-1, eps_f=1)
    model = build_sm(y, s=-1, eps_f=1)
    assert triple_dims(model.triple) == (6, 2)
    west = from_clifford_module(build(Signature(3, 1)), "west")
    total = tensor_ist(west, model.triple)
    assert triple_dims(total) == (4, 6)


def test_sm_algebra_is_built_once_and_read_only(rng):
    assert sm_algebra(2) is sm_algebra(2)
    algebra = sm_algebra(1)
    for m in (algebra.basis[0], algebra.involution[-1]):
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
    first = build_sm(random_yukawas(rng, 1))
    second = build_sm(random_yukawas(rng, 1))
    assert first.triple.algebra is second.triple.algebra is algebra
    assert check_axioms(first.triple).ok
    assert check_axioms(second.triple).ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sign_operators_match_the_blockwise_restatement(rng, n):
    # eta, chi, J and varpi bit for bit as diagonal blocks and slice assignments
    k = N_SLOTS * n
    ik = np.eye(k)
    for s in (-1, 1):
        for eps_f in (-1, 1):
            model = build_sm(random_yukawas(rng, n, s=s, eps_f=eps_f), s=s, eps_f=eps_f)
            eta = _blockdiag([ik, -ik, s * ik, -s * ik])
            chi = _blockdiag([ik, -ik, -ik, ik])
            jmat = np.zeros((4 * k, 4 * k), dtype=complex)
            jmat[: k, 2 * k: 3 * k] = eps_f * ik
            jmat[k: 2 * k, 3 * k:] = eps_f * ik
            jmat[2 * k: 3 * k, : k] = ik
            jmat[3 * k:, k: 2 * k] = ik
            t = model.triple
            varpi = _blockdiag([ik, ik, -s * ik, -s * ik])
            for got, want in ((t.form.gram, eta), (t.chi, chi), (t.cc.mat, jmat),
                              (model.varpi, varpi)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert np.array_equal(model.varpi, chi @ eta)  # varpi = chi eta, up to zero signs


@pytest.mark.parametrize("n", [1, 3])
def test_the_sm_layout_matches_explicit_slices(rng, n):
    # index = block 8N + slot N + generation, with the blocks (R, L, Rbar, Lbar) and the slots
    # (nu, e, u_r, u_g, u_b, d_r, d_g, d_b): each matrix written out slice by slice, bit for bit
    k = 8 * n
    R, L, Rb, Lb = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k), slice(3 * k, 4 * k)
    slot = [slice(i * n, (i + 1) * n) for i in range(8)]
    y = random_yukawas(rng, n)
    model = build_sm(y)

    def same(got, want):
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()

    Y, M = np.zeros((k, k), dtype=complex), np.zeros((k, k), dtype=complex)
    for i, Yp in enumerate((y.ynu, y.ye, y.yu, y.yu, y.yu, y.yd, y.yd, y.yd)):
        Y[slot[i], slot[i]] = Yp
    M[slot[0], slot[0]] = y.yr
    assert same(yukawa_block(y), Y) and same(majorana_block(y), M)

    for eps_f in (-1, 1):
        D = np.zeros((4 * k, 4 * k), dtype=complex)
        D[R, L], D[L, R], D[R, Rb], D[Rb, R] = -Y.conj().T, Y, eps_f * M.conj(), M
        D[Rb, Lb], D[Lb, Rb] = -Y.T, Y.conj()
        assert same(finite_dirac(y, eps_f), D)

    q = quaternion(0.6 - 0.1j, 0.2 + 0.3j)
    q8 = np.zeros((8, 8), dtype=complex)
    for u, d in ((0, 1), (2, 5), (3, 6), (4, 7)):  # (nu, e) and each (u_c, d_c)
        q8[np.ix_([u, d], [u, d])] = q
    qt = np.kron(q8, np.eye(n))
    H = np.zeros((4 * k, 4 * k), dtype=complex)
    H[R, L], H[L, R] = -Y.conj().T @ qt.conj().T, qt @ Y
    assert same(higgs_one_form(model, q), H)

    z = ZParams(0.5, -1.25, 2.0, -0.75, 1.5, -0.5)  # negative weights leave -0.0 parts
    zr, zl = np.zeros((k, k), dtype=complex), np.zeros((k, k), dtype=complex)
    for i, (r, l) in enumerate(zip((z.alpha, z.gamma) + (z.beta,) * 3 + (z.delta,) * 3,
                                   (z.mu, z.mu) + (z.nu,) * 6)):
        zr[slot[i], slot[i]], zl[slot[i], slot[i]] = complex(r) * np.eye(n), complex(l) * np.eye(n)
    Z = np.zeros((4 * k, 4 * k), dtype=complex)
    Z[R, R], Z[L, L], Z[Rb, Rb], Z[Lb, Lb] = zr, zl, zr.conj(), zl.conj()
    assert same(z_matrix(z, n), Z)

    c1 = yukawa_traces(y)[0]
    mnu, me, mu, md = y.squared_masses()
    lep = 0.5 * (mnu + me) - c1 / (8 * n) * np.eye(n)
    qrk = 0.5 * (mu + md) - c1 / (8 * n) * np.eye(n)
    P = np.zeros((4 * k, 4 * k), dtype=complex)
    for i, (Yp, left) in enumerate(zip((y.ynu, y.ye, y.yu, y.yu, y.yu, y.yd, y.yd, y.yd),
                                       (lep, lep, qrk, qrk, qrk, qrk, qrk, qrk))):
        P[R, R][slot[i], slot[i]] = Yp.conj().T @ Yp - c1 / (12 * n) * np.eye(n)
        P[L, L][slot[i], slot[i]] = left
    for i in (0, 1):  # the antiparticle lepton slots
        bar = complex(-c1 / (12 * n)) * np.eye(n)
        P[Rb, Rb][slot[i], slot[i]] = P[Lb, Lb][slot[i], slot[i]] = bar
    want = -float(np.trace(q @ q.conj().T).real / 2 + np.trace(q).real) * P
    parts = want.view(float)
    assert np.signbit(parts[parts == 0]).any()  # the -0.0 parts that `sm --higgs-projection` prints
    assert same(higgs_projection_closed(q, y), want)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_the_algebra_is_the_one_generation_algebra_times_the_identity(n):
    # represent is generation-blind: the n-generation images are the one-generation ones
    # (x) 1_n, bit for bit but for the sign of some zeros (the h:k involution image's
    # one-generation product by 1 + 0j clears the -0.0 real parts of conj(i), which its
    # n-generation off-diagonal products by 0 keep).  The algebra's operators are byte for byte
    # those of the dense n-generation images: the dense route is the independent oracle
    dense, one = sm_dense_images(n), sm_dense_images(1)
    moved = [zero_signs_moved(got, np.kron(want, np.eye(n)))
             for got, want in zip(dense[0] + dense[1], one[0] + one[1], strict=True)]
    assert sum(moved) == moved[24 + sm_algebra(1).labels.index("h:k")] > 0
    for op, images in zip(sm_algebra(n)._stacks, dense, strict=True):
        want = _operator(np.stack(images))
        for name in ("perm", "inv", "phase"):
            a, b = getattr(op, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _refuse_allocation(monkeypatch):
    """Make every route to a 32N x 32N matrix in ``sm`` raise."""
    def refuse(*_, **__):
        raise AssertionError("a 32N x 32N matrix built before the generation cap check")

    for name in ("eye", "zeros"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(sm, "kron", refuse)
    monkeypatch.setattr(sm, "sm_algebra", refuse)


def test_build_sm_refuses_n_over_the_cap_before_allocating(monkeypatch):
    n = GEN_LIMIT + 1
    y = YukawaSet(*[np.zeros((n, n))] * 5)
    _refuse_allocation(monkeypatch)
    with pytest.raises(ValueError) as refusal:
        build_sm(y)
    assert str(refusal.value) == f"N = {n} exceeds the generation cap GEN_LIMIT = {GEN_LIMIT}"


def test_cli_sm_refuses_n_over_the_cap(tmp_path, capsys, monkeypatch):
    n = GEN_LIMIT + 1
    path = tmp_path / "model.json"
    serialize.dump_sm_input(str(path), YukawaSet(*[np.zeros((n, n))] * 5), -1, -1)
    _refuse_allocation(monkeypatch)
    assert cli.main(["sm", "--model", str(path), "--coeffs"]) == 1
    assert capsys.readouterr().err == (
        f"error: N = {n} exceeds the generation cap GEN_LIMIT = {GEN_LIMIT}\n")


# the memo tests below draw from their own seeds, so no model another test holds is shared


def _count_calls(monkeypatch, *targets):
    """Count the calls of each (module, name) through the module's global, by name."""
    calls = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def _equal_copy(y: YukawaSet) -> YukawaSet:
    return YukawaSet(*(m.copy() for m in (y.ynu, y.ye, y.yu, y.yd, y.yr)))


def test_the_oracle_and_the_projection_share_the_callers_triple(monkeypatch):
    # one draw as sm-draws runs it: the oracle's build of equal Yukawas (another object) gets
    # the caller's model, so the axioms and the junk forms are taken once for the draw
    rng = np.random.default_rng(2701)
    y, z = random_yukawas(rng, 1), ZParams(*rng.uniform(0.1, 2.0, size=6))
    model = build_sm(y)
    calls = _count_calls(monkeypatch, (ist, "_evaluate_axioms"), (ncforms, "junk_two_forms"))
    assert build_sm(_equal_copy(y)) is model
    lagrangian_coeffs_oracle(z, _equal_copy(y))
    X = higgs_field_strength(model, quaternion(0.4 + 0.2j, -0.1 + 0.9j))
    ncforms.project_two_form(model.triple, X, varpi=model.varpi)
    assert calls == {"_evaluate_axioms": 1, "junk_two_forms": 1}


@pytest.mark.parametrize("n", [1, 3])
def test_one_form_generators_are_taken_once_per_triple(monkeypatch, n):
    model = build_sm(random_yukawas(np.random.default_rng(2702), n))
    calls = _count_calls(monkeypatch, (ist, "_one_form_generators"))
    ncforms.one_forms(model.triple)
    ncforms.q_space(model.triple, model.varpi)
    fluctuate(model.triple, higgs_one_form(model, quaternion(0.3, 0.2j)))
    assert calls == {"_one_form_generators": 1}


def test_a_model_no_caller_holds_is_not_reused(monkeypatch):
    y = random_yukawas(np.random.default_rng(2703), 1)
    model = build_sm(y)
    check_axioms(model.triple)
    dropped = weakref.ref(model.triple)
    del model  # no cycle holds the model: it and its triple go at once, without a collection
    assert dropped() is None
    calls = _count_calls(monkeypatch, (ist, "_evaluate_axioms"))
    assert check_axioms(build_sm(y).triple).ok and calls == {"_evaluate_axioms": 1}


@pytest.mark.parametrize("n", [1, 3])
def test_the_shared_route_matches_a_fresh_model_bit_for_bit(n):
    rng = np.random.default_rng(2704)
    y, z = random_yukawas(rng, n), ZParams(*rng.uniform(0.1, 2.0, size=6))
    q_h = quaternion(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
    fresh_coeffs = lagrangian_coeffs_oracle(z, y).as_tuple()  # no model held: its own triple
    fresh = build_sm(_equal_copy(y))
    fresh_proj = ncforms.project_two_form(fresh.triple, higgs_field_strength(fresh, q_h),
                                          varpi=fresh.varpi)
    del fresh
    model = build_sm(y)
    shared_coeffs = lagrangian_coeffs_oracle(z, y).as_tuple()  # on the caller's triple
    proj = ncforms.project_two_form(model.triple, higgs_field_strength(model, q_h),
                                    varpi=model.varpi)
    assert shared_coeffs == fresh_coeffs
    assert proj.tobytes() == fresh_proj.tobytes()


def test_a_shared_model_cannot_be_changed_through_any_array():
    y = random_yukawas(np.random.default_rng(2705), 1)
    model = build_sm(y)
    kept = {name: getattr(model.yukawas, name).copy() for name in ("ynu", "ye", "yu", "yd", "yr")}
    y.ye[0, 0] += 1.0  # the caller's array, edited in place
    for name, m in kept.items():
        assert getattr(model.yukawas, name).tobytes() == m.tobytes()
    edited = build_sm(y)  # not served the model of the old values
    assert edited is not model
    assert edited.triple.dirac.tobytes() == finite_dirac(y, -1).tobytes()
    assert model.triple.dirac.tobytes() == finite_dirac(YukawaSet(**kept), -1).tobytes()
    for m in (model.varpi, *(getattr(model.yukawas, name) for name in kept)):
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.varpi = np.eye(32)
    with pytest.raises(dataclasses.FrozenInstanceError):  # would part the Yukawas from the Dirac
        model.yukawas.ye = np.zeros((1, 1))
    y = dataclasses.replace(y, ye=y.ynu.copy())  # a replaced field is new content too
    assert build_sm(y) is not edited
