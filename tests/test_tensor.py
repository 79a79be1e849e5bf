import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_yukawas, supported_signatures
from istlab import clifford, tensor
from istlab.clifford import Signature, build, extract_signs, measure_signs, verify_relations
from istlab.dims import mod8, sign_a
from istlab.ist import check_axioms, from_clifford_module, triple_dims
from istlab.kspace import _Dense, _Monomial, is_fundamental_symmetry
from istlab.sm import build_sm
from istlab.tensor import beta_twist, operator_parity, tensor_eta, tensor_ist, tensor_modules


def test_operator_parity(module_of):
    m = module_of(1, 3)
    assert operator_parity(m.gammas[0], m.chi) == 1
    assert operator_parity(m.gammas[0] @ m.gammas[1], m.chi) == 0
    with pytest.raises(ValueError, match="mixed"):
        operator_parity(m.gammas[0] + np.eye(4), m.chi)


def test_tensor_cl11_cl02_matches_direct_build(module_of):
    prod = tensor_modules(module_of(1, 1), module_of(0, 2))
    assert prod.sig == Signature(1, 3)
    assert verify_relations(prod) <= 1e-12
    direct = module_of(1, 3)
    for conv in ("east", "west", "south", "north"):
        assert extract_signs(prod, conv) == extract_signs(direct, conv)


def test_tensor_even_first_factor_takes_plain_gram(module_of):
    m = module_of(0, 2)
    prod = tensor_modules(m, m)
    assert_allclose(
        prod.gram_robinson.gram,
        np.kron(m.gram_robinson.gram, m.gram_robinson.gram),
        atol=1e-12,
    )
    # J+ squares to a(q-p) = a(-4) = -1 on Cl(0,4)
    assert_allclose(prod.jplus.square(), sign_a(-4) * np.eye(4), atol=1e-12)


def test_tensor_odd_first_factor_twists_gram(module_of):
    m1, m2 = module_of(1, 1), module_of(1, 1)
    prod = tensor_modules(m1, m2)
    assert_allclose(
        prod.gram_robinson.gram,
        np.kron(m1.gram_robinson.gram, m2.gram_antirobinson.gram),
        atol=1e-12,
    )


def test_zero_dimensional_factor_rejected():
    with pytest.raises(ValueError):
        Signature(0, 0)


def test_tensor_modules_refuses_products_over_the_cap(module_of, monkeypatch):
    def kron(*_):
        raise AssertionError("Kronecker product built before the cap check")

    m1, m2 = module_of(6, 6), module_of(0, 2)
    monkeypatch.setattr(clifford, "kron", kron)  # clifford._product's only Kronecker product
    with pytest.raises(ValueError, match="dimension 14 exceeds the dense-algebra cap 12"):
        tensor_modules(m1, m2)


def _matrices(m):
    return [*m.gammas, m.chi, m.eta_plus, m.eta_minus, m.gram_robinson.gram,
            m.gram_antirobinson.gram, m.jplus.mat, m.jminus.mat]


@pytest.mark.parametrize("q, p", [sig for sig in supported_signatures(12) if sum(sig) >= 4])
def test_build_is_the_tensor_product_of_its_plane_and_rest(q, p):
    # the plane is Cl(1,1) for odd q, Cl(2,0) for even q >= 2 and Cl(0,2) for q = 0
    a = 1 if q % 2 else min(q, 2)
    prod = tensor_modules(build(Signature(a, 2 - a)), build(Signature(q - a, p - 2 + a)))
    module = build(Signature(q, p))
    assert prod.sig == module.sig and prod.dim == module.dim
    for got, want in zip(_matrices(module), _matrices(prod), strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_tensor_generator_adjoints(module_of):
    prod = tensor_modules(module_of(1, 1), module_of(0, 2))
    for g in prod.gammas:
        assert np.abs(prod.gram_robinson.adjoint(g) - g).max() <= 1e-12


def test_tensor_adjoint_sign_rule(module_of):
    # (T1 (x) T2)^x = (-1)^(|T1||T2|) T1^x (x) T2^x, read through the
    # non-graded dressing T1 chi_1^|T2| (x) T2 with factorwise adjoints
    for sig1, sig2 in (((1, 1), (0, 2)), ((1, 1), (1, 3)), ((0, 2), (2, 2))):
        m1, m2 = module_of(*sig1), module_of(*sig2)
        prod = tensor_modules(m1, m2)
        hom1 = {0: m1.gammas[0] @ m1.gammas[1], 1: m1.gammas[0]}
        hom2 = {0: m2.gammas[0] @ m2.gammas[1], 1: m2.gammas[1]}
        for p1, T1 in hom1.items():
            for p2, T2 in hom2.items():
                chipow = m1.chi if p2 else np.eye(m1.dim)
                big = np.kron(T1 @ chipow, T2)
                expected = (-1) ** (p1 * p2) * np.kron(
                    m1.gram_robinson.adjoint(T1) @ chipow,
                    m2.gram_robinson.adjoint(T2),
                )
                got = prod.gram_robinson.adjoint(big)
                assert np.abs(got - expected).max() <= 1e-10


def test_tensor_modules_dims_additive(module_of):
    sigs = supported_signatures(6)
    for q1, p1 in sigs:
        for q2, p2 in sigs:
            if q1 + p1 + q2 + p2 > 8:
                continue
            prod = tensor_modules(module_of(q1, p1), module_of(q2, p2))
            assert verify_relations(prod) <= 1e-10
            got = extract_signs(prod, "east")
            assert got.eps == sign_a(q1 + q2 - p1 - p2)
            assert got.kap == sign_a(q1 + q2 + p1 + p2)


def test_tensor_ist_dims_additive(module_of):
    for (q1, p1), (q2, p2), c1, c2 in (
        ((1, 1), (0, 2), "east", "west"),
        ((2, 0), (0, 2), "south", "north"),
        ((1, 3), (1, 1), "west", "west"),
        ((3, 1), (0, 4), "north", "east"),
    ):
        t1 = from_clifford_module(module_of(q1, p1), c1)
        t2 = from_clifford_module(module_of(q2, p2), c2)
        n1, m1 = triple_dims(t1)
        n2, m2 = triple_dims(t2)
        product = tensor_ist(t1, t2)
        assert check_axioms(product).ok
        assert triple_dims(product) == (mod8(n1 + n2), mod8(m1 + m2))


def test_tensor_ist_identity_like_factor(module_of):
    # a 2-dimensional Euclidean factor with D = 0 and dims (0, 0)
    t1 = from_clifford_module(module_of(1, 3), "south")
    t2 = from_clifford_module(module_of(0, 2), "west", dirac=np.zeros((2, 2)))
    assert triple_dims(t2) == (2, 2)
    t0 = from_clifford_module(module_of(2, 2), "south", dirac=np.zeros((4, 4)))
    assert triple_dims(t0) == (0, 4)
    prod = tensor_ist(t1, t2)
    n1, m1 = triple_dims(t1)
    assert triple_dims(prod) == (mod8(n1 + 2), mod8(m1 + 2))


def test_tensor_eps_formula(module_of):
    # eps of the product follows a(n1 + n2) for every convention mix
    for c1 in ("east", "west"):
        for c2 in ("east", "west"):
            t1 = from_clifford_module(module_of(1, 1), c1)
            t2 = from_clifford_module(module_of(1, 3), c2)
            s1, s2 = (measure_signs(t.form, t.cc, t.chi) for t in (t1, t2))
            prod = tensor_ist(t1, t2)
            got = measure_signs(prod.form, prod.cc, prod.chi)
            combined = (
                0.5 * s1.eps * s2.eps * (1 + s1.eps2 + s2.eps2 - s1.eps2 * s2.eps2)
            )
            assert got.eps == combined
            n1 = triple_dims(t1)[0]
            n2 = triple_dims(t2)[0]
            assert got.eps == sign_a(n1 + n2)


def test_beta_twist_cases(module_of):
    chi = module_of(0, 2).chi
    assert_allclose(beta_twist(0, 1, chi), np.eye(2))
    assert_allclose(beta_twist(1, 0, chi), chi)
    assert_allclose(beta_twist(1, 1, chi), 1j * chi)


def test_tensor_eta_cases(module_of):
    # sigma1 = 0: plain kron of the privileged symmetries
    t1 = from_clifford_module(module_of(0, 2), "south")
    t2 = from_clifford_module(module_of(0, 2), "west")
    assert (t1.sigma, t2.sigma) == (0, 0)
    m = module_of(0, 2)
    # both conventions here read the Robinson product, whose symmetry is eta_plus
    eta = tensor_eta(m.eta_plus, m.eta_plus, t1, t2)
    assert_allclose(eta, np.kron(m.eta_plus, m.eta_plus), atol=1e-12)

    # Cl(1,1) x Cl(0,2): odd first factor inserts the twist, result still works
    t1 = from_clifford_module(module_of(1, 1), "south")
    m1 = module_of(1, 1)
    eta = tensor_eta(m1.eta_plus, m.eta_plus, t1, t2)
    prod = tensor_ist(t1, t2)
    assert is_fundamental_symmetry(eta, prod.form).ok

    # sigma1 = sigma2 = 1: the phase i appears and eta stays involutive
    t1 = from_clifford_module(module_of(1, 1), "south")
    t2b = from_clifford_module(module_of(1, 3), "west")
    assert (t1.sigma, t2b.sigma) == (1, 1)
    m13 = module_of(1, 3)
    eta = tensor_eta(m1.eta_plus, m13.eta_plus, t1, t2b)
    assert_allclose(eta @ eta, np.eye(8), atol=1e-12)
    prod = tensor_ist(t1, t2b)
    assert is_fundamental_symmetry(eta, prod.form).ok


def test_tensor_eta_rejects_non_privileged(module_of):
    t1 = from_clifford_module(module_of(0, 2), "south")
    t2 = from_clifford_module(module_of(0, 2), "south")
    with pytest.raises(ValueError, match="fundamental symmetry"):
        tensor_eta(np.eye(2) * 2, module_of(0, 2).eta_plus, t1, t2)


def test_tensor_ist_matches_the_np_kron_route(module_of, monkeypatch):
    # every Kronecker product is np.kron's: gram, chi, J and Dirac bit for bit, and the images
    # as values, since a monomial's read-back scatters into zeros and so has no -0.0
    def np_kron(a, b):  # an operator stack pairs i-major, image by image
        if isinstance(a, (_Monomial, _Dense)):
            return [np.kron(x, y) for x in a.dense() for y in b.dense()]
        return np.kron(a, b)

    def fields(t):
        return [t.form.gram, t.chi, t.cc.mat, t.dirac, *t.algebra.basis, *t.algebra.involution]

    sm_triple = build_sm(random_yukawas(np.random.default_rng(5), 1)).triple
    pairs = [(from_clifford_module(module_of(1, 3), "west"), sm_triple),
             (from_clifford_module(module_of(2, 2), "east"),
              from_clifford_module(module_of(0, 2), "north"))]
    got = [fields(tensor_ist(t1, t2)) for t1, t2 in pairs]
    monkeypatch.setattr(tensor, "kron", np_kron)
    for mats, (t1, t2) in zip(got, pairs):
        want = fields(tensor_ist(t1, t2))
        assert len(mats) == len(want) and all(np.array_equal(a, b) for a, b in zip(mats, want))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(mats[:4], want))
