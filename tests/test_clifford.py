import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import supported_signatures
from test_kspace import _hermitian_basis
from istlab import clifford
from istlab.clifford import (
    Signature,
    _normalized_symmetry,
    build,
    cc_solution_space,
    convention_pairing,
    expected_signs,
    extract_signs,
    measure_signs,
    pin_norms,
    robinson_solution_space,
    verify_relations,
)
from istlab.dims import dims_from_signs, mod8, sign_a
from istlab.kspace import (AXIOM_TOL, RANK_RTOL, AntilinearOperator, _Monomial,
                           is_fundamental_symmetry, read_sign, scalar_coefficient, snap_sign)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(1, 2)
    with pytest.raises(ValueError):
        Signature(-1, 3)
    assert Signature(1, 3).spinor_dim == 4


def test_build_rejects_oversize():
    with pytest.raises(ValueError, match="cap"):
        build(Signature(7, 7))


def test_gamma_refuses_a_vector_of_another_length(module_of):
    with pytest.raises(ValueError, match="vector length does not match the signature"):
        module_of(1, 3).gamma([1.0, 0.0, 0.0])


def test_convention_pairing_refuses_an_unknown_name(module_of):
    with pytest.raises(ValueError, match="unknown convention 'up'"):
        convention_pairing(module_of(1, 3), "up")


def test_cl02_explicit_matrices(module_of):
    m = module_of(0, 2)
    assert_allclose(m.gammas[0], [[0, 1], [1, 0]])
    assert_allclose(m.gammas[1], [[0, 1j], [-1j, 0]])
    assert_allclose(m.chi, np.diag([1.0, -1.0]))
    # plain conjugation on the first generator implements charge conjugation
    assert_allclose(m.jplus.mat, [[0, 1], [1, 0]])


@pytest.mark.parametrize("q, gammas, gram, jplus", [
    (2, [[[0, -1], [1, 0]], [[0, -1j], [-1j, 0]]], [[1, 0], [0, -1]], [[0, -1], [1, 0]]),
    (1, [[[0, -1], [1, 0]], [[0, 1], [1, 0]]], [[0, 1], [1, 0]], np.eye(2)),
], ids=["Cl(2,0)", "Cl(1,1)"])
def test_other_planes_explicit_matrices(q, gammas, gram, jplus, module_of):
    m = module_of(q, 2 - q)
    assert_allclose(m.gammas, gammas)
    assert_allclose(m.chi, np.diag([1.0, -1.0]))
    assert_allclose(m.gram_robinson.gram, gram)
    assert_allclose(m.jplus.mat, jplus)


def test_cl13_explicit_matrices(module_of):
    m = module_of(1, 3)
    assert_allclose(m.gammas[0], [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert_allclose(m.gammas[1], [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert_allclose(m.gammas[2], [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    assert_allclose(m.gammas[3], [[0, 1j, 0, 0], [-1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]])
    assert_allclose(m.chi, np.diag([1.0, -1.0, -1.0, 1.0]))
    assert_allclose(
        m.gram_robinson.gram,
        [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
    )
    # hermitian anti-Robinson gram: i^q times (Robinson gram) chi
    assert_allclose(
        m.gram_antirobinson.gram,
        1j * np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]),
    )


def test_relations_exact(module_of):
    assert verify_relations(module_of(1, 3)) == 0.0
    assert verify_relations(module_of(0, 2)) == 0.0
    assert verify_relations(module_of(3, 3)) <= 1e-12


def test_all_supported_signatures_build(module_of):
    for q, p in supported_signatures(8):
        m = module_of(q, p)
        assert verify_relations(m) <= 1e-12
        assert m.dim == 2 ** ((q + p) // 2)


def test_gamma_traceless(module_of):
    m = module_of(2, 2)
    n = m.dim
    for r in range(1, 5):
        for idx in itertools.combinations(range(4), r):
            prod = np.eye(n, dtype=complex)
            for i in idx:
                prod = prod @ m.gammas[i]
            assert abs(np.trace(prod)) < 1e-12
    assert np.trace(np.eye(n)) == n
    assert abs(np.trace(m.chi)) < 1e-12


def test_chirality_is_normalized_top_element(module_of):
    for q, p in ((0, 2), (1, 3), (2, 2), (3, 1)):
        m = module_of(q, p)
        top = np.eye(m.dim, dtype=complex)
        for g in m.gammas:
            top = top @ g
        phase = 1j ** (((p - q) // 2) % 4)
        assert read_sign(m.chi, phase * top)[1] <= AXIOM_TOL  # chi = +-phase * top
        # chi squares to one and anticommutes with every generator
        assert_allclose(m.chi @ m.chi, np.eye(m.dim), atol=1e-12)
        for g in m.gammas:
            assert_allclose(m.chi @ g, -g @ m.chi, atol=1e-12)
        # eigenspaces split evenly
        assert abs(np.trace(m.chi)) < 1e-12


def test_gamma_adjoints_for_both_grams(module_of):
    for q, p in supported_signatures(6):
        m = module_of(q, p)
        for g in m.gammas:
            assert np.abs(m.gram_robinson.adjoint(g) - g).max() <= 1e-12
            assert np.abs(m.gram_antirobinson.adjoint(g) + g).max() <= 1e-12


def test_antirobinson_is_twisted_robinson(module_of):
    for q, p in ((0, 2), (1, 3), (2, 0), (3, 3)):
        m = module_of(q, p)
        twisted = (1j ** q) * m.gram_robinson.gram @ m.chi
        assert_allclose(m.gram_antirobinson.gram, twisted, atol=1e-12)


def test_jminus_is_chi_jplus(module_of):
    for q, p in ((1, 3), (2, 2), (0, 4)):
        m = module_of(q, p)
        assert_allclose(m.jminus.mat, m.chi @ m.jplus.mat, atol=1e-12)


def test_charge_conjugation_commutation(module_of):
    for q, p in supported_signatures(6):
        m = module_of(q, p)
        for g in m.gammas:
            # J+ commutes, J- anticommutes, as antilinear identities
            assert np.abs(m.jplus.mat @ np.conj(g) - g @ m.jplus.mat).max() <= 1e-12
            assert np.abs(m.jminus.mat @ np.conj(g) + g @ m.jminus.mat).max() <= 1e-12


def test_eta_are_fundamental_symmetries(module_of):
    for q, p in supported_signatures(8):
        m = module_of(q, p)
        assert is_fundamental_symmetry(m.eta_plus, m.gram_robinson).ok
        assert is_fundamental_symmetry(m.eta_minus, m.gram_antirobinson).ok


def test_normalized_symmetry_refuses_an_indefinite_product(module_of):
    # on Cl(2,2) eta_plus comes from gamma_0 gamma_1 and the Robinson gram; gamma_2 gamma_3
    # makes (., P .) indefinite for both signs of P
    m = module_of(2, 2)
    with pytest.raises(ValueError, match="neither sign"):
        _normalized_symmetry(m.gammas[2:], m.gram_robinson)


def test_definiteness_pattern_for_pure_signatures(module_of):
    # p = 0: anti-Robinson definite; Robinson definite per chirality, opposite signs
    m = module_of(2, 0)
    anti = np.linalg.eigvalsh(m.gram_antirobinson.gram)
    assert anti.max() < 0 or anti.min() > 0
    rob = m.gram_robinson.gram
    plus = np.diag(m.chi).real > 0
    rob_plus = np.linalg.eigvalsh(rob[np.ix_(plus, plus)])
    rob_minus = np.linalg.eigvalsh(rob[np.ix_(~plus, ~plus)])
    assert rob_plus.min() * rob_minus.max() < 0
    # q = 0: Robinson positive definite outright
    m2 = module_of(0, 2)
    assert np.linalg.eigvalsh(m2.gram_robinson.gram).min() > 0


def test_extract_signs_against_table(module_of):
    for q, p in supported_signatures(8):
        m = module_of(q, p)
        for conv in ("east", "west", "south", "north"):
            assert extract_signs(m, conv) == expected_signs(q, p, conv)
    with pytest.raises(ValueError, match="unknown convention"):
        expected_signs(1, 3, "up")


def test_extract_signs_examples(module_of):
    west13 = extract_signs(module_of(1, 3), "west")
    assert (west13.eps, west13.kap, west13.eps2) == (sign_a(2), sign_a(4), -1)
    east02 = extract_signs(module_of(0, 2), "east")
    assert (east02.eps, east02.kap) == (sign_a(-2), sign_a(2))
    for conv in ("east", "west", "south", "north"):
        assert extract_signs(module_of(2, 2), conv).eps2 == 1


def test_east_west_dims(module_of):
    for q, p in supported_signatures(8):
        m = module_of(q, p)
        assert dims_from_signs(extract_signs(m, "east")) == (mod8(q - p), mod8(q + p))
        assert dims_from_signs(extract_signs(m, "west")) == (mod8(p - q), mod8(q + p))


def test_robinson_solution_space_unique(module_of):
    for q, p in ((1, 3), (0, 2), (2, 2)):
        m = module_of(q, p)
        basis = robinson_solution_space(m)
        assert len(basis) == 1
        scalar_coefficient(basis[0], m.gram_robinson.gram, tol=1e-8)


def test_cc_solution_space_unique_with_correct_square(module_of):
    for q, p in ((1, 3), (0, 2), (3, 1)):
        m = module_of(q, p)
        basis = cc_solution_space(m)
        assert len(basis) == 1
        scalar_coefficient(basis[0], m.jplus.mat, tol=1e-8)
        sq = scalar_coefficient(basis[0] @ np.conj(basis[0]), np.eye(m.dim))
        assert snap_sign(sq) == sign_a(q - p)


def test_doubled_module_solution_spaces(module_of):
    # two copies of an irreducible module have commutant M_2(C): the hermitian
    # Robinson grams form a real 4-space, the conjugations a complex 4-space
    for q, p in ((1, 3), (0, 2)):
        m = module_of(q, p)
        gammas = [np.kron(np.eye(2), g) for g in m.gammas]
        doubled = dataclasses.replace(m, dim=2 * m.dim, gammas=gammas)
        rob = robinson_solution_space(doubled)
        assert len(rob) == 4
        for F in rob:
            assert np.abs(F - F.conj().T).max() <= 1e-12
            assert max(np.abs(g.conj().T @ F - F @ g).max() for g in gammas) <= 1e-12
        cc = cc_solution_space(doubled)
        assert len(cc) == 4
        for M in cc:
            assert max(np.abs(M @ np.conj(g) - g @ M).max() for g in gammas) <= 1e-12


def _dense_cc_solution_space(gammas):
    """Null space of the full complex system M conj(gamma^a) - gamma^a M = 0 by one SVD."""
    n = len(gammas[0])
    eye = np.eye(n)
    A = np.vstack([np.kron(eye, g.conj().T) - np.kron(g, eye) for g in gammas])
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    return list(vt[int(np.sum(s > s[0] * RANK_RTOL)):].conj().reshape(-1, n, n))


def _dense_robinson_solution_space(gammas):
    """Kernel of the realified images gamma^a dag F - F gamma^a over a hermitian basis F."""
    n = len(gammas[0])
    H = _hermitian_basis(n)
    images = np.stack([g.conj().T @ H - H @ g for g in gammas], axis=1)
    A = np.concatenate([images.real, images.imag], axis=1).reshape(n * n, -1)
    u, s, _ = np.linalg.svd(A)
    return list(np.tensordot(u[:, int(np.sum(s > s[0] * RANK_RTOL)):].T, H, axes=1))


def _projector(vectors, real):
    """Orthogonal projector onto the complex span, or the real span when ``real`` is set."""
    V = np.stack([np.ravel(v) for v in vectors], axis=1)
    Q, _ = np.linalg.qr(np.vstack([V.real, V.imag]) if real else V)
    return Q @ Q.conj().T


def test_cc_solution_space_matches_dense_svd(module_of):
    # both component-wise oracles must find the space one SVD of a dense system finds
    cases = [module_of(q, p).gammas for q, p in supported_signatures(6)]
    cases += [[np.kron(np.eye(2), g) for g in module_of(q, p).gammas] for q, p in ((1, 3), (0, 2))]
    oracles = ((cc_solution_space, _dense_cc_solution_space, False),
               (robinson_solution_space, _dense_robinson_solution_space, True))
    for gammas in cases:
        n = len(gammas[0])
        module = dataclasses.replace(module_of(1, 1), dim=n, gammas=gammas)
        for oracle, dense, real in oracles:
            want, got = dense(gammas), oracle(module)
            assert len(got) == len(want)
            assert np.abs(_projector(got, real) - _projector(want, real)).max() <= 1e-12


def test_intertwiners_drop_exact_multiples_only(module_of, monkeypatch):
    # a generator's equations pair up as exact multiples and one of each pair drops; one ulp
    # off in one coefficient keeps both equations of the n pairs that coefficient is in, and a
    # singular A_a, whose equations the pairing does not describe, keeps every equation
    g = np.stack(module_of(1, 3).gammas)
    A, (d, n) = g.conj().transpose(0, 2, 1), g.shape[:2]
    kept, block_svd = [], clifford._block_svd

    def spy(rows, cols, *args, **kwargs):
        kept.append(len(set(cols.tolist())))
        return block_svd(rows, cols, *args, **kwargs)

    monkeypatch.setattr(clifford, "_block_svd", spy)
    clifford._intertwiners(A, g)
    k = np.flatnonzero(A[0, 0])[0]
    A[0, 0, k] = np.nextafter(A[0, 0, k].real, np.inf) + 1j * A[0, 0, k].imag
    clifford._intertwiners(A, g)
    A[0, 1] = 2 * A[0, 0]  # two rows of A_0 now share a column: nothing is dropped
    clifford._intertwiners(A, g)
    assert kept == [d * n * n // 2, d * n * n // 2 + n, d * n * n]


def test_solution_spaces_at_the_cap():
    # d = 12, odd-odd: both spaces are lines, in bounded memory (a dense system takes 3 GiB);
    # the kernel-only blocks and the QR's copy of them peak at 59 MiB, bounded with a margin
    module = build(Signature(5, 7))
    tracemalloc.start()
    try:
        rob, cc = robinson_solution_space(module), cc_solution_space(module)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rob) == len(cc) == 1 and peak < 80 * 2**20
    scalar_coefficient(rob[0], module.gram_robinson.gram, tol=1e-8)
    sq = scalar_coefficient(cc[0] @ np.conj(cc[0]), np.eye(module.dim), tol=1e-8)
    assert snap_sign(sq) == sign_a(5 - 7)


def test_pin_norms(module_of):
    m = module_of(1, 3)
    assert pin_norms(m, []) == (1, 1)
    e0 = [1.0, 0, 0, 0]  # negative unit vector
    assert pin_norms(m, [e0]) == (-1, 1)
    e1, e2 = [0, 1.0, 0, 0], [0, 0, 1.0, 0]
    assert pin_norms(m, [e1, e2]) == (1, 1)
    # identity component preserves both products
    assert pin_norms(m, [e0, e0]) == (1, 1)
    with pytest.raises(ValueError, match=r"g\(v, v\)"):
        pin_norms(m, [[0.5, 0, 0, 0]])


def test_pin_norms_products(module_of, rng):
    m = module_of(2, 2)
    g = m.sig.metric()
    vectors = []
    for _ in range(3):
        v = rng.normal(size=4)
        v = v / np.sqrt(abs(v @ g @ v))
        vectors.append(v)
    x, y = pin_norms(m, vectors)
    signs = [float(np.sign(v @ g @ v)) for v in vectors]
    assert x == int(np.prod(signs))
    assert y == int(np.prod([-s for s in signs]))


def test_measure_signs_refuses_a_j_off_its_signs_by_more_than_axiom_tol(module_of):
    m = module_of(1, 3)
    nudged = AntilinearOperator(m.jplus.mat + 1e-9 * np.eye(m.dim))
    with pytest.raises(ValueError, match="relations exceed AXIOM_TOL 1e-10: .*cc_square"):
        measure_signs(m.gram_robinson, nudged, m.chi)


def test_charge_conjugation_adjoint_sign(module_of):
    # against the Robinson product, J+ of Cl(1,3) is anti-self-adjoint
    from istlab.kspace import antilinear_adjoint

    m = module_of(1, 3)
    adj = antilinear_adjoint(m.jplus, m.gram_robinson)
    assert np.abs(adj.mat - sign_a(-4) * m.jplus.mat).max() <= 1e-12


def _relations_over_ordered_pairs(module):
    g, n, worst = module.sig.metric(), module.dim, 0.0
    for a, ga in enumerate(module.gammas):
        for b, gb in enumerate(module.gammas):
            acom = ga @ gb + gb @ ga - 2.0 * g[a, b] * np.eye(n)
            worst = max(worst, float(np.abs(acom).max()))
    return worst


def _broken(m, rng):
    """The module with one generator's phase flipped in one row, its columns permuted, or
    replaced by a dense conjugate U gamma U^-1, which takes the dense operator route."""
    g, n = m.gammas[1], m.dim
    flipped = g.copy()
    flipped[0] *= -1
    U = np.eye(n) + 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    for other in (flipped, g[:, rng.permutation(n)], U @ g @ np.linalg.inv(U)):
        yield dataclasses.replace(m, gammas=[m.gammas[0], other, *m.gammas[2:]])


def test_relations_over_unordered_pairs_match_all_ordered_pairs(module_of, rng):
    # each anticommutator is checked once, from monomial compositions where it can be, and
    # is the same floating-point value as the dense (a, b) and (b, a) sums
    sigs = supported_signatures(12)
    assert len(sigs) == 48
    for q, p in sigs:
        m = module_of(q, p)
        assert verify_relations(m) == _relations_over_ordered_pairs(m)
    for d in range(2, 13, 2):
        for broken in _broken(module_of(d // 2, d - d // 2), rng):
            assert verify_relations(broken) == _relations_over_ordered_pairs(broken) > 1e-4
    m = module_of(2, 2)
    noise = rng.normal(size=(m.dim, m.dim)) + 1j * rng.normal(size=(m.dim, m.dim))
    broken = dataclasses.replace(m, gammas=[m.gammas[0], m.gammas[1] + 1e-3 * noise, *m.gammas[2:]])
    assert verify_relations(broken) == _relations_over_ordered_pairs(broken) > 1e-4


def test_relations_see_a_wrong_composition_rule(module_of, monkeypatch):
    # a composition that multiplies the phases row by row, not along self.perm, must show
    compose = _Monomial.__matmul__

    def wrong(self, other):
        right = compose(self, other)
        return _Monomial(right.perm, right.inv, self.phase * other.phase)

    sigs = supported_signatures(6)
    exact = [verify_relations(module_of(q, p)) for q, p in sigs]
    monkeypatch.setattr(_Monomial, "__matmul__", wrong)
    assert max(verify_relations(module_of(q, p)) for q, p in sigs) > 1.0 > max(exact)


def test_build_matches_the_np_kron_route(monkeypatch):
    # the broadcast product is np.kron's single product per entry, so every matrix is equal
    def fields(m):
        return [*m.gammas, m.chi, m.eta_plus, m.eta_minus, m.gram_robinson.gram,
                m.gram_antirobinson.gram, m.jplus.mat, m.jminus.mat]

    sigs = supported_signatures(12)
    got = [fields(build(Signature(q, p))) for q, p in sigs]
    monkeypatch.setattr(clifford, "kron", np.kron)
    for (q, p), mats in zip(sigs, got):
        kron = fields(build(Signature(q, p)))
        assert all(np.array_equal(a, b) for a, b in zip(mats, kron)), (q, p)
