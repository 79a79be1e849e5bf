import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_yukawas
from istlab.clifford import Signature, build, robinson_solution_space
from istlab.ist import one_form_generators
from istlab.kspace import (
    RANK_RTOL,
    AntilinearOperator,
    DegenerateProjectionError,
    KreinForm,
    _Dense,
    _Monomial,
    _Sparse,
    _block_svd,
    _operator,
    antilinear_adjoint,
    is_fundamental_symmetry,
    kron,
    read_sign,
    real_bilinear_project,
    realspan,
    relate_fundamental_symmetries,
    trace_form,
)
from istlab.sm import build_sm


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_krein_form_rejects_bad_grams():
    with pytest.raises(ValueError, match="hermitian"):
        KreinForm([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="singular"):
        KreinForm(np.zeros((2, 2)))


def test_sign_readers_refuse_a_defect_above_axiom_tol():
    form, chi = KreinForm(np.diag([1.0, -1.0])), np.diag([1.0, -1.0])
    assert read_sign(-chi, chi) == (-1, 0.0)
    s, defect = read_sign(chi + 2e-10, chi)
    assert s == 1 and 1e-10 < defect < 3e-10  # no refusal without a message
    with pytest.raises(ValueError, match="^off: defect 2e-10 exceeds AXIOM_TOL 1e-10$"):
        read_sign(chi + 2e-10, chi, "off")
    assert form.adjoint_sign(chi) == 1 and AntilinearOperator(np.eye(2)).parity_sign(chi) == 1
    with pytest.raises(ValueError, match="Krein symmetric"):
        form.adjoint_sign(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not homogeneous"):
        AntilinearOperator(np.eye(2) + 1e-9 * np.ones((2, 2))).parity_sign(chi)


def test_krein_adjoint_examples():
    form = KreinForm(np.diag([1.0, -1.0]))
    assert_allclose(form.adjoint(np.eye(2)), np.eye(2))
    T = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(form.adjoint(T), [[0.0, 0.0], [-1.0, 0.0]])
    # Hilbert case: positive definite identity gram
    hilbert = KreinForm(np.eye(2))
    M = np.array([[1.0, 2j], [0.0, -1.0]])
    assert_allclose(hilbert.adjoint(M), M.conj().T)


def test_krein_adjoint_is_involutive_antihomomorphism(rng):
    form = KreinForm(np.diag([1.0, -1.0, 1.0, -1.0]))
    for _ in range(20):
        A, B = random_matrix(rng, 4), random_matrix(rng, 4)
        assert_allclose(form.adjoint(form.adjoint(A)), A, rtol=0, atol=1e-10)
        assert_allclose(
            form.adjoint(A @ B), form.adjoint(B) @ form.adjoint(A), atol=1e-10
        )


def test_antilinear_adjoint_defining_identity(rng):
    n = 4
    gram = random_matrix(rng, n)
    gram = gram + gram.conj().T + 6 * np.eye(n)
    form = KreinForm(gram)
    K = AntilinearOperator(random_matrix(rng, n))
    Kx = antilinear_adjoint(K, form)
    for i in range(n):
        for j in range(n):
            ei, ej = np.eye(n)[i], np.eye(n)[j]
            lhs = form.pair(ei, K(ej))
            rhs = np.conj(form.pair(Kx(ei), ej))
            assert abs(lhs - rhs) < 1e-10


def test_antilinear_adjoint_euclidean_case(rng):
    # for the identity gram the adjoint is conjugation composed after M^dag
    form = KreinForm(np.eye(3))
    M = random_matrix(rng, 3)
    Kx = antilinear_adjoint(AntilinearOperator(M), form)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert_allclose(Kx(psi), np.conj(M.conj().T @ psi), atol=1e-12)


def test_plain_conjugation_self_adjoint_for_identity_gram():
    form = KreinForm(np.eye(3))
    cc = AntilinearOperator(np.eye(3))
    assert_allclose(antilinear_adjoint(cc, form).mat, np.eye(3))


def test_is_fundamental_symmetry_cases():
    hilbert = KreinForm(np.eye(2))
    assert is_fundamental_symmetry(np.eye(2), hilbert).ok
    mink = KreinForm(np.diag([1.0, -1.0]))
    assert is_fundamental_symmetry(np.diag([1.0, -1.0]), mink).ok
    report = is_fundamental_symmetry(np.eye(2), mink)
    assert not report.ok
    assert "positive" in report.reason


def test_relate_fundamental_symmetries_identity():
    form = KreinForm(np.diag([-1.0, 1.0]))
    eta = np.diag([-1.0, 1.0])
    U = relate_fundamental_symmetries(eta, eta, form)
    assert_allclose(U, np.eye(2), atol=1e-12)


def test_relate_fundamental_symmetries_boost():
    # 2D Minkowski: a boosted symmetry comes from a pure boost with det 1
    form = KreinForm(np.diag([-1.0, 1.0]))
    eta = np.diag([-1.0, 1.0])
    chi = 0.8
    boost = np.array([[np.cosh(chi), np.sinh(chi)], [np.sinh(chi), np.cosh(chi)]])
    nu = np.linalg.inv(boost) @ eta @ boost  # Krein-unitary conjugate
    assert is_fundamental_symmetry(nu, form).ok
    U = relate_fundamental_symmetries(eta, nu, form)
    assert_allclose(form.adjoint(U) @ eta @ U, nu, atol=1e-10)
    assert_allclose(form.adjoint(U) @ U, np.eye(2), atol=1e-10)
    assert abs(np.linalg.det(U) - 1.0) < 1e-10
    # positive spectrum in the eta inner product
    eigs = np.linalg.eigvals(U)
    assert np.all(eigs.real > 0)


def test_relate_fundamental_symmetries_swapped_basis():
    # hyperbolic gram: off-diagonal symmetries related by a diagonal boost
    form = KreinForm(np.array([[0.0, 1.0], [1.0, 0.0]]))
    eta = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = 0.6
    nu = np.array([[0.0, np.exp(-2 * t)], [np.exp(2 * t), 0.0]])
    assert is_fundamental_symmetry(eta, form).ok
    assert is_fundamental_symmetry(nu, form).ok
    U = relate_fundamental_symmetries(eta, nu, form)
    assert_allclose(form.adjoint(U) @ eta @ U, nu, atol=1e-10)
    P = form.gram @ eta
    vals = np.linalg.eigvalsh(0.5 * ((P @ U) + (P @ U).conj().T))
    assert vals.min() > 0


def test_relate_rejects_non_symmetries():
    form = KreinForm(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="fundamental symmetry"):
        relate_fundamental_symmetries(np.eye(2), np.diag([1.0, -1.0]), form)


def test_projection_recovers_members_and_kills_orthogonals(rng):
    span = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    X = 2.0 * span[0] - 3.0 * span[1]
    proj, resid = real_bilinear_project(X, span)
    assert_allclose(proj, X, atol=1e-12)
    assert_allclose(resid, 0 * X, atol=1e-12)
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    proj, resid = real_bilinear_project(off, span)
    assert_allclose(proj, 0 * off, atol=1e-12)
    assert_allclose(resid, off, atol=1e-12)


def test_projection_idempotent_and_orthogonal(rng):
    n = 4
    varpi = np.diag([1.0, 1.0, -1.0, -1.0])
    span = [random_matrix(rng, n) for _ in range(5)]
    X = random_matrix(rng, n)
    proj, resid = real_bilinear_project(X, span, varpi)
    proj2, resid2 = real_bilinear_project(proj, span, varpi)
    assert_allclose(proj2, proj, atol=1e-8)
    assert_allclose(resid2, 0 * X, atol=1e-8)
    for S in span:
        inner = np.trace(varpi @ S.conj().T @ varpi @ resid).real
        assert abs(inner) < 1e-8


def test_projection_degenerate_gram_rejected():
    span = [np.eye(2), np.eye(2) * (1 + 1e-14)]
    with pytest.raises(DegenerateProjectionError, match="degenerate projection"):
        real_bilinear_project(np.eye(2), span)


def test_projection_degenerate_supplied_gram_rejected():
    span = [np.eye(2), np.eye(2) * (1 + 1e-14)]
    with pytest.raises(DegenerateProjectionError, match="degenerate projection"):
        real_bilinear_project(np.eye(2), span, gram=np.full((2, 2), 2.0))


def test_eta_adjoint_identity(rng):
    # for a fundamental symmetry eta: T^(dag eta) = eta T^x eta
    form = KreinForm(np.diag([1.0, -1.0, 1.0]))
    eta = np.diag([1.0, -1.0, 1.0])
    assert is_fundamental_symmetry(eta, form).ok
    hilbert = KreinForm(form.gram @ eta)
    for _ in range(10):
        T = random_matrix(rng, 3)
        lhs = hilbert.adjoint(T)
        rhs = eta @ form.adjoint(T) @ eta
        assert_allclose(lhs, rhs, atol=1e-10)


def _realify_all(mats):
    """Reference realification over every coordinate, no zero dropped."""
    return np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats])


def _hermitian_basis(n: int) -> np.ndarray:
    """An (n^2, n, n) real basis of the hermitian matrices, orthonormal for Re tr(S^dag T)."""
    i, j = np.triu_indices(n, 1)
    k, m, d = np.arange(i.size), i.size, np.arange(n)
    H = np.zeros((n * n, n, n), dtype=complex)
    H[d, d, d] = 1.0
    H[n + k, i, j] = H[n + k, j, i] = np.sqrt(0.5)
    H[n + m + k, i, j] = 1j * np.sqrt(0.5)
    H[n + m + k, j, i] = -1j * np.sqrt(0.5)
    return H


def _robinson_images(gammas):
    """The stack gamma^a dag F - F gamma^a over the hermitian basis F."""
    n = len(gammas[0])
    H = _hermitian_basis(n)
    g = np.stack(gammas)
    images = g.conj().transpose(0, 2, 1)[None] @ H[:, None] - H[:, None] @ g[None]
    return images.reshape(n * n, len(g) * n, n)


def _component_count(A):
    """Connected components of the rows and columns of A joined by its nonzeros (BFS)."""
    m, k = A.shape
    seen_rows, seen_cols, count = set(), set(), 0
    for start in range(m):
        if start in seen_rows:
            continue
        count += 1
        todo = [start]
        seen_rows.add(start)
        while todo:
            for j in np.flatnonzero(A[todo.pop()]):
                if j not in seen_cols:
                    seen_cols.add(j)
                    for i in np.flatnonzero(A[:, j]):
                        if i not in seen_rows:
                            seen_rows.add(i)
                            todo.append(i)
    return count


def _realspan_case(case, rng):
    """The matrices of a named case and whether their pattern splits into components."""
    if case == "dense":
        mats = [random_matrix(rng, 5) for _ in range(9)]
        mats.append(mats[0] - 2.5 * mats[3])  # one exact dependency
        return np.stack(mats), False
    if case.startswith("sm"):
        model = build_sm(random_yukawas(rng, int(case[-1])))
        return one_form_generators(model.triple)[2].dense(), True
    if case.startswith("robinson"):
        q, p = (int(x) for x in case.split("-")[1:])
        return _robinson_images(build(Signature(q, p)).gammas), True
    if case == "doubled":
        gammas = [np.kron(np.eye(2), g) for g in build(Signature(1, 3)).gammas]
        return _robinson_images(gammas), True
    if case == "tiny-block":  # below the global cutoff, though large within its own block
        mats = np.zeros((4, 3, 3), dtype=complex)
        mats[:2, 0] = rng.normal(size=(2, 3))
        mats[2:, 1:] = 1e-13 * rng.normal(size=(2, 2, 3))
        return mats, True
    if case == "zero-matrix":  # its row is a component without columns
        mats = [random_matrix(rng, 3), np.zeros((3, 3)), random_matrix(rng, 3)]
        mats[2][:, 0] = mats[0][:, 1:] = 0
        return np.stack(mats), True
    return np.zeros((0, 4, 4), dtype=complex), False  # empty


@pytest.mark.parametrize("case", ["sm-n1", "sm-n3", "dense", "robinson-2-2", "robinson-1-5",
                                  "robinson-3-3", "doubled", "tiny-block", "zero-matrix",
                                  "empty"])
def test_realspan_matches_full_svd(case, rng):
    mats, split = _realspan_case(case, rng)
    A = _realify_all(mats).reshape(len(mats), 2 * mats.shape[1] * mats.shape[2])
    assert (_component_count(A) > 1) == split
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > s[0] * RANK_RTOL)) if s.size else 0

    span = realspan(mats)
    assert span.rank == rank
    assert span.kernel.shape == (len(mats), len(mats) - rank)
    assert span.singular_values.shape == s.shape
    assert np.abs(span.singular_values - s).max(initial=0.0) <= 1e-12 * s.max(initial=0.0)
    kept = s[:rank]
    err = np.abs(span.singular_values[:rank] - kept).max(initial=0.0)
    assert err <= 1e-12 * kept.min(initial=1.0)
    # orthonormal basis of the same span; kernel vectors annihilate the matrices
    B = _realify_all(span.basis).reshape(rank, A.shape[1])
    assert_allclose(B @ B.T, np.eye(rank), atol=1e-12)
    assert np.abs(A - (A @ B.T) @ B).max(initial=0.0) <= 1e-12 * s.max(initial=0.0)
    assert np.abs(span.kernel.T @ A).max(initial=0.0) <= 1e-12 * s.max(initial=0.0)
    assert_allclose(span.kernel.T @ span.kernel, np.eye(len(mats) - rank), atol=1e-12)


@pytest.mark.parametrize("m", [12, 40])
def test_connected_realspan_is_one_svd_bit_for_bit(m, rng):
    # a connected pattern takes a single SVD of the realified matrix, unchanged
    mats = np.stack([random_matrix(rng, 4) for _ in range(m)])
    mats[:, 0, 0] = 0  # a coordinate the realification drops
    flat = mats.reshape(m, -1)
    re_on, im_on = (flat.real != 0).any(axis=0), (flat.imag != 0).any(axis=0)
    A = np.concatenate([flat.real[:, re_on], flat.imag[:, im_on]], axis=1)
    assert _component_count(A) == 1
    u, s, vt = np.linalg.svd(A, full_matrices=m > A.shape[1])
    rank = int(np.sum(s > s[0] * RANK_RTOL))
    basis = np.zeros((rank, flat.shape[1]), dtype=complex)
    basis.real[:, re_on] = vt[:rank, :int(re_on.sum())]
    basis.imag[:, im_on] = vt[:rank, int(re_on.sum()):]

    span = realspan(mats)
    assert np.array_equal(span.singular_values, np.concatenate([s, np.zeros(min(m, 32) - s.size)]))
    assert (span.rank, span.cutoff) == (rank, s[0] * RANK_RTOL)
    assert span.gap == (s[rank] / s[rank - 1] if rank < s.size else 0.0)
    assert np.array_equal(span.basis, basis.reshape(rank, 4, 4))
    assert np.array_equal(span.kernel, u[:, rank:])


def _scattered_blocks(rng):
    """Complex blocks of several shapes, tall, wide and rank 1, scattered by a permutation,
    with all-zero rows and columns; every entry is listed as two halves, plus a pair at a
    zero entry that cancels exactly and joins two components.  Returns the matrix and the
    (rows, cols, vals) coordinate list."""
    shapes = [(3, 2), (3, 2), (2, 5), (1, 1), (4, 4)]
    m, k = sum(r for r, _ in shapes) + 2, sum(c for _, c in shapes) + 3
    A = np.zeros((m, k), dtype=complex)
    r0 = c0 = 0
    for r, c in shapes:
        A[r0:r0 + r, c0:c0 + c] = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
        r0, c0 = r0 + r, c0 + c
    A[3:6, 2:4] = np.outer(rng.normal(size=3), rng.normal(size=2))  # a rank-1 block
    A = A[rng.permutation(m)][:, rng.permutation(k)]
    assert _component_count(A) == len(shapes) + 2  # the zero rows are components too
    r, c = np.nonzero(A)
    i, j = r[0], c[np.flatnonzero(A[r[0], c] == 0)[0]]
    pattern = A != 0
    pattern[i, j] = True
    assert _component_count(pattern) == len(shapes) + 1
    order = rng.permutation(2 * r.size + 2)
    rows, cols = np.concatenate([r, r, [i, i]])[order], np.concatenate([c, c, [j, j]])[order]
    vals = np.concatenate([A[r, c] / 2, A[r, c] / 2, [1.5 - 2j, -1.5 + 2j]])[order]
    return A, rows, cols, vals


def test_block_svd_matches_one_svd(rng):
    # against one SVD of the whole matrix
    A, rows, cols, vals = _scattered_blocks(rng)
    u, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > s[0] * RANK_RTOL))
    got_s, cutoff, got_rank, gap, span, kernel = _block_svd(rows, cols, vals, A.shape)
    span = span()
    assert got_rank == rank and abs(cutoff - s[0] * RANK_RTOL) <= 1e-12 * cutoff
    assert np.abs(got_s - s).max() <= 1e-12 * s[0]
    assert np.abs(span @ span.conj().T - np.eye(rank)).max() <= 1e-12
    assert np.abs(span.conj().T @ span - vt[:rank].conj().T @ vt[:rank]).max() <= 1e-12
    assert np.abs(kernel @ kernel.conj().T - u[:, rank:] @ u[:, rank:].conj().T).max() <= 1e-12


def test_kernel_only_route_matches_the_full_svd(rng):
    # the R-SVD decides the rank as the full SVD does and spans the same kernel, on tall,
    # wide and rank-deficient blocks alike; it builds no span
    A, rows, cols, vals = _scattered_blocks(rng)
    s, cutoff, rank, gap, _, kernel = _block_svd(rows, cols, vals, A.shape)
    got_s, got_cutoff, got_rank, got_gap, span, got = _block_svd(rows, cols, vals, A.shape,
                                                                 kernel_only=True)
    assert span is None and got_rank == rank < len(s) and got.shape == kernel.shape
    assert np.abs(got_s - s).max() <= 1e-12 * s[0] and abs(got_cutoff - cutoff) <= 1e-12 * cutoff
    assert abs(got_gap - gap) <= 1e-12
    assert np.abs(got @ got.conj().T - kernel @ kernel.conj().T).max() <= 1e-12


def test_rows_without_entries_take_no_svd(rng, monkeypatch):
    # a zero matrix is a row of the realified matrix with no entry: its unit kernel vector
    # comes without an SVD, in the kernel column it had when it took one
    shapes, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
    A = random_matrix(rng, 3)
    span = realspan(np.stack([A, np.zeros((3, 3)), 2 * A, np.zeros((3, 3))]))
    assert len(shapes) == 1 and 0 not in shapes[0] and span.rank == 1
    assert np.array_equal(span.kernel[:, :2], np.eye(4)[:, [1, 3]])
    assert_allclose(np.abs(span.kernel[:, 2]), np.array([2, 0, 1, 0]) / np.sqrt(5), atol=1e-15)
    shapes.clear()
    assert len(robinson_solution_space(build(Signature(2, 2)))) == 1
    assert len(shapes) == 2 and all(0 not in shape for shape in shapes)


def test_realspan_rejects_non_finite_entries():
    for bad in (np.inf, np.nan, 1j * np.inf):
        mats = np.zeros((2, 2, 2), dtype=complex)
        mats[1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            realspan(mats)


# --- monomial operators -------------------------------------------------
# Every gram, grading and conjugation the library builds is a phased
# permutation matrix; the monomial route must agree with the dense
# solve / inv route it replaces.


def _monomial_cases(rng):
    """(label, form, conjugation, varpi) over SM, Clifford and product triples."""
    from istlab.clifford import convention_pairing
    from istlab.ist import from_clifford_module
    from istlab.tensor import tensor_ist
    from istlab.verify import cached_module, supported_signatures

    for n in (1, 3):
        model = build_sm(random_yukawas(rng, n))
        yield f"sm-n{n}", model.triple.form, model.triple.cc, model.varpi
    for q, p in supported_signatures(8):
        module = cached_module(q, p)
        for conv in ("east", "west", "south", "north"):
            form, cc = convention_pairing(module, conv)
            yield f"cl({q},{p})-{conv}", form, cc, module.eta_plus
    for left, right in (((1, 1), (0, 2)), ((2, 2), (1, 3)), ((3, 1), (0, 4))):
        for c1, c2 in (("east", "west"), ("south", "north")):
            t = tensor_ist(from_clifford_module(cached_module(*left), c1),
                           from_clifford_module(cached_module(*right), c2))
            yield f"{left}x{right}-{c1}/{c2}", t.form, t.cc, t.chi


def _einsum_trace_form(S, T, varpi):
    """The trace form by the elementwise contraction, varpi applied densely."""
    WS = S.conj().transpose(0, 2, 1)
    if varpi is not None:
        WS = varpi @ WS @ varpi
    return np.einsum("kab,lba->kl", WS, T)


def _assert_trace_form_matches(S, T, varpi):
    got = trace_form(S, T, varpi)
    W = None if varpi is None else np.asarray(varpi)
    want = _einsum_trace_form(S, T, W)
    # |B_kl| <= ||W||_2^2 ||S_k||_F ||T_l||_F bounds every entry
    scale = np.outer(np.linalg.norm(S, axis=(1, 2)), np.linalg.norm(T, axis=(1, 2)))
    scale *= 1.0 if W is None else np.linalg.norm(W, 2) ** 2
    assert (np.abs(got - want) / scale).max() <= 1e-15


def test_monomial_route_matches_dense_route(rng):
    seen = 0
    for label, form, cc, varpi in _monomial_cases(rng):
        assert isinstance(form._op, _Monomial) and isinstance(cc._op, _Monomial), label
        assert isinstance(_operator(np.asarray(varpi)), _Monomial), label
        H, M, n = form.gram, cc.mat, form.dim
        X = random_matrix(rng, n)
        scale = np.abs(X).max()
        assert np.abs(form.adjoint(X) - np.linalg.solve(H, X.conj().T @ H)).max() <= 1e-15 * scale
        dense_cc = np.linalg.solve(H, M.T @ H.conj())
        assert np.abs(antilinear_adjoint(cc, form).mat - dense_cc).max() <= 1e-15, label
        dense_conj = M @ np.conj(X) @ np.linalg.inv(M)
        assert np.abs(cc.conjugate(X) - dense_conj).max() <= 1e-15 * scale, label
        S = np.stack([random_matrix(rng, n) for _ in range(4)])
        T = np.stack([random_matrix(rng, n) for _ in range(3)])
        for w in (None, varpi):
            _assert_trace_form_matches(S, T, w)
        seen += 1
    assert seen == 2 + 24 * 4 + 6


def test_dense_gram_keeps_the_dense_route(rng):
    n = 6
    A = random_matrix(rng, n)
    gram = A + A.conj().T + 8 * np.diag([1.0, -1.0] * 3)  # hermitian, generically dense
    form = KreinForm(gram)
    assert isinstance(form._op, _Dense)
    sv = np.linalg.svd(gram, compute_uv=False)
    assert form.cond == sv[0] / sv[-1]
    X = random_matrix(rng, n)
    assert_allclose(form.adjoint(X), np.linalg.solve(gram, X.conj().T @ gram), rtol=0, atol=0)
    K = AntilinearOperator(random_matrix(rng, n))
    assert isinstance(K._op, _Dense)
    assert_allclose(K.conjugate(X), K.mat @ np.conj(X) @ np.linalg.inv(K.mat), rtol=0, atol=0)
    S = np.stack([random_matrix(rng, n) for _ in range(3)])
    _assert_trace_form_matches(S, S, random_matrix(rng, n))


def test_monomial_gram_condition_is_the_phase_ratio():
    form = KreinForm(np.array([[0, 2j, 0], [-2j, 0, 0], [0, 0, -0.5]]))
    assert isinstance(form._op, _Monomial)
    assert form.cond == 4.0
    with pytest.raises(ValueError, match="ill-conditioned"):
        KreinForm(np.diag([1.0, -1e-9]))


def test_operators_keep_read_only_copies():
    eta = np.diag([1.0, -1.0]).astype(complex)
    form, K = KreinForm(eta), AntilinearOperator(eta)
    eta[0, 0] = 5.0  # the caller's array stays writable, and the copies do not follow
    assert form.gram[0, 0] == 1.0 and K.mat[0, 0] == 1.0
    with pytest.raises(ValueError):
        form.gram[0, 0] = 2.0
    with pytest.raises(ValueError):
        K.mat[0, 0] = 2.0


def _dense(mono):
    M = np.zeros((len(mono.perm), len(mono.perm)), dtype=complex)
    M[np.arange(len(mono.perm)), mono.perm] = mono.phase
    return M


def test_monomial_of_partial_and_refused_inputs(rng):
    A = np.zeros((4, 4), dtype=complex)
    A[0, 2], A[2, 0], A[3, 3] = 1j, -1.0, 0.5  # row 1 and column 1 are zero
    mono = _operator(A)
    assert isinstance(mono, _Monomial) and np.array_equal(_dense(mono), A)
    assert sorted(mono.perm) == list(range(4)) and mono.perm[1] == 1 and mono.phase[1] == 0
    assert np.array_equal(mono.perm[mono.inv], np.arange(4))
    assert isinstance(_operator(np.zeros((3, 3))), _Monomial)
    X = random_matrix(rng, 4)
    assert np.array_equal(mono.lmul(X), A @ X) and np.array_equal(mono.rmul(X), X @ A)
    S = _Sparse.of([X])
    assert np.array_equal(mono.mul_on(S).dense()[0], A @ X)
    assert np.array_equal(mono.mul_on(S, left=False).dense()[0], X @ A)
    two = A.copy()
    two[0, 1] = 1.0  # two nonzeros in row 0
    assert isinstance(_operator(two), _Dense)
    assert isinstance(_operator(two.T), _Dense)  # two nonzeros in column 1
    assert isinstance(_operator(np.eye(3)[:2]), _Dense)  # not square
    assert isinstance(_operator(np.eye(2)[:, :1]), _Dense)


def test_singular_partial_monomials_are_refused():
    with pytest.raises(ValueError, match="singular"):
        KreinForm(np.diag([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError, match="singular"):
        KreinForm(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    J = AntilinearOperator(np.diag([1.0, 0.0]))  # a singular monomial J has the dense route's error
    assert isinstance(J._op, _Monomial)
    with pytest.raises(np.linalg.LinAlgError, match="Singular"):
        J.conjugate(np.eye(2))


def _library_matrices(rng):
    """(label, matrix) over the SM (N=1, 3) and Clifford (d <= 6) grams, conjugations,
    varpi and algebra elements, and one monomial whose phases are not unit."""
    from istlab.clifford import convention_pairing
    from istlab.ist import scalar_algebra
    from istlab.verify import cached_module, supported_signatures

    for n in (1, 3):
        model = build_sm(random_yukawas(rng, n))
        t = model.triple
        yield from ((f"sm-n{n} {k}", M) for k, M in
                    (("gram", t.form.gram), ("J", t.cc.mat), ("varpi", model.varpi)))
        yield from ((f"sm-n{n} {k}", b) for k, b in zip(t.algebra.labels, t.algebra.basis))
    for q, p in supported_signatures(6):
        module = cached_module(q, p)
        yield f"cl({q},{p}) varpi", module.eta_plus
        yield f"cl({q},{p}) 1", scalar_algebra(module.dim).basis[0]
        for conv in ("east", "west", "south", "north"):
            form, cc = convention_pairing(module, conv)
            yield f"cl({q},{p})-{conv} gram", form.gram
            yield f"cl({q},{p})-{conv} J", cc.mat
    yield "phases 2, i/4, -1", np.array([[0, 2, 0], [0, 0, 0.25j], [-1, 0, 0]])


def test_monomial_and_dense_operators_agree(rng):
    seen = 0
    for label, M in _library_matrices(rng):
        mono, dense = _operator(M), _Dense(M)
        assert isinstance(mono, _Monomial), label
        n = len(M)
        X, stack = random_matrix(rng, n), np.stack([random_matrix(rng, n) for _ in range(3)])
        for Y in (X, stack):
            assert np.array_equal(mono.lmul(Y), dense.lmul(Y)), label
            assert np.array_equal(mono.rmul(Y), dense.rmul(Y)), label
            assert np.array_equal(mono.conj().rmul(Y), dense.conj().rmul(Y)), label
            S = _Sparse.of(Y if Y.ndim == 3 else [Y])
            for left in (True, False):
                got, want = mono.mul_on(S, left), dense.mul_on(S, left)
                assert np.array_equal(got.dense(), want.dense()), label
        product = mono @ _operator(M.T)  # two monomials compose into one, a dense operand densely
        assert isinstance(product, _Monomial) and np.array_equal(_dense(product), M @ M.T), label
        assert np.array_equal((mono @ _Dense(X)).mat, M @ X), label
        sv = np.sort(mono.singular_values()), np.sort(dense.singular_values())
        assert np.abs(sv[0] - sv[1]).max() <= 1e-15, label
        if mono.phase.all():
            scale = np.abs(X).max() * np.abs(1.0 / mono.phase).max()
            inv, dense_inv = mono.inverse(), dense.inverse()
            for f in (lambda op: op.lmul(X), lambda op: op.rmul(X), lambda op: op.conj().lmul(X),
                      lambda op: op.mul_on(_Sparse.of([X])).dense(),
                      lambda op: np.sort(op.singular_values()) * np.abs(X).max()):
                assert np.abs(f(inv) - f(dense_inv)).max() <= 1e-15 * scale, label
        else:  # both refuse a singular matrix
            for op in (mono, dense):
                with pytest.raises(np.linalg.LinAlgError, match="Singular"):
                    op.inverse().lmul(X)
        seen += 1
    assert seen == 2 * 3 + (24 + 24) + 15 * (2 + 4 * 2) + 1


def test_monomial_stacks_compose_with_dense_operands(rng):
    # a stack of monomials composes with one dense matrix, or one inverted, matrix by matrix;
    # the rep checks compose the algebra's stack with a dense grading or gram this way
    n = 5
    mats = np.zeros((3, n, n), complex)
    for M in mats:
        M[np.arange(n), rng.permutation(n)] = rng.choice([1, -1, 1j, -1j], size=n)
    B, X = _operator(mats), random_matrix(rng, n)
    H = X + X.conj().T + 8 * np.eye(n)
    assert isinstance(B, _Monomial) and B.perm.shape == (3, n)
    assert np.array_equal((B @ _Dense(X)).mat, mats @ X)
    assert np.array_equal((_Dense(X) @ B).mat, X @ mats)
    assert np.array_equal((B.dagger() @ _Dense(X)).mat, mats.conj().transpose(0, 2, 1) @ X)
    adjoint = _Dense(H).inverse() @ (B.dagger() @ _Dense(H))  # H^-1 b^dag H by the solve
    want = [KreinForm(H).adjoint(M) for M in mats]
    assert np.array_equal(adjoint.mat, want)
    for P, Q in ((B, _operator(mats[::-1])), (B, _Dense(mats[::-1])), (_Dense(mats[::-1]), B)):
        assert P.diff_defect(Q) == np.abs(mats - mats[::-1]).max()  # also across the routes


def test_monomial_sum_defect_reads_every_entry(rng):
    # max |P + Q - c 1| over stacks of monomials, read from at most three entries a row, is
    # bit for bit the dense value; random phases put the largest entry in any of the columns
    for n in (1, 3, 8):
        for _ in range(10):
            mats = np.zeros((4, n, n), complex)
            for M in mats:
                M[np.arange(n), rng.permutation(n)] = rng.normal(size=n) + 1j * rng.normal(size=n)
            mats[:, 0, :] *= rng.integers(0, 2)  # a zero row, now and then
            c = rng.normal(size=2)
            P, Q = _operator(mats[:2]), _operator(mats[2:])
            want = max(_Dense(mats[i]).sum_defect(_Dense(mats[i + 2]), c[i]) for i in (0, 1))
            assert P.sum_defect(Q, c) == want


def test_realspan_assembles_its_basis_on_first_read(rng):
    mats = np.stack([random_matrix(rng, 3) for _ in range(4)])
    span = realspan(mats)
    assert "basis" not in vars(span)
    basis = span.basis
    assert span.basis is basis and basis.shape == (4, 3, 3)
    assert np.array_equal(span.kernel, realspan(mats).kernel)


def test_realspan_does_not_import_numpy_ma():
    # numpy's unique imports numpy.ma on first use, a cost every cold CLI call would pay
    code = ("import sys, numpy as np; from istlab.kspace import realspan; "
            "realspan(np.stack([np.eye(3), np.diag([1.0, 2, 3])]).astype(complex)).basis; "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60, check=True)
    assert res.stdout.strip() == "False"


def _partial_monomials(rng, m, n):
    """m phased partial permutations of size n, phases drawn from 1, -1, i, -i and 0."""
    M = np.zeros((m, n, n), dtype=complex)
    for k in range(m):
        M[k, np.arange(n), rng.permutation(n)] = rng.choice([1, -1, 1j, -1j, 0], size=n)
    return M


def test_kron_is_np_kron_on_operators_and_matrices(rng):
    # monomial (x) monomial stays monomial; any dense factor gives a dense product; stacks
    # pair i-major; read densely, every case is np.kron's value for value, and on arrays it is
    # np.kron's one product per entry, byte for byte
    mono, other = _partial_monomials(rng, 3, 4), _partial_monomials(rng, 2, 3)
    assert (mono == 0).all(axis=2).any() and (other == 0).all(axis=2).any()  # zero rows
    dense = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    seen, flipped = set(), dense.transpose(0, 2, 1)
    for a, b in ((mono, other), (mono, dense), (dense.conj(), mono), (dense, flipped)):
        for x, y in ((a, b), (a[0], b), (a, b[-1]), (a[-1], b[0])):
            want = np.array([np.kron(u, v) for u in x.reshape(-1, *x.shape[-2:])
                             for v in y.reshape(-1, *y.shape[-2:])])
            want = want[0] if x.ndim == y.ndim == 2 else want
            got = kron(_operator(x), _operator(y))
            both = isinstance(_operator(x), _Monomial) and isinstance(_operator(y), _Monomial)
            assert isinstance(got, _Monomial if both else _Dense)
            assert got.shape == want.shape and np.array_equal(got.dense(), want)
            if both:  # a bijection with its inverse, the zero rows on the zero columns
                assert np.array_equal(np.take_along_axis(got.perm, got.inv, -1),
                                      np.broadcast_to(np.arange(want.shape[-1]), got.perm.shape))
            array = kron(x, y)
            assert isinstance(array, np.ndarray) and array.tobytes() == want.tobytes()
            seen.add((both, x.ndim, y.ndim))
    assert len(seen) == 8
