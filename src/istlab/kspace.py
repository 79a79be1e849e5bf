"""Finite-dimensional Krein-space linear algebra.

A Krein form is a hermitian invertible gram matrix H with pairing
(psi, phi) = psi^dag H phi.  Adjoints of linear operators are
T^x = H^-1 T^dag H; antilinear operators psi -> M conj(psi) get the
adjoint matrix H^-1 M^T conj(H).  Fundamental symmetries are Krein
self-adjoint involutions eta with (., eta .) positive definite.
Real spans of lists of complex matrices, and the kernels of their
coefficient maps, come from one realified SVD (``realspan``).

Every tolerance the library applies is one of the constants at the top
of this module; each makes one kind of decision, and two checks share a
name only when they make the same decision.  The acceptance criteria in
``verify`` keep their own thresholds, which are part of their
definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

ATOL = 1e-12         # roundoff-level input checks: Y_R symmetry, hermitian traceless gauge values
RTOL = 1e-10         # relative matrix equality: hermitian grams, proportionality, operator parity
AXIOM_TOL = 1e-10    # largest violation of a triple axiom, Clifford relation or order condition
RANK_RTOL = 1e-9     # numerical rank counts singular values above s[0] * RANK_RTOL
COND_MAX = 1e8       # refuse grams conditioned worse than this
SIGN_TOL = 1e-8      # a measured scalar this close to +-1 snaps to that sign
MEMBER_TOL = 1e-8    # accepted span residual / max(1, norm), and self-adjointness/unitarity defect
UNIT_TOL = 1e-9      # pin_norms accepts vectors with |g(v, v)| this close to 1
CS_SLACK = 1e-9      # relative slack of the Cauchy-Schwarz bound C1^2 <= 4N(C2 + 2C3)
COMM_VANISH = 1e-13  # a commutator [D, pi(b)] below this times max(1, max|D|) is dropped
JUNK_VANISH = 1e-11  # a junk image below this times max|[D, pi(a)]|^2 is dropped


class DegenerateProjectionError(ValueError):
    """Raised when a projection product's Gram is singular beyond tolerance."""


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-D complex128 array and check finiteness."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def _as_stack(mats) -> np.ndarray:
    """Coerce a list or (m, n1, n2) stack of equal-shape matrices to a C-ordered array.

    Only a stack can be empty, because an empty list carries no shape.
    """
    M = np.ascontiguousarray(mats, dtype=np.complex128)
    if M.ndim != 3:
        raise ValueError("expected a list or stack of equal-shape matrices")
    return M


def _support(flat) -> tuple:
    """Masks of the real and imaginary coordinates nonzero in some row of flat."""
    nonzero = (flat.view(np.float64) != 0).any(axis=0)
    return nonzero[0::2], nonzero[1::2]


def _coords(support) -> np.ndarray:
    """Positions of the supported coordinates in the (re, im) float view, real parts first."""
    return np.concatenate([2 * np.flatnonzero(support[0]), 2 * np.flatnonzero(support[1]) + 1])


def _realify(flat, support) -> np.ndarray:
    """Rows of flat as real vectors over the supported coordinates, which hold any inf or nan."""
    A = np.take(flat.view(np.float64), _coords(support), axis=1)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def _complexify(V, support) -> np.ndarray:
    """The inverse of ``_realify``, as a gather: much faster than a scatter into zeros."""
    source = np.full(2 * support[0].size, V.shape[1])  # an appended zero column
    source[_coords(support)] = np.arange(V.shape[1])
    return np.take(np.column_stack([V, np.zeros(len(V))]), source, axis=1).view(np.complex128)


def _block_svd(rows, cols, vals, shape) -> tuple:
    """The SVD of the ``shape`` matrix with vals at (rows, cols), duplicates summed, as one
    batched SVD per block shape.  A listed (i, j) joins row i and column j; up to a
    permutation the matrix is block-diagonal with a block per connected component, split
    on unlisted entries only.  One component is one SVD of the matrix.  The rank rule is global:
    s > s[0] * RANK_RTOL, s[0] the largest of all.  Returns (s, cutoff, rank, gap, span, kernel):
    span() builds kept right-singular vectors as rows; kernel has discarded left ones as columns.
    """
    (m, k), r, c = shape, rows, cols
    # label = least row index of the component: relax along the edges, then jump
    label, col = np.arange(m), np.full(k, m)
    while True:
        np.minimum.at(col, c, label[r])
        new = label.copy()
        np.minimum.at(new, r, col[c])
        if np.array_equal(new[new], label):
            break
        label = new[new]
    roots = label == np.arange(m)
    nc = int(roots.sum())
    # component numbers; a column with no entry joins a last one of no shape, dropped
    number = np.append(np.cumsum(roots) - 1, nc)
    row, col = number[label], number[col]
    shape = np.bincount(row, minlength=nc) * (k + 1) + np.bincount(col, minlength=nc + 1)[:nc]
    shape = np.append(shape, -1)
    rows, cols = np.argsort(row, kind="stable"), np.argsort(col, kind="stable")
    # an entry's offset in its block stack is at_r[row] + at_c[column]
    at_r, at_c, blocks = np.zeros(m, np.intp), np.zeros(k, np.intp), []
    for size in sorted(set(shape[:nc].tolist())):  # np.unique would import numpy.ma
        nr, nk = divmod(size, k + 1)
        R = rows[shape[row[rows]] == size].reshape(-1, nr)  # components in number order
        C = cols[shape[col[cols]] == size].reshape(len(R), nk)
        at_r[R], at_c[C] = nk * np.arange(R.size).reshape(R.shape), np.arange(nk)
        block, on = np.zeros(R.size * nk, vals.dtype), shape[row[r]] == size
        np.add.at(block, at_r[r[on]] + at_c[c[on]], vals[on])
        # all nr left-singular vectors are needed for the kernel
        svd = np.linalg.svd(block.reshape(len(R), nr, nk), full_matrices=nr > nk)
        blocks.append((R, C, *svd))

    s = np.concatenate([b[3].ravel() for b in blocks] + [np.zeros(0)])
    s = np.concatenate([np.sort(s)[::-1], np.zeros(min(m, k) - s.size)])
    cutoff = float(s[0] * RANK_RTOL) if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > cutoff))
    gap = float(s[rank] / s[rank - 1]) if 0 < rank < s.size else 0.0
    kernel, n_kernel = np.zeros((m, m - rank), vals.dtype), 0
    for R, _, u, sv, _ in blocks:
        g, j = np.nonzero(np.arange(R.shape[1]) >= np.sum(sv > cutoff, axis=1)[:, None])
        kernel[R[g], n_kernel + np.arange(g.size)[:, None]] = u[g, :, j]
        n_kernel += g.size
    blocks = [b[1:2] + b[3:] for b in blocks]  # the span needs no left vectors

    def span():
        rows, kept = np.zeros((rank, k), kernel.dtype), [np.zeros(0)]
        for C, sv, vt in blocks:
            g, i = np.nonzero(sv > cutoff)  # a prefix of each block's descending values
            rows[sum(map(len, kept)) + np.arange(g.size)[:, None], C[g]] = vt[g, i]
            kept.append(sv[g, i])
        return rows[np.argsort(-np.concatenate(kept), kind="stable")]

    return s, cutoff, rank, gap, span, kernel


@dataclass
class RealSpan:
    """The real span of matrices M_1..M_m and the kernel of c -> sum c_i M_i.

    ``basis``, assembled when first read, is an (rank, n1, n2) array orthonormal for
    Re tr(S^dag T); the columns of ``kernel`` are an orthonormal basis of the real
    coefficient vectors c with sum c_i M_i = 0 (numerically).
    """

    kernel: np.ndarray
    singular_values: np.ndarray
    cutoff: float
    rank: int
    gap: float  # first discarded over last kept singular value, 0 if none
    support: tuple = field(repr=False)  # realified coordinates the span touches
    _basis: Callable = field(repr=False)  # assembles ``basis``

    @cached_property
    def basis(self) -> np.ndarray:
        return self._basis()

    def residuals(self, mats) -> tuple:
        """(norms, distances) of each matrix and of its residual off the span.

        Both use the Frobenius norm; coordinates that are zero in every
        matrix and every basis element drop out exactly.
        """
        flat = _as_stack(mats).reshape(len(mats), -1)
        on = tuple(a | b for a, b in zip(_support(flat), self.support))
        V = _realify(flat, on)
        Q = _realify(self.basis.reshape(self.rank, flat.shape[1]), on)
        resid = V - (V @ Q.T) @ Q
        return np.linalg.norm(V, axis=1), np.linalg.norm(resid, axis=1)


def in_span(span: RealSpan, X) -> bool:
    """Whether X lies in a ``RealSpan``.

    X is a member when its residual off the span is at most MEMBER_TOL
    times max(1, ||X||), both in the Frobenius norm.
    """
    norms, dists = span.residuals([X])
    return float(dists[0]) / max(1.0, float(norms[0])) <= MEMBER_TOL


def realspan(mats) -> RealSpan:
    """Span basis and coefficient kernel of matrices from one realified SVD.

    A real or imaginary coordinate that is exactly zero in every matrix
    adds nothing to the span or the kernel, so only the others are
    realified, and ``_block_svd`` splits the SVD over the components of
    what remains.  The singular values are padded with exact zeros to the
    count a realification over all coordinates would give.  The rank
    counts singular values above s[0] * RANK_RTOL.  An empty (0, n1, n2)
    stack gives the zero span.
    """
    M = _as_stack(mats)
    m, shape = M.shape[0], M.shape[1:]
    flat = M.reshape(m, shape[0] * shape[1])
    support = _support(flat)
    A = _realify(flat, support)
    r, c = np.divmod(np.flatnonzero(A != 0), A.shape[1])
    s, cutoff, rank, gap, span, kernel = _block_svd(r, c, A[r, c], A.shape)
    s = np.concatenate([s, np.zeros(min(m, 2 * flat.shape[1]) - s.size)])
    return RealSpan(
        kernel=kernel,
        singular_values=s,
        cutoff=cutoff,
        rank=rank,
        gap=gap,
        support=support,
        _basis=lambda: _complexify(span(), support).reshape(rank, *shape),
    )


def frob(M) -> float:
    return float(np.linalg.norm(M))


def rel_diff(A, B) -> float:
    """Frobenius distance of A and B relative to their scale."""
    scale = max(frob(A), frob(B), 1.0)
    return frob(np.asarray(A) - np.asarray(B)) / scale


def scalar_coefficient(A, B, tol=RTOL) -> complex:
    """The coefficient c with A = c*B, or raise if A is not a multiple of B."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    nb = np.vdot(B, B).real
    if nb <= 0:
        raise ValueError("cannot compare against the zero matrix")
    c = np.vdot(B, A) / nb
    if frob(A - c * B) > tol * max(frob(A), frob(B), 1.0):
        raise ValueError("matrices are not proportional")
    return complex(c)


def snap_sign(c) -> int:
    """Round a scalar known to be +-1 onto the exact sign."""
    c = complex(c)
    if abs(c - 1) <= SIGN_TOL:
        return 1
    if abs(c + 1) <= SIGN_TOL:
        return -1
    raise ValueError(f"scalar {c} is not a sign")


def _read_only(M) -> np.ndarray:
    """A read-only complex copy of a matrix; the caller's array stays writable."""
    A = as_matrix(M).copy()
    A.flags.writeable = False
    return A


@dataclass(frozen=True)
class _Monomial:
    """The phased partial permutation M[i, perm[i]] = phase[i], zero elsewhere."""

    perm: np.ndarray  # a bijection: the zero rows, with phase 0, go to the zero columns
    inv: np.ndarray  # inverse permutation
    phase: np.ndarray

    def inverse(self) -> "_Monomial":
        if not self.phase.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return _Monomial(self.inv, self.perm, 1.0 / self.phase[self.inv])

    def conj(self) -> "_Monomial":
        return _Monomial(self.perm, self.inv, self.phase.conj())

    def singular_values(self) -> np.ndarray:
        return np.abs(self.phase)

    def lmul(self, A) -> np.ndarray:
        """M @ A on the last two axes of A."""
        return self.phase[:, None] * A[..., self.perm, :]

    def rmul(self, A) -> np.ndarray:
        """A @ M on the last two axes of A."""
        return (A * self.phase)[..., self.inv]

    def commutator_norm(self, X) -> float:
        """max |X @ M - M @ X| over a matrix or stack X, read on the rows and columns M touches."""
        ph, r = self.phase, np.flatnonzero(self.phase)
        c = self.perm[r]
        cols = np.take(X, r, axis=-1) * ph[r] - ph[:, None] * X[..., self.perm[:, None], c]
        rows = X[..., r[:, None], self.inv] * ph[self.inv] - ph[r, None] * np.take(X, c, axis=-2)
        return float(max(np.abs(cols).max(initial=0.0), np.abs(rows).max(initial=0.0)))


@dataclass(frozen=True)
class _Dense:
    """A matrix with no monomial form, or its inverse when ``inverted``, as dense products.

    The inverse solves on the left, as dense adjoints always have, and uses inv(mat) on the right.
    """

    mat: np.ndarray
    inverted: bool = False

    def inverse(self) -> "_Dense":
        return _Dense(self.mat, not self.inverted)

    def conj(self) -> "_Dense":
        return _Dense(self.mat.conj(), self.inverted)

    def singular_values(self) -> np.ndarray:
        sv = np.linalg.svd(self.mat, compute_uv=False)
        return 1.0 / sv[::-1] if self.inverted else sv

    def lmul(self, A) -> np.ndarray:
        return np.linalg.solve(self.mat, A) if self.inverted else self.mat @ A

    def rmul(self, A) -> np.ndarray:
        return A @ (np.linalg.inv(self.mat) if self.inverted else self.mat)

    def commutator_norm(self, X) -> float:
        return float(np.abs(self.rmul(X) - self.lmul(X)).max(initial=0.0))


def _operator(A):
    """A ``_Monomial`` if A is a square phased partial permutation, else a ``_Dense``."""
    n, nonzero = len(A), A != 0
    perm = nonzero.argmax(axis=1)
    phase = A[np.arange(n), perm]
    rows, cols = phase != 0, nonzero.any(axis=0)
    # exact: square, with as many nonzeros as nonzero rows and as nonzero columns
    if A.shape != (n, n) or not nonzero.sum() == rows.sum() == cols.sum():
        return _Dense(A)
    perm[~rows] = np.flatnonzero(~cols)
    return _Monomial(perm, np.argsort(perm), phase)


class KreinForm:
    """Indefinite hermitian pairing (psi, phi) = psi^dag gram phi.

    Adjoints against a monomial gram cost O(n^2) indexing, not a dense solve.
    """

    def __init__(self, gram):
        H = as_matrix(gram)
        n, m = H.shape
        if n != m:
            raise ValueError("gram must be square")
        if rel_diff(H, H.conj().T) > RTOL:
            raise ValueError("gram must be hermitian")
        self.gram = _read_only(H)
        self._op = _operator(self.gram)
        sv = self._op.singular_values()
        if sv.min() == 0.0 or sv.max() / sv.min() > COND_MAX:
            raise ValueError("gram is singular or too ill-conditioned")
        self.cond = float(sv.max() / sv.min())

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def pair(self, psi, phi) -> complex:
        return complex(np.asarray(psi).conj() @ self.gram @ np.asarray(phi))

    def adjoint(self, T) -> np.ndarray:
        """Krein adjoint H^-1 T^dag H of a linear operator."""
        T = as_matrix(T)
        if T.shape != self.gram.shape:
            raise ValueError("operator dimension does not match the form")
        return self._op.inverse().lmul(self._op.rmul(T.conj().T))

    def adjoint_sign(self, X) -> int:
        """Sign s with X^x = s X, or raise if X is neither symmetric nor antisymmetric."""
        return snap_sign(scalar_coefficient(self.adjoint(X), X))


@dataclass(frozen=True)
class AntilinearOperator:
    """The antilinear map psi -> mat @ conj(psi); ``mat`` is a read-only copy."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _read_only(self.mat))
        object.__setattr__(self, "_op", _operator(self.mat))

    def __call__(self, psi):
        return self.mat @ np.conj(psi)

    def square(self) -> np.ndarray:
        """The linear operator K o K = mat @ conj(mat)."""
        return self.mat @ np.conj(self.mat)

    def conjugate(self, X) -> np.ndarray:
        """The linear operator K X K^-1 for linear X."""
        return self._op.inverse().rmul(self._op.lmul(np.conj(X)))

    def parity_sign(self, chi) -> int:
        """Sign s with K chi = s chi K, or raise for inhomogeneous K."""
        lhs = self.mat @ np.conj(chi)
        rhs = np.asarray(chi) @ self.mat
        return snap_sign(scalar_coefficient(lhs, rhs))


def antilinear_adjoint(K: AntilinearOperator, form: KreinForm) -> AntilinearOperator:
    """The unique antilinear K^x with (psi, K phi) = conj((K^x psi, phi))."""
    if K.mat.shape != form.gram.shape:
        raise ValueError("operator dimension does not match the form")
    return AntilinearOperator(form._op.inverse().lmul(form._op.conj().rmul(K.mat.T)))


@dataclass
class SymmetryReport:
    """Outcome of a fundamental-symmetry test, with per-axiom violations."""

    ok: bool
    reason: str = ""
    violations: dict = field(default_factory=dict)


def is_fundamental_symmetry(eta, form: KreinForm) -> SymmetryReport:
    """Check eta^2 = 1, eta^x = eta, and positivity of (., eta .)."""
    eta = as_matrix(eta)
    if eta.shape != form.gram.shape:
        return SymmetryReport(False, "dimension mismatch")
    n = eta.shape[0]
    v_inv = rel_diff(eta @ eta, np.eye(n))
    v_adj = rel_diff(form.adjoint(eta), eta)
    P = form.gram @ eta
    P = 0.5 * (P + P.conj().T)
    eigs = np.linalg.eigvalsh(P)
    v_pos = float(-eigs.min())
    violations = {"involution": v_inv, "self_adjoint": v_adj, "positivity": v_pos}
    if v_inv > RTOL:
        return SymmetryReport(False, "not an involution", violations)
    if v_adj > RTOL:
        return SymmetryReport(False, "not Krein self-adjoint", violations)
    if eigs.min() <= 0:
        return SymmetryReport(False, "form (., eta .) not positive definite", violations)
    return SymmetryReport(True, "", violations)


def _posdef_sqrt(P):
    """Hermitian square root and inverse square root of a positive matrix."""
    w, V = np.linalg.eigh(0.5 * (P + P.conj().T))
    if w.min() <= 0:
        raise ValueError("matrix is not positive definite")
    r = np.sqrt(w)
    return (V * r) @ V.conj().T, (V / r) @ V.conj().T


def relate_fundamental_symmetries(eta, nu, form: KreinForm) -> np.ndarray:
    """Krein-unitary U = (eta nu)^(1/2) with nu = U^x eta U.

    The square root is taken by conjugating eta@nu to a hermitian positive
    matrix in the eta inner product, so U is positive definite for
    <., .>_eta.
    """
    eta = as_matrix(eta)
    nu = as_matrix(nu)
    for name, cand in (("eta", eta), ("nu", nu)):
        rep = is_fundamental_symmetry(cand, form)
        if not rep.ok:
            raise ValueError(f"{name} is not a fundamental symmetry: {rep.reason}")
    P_half, P_ihalf = _posdef_sqrt(form.gram @ eta)
    Hp = P_half @ (eta @ nu) @ P_ihalf
    S_half, _ = _posdef_sqrt(Hp)
    return P_ihalf @ S_half @ P_half


def trace_form(S, T, varpi=None) -> np.ndarray:
    """The matrix B(S_k, T_l) = tr(varpi S_k^dag varpi T_l) of two (m, n, n) stacks.

    ``varpi`` None is the identity.  B is one matrix product of the
    flattened stacks, because tr(A T) sums A^T * T entrywise and
    (varpi S^dag varpi)^T = varpi^T conj(S) varpi^T.
    """
    A = S.conj()
    if varpi is not None:
        W = _operator(as_matrix(varpi).T)
        A = W.lmul(W.rmul(A))
    return A.reshape(len(A), -1) @ T.reshape(len(T), -1).T


def real_bilinear_project(X, span, varpi=None, gram=None):
    """Orthogonal projection of X onto span for Re B(S,T) = Re tr(varpi S^dag varpi T).

    The projection lies in the real span (the right notion for real
    algebras).  Returns (projection, residual) with the residual
    Re B-orthogonal to every span element.  A caller that already holds
    the real Gram of ``span`` for this form passes it as ``gram``.  A
    Gram conditioned worse than COND_MAX raises
    ``DegenerateProjectionError``.
    """
    X = as_matrix(X)
    mats = [as_matrix(S) for S in span]
    if not mats:
        raise ValueError("span must be nonempty")
    S = np.stack(mats)
    v = trace_form(S, X[None], varpi)[:, 0].real
    if gram is None:
        gram = trace_form(S, S, varpi).real
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > COND_MAX:
        raise DegenerateProjectionError("degenerate projection product")
    coeff = np.linalg.solve(gram, v)
    proj = sum(c * S for c, S in zip(coeff, mats))
    return proj, X - proj
