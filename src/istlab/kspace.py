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
RTOL = 1e-10         # relative matrix equality: hermitian grams, proportionality
AXIOM_TOL = 1e-10    # largest axiom, Clifford-relation, order-condition or read_sign defect
RANK_RTOL = 1e-9     # numerical rank counts singular values above s[0] * RANK_RTOL
COND_MAX = 1e8       # refuse grams conditioned worse than this
SIGN_TOL = 1e-8      # a scalar read off a computed product this close to +-1 snaps to that sign
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


@dataclass(frozen=True)
class _Sparse:
    """A stack of matrices of one shape, zero off the ascending flat coordinates ``at``:
    vals[k, u] is entry at[u] of matrix k.  An operator's ``mul_on`` keeps a product on the
    coordinates it can reach: a monomial moves them, a dense matrix fills them."""

    vals: np.ndarray  # (m, len(at)) complex
    at: np.ndarray
    shape: tuple  # of one matrix

    @classmethod
    def of(cls, mats) -> "_Sparse":
        """mats if a ``_Sparse``, else a list or (m, n1, n2) stack of matrices on the coordinates
        nonzero in some matrix.  Only a stack can be empty: an empty list carries no shape."""
        if isinstance(mats, cls):
            return mats
        M = np.asarray(mats, dtype=np.complex128)
        if M.ndim != 3:
            raise ValueError("expected a list or stack of equal-shape matrices")
        flat = M.reshape(len(M), M.shape[1] * M.shape[2])
        at = np.flatnonzero((flat != 0).any(axis=0))
        return cls(flat[:, at], at, M.shape[1:])

    @classmethod
    def join(cls, stacks) -> "_Sparse":
        """The stacks as one, on the union of their coordinates."""
        at = _distinct(np.concatenate([s.at for s in stacks]))
        return cls(np.concatenate([s.take(at) for s in stacks]), at, stacks[0].shape)

    def take(self, at) -> np.ndarray:
        """The values on the ascending flat coordinates ``at``, zero off ``self.at``, by a gather."""
        pos = np.searchsorted(self.at, at)
        pos[np.append(self.at, -1)[pos] != at] = self.at.size
        return np.column_stack([self.vals, np.zeros(len(self.vals))]).take(pos, axis=1)

    def dense(self) -> np.ndarray:
        return self.take(np.arange(self.shape[0] * self.shape[1])).reshape(len(self.vals), *self.shape)


def _distinct(at) -> np.ndarray:
    """The distinct entries of an integer array, ascending; np.unique would import numpy.ma."""
    at = np.sort(at, axis=None)
    return at[np.append(True, at[1:] != at[:-1])[:at.size]]


def _support(flat) -> tuple:
    """Masks of the real and imaginary coordinates nonzero in some row of flat."""
    return (flat.real != 0).any(axis=0), (flat.imag != 0).any(axis=0)


def _realify(flat, support) -> np.ndarray:
    """Rows of flat as real vectors over the supported coordinates, which hold any inf or nan."""
    A = np.concatenate([flat.real[:, support[0]], flat.imag[:, support[1]]], axis=1)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def _complexify(V, support) -> np.ndarray:
    """The inverse of ``_realify``."""
    out = np.zeros((len(V), support[0].size), complex)
    out.real[:, support[0]], out.imag[:, support[1]] = np.split(V, [support[0].sum()], axis=1)
    return out


def _block_svd(rows, cols, vals, shape, kernel_only=False) -> tuple:
    """The SVD of the ``shape`` matrix with vals at (rows, cols), duplicates summed, as one
    batched SVD per block shape; a row with no entry needs none.  A listed (i, j) joins row i
    and column j; up to a permutation the matrix is block-diagonal with a block per connected
    component, split on unlisted entries only.  One component is one SVD of the matrix.  The
    rank rule is global: s > s[0] * RANK_RTOL, s[0] the largest of all.  Returns (s, cutoff,
    rank, gap, span, kernel): span() builds kept right-singular vectors as rows; kernel has
    discarded left ones as columns.
    A caller that reads no span sets ``kernel_only`` (span None) and gets U and s by the R-SVD
    (Chan, ACM TOMS 8, 1982): the SVD of R^T, R from the QR of M^T, as M = R^T Q^T with Q^T of
    orthonormal rows; never from M M^H, whose squared values put the cutoff below roundoff.
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
        block = block.reshape(len(R), nr, nk)
        if nk == 0:  # a row with no entry is its own unit kernel vector
            svd = np.ones((len(R), 1, 1), vals.dtype), np.zeros((len(R), 0)), block[:, :0]
        else:
            if kernel_only:  # M^T is a view, so the QR takes the only copy of the block
                block = np.linalg.qr(block.transpose(0, 2, 1), mode="r").transpose(0, 2, 1)
            svd = np.linalg.svd(block, full_matrices=nr > nk)  # the kernel needs all nr vectors
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

    return s, cutoff, rank, gap, None if kernel_only else span, kernel


@dataclass
class RealSpan:
    """The real span of matrices M_1..M_m and the kernel of c -> sum c_i M_i.

    ``sparse``, assembled when first read, is a basis orthonormal for Re tr(S^dag T) on the
    coordinates the M_i touch, and ``basis`` the same as a dense (rank, n1, n2) array; the
    columns of ``kernel`` span the real c with sum c_i M_i = 0 (numerically), orthonormally.
    """

    kernel: np.ndarray
    singular_values: np.ndarray
    cutoff: float
    rank: int
    gap: float  # first discarded over last kept singular value, 0 if none
    _sparse: Callable = field(repr=False)  # assembles ``sparse``

    @cached_property
    def sparse(self) -> _Sparse:
        return self._sparse()

    @cached_property
    def basis(self) -> np.ndarray:
        return self.sparse.dense()

    def residuals(self, mats) -> tuple:
        """(norms, distances) of each matrix and of its residual off the span.

        Both use the Frobenius norm; coordinates that are zero in every
        matrix and every basis element drop out exactly.
        """
        S, B = _Sparse.of(mats), self.sparse
        at = _distinct(np.concatenate([S.at, B.at]))
        V, Q = S.take(at), B.take(at)
        on = tuple(a | b for a, b in zip(_support(V), _support(Q)))
        V, Q = _realify(V, on), _realify(Q, on)
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

    ``mats`` is a list or stack of matrices, or a ``_Sparse``.  A real or
    imaginary coordinate that is exactly zero in every matrix adds nothing
    to the span or the kernel, so only the others are realified, and
    ``_block_svd`` splits the SVD over the components of what remains.  The
    singular values are padded with exact zeros to the count a
    realification over all coordinates would give.  The rank counts
    singular values above s[0] * RANK_RTOL.  An empty (0, n1, n2) stack
    gives the zero span.
    """
    S = _Sparse.of(mats)
    support = _support(S.vals)
    A = _realify(S.vals, support)
    r, c = np.divmod(np.flatnonzero(A != 0), A.shape[1])
    s, cutoff, rank, gap, span, kernel = _block_svd(r, c, A[r, c], A.shape)
    s = np.concatenate([s, np.zeros(min(len(S.vals), 2 * S.shape[0] * S.shape[1]) - s.size)])
    on = support[0] | support[1]
    return RealSpan(
        kernel=kernel,
        singular_values=s,
        cutoff=cutoff,
        rank=rank,
        gap=gap,
        _sparse=lambda: _Sparse(_complexify(span(), tuple(m[on] for m in support)), S.at[on],
                                S.shape),
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
    """Round a scalar read off a computed product, known to be +-1, onto the exact sign."""
    c = complex(c)
    if abs(c - 1) <= SIGN_TOL:
        return 1
    if abs(c + 1) <= SIGN_TOL:
        return -1
    raise ValueError(f"scalar {c} is not a sign")


def read_sign(A, B, refusal: str = "") -> tuple[int, float]:
    """(s, max |A - s B|) for the sign s = +-1 that brings A nearer to s B: the one reading of
    a sign relating two operators.  A nonempty ``refusal`` is raised above AXIOM_TOL."""
    s = 1 if frob(A - B) <= frob(A + B) else -1
    defect = float(np.abs(A - s * B).max(initial=0.0))
    if refusal and defect > AXIOM_TOL:
        raise ValueError(f"{refusal}: defect {defect:.3g} exceeds AXIOM_TOL {AXIOM_TOL:g}")
    return s, defect


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

    @property
    def shape(self) -> tuple:
        return self.perm.shape + self.perm.shape[-1:]

    def dense(self) -> np.ndarray:
        """The matrices: the nonzero phases scattered into zeros, so no zero is -0.0."""
        M, k = np.zeros(self.shape, complex), np.nonzero(self.phase)
        M[k + (self.perm[k],)] = self.phase[k]
        return M

    def inverse(self) -> "_Monomial":
        if not self.phase.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return _Monomial(self.inv, self.perm, 1.0 / self.phase[self.inv])

    def conj(self) -> "_Monomial":
        return _Monomial(self.perm, self.inv, self.phase.conj())

    def singular_values(self) -> np.ndarray:
        return np.abs(self.phase)

    def dagger(self) -> "_Monomial":
        return _Monomial(self.inv, self.perm, np.take_along_axis(self.phase, self.inv, -1).conj())

    def __getitem__(self, k) -> "_Monomial":
        return _Monomial(self.perm[k], self.inv[k], self.phase[k])

    def __matmul__(self, other):
        """self @ other, matrix by matrix over equal stacks, or one matrix with each of a stack;
        two monomials compose in O(n)."""
        if not isinstance(other, _Monomial):
            return _Dense(other.rmul(self.dense()))
        if self.perm.ndim == 1 or other.perm.ndim == 1:
            return _Monomial(other.perm[..., self.perm], self.inv[..., other.inv],
                             self.phase * other.phase[..., self.perm])
        at = np.arange(0, self.perm.size, self.perm.shape[-1]).reshape(*self.perm.shape[:-1], 1)
        return _Monomial(other.perm.ravel()[self.perm + at], self.inv.ravel()[other.inv + at],
                         self.phase * other.phase.ravel()[self.perm + at])

    def sum_defect(self, other, c) -> float:
        """max |self + other - c 1| over equal monomial stacks, one c per matrix: row i is read
        in columns perm[i], other.perm[i] and i only, as the dense matrices' float sums."""
        i = np.broadcast_to(np.arange(self.perm.shape[-1]), self.perm.shape)
        j = np.stack([self.perm, other.perm, i])
        S = np.where(self.perm == j, self.phase, 0) + np.where(other.perm == j, other.phase, 0)
        return float(np.abs(S - np.where(i == j, np.asarray(c)[..., None], 0)).max(initial=0.0))

    def diff_defect(self, other) -> float:
        """max |self - other| over equal stacks: two monomials differ only where a row of one
        or the other is nonzero, read as the dense difference's entries."""
        if not isinstance(other, _Monomial):
            return _Dense(self.dense()).diff_defect(other)
        a, b = np.abs(self.phase), np.abs(other.phase)
        same = self.perm == other.perm
        return float(np.where(same, np.abs(self.phase - other.phase), np.maximum(a, b)).max(initial=0.0))

    def lmul(self, A) -> np.ndarray:
        """M @ A on the last two axes of A, or each M of a stack times one matrix A."""
        return self.phase[..., None] * A[..., self.perm, :]

    def rmul(self, A) -> np.ndarray:
        """A @ M on the last two axes of A."""
        return (A * self.phase)[..., self.inv]

    def mul_on(self, S: _Sparse, left=True) -> _Sparse:
        """M @ S, or S @ M unless ``left``, for each M of the stack and each matrix of S,
        M-major: entry (r, c) of S moves to (inv[r], c) times phase[inv[r]], or to
        (r, perm[c]) times phase[c], on the union of the coordinates with a nonzero phase."""
        (r, c), n = np.divmod(S.at, S.shape[1]), self.perm.shape[-1]
        perm, inv, phase = (x.reshape(-1, n) for x in (self.perm, self.inv, self.phase))
        if left:
            r = inv[:, r]
            phase = np.take_along_axis(phase, r, 1)
        else:
            phase, c = phase[:, c], perm[:, c]
        at = r * S.shape[1] + c
        at[phase == 0] = -1
        union = _distinct(at)
        union = union[union >= 0]
        pos = np.searchsorted(union, at)
        pos[at < 0] = union.size  # a last column takes the products by a zero phase
        out = np.zeros((len(at), len(S.vals), union.size + 1), complex)
        out[np.arange(len(at))[:, None, None], np.arange(len(S.vals))[:, None], pos[:, None]] = (
            phase[:, None] * S.vals if left else S.vals * phase[:, None])
        return _Sparse(out[..., :-1].reshape(len(at) * len(S.vals), union.size), union, S.shape)


@dataclass(frozen=True)
class _Dense:
    """A matrix with no monomial form, or its inverse when ``inverted``, as dense products.

    The inverse solves on the left, as dense adjoints always have, and uses inv(mat) on the right.
    """

    mat: np.ndarray
    inverted: bool = False

    @property
    def shape(self) -> tuple:
        return self.mat.shape

    def dense(self) -> np.ndarray:
        return self.lmul(np.eye(self.mat.shape[-1])) if self.inverted else self.mat

    def inverse(self) -> "_Dense":
        return _Dense(self.mat, not self.inverted)

    def conj(self) -> "_Dense":
        return _Dense(self.mat.conj(), self.inverted)

    def singular_values(self) -> np.ndarray:
        sv = np.linalg.svd(self.mat, compute_uv=False)
        return 1.0 / sv[::-1] if self.inverted else sv

    def dagger(self) -> "_Dense":
        return _Dense(self.mat.conj().swapaxes(-1, -2), self.inverted)

    def __getitem__(self, k) -> "_Dense":
        return _Dense(self.mat[k], self.inverted)

    def __matmul__(self, other):
        return _Dense(self.lmul(other.dense()))

    def sum_defect(self, other, c) -> float:
        S = self.dense() + other.dense() - np.multiply.outer(c, np.eye(self.mat.shape[-1]))
        return float(np.abs(S).max(initial=0.0))

    def diff_defect(self, other) -> float:
        return float(np.abs(self.dense() - other.dense()).max(initial=0.0))

    def lmul(self, A) -> np.ndarray:
        return np.linalg.solve(self.mat, A) if self.inverted else self.mat @ A

    def rmul(self, A) -> np.ndarray:
        return A @ (np.linalg.inv(self.mat) if self.inverted else self.mat)

    def mul_on(self, S: _Sparse, left=True) -> _Sparse:
        each = _Dense(self.mat[..., None, :, :], self.inverted)  # M-major over the stacks
        return _Sparse.of((each.lmul if left else each.rmul)(S.dense()).reshape(-1, *S.shape))


def _operator(A):
    """A ``_Monomial`` if A, or each matrix of a stack A, is a square phased partial
    permutation, else a ``_Dense``."""
    nonzero = A != 0
    perm = nonzero.argmax(axis=-1)
    phase = A.reshape(-1, A.shape[-1])[np.arange(perm.size), perm.ravel()].reshape(perm.shape)
    rows, cols = phase != 0, nonzero.any(axis=-2)
    # exact: square, with as many nonzeros as nonzero rows and as nonzero columns
    if A.shape[-2] != A.shape[-1] or not nonzero.sum() == rows.sum() == cols.sum():
        return _Dense(A)
    perm[~rows] = np.nonzero(~cols)[-1]  # each matrix's zero rows go to its zero columns, in order
    return _Monomial(perm, np.argsort(perm), phase)


def _stack_operator(mats):
    """mats if an operator over a stack, else the operator of the listed matrices, None if none."""
    if isinstance(mats, (_Monomial, _Dense)):
        return mats
    return _operator(np.stack([as_matrix(M) for M in mats])) if len(mats) else None


def _pairs(x, y, f):
    """f over every pair of matrices (last two axes) of x and of y, i-major, np.kron's spread."""
    lx, ly, (r, c), (s, t) = x.shape[:-2], y.shape[:-2], x.shape[-2:], y.shape[-2:]
    if lx and ly:  # a stack pairs with a stack
        x = x.reshape(lx + (1,) * len(ly) + (r, c))
    out = f(x[..., :, None, :, None], y[..., None, :, None, :])
    return out.reshape(((-1,) if lx + ly else ()) + (r * s, c * t))


def kron(a, b):
    """a (x) b of matrices or operators, or stacks of them paired i-major.  Two ``_Monomial``s
    give one, row i n2 + j to column perm1[i] n2 + perm2[j] with phase1[i] phase2[j]; else it is
    np.kron's one product per entry, a ``_Dense`` if a factor is an operator."""
    if isinstance(a, _Monomial) and isinstance(b, _Monomial):
        fs = (lambda u, v: u * b.perm.shape[-1] + v,) * 2 + (np.multiply,)  # perm, inv, phase
        return _Monomial(*(_pairs(x[..., None], y[..., None], f)[..., 0] for x, y, f in
                           zip((a.perm, a.inv, a.phase), (b.perm, b.inv, b.phase), fs)))
    ops = (_Monomial, _Dense)
    A, B = (x.dense() if isinstance(x, ops) else np.asarray(x) for x in (a, b))
    out = _pairs(A, B, np.multiply)
    return _Dense(out) if isinstance(a, ops) or isinstance(b, ops) else out


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
        return read_sign(self.adjoint(X), X, "X is not Krein symmetric or antisymmetric")[0]


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
        return read_sign(self.mat @ np.conj(chi), chi @ self.mat, "K is not homogeneous")[0]


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
    """The matrix B(S_k, T_l) = tr(varpi S_k^dag varpi T_l) of two stacks, each a list, an
    (m, n, n) array or a ``_Sparse``.

    ``varpi`` None is the identity.  B is one matrix product over the coordinates where
    varpi^T conj(S) varpi^T can be nonzero, because tr(A T) sums A^T * T entrywise and
    (varpi S^dag varpi)^T = varpi^T conj(S) varpi^T.
    """
    S, T = _Sparse.of(S), _Sparse.of(T)
    A = _Sparse(S.vals.conj(), S.at, S.shape)
    if varpi is not None:
        W = _operator(as_matrix(varpi).T)
        A = W.mul_on(W.mul_on(A, left=False))
    return A.vals @ T.take(A.at).T


def real_bilinear_project(X, span, varpi=None, gram=None):
    """Orthogonal projection of X onto span for Re B(S,T) = Re tr(varpi S^dag varpi T).

    ``span`` is a list or stack of matrices, or a ``_Sparse``.  The projection lies in the
    real span (the right notion for real algebras), on the span's coordinates.  Returns
    (projection, residual): the residual, Re B-orthogonal to every span element, is a copy of
    X changed on those coordinates only.  A caller that already holds the real Gram of
    ``span`` for this form passes it as ``gram``.  A Gram conditioned worse than COND_MAX
    raises ``DegenerateProjectionError``.
    """
    X = as_matrix(X)
    if not len(span.vals if isinstance(span, _Sparse) else span):
        raise ValueError("span must be nonempty")
    S = _Sparse.of(span)
    if not np.isfinite(S.vals).all():
        raise ValueError("matrix has non-finite entries")
    v = trace_form(S, X[None], varpi)[:, 0].real
    if gram is None:
        gram = trace_form(S, S, varpi).real
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > COND_MAX:
        raise DegenerateProjectionError("degenerate projection product")
    proj = _Sparse((np.linalg.solve(gram, v) @ S.vals)[None], S.at, S.shape)
    resid = X.copy()
    resid.reshape(-1)[S.at] -= proj.vals[0]
    return proj.dense()[0], resid
