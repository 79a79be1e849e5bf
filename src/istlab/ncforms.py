"""Noncommutative differential forms of a finite triple.

One-forms are the real span of pi(a) [D, pi(b)] over basis pairs; the
junk two-forms are the image of the kernel of that bilinear map under
(a, b) -> [D, pi(a)] [D, pi(b)].  Curvature scalars are projected onto
the orthogonal complement of Q = pi(A) + junk with respect to the
real part of the trace form tr(varpi S^dag varpi T).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ist import IndefiniteTriple, check_axioms, one_form_generators
from .kspace import (
    COND_MAX,
    JUNK_VANISH,
    DegenerateProjectionError,
    RealSpan,
    as_matrix,
    in_span,
    real_bilinear_project,
    realspan,
)


@dataclass
class FormSpace:
    """A real-linear span of matrices with its numerical rank data."""

    span: list
    real_dim: int
    singular_values: np.ndarray = field(repr=False, default=None)
    threshold: float = 0.0
    gap: float = 0.0  # first discarded over last kept singular value, 0 if none
    real_span: RealSpan = field(repr=False, default=None)  # None for the zero span

    @classmethod
    def from_matrices(cls, mats):
        if not len(mats):
            return cls([], 0, np.array([]), 0.0)
        sp = realspan(mats)
        return cls(list(sp.basis), sp.rank, sp.singular_values, sp.cutoff, sp.gap, sp)

    def contains(self, X) -> bool:
        return in_span(self.real_span, X)


def _checked(triple: IndefiniteTriple):
    rep = check_axioms(triple)
    if not rep.ok:
        raise ValueError(f"triple fails axioms: {rep.failures()}")


def one_forms(triple: IndefiniteTriple) -> FormSpace:
    """Real span of pi(a_i) [D, pi(b_j)] over all basis pairs."""
    _checked(triple)
    _, pairs = one_form_generators(triple)
    return FormSpace.from_matrices(pairs)


def junk_two_forms(triple: IndefiniteTriple) -> FormSpace:
    """Image of ker[(a,b) -> pi(a)[D,pi(b)]] under (a,b) -> [D,pi(a)][D,pi(b)]."""
    _checked(triple)
    indexed, pairs = one_form_generators(triple)
    if not indexed:
        return FormSpace.from_matrices([])
    kernel = realspan(pairs).kernel  # real coefficient vectors c_(i,j)
    nk = kernel.shape[1]
    if nk == 0:
        return FormSpace.from_matrices([])

    # sum_ij c_ij [D, pi(a_i)] [D, pi(b_j)]; only nonzero [D, pi(a_i)] matter,
    # so every image is one combination of the k^2 commutator products
    nz = [i for i, _ in indexed]
    k, n = len(indexed), triple.dim
    dcomm = np.stack([c for _, c in indexed])
    coeff = kernel.T.reshape(nk, len(triple.algebra.basis), k)[:, nz, :]
    prods = (dcomm[:, None] @ dcomm[None, :]).reshape(k * k, n * n)
    images = (coeff.reshape(nk, k * k) @ prods).reshape(nk, n, n)
    # discard images that vanish at the scale of the commutator products
    scale = float(np.abs(dcomm).max()) ** 2
    kept = [im for im in images if float(np.abs(im).max()) > JUNK_VANISH * scale]
    return FormSpace.from_matrices(kept)


@dataclass
class QSpace:
    """The projection target pi(A) + junk with its trace-form Gram data."""

    forms: FormSpace
    gram: np.ndarray
    definite: bool
    gram_cond: float


def q_space(triple: IndefiniteTriple, varpi=None, junk: FormSpace = None) -> QSpace:
    """Algebra image plus junk, with the projection product's Gram report."""
    if junk is None:
        junk = junk_two_forms(triple)
    space = FormSpace.from_matrices(list(triple.algebra.basis) + junk.span)
    n = triple.dim
    W = np.eye(n) if varpi is None else as_matrix(varpi)
    if space.span:
        S = np.stack(space.span)
        WS = (W[None, :, :] @ S.conj().transpose(0, 2, 1)) @ W
        G = np.einsum("kab,lba->kl", WS, S).real
    else:
        G = np.zeros((0, 0))
    eigs = np.linalg.eigvalsh(0.5 * (G + G.T)) if space.span else np.array([1.0])
    definite = bool(eigs.min() > 0 or eigs.max() < 0)
    cond = (
        float(abs(eigs).max() / abs(eigs).min())
        if eigs.size and abs(eigs).min() > 0
        else np.inf
    )
    return QSpace(space, G, definite, cond)


def project_two_form(triple: IndefiniteTriple, X, varpi=None, qspace: QSpace = None):
    """Representative of a two-form orthogonal to Q for Re tr(varpi . varpi .).

    This is the residual of the orthogonal projection of X onto Q; members
    of Q project to zero.
    """
    if qspace is None:
        qspace = q_space(triple, varpi)
    if not np.isfinite(qspace.gram_cond) or qspace.gram_cond > COND_MAX:
        raise DegenerateProjectionError("degenerate projection product")
    _, resid = real_bilinear_project(
        X, qspace.forms.span, varpi, mode="real", gram=qspace.gram
    )
    return resid
