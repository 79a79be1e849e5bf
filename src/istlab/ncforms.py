"""Noncommutative differential forms of a finite triple.

One-forms are the real span of pi(a) [D, pi(b)] over basis pairs; the
junk two-forms are the image of the kernel of that bilinear map under
(a, b) -> [D, pi(a)] [D, pi(b)].  Curvature scalars are projected onto
the orthogonal complement of Q = pi(A) + junk with respect to the
real part of the trace form tr(varpi S^dag varpi T).  Every stage keeps
its matrices on the coordinates they can be nonzero on (``kspace._Sparse``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ist import IndefiniteTriple, one_form_generators, require_axioms
from .kspace import JUNK_VANISH, RealSpan, _Sparse, real_bilinear_project, realspan, trace_form


def one_forms(triple: IndefiniteTriple) -> RealSpan:
    """Real span of pi(a_i) [D, pi(b_j)] over all basis pairs."""
    require_axioms(triple)
    return realspan(one_form_generators(triple)[2])


def junk_two_forms(triple: IndefiniteTriple) -> RealSpan:
    """Image of ker[(a,b) -> pi(a)[D,pi(b)]] under (a,b) -> [D,pi(a)][D,pi(b)]."""
    require_axioms(triple)
    kept, comms, pairs = one_form_generators(triple)
    kernel = realspan(pairs).kernel  # real coefficient vectors c_(i,j)

    # sum_ij c_ij [D, pi(a_i)] [D, pi(b_j)]; only nonzero [D, pi(a_i)] matter, so every
    # image is one combination of the k^2 commutator products, each taken on the rows and
    # columns T some commutator touches, and the images on the products' nonzero entries
    n, k, nk = triple.dim, len(kept), kernel.shape[1]
    coeff = kernel.T.reshape(nk, triple.algebra.dim, k)[:, kept, :]
    r, c = np.divmod(comms.at, n)
    T = np.flatnonzero(np.bincount(np.concatenate([r, c]), minlength=n))
    at = np.searchsorted(T, r) * T.size + np.searchsorted(T, c)
    small = _Sparse(comms.vals, at, (T.size, T.size)).dense()
    prods = _Sparse.of((small[:, None] @ small[None, :]).reshape(k * k, T.size, T.size))
    images = coeff.reshape(nk, k * k) @ prods.vals
    # discard images that vanish at the scale of the commutator products
    scale = float(np.abs(comms.vals).max(initial=0.0)) ** 2
    keep = np.abs(images).max(axis=1, initial=0.0) > JUNK_VANISH * scale
    r, c = np.divmod(prods.at, T.size)
    return realspan(_Sparse(images[keep], T[r] * n + T[c], (n, n)))


@dataclass
class QSpace:
    """The projection target pi(A) + junk with its trace-form Gram data and the junk span."""

    forms: RealSpan
    gram: np.ndarray
    definite: bool
    junk: RealSpan


def q_space(triple: IndefiniteTriple, varpi=None) -> QSpace:
    """Algebra image plus junk on their supports, with the projection product's Gram report."""
    memo = vars(triple)  # varpi enters only the Gram: the spans are memoised as _axioms is
    if "_q_span" not in memo:
        junk = junk_two_forms(triple)
        memo["_q_span"] = junk, realspan(_Sparse.join([triple.algebra._sparse, junk.sparse]))
    junk, space = memo["_q_span"]
    G = trace_form(space.sparse, space.sparse, varpi).real
    eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
    definite = bool(eigs.min() > 0 or eigs.max() < 0)
    return QSpace(space, G, definite, junk)


def project_two_form(triple: IndefiniteTriple, X, varpi=None):
    """Representative of a two-form orthogonal to Q for Re tr(varpi . varpi .).

    This is the residual of the orthogonal projection of X onto Q, a copy of X changed
    on Q's support only; members of Q project to zero.
    """
    qspace = q_space(triple, varpi)
    _, resid = real_bilinear_project(X, qspace.forms.sparse, varpi, gram=qspace.gram)
    return resid
