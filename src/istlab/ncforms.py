"""Noncommutative differential forms of a finite triple.

One-forms are the real span of pi(a) [D, pi(b)] over basis pairs; the
junk two-forms are the image of the kernel of that bilinear map under
(a, b) -> [D, pi(a)] [D, pi(b)].  Curvature scalars are projected onto
the orthogonal complement of Q = pi(A) + junk with respect to the
real part of the trace form tr(varpi S^dag varpi T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ist import IndefiniteTriple, one_form_generators, require_axioms
from .kspace import JUNK_VANISH, RealSpan, real_bilinear_project, realspan, trace_form


def one_forms(triple: IndefiniteTriple) -> RealSpan:
    """Real span of pi(a_i) [D, pi(b_j)] over all basis pairs."""
    require_axioms(triple)
    _, pairs = one_form_generators(triple)
    return realspan(pairs)


def junk_two_forms(triple: IndefiniteTriple) -> RealSpan:
    """Image of ker[(a,b) -> pi(a)[D,pi(b)]] under (a,b) -> [D,pi(a)][D,pi(b)]."""
    require_axioms(triple)
    indexed, pairs = one_form_generators(triple)
    kernel = realspan(pairs).kernel  # real coefficient vectors c_(i,j)

    # sum_ij c_ij [D, pi(a_i)] [D, pi(b_j)]; only nonzero [D, pi(a_i)] matter,
    # so every image is one combination of the k^2 commutator products
    nz = [i for i, _ in indexed]
    k, n, nk = len(indexed), triple.dim, kernel.shape[1]
    dcomm = np.array([c for _, c in indexed]).reshape(k, n, n)
    coeff = kernel.T.reshape(nk, len(triple.algebra.basis), k)[:, nz, :]
    prods = (dcomm[:, None] @ dcomm[None, :]).reshape(k * k, n * n)
    images = (coeff.reshape(nk, k * k) @ prods).reshape(nk, n, n)
    # discard images that vanish at the scale of the commutator products
    scale = float(np.abs(dcomm).max(initial=0.0)) ** 2
    return realspan(images[np.abs(images).max(axis=(1, 2)) > JUNK_VANISH * scale])


@dataclass
class QSpace:
    """The projection target pi(A) + junk with its trace-form Gram data and the junk span."""

    forms: RealSpan
    gram: np.ndarray
    definite: bool
    junk: RealSpan


def q_space(triple: IndefiniteTriple, varpi=None) -> QSpace:
    """Algebra image plus junk, with the projection product's Gram report."""
    junk = junk_two_forms(triple)
    space = realspan(np.concatenate([np.stack(triple.algebra.basis), junk.basis]))
    G = trace_form(space.basis, space.basis, varpi).real
    eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
    definite = bool(eigs.min() > 0 or eigs.max() < 0)
    return QSpace(space, G, definite, junk)


def project_two_form(triple: IndefiniteTriple, X, varpi=None):
    """Representative of a two-form orthogonal to Q for Re tr(varpi . varpi .).

    This is the residual of the orthogonal projection of X onto Q; members
    of Q project to zero.
    """
    qspace = q_space(triple, varpi)
    _, resid = real_bilinear_project(X, qspace.forms.basis, varpi, gram=qspace.gram)
    return resid
