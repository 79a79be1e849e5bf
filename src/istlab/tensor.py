"""Graded tensor products in the non-graded matrix representation.

Only ordinary Kronecker products are materialized; the grading enters
through parity bookkeeping: the second factor's generators are dressed
with the first factor's chirality, charge conjugations pick up a
chirality twist depending on the first factor's parity data, and the
product pairing inserts the beta twist (i^s2 chi_2)^s1.
"""

from __future__ import annotations

import numpy as np

from .clifford import CliffordModule, Signature, _assemble, _product
from .ist import FiniteAlgebra, IndefiniteTriple, require_axioms, scalar_algebra
from .kspace import (AntilinearOperator, KreinForm, as_matrix, is_fundamental_symmetry, kron,
                     read_sign)


def operator_parity(X, chi) -> int:
    """0 for chi-commuting, 1 for anticommuting, by ``read_sign``; mixed parity is rejected."""
    X, chi = as_matrix(X), as_matrix(chi)
    return (1 - read_sign(X @ chi, chi @ X, "operator has mixed parity")[0]) // 2


def beta_twist(sigma1: int, sigma2: int, chi2) -> np.ndarray:
    """The twist beta = (i^sigma2 chi_2)^sigma1 on the second factor."""
    chi2 = as_matrix(chi2)
    if sigma1 % 2 == 0:
        return np.eye(chi2.shape[0], dtype=complex)
    return (1j ** (sigma2 % 2)) * chi2


def tensor_modules(m1: CliffordModule, m2: CliffordModule) -> CliffordModule:
    """Clifford module of the orthogonal sum of the two spaces, by ``clifford._product``."""
    sig = Signature(m1.sig.q + m2.sig.q, m1.sig.p + m2.sig.p)  # the cap, before any kron
    data = [(m.gammas, m.chi, m.gram_robinson.gram, m.jplus.mat) for m in (m1, m2)]
    return _assemble(sig, *_product(m1.sig, data[0], m2.sig, data[1]))


def _product_form(t1: IndefiniteTriple, t2: IndefiniteTriple) -> KreinForm:
    """The pairing (., .)_1 x (., beta .)_2 of two triples that pass their axioms."""
    require_axioms(t1, "first factor")
    require_axioms(t2, "second factor")
    beta = beta_twist(t1.sigma, t2.sigma, t2.chi)
    return KreinForm(kron(t1.form.gram, t2.form.gram @ beta))


def tensor_ist(t1: IndefiniteTriple, t2: IndefiniteTriple) -> IndefiniteTriple:
    """Tensor product of triples in non-graded form.

    K = K1 x K2 with pairing (., .)_1 x (., beta .)_2, Dirac
    D1 x 1 + chi_1 x D2, charge conjugation J1 x J2 chi_2^|J1|, and the
    product algebra represented factorwise.  KO and metric dimensions add
    mod 8.
    """
    form = _product_form(t1, t2)
    n1, n2 = t1.dim, t2.dim
    chi = kron(t1.chi, t2.chi)
    dirac = kron(t1.dirac, np.eye(n2)) + kron(t1.chi, t2.dirac)

    odd = t1._cc_signs["cc_homogeneous"][0] < 0  # J1 chi1 = -chi1 J1, read by the axiom gate
    m2 = t2.cc.mat @ t2.chi if odd else t2.cc.mat
    cc = kron(t1.cc.mat, m2)

    if t1.algebra is scalar_algebra(n1) and t2.algebra is scalar_algebra(n2):
        algebra = scalar_algebra(n1 * n2)  # R (x) R = R, shared with its memoised checks
    else:  # the image operators pairwise, i-major; an empty factor gives the zero algebra
        stacks = [kron(x, y) for x, y in zip(t1.algebra._stacks, t2.algebra._stacks)] or [[], []]
        labels = [f"{la}*{lb}" for la in t1.algebra.labels for lb in t2.algebra.labels]
        algebra = FiniteAlgebra(*stacks, labels)

    return IndefiniteTriple(
        form=form,
        chi=chi,
        cc=AntilinearOperator(cc),
        dirac=dirac,
        algebra=algebra,
        sigma=(t1.sigma + t2.sigma) % 2,
    )


def _privileged_check(eta, t: IndefiniteTriple, name: str):
    rep = is_fundamental_symmetry(eta, t.form)
    if not rep.ok:
        raise ValueError(f"{name} is not a fundamental symmetry: {rep.reason}")
    operator_parity(eta, t.chi)  # homogeneity
    t.cc.parity_sign(eta)  # commutes or anticommutes with J


def tensor_eta(eta1, eta2, t1: IndefiniteTriple, t2: IndefiniteTriple) -> np.ndarray:
    """Privileged fundamental symmetry eta_1 x beta^-1 eta_2 of the product."""
    eta1 = as_matrix(eta1)
    eta2 = as_matrix(eta2)
    _privileged_check(eta1, t1, "eta1")
    _privileged_check(eta2, t2, "eta2")
    beta = beta_twist(t1.sigma, t2.sigma, t2.chi)
    eta = kron(eta1, np.linalg.solve(beta, eta2))
    rep = is_fundamental_symmetry(eta, _product_form(t1, t2))
    if not rep.ok:
        raise ValueError(f"tensored symmetry fails: {rep.reason}")
    return eta
