"""Graded tensor products in the non-graded matrix representation.

Only ordinary Kronecker products are materialized; the grading enters
through parity bookkeeping: the second factor's generators are dressed
with the first factor's chirality, charge conjugations pick up a
chirality twist depending on the first factor's parity data, and the
product pairing inserts the beta twist (i^s2 chi_2)^s1.
"""

from __future__ import annotations

import numpy as np

from .clifford import CliffordModule, Signature, _assemble
from .ist import FiniteAlgebra, IndefiniteTriple, require_axioms
from .kspace import (
    RTOL,
    AntilinearOperator,
    KreinForm,
    as_matrix,
    is_fundamental_symmetry,
)


def operator_parity(X, chi) -> int:
    """0 for chi-commuting, 1 for anticommuting; mixed parity is rejected."""
    X = as_matrix(X)
    chi = as_matrix(chi)
    comm = float(np.abs(X @ chi - chi @ X).max())
    anti = float(np.abs(X @ chi + chi @ X).max())
    scale = max(1.0, float(np.abs(X).max()))
    if comm <= RTOL * scale:
        return 0
    if anti <= RTOL * scale:
        return 1
    raise ValueError("operator has mixed parity")


def beta_twist(sigma1: int, sigma2: int, chi2) -> np.ndarray:
    """The twist beta = (i^sigma2 chi_2)^sigma1 on the second factor."""
    chi2 = as_matrix(chi2)
    if sigma1 % 2 == 0:
        return np.eye(chi2.shape[0], dtype=complex)
    return (1j ** (sigma2 % 2)) * chi2


def tensor_modules(m1: CliffordModule, m2: CliffordModule) -> CliffordModule:
    """Clifford module of the orthogonal sum of the two underlying spaces.

    Generators are gamma(v) x 1 and chi_1 x gamma(w), reordered so the
    negative directions come first.  The Robinson gram tensors with the
    second factor's Robinson or anti-Robinson gram according to the
    parity of q_1, and the charge conjugations mix according to the
    parity of (p_1 - q_1)/2.
    """
    q1, p1 = m1.sig.q, m1.sig.p
    q2, p2 = m2.sig.q, m2.sig.p
    sig = Signature(q1 + q2, p1 + p2)  # refuses a product over the cap before any kron

    eye2 = np.eye(m2.dim)
    first = [np.kron(g, eye2) for g in m1.gammas]
    second = [np.kron(m1.chi, g) for g in m2.gammas]
    gammas = first[:q1] + second[:q2] + first[q1:] + second[q2:]

    chi = np.kron(m1.chi, m2.chi)

    swap = ((p1 - q1) // 2) % 2
    j2_plus = m2.jminus.mat if swap else m2.jplus.mat
    jplus = np.kron(m1.jplus.mat, j2_plus)

    h2 = m2.gram_robinson.gram if q1 % 2 == 0 else m2.gram_antirobinson.gram
    gram = np.kron(m1.gram_robinson.gram, h2)

    return _assemble(sig, gammas, chi, gram, jplus)


def _product_form(t1: IndefiniteTriple, t2: IndefiniteTriple) -> KreinForm:
    """The pairing (., .)_1 x (., beta .)_2 of two triples that pass their axioms."""
    require_axioms(t1, "first factor")
    require_axioms(t2, "second factor")
    beta = beta_twist(t1.sigma, t2.sigma, t2.chi)
    return KreinForm(np.kron(t1.form.gram, t2.form.gram @ beta))


def tensor_ist(t1: IndefiniteTriple, t2: IndefiniteTriple) -> IndefiniteTriple:
    """Tensor product of triples in non-graded form.

    K = K1 x K2 with pairing (., .)_1 x (., beta .)_2, Dirac
    D1 x 1 + chi_1 x D2, charge conjugation J1 x J2 chi_2^|J1|, and the
    product algebra represented factorwise.  KO and metric dimensions add
    mod 8.
    """
    form = _product_form(t1, t2)
    n2 = t2.dim
    chi = np.kron(t1.chi, t2.chi)
    dirac = np.kron(t1.dirac, np.eye(n2)) + np.kron(t1.chi, t2.dirac)

    j1_parity = 0 if t1.cc.parity_sign(t1.chi) == 1 else 1
    m2 = t2.cc.mat @ t2.chi if j1_parity else t2.cc.mat
    cc = np.kron(t1.cc.mat, m2)

    basis = [
        np.kron(a, b) for a in t1.algebra.basis for b in t2.algebra.basis
    ]
    involution = [
        np.kron(a, b) for a in t1.algebra.involution for b in t2.algebra.involution
    ]
    labels = [
        f"{la}*{lb}" for la in t1.algebra.labels for lb in t2.algebra.labels
    ]

    return IndefiniteTriple(
        form=form,
        chi=chi,
        cc=AntilinearOperator(cc),
        dirac=dirac,
        algebra=FiniteAlgebra(basis, involution, labels),
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
    eta = np.kron(eta1, np.linalg.solve(beta, eta2))
    rep = is_fundamental_symmetry(eta, _product_form(t1, t2))
    if not rep.ok:
        raise ValueError(f"tensored symmetry fails: {rep.reason}")
    return eta
