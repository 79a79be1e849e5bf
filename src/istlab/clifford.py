"""Explicit spinor representations of even Clifford algebras Cl(q, p).

Even-even signatures are represented on the fermionic Fock space of the
complex structure's eigenspace: generators come in pairs
gamma(e) = a + a^x and gamma(Ce) = i(a - a^x), chirality is the Fock
parity, the Robinson gram is the (pseudo-orthonormal) Hodge product, and
charge conjugation acts by Hodge duality on basis monomials.  Odd-odd
signatures split off a (1, 1) Pauli block and carry two copies of the
Fock space of the remaining even-even part.

Basis monomials are ordered by subset bitmask, vacuum first, so all
matrices are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dims import SignQuadruple, cardinal_table, signs_from_dims
from .kspace import (
    UNIT_TOL,
    AntilinearOperator,
    KreinForm,
    _block_svd,
    antilinear_adjoint,
    as_matrix,
    realspan,
    scalar_coefficient,
    snap_sign,
)

MAX_DIM = 12  # dense-algebra guard: D = 2^(d/2) <= 64


@dataclass(frozen=True)
class Signature:
    """Signature (q, p): q negative directions, p positive, q+p even >= 2."""

    q: int
    p: int

    def __post_init__(self):
        if self.q < 0 or self.p < 0:
            raise ValueError("signature entries must be nonnegative")
        d = self.q + self.p
        if d % 2 or d < 2:
            raise ValueError("total dimension must be even and >= 2")
        if self.q % 2 != self.p % 2:
            raise ValueError("only even-even and odd-odd signatures are supported")

    @property
    def d(self) -> int:
        return self.q + self.p

    @property
    def spinor_dim(self) -> int:
        return 1 << (self.d // 2)

    def metric(self) -> np.ndarray:
        return np.diag([-1.0] * self.q + [1.0] * self.p)


@dataclass
class CliffordModule:
    """A concrete Cl(q, p) module with its canonical operators.

    ``gammas`` lists the pseudo-orthonormal generators, negative directions
    first.  ``gram_robinson`` makes every generator self-adjoint and
    ``gram_antirobinson`` anti-self-adjoint; they differ by i^q * chi.
    ``jplus`` commutes with every generator (as an antilinear operator),
    ``jminus`` = chi o jplus graded-commutes.
    """

    sig: Signature
    dim: int
    gammas: list
    chi: np.ndarray
    eta_plus: np.ndarray
    eta_minus: np.ndarray
    gram_robinson: KreinForm
    gram_antirobinson: KreinForm
    jplus: AntilinearOperator
    jminus: AntilinearOperator

    def gamma(self, v) -> np.ndarray:
        """The image of the vector v = (v_1, ..., v_d)."""
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.sig.d,):
            raise ValueError("vector length does not match the signature")
        return sum(c * g for c, g in zip(v, self.gammas))


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _fock_ladder(nmodes: int, eps: list) -> tuple[list, list]:
    """Creation/annihilation matrices on the bitmask-ordered subset basis.

    eps[j] is the squared norm of mode j; annihilation picks it up:
    a_j = eps_j * (a_j^x)^T on this real basis.
    """
    dim = 1 << nmodes
    cre, ann = [], []
    for j in range(nmodes):
        bit = 1 << j
        c = np.zeros((dim, dim))
        for I in range(dim):
            if I & bit:
                continue
            sign = -1.0 if _popcount(I & (bit - 1)) % 2 else 1.0
            c[I | bit, I] = sign
        cre.append(c)
        ann.append(eps[j] * c.T)
    return cre, ann


def _perm_parity(seq) -> int:
    return -1 if sum(a > b for a, b in itertools.combinations(seq, 2)) % 2 else 1


def _fock_data(q2: int, p2: int):
    """Gammas, chi, Hodge gram, and J+ matrix of the even-even Fock module.

    Valid for q2 = p2 = 0 as well (one-dimensional space, no generators).
    """
    if q2 % 2 or p2 % 2:
        raise ValueError("Fock construction needs an even-even signature")
    nmodes = (q2 + p2) // 2
    eps = [-1] * (q2 // 2) + [1] * (p2 // 2)
    dim = 1 << nmodes
    cre, ann = _fock_ladder(nmodes, eps)

    gammas = []
    for j in range(nmodes):
        gammas.append((ann[j] + cre[j]).astype(complex))
        gammas.append(1j * (ann[j] - cre[j]))

    sizes = np.array([_popcount(I) for I in range(dim)])
    chi = np.diag(np.where(sizes % 2, -1.0, 1.0)).astype(complex)

    # the first q2/2 modes have squared norm -1: each occupied one flips the sign
    negative = (1 << (q2 // 2)) - 1
    gram = np.diag([(-1.0) ** _popcount(I & negative) for I in range(dim)]).astype(complex)

    # Hodge duality on basis monomials, phase fixed to 1
    J = np.zeros((dim, dim), dtype=complex)
    for I in range(dim):
        inside = [j for j in range(nmodes) if I & (1 << j)]
        outside = [j for j in range(nmodes) if not I & (1 << j)]
        ell = len(inside)
        coeff = _perm_parity(inside + outside)
        if (ell * (ell - 1) // 2 + q2 // 2) % 2:
            coeff = -coeff
        for j in outside:
            coeff *= eps[j]
        Ic = sum(1 << j for j in outside)
        J[Ic, I] = coeff
    return gammas, chi, gram, J


def _normalized_symmetry(mats, gram: KreinForm) -> np.ndarray:
    """Scale a product of generators into a fundamental symmetry.

    The input squares to +-1; a factor i fixes the square and the overall
    sign is chosen to make (., eta .) positive definite (checked, not
    assumed).
    """
    n = gram.dim
    P = np.eye(n, dtype=complex)
    for g in mats:
        P = P @ g
    sq = scalar_coefficient(P @ P, np.eye(n))
    if snap_sign(sq) < 0:
        P = 1j * P
    M = gram.gram @ P
    eigs = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    if eigs[0] <= 0 <= eigs[-1]:
        raise ValueError("neither sign of the product makes (., eta .) positive definite")
    return P if eigs[0] > 0 else -P


def _assemble(sig: Signature, gammas, chi, gram, jplus_mat) -> CliffordModule:
    q = sig.q
    gram_rob = KreinForm(gram)
    gram_anti = KreinForm((1j ** q) * gram @ chi)
    plus, minus = (gammas[:q], gammas[q:]) if q % 2 == 0 else (gammas[q:], gammas[:q])
    eta_plus = _normalized_symmetry(plus, gram_rob)
    eta_minus = _normalized_symmetry(minus, gram_anti)
    return CliffordModule(
        sig=sig,
        dim=sig.spinor_dim,
        gammas=[as_matrix(g) for g in gammas],
        chi=as_matrix(chi),
        eta_plus=eta_plus,
        eta_minus=eta_minus,
        gram_robinson=gram_rob,
        gram_antirobinson=gram_anti,
        jplus=AntilinearOperator(jplus_mat),
        jminus=AntilinearOperator(chi @ jplus_mat),
    )


def build(sig: Signature) -> CliffordModule:
    """Construct the canonical Cl(q, p) module.

    Even-even signatures use the Fock representation directly; odd-odd
    ones carry two Fock copies with the vector part of the split (1, 1)
    factor acting off-diagonally.
    """
    if not isinstance(sig, Signature):
        sig = Signature(*sig)
    if sig.d > MAX_DIM:
        raise ValueError(f"dimension {sig.d} exceeds the dense-algebra cap {MAX_DIM}")
    q, p = sig.q, sig.p

    if q % 2 == 0:
        gammas, chi, gram, J = _fock_data(q, p)
        return _assemble(sig, gammas, chi, gram, J)

    # odd-odd: V = V1(1,1) + V2(q-1, p-1), S = Fock + Fock
    g2, chi2, gram2, J2 = _fock_data(q - 1, p - 1)
    m = chi2.shape[0]
    Z = np.zeros((m, m), dtype=complex)
    I = np.eye(m, dtype=complex)

    def offdiag(upper, lower):
        return np.block([[Z, upper], [lower, Z]])

    def diag(top, bottom):
        return np.block([[top, Z], [Z, bottom]])

    gamma_fm = offdiag(-I, I)   # negative direction of the (1,1) block
    gamma_fp = offdiag(I, I)    # positive direction
    doubled = [diag(g, -g) for g in g2]

    gammas = [gamma_fm] + doubled[: q - 1] + [gamma_fp] + doubled[q - 1:]
    chi = diag(chi2, -chi2)
    cross = gram2 @ chi2
    gram = offdiag(cross, cross)
    J = diag(J2, J2)
    return _assemble(sig, gammas, chi, gram, J)


def verify_relations(module: CliffordModule) -> float:
    """Largest violation of {gamma^a, gamma^b} = 2 g^ab over all pairs."""
    g = module.sig.metric()
    n = module.dim
    worst = 0.0
    # {gamma^b, gamma^a} is the same floating-point sum, so each unordered pair once
    for (a, ga), (b, gb) in itertools.combinations_with_replacement(enumerate(module.gammas), 2):
        acom = ga @ gb + gb @ ga - 2.0 * g[a, b] * np.eye(n)
        worst = max(worst, float(np.abs(acom).max()))
    return worst


_CONVENTION_DATA = {
    # convention -> (use antirobinson gram, use jminus)
    "east": (True, False),
    "west": (False, True),
    "south": (False, False),
    "north": (True, True),
}


def convention_pairing(module: CliffordModule, convention: str):
    """The (gram, charge conjugation) pair a cardinal convention reads."""
    key = convention.lower()
    if key not in _CONVENTION_DATA:
        raise ValueError(f"unknown convention {convention!r}")
    use_anti, use_minus = _CONVENTION_DATA[key]
    form = module.gram_antirobinson if use_anti else module.gram_robinson
    cc = module.jminus if use_minus else module.jplus
    return form, cc


def measure_signs(form: KreinForm, cc: AntilinearOperator, chi) -> SignQuadruple:
    """Measure (eps, eps2, kap, kap2) of a charge conjugation, grading and form."""
    eps = snap_sign(scalar_coefficient(cc.square(), np.eye(form.dim)))
    eps2 = cc.parity_sign(chi)
    kap = snap_sign(scalar_coefficient(antilinear_adjoint(cc, form).mat, cc.mat))
    return SignQuadruple(eps=eps, eps2=eps2, kap=kap, kap2=form.adjoint_sign(chi) * eps2)


def extract_signs(module: CliffordModule, convention: str) -> SignQuadruple:
    """Measure (eps, eps2, kap, kap2) in the given cardinal convention."""
    return measure_signs(*convention_pairing(module, convention), module.chi)


def _intertwiners(A, B) -> np.ndarray:
    """An orthonormal basis of the complex solutions X of A_a X = X B_a for every a.

    A nonzero A[a, i, k] puts X[k, j] into equation (a, i, j) for every j, and a
    nonzero B[a, l, j] puts -X[i, l] into it for every i.  ``_block_svd`` takes that
    coordinate list transposed and conjugated, so its left null vectors solve the system.
    """
    n, t = A.shape[1], np.arange(A.shape[1])
    a, i, k = np.nonzero(A)
    b, l, j = np.nonzero(B)
    rows = np.concatenate([(k[:, None] * n + t).ravel(), (t * n + l[:, None]).ravel()])
    cols = np.concatenate([(((a * n + i) * n)[:, None] + t).ravel(),
                           ((b[:, None] * n + t) * n + j[:, None]).ravel()])
    vals = np.repeat(np.concatenate([A[a, i, k], -B[b, l, j]]).conj(), n)
    return _block_svd(rows, cols, vals, (n * n, len(A) * n * n))[5].T.reshape(-1, n, n)


def robinson_solution_space(module: CliffordModule) -> list:
    """Basis of hermitian grams F with every generator F-self-adjoint.

    The complex solutions X of gamma^a dag X = X gamma^a are closed under X -> X^dag, so
    the hermitian ones are the real span of X + X^dag and i(X - X^dag), returned
    orthonormal for Re tr(S^dag T); it must be one-dimensional (Robinson uniqueness).
    """
    g = np.stack(module.gammas)
    X = _intertwiners(g.conj().transpose(0, 2, 1), g)
    XH = X.conj().transpose(0, 2, 1)
    return list(realspan(np.concatenate([X + XH, 1j * (X - XH)])).basis)


def cc_solution_space(module: CliffordModule) -> list:
    """Complex basis of matrices C with C o CC commuting with all generators.

    The complex dimension must be 1; the representative of a line is
    normalized to square (as an antilinear operator) to a(q - p), and any
    other space is returned as an orthonormal basis.
    """
    g = np.stack(module.gammas)
    basis = list(_intertwiners(g, g.conj()))  # gamma^a M = M conj(gamma^a)
    if len(basis) == 1:
        M = basis[0]
        basis = [M / np.sqrt(abs(scalar_coefficient(M @ np.conj(M), np.eye(module.dim))))]
    return basis


def pin_norms(module: CliffordModule, vectors) -> tuple[int, int]:
    """(omega^x omega, omega^+ omega) for omega a product of unit vectors."""
    g = module.sig.metric()
    n = module.dim
    omega = np.eye(n, dtype=complex)
    for v in vectors:
        v = np.asarray(v, dtype=float)
        norm = float(v @ g @ v)
        if abs(abs(norm) - 1.0) > UNIT_TOL:
            raise ValueError("vectors must satisfy g(v, v) = +-1")
        omega = omega @ module.gamma(v)
    forms = (module.gram_robinson, module.gram_antirobinson)
    return tuple(snap_sign(scalar_coefficient(f.adjoint(omega) @ omega, np.eye(n))) for f in forms)


def expected_signs(q: int, p: int, convention: str) -> SignQuadruple:
    """The sign table's prediction for Cl(q, p): its convention's ``cardinal_table`` row."""
    for row in cardinal_table(q, p):
        if row.convention == convention.lower():
            return signs_from_dims(row.n, row.m)
    raise ValueError(f"unknown convention {convention!r}")
