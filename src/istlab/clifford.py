"""Explicit spinor representations of even Clifford algebras Cl(q, p).

Every module is built from the three d = 2 modules Cl(2, 0), Cl(0, 2) and
Cl(1, 1), written out as literal 2 x 2 matrices, by the graded tensor
product that ``tensor.tensor_modules`` also uses: Cl(q, p) is a plane
times the rest.  The planes and the order of the products are fixed, so
all matrices are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dims import SignQuadruple, cardinal_table, signs_from_dims
from .kspace import (
    AXIOM_TOL,
    UNIT_TOL,
    AntilinearOperator,
    KreinForm,
    _block_svd,
    _operator,
    antilinear_adjoint,
    as_matrix,
    kron,
    read_sign,
    realspan,
    scalar_coefficient,
    snap_sign,
)

MAX_DIM = 12  # dense-algebra guard: D = 2^(d/2) <= 64


@dataclass(frozen=True)
class Signature:
    """Signature (q, p): q negative directions, p positive, q+p even, 2 <= q+p <= MAX_DIM."""

    q: int
    p: int

    def __post_init__(self):
        if self.q < 0 or self.p < 0:
            raise ValueError("signature entries must be nonnegative")
        d = self.q + self.p
        if d % 2 or d < 2:
            raise ValueError("total dimension must be even and >= 2")
        if d > MAX_DIM:
            raise ValueError(f"dimension {d} exceeds the dense-algebra cap {MAX_DIM}")

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
    if read_sign(P @ P, np.eye(n), "the product squares to no sign")[0] < 0:
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


def _plane(q: int):
    """Gammas, chi, Robinson gram and J+ of the d = 2 module Cl(q, 2 - q).

    New arrays on every call: a module keeps its gammas and chi without copying.
    """
    e = np.array([[0, -1], [1, 0]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    chi = np.diag([1, -1]).astype(complex)
    if q == 2:
        return [e, np.array([[0, -1j], [-1j, 0]])], chi, chi, e
    if q == 0:
        return [x, np.array([[0, 1j], [-1j, 0]])], chi, np.eye(2, dtype=complex), x
    return [e, x], chi, x, np.eye(2, dtype=complex)


def _product(sig1: Signature, data1, sig2: Signature, data2):
    """Gammas, chi, Robinson gram and J+ of the graded tensor product of two modules.

    Generators are gamma(v) x 1 and chi_1 x gamma(w), reordered so the
    negative directions come first.  The Robinson gram tensors with the
    second factor's Robinson or anti-Robinson gram according to the
    parity of q_1, and the charge conjugations mix according to the
    parity of (p_1 - q_1)/2.
    """
    q1, p1, q2 = sig1.q, sig1.p, sig2.q
    g1, chi1, gram1, j1 = data1
    g2, chi2, gram2, j2 = data2
    first = kron(np.stack(g1), np.eye(len(chi2)))
    second = kron(chi1, np.stack(g2))
    gammas = [*first[:q1], *second[:q2], *first[q1:], *second[q2:]]
    j2_plus = chi2 @ j2 if ((p1 - q1) // 2) % 2 else j2
    h2 = gram2 if q1 % 2 == 0 else (1j ** q2) * gram2 @ chi2
    return gammas, kron(chi1, chi2), kron(gram1, h2), kron(j1, j2_plus)


def _data(q: int, p: int):
    """Raw Cl(q, p) data: a d = 2 module, or the product of a plane and the rest.

    The plane is Cl(1, 1) for odd q, else Cl(2, 0) while q >= 2, else Cl(0, 2).
    """
    if q + p == 2:
        return _plane(q)
    a = 1 if q % 2 else min(q, 2)
    plane, rest = Signature(a, 2 - a), Signature(q - a, p - 2 + a)
    return _product(plane, _plane(a), rest, _data(rest.q, rest.p))


def build(sig: Signature) -> CliffordModule:
    """Construct the canonical Cl(q, p) module from d = 2 planes and graded products."""
    return _assemble(sig, *_data(sig.q, sig.p))


def verify_relations(module: CliffordModule) -> float:
    """Largest violation of {gamma^a, gamma^b} = 2 g^ab over all pairs, read off the composed
    generator operators: O(n) a pair for monomials, with the dense products' float sums."""
    g, G = module.sig.metric(), _operator(np.stack(module.gammas))
    # {gamma^b, gamma^a} is the same floating-point sum, so each unordered pair once
    a, b = np.triu_indices(len(g))
    return (G[a] @ G[b]).sum_defect(G[b] @ G[a], 2.0 * g[a, b])


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


def _cc_readings(form: KreinForm, cc: AntilinearOperator, chi) -> dict:
    """``read_sign`` of J^2 = eps, J^x = kap J and J chi = eps2 chi J, keyed by axiom name."""
    return {"cc_square": read_sign(cc.square(), np.eye(form.dim)),
            "cc_adjoint": read_sign(antilinear_adjoint(cc, form).mat, cc.mat),
            "cc_homogeneous": read_sign(cc.mat @ np.conj(chi), chi @ cc.mat)}


def _signs_of(readings: dict, chi_sign: int) -> SignQuadruple:
    """The quadruple of ``_cc_readings`` with kap2 = chi_sign eps2, refused above AXIOM_TOL."""
    if bad := {k: d for k, (_, d) in readings.items() if d > AXIOM_TOL}:
        raise ValueError(f"charge conjugation relations exceed AXIOM_TOL {AXIOM_TOL:g}: {bad}")
    (eps, _), (kap, _), (eps2, _) = readings.values()
    return SignQuadruple(eps=eps, eps2=eps2, kap=kap, kap2=chi_sign * eps2)


def measure_signs(form: KreinForm, cc: AntilinearOperator, chi) -> SignQuadruple:
    """Read (eps, eps2, kap, kap2) of a module's or a test's charge conjugation, grading and form
    afresh, as ``ist.check_axioms`` reads a triple's, refusing a defect above AXIOM_TOL."""
    return _signs_of(_cc_readings(form, cc, chi), form.adjoint_sign(chi))


def extract_signs(module: CliffordModule, convention: str) -> SignQuadruple:
    """Measure (eps, eps2, kap, kap2) in the given cardinal convention."""
    return measure_signs(*convention_pairing(module, convention), module.chi)


def _intertwiners(A, B) -> np.ndarray:
    """An orthonormal basis of the complex solutions X of A_a X = X B_a for every a.

    A nonzero A[a, i, k] puts X[k, j] into equation (a, i, j) for every j, and a
    nonzero B[a, l, j] puts -X[i, l] into it for every i.  ``_block_svd`` takes that
    coordinate list transposed and conjugated, and its left null vectors, from the R-SVD and
    never from M M^H, solve the system.  When every A_a is monomial and each column of every
    B_a holds one nonzero, an equation of generator a is dropped if, scaled by its first
    coefficient, it equals an earlier one of a exactly.  For monomials squaring to +-1 they
    pair up, so every block halves and keeps one shape, which cross-generator dropping breaks.
    """
    n, t = A.shape[1], np.arange(A.shape[1])
    a, i, k = np.nonzero(A)
    b, l, j = np.nonzero(B)
    rows = np.concatenate([(k[:, None] * n + t).ravel(), (t * n + l[:, None]).ravel()])
    cols = np.concatenate([(((a * n + i) * n)[:, None] + t).ravel(),
                           ((b[:, None] * n + t) * n + j[:, None]).ravel()])
    vals = np.repeat(np.concatenate([A[a, i, k], -B[b, l, j]]).conj(), n)
    m, rows_a = len(A) * n * n, len(A) * n
    slots = np.concatenate([a * n + i, rows_a + a * n + k, 2 * rows_a + b * n + j])
    if (np.bincount(slots, minlength=3 * rows_a) == 1).all():  # A_a monomial, B_a columns too
        e, s = np.arange(m), np.empty(m, np.intp)
        s[cols[m:]] = np.arange(m, 2 * m)  # equation e holds entries e and s[e]
        g, at = e // (n * n) * (n * n), np.empty(m, np.intp)
        at[g + rows[:m]] = e  # the equation of generator g with its A entry at that unknown
        twin = at[g + rows[s]]  # the only other one of g that can link the same two unknowns
        ratio = np.where(rows[:m] < rows[s], vals[s] / vals[:m], vals[:m] / vals[s])
        keep = (twin >= e) | (rows[s[twin]] != rows[:m]) | (ratio[twin] != ratio)
        on = np.concatenate([keep, keep[cols[m:]]])
        rows, cols, vals = rows[on], cols[on], vals[on]
    return _block_svd(rows, cols, vals, (n * n, m), kernel_only=True)[5].T.reshape(-1, n, n)


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
