"""Finite indefinite spectral triples and their axiom/condition checkers.

A triple bundles a Krein form, a grading chi, an antilinear charge
conjugation, a Dirac operator and a represented real *-algebra.  All
checks are numerical: each axiom reports its worst violation and the
triple passes when every one is below tolerance.

Each algebra element and each opposite becomes one operator, which ``kspace._operator``
picks per matrix.  The library's elements are phased partial permutations with phases 1,
-1, i or -i, so their products gather rows or columns, bit for bit equal to the dense
products that any other matrix, such as a loaded dense element, takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clifford import CliffordModule, convention_pairing, measure_signs
from .dims import dims_from_signs
from .kspace import (
    AXIOM_TOL,
    COMM_VANISH,
    MEMBER_TOL,
    AntilinearOperator,
    KreinForm,
    _operator,
    _read_only,
    antilinear_adjoint,
    as_matrix,
    frob,
    in_span,
    realspan,
)


@dataclass
class FiniteAlgebra:
    """Images under the representation of a real basis of the algebra.

    ``involution`` lists the images of the starred basis elements in the
    same order.  Closure under multiplication is verified numerically, not
    imposed symbolically.  The images are read-only copies, so memos stay valid.
    """

    basis: list
    involution: list
    labels: list = None

    def __post_init__(self):
        self.basis = [_read_only(b) for b in self.basis]
        self.involution = [_read_only(b) for b in self.involution]
        if len(self.basis) != len(self.involution):
            raise ValueError("basis and involution images must align")
        if self.labels is None:
            self.labels = [f"a{i}" for i in range(len(self.basis))]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError("coefficient vector length mismatch")
        return sum(c * b for c, b in zip(coeffs, self.basis))

    def closure_violation(self) -> float:
        """Worst distance of a basis product from the real span; 0 for the zero algebra."""
        return self._closure

    @cached_property
    def _closure(self) -> float:
        if not self.basis:
            return 0.0
        B = np.stack(self.basis)
        span = realspan(B)
        worst = 0.0
        for a in self._operators:  # one row of products at a time bounds the memory
            norms, dists = span.residuals(a.lmul(B))
            worst = max(worst, float((dists / np.maximum(1.0, norms)).max()))
        return worst

    @cached_property
    def _operators(self) -> list:
        """The basis as ``kspace`` operators, for products by gathers where they are monomial."""
        return [_operator(b) for b in self.basis]


_SCALARS = {}  # n -> the shared, read-only scalar algebra


def scalar_algebra(n: int) -> FiniteAlgebra:
    """The real scalars acting on an n-dimensional space, built once per n and shared."""
    if n not in _SCALARS:
        eye = np.eye(n, dtype=complex)
        _SCALARS[n] = FiniteAlgebra([eye], [eye], labels=["1"])
    return _SCALARS[n]


@dataclass(frozen=True)
class IndefiniteTriple:
    """(algebra, Krein form, Dirac, chirality, charge conjugation).

    Frozen with read-only arrays, so its memoised axiom report stays valid.
    """

    form: KreinForm
    chi: np.ndarray
    cc: AntilinearOperator
    dirac: np.ndarray
    algebra: FiniteAlgebra
    sigma: int

    def __post_init__(self):
        object.__setattr__(self, "chi", _read_only(self.chi))
        object.__setattr__(self, "dirac", _read_only(self.dirac))
        if self.sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")
        n, alg = self.form.dim, self.algebra
        for name, mats in (("chi", [self.chi]), ("dirac", [self.dirac]), ("J", [self.cc.mat]),
                           ("algebra_basis", alg.basis), ("involution", alg.involution)):
            for M in mats:
                if M.shape != (n, n):
                    raise ValueError(f"{name} has shape {M.shape}, not ({n}, {n}) as the gram")

    @property
    def dim(self) -> int:
        return self.form.dim

    @cached_property
    def _axioms(self) -> dict:
        return _evaluate_axioms(self)


@dataclass
class AxiomReport:
    """Per-axiom worst violations of an indefinite triple."""

    violations: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v <= AXIOM_TOL for v in self.violations.values())

    @property
    def worst(self) -> float:
        return max(self.violations.values(), default=0.0)

    def failures(self) -> dict:
        return {k: v for k, v in self.violations.items() if v > AXIOM_TOL}


def _maxabs(M) -> float:
    return float(np.abs(M).max()) if np.asarray(M).size else 0.0


def _sign_defect(A, B) -> float:
    """max |A - s B| for the sign s = +-1 that brings A nearer to s B."""
    s = 1 if frob(A - B) <= frob(A + B) else -1
    return _maxabs(A - s * B)


def check_axioms(triple: IndefiniteTriple) -> AxiomReport:
    """Evaluate every triple axiom once per triple; pass iff all violations <= AXIOM_TOL."""
    return AxiomReport(dict(triple._axioms))


def _evaluate_axioms(triple: IndefiniteTriple) -> dict:
    """The worst violation of each triple axiom, by name."""
    n = triple.dim
    chi = triple.chi
    D = triple.dirac
    M = triple.cc.mat
    form = triple.form
    eye = np.eye(n)

    v = {}
    v["chi_involution"] = _maxabs(chi @ chi - eye)
    v["chi_adjoint"] = _maxabs(form.adjoint(chi) - (-1) ** triple.sigma * chi)
    v["dirac_symmetric"] = _maxabs(form.adjoint(D) - D)
    v["dirac_odd"] = _maxabs(chi @ D @ chi + D)

    v["cc_square"] = _sign_defect(triple.cc.square(), eye)
    v["cc_adjoint"] = _sign_defect(antilinear_adjoint(triple.cc, form).mat, M)
    v["cc_homogeneous"] = _sign_defect(M @ np.conj(chi), chi @ M)
    v["cc_dirac_commute"] = _maxabs(M @ np.conj(D) - D @ M)

    v["rep_even"] = _worst_commutator(chi, triple.algebra._operators)
    v["rep_involutive"] = max(
        (
            _maxabs(form.adjoint(b) - binv)
            for b, binv in zip(triple.algebra.basis, triple.algebra.involution)
        ),
        default=0.0,
    )
    v["algebra_closed"] = triple.algebra.closure_violation()
    return v


def require_axioms(triple: IndefiniteTriple, what: str = "triple"):
    """Raise ValueError naming ``what`` unless the triple passes every axiom."""
    report = check_axioms(triple)
    if not report.ok:
        raise ValueError(f"{what} fails axioms: {report.failures()}")


def triple_dims(triple: IndefiniteTriple) -> tuple[int, int]:
    """KO and metric dimensions (n, m) of a compliant triple."""
    require_axioms(triple)
    return dims_from_signs(measure_signs(triple.form, triple.cc, triple.chi))


def opposite(triple: IndefiniteTriple, X) -> np.ndarray:
    """The opposite operator X -> J X^x J^-1 (a linear antiautomorphism)."""
    return triple.cc.conjugate(triple.form.adjoint(X))


def _opposites(triple: IndefiniteTriple) -> list:
    """The operators pi(b)^o over the basis."""
    return [_operator(opposite(triple, b)) for b in triple.algebra.basis]


def _worst_commutator(X, ops) -> float:
    """max |[X, b]| over the operators b for a matrix or stack X."""
    return max((b.commutator_norm(X) for b in ops), default=0.0)


def _dirac_commutators(triple: IndefiniteTriple) -> np.ndarray:
    """The (m, n, n) stack of [D, pi(b)] over the algebra basis."""
    D, n = triple.dirac, triple.dim
    return np.array([b.rmul(D) - b.lmul(D) for b in triple.algebra._operators]).reshape(-1, n, n)


def order_zero(triple: IndefiniteTriple) -> float:
    """max ||[pi(a), pi(b)^o]|| over algebra basis pairs."""
    basis, n = triple.algebra.basis, triple.dim
    return _worst_commutator(np.array(basis).reshape(-1, n, n), _opposites(triple))


def first_order(triple: IndefiniteTriple) -> float:
    """max ||[[D, pi(a)], pi(b)^o]|| over algebra basis pairs."""
    return _worst_commutator(_dirac_commutators(triple), _opposites(triple))


def one_form_generators(triple: IndefiniteTriple) -> tuple:
    """The nonvanishing [D, pi(b_j)] and the one-forms they generate.

    Returns (commutators, pairs): the commutators as (j, [D, pi(b_j)])
    and the (m, n, n) stack of pi(a_i) [D, pi(b_j)] over every basis a_i
    and every such commutator, i-major.  Pairs whose commutator vanishes
    are dropped; the real span is unchanged.
    """
    n, ops = triple.dim, triple.algebra._operators
    scale = max(1.0, _maxabs(triple.dirac))
    every = _dirac_commutators(triple)
    kept = [j for j, c in enumerate(every) if _maxabs(c) > COMM_VANISH * scale]
    C = every[kept]
    comms = list(zip(kept, C))
    pairs = np.empty((len(ops), *C.shape), complex)
    for a, out in zip(ops, pairs):
        out[...] = a.lmul(C)
    return comms, pairs.reshape(-1, n, n)


def gauge_unitary(triple: IndefiniteTriple, coeffs) -> np.ndarray:
    """U = pi(u) J pi(u) J^-1 for a Krein-unitary algebra element u."""
    u = triple.algebra.element(coeffs)
    n = triple.dim
    if _maxabs(triple.form.adjoint(u) @ u - np.eye(n)) > MEMBER_TOL:
        raise ValueError("algebra element is not Krein-unitary")
    return u @ triple.cc.conjugate(u)


def fluctuate(triple: IndefiniteTriple, omega) -> np.ndarray:
    """Fluctuated Dirac D + omega + J omega J^-1 for a self-adjoint one-form."""
    omega = as_matrix(omega)
    if _maxabs(triple.form.adjoint(omega) - omega) > MEMBER_TOL:
        raise ValueError("one-form is not self-adjoint")
    _, pairs = one_form_generators(triple)
    if not in_span(realspan(pairs), omega):
        raise ValueError("operator is outside the one-form span")
    return triple.dirac + omega + triple.cc.conjugate(omega)


def _default_dirac(module: CliffordModule, convention: str) -> np.ndarray:
    """A nonzero odd, symmetric, J-commuting Dirac when one exists, else 0."""
    key = convention.lower()
    g = module.gammas
    n = module.dim
    if key == "south":
        return g[0].copy()
    if key == "north":
        return 1j * g[0]
    if module.sig.d >= 4:
        triple_prod = g[0] @ g[1] @ g[2]
        return triple_prod if key == "east" else 1j * triple_prod
    return np.zeros((n, n), dtype=complex)


def from_clifford_module(module: CliffordModule, convention: str, dirac=None) -> IndefiniteTriple:
    """Wrap a Clifford module as a triple in one of the four conventions.

    The algebra is the real scalars and the default Dirac a canonical
    generator combination compatible with the convention.
    """
    form, cc = convention_pairing(module, convention)
    if dirac is None:
        dirac = _default_dirac(module, convention)
    sigma = 0 if form.adjoint_sign(module.chi) == 1 else 1
    return IndefiniteTriple(
        form=form,
        chi=module.chi,
        cc=cc,
        dirac=as_matrix(dirac),
        algebra=scalar_algebra(module.dim),
        sigma=sigma,
    )
