"""Finite indefinite spectral triples and their axiom/condition checkers.

A triple bundles a Krein form, a grading chi, an antilinear charge
conjugation, a Dirac operator and a represented real *-algebra.  All
checks are numerical: each axiom reports its worst violation and the
triple passes when every one is below tolerance.

An algebra is stored only as one operator per image stack; dense images are read on demand,
with no -0.0 zero.  A triple composes its opposites from the basis operator, the gram and J once.
The library's elements are phased partial permutations with phases 1, -1, i or -i, so their
products gather rows or columns, bit for bit the dense products that a stack holding any other
matrix, such as a loaded dense element, takes.  Products by the algebra keep to the coordinates
they can reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clifford import CliffordModule, _cc_readings, _signs_of, convention_pairing
from .dims import dims_from_signs
from .kspace import (
    AXIOM_TOL,
    COMM_VANISH,
    MEMBER_TOL,
    AntilinearOperator,
    KreinForm,
    _operator,
    _Sparse,
    _read_only,
    _stack_operator,
    as_matrix,
    in_span,
    realspan,
)


class FiniteAlgebra:
    """Images under the representation of a real basis of the algebra.

    ``involution`` lists the images of the starred basis elements in the same order.  Each image
    set, an operator over its stack or a list of matrices that ``_operator`` reads once, is
    stored as that operator in ``_stacks`` only.  ``basis`` and ``involution`` are read-only
    matrices read from it when first asked for, a monomial's with no -0.0 zero.  Closure under
    multiplication is checked numerically.
    """

    def __init__(self, basis, involution, labels=None):
        B, Binv = _stack_operator(basis), _stack_operator(involution)
        self.dim, m = (0 if S is None else S.shape[0] for S in (B, Binv))
        if m != self.dim:
            raise ValueError("basis and involution images must align")
        self._stacks = (B, Binv) if m else ()
        self.labels = [f"a{i}" for i in range(m)] if labels is None else labels

    basis = cached_property(lambda self: self._images(0))
    involution = cached_property(lambda self: self._images(1))

    def _images(self, k) -> list:
        """Image set k read densely, read-only."""
        M = self._stacks[k].dense() if self.dim else np.zeros((0, 0, 0))
        M.flags.writeable = False
        return list(M)

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
        if not self.dim:
            return 0.0
        span, m = realspan(self._sparse), self.dim
        ab = self._stacks[0].mul_on(self._sparse)  # every product a b, on its support
        rows = (span.residuals(_Sparse(ab.vals[a * m:a * m + m], ab.at, ab.shape)) for a in range(m))
        return max(float((d / np.maximum(1.0, nrm)).max()) for nrm, d in rows)  # a row per call

    @cached_property
    def _sparse(self) -> _Sparse:
        """The basis on its support: the basis operator times the identity."""
        n = self._stacks[0].shape[-1]
        return self._stacks[0].mul_on(_Sparse(np.ones((1, n)), np.arange(n) * (n + 1), (n, n)))


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

    Frozen with read-only arrays, so its memoised axioms, J signs, opposites and forms stay valid.
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
        for name, M in (("chi", self.chi), ("dirac", self.dirac), ("J", self.cc.mat),
                        *zip(("algebra_basis", "involution"), self.algebra._stacks)):
            _require_shape(name, M, self.form.dim)

    @property
    def dim(self) -> int:
        return self.form.dim

    @cached_property
    def _axioms(self) -> dict:
        return _evaluate_axioms(self)

    @cached_property
    def _cc_signs(self) -> dict:
        return _cc_readings(self.form, self.cc, self.chi)

    @cached_property
    def _opposite_stack(self):
        return _opposites(self)

    _generators = cached_property(lambda self: _one_form_generators(self))


def _require_shape(name: str, M, n: int):
    """Refuse a matrix, or a stack of them, of another shape than the (n, n) gram's."""
    if M.shape[-2:] != (n, n):
        raise ValueError(f"{name} has shape {M.shape[-2:]}, not ({n}, {n}) as the gram")


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

    v.update((name, defect) for name, (_, defect) in triple._cc_signs.items())
    v["cc_dirac_commute"] = _maxabs(M @ np.conj(D) - D @ M)

    v["rep_even"] = v["rep_involutive"] = 0.0
    if triple.algebra.dim:  # [chi, b] and b^x - b^* by composed operators, one per stack
        (B, Binv), X, H = triple.algebra._stacks, _operator(chi), form._op
        v["rep_even"] = (X @ B).diff_defect(B @ X)
        v["rep_involutive"] = (H.inverse() @ (B.dagger() @ H)).diff_defect(Binv)
    v["algebra_closed"] = triple.algebra.closure_violation()
    return v


def require_axioms(triple: IndefiniteTriple, what: str = "triple"):
    """Raise ValueError naming ``what`` unless the triple passes every axiom."""
    report = check_axioms(triple)
    if not report.ok:
        raise ValueError(f"{what} fails axioms: {report.failures()}")


def triple_dims(triple: IndefiniteTriple) -> tuple[int, int]:
    """KO and metric dimensions (n, m) of a compliant triple, from the J signs its axiom check
    read and kap2 = (-1)^sigma eps2, sigma having passed ``chi_adjoint``: no second reading."""
    require_axioms(triple)
    return dims_from_signs(_signs_of(triple._cc_signs, (-1) ** triple.sigma))


def opposite(triple: IndefiniteTriple, X) -> np.ndarray:
    """The opposite operator X -> J X^x J^-1 (a linear antiautomorphism)."""
    return triple.cc.conjugate(triple.form.adjoint(X))


def _opposites(triple: IndefiniteTriple):
    """The opposites pi(b)^o over the basis as one operator, J (H^-1 B^dag H)^* J^-1 composed
    from the basis stack B, the gram H and J, the same products ``opposite`` takes."""
    J, H = triple.cc._op, triple.form._op
    return J @ (H.inverse() @ (triple.algebra._stacks[0].dagger() @ H)).conj() @ J.inverse()


def _commutators(S: _Sparse, ops) -> _Sparse:
    """X b - b X for each b of the operator stack ops and each X of S, b-major, on the
    coordinates the operators move the nonzeros of S to."""
    both = _Sparse.join([ops.mul_on(S, left=False), ops.mul_on(S)])
    half = len(both.vals) // 2
    return _Sparse(both.vals[:half] - both.vals[half:], both.at, S.shape)


def _dirac_commutators(triple: IndefiniteTriple) -> _Sparse:
    """[D, pi(b)] over the algebra basis."""
    return _commutators(_Sparse.of([triple.dirac]), triple.algebra._stacks[0])


def _worst_commutator(triple: IndefiniteTriple, S: _Sparse) -> float:
    """max |[X, b^o]| over the matrices X of S and the triple's opposites b^o, one b^o at a
    time, so that each product stack keeps to the support that b^o moves S to."""
    return max(_maxabs(_commutators(S, b).vals) for b in triple._opposite_stack)


def order_zero(triple: IndefiniteTriple) -> float:
    """max ||[pi(a), pi(b)^o]|| over algebra basis pairs."""
    return _worst_commutator(triple, triple.algebra._sparse) if triple.algebra.dim else 0.0


def first_order(triple: IndefiniteTriple) -> float:
    """max ||[[D, pi(a)], pi(b)^o]|| over algebra basis pairs."""
    return _worst_commutator(triple, _dirac_commutators(triple)) if triple.algebra.dim else 0.0


def one_form_generators(triple: IndefiniteTriple) -> tuple:
    """The nonvanishing [D, pi(b_j)] and the one-forms they generate, on their supports.

    Returns (kept, comms, pairs), memoised on the triple: the indices j of the kept
    commutators, those as a ``_Sparse``, and the ``_Sparse`` of pi(a_i) [D, pi(b_j)] over every
    basis a_i and kept j, i-major.  Dropping a vanishing commutator leaves the span unchanged.
    """
    return triple._generators


def _one_form_generators(triple: IndefiniteTriple) -> tuple:
    if not triple.algebra.dim:
        empty = _Sparse(np.zeros((0, 0)), np.zeros(0, np.intp), triple.dirac.shape)
        return [], empty, empty
    every = _dirac_commutators(triple)
    big = np.abs(every.vals).max(axis=1, initial=0.0) > COMM_VANISH * max(1.0, _maxabs(triple.dirac))
    kept = np.flatnonzero(big).tolist()
    on = (every.vals[kept] != 0).any(axis=0)  # the kept commutators' support
    comms = _Sparse(every.vals[kept][:, on], every.at[on], every.shape)
    return kept, comms, triple.algebra._stacks[0].mul_on(comms)


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
    if not in_span(realspan(one_form_generators(triple)[2]), omega):
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
