"""The finite Standard-Model triple and its bosonic Lagrangian data.

The finite Krein space is a 32N-dimensional sum of right/left particle
and antiparticle blocks; inside each block the fermion slots are ordered
(nu, e, u_r, u_g, u_b, d_r, d_g, d_b), each tensored with N generations,
so index = block 8N + slot N + generation.  ``_blocks`` places blocks and
``_by_slot`` orders slots; the lifts that mix slots name the ones they mix.
The algebra C + H + M3(C) acts blockwise, the Dirac carries the Yukawa
and Majorana couplings, and the signs s (field statistics) and eps_F
(conjugation square) select the physical triple at (-1, -1).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .ist import FiniteAlgebra, IndefiniteTriple
from .kspace import (ATOL, CS_SLACK, AntilinearOperator, KreinForm, _operator, _read_only,
                     as_matrix, kron)
from . import ncforms

N_SLOTS = 8  # nu, e, u_r, u_g, u_b, d_r, d_g, d_b
GEN_LIMIT = 48  # most generations build_sm takes; a cold `sm --coeffs` at 48 peaks at about 0.6 GB


def quaternion(alpha, beta) -> np.ndarray:
    """The 2x2 embedding [[alpha, beta], [-conj(beta), conj(alpha)]]."""
    return np.array(
        [[alpha, beta], [-np.conj(beta), np.conj(alpha)]], dtype=complex
    )


@dataclass(frozen=True)
class YukawaSet:
    """Dirac Yukawas and the Majorana block, all N x N complex; a field cannot be rebound."""

    ynu: np.ndarray
    ye: np.ndarray
    yu: np.ndarray
    yd: np.ndarray
    yr: np.ndarray

    def __post_init__(self):
        for name in ("ynu", "ye", "yu", "yd", "yr"):
            m = as_matrix(getattr(self, name))
            if m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square")
            object.__setattr__(self, name, m)
        if len({m.shape[0] for m in (self.ynu, self.ye, self.yu, self.yd, self.yr)}) != 1:
            raise ValueError("all Yukawa matrices must share one size")

    @property
    def n_gen(self) -> int:
        return self.ynu.shape[0]

    def squared_masses(self):
        """The hermitian blocks m_p = Y_p Y_p^dag for p = nu, e, u, d."""
        return tuple(Y @ Y.conj().T for Y in (self.ynu, self.ye, self.yu, self.yd))


@dataclass
class ZParams:
    """The six generation-blind weights of the bosonic trace functional."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    mu: float
    nu: float

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma, self.delta, self.mu, self.nu)


@dataclass
class LagrangianCoeffs:
    """Gauge-kinetic (a, b, c), Higgs-kinetic (d) and potential (e) weights."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d, self.e)


@dataclass
class Couplings:
    """Normalized gauge couplings and Higgs potential parameters."""

    g_y: float
    g_w: float
    g_c: float
    v0: float
    v: float


def _blocks(entries, k, count=4) -> np.ndarray:
    """count x count blocks of size k: entries[(i, j)] at block (i, j), zero elsewhere."""
    out = np.zeros((count * k, count * k), dtype=complex)
    for (i, j), b in entries.items():
        out[i * k: (i + 1) * k, j * k: (j + 1) * k] = b
    return out


def _blockdiag(blocks) -> np.ndarray:
    return _blocks({(i, i): b for i, b in enumerate(blocks)}, blocks[0].shape[0], len(blocks))


def _by_slot(nu, e, u, d) -> list:
    """One entry per fermion slot, in the slot order (nu, e, u_r, u_g, u_b, d_r, d_g, d_b)."""
    return [nu, e, u, u, u, d, d, d]


def _slot_diag(nu, e, u, d, n_gen) -> np.ndarray:
    """Diagonal operator with one value per kind of fermion slot, generation-blind."""
    return _blockdiag(_by_slot(*(complex(v) * np.eye(n_gen) for v in (nu, e, u, d))))


def _lift_right(lam, n_gen) -> np.ndarray:
    """a_R for the C component: lambda on up-type slots, conj on down-type."""
    return _slot_diag(lam, np.conj(lam), lam, np.conj(lam), n_gen)


def _lift_left(q2, n_gen) -> np.ndarray:
    """a_L for a quaternion: acts on (nu, e) and on each (u_c, d_c) pair."""
    out = np.zeros((N_SLOTS, N_SLOTS), dtype=complex)
    for u, d in ((0, 1), (2, 5), (3, 6), (4, 7)):
        out[u, u], out[u, d] = q2[0, 0], q2[0, 1]
        out[d, u], out[d, d] = q2[1, 0], q2[1, 1]
    return kron(out, np.eye(n_gen))


def _lift_bar(lam, m3, n_gen) -> np.ndarray:
    """a_Rbar = a_Lbar: lambda on leptons, the color matrix on each quark triple."""
    out = np.zeros((N_SLOTS, N_SLOTS), dtype=complex)
    out[0, 0] = out[1, 1] = lam
    out[2:5, 2:5] = m3
    out[5:8, 5:8] = m3
    return kron(out, np.eye(n_gen))


def represent(lam, q2, m3, n_gen) -> np.ndarray:
    """pi(lam, q, m), block diagonal with blocks (a_R, a_L, a_Rbar, a_Lbar)."""
    bar = _lift_bar(lam, m3, n_gen)
    return _blockdiag([_lift_right(lam, n_gen), _lift_left(q2, n_gen), bar, bar])


_ALGEBRAS = {}  # n_gen -> the shared, read-only FiniteAlgebra


def sm_algebra(n_gen: int) -> FiniteAlgebra:
    """Real basis of C + H + M3(C) in the blockwise representation.

    The algebra does not depend on the Yukawas, so it is built once per n_gen and shared by
    every model, with its memoised closure check.  It is generation-blind: an image set is the
    operator of the one-generation images (x) 1_N, and no 32N x 32N image is built.
    """
    if n_gen not in _ALGEBRAS:
        z2, z3 = np.zeros((2, 2)), np.zeros((3, 3), dtype=complex)
        units = (("1", np.eye(2, dtype=complex)), ("i", quaternion(1j, 0)),
                 ("j", quaternion(0, 1)), ("k", quaternion(0, 1j)))
        # (label, lam, q, m); the involution takes (conj lam, q^dag, m^dag)
        elements = [("c:1", 1, z2, z3), ("c:i", 1j, z2, z3)]
        elements += [(f"h:{u}", 0, q, z3) for u, q in units]
        for a, b in np.ndindex(3, 3):
            e = np.zeros((3, 3), dtype=complex)
            e[a, b] = 1
            elements += [(f"m:E{a}{b}", 0, z2, e), (f"m:iE{a}{b}", 0, z2, 1j * e)]
        sets = ([represent(lam, q, m, 1) for _, lam, q, m in elements],
                [represent(np.conj(lam), q.conj().T, m.conj().T, 1) for _, lam, q, m in elements])
        eye = _operator(np.eye(n_gen))
        _ALGEBRAS[n_gen] = FiniteAlgebra(*(kron(_operator(np.stack(S)), eye) for S in sets),
                                         [label for label, *_ in elements])
    return _ALGEBRAS[n_gen]


def yukawa_block(y: YukawaSet) -> np.ndarray:
    """The slot-diagonal Yukawa matrix Y on one 8N block."""
    return _blockdiag(_by_slot(y.ynu, y.ye, y.yu, y.yd))


def majorana_block(y: YukawaSet) -> np.ndarray:
    """The Majorana matrix M: Y_R on the neutrino slot, zero elsewhere."""
    return _blockdiag(_by_slot(y.yr, *[np.zeros_like(y.yr)] * 3))


def finite_dirac(y: YukawaSet, eps_f: int) -> np.ndarray:
    """The finite Dirac operator D; the statistics sign s enters only eta and J, not D."""
    Y, M = yukawa_block(y), majorana_block(y)
    return _blocks({(0, 1): -Y.conj().T, (1, 0): Y, (0, 2): eps_f * M.conj(), (2, 0): M,
                    (2, 3): -Y.T, (3, 2): Y.conj()}, Y.shape[0])


@dataclass(frozen=True)
class SMModel:
    """Yukawa data plus the derived 32N-dimensional finite triple, with read-only arrays."""

    yukawas: YukawaSet
    s: int
    eps_f: int
    triple: IndefiniteTriple
    varpi: np.ndarray

    @property
    def n_gen(self) -> int:
        return self.yukawas.n_gen

    @property
    def block_dim(self) -> int:
        return N_SLOTS * self.n_gen

    def block(self, i: int) -> slice:
        k = self.block_dim
        return slice(i * k, (i + 1) * k)


_MODELS = weakref.WeakValueDictionary()  # (s, eps_F, each Yukawa's shape and bytes) -> model


def build_sm(y: YukawaSet, s: int = -1, eps_f: int = -1) -> SMModel:
    """Assemble the finite Standard-Model triple for signs (s, eps_F).

    The Majorana block must satisfy Y_R^T = s*eps_F*Y_R; for the physical
    choice (-1, -1) it is symmetric, while s*eps_F = -1 forces it
    antisymmetric (and singular in odd generation number).

    While a caller holds a model, equal Yukawas and signs return it; its arrays are read-only.
    """
    if y.n_gen > GEN_LIMIT:  # before any 32N x 32N matrix
        raise ValueError(f"N = {y.n_gen} exceeds the generation cap GEN_LIMIT = {GEN_LIMIT}")
    if s not in (-1, 1) or eps_f not in (-1, 1):
        raise ValueError("s and eps_F must be +1 or -1")
    if float(np.abs(y.yr.T - s * eps_f * y.yr).max()) > ATOL * max(
        1.0, float(np.abs(y.yr).max())
    ):
        raise ValueError("Y_R must satisfy Y_R^T = s*eps_F*Y_R")
    y = YukawaSet(*(_read_only(m) for m in (y.ynu, y.ye, y.yu, y.yd, y.yr)))
    key = (s, eps_f) + tuple((m.shape, m.tobytes()) for m in (y.ynu, y.ye, y.yu, y.yd, y.yr))
    if (model := _MODELS.get(key)) is not None:
        return model
    ik = np.eye(N_SLOTS * y.n_gen, dtype=complex)
    eta = kron(np.diag([1, -1, s, -s]), ik)
    chi = kron(np.diag([1, -1, -1, 1]), ik)
    varpi = _read_only(kron(np.diag([1, 1, -s, -s]), ik))  # chi eta, without a dense product
    jmat = kron([[0, 0, eps_f, 0], [0, 0, 0, eps_f], [1, 0, 0, 0], [0, 1, 0, 0]], ik)

    triple = IndefiniteTriple(
        form=KreinForm(eta),
        chi=chi,
        cc=AntilinearOperator(jmat),
        dirac=finite_dirac(y, eps_f),
        algebra=sm_algebra(y.n_gen),
        sigma=0,
    )
    model = _MODELS[key] = SMModel(yukawas=y, s=s, eps_f=eps_f, triple=triple, varpi=varpi)
    return model


def higgs_one_form(model: SMModel, q_h) -> np.ndarray:
    """The one-form with blocks (L,R) = q~_H Y and (R,L) = -Y^dag q~_H^dag."""
    Y, qt = yukawa_block(model.yukawas), _lift_left(as_matrix(q_h), model.n_gen)
    return _blocks({(0, 1): -Y.conj().T @ qt.conj().T, (1, 0): qt @ Y}, Y.shape[0])


def higgs_field_strength(model: SMModel, q_h) -> np.ndarray:
    """The curvature scalar d_U H + H^2 built from universal representatives.

    H = pi(1,0,0)[D, pi(0, q_H^dag, 0)] + pi(0,1,0)[D, pi(0, -q_H, 0)], and
    the exterior derivative replaces each pi(a) with [D, pi(a)].
    """
    q_h = as_matrix(q_h)
    n = model.n_gen
    D = model.triple.dirac
    z3 = np.zeros((3, 3))
    reps = [
        (represent(1, np.zeros((2, 2)), z3, n), represent(0, q_h.conj().T, z3, n)),
        (represent(0, np.eye(2), z3, n), represent(0, -q_h, z3, n)),
    ]
    H = np.zeros_like(D)
    dH = np.zeros_like(D)
    for pa, pb in reps:
        da = D @ pa - pa @ D
        db = D @ pb - pb @ D
        H += pa @ db
        dH += da @ db
    return dH + H @ H


def yukawa_traces(y: YukawaSet):
    """(C1, C2, C3, inequality_ok) with C1^2 <= 4N(C2 + 2C3) expected."""
    mnu, me, mu, md = y.squared_masses()
    c1 = float(np.trace(mnu + me + 3 * mu + 3 * md).real)
    c2 = float(np.trace(mnu @ mnu + me @ me + 3 * mu @ mu + 3 * md @ md).real)
    c3 = float(np.trace(mnu @ me + 3 * mu @ md).real)
    n = y.n_gen
    ok = c1 ** 2 <= 4 * n * (c2 + 2 * c3) + CS_SLACK * max(1.0, c1 ** 2)
    return c1, c2, c3, ok


def higgs_projection_closed(q_h, y: YukawaSet) -> np.ndarray:
    """Closed form of the projected curvature scalar P(d_U H + H^2).

    The prefactor -(|q_H|^2 + 2 Re q_H) multiplies a traceless block
    matrix: Y^dag Y - C1/12N on the right block, the slot-averaged
    (m_nu+m_e)/2, (m_u+m_d)/2 minus C1/8N on the left block, and
    -C1/12N on the antiparticle lepton slots.
    """
    q_h = as_matrix(q_h)
    n = y.n_gen
    c1, _, _, _ = yukawa_traces(y)
    scalar = float(np.trace(q_h @ q_h.conj().T).real / 2 + np.trace(q_h).real)
    eye_n = np.eye(n)

    right = _blockdiag(_by_slot(*(Y.conj().T @ Y - c1 / (12 * n) * eye_n
                                  for Y in (y.ynu, y.ye, y.yu, y.yd))))
    mnu, me, mu, md = y.squared_masses()
    lep = 0.5 * (mnu + me) - c1 / (8 * n) * eye_n
    qrk = 0.5 * (mu + md) - c1 / (8 * n) * eye_n
    left = _blockdiag(_by_slot(lep, lep, qrk, qrk))
    bar = _slot_diag(-c1 / (12 * n), -c1 / (12 * n), 0, 0, n)
    return -scalar * _blockdiag([right, left, bar, bar])


def _corrected_trace(m, shift, n) -> float:
    """tr[(m - shift*I)^2] for hermitian m."""
    M = m - shift * np.eye(n)
    return float(np.trace(M @ M).real)


def lagrangian_coeffs(z: ZParams, y: YukawaSet) -> LagrangianCoeffs:
    """Closed-form bosonic coefficients a..e for generation-blind z.

    Each is a linear functional of (alpha..nu) with trace weights built
    from the squared masses; all five are positive for positive weights
    and nonvanishing Yukawas.
    """
    al, be, ga, de, mu_, nu_ = z.as_tuple()
    n = y.n_gen
    mnu, me, mu, md = y.squared_masses()
    c1, _, _, _ = yukawa_traces(y)

    a = (4 * n / 3) * (3 * al + 5 * be + 3 * ga + 5 * de + 3 * mu_ + nu_)
    b = 2 * n * (mu_ + 3 * nu_)
    c = 2 * n * (be + de + 2 * nu_)

    t_nu = float(np.trace(mnu).real)
    t_e = float(np.trace(me).real)
    t_u = float(np.trace(mu).real)
    t_d = float(np.trace(md).real)
    d = 4 * (
        al * t_nu + 3 * be * t_u + ga * t_e + 3 * de * t_d
        + mu_ * (t_nu + t_e) + 3 * nu_ * (t_u + t_d)
    )

    c12 = c1 / (12 * n)
    c8 = c1 / (8 * n)
    t2_nu = _corrected_trace(mnu, c12, n)
    t2_e = _corrected_trace(me, c12, n)
    t2_u = _corrected_trace(mu, c12, n)
    t2_d = _corrected_trace(md, c12, n)
    t2_lep = _corrected_trace(0.5 * (mnu + me), c8, n)
    t2_qrk = _corrected_trace(0.5 * (mu + md), c8, n)
    lep_residue = c1 ** 2 / (36 * n)
    e = (
        (4 * t2_nu + lep_residue) * al
        + 12 * t2_u * be
        + (4 * t2_e + lep_residue) * ga
        + 12 * t2_d * de
        + (8 * t2_lep + 2 * lep_residue) * mu_
        + 24 * t2_qrk * nu_
    )
    return LagrangianCoeffs(a, b, c, d, e)


def z_matrix(z: ZParams, n_gen: int) -> np.ndarray:
    """The 32N generation-blind trace weight commuting with the algebra."""
    al, be, ga, de, mu_, nu_ = z.as_tuple()
    zr = _slot_diag(al, ga, be, de, n_gen)
    zl = _slot_diag(mu_, mu_, nu_, nu_, n_gen)
    return _blockdiag([zr, zl, zr.conj(), zl.conj()])


def gauge_field_blocks(a_y, a_w, a_c, n_gen):
    """Per-block hermitian gauge values (A_R, A_L, A_bar) on 8N slots."""
    a_w = as_matrix(a_w)
    a_c = as_matrix(a_c)
    sz = np.diag([1.0, -1.0])
    a_r = a_y * _lift_left(sz, n_gen)
    a_l = _lift_left(a_w, n_gen)
    a_bar = _lift_bar(a_y, a_c - (a_y / 3.0) * np.eye(3), n_gen)
    return a_r, a_l, a_bar


def gauge_field(a_y, a_w, a_c, n_gen) -> np.ndarray:
    """The assembled anti-hermitian 32N gauge one-form value B = -iA."""
    a_r, a_l, a_bar = gauge_field_blocks(a_y, a_w, a_c, n_gen)
    return -1j * _blockdiag([a_r, a_l, a_bar, a_bar])


def gauge_coupling_matrices(a_y, a_w, a_c, n_gen):
    """Fermion coupling matrices for right and left sectors.

    right = A_R - conj(A_Rbar) and left = A_L - conj(A_Lbar); with a pure
    hypercharge value the eigenvalues are the Standard-Model hypercharges
    (0, -2, 4/3, -2/3) on the right and (-1, 1/3) on the left.
    """
    a_w = as_matrix(a_w)
    a_c = as_matrix(a_c)
    for name, m in (("a_w", a_w), ("a_c", a_c)):
        if float(np.abs(m - m.conj().T).max()) > ATOL:
            raise ValueError(f"{name} must be hermitian")
        if abs(np.trace(m)) > ATOL:
            raise ValueError(f"{name} must be traceless")
    a_r, a_l, a_bar = gauge_field_blocks(a_y, a_w, a_c, n_gen)
    return a_r - a_bar.conj(), a_l - a_bar.conj()


def higgs_coupling_matrix(model: SMModel, q_phi) -> np.ndarray:
    """The mass/Higgs coupling matrix -eta_F (D_F + H + JHJ^-1), H the one-form at q_phi - 1."""
    t = model.triple
    H = higgs_one_form(model, as_matrix(q_phi) - np.eye(2))
    return -t.form.gram @ (t.dirac + H + t.cc.conjugate(H))


def majorana_pairing(model: SMModel, psi) -> complex:
    """The bilinear psi^T M psi pairing a right block with its conjugate.

    For anticommuting fields the Majorana block is antisymmetric
    (s*eps_F = -1) and the pairing vanishes identically on ordinary
    vectors.
    """
    psi = np.asarray(psi, dtype=complex)
    M = majorana_block(model.yukawas)
    if psi.shape != (M.shape[0],):
        raise ValueError("test vector must live on one 8N block")
    return complex(psi @ M @ psi)


def lagrangian_coeffs_oracle(
    z: ZParams, y: YukawaSet, s: int = -1, eps_f: int = -1
) -> LagrangianCoeffs:
    """Coefficients extracted from the assembled 32N trace functional.

    Each coefficient is read off tr(z * term^2) with a unit test field:
    a pure hypercharge value isolates a, unit su(2)/su(3) values isolate
    b and c, a unit Higgs derivative isolates d, and e divides the trace
    of the generically projected curvature square by its scalar factor.
    """
    model = build_sm(y, s, eps_f)
    n = y.n_gen
    Z = z_matrix(z, n)
    zero2 = np.zeros((2, 2))
    zero3 = np.zeros((3, 3))

    # gauge sector: F = -i * blockdiag of the field values
    def f_square_trace(a_y, a_w, a_c):
        F = gauge_field(a_y, a_w, a_c, n)
        return float(np.trace(Z @ F @ F).real)

    a = -2.0 * f_square_trace(1.0, zero2, zero3)
    w0 = np.diag([1.0, -1.0])
    b = -2.0 * f_square_trace(0.0, w0, zero3) / float(np.trace(w0 @ w0).real)
    g0 = np.diag([1.0, -1.0, 0.0])
    c = -2.0 * f_square_trace(0.0, zero2, g0) / float(np.trace(g0 @ g0).real)

    # Higgs kinetic sector with unit covariant derivative value
    dh = higgs_one_form(model, np.eye(2))
    d = -4.0 * float(np.trace(Z @ dh @ dh).real)

    # Higgs potential via the generic projection of the curvature scalar
    q_h = np.eye(2, dtype=complex)
    scalar = float(np.trace(q_h @ q_h.conj().T).real / 2 + np.trace(q_h).real)
    X = higgs_field_strength(model, q_h)
    proj = ncforms.project_two_form(model.triple, X, varpi=model.varpi)
    e = 4.0 * float(np.trace(Z @ proj @ proj).real) / scalar ** 2
    return LagrangianCoeffs(a, b, c, d, e)


def couplings(coeffs: LagrangianCoeffs) -> Couplings:
    """Field normalizations: g_Y = 1/sqrt(4a), g_W = 1/sqrt(8b), g_C = 1/sqrt(8c),
    V0 = e/d^2, v = sqrt(d)."""
    a, b, c, d, e = coeffs.as_tuple()
    if min(a, b, c, d) <= 0:
        raise ValueError("couplings need positive a, b, c, d")
    return Couplings(
        g_y=1.0 / np.sqrt(4 * a),
        g_w=1.0 / np.sqrt(8 * b),
        g_c=1.0 / np.sqrt(8 * c),
        v0=e / d ** 2,
        v=float(np.sqrt(d)),
    )
