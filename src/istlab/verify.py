"""The acceptance checklist, shared by the test suite and the CLI.

Each criterion is a function returning a CriterionResult; ``run_all``
executes the whole list, printing one pass/fail line per criterion to stderr.
Criterion 12 (divergence exponent) pins the continuum-estimate
exponents d-1 verbatim; see the README for why the measured lattice
scaling disagrees with them.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import ncforms, sm, specact
from .clifford import (
    MAX_DIM,
    Signature,
    build,
    cc_solution_space,
    expected_signs,
    extract_signs,
    robinson_solution_space,
    verify_relations,
)
from .dims import CONVENTIONS, cardinal_table, dims_from_signs, mod8, sign_a, spacetime_pairs
from .ist import (
    check_axioms,
    first_order,
    from_clifford_module,
    order_zero,
    triple_dims,
)
from .kspace import scalar_coefficient, snap_sign
from .tensor import tensor_ist, tensor_modules


@dataclass
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] criterion {self.number:2d}: {self.title}"
            f" ({self.elapsed:.2f}s) {self.detail}"
        )


def supported_signatures(max_dim: int = 8):
    return [(q, d - q) for d in range(2, max_dim + 1, 2) for q in range(d + 1)]


@functools.cache
def cached_module(q: int, p: int):
    return build(Signature(q, p))


def random_yukawas(rng, n: int, s: int = -1, eps_f: int = -1) -> sm.YukawaSet:
    def cm():
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    yr = cm()
    yr = 0.5 * (yr + s * eps_f * yr.T)
    return sm.YukawaSet(cm(), cm(), cm(), cm(), yr)


def random_zparams(rng) -> sm.ZParams:
    return sm.ZParams(*rng.uniform(0.1, 2.0, size=6))


# --- criterion bodies -------------------------------------------------

HIGGS_DRAWS = 100  # random (Yukawa, q_H) draws of criterion 7
ORACLE_DRAWS = 50  # trace-oracle draws of criterion 8
SHIFT_DRAWS = 50  # random torus specs of criterion 10


def criterion_sign_tables(max_dim: int = 8, **_):
    """Sign-table reproduction over all supported signatures."""
    checked = 0
    for q, p in supported_signatures(max_dim):
        module = cached_module(q, p)
        for conv in CONVENTIONS:
            if extract_signs(module, conv) != expected_signs(q, p, conv):
                return False, f"sign mismatch at (q,p)=({q},{p}) {conv}"
            checked += 1
    return True, f"{checked} (signature, convention) cells exact"


CL13_FIXTURE = {
    "gammas": [
        np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]),
        np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
        np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]),
        np.array([[0, 1j, 0, 0], [-1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]]),
    ],
    "chi": np.diag([1.0, -1.0, -1.0, 1.0]),
    "jplus": np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "gram_robinson": np.array(
        [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]]
    ),
    # hermitian convention: the anti-Robinson gram is i^q * (Robinson gram) * chi
    "gram_antirobinson": 1j
    * np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]),
}


def criterion_cl13_fixture(**_):
    """Explicit Cl(1,3) matrices, entry for entry."""
    module = cached_module(1, 3)
    pairs = [(g, f) for g, f in zip(module.gammas, CL13_FIXTURE["gammas"])]
    pairs += [
        (module.chi, CL13_FIXTURE["chi"]),
        (module.jplus.mat, CL13_FIXTURE["jplus"]),
        (module.gram_robinson.gram, CL13_FIXTURE["gram_robinson"]),
        (module.gram_antirobinson.gram, CL13_FIXTURE["gram_antirobinson"]),
    ]
    worst = max(float(np.abs(got - want).max()) for got, want in pairs)
    if worst != 0.0:
        return False, f"fixture deviation {worst}"
    # the stored conjugation must genuinely implement charge conjugation
    comm = max(
        float(np.abs(module.jplus.mat @ np.conj(g) - g @ module.jplus.mat).max())
        for g in module.gammas
    )
    return comm == 0.0, f"fixture exact, conjugation commutant defect {comm}"


def criterion_solution_spaces(max_dim: int = 8, **_):
    """Robinson and charge-conjugation solution spaces are lines."""
    for q, p in supported_signatures(max_dim):
        module = cached_module(q, p)
        rob = robinson_solution_space(module)
        if len(rob) != 1:
            return False, f"Robinson dim {len(rob)} at ({q},{p})"
        try:
            scalar_coefficient(rob[0], module.gram_robinson.gram, tol=1e-8)
        except ValueError:
            return False, f"Robinson solution not collinear with gram at ({q},{p})"
        cc = cc_solution_space(module)
        if len(cc) != 1:
            return False, f"conjugation dim {len(cc)} at ({q},{p})"
        sq = snap_sign(
            scalar_coefficient(cc[0] @ np.conj(cc[0]), np.eye(module.dim), tol=1e-8)
        )
        if sq != sign_a(q - p):
            return False, f"conjugation square {sq} != a(q-p) at ({q},{p})"
    return True, f"{len(supported_signatures(max_dim))} signatures, both spaces 1-dim"


def criterion_tensor_additivity(max_dim: int = 8, **_):
    """Dims add mod 8 for module and triple tensor products."""
    sigs = supported_signatures(max_dim - 2)
    pairs = 0
    for q1, p1 in sigs:
        for q2, p2 in sigs:
            if q1 + p1 + q2 + p2 > max_dim:
                continue
            m1, m2 = cached_module(q1, p1), cached_module(q2, p2)
            prod = tensor_modules(m1, m2)
            if verify_relations(prod) > 1e-10:
                return False, f"relations fail at ({q1},{p1})x({q2},{p2})"
            n, m = dims_from_signs(extract_signs(prod, "east"))
            if (n, m) != (mod8(q1 + q2 - p1 - p2), mod8(q1 + q2 + p1 + p2)):
                return False, f"module dims wrong at ({q1},{p1})x({q2},{p2})"
            for c1, c2 in (("east", "west"), ("south", "north")):
                t1 = from_clifford_module(m1, c1)
                t2 = from_clifford_module(m2, c2)
                n1, mm1 = triple_dims(t1)
                n2, mm2 = triple_dims(t2)
                product = tensor_ist(t1, t2)
                rep = check_axioms(product)
                if not rep.ok:
                    return False, f"axioms fail at ({q1},{p1})x({q2},{p2}) {c1}/{c2}"
                if triple_dims(product) != (mod8(n1 + n2), mod8(mm1 + mm2)):
                    return False, f"triple dims wrong at ({q1},{p1})x({q2},{p2})"
            pairs += 1
    return True, f"{pairs} ordered pairs additive"


SPACETIME_TABLE = {
    (0, 0): {(0, 0), (4, 4)}, (2, 0): {(1, 7), (5, 3)},
    (4, 0): {(2, 6), (6, 2)}, (6, 0): {(3, 5), (7, 1)},
    (0, 2): {(1, 1), (5, 5)}, (2, 2): {(2, 0), (6, 4)},
    (4, 2): {(3, 7), (7, 3)}, (6, 2): {(4, 6), (0, 2)},
    (0, 4): {(2, 2), (6, 6)}, (2, 4): {(3, 1), (7, 5)},
    (4, 4): {(4, 0), (0, 4)}, (6, 4): {(5, 7), (1, 3)},
    (0, 6): {(3, 3), (7, 7)}, (2, 6): {(4, 2), (0, 6)},
    (4, 6): {(5, 1), (1, 5)}, (6, 6): {(6, 0), (2, 4)},
}


def criterion_spacetime_tables(rng, **_):
    """All 16 space-time cells plus cardinal rows for random signatures."""
    for (n, m), want in SPACETIME_TABLE.items():
        if spacetime_pairs(n, m) != frozenset(want):
            return False, f"space-time cell (n,m)=({n},{m}) wrong"
    east, west = cardinal_table(3, 1)[:2]
    if (east.m, east.n, east.ts) != (4, 2, (3, 1)):
        return False, "east row of (3,1) wrong"
    if (west.m, west.n, west.ts) != (4, 6, (1, 3)):
        return False, "west row of (3,1) wrong"
    for _ in range(10):
        q = int(rng.integers(0, 9))
        p = int(rng.integers(0, 9))
        if (q + p) % 2:
            p += 1
        for row in cardinal_table(q, p):
            if row.ts not in spacetime_pairs(row.n, row.m):
                return False, f"cardinal row {row} inconsistent at ({q},{p})"
        east = cardinal_table(q, p)[0]
        if (east.m, east.n, east.ts) != (mod8(p + q), mod8(q - p), (mod8(q), mod8(p))):
            return False, f"east row formula wrong at ({q},{p})"
    return True, "16 cells and 10 random cardinal tables consistent"


def criterion_sm_structure(rng, **_):
    """One-form/junk/Q dimensions, definiteness, order conditions."""
    for n in (1, 3):
        model = sm.build_sm(random_yukawas(rng, n))
        oz = order_zero(model.triple)
        fo = first_order(model.triple)
        if max(oz, fo) > 1e-12:
            return False, f"order conditions violated at N={n}: {oz}, {fo}"
        if triple_dims(model.triple) != (2, 6):
            return False, f"dims not (2,6) at N={n}"
        forms = ncforms.one_forms(model.triple)
        qs = ncforms.q_space(model.triple, model.varpi)
        got = (forms.rank, qs.junk.rank, qs.forms.rank)
        if got != (8, 4, 28):
            return False, f"form dims {got} != (8, 4, 28) at N={n}"
        if not qs.definite:
            return False, f"projection Gram not definite at N={n}"
    return True, "N=1 and N=3: dims (8, 4, 28), Gram definite, orders exact"


def criterion_higgs_projection(rng, **_):
    """Closed-form Higgs projection against the generic pipeline."""
    worst = 0.0
    for _ in range(HIGGS_DRAWS):
        y = random_yukawas(rng, 1)
        model = sm.build_sm(y)
        q_h = sm.quaternion(
            rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        )
        X = sm.higgs_field_strength(model, q_h)
        generic = ncforms.project_two_form(model.triple, X, varpi=model.varpi)
        closed = sm.higgs_projection_closed(q_h, y)
        scale = max(1.0, float(np.linalg.norm(closed)))
        worst = max(worst, float(np.linalg.norm(generic - closed)) / scale)
    return worst <= 1e-9, f"{HIGGS_DRAWS} draws, worst relative error {worst:.2e}"


def criterion_lagrangian_coeffs(rng, **_):
    """Closed coefficients vs trace oracle, positivity, Cauchy-Schwarz."""
    worst = 0.0
    for i in range(ORACLE_DRAWS):
        n = 1 if i % 5 else 3  # every fifth draw runs the 96-dimensional case
        y = random_yukawas(rng, n)
        z = random_zparams(rng)
        closed = sm.lagrangian_coeffs(z, y)
        oracle = sm.lagrangian_coeffs_oracle(z, y)
        rel = max(
            abs(u - v) / max(1.0, abs(v))
            for u, v in zip(closed.as_tuple(), oracle.as_tuple())
        )
        worst = max(worst, rel)
        if worst > 1e-9:
            return False, f"oracle mismatch {rel:.2e} on draw {i} (N={n})"
        if min(closed.as_tuple()) <= 0:
            return False, f"positivity violated on draw {i} (N={n})"
    for i in range(1000):
        y = random_yukawas(rng, int(rng.integers(1, 4)))
        c1, c2, c3, ok = sm.yukawa_traces(y)
        if not ok:
            return False, f"Cauchy-Schwarz violated: C1^2={c1**2}, bound={4*y.n_gen*(c2+2*c3)}"
    return True, f"{ORACLE_DRAWS} oracle draws (worst {worst:.2e}), 1000 inequality draws"


def criterion_seesaw_majorana(rng, **_):
    """Antisymmetric Y_R rank deficit and vanishing Majorana pairing."""
    # s*eps_F = -1 with N=3: antisymmetric, rank <= 2
    y = random_yukawas(rng, 3, s=-1, eps_f=1)
    if float(np.abs(y.yr + y.yr.T).max()) > 1e-12:
        return False, "Y_R not antisymmetric for s*eps_F = -1"
    rank = int(np.linalg.matrix_rank(y.yr))
    if rank > 2 or rank % 2:
        return False, f"antisymmetric Y_R rank {rank} not even <= 2"
    model = sm.build_sm(y, s=-1, eps_f=1)
    worst = 0.0
    for _ in range(100):
        psi = rng.normal(size=24) + 1j * rng.normal(size=24)
        worst = max(worst, abs(sm.majorana_pairing(model, psi)) / (psi @ np.conj(psi)).real)
    if worst > 1e-12:
        return False, f"Majorana pairing does not vanish: {worst:.2e}"
    # contrast: eps_F = -1 keeps it alive
    y2 = random_yukawas(rng, 3, s=-1, eps_f=-1)
    model2 = sm.build_sm(y2, s=-1, eps_f=-1)
    psi = rng.normal(size=24) + 1j * rng.normal(size=24)
    alive = abs(sm.majorana_pairing(model2, psi))
    return alive > 1e-6, f"rank {rank}, pairing worst {worst:.2e}, symmetric case {alive:.2e}"


def criterion_shift_identity(rng, **_):
    """Heat-trace shift identity over a random sweep (even N)."""
    worst = 0.0
    for _ in range(SHIFT_DRAWS):
        t = int(rng.integers(0, 4))
        s = int(rng.integers(0, 4))
        if t + s == 0:
            t = 1
        N = int(rng.choice(np.arange(2, 33, 2)))
        a = float(rng.uniform(0.1, 1.0))
        theta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(theta) > 1:
            theta /= abs(theta)
        spec = specact.TorusSpec(t + s, t, s, N, a)
        worst = max(worst, specact.shift_identity_residual(spec, theta))
    return worst <= 1e-10, f"{SHIFT_DRAWS} draws, worst residual {worst:.2e}"


def criterion_heat_kernel_limit(**_):
    """Euclidean heat trace against the continuum value."""
    worst = 0.0
    for d in (1, 2):
        spec = specact.TorusSpec(d, 0, d, 512, 1.0 / 512)
        ratio = specact.heat_kernel_limit_check(spec, -1e-3)
        worst = max(worst, abs(ratio - 1.0))
    return worst <= 0.01, f"worst |ratio - 1| = {worst:.4f}"


def criterion_divergence_exponent(**_):
    """Fitted divergence exponents at the stated scan parameters.

    Asserts the continuum-estimate exponents d-1 (1.0 and 3.0).  The
    measured lattice slopes at fixed Lambda over these scans are 0.520 at
    d=2, between d-2 and d-1 and still drifting toward d-1 at smaller a,
    and 2.002 at d=4, i.e. d-2.  So this criterion records an honest
    failure; see the README and the regular test suite for the measured
    behaviour.
    """
    f = specact.CutoffFn("gaussian")
    slope2, _ = specact.divergence_exponent(
        specact.TorusSpec(2, 1, 1, 32, 1 / 32), [1 / 32, 1 / 64, 1 / 128], f, 20.0
    )
    slope4, _ = specact.divergence_exponent(
        specact.TorusSpec(4, 1, 3, 8, 1 / 8),
        [1 / 8, 1 / 16, 1 / 32],
        f,
        20.0,
        method="fourier",
    )
    ok = abs(slope2 - 1.0) <= 0.15 and abs(slope4 - 3.0) <= 0.3
    return ok, f"slopes d=2: {slope2:.3f} (want 1.0+-0.15), d=4: {slope4:.3f} (want 3.0+-0.3)"


def criterion_hypercharges(**_):
    """Hypercharge spectrum of the fermion coupling matrices."""
    for n in (1, 3):
        right, left = sm.gauge_coupling_matrices(
            1.0, np.zeros((2, 2)), np.zeros((3, 3)), n
        )
        got_r = np.sort(np.linalg.eigvalsh(right))
        want_r = np.sort(np.concatenate([
            np.full(n, 0.0), np.full(n, -2.0),
            np.full(3 * n, 4 / 3), np.full(3 * n, -2 / 3),
        ]))
        got_l = np.sort(np.linalg.eigvalsh(left))
        want_l = np.sort(np.concatenate([np.full(2 * n, -1.0), np.full(6 * n, 1 / 3)]))
        err = max(
            float(np.abs(got_r - want_r).max()), float(np.abs(got_l - want_l).max())
        )
        if err > 1e-12:
            return False, f"hypercharge spectrum off by {err} at N={n}"
        B = sm.gauge_field(1.0, np.diag([1.0, -1.0]), np.diag([1.0, -1.0, 0.0]), n)
        if abs(np.trace(B)) > 1e-12:
            return False, f"assembled gauge field not traceless at N={n}"
    return True, "right {0,-2,4/3,-2/3}, left {-1,1/3}, multiplicities exact"


CRITERIA = [
    (1, "sign-table reproduction", criterion_sign_tables, 10.0),
    (2, "explicit Cl(1,3) fixture", criterion_cl13_fixture, 1.0),
    (3, "Robinson/conjugation uniqueness", criterion_solution_spaces, 30.0),
    (4, "tensor additivity", criterion_tensor_additivity, 60.0),
    (5, "space-time tables", criterion_spacetime_tables, 10.0),
    (6, "SM structural dimensions", criterion_sm_structure, 60.0),
    (7, "Higgs projection equivalence", criterion_higgs_projection, 120.0),
    (8, "Lagrangian coefficient equivalence", criterion_lagrangian_coeffs, 300.0),
    (9, "seesaw/Majorana selection", criterion_seesaw_majorana, 30.0),
    (10, "heat-trace shift identity", criterion_shift_identity, 30.0),
    (11, "heat-kernel limit", criterion_heat_kernel_limit, 5.0),
    (12, "divergence exponent", criterion_divergence_exponent, 120.0),
    (13, "hypercharge spectrum", criterion_hypercharges, 10.0),
]


def run_criterion(number: int, seed: int = 0, max_dim: int = 8) -> CriterionResult:
    if not 4 <= max_dim <= MAX_DIM:  # below 4, criteria 1, 3 and 4 would pass over nothing
        raise ValueError(f"max_dim must be in 4...{MAX_DIM}, got {max_dim}")
    for num, title, fn, budget in CRITERIA:
        if num == number:
            rng = np.random.default_rng(seed + number)
            start = time.perf_counter()
            ok, detail = fn(rng=rng, max_dim=max_dim)
            elapsed = time.perf_counter() - start
            if elapsed > budget:
                ok = False
                detail += f" [exceeded {budget}s budget]"
            return CriterionResult(number, title, ok, detail, elapsed)
    raise ValueError(f"no criterion {number}")


def run_all(seed: int = 0, max_dim: int = 8) -> list:
    results = []
    for num, *_ in CRITERIA:
        res = run_criterion(num, seed=seed, max_dim=max_dim)
        print(res.line(), file=sys.stderr)
        results.append(res)
    return results
