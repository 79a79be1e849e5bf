"""The benchmark's four workloads: seeded inputs, fixed op lists and gates.

Each workload is a list of ops.  An op calls istlab's public API, checks
the result against a reference with the tolerance the acceptance
criteria (``istlab.verify``) or ``tests/test_specact.py`` use, and returns
the outputs that later passes must reproduce bit for bit.  A miss raises
``GateError``; the caller counts it as a failed op and carries on.

References are independent of the code under test wherever that is
cheap: the sign table and a(n) are restated here, and torus actions are
checked against an exact multiset sum computed here.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from istlab import clifford, dims, ist, kspace, ncforms, serialize, sm, specact, tensor

ROOT = Path(__file__).resolve().parent.parent
CONVENTIONS = ("east", "west", "south", "north")

# tolerances, as in istlab.verify and tests/test_specact.py
COEFF_RTOL = 1e-9        # criterion 8: closed vs oracle coefficients
PROJ_RTOL = 1e-9         # criterion 7: closed vs generic Higgs projection
RELATION_TOL = 1e-10     # criteria 3/4: Clifford relations
COLLINEAR_TOL = 1e-8     # criterion 3: solution spaces
SHIFT_TOL = 1e-10        # criterion 10: heat-trace shift identity
GRID_RTOL = 1e-9         # grid vs exact oracle (test_specact)
FOURIER_RTOL = 1e-6      # Fourier vs grid (test_specact)
LOCKED_ACTION = 41399.44975  # (d,t,s,N) = (4,1,3,32), L = 1, Lambda = 20
LOCKED_ACTION_ATOL = 5e-6    # half a unit in its last printed digit
SLOPE_D2 = (0.3, 0.8)        # locked measured slope, d = 2
SLOPE_D4 = (2.0, 0.15)       # locked measured slope, d = 4: centre, half-width
LAMBDA = 20.0
CHILD_TIMEOUT_S = 120


class GateError(Exception):
    """An op's output missed its reference."""


def gate(ok: bool, message: str):
    if not ok:
        raise GateError(message)


@dataclass
class Op:
    kind: str
    label: str
    fn: Callable[[], list]


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list
    min_passes: int = 2
    children: "Children" = None


# --- references restated from the paper's tables ------------------------


def sign_a(n: int) -> int:
    """a(n) = (-1)^(n(n+2)/8) on even n."""
    return -1 if (n * (n + 2) // 8) % 2 else 1


def expected_signs(q: int, p: int, convention: str) -> tuple:
    """(eps, eps2, kap, kap2) of Cl(q, p) from the sign table."""
    eps = sign_a(q - p) if convention in ("east", "south") else sign_a(p - q)
    kap = sign_a(p + q) if convention in ("east", "west") else sign_a(-(p + q))
    eps2 = -1 if ((p - q) // 2) % 2 else 1
    kap2 = eps2 if q % 2 == 0 else -eps2
    return eps, eps2, kap, kap2


def signatures(d: int) -> list:
    return [(q, d - q) for q in range(d + 1) if q % 2 == (d - q) % 2]


def exact_action(d: int, t: int, s: int, N: int, L: float, lam_cut: float) -> float:
    """Tr exp(-(Delta/Lambda^2)^2) summed over multisets of circle modes.

    The circle spectrum (2 cos(2 pi k/N) - 2)/a^2 takes N//2 + 1 distinct
    values, and within each same-sign group of circles only the multiset
    of modes matters, so the N^d-term sum shrinks to a few 10^5 weighted
    terms.  Independent of istlab's grid and Fourier paths.
    """
    a = L / N
    k = np.arange(N // 2 + 1)
    lam = (2.0 * np.cos(2.0 * np.pi * k / N) - 2.0) / a ** 2
    mult = np.full(k.size, 2)
    mult[0] = 1
    if N % 2 == 0:
        mult[-1] = 1

    def group(count):
        values, weights = [0.0], [1]
        if count:
            values, weights = [], []
            for combo in itertools.combinations_with_replacement(range(k.size), count):
                weight = math.factorial(count)
                for idx, c in Counter(combo).items():
                    weight = weight // math.factorial(c) * int(mult[idx]) ** c
                values.append(float(lam[list(combo)].sum()))
                weights.append(weight)
        return np.array(values), np.array(weights, dtype=float)

    plus, w_plus = group(t)
    minus, w_minus = group(s)
    u = np.subtract.outer(plus, minus) / lam_cut ** 2
    return float(np.einsum("i,ij,j->", w_plus, np.exp(-(u ** 2)), w_minus))


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


# --- sm-draws -----------------------------------------------------------


def _complex_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_yukawas(rng, n: int) -> sm.YukawaSet:
    """Yukawas for (s, eps_F) = (-1, -1): Y_R symmetric."""
    yr = _complex_matrix(rng, n)
    yr = 0.5 * (yr + yr.T)
    return sm.YukawaSet(*(_complex_matrix(rng, n) for _ in range(4)), yr)


def random_zparams(rng) -> sm.ZParams:
    return sm.ZParams(*rng.uniform(0.1, 2.0, size=6))


def random_quaternion_args(rng) -> tuple:
    return tuple(complex(rng.normal(), rng.normal()) for _ in range(2))


def sm_draw_op(y, z, q_args) -> Op:
    """build_sm + axioms, closed vs oracle coefficients, Higgs projection on N=1."""
    n = y.n_gen

    def run():
        model = sm.build_sm(y)
        report = ist.check_axioms(model.triple)
        gate(report.ok, f"axioms fail: {report.failures()}")
        closed = sm.lagrangian_coeffs(z, y).as_tuple()
        oracle = sm.lagrangian_coeffs_oracle(z, y).as_tuple()
        worst = max(rel_err(u, v) for u, v in zip(closed, oracle))
        gate(worst <= COEFF_RTOL, f"oracle mismatch {worst:.2e}")
        gate(min(closed) > 0, f"positivity violated: {closed}")
        out = [closed, oracle]
        if q_args is not None:
            q_h = sm.quaternion(*q_args)
            X = sm.higgs_field_strength(model, q_h)
            generic = ncforms.project_two_form(model.triple, X, varpi=model.varpi)
            closed_proj = sm.higgs_projection_closed(q_h, y)
            scale = max(1.0, float(np.linalg.norm(closed_proj)))
            err = float(np.linalg.norm(generic - closed_proj)) / scale
            gate(err <= PROJ_RTOL, f"projection mismatch {err:.2e}")
            out += [generic, closed_proj]
        return out

    return Op(f"n{n}", f"draw N={n}", run)


def sm_draws(rng, workdir, draws: int = 10) -> Workload:
    """Draws as in criterion 8: every fifth draw has N=3, the rest N=1."""
    ops = []
    for i in range(draws):
        n = 3 if i % 5 == 0 else 1
        y, z = random_yukawas(rng, n), random_zparams(rng)
        q_args = random_quaternion_args(rng) if n == 1 else None
        ops.append(sm_draw_op(y, z, q_args))
    warm_rng = np.random.default_rng([0, 1])
    warmup = [
        sm_draw_op(random_yukawas(warm_rng, 1), random_zparams(warm_rng),
                   random_quaternion_args(warm_rng)),
        sm_draw_op(random_yukawas(warm_rng, 3), random_zparams(warm_rng), None),
    ]
    # 5 passes give 10 N=3 draws, so the 11 slowest ops whose median is op_tail_ms
    # are N=3 draws but for one
    return Workload("sm-draws", ops, warmup, min_passes=5)


# --- clifford-sweep -----------------------------------------------------


def signature_op(q: int, p: int, oracles: bool) -> Op:
    """build, relations, signs in all four conventions; SVD oracles if asked."""

    def run():
        module = clifford.build(clifford.Signature(q, p))
        worst = clifford.verify_relations(module)
        gate(worst <= RELATION_TOL, f"relations violated by {worst:.2e}")
        signs = []
        for conv in CONVENTIONS:
            got = clifford.extract_signs(module, conv)
            got = (got.eps, got.eps2, got.kap, got.kap2)
            want = expected_signs(q, p, conv)
            gate(got == want, f"{conv} signs {got} != {want}")
            signs.append(got)
        out = [worst, signs]
        if oracles:
            rob = clifford.robinson_solution_space(module)
            gate(len(rob) == 1, f"Robinson dim {len(rob)}")
            kspace.scalar_coefficient(rob[0], module.gram_robinson.gram, tol=COLLINEAR_TOL)
            cc = clifford.cc_solution_space(module)
            gate(len(cc) == 1, f"conjugation dim {len(cc)}")
            square = kspace.snap_sign(kspace.scalar_coefficient(
                cc[0] @ np.conj(cc[0]), np.eye(module.dim), tol=COLLINEAR_TOL))
            gate(square == sign_a(q - p), f"conjugation square {square} != a(q-p)")
            out += [rob[0], cc[0]]
        return out

    kind = "sig-oracle" if oracles else "sig-build"
    return Op(kind, f"Cl({q},{p})", run)


def tensor_pair_op(left: tuple, right: tuple) -> Op:
    """Criterion 4 for one ordered pair: module and triple products add mod 8."""
    (q1, p1), (q2, p2) = left, right

    def run():
        m1 = clifford.build(clifford.Signature(q1, p1))
        m2 = clifford.build(clifford.Signature(q2, p2))
        prod = tensor.tensor_modules(m1, m2)
        worst = clifford.verify_relations(prod)
        gate(worst <= RELATION_TOL, f"product relations violated by {worst:.2e}")
        got = dims.dims_from_signs(clifford.extract_signs(prod, "east"))
        want = ((q1 + q2 - p1 - p2) % 8, (q1 + q2 + p1 + p2) % 8)
        gate(tuple(got) == want, f"module dims {got} != {want}")
        out = [got]
        for c1, c2 in (("east", "west"), ("south", "north")):
            t1 = ist.from_clifford_module(m1, c1)
            t2 = ist.from_clifford_module(m2, c2)
            n1, mm1 = ist.triple_dims(t1)
            n2, mm2 = ist.triple_dims(t2)
            product = tensor.tensor_ist(t1, t2)
            gate(ist.check_axioms(product).ok, f"product axioms fail ({c1}/{c2})")
            got = ist.triple_dims(product)
            want = ((n1 + n2) % 8, (mm1 + mm2) % 8)
            gate(tuple(got) == want, f"triple dims {got} != {want} ({c1}/{c2})")
            out.append(got)
        return out

    return Op("tensor", f"Cl({q1},{p1})xCl({q2},{p2})", run)


def clifford_sweep(rng, workdir) -> Workload:
    ops = [signature_op(q, p, True) for d in (2, 4, 6, 8) for q, p in signatures(d)]
    small = [sig for d in (2, 4, 6) for sig in signatures(d)]
    ops += [tensor_pair_op(a, b) for a in small for b in small if sum(a) + sum(b) <= 8]
    ops += [signature_op(q, p, False) for d in (10, 12) for q, p in signatures(d)]
    order = rng.permutation(len(ops))
    warmup = [signature_op(4, 4, True), tensor_pair_op((1, 1), (0, 2)),
              signature_op(6, 6, False)]
    # three passes give run_s a median of three; the 11 slowest ops, whose median
    # is op_tail_ms, are d=8 oracles
    return Workload("clifford-sweep", [ops[i] for i in order], warmup, min_passes=3)


# --- torus-action -------------------------------------------------------


def action_op(d, t, s, N, method, want, rtol, locked=None) -> Op:
    spec = specact.TorusSpec(d, t, s, N, 1.0 / N)

    def run():
        S = specact.spectral_action(spec, specact.CutoffFn("gaussian"), LAMBDA, method)
        err = abs(S - want) / abs(want)
        gate(err <= rtol, f"action {S!r} vs reference {want!r}: {err:.2e}")
        if locked is not None:
            gate(abs(S - locked) <= LOCKED_ACTION_ATOL, f"action {S!r} != {locked}")
        return [S]

    return Op(method, f"{method} ({d},{t},{s},{N})", run)


def scan_op(d, t, s, N, a_values, method, check_slope) -> Op:
    """Divergence scan at fixed L = 1: rows against the exact sum, locked slope."""
    refs = [exact_action(d, t, s, round(1 / a), 1.0, LAMBDA) for a in sorted(a_values)]
    rtol = GRID_RTOL if method == "auto" else FOURIER_RTOL

    def run():
        base = specact.TorusSpec(d, t, s, N, 1.0 / N)
        slope, rows = specact.divergence_exponent(
            base, a_values, specact.CutoffFn("gaussian"), LAMBDA, method=method)
        gate(len(rows) == len(refs), f"{len(rows)} rows")
        for (a, n_pts, S), want in zip(rows, refs):
            gate(n_pts == round(1 / a), f"row N={n_pts} at a={a}")
            gate(abs(S - want) <= rtol * abs(want), f"row S={S!r} vs {want!r}")
        check_slope(slope)
        return [slope, rows]

    return Op("scan", f"scan d={d}", run)


def _slope_d2(slope):
    lo, hi = SLOPE_D2
    gate(lo <= slope <= hi, f"d=2 slope {slope:.3f} outside [{lo}, {hi}]")


def _slope_d4(slope):
    centre, width = SLOPE_D4
    gate(abs(slope - centre) <= width, f"d=4 slope {slope:.3f} outside {centre}+-{width}")


def shift_sweep_op(rng, draws: int = 50) -> Op:
    """Criterion 10: the heat-trace shift identity on random even tori."""
    specs = []
    for _ in range(draws):
        t, s = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        if t + s == 0:
            t = 1
        N = int(rng.choice(np.arange(2, 33, 2)))
        theta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(theta) > 1:
            theta /= abs(theta)
        specs.append((specact.TorusSpec(t + s, t, s, N, float(rng.uniform(0.1, 1.0))), theta))

    def run():
        residuals = [specact.shift_identity_residual(spec, theta) for spec, theta in specs]
        gate(max(residuals) <= SHIFT_TOL, f"shift residual {max(residuals):.2e}")
        return [residuals]

    return Op("shift", f"shift sweep x{draws}", run)


def torus_action(rng, workdir) -> Workload:
    ops = []
    for N in (32, 40, 48, 56):
        locked = LOCKED_ACTION if N == 32 else None
        ops.append(action_op(4, 1, 3, N, "grid", exact_action(4, 1, 3, N, 1.0, LAMBDA),
                             GRID_RTOL, locked))
    ops.append(action_op(2, 1, 1, 1024, "grid", exact_action(2, 1, 1, 1024, 1.0, LAMBDA),
                         GRID_RTOL))
    ops.append(action_op(4, 1, 3, 32, "fourier", LOCKED_ACTION, FOURIER_RTOL))
    ops.append(action_op(3, 1, 2, 128, "fourier", exact_action(3, 1, 2, 128, 1.0, LAMBDA),
                         FOURIER_RTOL))
    ops.append(scan_op(2, 1, 1, 32, [1 / 32, 1 / 64, 1 / 128], "auto", _slope_d2))
    ops.append(scan_op(4, 1, 3, 8, [1 / 8, 1 / 16, 1 / 32], "fourier", _slope_d4))
    ops.append(shift_sweep_op(rng))
    order = rng.permutation(len(ops))
    warmup = [
        action_op(2, 1, 1, 16, "grid", exact_action(2, 1, 1, 16, 1.0, LAMBDA), GRID_RTOL),
        action_op(2, 1, 1, 16, "fourier", exact_action(2, 1, 1, 16, 1.0, LAMBDA),
                  FOURIER_RTOL),
        scan_op(2, 1, 1, 32, [1 / 32, 1 / 64, 1 / 128], "auto", _slope_d2),
        shift_sweep_op(np.random.default_rng([0, 2]), draws=2),
    ]
    # The (3,1,2,128) Fourier op is memory-bound, and the host's memory bandwidth
    # drifts on a 20-30 s scale; 15 passes (about 40 s) average over that drift and
    # make the 11 slowest ops, whose median is op_tail_ms, Fourier ops
    return Workload("torus-action", [ops[i] for i in order], warmup, min_passes=15)


# --- cli-cold -----------------------------------------------------------


@dataclass
class Children:
    """Runs CLI commands one at a time in fresh interpreters.

    With ``traced`` set, each child starts through ``launch.py``, which
    installs the span wrappers and writes its spans to a file in ``workdir``.
    """

    workdir: Path
    traced: bool = False
    peak_rss_kb: int = 0
    bytes_out: int = 0
    records: list = field(default_factory=list)

    def run(self, command: str, argv: list) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        if not self.traced:
            cmd = [sys.executable, "-m", "istlab.cli", *argv]
        else:
            spans_file = self.workdir / f"{len(self.records)}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("launch.py")),
                   str(spans_file), *argv]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)  # also returns the child's rusage
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        stdout = out_path.read_bytes()
        self.bytes_out += len(stdout)
        if self.traced:
            self.records.append((command, spans_file))
        return subprocess.CompletedProcess(cmd, proc.returncode, stdout.decode(),
                                           err_path.read_text())


def cli_op(children: Children, command: str, argv: list, check: Callable) -> Op:
    def run():
        res = children.run(command, argv)
        gate(res.returncode == 0, f"exit {res.returncode}: {res.stderr.strip()[-300:]}")
        return check(res)

    return Op(command, command, run)


def _same_rows(want):
    def check(res):
        got = json.loads(res.stdout)
        gate(got == want, f"output {str(got)[:200]} != reference {str(want)[:200]}")
        return [json.dumps(got, sort_keys=True)]

    return check


def _close_rows(want: dict, rtol: float = 1e-12):
    def check(res):
        (got,) = json.loads(res.stdout)
        gate(set(got) == set(want), f"columns {sorted(got)}")
        for key, value in want.items():
            gate(rel_err(got[key], value) <= rtol, f"{key}={got[key]!r} vs {value!r}")
        return [json.dumps(got, sort_keys=True)]

    return check


def _module_rows(module) -> list:
    rows = []
    for conv in CONVENTIONS:
        q = clifford.extract_signs(module, conv)
        n, m = dims.dims_from_signs(q)
        rows.append(dict(zip(("convention", "eps", "eps2", "kap", "kap2", "n", "m"),
                             (conv, q.eps, q.eps2, q.kap, q.kap2, n, m))))
    return rows


def cli_cold(rng, workdir) -> Workload:
    """The README commands, each in a fresh ``python -m istlab.cli``."""
    children = Children(workdir)
    y3, z3 = random_yukawas(rng, 3), random_zparams(rng)
    y1 = random_yukawas(rng, 1)
    q_args = random_quaternion_args(rng)
    sm3, sm1, triple_path = workdir / "sm_n3.json", workdir / "sm_n1.json", workdir / "triple.json"
    serialize.dump_sm_input(str(sm3), y3, -1, -1, z3)
    serialize.dump_sm_input(str(sm1), y1, -1, -1)
    triple = ist.from_clifford_module(clifford.build(clifford.Signature(1, 3)), "south")
    triple_path.write_text(json.dumps(serialize.triple_to_dict(triple)))

    # in-process references
    a_rows = [
        {"row": "a(n)", **{f"n={n}": sign_a(n) for n in (0, 2, 4, 6)}},
        {"row": "a(-n)", **{f"n={n}": sign_a(-n) for n in (0, 2, 4, 6)}},
        {"row": "(-1)^(n/2)", **{f"n={n}": (-1) ** (n // 2) for n in (0, 2, 4, 6)}},
    ]
    cl13_rows = _module_rows(clifford.build(clifford.Signature(1, 3)))
    dump = serialize.clifford_to_dict(clifford.build(clifford.Signature(6, 6)))
    tensor_rows = _module_rows(tensor.tensor_modules(
        clifford.build(clifford.Signature(1, 1)), clifford.build(clifford.Signature(0, 2))))
    axioms = ist.check_axioms(serialize.load_triple(str(triple_path)))
    coeffs = sm.lagrangian_coeffs(z3, y3)
    c = sm.couplings(coeffs)
    couplings = dict(zip(("gY", "gW", "gC", "V0", "v"), (c.g_y, c.g_w, c.g_c, c.v0, c.v)))
    projection = sm.higgs_projection_closed(sm.quaternion(*q_args), y1)
    plain = exact_action(2, 1, 1, 64, 1.0, LAMBDA)
    scan_refs = {N: exact_action(2, 1, 1, N, 1.0, LAMBDA) for N in (32, 64, 128)}

    def check_dump(res):
        got = json.loads(res.stdout)
        gate(got == dump, "clifford --dump differs from clifford_to_dict")
        return [res.stdout]

    def check_ist(res):
        got = {row["axiom"]: row["violation"] for row in json.loads(res.stdout)}
        gate(set(got) == set(axioms.violations), f"axioms {sorted(got)}")
        for key, value in axioms.violations.items():
            gate(abs(got[key] - value) <= 1e-12, f"{key}: {got[key]} vs {value}")
        gate("dims: n=6 m=4" in res.stderr, f"dims line missing: {res.stderr.strip()}")
        return [json.dumps(got, sort_keys=True)]

    def check_projection(res):
        got = serialize.decode_matrix(json.loads(res.stdout))
        err = float(np.abs(got - projection).max()) / max(1.0, float(np.abs(projection).max()))
        gate(err <= 1e-12, f"projection differs by {err:.2e}")
        return [got]

    def check_plain(res):
        (row,) = json.loads(res.stdout)
        gate(row["N"] == 64 and abs(row["S"] - plain) <= GRID_RTOL * plain,
             f"S={row['S']!r} vs {plain!r}")
        return [row["S"]]

    def check_scan(res):
        rows = json.loads(res.stdout)
        gate(sorted(r["N"] for r in rows) == [32, 64, 128], f"scan rows {rows}")
        for r in rows:
            want = scan_refs[r["N"]]
            gate(abs(r["S"] - want) <= GRID_RTOL * want, f"S={r['S']!r} vs {want!r}")
        slope = float(res.stderr.split("fitted slope:")[1].split()[0])
        _slope_d2(slope)
        return [[r["S"] for r in rows], slope]

    torus = ["--d", "2", "--t", "1", "--s", "1", "--N", "64", "--L", "1", "--lambda", "20"]
    j = ["--format", "json"]
    ops = [
        cli_op(children, "signs", ["signs", "--table", "a", *j], _same_rows(a_rows)),
        cli_op(children, "clifford", ["clifford", "--q", "1", "--p", "3", *j],
               _same_rows(cl13_rows)),
        cli_op(children, "clifford-dump", ["clifford", "--q", "6", "--p", "6", "--dump"],
               check_dump),
        cli_op(children, "tensor", ["tensor", "--left", "1,1", "--right", "0,2", *j],
               _same_rows(tensor_rows)),
        cli_op(children, "ist-check", ["ist-check", "--model", str(triple_path), *j],
               check_ist),
        cli_op(children, "sm-coeffs", ["sm", "--model", str(sm3), "--coeffs", *j],
               _close_rows(dict(zip("abcde", coeffs.as_tuple())))),
        cli_op(children, "sm-couplings", ["sm", "--model", str(sm3), "--couplings", *j],
               _close_rows(couplings)),
        cli_op(children, "sm-higgs-projection",
               ["sm", "--model", str(sm1), "--higgs-projection", *(str(v) for v in q_args)],
               check_projection),
        cli_op(children, "spectral-action", ["spectral-action", *torus, *j], check_plain),
        cli_op(children, "spectral-action-scan",
               ["spectral-action", *torus, "--scan-a", "0.0078125:0.03125:3", *j], check_scan),
    ]
    # one child warms the interpreter, bytecode and page caches every command shares
    # 5 passes make the 11 slowest ops, whose median is op_tail_ms, the ten N=3 sm
    # commands and one more
    return Workload("cli-cold", ops, ops[:1], min_passes=5, children=children)


WORKLOADS = {
    "sm-draws": sm_draws,
    "clifford-sweep": clifford_sweep,
    "torus-action": torus_action,
    "cli-cold": cli_cold,
}


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs and references, then run its warm-up ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](np.random.default_rng(seed), workdir)
    for op in workload.warmup:
        op.fn()
    if workload.children is not None:
        workload.children.peak_rss_kb = 0
        workload.children.bytes_out = 0
    return workload

