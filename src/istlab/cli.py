"""Command-line front end: tables, module dumps, model checks, torus scans.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 validation or usage error, 2 numerical-check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import serialize, sm, specact, verify
from .clifford import Signature, build, extract_signs, verify_relations
from .dims import (CONVENTIONS, EVEN_RESIDUES, cardinal_table, dims_from_signs,
                   half_power_sign, sign_a, signs_from_dims, spacetime_pairs)
from .ist import check_axioms, first_order, order_zero, triple_dims
from .kspace import AXIOM_TOL
from .tensor import tensor_modules

SCAN_LIMIT = 1000  # most --scan-a spacings; each one is a spectral action


def _emit(rows, header, fmt: str):
    if fmt == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows]))
        return
    if fmt == "csv":
        print(",".join(header))
        for r in rows:
            print(",".join(str(x) for x in r))
        return
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))


def _cmd_signs(args) -> int:
    if args.table == "a":
        rows = [("a(n)", *(sign_a(n) for n in EVEN_RESIDUES)),
                ("a(-n)", *(sign_a(-n) for n in EVEN_RESIDUES)),
                ("(-1)^(n/2)", *(half_power_sign(n) for n in EVEN_RESIDUES)),
                ]
        _emit(rows, ("row", "n=0", "n=2", "n=4", "n=6"), args.format)
    elif args.table == "ko-metric":
        rows = [(n, signs_from_dims(n, n).eps, signs_from_dims(n, n).eps2) for n in EVEN_RESIDUES]
        _emit(rows, ("n", "eps", "eps2"), args.format)
    elif args.table == "spacetime":
        rows = [(n, m, *map(str, sorted(spacetime_pairs(n, m))))
                for m in EVEN_RESIDUES for n in EVEN_RESIDUES]
        _emit(rows, ("n", "m", "ts_1", "ts_2"), args.format)
    else:  # cardinal
        rows = [
            (r.convention, r.m, r.n, str(r.ts), r.physical)
            for r in cardinal_table(args.q, args.p)
        ]
        _emit(rows, ("convention", "m", "n", "ts", "physical"), args.format)
    return 0


def _module_summary(module, fmt: str):
    rows = []
    for conv in CONVENTIONS:
        q = extract_signs(module, conv)
        n, m = dims_from_signs(q)
        rows.append((conv, q.eps, q.eps2, q.kap, q.kap2, n, m))
    _emit(rows, ("convention", "eps", "eps2", "kap", "kap2", "n", "m"), fmt)


def _cmd_clifford(args) -> int:
    module = build(Signature(args.q, args.p))
    violation = verify_relations(module)
    if violation > AXIOM_TOL:
        print(f"Clifford relations violated: {violation}", file=sys.stderr)
        return 2
    if args.dump:
        print(json.dumps(serialize.clifford_to_dict(module)))
    else:
        _module_summary(module, args.format)
    return 0


def _cmd_tensor(args) -> int:
    q1, p1 = args.left
    q2, p2 = args.right
    product = tensor_modules(build(Signature(q1, p1)), build(Signature(q2, p2)))
    violation = verify_relations(product)
    if violation > AXIOM_TOL:
        print(f"tensor relations violated: {violation}", file=sys.stderr)
        return 2
    _module_summary(product, args.format)
    return 0


def _cmd_ist_check(args) -> int:
    triple = serialize.load_triple(args.model)
    report = check_axioms(triple)
    rows = sorted(report.violations.items())
    _emit(rows, ("axiom", "violation"), args.format)
    if not report.ok:
        print(f"axiom failures: {report.failures()}", file=sys.stderr)
        return 2
    n, m = triple_dims(triple)
    print(f"dims: n={n} m={m}", file=sys.stderr)
    return 0


def _cmd_sm(args) -> int:
    y, s, eps_f, z = serialize.load_sm_input(args.model)
    model = sm.build_sm(y, s, eps_f)
    report = check_axioms(model.triple)
    if not report.ok:
        print(f"model fails axioms: {report.failures()}", file=sys.stderr)
        return 2
    oz, fo = order_zero(model.triple), first_order(model.triple)
    if max(oz, fo) > AXIOM_TOL:
        print(f"order conditions violated: {oz}, {fo}", file=sys.stderr)
        return 2
    if args.higgs_projection:
        q_h = sm.quaternion(*args.higgs_projection)
        proj = sm.higgs_projection_closed(q_h, y)
        print(json.dumps(serialize.encode_matrix(proj)))
        return 0
    if z is None:
        print("model file has no z block", file=sys.stderr)
        return 1
    coeffs = sm.lagrangian_coeffs(z, y)
    if args.couplings:
        c = sm.couplings(coeffs)
        _emit(
            [(c.g_y, c.g_w, c.g_c, c.v0, c.v)],
            ("gY", "gW", "gC", "V0", "v"),
            args.format,
        )
    else:
        _emit([coeffs.as_tuple()], ("a", "b", "c", "d", "e"), args.format)
    return 0


def _cmd_spectral_action(args) -> int:
    f = specact.CutoffFn(args.cutoff)
    # N = 0 must reach TorusSpec's N check instead of dividing by zero
    spec = specact.TorusSpec(args.d, args.t, args.s, args.N, args.L / (args.N or 1))
    if args.scan_a:
        lo, hi, count = args.scan_a
        if not 3 <= count <= SCAN_LIMIT:
            raise ValueError(f"--scan-a needs 3 to {SCAN_LIMIT} spacings, got {count}")
        a_values = list(np.geomspace(lo, hi, int(count)))
        slope, rows = specact.divergence_exponent(spec, a_values, f, args.lam)
        table = [(a, N, S, float(np.log(S))) for a, N, S in rows]
        _emit(table, ("a", "N", "S", "logS"), args.format)
        print(f"fitted slope: {slope}", file=sys.stderr)
        return 0
    S = specact.spectral_action(spec, f, args.lam)
    _emit([(spec.a, spec.N, S, float(np.log(S)))], ("a", "N", "S", "logS"), args.format)
    return 0


def _cmd_verify_all(args) -> int:
    results = verify.run_all(seed=args.seed, max_dim=args.max_dim)
    _emit(
        [(r.number, r.title, "pass" if r.ok else "FAIL", f"{r.elapsed:.2f}") for r in results],
        ("criterion", "title", "status", "seconds"),
        args.format,
    )
    return 0 if all(r.ok for r in results) else 2


def _signature_pair(text: str):
    try:
        q, p = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected Q,P") from exc
    return q, p


def _scan_range(text: str):
    try:
        lo, hi, count = text.split(":")
        return float(lo), float(hi), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected lo:hi:n") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="istlab",
        description="indefinite spectral triple workbench",
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (or NCG_SEED)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.set_defaults(fn=fn)
        return p

    p = add("signs", _cmd_signs, help="mod-8 sign and dimension tables")
    p.add_argument("--table", choices=("a", "ko-metric", "spacetime", "cardinal"),
                   required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--p", type=int, default=3)

    p = add("clifford", _cmd_clifford, help="build a Clifford module")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--dump", action="store_true", help="emit all matrices as JSON")

    p = add("tensor", _cmd_tensor, help="tensor two Clifford modules")
    p.add_argument("--left", type=_signature_pair, required=True, metavar="Q,P")
    p.add_argument("--right", type=_signature_pair, required=True, metavar="Q,P")

    p = add("ist-check", _cmd_ist_check, help="check a serialized triple")
    p.add_argument("--model", required=True)

    p = add("sm", _cmd_sm, help="Standard-Model computations")
    p.add_argument("--model", required=True)
    p.add_argument("--coeffs", action="store_true")
    p.add_argument("--couplings", action="store_true")
    p.add_argument("--higgs-projection", nargs=2, type=complex, metavar=("AH", "BH"))

    p = add("spectral-action", _cmd_spectral_action, help="discrete torus actions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--cutoff", choices=("gaussian", "exp"), default="gaussian")
    p.add_argument("--scan-a", type=_scan_range, metavar="LO:HI:N")

    p = add("verify-all", _cmd_verify_all, help="run the full acceptance suite")
    p.add_argument("--max-dim", type=int, default=8)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 means a failed check here
        return 1 if exc.code else 0
    try:
        if args.seed is None:
            args.seed = int(os.environ.get("NCG_SEED", "0"))
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
