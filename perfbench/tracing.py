"""Spans around istlab's public functions, installed from outside the package.

``Tracer.install`` replaces every public function and method defined in an
istlab layer module with a wrapper that records a span (name, start, end,
parent span, op id), under every name any istlab module binds it to.
``uninstall`` puts the originals back.  ``layer_metrics`` turns one
pass's spans into the per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("dims", "kspace", "clifford", "tensor", "ist", "ncforms", "sm", "specact",
          "serialize", "cli")
# every istlab module that may bind a layer function under its own name
BINDERS = ("istlab",) + tuple(f"istlab.{m}" for m in LAYERS + ("verify",))
# spans whose arguments the derived metrics need (kept only while tracing)
KEEP_ARGS = ("ncforms.junk_two_forms", "sm.sm_algebra", "sm.lagrangian_coeffs_oracle",
             "clifford.robinson_solution_space", "clifford.cc_solution_space",
             "specact.spectral_action")

# the cli-cold workload's commands, one cli.<command>.ms metric each
CLI_COMMANDS = ("signs", "clifford", "clifford-dump", "tensor", "ist-check", "sm-coeffs",
                "sm-couplings", "sm-higgs-projection", "spectral-action", "spectral-action-scan")

# (metric, unit, better, end-to-end metrics it should move, workload (little effect on))
LAYER_METRICS = [
    ("ncforms.one_forms.busy_s", "s", "lower", "run_s, op_tail_ms", "sm-draws (clifford-sweep, torus-action)"),
    ("ncforms.junk_two_forms.busy_s", "s", "lower", "run_s, op_tail_ms", "sm-draws (clifford-sweep, torus-action)"),
    ("ncforms.q_space.busy_s", "s", "lower", "run_s, op_tail_ms", "sm-draws (clifford-sweep, torus-action)"),
    ("ncforms.project_two_form.busy_s", "s", "lower", "run_s, op_tail_ms", "sm-draws (clifford-sweep, torus-action)"),
    ("ncforms.FormSpace.from_matrices.calls", "count", "lower", "run_s, op_tail_ms", "sm-draws (clifford-sweep, torus-action)"),
    ("ncforms.FormSpace.from_matrices.busy_s", "s", "lower", "run_s, op_tail_ms", "sm-draws (clifford-sweep, torus-action)"),
    ("ncforms.pairs.nonzero_frac", "1", "higher", "run_s, op_tail_ms", "sm-draws (clifford-sweep, torus-action)"),
    ("ist.check_axioms.calls", "count", "lower", "run_s, op_p50_ms", "sm-draws; clifford-sweep through triple_dims"),
    ("ist.check_axioms.busy_s", "s", "lower", "run_s, op_p50_ms", "sm-draws; clifford-sweep through triple_dims"),
    ("ist.check_axioms.calls_per_op", "count/op", "lower", "run_s, op_p50_ms", "sm-draws; clifford-sweep through triple_dims"),
    ("ist.FiniteAlgebra.closure_violation.busy_s", "s", "lower", "run_s, op_p50_ms", "sm-draws; clifford-sweep through triple_dims"),
    ("ist.order_zero.busy_s", "s", "lower", "run_s", "cli-cold (sm-draws)"),
    ("ist.first_order.busy_s", "s", "lower", "run_s", "cli-cold (sm-draws)"),
    ("sm.build_sm.calls", "count", "lower", "op_p50_ms, op_tail_ms", "sm-draws (cli-cold: one build per process)"),
    ("sm.sm_algebra.busy_s", "s", "lower", "op_p50_ms, op_tail_ms", "sm-draws (cli-cold: one build per process)"),
    ("sm.sm_algebra.repeat_ratio", "1", "lower", "op_p50_ms, op_tail_ms", "sm-draws (cli-cold: one build per process)"),
    ("sm.lagrangian_coeffs_oracle.n1.p50_ms", "ms", "lower", "op_p50_ms, op_tail_ms", "sm-draws (cli-cold: one build per process)"),
    ("sm.lagrangian_coeffs_oracle.n3.p50_ms", "ms", "lower", "op_p50_ms, op_tail_ms", "sm-draws (cli-cold: one build per process)"),
    ("sm.higgs_field_strength.busy_s", "s", "lower", "op_p50_ms, op_tail_ms", "sm-draws (cli-cold: one build per process)"),
    ("kspace.busy_s", "s", "lower", "op_p50_ms", "sm-draws, clifford-sweep"),
    ("kspace.real_bilinear_project.busy_s", "s", "lower", "op_p50_ms", "sm-draws, clifford-sweep"),
    ("kspace.KreinForm.adjoint.calls", "count", "lower", "op_p50_ms", "sm-draws, clifford-sweep"),
    ("kspace.antilinear_adjoint.calls", "count", "lower", "op_p50_ms", "sm-draws, clifford-sweep"),
    ("clifford.robinson_solution_space.busy_s", "s", "lower", "run_s, op_tail_ms", "clifford-sweep (all others)"),
    ("clifford.cc_solution_space.busy_s", "s", "lower", "run_s, op_tail_ms", "clifford-sweep (all others)"),
    ("clifford.solution_space.d8.p50_ms", "ms", "lower", "run_s, op_tail_ms", "clifford-sweep (all others)"),
    ("clifford.build.calls", "count", "lower", "op_p50_ms", "clifford-sweep, cli-cold (sm-draws)"),
    ("clifford.build.busy_s", "s", "lower", "op_p50_ms", "clifford-sweep, cli-cold (sm-draws)"),
    ("clifford.extract_signs.busy_s", "s", "lower", "op_p50_ms", "clifford-sweep, cli-cold (sm-draws)"),
    ("clifford.verify_relations.busy_s", "s", "lower", "op_p50_ms", "clifford-sweep, cli-cold (sm-draws)"),
    ("tensor.tensor_modules.busy_s", "s", "lower", "op_p50_ms", "clifford-sweep, cli-cold (sm-draws)"),
    ("tensor.tensor_ist.busy_s", "s", "lower", "op_p50_ms", "clifford-sweep, cli-cold (sm-draws)"),
    ("dims.busy_s", "s", "lower", "op_p50_ms", "clifford-sweep, cli-cold (sm-draws)"),
    ("specact.spectral_action.grid.busy_s", "s", "lower", "run_s, peak_rss_mb", "torus-action (all others)"),
    ("specact.grid.points", "count", "lower", "run_s, peak_rss_mb", "torus-action (all others)"),
    ("specact.spectral_action.fourier.busy_s", "s", "lower", "run_s, peak_rss_mb", "torus-action (all others)"),
    ("specact.fourier.nodes", "count", "lower", "run_s, peak_rss_mb", "torus-action (all others)"),
    ("specact.fourier.bytes", "B", "lower", "run_s, peak_rss_mb", "torus-action (all others)"),
    ("specact.divergence_exponent.busy_s", "s", "lower", "run_s, peak_rss_mb", "torus-action (all others)"),
    ("serialize.busy_s", "s", "lower", "run_s, setup_s", "cli-cold (in-process workloads)"),
    ("serialize.bytes_out", "B", "lower", "run_s, setup_s", "cli-cold (in-process workloads)"),
    ("cli.import_ms", "ms", "lower", "run_s, setup_s", "cli-cold (in-process workloads)"),
] + [
    (f"cli.{command}.ms", "ms", "lower", "run_s, setup_s", "cli-cold (in-process workloads)")
    for command in CLI_COMMANDS
] + [
    ("trace.overhead_s", "s", "lower", "none; tracing cost only", "all"),
]

# metrics that must repeat exactly from pass to pass of one op list
EXACT = tuple(m for m, *_ in LAYER_METRICS if m.endswith((".calls", ".calls_per_op"))) + (
    "specact.fourier.nodes", "specact.fourier.bytes", "specact.grid.points",
    "ncforms.pairs.nonzero_frac", "sm.sm_algebra.repeat_ratio", "serialize.bytes_out")


class Tracer:
    """In-memory span recorder; spans are tuples
    (name, start, end, parent index, op id, kept arguments)."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self
        signature = inspect.signature(fn) if name in KEEP_ARGS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                kept = signature and signature.bind(*args, **kwargs).arguments
                tracer.spans[index] = (name, start, end, parent, tracer.op_id, kept)

        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in BINDERS]
        layer_of = {f"istlab.{m}": m for m in LAYERS}
        wrappers = {}

        def wrapper_for(fn, name):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(name, fn)
            return wrappers[fn]

        def replace(owner, attr, new):
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for module in modules:
            for attr, value in list(vars(module).items()):
                layer = layer_of.get(getattr(value, "__module__", None))
                if layer is None or attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and not value.__name__.startswith("_"):
                    replace(module, attr, wrapper_for(value, f"{layer}.{value.__qualname__}"))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, raw in list(vars(value).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{layer}.{value.__qualname__}.{meth}"
                        if inspect.isfunction(raw):
                            replace(value, meth, wrapper_for(raw, name))
                        elif isinstance(raw, (classmethod, staticmethod)):
                            replace(value, meth, type(raw)(wrapper_for(raw.__func__, name)))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> list:
    """Span duration minus the time its child spans cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _median(values):
    return statistics.median(values) if values else 0.0


def _fourier_nodes(spec, lam_cut) -> int:
    """Quadrature size of specact's Fourier path, from its sizing rule."""
    import numpy as np

    K = 2.0 * np.sqrt(np.log(10.0) * (16 + spec.d * np.log10(spec.N)))
    top = 3.0 if spec.N == 2 else 2.0 - 2.0 * np.cos(2.0 * np.pi * (spec.N // 2) / spec.N)
    omega = spec.d * top / spec.a ** 2 / lam_cut ** 2
    n = int(max(4001, 40 * K * max(1.0, omega)))
    return n + 1 if n % 2 == 0 else n


def _nonzero_coords(triple) -> tuple:
    """(not identically zero, all) realified coordinates of the one-form pairs."""
    import numpy as np

    D = triple.dirac
    scale = max(1.0, float(np.abs(D).max()))
    comms = [D @ b - b @ D for b in triple.algebra.basis]
    comms = [c for c in comms if float(np.abs(c).max()) > 1e-13 * scale]
    real_used = np.zeros(D.shape, dtype=bool)
    imag_used = np.zeros(D.shape, dtype=bool)
    for a in triple.algebra.basis:
        for c in comms:
            prod = a @ c
            real_used |= prod.real != 0
            imag_used |= prod.imag != 0
    return int(real_used.sum() + imag_used.sum()), 2 * D.size


def facts(name: str, kept: dict) -> dict:
    """The few numbers the derived metrics need from a span's arguments."""
    if name == "specact.spectral_action":
        spec, method = kept["spec"], kept.get("method", "auto")
        if method == "auto":
            method = "grid" if spec.N ** spec.d <= 10 ** 7 else "fourier"
        if method == "grid":
            return {"path": "grid", "points": spec.N ** spec.d}
        nodes = _fourier_nodes(spec, kept["lam_cut"])
        return {"path": "fourier", "nodes": nodes, "bytes": nodes * spec.N * 16}
    if name == "ncforms.junk_two_forms":
        used, total = _nonzero_coords(kept["triple"])
        return {"used": used, "total": total}
    if name == "sm.sm_algebra":
        return {"n": kept["n_gen"]}
    if name == "sm.lagrangian_coeffs_oracle":
        return {"n": kept["y"].n_gen}
    return {"d": kept["module"].sig.d}  # the clifford solution spaces


def with_facts(spans) -> list:
    """Spans with their kept arguments replaced by ``facts``."""
    return [(n, s, e, p, o, None if k is None else facts(n, k)) for n, s, e, p, o, k in spans]


def layer_metrics(spans, ops: int, cli_children=(), bytes_out: int = 0) -> dict:
    """Per-layer metrics of one traced pass over ``ops`` ops.

    ``spans`` have been through ``with_facts``.  ``cli_children`` holds
    (command, import_ms, spans) per child process of the cli-cold
    workload, and ``bytes_out`` what those children wrote to stdout.
    """
    spans = list(spans)
    for _, _, child_spans in cli_children:
        base = len(spans)
        spans += [(n, s, e, p + base if p >= 0 else -1, o, k)
                  for n, s, e, p, o, k in child_spans]
    own = self_times(spans)
    calls, busy, layer_busy = {}, {}, dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, own):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + t
        layer_busy[name.split(".")[0]] += t

    out = {}
    for metric, *_ in LAYER_METRICS:
        head, _, tail = metric.rpartition(".")
        if tail == "busy_s":
            out[metric] = layer_busy[head] if head in LAYERS else busy.get(head, 0.0)
        elif tail == "calls":
            out[metric] = calls.get(head, 0)
    out["ist.check_axioms.calls_per_op"] = calls.get("ist.check_axioms", 0) / ops

    points = nodes = nbytes = used = total = 0
    grid_busy = fourier_busy = 0.0
    seen, repeats, algebra_calls = set(), 0, 0
    oracle_ms = {1: [], 3: []}
    solution_ms = {}
    for (name, start, end, _, op, fact), t in zip(spans, own):
        if name == "specact.spectral_action":
            if fact["path"] == "grid":
                points += fact["points"]
                grid_busy += t
            else:
                nodes += fact["nodes"]
                nbytes += fact["bytes"]
                fourier_busy += t
        elif name == "ncforms.junk_two_forms":
            used, total = used + fact["used"], total + fact["total"]
        elif name == "sm.sm_algebra":
            algebra_calls += 1
            repeats += fact["n"] in seen
            seen.add(fact["n"])
        elif name == "sm.lagrangian_coeffs_oracle":
            oracle_ms.setdefault(fact["n"], []).append(1e3 * (end - start))
        elif fact is not None and fact.get("d") == 8:
            solution_ms[op] = solution_ms.get(op, 0.0) + 1e3 * (end - start)
    out["specact.spectral_action.grid.busy_s"] = grid_busy
    out["specact.spectral_action.fourier.busy_s"] = fourier_busy
    out["specact.grid.points"] = points
    out["specact.fourier.nodes"] = nodes
    out["specact.fourier.bytes"] = nbytes
    out["ncforms.pairs.nonzero_frac"] = used / total if total else 0.0
    out["sm.sm_algebra.repeat_ratio"] = repeats / algebra_calls if algebra_calls else 0.0
    out["sm.lagrangian_coeffs_oracle.n1.p50_ms"] = _median(oracle_ms[1])
    out["sm.lagrangian_coeffs_oracle.n3.p50_ms"] = _median(oracle_ms[3])
    out["clifford.solution_space.d8.p50_ms"] = _median(list(solution_ms.values()))

    out["serialize.bytes_out"] = bytes_out
    out["cli.import_ms"] = _median([ms for _, ms, _ in cli_children])
    for command, _, child_spans in cli_children:
        main = [e - s for n, s, e, p, *_ in child_spans if n == "cli.main" and p < 0]
        out[f"cli.{command}.ms"] = 1e3 * sum(main)
    for metric, *_ in LAYER_METRICS:
        out.setdefault(metric, 0.0)
    out["layers.self_s"] = sum(own)
    return out
