"""istlab benchmark: one workload, one seed, timed passes, one JSON result.

    python3 perfbench/run.py --workload sm-draws --seed 1 --seconds 25 --trace 0

Set-up imports istlab from ``src/``, generates the seeded inputs and runs
one warm-up op per op kind; it is timed in this process and in two fresh
child processes, and ``setup_s`` is the median.  The run then repeats
passes over the workload's fixed op list for ``--seconds`` (at least the
workload's minimum number of passes), checking every op's output.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` half the time runs untraced and half traced; it
carries the per-layer metrics, after checking that traced outputs are
bit-identical to untraced ones and that counts repeat exactly.  The line
before the result is a record with provenance and the op accounting.
"""

import os

BLAS_THREADS = "1"  # the benchmark is one closed-loop caller on one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sm-draws", "clifford-sweep", "torus-action", "cli-cold")
E2E_UNITS = {"setup_s": "s", "run_s": "s", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
# reported in the record only: op_p50_ms moves with the host's Python speed more than the
# maximum bound allows on clifford-sweep, and fail_ratio is 0 by design
RECORD_UNITS = {"op_p50_ms": "ms", "fail_ratio": "1"}
SETUP_PROBES = 2     # extra set-ups in fresh processes; setup_s is the median of 3
TAIL_BEYOND = 10     # op_tail_ms: highest percentile with this many ops beyond it
CHILD_TIMEOUT_S = 120


@dataclass
class Pass:
    seconds: float
    latencies_ms: list
    digests: list
    failures: list
    spans: list = field(default_factory=list)
    children: list = field(default_factory=list)
    bytes_out: int = 0


def digest(outputs) -> str:
    h = hashlib.sha256()
    for item in outputs:
        if isinstance(item, str):
            h.update(item.encode())
        else:
            import numpy as np

            try:
                h.update(np.asarray(item).tobytes())
            except ValueError:  # ragged nesting: fall back to the exact repr
                h.update(repr(item).encode())
    return h.hexdigest()


def load(name: str, seed: int, workdir: Path):
    """Import istlab, generate inputs and references, warm up: (workload, seconds)."""
    start = time.perf_counter()
    if not (ROOT / "src" / "istlab").is_dir():
        raise SystemExit(f"perfbench: no istlab sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.make(name, seed, workdir)
    return workload, time.perf_counter() - start


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only", str(workdir)]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(res.stdout.splitlines()[-1])["setup_s"]


def run_pass(workload, tracer=None) -> Pass:
    children = workload.children
    if children is not None:
        children.bytes_out, children.records = 0, []
    latencies, digests, failures = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            outputs = op.fn()
        except Exception as exc:  # a failed op is counted and the run goes on
            outputs = None
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}"[:400])
            if len(failures) == 1:
                traceback.print_exc(file=sys.stderr)
        latencies.append(1e3 * (time.perf_counter() - t0))
        digests.append(None if outputs is None else digest(outputs))
    done = Pass(time.perf_counter() - start, latencies, digests, failures)
    if tracer is not None:
        done.spans = tracing.with_facts(tracer.take())
    if children is not None:
        done.bytes_out = children.bytes_out
        for command, spans_file in children.records:
            data = json.loads(spans_file.read_text())
            done.children.append((command, data["import_ms"], data["spans"]))
    return done


def measure(workload, seconds: float, min_passes: int, tracer=None) -> list:
    """Passes until ``seconds`` would be exceeded, and at least ``min_passes``."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - start + passes[-1].seconds <= seconds):
        passes.append(run_pass(workload, tracer))
    return passes


def tail(latencies: list) -> dict:
    """The tail rank is the highest percentile with TAIL_BEYOND ops beyond it.

    ``value_ms`` is the median of the ops at and beyond that rank.  The
    rank's own latency (``rank_ms``) is one order statistic near the fast
    end of the slowest op kind, so it follows the luckiest op of a run;
    the median of the slowest ops follows their typical latency.
    """
    ordered = sorted(latencies)
    index = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return {"value_ms": statistics.median(ordered[index:]), "rank_ms": ordered[index],
            "percentile": 100.0 * (index + 1) / len(ordered),
            "ops_beyond": len(ordered) - 1 - index, "ops": len(ordered)}


def inconsistent_ops(passes: list, labels: list) -> list:
    """Ops whose outputs were not bit-identical across passes."""
    bad = []
    for i, label in enumerate(labels):
        seen = {p.digests[i] for p in passes if p.digests[i] is not None}
        if len(seen) > 1:
            bad.append(label)
    return bad


def provenance(seed: int) -> dict:
    import numpy as np

    src = sorted((ROOT / "src" / "istlab").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in src:
        text = path.read_bytes()
        h.update(path.name.encode() + b"\0" + text)
        lines += sum(1 for line in text.decode().splitlines() if line.strip())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, timeout=30)
        commit = res.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "src_nonblank_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": int(BLAS_THREADS),
    }


def exact_mismatches(per_pass: list) -> list:
    return [m for m in tracing.EXACT if len({p[m] for p in per_pass}) > 1]


def trace_run(workload, seconds: float) -> tuple:
    """Untraced then traced passes: (metrics, record, passes, problems)."""
    plain = measure(workload, seconds / 2, 1)
    tracer = tracing.Tracer()
    if workload.children is not None:
        workload.children.traced = True
    tracer.install()
    try:
        traced = measure(workload, seconds / 2, 2, tracer)
    finally:
        tracer.uninstall()
        if workload.children is not None:
            workload.children.traced = False
    ops = len(workload.ops)
    per_pass = [tracing.layer_metrics(p.spans, ops, p.children, p.bytes_out) for p in traced]
    plain_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.median(p.seconds for p in traced)
    metrics = {m: statistics.median(p[m] for p in per_pass) for m, *_ in tracing.LAYER_METRICS}
    metrics["trace.overhead_s"] = traced_s - plain_s
    layers_self = statistics.median(p["layers.self_s"] for p in per_pass)
    problems = [f"count {m} differs between traced passes" for m in exact_mismatches(per_pass)]
    labels = [op.label for op in workload.ops]
    for label in inconsistent_ops(plain + traced, labels):
        problems.append(f"{label}: outputs differ between passes")
    record = {
        "untraced_run_s": plain_s,
        "traced_run_s": traced_s,
        "layers_self_s": layers_self,
        "bench_own_s": traced_s - layers_self,
        "spans_per_pass": [len(p.spans) + sum(len(c[2]) for c in p.children) for p in traced],
        "spans_file": str(write_spans(workload.name, traced).relative_to(ROOT)),
    }
    return metrics, record, plain + traced, problems


def write_spans(name: str, passes: list) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-{os.getpid()}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for k, p in enumerate(passes):
            for span in p.spans:
                fh.write(json.dumps({"pass": k, "span": span}) + "\n")
            for command, import_ms, spans in p.children:
                for span in spans:
                    fh.write(json.dumps({"pass": k, "child": command, "span": span}) + "\n")
    return path


def plain_run(workload, seconds: float, setup_samples: list) -> tuple:
    passes = measure(workload, seconds, workload.min_passes)
    latencies = [ms for p in passes for ms in p.latencies_ms]
    ok_latencies = [ms for p in passes for ms, d in zip(p.latencies_ms, p.digests)
                    if d is not None] or latencies
    tail_info = tail(ok_latencies)
    if workload.children is not None:
        peak_kb = workload.children.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(p.seconds for p in passes),
        "op_tail_ms": tail_info["value_ms"],
        "peak_rss_mb": peak_kb / 1024.0,
    }
    kinds = {}
    for p in passes:
        for op, ms in zip(workload.ops, p.latencies_ms):
            kinds.setdefault(op.kind, []).append(ms)
    record = {
        "op_p50_ms": statistics.median(ok_latencies),
        "setup_samples_s": setup_samples,
        "run_s_passes": [p.seconds for p in passes],
        "op_tail": tail_info,
        "kind_p50_ms": {k: statistics.median(v) for k, v in kinds.items()},
    }
    labels = [op.label for op in workload.ops]
    problems = [f"{label}: outputs differ between passes"
                for label in inconsistent_ops(passes, labels)]
    return metrics, record, passes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="'all' runs every workload, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        codes = [subprocess.call([sys.executable, str(Path(__file__).resolve()),
                                  "--workload", name, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace)])
                 for name in WORKLOADS]
        return max(codes)

    if args.setup_only is not None:
        _, seconds = load(args.workload, args.seed, args.setup_only)
        print(json.dumps({"setup_s": seconds}))
        return 0

    workdir = WORK / str(os.getpid())
    try:
        workload, setup_s = load(args.workload, args.seed, workdir / "main")
        if args.trace:
            metrics, record, passes, problems = trace_run(workload, args.seconds)
            units = {m: unit for m, unit, *_ in tracing.LAYER_METRICS}
        else:
            samples = [setup_s] + [probe_setup(args.workload, args.seed, workdir / f"probe{i}")
                                   for i in range(SETUP_PROBES)]
            metrics, record, passes, problems = plain_run(workload, args.seconds, samples)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies_ms) for p in passes)
    correct = not failures and not problems
    record.update({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "ops_per_pass": len(workload.ops),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:5],
        "problems": problems,
        "output_digest": hashlib.sha256(
            "".join(d or "-" for d in passes[0].digests).encode()).hexdigest(),
        "provenance": provenance(args.seed),
    })
    shown = dict(metrics, **{m: record[m] for m in RECORD_UNITS if m in record})
    for name, value in shown.items():
        unit = units.get(name) or RECORD_UNITS[name]
        print(f"{args.workload:15s} {name:45s} {value:14.6g} {unit}", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
