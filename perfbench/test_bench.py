"""The benchmark's own checks.

    python3 -m pytest perfbench/test_bench.py

Runs every workload briefly, so it takes a couple of minutes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, seconds=1, cwd=ROOT):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180)
    return res


def result_of(res):
    assert res.returncode == 0, res.stderr[-2000:]
    *_, record_line, last = res.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(last)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.E2E_UNITS
    assert BENCH["per_layer"] == [
        {"name": m, "unit": u, "better": b} for m, u, b, *_ in tracing.LAYER_METRICS]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    record, result = result_of(bench(workload, 5, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["fail_ratio"] == 0.0 and record["op_p50_ms"] > 0
    assert record["provenance"]["src_nonblank_lines"] > 0


def test_tail_is_the_median_of_the_slowest_ops():
    info = run.tail([float(ms) for ms in range(100, 0, -1)])
    assert info["rank_ms"] == 90.0 and info["ops_beyond"] == 10 and info["ops"] == 100
    assert info["percentile"] == 90.0
    assert info["value_ms"] == 95.0  # median of the 11 slowest, 90 ... 100


def test_traced_run_repeats_counts_and_outputs():
    plain_record, _ = result_of(bench("torus-action", 6, 0))
    records, results = zip(*(result_of(bench("torus-action", 6, 1)) for _ in range(2)))
    want = [m["name"] for m in BENCH["per_layer"]]
    for result in results:
        assert list(result["metrics"]) == want
        assert result["correct"] and not result["failed"]
    for metric in tracing.EXACT:
        assert results[0]["metrics"][metric] == results[1]["metrics"][metric], metric
    assert results[0]["metrics"]["specact.grid.points"]["value"] > 0
    digests = {r["output_digest"] for r in (plain_record, *records)}
    assert len(digests) == 1


def test_traced_cli_children_report_every_command():
    _, result = result_of(bench("cli-cold", 7, 1))
    for command in tracing.CLI_COMMANDS:
        assert result["metrics"][f"cli.{command}.ms"]["value"] > 0, command
    assert result["metrics"]["serialize.bytes_out"]["value"] > 900_000


def test_wrong_reference_trips_the_gate(monkeypatch):
    good = workloads.action_op(2, 1, 1, 16, "grid",
                               workloads.exact_action(2, 1, 1, 16, 1.0, 20.0),
                               workloads.GRID_RTOL)
    wrong = workloads.action_op(2, 1, 1, 16, "grid",
                                workloads.exact_action(2, 1, 1, 16, 1.0, 20.0) * (1 + 1e-6),
                                workloads.GRID_RTOL)
    with pytest.raises(workloads.GateError):
        wrong.fn()
    flipped = workloads.expected_signs(1, 3, "east")
    monkeypatch.setattr(workloads, "expected_signs",
                        lambda q, p, conv: (-flipped[0],) + flipped[1:])
    sign_op = workloads.signature_op(1, 3, False)
    # a miss is counted and the pass goes on to the next op
    done = run.run_pass(workloads.Workload("t", [good, wrong, sign_op, good], []))
    assert len(done.latencies_ms) == 4
    assert [f.split(":")[0] for f in done.failures] == [wrong.label, sign_op.label]
    assert done.digests[0] == done.digests[3] is not None


def test_without_the_program_it_fails_without_a_result():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        res = bench("sm-draws", 1, 0, cwd=bare)
        assert res.returncode != 0
        assert '"correct"' not in res.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
