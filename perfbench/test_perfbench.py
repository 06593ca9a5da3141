"""Self-test of the benchmark: run it with ``python3 -m pytest perfbench``.

The emission tests run every workload once in each mode with a one-second
measuring window, so the whole file takes about a minute on two cores.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

assert run.import_library() is not None, "tsirelson not found under src/"

import tracing  # noqa: E402  (needs tsirelson on the path)
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_wrong_results_are_counted_not_raised():
    jobs = workloads.chained_quantum_jobs(0, 1, None)[:1]
    report = jobs[0].run()
    assert jobs[0].check(report) == []

    raised_dual = dataclasses.replace(
        report.dual, certified_bound=report.dual.certified_bound + 1e-3)
    perturbed = dataclasses.replace(report, dual=raised_dual)

    def boom():
        raise RuntimeError("injected")

    bad = [
        dataclasses.replace(jobs[0], run=lambda: perturbed),
        dataclasses.replace(jobs[0], run=boom),
        jobs[0],
    ]
    result = run.run_pass(bad)
    assert result["attempted"] == 3
    assert len(result["failures"]) == 2
    assert "certified" in result["failures"][0]
    assert "injected" in result["failures"][1]


def test_wrong_witness_and_nan_output_fail_their_checks(tmp_path):
    ineq = workloads.ts.gisin(4)
    bound = workloads.ts.lhv_bound(ineq)
    doc = {"value": bound.value, "witness_x": bound.witness_x.tolist(),
           "witness_y": bound.witness_y.tolist()}
    assert workloads.check_witness(ineq.coefficients, doc) == []
    doc["witness_y"][0] *= -1
    assert workloads.check_witness(ineq.coefficients, doc)

    out = tmp_path / "out.json"
    out.write_text('{"value": NaN}')
    with pytest.raises(ValueError):
        workloads.read_cli_output(out, 0)
    with pytest.raises(ValueError):
        workloads.read_cli_output(out, 2)


def test_bound_chain_catches_each_violation():
    ok = dict(primal=7.39, certified=7.39, classical=6.0)
    assert workloads.check_bounds(**ok) == []
    assert workloads.check_bounds(primal=7.39, certified=7.40)  # gap too wide
    assert workloads.check_bounds(primal=7.39, certified=7.38)  # certified below primal
    assert workloads.check_bounds(primal=5.0, certified=5.0, classical=6.0)
    assert workloads.check_bounds(primal=11.0, certified=11.0, classical=6.0)
    assert workloads.check_bounds(**ok, expected_classical=5.0)
    assert workloads.check_bounds(**ok, analytic=7.3)
    assert workloads.check_bounds(primal=float("nan"), certified=7.39)


def test_lhv_reference_matches_brute_force():
    rng = np.random.default_rng(5)
    c = workloads.random_coefficients(rng, 5)[:, :4]
    best = max(
        sum(abs(sum(((-1) ** (x >> s & 1)) * c[s, t] for s in range(5))) for t in range(4))
        for x in range(32)
    )
    assert workloads.lhv_reference(c) == best


def test_traced_counts_repeat_and_mismatch_is_flagged(tmp_path):
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        tracer.begin_pass()
        tracer.install()
        try:
            run.run_pass(workloads.chained_quantum_jobs(0, 1, None)[:2], tracer)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["sdp.solve.calls"] == 2
    assert workloads.ts.sdp.solve_primal is workloads.ts.solve_primal  # uninstalled

    record = {"source_digest": "x", "workload": "chained-quantum", "seed": 0}
    store = tmp_path / "counts.json"
    assert run.check_counts_repeat(record, {1: counts[0]}, store) == []
    assert run.check_counts_repeat(record, {1: counts[1]}, store) == []
    changed = dict(counts[0], **{"sdp.solve_primal.sweeps": 1})
    assert run.check_counts_repeat(record, {1: changed}, store)


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = bench("--workload", "cli-mixed", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
