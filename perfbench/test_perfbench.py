"""The benchmark's own tests, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import run
from checker import check_call
from workloads import (BASELINE_SEED, HELD_OUT_SEED, WORKLOADS, Call, _call)

SPEC = json.loads(run.BENCHMARK_JSON.read_text())
sys.path.insert(0, str(run.SRC))


def _tiny(name, calls):
    return dataclasses.replace(WORKLOADS[name], quality_passes=1,
                               make_pass=lambda seed, p: calls)


def _run_tiny(monkeypatch, capsys, tmp_path, name, calls, trace):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, name, _tiny(name, calls))
    real_setup = run.measure_setup_s
    monkeypatch.setattr(run, "measure_setup_s", lambda argv: real_setup(argv, reps=1))
    assert run.run_one(name, BASELINE_SEED, 0.0, trace) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_declared_metrics(lines, result, kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and isinstance(result["failed"], int)
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"# metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_smoke_prints_every_end_to_end_metric_with_its_unit(monkeypatch, capsys, tmp_path):
    calls = [_call("certify", kind="sparsity", n=n, m1=5, m2=5, s1=1, s2=1,
                   tag="complex_generic", level="strong", seed=3) for n in (1, 4)]
    lines, result = _run_tiny(monkeypatch, capsys, tmp_path, "certify", calls, trace=0)
    _assert_declared_metrics(lines, result, "end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_per_layer_metric(monkeypatch, capsys, tmp_path):
    calls = [_call("transition", kind="subspace", n=9, m1=3, m2=3,
                   tag="complex_generic", sweep="5,9", trials=1, seed=4)]
    lines, result = _run_tiny(monkeypatch, capsys, tmp_path, "transition", calls, trace=1)
    _assert_declared_metrics(lines, result, "per_layer")
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    # two builds per cycle (one per row), one solve each, and the tracer is gone
    assert metrics["ensembles.build_ensemble.calls"] == 2
    assert metrics["recovery.solve_fixed_support.calls"] == 2
    import blindid.mc
    import blindid.ensembles
    assert blindid.mc.build_ensemble is blindid.ensembles.build_ensemble
    assert not hasattr(blindid.mc.build_ensemble, "__wrapped__")


TRANSITION_CALL = _call("transition", kind="subspace", n=4, m1=2, m2=2,
                        tag="complex_generic", sweep="3,4", trials=10, seed=1)
HEADER = "n,trials,successes,rate,d,two_d,mean_lifted_error\n"


def test_checker_counts_an_unrecovered_row_at_n_ge_m1m2_as_failed():
    good = HEADER + "3,10,0,0.0,4,8,0.5\n4,10,10,1.0,4,8,1e-15\n"
    out = check_call(TRANSITION_CALL, 0, good)
    assert (out.ops, out.failed, out.useful, out.errors) == (20, 0, 10, [])
    doctored = HEADER + "3,10,0,0.0,4,8,0.5\n4,10,0,0.0,4,8,0.9\n"
    out = check_call(TRANSITION_CALL, 0, doctored)
    assert out.failed == 10 and out.useful == 0 and out.errors == []


def test_checker_rejects_inconsistent_or_non_finite_rows():
    for text in (HEADER + "3,10,0,0.0,4,8,0.5\n4,10,10,0.5,4,8,0.0\n",
                 HEADER + "3,10,0,0.0,4,8,nan\n4,10,10,1.0,4,8,0.0\n",
                 HEADER + "3,10,0,0.0,4,8,0.5\n"):
        out = check_call(TRANSITION_CALL, 0, text)
        assert out.failed == out.ops and out.errors
    assert check_call(TRANSITION_CALL, 2, "").errors


def test_checker_flags_an_unverified_witness():
    call = _call("certify", kind="sparsity", n=1, m1=5, m2=5, s1=1, s2=1,
                 tag="complex_generic", level="strong", seed=1)
    ok = {"search_budget": 1, "status": "counterexample_found",
          "tolerance": 1e-6, "witness_verified": True}
    out = check_call(call, 0, json.dumps(ok))
    assert (out.failed, out.useful, out.errors) == (0, 1, [])
    out = check_call(call, 0, json.dumps(dict(ok, witness_verified=False)))
    assert out.failed == 1 and out.useful == 0 and out.errors


def test_checker_flags_unsound_and_missing_exact_certificates():
    def certify(n, status):
        call = _call("certify", kind="sparsity", n=n, m1=5, m2=5, s1=1, s2=1,
                     tag="complex_generic", level="weak", seed=1)
        text = json.dumps({"search_budget": 0, "status": status, "tolerance": 1e-6})
        return check_call(call, 0, text)

    assert certify(4, "certified_unique").errors == []
    assert certify(2, "certified_unique").errors
    assert certify(6, "heuristically_unique").errors
    assert certify(2, "heuristically_unique").failed == 0


def test_seeds_drive_the_argv_and_nothing_else():
    for workload in WORKLOADS.values():
        base = workload.pass_calls(BASELINE_SEED, 0)
        assert base == workload.pass_calls(BASELINE_SEED, 0)
        assert base == workload.pass_calls(BASELINE_SEED, workload.quality_passes)
        assert base != workload.pass_calls(HELD_OUT_SEED, 0)
        for call in base:
            assert isinstance(call, Call) and "--workers" not in call.argv()


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_declares_exactly_these_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
