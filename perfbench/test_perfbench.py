"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a traced run's counts and output digest repeat exactly, and that a
traced run leaves every entpick function binding as it found it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run._import_entpick()

import tracer  # noqa: E402  (needs entpick on the path)
import workloads  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _tiny(name, trace):
    return run.run_workload(name, seed=5, seconds=0.01, trace=trace,
                            size=workloads.TINY, import_samples=1)


@pytest.fixture(scope="module")
def results():
    """Each workload once untraced and twice traced, with the bindings
    seen before and after."""
    before = tracer.bindings()
    out = {}
    for name in NAMES:
        out[name, 0] = _tiny(name, False)
        out[name, 1] = _tiny(name, True)
        out[name, 2] = _tiny(name, True)
    return before, tracer.bindings(), out


def _result_line(detail, capsys):
    detail = dict(detail, env={})
    code = run.report_single(detail)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(results, capsys, name, trace):
    code, line = _result_line(results[2][name, trace], capsys)
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_spec_lists_the_harness_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer.metric_names()
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_and_digest_repeat(results, name):
    first, second = results[2][name, 1], results[2][name, 2]
    counts = {k: v for k, (v, unit) in first["layers"].items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in second["layers"].items() if unit == "count"}
    assert counts["trace.spans"] > 0
    assert first["digest"] == second["digest"] == results[2][name, 0]["digest"]


def test_traced_run_restores_every_binding(results):
    before, after, _ = results
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_bindings_are_restored_when_the_body_raises():
    before = tracer.bindings()
    with pytest.raises(KeyError):
        with tracer.install(tracer.Recorder()):
            assert tracer.bindings()["pipeline.execute_grasp"] is not before["pipeline.execute_grasp"]
            raise KeyError("boom")
    after = tracer.bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_children():
    rec = tracer.Recorder()
    rec.spans = [["outer", 0.0, 1.0, -1, 0], ["inner", 0.2, 0.5, 0, 0],
                 ["inner", 0.6, 0.7, 0, 0]]
    layers, coverage = tracer.layer_metrics(rec, 1.25, 1)
    assert coverage["top_level_ms"] == {"outer": 1000.0}
    assert coverage["uncovered_ms"] == pytest.approx(250.0)
    rec.spans[0][0] = "pipeline.run_collection"
    layers, _ = tracer.layer_metrics(rec, 1.0, 1)
    assert layers["pipeline.run_collection.self_ms"][0] == pytest.approx(600.0)


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark exits non-zero, printing no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "session",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
