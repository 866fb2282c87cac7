"""Self-tests of the benchmark, at toy size.

    python3 -m pytest pipebench -q
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rebasin import cli, match, model, prune, renorm  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, key):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines[:-1]}
    assert set(want) <= printed
    if trace:
        assert json.loads(lines[0])["env"]["blas_threads"] >= 1
        assert result["metrics"]["trace.overhead_frac"]["value"] > -1


def test_no_result_without_sources(tmp_path):
    bench = tmp_path / "pipebench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "pair_tour",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_pair():
    m = model.build_model(model.mlp_descriptor(6, [5, 4], 3))
    from rebasin.train import init_params
    return init_params(m, "kaiming_uniform", 0)


def _rep():
    return workloads.Rep(workloads.Checks(), tmp=None, size={})


def test_wrong_permutation_is_counted_not_passed():
    b = _tiny_pair()
    rep = _rep()
    workloads.check_perm(rep, "good", b, match.random_perm(b, seed=1))
    assert rep.checks.failures == [] and rep.checks.attempted == 2

    bad = match.random_perm(b, seed=1)
    bad.perms["b0"][0] = bad.perms["b0"][1]          # not a permutation
    workloads.check_perm(rep, "bad", b, bad)
    assert rep.checks.attempted == 4
    assert [f.split(":")[0] for f in rep.checks.failures] == ["bad", "bad"]


def test_function_breaking_permutation_is_counted(monkeypatch):
    b = _tiny_pair()

    def rows_only(m, spec):        # moves producer rows, forgets consumer columns
        out = m.copy()
        out.params["dense0.w"] = out.params["dense0.w"][spec.perms["b0"]]
        out.params["dense0.b"] = out.params["dense0.b"][spec.perms["b0"]]
        return out
    monkeypatch.setattr(match, "apply_perm", rows_only)
    rep = _rep()
    workloads.check_perm(rep, "rows only", b, match.random_perm(b, seed=1))
    assert rep.checks.failures == ["rows only: permuted logits: predicate false"]


def test_wrong_matcher_output_fails_the_run(monkeypatch, tmp_path):
    original = match.weight_match

    def broken(*args, **kw):
        spec, report = original(*args, **kw)
        spec.perms["b0"] = np.zeros_like(spec.perms["b0"])
        return spec, report
    monkeypatch.setattr(match, "weight_match", broken)
    session = harness.Session(str(tmp_path), "pair_tour",
                              workloads.SIZES["pair_tour"]["toy"], log=None)
    try:
        session.rep(1)
    finally:
        session.close()
    assert session.checks.failures
    assert any(f.startswith("weight_match: is a permutation")
               for f in session.checks.failures)


def test_repair_that_does_nothing_is_counted(monkeypatch, tmp_path):
    monkeypatch.setattr(renorm, "reset_bn", lambda m, *a, **kw: m.copy())
    monkeypatch.setattr(prune, "post_prune_repair", lambda p, *a, **kw: p.copy())
    session = harness.Session(str(tmp_path), "cnn_prune",
                              workloads.SIZES["cnn_prune"]["toy"], log=None)
    try:
        session.rep(1)
    finally:
        session.close()
    assert {f.split(":")[0] for f in session.checks.failures} == {
        "reset_bn centres the first BatchNorm output on the data",
        "one-batch reset_bn centres the first BatchNorm output on its batch",
        "post_prune_repair restores the first boundary's statistics"}


def test_installer_rebinds_every_import_and_restores():
    tracer = tracing.Tracer()
    originals = (match.solve_lap, renorm.evaluate, prune.measure_stats,
                 cli.weight_match, match.forward, match.l2_distance)
    with tracing.installed(tracer):
        bound = (match.solve_lap, renorm.evaluate, prune.measure_stats,
                 cli.weight_match, match.forward, match.l2_distance)
        assert all(w is not o and w.__wrapped__ is o
                   for w, o in zip(bound, originals))
        assert cli.weight_match is match.weight_match
        b = _tiny_pair()
        match.weight_match(b, match.apply_perm(b, match.random_perm(b, 2)))
    assert (match.solve_lap, renorm.evaluate, prune.measure_stats,
            cli.weight_match, match.forward, match.l2_distance) == originals
    names = {s.name for s in tracer.spans}
    assert {"match.weight_match", "lap.solve_lap", "probes.l2_distance",
            "match.apply_perm", "model.wiring"} <= names
    m = tracing.rep_layer_metrics(tracer.spans, 0)
    assert m["match.sweeps"] >= 1 and m["lap.solve_calls"] >= 2
    assert 0 < m["match.lap_share"] < 1


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    inner = t.wrap("model.forward", lambda: sum(range(20000)))
    outer = t.wrap("match.weight_match", lambda: inner() + inner())
    outer()
    m = tracing.rep_layer_metrics(t.spans, 0)
    kids = sum(s.dur for s in t.spans if s.name == "model.forward")
    assert m["match.self_s"] == pytest.approx(t.spans[0].dur - kids)
    assert m["model.forward_calls"] == 2


def test_tail_percentile_leaves_ten_calls_beyond():
    med, tail, pct = tracing._per_call([i / 1e3 for i in range(1, 31)])
    assert med == pytest.approx(15.5)
    assert tail == pytest.approx(20.0) and pct == pytest.approx(100 * 20 / 30)
    assert tracing._per_call([0.001] * 10)[1:] == (0.0, 0.0)
