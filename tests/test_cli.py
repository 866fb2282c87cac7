"""End-to-end runs of every subcommand through main(argv), plus the exit-code
contract: 0 success, 2 validation/config trouble, 3 numerical failure."""
import json
import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from rebasin import cli, data
from rebasin.checkpoint import load_checkpoint, save_checkpoint
from rebasin.cli import _new_run_dir, _write_json, main
from rebasin.data import synth_blobs
from rebasin.model import build_model, mlp_descriptor
from rebasin.probes import PROBE_COLUMNS, LayerProbe
from rebasin.renorm import CurveReport
from rebasin.train import DivergedError, TrainConfig, TrainLog, init_params, train

from helpers import bits_equal, models_bit_equal, small_cnn_desc

BLOBS = {"kind": "blobs", "seed": 21, "n": 256, "dims": 8, "classes": 4,
         "spread": 0.45, "clusters_per_class": 2}
MODEL = {"input_shape": [8],
         "layers": [{"kind": "dense", "out": 16}, {"kind": "relu"},
                    {"kind": "dense", "out": 4}]}
TRAIN = {"base_lr": 0.1, "batch_size": 64, "epochs": 4, "seed": 0}


def write_cfg(tmp_path, name="cfg.json", **doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli_process(*argv, check=False):
    """`python -m rebasin.cli *argv` in a fresh process, with this tree's
    src/ first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "rebasin.cli", *argv], env=env,
                          check=check, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def ckpts(tmp_path_factory):
    """Three independently trained small MLPs saved as checkpoints."""
    root = tmp_path_factory.mktemp("ckpts")
    ds = synth_blobs(**{k: v for k, v in BLOBS.items() if k != "kind"})
    paths = []
    for seed in (1, 2, 3):
        m = init_params(build_model(MODEL), "kaiming_uniform", seed)
        m, _ = train(m, ds, TrainConfig(**{**TRAIN, "seed": seed}))
        p = root / f"m{seed}.rbnc"
        save_checkpoint(m, str(p))
        paths.append(str(p))
    return paths


def run_dirs(out, command):
    return sorted(d for d in os.listdir(out) if d.startswith(command + "-"))


# ------------------------------------------------------------- dataset docs

def test_dataset_holdout_parts_tile_one_pool(tmp_path):
    base = {"kind": "embedded", "seed": 5, "n": 96, "dims": 32, "d_eff": 4,
            "classes": 3, "spread": 0.5}
    cfg = write_cfg(tmp_path, dataset={**base, "hold_out": 32},
                    test_dataset={**base, "hold_out": 32, "part": "test"},
                    model={"input_shape": [32],
                           "layers": [{"kind": "dense", "out": 8},
                                      {"kind": "relu"},
                                      {"kind": "dense", "out": 3}]},
                    train={"base_lr": 0.1, "batch_size": 16, "epochs": 1})
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "train-000" / "result.json").read_text())
    assert 0.0 <= result["0"]["test_acc"] <= 1.0


def test_dataset_part_test_requires_holdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dataset={**BLOBS, "part": "test"},
                    model=MODEL, train=TRAIN)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert "hold_out" in capsys.readouterr().err


def test_dataset_rejects_a_hold_out_that_is_no_integer(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dataset={**BLOBS, "hold_out": 64.5},
                    model=MODEL, train=TRAIN)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert "hold_out" in capsys.readouterr().err


def test_dataset_embedded_rejects_unknown_key(tmp_path, capsys):
    doc = {"kind": "embedded", "seed": 5, "n": 64, "dims": 32, "d_eff": 4,
           "classes": 3, "spread": 0.5, "ambiant": 0.2}
    cfg = write_cfg(tmp_path, dataset=doc, model=MODEL, train=TRAIN)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert "ambiant" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "interp", "prune"])
def test_one_generation_per_command(tmp_path, ckpts, monkeypatch, command):
    pools, seen = [], []
    for name in ("synth_blobs", "synth_embedded"):
        def counted(*a, fn=getattr(data, name), **kw):
            pools.append(fn(*a, **kw))
            return pools[-1]
        monkeypatch.setattr(data, name, counted)

    def record(name, pick):
        fn = getattr(cli, name)

        def wrapped(*a, **kw):
            seen.append(pick(*a, **kw))
            return fn(*a, **kw)
        monkeypatch.setattr(cli, name, wrapped)

    if command == "train":
        record("train", lambda m, ds, tc, test_ds: (ds, test_ds))
        doc = {"model": MODEL, "train": {**TRAIN, "epochs": 1}}
    elif command == "interp":
        record("eval_curve", lambda a, b, ds, test_ds, **kw: (ds, test_ds))
        doc = {"checkpoints": ckpts[:2], "grid": "quick"}
    else:
        record("score", lambda m, dataset, **kw: dataset)
        record("evaluate", lambda m, ds: ds)
        doc = {"checkpoint": ckpts[0], "method": "diag_fisher", "sparsities": [0.5]}
    out = str(tmp_path / "runs")
    for seed in (21, 22):
        pool = {**BLOBS, "seed": seed}
        cfg = write_cfg(tmp_path, dataset={**pool, "hold_out": 64},
                        test_dataset={**pool, "hold_out": 64, "part": "test"}, **doc)
        assert main([command, "--config", cfg, "--out", out]) == 0
    # one generation per command; the second command drew its own pool
    assert len(pools) == 2
    assert not np.array_equal(pools[0].inputs, pools[1].inputs)
    if command == "prune":   # score reads the train part, evaluate the test part
        seen = [(seen[0], seen[1]), (seen[2], seen[3])]
    for pool, (tr, te) in zip(pools, seen):
        want = data.hold_out(pool, 64)
        for got, part in zip((tr, te), want):
            assert bits_equal(got.inputs, part.inputs)
            assert bits_equal(got.labels, part.labels)


# ---------------------------------------------------------------- train

def test_train_writes_run_dir_snapshot_and_checkpoint(tmp_path):
    cfg = write_cfg(tmp_path, dataset=BLOBS, model=MODEL, train=TRAIN)
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    run = out / "train-000"
    snap = json.loads((run / "config.json").read_text())
    assert snap["train"]["base_lr"] == 0.1
    model = load_checkpoint(str(run / "model-seed0.rbnc"))
    assert model.params["dense0.w"].shape == (16, 8)
    result = json.loads((run / "result.json").read_text())
    assert result["0"]["train_acc"] > 0.5
    assert (run / "log-seed0.csv").read_text().startswith("iteration,lr,loss")


def test_train_reruns_are_bitwise_identical_and_append_only(tmp_path):
    cfg = write_cfg(tmp_path, dataset=BLOBS, model=MODEL, train=TRAIN)
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert run_dirs(out, "train") == ["train-000", "train-001"]
    a = (out / "train-000" / "model-seed0.rbnc").read_bytes()
    b = (out / "train-001" / "model-seed0.rbnc").read_bytes()
    assert a == b


def test_train_zero_epochs_exits_0_with_null_accuracies(tmp_path):
    cfg = write_cfg(tmp_path, dataset={**BLOBS, "hold_out": 64},
                    test_dataset={**BLOBS, "hold_out": 64, "part": "test"},
                    model=MODEL, train={**TRAIN, "epochs": 0})
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "train-000" / "result.json").read_text())["0"]
    assert result["train_acc"] is None and result["test_acc"] is None
    assert result["iters"] == 0 and result["epochs"] == 0


def test_train_seed_flag_overrides_and_lands_in_snapshot(tmp_path):
    cfg = write_cfg(tmp_path, dataset=BLOBS, model=MODEL, train=TRAIN)
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    run = out / "train-000"
    assert (run / "model-seed7.rbnc").exists()
    snap = json.loads((run / "config.json").read_text())
    assert snap["train"]["seed"] == 7 and snap["seeds"] == [7]


def side_by_side(monkeypatch, blas_threads, cores=2):
    """Every BLAS thread variable set to blas_threads (None unsets them), and
    cores usable cores."""
    for var in cli._THREAD_VARS:
        if blas_threads is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, blas_threads)
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)


def record_train(monkeypatch, before=lambda tc: None):
    """Wraps cli.train; returns the list of (seed, thread, np.geterr()) it
    appends to as each training starts. before(config) runs first."""
    seen, real = [], cli.train

    def wrapped(model, ds, tc, test_ds=None):
        seen.append((tc.seed, threading.current_thread(), np.geterr()))
        before(tc)
        return real(model, ds, tc, test_ds=test_ds)
    monkeypatch.setattr(cli, "train", wrapped)
    return seen


def run_files(run):
    return {p.name: p.read_bytes() for p in sorted(run.iterdir())}


@pytest.mark.parametrize("blas, env, width", [
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "1"}, 2),
    ("scipy-openblas", {"OMP_NUM_THREADS": "1"}, 2),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ("mkl-rt", {"MKL_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, 2),
    ("mkl-rt", {"OPENBLAS_NUM_THREADS": "1"}, 1),
    ("accelerate", {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, 2),
    ("scipy-openblas", {}, 1),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "one"}, 1),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "0"}, 1),
])
def test_train_width_reads_the_blas_builds_own_thread_variable(monkeypatch, blas, env,
                                                               width):
    side_by_side(monkeypatch, None, cores=4)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(cli, "_blas", lambda: {"name": blas})
    assert cli._width(2) == width
    assert cli._width(8) == (4 if width == 2 else 1)


def test_train_seeds_side_by_side_write_the_sequential_bytes(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, dataset={**BLOBS, "hold_out": 64},
                    test_dataset={**BLOBS, "hold_out": 64, "part": "test"},
                    model=MODEL, train=TRAIN, seeds=[4, 5, 6])
    side_by_side(monkeypatch, "1")
    seen = record_train(monkeypatch)
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(s for s, _, _ in seen) == [4, 5, 6]
    assert any(t is not threading.current_thread() for _, t, _ in seen)
    monkeypatch.setattr(cli, "_width", lambda tasks: 1)
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    side, plain = run_files(out / "train-000"), run_files(out / "train-001")
    assert len(side) == 3 * 2 + 3       # checkpoint and log per seed, config, env, result
    assert side == plain


@pytest.mark.parametrize("blas_threads", [None, "2", "one"])
def test_train_starts_no_worker_thread_unless_blas_runs_one(tmp_path, monkeypatch,
                                                            blas_threads):
    cfg = write_cfg(tmp_path, dataset=BLOBS, model=MODEL, train={**TRAIN, "epochs": 1},
                    seeds=[1, 2, 3])
    side_by_side(monkeypatch, blas_threads)
    threads, counts = threading.active_count(), []
    seen = record_train(monkeypatch, lambda tc: counts.append(threading.active_count()))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    assert [(s, t) for s, t, _ in seen] == [(s, threading.current_thread()) for s in (1, 2, 3)]
    assert counts == [threads] * 3


@pytest.mark.parametrize("third_trains", [True, False])
def test_train_side_by_side_failure_keeps_the_earlier_seeds_only(tmp_path, monkeypatch,
                                                                 capsys, third_trains):
    cfg = write_cfg(tmp_path, dataset=BLOBS, model=MODEL, train={**TRAIN, "epochs": 1},
                    seeds=[1, 2, 3])
    # one round of three seeds, or rounds of two: seed 3 then waits for the first round
    side_by_side(monkeypatch, "1", cores=3 if third_trains else 2)
    third, failing = threading.Event(), threading.Event()

    def before(tc):
        if tc.seed == 3:
            third.set()
        if tc.seed == 1 and not third_trains:   # seed 1 ends after seed 2 has failed
            assert failing.wait(30)
            time.sleep(0.1)
        if tc.seed == 2:
            if third_trains:                    # seed 3 is under way when seed 2 fails
                assert third.wait(30)
            failing.set()
            raise DivergedError("seed 2 diverged")
    seen = record_train(monkeypatch, before)
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 3
    assert "seed 2 diverged" in capsys.readouterr().err
    # seed 3 trains only if its round began before the failure, and leaves no file
    assert sorted(s for s, _, _ in seen) == ([1, 2, 3] if third_trains else [1, 2])
    assert sorted(os.listdir(out / "train-000")) == ["config.json", "log-seed1.csv",
                                                     "model-seed1.rbnc"]


def test_train_calling_thread_runs_the_first_seed_of_every_round(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, dataset=BLOBS, model=MODEL, train={**TRAIN, "epochs": 1},
                    seeds=[1, 2, 3, 4])
    side_by_side(monkeypatch, "1")
    seen = record_train(monkeypatch)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    assert sorted(s for s, t, _ in seen if t is threading.current_thread()) == [1, 3]
    assert sorted(s for s, _, _ in seen) == [1, 2, 3, 4]


@pytest.mark.parametrize("fail_from", [None, 50])
def test_in_order_stress_writes_in_order_within_its_window(fail_from):
    items, width = list(range(200)), 8                  # more threads than cores
    started, written, outstanding, raised = [], [], [], []

    def work(i):
        started.append(i)
        outstanding.append(len(started) - len(written))
        np.sort(np.random.default_rng(i).random(2000))  # releases the GIL now and then
        if fail_from is not None and i >= fail_from and i % 7 == 1:
            raise ValueError(i)
        return -i

    def write(i, out):
        assert out == -i
        written.append(i)

    def run():
        try:
            cli._in_order(work, write, items, width)
        except ValueError as e:
            raised.append(e.args[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t = threading.Thread(target=run)
        t.start()
        t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not t.is_alive()
    assert max(outstanding) <= width
    if fail_from is None:
        assert written == items and sorted(started) == items and raised == []
    else:                       # 50 is the first failing item; later ones may fail too
        assert written == items[:50] and raised == [50]
        assert max(started) < 50 + width


def test_train_workers_see_the_callers_error_state(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, dataset=BLOBS, model=MODEL, train={**TRAIN, "epochs": 1},
                    seeds=[1, 2, 3])
    side_by_side(monkeypatch, "1")
    seen = record_train(monkeypatch)
    with np.errstate(all="raise"):
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
    assert any(t is not threading.current_thread() for _, t, _ in seen)
    assert [err for _, _, err in seen] == [dict.fromkeys(np.geterr(), "raise")] * 3


def test_failed_json_write_leaves_earlier_file_intact(tmp_path):
    path = tmp_path / "report.json"
    _write_json(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):   # json.dump has written "a" when it reaches "b"
        _write_json(path, {"a": 2, "b": object()})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


class _Unprintable:
    def __repr__(self):
        raise TypeError("cannot print this value")

    __str__ = __repr__


def _probe_rows(last):
    return LayerProbe(rows={"b0": dict.fromkeys(PROBE_COLUMNS, 1.0),
                            "b1": dict.fromkeys(PROBE_COLUMNS, last)})


@pytest.mark.parametrize("write", [
    lambda path, last: TrainLog([0, 1], [0.1, 0.1], [2.0, last]).write_csv(path),
    lambda path, last: CurveReport([0.0, 1.0], "none", False, [2.0, last],
                                   [0.5, 0.5]).write_csv(path),
    lambda path, last: _probe_rows(last).write_csv(path),
], ids=["train_log", "curve_report", "layer_probe"])
def test_failed_csv_write_leaves_earlier_file_intact(tmp_path, write):
    path = tmp_path / "out.csv"
    write(path, 1.0)
    before = path.read_bytes()
    with pytest.raises(TypeError):   # the first rows are written when the last fails
        write(path, _Unprintable())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_failed_prune_csv_write_leaves_no_file(tmp_path, ckpts, monkeypatch):
    monkeypatch.setattr(cli, "evaluate", lambda model, ds: (0.0, _Unprintable()))
    cfg = write_cfg(tmp_path, checkpoint=ckpts[0], dataset=BLOBS,
                    sparsities=[0.0, 0.5])
    out = tmp_path / "runs"
    assert main(["prune", "--config", cfg, "--out", str(out)]) == 2
    assert sorted(os.listdir(out / "prune-000")) == ["config.json"]


@pytest.mark.parametrize("command", ["train", "match", "interp", "renorm", "merge",
                                     "prune", "probe", "lap"])
def test_every_command_records_its_environment(tmp_path, ckpts, monkeypatch, command):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    doc = {"train": {"dataset": BLOBS, "model": MODEL, "train": {**TRAIN, "epochs": 1}},
           "match": {"checkpoints": ckpts[:2]},
           "interp": {"checkpoints": ckpts[:2], "dataset": BLOBS, "grid": "quick"},
           "renorm": {"checkpoints": ckpts[:2], "dataset": BLOBS, "grid": "quick"},
           "merge": {"checkpoints": ckpts},
           "prune": {"checkpoint": ckpts[0], "dataset": BLOBS, "sparsities": [0.5]},
           "probe": {"checkpoint": ckpts[0], "dataset": BLOBS, "with_fisher": False},
           "lap": {"matrix": [[1.0, 2.0], [3.0, 1.0]]}}[command]
    out = tmp_path / "runs"
    assert main([command, "--config", write_cfg(tmp_path, **doc), "--out", str(out)]) == 0
    run = out / f"{command}-000"
    env = json.loads((run / "env.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {"numpy": np.__version__,
                   "blas": {"name": blas.get("name"), "version": blas.get("version")},
                   "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                               "MKL_NUM_THREADS": None},
                   "cpu_count": os.cpu_count(),
                   "usable_cores": len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity") else os.cpu_count()}
    # the snapshot stays the config alone, so it still re-runs
    assert json.loads((run / "config.json").read_text()) == doc
    assert main([command, "--config", str(run / "config.json"), "--out", str(out)]) == 0


# ---------------------------------------------------------------- exit codes

def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, dataset=BLOBS, modle=MODEL, train=TRAIN)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


def test_invalid_train_value_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, dataset=BLOBS, model=MODEL,
                    train={**TRAIN, "momentum": 2.0})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


def test_string_bias_in_model_exits_2(tmp_path):
    first = {**MODEL["layers"][0], "bias": "false"}
    cfg = write_cfg(tmp_path, dataset=BLOBS, train=TRAIN,
                    model={**MODEL, "layers": [first] + MODEL["layers"][1:]})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


def test_missing_checkpoint_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, checkpoints=[str(tmp_path / "absent.rbnc"),
                                           str(tmp_path / "absent.rbnc")])
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


def test_inconsistent_checkpoint_exits_2(tmp_path, ckpts):
    m = load_checkpoint(ckpts[0])
    m.params["dense0.b"] = m.params["dense0.b"][:1]
    bad = str(tmp_path / "bad.rbnc")
    save_checkpoint(m, bad)
    cfg = write_cfg(tmp_path, checkpoint=bad, dataset=BLOBS)
    assert main(["probe", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


def _pool_stride_0(path):
    m = build_model(small_cnn_desc())
    m.layers[3].stride = 0
    save_checkpoint(m, path)


def _header_is_array(path):
    save_checkpoint(build_model(MODEL), path)
    blob = path.read_bytes()
    end = 16 + int.from_bytes(blob[8:16], "little")
    header = b"[" + blob[16:end] + b"]"
    path.write_bytes(blob[:8] + len(header).to_bytes(8, "little") + header + blob[end:])


@pytest.mark.parametrize("write_bad", [_pool_stride_0, _header_is_array],
                         ids=["pool_stride_0", "header_is_array"])
def test_malformed_checkpoint_exits_2(tmp_path, write_bad):
    bad = tmp_path / "bad.rbnc"
    write_bad(bad)
    cfg = write_cfg(tmp_path, checkpoint=str(bad), dataset=BLOBS)
    assert main(["probe", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


def test_concurrent_runs_claim_distinct_run_dirs(tmp_path):
    workers, per_worker = 8, 5
    start = threading.Barrier(workers)
    claimed, errors = [], []

    def claim():
        try:
            start.wait(timeout=10)
            for _ in range(per_worker):
                claimed.append(_new_run_dir(str(tmp_path / "runs"), "train"))
        except Exception as e:  # reported through the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=claim) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(claimed) == len(set(claimed)) == workers * per_worker
    assert run_dirs(tmp_path / "runs", "train") == [
        f"train-{i:03d}" for i in range(workers * per_worker)]


def test_missing_config_file_exits_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r")]) == 2


def test_divergence_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, dataset=BLOBS, model=MODEL,
                    train={**TRAIN, "base_lr": 1e8})
    with np.errstate(all="ignore"):
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 3


@pytest.fixture(scope="module")
def nan_cnn(tmp_path_factory):
    """A BatchNorm convnet checkpoint with one NaN in conv1.w, a clean one of
    the same net, and the image dataset doc both read."""
    root = tmp_path_factory.mktemp("nan_cnn")
    paths = []
    for seed in (1, 2):
        m = init_params(build_model(small_cnn_desc(in_shape=(1, 8, 8), classes=4)),
                        "kaiming_uniform", seed)
        if seed == 1:
            m.params["conv1.w"][0, 0, 0, 0] = np.nan
        paths.append(str(root / f"cnn{seed}.rbnc"))
        save_checkpoint(m, paths[-1])
    ds = {**BLOBS, "n": 128, "dims": 64, "image_shape": [1, 8, 8]}
    return paths, ds


@pytest.mark.parametrize("command", ["interp", "probe"])
def test_nan_weight_in_conv1_exits_3_naming_the_layer(tmp_path, capsys, nan_cnn, command):
    (bad, good), ds = nan_cnn
    doc = {"checkpoints": [bad, good], "grid": "quick"} if command == "interp" else \
        {"checkpoint": bad, "batch_size": 64}
    cfg = write_cfg(tmp_path, dataset=ds, **doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 3
    assert "non-finite values in layer conv1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "interp", "probe"])
def test_data_that_overflow_float32_exit_2(tmp_path, capsys, ckpts, command):
    """A finite spread whose draws overflow float32 is a data error, not the model's."""
    doc = {"train": {"model": MODEL, "train": TRAIN},
           "interp": {"checkpoints": ckpts[:2], "grid": "quick"},
           "probe": {"checkpoint": ckpts[0]}}[command]
    cfg = write_cfg(tmp_path, dataset={**BLOBS, "spread": 1e39}, **doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert "spread 1e+39 draws inputs that overflow float32" in capsys.readouterr().err


def test_train_on_a_truncated_idx_file_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(5)
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, 6, 4, 4)
                       + rng.integers(0, 256, 6 * 16 - 1, dtype=np.uint8).tobytes())
    labels.write_bytes(struct.pack(">II", 0x00000801, 6)
                       + rng.integers(0, 10, 6, dtype=np.uint8).tobytes())
    model = {"input_shape": [1, 4, 4], "layers": [{"kind": "flatten"},
                                                  {"kind": "dense", "out": 10}]}
    cfg = write_cfg(tmp_path, dataset={"kind": "idx", "images": str(images),
                                       "labels": str(labels)},
                    model=model, train={**TRAIN, "batch_size": 2})
    out = tmp_path / "r"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert "image payload size mismatch for count 6" in capsys.readouterr().err
    assert os.listdir(out / "train-000") == ["config.json"]


# (command, the fields that replace a valid config's, what stderr names)
_BAD_FIELDS = {
    "blobs_standardize": ("train", {"dataset": {**BLOBS, "standardize": "no"}},
                          "standardize must be true or false"),
    "blobs_seed": ("train", {"dataset": {**BLOBS, "seed": True}}, "seed must be an integer"),
    "blobs_split": ("train", {"dataset": {**BLOBS, "split": 7}}, "split must be a string"),
    "blobs_n": ("probe", {"dataset": {**BLOBS, "n": 300.0}}, "n must be an integer"),
    "blobs_spread": ("interp", {"dataset": {**BLOBS, "spread": "0.5"}},
                     "spread must be a finite number"),
    "blobs_spread_nan": ("train", {"dataset": {**BLOBS, "spread": float("nan")}},
                         "spread must be a finite number"),
    "test_dataset_kind": ("prune", {"test_dataset": {**BLOBS, "kind": "blob"}},
                          "unknown test_dataset kind"),
    "train_shuffle": ("train", {"train": {**TRAIN, "shuffle": "no"}},
                      "shuffle must be true or false"),
    "train_batch_size": ("train", {"train": {**TRAIN, "batch_size": True}},
                         "batch_size must be an integer"),
    "train_base_lr_nan": ("train", {"train": {**TRAIN, "base_lr": float("nan")}},
                          "base_lr must be a finite number"),
    "train_milestones": ("train", {"train": {**TRAIN, "milestones": [1.5]}},
                         "milestones: milestone must be an integer"),
    "train_momentum": ("train", {"train": {**TRAIN, "momentum": 1.0}}, "momentum"),
    "train_l2_every": ("train", {"train": {**TRAIN, "l2_every": 5}},
                       "train: unknown keys ['l2_every']"),
    "seeds_empty": ("train", {"seeds": []}, "seeds must be a list of 1 or more"),
    "seeds_repeated": ("train", {"seeds": [1, 1]}, "seeds must be distinct"),
    "method": ("prune", {"method": "bogus"}, "unknown method 'bogus'"),
    "repair": ("prune", {"repair": "rescale"}, "unknown repair 'rescale'"),
    "matcher": ("match", {"matcher": "activations"}, "unknown matcher 'activations'"),
    "checkpoints": ("match", {"checkpoints": ["a.rbnc"]}, "checkpoints must be a list of 2"),
    "strategy": ("merge", {"strategy": "voting"}, "unknown strategy 'voting'"),
    "grid": ("interp", {"grid": "full"}, "unknown grid 'full'"),
    "interp_mode": ("interp", {"mode": "repair"}, "unknown mode 'repair'"),
    "sense": ("lap", {"sense": "max"}, "unknown sense 'max'"),
    "matrix": ("lap", {"matrix": [[1.0, float("inf")], [0.0, 1.0]]},
               "matrix: row: entry must be a finite number"),
}


@pytest.mark.parametrize("case", sorted(_BAD_FIELDS))
def test_a_bad_field_exits_2_before_any_work(tmp_path, ckpts, capsys, monkeypatch, case):
    command, bad, message = _BAD_FIELDS[case]
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        monkeypatch.setattr(module, name, wrapped)
    for name in ("load_checkpoint", "train", "eval_curve", "multi_match", "score",
                 "channel_probe", "solve_lap"):
        spy(cli, name)
    for name in ("synth_blobs", "synth_embedded", "load_idx", "load_cifar_bin"):
        spy(data, name)
    doc = {"train": {"dataset": BLOBS, "model": MODEL, "train": TRAIN},
           "match": {"checkpoints": ckpts[:2]},
           "interp": {"checkpoints": ckpts[:2], "dataset": BLOBS},
           "merge": {"checkpoints": ckpts},
           "prune": {"checkpoint": ckpts[0], "dataset": BLOBS},
           "probe": {"checkpoint": ckpts[0], "dataset": BLOBS},
           "lap": {"matrix": [[1.0, 2.0], [3.0, 1.0]]}}[command]
    cfg = write_cfg(tmp_path, **{**doc, **bad})
    out = tmp_path / "r"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert os.listdir(out / f"{command}-000") == ["config.json"]


def test_unknown_subcommand_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["explode", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2


# ---------------------------------------------------------------- match

def test_match_emits_perm_report_and_aligned_checkpoint(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], matcher="weight")
    out = tmp_path / "runs"
    assert main(["match", "--config", cfg, "--out", str(out)]) == 0
    run = out / "match-000"
    perm = json.loads((run / "perm.json").read_text())
    assert sorted(perm["perms"]) == ["b0"]
    assert sorted(perm["perms"]["b0"]) == list(range(16))
    report = json.loads((run / "report.json").read_text())
    assert report["converged"] is True
    assert report["residual_l2"] > 0
    # one boundary with no neighbours: solved once, every later visit skipped
    assert report["solves"] == 1
    assert report["skipped"] == report["sweeps"] - 1
    aligned = load_checkpoint(str(run / "aligned.rbnc"))
    assert aligned.params["dense0.w"].shape == (16, 8)


@pytest.mark.parametrize("value", [2.5, "3", True, 0], ids=["float", "string", "bool", "zero"])
@pytest.mark.parametrize("command, key", [
    ("match", "max_sweeps"), ("match", "seed"), ("match", "batch_size"),
    ("merge", "iter_cap"), ("merge", "seed"), ("merge", "batch_size"),
])
def test_match_and_merge_reject_a_count_that_is_no_integer(tmp_path, ckpts, capsys,
                                                           command, key, value):
    if key == "seed" and value == 0:
        value = -1                       # a seed may be 0
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2] if command == "match" else ckpts,
                    **{key: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("interp", "grid_points", 2.5), ("interp", "batch_size", True),
    ("renorm", "stats_batch_size", "64"), ("prune", "batch_size", 0),
    ("probe", "batch_size", 2.0), ("train", "seeds", [1.5]),
])
def test_other_commands_reject_a_count_that_is_no_integer(tmp_path, ckpts, capsys,
                                                          command, key, value):
    doc = {"train": {"model": MODEL, "train": TRAIN},
           "interp": {"checkpoints": ckpts[:2]}, "renorm": {"checkpoints": ckpts[:2]},
           "prune": {"checkpoint": ckpts[0], "repair": "reset"},
           "probe": {"checkpoint": ckpts[0]}}[command]
    cfg = write_cfg(tmp_path, dataset=BLOBS, **doc, **{key: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("renorm", "sequential", "false"), ("prune", "scale_by_weight_sq", 0),
    ("prune", "exempt_first", 1), ("probe", "with_fisher", None),
])
def test_commands_reject_a_flag_that_is_no_bool(tmp_path, ckpts, capsys,
                                                command, key, value):
    doc = {"renorm": {"checkpoints": ckpts[:2]},
           "prune": {"checkpoint": ckpts[0], "method": "diag_fisher"},
           "probe": {"checkpoint": ckpts[0]}}[command]
    cfg = write_cfg(tmp_path, dataset=BLOBS, **doc, **{key: value})
    out = tmp_path / "r"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not any(f.startswith(("curve", "report", "sparsity", "probe"))
                   for d in os.listdir(out) for f in os.listdir(out / d))


def test_match_activation_needs_dataset(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], matcher="activation")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], matcher="activation",
                    dataset=BLOBS, batch_size=64)
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    run = tmp_path / "r" / run_dirs(tmp_path / "r", "match")[-1]
    report = json.loads((run / "report.json").read_text())
    assert (report["solves"], report["skipped"]) == (1, 0)


# ---------------------------------------------------------------- interp / renorm

def test_interp_quick_grid_has_three_points(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], dataset=BLOBS)
    out = tmp_path / "runs"
    assert main(["interp", "--config", cfg, "--out", str(out), "--quick"]) == 0
    lines = (out / "interp-000" / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,train_loss,train_acc,test_loss,test_acc"
    assert len(lines) == 4
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 0.5, 1.0]


def test_interp_grid_points_flag(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], dataset=BLOBS)
    out = tmp_path / "runs"
    assert main(["interp", "--config", cfg, "--out", str(out),
                 "--grid-points", "5"]) == 0
    lines = (out / "interp-000" / "curve.csv").read_text().strip().splitlines()
    assert len(lines) == 6
    report = json.loads((out / "interp-000" / "report.json").read_text())
    assert report["mode"] == "none"


@pytest.mark.parametrize("grid", [{"grid": [0, 0.3, 1]}, {"grid": "quick", "grid_points": 5}],
                         ids=["list", "quick_and_points"])
def test_interp_rejects_a_grid_it_would_not_run(tmp_path, ckpts, capsys, grid):
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], dataset=BLOBS, **grid)
    assert main(["interp", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert "grid" in capsys.readouterr().err


def test_interp_default_grid_is_eleven_points(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], dataset=BLOBS)
    out = tmp_path / "runs"
    assert main(["interp", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "interp-000" / "curve.csv").read_text().strip().splitlines()
    assert len(lines) == 12


def test_renorm_mode_flag_reaches_snapshot_and_report(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], dataset=BLOBS)
    out = tmp_path / "runs"
    assert main(["renorm", "--config", cfg, "--out", str(out), "--quick",
                 "--mode", "rescale"]) == 0
    run = out / "renorm-000"
    assert json.loads((run / "config.json").read_text())["mode"] == "rescale"
    report = json.loads((run / "report.json").read_text())
    assert report["mode"] == "rescale"
    assert "train_acc" in report["barriers"]


def test_renorm_rejects_unknown_mode(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], dataset=BLOBS)
    assert main(["renorm", "--config", cfg, "--out", str(tmp_path / "r"),
                 "--mode", "zap"]) == 2


def test_snapshot_reproduces_run(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], dataset=BLOBS)
    out = tmp_path / "runs"
    assert main(["interp", "--config", cfg, "--out", str(out), "--quick"]) == 0
    snap = str(out / "interp-000" / "config.json")
    assert main(["interp", "--config", snap, "--out", str(out)]) == 0
    first = (out / "interp-000" / "curve.csv").read_bytes()
    second = (out / "interp-001" / "curve.csv").read_bytes()
    assert first == second


def test_renorm_in_two_processes_writes_identical_bytes(tmp_path, ckpts):
    """Sequential repair over the default grid, run twice by `python -m
    rebasin.cli` from one config snapshot in one environment."""
    split = {**BLOBS, "hold_out": 64}
    cfg = write_cfg(tmp_path, checkpoints=ckpts[:2], dataset=split,
                    test_dataset={**split, "part": "test"}, sequential=True,
                    stats_batch_size=64)
    out = tmp_path / "runs"
    for _ in range(2):
        run_cli_process("renorm", "--config", cfg, "--out", str(out), check=True)
    runs = [out / d for d in run_dirs(out, "renorm")]
    assert len(runs) == 2
    assert json.loads((runs[0] / "report.json").read_text())["sequential"] is True
    for name in ("config.json", "curve.csv", "report.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


# ---------------------------------------------------------------- merge

def test_merge_iterative_respects_default_cap(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoints=ckpts, dataset=BLOBS)
    out = tmp_path / "runs"
    assert main(["merge", "--config", cfg, "--out", str(out),
                 "--strategy", "iterative"]) == 0
    run = out / "merge-000"
    info = json.loads((run / "merge.json").read_text())
    assert info["strategy"] == "iterative"
    assert 0 <= info["iterations"] <= 30
    assert len(info["perms"]) == 3
    merged = load_checkpoint(str(run / "merged.rbnc"))
    assert merged.params["dense0.w"].shape == (16, 8)


def test_merge_rejects_unknown_strategy(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoints=ckpts, dataset=BLOBS)
    assert main(["merge", "--config", cfg, "--out", str(tmp_path / "r"),
                 "--strategy", "voting"]) == 2


# ---------------------------------------------------------------- prune

def test_prune_emits_sparsity_accuracy_csv(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoint=ckpts[0], dataset=BLOBS,
                    sparsities=[0.0, 0.5, 0.9])
    out = tmp_path / "runs"
    assert main(["prune", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "prune-000" / "sparsity_vs_accuracy.csv").read_text() \
        .strip().splitlines()
    assert lines[0] == "sparsity,accuracy"
    assert len(lines) == 4
    accs = [float(l.split(",")[1]) for l in lines[1:]]
    assert accs[0] >= accs[2]


def test_prune_sparsity_flag_single_point(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoint=ckpts[0], dataset=BLOBS)
    out = tmp_path / "runs"
    assert main(["prune", "--config", cfg, "--out", str(out),
                 "--sparsity", "0.5"]) == 0
    lines = (out / "prune-000" / "sparsity_vs_accuracy.csv").read_text() \
        .strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.5,")


def test_prune_repair_adds_column(tmp_path):
    # batchnorm MLP so reset repair has statistics to rebuild
    desc = {"input_shape": [8],
            "layers": [{"kind": "dense", "out": 16}, {"kind": "batchnorm"},
                       {"kind": "relu"}, {"kind": "dense", "out": 4}]}
    ds = synth_blobs(**{k: v for k, v in BLOBS.items() if k != "kind"})
    m = init_params(build_model(desc), "kaiming_uniform", 0)
    m, _ = train(m, ds, TrainConfig(**TRAIN))
    ck = tmp_path / "bn.rbnc"
    save_checkpoint(m, str(ck))
    cfg = write_cfg(tmp_path, checkpoint=str(ck), dataset=BLOBS,
                    sparsities=[0.8])
    out = tmp_path / "runs"
    assert main(["prune", "--config", cfg, "--out", str(out),
                 "--mode", "reset"]) == 0
    lines = (out / "prune-000" / "sparsity_vs_accuracy.csv").read_text() \
        .strip().splitlines()
    assert lines[0] == "sparsity,accuracy,repaired_accuracy"
    assert len(lines[1].split(",")) == 3


@pytest.mark.parametrize("sparsities", [["0.5"], [0.5, True]], ids=["string", "bool"])
def test_prune_rejects_a_sparsity_that_is_no_number(tmp_path, ckpts, capsys, sparsities):
    cfg = write_cfg(tmp_path, checkpoint=ckpts[0], dataset=BLOBS, sparsities=sparsities)
    assert main(["prune", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert "sparsities" in capsys.readouterr().err


@pytest.mark.parametrize("request_, message", [
    ({"sparsities": [0.5, 1.5]}, "sparsity must lie in [0, 1]"),
    ({"sparsities": [0.5], "granularity": "per_channel"}, "unknown granularity"),
], ids=["sparsity", "granularity"])
def test_prune_rejects_a_bad_mask_request_before_any_pass(tmp_path, ckpts, capsys,
                                                          monkeypatch, request_, message):
    calls = []

    def spy(name):
        fn = getattr(cli, name)

        def wrapped(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        return wrapped
    for name in ("load_checkpoint", "score", "evaluate"):
        monkeypatch.setattr(cli, name, spy(name))
    cfg = write_cfg(tmp_path, checkpoint=ckpts[0], dataset=BLOBS, method="diag_fisher",
                    **request_)
    assert main(["prune", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["interp", "prune"])
def test_a_dataset_of_no_rows_exits_2(tmp_path, ckpts, capsys, command):
    doc = {"checkpoints": ckpts[:2], "grid": "quick"} if command == "interp" else \
        {"checkpoint": ckpts[0], "sparsities": [0.5]}
    cfg = write_cfg(tmp_path, dataset={**BLOBS, "n": 0, "standardize": False}, **doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert "dataset smaller than one batch" in capsys.readouterr().err


# ---------------------------------------------------------------- probe / lap

def test_probe_outputs_csv_and_json(tmp_path, ckpts):
    cfg = write_cfg(tmp_path, checkpoint=ckpts[0], dataset=BLOBS)
    out = tmp_path / "runs"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    run = out / "probe-000"
    lines = (run / "probe.csv").read_text().strip().splitlines()
    assert lines[0].startswith("boundary,pre_scale")
    assert len(lines) == 2  # one hidden boundary
    doc = json.loads((run / "probe.json").read_text())
    assert "b0" in doc["rows"]
    assert doc["fisher"]["dense0.w"] >= 0


@pytest.mark.parametrize("max_batches", [1.5, -1, True])
def test_probe_rejects_a_batch_cap_that_is_no_count(tmp_path, ckpts, max_batches):
    cfg = write_cfg(tmp_path, checkpoint=ckpts[0], dataset=BLOBS,
                    max_batches=max_batches)
    assert main(["probe", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


def test_lap_solves_config_matrix(tmp_path):
    cfg = write_cfg(tmp_path, matrix=[[4.0, 1.0, 3.0], [2.0, 0.0, 5.0],
                                      [3.0, 2.0, 2.0]], sense="minimize")
    out = tmp_path / "runs"
    assert main(["lap", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "lap-000" / "assignment.json").read_text())
    assert doc["sense"] == "minimize"
    assert sorted(doc["perm"]) == [0, 1, 2]
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    assert doc["objective"] == pytest.approx(
        cost[np.arange(3), doc["perm"]].sum())
    # brute force: 3x3 optimum is 5 (1 + 2 + 2)
    assert doc["objective"] == pytest.approx(5.0)


def test_lap_whose_reduced_costs_overflow_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, matrix=[[1e308, -1e308], [-1e308, 1e308]])
    with np.errstate(all="ignore"):
        assert main(["lap", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
    assert "numerical failure: " in capsys.readouterr().err


def test_lap_whose_reduced_costs_overflow_prints_only_the_failure(tmp_path):
    # NumPy's overflow warnings stay inside the solver: stderr is one line
    cfg = write_cfg(tmp_path, matrix=[[1e308, -1e308], [-1e308, 1e308]])
    done = run_cli_process("lap", "--config", cfg, "--out", str(tmp_path / "r"))
    assert done.returncode == 3
    assert done.stderr.splitlines() == [
        "numerical failure: assignment solver lost dual feasibility"], done.stderr


def test_lap_whose_objective_overflows_exits_3(tmp_path):
    # the optimum's sum of finite costs is inf, which strict JSON cannot hold:
    # one failure line, no NumPy warning and no assignment.json
    cfg = write_cfg(tmp_path, matrix=[[1.7e308] * 3] * 3)
    done = run_cli_process("lap", "--config", cfg, "--out", str(tmp_path / "r"))
    assert done.returncode == 3
    assert done.stderr.splitlines() == [
        "numerical failure: assignment objective overflows float64 (inf)"], done.stderr
    assert not list((tmp_path / "r").glob("*/assignment.json"))


# ---------------------------------------------------------------- config key reference

def test_readme_lists_every_config_key():
    """Each key a table reads appears, backquoted, in the README's entry for
    its command, its dataset kind or the train section."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n### Config keys\n")[1].split("\n## ")[0]
    entries = {}
    for entry in section.split("\n- **")[1:]:
        label, text = entry.split("**", 1)
        for name in label.split(", "):
            entries[name] = text
    tables = {name: table for name, (_, table) in cli._COMMANDS.items()}
    tables.update({f"{kind} dataset": table for kind, (_, table) in cli._DATASETS.items()})
    tables["every dataset"] = cli._SLICE
    tables["train section"] = cli._TRAIN
    missing = [(name, key) for name, table in tables.items() for key in table
               if f"`{key}`" not in entries.get(name, "")]
    assert missing == []
