"""The three benchmark workloads, each one closed-loop pipeline repetition.

A repetition gets a seed and derives every input from it. Stage times are
taken around calls into the public rebasin API (or `rebasin.cli.main`), and
each stage's output is checked outside the timed region; a failed check is
counted, never raised. Library calls go through module attributes so the
traced run's wrappers see them.
"""
import contextlib
import io
import json
import math
import os
import time

import numpy as np

from rebasin import checkpoint, cli, data, match, model, probes, prune, renorm, train

# Sizes are chosen so one repetition takes 6 to 15 s on one core and three
# fit in a 42 s run; `toy` runs the same stages in about a second for the
# self-tests.
SIZES = {
    "pair_tour": {
        "full": {"n_train": 1200, "n_test": 600, "dims": 784,
                 "hidden": [256, 256, 256], "epochs": 6, "max_sweeps": 10},
        "toy": {"n_train": 1024, "n_test": 256, "dims": 64,
                "hidden": [32, 32, 32], "epochs": 4, "max_sweeps": 10},
    },
    "cnn_prune": {
        # At 0.8 and above the pruned convnet's accuracy depends on the input
        # draw (0.65 to 1.0 at 0.8), so the reported accuracy would measure it.
        "full": {"n_train": 768, "n_test": 512, "side": 16, "convs": (16, 32),
                 "epochs": 2, "fisher_batches": 8, "sparsity": 0.7},
        "toy": {"n_train": 768, "n_test": 256, "side": 8, "convs": (8, 16),
                "epochs": 2, "fisher_batches": 2, "sparsity": 0.5},
    },
    "deep_cli": {
        "full": {"n_train": 2000, "n_test": 600, "dims": 784, "width": 256,
                 "depth": 6, "epochs": 9, "max_sweeps": 3, "merge_iters": 1},
        "toy": {"n_train": 1024, "n_test": 256, "dims": 64, "width": 32,
                "depth": 3, "epochs": 8, "max_sweeps": 3, "merge_iters": 1},
    },
}

# Batch the permutation checks run on; its values are irrelevant to the check.
_PROBE_ROWS = 32
# Set-up takes 0.1 to 0.3 s; repeating it gives setup_s a median over more
# samples than repetitions.
SETUP_SAMPLES = 3


class Checks:
    """Stage output checks: each one counts as attempted, and as failed when
    its predicate is false or raises."""

    def __init__(self, log=None):
        self.attempted = 0
        self.failures = []
        self._log = log

    def expect(self, name, predicate):
        self.attempted += 1
        try:
            ok = bool(predicate())
            why = "" if ok else "predicate false"
        except Exception as e:  # a broken stage output is a failed check
            ok, why = False, f"{type(e).__name__}: {e}"
        if not ok:
            self.failures.append(f"{name}: {why}")
            if self._log:
                self._log(f"check failed: {name}: {why}")
        return ok


class Rep:
    """One pipeline repetition: stage times, reported values, checks."""

    def __init__(self, checks, tmp, size, quiet=contextlib.nullcontext):
        self.checks, self.tmp, self.size = checks, tmp, size
        self.stages = {}
        self.setup_times = []
        self.values = {}
        self._quiet = quiet

    @contextlib.contextmanager
    def stage(self, name):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t

    def setup(self, make):
        """Runs the set-up `SETUP_SAMPLES` times, timing each; returns the
        last result."""
        for _ in range(SETUP_SAMPLES):
            t = time.perf_counter()
            out = make()
            self.setup_times.append(time.perf_counter() - t)
        return out

    def expect(self, name, predicate):
        with self._quiet():
            return self.checks.expect(name, predicate)

    def checking(self):
        """Context for untimed reference computations (untraced too)."""
        return self._quiet()


# ---------------------------------------------------------------- shared checks

def is_permutation_spec(m, spec):
    units = dict(m.boundary_map)
    return set(spec.perms) == set(units) and all(
        np.array_equal(np.sort(np.asarray(v)), np.arange(units[bid]))
        for bid, v in spec.perms.items())


def check_perm(rep, label, b, spec):
    """The spec is a permutation and applying it keeps b's function."""
    rep.expect(f"{label}: is a permutation", lambda: is_permutation_spec(b, spec))

    def same_logits():
        x = np.random.default_rng(0).normal(
            size=(_PROBE_ROWS,) + tuple(b.input_shape)).astype(np.float32)
        ref = model.forward(b, x)
        got = model.forward(match.apply_perm(b, spec), x)
        return np.allclose(got, ref, rtol=1e-4, atol=1e-4 * float(np.abs(ref).max()))
    rep.expect(f"{label}: permuted logits", same_logits)


def bit_equal(m1, m2):
    return set(m1.params) == set(m2.params) and all(
        m1.params[k].dtype == m2.params[k].dtype
        and m1.params[k].tobytes() == m2.params[k].tobytes() for k in m1.params)


def _first_boundary(m):
    return min(model.wiring(m).values(), key=lambda b: b.producer)


def bn_centred(m, ds, **batches):
    """reset_bn stores the mean of the per-batch means it saw, so in eval mode
    the first BatchNorm's output averages to its shift over the same batches.
    Deeper ones only come close: the pass ran the layers above in train mode."""
    first = _first_boundary(m)
    bn = m.layers[first.norms[-1]].name
    mean = renorm.measure_stats(m, ds, boundaries=[first.bid], **batches).means[first.bid]
    tol = 1e-4 * (1.0 + float(np.abs(m.params[f"{bn}.gamma"]).max()))
    return np.allclose(mean, m.params[f"{bn}.beta"], rtol=0, atol=tol)


def repair_hits_first_goal(original, pruned, fixed, ds):
    """Every boundary's correction is fitted in one pass before any is
    applied, so the first boundary, with nothing corrected upstream, lands
    on the original net's statistics (dead channels cannot be rescaled)."""
    first = _first_boundary(pruned).bid
    goal, before, after = (renorm.measure_stats(m, ds, boundaries=[first])
                           for m in (original, pruned, fixed))
    live = before.stds[first] > 1e-6
    tol = 1e-4 * (1.0 + float(goal.stds[first].max()))
    return (np.allclose(after.means[first][live], goal.means[first][live],
                        rtol=0, atol=tol)
            and np.allclose(after.stds[first][live], goal.stds[first][live],
                            rtol=0, atol=tol))


def _mid(lams, vals):
    return vals[[float(l) for l in lams].index(0.5)]


def _pair_seeds(seed):
    return (2 * seed) % 2**31, (2 * seed + 1) % 2**31


# ---------------------------------------------------------------- pair_tour

def pair_tour(rep, seed):
    """The README tour on a pair of 3x256 MLPs."""
    s = rep.size
    seeds = _pair_seeds(seed)

    def make():
        pool = data.synth_embedded(seed=seed, n=s["n_train"] + s["n_test"],
                                   dims=s["dims"], d_eff=16, classes=10,
                                   spread=0.40, clusters_per_class=8)
        desc = model.mlp_descriptor(s["dims"], s["hidden"], 10)
        return data.hold_out(pool, s["n_test"]), [
            train.init_params(model.build_model(desc), "kaiming_uniform", k)
            for k in seeds]
    (tr, te), inits = rep.setup(make)

    with rep.stage("train"):
        a, b = (train.train(m, tr, train.TrainConfig(base_lr=0.1, epochs=s["epochs"],
                                                     seed=k))[0]
                for m, k in zip(inits, seeds))

    with rep.stage("align"):
        # Converging takes 10 to 23 sweeps, depending on the draw, which
        # spreads align_s beyond its bound; 10 is the fewest any draw needed.
        wperm, _ = match.weight_match(a, b, max_sweeps=s["max_sweeps"])
        aperm, _ = match.activation_match(a, b, tr)
    check_perm(rep, "weight_match", b, wperm)
    check_perm(rep, "activation_match", b, aperm)

    bw = match.apply_perm(b, wperm)
    curves = {}
    with rep.stage("curve"):
        for mode, seq in (("none", False), ("repair", False), ("repair", True)):
            curves[mode, seq] = renorm.eval_curve(a, bw, tr, test_ds=te,
                                                  mode=mode, sequential=seq)
    with rep.checking():
        ends = [train.evaluate(a, te), train.evaluate(bw, te)]
        naive = train.evaluate(renorm.interpolate(a, b, 0.5), te)[1]
    plain = curves["none", False]
    rep.expect("eval_curve none: endpoints equal evaluate", lambda: all(
        (plain.test_loss[i], plain.test_acc[i]) == tuple(ends[j])
        for i, j in ((0, 0), (-1, 1))))
    for key in (("repair", False), ("repair", True)):
        c = curves[key]
        # the endpoint statistics are the goal, so repair there is ~identity
        rep.expect(f"eval_curve {key}: endpoints match evaluate", lambda c=c: all(
            abs(c.test_acc[i] - ends[j][1]) <= 0.01 for i, j in ((0, 0), (-1, 1))))
    rep.values["mid_test_acc"] = _mid(plain.lams, plain.test_acc)
    rep.expect("matched midpoint beats naive",
               lambda: rep.values["mid_test_acc"] > naive)
    seq = curves["repair", True]
    rep.values["repaired_test_acc"] = _mid(seq.lams, seq.test_acc)

    mid = renorm.interpolate(a, bw, 0.5)
    with rep.stage("probe"):
        for m in (a, bw, mid):
            probes.channel_probe(m, tr)

    paths = [os.path.join(rep.tmp, f"pair-{i}.rbnc") for i in range(2)]
    with rep.stage("checkpoint"):
        for m, p in zip((a, bw), paths):
            checkpoint.save_checkpoint(m, p)
        back = [checkpoint.load_checkpoint(p) for p in paths]
    rep.expect("checkpoint roundtrip is bitwise",
               lambda: bit_equal(a, back[0]) and bit_equal(bw, back[1]))


# ---------------------------------------------------------------- cnn_prune

def cnn_prune(rep, seed):
    """BatchNorm convnet: train a pair, match, reset curve, prune and repair."""
    s = rep.size
    seeds = _pair_seeds(seed)
    side = s["side"]

    def make():
        pool = data.synth_blobs(seed=seed, n=s["n_train"] + s["n_test"],
                                dims=side * side, classes=10, spread=0.55,
                                clusters_per_class=2, image_shape=(1, side, side))
        desc = model.cnn_descriptor((1, side, side),
                                    [{"out": c, "k": 3, "pool": 2} for c in s["convs"]],
                                    10)
        return data.hold_out(pool, s["n_test"]), [
            train.init_params(model.build_model(desc), "kaiming_uniform", k)
            for k in seeds]
    (tr, te), inits = rep.setup(make)

    with rep.stage("train"):
        a, b = (train.train(m, tr, train.TrainConfig(base_lr=0.05, batch_size=32,
                                                     epochs=s["epochs"], seed=k))[0]
                for m, k in zip(inits, seeds))

    with rep.stage("align"):
        wperm, _ = match.weight_match(a, b)
        aperm, _ = match.activation_match(a, b, tr)
    check_perm(rep, "weight_match", b, wperm)
    check_perm(rep, "activation_match", b, aperm)
    bw = match.apply_perm(b, wperm)

    with rep.stage("curve"):
        curve = renorm.eval_curve(a, bw, tr, test_ds=te, quick=True, mode="reset")
    with rep.checking():
        ends = [train.evaluate(renorm.reset_bn(m, tr), te) for m in (a, bw)]
    rep.expect("eval_curve reset: endpoints equal evaluate", lambda: all(
        (curve.test_loss[i], curve.test_acc[i]) == tuple(ends[j])
        for i, j in ((0, 0), (-1, 1))))
    rep.values["mid_test_acc"] = _mid(curve.lams, curve.test_acc)

    sparsity = s["sparsity"]
    with rep.stage("prune"):
        smap = prune.score(a, method="diag_fisher", dataset=tr,
                           max_batches=s["fisher_batches"])
        mask = prune.mask_from_scores(smap, sparsity, "global")
        pruned = prune.apply_mask(a, mask)
        full = renorm.reset_bn(pruned, tr)
        one = renorm.reset_bn(pruned, tr, batch_size=64, max_batches=1)
        fixed = prune.post_prune_repair(pruned, a, tr, mode="repair")
    rep.expect("mask drops floor(s * count)", lambda: mask.count_dropped()
               == math.floor(sparsity * mask.count_total())
               and sum(int((pruned.params[k] == 0).sum()) for k in mask.keep)
               >= mask.count_dropped())
    # On a Fisher-pruned convnet a statistics repair can cost accuracy (see
    # README), so the checks test what each repair computes instead.
    rep.expect("reset_bn centres the first BatchNorm output on the data",
               lambda: bn_centred(full, tr))
    rep.expect("one-batch reset_bn centres the first BatchNorm output on its batch",
               lambda: bn_centred(one, tr, batch_size=64, max_batches=1))
    rep.expect("post_prune_repair restores the first boundary's statistics",
               lambda: repair_hits_first_goal(a, pruned, fixed, tr))
    with rep.checking():
        acc = {k: train.evaluate(m, te)[1] for k, m in
               (("pruned", pruned), ("reset", full), ("one_batch", one),
                ("repair", fixed))}
    rep.values.update({f"{k}_acc": v for k, v in acc.items()})
    rep.values["repaired_test_acc"] = acc["repair"]

    with rep.stage("probe"):
        probes.channel_probe(a, tr, max_batches=s["fisher_batches"],
                             with_fisher=True)


# ---------------------------------------------------------------- deep_cli

def _deep_configs(s, seed):
    ds = {"kind": "embedded", "seed": seed, "n": s["n_train"] + s["n_test"],
          "dims": s["dims"], "d_eff": 16, "classes": 10, "spread": 0.3,
          "clusters_per_class": 4, "hold_out": s["n_test"]}
    te = dict(ds, part="test")
    layers = []
    for _ in range(s["depth"]):
        layers += [{"kind": "dense", "out": s["width"]}, {"kind": "relu"}]
    layers.append({"kind": "dense", "out": 10})
    return ds, te, {"input_shape": [s["dims"]], "layers": layers}


class _Cli:
    """Runs `rebasin.cli.main` in-process and checks each command's outputs."""

    def __init__(self, rep, out):
        self.rep, self.out, self.n = rep, out, 0

    def __call__(self, stage, argv, cfg, outputs):
        self.n += 1
        path = os.path.join(self.rep.tmp, f"cfg-{self.n}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        buf = io.StringIO()
        with self.rep.stage(stage), contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--config", path, "--out", self.out])
        run = buf.getvalue().strip().splitlines()[-1] if code == 0 else ""
        self.rep.expect(f"cli {argv[0]}: exit 0 and outputs written",
                        lambda: code == 0 and all(
                            os.path.getsize(os.path.join(run, f)) > 0
                            for f in outputs))
        return run


def _read_csv(path):
    with open(path) as fh:
        head, *rows = [line.strip().split(",") for line in fh if line.strip()]
    return [dict(zip(head, (float(v) if v else None for v in r))) for r in rows]


def deep_cli(rep, seed):
    """The variance-collapse 6x256 pair, driven only through the CLI."""
    s = rep.size

    def make():
        ds, te, desc = _deep_configs(s, seed)
        # the test split the checks evaluate against; every command
        # regenerates its own data from the config
        pool = data.synth_embedded(**{k: v for k, v in ds.items()
                                      if k not in ("kind", "hold_out")})
        return ds, te, desc, data.hold_out(pool, s["n_test"])[1]
    ds, te, desc, test = rep.setup(make)
    run = _Cli(rep, os.path.join(rep.tmp, "runs"))

    tr_run = run("train", ["train"], {
        "dataset": ds, "test_dataset": te, "model": desc,
        "train": {"base_lr": 0.08, "batch_size": 64, "epochs": s["epochs"],
                  "schedule": "cosine", "warmup_iters": 40},
        "seeds": list(_pair_seeds(seed))}, ["result.json"])
    ck = [os.path.join(tr_run, f"model-seed{k}.rbnc") for k in _pair_seeds(seed)]

    outs = ["perm.json", "report.json", "aligned.rbnc"]
    wm = run("align", ["match"], {"checkpoints": ck, "matcher": "weight",
                                  "max_sweeps": s["max_sweeps"]}, outs)
    am = run("align", ["match"], {"checkpoints": ck, "matcher": "activation",
                                  "dataset": ds}, outs)
    # A few weight-matching sweeps leave a deep pair part-aligned and its
    # midpoint seed-dependent; the one-shot activation matcher's alignment is
    # what the curve and probe commands use.
    aligned = os.path.join(am, "aligned.rbnc")
    with rep.checking():
        b = checkpoint.load_checkpoint(ck[1])
        for label, d in (("cli match weight", wm), ("cli match activation", am)):
            with open(os.path.join(d, "perm.json")) as fh:
                spec = match.PermSpec.from_jsonable(json.load(fh)["perms"])
            check_perm(rep, label, b, spec)
            rep.expect(f"{label}: aligned checkpoint is apply_perm", lambda d=d, spec=spec:
                       bit_equal(match.apply_perm(b, spec),
                                 checkpoint.load_checkpoint(os.path.join(d, "aligned.rbnc"))))

    pair = {"checkpoints": [ck[0], aligned], "dataset": ds, "test_dataset": te}
    ip = run("curve", ["interp"], pair, ["curve.csv", "report.json"])
    rn = run("curve", ["renorm", "--quick", "--mode", "rescale"],
             dict(pair, sequential=True), ["curve.csv", "report.json"])
    run("merge", ["merge", "--strategy", "iterative"],
        {"checkpoints": ck, "matcher": "activation", "dataset": ds,
         "iter_cap": s["merge_iters"]},
        ["merge.json", "merged.rbnc"])
    run("probe", ["probe"], {"checkpoint": aligned, "dataset": ds},
        ["probe.csv", "probe.json"])
    pr = run("prune", ["prune"], {"checkpoint": ck[0], "dataset": ds,
                                  "test_dataset": te, "sparsities": [0.9],
                                  "repair": "repair"},
             ["sparsity_vs_accuracy.csv"])

    curve = _read_csv(os.path.join(ip, "curve.csv"))
    with rep.checking():
        ends = [train.evaluate(checkpoint.load_checkpoint(p), test)
                for p in (ck[0], aligned)]
    rep.expect("cli interp: endpoints equal evaluate", lambda: all(
        (curve[i]["test_loss"], curve[i]["test_acc"]) == tuple(ends[j])
        for i, j in ((0, 0), (-1, 1))))
    rep.values["mid_test_acc"] = next(r["test_acc"] for r in curve
                                      if r["lambda"] == 0.5)
    fixed = _read_csv(os.path.join(rn, "curve.csv"))
    rep.values["repaired_test_acc"] = next(r["test_acc"] for r in fixed
                                           if r["lambda"] == 0.5)
    pruned = _read_csv(os.path.join(pr, "sparsity_vs_accuracy.csv"))
    rep.expect("cli prune: repair does not lower accuracy below the pruned net's",
               lambda: all(r["repaired_accuracy"] >= r["accuracy"] for r in pruned))


WORKLOADS = {"pair_tour": pair_tour, "cnn_prune": cnn_prune, "deep_cli": deep_cli}
