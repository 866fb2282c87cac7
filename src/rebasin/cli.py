"""Command line surface: each subcommand wires library modules into one
experiment recipe and writes its outputs into a fresh, append-only run
directory together with the effective config snapshot that reproduces it;
a run that completes also records, in env.json, the build and thread
settings its bits depend on. A command's config is read through its one table
of keys (_COMMANDS) and checked in full before any checkpoint or data is read.

Exit codes: 0 success, 2 config/validation trouble, 3 numerical failure.
"""
import argparse
import contextvars
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import fields, replace

import numpy as np

from . import data
from .checkpoint import _atomic_write, load_checkpoint, save_checkpoint
from .lap import SENSES, solve_lap
from .match import MATCHERS, STRATEGIES, _resolve_matcher, apply_perm, multi_match
from .model import POST, build_model
from .probes import channel_probe
from .prune import (GRANULARITIES, METHODS, POST_PRUNE_MODES, apply_mask, mask_from_scores,
                    post_prune_repair, score)
from .renorm import RENORM_MODES, eval_curve
from .train import DivergedError, TrainConfig, evaluate, init_params, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

REQUIRED = object()     # a table default: the key must be given


# ---------------------------------------------------------------- config tables

def _read(doc, table, ctx):
    """doc's values by table (key -> (kind, default)), each checked by its
    kind and defaults filled in; unknown and missing keys raise. A kind is
    called as kind(key, value) and returns the value, not coerced, or raises
    ValueError naming the key. A key whose default is None also takes null."""
    if not isinstance(doc, dict):
        raise ValueError(f"{ctx} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(table)
    if unknown:
        raise ValueError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = {k for k, (_, default) in table.items() if default is REQUIRED} - set(doc)
    if missing:
        raise ValueError(f"{ctx}: missing keys {sorted(missing)}")
    values = {}
    for key, (kind, default) in table.items():
        value = doc.get(key, default)
        if key in doc and not (value is None and default is None):
            try:
                value = kind(key, value)
            except ValueError as e:
                raise ValueError(f"{ctx}: {e}") from None
        values[key] = value
    return values


def _count(low):
    """An integer (a bool is none) of at least low."""
    def check(key, value):
        if type(value) is not int or value < low:
            raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
        return value
    return check


def _typed(cls, what):
    def check(key, value):
        if type(value) is not cls:
            raise ValueError(f"{key} must be {what}, got {value!r}")
        return value
    return check


_flag, _string = _typed(bool, "true or false"), _typed(str, "a string")


def _number(low=-math.inf, high=math.inf):
    """A number in [low, high]: no bool, and none of json.load's NaN or Infinity."""
    def check(key, value):
        if type(value) not in (int, float) or not -math.inf < value < math.inf:
            raise ValueError(f"{key} must be a finite number, got {value!r}")
        if not low <= value <= high:
            raise ValueError(f"{key} must lie in [{low}, {high}], got {value!r}")
        return value
    return check


def _choice(options):
    def check(key, value):
        if value not in options:
            raise ValueError(f"unknown {key} {value!r}, expected one of {options}")
        return value
    return check


def _list(kind, item, size=None, least=1, distinct=False):
    """A list of exactly size entries, or else of at least least, each
    checked by kind under the name item."""
    def check(key, value):
        if not isinstance(value, list) or len(value) < least \
                or size not in (None, len(value)):
            raise ValueError(f"{key} must be a list of {size or f'{least} or more'} "
                             f"entries, got {value!r}")
        try:
            value = [kind(item, v) for v in value]
        except ValueError as e:
            raise ValueError(f"{key}: {e}") from None
        if distinct and len(set(value)) < len(value):
            raise ValueError(f"{key} must be distinct, got {value!r}")
        return value
    return check


# A train section holds TrainConfig's fields, each of the kind its default's type implies.
_TRAIN_KINDS = {bool: _flag, int: _count(0), float: _number(), str: _string,
                tuple: _list(_count(0), "milestone", least=0)}
_TRAIN = {f.name: (_TRAIN_KINDS[type(f.default)], f.default) for f in fields(TrainConfig)}


_SYNTH = {"seed": (_count(0), REQUIRED), "n": (_count(0), REQUIRED),
          "dims": (_count(1), REQUIRED), "classes": (_count(2), REQUIRED),
          "spread": (_number(), REQUIRED), "clusters_per_class": (_count(1), 1),
          "image_shape": (_list(_count(1), "size"), None), "split": (_string, "train")}
_FILES = {"standardize": (_flag, True), "split": (_string, "train")}
# kind -> (its generator's name in rebasin.data, the generator's arguments)
_DATASETS = {
    "blobs": ("synth_blobs", {**_SYNTH, "standardize": (_flag, True)}),
    "embedded": ("synth_embedded", {**_SYNTH, "d_eff": (_count(1), REQUIRED),
                                    "ambient": (_number(), 0.3)}),
    "idx": ("load_idx", {"images": (_string, REQUIRED), "labels": (_string, REQUIRED),
                         **_FILES}),
    "cifar": ("load_cifar_bin", {"paths": (_list(_string, "path"), REQUIRED), **_FILES}),
}
# Every kind takes hold_out/part, so that train and test slices come from one
# generation pass; separately seeded pools have unrelated centers.
_SLICE = {"kind": (_string, REQUIRED), "hold_out": (_count(1), None),
          "part": (_choice(("train", "test")), "train")}


def _dataset(key, doc):
    """A dataset doc, checked, as (generator name, its arguments, hold_out,
    part); nothing is generated."""
    kind = doc.get("kind") if isinstance(doc, dict) else doc
    gen, table = _DATASETS[_choice(tuple(_DATASETS))(f"{key} kind", kind)]
    args = _read(doc, {**table, **_SLICE}, key)
    del args["kind"]
    cut, part = args.pop("hold_out"), args.pop("part")
    if part == "test" and cut is None:
        raise ValueError(f"{key}: part 'test' needs hold_out")
    return gen, args, cut, part


def _generate(*specs):
    """The datasets that dataset specs describe (None for None), one generation
    per pool; generators are looked up on rebasin.data when called."""
    pools, out = {}, []
    for spec in specs:
        if spec is not None:
            gen, args, cut, part = spec
            key = json.dumps([gen, args], sort_keys=True)
            if key not in pools:
                pools[key] = getattr(data, gen)(**args)
            spec = pools[key] if cut is None else \
                data.hold_out(pools[key], cut)[part == "test"]
        out.append(spec)
    return out


# ---------------------------------------------------------------- plumbing

def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config must hold a JSON object")
    return doc


def _new_run_dir(out, command):
    """Claim the first free <command>-NNN directory; mkdir is atomic, so
    concurrent runs sharing an output root never claim the same one."""
    os.makedirs(out, exist_ok=True)
    i = 0
    while True:
        run = os.path.join(out, f"{command}-{i:03d}")
        try:
            os.mkdir(run)
            return run
        except FileExistsError:
            i += 1


def _write_json(path, doc):
    with _atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas():
    return np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})


def _usable_cores():
    """The cores this process may run on; os.cpu_count() can exceed a
    container's share."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _run_env():
    """What a run's bits depend on besides its config: the NumPy and BLAS
    build, the BLAS thread settings and the CPU counts (see README)."""
    blas = _blas()
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
            "cpu_count": os.cpu_count(), "usable_cores": _usable_cores()}


def _width(tasks):
    """How many tasks run at once: one per usable core while the BLAS build
    runs one thread per call, else one. BLAS reads its own variable
    (OPENBLAS_NUM_THREADS or MKL_NUM_THREADS), else OMP_NUM_THREADS; unset
    or unparsable counts as many threads, since several multi-threaded BLAS
    callers at once oversubscribe the cores and could change the bits."""
    name = (_blas().get("name") or "").lower()
    own = "OPENBLAS_NUM_THREADS" if "openblas" in name else \
        "MKL_NUM_THREADS" if "mkl" in name else "OMP_NUM_THREADS"
    value = os.environ.get(own, os.environ.get("OMP_NUM_THREADS"))
    try:
        one = int(value) == 1
    except (TypeError, ValueError):
        one = False
    return min(tasks, _usable_cores()) if one else 1


def _in_order(work, write, items, width):
    """write(item, work(item)) for every item, in rounds of width items. The
    calling thread runs a round's first item and width - 1 worker threads the
    rest, each under its own copy of the caller's context (np.errstate, for
    one). Once a round ends its results are written in order up to its
    earliest failure, so the files are those of a plain loop; that failure is
    raised once the workers have stopped, and no later round starts.

    The calling thread works too because a new thread allocates from a fresh
    malloc arena that cannot reuse what the caller has freed: each worker
    adds to the peak memory."""
    context = contextvars.copy_context()
    with ThreadPoolExecutor(max(width - 1, 1)) as pool:
        for start in range(0, len(items), width):
            first, *rest = items[start:start + width]
            later = [pool.submit(context.copy().run, work, item) for item in rest]
            result = context.copy().run(work, first)
            wait(later)
            write(first, result)
            for item, future in zip(rest, later):
                write(item, future.result())


# ---------------------------------------------------------------- subcommands

def _cmd_train(v, run):
    ds, test = _generate(v["dataset"], v["test_dataset"])
    seeds = [v["train"].seed] if v["seeds"] is None else v["seeds"]
    results = {}

    def fit(s):
        tc = replace(v["train"], seed=s)
        return train(init_params(v["model"], tc.init, s), ds, tc, test_ds=test)

    def write(s, fitted):
        model, log = fitted
        save_checkpoint(model, os.path.join(run, f"model-seed{s}.rbnc"))
        log.write_csv(os.path.join(run, f"log-seed{s}.csv"))
        summary = results[str(s)] = log.summary()
        summary["train_acc"] = summary["final_train_acc"]   # None after 0 epochs
        if test is not None:
            summary["test_acc"] = summary["final_test_acc"]

    # seeds train side by side when the cores allow (_width); with one BLAS
    # thread a seed's arithmetic does not depend on the thread that runs it
    _in_order(fit, write, seeds, _width(len(seeds)))
    _write_json(os.path.join(run, "result.json"), results)
    return EXIT_OK


def _cmd_match(v, run):
    a, b = (load_checkpoint(p) for p in v["checkpoints"])
    ds, = _generate(v["dataset"])
    match = _resolve_matcher(v["matcher"], ds, seed=v["seed"], batch_size=v["batch_size"],
                             phase=POST, max_sweeps=v["max_sweeps"])
    spec, report = match(a, b)
    _write_json(os.path.join(run, "perm.json"), {"perms": spec.to_jsonable()})
    _write_json(os.path.join(run, "report.json"),
                {"objective": report.objective, "sweeps": report.sweeps,
                 "converged": report.converged,
                 "residual_l2": report.residual_l2,
                 "solves": report.solves, "skipped": report.skipped})
    save_checkpoint(apply_perm(b, spec), os.path.join(run, "aligned.rbnc"))
    return EXIT_OK


def _cmd_curve(v, run):
    if v["grid"] and v["grid_points"]:
        raise ValueError("grid 'quick' and grid_points conflict")
    a, b = (load_checkpoint(p) for p in v["checkpoints"])
    ds, test = _generate(v["dataset"], v["test_dataset"])
    points = v["grid_points"] or 11
    report = eval_curve(a, b, ds, test_ds=test, grid=[i / (points - 1) for i in range(points)],
                        quick=bool(v["grid"]), mode=v["mode"], sequential=v["sequential"],
                        batch_size=v["batch_size"], stats_batch_size=v["stats_batch_size"])
    report.write_csv(os.path.join(run, "curve.csv"))
    _write_json(os.path.join(run, "report.json"), report.summary())
    return EXIT_OK


def _cmd_merge(v, run):
    models = [load_checkpoint(p) for p in v["checkpoints"]]
    ds, = _generate(v["dataset"])
    merged, perms = multi_match(models, strategy=v["strategy"], matcher=v["matcher"],
                                dataset=ds, iter_cap=v["iter_cap"], seed=v["seed"],
                                batch_size=v["batch_size"])
    save_checkpoint(merged, os.path.join(run, "merged.rbnc"))
    info = dict(merged.meta["merge"])
    info["perms"] = [p.to_jsonable() for p in perms]
    _write_json(os.path.join(run, "merge.json"), info)
    return EXIT_OK


def _cmd_prune(v, run):
    model = load_checkpoint(v["checkpoint"])
    ds, test = _generate(v["dataset"], v["test_dataset"])
    eval_ds = ds if test is None else test
    smap = score(model, method=v["method"],
                 dataset=ds if v["method"] == "diag_fisher" else None,
                 scale_by_weight_sq=v["scale_by_weight_sq"], exempt_first=v["exempt_first"])
    rows = []
    for s in v["sparsities"]:
        pruned = apply_mask(model, mask_from_scores(smap, float(s),
                                                    granularity=v["granularity"]))
        row = [float(s), evaluate(pruned, eval_ds)[1]]
        if v["repair"]:
            fixed = post_prune_repair(pruned, model, ds, mode=v["repair"],
                                      batch_size=v["batch_size"])
            row.append(evaluate(fixed, eval_ds)[1])
        rows.append(row)
    header = "sparsity,accuracy" + (",repaired_accuracy" if v["repair"] else "")
    with _atomic_write(os.path.join(run, "sparsity_vs_accuracy.csv")) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(x) for x in row) + "\n")
    return EXIT_OK


def _cmd_probe(v, run):
    model = load_checkpoint(v["checkpoint"])
    probe = channel_probe(model, *_generate(v["dataset"]), batch_size=v["batch_size"],
                          max_batches=v["max_batches"], with_fisher=v["with_fisher"])
    probe.write_csv(os.path.join(run, "probe.csv"))
    _write_json(os.path.join(run, "probe.json"), probe.to_jsonable())
    return EXIT_OK


def _cmd_lap(v, run):
    res = solve_lap(np.asarray(v["matrix"], dtype=np.float64), sense=v["sense"])
    if not np.isfinite(res.objective):
        raise ArithmeticError(f"assignment objective overflows float64 ({res.objective})")
    _write_json(os.path.join(run, "assignment.json"),
                {"perm": [int(i) for i in res.perm],
                 "objective": res.objective, "sense": res.sense})
    return EXIT_OK


_PAIR = {"checkpoints": (_list(_string, "checkpoint", size=2), REQUIRED)}
_CURVE = {**_PAIR, "dataset": (_dataset, REQUIRED), "test_dataset": (_dataset, None),
          "grid": (_choice(("quick",)), None), "grid_points": (_count(2), None),
          "sequential": (_flag, False), "batch_size": (_count(1), 512),
          "stats_batch_size": (_count(1), 256)}
_MATCHING = {"matcher": (_choice(MATCHERS), "weight"), "dataset": (_dataset, None),
             "seed": (_count(0), 0), "batch_size": (_count(1), 256)}
_ONE = {"checkpoint": (_string, REQUIRED), "dataset": (_dataset, REQUIRED),
           "batch_size": (_count(1), 256)}

# command -> (handler, table); main hands the handler the table's checked values
_COMMANDS = {
    "train": (_cmd_train, {
        "dataset": (_dataset, REQUIRED), "test_dataset": (_dataset, None),
        "model": (lambda key, desc: build_model(desc), REQUIRED),
        "train": (lambda key, doc: TrainConfig(**_read(doc, _TRAIN, key)), REQUIRED),
        "seeds": (_list(_count(0), "seed", distinct=True), None)}),
    "match": (_cmd_match, {**_PAIR, **_MATCHING, "max_sweeps": (_count(1), 100)}),
    "interp": (_cmd_curve, {**_CURVE, "mode": (_choice(("none",)), "none")}),
    "renorm": (_cmd_curve, {**_CURVE, "mode": (_choice(RENORM_MODES), "repair")}),
    "merge": (_cmd_merge, {
        "checkpoints": (_list(_string, "checkpoint"), REQUIRED), **_MATCHING,
        "strategy": (_choice(STRATEGIES), "reference"), "iter_cap": (_count(1), 30)}),
    "prune": (_cmd_prune, {
        **_ONE, "test_dataset": (_dataset, None),
        "method": (_choice(METHODS), "magnitude"),
        "granularity": (_choice(GRANULARITIES), "global"),
        "sparsities": (_list(_number(0, 1), "sparsity"), [0.0, 0.25, 0.5, 0.75, 0.9]),
        "repair": (_choice(POST_PRUNE_MODES), None),
        "exempt_first": (_flag, False), "scale_by_weight_sq": (_flag, True)}),
    "probe": (_cmd_probe, {**_ONE, "max_batches": (_count(1), None),
                           "with_fisher": (_flag, True)}),
    "lap": (_cmd_lap, {"matrix": (_list(_list(_number(), "entry"), "row"), REQUIRED),
                       "sense": (_choice(SENSES), "minimize")}),
}


# ---------------------------------------------------------------- entry

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rebasin",
        description="train, align, interpolate, re-normalize, and prune "
                    "small networks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", default="runs", help="output root directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--quick", action="store_true",
                       help="3-point grid {0, 0.5, 1}")
        p.add_argument("--mode", help="re-normalization / repair mode")
        p.add_argument("--strategy", help="merge strategy")
        p.add_argument("--sparsity", type=float)
        p.add_argument("--grid-points", type=int, dest="grid_points")
    return parser


def _apply_overrides(args, cfg):
    """Fold flags into the config document so the snapshot is self-contained."""
    if args.seed is not None:
        if args.command == "train":
            cfg.setdefault("train", {})["seed"] = args.seed
            cfg["seeds"] = [args.seed]
        else:
            cfg["seed"] = args.seed
    if args.quick:
        cfg["grid"] = "quick"
        cfg.pop("grid_points", None)
    if args.grid_points is not None:
        if args.quick:
            raise ValueError("--quick and --grid-points conflict")
        cfg["grid_points"] = args.grid_points
    if args.mode is not None:
        if args.command == "prune":
            cfg["repair"] = args.mode
        else:
            cfg["mode"] = args.mode
    if args.strategy is not None:
        cfg["strategy"] = args.strategy
    if args.sparsity is not None:
        cfg["sparsities"] = [args.sparsity]
    return cfg


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(args, _load_config(args.config))
        run = _new_run_dir(args.out, args.command)
        _write_json(os.path.join(run, "config.json"), cfg)
        handler, table = _COMMANDS[args.command]
        code = handler(_read(cfg, table, f"{args.command} config"), run)
        _write_json(os.path.join(run, "env.json"), _run_env())
        print(run)
        return code
    except (DivergedError, ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
