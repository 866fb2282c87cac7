"""Command line surface: each subcommand wires library modules into one
experiment recipe and writes its outputs into a fresh, append-only run
directory together with the effective config snapshot that reproduces it.

Exit codes: 0 success, 2 config/validation trouble, 3 numerical failure.
"""
import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .checkpoint import _atomic_write, load_checkpoint, save_checkpoint
from .lap import solve_lap
from .match import _resolve_matcher, apply_perm, multi_match
from .model import POST, NonFiniteError, build_model
from .probes import channel_probe
from .prune import apply_mask, mask_from_scores, post_prune_repair, score
from .renorm import RENORM_MODES, eval_curve
from .train import DivergedError, TrainConfig, evaluate, init_params, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

STRATEGIES = ("reference", "sequential", "iterative")


# ---------------------------------------------------------------- plumbing

def _check_keys(doc, allowed, required, ctx):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise ValueError(f"{ctx}: missing keys {sorted(missing)}")


def _count(key, value, low=1):
    """A config field's value, checked and not coerced: an integer (a bool
    is none) of at least low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def _flag(key, value):
    """A config field's value, checked and not coerced: a JSON bool."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _dataset(doc, pools=None):
    """The dataset a config doc names. pools, a dict that lives for one
    command, keeps each generated pool under its generation arguments (the
    doc without hold_out/part), so the train and test parts of one pool cost
    one generation."""
    from .data import hold_out
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("dataset config must be a dict with a 'kind'")
    rest = {k: v for k, v in doc.items() if k not in ("hold_out", "part")}
    # Synthetic kinds accept hold_out/part so train and test slices come from
    # one generation pass; separately seeded pools have unrelated centers.
    cut = doc.get("hold_out")
    part = doc.get("part", "train")
    if part not in ("train", "test"):
        raise ValueError(f"part must be 'train' or 'test', got {part!r}")
    if part == "test" and cut is None:
        raise ValueError("part 'test' needs hold_out")
    pools = {} if pools is None else pools
    key = json.dumps(rest, sort_keys=True)
    if key not in pools:
        pools[key] = _pool(rest.pop("kind"), rest)
    if cut is None:
        return pools[key]
    train, test = hold_out(pools[key], _count("hold_out", cut))
    return test if part == "test" else train


def _pool(kind, rest):
    from .data import load_cifar_bin, load_idx, synth_blobs, synth_embedded
    if kind == "blobs":
        _check_keys(rest, {"seed", "n", "dims", "classes", "spread",
                           "clusters_per_class", "image_shape", "standardize",
                           "split"},
                    {"seed", "n", "dims", "classes", "spread"}, "blobs dataset")
        if rest.get("image_shape") is not None:
            rest["image_shape"] = tuple(rest["image_shape"])
        return synth_blobs(**rest)
    if kind == "embedded":
        _check_keys(rest, {"seed", "n", "dims", "d_eff", "classes", "spread",
                           "clusters_per_class", "ambient", "image_shape",
                           "split"},
                    {"seed", "n", "dims", "d_eff", "classes", "spread"},
                    "embedded dataset")
        if rest.get("image_shape") is not None:
            rest["image_shape"] = tuple(rest["image_shape"])
        return synth_embedded(**rest)
    if kind == "idx":
        _check_keys(rest, {"images", "labels", "standardize", "split"},
                    {"images", "labels"}, "idx dataset")
        return load_idx(rest["images"], rest["labels"],
                        standardize=rest.get("standardize", True),
                        split=rest.get("split", "train"))
    if kind == "cifar":
        _check_keys(rest, {"paths", "standardize", "split"}, {"paths"},
                    "cifar dataset")
        return load_cifar_bin(rest["paths"],
                              standardize=rest.get("standardize", True),
                              split=rest.get("split", "train"))
    raise ValueError(f"unknown dataset kind {kind!r}")


def _train_test(cfg):
    """A config's 'dataset' and its 'test_dataset' (None when absent), with
    one generation for both parts of a shared pool."""
    pools = {}
    ds = _dataset(cfg["dataset"], pools)
    test = _dataset(cfg["test_dataset"], pools) if "test_dataset" in cfg else None
    return ds, test


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


def _load_models(paths, want=None):
    if want is not None and len(paths) != want:
        raise ValueError(f"need exactly {want} checkpoints, got {len(paths)}")
    return [load_checkpoint(p) for p in paths]


def _grid(cfg):
    if cfg.get("grid") == "quick":
        return None, True
    points = _count("grid_points", cfg.get("grid_points", 11), low=2)
    return [i / (points - 1) for i in range(points)], False


# ---------------------------------------------------------------- subcommands

def _cmd_train(cfg, run):
    _check_keys(cfg, {"dataset", "test_dataset", "model", "train", "seeds"},
                {"dataset", "model", "train"}, "train config")
    ds, test = _train_test(cfg)
    base = TrainConfig(**cfg["train"])
    seeds = [_count("seeds", s, low=0) for s in cfg.get("seeds", [base.seed])]
    results = {}
    for s in seeds:
        tc = replace(base, seed=s)
        model = init_params(build_model(cfg["model"]), tc.init, s)
        model, log = train(model, ds, tc, test_ds=test)
        save_checkpoint(model, os.path.join(run, f"model-seed{s}.rbnc"))
        log.write_csv(os.path.join(run, f"log-seed{s}.csv"))
        summary = results[str(s)] = log.summary()
        summary["train_acc"] = summary["final_train_acc"]   # None after 0 epochs
        if test is not None:
            summary["test_acc"] = summary["final_test_acc"]
    _write_json(os.path.join(run, "result.json"), results)
    return EXIT_OK


def _cmd_match(cfg, run):
    _check_keys(cfg, {"checkpoints", "matcher", "dataset", "seed",
                      "max_sweeps", "batch_size"},
                {"checkpoints"}, "match config")
    a, b = _load_models(cfg["checkpoints"], want=2)
    match = _resolve_matcher(cfg.get("matcher", "weight"),
                             _dataset(cfg["dataset"]) if "dataset" in cfg else None,
                             seed=_count("seed", cfg.get("seed", 0), low=0),
                             batch_size=_count("batch_size", cfg.get("batch_size", 256)),
                             phase=POST,
                             max_sweeps=_count("max_sweeps", cfg.get("max_sweeps", 100)))
    spec, report = match(a, b)
    _write_json(os.path.join(run, "perm.json"), {"perms": spec.to_jsonable()})
    _write_json(os.path.join(run, "report.json"),
                {"objective": report.objective, "sweeps": report.sweeps,
                 "converged": report.converged,
                 "residual_l2": report.residual_l2,
                 "solves": report.solves, "skipped": report.skipped})
    save_checkpoint(apply_perm(b, spec), os.path.join(run, "aligned.rbnc"))
    return EXIT_OK


def _cmd_curve(cfg, run, default_mode):
    _check_keys(cfg, {"checkpoints", "dataset", "test_dataset", "grid",
                      "grid_points", "mode", "sequential", "batch_size",
                      "stats_batch_size"},
                {"checkpoints", "dataset"}, "curve config")
    a, b = _load_models(cfg["checkpoints"], want=2)
    ds, test = _train_test(cfg)
    grid, quick = _grid(cfg)
    report = eval_curve(a, b, ds, test_ds=test, grid=grid, quick=quick,
                        mode=cfg.get("mode", default_mode),
                        sequential=_flag("sequential", cfg.get("sequential", False)),
                        batch_size=_count("batch_size", cfg.get("batch_size", 512)),
                        stats_batch_size=_count("stats_batch_size",
                                                cfg.get("stats_batch_size", 256)))
    report.write_csv(os.path.join(run, "curve.csv"))
    _write_json(os.path.join(run, "report.json"), report.summary())
    return EXIT_OK


def _cmd_interp(cfg, run):
    if cfg.get("mode", "none") != "none":
        raise ValueError("interp always runs mode 'none'; use renorm instead")
    return _cmd_curve(cfg, run, default_mode="none")


def _cmd_renorm(cfg, run):
    return _cmd_curve(cfg, run, default_mode="repair")


def _cmd_merge(cfg, run):
    _check_keys(cfg, {"checkpoints", "strategy", "matcher", "iter_cap",
                      "dataset", "seed", "batch_size"},
                {"checkpoints"}, "merge config")
    models = _load_models(cfg["checkpoints"])
    strategy = cfg.get("strategy", "reference")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, "
                         f"expected one of {STRATEGIES}")
    ds = _dataset(cfg["dataset"]) if "dataset" in cfg else None
    merged, perms = multi_match(models, strategy=strategy,
                                matcher=cfg.get("matcher", "weight"),
                                dataset=ds,
                                iter_cap=_count("iter_cap", cfg.get("iter_cap", 30)),
                                seed=_count("seed", cfg.get("seed", 0), low=0),
                                batch_size=_count("batch_size", cfg.get("batch_size", 256)))
    save_checkpoint(merged, os.path.join(run, "merged.rbnc"))
    info = dict(merged.meta["merge"])
    info["perms"] = [p.to_jsonable() for p in perms]
    _write_json(os.path.join(run, "merge.json"), info)
    return EXIT_OK


def _cmd_prune(cfg, run):
    _check_keys(cfg, {"checkpoint", "dataset", "test_dataset", "method",
                      "granularity", "sparsities", "repair", "exempt_first",
                      "scale_by_weight_sq", "batch_size"},
                {"checkpoint", "dataset"}, "prune config")
    model = load_checkpoint(cfg["checkpoint"])
    ds, test = _train_test(cfg)
    eval_ds = ds if test is None else test
    method = cfg.get("method", "magnitude")
    repair_mode = cfg.get("repair")
    if repair_mode is not None and repair_mode not in ("reset", "repair"):
        raise ValueError(f"unknown repair mode {repair_mode!r}")
    batch_size = _count("batch_size", cfg.get("batch_size", 256))
    smap = score(model, method=method,
                 dataset=ds if method == "diag_fisher" else None,
                 scale_by_weight_sq=_flag("scale_by_weight_sq",
                                          cfg.get("scale_by_weight_sq", True)),
                 exempt_first=_flag("exempt_first", cfg.get("exempt_first", False)))
    rows = []
    for s in cfg.get("sparsities", [0.0, 0.25, 0.5, 0.75, 0.9]):
        mask = mask_from_scores(smap, float(s),
                                granularity=cfg.get("granularity", "global"))
        pruned = apply_mask(model, mask)
        row = [float(s), evaluate(pruned, eval_ds)[1]]
        if repair_mode:
            fixed = post_prune_repair(pruned, model, ds, mode=repair_mode,
                                      batch_size=batch_size)
            row.append(evaluate(fixed, eval_ds)[1])
        rows.append(row)
    header = "sparsity,accuracy" + (",repaired_accuracy" if repair_mode else "")
    with _atomic_write(os.path.join(run, "sparsity_vs_accuracy.csv")) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    return EXIT_OK


def _cmd_probe(cfg, run):
    _check_keys(cfg, {"checkpoint", "dataset", "batch_size", "max_batches",
                      "with_fisher"},
                {"checkpoint", "dataset"}, "probe config")
    model = load_checkpoint(cfg["checkpoint"])
    probe = channel_probe(model, _dataset(cfg["dataset"]),
                          batch_size=_count("batch_size", cfg.get("batch_size", 256)),
                          max_batches=cfg.get("max_batches"),
                          with_fisher=_flag("with_fisher", cfg.get("with_fisher", True)))
    probe.write_csv(os.path.join(run, "probe.csv"))
    _write_json(os.path.join(run, "probe.json"), probe.to_jsonable())
    return EXIT_OK


def _cmd_lap(cfg, run):
    _check_keys(cfg, {"matrix", "sense"}, {"matrix"}, "lap config")
    res = solve_lap(np.asarray(cfg["matrix"], dtype=np.float64),
                    sense=cfg.get("sense", "minimize"))
    _write_json(os.path.join(run, "assignment.json"),
                {"perm": [int(i) for i in res.perm],
                 "objective": res.objective, "sense": res.sense})
    return EXIT_OK


_HANDLERS = {
    "train": _cmd_train,
    "match": _cmd_match,
    "interp": _cmd_interp,
    "renorm": _cmd_renorm,
    "merge": _cmd_merge,
    "prune": _cmd_prune,
    "probe": _cmd_probe,
    "lap": _cmd_lap,
}


# ---------------------------------------------------------------- entry

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rebasin",
        description="train, align, interpolate, re-normalize, and prune "
                    "small networks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
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
        if args.command in ("interp", "renorm") and \
                cfg.get("mode", "none" if args.command == "interp" else "repair") \
                not in RENORM_MODES:
            raise ValueError(f"unknown mode {cfg.get('mode')!r}")
        run = _new_run_dir(args.out, args.command)
        _write_json(os.path.join(run, "config.json"), cfg)
        code = _HANDLERS[args.command](cfg, run)
        print(run)
        return code
    except (DivergedError, NonFiniteError, FloatingPointError,
            np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
