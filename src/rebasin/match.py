"""Permutation alignment of networks that share an architecture.

A PermSpec assigns one unit permutation per hidden boundary.  Vectors use
gather convention: after applying vector v, new unit i is old unit v[i].
Producer rows, attached normalization parameters, and consumer input columns
move together, so applying any PermSpec leaves the network function unchanged.
"""
import warnings
from dataclasses import dataclass, field

import numpy as np

from .lap import solve_lap
from .model import POST, PRE, _check_same_arch, forward, wiring
from .ops import DEAD_STD, Moments
from .probes import l2_distance

_NORM_PARAM_SUFFIXES = ("gamma", "beta", "scale", "shift",
                        "running_mean", "running_var")


@dataclass
class PermSpec:
    perms: dict  # boundary id -> int vector

    def to_jsonable(self):
        return {k: [int(i) for i in v] for k, v in self.perms.items()}

    @classmethod
    def from_jsonable(cls, d):
        return cls(perms={k: np.asarray(v, dtype=np.int64) for k, v in d.items()})


@dataclass
class MatchReport:
    objective: list = field(default_factory=list)
    sweeps: int = 0
    converged: bool = False
    residual_l2: float = 0.0


def identity_perm(model):
    return PermSpec(perms={bid: np.arange(n) for bid, n in model.boundary_map})


def random_perm(model, seed=0):
    rng = np.random.default_rng(seed)
    return PermSpec(perms={bid: rng.permutation(n) for bid, n in model.boundary_map})


def is_identity(spec):
    return all(np.array_equal(v, np.arange(len(v))) for v in spec.perms.values())


def _check_spec(model, spec):
    want = dict(model.boundary_map)
    if set(spec.perms) != set(want):
        raise ValueError(f"permutation boundaries {sorted(spec.perms)} do not "
                         f"match model boundaries {sorted(want)}")
    for bid, v in spec.perms.items():
        v = np.asarray(v)
        if v.shape != (want[bid],) or not np.array_equal(np.sort(v), np.arange(want[bid])):
            raise ValueError(f"{bid}: not a permutation of {want[bid]} units")


def invert(spec):
    out = {}
    for bid, v in spec.perms.items():
        inv = np.empty_like(v)
        inv[v] = np.arange(len(v))
        out[bid] = inv
    return PermSpec(perms=out)


def compose(p, q):
    """Permutation equivalent to applying q first, then p."""
    if set(p.perms) != set(q.perms):
        raise ValueError("cannot compose permutations over different boundaries")
    return PermSpec(perms={bid: q.perms[bid][p.perms[bid]] for bid in p.perms})


def apply_perm(model, spec):
    """New model with every boundary's units reordered by spec.

    The reordering touches producer output rows, attached norm parameters,
    tracked boundary statistics, and consumer input columns, so the returned
    model computes the same function.
    """
    _check_spec(model, spec)
    out = model.copy()
    wir = wiring(model)
    p = out.params
    for bid, v in spec.perms.items():
        b = wir[bid]
        prod = model.layers[b.producer]
        p[f"{prod.name}.w"] = p[f"{prod.name}.w"][v]
        if f"{prod.name}.b" in p:
            p[f"{prod.name}.b"] = p[f"{prod.name}.b"][v]
        for ni in b.norms:
            nname = model.layers[ni].name
            for suf in _NORM_PARAM_SUFFIXES:
                key = f"{nname}.{suf}"
                if key in p:
                    p[key] = p[key][v]
        for key in (f"stats.{bid}.mean", f"stats.{bid}.var"):
            if key in p:
                p[key] = p[key][v]
        cons = model.layers[b.consumer]
        w = p[f"{cons.name}.w"]
        if cons.kind == "dense":
            # flatten keeps channel-major order, so each unit owns a
            # contiguous block of consumer_spatial columns
            w3 = w.reshape(w.shape[0], b.units, b.consumer_spatial)
            p[f"{cons.name}.w"] = np.ascontiguousarray(w3[:, v, :]).reshape(w.shape)
        else:
            p[f"{cons.name}.w"] = np.ascontiguousarray(w[:, v])
    return out


# ---------------------------------------------------------------- weight matching

def _feeder(wir, layer_idx):
    for bid, b in wir.items():
        if b.consumer == layer_idx:
            return bid
    return None


def _score_matrix(a, b, wir, bid, perms):
    """Cross inner products between a's units and b's units at one boundary,
    with b's other boundaries viewed through the current permutations."""
    bnd = wir[bid]
    units = bnd.units
    score = np.zeros((units, units))

    prod = a.layers[bnd.producer]
    aw = a.params[f"{prod.name}.w"].astype(np.float64)
    bw = b.params[f"{prod.name}.w"].astype(np.float64)
    up = _feeder(wir, bnd.producer)
    if up is not None:
        vu = perms[up]
        if prod.kind == "dense":
            s_up = wir[up].consumer_spatial
            bw = bw.reshape(units, len(vu), s_up)[:, vu, :]
        else:
            bw = bw[:, vu]
    score += aw.reshape(units, -1) @ bw.reshape(units, -1).T

    vec_keys = []
    if f"{prod.name}.b" in a.params:
        vec_keys.append(f"{prod.name}.b")
    for ni in bnd.norms:
        nname = a.layers[ni].name
        for suf in ("gamma", "beta", "scale", "shift"):  # running stats stay out
            key = f"{nname}.{suf}"
            if key in a.params:
                vec_keys.append(key)
    for key in vec_keys:
        score += np.outer(a.params[key].astype(np.float64),
                          b.params[key].astype(np.float64))

    cons = a.layers[bnd.consumer]
    acw = a.params[f"{cons.name}.w"].astype(np.float64)
    bcw = b.params[f"{cons.name}.w"].astype(np.float64)
    if cons.boundary is not None:
        bcw = bcw[perms[cons.boundary]]
    if cons.kind == "dense":
        s = bnd.consumer_spatial
        a3 = acw.reshape(-1, units, s)
        b3 = bcw.reshape(-1, units, s)
        score += np.einsum("ous,ovs->uv", a3, b3)
    else:
        a3 = acw.reshape(acw.shape[0], units, -1)
        b3 = bcw.reshape(bcw.shape[0], units, -1)
        score += np.einsum("ouk,ovk->uv", a3, b3)
    return score


def weight_match(model_a, model_b, seed=0, max_sweeps=100):
    """Align model_b's units to model_a by coordinate descent over boundaries.

    Each step solves one boundary's assignment exactly while the others stay
    fixed, which can only shrink the parameter-space residual.  Boundaries are
    visited in a fresh seeded random order every sweep; matching stops when a
    full sweep changes nothing.
    """
    _check_same_arch(model_a, model_b)
    wir = wiring(model_a)
    bids = [bid for bid, _ in model_a.boundary_map]
    perms = {bid: np.arange(n) for bid, n in model_a.boundary_map}
    rng = np.random.default_rng(seed)

    def residual():
        return l2_distance(model_a, apply_perm(model_b, PermSpec(perms=dict(perms))))

    report = MatchReport(objective=[residual()])
    for _ in range(max_sweeps):
        changed = False
        for bid in rng.permutation(bids):
            res = solve_lap(_score_matrix(model_a, model_b, wir, bid, perms),
                            sense="maximize")
            if not np.array_equal(res.perm, perms[bid]):
                perms[bid] = res.perm
                changed = True
        report.sweeps += 1
        report.objective.append(residual())
        if not changed:
            report.converged = True
            break
    report.residual_l2 = report.objective[-1]
    return PermSpec(perms=perms), report


# ---------------------------------------------------------------- activation matching

def streaming_activation_stats(model_a, model_b, dataset, batch_size=256,
                               phase=POST):
    """Single-pass per-boundary activation statistics for a model pair.

    Feeds identical batches (equal-size, remainder dropped) to both models,
    reduces conv maps by spatial mean, and merges batches through float64
    Moments accumulators. Returns, per boundary: mean/std per unit for both
    models and the cross-correlation matrix, with dead units' (std at most
    DEAD_STD) rows and columns zeroed.
    """
    if phase not in (PRE, POST):
        raise ValueError(f"phase must be {PRE!r} or {POST!r}")
    _check_same_arch(model_a, model_b)
    if dataset.num_batches(batch_size, drop_last=True) < 2:
        raise ValueError("activation statistics need at least two equal-size batches")
    bids = [bid for bid, _ in model_a.boundary_map]
    taps = [(bid, phase) for bid in bids]
    acc = {bid: (Moments(), Moments(), Moments()) for bid in bids}  # a, b, a x b
    for xb, _ in dataset.batches(batch_size, shuffle=False, drop_last=True):
        _, ta = forward(model_a, xb, taps=taps)
        _, tb = forward(model_b, xb, taps=taps)
        for tap_a, tap_b in zip(ta, tb):
            xa = tap_a.value.astype(np.float64)
            xv = tap_b.value.astype(np.float64)
            if xa.ndim == 4:
                xa = xa.mean(axis=(2, 3))
                xv = xv.mean(axis=(2, 3))
            ma, mb, mab = acc[tap_a.boundary_id]
            ma.add(xa)
            mb.add(xv)
            mab.add(xa, xv)

    out = {}
    for bid in bids:
        ma, mb, mab = acc[bid]
        std_a, std_b = ma.std, mb.std
        dead_a, dead_b = std_a <= DEAD_STD, std_b <= DEAD_STD
        if dead_a.any() or dead_b.any():
            warnings.warn(
                f"{bid}: {int(dead_a.sum())}+{int(dead_b.sum())} units with "
                "zero variance excluded from correlation matching")
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = mab.cov / np.outer(std_a, std_b)
        corr[dead_a, :] = 0.0
        corr[:, dead_b] = 0.0
        out[bid] = {"corr": corr, "mean_a": ma.mean, "std_a": std_a,
                    "mean_b": mb.mean, "std_b": std_b, "dead_a": dead_a,
                    "dead_b": dead_b}
    return out


def activation_match(model_a, model_b, dataset, batch_size=256, phase=POST):
    """Align model_b's units to model_a by per-unit activation correlation."""
    stats = streaming_activation_stats(model_a, model_b, dataset,
                                       batch_size=batch_size, phase=phase)
    perms, total = {}, 0.0
    for bid, _ in model_a.boundary_map:
        res = solve_lap(stats[bid]["corr"], sense="maximize")
        perms[bid] = res.perm
        total += res.objective
    spec = PermSpec(perms=perms)
    report = MatchReport(objective=[total], sweeps=1, converged=True,
                         residual_l2=l2_distance(model_a, apply_perm(model_b, spec)))
    return spec, report


# ---------------------------------------------------------------- multi-model merging

def mean_models(models):
    """Elementwise float64 mean of all parameter tensors, including running
    statistics, cast back to the stored dtype."""
    out = models[0].copy()
    for k, v in out.params.items():
        acc = np.zeros(v.shape, dtype=np.float64)
        for m in models:
            acc += m.params[k]
        out.params[k] = (acc / len(models)).astype(v.dtype)
    return out


def _resolve_matcher(matcher, dataset, seed, batch_size, phase, max_sweeps):
    if callable(matcher):
        return matcher
    if matcher == "weight":
        return lambda target, src: weight_match(target, src, seed=seed,
                                                max_sweeps=max_sweeps)
    if matcher == "activation":
        if dataset is None:
            raise ValueError("activation matcher needs a dataset")
        return lambda target, src: activation_match(target, src, dataset,
                                                    batch_size=batch_size,
                                                    phase=phase)
    raise ValueError(f"unknown matcher {matcher!r}")


def multi_match(models, strategy="reference", matcher="weight", dataset=None,
                iter_cap=30, seed=0, batch_size=256, phase=POST, max_sweeps=100):
    """Merge several same-architecture models into one by aligning units.

    reference: match every model to the first.
    sequential: match each model to the previous one after its permutation.
    iterative: repeatedly re-match each model (random order) against the mean
    of the others, until a full pass changes no permutation or iter_cap runs out.
    Returns the mean of the aligned models and the per-model permutations.
    """
    if not models:
        raise ValueError("need at least one model")
    for m in models[1:]:
        _check_same_arch(models[0], m)
    n = len(models)
    if n == 1:
        merged = models[0].copy()
        merged.meta["merge"] = {"strategy": strategy, "iterations": 0,
                                "converged": True}
        return merged, [identity_perm(models[0])]

    match = _resolve_matcher(matcher, dataset, seed, batch_size, phase, max_sweeps)
    perms = [identity_perm(models[0]) for _ in models]
    iterations, converged = 1, True

    if strategy == "reference":
        for i in range(1, n):
            perms[i] = match(models[0], models[i])[0]
    elif strategy == "sequential":
        ref = models[0]
        for i in range(1, n):
            perms[i] = match(ref, models[i])[0]
            ref = apply_perm(models[i], perms[i])
    elif strategy == "iterative":
        rng = np.random.default_rng(seed)
        converged = False
        iterations = 0
        for _ in range(iter_cap):
            iterations += 1
            changed = False
            for i in rng.permutation(n):
                target = mean_models([apply_perm(models[j], perms[j])
                                      for j in range(n) if j != i])
                p_new = match(target, models[i])[0]
                if not all(np.array_equal(p_new.perms[k], perms[i].perms[k])
                           for k in p_new.perms):
                    perms[i] = p_new
                    changed = True
            if not changed:
                converged = True
                break
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    merged = mean_models([apply_perm(m, p) for m, p in zip(models, perms)])
    merged.meta["merge"] = {"strategy": strategy, "iterations": iterations,
                            "converged": converged}
    return merged, perms
