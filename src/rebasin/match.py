"""Permutation alignment of networks that share an architecture.

A PermSpec assigns one unit permutation per hidden boundary.  Vectors use
gather convention: after applying vector v, new unit i is old unit v[i].
Producer rows, attached normalization parameters, and consumer input columns
move together, so applying any PermSpec leaves the network function unchanged.
Which tensor axes move is written once, in _perm_axes; the same table drives
apply_perm, weight_match's score matrices and its skip rule.
"""
import warnings
from dataclasses import dataclass, field

import numpy as np

from .lap import _warm_start, solve_lap
from .model import (POST, PRE, _check_same_arch, _inputs, forward, layer_tensors, stat_key,
                    wiring)
from .ops import DEAD_STD, Moments
from .probes import l2_distance

MATCHERS = ("weight", "activation")
STRATEGIES = ("reference", "sequential", "iterative")


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
    solves: int = 0         # LAP solves run
    skipped: int = 0        # boundary visits whose solve was known to be a no-op


def identity_perm(model):
    return PermSpec(perms={bid: np.arange(n) for bid, n in model.boundary_map})


def random_perm(model, seed=0):
    rng = np.random.default_rng(seed)
    return PermSpec(perms={bid: rng.permutation(n) for bid, n in model.boundary_map})


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


def _perm_axes(layers, wir):
    """{bid: [(tensor name, axis)]}: every tensor axis a boundary's
    permutation moves. The producer's and its normalization layers' tensors
    and the tracked statistics move along axis 0, the consumer's weight along
    axis 1. Tracked statistics are listed whether or not a model holds them.

    Under the unit view (_unit_view) a tensor's axis counts the boundary's
    units, so dense, conv and flatten-then-dense consumers need no case of
    their own.
    """
    table = {}
    for bid, b in wir.items():
        names = [k for i in [b.producer] + b.norms for k in layer_tensors(layers[i])]
        names += [f"stats.{bid}.mean", f"stats.{bid}.var"]
        table[bid] = [(k, 0) for k in names] + [(f"{layers[b.consumer].name}.w", 1)]
    return table


def _unit_view(arr, axis, units):
    """arr reshaped to (units, -1) for axis 0 and (rows, units, -1) for
    axis 1. flatten keeps channel-major order, so each unit of a dense
    consumer after a conv owns a contiguous block of columns."""
    return arr.reshape(arr.shape[:axis] + (units, -1))


def _gather(arr, axis, units, v):
    """arr's unit view with unit i taken from unit v[i] along axis. Fancy
    indexing, not np.take: along axis 1 it lays the copy out unit-major,
    which _term's tensordot reads as one GEMM operand without a second
    copy. The layout picks the BLAS path, and with it the last bits."""
    return _unit_view(arr, axis, units)[(slice(None),) * axis + (v,)]


def _others(axes, bid, name):
    """(boundary, axis) of every other boundary's permutation on tensor name."""
    return [(ob, ax) for ob, entries in axes.items() if ob != bid
            for n, ax in entries if n == name]


def _score_table(layers, wir):
    """{bid: [(tensor name, axis, others)]}: the entries of _perm_axes that
    weight_match scores, each with its _others, the boundaries whose
    permutations its term reads. Measured statistics stay out, as they do
    in l2_distance; no other boundary moves them."""
    axes = _perm_axes(layers, wir)
    return {bid: [(name, axis, _others(axes, bid, name)) for name, axis in entries
                  if not stat_key(name)]
            for bid, entries in axes.items()}


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
    for bid, entries in _perm_axes(model.layers, wir).items():
        for name, axis in entries:
            if name in p:
                t = p[name]
                p[name] = np.ascontiguousarray(
                    _gather(t, axis, wir[bid].units, spec.perms[bid])).reshape(t.shape)
    return out


# ---------------------------------------------------------------- weight matching

def _term(pa, pb, wir, bid, entry, perms):
    """One tensor's share of bid's score matrix: a's units against b's
    units, with b's other boundaries on that tensor gathered through perms.
    One BLAS product for either axis; under the unit view it covers dense,
    conv and flatten-then-dense consumers alike."""
    name, axis, others = entry
    units = wir[bid].units
    b = pb[name]
    for ob, ax in others:
        b = _gather(b, ax, wir[ob].units, perms[ob])
    a, b = _unit_view(pa[name], axis, units), _unit_view(b, axis, units)
    return a @ b.T if axis == 0 else np.tensordot(a, b, axes=([0, 2], [0, 2]))


def _score_matrix(layers, pa, pb, wir, bid, perms):
    """Cross inner products between a's units and b's units at one boundary,
    with b's other boundaries viewed through the current permutations.
    pa and pb are the two models' parameters cast to float64. The terms are
    summed in _perm_axes order."""
    units = wir[bid].units
    score = np.zeros((units, units))
    for entry in _score_table(layers, wir)[bid]:
        score += _term(pa, pb, wir, bid, entry, perms)
    return score


def weight_match(model_a, model_b, seed=0, max_sweeps=100):
    """Align model_b's units to model_a by coordinate descent over boundaries.

    Each step solves one boundary's assignment exactly while the others stay
    fixed, which can only shrink the parameter-space residual.  Boundaries are
    visited in a fresh seeded random order every sweep; matching stops when a
    full sweep changes nothing.

    A boundary's score matrix depends only on its neighbours' permutations, so
    a visit where neither changed since the boundary's last solve would repeat
    that solve exactly and is skipped. Each boundary's solve starts from the
    column duals its previous solve ended at. The tie-broken result does not
    depend on those duals, except where two assignments' objectives differ by
    more than the solver's tightness tolerance and less than n times it
    (see `lap`).

    Each score term is one tensor's product (_term). It is computed again
    only when a boundary it reads has changed its permutation; the others
    are reused, and summing them in table order gives bitwise the
    from-scratch _score_matrix. The memo lives for one call.
    """
    if isinstance(max_sweeps, bool) or not isinstance(max_sweeps, (int, np.integer)) \
            or max_sweeps < 1:
        raise ValueError(f"max_sweeps must be an integer >= 1, got {max_sweeps!r}")
    _check_same_arch(model_a, model_b)
    wir = wiring(model_a)
    layers = model_a.layers
    bids = [bid for bid, _ in model_a.boundary_map]
    perms = {bid: np.arange(n) for bid, n in model_a.boundary_map}
    pa = {k: v.astype(np.float64) for k, v in model_a.params.items()}
    pb = {k: v.astype(np.float64) for k, v in model_b.params.items()}
    table = _score_table(layers, wir)
    neighbours = {bid: [ob for _, _, others in table[bid] for ob, _ in others]
                  for bid in bids}
    version = dict.fromkeys(bids, 0)   # bumped whenever a permutation changes
    solved_at = {}                      # neighbour versions at each last solve
    terms = {}                          # (bid, tensor) -> (versions read, term)
    duals = dict.fromkeys(bids)
    rng = np.random.default_rng(seed)

    def score(bid):
        units = wir[bid].units
        out = np.zeros((units, units))
        for entry in table[bid]:
            at = tuple(version[ob] for ob, _ in entry[2])
            key = (bid, entry[0])
            if key not in terms or terms[key][0] != at:
                terms[key] = (at, _term(pa, pb, wir, bid, entry, perms))
            out += terms[key][1]
        return out

    def residual():
        return l2_distance(model_a, apply_perm(model_b, PermSpec(perms=dict(perms))))

    report = MatchReport(objective=[residual()])
    for _ in range(max_sweeps):
        changed = False
        for bid in rng.permutation(bids):
            at = tuple(version[n] for n in neighbours[bid])
            if solved_at.get(bid) == at:
                report.skipped += 1
                continue
            solved_at[bid] = at
            cost = _warm_start(score(bid), duals[bid])
            res = solve_lap(cost, sense="maximize")
            duals[bid] = cost.duals
            report.solves += 1
            if not np.array_equal(res.perm, perms[bid]):
                perms[bid] = res.perm
                version[bid] += 1
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
    batches = dataset.num_batches(batch_size, drop_last=True)
    if batches < 2:
        raise ValueError(f"activation statistics need at least two equal-size batches: "
                         f"{dataset.n} rows at batch_size {batch_size} give {batches}")
    bids = [bid for bid, _ in model_a.boundary_map]
    taps = [(bid, phase) for bid in bids]
    acc = {bid: (Moments(), Moments(), Moments()) for bid in bids}  # a, b, a x b
    for _, xb, _ in _inputs(dataset, batch_size, drop_last=True):
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
                         solves=len(perms),
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
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
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
    else:
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

    merged = mean_models([apply_perm(m, p) for m, p in zip(models, perms)])
    merged.meta["merge"] = {"strategy": strategy, "iterations": iterations,
                            "converged": converged}
    return merged, perms
