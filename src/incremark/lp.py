"""Linear programming over the branch relaxation: feasibility, bound
tightening, the input-box tightening variant, and the exact decision of a
branch with every ReLU decided.

The relaxation's variables are the network neurons only. Every constraint
row gets a fresh slack variable whose bounds encode the relation:

    affine layer        s = pre - W.prev          in [b, b]
    decided-on ReLU     s = post - pre            in [0, 0]
    decided-off ReLU    (post's own bounds pinned to [0, 0], no row)
    uncertain ReLU      s1 = post - pre           in [0, +inf)
                        s2 = post - k.pre         in (-inf, -k.l],  k = u/(u-l)
    negated property    s = a.y                   in [threshold, +inf)

The solver is the bounded-variable simplex from the simplex module: phase 1
repairs bound violations (Bland's rule, so it terminates), phase 2 optimizes
single variables by reduced costs with a ratio test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import EPS_LP, EPS_PIVOT, LP_ITER_FACTOR
from .deeppoly import NONNEG, Bounds, analyze
from .model import witness_ok
from .simplex import (
    Configuration,
    bound_violation,
    entering_for,
    pivot,
    recompute,
    resolve_violation,
    update,
)

INF = math.inf

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
CAP = "cap"


@dataclass
class Relaxation:
    cfg: Configuration
    neuron_ids: list[int]
    cap: int
    status: str | None = None  # phase-1 result, cached
    infeasible_row: int | None = None


def build(net, prop, asserts, bounds: Bounds) -> Relaxation:
    """Encode the branch relaxation. `bounds` must come from analyze under
    the same asserts; the uncertain/decided split uses those clamped
    intervals, and the concrete intervals double as variable bounds."""
    lay = net.layout
    lo: dict[int, float] = {}
    hi: dict[int, float] = {}
    neurons: list[int] = list(lay.input_ids)
    for li in range(net.n_layers):
        neurons.extend(lay.pre_ids[li])
        if lay.post_ids[li] is not lay.pre_ids[li]:
            neurons.extend(lay.post_ids[li])
    for v in neurons:
        lo[v], hi[v] = bounds.lo[v], bounds.hi[v]
    for a in asserts:
        if a.sign == NONNEG:
            lo[a.neuron] = max(lo[a.neuron], 0.0)
        else:
            hi[a.neuron] = min(hi[a.neuron], 0.0)

    rows: dict[int, dict[int, float]] = {}
    nxt = lay.n_vars

    def add_row(expr: dict[int, float], l: float, h: float) -> None:
        nonlocal nxt
        rows[nxt] = {k: float(c) for k, c in sorted(expr.items()) if c != 0.0}
        lo[nxt], hi[nxt] = l, h
        nxt += 1

    prev = lay.input_ids
    for li in range(net.n_layers):
        w, b = net.weights[li], net.biases[li]
        for j, pre in enumerate(lay.pre_ids[li]):
            expr = {pre: 1.0}
            for k in range(w.shape[1]):
                if w[j, k] != 0.0:
                    expr[prev[k]] = expr.get(prev[k], 0.0) - float(w[j, k])
            add_row(expr, float(b[j]), float(b[j]))
        prev = lay.post_ids[li]

    for pre, post in lay.relu_pairs:
        l, u = lo[pre], hi[pre]
        if l >= 0.0:
            add_row({post: 1.0, pre: -1.0}, 0.0, 0.0)
        elif u <= 0.0:
            lo[post] = hi[post] = 0.0
        else:
            add_row({post: 1.0, pre: -1.0}, 0.0, INF)
            k = u / (u - l)
            add_row({post: 1.0, pre: -k}, -INF, -k * l)

    for c in prop.constraints:
        terms = {lay.output_ids[k]: float(a) for k, a in enumerate(c.coeffs) if a != 0.0}
        if len(terms) == 1:
            (vid, a), = terms.items()
            if a > 0:
                lo[vid] = max(lo[vid], c.threshold / a)
            else:
                hi[vid] = min(hi[vid], c.threshold / a)
        elif terms:
            add_row(terms, c.threshold, INF)

    alpha = {v: lo[v] for v in neurons}
    cfg = Configuration(rows, lo, hi, alpha, [], lay.input_ids)
    recompute(cfg)
    return Relaxation(cfg, neurons, LP_ITER_FACTOR * (len(rows) + len(lo)))


def phase1(relax: Relaxation) -> str:
    """Repair bound violations until feasible, certified infeasible, or the
    iteration cap. Result is cached; the vertex is reused by phase 2."""
    if relax.status is not None:
        return relax.status
    cfg = relax.cfg
    relax.status = CAP
    for _ in range(relax.cap):
        bv = bound_violation(cfg)
        if bv is None:
            relax.status = FEASIBLE
            break
        b, need_up = bv
        ent = entering_for(cfg, b, need_up)
        if ent is None:
            if resolve_violation(cfg, b, need_up):
                # b is pinned at the extremal value of its row and still violates
                relax.status = INFEASIBLE
                relax.infeasible_row = b
                break
            continue
        target = cfg.lo[b] if need_up else cfg.hi[b]
        pivot(cfg, b, ent, target)
    return relax.status


def feasible(relax: Relaxation) -> bool:
    """False only on a certified contradiction; the iteration cap answers
    True (conservative: callers lose precision, never soundness)."""
    return phase1(relax) != INFEASIBLE


def find_point(relax: Relaxation) -> dict[int, float] | None:
    """Feasible point over the neuron ids, or None (infeasible or capped)."""
    if phase1(relax) != FEASIBLE:
        return None
    cfg = relax.cfg
    return {v: cfg.row_value(v) if v in cfg.rows else cfg.alpha[v] for v in relax.neuron_ids}


def decide(net, prop, asserts, bounds: Bounds) -> tuple[float, ...] | None:
    """Decide a branch with every ReLU decided, whose relaxation is then
    exact: an input point that violates the property, or None when the
    branch is infeasible. RuntimeError on an iteration-cap hit or a point
    that fails forward validation."""
    relax = build(net, prop, asserts, bounds)
    status = phase1(relax)
    if status == INFEASIBLE:
        return None
    if status == CAP:
        raise RuntimeError("branch LP hit its iteration cap")
    point = find_point(relax)
    witness = tuple(float(point[v]) for v in net.layout.input_ids)
    if not witness_ok(net, prop, witness):
        raise RuntimeError("branch LP point failed forward validation")
    return witness


def _optimize(relax: Relaxation, vid: int, maximize: bool) -> float | None:
    """Optimum of one variable over the relaxation, or None when the
    direction is unbounded or the cap is hit. Assumes phase1 == feasible."""
    cfg = relax.cfg
    for _ in range(relax.cap):
        red = dict(cfg.rows[vid]) if vid in cfg.rows else {vid: 1.0}
        ent, sigma = None, 0
        for j in sorted(red):
            c = red[j]
            if abs(c) <= EPS_PIVOT:
                continue
            if (c > 0) == maximize:
                if cfg.alpha[j] < cfg.hi[j]:
                    ent, sigma = j, 1
                    break
            else:
                if cfg.alpha[j] > cfg.lo[j]:
                    ent, sigma = j, -1
                    break
        if ent is None:
            return cfg.row_value(vid) if vid in cfg.rows else cfg.alpha[vid]
        theta = (cfg.hi[ent] - cfg.alpha[ent]) if sigma > 0 else (cfg.alpha[ent] - cfg.lo[ent])
        leave = None
        for b in sorted(cfg.rows):
            a = cfg.rows[b].get(ent)
            if not a:
                continue
            d = a * sigma
            room = (cfg.hi[b] - cfg.alpha[b]) if d > 0 else (cfg.lo[b] - cfg.alpha[b])
            t = max(room / d, 0.0)
            if t < theta:
                theta, leave = t, b
        if theta == INF:
            return None
        if leave is None:
            update(cfg, ent, cfg.hi[ent] if sigma > 0 else cfg.lo[ent])
        else:
            hit_upper = cfg.rows[leave][ent] * sigma > 0
            target = cfg.hi[leave] if hit_upper else cfg.lo[leave]
            pivot(cfg, leave, ent, target)
    return None


def tighten(relax: Relaxation, vids) -> dict[int, tuple[float, float]]:
    """Per-variable LP bounds, never wider than the variable's current ones.
    Unbounded directions and cap hits keep the current side. Optima are
    padded outward by EPS_LP so rounding error cannot cut off a feasible
    point. ValueError on an infeasible relaxation."""
    st = phase1(relax)
    if st == INFEASIBLE:
        raise ValueError("tighten on an infeasible relaxation")
    cfg = relax.cfg
    out = {}
    for v in sorted(vids):
        lo, hi = cfg.lo[v], cfg.hi[v]
        if st != CAP:
            mn = _optimize(relax, v, maximize=False)
            mx = _optimize(relax, v, maximize=True)
            lo = lo if mn is None else max(lo, mn - EPS_LP)
            hi = hi if mx is None else min(hi, mx + EPS_LP)
        out[v] = (lo, hi)
    return out


def tighten_inputs_then_repropagate(net, prop, asserts, relax=None) -> Bounds:
    """Shrink the input box by per-input LP optimization, then re-run the
    abstraction on the smaller box. An infeasible relaxation (or an input
    interval squeezed empty) is reported as infeasible Bounds.

    `relax`, when given, must be the branch relaxation built for the same
    asserts over the unchanged box; it is reused instead of rebuilt."""
    asserts = sorted(asserts)
    if relax is None:
        base = analyze(net, prop.box, asserts)
        if base.infeasible:
            return base
        relax = build(net, prop, asserts, base)
    if phase1(relax) == INFEASIBLE:
        return Bounds(output_ids=tuple(net.layout.output_ids), infeasible=True)
    box = []
    for vid, (blo, bhi) in zip(net.layout.input_ids, prop.box):
        tlo, thi = tighten(relax, [vid])[vid]
        tlo, thi = max(tlo, blo), min(thi, bhi)
        if tlo > thi:
            return Bounds(output_ids=tuple(net.layout.output_ids), infeasible=True)
        box.append((tlo, thi))
    return analyze(net, tuple(box), asserts)
