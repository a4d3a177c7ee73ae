"""Linear programming over the branch relaxation: feasibility, tightening
of the input box, and the exact decision of a branch with every ReLU
decided.

The relaxation is the search tableau plus one chord row per uncertain
ReLU (l < 0 < u), encoded together by `simplex.encode`, each equation as
`simplex.equation` defines it. A decided-on ReLU (l >= 0) has its slack
at [0, 0]; a decided-off one (u <= 0) has post pinned to [0, 0] by its
interval; so the region is the triangle relaxation of every uncertain
ReLU. Phase 1 is the search's own bound step, given the search's own scan
for basics outside their bounds (`out_of_bounds`; Bland's rule, so it
terminates). `build` runs it once, and each use reads the status it
records; phase 2 optimizes single variables by reduced costs with a ratio
test, from phase 1's vertex. Both phases stop at the tableau's step cap
(`Configuration.cap`).

The row that shows a relaxation infeasible is a combination of these
equations (`simplex.certificate`). `certificate_refutes` rebuilds such a
combination for other weights and bounds and tests it by intervals, which
closes a branch without building its relaxation. `build` runs that test
on its own infeasible row and keeps the certificate only when it passes
(`Relaxation.cert`), so a caller closes a branch on `cert` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import COEF_EPS, EPS_LP, EPS_PIVOT, apart
from .deeppoly import Bounds, analyze, uncertain
from .model import witness_ok
from .simplex import (
    CHORD,
    INF,
    Certificate,
    Configuration,
    Stuck,
    bound_step,
    certificate,
    encode,
    encoded_equations,
    entering_for,
    equation,
    linear_interval,
    neuron_bounds,
    out_of_bounds,
    pivot,
    update,
)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
CAP = "cap"


@dataclass
class Relaxation:
    """A branch relaxation and its phase-1 result. `cert` is the certificate
    of the infeasible row when it re-checks over the branch's bounds, and
    None otherwise: after FEASIBLE, after CAP, and after an INFEASIBLE whose
    row does not re-check."""

    cfg: Configuration
    status: str | None = None  # phase-1 result, None until `build` runs phase 1
    infeasible_row: int | None = None
    cert: Certificate | None = None


def build(net, prop, bounds: Bounds) -> Relaxation:
    """Encode the branch relaxation, run its phase 1, whose status it
    records, and re-check an infeasible row's certificate over `bounds`
    (`refuting_certificate`), which it keeps in `cert` when it refutes. The
    relaxation holds the equations of the search tableau over `bounds` and
    one chord per uncertain ReLU, numbered from the first id after theirs.
    `bounds` holds the branch's neuron intervals, with its sign assertions
    already clamped in (as `analyze` and the oracle's propagation do)."""
    equations = encoded_equations(net, prop)
    sid = max(equations) + 1
    for pre in uncertain(net.layout, bounds):
        equations[sid] = (CHORD, pre)
        sid += 1
    relax = Relaxation(encode(net, prop, bounds, equations))
    if phase1(relax) == INFEASIBLE:
        relax.cert = refuting_certificate(net, prop, bounds, relax.cfg, relax.infeasible_row)
    return relax


def phase1(relax: Relaxation) -> str:
    """Repair bound violations until feasible, certified infeasible, or the
    step cap; records the result in `relax` and returns it. On FEASIBLE,
    `relax.cfg` holds the vertex that phase 2 starts from."""
    relax.status = CAP
    cfg = relax.cfg
    for _ in range(cfg.cap):
        step = bound_step(cfg, out_of_bounds(cfg))
        if step is None:
            relax.status = FEASIBLE
            break
        if isinstance(step, Stuck):
            # the row pins its basic at its extremal value and still violates
            relax.status = INFEASIBLE
            relax.infeasible_row = step.stuck_row
            break
    return relax.status


def _value(cfg: Configuration, vid: int) -> float:
    return cfg.row_value(vid) if vid in cfg.pos else cfg.alpha[vid]


def decide(net, prop, bounds: Bounds) -> tuple[tuple[float, ...] | None, Certificate | None]:
    """Decide a branch with every ReLU decided, whose relaxation is then
    exact. Returns (witness, None) with an input point that violates the
    property, or (None, certificate) with the relaxation's re-checked
    certificate (`Relaxation.cert`). Returns (None, None) when it cannot
    decide: a certificate that does not re-check, a step-cap hit, or a
    point that fails forward validation."""
    relax = build(net, prop, bounds)
    if relax.status != FEASIBLE:
        return None, relax.cert
    witness = tuple(float(_value(relax.cfg, v)) for v in net.layout.input_ids)
    return (witness if witness_ok(net, prop, witness) else None), None


def certificate_refutes(net, prop, bounds: Bounds, cert: Certificate) -> bool:
    """Does a certificate show the branch of `bounds` empty?

    Each (kind, index, y) names one equation, rebuilt by `simplex.equation`
    from this network's weights and biases and from `bounds`, with each
    output's interval tightened by the single-output constraints. The sum
    of y times (slack - terms) vanishes at every point of the branch,
    whatever the multipliers, so when its `linear_interval` over the
    variable bounds, each slack's written after the neurons', is `apart`
    from 0 the branch is empty. A chord on a neuron that `bounds` no longer
    leave undecided, or a non-finite end of the interval, refutes nothing.
    Indices must name equations of this network and property
    (`incremental` checks stored trees)."""
    lo, hi = neuron_bounds(net, prop, bounds)
    coef: dict[int, float] = {}
    row = []  # each slack's term (its position in lo and hi, y), ahead of coef's

    for kind, i, y in cert:
        if y == 0.0:
            continue
        terms, slo, shi = equation(net, prop, kind, i, lo, hi)
        for v, c in terms:
            coef[v] = coef.get(v, 0.0) - y * c
        row.append((len(lo), y))
        lo.append(slo)
        hi.append(shi)

    rlo, rhi = linear_interval([*row, *coef.items()], lo, hi)
    return apart(rlo, rhi, 0.0, 0.0) and rlo < INF and -INF < rhi


def refuting_certificate(net, prop, bounds: Bounds, cfg: Configuration,
                         row: int) -> Certificate | None:
    """The certificate of `row` of `cfg` if it shows the branch of `bounds`
    empty (`certificate_refutes`), else None: the one re-check before a row
    closes a branch, run by `solver.search` on tableau rows and by `build`
    on LP rows. Pivoting drifts rows away from the sums of the equations
    they name, most at large weight scales."""
    cert = certificate(cfg, row)
    return cert if certificate_refutes(net, prop, bounds, cert) else None


def _optimize(relax: Relaxation, vid: int, maximize: bool) -> float | None:
    """Optimum of one variable over the relaxation, or None when the
    direction is unbounded, the cap is hit, or the leaving row's entering
    coefficient is one `pivot` rejects. Starts from the vertex of a phase 1
    that returned FEASIBLE.

    The ratio test treats steps within a relative COEF_EPS of the smallest
    as tied and breaks ties by the bound flip, then the lowest basic id
    (Bland), so the choice does not hang on the last bit of a float. The
    longer tied step lets another basic overshoot its bound by about 1e-12
    of the step: far below the EPS_LP padding on every optimum, and a
    slightly relaxed polytope can only loosen a bound, never cut a point.
    """
    cfg = relax.cfg
    unit = np.zeros(len(cfg.lo))
    unit[vid] = 1.0
    for _ in range(cfg.cap):
        red = cfg.T[cfg.pos[vid]] if vid in cfg.pos else unit
        ent = entering_for(cfg, red, maximize)
        if ent is None:
            return _value(cfg, vid)
        sigma = 1 if (red[ent] > 0) == maximize else -1
        flip = (cfg.hi[ent] - cfg.alpha[ent]) if sigma > 0 else (cfg.alpha[ent] - cfg.lo[ent])
        steps = {}
        col = cfg.T[:, ent]
        rows = col.nonzero()[0]
        for r, a in zip(rows.tolist(), col[rows].tolist()):
            b = cfg.basic[r]
            d = a * sigma
            room = (cfg.hi[b] - cfg.alpha[b]) if d > 0 else (cfg.lo[b] - cfg.alpha[b])
            steps[b] = max(room / d, 0.0)
        theta = min([flip, *steps.values()])
        if theta == INF:
            return None
        tied = theta + COEF_EPS * theta
        if flip <= tied:
            update(cfg, ent, cfg.hi[ent] if sigma > 0 else cfg.lo[ent])
        else:
            leave = min(b for b, t in steps.items() if t <= tied)
            a = cfg.T.item(cfg.pos[leave], ent)
            if abs(a) <= EPS_PIVOT:
                return None
            hit_upper = a * sigma > 0
            pivot(cfg, leave, ent, cfg.hi[leave] if hit_upper else cfg.lo[leave])
    return None


def tighten_inputs_then_repropagate(net, asserts, relax) -> Bounds:
    """Shrink the input box by per-input LP optimization over `relax`, the
    branch relaxation built for the same asserts over the unchanged box,
    then re-run the abstraction on the smaller box. Each optimum is padded
    outward by EPS_LP so rounding error cannot cut off a feasible point,
    and no interval widens; a direction `_optimize` cannot bound keeps the
    box's side. An input interval squeezed empty is reported as infeasible
    Bounds. Raises ValueError unless phase 1 found the relaxation
    FEASIBLE: it starts from phase 1's vertex."""
    if relax.status != FEASIBLE:
        raise ValueError(f"input tightening on a relaxation with phase-1 status {relax.status}")
    cfg = relax.cfg
    box = []
    for vid in net.layout.input_ids:
        mn = _optimize(relax, vid, maximize=False)
        mx = _optimize(relax, vid, maximize=True)
        lo = cfg.lo[vid] if mn is None else max(cfg.lo[vid], mn - EPS_LP)
        hi = cfg.hi[vid] if mx is None else min(cfg.hi[vid], mx + EPS_LP)
        if lo > hi:
            return Bounds(output_ids=tuple(net.layout.output_ids), infeasible=True)
        box.append((lo, hi))
    return analyze(net, tuple(box), asserts)
