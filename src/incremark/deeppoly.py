"""Symbolic interval analysis over the network (DeepPoly-style).

Each post-activation neuron carries linear lower/upper bounds over its
pre-activation neuron; concrete intervals come from substituting those
relations all the way back to the input box. Back-substitution runs per
layer as a matrix: one pass bounds every neuron of a layer from both sides.
Sign assertions clamp the pre-activation interval *before* the ReLU case
split, so asserted branches propagate tightened relaxations downstream.

A back-substitution is itself a sum of the equations the tableau encodes
(see the simplex module): an affine layer is an `aff` equation, a
decided-on ReLU a `relu` equation, an uncertain ReLU taken by its upper
relation a `chord`. `certificate` writes down the multipliers of the one
row that refuted a branch, so a branch that `analyze` closed carries the
same kind of proof as one a tableau row closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import EPS_BOUND, EPS_COLLAPSE
from .model import RELU, Network
from .simplex import AFF, CHORD, PROP, RELU as RELU_EQ, Certificate

NONNEG = "nonneg"
NONPOS = "nonpos"


@dataclass(frozen=True, order=True)
class Assertion:
    neuron: int
    sign: str  # NONNEG | NONPOS

    def negated(self) -> "Assertion":
        return Assertion(self.neuron, NONPOS if self.sign == NONNEG else NONNEG)


@dataclass
class Bounds:
    """Concrete intervals per neuron id, plus each post neuron's linear
    relations over its pre neuron: post >= lc*pre + lk, post <= uc*pre + uk.

    Covers network neurons only; the tableau derives the bounds of its
    own variables from these (`simplex.initialize`, `simplex.refresh_bounds`).
    `infeasible` means the branch is empty; when `analyze` found it so,
    `emptied` is the assertion that emptied its neuron's pre-activation
    interval, and the dicts are filled only for the layers before that
    neuron's.
    """

    lo: dict[int, float] = field(default_factory=dict)
    hi: dict[int, float] = field(default_factory=dict)
    relu_lower: dict[int, tuple[float, float]] = field(default_factory=dict)
    relu_upper: dict[int, tuple[float, float]] = field(default_factory=dict)
    output_ids: tuple[int, ...] = ()
    infeasible: bool = False
    emptied: Assertion | None = None

    def interval(self, vid: int) -> tuple[float, float]:
        return self.lo[vid], self.hi[vid]


def is_property_refuted(bounds: Bounds, prop) -> bool:
    """True when no point within `bounds` can satisfy the property.

    An empty constraint list is refuted vacuously. Otherwise some conjunct
    a.y >= c must be interval-impossible: ub(a.y) < c - EPS_BOUND.
    """
    if not prop.constraints:
        return True
    if bounds.infeasible:
        return True
    return _refuted_constraint(bounds, prop) is not None


def _refuted_constraint(bounds: Bounds, prop) -> int | None:
    """Index of the first conjunct a.y >= c with ub(a.y) < c - EPS_BOUND."""
    for idx, c in enumerate(prop.constraints):
        if len(c.coeffs) != len(bounds.output_ids):
            raise ValueError("constraint arity does not match the network outputs")
        ub = 0.0
        for a, vid in zip(c.coeffs, bounds.output_ids):
            if a > 0:
                ub += a * bounds.hi[vid]
            elif a < 0:
                ub += a * bounds.lo[vid]
        if ub < c.threshold - EPS_BOUND:
            return idx
    return None


def clamp(net: Network, bounds: Bounds, asserts) -> Bounds | None:
    """The intervals of `bounds` narrowed by sign assertions, or None when
    one empties: NONNEG raises a pre-activation's lower end to 0, NONPOS
    lowers its upper end to 0 and pins its post to [0, 0]. When `bounds`
    contain a region, the result contains the part of it where the
    assertions hold, though less tightly than `analyze` under them. The
    ReLU relations are not carried over."""
    lo, hi = dict(bounds.lo), dict(bounds.hi)
    for a in asserts:
        v = a.neuron
        if a.sign == NONNEG:
            lo[v] = max(lo[v], 0.0)
        else:
            hi[v] = min(hi[v], 0.0)
            post = net.layout.relu_post[v]
            lo[post] = hi[post] = 0.0
        if lo[v] > hi[v]:
            return None
    return Bounds(lo, hi, output_ids=bounds.output_ids)


def analyze(net: Network, box, asserts=()) -> Bounds:
    """Run the abstraction under sign assertions; `box` is passed explicitly
    so callers can re-propagate with a tightened one."""
    lay = net.layout
    res = Bounds(output_ids=tuple(lay.output_ids))
    by_neuron: dict[int, list[str]] = {}
    for a in asserts:
        by_neuron.setdefault(a.neuron, []).append(a.sign)

    lo0 = np.array([b[0] for b in box], dtype=float)
    hi0 = np.array([b[1] for b in box], dtype=float)
    if len(lo0) != net.n_inputs:
        raise ValueError("box arity does not match the network inputs")
    for j, vid in enumerate(lay.input_ids):
        res.lo[vid], res.hi[vid] = float(lo0[j]), float(hi0[j])

    # Per processed layer: relation vectors (lower coef, lower const, upper
    # coef, upper const) of post over pre, used during back-substitution.
    rel: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def back(level: int, coefs: np.ndarray, const: np.ndarray):
        """Bound each row of coefs @ post_level + const over the input box;
        returns (lower, upper) arrays with one entry per row.

        level 0 means the inputs themselves; level j >= 1 means the
        post-activation vector of layer j-1. The lower and upper problems
        are stacked into one matrix: row i < m is row i's lower bound, row
        m + i its upper bound, and each picks the relation that bounds it.
        """
        m = coefs.shape[0]
        c = np.concatenate((coefs, coefs))
        k = np.concatenate((const, const))
        upper_row = (np.arange(2 * m) >= m)[:, None]
        for j in range(level, 0, -1):
            lc, lk, uc, uk = rel[j - 1]
            take_u = (c > 0) == upper_row
            k += (np.where(take_u, uk, lk) * c).sum(axis=1)
            c = np.where(take_u, uc, lc) * c
            k += c @ net.biases[j - 1]
            c = c @ net.weights[j - 1]
        k += np.where((c > 0) == upper_row, c * hi0, c * lo0).sum(axis=1)
        return k[:m], k[m:]

    for li in range(net.n_layers):
        w = net.weights[li]
        n = w.shape[0]
        pre_lo, pre_hi = back(li, w, net.biases[li])

        for j, vid in enumerate(lay.pre_ids[li]):
            lo, hi = pre_lo[j], pre_hi[j]
            for sign in by_neuron.get(vid, ()):
                if sign == NONNEG:
                    lo = max(lo, 0.0)
                else:
                    hi = min(hi, 0.0)
            if lo > hi:
                if lo > hi + EPS_COLLAPSE:
                    res.infeasible = True
                    res.emptied = Assertion(vid, NONNEG if pre_hi[j] < 0.0 else NONPOS)
                    return res
                lo = hi  # tolerance-level crossing, collapse to a point
            pre_lo[j], pre_hi[j] = lo, hi
            res.lo[vid], res.hi[vid] = float(lo), float(hi)

        if net.activations[li] == RELU:
            on = pre_lo >= 0.0
            cross = ~on & (pre_hi > 0.0)
            # the chord over [l, u] for uncertain neurons; the lower relation
            # stays 0 for them, and both relations are 0 for decided-off ones.
            # span is 1 off the crossing neurons, so no division sees a 0.
            span = np.where(cross, pre_hi - pre_lo, 1.0)
            s = np.where(cross, pre_hi / span, 0.0)
            lc = on.astype(float)
            lk = np.zeros(n)
            uc = np.where(cross, s, lc)
            uk = np.where(cross, -s * pre_lo, 0.0)
            rel.append((lc, lk, uc, uk))
            post_lo, post_hi = back(li + 1, np.eye(n), np.zeros(n))
            post_lo = np.maximum(post_lo, 0.0).tolist()
            post_hi = np.maximum(post_hi, 0.0).tolist()
            for j, vid in enumerate(lay.post_ids[li]):
                res.lo[vid] = post_lo[j]
                res.hi[vid] = post_hi[j]
                res.relu_lower[vid] = (float(lc[j]), float(lk[j]))
                res.relu_upper[vid] = (float(uc[j]), float(uk[j]))
        else:
            # identity activation: post ids alias the pre ids
            rel.append((np.ones(n), np.zeros(n), np.ones(n), np.zeros(n)))

    return res


def certificate(net: Network, prop, bounds: Bounds) -> Certificate | None:
    """Multipliers (kind, index, y) of the back-substitution row with which
    `analyze` refuted the branch of `bounds`; None when `bounds` refute
    nothing or no equation states the refutation (an empty negation, a
    constraint with no output term, or an output ReLU whose own interval
    contradicts the property).

    The row is the refuting bound's back-substitution written as a sum of
    encoded equations, one multiplier per equation it passes through: `aff`
    for each pre-activation, `relu` for a decided-on ReLU, `chord` for an
    uncertain one taken by its upper relation, and `prop` (multiplier 1)
    for a constraint over two or more outputs. Posts of decided-off ReLUs,
    and of uncertain ones taken by their lower relation (post >= 0), stay
    in the row as bounded variables, as do the neuron of the emptied
    assertion and a single-output constraint's output, whose bounds carry
    the assertion or the threshold. `lp.certificate_refutes` rebuilds the
    row for any weights and bounds and tests it by intervals.
    """
    lay = net.layout
    out: list[tuple[str, int, float]] = []
    if bounds.emptied is not None:
        # keep s*pre (s = +1 under NONNEG), expand -s*pre: the row's lower
        # end is s*(the asserted bound - the back-substituted one)
        v = bounds.emptied.neuron
        li, j = lay.pre_row[v]
        d = np.zeros(len(lay.pre_ids[li]))
        d[j] = -1.0 if bounds.emptied.sign == NONNEG else 1.0
    else:
        idx = _refuted_constraint(bounds, prop) if not bounds.infeasible else None
        if idx is None:
            return None
        coeffs = prop.constraints[idx].coeffs
        li = net.n_layers - 1
        # -a on the outputs: actual terms of the prop equation s - a.y, or
        # for one output the expansion of the kept a*y bounded by the threshold
        terms = sum(1 for a in coeffs if a != 0.0)
        if terms == 0:
            return None  # 0 >= c: no equation to name
        single = terms == 1
        if not single:
            out.append((PROP, idx, 1.0))
        d = _through_activation(net, bounds, li, -np.asarray(coeffs, dtype=float), out, single)
        if d is None:
            return None
    while True:
        # d on layer li's pre-activations: each aff equation takes its own
        # and leaves d @ W on the layer's inputs
        for n in np.flatnonzero(d).tolist():
            out.append((AFF, lay.pre_ids[li][n], -float(d[n])))
        if li == 0:
            return tuple(sorted(out))
        li -= 1
        d = _through_activation(net, bounds, li, d @ net.weights[li + 1], out, False)


def _through_activation(net, bounds, li, g, out, expand_all):
    """Carry row coefficients `g` on layer li's posts to its pre-activations,
    appending the ReLU equations used to `out`; a post that no equation
    bounds the needed way stays in the row (None instead when every post
    must be expanded)."""
    if net.activations[li] != RELU:
        return g
    d = np.zeros(len(g))
    pre_ids = net.layout.pre_ids[li]
    for n in np.flatnonzero(g).tolist():
        c = float(g[n])
        pre = pre_ids[n]
        l, u = bounds.lo[pre], bounds.hi[pre]
        if l >= 0.0:
            out.append((RELU_EQ, pre, c))
            d[n] = c
        elif u > 0.0 and c < 0.0:
            out.append((CHORD, pre, c))
            d[n] = c * (u / (u - l))
        elif expand_all:
            return None
    return d
