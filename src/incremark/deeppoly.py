"""Symbolic interval analysis over the network (DeepPoly-style).

A ReLU output is bounded by linear functions of its pre-activation,
`simplex.relaxation` of the pre-activation's interval. Pre-activations are
bounded by back-substitution of those relations to the input box, once per
layer as a matrix that bounds every pre-activation of the layer from both
sides; a ReLU output's interval is the ReLU of its pre-activation's. Sign
assertions clamp the pre-activation interval *before* the ReLU case split,
so asserted branches propagate tightened relaxations downstream.

Numpy runs only the back-substitution (the stacked rows [w; w], the
choice of relation and box end by sign, the row sums and the products);
its fixed cost per call would dominate the steps per neuron (finiteness
check, clamps, collapse, ReLU image, relations), which run on Python
floats and give numpy's results bit for bit, signed zeros included. A
lower bound is a row of its own: the negated upper bound of -w would turn
0.0 ends into -0.0, the demo output's among them.

A back-substitution is itself a sum of the equations the tableau encodes
(see the simplex module): an affine layer is an `aff` equation, a
decided-on ReLU a `relu` equation, an uncertain ReLU taken by its upper
relation a `chord`. `certificate` writes down the multipliers of the one
row that refuted a branch, so a branch that `analyze` closed carries the
same kind of proof as one a tableau row closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from operator import gt, sub

import numpy as np

from .constants import EPS_COLLAPSE, apart
from .model import RELU, Network
from .simplex import (AFF, CHORD, INF, PROP, RELU as RELU_EQ, Certificate, linear_interval,
                      relaxation)

NONNEG = "nonneg"
NONPOS = "nonpos"

# the interval that each sign assertion allows its pre-activation
SIGN_RANGE = {NONNEG: (0.0, INF), NONPOS: (-INF, 0.0)}


@dataclass(frozen=True, order=True)
class Assertion:
    neuron: int
    sign: str  # NONNEG | NONPOS


@dataclass
class Bounds:
    """Concrete intervals as lists by variable id, over the network neurons
    in the model's id order (inputs, then each layer's pre-activations,
    then its posts); the tableau appends its own variables' intervals to
    copies of them (`simplex.encode`). `infeasible` means the branch is
    empty; when `analyze` found it so, `emptied` is the assertion that
    emptied its neuron's pre-activation interval, and the lists stop
    before that neuron's layer.
    """

    lo: list[float] = field(default_factory=list)
    hi: list[float] = field(default_factory=list)
    output_ids: tuple[int, ...] = ()
    infeasible: bool = False
    emptied: Assertion | None = None


def is_property_refuted(bounds: Bounds, prop) -> bool:
    """True when no point within `bounds` can satisfy the property.

    A negation that is empty on its own (`SafetyProperty.negation_empty`) is
    refuted vacuously. Otherwise some conjunct a.y >= c must be
    interval-impossible (`_refuted_constraint`).
    """
    if prop.negation_empty or bounds.infeasible:
        return True
    return _refuted_constraint(bounds, prop) is not None


def _refuted_constraint(bounds: Bounds, prop) -> int | None:
    """Index of the first conjunct a.y >= c whose interval of a.y over
    `bounds` is `apart` from [c, inf], i.e. below c by more than
    EPS_BOUND."""
    for idx, c in enumerate(prop.constraints):
        if len(c.coeffs) != len(bounds.output_ids):
            raise ValueError("constraint arity does not match the network outputs")
        ylo, yhi = linear_interval([(bounds.output_ids[j], a) for j, a in c.terms],
                                   bounds.lo, bounds.hi)
        if apart(ylo, yhi, c.threshold, INF):
            return idx
    return None


def clamp(net: Network, bounds: Bounds, asserts) -> Bounds | None:
    """The intervals of `bounds` narrowed by sign assertions, or None when
    one empties: NONNEG raises a pre-activation's lower end to 0, NONPOS
    lowers its upper end to 0 and pins its post to [0, 0]. When `bounds`
    contain a region, the result contains the part of it where the
    assertions hold, though less tightly than `analyze` under them."""
    lo, hi = list(bounds.lo), list(bounds.hi)
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


def uncertain(lay, bounds: Bounds) -> list[int]:
    """The ReLU pre-activations whose interval straddles 0 (lo < 0 < hi),
    in id order: the ones a branch can split and a chord relaxes."""
    lo, hi = bounds.lo, bounds.hi
    return [pre for pre, _ in lay.relu_pairs if lo[pre] < 0.0 < hi[pre]]


# a bound that overflows becomes inf or nan, which the finiteness check reports
@np.errstate(over="ignore", invalid="ignore")
def analyze(net: Network, box, asserts=()) -> Bounds:
    """Run the abstraction under sign assertions; `box` is passed explicitly
    so callers can re-propagate with a tightened one."""
    lay = net.layout
    asserted: dict[int, list[Assertion]] = {}  # by the layer of their neuron
    for a in asserts:
        asserted.setdefault(lay.pre_row[a.neuron][0], []).append(a)

    lo0 = np.array([b[0] for b in box], dtype=float)
    hi0 = np.array([b[1] for b in box], dtype=float)
    if len(lo0) != net.n_inputs:
        raise ValueError("box arity does not match the network inputs")
    res = Bounds(lo0.tolist(), hi0.tolist(), tuple(lay.output_ids))

    # per layer but a last one without ReLU: the relations (lc, uc, uk) of post over pre
    rel: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    for li in range(net.n_layers):
        w = net.weights[li]
        n = w.shape[0]
        # Bound each row of w @ post + b over the input box, the lower and
        # upper problems stacked: row j < n is neuron j's lower bound, row
        # n + j its upper bound, and each picks the relation that bounds it.
        c = np.concatenate((w, w))
        k = np.concatenate((net.biases[li], net.biases[li]))
        upper_row = (np.arange(2 * n) >= n)[:, None]
        for j in range(li, 0, -1):
            lc, uc, uk = rel[j - 1]
            take_u = (c > 0) == upper_row
            k += (np.where(take_u, uk, 0.0) * c).sum(axis=1)
            c = np.where(take_u, uc, lc) * c
            k += c @ net.biases[j - 1]
            c = c @ net.weights[j - 1]
        k += (c * np.where((c > 0) == upper_row, hi0, lo0)).sum(axis=1)
        lo, hi = k[:n].tolist(), k[n:].tolist()
        if not all(map(isfinite, map(sub, hi, lo))):
            raise RuntimeError(f"layer {li + 1}: a pre-activation interval or its width "
                               "is not a finite float")

        # numpy's maximum and minimum keep their second argument on a tie (0.0
        # against -0.0), hence max(0.0, x) here, min(hi, lo) and max(0.0, l) below
        for a in asserted.get(li, ()):
            j = lay.pre_row[a.neuron][1]
            if a.sign == NONNEG:
                lo[j] = max(0.0, lo[j])
            else:
                hi[j] = min(0.0, hi[j])
        if any(map(gt, lo, hi)):
            # the first in id order that an assertion emptied; k[n + j] is its unclamped upper end
            for j in (i for i in range(n) if lo[i] > hi[i] + EPS_COLLAPSE):
                res.infeasible = True
                res.emptied = Assertion(lay.pre_ids[li][j], NONNEG if k[n + j] < 0.0 else NONPOS)
                return res
            lo = list(map(min, hi, lo))  # a tolerance-level crossing collapses to a point
        res.lo += lo
        res.hi += hi

        if net.activations[li] == RELU:
            rel.append(tuple(map(np.array, zip(*map(relaxation, lo, hi)))))
            res.lo += [max(0.0, l) for l in lo]
            res.hi += [max(0.0, h) for h in hi]

    return res


def certificate(net: Network, prop, bounds: Bounds) -> Certificate | None:
    """Multipliers (kind, index, y) of the back-substitution row with which
    `analyze` refuted the branch of `bounds`; None when `bounds` refute
    nothing or no equation states the refutation (a negation empty on its
    own, a constraint with no output term, or an output ReLU whose own
    interval contradicts the property).

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
        li, j = lay.pre_row[bounds.emptied.neuron]
        d = np.zeros(len(lay.pre_ids[li]))
        d[j] = -1.0 if bounds.emptied.sign == NONNEG else 1.0
    else:
        idx = _refuted_constraint(bounds, prop) if not bounds.infeasible else None
        if idx is None:
            return None
        c = prop.constraints[idx]
        li = net.n_layers - 1
        # -a on the outputs: actual terms of the prop equation s - a.y, or
        # for one output the expansion of the kept a*y bounded by the threshold
        if not c.terms:
            return None  # 0 >= c: no equation to name
        single = len(c.terms) == 1
        if not single:
            out.append((PROP, idx, 1.0))
        d = _through_activation(net, bounds, li, -np.asarray(c.coeffs, dtype=float), out, single)
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
            d[n] = c * relaxation(l, u)[1]
        elif expand_all:
            return None
    return d
