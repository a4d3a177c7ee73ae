"""From-scratch verification: local repair inside each branch, split on
demand, DFS over sign assertions, full proof tree recording.

`search` is the one way a branch is decided. It takes any tree and one of
its leaves, with the bounds of the leaf's branch, and grows the tree below
that leaf: `solve` calls it on the root of a new tree, each split calls it
on the new children, whose tableaus `simplex.refresh_bounds` builds from
the parent's, and re-verification (`incremental`) calls it on the
leaves of a stored tree that it cannot replay.

Before a node builds a tableau it looks for a counterexample by projected
gradient ascent over the input box (`attack`; PGD with restarts, Madry et
al., ICLR 2018, run before branching as in Beta-CROWN, Wang et al.,
NeurIPS 2021). Its starts, in order: the node's stored witness, which
re-verification leaves on a SAT leaf whose witness no longer holds; then,
at the root of a tree, the box centre and, for a box of at most
ATTACK_CORNER_INPUTS inputs, its 2^n corners in `itertools.product(*box)`
order. Split children have no start. All starts climb in lockstep, and
the witness found at the earliest move wins, the lowest start on a tie.
A point that the ascent returns is a witness, and the node becomes a SAT
leaf; a miss leaves the node to the tableau as before, so the ascent never
changes an UNSAT tree.

A node runs the tableau repair loop. Each step scans the basics once for
those outside their bounds (`simplex.out_of_bounds`), tests rows of them
(`simplex.check_unsat_rows`) and, when none contradicts its bounds, makes
one repair (`simplex.repair_step`), which takes the whole scan. The first
test of a node's new tableau takes the row of every basic outside its
bounds; each later test takes only the lowest one, the row that Bland's
bound step repairs next. A new tableau's rows carry the least pivot drift,
so their certificates re-check most often, and one row a step keeps the
test to one interval. The loop ends a node in one of three ways: a row
that contradicts its bounds closes the branch once its certificate
re-checks (below), a repaired point that passes forward validation is a
witness, and anything else ends the local search. That covers one ReLU
pair repaired SPLIT_THRESHOLD times (Reluplex's split on demand, Katz et
al., CAV 2017; the configuration keeps the running maximum of its repair
counts), the tableau's step cap of repair steps (`Configuration.cap`;
bound repair can cycle once values are re-solved between pivots), a row
whose certificate does not re-check, a repair that is stuck, and a point
that forward validation rejects. The node then splits on its most
repaired uncertain pair, or, with every ReLU decided, the exact branch LP
decides it (the loop can cycle between decided pairs that sit within the
bound tolerance). A branch that the LP cannot decide stays an unsolved
leaf and the search goes on; `solve` raises RuntimeError only when it
ends with no witness and such a leaf.

An UNSAT leaf stores the certificate of the row that closed it, for
replay: a row of the search tableau or of the branch LP
(`simplex.certificate`), or the DeepPoly back-substitution that refuted the
branch (`deeppoly.certificate`). A leaf that no equation refutes, such as
one whose output ReLU's own interval contradicts the property, has none.
A tableau row closes a node only when its certificate, rebuilt from the
network, refutes the node's bounds (`lp.refuting_certificate`, which
`lp.build` runs on the branch LP's row too).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import deeppoly, lp
from . import prooftree as pt
from .deeppoly import NONNEG, NONPOS, Assertion, analyze, is_property_refuted, uncertain
from .model import RELU, UNSAT, Verdict, property_hash, witness_ok
from .simplex import (
    Progress,
    Satisfied,
    check_unsat_rows,
    initialize,
    out_of_bounds,
    refresh_bounds,
    repair_step,
)


# repairs of one ReLU pair after which a node stops its local search: it
# splits on its most repaired uncertain pair, or, with none left, asks the
# branch LP
SPLIT_THRESHOLD = 10

# the ascent that looks for a witness before a node builds its tableau:
# at most ATTACK_MOVES moves, the first a quarter of the box wide in each
# input, each next one ATTACK_DECAY times the last; at the root of a tree
# it also starts from each corner of a box of at most ATTACK_CORNER_INPUTS
# inputs (2^n corners)
ATTACK_MOVES = 10
ATTACK_DECAY = 0.7
ATTACK_CORNER_INPUTS = 4


def solve(net, prop):
    """Decide (net, prop.box, negated property) and record the search.

    Returns (Verdict, ProofTree). SAT stops the whole search; branches never
    visited stay in the tree as Unsolved leaves. The search is fully
    deterministic.
    """
    tree = pt.ProofTree(net.dims, property_hash(prop))
    witness = search(net, prop, tree, 0, analyze(net, prop.box))
    if witness is None:
        raise_if_undecided(tree)
    tree.verdict = "unsat" if witness is None else "sat"
    return (UNSAT if witness is None else Verdict(True, witness)), tree


def search(net, prop, tree, nid, bounds, parent=None):
    """Decide leaf `nid` of `tree`, given the bounds of its branch, and grow
    the tree below it; returns a witness or None (branch UNSAT, or a leaf
    below it that the branch LP left unsolved).

    Bounds that refute the property close the leaf with their DeepPoly
    certificate. Otherwise the leaf is searched from a new tableau, or, for
    a split child, from one that `refresh_bounds` builds from its `parent`'s
    over the child's bounds; `parent` is left as it is.
    """
    node = tree.nodes[nid]
    # the ascent starts from the stored witness, and at the root from the box
    # centre and the corners of a narrow box
    starts = [] if node.witness is None else [node.witness]
    if nid == 0:
        starts.append([(lo + hi) / 2 for lo, hi in prop.box])
        if len(prop.box) <= ATTACK_CORNER_INPUTS:
            starts.extend(itertools.product(*prop.box))
    node.status, node.witness, node.cert = pt.UNSOLVED, None, None
    if is_property_refuted(bounds, prop):
        # region empty or property interval-impossible: nothing to search
        node.status = pt.UNSAT
        node.cert = deeppoly.certificate(net, prop, bounds)
        return None
    if starts and (witness := attack(net, prop, starts)) is not None:
        node.status, node.witness = pt.SAT, witness
        return witness
    cfg = (initialize(net, prop, bounds) if parent is None
           else refresh_bounds(parent, net, prop, bounds))
    candidates = uncertain(net.layout, bounds)
    steps_left = cfg.cap
    # a new tableau's rows drift least, so its first test takes every
    # out-of-bound row; each later one takes only the row that the bound
    # step repairs next
    rows = out = out_of_bounds(cfg)
    while (row := check_unsat_rows(cfg, rows)) is None:
        if cfg.max_violations >= SPLIT_THRESHOLD or not steps_left:
            break
        steps_left -= 1
        step = repair_step(cfg, out)
        if isinstance(step, Satisfied) and witness_ok(net, prop, step.witness):
            node.status = pt.SAT
            node.witness = step.witness
            return step.witness
        if not isinstance(step, Progress):
            break  # Stuck, or a point that the forward pass rejects
        rows = (out := out_of_bounds(cfg))[:1]
    cert = None if row is None else lp.refuting_certificate(net, prop, bounds, cfg, row)
    if cert is not None:
        node.status, node.cert = pt.UNSAT, cert
        return None

    if not candidates:
        # every ReLU decided: a pure LP, which the loop may cycle on (fixes
        # within EPS_RELU undo each other inside EPS_BOUND) or leave undecided
        return _decide_by_lp(net, prop, node, bounds)
    split = max(candidates, key=lambda p: (cfg.violations.get(p, 0), -p))
    node.status = pt.INTERNAL
    kids = [tree.add_child(nid, Assertion(split, sign)) for sign in (NONPOS, NONNEG)]
    witness = None
    for cid in kids:
        if witness is not None:
            break  # later siblings stay Unsolved
        child_bounds = analyze(net, prop.box, sorted(tree.asserts_of(cid)))
        witness = search(net, prop, tree, cid, child_bounds, cfg)
    return witness


@np.errstate(over="ignore", invalid="ignore")  # a point that overflows is no witness
def attack(net, prop, starts):
    """Projected sign-gradient ascent on the negated property over the box,
    from each of `starts` clipped into it, all in lockstep; returns the
    first point that satisfies every negated constraint (`witness_ok` with
    eps 0), as a tuple of floats, or None. First means found at the
    earliest move, and among one move's points, from the lowest start.

    The k points are one (k, n) array. Each move takes one batched forward
    pass, which gives every point's margins a.y - c, and one backward
    vector-Jacobian product of the row a of each point's smallest-margin
    constraint (the first on a tie), with ReLU derivative 1 where the
    pre-activation is > 0 and 0 otherwise. Each point moves by the sign of
    its gradient times the step and is clipped into the box. A point that
    its move leaves where it is drops out: its next move would be the same.
    """
    lo, hi = np.array(prop.box, dtype=float).T
    a = np.array([con.coeffs for con in prop.constraints], dtype=float)
    c = np.array([con.threshold for con in prop.constraints], dtype=float)
    # np.minimum(np.maximum(...)) clips as np.clip does, in less time
    x = np.minimum(np.maximum(np.array(starts, dtype=float), lo), hi)
    step = (hi - lo) / 4
    for move in range(ATTACK_MOVES + 1):
        y, masks = x, []
        for w, b, act in zip(net.weights, net.biases, net.activations):
            y = y @ w.T + b
            masks.append(y > 0.0 if act == RELU else None)
            if act == RELU:
                y = np.maximum(y, 0.0)
        margins = y @ a.T - c
        for i in np.flatnonzero(margins.min(axis=1) >= 0.0):
            if witness_ok(net, prop, x[i], eps=0.0):
                return tuple(x[i].tolist())
        if move == ATTACK_MOVES:
            return None
        g = a[margins.argmin(axis=1)]
        for w, mask in zip(reversed(net.weights), reversed(masks)):
            g = (g if mask is None else g * mask) @ w
        nxt = np.minimum(np.maximum(x + step * np.sign(g), lo), hi)
        moved = (nxt != x).any(axis=1)
        x, step = nxt[moved], step * ATTACK_DECAY
        if not len(x):
            return None


def _decide_by_lp(net, prop, node, bounds):
    """Record the branch LP's decision of a fully decided branch on its
    node; returns the witness or None (branch UNSAT, or undecided: the node
    stays unsolved)."""
    witness, node.cert = lp.decide(net, prop, bounds)
    if witness is not None:
        node.status = pt.SAT
    elif node.cert is not None:
        node.status = pt.UNSAT
    node.witness = witness
    return witness


def raise_if_undecided(tree) -> None:
    """RuntimeError when a search that found no witness left a leaf of
    `tree` unsolved: its verdict would rest on a branch nobody decided."""
    undecided = tree.leaves_with_status(pt.UNSOLVED)
    if undecided:
        raise RuntimeError(f"no witness found, and the branch LP could not decide "
                           f"{len(undecided)} branch(es)")
