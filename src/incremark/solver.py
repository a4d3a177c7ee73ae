"""From-scratch verification: local repair inside each branch, split on
demand, DFS over sign assertions, full proof tree recording.

A node runs the tableau repair loop until it finds a witness, a row that
closes the branch, or a reason to split. It splits as soon as one uncertain
ReLU pair has been repaired SPLIT_THRESHOLD times, on that pair (Reluplex's
split on demand, Katz et al., CAV 2017); the step budget is the backstop. A
branch with every ReLU decided is a pure LP: the loop runs it to a decision,
and once a decided pair has been repaired SPLIT_THRESHOLD times (the loop
can cycle between pairs that sit within the bound tolerance) the exact
branch LP decides it instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lp
from . import prooftree as pt
from .deeppoly import NONNEG, NONPOS, Assertion, analyze, is_property_refuted
from .model import UNSAT, Verdict, property_hash, witness_ok
from .simplex import (
    Satisfied,
    Stuck,
    check_unsat_rows,
    initialize,
    refresh_bounds,
    repair_step,
)


# repairs of one ReLU pair after which a node stops its local search: it
# splits on that pair, or, with no uncertain pair left, asks the branch LP
SPLIT_THRESHOLD = 10


@dataclass(frozen=True)
class SearchParams:
    """local_budget: most repair steps per node before it splits, when no
    uncertain pair has reached SPLIT_THRESHOLD repairs first (None =
    max(200, 50 x uncertain ReLUs of the node)); max_depth: split depth cap
    (None = one level per ReLU neuron). The search is fully deterministic."""

    local_budget: int | None = None
    max_depth: int | None = None


def _uncertain(lay, bounds) -> list[int]:
    return [
        pre
        for pre, _ in lay.relu_pairs
        if bounds.lo.get(pre, 0.0) < 0.0 < bounds.hi.get(pre, 0.0)
    ]


def _node_budget(params: SearchParams, n_uncertain: int) -> int:
    if params.local_budget is not None:
        return max(1, params.local_budget)
    return max(200, 50 * n_uncertain)


def solve(net, prop, params: SearchParams | None = None):
    """Decide (net, prop.box, negated property) and record the search.

    Returns (Verdict, ProofTree). SAT stops the whole search; branches never
    visited stay in the tree as Unsolved leaves.
    """
    params = params or SearchParams()
    tree = pt.ProofTree(net.dims, property_hash(prop))
    bounds = analyze(net, prop.box)
    if is_property_refuted(bounds, prop):
        tree.root.status = pt.UNSAT
        tree.verdict = "unsat"
        return UNSAT, tree
    cfg = initialize(net, prop, bounds)
    max_depth = params.max_depth if params.max_depth is not None else len(net.layout.relu_pairs)
    witness = _visit(net, prop, params, tree, 0, cfg, bounds, 0, max_depth, frozenset())
    if witness is None:
        tree.verdict = "unsat"
        return UNSAT, tree
    tree.verdict = "sat"
    return Verdict(True, witness), tree


def _visit(net, prop, params, tree, nid, cfg, bounds, depth, max_depth,
           base=frozenset()):
    """Solve one branch; returns a witness or None (branch UNSAT).

    The node's configuration is exclusively owned here; children get copies.
    `base` holds assertions established outside this tree (re-verification
    seeds a branch search below stored edges), so children are analyzed
    under base plus their own edge path.
    """
    lay = net.layout
    node = tree.nodes[nid]
    candidates = _uncertain(lay, bounds)
    budget = _node_budget(params, len(candidates))
    steps = 0
    verdict = check_unsat_rows(cfg)  # node entry: every row
    while True:
        cfg.rewritten.clear()
        if not verdict.feasible:
            node.status = pt.UNSAT
            return None
        if candidates:
            # split on demand; the budget only rations work before a split
            if steps >= budget or max(cfg.violations[p] for p in candidates) >= SPLIT_THRESHOLD:
                break
        elif max(cfg.violations.values(), default=0) >= SPLIT_THRESHOLD:
            # every ReLU decided: a pure LP, which the loop may cycle on
            # (fixes within EPS_RELU undo each other inside EPS_BOUND)
            return _decide_by_lp(net, prop, node, sorted(base | tree.asserts_of(nid)), bounds)
        steps += 1
        step = repair_step(cfg)
        if isinstance(step, Satisfied):
            if not witness_ok(net, prop, step.witness):
                raise RuntimeError(f"local search produced an invalid witness {step.witness}")
            node.status = pt.SAT
            node.witness = step.witness
            return step.witness
        if isinstance(step, Stuck):
            if candidates:
                break
            if step.stuck_row is not None:
                # pinned row: exact infeasibility certificate at these bounds
                node.status = pt.UNSAT
                return None
            raise RuntimeError("local search stuck on a fully decided branch")
        # bounds are fixed within a node: only a rewritten row can change verdict
        verdict = check_unsat_rows(cfg, rows=cfg.rewritten)

    if depth >= max_depth:
        # the depth cap forbids the only remaining move
        raise RuntimeError("search stuck with no uncertain neuron left to split")
    split = max(candidates, key=lambda p: (cfg.violations.get(p, 0), -p))
    node.status = pt.INTERNAL
    kids = [tree.add_child(nid, Assertion(split, sign)) for sign in (NONPOS, NONNEG)]

    witness = None
    for cid in kids:
        if witness is not None:
            break  # later siblings stay Unsolved
        child = tree.nodes[cid]
        child_bounds = analyze(net, prop.box, sorted(base | tree.asserts_of(cid)))
        if child_bounds.infeasible or is_property_refuted(child_bounds, prop):
            # region empty or property interval-impossible: nothing to search
            child.status = pt.UNSAT
            continue
        ccfg = cfg.copy()
        refresh_bounds(ccfg, net, prop, child_bounds)
        witness = _visit(net, prop, params, tree, cid, ccfg, child_bounds,
                         depth + 1, max_depth, base)
    return witness


def _decide_by_lp(net, prop, node, asserts, bounds):
    """Decide a branch with every ReLU decided by its exact branch LP;
    returns a witness or None (branch UNSAT)."""
    relax = lp.build(net, prop, asserts, bounds)
    if not lp.feasible(relax):
        node.status = pt.UNSAT
        return None
    point = lp.find_point(relax)
    witness = None if point is None else tuple(float(point[i]) for i in net.layout.input_ids)
    if witness is None or not witness_ok(net, prop, witness):
        raise RuntimeError("branch LP gave no witness on a fully decided branch")
    node.status = pt.SAT
    node.witness = witness
    return witness
