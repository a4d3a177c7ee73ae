"""From-scratch verification: local repair inside each branch, split on
demand, DFS over sign assertions, full proof tree recording.

A node runs the tableau repair loop, testing its rows before each step
(`simplex.check_unsat_rows`). The loop ends a node in one of three ways: a
row that contradicts its bounds closes the branch once its certificate
re-checks (below), a repaired point that passes forward validation is a
witness, and anything else ends the local search. That covers one ReLU
pair repaired SPLIT_THRESHOLD times (Reluplex's split on demand, Katz et
al., CAV 2017), a row whose certificate does not re-check, a repair that
is stuck, and a point that forward validation rejects. The node then
splits on its most repaired uncertain pair, or, with every ReLU decided,
the exact branch LP decides it (the loop can cycle between decided pairs
that sit within the bound tolerance).

Every UNSAT leaf stores the certificate of the row that closed it, for
replay: a row of the search tableau or of the branch LP
(`simplex.certificate`), or the DeepPoly back-substitution that refuted the
branch (`deeppoly.certificate`). A tableau row closes a node only when its
certificate, rebuilt from the network, refutes the node's bounds
(`lp.certificate_refutes`): pivoting drifts rows away from the sum of the
equations they name, most at large weight scales.
"""

from __future__ import annotations

from . import deeppoly, lp
from . import prooftree as pt
from .deeppoly import NONNEG, NONPOS, Assertion, analyze, is_property_refuted
from .model import UNSAT, Verdict, property_hash, witness_ok
from .simplex import (
    Progress,
    Satisfied,
    certificate,
    check_unsat_rows,
    initialize,
    refresh_bounds,
    repair_step,
)


# repairs of one ReLU pair after which a node stops its local search: it
# splits on its most repaired uncertain pair, or, with none left, asks the
# branch LP
SPLIT_THRESHOLD = 10


def _uncertain(lay, bounds) -> list[int]:
    return [
        pre
        for pre, _ in lay.relu_pairs
        if bounds.lo.get(pre, 0.0) < 0.0 < bounds.hi.get(pre, 0.0)
    ]


def solve(net, prop):
    """Decide (net, prop.box, negated property) and record the search.

    Returns (Verdict, ProofTree). SAT stops the whole search; branches never
    visited stay in the tree as Unsolved leaves. The search is fully
    deterministic.
    """
    bounds = analyze(net, prop.box)
    if is_property_refuted(bounds, prop):
        tree = pt.ProofTree(net.dims, property_hash(prop), "unsat")
        tree.root.status = pt.UNSAT
        tree.root.cert = deeppoly.certificate(net, prop, bounds)
        return UNSAT, tree
    witness, tree = search_branch(net, prop, (), bounds)
    return (UNSAT if witness is None else Verdict(True, witness)), tree


def search_branch(net, prop, asserts, bounds):
    """Search the branch under `asserts` from a fresh tableau over `bounds`,
    which must be that branch's bounds; returns (witness | None, the
    branch's ProofTree). The tree's edges hold only the assertions this
    search adds below `asserts`."""
    tree = pt.ProofTree(net.dims, property_hash(prop))
    cfg = initialize(net, prop, bounds)
    witness = _visit(net, prop, tree, 0, cfg, bounds, frozenset(asserts))
    tree.verdict = "unsat" if witness is None else "sat"
    return witness, tree


def _visit(net, prop, tree, nid, cfg, bounds, base):
    """Solve one branch; returns a witness or None (branch UNSAT).

    The node's configuration is exclusively owned here; children get copies.
    `base` holds assertions established outside this tree, so children are
    analyzed under base plus their own edge path.
    """
    node = tree.nodes[nid]
    candidates = _uncertain(net.layout, bounds)
    while (row := check_unsat_rows(cfg)) is None:
        if max(cfg.violations.values(), default=0) >= SPLIT_THRESHOLD:
            break
        step = repair_step(cfg)
        if isinstance(step, Satisfied) and witness_ok(net, prop, step.witness):
            node.status = pt.SAT
            node.witness = step.witness
            return step.witness
        if not isinstance(step, Progress):
            break  # Stuck, or a point that the forward pass rejects
    if row is not None and _close_by_row(net, prop, node, cfg, bounds, row):
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
        child = tree.nodes[cid]
        child_bounds = analyze(net, prop.box, sorted(base | tree.asserts_of(cid)))
        if child_bounds.infeasible or is_property_refuted(child_bounds, prop):
            # region empty or property interval-impossible: nothing to search
            child.status = pt.UNSAT
            child.cert = deeppoly.certificate(net, prop, child_bounds)
            continue
        ccfg = cfg.copy()
        refresh_bounds(ccfg, net, prop, child_bounds)
        witness = _visit(net, prop, tree, cid, ccfg, child_bounds, base)
    return witness


def _close_by_row(net, prop, node, cfg, bounds, row) -> bool:
    """Close the node as UNSAT on a tableau row that contradicts its bounds,
    if the row's certificate, rebuilt from the network, refutes them too."""
    cert = certificate(cfg, row)
    if not lp.certificate_refutes(net, prop, bounds, cert):
        return False
    node.status = pt.UNSAT
    node.cert = cert
    return True


def _decide_by_lp(net, prop, node, bounds):
    """Record the branch LP's decision of a fully decided branch on its
    node; returns the witness or None (branch UNSAT)."""
    witness, node.cert = lp.decide(net, prop, bounds)
    node.status = pt.UNSAT if witness is None else pt.SAT
    node.witness = witness
    return witness
