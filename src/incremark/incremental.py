"""Re-verification of a weight-modified network against a stored proof tree.

The driver prunes edges the new bounds contradict, fast-paths the stored SAT
witness, re-searches open (sat/unsolved) leaves seeded with fresh bounds, and
for each stored UNSAT leaf tries to replay the old proof before falling back
to a full branch search:

    analyze under Assert(v)          empty or property-impossible -> UNSAT
    branch relaxation LP             infeasible -> UNSAT
    LP input tightening              LP-shrink the input box, re-propagate:
                                     empty or property-impossible -> UNSAT
    row test                         any row of the fresh tableau contradicts
                                     its bounds -> UNSAT
    otherwise                        full search of the branch

The ladder needs only the leaf's edge assertions, so a stored UNSAT leaf
carries nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import lp
from . import prooftree as pt
from .deeppoly import analyze, is_property_refuted
from .model import UNSAT, Verdict, property_hash, witness_ok
from .simplex import check_unsat_rows, initialize, refresh_bounds
from .solver import search_branch

PROOF_REPLAYED = "proof_replayed"
PROOF_FAILED_FELL_BACK = "proof_failed_fell_back"
RESOLVED_SAT = "resolved_sat"
RESOLVED_UNSAT = "resolved_unsat"
PRUNED = "pruned"
SKIPPED = "skipped"


class ShapeMismatchError(Exception):
    """Stored tree does not fit the network shape (or the property changed,
    which is just as fatal for replay)."""


@dataclass
class IncrementalReport:
    verdict: Verdict
    outcomes: dict[int, str] = field(default_factory=dict)
    pruned: int = 0
    replayed: int = 0
    fallbacks: int = 0
    unsat_total: int = 0
    times: dict[str, float] = field(default_factory=dict)

    @property
    def replay_pct(self) -> float:
        visited = self.replayed + self.fallbacks
        if visited == 0:
            return 100.0  # nothing needed replaying
        return 100.0 * self.replayed / visited

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.name,
            "witness": None if self.verdict.witness is None else list(self.verdict.witness),
            "replay_pct": self.replay_pct,
            "pruned": self.pruned,
            "replayed": self.replayed,
            "fallbacks": self.fallbacks,
            "unsat_leaves_total": self.unsat_total,
            "times_s": {k: round(v, 6) for k, v in self.times.items()},
            "outcomes": {str(k): v for k, v in sorted(self.outcomes.items())},
        }


def check_dims(tree: pt.ProofTree, net) -> None:
    """ShapeMismatchError unless the tree was built for a network of these
    layer widths."""
    if tuple(tree.dims) != tuple(net.dims):
        raise ShapeMismatchError(f"tree dims {tree.dims} vs network {net.dims}")


def _check_fits(tree: pt.ProofTree, net) -> None:
    """One walk over the stored nodes: every edge splits a ReLU of this
    network and every witness is an input point."""
    relu_pre = {pre for pre, _ in net.layout.relu_pairs}
    for n in tree.nodes.values():
        if n.assertion is not None and n.assertion.neuron not in relu_pre:
            raise ShapeMismatchError(
                f"node {n.id}: neuron {n.assertion.neuron} is not a ReLU of the network")
        if n.witness is not None and len(n.witness) != net.n_inputs:
            raise ShapeMismatchError(
                f"node {n.id}: witness has {len(n.witness)} values for {net.n_inputs} inputs")


def _replay_unsat_leaf(net, prop, tree, nid, cfg0):
    """Returns (witness | None, outcome, graft tree | None) for a stored
    UNSAT leaf. Outcome is PROOF_REPLAYED or PROOF_FAILED_FELL_BACK."""
    asserts = sorted(tree.asserts_of(nid))
    bounds = analyze(net, prop.box, asserts)
    if bounds.infeasible or is_property_refuted(bounds, prop):
        return None, PROOF_REPLAYED, None
    relax = lp.build(net, prop, bounds)
    if not lp.feasible(relax):
        return None, PROOF_REPLAYED, None
    nb = lp.tighten_inputs_then_repropagate(net, prop, asserts, relax)
    if nb.infeasible or is_property_refuted(nb, prop):
        return None, PROOF_REPLAYED, None
    cfg = cfg0.copy()
    refresh_bounds(cfg, net, prop, nb)
    if not check_unsat_rows(cfg).feasible:
        return None, PROOF_REPLAYED, None
    w, graft = search_branch(net, prop, asserts, cfg, nb)
    return w, PROOF_FAILED_FELL_BACK, graft


def verify_incremental(net, prop, tree: pt.ProofTree):
    """Re-verify (net, prop) guided by a stored tree.

    Returns (Verdict, IncrementalReport, new ProofTree); the new tree records
    what this run established, so it can seed the next modification.
    """
    check_dims(tree, net)
    phash = property_hash(prop)
    if tree.prop_hash != phash:
        raise ShapeMismatchError("stored tree was built for a different property")
    _check_fits(tree, net)

    report = IncrementalReport(UNSAT)
    times = report.times
    t0 = time.perf_counter()

    base = analyze(net, prop.box)
    times["analyze"] = time.perf_counter() - t0
    if is_property_refuted(base, prop):
        out = pt.ProofTree(net.dims, phash, "unsat")
        out.root.status = pt.UNSAT
        report.outcomes = {nid: SKIPPED for nid in tree.leaves()}
        times["total"] = time.perf_counter() - t0
        return UNSAT, report, out

    cfg0 = initialize(net, prop, base)

    t1 = time.perf_counter()
    removed: list[int] = []
    work = tree.prune(base, removed)
    for nid in removed:
        report.outcomes[nid] = PRUNED
    report.pruned = len(removed)
    times["prune"] = time.perf_counter() - t1

    grafts: dict[int, pt.ProofTree] = {}
    witness: tuple[float, ...] | None = None

    def visit_open_leaf(nid: int) -> bool:
        """Re-search a sat or unsolved leaf; True when it yields a witness."""
        nonlocal witness
        node = work.nodes[nid]
        if node.witness is not None and witness_ok(net, prop, node.witness):
            report.outcomes[nid] = RESOLVED_SAT
            witness = tuple(node.witness)
            return True
        asserts = sorted(work.asserts_of(nid))
        bounds = analyze(net, prop.box, asserts)
        if bounds.infeasible or is_property_refuted(bounds, prop):
            report.outcomes[nid] = RESOLVED_UNSAT
            node.status = pt.UNSAT
            node.witness = None
            return False
        cfg = cfg0.copy()
        refresh_bounds(cfg, net, prop, bounds)
        w, graft = search_branch(net, prop, asserts, cfg, bounds)
        grafts[nid] = graft
        if w is not None:
            report.outcomes[nid] = RESOLVED_SAT
            witness = w
            return True
        report.outcomes[nid] = RESOLVED_UNSAT
        return False

    t2 = time.perf_counter()
    sat_leaf = work.sat_leaf()
    open_leaves: list[int] = []
    if sat_leaf is not None:
        eps = work.leaves_with_status(pt.UNSOLVED)
        eps.sort(key=lambda v: (work.distance(v, sat_leaf), v))
        open_leaves = [sat_leaf] + eps
    else:
        # the sat branch may have been pruned away; unproven regions remain
        open_leaves = work.leaves_with_status(pt.UNSOLVED)
    for nid in open_leaves:
        if visit_open_leaf(nid):
            break
    times["open_leaves"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    unsat_leaves = [nid for nid in work.leaves_with_status(pt.UNSAT)
                    if nid not in report.outcomes]
    report.unsat_total = len(unsat_leaves) + report.pruned
    if witness is None:
        for nid in unsat_leaves:
            w, outcome, graft = _replay_unsat_leaf(net, prop, work, nid, cfg0)
            report.outcomes[nid] = outcome
            if outcome == PROOF_REPLAYED:
                report.replayed += 1
            else:
                report.fallbacks += 1
            if graft is not None:
                grafts[nid] = graft
            if w is not None:
                witness = w
                break
    times["unsat_leaves"] = time.perf_counter() - t3

    for nid in work.leaves():
        report.outcomes.setdefault(nid, SKIPPED)

    verdict = Verdict(True, witness) if witness is not None else UNSAT
    report.verdict = verdict
    out = _assemble(work, grafts)
    out.verdict = verdict.name
    times["total"] = time.perf_counter() - t0
    return verdict, report, out


def _assemble(work: pt.ProofTree, grafts: dict[int, pt.ProofTree]) -> pt.ProofTree:
    """New tree: the pruned skeleton with re-searched branches grafted in,
    node ids renumbered densely in DFS order."""
    out = pt.ProofTree(work.dims, work.prop_hash)

    def copy_fields(dst: pt.Node, src: pt.Node) -> None:
        dst.status = src.status
        dst.witness = src.witness

    def clone(tree: pt.ProofTree, sid: int, oid: int) -> None:
        src = tree.nodes[sid]
        copy_fields(out.nodes[oid], src)
        for c in src.children:
            cid = out.add_child(oid, tree.nodes[c].assertion)
            clone(tree, c, cid)

    def clone_old(sid: int, oid: int) -> None:
        src = work.nodes[sid]
        if sid in grafts and not src.children:
            clone(grafts[sid], 0, oid)
            return
        copy_fields(out.nodes[oid], src)
        for c in src.children:
            cid = out.add_child(oid, work.nodes[c].assertion)
            clone_old(c, cid)

    clone_old(0, 0)
    return out
