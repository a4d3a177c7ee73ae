"""Re-verification of a weight-modified network against a stored proof tree.

The driver prunes edges the new bounds contradict, fast-paths the stored SAT
witness, re-searches open (sat/unsolved) leaves seeded with fresh bounds, and
for each stored UNSAT leaf tries to replay the old proof before falling back
to a full branch search. Every UNSAT leaf that `solve` writes carries a
certificate: the multipliers of the encoded equations whose sum showed its
branch empty (a tableau or LP row, or a DeepPoly back-substitution). The
ladder tests it first, on the cheapest bounds that contain the branch. Each
rung is named by the word the report counts:

    certificate  the stored certificate, rebuilt for the new weights, excludes
                 0 by intervals over the root bounds clamped by the leaf's
                 assertions (no analyze, no LP)
    analyze      analyze under Assert(v): empty or property-impossible; the
                 refuting back-substitution becomes the leaf's certificate
    certificate  the stored certificate over the leaf's own analyze bounds
    lp           the branch relaxation LP is infeasible; its row becomes the
                 leaf's certificate
    tighten      LP-shrink the input box, re-propagate: empty or
                 property-impossible
    fallback     otherwise: full search of the branch from a fresh tableau
                 over the tightened bounds (`solver.search_branch`), whose
                 closed leaves bring their own certificates

Every rung but the last closes the leaf. The clamped root box contains the
leaf's region, and a chord over a wider interval still bounds its ReLU, so
the first test is sound; an assertion that empties its clamped interval
skips it. A leaf needs only its edge assertions; its certificate, when it
has one, only saves work.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace

from . import deeppoly, lp
from . import prooftree as pt
from .deeppoly import analyze, clamp, is_property_refuted
from .model import UNSAT, Verdict, property_hash, witness_ok
from .simplex import AFF, CHORD, PROP, RELU, certificate, prop_slack_ids
# not called here: perfbench/tracer.py patches these two names on this module
from .simplex import check_unsat_rows, refresh_bounds  # noqa: F401
from .solver import search_branch

PROOF_REPLAYED = "proof_replayed"
PROOF_FAILED_FELL_BACK = "proof_failed_fell_back"
RESOLVED_SAT = "resolved_sat"
RESOLVED_UNSAT = "resolved_unsat"
PRUNED = "pruned"
SKIPPED = "skipped"

# rungs of the replay ladder as the report counts them; the certificate
# is tried before analyze and again after it (see the module docstring)
ANALYZE = "analyze"
CERTIFICATE = "certificate"
LP = "lp"
TIGHTEN = "tighten"
FALLBACK = "fallback"
RUNGS = (ANALYZE, CERTIFICATE, LP, TIGHTEN, FALLBACK)


class ShapeMismatchError(Exception):
    """Stored tree does not fit the network shape (or the property changed,
    which is just as fatal for replay)."""


@dataclass
class IncrementalReport:
    verdict: Verdict
    outcomes: dict[int, str] = field(default_factory=dict)
    fallback_nodes: int = 0  # nodes of the fallback searches' grafts
    unsat_total: int = 0
    times: dict[str, float] = field(default_factory=dict)
    rungs: dict[int, str] = field(default_factory=dict)  # replayed leaf -> its rung

    @property
    def pruned(self) -> int:
        return sum(1 for o in self.outcomes.values() if o == PRUNED)

    @property
    def replayed(self) -> int:
        return sum(1 for r in self.rungs.values() if r != FALLBACK)

    @property
    def fallbacks(self) -> int:
        return sum(1 for r in self.rungs.values() if r == FALLBACK)

    @property
    def replay_pct(self) -> float:
        visited = self.replayed + self.fallbacks
        if visited == 0:
            return 100.0  # nothing needed replaying
        return 100.0 * self.replayed / visited

    def to_json(self) -> dict:
        rungs = Counter(self.rungs.values())
        return {
            "verdict": self.verdict.name,
            "witness": None if self.verdict.witness is None else list(self.verdict.witness),
            "replay_pct": self.replay_pct,
            "pruned": self.pruned,
            "replayed": self.replayed,
            "fallbacks": self.fallbacks,
            "fallback_nodes": self.fallback_nodes,
            "unsat_leaves_total": self.unsat_total,
            "times_s": {k: round(v, 6) for k, v in self.times.items()},
            "outcomes": {str(k): v for k, v in sorted(self.outcomes.items())},
            "rungs": {r: rungs[r] for r in RUNGS},
        }


def check_dims(tree: pt.ProofTree, net) -> None:
    """ShapeMismatchError unless the tree was built for a network of these
    layer widths."""
    if tuple(tree.dims) != tuple(net.dims):
        raise ShapeMismatchError(f"tree dims {tree.dims} vs network {net.dims}")


def _check_fits(tree: pt.ProofTree, net, prop) -> None:
    """One walk over the stored nodes: every edge splits a ReLU of this
    network, every witness is an input point, and every certificate names
    equations that this network and property encode."""
    lay = net.layout
    equations = {AFF: lay.pre_row, RELU: lay.relu_post, CHORD: lay.relu_post,
                 PROP: prop_slack_ids(net, prop)}
    for n in tree.nodes.values():
        if n.assertion is not None and n.assertion.neuron not in lay.relu_post:
            raise ShapeMismatchError(
                f"node {n.id}: neuron {n.assertion.neuron} is not a ReLU of the network")
        if n.witness is not None and len(n.witness) != net.n_inputs:
            raise ShapeMismatchError(
                f"node {n.id}: witness has {len(n.witness)} values for {net.n_inputs} inputs")
        for kind, i, _ in n.cert or ():
            if i not in equations.get(kind, ()):
                raise ShapeMismatchError(
                    f"node {n.id}: certificate names {kind} equation {i}, which this "
                    "network and property do not encode")


def _replay_unsat_leaf(net, prop, tree, nid, base):
    """Climb the replay ladder for a stored UNSAT leaf, given the root
    bounds `base`; returns (rung, witness | None, graft tree | None). The
    analyze and LP rungs leave their certificates on the leaf."""
    node = tree.nodes[nid]
    asserts = sorted(tree.asserts_of(nid))
    if node.cert is not None:
        box = clamp(net, base, asserts) if asserts else base
        if box is not None and lp.certificate_refutes(net, prop, box, node.cert):
            return CERTIFICATE, None, None
    bounds = analyze(net, prop.box, asserts) if asserts else base
    if bounds.infeasible or is_property_refuted(bounds, prop):
        node.cert = deeppoly.certificate(net, prop, bounds) or node.cert
        return ANALYZE, None, None
    if asserts and node.cert is not None and lp.certificate_refutes(net, prop, bounds, node.cert):
        return CERTIFICATE, None, None
    relax = lp.build(net, prop, bounds)
    if not lp.feasible(relax):
        node.cert = certificate(relax.cfg, relax.infeasible_row)
        return LP, None, None
    nb = lp.tighten_inputs_then_repropagate(net, prop, asserts, relax)
    if nb.infeasible or is_property_refuted(nb, prop):
        return TIGHTEN, None, None
    w, graft = search_branch(net, prop, asserts, nb)
    return FALLBACK, w, graft


def verify_incremental(net, prop, tree: pt.ProofTree):
    """Re-verify (net, prop) guided by a stored tree.

    Returns (Verdict, IncrementalReport, new ProofTree); the new tree records
    what this run established, so it can seed the next modification.
    """
    check_dims(tree, net)
    phash = property_hash(prop)
    if tree.prop_hash != phash:
        raise ShapeMismatchError("stored tree was built for a different property")
    _check_fits(tree, net, prop)

    report = IncrementalReport(UNSAT)
    times = report.times
    t0 = time.perf_counter()

    base = analyze(net, prop.box)
    times["analyze"] = time.perf_counter() - t0
    if is_property_refuted(base, prop):
        out = pt.ProofTree(net.dims, phash, "unsat")
        out.root.status = pt.UNSAT
        out.root.cert = deeppoly.certificate(net, prop, base)
        report.outcomes = {nid: SKIPPED for nid in tree.leaves()}
        times["total"] = time.perf_counter() - t0
        return UNSAT, report, out

    t1 = time.perf_counter()
    removed: list[int] = []
    work = tree.prune(base, removed)
    for nid in removed:
        report.outcomes[nid] = PRUNED
        node = work.nodes[nid]
        if node.cert is None:
            # a pruned internal node: its assertion empties its interval
            node.cert = deeppoly.certificate(
                net, prop, replace(base, infeasible=True, emptied=node.assertion))
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
        bounds = analyze(net, prop.box, asserts) if asserts else base
        if bounds.infeasible or is_property_refuted(bounds, prop):
            report.outcomes[nid] = RESOLVED_UNSAT
            node.status = pt.UNSAT
            node.witness = None
            node.cert = deeppoly.certificate(net, prop, bounds)
            return False
        w, graft = search_branch(net, prop, asserts, bounds)
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
    report.unsat_total = len(unsat_leaves) + len(removed)
    if witness is None:
        for nid in unsat_leaves:
            rung, w, graft = _replay_unsat_leaf(net, prop, work, nid, base)
            report.rungs[nid] = rung
            if rung == FALLBACK:
                report.outcomes[nid] = PROOF_FAILED_FELL_BACK
                report.fallback_nodes += len(graft.nodes)
            else:
                report.outcomes[nid] = PROOF_REPLAYED
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

    def clone(tree: pt.ProofTree, sid: int, oid: int) -> None:
        src = tree.nodes[sid]
        if tree is work and sid in grafts and not src.children:
            clone(grafts[sid], 0, oid)
            return
        dst = out.nodes[oid]
        dst.status, dst.witness, dst.cert = src.status, src.witness, src.cert
        for c in src.children:
            cid = out.add_child(oid, tree.nodes[c].assertion)
            clone(tree, c, cid)

    clone(work, 0, 0)
    return out
