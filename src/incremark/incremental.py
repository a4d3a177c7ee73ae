"""Re-verification of a weight-modified network against a stored proof tree.

`verify_incremental` works in this order. It first runs the one check that
refuses a tree, `ProofTree.validate(net, prop)`: its layer widths, its
property hash, the property's fit to the network, then one walk for its
structure and for the fit of its edges, witnesses and certificates to the
network; the walk also gives the stored leaves of each status. It then
tests the stored SAT witness, if the tree has one, before it computes any
bounds: a witness that violates the property on the new network at eps 0
(`witness_ok`) and whose own pre-activations meet every edge assertion of
its leaf answers SAT at once. The output tree is then the
stored tree as it is (`ProofTree.copy`), its SAT leaf `resolved_sat` and
every other leaf `skipped`. A witness that holds only within EPS_SAT, or
that has left its leaf's branch, takes the full path, which is the only
path of a tree without a SAT leaf: DeepPoly bounds over the root box,
pruning of the edges that they contradict, a re-search of the open
(sat/unsolved) leaves seeded with fresh bounds, and for each stored UNSAT
leaf the replay ladder below, before it falls back to a branch search.
The search of a SAT leaf whose witness no longer holds first climbs from
that witness (`solver.attack`): a nearby witness of the new network
closes the leaf with no tableau. Every search is `solver.search` on a
leaf of the tree that pruning the stored one builds (`ProofTree.prune`),
which it grows in place; that tree is the output tree, so the stored
nodes that pruning keeps keep their ids and a search's nodes take ids
above them.
An UNSAT leaf that `solve` writes carries a certificate: the multipliers of
the encoded equations whose sum showed its branch empty (a tableau or LP
row, or a DeepPoly back-substitution), unless no equation states the
refutation (an output ReLU's own interval). The ladder tests it first, on
the cheapest bounds that contain the branch. Each rung is named by the word
the report records:

    certificate  the stored certificate, rebuilt for the new weights, excludes
                 0 by intervals over the root bounds clamped by the leaf's
                 assertions (no analyze, no LP)
    analyze      analyze under Assert(v): empty or property-impossible; the
                 refuting back-substitution becomes the leaf's certificate
    certificate  the stored certificate over the leaf's own analyze bounds
    lp           the branch relaxation carries a certificate (`lp.build`
                 keeps an infeasible row's certificate when it re-checks
                 over the leaf's bounds); it becomes the leaf's certificate
    resolved_sat the relaxation is feasible: the ascent (`solver.attack`)
                 from its input point (`Relaxation.input_point`) finds a
                 witness, which answers SAT; the leaf becomes a SAT leaf
    tighten      otherwise LP-shrink the input box, re-propagate: empty or
                 property-impossible
    fallback     otherwise: `solver.search` decides the leaf from a new
                 tableau over the tightened bounds (the leaf's own, when
                 phase 1 ended infeasible or at the cap) and grows the tree
                 below it; its closed leaves bring their own certificates

Every rung but the last closes the leaf, and `resolved_sat` ends the
ladder with the run's witness. That witness passes `witness_ok` at eps 0,
so it is a counterexample of the new network, but it may lie outside the
leaf's branch, as the ascent from a re-searched SAT leaf's stale witness
may too; a run from the output tree then finds that `_stored_witness`
leaves its branch and takes the full path. The clamped root box contains
the leaf's region, and a chord over a wider interval still bounds its
ReLU, so the first test is sound; an assertion that empties its clamped
interval skips it. A leaf needs only its edge assertions; its
certificate, when it has one, only saves work. A run that finds no
witness raises RuntimeError when a search left a branch undecided
(`solver.raise_if_undecided`).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import deeppoly, lp
from . import prooftree as pt
from .deeppoly import SIGN_RANGE, analyze, clamp, is_property_refuted
from .model import UNSAT, Verdict, neuron_values, witness_ok
# not called here: perfbench/tracer.py patches these two names on this module
from .simplex import check_unsat_rows, refresh_bounds  # noqa: F401
from .solver import attack, raise_if_undecided, search

RESOLVED_SAT = "resolved_sat"
RESOLVED_UNSAT = "resolved_unsat"
PRUNED = "pruned"
SKIPPED = "skipped"

# rungs of the replay ladder, the outcomes of replayed UNSAT leaves; the
# certificate is tried before analyze and again after it (module docstring)
ANALYZE = "analyze"
CERTIFICATE = "certificate"
LP = "lp"
TIGHTEN = "tighten"
FALLBACK = "fallback"
RUNGS = (ANALYZE, CERTIFICATE, LP, TIGHTEN, FALLBACK)


@dataclass
class IncrementalReport:
    verdict: Verdict
    # stored leaf id (kept in the output tree unless the root bounds refute
    # the property) -> PRUNED, SKIPPED, RESOLVED_SAT/UNSAT or the leaf's rung
    outcomes: dict[int, str] = field(default_factory=dict)
    fallback_nodes: int = 0  # nodes the fallback searches grew, their leaves included
    unsat_total: int = 0  # stored UNSAT leaves, the pruned ones included
    times: dict[str, float] = field(default_factory=dict)  # phase -> seconds

    @property
    def pruned(self) -> int:
        return sum(1 for o in self.outcomes.values() if o == PRUNED)

    @property
    def replayed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o in RUNGS and o != FALLBACK)

    @property
    def fallbacks(self) -> int:
        return sum(1 for o in self.outcomes.values() if o == FALLBACK)

    @property
    def replay_pct(self) -> float:
        visited = self.replayed + self.fallbacks
        return 100.0 * self.replayed / visited if visited else 100.0  # 100: nothing to replay

    def to_json(self) -> dict:
        counts = Counter(self.outcomes.values())
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
            "rungs": {r: counts[r] for r in RUNGS},
        }


def _replay_unsat_leaf(net, prop, tree, nid, base):
    """Climb the replay ladder for a stored UNSAT leaf, given the root
    bounds `base`; returns (outcome, witness | None), the outcome a rung or
    RESOLVED_SAT when the ascent from the LP's point finds a witness. The
    analyze and LP rungs leave their certificates on the leaf, the ascent
    leaves its witness there, and the fallback grows the tree below it."""
    node = tree.nodes[nid]
    asserts = sorted(tree.asserts_of(nid))
    if node.cert is not None:
        box = clamp(net, base, asserts) if asserts else base
        if box is not None and lp.certificate_refutes(net, prop, box, node.cert):
            return CERTIFICATE, None
    bounds = analyze(net, prop.box, asserts) if asserts else base
    if is_property_refuted(bounds, prop):
        node.cert = deeppoly.certificate(net, prop, bounds)
        return ANALYZE, None
    if asserts and node.cert is not None and lp.certificate_refutes(net, prop, bounds, node.cert):
        return CERTIFICATE, None
    relax = lp.build(net, prop, bounds)
    if relax.cert is not None:
        node.cert = relax.cert
        return LP, None
    if relax.status == lp.FEASIBLE:
        witness = attack(net, prop, [relax.input_point(net)])
        if witness is not None:
            node.status, node.witness, node.cert = pt.SAT, witness, None
            return RESOLVED_SAT, witness
        bounds = lp.tighten_inputs_then_repropagate(net, asserts, relax)
        if is_property_refuted(bounds, prop):
            return TIGHTEN, None
    return FALLBACK, search(net, prop, tree, nid, bounds)


def _stored_witness(net, prop, tree: pt.ProofTree, sat_leaves: list[int]):
    """The stored SAT leaf's witness as a tuple when it still violates the
    property on this network at eps 0 (`witness_ok`) and its own
    pre-activations (`neuron_values`, computed only for a leaf below the
    root) meet every edge assertion of its leaf; else None."""
    w = tree.nodes[sat_leaves[0]].witness if sat_leaves else None
    if w is None or not witness_ok(net, prop, w, eps=0.0):
        return None
    asserts = tree.asserts_of(sat_leaves[0])
    if asserts:
        values = neuron_values(net, w)
        for a in asserts:
            lo, hi = SIGN_RANGE[a.sign]
            if not lo <= values[a.neuron] <= hi:
                return None
    return tuple(w)


@np.errstate(over="ignore", invalid="ignore")  # as `solver.solve`
def verify_incremental(net, prop, tree: pt.ProofTree):
    """Re-verify (net, prop) guided by a stored tree, which is left as it is.

    Returns (Verdict, IncrementalReport, new ProofTree). The new tree is the
    tree that `ProofTree.prune` built and this run's searches grew; it
    records what this run established, so it can seed the next
    modification. The order of work: `tree.validate(net, prop)`, the one
    check that refuses a tree, run once (ShapeMismatchError on other layer
    widths, another property or a node that does not fit the network,
    ValueError on a property that does not fit the network or on a
    structural breach) and gives the stored leaves of each status; then
    the stored witness, which answers SAT before any bounds are computed
    when it holds (module docstring); then the root bounds, pruning, the
    open leaves and the replay ladder.
    """
    leaves = tree.validate(net, prop)

    report = IncrementalReport(UNSAT)
    times = report.times
    t0 = time.perf_counter()

    stored_leaves = sorted(nid for ids in leaves.values() for nid in ids)
    witness = _stored_witness(net, prop, tree, leaves[pt.SAT])
    if witness is not None:
        # the stored tree, as it is, with its SAT leaf resolved
        work = tree.copy()
        report.outcomes = {nid: SKIPPED for nid in stored_leaves}
        report.outcomes[leaves[pt.SAT][0]] = RESOLVED_SAT
        report.unsat_total = len(leaves[pt.UNSAT])
        times["open_leaves"] = time.perf_counter() - t0
        return _answer(report, work, witness, t0)

    base = analyze(net, prop.box)
    times["analyze"] = time.perf_counter() - t0
    if is_property_refuted(base, prop):
        out = pt.ProofTree(net.dims, tree.prop_hash)
        search(net, prop, out, 0, base)
        report.outcomes = {nid: SKIPPED for nid in stored_leaves}
        return _answer(report, out, None, t0)

    t1 = time.perf_counter()
    work, closed = tree.prune(base)
    for nid in closed:
        report.outcomes[nid] = PRUNED
        node = work.nodes[nid]
        if node.cert is None:
            # a pruned internal node: its assertion empties its interval
            node.cert = deeppoly.certificate(
                net, prop, replace(base, infeasible=True, emptied=node.assertion))
    times["prune"] = time.perf_counter() - t1

    # the stored leaves that pruning kept open, taken from the stored walk
    # before any search grows `work` below them
    shut = set(closed)

    def kept(ids):
        return [nid for nid in ids if nid in work.nodes and nid not in shut]

    unsat_leaves = kept(leaves[pt.UNSAT])
    # the sat leaf first, then the unsolved ones nearest it; the sat branch
    # may have been pruned away, and unproven regions remain
    sat_leaf = next(iter(kept(leaves[pt.SAT])), None)
    open_leaves = kept(leaves[pt.UNSOLVED])
    if sat_leaf is not None:
        open_leaves.sort(key=lambda v: (work.distance(v, sat_leaf), v))
        open_leaves.insert(0, sat_leaf)

    t2 = time.perf_counter()
    for nid in open_leaves:
        node = work.nodes[nid]
        if node.witness is not None and witness_ok(net, prop, node.witness):
            witness = tuple(node.witness)
        else:
            asserts = sorted(work.asserts_of(nid))
            witness = search(net, prop, work, nid,
                             analyze(net, prop.box, asserts) if asserts else base)
        report.outcomes[nid] = RESOLVED_UNSAT if witness is None else RESOLVED_SAT
        if witness is not None:
            break
    times["open_leaves"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    report.unsat_total = len(unsat_leaves) + len(closed)
    if witness is None:
        for nid in unsat_leaves:
            size = len(work.nodes)
            rung, witness = _replay_unsat_leaf(net, prop, work, nid, base)
            report.outcomes[nid] = rung
            if rung == FALLBACK:
                report.fallback_nodes += 1 + len(work.nodes) - size
            if witness is not None:
                break
    times["unsat_leaves"] = time.perf_counter() - t3

    if witness is None:
        raise_if_undecided(work)
    for nid in kept(stored_leaves):
        report.outcomes.setdefault(nid, SKIPPED)
    return _answer(report, work, witness, t0)


def _answer(report, tree, witness, t0):
    """Record the verdict that `witness` gives on the report and the output
    tree; returns verify_incremental's triple."""
    verdict = Verdict(True, witness) if witness is not None else UNSAT
    report.verdict = verdict
    tree.verdict = verdict.name
    report.times["total"] = time.perf_counter() - t0
    return verdict, report, tree
