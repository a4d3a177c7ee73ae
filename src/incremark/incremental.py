"""Re-verification of a weight-modified network against a stored proof tree.

The driver prunes edges the new bounds contradict, fast-paths the stored SAT
witness, re-searches open (sat/unsolved) leaves seeded with fresh bounds, and
for each stored UNSAT leaf tries to replay the old proof before falling back
to a full branch search:

    analyze under Assert(v)          empty or property-impossible -> UNSAT
    branch relaxation LP             infeasible -> UNSAT
    strict mode                      rebuild the stored basis, LP-tighten the
                                     key row's variables, re-test that row
    lazy mode (default)              LP-shrink the input box, re-propagate,
                                     re-test every row of the fresh tableau
    otherwise                        full search of the branch
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import lp
from . import prooftree as pt
from .deeppoly import analyze, is_property_refuted
from .model import UNSAT, Verdict, property_hash, witness_ok
from .simplex import (
    SingularBasisError,
    check_unsat_rows,
    gauss_to_basis,
    initialize,
    refresh_bounds,
    row_unsat,
)
from .solver import SearchParams, _visit

STRICT = "strict"
LAZY = "lazy"

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
    mode: str
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
            "mode": self.mode,
            "replay_pct": self.replay_pct,
            "pruned": self.pruned,
            "replayed": self.replayed,
            "fallbacks": self.fallbacks,
            "unsat_leaves_total": self.unsat_total,
            "times_s": {k: round(v, 6) for k, v in self.times.items()},
            "outcomes": {str(k): v for k, v in sorted(self.outcomes.items())},
        }


def _check_fits(tree: pt.ProofTree, net, prop) -> None:
    """One walk over the stored nodes: every edge splits a ReLU of this
    network, every witness is an input point, and every stored basis names
    tableau variables of this network and property and has one per row."""
    lay = net.layout
    relu_pre = {pre for pre, _ in lay.relu_pairs}
    n_ids = lay.n_vars + len(prop.constraints)
    n_rows = (sum(len(p) for p in lay.pre_ids) + len(lay.relu_pairs)
              + sum(1 for c in prop.constraints if sum(1 for a in c.coeffs if a != 0.0) >= 2))
    for n in tree.nodes.values():
        if n.assertion is not None and n.assertion.neuron not in relu_pre:
            raise ShapeMismatchError(
                f"node {n.id}: neuron {n.assertion.neuron} is not a ReLU of the network")
        if n.witness is not None and len(n.witness) != net.n_inputs:
            raise ShapeMismatchError(
                f"node {n.id}: witness has {len(n.witness)} values for {net.n_inputs} inputs")
        if n.basis is not None and len(set(n.basis)) != n_rows:
            raise ShapeMismatchError(
                f"node {n.id}: basis of {len(set(n.basis))} variables for {n_rows} tableau rows")
        ids = (n.basis or ()) + (() if n.key_row_var is None else (n.key_row_var,))
        if any(not 0 <= v < n_ids for v in ids):
            raise ShapeMismatchError(f"node {n.id}: basis names a variable outside 0..{n_ids - 1}")


def _solve_branch(net, prop, params, asserts, cfg, bounds):
    """Full search of one branch; returns (witness | None, branch ProofTree)."""
    tree = pt.ProofTree(net.dims, property_hash(prop))
    max_depth = len(net.layout.relu_pairs)
    w = _visit(net, prop, params, tree, 0, cfg, bounds,
               min(len(asserts), max_depth), max_depth, frozenset(asserts))
    tree.verdict = "sat" if w is not None else "unsat"
    return w, tree


def _slack_expr(lay, prop, cfg, vid):
    """Express a tableau variable over network neurons for LP tightening.

    Returns a coefficient dict, or None when the variable is pinned (constant
    slacks) and tightening is pointless.
    """
    for pair, sid in lay.relu_slack.items():
        if sid == vid:
            pre, post = pair
            return {post: 1.0, pre: -1.0}
    if vid in lay.affine_const_slack.values() or vid in lay.relu_const_slack.values():
        return None
    for idx, sid in cfg.prop_slacks.items():
        if sid == vid:
            c = prop.constraints[idx]
            return {lay.output_ids[k]: float(a) for k, a in enumerate(c.coeffs) if a != 0.0}
    return {vid: 1.0}  # a network neuron


def _replay_unsat_leaf(net, prop, tree, nid, mode, params, cfg0):
    """Returns (witness | None, outcome, graft tree | None) for a stored
    UNSAT leaf. Outcome is PROOF_REPLAYED or PROOF_FAILED_FELL_BACK."""
    lay = net.layout
    node = tree.nodes[nid]
    asserts = sorted(tree.asserts_of(nid))
    bounds = analyze(net, prop.box, asserts)
    if bounds.infeasible or is_property_refuted(bounds, prop):
        return None, PROOF_REPLAYED, None
    relax = lp.build(net, prop, asserts, bounds)
    if not lp.feasible(relax):
        return None, PROOF_REPLAYED, None

    fb_cfg = fb_bounds = None
    use_lazy = mode == LAZY or node.basis is None
    if not use_lazy:
        try:
            cfg = gauss_to_basis(cfg0, node.basis)
        except SingularBasisError:
            use_lazy = True
        else:
            refresh_bounds(cfg, net, prop, bounds)
            key = node.key_row_var
            for v in sorted(set(cfg.rows[key]) | {key}):
                expr = _slack_expr(lay, prop, cfg, v)
                if expr is None:
                    continue
                cfg.lo[v], cfg.hi[v] = lp.tighten_expr(relax, expr, (cfg.lo[v], cfg.hi[v]))
            if row_unsat(cfg, key):
                return None, PROOF_REPLAYED, None
            fb_cfg, fb_bounds = cfg, bounds
    if use_lazy:
        nb = lp.tighten_inputs_then_repropagate(net, prop, asserts, relax)
        if nb.infeasible or is_property_refuted(nb, prop):
            return None, PROOF_REPLAYED, None
        cfg = cfg0.copy()
        refresh_bounds(cfg, net, prop, nb)
        if not check_unsat_rows(cfg).feasible:
            return None, PROOF_REPLAYED, None
        fb_cfg, fb_bounds = cfg, nb

    w, graft = _solve_branch(net, prop, params, asserts, fb_cfg, fb_bounds)
    return w, PROOF_FAILED_FELL_BACK, graft


def solve_leaf(net, prop, tree, nid, mode: str = LAZY, params: SearchParams | None = None) -> Verdict:
    """Standalone branch verdict for one stored UNSAT leaf."""
    params = params or SearchParams()
    bounds = analyze(net, prop.box)
    cfg0 = initialize(net, prop, bounds)
    w, _, _ = _replay_unsat_leaf(net, prop, tree, nid, mode, params, cfg0)
    return Verdict(True, w) if w is not None else UNSAT


def verify_incremental(net, prop, tree: pt.ProofTree, mode: str = LAZY,
                       params: SearchParams | None = None):
    """Re-verify (net, prop) guided by a stored tree.

    Returns (Verdict, IncrementalReport, new ProofTree); the new tree records
    what this run established, so it can seed the next modification.
    """
    if mode not in (STRICT, LAZY):
        raise ValueError(f"unknown mode {mode!r}")
    params = params or SearchParams()
    if tuple(tree.dims) != tuple(net.dims):
        raise ShapeMismatchError(f"tree dims {tree.dims} vs network {net.dims}")
    phash = property_hash(prop)
    if tree.prop_hash != phash:
        raise ShapeMismatchError("stored tree was built for a different property")
    _check_fits(tree, net, prop)

    report = IncrementalReport(UNSAT, mode)
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
            node.basis = node.key_row_var = node.witness = None
            return False
        cfg = None
        if mode == STRICT and node.basis is not None:
            try:
                cfg = gauss_to_basis(cfg0, node.basis)
            except SingularBasisError:
                cfg = None
        if cfg is None:
            cfg = cfg0.copy()
        refresh_bounds(cfg, net, prop, bounds)
        w, graft = _solve_branch(net, prop, params, asserts, cfg, bounds)
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
            w, outcome, graft = _replay_unsat_leaf(net, prop, work, nid, mode, params, cfg0)
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
        dst.basis = src.basis
        dst.key_row_var = src.key_row_var
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
