from collections import Counter

import numpy as np
import pytest

from incremark.bench import (
    Perturbation,
    oracle,
    perturb,
    random_network,
    random_threshold_property,
)
from incremark.constants import EPS_BOUND, LP_ITER_FACTOR
from incremark.deeppoly import analyze
from incremark.incremental import verify_incremental
from incremark.model import (
    LinearConstraint,
    Network,
    SafetyProperty,
    evaluate,
    property_hash,
    witness_ok,
)
from incremark import deeppoly, solver
from incremark.prooftree import INTERNAL, SAT, UNSAT, UNSOLVED, ProofTree
from incremark.simplex import PROGRESS, Stuck
from incremark.solver import attack, solve

from conftest import BOX


def test_solve_demo_sat(demo_net, demo_prop):
    verdict, tree = solve(demo_net, demo_prop)
    assert verdict.sat
    assert verdict.witness == (0.6750000000000002, 0.0500000000000001)
    assert witness_ok(demo_net, demo_prop, verdict.witness)
    assert tree.verdict == "sat"
    assert tree.prop_hash == property_hash(demo_prop)
    assert tree.dims == (2, 2, 1)


def test_solve_demo_tree_structure(demo_net, demo_prop):
    _, tree = solve(demo_net, demo_prop)
    assert sorted(tree.nodes) == [0, 1, 2]
    root, sat_leaf, open_leaf = tree.nodes[0], tree.nodes[1], tree.nodes[2]
    assert root.status == INTERNAL
    assert root.children == [1, 2]
    # split on the first hidden pre-activation, nonpos branch first
    assert sat_leaf.assertion.neuron == 2 and sat_leaf.assertion.sign == "nonpos"
    assert sat_leaf.status == SAT
    assert sat_leaf.witness == (0.6750000000000002, 0.0500000000000001)
    # SAT short-circuits: the sibling branch is never visited
    assert open_leaf.assertion.neuron == 2 and open_leaf.assertion.sign == "nonneg"
    assert open_leaf.status == UNSOLVED
    assert open_leaf.witness is None
    tree.validate()


def test_solve_demo_tree_json(demo_net, demo_prop):
    _, tree = solve(demo_net, demo_prop)
    data = tree.to_json()
    assert data["version"] == 1
    assert data["verdict"] == "sat"
    assert data["nodes"][1]["assert"] == {"neuron": 2, "sign": "nonpos"}
    assert data["nodes"][1]["witness"] == [0.6750000000000002, 0.0500000000000001]
    assert data["nodes"][2]["status"] == "unsolved"


def _no_tableau(monkeypatch):
    """Make building a search tableau fail the test."""
    def built(*args):
        raise AssertionError("a search tableau was built")
    monkeypatch.setattr(solver, "initialize", built)
    monkeypatch.setattr(solver, "refresh_bounds", built)


def test_ascent_from_the_centre_decides_the_root(monkeypatch):
    """(2,5,5,1) s4 took 5 nodes of tableau search; the ascent from the box
    centre finds its witness before the root builds a tableau."""
    net = random_network((2, 5, 5, 1), 4)
    prop = random_threshold_property(net, 5)
    _no_tableau(monkeypatch)
    verdict, tree = solve(net, prop)
    assert verdict.sat and witness_ok(net, prop, verdict.witness, eps=0.0)
    assert sorted(tree.nodes) == [0]
    assert tree.root.status == SAT and tree.root.witness == verdict.witness


def test_ascent_leaves_unsat_trees_as_they_are(monkeypatch):
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    with_ascent = solve(net, prop)[1].to_json()
    monkeypatch.setattr(solver, "attack", lambda net, prop, start: None)
    assert solve(net, prop)[1].to_json() == with_ascent


def test_reverification_ascends_from_the_stored_witness(monkeypatch, no_attack):
    """A stored SAT leaf whose witness fails under the new weights is
    searched by the ascent from that witness first: it finds a new one,
    and no tableau is built."""
    net = random_network((2, 5, 5, 1), 4)
    prop = random_threshold_property(net, 5)
    _, tree = solve(net, prop)  # without the ascent: the SAT leaf is not the root
    leaf = tree.sat_leaf()
    stored = tree.nodes[leaf].witness
    assert leaf != 0
    changed = perturb(net, Perturbation(0.01, 1.0, 0))
    assert not witness_ok(changed, prop, stored)
    starts = []

    def traced(net, prop, start):
        starts.append(tuple(start))
        return attack(net, prop, start)

    monkeypatch.setattr(solver, "attack", traced)
    _no_tableau(monkeypatch)
    verdict, report, out = verify_incremental(changed, prop, tree)
    assert starts == [stored]  # not the root: no start at the box centre
    assert verdict.sat and witness_ok(changed, prop, verdict.witness, eps=0.0)
    assert verdict.witness != stored
    assert out.nodes[leaf].status == SAT and out.nodes[leaf].witness == verdict.witness
    assert report.outcomes[leaf] == "resolved_sat" and len(out.nodes) == len(tree.nodes)


def test_ascent_on_the_demo_finds_nothing(demo_net, demo_prop):
    # every ReLU is off at the centre (0, 0): the gradient is zero, so the
    # demo keeps its 3-node tableau search
    assert attack(demo_net, demo_prop, (0.0, 0.0)) is None


def test_solve_refuted_at_root(demo_net, unsat_prop):
    verdict, tree = solve(demo_net, unsat_prop)
    assert not verdict.sat
    assert verdict.witness is None
    assert tree.verdict == "unsat"
    assert sorted(tree.nodes) == [0]
    assert tree.root.status == UNSAT


def test_solve_empty_negation_is_unsat(demo_net):
    verdict, tree = solve(demo_net, SafetyProperty(BOX, ()))
    assert not verdict.sat
    assert tree.root.status == UNSAT


def test_contradictory_single_output_constraints_are_unsat(demo_net):
    """y <= 0.5 and y >= 0.6 leave the output no value. No sum of equations
    states a clash of two bounds, so the negation is decided empty, as the
    empty one is, by solve, re-verification and the oracle alike."""
    clash = SafetyProperty(BOX, (LinearConstraint((-1.0,), -0.5),
                                 LinearConstraint((1.0,), 0.6)))
    assert clash.negation_empty
    verdict, tree = solve(demo_net, clash)
    assert not verdict.sat
    assert sorted(tree.nodes) == [0] and tree.root.status == UNSAT
    assert not verify_incremental(demo_net, clash, tree)[0].sat
    assert not oracle(demo_net, clash).sat
    # a clash within EPS_BOUND is float rounding, not an empty negation
    touch = SafetyProperty(BOX, (LinearConstraint((-1.0,), -0.5),
                                 LinearConstraint((1.0,), 0.5 + EPS_BOUND / 2)))
    assert not touch.negation_empty


def test_solve_unsat_after_search():
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    verdict, tree = solve(net, prop)
    assert not verdict.sat
    assert sorted(tree.nodes) == list(range(9))
    statuses = [tree.nodes[i].status for i in sorted(tree.nodes)]
    assert statuses == ["internal", "internal", "internal", "unsat",
                        "internal", "unsat", "unsat", "unsat", "unsat"]
    tree.validate()


def test_solve_deterministic(demo_net, demo_prop):
    a = solve(demo_net, demo_prop)
    b = solve(demo_net, demo_prop)
    assert a[0] == b[0]
    assert a[1].to_json() == b[1].to_json()
    net = random_network((3, 8, 1), 4)
    prop = random_threshold_property(net, 5)
    assert solve(net, prop)[1].to_json() == solve(net, prop)[1].to_json()


def test_solve_random_instances_validate():
    sats = unsats = 0
    for seed in range(20):
        shape = (2, 5, 5, 1) if seed % 2 == 0 else (3, 8, 1)
        net = random_network(shape, seed)
        prop = random_threshold_property(net, seed + 1)
        verdict, tree = solve(net, prop)
        tree.validate()
        assert tree.prop_hash == property_hash(prop)
        if verdict.sat:
            sats += 1
            assert witness_ok(net, prop, verdict.witness)
            leaf = tree.sat_leaf()
            assert tree.nodes[leaf].witness == verdict.witness
        else:
            unsats += 1
            assert tree.sat_leaf() is None
            assert tree.leaves_with_status(UNSOLVED) == []
    assert sats and unsats  # the generator must exercise both outcomes


def test_point_boxes_are_decided_without_a_traceback():
    """Every input of (2,5,5,1) s0-39 pinned to the midpoint of its box:
    `analyze` gives point intervals, and `solve` and a re-verification of
    its tree under Perturbation(0.05, 0.5, s) finish and agree with the
    oracle."""
    verdicts = Counter()
    for seed in range(40):
        net = random_network((2, 5, 5, 1), seed)
        base = random_threshold_property(net, seed + 1)
        box = tuple(((lo + hi) / 2,) * 2 for lo, hi in base.box)
        prop = SafetyProperty(box, base.constraints)
        b = analyze(net, box)
        assert not b.infeasible and b.lo == b.hi, seed
        verdict, tree = solve(net, prop)
        assert verdict.sat == oracle(net, prop).sat, seed
        changed = perturb(net, Perturbation(0.05, 0.5, seed))
        again, _, _ = verify_incremental(changed, prop, tree)
        assert again.sat == oracle(changed, prop).sat, seed
        for v, n in ((verdict, net), (again, changed)):
            assert not v.sat or witness_ok(n, prop, v.witness), seed
            verdicts[v.sat] += 1
    assert verdicts[True] and verdicts[False], verdicts


@pytest.mark.parametrize("dims, seed", [((2, 5, 5, 1), 2), ((3, 8, 8, 1), 5)])
def test_split_on_demand(monkeypatch, dims, seed):
    """Every internal node splits on the first uncertain pair whose repair
    count reaches SPLIT_THRESHOLD, right when it does; a node where no pair
    gets there splits when stuck."""
    net = random_network(dims, seed)
    prop = random_threshold_property(net, seed + 1)
    searches = {}  # id(cfg) -> the local search's record
    last = []
    repair_step, add_child = solver.repair_step, ProofTree.add_child

    def traced_step(cfg, *args):
        rec = searches.setdefault(id(cfg), {"cfg": cfg, "steps": 0, "hot": None})
        step = repair_step(cfg, *args)
        rec["steps"] += 1
        rec["stuck"] = isinstance(step, Stuck)
        if rec["hot"] is None:
            hot = [pre for pre, _ in cfg.relu_pairs
                   if cfg.lo[pre] < 0.0 < cfg.hi[pre]
                   and cfg.violations[pre] >= solver.SPLIT_THRESHOLD]
            if hot:
                rec["hot"] = (hot[0], rec["steps"])
        last[:] = [rec]
        return step

    splits = {}

    def traced_add_child(tree, parent, assertion):
        # a node's last repair step comes right before its split
        splits.setdefault(parent, (assertion.neuron, last[0]))
        return add_child(tree, parent, assertion)

    monkeypatch.setattr(solver, "repair_step", traced_step)
    monkeypatch.setattr(ProofTree, "add_child", traced_add_child)
    _, tree = solve(net, prop)
    assert set(splits) == {n.id for n in tree.nodes.values() if n.status == INTERNAL}
    on_demand = 0
    for neuron, rec in splits.values():
        if rec["hot"] is not None:
            on_demand += 1
            assert (neuron, rec["steps"]) == rec["hot"]
        else:
            assert rec["stuck"]
    assert on_demand > 0


def test_decided_pair_at_threshold_ends_the_node(monkeypatch):
    """A decided ReLU pair that reaches SPLIT_THRESHOLD repairs while
    uncertain pairs remain ends the node at that step, which splits on an
    uncertain pair instead of repairing the decided one on and on."""
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    uncertain = deeppoly.uncertain(net.layout, analyze(net, prop.box))
    decided = next(pre for pre, _ in net.layout.relu_pairs if pre not in uncertain)
    assert uncertain
    root = {"steps": 0}
    repair_step = solver.repair_step

    def step(cfg, *args):
        if root.setdefault("cfg", cfg) is not cfg:
            return repair_step(cfg, *args)
        # the root's local search only ever re-repairs its decided pair
        root["steps"] += 1
        cfg.count_repair(decided)
        return PROGRESS

    monkeypatch.setattr(solver, "repair_step", step)
    verdict, tree = solve(net, prop)
    assert root["steps"] == solver.SPLIT_THRESHOLD
    assert tree.root.status == INTERNAL
    assert {tree.nodes[c].assertion.neuron for c in tree.root.children} <= set(uncertain)
    tree.validate()
    assert verdict.sat == oracle(net, prop).sat


def test_branch_lp_decides_fully_decided_branches(monkeypatch):
    """With SPLIT_THRESHOLD at 0 every node splits before any repair and the
    branch LP decides every branch with all ReLUs decided: the verdicts must
    be the oracle's, and both LP outcomes must occur."""
    statuses = Counter()
    decide = solver._decide_by_lp

    def counted(net, prop, node, bounds):
        witness = decide(net, prop, node, bounds)
        statuses[node.status] += 1
        return witness

    monkeypatch.setattr(solver, "SPLIT_THRESHOLD", 0)
    monkeypatch.setattr(solver, "_decide_by_lp", counted)
    for seed in range(12):
        net = random_network((2, 5, 5, 1), seed)
        prop = random_threshold_property(net, seed + 1)
        verdict, tree = solve(net, prop)
        tree.validate()
        assert verdict.sat == oracle(net, prop).sat
        if verdict.sat:
            assert witness_ok(net, prop, verdict.witness)
    assert statuses[SAT] and statuses[UNSAT]


def _scaled_instance(seed, scale):
    """random_network((2,4,4,1), seed) with every weight and bias times
    `scale`, and a threshold property drawn as random_threshold_property
    draws it, its margin widened by 0.2 * scale**3."""
    net = random_network((2, 4, 4, 1), seed)
    net = Network([w * scale for w in net.weights], [b * scale for b in net.biases],
                  list(net.activations))
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
    box = [(float(min(x, y)), float(max(x, y))) for x, y in zip(a, b)]
    pts = rng.uniform([l for l, _ in box], [h for _, h in box], size=(64, 2))
    ys = [evaluate(net, x)[0] for x in pts]
    t = max(ys) + rng.uniform(-0.25, 0.25) * (max(ys) - min(ys) + 0.2 * scale**3)
    return net, SafetyProperty(tuple(box), (LinearConstraint((1.0,), float(t)),))


def test_row_closes_a_node_only_when_its_certificate_rechecks(no_attack):
    """At weight scale 1e4 pivoting drifts tableau rows away from the sums
    of equations they name. In s123 such a row closed the root node and
    the search answered UNSAT, though a point beats the threshold (about
    -1.04e12) by about 9e10; re-checked, the row closes nothing and the
    search finds a witness. The ascent, which finds one before any
    tableau, is off."""
    net, prop = _scaled_instance(123, 1e4)
    assert -1.05e12 < prop.constraints[0].threshold < -1.03e12
    verdict, tree = solve(net, prop)
    assert verdict.sat
    assert witness_ok(net, prop, verdict.witness)
    assert oracle(net, prop).sat
    assert len(tree.nodes) == 3
    tree.validate()


@pytest.mark.parametrize("seed, scale, nodes", [(123, 1e3, 3), (35, 1e4, 17)])
def test_unfinished_local_search_splits_or_asks_the_lp(seed, scale, nodes, no_attack):
    """A local search that ends without a closing row or a valid witness
    ends the node like the split rule does. s123 at 1e3 repairs to a point
    that fails forward validation; s35 at 1e4 gets stuck on a fully decided
    branch. Both used to raise RuntimeError and are SAT; the ascent, which
    finds their witnesses before any tableau, is off."""
    net, prop = _scaled_instance(seed, scale)
    verdict, tree = solve(net, prop)
    assert verdict.sat
    assert witness_ok(net, prop, verdict.witness)
    assert oracle(net, prop).sat
    assert len(tree.nodes) == nodes
    tree.validate()


def test_every_local_search_ends(monkeypatch, no_attack):
    """At weight scale 1e5 the root of s107 repairs bounds without end:
    values re-solved between pivots defeat Bland's rule, and no ReLU pair
    reaches SPLIT_THRESHOLD. A node's local search ends after
    LP_ITER_FACTOR * (rows + variables) repair steps; the search then goes
    on, and ends with an answer or a one-line RuntimeError. The ascent,
    which decides s107 before any tableau, is off."""
    net, prop = _scaled_instance(107, 1e5)
    searches = {}  # id(cfg) -> [cfg, steps, cap]
    repair_step = solver.repair_step

    def counted(cfg, *args):
        rec = searches.setdefault(
            id(cfg), [cfg, 0, LP_ITER_FACTOR * (len(cfg.basic) + len(cfg.lo))])
        rec[1] += 1
        assert rec[1] <= rec[2], "a local search ran past its step cap"
        return repair_step(cfg, *args)

    monkeypatch.setattr(solver, "repair_step", counted)
    try:
        verdict = solve(net, prop)[0]
        assert not verdict.sat or witness_ok(net, prop, verdict.witness)
    except RuntimeError as e:
        assert "\n" not in str(e)
    assert any(steps == cap for _, steps, cap in searches.values())


def test_largest_search_node_count():
    """(4,10,10,1) s0 is the largest search the tableau runs in these
    tests: UNSAT in 751 nodes. A change that moves the count updates it
    here and says why; `--durations` reports its wall time."""
    net = random_network((4, 10, 10, 1), 0)
    verdict, tree = solve(net, random_threshold_property(net, 1))
    assert not verdict.sat
    assert len(tree.nodes) == 751


def _answer(decide, net, prop):
    try:
        return decide(net, prop)
    except RuntimeError:
        return None  # no witness, and a branch the LP cannot decide


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5])
def test_scale_grid_has_no_wrong_unsat(scale):
    """Over seeds 0-199 at large weight scales no UNSAT verdict of the
    solver or of the oracle meets a witness of the other that passes
    forward validation. A run that raises RuntimeError (no witness, and a
    branch the LP cannot decide) gives no verdict to compare; the solver
    gives at most 0, 6 and 31 such runs (1, 39 and 100 without the
    ascent)."""
    unsat = raised = 0
    for seed in range(200):
        net, prop = _scaled_instance(seed, scale)
        verdict = _answer(lambda n, p: solve(n, p)[0], net, prop)
        answers = [v for v in (verdict, _answer(oracle, net, prop)) if v is not None]
        if any(v.sat and witness_ok(net, prop, v.witness) for v in answers):
            assert all(v.sat for v in answers), seed
        unsat += verdict is not None and not verdict.sat
        raised += verdict is None
    assert unsat >= 50  # the grid must exercise UNSAT answers: 89, 84 and 68
    assert raised <= {1e3: 0, 1e4: 6, 1e5: 31}[scale]


def test_scale_grid_s9_is_found_by_the_ascent():
    """s9 at 1e4 used to end in a solver error: no witness, and four fully
    decided branches that the branch LP cannot decide. The ascent from the
    box centre finds a witness at the root."""
    net, prop = _scaled_instance(9, 1e4)
    verdict, tree = solve(net, prop)
    assert verdict.sat and witness_ok(net, prop, verdict.witness, eps=0.0)
    assert sorted(tree.nodes) == [0]
