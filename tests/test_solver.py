from collections import Counter

import numpy as np
import pytest

from incremark.bench import oracle, random_network, random_threshold_property
from incremark.deeppoly import analyze
from incremark.model import (
    LinearConstraint,
    Network,
    SafetyProperty,
    evaluate,
    property_hash,
    witness_ok,
)
from incremark import solver
from incremark.prooftree import INTERNAL, SAT, UNSAT, UNSOLVED, ProofTree
from incremark.simplex import PROGRESS, Stuck
from incremark.solver import solve

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

    def traced_step(cfg):
        rec = searches.setdefault(id(cfg), {"cfg": cfg, "steps": 0, "hot": None})
        step = repair_step(cfg)
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
    uncertain = solver._uncertain(net.layout, analyze(net, prop.box))
    decided = next(pre for pre, _ in net.layout.relu_pairs if pre not in uncertain)
    assert uncertain
    root = {"steps": 0}
    repair_step = solver.repair_step

    def step(cfg):
        if root.setdefault("cfg", cfg) is not cfg:
            return repair_step(cfg)
        # the root's local search only ever re-repairs its decided pair
        root["steps"] += 1
        cfg.violations[decided] += 1
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


def test_row_closes_a_node_only_when_its_certificate_rechecks():
    """At weight scale 1e4 pivoting drifts tableau rows away from the sums
    of equations they name. In s123 such a row closed the root node and
    the search answered UNSAT, though a point beats the threshold (about
    -1.04e12) by about 9e10; re-checked, the row closes nothing and the
    search finds a witness."""
    net, prop = _scaled_instance(123, 1e4)
    assert -1.05e12 < prop.constraints[0].threshold < -1.03e12
    verdict, tree = solve(net, prop)
    assert verdict.sat
    assert witness_ok(net, prop, verdict.witness)
    assert oracle(net, prop).sat
    assert len(tree.nodes) == 3
    tree.validate()


@pytest.mark.parametrize("seed, scale, nodes", [(123, 1e3, 3), (35, 1e4, 17)])
def test_unfinished_local_search_splits_or_asks_the_lp(seed, scale, nodes):
    """A local search that ends without a closing row or a valid witness
    ends the node like the split rule does. s123 at 1e3 repairs to a point
    that fails forward validation; s35 at 1e4 gets stuck on a fully decided
    branch. Both used to raise RuntimeError and are SAT."""
    net, prop = _scaled_instance(seed, scale)
    verdict, tree = solve(net, prop)
    assert verdict.sat
    assert witness_ok(net, prop, verdict.witness)
    assert oracle(net, prop).sat
    assert len(tree.nodes) == nodes
    tree.validate()


@pytest.mark.parametrize("scale", [1e3, 1e4])
def test_scale_grid_has_no_wrong_unsat(scale):
    """Over seeds 0-199 at large weight scales no UNSAT verdict meets an
    oracle witness that passes forward validation. Runs where the solver
    or the oracle raises RuntimeError (the branch LP's point fails forward
    validation) give no verdict to compare."""
    unsat = 0
    for seed in range(200):
        net, prop = _scaled_instance(seed, scale)
        try:
            verdict = solve(net, prop)[0]
            truth = oracle(net, prop)
        except RuntimeError:
            continue
        if not verdict.sat:
            unsat += 1
            assert not (truth.sat and witness_ok(net, prop, truth.witness)), seed
    assert unsat >= 50  # the grid must exercise UNSAT answers: 89 at 1e3, 91 at 1e4
