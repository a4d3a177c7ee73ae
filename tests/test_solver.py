import pytest

from incremark.bench import random_network, random_threshold_property
from incremark.model import (
    LinearConstraint,
    SafetyProperty,
    property_hash,
    witness_ok,
)
from incremark.prooftree import INTERNAL, SAT, UNSAT, UNSOLVED
from incremark.solver import SearchParams, solve

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


def test_solve_tiny_budget_still_decides(demo_net, demo_prop):
    verdict, tree = solve(demo_net, demo_prop, SearchParams(local_budget=1))
    assert verdict.sat
    assert witness_ok(demo_net, demo_prop, verdict.witness)
    # less repair per node means more splitting, never a wrong answer
    assert len(tree.nodes) == 5
    tree.validate()

    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    verdict, tree = solve(net, prop, SearchParams(local_budget=1))
    assert not verdict.sat
    assert len(tree.nodes) == 21
    tree.validate()


def test_solve_depth_cap_raises(demo_net, demo_prop):
    with pytest.raises(RuntimeError):
        solve(demo_net, demo_prop, SearchParams(max_depth=0))


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
