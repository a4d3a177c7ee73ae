import itertools
import json
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
from incremark.simplex import PROGRESS, Satisfied, Stuck
from incremark.solver import attack, solve

from conftest import BOX, tableau_solve


# The worked example's tableau search. The ascent, which decides the demo at
# the root from a box corner, is off in these three tests.
def test_solve_demo_sat(demo_net, demo_prop, no_attack):
    verdict, tree = solve(demo_net, demo_prop)
    assert verdict.sat
    assert verdict.witness == (0.6750000000000002, 0.0500000000000001)
    assert witness_ok(demo_net, demo_prop, verdict.witness)
    assert tree.verdict == "sat"
    assert tree.prop_hash == property_hash(demo_prop)
    assert tree.dims == (2, 2, 1)


def test_solve_demo_tree_structure(demo_net, demo_prop, no_attack):
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


def test_solve_demo_tree_json(demo_net, demo_prop, no_attack):
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
    centre finds a witness before the root builds a tableau (the root's
    batch, which also starts from the corners, finds one at an earlier
    move)."""
    net = random_network((2, 5, 5, 1), 4)
    prop = random_threshold_property(net, 5)
    assert attack(net, prop, [[(lo + hi) / 2 for lo, hi in prop.box]]) is not None
    _no_tableau(monkeypatch)
    verdict, tree = solve(net, prop)
    assert verdict.sat and witness_ok(net, prop, verdict.witness, eps=0.0)
    assert sorted(tree.nodes) == [0]
    assert tree.root.status == SAT and tree.root.witness == verdict.witness


def test_ascent_leaves_unsat_trees_as_they_are(monkeypatch, demo_net, demo_prop):
    """Over (2,5,5,1) s0-59 and (3,8,8,1) s0-9, every UNSAT tree is
    byte-identical with and without the ascent, every witness that the
    ascent returns passes `witness_ok` with eps 0, and a second solve
    returns the same witness. The demo is decided at the root from a box
    corner."""
    found = []

    def traced(net, prop, starts):
        x = attack(net, prop, starts)
        if x is not None:
            found.append(x)
            assert witness_ok(net, prop, x, eps=0.0)
        return x

    monkeypatch.setattr(solver, "attack", traced)
    unsat = 0
    for dims, seeds in (((2, 5, 5, 1), range(60)), ((3, 8, 8, 1), range(10))):
        for s in seeds:
            net = random_network(dims, s)
            prop = random_threshold_property(net, s + 1)
            verdict, tree = solve(net, prop)
            assert solve(net, prop)[0] == verdict
            bare_verdict, bare = tableau_solve(net, prop)
            assert verdict.sat == bare_verdict.sat, (dims, s)
            if not verdict.sat:
                unsat += 1
                assert json.dumps(tree.to_json()) == json.dumps(bare.to_json()), (dims, s)
    assert unsat >= 20 and len(found) >= 60  # 29 UNSAT; 41 SAT, each found twice
    verdict, tree = solve(demo_net, demo_prop)
    assert sorted(tree.nodes) == [0] and verdict.witness == found[-1]
    assert verdict.witness in set(itertools.product(*demo_prop.box))


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
    calls = []

    def traced(net, prop, starts):
        calls.append([tuple(x) for x in starts])
        return attack(net, prop, starts)

    monkeypatch.setattr(solver, "attack", traced)
    _no_tableau(monkeypatch)
    verdict, report, out = verify_incremental(changed, prop, tree)
    assert calls == [[stored]]  # not the root: no start at the box centre or a corner
    assert verdict.sat and witness_ok(changed, prop, verdict.witness, eps=0.0)
    assert verdict.witness != stored
    assert out.nodes[leaf].status == SAT and out.nodes[leaf].witness == verdict.witness
    assert report.outcomes[leaf] == "resolved_sat" and len(out.nodes) == len(tree.nodes)


def test_attack_takes_the_earliest_move_then_the_lowest_start():
    """y = x over [0, 1], and y >= 0.5: a start at 0.6 or 0.7 is a witness
    at move 0, and a start at 0 climbs 0.25, then 0.175 and 0.1225 and is
    one at move 3."""
    net = Network([[[1.0]]], [[0.0]])
    prop = SafetyProperty(((0.0, 1.0),), (LinearConstraint((1.0,), 0.5),))
    assert attack(net, prop, [[0.0]]) == (0.25 + 0.175 + 0.1225,)
    assert attack(net, prop, [[0.0], [0.6]]) == (0.6,)
    assert attack(net, prop, [[0.7], [0.6]]) == (0.7,)
    assert attack(net, prop, [[0.6], [0.7]]) == (0.6,)
    # y = -x: every start ends at 0, below the threshold
    down = Network([[[-1.0]]], [[0.0]])
    assert attack(down, prop, [[0.0], [1.0], [2.0]]) is None


@np.errstate(over="ignore", invalid="ignore")
def _climb(net, prop, start):
    """One start's ascent, with the Jacobian carried forward: (move, point)
    of its first witness, or None."""
    lo, hi = np.array(prop.box).T
    a = np.array([con.coeffs for con in prop.constraints])
    c = np.array([con.threshold for con in prop.constraints])
    x, step = np.clip(np.asarray(start, dtype=float), lo, hi), (hi - lo) / 4
    for move in range(solver.ATTACK_MOVES + 1):
        y, jac = x, np.eye(len(x))
        for w, b, act in zip(net.weights, net.biases, net.activations):
            y, jac = w @ y + b, w @ jac
            if act == "relu":
                y, jac = np.maximum(y, 0.0), jac * (y > 0.0)[:, None]
        margins = a @ y - c
        if (margins >= 0.0).all() and witness_ok(net, prop, x, eps=0.0):
            return move, tuple(x.tolist())
        nxt = np.clip(x + step * np.sign(a[np.argmin(margins)] @ jac), lo, hi)
        if move == solver.ATTACK_MOVES or np.array_equal(nxt, x):
            return None
        x, step = nxt, step * solver.ATTACK_DECAY


def test_batched_ascent_equals_one_start_at_a_time():
    """The lockstep batch returns what climbing each start on its own
    returns, taking the earliest move and then the lowest start: on the
    root starts of (2,5,5,1) s0-59, (3,8,8,1) s0-9 and the 1e4 scale grid
    s0-49."""
    instances = [(random_network(dims, s), s + 1) for dims, seeds in
                 (((2, 5, 5, 1), range(60)), ((3, 8, 8, 1), range(10))) for s in seeds]
    instances = [(net, random_threshold_property(net, s)) for net, s in instances]
    instances += [_scaled_instance(s, 1e4) for s in range(50)]
    found = 0
    for net, prop in instances:
        starts = [[(lo + hi) / 2 for lo, hi in prop.box], *itertools.product(*prop.box)]
        hits = [(*hit, i) for i, x in enumerate(starts) if (hit := _climb(net, prop, x))]
        expected = min(hits, key=lambda h: (h[0], h[2]))[1] if hits else None
        assert attack(net, prop, starts) == expected
        found += expected is not None
    assert found >= 50


def test_root_starts_from_the_centre_and_the_corners(monkeypatch):
    """The root's ascent starts from the box centre, then from each corner
    in `itertools.product(*box)` order when the box has at most
    ATTACK_CORNER_INPUTS inputs; a wider box keeps the centre alone."""
    calls = []
    monkeypatch.setattr(solver, "attack", lambda net, prop, starts: calls.append(starts))
    for n in (2, 4, 5):
        net = random_network((n, 3, 1), n)
        prop = SafetyProperty(((-1.0, 0.5),) * n, (LinearConstraint((1.0,), -1e9),))
        calls.clear()
        solve(net, prop)
        centre = [(lo + hi) / 2 for lo, hi in prop.box]
        corners = list(itertools.product(*prop.box)) if n <= solver.ATTACK_CORNER_INPUTS else []
        assert calls[0] == [centre, *corners]
        assert len(calls[0]) == {2: 5, 4: 17, 5: 1}[n]


def test_ascent_on_the_demo_finds_nothing(demo_net, demo_prop):
    # every ReLU is off at the centre (0, 0): the gradient is zero, so the
    # centre alone finds nothing; the corners decide the demo at the root
    # (test_ascent_leaves_unsat_trees_as_they_are)
    assert attack(demo_net, demo_prop, [(0.0, 0.0)]) is None


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


def _solve_random_instances():
    """Solve and check (2,5,5,1) and (3,8,1) instances, seeds 0-19; returns
    each SAT instance with its witness."""
    sats, unsats = [], 0
    for seed in range(20):
        shape = (2, 5, 5, 1) if seed % 2 == 0 else (3, 8, 1)
        net = random_network(shape, seed)
        prop = random_threshold_property(net, seed + 1)
        verdict, tree = solve(net, prop)
        tree.validate()
        assert tree.prop_hash == property_hash(prop)
        if verdict.sat:
            sats.append((net, prop, verdict.witness))
            assert witness_ok(net, prop, verdict.witness)
            leaf = tree.sat_leaf()
            assert tree.nodes[leaf].witness == verdict.witness
        else:
            unsats += 1
            assert tree.sat_leaf() is None
            assert tree.leaves_with_status(UNSOLVED) == []
    assert sats and unsats  # the generator must exercise both outcomes
    return sats


def test_solve_random_instances_validate():
    _solve_random_instances()


def test_solve_random_instances_validate_without_the_ascent(monkeypatch, no_attack):
    """The same instances without the ascent, which finds nearly every
    witness at the root: the tableau's repair loop must then reach its
    `Satisfied` exit, and each witness it gives must pass `witness_ok` and
    agree with the oracle."""
    repaired = set()
    repair_step = solver.repair_step

    def traced(cfg, *args):
        step = repair_step(cfg, *args)
        if isinstance(step, Satisfied):
            repaired.add(step.witness)
        return step

    monkeypatch.setattr(solver, "repair_step", traced)
    tableau = [(net, prop, x) for net, prop, x in _solve_random_instances() if x in repaired]
    assert len(tableau) >= 15  # all 15 SAT answers
    for net, prop, x in tableau:
        assert witness_ok(net, prop, x) and oracle(net, prop).sat


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
def test_split_on_demand(monkeypatch, dims, seed, no_attack):
    """Every internal node splits on the first uncertain pair whose repair
    count reaches SPLIT_THRESHOLD, right when it does; a node where no pair
    gets there splits when stuck. The ascent, which decides s2 at the root,
    is off."""
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


def test_branch_lp_decides_fully_decided_branches(monkeypatch, no_attack):
    """With SPLIT_THRESHOLD at 0 every node splits before any repair and the
    branch LP decides every branch with all ReLUs decided: the verdicts must
    be the oracle's, and both LP outcomes must occur. The ascent, which
    decides every SAT instance here at the root, is off."""
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
    tests: UNSAT in 749 nodes. A change that moves the count updates it
    here and says why; `--durations` reports its wall time. It was 751
    while every repair step tested the row of each basic outside its
    bounds. Since a node's later steps test only the row that the bound
    step repairs next, some nodes close on other rows, and two fewer
    nodes are searched."""
    net = random_network((4, 10, 10, 1), 0)
    verdict, tree = solve(net, random_threshold_property(net, 1))
    assert not verdict.sat
    assert len(tree.nodes) == 749


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
    gives at most 0, 5 and 21 such runs (0, 6 and 31 with the ascent from
    the box centre alone, 1, 39 and 100 without the ascent)."""
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
    assert raised <= {1e3: 0, 1e4: 5, 1e5: 21}[scale]


def test_scale_grid_s9_is_found_by_the_ascent():
    """s9 at 1e4 used to end in a solver error: no witness, and four fully
    decided branches that the branch LP cannot decide. The ascent from the
    box centre finds a witness at the root."""
    net, prop = _scaled_instance(9, 1e4)
    verdict, tree = solve(net, prop)
    assert verdict.sat and witness_ok(net, prop, verdict.witness, eps=0.0)
    assert sorted(tree.nodes) == [0]
