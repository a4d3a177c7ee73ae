import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from incremark import deeppoly, incremental, lp, simplex, solver
from incremark.bench import (
    Perturbation,
    oracle,
    perturb,
    random_network,
    random_threshold_property,
)
from incremark.deeppoly import NONNEG, NONPOS, Assertion, analyze, clamp, is_property_refuted
from incremark.incremental import (
    ANALYZE,
    CERTIFICATE,
    FALLBACK,
    LP,
    PRUNED,
    RESOLVED_SAT,
    RESOLVED_UNSAT,
    RUNGS,
    SKIPPED,
    TIGHTEN,
    IncrementalReport,
    ShapeMismatchError,
    verify_incremental,
)
from incremark import prooftree as pt
from incremark.constants import EPS_SAT
from incremark.prooftree import deserialize, from_json
from incremark.model import (
    LinearConstraint,
    Network,
    SafetyProperty,
    Verdict,
    neuron_values,
    property_hash,
    witness_ok,
)
from incremark.solver import solve

from _suites import forward_values
from conftest import BOX, tableau_solve

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

REPORT_KEYS = {
    "verdict", "witness", "replay_pct", "pruned", "replayed",
    "fallbacks", "fallback_nodes", "unsat_leaves_total", "times_s", "outcomes", "rungs",
}


def _rungs(rep):
    """The replayed UNSAT leaves of a report, each with its rung."""
    return {nid: o for nid, o in rep.outcomes.items() if o in RUNGS}


def test_modified_net_fast_path(demo_net, fprime, demo_prop):
    _, tree = tableau_solve(demo_net, demo_prop)
    verdict, rep, out = verify_incremental(fprime, demo_prop, tree)
    assert verdict.sat
    # the stored witness still violates the property, so no search runs
    assert verdict.witness == (0.6750000000000002, 0.0500000000000001)
    assert rep.outcomes == {1: RESOLVED_SAT, 2: SKIPPED}
    assert rep.replayed == 0 and rep.fallbacks == 0
    assert rep.replay_pct == 100.0  # vacuous: nothing needed replaying
    assert sorted(out.nodes) == [0, 1, 2]
    assert out.verdict == "sat"
    out.validate()


def test_modified_net_witness_signs(demo_net, fprime, demo_prop):
    _, tree = tableau_solve(demo_net, demo_prop)
    verdict, _, _ = verify_incremental(fprime, demo_prop, tree)
    vals = forward_values(fprime, verdict.witness)
    # the witness sits in the stored branch: first hidden unit off, second on
    assert vals[2] <= 1e-9
    assert vals[3] >= -1e-9
    assert vals[6] >= 0.3 - 1e-6


def test_report_json_schema(demo_net, fprime, demo_prop):
    _, tree = tableau_solve(demo_net, demo_prop)
    _, rep, _ = verify_incremental(fprime, demo_prop, tree)
    j = rep.to_json()
    assert set(j) == REPORT_KEYS
    assert j["verdict"] == "sat"
    assert isinstance(j["witness"], list)
    assert set(j["outcomes"]) == {"1", "2"}
    assert set(j["times_s"]) <= {"analyze", "prune", "open_leaves",
                                 "unsat_leaves", "total"}
    assert all(isinstance(v, float) for v in j["times_s"].values())
    # no stored UNSAT leaf was replayed: every rung counts 0
    assert j["rungs"] == {r: 0 for r in RUNGS}
    assert j["fallback_nodes"] == 0


def test_mode_and_shape_validation(demo_net, demo_prop):
    _, tree = solve(demo_net, demo_prop)
    # lazy replay is the only replay: there is no mode to choose
    with pytest.raises(TypeError):
        verify_incremental(demo_net, demo_prop, tree, mode="strict")
    wide = Network([[[0.2, -0.7, 0.0], [0.8, -0.8, 0.0]], [[0.4, 0.6]]],
                   [[-0.1, 0.0], [0.0]])
    with pytest.raises(ShapeMismatchError):
        verify_incremental(wide, demo_prop, tree)
    moved = SafetyProperty(BOX, (LinearConstraint((1.0,), 0.31),))
    with pytest.raises(ShapeMismatchError):
        verify_incremental(demo_net, moved, tree)


def test_malformed_tree_is_refused_not_answered():
    """A tree that `from_json` accepts but whose structure is broken is
    refused with ValueError, never answered UNSAT: here a SAT instance's
    tree with its SAT leaf dropped and its unsolved leaves marked unsat, a
    tree with no nodes at all, and the whole tree with an assertion on its
    root, which no branch reads (pruning used to close the root on it and
    answer UNSAT)."""
    net = random_network((2, 5, 5, 1), 2)
    prop = random_threshold_property(net, 3)
    assert oracle(net, prop).sat
    v, tree = tableau_solve(net, prop)
    assert v.sat and len(tree.nodes) == 69
    doc = tree.to_json()
    nodes = [nd for nd in doc["nodes"] if nd["status"] != "sat"]
    for nd in nodes:
        if nd["status"] == "unsolved":
            nd["status"] = "unsat"
    assert len(nodes) == len(doc["nodes"]) - 1
    rooted = json.loads(json.dumps(doc["nodes"]))
    rooted[0]["assert"] = {"neuron": 2, "sign": "nonpos"}  # its interval is above 0
    for broken in (nodes, [], rooted):
        stored = from_json({**doc, "nodes": broken})
        with pytest.raises(ValueError):
            verify_incremental(net, prop, stored)


def test_root_refutation_skips_everything(demo_net, demo_prop):
    _, tree = tableau_solve(demo_net, demo_prop)
    tiny = Network([[[0.01, -0.035], [0.04, -0.04]], [[0.4, 0.6]]],
                   [[-0.1, 0.0], [0.0]])
    verdict, rep, out = verify_incremental(tiny, demo_prop, tree)
    assert not verdict.sat
    assert rep.outcomes == {1: SKIPPED, 2: SKIPPED}
    assert sorted(out.nodes) == [0]
    assert out.nodes[0].status == "unsat"
    cert = out.nodes[0].cert
    assert cert is not None and cert == deeppoly.certificate(tiny, demo_prop, analyze(tiny, BOX))
    assert out.verdict == "unsat"


def test_prune_then_search_surviving_branch(demo_net, demo_prop):
    _, tree = tableau_solve(demo_net, demo_prop)
    # bias shift makes the first hidden unit always active, contradicting the
    # stored nonpos edge that held the old SAT leaf
    shifted = Network([[[0.2, -0.7], [0.8, -0.8]], [[0.4, 0.6]]],
                      [[1.0, 0.0], [0.0]])
    verdict, rep, out = verify_incremental(shifted, demo_prop, tree)
    assert verdict.sat
    assert rep.outcomes == {1: PRUNED, 2: RESOLVED_SAT}
    assert rep.pruned == 1
    assert rep.unsat_total == 1  # the pruned leaf counts as decided-unsat
    assert {i: out.nodes[i].status for i in sorted(out.nodes)} == {
        0: "internal", 1: "unsat", 2: "sat",
    }
    # the pruned leaf's proof: x3 = 0.2*x1 - 0.7*x2 + 1 >= 0.1 > 0 under nonpos
    assert out.nodes[1].cert == (("aff", 2, -1.0),)
    assert witness_ok(shifted, demo_prop, verdict.witness)
    out.validate()


def _fail(*args, **kwargs):
    raise AssertionError("called on a stored witness that still holds")


def test_stored_witness_answers_before_any_bounds(monkeypatch):
    """A stored SAT witness that still holds at eps 0 and stays in its
    leaf's branch answers before any bounds are computed or any node is
    pruned: the output tree is the stored one as it is, its SAT leaf
    resolved and every other leaf skipped."""
    net = random_network((2, 5, 5, 1), 2)
    prop = random_threshold_property(net, 3)
    _, tree = tableau_solve(net, prop)
    doc = tree.to_json()
    [sat] = tree.leaves_with_status("sat")
    unsat = tree.leaves_with_status("unsat")
    assert len(unsat) == 31 and len(tree.leaves()) == 35
    modified = perturb(net, Perturbation(0.001, 1.0, 3))
    monkeypatch.setattr(incremental, "analyze", _fail)
    monkeypatch.setattr(incremental, "search", _fail)
    monkeypatch.setattr(pt.ProofTree, "prune", _fail)
    verdict, rep, out = verify_incremental(modified, prop, tree)
    assert verdict.sat and verdict.witness == tree.nodes[sat].witness
    assert witness_ok(modified, prop, verdict.witness, eps=0.0)
    assert rep.outcomes == {nid: RESOLVED_SAT if nid == sat else SKIPPED
                            for nid in tree.leaves()}
    assert rep.unsat_total == 31
    assert (rep.pruned, rep.replayed, rep.fallbacks, rep.replay_pct) == (0, 0, 0, 100.0)
    assert set(rep.to_json()) == REPORT_KEYS
    assert out is not tree and out.to_json() == doc
    assert tree.to_json() == doc


def test_witness_within_eps_sat_takes_the_full_path(demo_net, fprime, demo_prop, monkeypatch):
    """A stored witness whose output sits EPS_SAT/2 below the threshold
    holds only within EPS_SAT: the root bounds are computed, and the open
    leaves then answer SAT from that witness, as before the shortcut."""
    _, tree = tableau_solve(demo_net, demo_prop)
    w = tree.nodes[1].witness
    y = neuron_values(fprime, w)[-1]
    near = Network(fprime.weights, [fprime.biases[0], fprime.biases[1] + 0.3 - EPS_SAT / 2 - y])
    assert witness_ok(near, demo_prop, w) and not witness_ok(near, demo_prop, w, eps=0.0)
    calls = 0
    run = incremental.analyze

    def counted(*args):
        nonlocal calls
        calls += 1
        return run(*args)

    monkeypatch.setattr(incremental, "analyze", counted)
    verdict, rep, out = verify_incremental(near, demo_prop, tree)
    assert calls == 1
    assert verdict == Verdict(True, w)
    assert rep.outcomes == {1: RESOLVED_SAT, 2: SKIPPED}
    assert "analyze" in rep.times
    out.validate()


def test_stored_witness_answers_where_root_bounds_overflow(demo_net, demo_prop):
    """The second hidden unit's weights of 1e308 overflow its interval over
    the box, so `analyze` raises; the stored witness still holds, so the
    re-verification answers SAT instead of raising."""
    _, tree = tableau_solve(demo_net, demo_prop)
    huge = Network([[[0.2, -0.7], [1e308, -1e308]], [[0.4, 0.6]]], [[-0.1, 0.0], [0.0]])
    with pytest.raises(RuntimeError):
        analyze(huge, demo_prop.box)
    verdict, rep, out = verify_incremental(huge, demo_prop, tree)
    assert verdict == Verdict(True, (0.6750000000000002, 0.0500000000000001))
    assert witness_ok(huge, demo_prop, verdict.witness, eps=0.0)
    assert rep.outcomes == {1: RESOLVED_SAT, 2: SKIPPED}
    assert out.verdict == "sat"
    out.validate()


def _survivors(tree, rep):
    """Stored nodes that pruning kept: those with no pruned proper ancestor."""
    pruned = {nid for nid, o in rep.outcomes.items() if o == PRUNED}

    def kept(nid):
        parent = tree.nodes[nid].parent
        return parent is None or (parent not in pruned and kept(parent))

    return {nid for nid in tree.nodes if kept(nid)}


@pytest.mark.parametrize("case, fallbacks, pruned, added", [
    ("s18-28", 1, 2, 0),  # pruning drops two subtrees; a fallback closes its leaf
    ("s18-50", 1, 1, 6),  # a fallback grows six nodes below its leaf
    ("demo", 0, 1, 0),    # the stored SAT branch is pruned
])
def test_output_tree_keeps_stored_ids(demo_net, demo_prop, case, fallbacks, pruned, added):
    """The output tree is the stored one, pruned and grown in place: each
    stored node that survives pruning keeps its id, parent and assertion,
    the nodes a search adds take ids above the stored ones, and the report
    names each leaf it settled by its id in the output tree, a replayed
    UNSAT leaf by its rung."""
    if case == "demo":
        net, prop = demo_net, demo_prop
        modified = Network([[[0.2, -0.7], [0.8, -0.8]], [[0.4, 0.6]]], [[1.0, 0.0], [0.0]])
    else:
        net = random_network((2, 5, 5, 1), 18)
        prop = random_threshold_property(net, 19)
        modified = perturb(net, Perturbation(0.5, 1.0, int(case.split("-")[1])))
    _, tree = tableau_solve(net, prop)
    doc = tree.to_json()
    _, rep, out = verify_incremental(modified, prop, tree)
    assert tree.to_json() == doc
    out.validate()
    assert (rep.fallbacks, rep.pruned) == (fallbacks, pruned)
    kept = _survivors(tree, rep)
    for nid in kept:
        assert (out.nodes[nid].parent, out.nodes[nid].assertion) == (
            tree.nodes[nid].parent, tree.nodes[nid].assertion)
    new = set(out.nodes) - kept
    assert len(new) == added and all(nid > max(tree.nodes) for nid in new)

    assert set(rep.outcomes) <= set(out.nodes)
    for nid, rung in _rungs(rep).items():
        if rung != FALLBACK:
            assert out.nodes[nid].status == "unsat" and not out.nodes[nid].children
    outcomes = list(rep.outcomes.values())
    assert rep.to_json()["rungs"] == {r: outcomes.count(r) for r in RUNGS}


def test_unsat_leaves_replay_identity(demo_net, demo_prop):
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    _, tree = solve(net, prop)
    verdict, rep, out = verify_incremental(net, prop, tree)
    assert not verdict.sat
    assert rep.fallbacks == 0
    assert rep.replayed == 4
    assert rep.pruned == 1
    assert rep.replay_pct == 100.0
    assert sorted(out.nodes) == list(range(9))
    out.validate()


def test_gamma_zero_replays_everywhere():
    checked = 0
    for seed in range(12):
        net = random_network((2, 5, 5, 1) if seed % 2 else (3, 8, 1), seed)
        prop = random_threshold_property(net, seed + 1)
        v, tree = solve(net, prop)
        if v.sat:
            continue
        same = perturb(net, Perturbation(0.0, 1.0, seed + 100))
        v2, rep, _ = verify_incremental(same, prop, tree)
        assert not v2.sat
        assert rep.fallbacks == 0
        assert rep.replay_pct == 100.0
        checked += 1
    assert checked >= 3


def test_sat_flip_short_circuits_later_leaves():
    net = random_network((2, 5, 5, 1), 17)
    prop = random_threshold_property(net, 18)
    _, tree = solve(net, prop)
    assert tree.leaves() == [2, 3, 4]
    bumped = perturb(net, Perturbation(0.3, 1.0, 1))
    verdict, rep, out = verify_incremental(bumped, prop, tree)
    assert verdict.sat
    assert witness_ok(bumped, prop, verdict.witness)
    assert rep.outcomes == {2: FALLBACK, 3: SKIPPED, 4: SKIPPED}
    assert rep.replay_pct == 0.0
    out.validate()
    # skipped leaves stay unsat leaves for the next round
    skipped = [i for i in out.leaves() if out.nodes[i].status == "unsat"]
    assert skipped


def test_counters_are_consistent():
    for seed in (3, 9, 21):
        net = random_network((3, 8, 1), seed)
        prop = random_threshold_property(net, seed + 1)
        v, tree = solve(net, prop)
        if v.sat:
            continue
        for gamma, ps in ((0.05, 2), (0.3, 5)):
            net2 = perturb(net, Perturbation(gamma, 0.5, ps))
            verdict, rep, out = verify_incremental(net2, prop, tree)
            j = rep.to_json()
            visited = rep.replayed + rep.fallbacks
            assert visited == len(_rungs(rep)) == sum(j["rungs"].values())
            assert rep.unsat_total >= rep.pruned
            assert 0.0 <= j["replay_pct"] <= 100.0
            assert set(rep.outcomes) <= set(out.nodes)
            out.validate()


def test_modes_agree_with_scratch():
    disagreements = 0
    for seed in range(25):
        shape = (2, 5, 5, 1) if seed % 2 else (3, 8, 1)
        net = random_network(shape, seed)
        prop = random_threshold_property(net, seed + 1)
        _, tree = solve(net, prop)
        net2 = perturb(net, Perturbation(0.05, 0.3, seed + 50))
        fresh, _ = solve(net2, prop)
        v, _, _ = verify_incremental(net2, prop, tree)
        if v.sat != fresh.sat:
            disagreements += 1
    assert disagreements == 0


def test_lazy_replay_refuted_after_input_tightening():
    # LP input tightening leaves the output's upper bound just under the
    # threshold; the leaf must close as replayed, not reach a search whose
    # output variable has lo > hi and reports a false witness
    net = random_network((2, 5, 5, 1), 28)
    prop = random_threshold_property(net, 29)
    _, tree = solve(net, prop)
    bumped = perturb(net, Perturbation(0.5, 1.0, 901))
    verdict, rep, out = verify_incremental(bumped, prop, tree)
    assert not verdict.sat
    assert oracle(bumped, prop).name == "unsat"
    assert rep.fallbacks == 0 and rep.replayed > 0
    out.validate()


def test_fully_decided_fallback_branch_is_decided_by_its_lp(monkeypatch):
    # the fallback branch has no uncertain ReLU left, and the repair loop
    # alternated fixes of two decided pairs within the bound tolerance
    # without end; the branch LP must decide it, within a few repair steps
    steps = 0
    repair_step = solver.repair_step

    def counted(cfg, *args):
        nonlocal steps
        steps += 1
        assert steps <= 5_000, "repair loop does not end"
        return repair_step(cfg, *args)

    net = random_network((2, 5, 5, 1), 587)
    prop = random_threshold_property(net, 588)
    _, tree = solve(net, prop)
    bumped = perturb(net, Perturbation(0.5, 1.0, 32263))
    monkeypatch.setattr(solver, "repair_step", counted)
    verdict, rep, out = verify_incremental(bumped, prop, tree)
    assert verdict.sat
    assert witness_ok(bumped, prop, verdict.witness)
    assert oracle(bumped, prop).name == "sat"
    assert rep.fallbacks == 1
    out.validate()


def test_new_tree_seeds_next_round(demo_net, fprime, demo_prop):
    _, tree = solve(demo_net, demo_prop)
    _, _, t1 = verify_incremental(fprime, demo_prop, tree)
    # the produced tree is a valid input for verifying the next modification
    v2, rep2, t2 = verify_incremental(demo_net, demo_prop, t1)
    assert v2.sat
    assert witness_ok(demo_net, demo_prop, v2.witness)
    t2.validate()


def test_replay_pct_vacuous_default():
    rep = IncrementalReport(Verdict(False))
    assert rep.replay_pct == 100.0
    rep.outcomes = {0: PRUNED, 1: CERTIFICATE, 2: ANALYZE, 3: LP, 4: FALLBACK, 5: SKIPPED}
    assert (rep.replayed, rep.fallbacks, rep.pruned) == (3, 1, 1)
    assert rep.replay_pct == 75.0


@pytest.mark.parametrize("p, replayed, fallbacks", [
    (Perturbation(0.3, 0.5, 18), 4, 0),   # every stored leaf replays
    (Perturbation(0.5, 1.0, 28), 1, 1),   # one leaf falls back, still UNSAT
    (Perturbation(0.5, 1.0, 7), 1, 1),    # the fallback finds a witness
])
def test_tree_with_stored_basis_still_reverifies(p, replayed, fallbacks):
    # written by a version that stored each UNSAT leaf's final basis and key
    # row; same format version, the extra keys are ignored on load
    path = FIXTURES / "tree_v1_s18.json"
    doc = json.loads(path.read_text())
    assert any(nd["basis"] is not None and nd["key_row_var"] is not None
               for nd in doc["nodes"])
    tree = deserialize(str(path))
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    modified = perturb(net, p)
    verdict, rep, out = verify_incremental(modified, prop, tree)
    assert verdict.name == oracle(modified, prop).name
    assert (rep.replayed, rep.fallbacks) == (replayed, fallbacks)
    if verdict.sat:
        assert witness_ok(modified, prop, verdict.witness)
    out.validate()
    # the file stores no certificates, so none closes a leaf
    assert not any("cert" in nd for nd in doc["nodes"])
    assert CERTIFICATE not in rep.outcomes.values()


def _leaf_bounds(net, prop, tree, nid):
    return analyze(net, prop.box, sorted(tree.asserts_of(nid)))


@pytest.mark.parametrize("shape, seeds", [((2, 5, 5, 1), range(60)), ((3, 8, 8, 1), range(8))])
def test_solve_certificates_close_their_own_leaves(shape, seeds):
    """On the network that wrote it, every UNSAT leaf stores a certificate,
    and the certificate closes its leaf: under the leaf's own analyze
    bounds, or, where analyze emptied the branch and left its bounds
    partial, under the root bounds clamped by the leaf's assertions."""
    checked = emptied = 0
    for s in seeds:
        net = random_network(shape, s)
        prop = random_threshold_property(net, s + 1)
        _, tree = tableau_solve(net, prop)
        base = analyze(net, prop.box)
        for nid in tree.leaves_with_status("unsat"):
            cert = tree.nodes[nid].cert
            assert cert is not None
            bounds = _leaf_bounds(net, prop, tree, nid)
            if bounds.infeasible:
                bounds = clamp(net, base, sorted(tree.asserts_of(nid)))
                emptied += 1
            assert lp.certificate_refutes(net, prop, bounds, cert)
            checked += 1
    assert checked >= 5
    if shape == (2, 5, 5, 1):
        assert emptied >= 1


def test_deeppoly_certificate_kinds():
    """A leaf that analyze closed stores the back-substitution row: one aff
    multiplier per pre-activation it passes through, relu and chord entries
    only for ReLUs that the leaf's bounds leave decided-on or uncertain."""
    kinds = set()
    for s in range(30):
        net = random_network((2, 5, 5, 1), s)
        prop = random_threshold_property(net, s + 1)
        _, tree = solve(net, prop)
        for nid in tree.leaves_with_status("unsat"):
            bounds = _leaf_bounds(net, prop, tree, nid)
            if not (bounds.infeasible or is_property_refuted(bounds, prop)):
                continue
            cert = tree.nodes[nid].cert
            assert cert == deeppoly.certificate(net, prop, bounds)
            for kind, i, _ in cert:
                kinds.add(kind)
                if kind == simplex.RELU:
                    assert bounds.lo[i] >= 0.0
                elif kind == simplex.CHORD:
                    assert bounds.lo[i] < 0.0 < bounds.hi[i]
    assert kinds == {simplex.AFF, simplex.RELU, simplex.CHORD}


def _neuron_values(net, x):
    """Every neuron's value at each row of x: {id: array over the rows}."""
    lay = net.layout
    vals = {vid: x[:, j] for j, vid in enumerate(lay.input_ids)}
    v = x
    for li, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
        pre = v @ w.T + b
        vals.update((vid, pre[:, j]) for j, vid in enumerate(lay.pre_ids[li]))
        v = np.maximum(pre, 0.0) if act == "relu" else pre
        vals.update((vid, v[:, j]) for j, vid in enumerate(lay.post_ids[li]))
    return vals


@pytest.mark.parametrize("shape", [(2, 5, 5, 1), (3, 8, 8, 1)])
def test_clamped_root_bounds_contain_the_branch(shape):
    """The root bounds clamped by a random assertion set contain every
    sampled point of the branch, and an emptied clamp leaves no point in it.

    They need not contain the branch's own analyze bounds: analyze takes a
    NONNEG-asserted neuron by post = pre over the whole input box, which
    can widen a later neuron past its root interval (s1 below)."""
    rng = np.random.default_rng(5)
    inside = 0
    for s in range(12):
        net = random_network(shape, s)
        prop = random_threshold_property(net, s + 1)
        base = analyze(net, prop.box)
        lo, hi = zip(*prop.box)
        vals = _neuron_values(net, rng.uniform(lo, hi, size=(400, net.n_inputs)))
        pres = [pre for pre, _ in net.layout.relu_pairs]
        for _ in range(10):
            picked = rng.choice(pres, size=int(rng.integers(1, 5)), replace=False)
            asserts = sorted(Assertion(int(v), (NONNEG, NONPOS)[int(rng.integers(2))])
                             for v in picked)
            keep = np.ones(400, dtype=bool)
            for a in asserts:
                keep &= vals[a.neuron] >= 0 if a.sign == NONNEG else vals[a.neuron] <= 0
            box = clamp(net, base, asserts)
            if box is None:
                assert not keep.any()
                continue
            for v in net.layout.neuron_ids:
                assert np.all(box.lo[v] - 1e-9 <= vals[v][keep]), (s, asserts, v)
                assert np.all(vals[v][keep] <= box.hi[v] + 1e-9), (s, asserts, v)
            inside += int(keep.sum())
    assert inside >= 1000

    net = random_network((2, 5, 5, 1), 1)
    prop = random_threshold_property(net, 2)
    asserts = [Assertion(2, NONPOS), Assertion(3, NONNEG), Assertion(4, NONPOS),
               Assertion(16, NONNEG)]
    assert analyze(net, prop.box, asserts).hi[13] > clamp(net, analyze(net, prop.box), asserts).hi[13]


def _paper_and_break_grid(s):
    paper = [Perturbation(g, (0.1, 0.3, 0.5)[t], s + 7919 * (3 * i + t))
             for i, g in enumerate((0.001, 0.01, 0.03, 0.05)) for t in range(3)]
    return paper + [Perturbation(g, 1.0, s + 7919 * (12 + 3 * i + t))
                    for i, g in enumerate((0.3, 0.5)) for t in range(3)]


def test_certificate_rung_closes_only_empty_branches():
    """Every leaf that a certificate closes has an infeasible branch LP, and
    every verdict is the oracle's."""
    closed = 0
    for s in (3, 18, 25, 28):
        net = random_network((2, 5, 5, 1), s)
        prop = random_threshold_property(net, s + 1)
        v, tree = solve(net, prop)
        assert not v.sat
        for p in _paper_and_break_grid(s):
            modified = perturb(net, p)
            verdict, rep, _ = verify_incremental(modified, prop, tree)
            assert verdict.name == oracle(modified, prop).name
            for nid, rung in rep.outcomes.items():
                if rung == CERTIFICATE:
                    bounds = _leaf_bounds(modified, prop, tree, nid)
                    assert lp.build(modified, prop, bounds).status == lp.INFEASIBLE
                    closed += 1
    assert closed >= 20


def test_certificate_whose_row_overflows_to_nan_refutes_nothing():
    """A stored certificate with finite multipliers whose rebuilt row
    overflows: x0's coefficient is -2e308 + 2.1e308, i.e. -inf + inf = NaN.
    The interval test used to drop the NaN term, keep the finite rest,
    which is apart from 0, and answer UNSAT on the certificate rung; the
    instance is SAT at x = 0.5."""
    net = Network([[[2.0], [3.0]], [[1.0, 0.0]]], [[0.0, 0.0], [0.0]])
    prop = SafetyProperty(((0.5, 0.5),), (LinearConstraint((1.0,), 0.5),))
    assert oracle(net, prop).sat
    tree = from_json({
        "version": 1, "dims": list(net.dims), "prop_hash": property_hash(prop),
        "verdict": "unsat",
        "nodes": [{"id": 0, "parent": None, "assert": None, "status": "unsat",
                   "witness": None, "cert": [["aff", 1, 1e308], ["aff", 2, -0.7e308]]}],
    })
    assert not lp.certificate_refutes(net, prop, analyze(net, prop.box), tree.root.cert)
    v, rep, _ = verify_incremental(net, prop, tree)
    assert v.sat and witness_ok(net, prop, v.witness)
    assert rep.outcomes == {0: FALLBACK}


def test_lp_certificate_is_carried_forward(monkeypatch):
    """A leaf that the branch LP closes keeps the LP's certificate in the
    output tree; re-verifying from that tree closes it by the certificate,
    with no LP built."""
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    _, tree = solve(net, prop)
    modified = perturb(net, Perturbation(0.05, 1.0, 2))
    _, rep1, out1 = verify_incremental(modified, prop, tree)
    by_lp = {tree.asserts_of(nid) for nid, rung in rep1.outcomes.items() if rung == LP}
    assert by_lp
    doc = out1.to_json()
    carried = [nd for nd in doc["nodes"] if out1.asserts_of(nd["id"]) in by_lp]
    assert len(carried) == len(by_lp)
    assert all(nd.get("cert") for nd in carried)

    builds = 0
    build = lp.build

    def counted(*args):
        nonlocal builds
        builds += 1
        return build(*args)

    monkeypatch.setattr(lp, "build", counted)
    out1 = from_json(json.loads(json.dumps(doc)))
    verdict, rep2, _ = verify_incremental(modified, prop, out1)
    assert not verdict.sat
    assert builds == 0
    assert {out1.asserts_of(nid) for nid, rung in rep2.outcomes.items()
            if rung == CERTIFICATE} >= by_lp


def test_lp_rung_closes_only_on_a_certificate_that_rechecks(monkeypatch):
    """A leaf whose branch LP carries no certificate, because its infeasible
    row does not re-check over the leaf's bounds, is not closed by the lp
    rung: nothing is left to tighten over, so it falls back to a branch
    search, which decides it."""
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    _, tree = solve(net, prop)
    modified = perturb(net, Perturbation(0.05, 1.0, 2))
    _, rep, _ = verify_incremental(modified, prop, tree)
    by_lp = {nid for nid, rung in rep.outcomes.items() if rung == LP}
    assert by_lp
    # the ladder's relaxations come without a certificate, as when their
    # row does not re-check; the searches' relaxations are left as they are
    def uncertified(*args):
        relax = lp.build(*args)
        relax.cert = None
        return relax

    monkeypatch.setattr(incremental, "lp", SimpleNamespace(**{**vars(lp), "build": uncertified}))
    verdict, rep, out = verify_incremental(modified, prop, tree)
    assert not verdict.sat and not oracle(modified, prop).sat
    assert LP not in rep.outcomes.values()
    assert {rep.outcomes[nid] for nid in by_lp} == {FALLBACK}
    out.validate()
    searched = [i for i in out.leaves_with_status("unsat") if i not in rep.outcomes]
    assert searched and all(out.nodes[i].cert for i in searched)


def test_fallback_graft_brings_its_certificates():
    """A re-searched stored leaf becomes the root of the subtree its search
    grows: it keeps no witness or certificate once it splits, the fallback
    counts its nodes, and the input tree is left as it was. In the first
    case a stored UNSAT leaf falls back, and its new leaves bring their
    certificates; in the second the stored SAT leaf's witness fails and its
    search grows 3 nodes."""
    for s, perturbation in ((18, Perturbation(0.5, 1.0, 28)), (2, Perturbation(0.05, 1.0, 0))):
        net = random_network((2, 5, 5, 1), s)
        prop = random_threshold_property(net, s + 1)
        _, tree = tableau_solve(net, prop)
        doc = tree.to_json()
        verdict, rep, out = verify_incremental(perturb(net, perturbation), prop, tree)
        assert not verdict.sat
        assert tree.to_json() == doc
        assert all(n.witness is None and n.cert is None
                   for n in out.nodes.values() if n.children)

        def grown(nids):
            paths = [tree.asserts_of(nid) for nid in nids]
            return [i for i in out.nodes if any(out.asserts_of(i) >= a for a in paths)]

        fell_back = grown(nid for nid, rung in rep.outcomes.items() if rung == FALLBACK)
        assert rep.to_json()["fallback_nodes"] == rep.fallback_nodes == len(fell_back)
        if s == 18:
            assert fell_back
            assert any(out.nodes[i].cert is not None for i in fell_back
                       if not out.nodes[i].children)
        else:
            assert not fell_back
            assert len(grown([tree.sat_leaf()])) == 3


def test_analyze_rung_stores_a_fresh_certificate():
    """A leaf that the analyze rung closes carries that run's DeepPoly
    certificate in the output tree, which closes the leaf under its own
    bounds, or none when no equation states the refutation, never the
    stored one. The second instance's output ReLU refutes its leaves by
    its own interval; its leaf 5 stored an LP row's certificate."""
    relu_out = random_network((2, 4, 4, 1), 58)
    instances = ((random_network((2, 5, 5, 1), 28), 29, Perturbation(0.001, 0.1, 18)),
                 (Network(relu_out.weights, relu_out.biases, ["relu"] * 3), 59,
                  Perturbation(0.05, 0.5, 58000)))
    for net, prop_seed, p in instances:
        prop = random_threshold_property(net, prop_seed)
        _, tree = solve(net, prop)
        modified = perturb(net, p)
        _, rep1, out1 = verify_incremental(modified, prop, tree)
        by_analyze = {tree.asserts_of(nid) for nid, rung in rep1.outcomes.items()
                      if rung == ANALYZE}
        assert by_analyze
        for nid in out1.leaves():
            asserts = out1.asserts_of(nid)
            if asserts in by_analyze:
                bounds = analyze(modified, prop.box, sorted(asserts))
                cert = out1.nodes[nid].cert
                assert cert == deeppoly.certificate(modified, prop, bounds)
                assert (bounds.infeasible or cert is None
                        or lp.certificate_refutes(modified, prop, bounds, cert))


def test_capped_branch_lp_skips_the_tighten_rung(monkeypatch):
    """A ladder relaxation whose phase 1 hits its step cap has no vertex to
    tighten from: its leaf goes straight to the fallback, and the verdict is
    the uncapped run's."""
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    _, tree = solve(net, prop)
    modified = perturb(net, Perturbation(0.1, 1.0, 18002))
    want, rep, _ = verify_incremental(modified, prop, tree)
    at_lp = [nid for nid, rung in rep.outcomes.items() if rung in (LP, TIGHTEN, FALLBACK)]
    assert TIGHTEN in rep.outcomes.values()

    search, phase1 = incremental.search, lp.phase1
    searching = False

    def fallback(*args):
        nonlocal searching
        searching = True
        try:
            return search(*args)
        finally:
            searching = False

    def capped(relax):
        if not searching:  # the ladder's own relaxation
            relax.cfg.cap = 0
        return phase1(relax)

    def tighten(*args):
        raise AssertionError("a relaxation without a vertex was tightened")

    monkeypatch.setattr(incremental, "search", fallback)
    monkeypatch.setattr(lp, "phase1", capped)
    monkeypatch.setattr(lp, "tighten_inputs_then_repropagate", tighten)
    got, rep, _ = verify_incremental(modified, prop, tree)
    assert got == want
    assert {nid: rep.outcomes[nid] for nid in at_lp} == dict.fromkeys(at_lp, FALLBACK)


def test_replay_closed_by_certificates_builds_no_tableau(monkeypatch):
    """A re-verification whose every leaf its certificate closes builds no
    tableau: a branch search builds its own, only when one runs."""
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    _, tree = solve(net, prop)
    modified = perturb(net, Perturbation(0.001, 0.1, 18))
    built = 0
    init = simplex.Configuration.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(simplex.Configuration, "__init__", counted)
    verdict, rep, _ = verify_incremental(modified, prop, tree)
    assert not verdict.sat
    assert _rungs(rep) and set(_rungs(rep).values()) == {CERTIFICATE}
    assert built == 0


def test_replay_closed_by_certificates_runs_analyze_once(monkeypatch):
    """Certificates go first: a re-verification whose every leaf its
    certificate closes over the clamped root bounds runs analyze only for
    those root bounds."""
    calls = 0
    run = incremental.analyze

    def counted(*args):
        nonlocal calls
        calls += 1
        return run(*args)

    monkeypatch.setattr(incremental, "analyze", counted)
    for s in (17, 25):
        net = random_network((2, 5, 5, 1), s)
        prop = random_threshold_property(net, s + 1)
        _, tree = solve(net, prop)
        modified = perturb(net, Perturbation(0.01, 0.3, 5))
        calls = 0
        verdict, rep, _ = verify_incremental(modified, prop, tree)
        assert not verdict.sat
        assert len(_rungs(rep)) == 3 and set(_rungs(rep).values()) == {CERTIFICATE}
        assert calls == 1
