import json
import pathlib

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
    PROOF_FAILED_FELL_BACK,
    PROOF_REPLAYED,
    PRUNED,
    RESOLVED_SAT,
    RESOLVED_UNSAT,
    RUNGS,
    SKIPPED,
    IncrementalReport,
    ShapeMismatchError,
    verify_incremental,
)
from incremark.prooftree import deserialize, from_json
from incremark.model import (
    LinearConstraint,
    Network,
    SafetyProperty,
    Verdict,
    forward_values,
    witness_ok,
)
from incremark.solver import solve

from conftest import BOX

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

REPORT_KEYS = {
    "verdict", "witness", "replay_pct", "pruned", "replayed",
    "fallbacks", "fallback_nodes", "unsat_leaves_total", "times_s", "outcomes", "rungs",
}


def test_modified_net_fast_path(demo_net, fprime, demo_prop):
    _, tree = solve(demo_net, demo_prop)
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
    _, tree = solve(demo_net, demo_prop)
    verdict, _, _ = verify_incremental(fprime, demo_prop, tree)
    vals = forward_values(fprime, verdict.witness)
    # the witness sits in the stored branch: first hidden unit off, second on
    assert vals[2] <= 1e-9
    assert vals[3] >= -1e-9
    assert vals[6] >= 0.3 - 1e-6


def test_report_json_schema(demo_net, fprime, demo_prop):
    _, tree = solve(demo_net, demo_prop)
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


def test_root_refutation_skips_everything(demo_net, demo_prop):
    _, tree = solve(demo_net, demo_prop)
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
    _, tree = solve(demo_net, demo_prop)
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
    assert rep.outcomes == {2: PROOF_FAILED_FELL_BACK, 3: SKIPPED, 4: SKIPPED}
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
            assert visited == sum(
                1 for o in rep.outcomes.values()
                if o in (PROOF_REPLAYED, PROOF_FAILED_FELL_BACK))
            assert rep.unsat_total >= rep.pruned
            assert 0.0 <= j["replay_pct"] <= 100.0
            assert sorted(out.nodes) == list(range(len(out.nodes)))
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

    def counted(cfg):
        nonlocal steps
        steps += 1
        assert steps <= 5_000, "repair loop does not end"
        return repair_step(cfg)

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
    rep.rungs = {1: CERTIFICATE, 2: ANALYZE, 3: LP, 4: FALLBACK}
    rep.outcomes = {0: PRUNED, 1: PROOF_REPLAYED, 5: SKIPPED}
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
    assert CERTIFICATE not in rep.rungs.values()


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
        _, tree = solve(net, prop)
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
            for nid, rung in rep.rungs.items():
                if rung == CERTIFICATE:
                    bounds = _leaf_bounds(modified, prop, tree, nid)
                    assert not lp.feasible(lp.build(modified, prop, bounds))
                    closed += 1
    assert closed >= 20


def test_lp_certificate_is_carried_forward(monkeypatch):
    """A leaf that the branch LP closes keeps the LP's certificate in the
    output tree; re-verifying from that tree closes it by the certificate,
    with no LP built."""
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    _, tree = solve(net, prop)
    modified = perturb(net, Perturbation(0.05, 1.0, 2))
    _, rep1, out1 = verify_incremental(modified, prop, tree)
    by_lp = {tree.asserts_of(nid) for nid, rung in rep1.rungs.items() if rung == LP}
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
    assert {out1.asserts_of(nid) for nid, rung in rep2.rungs.items()
            if rung == CERTIFICATE} >= by_lp


def test_fallback_graft_brings_its_certificates():
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    _, tree = solve(net, prop)
    modified = perturb(net, Perturbation(0.5, 1.0, 28))
    verdict, rep, out = verify_incremental(modified, prop, tree)
    assert not verdict.sat
    [fell_back] = [tree.asserts_of(nid) for nid, rung in rep.rungs.items() if rung == FALLBACK]
    grafted = [i for i in out.leaves() if out.asserts_of(i) >= fell_back]
    assert any(out.nodes[i].cert is not None for i in grafted)
    assert rep.fallback_nodes == sum(1 for i in out.nodes if out.asserts_of(i) >= fell_back)
    assert rep.to_json()["fallback_nodes"] == rep.fallback_nodes >= 1


def test_analyze_rung_stores_a_fresh_certificate():
    """A leaf that the analyze rung closes carries that run's DeepPoly
    certificate in the output tree, which closes the leaf under its own
    bounds."""
    net = random_network((2, 5, 5, 1), 28)
    prop = random_threshold_property(net, 29)
    _, tree = solve(net, prop)
    modified = perturb(net, Perturbation(0.001, 0.1, 18))
    _, rep1, out1 = verify_incremental(modified, prop, tree)
    by_analyze = {tree.asserts_of(nid) for nid, rung in rep1.rungs.items() if rung == ANALYZE}
    assert by_analyze
    for nid in out1.leaves():
        asserts = out1.asserts_of(nid)
        if asserts in by_analyze:
            bounds = analyze(modified, prop.box, sorted(asserts))
            cert = out1.nodes[nid].cert
            assert cert == deeppoly.certificate(modified, prop, bounds)
            assert bounds.infeasible or lp.certificate_refutes(modified, prop, bounds, cert)


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
    assert rep.rungs and set(rep.rungs.values()) == {CERTIFICATE}
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
        assert len(rep.rungs) == 3 and set(rep.rungs.values()) == {CERTIFICATE}
        assert calls == 1
