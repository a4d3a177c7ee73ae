import math

import numpy as np
import pytest

from incremark.bench import (
    CSV_HEADER,
    ORACLE_MAX_RELUS,
    CompareReport,
    OracleDisagreement,
    Perturbation,
    compare,
    oracle,
    perturb,
    random_network,
    random_threshold_property,
)
from incremark.model import (
    LinearConstraint,
    Network,
    SafetyProperty,
    evaluate,
    witness_ok,
)
from incremark.solver import solve

from conftest import BOX


def net_bytes(net):
    return [a.tobytes() for a in (*net.weights, *net.biases)]


def test_perturbation_validation():
    Perturbation(0.0)
    Perturbation(0.5, 0.25, 7, "weights+biases")
    with pytest.raises(ValueError):
        Perturbation(-0.1)
    with pytest.raises(ValueError):
        Perturbation(0.1, 0.0)
    with pytest.raises(ValueError):
        Perturbation(0.1, 1.5)
    with pytest.raises(ValueError):
        Perturbation(0.1, 0.5, 0, "biases")
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be a finite number"):
            Perturbation(gamma)
    # numpy's generator refuses it later with a message that names no seed
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        Perturbation(0.1, 0.5, -1)


def test_perturb_gamma_zero_bitwise():
    net = random_network((3, 8, 1), 5)
    same = perturb(net, Perturbation(0.0, 1.0, 123))
    assert net_bytes(same) == net_bytes(net)
    assert same is not net


def test_perturb_respects_fraction_and_envelope():
    net = random_network((2, 5, 5, 1), 2)
    p = Perturbation(0.5, 0.25, 11)
    out = perturb(net, p)
    total = sum(w.size for w in net.weights)
    changed = 0
    for w0, w1 in zip(net.weights, out.weights):
        diff = w0 != w1
        changed += int(diff.sum())
        lo = np.minimum((1 - p.gamma) * w0, (1 + p.gamma) * w0)
        hi = np.maximum((1 - p.gamma) * w0, (1 + p.gamma) * w0)
        assert np.all(w1 >= lo - 1e-15) and np.all(w1 <= hi + 1e-15)
    # resampling the same value has probability zero, so the count is exact
    assert changed == math.ceil(0.25 * total)
    for b0, b1 in zip(net.biases, out.biases):
        assert b0.tobytes() == b1.tobytes()  # default scope: weights only


def test_perturb_scope_includes_biases():
    net = random_network((3, 8, 1), 6)
    out = perturb(net, Perturbation(0.9, 1.0, 4, "weights+biases"))
    assert any(b0.tobytes() != b1.tobytes()
               for b0, b1 in zip(net.biases, out.biases))


def test_perturb_deterministic():
    net = random_network((2, 5, 5, 1), 8)
    a = perturb(net, Perturbation(0.3, 0.5, 21))
    b = perturb(net, Perturbation(0.3, 0.5, 21))
    c = perturb(net, Perturbation(0.3, 0.5, 22))
    assert net_bytes(a) == net_bytes(b)
    assert net_bytes(a) != net_bytes(c)


def test_oracle_demo(demo_net, demo_prop, unsat_prop):
    v = oracle(demo_net, demo_prop)
    assert v.sat
    assert witness_ok(demo_net, demo_prop, v.witness)
    assert not oracle(demo_net, unsat_prop).sat


def test_oracle_second_modification(fdoubleprime, demo_prop):
    # direct evaluation already shows a violating corner, the oracle must too
    assert evaluate(fdoubleprime, (1.0, -1.0))[0] == 0.9640000000000001
    v = oracle(fdoubleprime, demo_prop)
    assert v.sat
    assert witness_ok(fdoubleprime, demo_prop, v.witness)


def test_oracle_without_relus():
    net = Network([[[1.0]]], [[0.0]])
    sat = SafetyProperty(((0.0, 1.0),), (LinearConstraint((1.0,), 0.5),))
    v = oracle(net, sat)
    assert v.sat and witness_ok(net, sat, v.witness)
    unsat = SafetyProperty(((0.0, 1.0),), (LinearConstraint((1.0,), 2.0),))
    assert not oracle(net, unsat).sat


def test_oracle_empty_negation(demo_net):
    assert not oracle(demo_net, SafetyProperty(BOX, ())).sat


def test_oracle_relu_cap():
    net = random_network((2, ORACLE_MAX_RELUS + 1, 1), 0)
    prop = random_threshold_property(net, 1)
    with pytest.raises(ValueError):
        oracle(net, prop)


def test_oracle_agrees_with_solver():
    verdicts = set()
    for seed in range(200):
        shape = (2, 5, 5, 1) if seed % 2 else (3, 8, 1)
        net = random_network(shape, seed)
        prop = random_threshold_property(net, seed + 1)
        vo = oracle(net, prop)
        vs, _ = solve(net, prop)
        assert vo.sat == vs.sat, f"seed {seed}"
        verdicts.add(vo.sat)
        if vo.sat:
            assert witness_ok(net, prop, vo.witness)
    assert verdicts == {True, False}


def test_compare_csv_and_summary():
    net = random_network((2, 5, 5, 1), 18)  # UNSAT base instance
    prop = random_threshold_property(net, 19)
    perts = [Perturbation(0.0, 1.0, 1), Perturbation(0.05, 0.5, 2)]
    rep = compare(net, prop, perts)
    assert rep.all_agree
    assert len(rep.rows) == 2
    lines = rep.csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[3] in ("sat", "unsat")
    assert first[8] == "true"
    assert rep.replay_by_gamma[0.0] == 100.0
    assert rep.summary_lines() == [
        f"gamma=0 mean_replay_pct=100.0",
        f"gamma=0.05 mean_replay_pct={rep.replay_by_gamma[0.05]:.1f}",
    ]


def test_compare_deterministic_modulo_timing():
    net = random_network((3, 8, 1), 9)
    prop = random_threshold_property(net, 10)
    perts = [Perturbation(0.05, 0.3, s) for s in (1, 2)]
    a = compare(net, prop, perts)
    b = compare(net, prop, perts)
    strip = lambda rows: [
        {k: v for k, v in r.items() if not k.startswith("ms_")} for r in rows
    ]
    assert strip(a.rows) == strip(b.rows)


def test_disagreement_carries_partial_csv():
    err = OracleDisagreement("boom", "gamma,...\n1,2\n")
    assert err.csv_text.endswith("1,2\n")
    assert isinstance(err, RuntimeError)


def test_random_network_properties():
    net = random_network((2, 5, 5, 1), 3)
    assert net.dims == (2, 5, 5, 1)
    assert net.activations == ["relu", "relu", "none"]
    assert all(np.all(np.abs(w) <= 1.0) for w in net.weights)
    assert all(np.all(np.abs(b) <= 0.5) for b in net.biases)
    assert net_bytes(random_network((2, 5, 5, 1), 3)) == net_bytes(net)


def test_random_threshold_property_shape():
    net = random_network((3, 8, 1), 12)
    prop = random_threshold_property(net, 13)
    assert len(prop.box) == 3
    assert all(-1.0 <= l <= h <= 1.0 for l, h in prop.box)
    assert len(prop.constraints) == 1
    assert prop.constraints[0].coeffs == (1.0,)
    two_out = random_network((2, 4, 2), 1)
    with pytest.raises(ValueError):
        random_threshold_property(two_out, 2)


def test_generator_covers_both_verdicts():
    names = set()
    for seed in range(16):
        net = random_network((3, 8, 1), seed)
        prop = random_threshold_property(net, seed + 1)
        names.add(solve(net, prop)[0].name)
    assert names == {"sat", "unsat"}
