import json
import pathlib

import numpy as np
import pytest

from incremark.bench import random_network, random_threshold_property
from incremark.constants import EPS_SAT
from incremark.deeppoly import analyze, is_property_refuted
from incremark.model import (
    UNSAT,
    LinearConstraint,
    Network,
    SafetyProperty,
    VariableLayout,
    Verdict,
    evaluate,
    load_network,
    load_property,
    neuron_values,
    property_hash,
    save_network,
    save_property,
    witness_ok,
    witness_values,
)

from _suites import forward_values
from conftest import BOX

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def test_layout_demo_shape(demo_net):
    lay = demo_net.layout
    assert demo_net.dims == (2, 2, 1)
    assert lay.input_ids == [0, 1]
    assert lay.pre_ids == [[2, 3], [6]]
    assert lay.post_ids == [[4, 5], [6]]
    assert lay.output_ids == [6]
    assert lay.neuron_ids == [0, 1, 2, 3, 4, 5, 6]
    assert lay.relu_pairs == [(2, 4), (3, 5)]
    assert lay.relu_post == {2: 4, 3: 5}
    assert lay.pre_row == {2: (0, 0), 3: (0, 1), 6: (1, 0)}
    # the shape is the whole input; the tableau numbers its slacks itself
    assert VariableLayout((2, 2, 1), ("relu", "none")) == lay


def test_layout_final_none_layer_shares_ids(demo_net):
    lay = demo_net.layout
    assert lay.post_ids[-1] is lay.pre_ids[-1]


def test_layout_deeper_shape():
    net = Network(
        [np.zeros((8, 3)), np.zeros((1, 8))],
        [np.zeros(8), np.zeros(1)],
    )
    lay = net.layout
    assert lay.input_ids == [0, 1, 2]
    assert lay.pre_ids[0] == list(range(3, 11))
    assert lay.post_ids[0] == list(range(11, 19))
    assert lay.pre_ids[1] == [19]
    assert lay.neuron_ids == list(range(20))
    assert lay.relu_pairs == list(zip(range(3, 11), range(11, 19)))


def test_evaluate_demo_witness(demo_net):
    y = evaluate(demo_net, (0.675, 0.05))
    assert y.shape == (1,)
    assert y[0] == 0.30000000000000004


def test_evaluate_fprime_point(fprime):
    y = evaluate(fprime, (0.714, 0.204))
    assert y[0] == pytest.approx(0.29988, abs=1e-12)


def test_evaluate_fdoubleprime_corner(fdoubleprime):
    # direct arithmetic: relu(0.34+1.34-0.05)*0.4 + relu(0.16+0.69-0.33)*0.6
    y = evaluate(fdoubleprime, (1.0, -1.0))
    assert y[0] == 0.9640000000000001


def test_evaluate_rejects_bad_shape(demo_net):
    with pytest.raises(ValueError):
        evaluate(demo_net, (0.1, 0.2, 0.3))


def test_forward_values_matches_evaluate(demo_net):
    x = (0.3, -0.4)
    vals = forward_values(demo_net, x)
    assert set(vals) == set(range(7))
    assert vals[0] == 0.3 and vals[1] == -0.4
    # pre-activations, then clamped posts
    assert vals[2] == pytest.approx(0.2 * 0.3 - 0.7 * -0.4 - 0.1)
    assert vals[4] == max(vals[2], 0.0)
    assert vals[5] == max(vals[3], 0.0)
    assert vals[6] == evaluate(demo_net, x)[0]


def test_neuron_values_are_indexed_by_layout_id(demo_net):
    """One forward pass gives every neuron's value at its layout id, for a
    last layer without a ReLU (demo) and with one."""
    relu_out = Network(demo_net.weights, demo_net.biases, ["relu", "relu"])
    for net in (demo_net, relu_out):
        for x in ((0.3, -0.4), (0.675, 0.05), (-1.0, 1.0)):
            vals = neuron_values(net, x)
            assert vals.tolist() == [forward_values(net, x)[i] for i in net.layout.neuron_ids]
            assert vals[net.layout.output_ids].tolist() == evaluate(net, x).tolist()
    with pytest.raises(ValueError):
        neuron_values(demo_net, (0.1,))


def _judged_alike(net, prop, x, eps):
    """Do `witness_ok`, which runs the outputs' forward pass alone, and
    `witness_values`, which runs every neuron's, judge x alike? Returns
    the judgement."""
    vals = witness_values(net, prop, x, eps)
    ok = witness_ok(net, prop, x, eps)
    assert ok == (vals is not None), (x, eps)
    if ok:
        assert vals.tolist() == neuron_values(net, x).tolist()
    return ok


def test_witness_values_judge_as_witness_ok(demo_net, demo_prop):
    """On the demo, and on catalog nets with the catalog property and with
    one whose threshold cuts the sampled outputs in half, each also with a
    ReLU on its output: points in the box, within EPS_SAT of it and beyond,
    non-finite points and points of the wrong arity, at eps 0 and EPS_SAT."""
    for x in ((0.675, 0.05), (1.5, 0.0), (0.0, 0.0), (0.675,), (float("nan"), 0.0)):
        for eps in (0.0, 1e-6):
            _judged_alike(demo_net, demo_prop, x, eps)
    rng = np.random.default_rng(11)
    judged = {True: 0, False: 0}
    for shape, seeds in (((2, 5, 5, 1), range(6)), ((3, 8, 8, 1), range(3))):
        for s in seeds:
            base = random_network(shape, s)
            catalog = random_threshold_property(base, s + 1)
            lo, hi = np.array(catalog.box).T
            inside = rng.uniform(lo, hi, size=(40, base.n_inputs))
            sides = rng.choice([-1.0, 1.0], size=inside.shape)
            points = [*inside, *(inside + sides * EPS_SAT / 2), *(inside + sides * (hi - lo)),
                      *(np.full(base.n_inputs, v) for v in (np.nan, np.inf, -np.inf)),
                      np.zeros(base.n_inputs + 1)]
            for net in (base, Network(base.weights, base.biases, ["relu"] * base.n_layers)):
                half = float(np.median([evaluate(net, x)[0] for x in inside]))
                for prop in (catalog, SafetyProperty(catalog.box, (LinearConstraint((1.0,), half),))):
                    for x in points:
                        for eps in (0.0, EPS_SAT):
                            judged[_judged_alike(net, prop, x, eps)] += 1
    assert min(judged.values()) > 100


def test_witness_ok_accepts_demo_witness(demo_net, demo_prop):
    assert witness_ok(demo_net, demo_prop, (0.675, 0.05))


def test_witness_ok_rejects(demo_net, demo_prop):
    assert not witness_ok(demo_net, demo_prop, (1.5, 0.0))     # outside box
    assert not witness_ok(demo_net, demo_prop, (0.0, 0.0))     # y below threshold
    assert not witness_ok(demo_net, demo_prop, (0.675,))       # wrong arity
    # every comparison with NaN is false, so it used to pass the box test
    assert not witness_ok(demo_net, demo_prop, (float("nan"), float("nan")))
    assert not witness_ok(demo_net, demo_prop, (float("inf"), 0.0))
    empty = SafetyProperty(BOX, ())
    assert not witness_ok(demo_net, empty, (0.0, 0.0))


def test_witness_ok_tolerance(demo_net):
    # witness exactly eps/2 below the threshold still passes
    y = evaluate(demo_net, (0.675, 0.05))[0]
    tight = SafetyProperty(BOX, (LinearConstraint((1.0,), y + 5e-7),))
    assert witness_ok(demo_net, tight, (0.675, 0.05))
    far = SafetyProperty(BOX, (LinearConstraint((1.0,), y + 1e-5),))
    assert not witness_ok(demo_net, far, (0.675, 0.05))


def test_witness_ok_rejects_an_output_that_overflows():
    """y1 = 1e200 * relu(1e200 * x) overflows to inf. The dot product of
    the constraint (1, 0) with (0, inf) is 0 * inf = NaN, and NaN < 0.3
    is False, so the point used to pass though y0 = 0 is below 0.3."""
    net = Network([[[1e200]], [[0.0], [1e200]]], [[0.0], [0.0, 0.0]])
    with np.errstate(over="ignore"):
        assert evaluate(net, (1.0,)).tolist() == [0.0, np.inf]
    prop = SafetyProperty(((0.5, 1.0),), (LinearConstraint((1.0, 0.0), 0.3),))
    assert not witness_ok(net, prop, (1.0,))
    assert not witness_ok(net, prop, (1.0,), eps=0.0)
    # a finite output that meets the constraint still passes
    small = Network([[[1.0]], [[1.0], [1e200]]], [[0.0], [0.0, 0.0]])
    assert witness_ok(small, prop, (1.0,), eps=0.0)


def test_witness_ok_adds_terms_in_order():
    """The outputs are (1e16, 1, 1e16), and 1e16 + 1 rounds to 1e16, so the
    constraint y0 + y1 - y2 >= 0.5 adds up to 0.0 term by term, as
    `is_property_refuted` adds it. A compensated sum (builtin `sum` on
    CPython 3.12+) gives 1.0 and would call the point a witness."""
    net = Network([[[0.0], [0.0], [0.0]]], [[1e16, 1.0, 1e16]], ["none"])
    prop = SafetyProperty(((0.0, 0.0),), (LinearConstraint((1.0, 1.0, -1.0), 0.5),))
    assert not witness_ok(net, prop, (0.0,))
    assert is_property_refuted(analyze(net, prop.box), prop)


def test_property_box_must_be_nonempty():
    with pytest.raises(ValueError):
        SafetyProperty(((0.5, -0.5),), ())


def test_constraints_must_have_one_coefficient_count():
    # built in code, this property used to end in an IndexError inside the
    # output bounds of the first search
    with pytest.raises(ValueError, match="inconsistent coefficient counts"):
        SafetyProperty(BOX, (LinearConstraint((1.0,), 0.5), LinearConstraint((0.0, 1.0), 0.5)))


def test_property_facts_are_computed_once():
    c = LinearConstraint((0.0, 2.0, -1.5), 1.0)
    assert c.terms == ((1, 2.0), (2, -1.5))
    prop = SafetyProperty(BOX, (c, LinearConstraint((0.0, 0.0, -2.0), 1.0)))
    assert prop.output_bounds == ([-np.inf] * 3, [np.inf, np.inf, -0.5])
    assert prop.output_bounds is prop.output_bounds
    assert not prop.negation_empty
    # the cached values are not fields: equality and hashing ignore them
    fresh = SafetyProperty(BOX, (LinearConstraint((0.0, 2.0, -1.5), 1.0),
                                 LinearConstraint((0.0, 0.0, -2.0), 1.0)))
    assert fresh == prop and hash(fresh) == hash(prop)


def test_verdict_names():
    assert Verdict(True, (0.0,)).name == "sat"
    assert UNSAT.name == "unsat"
    assert UNSAT.witness is None


def test_network_validation():
    with pytest.raises(ValueError):
        Network([[[1.0]]], [])                      # bias list shorter
    with pytest.raises(ValueError):
        Network([[[1.0]], [[1.0]]], [[0.0], [0.0]], ["none", "none"])
    with pytest.raises(ValueError):
        Network([[[1.0]]], [[0.0]], ["sigmoid"])
    with pytest.raises(ValueError):
        Network([[[1.0, 2.0]], [[1.0, 2.0]]], [[0.0], [0.0]])  # chain mismatch
    with pytest.raises(ValueError, match="not a finite number"):
        Network([[[float("nan")]]], [[0.0]])
    with pytest.raises(ValueError, match="not a finite number"):
        Network([[[1.0]]], [[float("-inf")]])
    with pytest.raises(ValueError, match="one activation flag per layer"):
        Network([[[1.0]]], [[0.0]], ["relu", "none"])
    with pytest.raises(ValueError, match="layer 1: bad weight/bias shape"):
        Network([[1.0]], [[0.0]])                   # a weight row used to raise IndexError
    with pytest.raises(ValueError, match="layer 2: bad weight/bias shape"):
        Network([[[1.0]], [[1.0, 2.0]]], [[0.0], [0.0, 1.0]])


def test_zero_width_layer_is_refused(tmp_path):
    # built in code, this network used to be accepted, and `solve` then
    # raised inside `analyze`
    with pytest.raises(ValueError, match="layer 1: a layer width is below 1"):
        Network([np.zeros((0, 2)), np.zeros((1, 0))], [np.zeros(0), [0.5]])
    p = tmp_path / "z.rnn"
    p.write_text("relunet 1\ndims 2 3 0\nlayer 1 relu\n" + "0.5 0.5\n" * 3
                 + "0 0 0\nlayer 2 none\n")
    with pytest.raises(ValueError, match="layer 2: a layer width is below 1"):
        load_network(str(p))                        # was "bad weight/bias shape"


def test_negative_width_is_refused(tmp_path):
    # a negative width moved the read position backwards, and the file was
    # refused as "expected 'layer 2'"
    p = tmp_path / "n.rnn"
    p.write_text("relunet 1\ndims 2 -1 1\nlayer 1 relu\n0.5 0.5\n0\nlayer 2 none\n0.5\n0\n")
    with pytest.raises(ValueError, match="^layer 1: a layer width is below 1$"):
        load_network(str(p))


def test_network_roundtrip(tmp_path, fdoubleprime):
    p = tmp_path / "n.rnn"
    save_network(fdoubleprime, str(p))
    back = load_network(str(p))
    assert back == fdoubleprime
    assert back.activations == ["relu", "none"]


def test_network_file_comments(tmp_path, demo_net):
    p = tmp_path / "c.rnn"
    save_network(demo_net, str(p))
    text = "# demo network\n" + p.read_text().replace("layer 1 relu", "layer 1 relu  # first")
    p.write_text(text)
    assert load_network(str(p)) == demo_net


def test_network_file_errors(tmp_path):
    p = tmp_path / "bad.rnn"
    p.write_text("relunet 2\ndims 1 1\nlayer 1 none\n1.0\n0.0\n")
    with pytest.raises(ValueError):
        load_network(str(p))
    p.write_text("relunet 1\ndims 1 1\nlayer 1 none\n1.0\n")
    with pytest.raises(ValueError):
        load_network(str(p))  # truncated
    p.write_text("relunet 1\ndims 1 1\nlayer 1 none\n1.0\n0.0\nextra\n")
    with pytest.raises(ValueError):
        load_network(str(p))  # trailing tokens
    p.write_text("relunet 1\ndims 1\nlayer 1 none\n")
    with pytest.raises(ValueError):
        load_network(str(p))  # single dim
    for bad in ("nan 0.0", "1.0 inf"):
        p.write_text(f"relunet 1\ndims 1 1\nlayer 1 none\n{bad}\n")
        with pytest.raises(ValueError, match="not a finite number"):
            load_network(str(p))  # a NaN weight used to give a wrong SAT
    for text, message in (("relunet 1\nlayer 1 none\n1.0\n0.0\n", "expected 'dims'"),
                          ("relunet 1\ndims 1 1\nlayer 2 none\n1.0\n0.0\n",
                           "expected 'layer 1'"),
                          ("relunet 1\ndims 1 1\nlayer 1 tanh\n1.0\n0.0\n",
                           "bad activation 'tanh'")):
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_network(str(p))


def test_property_roundtrip(tmp_path, demo_prop):
    p = tmp_path / "p.prop"
    save_property(demo_prop, str(p))
    back = load_property(str(p))
    assert back == demo_prop


def test_property_multi_constraint_roundtrip(tmp_path):
    prop = SafetyProperty(
        ((-1.0, 1.0),),
        (LinearConstraint((1.0, -1.0), 0.0), LinearConstraint((0.25, 0.5), -0.125)),
    )
    p = tmp_path / "m.prop"
    save_property(prop, str(p))
    assert load_property(str(p)) == prop


def test_property_file_errors(tmp_path):
    p = tmp_path / "bad.prop"
    p.write_text("ge 0.3 1.0\n")
    with pytest.raises(ValueError):
        load_property(str(p))  # must start with box
    p.write_text("box\n-1.0 1.0\n-1.0\nge 0.3 1.0\n")
    with pytest.raises(ValueError, match="dangling box bound"):
        load_property(str(p))  # used to fail converting 'ge' to a float
    p.write_text("box\n-1.0 1.0\nge 0.3\n")
    with pytest.raises(ValueError):
        load_property(str(p))  # constraint without coefficients
    p.write_text("box\n-1.0 1.0\nge 0.3 1.0\nge 0.1 1.0 2.0\n")
    with pytest.raises(ValueError):
        load_property(str(p))  # inconsistent arity
    # NaN or infinite numbers used to give wrong SAT answers
    for bad in ("box\nnan 1.0\nge 0.3 1.0\n", "box\n-1.0 inf\nge 0.3 1.0\n",
                "box\n-1.0 1.0\nge nan 1.0\n", "box\n-1.0 1.0\nge 0.3 -inf\n"):
        p.write_text(bad)
        with pytest.raises(ValueError, match="not a finite number"):
            load_property(str(p))


def test_property_hash_frozen(demo_prop):
    assert property_hash(demo_prop) == "833a2885059f3ff5"
    # the hash that tests/fixtures/tree_v1_s18.json stores
    doc = json.loads((FIXTURES / "tree_v1_s18.json").read_text())
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    assert property_hash(prop) == doc["prop_hash"] == "6c20a50b4173f0b7"
    # computed once, then read from the property
    assert prop.__dict__["digest"] is property_hash(prop) is prop.digest
    shifted = SafetyProperty(demo_prop.box, (LinearConstraint((1.0,), 0.31),))
    assert property_hash(shifted) != property_hash(demo_prop)


def test_data_files_match_fixtures(data_dir, demo_net, fprime, fdoubleprime, demo_prop):
    assert load_network(str(data_dir / "demo.rnn")) == demo_net
    assert load_network(str(data_dir / "fprime.rnn")) == fprime
    assert load_network(str(data_dir / "fdoubleprime.rnn")) == fdoubleprime
    assert load_property(str(data_dir / "demo.prop")) == demo_prop
    unsat = load_property(str(data_dir / "unsat.prop"))
    assert unsat.constraints[0].threshold == 2.0
