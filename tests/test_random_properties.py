"""Hypothesis-driven properties of the model layer and perturbation sampler."""

import math
import tempfile

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from _suites import forward_values
from incremark.bench import Perturbation, perturb, random_network
from incremark.model import (
    LinearConstraint,
    Network,
    SafetyProperty,
    evaluate,
    load_network,
    load_property,
    property_hash,
    save_network,
    save_property,
    witness_ok,
)
from incremark.solver import attack

finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def networks(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    weights = [
        [[draw(finite) for _ in range(dims[i])] for _ in range(dims[i + 1])]
        for i in range(len(dims) - 1)
    ]
    biases = [[draw(finite) for _ in range(dims[i + 1])]
              for i in range(len(dims) - 1)]
    return Network(weights, biases)


@st.composite
def properties(draw):
    m = draw(st.integers(1, 4))
    box = []
    for _ in range(m):
        a, b = draw(finite), draw(finite)
        box.append((min(a, b), max(a, b)))
    k = draw(st.integers(1, 3))
    n_out = draw(st.integers(1, 3))
    cons = tuple(
        LinearConstraint(tuple(draw(finite) for _ in range(n_out)), draw(finite))
        for _ in range(k)
    )
    return SafetyProperty(tuple(box), cons)


@st.composite
def attacks(draw):
    """A network, a property that fits it, and one to three start points
    that may lie outside the property's box."""
    net = draw(networks())
    box = []
    for _ in range(net.n_inputs):
        a, b = draw(finite), draw(finite)
        box.append((min(a, b), max(a, b)))
    cons = tuple(LinearConstraint(tuple(draw(finite) for _ in range(net.n_outputs)),
                                  draw(finite))
                 for _ in range(draw(st.integers(1, 3))))
    starts = [[draw(finite) for _ in range(net.n_inputs)]
              for _ in range(draw(st.integers(1, 3)))]
    return net, SafetyProperty(tuple(box), cons), starts


@settings(max_examples=200, deadline=None)
@given(attacks())
def test_attack_returns_only_witnesses(case):
    net, prop, starts = case
    x = attack(net, prop, starts)
    event("witness" if x is not None else "none")
    if x is not None:
        assert all(type(v) is float and lo <= v <= hi for v, (lo, hi) in zip(x, prop.box))
        assert witness_ok(net, prop, x, eps=0.0)


@settings(max_examples=60, deadline=None)
@given(networks())
def test_network_file_round_trip_bitwise(net):
    with tempfile.NamedTemporaryFile("w", suffix=".rnn", delete=False) as fh:
        path = fh.name
    save_network(net, path)
    back = load_network(path)
    assert back.dims == net.dims and back.activations == net.activations
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(back.weights, net.weights))
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(back.biases, net.biases))


@settings(max_examples=60, deadline=None)
@given(properties())
def test_property_file_round_trip(prop):
    with tempfile.NamedTemporaryFile("w", suffix=".prop", delete=False) as fh:
        path = fh.name
    save_property(prop, path)
    back = load_property(path)
    assert back == prop
    assert property_hash(back) == property_hash(prop)


@settings(max_examples=60, deadline=None)
@given(networks(), st.lists(finite, min_size=4, max_size=4))
def test_forward_values_matches_evaluate(net, raw):
    x = tuple(raw[: net.n_inputs])
    ys = evaluate(net, x)
    vals = forward_values(net, x)
    outs = net.layout.post_ids[-1]
    assert len(outs) == len(ys)
    for vid, y in zip(outs, ys):
        assert math.isclose(vals[vid], float(y), rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 1.0, allow_nan=False),
       st.floats(0.01, 1.0, exclude_min=True, allow_nan=False),
       st.integers(0, 10_000))
def test_perturb_count_envelope_and_scope(net_seed, gamma, fraction, seed):
    net = random_network((2, 3, 2), net_seed)
    out = perturb(net, Perturbation(gamma, fraction, seed))
    total = sum(w.size for w in net.weights)
    changed = 0
    for w0, w1 in zip(net.weights, out.weights):
        diff = w0 != w1
        changed += int(diff.sum())
        lo = np.minimum((1 - gamma) * w0, (1 + gamma) * w0)
        hi = np.maximum((1 - gamma) * w0, (1 + gamma) * w0)
        assert np.all(w1 >= lo) and np.all(w1 <= hi)
        # unmodified entries are bitwise identical, not merely close
        assert w0[~diff].tobytes() == w1[~diff].tobytes()
    assert changed <= math.ceil(fraction * total)
    assert all(b0.tobytes() == b1.tobytes()
               for b0, b1 in zip(net.biases, out.biases))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0, 1, allow_nan=False),
       st.integers(0, 10_000))
def test_perturb_deterministic_per_seed(net_seed, gamma, seed):
    net = random_network((3, 2, 1), net_seed)
    a = perturb(net, Perturbation(gamma, 1.0, seed))
    b = perturb(net, Perturbation(gamma, 1.0, seed))
    assert all(x.tobytes() == y.tobytes()
               for x, y in zip(a.weights, b.weights))
