import itertools
import struct

import numpy as np
import pytest

import _suites
from incremark.bench import random_network
from incremark.constants import EPS_COLLAPSE
from incremark.deeppoly import (
    NONNEG,
    NONPOS,
    Assertion,
    Bounds,
    analyze,
    certificate,
    clamp,
    is_property_refuted,
)
from incremark.lp import certificate_refutes
from incremark.model import RELU, LinearConstraint, Network, SafetyProperty, load_network

from conftest import BOX, DATA


def test_analyze_demo_intervals(demo_net):
    b = analyze(demo_net, BOX)
    assert not b.infeasible
    assert len(b.lo) == len(b.hi) == len(demo_net.layout.neuron_ids)
    assert b.output_ids == (6,)
    assert (b.lo[0], b.hi[0]) == (-1.0, 1.0)
    assert (b.lo[2], b.hi[2]) == (-0.9999999999999999, 0.7999999999999999)
    assert (b.lo[3], b.hi[3]) == (-1.6, 1.6)
    assert (b.lo[4], b.hi[4]) == (0.0, 0.7999999999999999)  # relu of x2's interval
    assert (b.lo[5], b.hi[5]) == (0.0, 1.6)
    assert (b.lo[6], b.hi[6]) == (0.0, 1.28)


def test_analyze_demo_relational(demo_net):
    b = analyze(demo_net, BOX)
    # both hidden units are uncertain; upper relation is the chord, lower
    # relation is zero because neither interval is positive-dominated
    relations = _suites.relu_relations(demo_net, b)
    assert relations[4][1:] == (0.4444444444444445, 0.4444444444444444)
    assert relations[5][1:] == (0.5, 0.8)
    assert {post: r[0] for post, r in relations.items()} == {4: 0.0, 5: 0.0}


def test_analyze_nonpos_assertion(demo_net, demo_prop):
    b = analyze(demo_net, BOX, [Assertion(3, NONPOS)])
    assert b.hi[3] == 0.0
    assert b.hi[5] == 0.0                      # decided off
    assert _suites.relu_relations(demo_net, b)[5][1:] == (0.0, 0.0)
    assert b.hi[6] == 0.32000000000000006
    # 0.32 still clears the 0.3 threshold, so the branch stays open
    assert not is_property_refuted(b, demo_prop)


def test_analyze_nonneg_assertion(demo_net):
    b = analyze(demo_net, BOX, [Assertion(3, NONNEG)])
    assert b.lo[3] == 0.0
    lc, uc, uk = _suites.relu_relations(demo_net, b)[5]
    assert (uc, uk) == (1.0, 0.0)              # decided on: identity
    assert lc == 1.0
    assert b.hi[6] == 1.28
    # the identity relation back-substitutes the full pre range, so the
    # output lower bound may dip below zero; loose but sound
    assert b.lo[6] == -0.96


def test_analyze_contradictory_asserts_pin_to_zero(demo_net):
    b = analyze(demo_net, BOX, [Assertion(2, NONNEG), Assertion(2, NONPOS)])
    assert not b.infeasible
    assert (b.lo[2], b.hi[2]) == (0.0, 0.0)


def test_analyze_infeasible_assertion(demo_net):
    # x3 <= -0.55 over this box, so nonneg empties the interval
    b = analyze(demo_net, ((-1.0, -0.5), (0.5, 1.0)), [Assertion(2, NONNEG)])
    assert b.infeasible
    assert b.emptied == Assertion(2, NONNEG)
    # partial: the inputs only, the lists stop before the emptied layer
    assert (b.lo, b.hi) == ([-1.0, 0.5], [-0.5, 1.0])


@pytest.mark.parametrize("sign, bias", [(NONPOS, 1.0), (NONNEG, -1.0)])
def test_analyze_assertion_crossing_collapses_within_eps(sign, bias):
    """x1 = x0 + bias*d over x0 in [0, 1] (NONNEG: [-1, 0]) misses the
    asserted half-line by d: within EPS_COLLAPSE the interval collapses to
    a point and the branch stays feasible; 1e-6 empties it."""
    box = ((0.0, 1.0),) if sign == NONPOS else ((-1.0, 0.0),)
    pre = 1  # variable ids: input 0, then the hidden pre-activation

    def run(d):
        net = Network([[[1.0]], [[1.0]]], [[bias * d], [0.0]])
        return analyze(net, box, [Assertion(pre, sign)])

    b = run(EPS_COLLAPSE / 2)
    assert not b.infeasible
    lo, hi = b.lo[pre], b.hi[pre]
    assert lo == hi and abs(hi) <= EPS_COLLAPSE
    assert run(1e-6).infeasible


def test_analyze_box_arity(demo_net):
    with pytest.raises(ValueError):
        analyze(demo_net, ((-1.0, 1.0),))


def test_refuted_by_threshold(demo_net, demo_prop):
    b = analyze(demo_net, BOX)
    assert not is_property_refuted(b, demo_prop)
    high = SafetyProperty(BOX, (LinearConstraint((1.0,), 2.0),))
    assert is_property_refuted(b, high)        # ub(y) = 1.28 < 2


def test_refuted_vacuous_and_infeasible(demo_net, demo_prop):
    assert is_property_refuted(analyze(demo_net, BOX), SafetyProperty(BOX, ()))
    inf = analyze(demo_net, ((-1.0, -0.5), (0.5, 1.0)), [Assertion(2, NONNEG)])
    assert is_property_refuted(inf, demo_prop)


def test_refuted_mixed_coefficients():
    net = Network([[[1.0, 0.0], [0.0, 1.0]]], [[0.0, 0.0]])
    b = analyze(net, ((0.0, 1.0), (0.0, 1.0)))
    gap = SafetyProperty(((0.0, 1.0), (0.0, 1.0)),
                         (LinearConstraint((1.0, -1.0), 1.5),))
    assert is_property_refuted(b, gap)         # ub = 1 - 0 = 1 < 1.5
    ok = SafetyProperty(((0.0, 1.0), (0.0, 1.0)),
                        (LinearConstraint((1.0, -1.0), 0.9),))
    assert not is_property_refuted(b, ok)


def test_refuted_arity_mismatch(demo_net):
    b = analyze(demo_net, BOX)
    bad = SafetyProperty(BOX, (LinearConstraint((1.0, 1.0), 0.0),))
    with pytest.raises(ValueError):
        is_property_refuted(b, bad)


def test_soundness_sampled(demo_net):
    assert _suites.deeppoly_soundness(demo_net, BOX, n_random=8, samples=60) == 0


def reference_analyze(net, box, asserts=()):
    """Scalar DeepPoly: one back-substitution per pre-activation and side,
    and a ReLU output's interval the ReLU of its pre-activation's. Returns
    the emptied assertion when an assertion empties an interval (the first
    neuron in id order whose interval crosses by more than EPS_COLLAPSE;
    NONNEG if its unclamped upper end is below 0, else NONPOS), else
    (lo, hi, relations): lists over the network neurons in id order, and
    post -> (lc, uc, uk)."""
    lay = net.layout
    lo0 = np.array([b[0] for b in box], dtype=float)
    hi0 = np.array([b[1] for b in box], dtype=float)
    signs: dict[int, list[str]] = {}
    for a in asserts:
        signs.setdefault(a.neuron, []).append(a.sign)
    lo, hi = lo0.tolist(), hi0.tolist()
    rel, relations = [], {}

    def back(level, coefs, const, upper):
        c, k = np.array(coefs, dtype=float), const
        for j in range(level, 0, -1):
            lc, lk, uc, uk = rel[j - 1]
            take_u = (c > 0) if upper else (c <= 0)
            k += float(np.sum(np.where(take_u, uk, lk) * c))
            c = np.where(take_u, uc, lc) * c
            k += float(c @ net.biases[j - 1])
            c = c @ net.weights[j - 1]
        top, bot = (hi0, lo0) if upper else (lo0, hi0)
        return k + float(np.sum(np.where(c > 0, c * top, c * bot)))

    for li in range(net.n_layers):
        w, b = net.weights[li], net.biases[li]
        n = len(b)
        pl, ph = np.zeros(n), np.zeros(n)
        for j, vid in enumerate(lay.pre_ids[li]):
            l, u = back(li, w[j], float(b[j]), False), back(li, w[j], float(b[j]), True)
            u0 = u
            for sign in signs.get(vid, ()):
                if sign == NONNEG:
                    l = max(l, 0.0)
                else:
                    u = min(u, 0.0)
            if l > u + EPS_COLLAPSE:
                return Assertion(vid, NONNEG if u0 < 0.0 else NONPOS)
            pl[j], ph[j] = min(l, u), u
        lo += pl.tolist()
        hi += ph.tolist()
        if net.activations[li] != RELU:
            rel.append((np.ones(n), np.zeros(n), np.ones(n), np.zeros(n)))
            continue
        lc, lk, uc, uk = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
        for j in range(n):
            l, u = pl[j], ph[j]
            if l >= 0.0:
                lc[j] = uc[j] = 1.0
            elif u > 0.0:
                uc[j] = u / (u - l)
                uk[j] = -uc[j] * l
        rel.append((lc, lk, uc, uk))
        lo += np.maximum(pl, 0.0).tolist()
        hi += np.maximum(ph, 0.0).tolist()
        for j, vid in enumerate(lay.post_ids[li]):
            relations[vid] = (lc[j], uc[j], uk[j])
    return lo, hi, relations


@pytest.mark.parametrize("dims", [(2, 5, 5, 1), (3, 8, 8, 1), (4, 10, 10, 1), (3, 6, 6, 3)])
def test_matrix_analyze_matches_scalar_reference(dims):
    rng = np.random.default_rng(sum(dims))
    seen = {"infeasible": 0, "contradictory": 0}
    for seed in range(8):
        net = random_network(dims, seed)
        pres = [pre for pre, _ in net.layout.relu_pairs]
        for trial in range(12):
            a, b = rng.uniform(-1.0, 1.0, (2, dims[0]))
            box = tuple(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
            k = int(rng.integers(0, len(pres) + 1)) if trial else 0
            chosen = rng.choice(pres, size=k)
            asserts = sorted({Assertion(int(v), (NONNEG, NONPOS)[int(rng.integers(2))])
                              for v in chosen})
            if len({x.neuron for x in asserts}) < len(asserts):
                seen["contradictory"] += 1
            got = analyze(net, box, asserts)
            want = reference_analyze(net, box, asserts)
            assert got.infeasible == isinstance(want, Assertion), (dims, seed, trial)
            if got.infeasible:
                # the whole-layer clamp empties the same neuron the scalar one does
                assert got.emptied == want, (dims, seed, trial)
                # the lists stop before the emptied neuron's layer
                li = net.layout.pre_row[want.neuron][0]
                assert len(got.lo) == len(got.hi) == net.layout.pre_ids[li][0]
                seen["infeasible"] += 1
                continue
            lo, hi, relations = want
            assert len(got.lo) == len(got.hi) == len(net.layout.neuron_ids)
            assert got.lo == pytest.approx(lo, rel=0, abs=1e-12), (dims, seed, trial)
            assert got.hi == pytest.approx(hi, rel=0, abs=1e-12), (dims, seed, trial)
            got_relations = _suites.relu_relations(net, got)
            assert set(got_relations) == set(relations)
            for pre, post in net.layout.relu_pairs:
                # exactly the ReLU of the clamped pre-activation interval
                assert got.lo[post] == max(got.lo[pre], 0.0), (dims, seed, trial)
                assert got.hi[post] == max(got.hi[pre], 0.0), (dims, seed, trial)
            for vid, want_rel in relations.items():
                assert got_relations[vid] == pytest.approx(want_rel, rel=0, abs=1e-12)
    assert seen["infeasible"] > 0 and seen["contradictory"] > 0, seen


def _bits(b: Bounds):
    """Everything `analyze` returns, each interval end as its 8 bytes, so
    that -0.0 and 0.0 differ."""
    def pack(xs):
        return b"".join(struct.pack("<d", x) for x in xs)

    return (b.infeasible, b.emptied, b.output_ids, len(b.lo), len(b.hi), pack(b.lo), pack(b.hi))


def _zeroed(net, rng) -> Network:
    """`net` with about a third of its weights and biases set to 0."""
    weights = [np.where(rng.random(w.shape) < 0.3, 0.0, w) for w in net.weights]
    biases = [np.where(rng.random(b.shape) < 0.3, 0.0, b) for b in net.biases]
    return Network(weights, biases, net.activations)


def _crossing(net, box, asserts, rng, gap):
    """(net', asserts') where net' shifts the bias of one unasserted ReLU
    pre-activation v so that a new assertion on v crosses its interval by
    about `gap`: within EPS_COLLAPSE it collapses to a point, beyond it
    empties. None when the branch is already empty or every ReLU is
    asserted."""
    before = _suites.matrix_analyze(net, box, asserts)
    free = [pre for pre, _ in net.layout.relu_pairs if pre not in {a.neuron for a in asserts}]
    if before.infeasible or not free:
        return None
    v = int(rng.choice(free))
    li, j = net.layout.pre_row[v]
    sign = (NONNEG, NONPOS)[int(rng.integers(2))]
    # NONNEG raises the lower end to 0 over an upper end moved to -gap;
    # NONPOS lowers the upper end to 0 under a lower end moved to +gap
    shift = -(before.hi[v] + gap) if sign == NONNEG else gap - before.lo[v]
    biases = [b.copy() for b in net.biases]
    biases[li][j] += shift
    return Network(net.weights, biases, net.activations), sorted({*asserts, Assertion(v, sign)})


def test_analyze_matches_the_array_form_bit_for_bit():
    """`analyze` returns exactly what the whole-layer array form
    (`_suites.matrix_analyze`) does, compared as bytes: on seeded nets,
    the same nets with weights and biases zeroed, boxes with sides pinned
    to [0, 0], random assertion sets (contradictory pairs, emptied layers,
    EPS_COLLAPSE crossings) and every assertion set on `data/demo.rnn`."""
    cases = []
    demo_net = load_network(str(DATA / "demo.rnn"))
    every = [Assertion(pre, s) for pre, _ in demo_net.layout.relu_pairs for s in (NONNEG, NONPOS)]
    demo_boxes = (BOX, ((-1.0, -0.5), (0.5, 1.0)), ((0.5, 1.0), (-1.0, -0.5)),
                  ((0.0, 0.0), (-1.0, 1.0)), ((0.0, 0.0), (0.0, 0.0)))
    for box in demo_boxes:
        for r in range(len(every) + 1):
            cases += [(demo_net, box, list(a)) for a in itertools.combinations(every, r)]

    rng = np.random.default_rng(23)
    for dims in [(2, 5, 5, 1), (3, 8, 8, 1), (4, 10, 10, 1), (3, 6, 6, 3)]:
        for seed in range(6):
            base = random_network(dims, seed)
            pres = [pre for pre, _ in base.layout.relu_pairs]
            for net in (base, _zeroed(base, rng)):
                for trial in range(10):
                    a, b = rng.uniform(-1.0, 1.0, (2, dims[0]))
                    lo, hi = np.minimum(a, b), np.maximum(a, b)
                    pinned = rng.random(dims[0]) < (0.3 if trial % 2 else 0.0)
                    box = tuple(zip(np.where(pinned, 0.0, lo).tolist(),
                                    np.where(pinned, 0.0, hi).tolist()))
                    k = int(rng.integers(0, len(pres) // 2 + 1)) if trial else 0
                    asserts = sorted({Assertion(int(v), (NONNEG, NONPOS)[int(rng.integers(2))])
                                      for v in rng.choice(pres, size=k)})
                    cases.append((net, box, asserts))
                    for gap in (EPS_COLLAPSE / 2, 3 * EPS_COLLAPSE):
                        crossed = _crossing(net, box, asserts, rng, gap)
                        if crossed is not None:
                            cases.append((crossed[0], box, crossed[1]))

    seen = dict.fromkeys(("contradictory", "emptied", "collapsed", "zero end"), 0)
    for net, box, asserts in cases:
        want = _suites.matrix_analyze(net, box, asserts)
        assert _bits(analyze(net, box, asserts)) == _bits(want), (net.dims, box, asserts)
        signs = {}
        for a in asserts:
            signs.setdefault(a.neuron, set()).add(a.sign)
        seen["contradictory"] += any(len(s) == 2 for s in signs.values())
        seen["emptied"] += want.infeasible
        seen["collapsed"] += any(v < len(want.lo) and want.lo[v] == want.hi[v] != 0.0
                                 for v in signs)
        # an unasserted pre-activation end at 0.0, which a form that negates
        # the upper bound of -w to get the lower bound of w returns as -0.0
        seen["zero end"] += any(0.0 in (want.lo[v], want.hi[v]) for v in net.layout.pre_row
                                if v < len(want.lo) and v not in signs)
    assert min(seen.values()) > 0 and len(cases) > 1000, (len(cases), seen)


def test_certificate_is_the_refuting_back_substitution(demo_net):
    """y >= 2 is refuted by ub(y) = 1.28: y = 0.4*x4 + 0.6*x5 with both
    ReLUs uncertain, so the row takes both chords and the three affine
    equations, and keeps the output bounded by the threshold."""
    b = analyze(demo_net, BOX)
    high = SafetyProperty(BOX, (LinearConstraint((1.0,), 2.0),))
    cert = certificate(demo_net, high, b)
    assert [(k, i) for k, i, _ in cert] == [
        ("aff", 2), ("aff", 3), ("aff", 6), ("chord", 2), ("chord", 3)]
    y = {(k, i): v for k, i, v in cert}
    assert y["aff", 6] == 1.0
    assert (y["chord", 2], y["chord", 3]) == (-0.4, -0.6)
    assert y["aff", 2] == pytest.approx(0.4 * 0.8 / 1.8)  # 0.4 * the chord slope
    assert y["aff", 3] == pytest.approx(0.6 * 0.5)
    assert certificate_refutes(demo_net, high, b, cert)
    # as tight as analyze: it still refutes a threshold just above 1.28
    tight = SafetyProperty(BOX, (LinearConstraint((1.0,), 1.2801),))
    assert certificate_refutes(demo_net, tight, b, certificate(demo_net, tight, b))
    assert certificate(demo_net, SafetyProperty(BOX, (LinearConstraint((1.0,), 1.27),)), b) is None


def test_certificate_of_an_emptied_assertion(demo_net, demo_prop):
    """x2 <= -0.55 over this box: NONNEG on it empties the branch, and its
    affine equation alone refutes the box with x2's lower end raised to 0."""
    box = ((-1.0, -0.5), (0.5, 1.0))
    b = analyze(demo_net, box, [Assertion(2, NONNEG)])
    cert = certificate(demo_net, demo_prop, b)
    assert cert == (("aff", 2, 1.0),)
    root = analyze(demo_net, box)
    assert clamp(demo_net, root, [Assertion(2, NONNEG)]) is None  # empties too
    raised = Bounds(list(root.lo), list(root.hi), output_ids=root.output_ids)
    raised.lo[2] = 0.0
    assert certificate_refutes(demo_net, demo_prop, raised, cert)
    # NONPOS: x3 >= 0.1 over x0 in [0.5, 1], x1 in [-1, -0.5]
    box = ((0.5, 1.0), (-1.0, -0.5))
    b = analyze(demo_net, box, [Assertion(2, NONPOS)])
    assert b.emptied == Assertion(2, NONPOS)
    assert certificate(demo_net, demo_prop, b) == (("aff", 2, -1.0),)


def test_certificate_of_a_constraint_over_two_outputs():
    net = Network([[[1.0, 0.0], [0.0, 1.0]]], [[0.0, 0.0]])
    box = ((0.0, 1.0), (0.0, 1.0))
    gap = SafetyProperty(box, (LinearConstraint((1.0, -1.0), 1.5),))
    b = analyze(net, box)
    cert = certificate(net, gap, b)
    assert cert == (("aff", 2, 1.0), ("aff", 3, -1.0), ("prop", 0, 1.0))
    assert certificate_refutes(net, gap, b, cert)


def test_certificate_none_when_no_equation_states_it(demo_net):
    # a constraint with no output term, and an output ReLU that is off
    b = analyze(demo_net, BOX)
    assert certificate(demo_net, SafetyProperty(BOX, (LinearConstraint((0.0,), 1.0),)), b) is None
    net = Network([[[1.0]], [[1.0]]], [[0.0], [-2.0]], [RELU, RELU])
    box = ((0.0, 1.0),)
    prop = SafetyProperty(box, (LinearConstraint((1.0,), 0.5),))
    b = analyze(net, box)
    assert is_property_refuted(b, prop)
    assert certificate(net, prop, b) is None


def test_clamp_narrows_asserted_neurons(demo_net):
    b = analyze(demo_net, BOX)
    c = clamp(demo_net, b, [Assertion(2, NONNEG), Assertion(3, NONPOS)])
    assert (c.lo[2], c.hi[2]) == (0.0, b.hi[2])
    assert (c.lo[3], c.hi[3]) == (b.lo[3], 0.0)
    assert (c.lo[5], c.hi[5]) == (0.0, 0.0)  # the post of the NONPOS neuron
    assert (c.lo[4], c.hi[4]) == (b.lo[4], b.hi[4]) and (c.lo[6], c.hi[6]) == (b.lo[6], b.hi[6])
    assert (b.lo[2], b.hi[2]) == (-0.9999999999999999, 0.7999999999999999)  # untouched
