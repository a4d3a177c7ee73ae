import math
from types import SimpleNamespace

import numpy as np
import pytest

import _suites
from incremark import lp, simplex
from incremark.bench import random_network, random_threshold_property
from incremark.constants import LP_ITER_FACTOR
from incremark.deeppoly import NONNEG, NONPOS, Assertion, analyze
from incremark.model import LinearConstraint, Network, SafetyProperty
from incremark.simplex import (
    certificate,
    encoded_equations,
    initialize,
    recompute,
)

from conftest import BOX


def demo_relax(demo_net, demo_prop, asserts=()):
    return lp.build(demo_net, demo_prop, analyze(demo_net, BOX, sorted(asserts)))


def test_build_uses_clamped_intervals(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop)
    assert r.cfg.lo[6] == 0.3            # single-output property: direct bound
    assert r.cfg.hi[6] == 1.28
    # the search tableau's 3 affine and 2 relu rows, plus 2 chord rows
    assert len(r.cfg.basic) == 3 + 2 + 2
    assert r.cfg.cap == LP_ITER_FACTOR * (7 + 14)
    assert r.status == lp.FEASIBLE       # build ran phase 1


def test_build_decided_relu_rows(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop, [Assertion(3, NONPOS)])
    # the off unit has no chord; its post variable is pinned to zero
    assert r.cfg.lo[5] == 0.0 and r.cfg.hi[5] == 0.0
    assert len(r.cfg.basic) == 3 + 2 + 1
    r2 = demo_relax(demo_net, demo_prop, [Assertion(3, NONNEG)])
    # the on unit has no chord; its slack post - pre is pinned to zero
    assert (r2.cfg.lo[8], r2.cfg.hi[8]) == (0.0, 0.0)
    assert len(r2.cfg.basic) == 3 + 2 + 1


def test_build_is_search_tableau_plus_chord_rows(monkeypatch):
    """lp.build's rows and bounds, as encoded before its phase 1 pivots
    them, are initialize's, plus exactly one chord row post - k.pre <= -k.l
    per uncertain ReLU, numbered from the first free id."""
    encoded = _suites.encodings(monkeypatch)
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(12):
        net = random_network(((2, 5, 5, 1), (3, 8, 8, 1))[seed % 2], seed)
        prop = random_threshold_property(net, seed + 1)
        lay = net.layout
        bounds = analyze(net, prop.box)
        uncertain = [(p, q) for p, q in lay.relu_pairs if bounds.lo[p] < 0.0 < bounds.hi[p]]
        if uncertain and seed % 3:
            p = uncertain[seed % len(uncertain)][0]
            bounds = analyze(net, prop.box, [Assertion(p, NONNEG if seed % 2 else NONPOS)])
            if bounds.infeasible:
                continue
            uncertain = [(p, q) for p, q in lay.relu_pairs
                         if bounds.lo[p] < 0.0 < bounds.hi[p]]
        cfg = initialize(net, prop, bounds)
        lp.build(net, prop, bounds)
        built = encoded[-1]
        first = max(encoded_equations(net, prop)) + 1
        chords = sorted(set(built.pos) - set(cfg.pos))
        assert chords == list(range(first, first + len(uncertain)))
        assert all(built.row(b) == cfg.row(b) for b in cfg.pos)
        assert built.lo[:len(cfg.lo)] == cfg.lo
        assert built.hi[:len(cfg.hi)] == cfg.hi
        # each chord row, at any assignment of the non-basics, equals
        # post - k.pre with pre solved from its affine row
        point = {v: float(rng.normal()) for v in range(len(cfg.alpha)) if v not in cfg.pos}
        rows = {b: dict(built.row(b)) for b in built.basic}
        val = _suites.configuration(rows, built.lo, built.hi, point)
        recompute(val)
        for sid, (pre, post) in zip(chords, uncertain):
            l, u = bounds.lo[pre], bounds.hi[pre]
            k = u / (u - l)
            assert val.alpha[sid] == pytest.approx(point[post] - k * val.alpha[pre], abs=1e-9)
            assert (built.lo[sid], built.hi[sid]) == (-math.inf, -k * l)
            checked += 1
    assert checked > 20


def test_phase1_records_status_and_row(demo_net, demo_prop, unsat_prop):
    r = demo_relax(demo_net, demo_prop)
    assert r.status == lp.FEASIBLE
    assert r.infeasible_row is None
    bad = lp.build(demo_net, unsat_prop, analyze(demo_net, BOX))
    assert bad.status == lp.INFEASIBLE
    assert bad.infeasible_row in bad.cfg.basic


def test_phase1_vertex_satisfies_everything(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop)
    assert r.status == lp.FEASIBLE
    pt = {v: lp._value(r.cfg, v) for v in demo_net.layout.neuron_ids}
    assert set(pt) == set(range(7))
    assert pt[6] >= 0.3 - 1e-12
    for v in pt:
        assert r.cfg.lo[v] - 1e-9 <= pt[v] <= r.cfg.hi[v] + 1e-9
    # the relaxed relu region contains the vertex
    assert pt[4] >= max(0.0, pt[2]) - 1e-9
    assert pt[5] >= max(0.0, pt[3]) - 1e-9


def test_infeasible_certificate(demo_net, unsat_prop):
    r = lp.build(demo_net, unsat_prop, analyze(demo_net, BOX))
    assert r.status == lp.INFEASIBLE
    assert r.infeasible_row is not None
    with pytest.raises(ValueError):
        lp.tighten_inputs_then_repropagate(demo_net, [], r)


def _equation_residual(net, prop, cfg, bounds, kind, i, v):
    """slack - expr of one encoded equation at an arbitrary point v, written
    out here from the encoding tables rather than taken from the tableau."""
    lay = net.layout
    own = {key: sid for sid, key in cfg.equations.items()}[(kind, i)]
    if kind == "aff":
        li, j = lay.pre_row[i]
        prev = lay.input_ids if li == 0 else lay.post_ids[li - 1]
        expr = sum(w * v[p] for w, p in zip(net.weights[li][j], prev)) - v[i]
    elif kind == "relu":
        expr = v[lay.relu_post[i]] - v[i]
    elif kind == "chord":
        l, u = bounds.lo[i], bounds.hi[i]
        expr = v[lay.relu_post[i]] - u / (u - l) * v[i]
    else:
        expr = sum(a * v[y] for a, y in zip(prop.constraints[i].coeffs, lay.output_ids))
    return v[own] - expr


def _zero_some_weights(net, rng):
    """A copy of net with about a third of its weights set to 0.0, which
    `initialize` leaves out of its rows and an equation's terms keep."""
    return Network([np.where(rng.random(w.shape) < 0.35, 0.0, w) for w in net.weights],
                   net.biases, list(net.activations))


@pytest.mark.parametrize("shape, seed, n_out", [((2, 5, 5, 1), 3, 1), ((3, 6, 4), 8, 4),
                                                ((2, 4, 4, 3), 11, 3)])
def test_every_row_is_its_certificates_sum(shape, seed, n_out):
    """At any point, even one off every equation, a tableau row's residual
    equals the certificate-weighted sum of the equations' residuals; for a
    random network and for a copy with zero weights."""
    rng = np.random.default_rng(seed)
    net = random_network(shape, seed)
    # two multi-output constraints, so property slacks are encoded too
    prop = SafetyProperty(tuple((-1.0, 1.0) for _ in range(shape[0])), tuple(
        LinearConstraint(tuple(rng.normal(size=n_out)), -5.0) for _ in range(2)))
    for net in (net, _zero_some_weights(net, rng)):
        bounds = analyze(net, prop.box)
        # build's phase 1 pivots the rows away from their encoded form
        r = lp.build(net, prop, bounds)
        kinds = {kind for kind, _ in r.cfg.equations.values()}
        assert kinds == ({"aff", "relu", "chord", "prop"} if n_out > 1 else {"aff", "relu", "chord"})
        v = dict(enumerate(rng.normal(size=len(r.cfg.lo)).tolist()))
        for b in r.cfg.basic:
            lhs = v[b] - sum(c * v[k] for k, c in r.cfg.row(b))
            rhs = sum(y * _equation_residual(net, prop, r.cfg, bounds, kind, i, v)
                      for kind, i, y in certificate(r.cfg, b))
            assert rhs == pytest.approx(lhs, abs=1e-9)


def test_infeasible_branch_certificate_closes_it(demo_net, demo_prop, unsat_prop, fprime):
    r = lp.build(demo_net, unsat_prop, analyze(demo_net, BOX))
    assert r.status == lp.INFEASIBLE
    cert = certificate(r.cfg, r.infeasible_row)
    assert lp.certificate_refutes(demo_net, unsat_prop, analyze(demo_net, BOX), cert)
    assert lp.refuting_certificate(demo_net, unsat_prop, analyze(demo_net, BOX), r.cfg,
                                   r.infeasible_row) == cert
    assert r.cert == cert                # build kept the re-checked certificate
    assert lp.decide(demo_net, unsat_prop, analyze(demo_net, BOX)) == (None, cert)
    # no row of a relaxation with a feasible point shows its branch empty
    sat = lp.build(demo_net, demo_prop, analyze(demo_net, BOX))
    assert sat.status == lp.FEASIBLE and sat.cert is None
    assert all(lp.refuting_certificate(demo_net, demo_prop, analyze(demo_net, BOX), sat.cfg, b)
               is None for b in sat.cfg.basic)
    # a small weight change: the rebuilt sum still excludes 0
    assert lp.certificate_refutes(fprime, unsat_prop, analyze(fprime, BOX), cert)
    # any multipliers give an implied equation; these ones show nothing
    for useless in ((), (("relu", 2, 1.0),), (("relu", 2, -3.0), ("relu", 3, 0.5))):
        assert not lp.certificate_refutes(demo_net, unsat_prop, analyze(demo_net, BOX), useless)


def test_infeasible_row_that_does_not_recheck_leaves_no_certificate(monkeypatch, demo_net,
                                                                    unsat_prop):
    """`build` keeps an infeasible row's certificate only when it re-checks;
    `decide` then has nothing to close the branch on."""
    monkeypatch.setattr(lp, "certificate_refutes", lambda *args: False)
    r = lp.build(demo_net, unsat_prop, analyze(demo_net, BOX))
    assert r.status == lp.INFEASIBLE and r.infeasible_row is not None
    assert r.cert is None
    assert lp.decide(demo_net, unsat_prop, analyze(demo_net, BOX)) == (None, None)


def _refutes_over_all_bounds(net, prop, bounds, cert):
    """Reference for lp.certificate_refutes: the same test over every
    variable bound of the search tableau, built by simplex.initialize."""
    lay = net.layout
    cfg = initialize(net, prop, bounds)
    sids = {key: sid for sid, key in encoded_equations(net, prop).items()}
    lo, hi = cfg.lo, cfg.hi
    coef, rlo, rhi = {}, 0.0, 0.0
    for kind, i, y in cert:
        if kind == "chord":
            l, u = bounds.lo[i], bounds.hi[i]
            if not l < 0.0 < u:
                return False
            k = u / (u - l)
            terms, slo, shi = [(i, k), (lay.relu_post[i], -1.0)], -math.inf, -k * l
        else:
            if kind == "aff":
                li, j = lay.pre_row[i]
                prev = lay.input_ids if li == 0 else lay.post_ids[li - 1]
                terms = [(i, 1.0), *zip(prev, (-net.weights[li][j]).tolist())]
            elif kind == "relu":
                terms = [(i, 1.0), (lay.relu_post[i], -1.0)]
            else:
                coeffs = prop.constraints[i].coeffs
                terms = [(lay.output_ids[n], -a) for n, a in enumerate(coeffs) if a != 0.0]
            sid = sids[(kind, i)]
            slo, shi = lo[sid], hi[sid]
        rlo += y * (slo if y > 0 else shi)
        rhi += y * (shi if y > 0 else slo)
        for v, c in terms:
            coef[v] = coef.get(v, 0.0) + y * c
    for v, c in coef.items():
        rlo += c * (lo[v] if c > 0 else hi[v])
        rhi += c * (hi[v] if c > 0 else lo[v])
    return 1e-7 < rlo < math.inf or -math.inf < rhi < -1e-7


@pytest.mark.parametrize("shape, n_out", [((2, 5, 5, 1), 1), ((3, 6, 4), 4)])
def test_certificate_refutes_reads_only_the_bounds_it_needs(shape, n_out):
    """The certificate test reads the bounds of the variables its equations
    touch and answers as the test over every tableau bound does, on every
    row of pivoted branch LPs and on scaled copies of them; for random
    networks and for copies with zero weights."""
    rng = np.random.default_rng(2)
    answers = []
    for seed in range(12):
        net = random_network(shape, seed % 6)
        if seed >= 6:
            net = _zero_some_weights(net, np.random.default_rng(seed))
        prop = SafetyProperty(tuple((-1.0, 1.0) for _ in range(shape[0])), tuple(
            LinearConstraint(tuple(rng.normal(size=n_out)), float(rng.normal()))
            for _ in range(2)))
        pres = [pre for pre, _ in net.layout.relu_pairs]
        for _ in range(4):
            asserts = sorted({Assertion(int(v), (NONNEG, NONPOS)[int(rng.integers(2))])
                              for v in rng.choice(pres, size=2, replace=False)})
            bounds = analyze(net, prop.box, asserts)
            if bounds.infeasible:
                continue
            r = lp.build(net, prop, bounds)
            for b in r.cfg.basic:
                cert = certificate(r.cfg, b)
                for scale in (1.0, -3.0):
                    scaled = tuple((k, i, scale * y) for k, i, y in cert)
                    got = lp.certificate_refutes(net, prop, bounds, scaled)
                    assert got == _refutes_over_all_bounds(net, prop, bounds, scaled)
                    answers.append(got)
    assert True in answers and False in answers


def test_certificate_chord_needs_an_undecided_neuron(demo_net, demo_prop):
    bounds = analyze(demo_net, BOX)
    assert bounds.lo[3] < 0.0 < bounds.hi[3]
    # the chord of x4 over its interval, alone: post - k*pre <= -k*l holds,
    # so the interval of its residual, slack - post + k*pre, contains 0
    assert not lp.certificate_refutes(demo_net, demo_prop, bounds, (("chord", 3, 1.0),))
    # once the neuron is decided the chord's bound cuts real points: for
    # pre = x in [1, 2] it would say post - 2*pre <= -2, which only pre = 2
    # meets. With the output capped at 1.5 that "shows" a non-empty branch
    # empty, so the rung must refuse it
    net = Network([[[1.0]], [[1.0]]], [[0.0], [0.0]])
    prop = SafetyProperty(((1.0, 2.0),), (LinearConstraint((-1.0,), -1.5),))
    on = analyze(net, prop.box)
    assert (on.lo[1], on.hi[1]) == (1.0, 2.0)
    assert lp.build(net, prop, on).status == lp.FEASIBLE
    cut = (("chord", 1, 1.0), ("relu", 1, -2.0), ("aff", 3, 1.0))  # s_chord + y <= -0.5
    assert not lp.certificate_refutes(net, prop, on, cut)
    # on a neuron pinned to [0, 0] the chord has no slope (0/0): it refutes
    # nothing, rather than raise
    pinned = analyze(demo_net, BOX, [Assertion(3, NONNEG), Assertion(3, NONPOS)])
    assert pinned.lo[3] == pinned.hi[3] == 0.0
    assert not lp.certificate_refutes(demo_net, demo_prop, pinned, (("chord", 3, 1.0),))


def _tightened(r, v):
    """The LP interval of neuron v over a relaxation whose phase 1 found it
    feasible: both optima, padded by EPS_LP and capped by v's own bounds,
    the rule by which `tighten_inputs_then_repropagate` shrinks an input."""
    lo = max(r.cfg.lo[v], lp._optimize(r, v, maximize=False) - lp.EPS_LP)
    hi = min(r.cfg.hi[v], lp._optimize(r, v, maximize=True) + lp.EPS_LP)
    return lo, hi


def test_tighten_demo_values(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop)
    assert r.status == lp.FEASIBLE
    out = {v: _tightened(r, v) for v in (2, 3, 6)}
    # x3: the property floor pushes the reachable lower end up from -1
    assert out[2] == (-0.7822580655161292, 0.7999999999999999)
    # x4: improved from -1.6; the exact constrained minimum is 0.4, so any
    # sound relaxation bound must stay at or below that
    assert out[3] == (-0.941463415634147, 1.6)
    assert out[3][0] <= 0.4
    # y: lower bound is the property threshold, upper recovers the interval
    # bound exactly (the LP optimum is padded by EPS_LP, then re-capped)
    assert out[6] == (0.3, 1.28)


def test_ratio_test_ties_within_an_ulp_go_to_the_lowest_basic():
    # maximize x0: rows x1 = x0 and x2 = x0 both block it, x2 one ulp
    # earlier than x1; the two steps tie, so the lower id x1 leaves
    top = math.nextafter(1.0, 0.0)
    cfg = _suites.configuration({1: {0: 1.0}, 2: {0: 1.0}}, [0.0, 0.0, 0.0], [10.0, 1.0, top],
                                {0: 0.0}, input_ids=[0])
    recompute(cfg)
    cfg.cap = 10
    relax = lp.Relaxation(cfg, status=lp.FEASIBLE)
    assert lp._optimize(relax, 0, maximize=True) == 1.0
    assert 1 not in cfg.pos and 2 in cfg.pos
    # a tie with the entering variable's own bound goes to the bound flip,
    # though the row blocks one ulp earlier
    cfg = _suites.configuration({1: {0: 1.0}}, [0.0, 0.0], [1.0, top], {0: 0.0}, input_ids=[0])
    recompute(cfg)
    cfg.cap = 10
    relax = lp.Relaxation(cfg, status=lp.FEASIBLE)
    assert lp._optimize(relax, 0, maximize=True) == 1.0
    assert 1 in cfg.pos


def test_ratio_test_never_chooses_a_row_that_pivot_rejects(monkeypatch):
    # maximize x0 under x2 = 5e-9 x0 + x1, x1 in [0, 0], x2 in [0, 1e-9]: the
    # row of x2 alone blocks x0, but its coefficient is below EPS_PIVOT, so
    # the optimum is not found and input tightening keeps x0's upper bound
    def relax():
        cfg = _suites.configuration({2: {0: 5e-9, 1: 1.0}}, [0.0, 0.0, 0.0],
                                    [math.inf, 0.0, 1e-9], {0: 0.0, 1: 0.0}, input_ids=[0])
        recompute(cfg)
        cfg.cap = 10
        r = lp.Relaxation(cfg)
        assert lp.phase1(r) == lp.FEASIBLE
        return r

    assert lp._optimize(relax(), 0, maximize=True) is None
    # x0 as the one input: the box handed on to the abstraction keeps it
    monkeypatch.setattr(lp, "analyze", lambda net, box, asserts: box)
    net = SimpleNamespace(layout=SimpleNamespace(input_ids=[0]))
    assert lp.tighten_inputs_then_repropagate(net, [], relax()) == ((0.0, math.inf),)


def test_optimize_gives_up_when_unbounded_or_capped():
    # maximize x0 under x1 = x0, neither bounded above: nothing blocks x0
    cfg = _suites.configuration({1: {0: 1.0}}, [0.0, 0.0], [math.inf, math.inf], {0: 0.0},
                                input_ids=[0])
    recompute(cfg)
    relax = lp.Relaxation(cfg, status=lp.FEASIBLE)
    assert lp._optimize(relax, 0, maximize=True) is None
    assert lp._optimize(relax, 0, maximize=False) == 0.0
    # maximize x2 = x0 + x1 over x0, x1 in [0, 1]: two bound flips, then
    # the optimum, so a cap of two steps stops short of it
    for cap, optimum in ((3, 2.0), (2, None)):
        cfg = _suites.configuration({2: {0: 1.0, 1: 1.0}}, [0.0, 0.0, -math.inf],
                                    [1.0, 1.0, math.inf], {}, input_ids=[0, 1])
        recompute(cfg)
        cfg.cap = cap
        assert lp._optimize(lp.Relaxation(cfg, status=lp.FEASIBLE), 2, maximize=True) == optimum


def test_tighten_reports_an_input_squeezed_empty():
    # the row x0 = x1 with x1 pinned 5e-8 above x0's upper end: phase 1
    # accepts a basic within EPS_BOUND of its bounds, so the relaxation is
    # FEASIBLE, but x0's minimum lies above its upper end by more than EPS_LP
    top = 1.0 + 5e-8
    cfg = _suites.configuration({0: {1: 1.0}}, [0.0, top], [1.0, top], {1: top}, input_ids=[0])
    recompute(cfg)
    relax = lp.Relaxation(cfg)
    assert lp.phase1(relax) == lp.FEASIBLE
    net = Network([[[1.0]]], [[0.0]])
    out = lp.tighten_inputs_then_repropagate(net, [], relax)
    assert out.infeasible and out.lo == [] and out.output_ids == (1,)


def test_tighten_never_widens(demo_net, demo_prop):
    # every optimum lies within its variable's bounds, up to the padding
    r = demo_relax(demo_net, demo_prop)
    assert r.status == lp.FEASIBLE
    for v in range(7):
        mn = lp._optimize(r, v, maximize=False)
        mx = lp._optimize(r, v, maximize=True)
        assert r.cfg.lo[v] - lp.EPS_LP <= mn <= mx <= r.cfg.hi[v] + lp.EPS_LP
    # and no input interval widens, whatever the assertions
    for asserts in ([], [Assertion(2, NONNEG)], [Assertion(2, NONPOS)], [Assertion(3, NONNEG)]):
        r = demo_relax(demo_net, demo_prop, asserts)
        assert r.status == lp.FEASIBLE
        nb = lp.tighten_inputs_then_repropagate(demo_net, asserts, r)
        for v, (blo, bhi) in zip(demo_net.layout.input_ids, BOX):
            assert blo <= nb.lo[v] <= nb.hi[v] <= bhi


def test_cap_is_conservative(monkeypatch, demo_net, demo_prop):
    monkeypatch.setattr(simplex, "LP_ITER_FACTOR", 0)
    r = demo_relax(demo_net, demo_prop)
    assert r.cfg.cap == 0
    assert r.status == lp.CAP
    assert r.infeasible_row is None      # cap never certifies infeasibility
    assert r.cert is None
    # no vertex to tighten from
    with pytest.raises(ValueError):
        lp.tighten_inputs_then_repropagate(demo_net, [], r)
    # and none to decide from
    assert lp.decide(demo_net, demo_prop, analyze(demo_net, BOX)) == (None, None)


def test_repropagate_plain_box_unchanged(demo_net, demo_prop):
    nb = lp.tighten_inputs_then_repropagate(demo_net, [], demo_relax(demo_net, demo_prop))
    assert not nb.infeasible
    assert (nb.lo[0], nb.hi[0]) == (-1.0, 1.0)
    assert (nb.lo[1], nb.hi[1]) == (-1.0, 1.0)
    assert nb.hi[6] == 1.28


def test_repropagate_shrinks_inputs(demo_net, demo_prop):
    asserts = [Assertion(2, NONNEG)]
    nb = lp.tighten_inputs_then_repropagate(
        demo_net, asserts, demo_relax(demo_net, demo_prop, asserts))
    assert not nb.infeasible
    # x3 >= 0 forces 0.2 x1 - 0.7 x2 >= 0.1, so x2 <= 1/7 (+ padding)
    assert nb.hi[1] == pytest.approx(1.0 / 7.0, abs=1e-8)
    assert (nb.lo[0], nb.hi[0]) == (-1.0, 1.0)
    # the abstraction then reruns under the assertion on the smaller box
    assert nb.lo[2] == 0.0
    assert nb.hi[6] <= 1.28 + 1e-12


def test_repropagate_infeasible_cases(demo_net, unsat_prop):
    relax = demo_relax(demo_net, unsat_prop)
    assert relax.status == lp.INFEASIBLE
    with pytest.raises(ValueError):
        lp.tighten_inputs_then_repropagate(demo_net, [], relax)
    # before phase 1 runs there is no status to read
    with pytest.raises(ValueError):
        lp.tighten_inputs_then_repropagate(demo_net, [], lp.Relaxation(relax.cfg))


def test_relaxation_soundness_sampled():
    assert _suites.relaxation_soundness(points=300) == 0
