import pytest

import _suites
from incremark import lp
from incremark.deeppoly import NONNEG, NONPOS, Assertion, analyze
from incremark.model import LinearConstraint, Network, SafetyProperty, forward_values

from conftest import BOX


def demo_relax(demo_net, demo_prop, asserts=()):
    bounds = analyze(demo_net, BOX, sorted(asserts))
    return lp.build(demo_net, demo_prop, list(asserts), bounds)


def test_build_uses_clamped_intervals(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop)
    assert r.cfg.lo[6] == 0.3            # single-output property: direct bound
    assert r.cfg.hi[6] == 1.28
    assert r.neuron_ids == [0, 1, 2, 3, 4, 5, 6]
    # uncertain relus contribute two rows each, affine equations one
    assert len(r.cfg.rows) == 3 + 4
    assert r.status is None              # phase 1 not run yet


def test_build_decided_relu_rows(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop, [Assertion(3, NONPOS)])
    # the off unit loses its rows; its post variable is pinned to zero
    assert r.cfg.lo[5] == 0.0 and r.cfg.hi[5] == 0.0
    assert len(r.cfg.rows) == 3 + 2
    r2 = demo_relax(demo_net, demo_prop, [Assertion(3, NONNEG)])
    # the on unit keeps one equality row post - pre = 0
    assert len(r2.cfg.rows) == 3 + 3


def test_phase1_feasible_and_cached(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop)
    assert lp.phase1(r) == lp.FEASIBLE
    assert r.status == lp.FEASIBLE
    assert lp.feasible(r)
    # cached: flipping the stored status shows later calls do not recompute
    r.status = lp.INFEASIBLE
    assert lp.phase1(r) == lp.INFEASIBLE


def test_find_point_satisfies_everything(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop)
    pt = r and lp.find_point(r)
    assert pt is not None
    assert set(pt) == set(range(7))
    assert pt[6] >= 0.3 - 1e-12
    for v in r.neuron_ids:
        assert r.cfg.lo[v] - 1e-9 <= pt[v] <= r.cfg.hi[v] + 1e-9
    # the relaxed relu region contains the vertex
    assert pt[4] >= max(0.0, pt[2]) - 1e-9
    assert pt[5] >= max(0.0, pt[3]) - 1e-9


def test_infeasible_certificate(demo_net, unsat_prop):
    r = lp.build(demo_net, unsat_prop, [], analyze(demo_net, BOX))
    assert lp.phase1(r) == lp.INFEASIBLE
    assert not lp.feasible(r)
    assert r.infeasible_row is not None
    assert lp.find_point(r) is None
    with pytest.raises(ValueError):
        lp.tighten(r, [6])


def test_tighten_demo_values(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop)
    out = lp.tighten(r, [2, 3, 6])
    # x3: the property floor pushes the reachable lower end up from -1
    assert out[2] == (-0.7822580655161288, 0.7999999999999999)
    # x4: improved from -1.6; the exact constrained minimum is 0.4, so any
    # sound relaxation bound must stay at or below that
    assert out[3] == (-0.9414634156341459, 1.6)
    assert out[3][0] <= 0.4
    # y: lower bound is the property threshold, upper recovers the interval
    # bound exactly (the LP optimum is padded by EPS_LP, then re-capped)
    assert out[6] == (0.3, 1.28)


def test_tighten_never_widens(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop)
    for v, (tlo, thi) in lp.tighten(r, range(7)).items():
        assert tlo >= r.cfg.lo[v]
        assert thi <= r.cfg.hi[v]


def test_cap_is_conservative(demo_net, demo_prop):
    r = demo_relax(demo_net, demo_prop)
    r.cap = 0
    assert lp.phase1(r) == lp.CAP
    assert lp.feasible(r)                # cap never certifies infeasibility
    assert lp.find_point(r) is None
    assert lp.tighten(r, [6]) == {6: (0.3, 1.28)}  # priors kept verbatim


def test_repropagate_plain_box_unchanged(demo_net, demo_prop):
    nb = lp.tighten_inputs_then_repropagate(demo_net, demo_prop, [])
    assert not nb.infeasible
    assert (nb.lo[0], nb.hi[0]) == (-1.0, 1.0)
    assert (nb.lo[1], nb.hi[1]) == (-1.0, 1.0)
    assert nb.hi[6] == 1.28


def test_repropagate_shrinks_inputs(demo_net, demo_prop):
    nb = lp.tighten_inputs_then_repropagate(demo_net, demo_prop, [Assertion(2, NONNEG)])
    assert not nb.infeasible
    # x3 >= 0 forces 0.2 x1 - 0.7 x2 >= 0.1, so x2 <= 1/7 (+ padding)
    assert nb.hi[1] == pytest.approx(1.0 / 7.0, abs=1e-8)
    assert (nb.lo[0], nb.hi[0]) == (-1.0, 1.0)
    # the abstraction then reruns under the assertion on the smaller box
    assert nb.lo[2] == 0.0
    assert nb.hi[6] <= 1.28 + 1e-12


def test_repropagate_infeasible_cases(demo_net, demo_prop, unsat_prop):
    nb = lp.tighten_inputs_then_repropagate(demo_net, unsat_prop, [])
    assert nb.infeasible
    # an assertion that empties a pre-activation interval short-circuits
    nb2 = lp.tighten_inputs_then_repropagate(
        Network([[[0.2, -0.7], [0.8, -0.8]], [[0.4, 0.6]]], [[-0.1, 0.0], [0.0]]),
        SafetyProperty(((-1.0, -0.5), (0.5, 1.0)), demo_prop.constraints),
        [Assertion(2, NONNEG)],
    )
    assert nb2.infeasible


def test_relaxation_soundness_sampled():
    assert _suites.relaxation_soundness(points=300) == 0
