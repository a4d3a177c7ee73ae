import pytest

import _suites
from incremark import lp, solver
from incremark.bench import Perturbation, perturb, random_network, random_threshold_property
from incremark.constants import EPS_ROW
from incremark.deeppoly import NONNEG, NONPOS, Assertion, analyze
from incremark.incremental import verify_incremental
from incremark.model import LinearConstraint, Network, SafetyProperty
from incremark.simplex import (
    Configuration,
    PivotError,
    Progress,
    Satisfied,
    Stuck,
    bound_violation,
    check_unsat_rows,
    dump,
    entering_for,
    initialize,
    pivot,
    recompute,
    refresh_bounds,
    repair_step,
    row_interval,
    row_unsat,
    set_variable,
    update,
    violated_relu_pairs,
)

from conftest import BOX


def demo_cfg(demo_net, demo_prop):
    return initialize(demo_net, demo_prop, analyze(demo_net, BOX))


def small_cfg(rows, lo, hi, alpha):
    cfg = Configuration(rows, lo, hi, alpha, [], [])
    recompute(cfg)
    return cfg


def test_initialize_demo_tableau(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    assert sorted(cfg.rows) == [2, 3, 6, 7, 8]
    assert cfg.rows[2] == {0: 0.2, 1: -0.7, 9: -1.0}
    assert cfg.rows[3] == {0: 0.8, 1: -0.8, 10: -1.0}
    assert cfg.rows[6] == {4: 0.4, 5: 0.6, 11: -1.0}
    assert cfg.rows[7] == {0: -0.2, 1: 0.7, 4: 1.0, 9: 1.0}
    assert cfg.rows[8] == {0: -0.8, 1: 0.8, 5: 1.0, 10: 1.0}
    assert cfg.prop_slacks == {}


def test_initialize_demo_slack_intervals(demo_net, demo_prop):
    b = analyze(demo_net, BOX)
    assert set(b.lo) == set(b.hi) == set(demo_net.layout.neuron_ids)  # neurons only
    cfg = initialize(demo_net, demo_prop, b)
    # relu inequality slacks: post - pre in [max(0,-u), max(0,-l)]
    assert (cfg.lo[7], cfg.hi[7]) == (0.0, 0.9999999999999999)
    assert (cfg.lo[8], cfg.hi[8]) == (0.0, 1.6)
    # affine slacks pin the equation constants to -bias
    assert (cfg.lo[9], cfg.hi[9]) == (0.1, 0.1)
    assert (cfg.lo[10], cfg.hi[10]) == (-0.0, -0.0)
    assert (cfg.lo[11], cfg.hi[11]) == (-0.0, -0.0)
    assert sorted(cfg.lo) == list(range(12))
    # refresh_bounds derives them the same way from new neuron intervals
    refresh_bounds(cfg, demo_net, demo_prop, analyze(demo_net, BOX, [Assertion(3, NONNEG)]))
    assert (cfg.lo[8], cfg.hi[8]) == (0.0, 0.0)


def test_initialize_demo_bounds_and_alpha(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    # the single-output constraint tightens the output lower bound in place
    assert cfg.lo[6] == 0.3
    assert cfg.hi[6] == 1.28
    assert cfg.alpha[0] == -1.0 and cfg.alpha[1] == -1.0
    assert cfg.alpha[2] == 0.3999999999999999
    assert cfg.alpha[7] == -0.3999999999999999
    assert cfg.alpha[9] == 0.1
    assert cfg.witness() == (-1.0, -1.0)


def test_initialize_rejects_empty_negation(demo_net):
    with pytest.raises(ValueError):
        initialize(demo_net, SafetyProperty(BOX, ()), analyze(demo_net, BOX))


def test_initialize_multi_output_property_slack():
    net = Network([[[1.0, 0.0], [0.0, 1.0]]], [[0.0, 0.0]])
    box = ((0.0, 1.0), (0.0, 1.0))
    prop = SafetyProperty(box, (LinearConstraint((1.0, -1.0), 0.25),))
    cfg = initialize(net, prop, analyze(net, box))
    sid = net.layout.n_vars
    assert cfg.prop_slacks == {0: sid}
    # outputs are themselves basic, so the slack row is pre-substituted down
    # to inputs and affine slacks
    assert cfg.rows[sid] == {0: 1.0, 1: -1.0, 4: -1.0, 5: 1.0}
    assert cfg.lo[sid] == 0.25
    assert cfg.hi[sid] == 1.0  # interval ub of y1 - y2


def test_pivot_demo_sequence(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    pivot(cfg, 7, 4)
    assert sorted(cfg.rows) == [2, 3, 4, 6, 8]
    assert cfg.rows[4] == {0: 0.2, 1: -0.7, 7: 1.0, 9: -1.0}
    # the substitution reaches every row that mentioned the entering variable
    assert cfg.rows[6] == {
        0: 0.08000000000000002, 1: -0.27999999999999997, 5: 0.6,
        7: 0.4, 9: -0.4, 11: -1.0,
    }
    pivot(cfg, 6, 5)
    assert sorted(cfg.rows) == [2, 3, 4, 5, 8]
    assert cfg.rows[5] == {
        0: -0.13333333333333336, 1: 0.4666666666666666, 6: 1.6666666666666667,
        7: -0.6666666666666667, 9: 0.6666666666666667, 11: 1.6666666666666667,
    }


def test_pivot_and_update_moves_leaving_to_value(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    pivot(cfg, 7, 4, 0.25)
    assert cfg.alpha[7] == 0.25
    # the column update keeps every row solved without a re-solve
    for b in cfg.rows:
        assert cfg.alpha[b] == pytest.approx(cfg.row_value(b), abs=1e-12)


def test_update_shifts_only_rows_that_mention_the_variable(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    before = dict(cfg.alpha)
    update(cfg, 4, 0.5)                        # x5 appears in rows 6 and 7
    assert cfg.alpha[4] == 0.5
    assert cfg.alpha[6] == pytest.approx(before[6] + 0.4 * (0.5 - before[4]))
    assert cfg.alpha[7] == pytest.approx(before[7] + 1.0 * (0.5 - before[4]))
    assert all(cfg.alpha[b] == before[b] for b in (2, 3, 8))


def test_pivot_zero_coefficient_raises(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    with pytest.raises(PivotError):
        pivot(cfg, 2, 4)  # x5 does not appear in the x3 row


def test_row_interval_sign_split():
    cfg = small_cfg(
        {0: {1: 2.0, 2: -1.0}},
        {0: -10.0, 1: -1.0, 2: 0.5},
        {0: 10.0, 1: 3.0, 2: 2.0},
        {1: 0.0, 2: 1.0},
    )
    assert row_interval(cfg, 0) == (2.0 * -1.0 - 2.0, 2.0 * 3.0 - 0.5)


def test_row_unsat_margins():
    def mk(blo, bhi):
        return small_cfg(
            {0: {1: 1.0}}, {0: blo, 1: 0.0}, {0: bhi, 1: 1.0}, {1: 0.0}
        )

    assert row_unsat(mk(1.1, 2.0), 0)          # lo(b) above rhs range
    assert row_unsat(mk(-2.0, -0.1), 0)        # hi(b) below rhs range
    assert not row_unsat(mk(0.5, 2.0), 0)
    # violations inside the eps margin do not count
    assert not row_unsat(mk(1.0 + 5e-8, 2.0), 0)
    assert row_unsat(mk(1.0 + 5e-7, 2.0), 0)


def test_check_unsat_rows_picks_lowest_basic():
    cfg = small_cfg(
        {3: {1: 1.0}, 2: {1: 1.0}},
        {1: 0.0, 2: 5.0, 3: 5.0},
        {1: 1.0, 2: 6.0, 3: 6.0},
        {1: 0.0},
    )
    assert check_unsat_rows(cfg) == 2
    ok = small_cfg({2: {1: 1.0}}, {1: 0.0, 2: 0.0}, {1: 1.0, 2: 1.0}, {1: 0.0})
    assert check_unsat_rows(ok) is None


def test_bound_violation_direction_and_order():
    cfg = small_cfg(
        {2: {0: 1.0}, 3: {1: 1.0}},
        {0: 0.0, 1: 0.0, 2: 0.5, 3: -1.0},
        {0: 1.0, 1: 1.0, 2: 2.0, 3: -0.5},
        {0: 0.0, 1: 0.0},
    )
    # both rows violate; lowest basic id wins; alpha 0 < lo 0.5 needs up
    assert bound_violation(cfg) == (2, True)
    cfg.lo[2], cfg.hi[2] = -1.0, 1.0
    assert bound_violation(cfg) == (3, False)
    cfg.lo[3], cfg.hi[3] = -1.0, 1.0
    assert bound_violation(cfg) is None


def test_entering_for_bland_and_saturation():
    cfg = small_cfg(
        {3: {0: 1.0, 1: -1.0, 2: 1.0}},
        {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0},
        {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0},
        {0: 0.0, 1: 1.0, 2: 0.0},
    )
    row = cfg.rows[3]
    assert entering_for(cfg, row, True) == 0     # lowest eligible id
    cfg.alpha[0] = 1.0                            # saturate upward move of x1
    assert entering_for(cfg, row, True) == 1     # negative coef, x2 can decrease
    cfg.alpha[1] = 0.0
    assert entering_for(cfg, row, True) == 2
    cfg.alpha[2] = 1.0
    assert entering_for(cfg, row, True) is None
    # the opposite direction is still available
    assert entering_for(cfg, row, False) == 0


def test_repair_step_bound_fix():
    cfg = small_cfg(
        {2: {0: 1.0, 1: 1.0}},
        {0: 0.0, 1: 0.0, 2: 0.5},
        {0: 1.0, 1: 1.0, 2: 2.0},
        {0: 0.0, 1: 0.0},
    )
    out = repair_step(cfg)
    assert isinstance(out, Progress)
    assert cfg.alpha[2] == 0.5
    assert sorted(cfg.rows) == [0]             # x1 entered the basis
    assert cfg.alpha[0] == 0.5
    assert bound_violation(cfg) is None


def test_repair_step_stuck_reports_row():
    cfg = small_cfg(
        {2: {0: 1.0, 1: 1.0}},
        {0: 0.0, 1: 0.0, 2: 3.0},
        {0: 1.0, 1: 1.0, 2: 4.0},
        {0: 1.0, 1: 1.0},
    )
    out = repair_step(cfg)
    assert isinstance(out, Stuck)
    assert out.stuck_row == 2                  # certificate row at these bounds


def test_repair_step_cycles_and_scores_violations(demo_net, demo_prop):
    # the root instance makes the bare local search ping-pong between the two
    # relu pairs; the violation counters are what the solver splits on
    cfg = demo_cfg(demo_net, demo_prop)
    for _ in range(40):
        assert isinstance(repair_step(cfg), Progress)
    assert cfg.violations == {2: 20, 3: 19}


def test_repair_step_satisfied_on_branch(demo_net, demo_prop):
    # under x3 <= 0 the same loop terminates with a witness in a few moves
    b = analyze(demo_net, BOX, [Assertion(2, NONPOS)])
    cfg = initialize(demo_net, demo_prop, b)
    for i in range(50):
        out = repair_step(cfg)
        if isinstance(out, Satisfied):
            break
    assert isinstance(out, Satisfied)
    assert i == 3
    assert out.witness == (0.6749999999999999, 0.050000000000000044)
    assert violated_relu_pairs(cfg) == []
    assert bound_violation(cfg) is None


def test_violated_relu_pairs_tolerance():
    cfg = Configuration(
        {}, {0: -1.0, 1: 0.0}, {0: 1.0, 1: 1.0}, {0: 0.5, 1: 0.5},
        [(0, 1)], [0],
    )
    assert violated_relu_pairs(cfg) == []
    cfg.alpha[1] = 0.5 + 2e-9
    assert violated_relu_pairs(cfg) == [(0, 1)]
    cfg.alpha[1] = 0.5 + 2e-10                 # below the relu tolerance
    assert violated_relu_pairs(cfg) == []


def test_set_variable_cases():
    cfg = small_cfg(
        {2: {0: 1.0, 1: 1.0}},
        {0: 0.0, 1: 0.0, 2: -10.0},
        {0: 1.0, 1: 1.0, 2: 10.0},
        {0: 0.2, 1: 0.2},
    )
    assert not set_variable(cfg, 0, 5.0)       # outside bounds
    assert set_variable(cfg, 0, 0.9)           # non-basic, direct
    assert cfg.alpha[0] == 0.9
    assert cfg.alpha[2] == pytest.approx(1.1)
    assert set_variable(cfg, 2, 0.5)           # basic: pivots out first
    assert 2 not in cfg.rows
    assert cfg.alpha[2] == 0.5


def test_set_variable_basic_refusals():
    cfg = small_cfg(
        {2: {0: 1.0, 1: 1.0}},
        {0: 0.0, 1: 0.0, 2: -10.0},
        {0: 1.0, 1: 1.0, 2: 10.0},
        {0: 0.2, 1: 0.2},
    )
    # a basic no-op move refuses rather than pivoting pointlessly
    assert not set_variable(cfg, 2, cfg.alpha[2])
    # all entering candidates saturated in the needed direction
    cfg.alpha[0] = cfg.alpha[1] = 1.0
    recompute(cfg)
    assert not set_variable(cfg, 2, 2.5)


def test_refresh_bounds_reclamps(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    cfg.violations[2] = 5
    b = analyze(demo_net, ((0.5, 1.0), (-1.0, 1.0)))
    refresh_bounds(cfg, demo_net, demo_prop, b)
    assert cfg.lo[0] == 0.5
    assert cfg.alpha[0] == 0.5                 # clamped back inside
    assert cfg.lo[6] == 0.3                    # property re-applied
    assert cfg.violations == {2: 0, 3: 0}


def test_dump_mentions_rows(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    text = dump(cfg, "demo")
    assert "[demo]" in text
    assert "x3" in text and "x7" in text


def test_pivot_preserves_solutions():
    assert _suites.pivot_preservation(1000) == 0


def test_row_checker_matches_corner_oracle():
    assert _suites.row_checker_vs_corners(1000) == 0


# -- incremental assignment invariants over seeded searches ------------------

def _instances(demo_net, demo_prop):
    out = [(demo_net, demo_prop)]
    for shape, seed in (((2, 5, 5, 1), 2), ((2, 5, 5, 1), 11), ((2, 5, 5, 1), 18),
                        ((3, 8, 8, 1), 2)):
        net = random_network(shape, seed)
        out.append((net, random_threshold_property(net, seed + 1)))
    return out


def _exact(cfg, vid):
    return cfg.row_value(vid) if vid in cfg.rows else cfg.alpha[vid]


def _max_residual(cfg):
    return max((abs(cfg.alpha[b] - cfg.row_value(b)) for b in cfg.rows), default=0.0)


def _nonbasics_in_bounds(cfg):
    return all(cfg.lo[v] <= a <= cfg.hi[v] for v, a in cfg.alpha.items() if v not in cfg.rows)


def _search_all(instances):
    """Scratch search of every instance, then re-verification of its tree
    under a mild weight change and a strong one, under which stored leaves
    of three instances fall back to search."""
    for net, prop in instances:
        _, tree = solver.solve(net, prop)
        for p in (Perturbation(0.05, 0.5, 3), Perturbation(0.5, 1.0, 901)):
            verify_incremental(perturb(net, p), prop, tree)


def test_row_residual_invariant(monkeypatch, demo_net, demo_prop):
    instances = _instances(demo_net, demo_prop)
    seen = {"steps": 0, "sat": 0, "lp": 0, "optima": 0, "tighten": 0}

    real_step = solver.repair_step

    def checked_step(cfg):
        out = real_step(cfg)
        seen["steps"] += 1
        assert _max_residual(cfg) <= EPS_ROW
        # repair_step has no clamp of its own: no move may leave a
        # non-basic outside its bounds
        assert _nonbasics_in_bounds(cfg)
        if isinstance(out, Satisfied):
            seen["sat"] += 1
            assert out.witness == tuple(_exact(cfg, i) for i in cfg.input_ids)
        return out

    def checked(fn, key):
        def wrapper(cfg, *args):
            fn(cfg, *args)
            seen[key] += 1
            assert _max_residual(cfg) <= EPS_ROW
        return wrapper

    real_optimize = lp._optimize

    def checked_optimize(relax, vid, maximize):
        out = real_optimize(relax, vid, maximize)
        if out is not None:
            seen["optima"] += 1
            assert out == _exact(relax.cfg, vid)
        return out

    real_tighten = lp.tighten

    def checked_tighten(relax, vids):
        out = real_tighten(relax, vids)
        seen["tighten"] += 1
        assert _max_residual(relax.cfg) <= EPS_ROW
        return out

    monkeypatch.setattr(solver, "repair_step", checked_step)
    monkeypatch.setattr(lp, "pivot", checked(lp.pivot, "lp"))
    monkeypatch.setattr(lp, "update", checked(lp.update, "lp"))
    monkeypatch.setattr(lp, "_optimize", checked_optimize)
    monkeypatch.setattr(lp, "tighten", checked_tighten)
    _search_all(instances)
    # LP tightening of every neuron at each scratch leaf's relaxation
    for net, prop in instances:
        _, tree = solver.solve(net, prop)
        for leaf in tree.leaves():
            asserts = sorted(tree.asserts_of(leaf))
            bounds = analyze(net, prop.box, asserts)
            if bounds.infeasible:
                continue
            relax = lp.build(net, prop, bounds)
            if lp.phase1(relax) == lp.FEASIBLE:
                lp.tighten(relax, net.layout.neuron_ids)
    assert seen["steps"] > 1000 and seen["sat"] >= 3
    assert seen["lp"] > 100 and seen["optima"] > 10 and seen["tighten"] > 10


def test_restricted_row_check_matches_full_scan(monkeypatch, demo_net, demo_prop):
    """The row test scans only basics outside their bounds; every answer
    must be the lowest row that `row_unsat` rejects among all rows."""
    real_check = solver.check_unsat_rows
    compared = [0]

    def both(cfg):
        out = real_check(cfg)
        assert out == next((b for b in sorted(cfg.rows) if row_unsat(cfg, b)), None)
        compared[0] += 1
        return out

    monkeypatch.setattr(solver, "check_unsat_rows", both)
    _search_all(_instances(demo_net, demo_prop))
    assert compared[0] > 1000
