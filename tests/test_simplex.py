import ast
import math
import pathlib
import warnings

import numpy as np
import pytest

import _suites
from incremark import lp, solver
from incremark.bench import Perturbation, perturb, random_network, random_threshold_property
from incremark.constants import COEF_EPS, apart
from incremark.deeppoly import NONNEG, NONPOS, Assertion, analyze, is_property_refuted
from incremark.incremental import verify_incremental
from incremark.model import LinearConstraint, Network, SafetyProperty, evaluate
from incremark.simplex import (
    INF,
    PROGRESS,
    PivotError,
    Progress,
    Satisfied,
    Stuck,
    bound_step,
    check_unsat_rows,
    dump,
    encoded_equations,
    entering_for,
    initialize,
    linear_interval,
    out_of_bounds,
    pivot,
    recompute,
    refresh_bounds,
    repair_step,
    set_variable,
    update,
    violated_relu_pair,
)

from conftest import BOX


def demo_cfg(demo_net, demo_prop):
    return initialize(demo_net, demo_prop, analyze(demo_net, BOX))


def small_cfg(rows, lo, hi, alpha):
    cfg = _suites.configuration(rows, lo, hi, alpha)
    recompute(cfg)
    return cfg


def test_initialize_demo_tableau(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    assert sorted(cfg.pos) == [2, 3, 6, 7, 8]
    assert dict(cfg.row(2)) == {0: 0.2, 1: -0.7, 9: -1.0}
    assert dict(cfg.row(3)) == {0: 0.8, 1: -0.8, 10: -1.0}
    assert dict(cfg.row(6)) == {4: 0.4, 5: 0.6, 11: -1.0}
    assert dict(cfg.row(7)) == {0: -0.2, 1: 0.7, 4: 1.0, 9: 1.0}
    assert dict(cfg.row(8)) == {0: -0.8, 1: 0.8, 5: 1.0, 10: 1.0}
    assert "prop" not in {kind for kind, _ in cfg.equations.values()}


def test_initialize_demo_slack_intervals(demo_net, demo_prop):
    b = analyze(demo_net, BOX)
    assert len(b.lo) == len(b.hi) == len(demo_net.layout.neuron_ids)  # neurons only
    cfg = initialize(demo_net, demo_prop, b)
    # relu inequality slacks: post - pre in [max(0,-u), max(0,-l)]
    assert (cfg.lo[7], cfg.hi[7]) == (0.0, 0.9999999999999999)
    assert (cfg.lo[8], cfg.hi[8]) == (0.0, 1.6)
    # affine slacks pin the equation constants to -bias
    assert (cfg.lo[9], cfg.hi[9]) == (0.1, 0.1)
    assert (cfg.lo[10], cfg.hi[10]) == (-0.0, -0.0)
    assert (cfg.lo[11], cfg.hi[11]) == (-0.0, -0.0)
    assert len(cfg.lo) == len(cfg.hi) == 12
    # refresh_bounds derives them the same way from new neuron intervals
    cfg = refresh_bounds(cfg, demo_net, demo_prop,
                         analyze(demo_net, BOX, [Assertion(3, NONNEG)]))
    assert (cfg.lo[8], cfg.hi[8]) == (0.0, 0.0)


def _random_multi_output_instance(rng, k):
    """Net k of a seeded family: 1-4 outputs, a ReLU output layer on every
    third, a weight of 5e-13 on every second, and up to three constraints
    with random zero coefficients, each threshold drawn from the outputs'
    sampled range."""
    dims = (int(rng.integers(2, 4)), int(rng.integers(3, 7)), int(rng.integers(3, 6)),
            int(rng.integers(1, 5)))
    net = random_network(dims, k)
    weights = net.weights
    if k % 2:  # a weight within COEF_EPS of zero, which no row keeps
        li = int(rng.integers(len(weights)))
        weights[li][tuple(rng.integers(weights[li].shape))] = 5e-13
    net = Network(weights, net.biases, ["relu"] * len(weights) if k % 3 == 0 else None)
    box = tuple(sorted(rng.uniform(-1.0, 1.0, 2).tolist()) for _ in range(dims[0]))
    ys = np.array([evaluate(net, [rng.uniform(l, h) for l, h in box]) for _ in range(16)])
    constraints = []
    for _ in range(int(rng.integers(1, 4))):
        a = rng.uniform(-1.0, 1.0, dims[-1]) * (rng.random(dims[-1]) < 0.8)
        if not a.any():
            a[0] = 1.0
        t = float(rng.uniform((ys @ a).min(), (ys @ a).max()))
        constraints.append(LinearConstraint(tuple(a.tolist()), t))
    return net, SafetyProperty(box, tuple(constraints))


def test_encoding_equals_the_dict_of_rows_reference(monkeypatch):
    """`initialize` and `lp.build` (before its phase 1) write the tableau,
    bounds and assignment of the dict-of-rows encoding
    (`_suites.reference_encode`) bit for bit, with its summation order over
    three or more substituted outputs, on networks with linear and ReLU
    output layers and with chord rows."""
    encoded = _suites.encodings(monkeypatch)
    rng = np.random.default_rng(2024)
    seen = {"prop3": 0, "relu_out": 0, "chord": 0}
    for k in range(150):
        net, prop = _random_multi_output_instance(rng, k)
        if prop.negation_empty:
            continue
        pres = [pre for pre, _ in net.layout.relu_pairs]
        asserts = [Assertion(int(v), (NONNEG, NONPOS)[k % 2])
                   for v in rng.choice(pres, k % 3, replace=False)]
        bounds = analyze(net, prop.box, sorted(asserts))
        if bounds.infeasible:
            continue
        relax = lp.build(net, prop, bounds)
        for got in (initialize(net, prop, bounds), encoded[-1]):
            want = _suites.reference_encode(net, prop, bounds, got.equations)
            assert got.basic == want.basic, k
            assert got.T.shape == want.T.shape and got.T.tobytes() == want.T.tobytes(), k
            for name in ("lo", "hi", "alpha"):
                assert ([x.hex() for x in getattr(got, name)]
                        == [x.hex() for x in getattr(want, name)]), (k, name)
        seen["prop3"] += any(kind == "prop" and sum(map(bool, prop.constraints[i].coeffs)) >= 3
                             for kind, i in relax.cfg.equations.values())
        seen["relu_out"] += net.activations[-1] == "relu"
        seen["chord"] += any(kind == "chord" for kind, _ in relax.cfg.equations.values())
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("dims", [(2, 5, 5, 1), (3, 8, 8, 1)])
def test_refresh_bounds_equals_a_new_encoding(dims):
    """The configuration that `refresh_bounds` builds for a branch's bounds
    carries the intervals of one encoded over them, bit for bit: the neuron
    intervals and every slack's."""
    rng = np.random.default_rng(sum(dims))
    cases = seed = 0
    while cases < 100:
        seed += 1
        net = random_network(dims, seed)
        prop = random_threshold_property(net, seed + 1)
        cfg = initialize(net, prop, analyze(net, prop.box))
        pres = [pre for pre, _ in net.layout.relu_pairs]
        for _ in range(10):
            chosen = rng.choice(pres, size=int(rng.integers(1, 4)), replace=False)
            asserts = sorted(Assertion(int(v), (NONNEG, NONPOS)[int(rng.integers(2))])
                             for v in chosen)
            b2 = analyze(net, prop.box, asserts)
            if is_property_refuted(b2, prop):
                continue  # the search encodes no refuted branch
            got = refresh_bounds(cfg, net, prop, b2)
            want = initialize(net, prop, b2)
            for ends in ("lo", "hi"):
                assert ([x.hex() for x in getattr(got, ends)]
                        == [x.hex() for x in getattr(want, ends)]), (seed, asserts, ends)
            cases += 1


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


def test_encoded_equations_number_the_slacks_after_the_neurons(demo_net, demo_prop):
    """Slack ids: the ReLU couplings' from the first id after the neurons,
    in `relu_pairs` order, then the affine equations', then those of the
    constraints over two or more outputs, in constraint order; the rows are
    installed affine first. The branch LP's chords come after them all."""
    eqs = encoded_equations(demo_net, demo_prop)
    assert eqs == {9: ("aff", 2), 10: ("aff", 3), 11: ("aff", 6),
                   7: ("relu", 2), 8: ("relu", 3)}
    assert list(eqs) == [9, 10, 11, 7, 8]
    relax = lp.build(demo_net, demo_prop, analyze(demo_net, BOX))
    assert {sid: key for sid, key in relax.cfg.equations.items() if sid >= 12} == {
        12: ("chord", 2), 13: ("chord", 3)}
    # a single-output constraint has no slack; the others follow the affine ones
    net = Network([np.ones((2, 2)), np.ones((2, 2))], [np.zeros(2), np.zeros(2)])
    prop = SafetyProperty(BOX, tuple(LinearConstraint(a, 0.0)
                                     for a in ((1.0, -1.0), (0.0, 1.0), (2.0, 1.0))))
    eqs = encoded_equations(net, prop)
    assert [(sid, key) for sid, key in eqs.items() if key[0] == "prop"] == [
        (14, ("prop", 0)), (15, ("prop", 2))]
    # (3, 8, 1): 20 neurons, 8 ReLU couplings, 9 affine equations
    net = Network([np.zeros((8, 3)), np.zeros((1, 8))], [np.zeros(8), np.zeros(1)])
    prop = SafetyProperty(((0.0, 1.0),) * 3, (LinearConstraint((1.0,), 0.0),))
    eqs = encoded_equations(net, prop)
    assert sorted(eqs) == list(range(20, 20 + 8 + 9))
    assert [eqs[sid] for sid in range(20, 28)] == [("relu", p) for p in range(3, 11)]


def test_initialize_multi_output_property_slack():
    net = Network([[[1.0, 0.0], [0.0, 1.0]]], [[0.0, 0.0]])
    box = ((0.0, 1.0), (0.0, 1.0))
    prop = SafetyProperty(box, (LinearConstraint((1.0, -1.0), 0.25),))
    cfg = initialize(net, prop, analyze(net, box))
    sid = 6  # after 4 neurons and 2 affine slacks
    assert cfg.equations[sid] == ("prop", 0)
    # outputs are themselves basic, so the slack row is pre-substituted down
    # to inputs and affine slacks
    assert dict(cfg.row(sid)) == {0: 1.0, 1: -1.0, 4: -1.0, 5: 1.0}
    assert cfg.lo[sid] == 0.25
    assert cfg.hi[sid] == 1.0  # interval ub of y1 - y2


def test_pivot_demo_sequence(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    pivot(cfg, 7, 4, cfg.alpha[7])
    assert sorted(cfg.pos) == [2, 3, 4, 6, 8]
    assert dict(cfg.row(4)) == {0: 0.2, 1: -0.7, 7: 1.0, 9: -1.0}
    # the substitution reaches every row that mentioned the entering variable
    assert dict(cfg.row(6)) == {
        0: 0.08000000000000002, 1: -0.27999999999999997, 5: 0.6,
        7: 0.4, 9: -0.4, 11: -1.0,
    }
    pivot(cfg, 6, 5, cfg.alpha[6])
    assert sorted(cfg.pos) == [2, 3, 4, 5, 8]
    assert dict(cfg.row(5)) == {
        0: -0.13333333333333336, 1: 0.4666666666666666, 6: 1.6666666666666667,
        7: -0.6666666666666667, 9: 0.6666666666666667, 11: 1.6666666666666667,
    }


def test_pivot_and_update_moves_leaving_to_value(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    pivot(cfg, 7, 4, 0.25)
    assert cfg.alpha[7] == 0.25
    # the column update keeps every row solved without a re-solve
    for b in cfg.basic:
        assert cfg.alpha[b] == pytest.approx(cfg.row_value(b), abs=1e-12)


def test_update_shifts_only_rows_that_mention_the_variable(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    before = list(cfg.alpha)
    update(cfg, 4, 0.5)                        # x5 appears in rows 6 and 7
    assert cfg.alpha[4] == 0.5
    assert cfg.alpha[6] == pytest.approx(before[6] + 0.4 * (0.5 - before[4]))
    assert cfg.alpha[7] == pytest.approx(before[7] + 1.0 * (0.5 - before[4]))
    assert all(cfg.alpha[b] == before[b] for b in (2, 3, 8))


def test_pivot_zero_coefficient_raises(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    with pytest.raises(PivotError):
        pivot(cfg, 2, 4, cfg.alpha[2])  # x5 does not appear in the x3 row


def test_row_interval_sign_split():
    cfg = small_cfg(
        {0: {1: 2.0, 2: -1.0}},
        [-10.0, -1.0, 0.5],
        [10.0, 3.0, 2.0],
        {1: 0.0, 2: 1.0},
    )
    assert linear_interval(cfg.row(0), cfg.lo, cfg.hi) == (2.0 * -1.0 - 2.0,
                                                                   2.0 * 3.0 - 0.5)


def test_row_sums_are_sequential():
    """A row's terms are added one by one in id order, whatever the Python
    version: 1e16 + 1.0 rounds back to 1e16, so the row sums to 0.0, where a
    compensated sum (builtin `sum` on CPython 3.12+) gives 1.0."""
    cfg = small_cfg(
        {3: {0: 1e16, 1: 1.0, 2: -1e16}},
        [0.0, 0.0, 0.0, -math.inf],
        [1.0, 1.0, 1.0, math.inf],
        {0: 1.0, 1: 1.0, 2: 1.0},
    )
    assert cfg.alpha[3] == 0.0
    assert cfg.row_value(3) == 0.0


def test_apart_margins():
    def row_apart(blo, bhi):
        # the row x0 = x1, x1 in [0, 1], against x0's bounds
        cfg = small_cfg({0: {1: 1.0}}, [blo, 0.0], [bhi, 1.0], {1: 0.0})
        return apart(blo, bhi, *linear_interval(cfg.row(0), cfg.lo, cfg.hi))

    assert row_apart(1.1, 2.0)          # lo(b) above rhs range
    assert row_apart(-2.0, -0.1)        # hi(b) below rhs range
    assert not row_apart(0.5, 2.0)
    # violations inside the eps margin do not count
    assert not row_apart(1.0 + 5e-8, 2.0)
    assert row_apart(1.0 + 5e-7, 2.0)
    # one-sided forms with infinite ends: a nonneg assertion against [0, inf]
    # and a nonpos one against [-inf, 0] (prune, the oracle), and a clash of
    # y >= lo with y <= hi (negation_empty)
    assert apart(-2.0, -5e-7, 0.0, INF)
    assert not apart(-2.0, -5e-8, 0.0, INF)
    assert apart(5e-7, 2.0, -INF, 0.0)
    assert not apart(5e-8, 2.0, -INF, 0.0)
    assert not apart(-INF, INF, 0.0, INF) and not apart(-INF, INF, -INF, 0.0)
    assert apart(0.6, INF, -INF, 0.5)
    assert not apart(0.5 + 5e-8, INF, -INF, 0.5)


def test_linear_interval_zero_terms_and_order():
    lo, hi = [-INF, 1.0, 1.0, 1.0, 0.0], [INF, 1.0, 1.0, 1.0, 2.0]
    # a zero coefficient adds nothing, even against an infinite bound
    assert linear_interval([(0, 0.0), (4, -3.0)], lo, hi) == (-6.0, 0.0)
    assert linear_interval([(0, 2.0), (4, 1.0)], lo, hi) == (-INF, INF)
    # terms are added one by one in the order given: 1e16 + 1.0 rounds back
    # to 1e16, so the same terms sum to 0.0 or 1.0 by their order
    big = [(1, 1e16), (2, 1.0), (3, -1e16)]
    assert linear_interval(big, lo, hi) == (0.0, 0.0)
    assert linear_interval([big[0], big[2], big[1]], lo, hi) == (1.0, 1.0)


def test_row_test_on_non_finite_coefficients_warns_nothing():
    """The row test runs without a warning on rows that hold a NaN or an
    infinite coefficient, which meets each kind of bound (inf * 0 and
    inf - inf give NaN): a NaN coefficient makes both ends NaN, and no row
    is `apart` from the free bounds of its basic."""
    lo = [-INF, -1.0, 0.0, 2.0, 1.0]
    hi = [INF, 0.0, 1.0, 3.0, 2.0]
    rows = {}
    for c in (math.nan, INF, -INF):
        for k in range(4):
            rows[len(lo)] = {k: c, 4: -2.0}
            lo.append(-INF)
            hi.append(INF)
    cfg = _suites.configuration(rows, lo, hi, {})
    basics = list(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_unsat_rows(cfg, basics) is None
        ends = [linear_interval(cfg.row(b), cfg.lo, cfg.hi) for b in basics]
    assert all(math.isnan(x) for end in ends[:4] for x in end)


def test_constraint_terms_have_one_home():
    """The tableau reads a property constraint only through
    `LinearConstraint.terms`, the one rule for the outputs it names: no
    line of `simplex` reads a coefficient tuple."""
    path = pathlib.Path(__file__).resolve().parent.parent / "src" / "incremark" / "simplex.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and n.attr == "coeffs"] == []


def test_bounds_are_written_only_by_the_constructor():
    """No line of `simplex`, `lp` or `solver` outside
    `Configuration.__init__` assigns a configuration's `lo` or `hi`, or an
    entry of one: a configuration over other bounds is a new one
    (`refresh_bounds`)."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "incremark"
    found = []

    def written(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(map(written, target.elts))
        if isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Attribute) and target.attr in ("lo", "hi")

    def visit(node, module, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        if any(map(written, targets)) and where != "Configuration.__init__":
            found.append((module, where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module in ("simplex.py", "lp.py", "solver.py"):
        visit(ast.parse((src / module).read_text(encoding="utf-8")), module, "")
    assert found == []


def test_refutation_margin_has_one_home():
    """EPS_BOUND enters a comparison only in `constants.apart` and in the
    point scans that choose a repair move, so that every refutation has one
    margin to change."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "incremark"
    found = set()

    def visit(node, module, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare) and any(
                getattr(n, "id", getattr(n, "attr", None)) == "EPS_BOUND"
                for n in ast.walk(node)):
            found.add((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert ("constants", "apart") in found
    assert found <= {("constants", "apart"), ("simplex", "out_of_bounds"),
                     ("simplex", "resolve_violation"), ("simplex", "bound_step")}


def test_row_recheck_has_two_callers():
    """`lp.refuting_certificate` is called only where a row can close a
    branch: `solver.search` for tableau rows and `lp.build` for LP rows.
    Every other reader of the branch LP takes `Relaxation.cert`."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "incremark"
    found = set()

    def visit(node, module, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "refuting_certificate":
            found.add((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert found == {("solver", "search"), ("lp", "build")}


def test_step_cap_has_one_home():
    """Only `simplex` reads LP_ITER_FACTOR: each configuration computes its
    step cap once, and the search and both LP phases read it there."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "incremark"
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.alias) and node.name == "LP_ITER_FACTOR"
                    or isinstance(node, ast.Attribute) and node.attr == "LP_ITER_FACTOR"
                    or isinstance(node, ast.Name) and node.id == "LP_ITER_FACTOR"
                    and isinstance(node.ctx, ast.Load)):
                found.add(path.stem)
    assert found == {"simplex"}


def test_relu_chord_has_one_home():
    """The slope u / (u - l) of a ReLU chord is written out once, in
    `simplex.relaxation`; the chord equation and DeepPoly's relations and
    back-substitution all read it there: no other function in the package
    divides by a difference."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "incremark"
    found = set()

    def visit(node, module, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Sub)):
            found.add((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert found == {("simplex", "relaxation")}


def test_check_unsat_rows_picks_lowest_basic():
    # variables are numbered densely: x0 is free and in no row
    cfg = small_cfg(
        {3: {1: 1.0}, 2: {1: 1.0}},
        [0.0, 0.0, 5.0, 5.0],
        [1.0, 1.0, 6.0, 6.0],
        {0: 0.0, 1: 0.0},
    )
    assert check_unsat_rows(cfg, out_of_bounds(cfg)) == 2
    ok = small_cfg({2: {1: 1.0}}, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                   {0: 0.0, 1: 0.0})
    assert check_unsat_rows(ok, out_of_bounds(ok)) is None


def test_row_test_ignores_an_unmentioned_infinite_bound():
    """A row that does not mention a variable with an infinite bound (a
    chord slack's is [-inf, -k.l]) gets the same interval and the same row
    test answer as the row without that variable, and no NaN warning."""

    def mk(extra):
        lo, hi, alpha = [-1.0, 0.5, 3.0], [2.0, 1.0, 4.0], {0: -1.0, 1: 0.5}
        if extra:
            lo.append(-math.inf)
            hi.append(-0.5)
            alpha[3] = -1.0
        return small_cfg({2: {0: 1.0, 1: -2.0}}, lo, hi, alpha)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [(linear_interval(c.row(2), c.lo, c.hi),
                check_unsat_rows(c, out_of_bounds(c)))
               for c in (mk(False), mk(True))]
    assert got[0] == got[1] == ((-1.0 - 2.0, 2.0 - 1.0), 2)


def test_out_of_bounds_direction_and_order():
    def mk():
        return small_cfg(
            {2: {0: 1.0}, 3: {1: 1.0}},
            [0.0, -1.0, 0.5, -1.0],
            [1.0, 1.0, 2.0, -0.5],
            {0: 0.0, 1: 0.0},
        )

    cfg = mk()
    # both rows violate, listed by basic id
    assert out_of_bounds(cfg) == [2, 3]
    cfg.lo[2], cfg.hi[2] = -1.0, 1.0
    assert out_of_bounds(cfg) == [3]
    cfg.lo[3], cfg.hi[3] = -1.0, 1.0
    assert out_of_bounds(cfg) == []
    # the bound step repairs the lowest id first, the way it needs: alpha
    # 0 < lo 0.5 sends x3 up to its lower bound, then alpha 0 > hi -0.5
    # sends x4 down to its upper bound
    cfg = mk()
    assert bound_step(cfg, out_of_bounds(cfg)) is PROGRESS
    assert 2 not in cfg.pos and cfg.alpha[2] == 0.5
    assert out_of_bounds(cfg) == [3]
    assert bound_step(cfg, out_of_bounds(cfg)) is PROGRESS
    assert 3 not in cfg.pos and cfg.alpha[3] == -0.5
    assert out_of_bounds(cfg) == []
    assert bound_step(cfg, []) is None


def test_entering_for_bland_and_saturation():
    cfg = small_cfg(
        {3: {0: 1.0, 1: -1.0, 2: 1.0}},
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
        {0: 0.0, 1: 1.0, 2: 0.0},
    )
    row = cfg.T[cfg.pos[3]]
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
        [0.0, 0.0, 0.5],
        [1.0, 1.0, 2.0],
        {0: 0.0, 1: 0.0},
    )
    out = repair_step(cfg, out_of_bounds(cfg))
    assert isinstance(out, Progress)
    assert cfg.alpha[2] == 0.5
    assert sorted(cfg.pos) == [0]              # x1 entered the basis
    assert cfg.alpha[0] == 0.5
    assert out_of_bounds(cfg) == []


def test_repair_step_stuck_reports_row():
    cfg = small_cfg(
        {2: {0: 1.0, 1: 1.0}},
        [0.0, 0.0, 3.0],
        [1.0, 1.0, 4.0],
        {0: 1.0, 1: 1.0},
    )
    out = repair_step(cfg, out_of_bounds(cfg))
    assert isinstance(out, Stuck)
    assert out.stuck_row == 2                  # certificate row at these bounds


def test_repair_step_cycles_and_scores_violations(demo_net, demo_prop):
    # the root instance makes the bare local search ping-pong between the two
    # relu pairs; the violation counters are what the solver splits on
    cfg = demo_cfg(demo_net, demo_prop)
    for _ in range(40):
        assert isinstance(repair_step(cfg, out_of_bounds(cfg)), Progress)
    assert cfg.violations == {2: 20, 3: 19}
    assert cfg.max_violations == 20


def test_repair_step_satisfied_on_branch(demo_net, demo_prop):
    # under x3 <= 0 the same loop terminates with a witness in a few moves
    b = analyze(demo_net, BOX, [Assertion(2, NONPOS)])
    cfg = initialize(demo_net, demo_prop, b)
    for i in range(50):
        out = repair_step(cfg, out_of_bounds(cfg))
        if isinstance(out, Satisfied):
            break
    assert isinstance(out, Satisfied)
    assert i == 3
    assert out.witness == (0.6749999999999999, 0.050000000000000044)
    assert violated_relu_pair(cfg) is None
    assert out_of_bounds(cfg) == []


def test_violated_relu_pairs_tolerance():
    cfg = _suites.configuration({}, [-1.0, 0.0], [1.0, 1.0], {0: 0.5, 1: 0.5}, [(0, 1)], [0])
    assert violated_relu_pair(cfg) is None
    cfg.alpha[1] = 0.5 + 2e-9
    assert violated_relu_pair(cfg) == (0, 1)
    cfg.alpha[1] = 0.5 + 2e-10                 # below the relu tolerance
    assert violated_relu_pair(cfg) is None


def test_set_variable_cases():
    cfg = small_cfg(
        {2: {0: 1.0, 1: 1.0}},
        [0.0, 0.0, -10.0],
        [1.0, 1.0, 10.0],
        {0: 0.2, 1: 0.2},
    )
    assert not set_variable(cfg, 0, 5.0)       # outside bounds
    assert set_variable(cfg, 0, 0.9)           # non-basic, direct
    assert cfg.alpha[0] == 0.9
    assert cfg.alpha[2] == pytest.approx(1.1)
    assert set_variable(cfg, 2, 0.5)           # basic: pivots out first
    assert 2 not in cfg.pos
    assert cfg.alpha[2] == 0.5


def test_set_variable_basic_refusals():
    cfg = small_cfg(
        {2: {0: 1.0, 1: 1.0}},
        [0.0, 0.0, -10.0],
        [1.0, 1.0, 10.0],
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
    for _ in range(5):
        cfg.count_repair(2)
    assert (cfg.violations[2], cfg.max_violations) == (5, 5)
    b = analyze(demo_net, ((0.5, 1.0), (-1.0, 1.0)))
    cfg = refresh_bounds(cfg, demo_net, demo_prop, b)
    assert cfg.lo[0] == 0.5
    assert cfg.alpha[0] == 0.5                 # clamped back inside
    assert cfg.lo[6] == 0.3                    # property re-applied
    assert cfg.violations == {2: 0, 3: 0}
    assert cfg.max_violations == 0


def test_dump_mentions_rows(demo_net, demo_prop):
    cfg = demo_cfg(demo_net, demo_prop)
    text = dump(cfg, "demo")
    assert "[demo]" in text
    assert "x3" in text and "x7" in text


def test_pivot_preserves_solutions():
    assert _suites.pivot_preservation(1000) == 0


def test_row_checker_matches_corner_oracle():
    assert _suites.row_checker_vs_corners(1000) == 0


def _pivot_reference(rows, leaving, entering):
    """The pivot's substitution as a loop over {id: coefficient} rows."""
    row = rows.pop(leaving)
    a = row[entering]
    new = {leaving: 1.0 / a}
    for k, c in row.items():
        if k != entering and abs(-c / a) > COEF_EPS:
            new[k] = -c / a
    for r in rows.values():
        c = r.pop(entering, 0.0)
        if c == 0.0:
            continue
        for k, v in new.items():
            w = r.get(k, 0.0) + c * v
            if abs(w) > COEF_EPS:
                r[k] = w
            else:
                r.pop(k, None)
    rows[entering] = new


def test_array_rows_match_the_loop_reference():
    """The rank-1 pivot gives exactly the rows of the loop substitution."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        cfg = _suites.random_configuration(rng)
        rows = {b: dict(cfg.row(b)) for b in cfg.basic}
        for _ in range(3):
            b = sorted(rows)[int(rng.integers(len(rows)))]
            e = sorted(rows[b])[int(rng.integers(len(rows[b])))]
            pivot(cfg, b, e, cfg.alpha[b])
            _pivot_reference(rows, b, e)
            assert {b: dict(cfg.row(b)) for b in cfg.basic} == rows


# -- incremental assignment invariants over seeded searches ------------------

def _instances(demo_net, demo_prop):
    out = [(demo_net, demo_prop)]
    for shape, seed in (((2, 5, 5, 1), 2), ((2, 5, 5, 1), 11), ((2, 5, 5, 1), 18),
                        ((3, 8, 8, 1), 2)):
        net = random_network(shape, seed)
        out.append((net, random_threshold_property(net, seed + 1)))
    return out


def _exact(cfg, vid):
    return cfg.row_value(vid) if vid in cfg.pos else cfg.alpha[vid]


# tolerance of the test on |alpha(basic) - row(alpha)|
ROW_RESIDUAL = 1e-7


def _max_residual(cfg):
    return max((abs(cfg.alpha[b] - cfg.row_value(b)) for b in cfg.basic), default=0.0)


def _nonbasics_in_bounds(cfg):
    return all(cfg.lo[v] <= a <= cfg.hi[v] for v, a in enumerate(cfg.alpha) if v not in cfg.pos)


def _search_all(instances):
    """Scratch search of every instance, then re-verification of its tree
    under a mild weight change and a strong one, under which stored leaves
    of three instances fall back to search."""
    for net, prop in instances:
        _, tree = solver.solve(net, prop)
        for p in (Perturbation(0.05, 0.5, 3), Perturbation(0.5, 1.0, 901)):
            verify_incremental(perturb(net, p), prop, tree)


def test_row_residual_invariant(monkeypatch, demo_net, demo_prop, no_attack):
    # without the ascent, which decides most of these instances before a
    # tableau is built, so that the searches take over 1,000 repair steps
    instances = _instances(demo_net, demo_prop)
    seen = {"steps": 0, "sat": 0, "lp": 0, "optima": 0, "tighten": 0}

    real_step = solver.repair_step

    def checked_step(cfg, *args):
        out = real_step(cfg, *args)
        seen["steps"] += 1
        assert _max_residual(cfg) <= ROW_RESIDUAL
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
            assert _max_residual(cfg) <= ROW_RESIDUAL
        return wrapper

    real_optimize = lp._optimize

    def checked_optimize(relax, vid, maximize):
        out = real_optimize(relax, vid, maximize)
        if out is not None:
            seen["optima"] += 1
            assert out == _exact(relax.cfg, vid)
        return out

    real_tighten = lp.tighten_inputs_then_repropagate

    def checked_tighten(net, asserts, relax):
        out = real_tighten(net, asserts, relax)
        seen["tighten"] += 1
        assert _max_residual(relax.cfg) <= ROW_RESIDUAL
        return out

    monkeypatch.setattr(solver, "repair_step", checked_step)
    monkeypatch.setattr(lp, "pivot", checked(lp.pivot, "lp"))
    monkeypatch.setattr(lp, "update", checked(lp.update, "lp"))
    monkeypatch.setattr(lp, "_optimize", checked_optimize)
    monkeypatch.setattr(lp, "tighten_inputs_then_repropagate", checked_tighten)
    _search_all(instances)
    # both LP optima of every neuron at each scratch leaf's relaxation
    for net, prop in instances:
        _, tree = solver.solve(net, prop)
        for leaf in tree.leaves():
            asserts = sorted(tree.asserts_of(leaf))
            bounds = analyze(net, prop.box, asserts)
            if bounds.infeasible:
                continue
            relax = lp.build(net, prop, bounds)
            if relax.status == lp.FEASIBLE:
                for v in net.layout.neuron_ids:
                    lp._optimize(relax, v, maximize=False)
                    lp._optimize(relax, v, maximize=True)
                seen["tighten"] += 1
                assert _max_residual(relax.cfg) <= ROW_RESIDUAL
    assert seen["steps"] > 1000 and seen["sat"] >= 3
    assert seen["lp"] > 100 and seen["optima"] > 10 and seen["tighten"] > 10


def test_restricted_row_check_matches_full_scan(monkeypatch, demo_net, demo_prop, no_attack):
    """The first row test of a configuration, a node's new tableau, answers
    the lowest row `apart` from its bounds among all rows; each later one
    tests only the row of the lowest basic outside its bounds, the one that
    the bound step repairs next, and answers it or None. The ascent, which
    decides most of the instances before a tableau is built, is off."""
    real_check = solver.check_unsat_rows
    seen = set()
    compared = {"first": 0, "later": 0}

    def refuted(cfg, b):
        return apart(cfg.lo[b], cfg.hi[b], *linear_interval(cfg.row(b), cfg.lo, cfg.hi))

    def both(cfg, rows):
        got = real_check(cfg, rows)
        if cfg not in seen:
            seen.add(cfg)
            assert got == next((b for b in sorted(cfg.basic) if refuted(cfg, b)), None)
            compared["first"] += 1
        else:
            assert rows == out_of_bounds(cfg)[:1]
            assert got == next((b for b in rows if refuted(cfg, b)), None)
            compared["later"] += 1
        return got

    monkeypatch.setattr(solver, "check_unsat_rows", both)
    _search_all(_instances(demo_net, demo_prop))
    assert compared["first"] > 10 and compared["later"] > 1000


def test_refresh_bounds_leaves_the_parent_unchanged(monkeypatch, demo_net, demo_prop,
                                                    no_attack):
    """`refresh_bounds` builds a split child a configuration of its own,
    leaving its parent's tableau, bounds and assignment as they were (both
    children of a split start from the parent). The ascent is off, as in
    the row test above."""
    real_refresh = solver.refresh_bounds
    refreshes = [0]

    def state(cfg):
        return cfg.T.tolist(), list(cfg.basic), list(cfg.alpha), list(cfg.lo), list(cfg.hi)

    def refresh(cfg, *args):
        before = state(cfg)
        child = real_refresh(cfg, *args)
        assert child is not cfg
        assert state(cfg) == before
        refreshes[0] += 1
        return child

    monkeypatch.setattr(solver, "refresh_bounds", refresh)
    _search_all(_instances(demo_net, demo_prop))
    assert refreshes[0] > 10
