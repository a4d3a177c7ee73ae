"""Acceptance gate: one test per shipped guarantee.

Every test records a single pass/fail line, printed in a terminal section
after the run (pytest captures stdout mid-run), and fails hard on any
tolerance breach. Tolerances and time limits are stated inline.
"""

import contextlib
import time

from click.testing import CliRunner

from _suites import (
    deeppoly_soundness,
    distance_axioms,
    forward_values,
    pivot_preservation,
    relaxation_soundness,
    relu_relations,
    row_checker_vs_corners,
)
from conftest import ACCEPTANCE_LINES, BOX, tableau_solve

from incremark.bench import (
    CSV_HEADER,
    Perturbation,
    compare,
    oracle,
    perturb,
    random_network,
    random_threshold_property,
)
from incremark.cli import main as cli_main
from incremark.deeppoly import analyze
from incremark.incremental import RESOLVED_SAT, verify_incremental
from incremark.model import evaluate, witness_ok
from incremark.simplex import initialize
from incremark.solver import solve


def _line(msg: str) -> None:
    ACCEPTANCE_LINES.append(msg)


@contextlib.contextmanager
def reported(name: str, detail: list | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _line(f"[acceptance] {name}: FAIL")
        raise
    extra = "".join(f", {d}" for d in (detail or []))
    _line(f"[acceptance] {name}: PASS ({time.perf_counter() - t0:.2f}s{extra})")


def test_criterion_1_abstraction_bounds(demo_net, demo_prop, data_dir):
    tol = 5e-3
    with reported("criterion 1, abstraction bounds"):
        t0 = time.perf_counter()
        b = analyze(demo_net, demo_prop.box)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.1
        for vid, (lo, hi) in {
            2: (-1.0, 0.8),
            3: (-1.6, 1.6),
            4: (0.0, 0.8),
            5: (0.0, 1.6),
            6: (0.0, 1.28),
        }.items():
            assert abs(b.lo[vid] - lo) <= tol, f"lo[{vid}]"
            assert abs(b.hi[vid] - hi) <= tol, f"hi[{vid}]"
        relations = relu_relations(demo_net, b)
        _, uc4, uk4 = relations[4]
        assert abs(uc4 - 0.8 / 1.8) <= tol and abs(uk4 - 0.8 / 1.8) <= tol
        _, uc5, uk5 = relations[5]
        assert abs(uc5 - 0.5) <= tol and abs(uk5 - 0.8) <= tol
        # the same numbers through the CLI surface
        res = CliRunner().invoke(cli_main, [
            "bounds", "--net", str(data_dir / "demo.rnn"),
            "--prop", str(data_dir / "demo.prop")])
        assert res.exit_code == 0
        assert "x5 <= 0.4444444444*x3 + 0.4444444444" in res.output
        assert "x6 <= 0.5*x4 + 0.8" in res.output


def test_criterion_2_scratch_verification(demo_net, demo_prop):
    detail = []
    with reported("criterion 2, scratch verification", detail):
        # the default search: the ascent from the box corner (1, -1) decides
        # the demo at the root, before any tableau
        t0 = time.perf_counter()
        verdict, tree = solve(demo_net, demo_prop)
        assert time.perf_counter() - t0 < 1.0
        assert verdict.sat and verdict.witness == (1.0, -1.0)
        assert witness_ok(demo_net, demo_prop, verdict.witness, eps=0.0)
        assert len(tree.nodes) == 1 and tree.root.witness == verdict.witness
        # the worked example: the tableau search, without the ascent
        t0 = time.perf_counter()
        verdict, tree = tableau_solve(demo_net, demo_prop)
        assert time.perf_counter() - t0 < 1.0
        assert verdict.sat
        assert all(l <= x <= h for x, (l, h) in zip(verdict.witness, BOX))
        y = evaluate(demo_net, verdict.witness)[0]
        assert y >= 0.3 - 1e-6
        detail.append(f"witness y={y:.6f}")
        # the hand-checkable point sits exactly on the threshold
        assert witness_ok(demo_net, demo_prop, (0.675, 0.05), eps=0.0)
        assert abs(evaluate(demo_net, (0.675, 0.05))[0] - 0.3) <= 1e-9
        # initial tableau: basic rows over inputs, posts, and affine slacks
        cfg = initialize(demo_net, demo_prop, analyze(demo_net, demo_prop.box))
        assert sorted(cfg.pos) == [2, 3, 6, 7, 8]
        assert dict(cfg.row(2)) == {0: 0.2, 1: -0.7, 9: -1.0}
        assert dict(cfg.row(3)) == {0: 0.8, 1: -0.8, 10: -1.0}
        assert dict(cfg.row(6)) == {4: 0.4, 5: 0.6, 11: -1.0}
        assert dict(cfg.row(7)) == {0: -0.2, 1: 0.7, 4: 1.0, 9: 1.0}
        assert dict(cfg.row(8)) == {0: -0.8, 1: 0.8, 5: 1.0, 10: 1.0}
        assert cfg.lo[6] == 0.3 and cfg.hi[6] == 1.28
        assert len(tree.nodes) == 3


def test_criterion_3_incremental_first_modification(demo_net, fprime, demo_prop):
    detail = []
    with reported("criterion 3, re-verify first modification", detail):
        # the default search's 1-node tree: its corner witness still holds
        _, tree = solve(demo_net, demo_prop)
        verdict, rep, _ = verify_incremental(fprime, demo_prop, tree)
        assert verdict.sat and verdict.witness == tree.root.witness
        assert witness_ok(fprime, demo_prop, verdict.witness, eps=0.0)
        assert rep.outcomes == {0: RESOLVED_SAT}
        # the worked example: the tableau's tree, without the ascent
        _, tree = tableau_solve(demo_net, demo_prop)
        t0 = time.perf_counter()
        verdict, rep, _ = verify_incremental(fprime, demo_prop, tree)
        assert time.perf_counter() - t0 < 1.0
        assert verdict.sat
        vals = forward_values(fprime, verdict.witness)
        assert vals[2] <= 1e-9      # first pre-activation stays nonpositive
        assert vals[3] >= -1e-9     # second stays nonnegative
        y = evaluate(fprime, (0.714, 0.204))[0]
        assert abs(y - 0.3) <= 1e-3
        detail.append(f"desk point y={y:.5f}")


def test_criterion_4_second_modification_three_way(demo_net, fdoubleprime, demo_prop):
    # Historical expectation for this modified network was UNSAT. Direct
    # evaluation at (1, -1) gives y = 0.964 >= 0.3, so the threshold is in
    # fact reachable; the enumeration oracle arbitrates SAT and all three
    # routes must agree on it.
    detail = []
    with reported("criterion 4, second modification three-way agreement", detail):
        assert evaluate(fdoubleprime, (1.0, -1.0))[0] >= 0.3
        o = oracle(fdoubleprime, demo_prop)
        s, _ = solve(fdoubleprime, demo_prop)
        _, base = solve(demo_net, demo_prop)
        i, _, _ = verify_incremental(fdoubleprime, demo_prop, base)
        assert o.sat and s.sat and i.sat
        for v in (o, s, i):
            assert witness_ok(fdoubleprime, demo_prop, v.witness)
        detail.append("oracle=scratch=incremental=sat")


def test_criterion_5_perturbation_grid_agreement():
    combos = [(g, f) for g in (0.001, 0.01, 0.03, 0.05)
              for f in (0.1, 0.3, 0.5, 1.0)]
    detail = []
    with reported("criterion 5, 100-network perturbation grid", detail):
        t0 = time.perf_counter()
        rows = 0
        for seed in range(100):
            shape = (2, 5, 5, 1) if seed % 2 == 0 else (3, 8, 1)
            net = random_network(shape, seed)
            prop = random_threshold_property(net, seed + 1)
            perts = [Perturbation(g, f, seed * 16 + i)
                     for i, (g, f) in enumerate(combos)]
            # compare() raises OracleDisagreement on any three-way mismatch
            rep = compare(net, prop, perts)
            assert rep.all_agree
            rows += len(rep.rows)
        elapsed = time.perf_counter() - t0
        assert rows == 1600
        assert elapsed < 600.0
        detail.append(f"{rows} runs agree")


def test_criterion_6_identity_replay():
    detail = []
    with reported("criterion 6, identity perturbation replays fully", detail):
        instances = []
        seed = 0
        while len(instances) < 20 and seed < 200:
            shape = (2, 5, 5, 1) if seed % 2 == 0 else (3, 8, 1)
            net = random_network(shape, seed)
            prop = random_threshold_property(net, seed + 1)
            verdict, tree = solve(net, prop)
            if not verdict.sat:
                instances.append((net, prop, tree, seed))
            seed += 1
        assert len(instances) == 20
        total_replayed = 0
        for net, prop, tree, s in instances:
            same = perturb(net, Perturbation(0.0, 1.0, s))
            verdict, rep, _ = verify_incremental(same, prop, tree)
            assert not verdict.sat
            assert rep.fallbacks == 0, f"seed {s}"
            assert rep.replay_pct == 100.0, f"seed {s}"
            total_replayed += rep.replayed
        assert total_replayed > 0
        detail.append(f"{total_replayed} leaves replayed across 20 instances")


def test_criterion_7_property_suites(demo_net):
    detail = []
    with reported("criterion 7, randomized property suites", detail):
        counts = {
            "pivot": pivot_preservation(trials=1000),
            "row-checker": row_checker_vs_corners(trials=1000),
            "abstraction": deeppoly_soundness(demo_net, BOX, n_random=50,
                                              samples=200),
            "relaxation": relaxation_soundness(points=1000),
            "distance": distance_axioms(),
        }
        assert all(v == 0 for v in counts.values()), counts
        detail.append("0 violations in all five suites")


def test_criterion_8_benchmark_csv():
    # The ms_scratch / ms_inc columns are measured on this machine at run
    # time. No fixed timing expectation is asserted here: the emitted CSV is
    # the benchmark's authority and replaces any previously quoted headline
    # numbers.
    gammas = (0.001, 0.01, 0.03, 0.05)
    fractions = (0.1, 0.3, 0.5)
    detail = []
    with reported("criterion 8, benchmark CSV and replay summary", detail):
        # seed 18 gives a nontrivial unsat base tree, so replay is exercised
        net = random_network((2, 5, 5, 1), 18)
        prop = random_threshold_property(net, 19)
        perts = [Perturbation(g, fractions[t % 3], 31 * t + i)
                 for i, g in enumerate(gammas) for t in range(6)]
        rep = compare(net, prop, perts)
        assert rep.all_agree
        lines = rep.csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(perts)
        assert all(line.endswith(",true") for line in lines[1:])
        summary = rep.summary_lines()
        assert len(summary) == len(gammas)
        for g, line in zip(gammas, summary):
            assert line.startswith(f"gamma={g:g} mean_replay_pct=")
            _line(f"[bench] {line}")
        detail.append(f"{len(perts)} rows, all agree")
