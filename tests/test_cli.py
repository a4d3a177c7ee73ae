import json
import logging
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

import incremark
from incremark import bench as bench_mod
from incremark import cli, prooftree
from incremark.bench import (
    CSV_HEADER,
    Perturbation,
    oracle,
    perturb,
    random_network,
    random_threshold_property,
)
from incremark.cli import EXIT_ERROR, EXIT_MISMATCH, EXIT_SAT, EXIT_UNSAT, main
from incremark.model import (
    Network,
    load_network,
    load_property,
    property_hash,
    save_network,
    save_property,
)
from incremark.solver import solve

from conftest import DATA, tableau_solve
from test_solver import _scaled_instance

DEMO = str(DATA / "demo.rnn")
FPRIME = str(DATA / "fprime.rnn")
FDOUBLE = str(DATA / "fdoubleprime.rnn")
PROP = str(DATA / "demo.prop")
UNSAT_PROP = str(DATA / "unsat.prop")


@pytest.fixture
def runner():
    return CliRunner()


def test_verify_sat(runner):
    res = runner.invoke(main, ["verify", "--net", DEMO, "--prop", PROP])
    assert res.exit_code == EXIT_SAT
    line = res.output.strip().split("\n")[-1]
    assert line.startswith("SAT ")
    x = [float(t) for t in line.split()[1:]]
    assert len(x) == 2


def test_verify_unsat(runner):
    res = runner.invoke(main, ["verify", "--net", DEMO, "--prop", UNSAT_PROP])
    assert res.exit_code == EXIT_UNSAT
    assert res.output.strip() == "UNSAT"


def test_verify_missing_file(runner):
    res = runner.invoke(main, ["verify", "--net", str(DATA / "nope.rnn"),
                               "--prop", PROP])
    assert res.exit_code == EXIT_ERROR
    assert "error reading network" in res.stderr


def test_verify_corrupt_property(runner, tmp_path):
    bad = tmp_path / "bad.prop"
    bad.write_text("box\nnonsense here\n")
    res = runner.invoke(main, ["verify", "--net", DEMO, "--prop", str(bad)])
    assert res.exit_code == EXIT_ERROR
    assert "error reading property" in res.stderr


def test_verify_writes_tree(runner, tmp_path):
    out = tmp_path / "tree.json"
    res = runner.invoke(main, ["verify", "--net", DEMO, "--prop", PROP,
                               "--tree-out", str(out)])
    assert res.exit_code == EXIT_SAT
    tree = prooftree.deserialize(str(out))
    # the ascent from a box corner decides the demo at the root
    assert len(tree.nodes) == 1 and tree.root.status == prooftree.SAT
    tree.validate(load_network(DEMO), load_property(PROP))


def test_verify_dump_tableau(runner):
    res = runner.invoke(main, ["verify", "--net", DEMO, "--prop", PROP,
                               "--dump-tableau"])
    assert res.exit_code == EXIT_SAT
    assert "initial tableau" in res.output
    assert res.output.strip().split("\n")[-1].startswith("SAT ")


def test_verify_dump_tableau_empty_negation(runner, tmp_path):
    # a property with a box and no constraint has nothing to encode
    prop = tmp_path / "box.prop"
    prop.write_text("box\n-1.0 1.0\n-1.0 1.0\n")
    res = runner.invoke(main, ["verify", "--net", DEMO, "--prop", str(prop),
                               "--dump-tableau"])
    assert res.exit_code == EXIT_UNSAT, res.output
    assert res.output == "no tableau: the negation is empty\nUNSAT\n"


def test_verify_and_oracle_contradictory_constraints(runner, tmp_path):
    # y <= 0.5 and y >= 0.6 on the one output: UNSAT, not a solver error
    prop = tmp_path / "clash.prop"
    prop.write_text("box\n-1 1\n-1 1\nge -0.5 -1.0\nge 0.6 1.0\n")
    for command in ("verify", "oracle"):
        res = runner.invoke(main, [command, "--net", DEMO, "--prop", str(prop)])
        assert (res.exit_code, res.output) == (EXIT_UNSAT, "UNSAT\n"), command


def test_reverify_with_report(runner, tmp_path):
    tree_path = tmp_path / "tree.json"
    runner.invoke(main, ["verify", "--net", DEMO, "--prop", PROP,
                         "--tree-out", str(tree_path)])
    report_path = tmp_path / "report.json"
    new_tree_path = tmp_path / "tree2.json"
    res = runner.invoke(main, [
        "reverify", "--net", FPRIME, "--prop", PROP, "--tree", str(tree_path),
        "--report", str(report_path), "--tree-out", str(new_tree_path)])
    assert res.exit_code == EXIT_SAT
    text = report_path.read_text()
    assert text.endswith("}\n")
    assert '  "verdict": "sat"' in text  # indent=2
    rep = json.loads(text)
    assert rep["replayed"] == 0 and rep["fallbacks"] == 0
    assert prooftree.deserialize(str(new_tree_path)).nodes


def test_reverify_shape_mismatch(runner, tmp_path):
    tree_path = tmp_path / "tree.json"
    runner.invoke(main, ["verify", "--net", DEMO, "--prop", PROP,
                         "--tree-out", str(tree_path)])
    wide = tmp_path / "wide.rnn"
    save_network(random_network((3, 8, 1), 0), str(wide))
    res = runner.invoke(main, ["reverify", "--net", str(wide), "--prop", PROP,
                               "--tree", str(tree_path)])
    assert res.exit_code == EXIT_MISMATCH
    assert "stored tree does not match" in res.stderr


def test_reverify_property_mismatch(runner, tmp_path):
    tree_path = tmp_path / "tree.json"
    runner.invoke(main, ["verify", "--net", DEMO, "--prop", PROP,
                         "--tree-out", str(tree_path)])
    res = runner.invoke(main, ["reverify", "--net", DEMO, "--prop", UNSAT_PROP,
                               "--tree", str(tree_path)])
    assert res.exit_code == EXIT_MISMATCH


def test_reverify_rejects_one_sided_tree(runner, tmp_path):
    # a root with the single child x4 <= 0 would claim UNSAT while the
    # oracle finds a counterexample in the uncovered x4 > 0 half
    tree_path = tmp_path / "tree.json"
    runner.invoke(main, ["verify", "--net", DEMO, "--prop", PROP,
                         "--tree-out", str(tree_path)])
    doc = json.loads(tree_path.read_text())
    doc["nodes"] = [
        dict(doc["nodes"][0], status="internal", witness=None),
        {"id": 1, "parent": 0, "assert": {"neuron": 3, "sign": "nonpos"},
         "status": "unsat", "witness": None},
    ]
    tree_path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["reverify", "--net", DEMO, "--prop", PROP,
                               "--tree", str(tree_path)])
    assert res.exit_code == EXIT_ERROR
    assert "node 0: 1 children" in res.stderr


def test_reverify_rejects_tree_without_dims(runner, tmp_path):
    tree_path = tmp_path / "tree.json"
    runner.invoke(main, ["verify", "--net", DEMO, "--prop", PROP,
                         "--tree-out", str(tree_path)])
    doc = json.loads(tree_path.read_text())
    del doc["dims"]
    tree_path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["reverify", "--net", DEMO, "--prop", PROP,
                               "--tree", str(tree_path)])
    assert res.exit_code == EXIT_ERROR
    assert "missing key 'dims'" in res.stderr


def test_reverify_deeply_nested_tree_is_one_line(runner, tmp_path):
    # this used to end in a RecursionError traceback from json.load
    tree_path = tmp_path / "tree.json"
    tree_path.write_text("[" * 100000 + "]" * 100000)
    res = runner.invoke(main, ["reverify", "--net", DEMO, "--prop", PROP,
                               "--tree", str(tree_path)])
    assert res.exit_code == EXIT_ERROR and isinstance(res.exception, SystemExit)
    assert res.stderr == f"error reading proof tree {tree_path}: JSON nested too deeply\n"


# the demo network has two inputs and one output
MISFIT_PROPS = {
    "constraint": ("box\n-1.0 1.0\n-1.0 1.0\nge 0.3 1.0 1.0\n",
                   "a constraint has 2 coefficients for 1 network outputs"),
    "box": ("box\n-1.0 1.0\n-1.0 1.0\n-1.0 1.0\nge 0.3 1.0\n",
            "box has 3 intervals for 2 network inputs"),
}


@pytest.mark.parametrize("case", sorted(MISFIT_PROPS))
@pytest.mark.parametrize("command", ["verify", "bounds", "oracle", "bench"])
def test_property_that_does_not_fit_the_network(runner, tmp_path, command, case):
    # verify and bounds used to end in a ValueError traceback, oracle in an
    # IndexError traceback or a SAT answer
    text, message = MISFIT_PROPS[case]
    prop = tmp_path / "misfit.prop"
    prop.write_text(text)
    extra = ["--trials", "1", "--out", str(tmp_path / "b.csv")] if command == "bench" else []
    res = runner.invoke(main, [command, "--net", DEMO, "--prop", str(prop), *extra])
    assert res.exit_code == EXIT_ERROR
    assert message in res.stderr
    assert len(res.stderr.strip().split("\n")) == 1


def test_reverify_property_that_does_not_fit_the_network(runner, tmp_path):
    # the tree carries the misfit property's hash, so only the fit check can
    # stop it; this used to end in a ValueError traceback from is_property_refuted
    text, message = MISFIT_PROPS["constraint"]
    prop_path = tmp_path / "misfit.prop"
    prop_path.write_text(text)
    tree = prooftree.ProofTree((2, 2, 1), property_hash(load_property(str(prop_path))), "unsat")
    tree.root.status = prooftree.UNSAT
    tree_path = tmp_path / "tree.json"
    tree.serialize(str(tree_path))
    res = runner.invoke(main, ["reverify", "--net", DEMO, "--prop", str(prop_path),
                               "--tree", str(tree_path)])
    assert res.exit_code == EXIT_ERROR
    assert message in res.stderr
    assert len(res.stderr.strip().split("\n")) == 1
    # a tree of other layer widths is still a mismatch, reported first
    wide = tmp_path / "wide.rnn"
    save_network(random_network((3, 8, 1), 0), str(wide))
    res = runner.invoke(main, ["reverify", "--net", str(wide), "--prop", str(prop_path),
                               "--tree", str(tree_path)])
    assert res.exit_code == EXIT_MISMATCH
    assert "stored tree does not match" in res.stderr


def test_bounds_output(runner):
    res = runner.invoke(main, ["bounds", "--net", DEMO, "--prop", PROP])
    assert res.exit_code == 0
    assert res.output.split("\n")[:11] == [
        "x1 in [-1, 1]",
        "x2 in [-1, 1]",
        "x3 in [-1, 0.8]",
        "x4 in [-1.6, 1.6]",
        "x5 in [0, 0.8]",
        "x6 in [0, 1.6]",
        "x7 in [0, 1.28]",
        "x5 >= 0*x3 + 0",
        "x5 <= 0.4444444444*x3 + 0.4444444444",
        "x6 >= 0*x4 + 0",
        "x6 <= 0.5*x4 + 0.8",
    ]


def test_interval_wider_than_the_largest_float_is_an_error(runner, tmp_path):
    # on the demo net x3 in [-9e307, 9e307] is wider than the largest float:
    # its chord had slope 0, which cut off the ReLU's upper side, and verify
    # answered UNSAT though the oracle's (-5e300, -5e300) gives y = 1e300.
    # A weight of 2 overflows x3's own bounds, which raised a numpy warning
    prop = tmp_path / "huge.prop"
    prop.write_text("box\n-1e308 1e308\n-1e308 1e308\nge 1e300 1.0\n")
    steep = tmp_path / "steep.rnn"
    save_network(Network([[[2.0, -0.7], [0.8, -0.8]], [[0.4, 0.6]]], [[-0.1, 0.0], [0.0]]),
                 str(steep))
    for net in (DEMO, str(steep)):
        for command in ("verify", "bounds"):
            res = runner.invoke(main, [command, "--net", net, "--prop", str(prop)])
            assert res.exit_code == EXIT_ERROR, (net, command)
            assert res.stderr == ("solver error: layer 1: a pre-activation interval or its "
                                  "width is not a finite float\n")
            assert "UNSAT" not in res.output
    res = runner.invoke(main, ["oracle", "--net", DEMO, "--prop", str(prop)])
    assert res.exit_code == EXIT_SAT


def test_perturb_identity_round_trip(runner, tmp_path):
    out = tmp_path / "copy.rnn"
    res = runner.invoke(main, ["perturb", "--net", DEMO, "--out", str(out),
                               "--gamma", "0"])
    assert res.exit_code == 0
    base = load_network(DEMO)
    copy = load_network(str(out))
    assert [w.tobytes() for w in copy.weights] == [w.tobytes() for w in base.weights]
    assert [b.tobytes() for b in copy.biases] == [b.tobytes() for b in base.biases]


def test_perturb_rejects_bad_gamma(runner, tmp_path):
    res = runner.invoke(main, ["perturb", "--net", DEMO,
                               "--out", str(tmp_path / "x.rnn"),
                               "--gamma", "-1"])
    assert res.exit_code == EXIT_ERROR


def test_negative_seed_is_one_line(runner, tmp_path):
    # bench used to end in a numpy ValueError traceback, and perturb printed
    # numpy's "expected non-negative integer", which names no flag
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["bench", "--seed", "-1", "--out", str(out)])
    assert res.exit_code == EXIT_ERROR and isinstance(res.exception, SystemExit)
    assert res.stderr == "bad flag value: seed must be >= 0, got -1\n"
    assert not out.exists()
    res = runner.invoke(main, ["perturb", "--net", DEMO, "--out", str(tmp_path / "x.rnn"),
                               "--gamma", "0.1", "--seed", "-5"])
    assert res.exit_code == EXIT_ERROR
    assert res.stderr == "seed must be >= 0, got -5\n"


def test_oracle_command(runner):
    res = runner.invoke(main, ["oracle", "--net", FDOUBLE, "--prop", PROP])
    assert res.exit_code == EXIT_SAT
    res = runner.invoke(main, ["oracle", "--net", DEMO, "--prop", UNSAT_PROP])
    assert res.exit_code == EXIT_UNSAT


def test_bench_default_instance(runner, tmp_path):
    out = tmp_path / "bench.csv"
    res = runner.invoke(main, ["bench", "--gammas", "0.0,0.05", "--trials", "2",
                               "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # 2 gammas x 2 trials
    assert all(line.endswith(",true") for line in lines[1:])
    assert "gamma=0 mean_replay_pct=" in res.output
    assert "gamma=0.05 mean_replay_pct=" in res.output
    assert "rows=4 all_agree=true" in res.output


def test_bench_explicit_files(runner, tmp_path):
    out = tmp_path / "bench.csv"
    res = runner.invoke(main, ["bench", "--net", DEMO, "--prop", PROP,
                               "--gammas", "0.01", "--trials", "3",
                               "--out", str(out)])
    assert res.exit_code == 0
    assert len(out.read_text().strip().split("\n")) == 4


def test_bench_multi_output_net_needs_a_property(runner, tmp_path):
    # the default threshold property has one output; this used to end in a
    # ValueError traceback from random_threshold_property
    net_path = tmp_path / "two_out.rnn"
    save_network(random_network((2, 3, 2), 0), str(net_path))
    out = tmp_path / "b.csv"
    res = runner.invoke(main, ["bench", "--net", str(net_path), "--out", str(out)])
    assert res.exit_code == EXIT_ERROR
    assert "--prop is required" in res.stderr
    assert len(res.stderr.strip().split("\n")) == 1
    assert not out.exists()


def test_bench_rejects_bad_gammas(runner, tmp_path):
    res = runner.invoke(main, ["bench", "--gammas", "0.01,oops",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == EXIT_ERROR
    assert "bad flag value" in res.stderr
    # these used to end in a ValueError, ZeroDivisionError or OverflowError
    # traceback, or, with no perturbation to run, in exit 0; a gamma of
    # 1e308 makes the resampling interval of weight 2.0 wider than the
    # largest float
    save_network(Network([[[2.0]]], [[0.0]]), str(tmp_path / "w2.rnn"))
    out = ["--out", str(tmp_path / "y")]
    for args in (["bench", "--gammas", "-1"], ["bench", "--fractions", "0"],
                 ["bench", "--fractions", ""], ["bench", "--gammas", ""],
                 ["bench", "--trials", "0"],
                 ["bench", "--gammas", "nan"],
                 ["perturb", "--net", DEMO, "--gamma", "nan"],
                 ["perturb", "--net", DEMO, "--gamma", "inf"],
                 ["perturb", "--net", str(tmp_path / "w2.rnn"), "--gamma", "1e308"],
                 ["bench", "--net", str(tmp_path / "w2.rnn"), "--gammas", "1e308",
                  "--trials", "1"]):
        res = runner.invoke(main, args + out)
        assert res.exit_code == EXIT_ERROR and isinstance(res.exception, SystemExit), args
        assert res.stderr.count("\n") == 1, (args, res.stderr)


def test_bench_solver_error_is_one_line(runner, tmp_path, no_attack):
    # without the ascent, the base solve finds no witness and leaves four
    # fully decided branches that the branch LP cannot decide; this used to
    # end in a RuntimeError traceback
    net, prop = _scaled_instance(9, 1e4)
    save_network(net, str(tmp_path / "sc.rnn"))
    save_property(prop, str(tmp_path / "sc.prop"))
    out = tmp_path / "b.csv"
    res = runner.invoke(main, ["bench", "--net", str(tmp_path / "sc.rnn"),
                               "--prop", str(tmp_path / "sc.prop"), "--trials", "1",
                               "--gammas", "0.01", "--out", str(out)])
    assert res.exit_code == EXIT_ERROR
    assert res.stderr == ("solver error: no witness found, and the branch LP could not "
                          "decide 4 branch(es)\n")
    assert not out.exists()


def test_zero_width_network_file_is_one_line(runner, tmp_path):
    # this used to end in an IndexError traceback
    net = tmp_path / "z.rnn"
    net.write_text("relunet 1\ndims 2 0 1\nlayer 1 relu\nlayer 2 none\n0.5\n")
    res = runner.invoke(main, ["verify", "--net", str(net), "--prop", PROP])
    assert res.exit_code == EXIT_ERROR and isinstance(res.exception, SystemExit)
    assert res.stderr == (f"error reading network {net}: "
                          "layer 1: a layer width is below 1\n")


@pytest.mark.parametrize("what, args", [
    ("proof tree", ["verify", "--net", DEMO, "--prop", PROP, "--tree-out"]),
    ("proof tree", ["reverify", "--net", FPRIME, "--prop", PROP, "--tree", "TREE",
                    "--tree-out"]),
    ("report", ["reverify", "--net", FPRIME, "--prop", PROP, "--tree", "TREE", "--report"]),
    ("network", ["perturb", "--net", DEMO, "--gamma", "0", "--out"]),
    ("CSV", ["bench", "--trials", "1", "--gammas", "0.01", "--out"]),
], ids=["verify-tree-out", "reverify-tree-out", "reverify-report", "perturb-out", "bench-out"])
def test_unwritable_output_path_is_one_line(runner, tmp_path, what, args):
    # each of these used to end in a FileNotFoundError traceback
    tree = tmp_path / "tree.json"
    solve(load_network(DEMO), load_property(PROP))[1].serialize(str(tree))
    out = tmp_path / "missing" / "out"
    res = runner.invoke(main, [str(tree) if a == "TREE" else a for a in args] + [str(out)])
    assert res.exit_code == EXIT_ERROR and isinstance(res.exception, SystemExit)
    assert res.stderr.startswith(f"error writing {what} {out}: ")
    assert res.stderr.count("\n") == 1


def test_oracle_refuses_a_large_network(runner, tmp_path):
    net = random_network((2, 9, 9, 1), 0)
    save_network(net, str(tmp_path / "n.rnn"))
    save_property(random_threshold_property(net, 1), str(tmp_path / "n.prop"))
    res = runner.invoke(main, ["oracle", "--net", str(tmp_path / "n.rnn"),
                               "--prop", str(tmp_path / "n.prop")])
    assert res.exit_code == EXIT_ERROR
    assert res.stderr == "oracle error: oracle limited to 16 ReLU neurons, got 18\n"


def test_bench_disagreement_keeps_the_partial_csv(runner, tmp_path, monkeypatch):
    def disagree(net, prop, perts):
        raise bench_mod.OracleDisagreement("scratch says sat, the oracle unsat",
                                           CSV_HEADER + "\n")

    monkeypatch.setattr(bench_mod, "compare", disagree)
    out = tmp_path / "b.csv"
    res = runner.invoke(main, ["bench", "--trials", "1", "--gammas", "0.01", "--out", str(out)])
    assert res.exit_code == EXIT_ERROR
    assert res.stderr == "disagreement: scratch says sat, the oracle unsat\n"
    assert out.read_text() == CSV_HEADER + "\n"


def test_reverify_solver_error_is_one_line(runner, tmp_path, monkeypatch):
    tree = tmp_path / "tree.json"
    solve(load_network(DEMO), load_property(PROP))[1].serialize(str(tree))

    def undecided(net, prop, tree):
        raise RuntimeError("a branch stayed undecided")

    monkeypatch.setattr(cli, "verify_incremental", undecided)
    res = runner.invoke(main, ["reverify", "--net", FPRIME, "--prop", PROP,
                               "--tree", str(tree)])
    assert res.exit_code == EXIT_ERROR
    assert res.stderr == "solver error: a branch stayed undecided\n"


def test_log_env_smoke(runner):
    for level in ("debug", "info", "bogus"):
        res = runner.invoke(main, ["verify", "--net", DEMO, "--prop", PROP],
                            env={"INCREMARK_LOG": level})
        assert res.exit_code == EXIT_SAT


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """Stored trees to corrupt: name -> (modified net path, prop path, tree
    JSON, exit code of the oracle's verdict on the modified net)."""
    d = tmp_path_factory.mktemp("stored")
    net = random_network((2, 5, 5, 1), 18)
    prop = random_threshold_property(net, 19)
    modified = perturb(net, Perturbation(0.3, 0.5, 18))
    save_network(modified, str(d / "s18.rnn"))
    save_property(prop, str(d / "s18.prop"))
    # the stored UNSAT tree no longer holds: a leaf that a hostile
    # certificate closed by mistake would turn the oracle's SAT into UNSAT
    broken = perturb(net, Perturbation(0.5, 1.0, 7))
    save_network(broken, str(d / "s18_sat.rnn"))
    instances = {
        "demo": (load_network(DEMO), load_network(FPRIME), FPRIME, PROP),
        "s18": (net, modified, str(d / "s18.rnn"), str(d / "s18.prop")),
        "s18_sat": (net, broken, str(d / "s18_sat.rnn"), str(d / "s18.prop")),
    }
    out = {}
    for name, (base, mod, net_path, prop_path) in instances.items():
        p = load_property(prop_path)
        # the demo's tableau tree has an unsolved leaf; the ascent's has one node
        _, tree = (tableau_solve if name == "demo" else solve)(base, p)
        code = EXIT_SAT if oracle(mod, p).sat else EXIT_UNSAT
        out[name] = (net_path, prop_path, tree.to_json(), code)
    return out


def test_reverify_debug_log_names_each_leaf_rung(stored, tmp_path, caplog):
    net_path, prop_path, doc, _ = stored["s18"]
    (tmp_path / "tree.json").write_text(json.dumps(doc))
    report_path = tmp_path / "report.json"
    with caplog.at_level(logging.DEBUG, logger="incremark"):
        res = CliRunner().invoke(main, ["reverify", "--net", net_path, "--prop", prop_path,
                                        "--tree", str(tmp_path / "tree.json"),
                                        "--report", str(report_path)])
    assert res.exit_code == EXIT_UNSAT
    rep = json.loads(report_path.read_text())
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("unsat leaf")]
    assert len(lines) == rep["replayed"] + rep["fallbacks"] == sum(rep["rungs"].values())
    rungs = [line.rsplit(": ", 1)[1] for line in lines]
    assert {r: rungs.count(r) for r in rep["rungs"]} == rep["rungs"]


def test_import_does_not_load_logging():
    """`reverify` logs its per-leaf lines from the report, so the library
    never imports logging, which adds about 0.5 MB to a process's peak RSS.
    pytest imports logging itself, so a fresh interpreter checks."""
    src = str(pathlib.Path(incremark.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, incremark; sys.exit('logging' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def _reverify_doc(tmp_path, net_path, prop_path, doc):
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return CliRunner().invoke(main, ["reverify", "--net", net_path, "--prop", prop_path,
                                     "--tree", str(tree_path)])


def _renumber_root_split(doc, neuron):
    for nd in doc["nodes"]:
        if nd["parent"] == 0:
            nd["assert"]["neuron"] = neuron


def _bad_witness(doc):
    leaf = next(nd for nd in doc["nodes"] if nd["witness"] is not None)
    leaf["witness"] = leaf["witness"] + [0.0]


def _nan_witness(doc):
    leaf = next(nd for nd in doc["nodes"] if nd["status"] == "unsat")
    leaf["status"], leaf["witness"] = "sat", [float("nan")] * 2


def _cert_on_neuron(doc, kind, neuron):
    leaf = next(nd for nd in doc["nodes"] if nd.get("cert"))
    leaf["cert"][0][:2] = [kind, neuron]


def _put_on(doc, key, value, status, internal=False):
    """Put a witness or certificate on the first node of a status."""
    nd = next(nd for nd in doc["nodes"] if nd["status"] == status
              and internal == any(c["parent"] == nd["id"] for c in doc["nodes"]))
    nd[key] = value


def _repeat_on_path(doc):
    # node 4 sits below the split on neuron 3; splitting it on 3 again
    # asserts that neuron twice on one root-to-leaf path
    for nd in doc["nodes"]:
        if nd["parent"] == 4:
            nd["assert"]["neuron"] = 3


@pytest.mark.parametrize("case, mutate, code, message", [
    # an edge on neuron 99 used to end in a KeyError traceback from lp.build
    ("s18", lambda doc: _renumber_root_split(doc, 99), EXIT_MISMATCH,
     "neuron 99 is not a ReLU"),
    ("demo", _bad_witness, EXIT_MISMATCH, "witness has 3 values for 2 inputs"),
    ("s18", _repeat_on_path, EXIT_ERROR, "neuron 3 asserted twice on one path"),
    # a NaN witness used to pass witness_ok and print `SAT nan nan`
    ("s18", _nan_witness, EXIT_ERROR, "witness [nan, nan] is not a finite point"),
    # a certificate index that names no equation used to end in a KeyError
    # traceback from the certificate rung
    ("s18", lambda doc: _cert_on_neuron(doc, "relu", 99), EXIT_MISMATCH,
     "certificate names relu equation 99"),
    ("s18", lambda doc: _cert_on_neuron(doc, "chord", 22), EXIT_MISMATCH,
     "certificate names chord equation 22"),
    ("s18", lambda doc: _cert_on_neuron(doc, "prop", 0), EXIT_MISMATCH,
     "certificate names prop equation 0"),
    ("s18", lambda doc: _cert_on_neuron(doc, "bias", 2), EXIT_ERROR,
     "unknown equation kind 'bias'"),
    # re-verification copied these forward into the trees it wrote
    ("s18", lambda doc: _put_on(doc, "witness", [0.1, 0.2], "internal", True), EXIT_ERROR,
     "node 0: internal node carries a witness"),
    ("s18", lambda doc: _put_on(doc, "witness", [0.1, 0.2], "unsat"), EXIT_ERROR,
     "unsat leaf carries a witness"),
    ("demo", lambda doc: _put_on(doc, "witness", [0.1, 0.2], "unsolved"), EXIT_ERROR,
     "unsolved leaf carries a witness"),
    ("s18", lambda doc: _put_on(doc, "cert", [["aff", 2, 1.0]], "internal", True),
     EXIT_ERROR, "node 0: internal node carries a certificate"),
    ("demo", lambda doc: _put_on(doc, "cert", [["aff", 2, 1.0]], "sat"), EXIT_ERROR,
     "sat leaf carries a certificate"),
])
def test_reverify_rejects_tree_not_of_this_network(stored, tmp_path, case, mutate, code, message):
    net_path, prop_path, doc, _ = stored[case]
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    res = _reverify_doc(tmp_path, net_path, prop_path, doc)
    assert res.exit_code == code
    assert message in res.stderr
    assert len(res.stderr.strip().split("\n")) == 1


MUTATIONS = ("drop", "flip", "renumber", "renumber_all", "witness", "cert", "truncate")
NUMBERS = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 0.0,
                           1e-300]) | st.floats(allow_nan=True, allow_infinity=True)
SCALES = st.sampled_from([-1.0, 1e-12, 1e-3, 1e3, 1e12, 1e300]) | st.floats(-1e6, 1e6)
JUNK = st.sampled_from([[], ["aff", 1], "aff", ["aff", 1.5, 1.0], ["aff", True, 1.0],
                        ["aff", 1, "1"], ["aff", 10 ** 400, 1.0], None])


def _mutate_cert(doc, data, n_ids):
    """Corrupt one certificate: a bad or huge multiplier, scaled or flipped
    multipliers, a wrong kind or index, a malformed entry, a certificate
    copied onto another node, or a made-up one."""
    nodes = doc["nodes"]
    # certificates that an earlier "junk" mutation has not broken
    carriers = [nd for nd in nodes if nd.get("cert") and all(
        isinstance(e, list) and len(e) == 3 and isinstance(e[2], float) for e in nd["cert"])]
    how = data.draw(st.sampled_from(("value", "scale", "flip", "kind", "index", "junk",
                                     "copy", "invent")))
    if how == "invent" or not carriers:
        data.draw(st.sampled_from(nodes))["cert"] = data.draw(st.lists(st.tuples(
            st.sampled_from(["aff", "relu", "chord", "prop", "bias"]),
            st.integers(-1, n_ids), NUMBERS).map(list), max_size=12))
        return
    cert = data.draw(st.sampled_from(carriers))["cert"]
    i = data.draw(st.integers(0, len(cert) - 1))
    if how == "value":
        cert[i][2] = data.draw(NUMBERS)
    elif how == "scale":
        k = data.draw(SCALES)
        for e in cert:
            e[2] *= k
    elif how == "flip":
        cert[i][2] = -cert[i][2]
    elif how == "kind":
        cert[i][0] = data.draw(st.sampled_from(["aff", "relu", "chord", "prop", "bias"]))
    elif how == "index":
        cert[i][1] = data.draw(st.integers(-1, n_ids))
    elif how == "junk":
        cert[i] = data.draw(JUNK)
    else:  # copy
        data.draw(st.sampled_from(nodes))["cert"] = json.loads(json.dumps(cert))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.data())
def test_reverify_mutated_tree(stored, tmp_path_factory, data):
    """A corrupted tree file is rejected with a one-line message (exit 1 or
    2) or re-verified to the oracle's verdict; it never raises. A stored
    certificate, however hostile, can only fail to close a leaf."""
    case = data.draw(st.sampled_from(sorted(stored)))
    net_path, prop_path, doc, expected = stored[case]
    doc = json.loads(json.dumps(doc))
    nodes = doc["nodes"]
    n_ids = 60  # past every variable id of both networks
    kinds = data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3))
    for kind in kinds:
        edges = [nd for nd in nodes if nd["assert"] is not None]
        if kind == "drop" and len(nodes) > 1:
            del nodes[data.draw(st.integers(1, len(nodes) - 1))]
        elif kind == "flip" and edges:
            a = data.draw(st.sampled_from(edges))["assert"]
            a["sign"] = "nonneg" if a["sign"] == "nonpos" else "nonpos"
        elif kind == "renumber" and edges:
            data.draw(st.sampled_from(edges))["assert"]["neuron"] = data.draw(
                st.integers(-1, n_ids))
        elif kind == "renumber_all" and edges:
            old = data.draw(st.sampled_from(edges))["assert"]["neuron"]
            new = data.draw(st.integers(-1, n_ids))
            for nd in edges:
                if nd["assert"]["neuron"] == old:
                    nd["assert"]["neuron"] = new
        elif kind == "witness":
            nd = data.draw(st.sampled_from(nodes))
            nd["witness"] = data.draw(st.lists(NUMBERS, max_size=4))
        elif kind == "cert":
            _mutate_cert(doc, data, n_ids)
    text = json.dumps(doc)
    if "truncate" in kinds:
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    res = _reverify_doc(tmp_path_factory.mktemp("mutant"), net_path, prop_path, text)
    assert isinstance(res.exception, SystemExit), res.exception
    event(f"exit {res.exit_code}")
    if res.exit_code in (EXIT_ERROR, EXIT_MISMATCH):
        message = res.stderr.strip()
        assert message and "\n" not in message
    else:
        assert res.exit_code == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_reverify_hostile_certificate(stored, tmp_path_factory, data):
    """Certificate mutations alone, so most mutants reach the replay ladder:
    each is rejected in one line or gets the oracle's verdict."""
    case = data.draw(st.sampled_from(["s18", "s18_sat"]))
    net_path, prop_path, doc, expected = stored[case]
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_cert(doc, data, 60)
    d = tmp_path_factory.mktemp("hostile")
    tree_path, report_path = d / "tree.json", d / "report.json"
    tree_path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["reverify", "--net", net_path, "--prop", prop_path,
                                    "--tree", str(tree_path), "--report", str(report_path)])
    assert isinstance(res.exception, SystemExit), res.exception
    if res.exit_code in (EXIT_ERROR, EXIT_MISMATCH):
        message = res.stderr.strip()
        assert message and "\n" not in message
        event(f"rejected, exit {res.exit_code}")
    else:
        assert res.exit_code == expected
        rungs = json.loads(report_path.read_text())["rungs"]
        event(f"{case}: {rungs['certificate']} leaves closed by a certificate")
