"""Command-line front end.

Exit codes: 10 SAT, 20 UNSAT, 1 generic error (bad files, solver failure,
benchmark disagreement), 2 stored-tree mismatch against the network or
property being re-verified.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from contextlib import contextmanager

import click

from . import bench as bench_mod
from . import prooftree
from .deeppoly import analyze, relaxation
from .incremental import RUNGS, ShapeMismatchError, check_dims, verify_incremental
from .model import load_network, load_property, save_network
from .simplex import dump, initialize
from .solver import solve

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1
EXIT_MISMATCH = 2

log = logging.getLogger("incremark")

_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


@click.group()
def main():
    """Verify safety properties of small ReLU networks, incrementally."""
    level = os.environ.get("INCREMARK_LOG", "error").lower()
    logging.basicConfig(level=_LEVELS.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


@contextmanager
def _file_errors(doing: str, what: str, path: str, errors=OSError):
    """Turn `errors` raised while reading or writing the file `path` into
    one line, `error <doing> <what> <path>: <reason>`, and exit 1."""
    try:
        yield
    except errors as e:
        click.echo(f"error {doing} {what} {path}: {e}", err=True)
        sys.exit(EXIT_ERROR)


def _load(loader, path: str, what: str):
    with _file_errors("reading", what, path, (OSError, ValueError)):
        return loader(path)


def _write_text(what: str, path: str, text: str) -> None:
    with _file_errors("writing", what, path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_property_fits(net, prop, prop_path: str) -> None:
    """Exit with an error when the property's box or constraints do not
    match the network's input and output counts."""
    n_out = net.n_outputs
    bad = next((c for c in prop.constraints if len(c.coeffs) != n_out), None)
    if len(prop.box) != net.n_inputs:
        problem = f"box has {len(prop.box)} intervals for {net.n_inputs} network inputs"
    elif bad is not None:
        problem = f"a constraint has {len(bad.coeffs)} coefficients for {n_out} network outputs"
    else:
        return
    click.echo(f"property {prop_path} does not fit the network: {problem}", err=True)
    sys.exit(EXIT_ERROR)


def _load_query(net_path: str, prop_path: str):
    """Load a network and a property that fits it, or exit with an error."""
    net = _load(load_network, net_path, "network")
    prop = _load(load_property, prop_path, "property")
    _check_property_fits(net, prop, prop_path)
    return net, prop


def _solver_error(e: RuntimeError) -> None:
    click.echo(f"solver error: {e}", err=True)
    sys.exit(EXIT_ERROR)


def _finish(verdict) -> None:
    if verdict.name == "sat":
        click.echo("SAT " + " ".join(repr(float(x)) for x in verdict.witness))
        sys.exit(EXIT_SAT)
    click.echo("UNSAT")
    sys.exit(EXIT_UNSAT)


@main.command()
@click.option("--net", "net_path", required=True, help="Network file.")
@click.option("--prop", "prop_path", required=True, help="Property file.")
@click.option("--tree-out", default=None, help="Write the proof tree here.")
@click.option("--dump-tableau", is_flag=True, help="Print the initial tableau.")
def verify(net_path, prop_path, tree_out, dump_tableau):
    """Decide a property from scratch and record the proof tree."""
    net, prop = _load_query(net_path, prop_path)
    try:
        if dump_tableau:
            click.echo("no tableau: the negation is empty" if prop.negation_empty else
                       dump(initialize(net, prop, analyze(net, prop.box)), "initial tableau"))
        verdict, tree = solve(net, prop)
    except RuntimeError as e:
        _solver_error(e)
    log.info("verify %s: %s, %d tree nodes", net_path, verdict.name, len(tree.nodes))
    if tree_out:
        with _file_errors("writing", "proof tree", tree_out):
            tree.serialize(tree_out)
    _finish(verdict)


@main.command()
@click.option("--net", "net_path", required=True, help="Modified network file.")
@click.option("--prop", "prop_path", required=True)
@click.option("--tree", "tree_path", required=True, help="Stored proof tree.")
@click.option("--tree-out", default=None, help="Write the updated tree here.")
@click.option("--report", "report_path", default=None, help="Write a JSON run report.")
def reverify(net_path, prop_path, tree_path, tree_out, report_path):
    """Re-verify a modified network guided by a stored proof tree."""
    net = _load(load_network, net_path, "network")
    prop = _load(load_property, prop_path, "property")
    tree = _load(prooftree.deserialize, tree_path, "proof tree")
    try:
        # a tree of other layer widths is a mismatch first; a property that
        # does not fit the network is an error even if the tree carries its hash
        check_dims(tree, net)
        _check_property_fits(net, prop, prop_path)
        verdict, rep, new_tree = verify_incremental(net, prop, tree)
    except ShapeMismatchError as e:
        click.echo(f"stored tree does not match: {e}", err=True)
        sys.exit(EXIT_MISMATCH)
    except RuntimeError as e:
        _solver_error(e)
    # one line per replayed leaf, from the report: the library itself does
    # not import logging, which would add about 0.5 MB to every process
    for nid, outcome in sorted(rep.outcomes.items()):
        if outcome in RUNGS:
            log.debug("unsat leaf %d: %s", nid, outcome)
    log.info("reverify %s: %s, replay %.1f%%", net_path, verdict.name, rep.replay_pct)
    if tree_out:
        with _file_errors("writing", "proof tree", tree_out):
            new_tree.serialize(tree_out)
    if report_path:
        _write_text("report", report_path, json.dumps(rep.to_json(), indent=2) + "\n")
    _finish(verdict)


@main.command()
@click.option("--net", "net_path", required=True)
@click.option("--prop", "prop_path", required=True, help="Supplies the input box.")
def bounds(net_path, prop_path):
    """Print abstraction intervals and the ReLU relational bounds."""
    net, prop = _load_query(net_path, prop_path)
    try:
        b = analyze(net, prop.box)
    except RuntimeError as e:
        _solver_error(e)
    lay = net.layout
    for vid in lay.neuron_ids:
        click.echo(f"x{vid + 1} in [{b.lo[vid]:.10g}, {b.hi[vid]:.10g}]")
    for pre, post in lay.relu_pairs:
        lc, uc, uk = relaxation(b.lo[pre], b.hi[pre])
        click.echo(f"x{post + 1} >= {lc:.10g}*x{pre + 1} + 0")
        click.echo(f"x{post + 1} <= {uc:.10g}*x{pre + 1} + {uk:.10g}")
    sys.exit(0)


@main.command()
@click.option("--net", "net_path", required=True)
@click.option("--out", "out_path", required=True, help="Perturbed network file.")
@click.option("--gamma", type=float, required=True)
@click.option("--fraction", type=float, default=1.0)
@click.option("--seed", type=int, default=0)
@click.option("--scope", type=click.Choice([bench_mod.WEIGHTS, bench_mod.WEIGHTS_AND_BIASES]),
              default=bench_mod.WEIGHTS)
def perturb(net_path, out_path, gamma, fraction, seed, scope):
    """Write a randomly perturbed copy of a network."""
    net = _load(load_network, net_path, "network")
    try:
        out = bench_mod.perturb(net, bench_mod.Perturbation(gamma, fraction, seed, scope))
    except ValueError as e:
        click.echo(str(e), err=True)
        sys.exit(EXIT_ERROR)
    with _file_errors("writing", "network", out_path):
        save_network(out, out_path)
    sys.exit(0)


@main.command()
@click.option("--net", "net_path", required=True)
@click.option("--prop", "prop_path", required=True)
def oracle(net_path, prop_path):
    """Exact verdict by activation-pattern enumeration (small nets only)."""
    net, prop = _load_query(net_path, prop_path)
    try:
        verdict = bench_mod.oracle(net, prop)
    except (ValueError, RuntimeError) as e:
        click.echo(f"oracle error: {e}", err=True)
        sys.exit(EXIT_ERROR)
    _finish(verdict)


@main.command()
@click.option("--net", "net_path", default=None,
              help="Base network (default: a seeded random 2-5-5-1 net).")
@click.option("--prop", "prop_path", default=None,
              help="Property (default: a seeded random threshold property; "
                   "single-output networks only).")
@click.option("--gammas", default="0.001,0.01,0.03,0.05", show_default=True)
@click.option("--fractions", default="0.1,0.3,0.5", show_default=True,
              help="Cycled across trials within each gamma.")
@click.option("--trials", type=int, default=25, show_default=True,
              help="Perturbations per gamma; rows = gammas x trials.")
# seed 18 gives a default instance with a nontrivial unsat proof tree
@click.option("--seed", type=int, default=18)
@click.option("--out", "out_path", required=True, help="CSV destination.")
def bench(net_path, prop_path, gammas, fractions, trials, seed, out_path):
    """Scratch-vs-incremental comparison over random perturbations."""
    try:
        gamma_vals = [float(g) for g in gammas.split(",") if g]
        fraction_vals = [float(f) for f in fractions.split(",") if f]
        if not gamma_vals or not fraction_vals or trials < 1:
            raise ValueError("no perturbations: --gammas and --fractions each need a "
                             "value and --trials must be at least 1")
        perts = [bench_mod.Perturbation(g, fraction_vals[t % len(fraction_vals)],
                                        seed + 7919 * (gi * trials + t))
                 for gi, g in enumerate(gamma_vals) for t in range(trials)]
    except ValueError as e:
        click.echo(f"bad flag value: {e}", err=True)
        sys.exit(EXIT_ERROR)
    if net_path:
        net = _load(load_network, net_path, "network")
    else:
        net = bench_mod.random_network((2, 5, 5, 1), seed)
    if prop_path:
        prop = _load(load_property, prop_path, "property")
        _check_property_fits(net, prop, prop_path)
    elif net.n_outputs != 1:
        click.echo(f"--prop is required: the network has {net.n_outputs} outputs and the "
                   "default threshold property needs one", err=True)
        sys.exit(EXIT_ERROR)
    else:
        prop = bench_mod.random_threshold_property(net, seed + 1)
    try:
        report = bench_mod.compare(net, prop, perts)
    except bench_mod.OracleDisagreement as e:
        click.echo(f"disagreement: {e}", err=True)
        _write_text("CSV", out_path, e.csv_text)
        sys.exit(EXIT_ERROR)
    except RuntimeError as e:
        _solver_error(e)
    except ValueError as e:
        click.echo(f"bench error: {e}", err=True)
        sys.exit(EXIT_ERROR)
    _write_text("CSV", out_path, report.csv_text)
    for line in report.summary_lines():
        click.echo(line)
    click.echo(f"rows={len(report.rows)} all_agree={str(report.all_agree).lower()}")
    sys.exit(0)


if __name__ == "__main__":
    main()
