"""Rebuild perfbench/reference.json: the exact-oracle verdict and the work
count of every catalog instance a workload can draw.

    python3 perfbench/make_reference.py

For each base instance of the catalog it solves once under the span
recorder, giving up past `SCAN_NODES` tree nodes (such a base is never
drawn), and records the tree size, the number of traced calls ("work", a
portable cost the workloads stratify by) and the `bench.oracle` verdict.
Then, for every base a re-verification workload may draw (`catalog.grids`),
it re-verifies each perturbation of its grids under the recorder and
records that query's work, its replayed and fallback leaf counts and the
oracle verdict. A re-verification still
running after `REVERIFY_CALLS` traced calls is abandoned and its work stored
as null; the workloads never draw a base with such a query.
Entries already present are kept, so an interrupted run resumes. The (3,8,8,1) oracle takes
up to half a minute per instance: a full rebuild takes tens of minutes on
one core.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalog import (  # noqa: E402
    BASE_SEEDS,
    REFERENCE_PATH,
    SCAN_NODES,
    base_instance,
    base_key,
    grids,
    pert_key,
)
from incremark import incremental, solver  # noqa: E402
from incremark import prooftree as pt  # noqa: E402
from incremark.bench import oracle, perturb  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402


# the largest finished re-verification in the store makes about 7,000
# traced calls; one past this cap has run for seconds
REVERIFY_CALLS = 50_000


class _TooLarge(Exception):
    pass


def solve_counted(net, prop):
    """(verdict, nodes, work), or None once the tree outgrows SCAN_NODES.
    A node cap, unlike a time limit, gives the same store on any machine."""
    add_child = pt.ProofTree.add_child

    def capped(tree, *args, **kwargs):
        if len(tree.nodes) >= SCAN_NODES:
            raise _TooLarge
        return add_child(tree, *args, **kwargs)

    tracer = Tracer()
    pt.ProofTree.add_child = capped
    try:
        with instrument(tracer):
            v, tree = solver.solve(net, prop)
    except _TooLarge:
        return None
    finally:
        pt.ProofTree.add_child = add_child
    return v, len(tree.nodes), len(tracer.name)


def reverify_counted(net, prop, doc):
    """(verdict name or error text, record) of one re-verification query; the
    record holds its work and its replayed and fallback leaf counts, all None
    once it passes REVERIFY_CALLS traced calls or when it raises."""
    none = {"work": None, "replayed": None, "fallbacks": None}
    tracer = Tracer()
    with instrument(tracer):
        step = solver.repair_step  # the traced wrapper

        def capped(*args, **kwargs):
            if len(tracer.name) >= REVERIFY_CALLS:
                raise _TooLarge
            return step(*args, **kwargs)

        solver.repair_step = capped
        try:
            v, report, _ = incremental.verify_incremental(net, prop, pt.from_json(doc))
        except _TooLarge:
            return f"abandoned after {REVERIFY_CALLS} traced calls", none
        except Exception as e:  # recorded, never fatal here
            return f"{type(e).__name__}: {e}", none
        finally:
            solver.repair_step = step
    return v.name, {"work": len(tracer.name), "replayed": report.replayed,
                    "fallbacks": report.fallbacks}


def _save(data: dict) -> None:
    tmp = REFERENCE_PATH.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    tmp.replace(REFERENCE_PATH)


def main() -> int:
    data = {"bases": {}, "perturbed": {}}
    if REFERENCE_PATH.exists():
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    bases, perturbed = data["bases"], data["perturbed"]
    for shape, seeds in BASE_SEEDS.items():
        for s in seeds:
            key = base_key(shape, s)
            if key in bases:
                continue
            net, prop = base_instance(shape, s)
            got = solve_counted(net, prop)
            if got is None:
                bases[key] = {"verdict": None, "nodes": None, "work": None}
            else:
                v, nodes, work = got
                ref = oracle(net, prop).name
                if ref != v.name:
                    print(f"{key}: solve says {v.name}, oracle {ref}", file=sys.stderr)
                bases[key] = {"verdict": ref, "nodes": nodes, "work": work}
            print(key, bases[key], flush=True)
            _save(data)
    for shape, seeds in BASE_SEEDS.items():
        for s in seeds:
            rec = bases[base_key(shape, s)]
            if rec["nodes"] is None:
                continue
            grid = grids(shape, s, rec["verdict"], rec["nodes"])
            todo = [p for p in grid if pert_key(shape, s, p) not in perturbed]
            if not todo:
                continue
            net, prop = base_instance(shape, s)
            _, tree = solver.solve(net, prop)
            doc = tree.to_json()
            for p in todo:
                key = pert_key(shape, s, p)
                m = perturb(net, p)
                ref = oracle(m, prop).name
                outcome, rec = reverify_counted(m, prop, doc)
                if outcome != ref:
                    print(f"{key}: re-verification gave {outcome}, oracle {ref}", file=sys.stderr)
                perturbed[key] = {"verdict": ref, **rec}
            print(base_key(shape, s), len(todo), "perturbations", flush=True)
            _save(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
