"""The three workloads: how each draws its instances from the catalog, what
its set-up builds, and what one query runs.

    scratch  solve(net, prop) then tree.to_json(): the cost of a first proof
    replay   from_json -> verify_incremental -> to_json on stored UNSAT trees
             under paper-grid weight changes: stored proofs mostly hold
    repair   the same query on stored trees that no longer close: SAT trees
             under the paper grid (witness re-check, open-leaf re-search) and
             UNSAT trees under the break grid (pruning, fallback, grafts)

A workload seed picks, per stratum, a sample of the catalog without
replacement, and the order in which the run cycles through it. Strata are
runs of the catalog sorted by the stored work count, so every seed gets the
same mix of cheap and costly instances, and they are interleaved evenly, so
any stretch of the cycle holds them in the same proportions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from catalog import (
    MAX_NODES,
    A,
    B,
    Base,
    Reference,
    base_instance,
    break_grid,
    paper_grid,
    pert_key,
)
from incremark import incremental, solver
from incremark import prooftree as pt
from incremark.bench import perturb


@dataclass
class Query:
    key: str
    net: object
    prop: object
    run: Callable  # () -> (Verdict, IncrementalReport | None)
    expect: str = ""  # reference verdict, filled in after set-up


def _scratch_run(net, prop):
    def run():
        v, tree = solver.solve(net, prop)
        tree.to_json()
        return v, None
    return run


def _replay_run(net, prop, doc):
    def run():
        tree = pt.from_json(doc)
        v, report, out = incremental.verify_incremental(net, prop, tree)
        out.to_json()
        return v, report
    return run


def _sample(rng, items: list, k: int) -> list:
    if k > len(items):
        raise ValueError(f"stratum holds {len(items)} instances, {k} requested")
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[int(i)] for i in idx]


def by_work(rng, items: list, work, bins: int, per_bin: int) -> list[list]:
    """Sort items by their stored work count, cut the list into `bins` runs
    of equal length and draw `per_bin` from each: every seed gets the same
    mix of cheap and costly instances."""
    items = sorted(items, key=work)
    edges = np.linspace(0, len(items), bins + 1).round().astype(int)
    return [_sample(rng, items[a:b], per_bin) for a, b in zip(edges[:-1], edges[1:])]


def interleave(rng, strata: list[list]) -> list:
    """Merge strata so that every stretch of the cycle holds them in
    proportion: item j of a stratum of n sorts at (j + u) / n, u uniform in
    [0, 1)."""
    keyed = []
    for si, items in enumerate(strata):
        n = len(items)
        for j, item in enumerate(items):
            keyed.append(((j + rng.random()) / n, si, item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def _trivial(bases: list[Base]) -> list[Base]:
    return [b for b in bases if b.nodes == 1]


def _searched(bases: list[Base], max_nodes, verdict: str | None = None) -> list[Base]:
    return [b for b in bases if 1 < b.nodes <= max_nodes[b.shape]
            and (verdict is None or b.verdict == verdict)]


class Workload:
    name = ""

    def draw(self, ref: Reference, rng) -> list:
        """Seeded draw of instance descriptions; no program code runs."""
        raise NotImplementedError

    def build(self, drawn: list) -> list[Query]:
        """Set-up proper: instance generation and base-tree solves."""
        raise NotImplementedError

    def expect(self, ref: Reference, drawn: list, queries: list[Query]) -> None:
        """Attach reference verdicts; runs outside every timed region."""
        raise NotImplementedError


class Scratch(Workload):
    name = "scratch"
    # (trivial draws, work bins, draws per bin) per shape: trivial instances
    # close at the root; searched ones split at least once. Many small bins
    # and one query per instance in a pass keep every seed's mix alike.
    PLAN = {A: (10, 45, 2), B: (4, 1, 6)}
    # (3,8,8,1) searches cost 0.2-2 s at 5-9 nodes; at most 5 keeps a pass
    # at about a hundred solves
    MAX_NODES = {A: 9, B: 5}

    def draw(self, ref, rng):
        strata = []
        for shape, (trivial, bins, per_bin) in self.PLAN.items():
            bases = ref.catalog(shape)
            strata.append(_sample(rng, _trivial(bases), trivial))
            strata.extend(by_work(rng, _searched(bases, self.MAX_NODES),
                                  lambda b: (b.work, b.seed), bins, per_bin))
        return interleave(rng, strata)

    def build(self, drawn):
        out = []
        for base in drawn:
            net, prop = base_instance(base.shape, base.seed)
            out.append(Query(base.key, net, prop, _scratch_run(net, prop)))
        return out

    def expect(self, ref, drawn, queries):
        for q, base in zip(queries, drawn):
            q.expect = ref.base_verdict(base.shape, base.seed)


def _grid_work(ref: Reference, grid):
    def work(b: Base):
        return sum(ref.perturbed_work(b.shape, b.seed, p) for p in grid(b.seed)), b.seed
    return work


def _finished(ref: Reference, bases: list[Base], grid) -> list[Base]:
    """Bases whose every grid query finished when the store was built (see
    make_reference.REVERIFY_CALLS)."""
    return [b for b in bases
            if all(ref.perturbed_work(b.shape, b.seed, p) is not None for p in grid(b.seed))]


class Reverify(Workload):
    """Queries that re-verify a perturbed network against the stored tree of
    its base; `draw` gives (base, perturbation) pairs."""

    def build(self, drawn):
        """Solve each drawn base once, keep its tree as JSON, and perturb its
        network once per query."""
        trees: dict[str, dict] = {}
        nets: dict[str, tuple] = {}
        out = []
        for base, p in drawn:
            if base.key not in trees:
                net, prop = base_instance(base.shape, base.seed)
                _, tree = solver.solve(net, prop)
                trees[base.key] = tree.to_json()
                nets[base.key] = (net, prop)
            net, prop = nets[base.key]
            m = perturb(net, p)
            out.append(Query(pert_key(base.shape, base.seed, p), m, prop,
                             _replay_run(m, prop, trees[base.key])))
        return out

    def expect(self, ref, drawn, queries):
        for q, (base, p) in zip(queries, drawn):
            q.expect = ref.perturbed_verdict(base.shape, base.seed, p)


class Replay(Reverify):
    name = "replay"
    # (work bins, bases per bin) per shape; each base brings its whole grid.
    # (3,8,8,1) has a single searched UNSAT base of at most MAX_NODES nodes.
    PLAN = {A: (20, 1), B: (1, 1)}

    def draw(self, ref, rng):
        strata = []
        for shape, (bins, per_bin) in self.PLAN.items():
            bases = _finished(ref, _searched(ref.catalog(shape), MAX_NODES, "unsat"), paper_grid)
            for group in by_work(rng, bases, _grid_work(ref, paper_grid), bins, per_bin):
                strata.append([(b, p) for b in group for p in paper_grid(b.seed)])
        return interleave(rng, strata)


class Repair(Reverify):
    name = "repair"
    # (base verdict, grid, heaviest queries drawn whole, work bins of one
    # base each) per half, (2,5,5,1) only. The heaviest queries of a half are
    # the same for every seed, so the tail and the throughput do not hang on
    # which of them a seed draws; each drawn base brings the rest of its grid.
    # SAT trees bring most queries, so the median sits among their witness
    # re-checks rather than on the gap between those and the re-searches.
    PLAN = (("sat", paper_grid, 6, 12), ("unsat", break_grid, 6, 8))
    # a query whose stored work passes this many traced calls is not drawn:
    # that is the heaviest 3 % or so, 50 ms to 0.7 s each, and any one of
    # them would outweigh the rest of a pass
    MAX_QUERY_WORK = 500

    def draw(self, ref, rng):
        def work(q):
            base, p = q
            return ref.perturbed_work(A, base.seed, p), base.seed, p.seed

        strata = []
        for verdict, grid, top, bins in self.PLAN:
            bases = _finished(ref, _searched(ref.catalog(A), MAX_NODES, verdict), grid)
            queries = sorted(((b, p) for b in bases for p in grid(b.seed)
                              if work((b, p))[0] <= self.MAX_QUERY_WORK), key=work)
            strata.append(queries[-top:])
            rest: dict[Base, list] = {}
            for q in queries[:-top]:
                rest.setdefault(q[0], []).append(q)

            def rest_work(b):
                return sum(work(q)[0] for q in rest[b]), b.seed

            def fallback_share(b):
                recs = [ref.perturbed_record(A, b.seed, p) for _, p in rest[b]]
                visited = sum(r["replayed"] + r["fallbacks"] for r in recs)
                share = sum(r["fallbacks"] for r in recs) / visited if visited else 0.0
                return share, rest_work(b)

            # the half of the bases whose stored leaves fell back least, and
            # the other half, each drawn by work bins: every seed gets the
            # same mix of trees that replay and trees that fall back, so
            # replay_pct does not hang on the draw either
            ranked = sorted(rest, key=fallback_share)
            mid = len(ranked) // 2
            for group in (ranked[:mid], ranked[mid:]):
                for picked in by_work(rng, group, rest_work, bins // 2, 1):
                    strata.extend(rest[b] for b in picked)
        return interleave(rng, strata)


WORKLOADS = {w.name: w for w in (Scratch(), Replay(), Repair())}


def setup(workload: Workload, ref: Reference, seed: int):
    """Returns (drawn, queries). Callers time this as the set-up."""
    rng = np.random.default_rng(seed % 2**63)  # numpy rejects negative seeds
    drawn = workload.draw(ref, rng)
    return drawn, workload.build(drawn)
