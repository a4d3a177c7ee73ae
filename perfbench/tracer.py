"""Span recorder for the traced run.

Spans are recorded from outside the program: `instrument` swaps each traced
public function for a wrapper at every module attribute the program looks it
up through, and restores the originals on exit. A span is (name, start, end,
parent, query); spans live in flat arrays while the run lasts and are written
out once, when it ends.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

from incremark import deeppoly, incremental, lp, simplex, solver
from incremark import prooftree as pt

QUERY = "query"

# layer prefix of every span name, for the per-layer shares; `query` self
# time is the harness between calls plus any untraced program code it calls
LAYERS = ("deeppoly", "simplex", "lp", "solver", "incremental", "prooftree")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self._stack: list[int] = []
        self.current_query = -1
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.current_query)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None, skip=None):
        """Wrapper recording one span per call; `after(result, args)` reads
        counters off the result, and `skip(args)` exempts calls that do no
        work (a cached LP status). `open` and `close` are inlined: the
        wrapper runs once per pivot, so its own cost is the trace overhead."""
        nid = self.intern(name)
        clock = time.perf_counter
        stack = self._stack
        names, parents, queries = self.name, self.parent, self.query
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            queries.append(self.current_query)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- aggregation ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "query": np.frombuffer(self.query, dtype=np.int32).copy(),
        }

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self time is a span's duration
        minus the durations of its direct children."""
        a = self.arrays()
        n = len(a["name"])
        if n == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        selfs = np.bincount(a["name"], weights=own, minlength=k)
        return {nm: (int(calls[i]), float(selfs[i])) for i, nm in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _phase1_cached(args) -> bool:
    return args[0].status is not None


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every traced function where the program looks it up."""
    c = tracer.counts
    sec = tracer.seconds

    def after_phase1(status, _args):
        if status == lp.INFEASIBLE:
            c["lp.phase1.infeasible"] += 1
        elif status == lp.CAP:
            c["lp.phase1.cap_hits"] += 1

    def after_solve(result, _args):
        c["solver.nodes"] += len(result[1].nodes)

    def after_verify(result, _args):
        rep = result[1]
        c["incremental.replayed"] += rep.replayed
        c["incremental.fallbacks"] += rep.fallbacks
        c["incremental.pruned"] += rep.pruned
        sec["incremental.open_leaves_s"] += rep.times.get("open_leaves", 0.0)
        sec["incremental.unsat_leaves_s"] += rep.times.get("unsat_leaves", 0.0)

    def after_to_json(doc, _args):
        c["prooftree.nodes_out"] += len(doc["nodes"])

    # (span name, original, lookup sites, after, skip)
    plan = [
        ("deeppoly.analyze", deeppoly.analyze,
         [(solver, "analyze"), (incremental, "analyze"), (lp, "analyze")], None, None),
        ("simplex.repair_step", simplex.repair_step, [(solver, "repair_step")], None, None),
        ("simplex.pivot", simplex.pivot, [(simplex, "pivot")], None, None),
        ("simplex.recompute", simplex.recompute, [(simplex, "recompute")], None, None),
        ("simplex.check_unsat_rows", simplex.check_unsat_rows,
         [(solver, "check_unsat_rows"), (incremental, "check_unsat_rows")], None, None),
        ("simplex.refresh_bounds", simplex.refresh_bounds,
         [(solver, "refresh_bounds"), (incremental, "refresh_bounds")], None, None),
        ("lp.build", lp.build, [(lp, "build")], None, None),
        ("lp.phase1", lp.phase1, [(lp, "phase1")], after_phase1, _phase1_cached),
        ("lp.pivot", lp.pivot, [(lp, "pivot")], None, None),
        ("lp.tighten", lp.tighten_inputs_then_repropagate,
         [(lp, "tighten_inputs_then_repropagate")], None, None),
        ("solver.solve", solver.solve, [(solver, "solve")], after_solve, None),
        ("incremental.verify", incremental.verify_incremental,
         [(incremental, "verify_incremental")], after_verify, None),
        ("prooftree.from_json", pt.from_json, [(pt, "from_json")], None, None),
        ("prooftree.to_json", pt.ProofTree.to_json, [(pt.ProofTree, "to_json")],
         after_to_json, None),
    ]
    saved = []
    try:
        for name, fn, sites, after, skip in plan:
            wrapper = tracer.wrap(name, fn, after, skip)
            for owner, attr in sites:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
