"""Verify/re-verify benchmark for incremark.

    python3 perfbench/run.py --workload {scratch,replay,repair} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src. One
closed-loop client issues one query at a time in this process, with no
worker threads. The workload seed draws the instances (see workloads.py).
Every query's verdict is checked against the stored exact-oracle verdict,
and a SAT witness is re-checked with the benchmark's own forward pass. A run
is correct only if no query raised, gave a wrong verdict or a bad witness.

--trace 0 measures for S seconds and reports the end-to-end metrics; the
set-up is repeated SETUP_REPEATS times and its median reported. Its times
are scaled to a nominal machine speed by a probe run between queries (see
Speed); the raw times and the probe figures are in the details line. --trace 1
runs one pass over the drawn queries untraced and one traced, whatever S
is, so that its counts repeat exactly; it reports per-layer calls, self
times, counters and shares, plus the tracing overhead. The spans go to
perfbench/out/trace-<workload>.npz and the metrics to trace-<workload>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it records the environment
and the tail percentile used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 3
# the tail is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
# the probe's time at nominal machine speed: its time on a 2-vCPU virtual
# machine (Python 3.11, numpy 2.4) in that machine's faster state
PROBE_NOMINAL_S = 0.0012
# probe once per this much query time; scale by the trimmed mean of the
# this many probes around a query, and of this many probes on each side of
# a set-up
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 41
PROBES_AROUND_SETUP = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _import_program():
    """Pin BLAS/OpenMP to one thread, then import incremark from this
    checkout's src, nowhere else."""
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import incremark
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import incremark from {src}: {e}") from None
    origin = Path(incremark.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: incremark resolved to {origin}, outside {src}")


def tail(samples_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples beyond it: the sample of rank n - TAIL_BEYOND. Fewer samples
    than that give the maximum."""
    s = sorted(samples_ms)
    n = len(s)
    rank = max(1, n - TAIL_BEYOND)
    return 100.0 * rank / n, s[rank - 1]


class Outcomes:
    """Per-query accounting: one exception or wrong answer never aborts a
    run; it counts as a failed query."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # wrong verdict or invalid witness, as opposed to raising
        self.replayed = 0
        self.fallbacks = 0
        self.reported: set[str] = set()

    def record(self, q, result, error) -> None:
        from catalog import witness_violates

        self.attempted += 1
        reason = None
        if error is not None:
            reason = f"raised {type(error).__name__}: {error}"
        else:
            verdict, report = result
            if verdict.name != q.expect:
                reason = f"verdict {verdict.name}, reference {q.expect}"
            elif verdict.sat and not witness_violates(q.net, q.prop, verdict.witness):
                reason = "SAT witness fails the forward check"
            if reason is not None:
                self.wrong += 1
            if report is not None:
                self.replayed += report.replayed
                self.fallbacks += report.fallbacks
        if reason is None:
            return
        self.failed += 1
        if q.key not in self.reported:
            self.reported.add(q.key)
            print(f"perfbench: query {q.key} failed: {reason}", file=sys.stderr)

    @property
    def replay_pct(self) -> float:
        visited = self.replayed + self.fallbacks
        # same convention as IncrementalReport: nothing to replay is 100 %
        return 100.0 if visited == 0 else 100.0 * self.replayed / visited


class Speed:
    """Machine-speed probe. On a shared 2-vCPU virtual machine the speed of
    a whole process drifts by up to half over minutes and flips within
    seconds: ten runs of the same replay queries gave median query times of
    6.5 to 11.7 ms, and the probe takes 1.2 or 1.9 ms from one moment to
    the next. A fixed computation slows with the machine, so a query time
    divided by the trimmed mean of the probes taken around it, times
    PROBE_NOMINAL_S, is the time at nominal speed. The probe is pure Python
    and small numpy products, the program's own mix; it allocates little,
    so the program's state does not slow it."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.random.default_rng(0).random((12, 12)) / 12.0
        self.after: list[int] = []  # queries run before each loop probe
        self.took: list[float] = []  # seconds per loop probe

    def probe(self) -> float:
        np, a = self._np, self._a
        t0 = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i % 7
        x = a
        for _ in range(300):
            x = np.maximum(a @ x, 0.0)
        return time.perf_counter() - t0

    def sample(self, queries_run: int) -> None:
        self.after.append(queries_run)
        self.took.append(self.probe())

    def _typical(self, took) -> float:
        """Mean of the middle three fifths. Probe times are bimodal, so a
        median snaps to one mode, while a mean follows the share of time
        the machine spent in each; the trim drops stray probes."""
        x = self._np.sort(took)
        k = len(x) // 5
        return float(x[k:len(x) - k].mean())

    def fresh(self, probes: int) -> list[float]:
        return [self.probe() for _ in range(probes)]

    def factor(self, took) -> float:
        """Nominal over current speed from the given probe times."""
        return PROBE_NOMINAL_S / self._typical(took)

    def factors(self, n: int):
        """Per-query factor for n queries, from the PROBE_WINDOW loop probes
        centred on the first probe after the query."""
        np = self._np
        took = np.asarray(self.took)
        half = PROBE_WINDOW // 2
        smooth = np.array([self._typical(took[max(0, k - half):k + half + 1])
                           for k in range(len(took))])
        k = np.searchsorted(np.asarray(self.after), np.arange(n), side="right")
        return PROBE_NOMINAL_S / smooth[np.minimum(k, len(took) - 1)]


def run_one(q):
    """Run one query; returns (result, error, seconds). Only the query
    itself is inside the timed region."""
    t0 = time.perf_counter()
    try:
        result = q.run()
    except Exception as e:  # a failing query is counted, never fatal
        return None, e, time.perf_counter() - t0
    return result, None, time.perf_counter() - t0


def closed_loop(queries, seconds: float, outcomes: Outcomes, speed: Speed | None = None):
    """Cycle through the queries until `seconds` have passed; returns the
    per-query times in ms and the wall time of the loop. With `speed`, a
    probe runs after every PROBE_EVERY_S of query time and once at the end."""
    times = []
    start = time.perf_counter()
    since_probe = 0.0
    i = 0
    while True:
        q = queries[i % len(queries)]
        i += 1
        result, error, dt = run_one(q)
        outcomes.record(q, result, error)
        times.append(1000.0 * dt)
        if speed is not None:
            since_probe += dt
            if since_probe >= PROBE_EVERY_S:
                speed.sample(len(times))
                since_probe = 0.0
        if time.perf_counter() - start >= seconds:
            break
    if speed is not None and since_probe > 0.0:
        speed.sample(len(times))
    return times, time.perf_counter() - start


def environment() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def measure(workload, ref, seed: int, seconds: float):
    from workloads import setup

    speed = Speed()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.fresh(PROBES_AROUND_SETUP)
        t0 = time.perf_counter()
        drawn, queries = setup(workload, ref, seed)
        dt = time.perf_counter() - t0
        raw_setups.append(dt)
        setups.append(dt * speed.factor(before + speed.fresh(PROBES_AROUND_SETUP)))
    workload.expect(ref, drawn, queries)
    run_one(queries[0])  # warm-up, outside the measured window
    outcomes = Outcomes()
    raw, wall = closed_loop(queries, seconds, outcomes, speed)
    times = [t * f for t, f in zip(raw, speed.factors(len(raw)))]
    p, tail_ms = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (1000.0 * len(times) / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(times), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ok_frac": (1.0 - outcomes.failed / outcomes.attempted, "fraction"),
        "replay_pct": (outcomes.replay_pct, "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    probe_ms = [1000.0 * t for t in speed.took]
    details = {"tail_percentile": p, "samples": len(times), "pool": len(queries),
               "setups_s": setups, "fail_frac": outcomes.failed / outcomes.attempted,
               "wrong": outcomes.wrong,
               "raw": {"setup_s": statistics.median(raw_setups),
                       "ops_per_s": len(raw) / wall,
                       "op_ms_p50": statistics.median(raw),
                       "op_ms_tail": tail(raw)[1]},
               "probe_ms": {"nominal": 1000.0 * PROBE_NOMINAL_S, "count": len(probe_ms),
                            "min": min(probe_ms), "median": statistics.median(probe_ms),
                            "max": max(probe_ms)},
               "probe_share": sum(speed.took) / wall}
    return outcomes, metrics, details


def trace(workload, ref, seed: int):
    from tracer import LAYERS, QUERY, Tracer, instrument
    from workloads import setup

    drawn, queries = setup(workload, ref, seed)
    workload.expect(ref, drawn, queries)
    run_one(queries[0])  # warm-up

    outcomes = Outcomes()  # both passes
    t0 = time.perf_counter()
    for q in queries:
        result, error, _ = run_one(q)
        outcomes.record(q, result, error)
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    qid = tracer.intern(QUERY)
    with instrument(tracer):
        t0 = time.perf_counter()
        for j, q in enumerate(queries):
            tracer.current_query = j
            idx = tracer.open(qid)
            try:
                result = q.run()
                error = None
            except Exception as e:  # counted below, never fatal
                result, error = None, e
            finally:
                tracer.close(idx)
            outcomes.record(q, result, error)
        traced = time.perf_counter() - t0

    st = tracer.self_times()
    query_s = st.get(QUERY, (0, 0.0))
    total = sum(s for _, s in st.values())
    metrics = {}
    for name in PER_LAYER_SPANS:
        calls, self_s = st.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    c = tracer.counts
    phase1 = st.get("lp.phase1", (0, 0.0))[0]
    metrics["lp.phase1.infeasible_frac"] = (
        c["lp.phase1.infeasible"] / phase1 if phase1 else 0.0, "fraction")
    metrics["lp.phase1.cap_hits"] = (c["lp.phase1.cap_hits"], "count")
    for name in ("solver.nodes", "incremental.replayed", "incremental.fallbacks",
                 "incremental.pruned", "prooftree.nodes_out"):
        metrics[name] = (c[name], "count")
    for name in ("incremental.open_leaves_s", "incremental.unsat_leaves_s"):
        metrics[name] = (tracer.seconds[name], "s")
    for layer in LAYERS:
        own = sum(s for nm, (_, s) in st.items() if nm.split(".")[0] == layer)
        metrics[f"share.{layer}_pct"] = (100.0 * own / total if total else 0.0, "%")
    metrics["share.harness_pct"] = (100.0 * query_s[1] / total if total else 0.0, "%")
    metrics["trace.queries"] = (len(queries), "count")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    details = {"untraced_s": untraced, "traced_s": traced, "spans": len(tracer.name)}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"trace-{workload.name}.npz")
    with open(out_dir / f"trace-{workload.name}.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "details": details,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
    return outcomes, metrics, details


PER_LAYER_SPANS = (
    "deeppoly.analyze",
    "simplex.repair_step", "simplex.pivot", "simplex.recompute",
    "simplex.check_unsat_rows", "simplex.refresh_bounds",
    "lp.build", "lp.phase1", "lp.pivot", "lp.tighten",
    "solver.solve", "incremental.verify",
    "prooftree.from_json", "prooftree.to_json",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="incremark verify/re-verify benchmark")
    ap.add_argument("--workload", required=True, choices=("scratch", "replay", "repair"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_program()
    from catalog import REFERENCE_PATH, Reference
    from workloads import WORKLOADS

    if not REFERENCE_PATH.exists():
        raise SystemExit(f"perfbench: missing reference store {REFERENCE_PATH}")
    ref = Reference.load()
    workload = WORKLOADS[args.workload]
    if args.trace:
        outcomes, metrics, details = trace(workload, ref, args.seed)
    else:
        outcomes, metrics, details = measure(workload, ref, args.seed, args.seconds)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   env=environment())
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
