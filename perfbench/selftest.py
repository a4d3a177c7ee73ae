"""Self-tests of the benchmark harness itself.

    python3 perfbench/selftest.py

1. Failure accounting: a stub query that raises and one that returns a
   wrong verdict each count as failed, and the run carries on.
2. Tail percentile: the reported rank keeps at least ten samples beyond it.
3. Counter determinism: for every workload, two traced runs at seed
   DETERMINISM_SEED give identical call counts (LP pivots among them), node
   and incremental counters.
4. Known defects (reported, not asserted): the cases recorded in
   BENCHMARK.json's replay and repair descriptions, one raising and one
   never finishing, still do so, or no longer do.

Exits 0 when checks 1-3 pass.
"""

from __future__ import annotations

import sys

from run import HERE, Outcomes, _import_program, closed_loop, tail, trace

DETERMINISM_SEED = 0
# (base seed, gamma, fraction, perturbation seed) of (2,5,5,1) instances on
# which verify_incremental fails; no workload draws them
KNOWN_DEFECTS = ((28, 0.5, 1.0, 901), (587, 0.5, 1.0, 32263))
DETERMINISTIC = ("solver.nodes", "incremental.replayed",
                 "incremental.fallbacks", "incremental.pruned", "prooftree.nodes_out",
                 "lp.phase1.cap_hits")


class _Stub:
    def __init__(self, key, run, expect="unsat"):
        self.key, self.run, self.expect = key, run, expect
        self.net = self.prop = None


def check_failure_accounting() -> list[str]:
    from incremark.model import UNSAT, Verdict

    def boom():
        raise RuntimeError("stub failure")

    queries = [
        _Stub("ok", lambda: (UNSAT, None)),
        _Stub("raises", boom),
        _Stub("wrong", lambda: (Verdict(False), None), expect="sat"),
    ]
    out = Outcomes()
    times, _ = closed_loop(queries, 0.0, out)  # stops after one query
    errors = []
    if (out.attempted, out.failed) != (1, 0) or len(times) != 1:
        errors.append(f"zero-second loop ran {out.attempted} queries")
    out = Outcomes()
    for q in queries:
        times, _ = closed_loop([q], 0.0, out)
    if (out.attempted, out.failed, out.wrong) != (3, 2, 1):
        errors.append(f"stub run counted attempted={out.attempted} failed={out.failed} "
                      f"wrong={out.wrong}, expected 3, 2, 1")
    return errors


def check_tail() -> list[str]:
    errors = []
    for n in (5, 11, 20, 200, 5000):
        p, v = tail([float(i) for i in range(n)])
        beyond = sum(1 for i in range(n) if i > v)
        if beyond != min(10, n - 1) or abs(p - 100.0 * (n - beyond) / n) > 1e-9:
            errors.append(f"n={n}: p{p} leaves {beyond} samples beyond")
    return errors


def check_determinism(w) -> list[str]:
    from catalog import Reference

    ref = Reference.load()
    runs = [trace(w, ref, DETERMINISM_SEED)[1] for _ in range(2)]
    keys = [k for k in runs[0] if k.endswith(".calls") or k in DETERMINISTIC]
    return [f"{k}: {runs[0][k][0]} vs {runs[1][k][0]}"
            for k in keys if runs[0][k][0] != runs[1][k][0]]


def report_known_defects() -> list[str]:
    from catalog import A, base_instance
    from incremark.bench import Perturbation, oracle, perturb
    from incremark.solver import solve
    from make_reference import reverify_counted

    out = []
    for s, gamma, fraction, pseed in KNOWN_DEFECTS:
        net, prop = base_instance(A, s)
        _, tree = solve(net, prop)
        p = Perturbation(gamma, fraction, pseed)
        m = perturb(net, p)
        outcome, _ = reverify_counted(m, prop, tree.to_json())
        out.append(f"(2,5,5,1) seed {s}, Perturbation({gamma}, {fraction}, {pseed}): "
                   f"verify_incremental gave {outcome}; oracle {oracle(m, prop).name}")
    return out


def main() -> int:
    _import_program()
    from workloads import WORKLOADS

    checks = [("failure accounting", check_failure_accounting),
              ("tail percentile", check_tail)]
    checks += [(f"counter determinism ({w.name}, seed {DETERMINISM_SEED})",
                lambda w=w: check_determinism(w)) for w in WORKLOADS.values()]
    failures = 0
    for name, check in checks:
        errors = check()
        print(f"{name}: {'ok' if not errors else 'FAILED'}", flush=True)
        for e in errors:
            print(f"  {e}")
        failures += bool(errors)
    for line in report_known_defects():
        print(f"known defect: {line}")
    print(f"traces in {HERE / 'out'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
