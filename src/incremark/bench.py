"""Experiment harness: weight perturbations, the exact small-net oracle, and
scratch-vs-incremental comparison runs emitting a CSV report.

The oracle enumerates activation patterns with its own plain interval
propagation for pruning, then decides each surviving pattern with an exact
LP (all ReLUs decided, so the relaxation has no slack). Its intervals are
its own; it tests them against a sign assertion with `constants.apart` and
against the property with `deeppoly.is_property_refuted`, the refutation
tests every other path uses. It shares the LP module but none of the search
machinery, which keeps it usable as ground truth for the solvers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .constants import apart
from .deeppoly import NONNEG, NONPOS, SIGN_RANGE, Bounds, is_property_refuted
from .incremental import verify_incremental
from .model import (
    UNSAT,
    LinearConstraint,
    Network,
    SafetyProperty,
    Verdict,
    evaluate,
)
from .solver import solve

WEIGHTS = "weights"
WEIGHTS_AND_BIASES = "weights+biases"

ORACLE_MAX_RELUS = 16

CSV_HEADER = "gamma,fraction,seed,verdict_scratch,ms_scratch,verdict_inc,ms_inc,replay_pct,agree"


@dataclass(frozen=True)
class Perturbation:
    """Uniform random weight change: each chosen entry w is resampled from
    [(1-gamma)w, (1+gamma)w]."""

    gamma: float
    fraction: float = 1.0
    seed: int = 0
    scope: str = WEIGHTS

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be a finite number >= 0, got {self.gamma!r}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.scope not in (WEIGHTS, WEIGHTS_AND_BIASES):
            raise ValueError(f"unknown scope {self.scope!r}")


def perturb(net: Network, p: Perturbation) -> Network:
    """Resample ceil(fraction * total) entries, chosen without replacement.

    Unchosen entries are copied bitwise; gamma = 0 leaves even the chosen
    ones identical. Deterministic in the seed. ValueError when an entry's
    interval, or its width, is not a finite float.
    """
    rng = np.random.default_rng(p.seed)
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    arrays = list(weights)
    if p.scope == WEIGHTS_AND_BIASES:
        arrays.extend(biases)
    total = sum(a.size for a in arrays)
    count = math.ceil(p.fraction * total)
    chosen = rng.choice(total, size=count, replace=False)
    for flat in sorted(int(i) for i in chosen):
        ai = 0
        while flat >= arrays[ai].size:
            flat -= arrays[ai].size
            ai += 1
        w = float(arrays[ai].flat[flat])
        a, b = sorted(((1.0 - p.gamma) * w, (1.0 + p.gamma) * w))
        if not math.isfinite(b - a):
            raise ValueError(f"resampling interval [{a}, {b}] of weight {w} is not finite")
        arrays[ai].flat[flat] = rng.uniform(a, b)
    return Network(weights, biases, list(net.activations))


def oracle(net: Network, prop: SafetyProperty) -> Verdict:
    """Exhaustive decision by activation-pattern enumeration (k <= 16).

    Patterns are pruned with interval arithmetic; each survivor becomes an
    exact LP (pattern equalities + signs + box + property rows). SAT iff some
    pattern is feasible; the LP vertex restricted to the inputs is the
    witness. RuntimeError when no pattern gave a witness and the LP could
    not decide some pattern (`lp.decide`).
    """
    lay = net.layout
    pres = [pre for pre, _ in lay.relu_pairs]
    if len(pres) > ORACLE_MAX_RELUS:
        raise ValueError(f"oracle limited to {ORACLE_MAX_RELUS} ReLU neurons, got {len(pres)}")
    if prop.negation_empty:
        return UNSAT

    def propagate(signs: dict[int, str]):
        """Interval propagation with sign clamps, as lists by variable id;
        None when a clamp empties an interval."""
        lo = [float(l) for l, _ in prop.box]
        hi = [float(h) for _, h in prop.box]
        prev = lay.input_ids
        for li in range(net.n_layers):
            w, b = net.weights[li], net.biases[li]
            for j, pre in enumerate(lay.pre_ids[li]):
                l = h = float(b[j])
                for k in range(w.shape[1]):
                    c = float(w[j, k])
                    if c == 0.0:
                        continue
                    pl, ph = lo[prev[k]], hi[prev[k]]
                    l += min(c * pl, c * ph)
                    h += max(c * pl, c * ph)
                sign = signs.get(pre)
                if sign is not None:
                    slo, shi = SIGN_RANGE[sign]
                    if apart(l, h, slo, shi):
                        return None
                    l, h = min(max(l, slo), shi), min(max(h, slo), shi)
                lo.append(l)
                hi.append(h)
            if lay.post_ids[li] is not lay.pre_ids[li]:
                for pre in lay.pre_ids[li]:
                    off = signs.get(pre) == NONPOS
                    lo.append(0.0 if off else max(0.0, lo[pre]))
                    hi.append(0.0 if off else max(0.0, hi[pre]))
            prev = lay.post_ids[li]
        return lo, hi

    undecided = 0

    def search(i: int, signs: dict[int, str]):
        nonlocal undecided
        iv = propagate(signs)
        if iv is None:
            return None
        bounds = Bounds(*iv, output_ids=tuple(lay.output_ids))
        if is_property_refuted(bounds, prop):
            return None
        if i == len(pres):
            witness, cert = lp.decide(net, prop, bounds)
            undecided += witness is None and cert is None
            return witness
        pre = pres[i]
        for sign in (NONNEG, NONPOS):
            signs[pre] = sign
            w = search(i + 1, signs)
            if w is not None:
                return w
        del signs[pre]
        return None

    w = search(0, {})
    if w is None and undecided:
        raise RuntimeError(f"no witness found, and the branch LP could not decide "
                           f"{undecided} activation pattern(s)")
    return Verdict(True, w) if w is not None else UNSAT


class OracleDisagreement(RuntimeError):
    """A solver verdict contradicted the exact oracle; carries the CSV built
    so far so partial results survive the abort."""

    def __init__(self, message: str, csv_text: str):
        super().__init__(message)
        self.csv_text = csv_text


@dataclass
class CompareReport:
    rows: list[dict] = field(default_factory=list)
    replay_by_gamma: dict[float, float] = field(default_factory=dict)

    @property
    def all_agree(self) -> bool:
        return all(r["agree"] for r in self.rows)

    @property
    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f'{r["gamma"]},{r["fraction"]},{r["seed"]},'
                f'{r["verdict_scratch"]},{r["ms_scratch"]:.3f},'
                f'{r["verdict_inc"]},{r["ms_inc"]:.3f},'
                f'{r["replay_pct"]:.1f},{"true" if r["agree"] else "false"}'
            )
        return "\n".join(lines) + "\n"

    def summary_lines(self) -> list[str]:
        return [
            f"gamma={g:g} mean_replay_pct={pct:.1f}"
            for g, pct in sorted(self.replay_by_gamma.items())
        ]


def compare(net: Network, prop: SafetyProperty, perturbations) -> CompareReport:
    """Run scratch and incremental verification on each perturbed network.

    The base network's tree guides every incremental run. When the net is
    small enough the oracle arbitrates and any disagreement raises
    OracleDisagreement; otherwise only scratch-vs-incremental agreement is
    recorded.
    """
    _, base_tree = solve(net, prop)
    small = len(net.layout.relu_pairs) <= ORACLE_MAX_RELUS
    report = CompareReport()
    acc: dict[float, list[float]] = {}
    for p in perturbations:
        modified = perturb(net, p)
        t0 = time.perf_counter()
        v_scratch, _ = solve(modified, prop)
        ms_scratch = 1000.0 * (time.perf_counter() - t0)
        t0 = time.perf_counter()
        v_inc, inc_rep, _ = verify_incremental(modified, prop, base_tree)
        ms_inc = 1000.0 * (time.perf_counter() - t0)
        agree = v_scratch.name == v_inc.name
        oracle_name = None
        if small:
            oracle_name = oracle(modified, prop).name
            agree = agree and v_scratch.name == oracle_name
        report.rows.append({
            "gamma": p.gamma, "fraction": p.fraction, "seed": p.seed,
            "verdict_scratch": v_scratch.name, "ms_scratch": ms_scratch,
            "verdict_inc": v_inc.name, "ms_inc": ms_inc,
            "replay_pct": inc_rep.replay_pct, "agree": agree,
        })
        acc.setdefault(p.gamma, []).append(inc_rep.replay_pct)
        if small and not agree:
            raise OracleDisagreement(
                f"verdicts diverge at gamma={p.gamma} fraction={p.fraction} "
                f"seed={p.seed}: scratch={v_scratch.name} inc={v_inc.name} "
                f"oracle={oracle_name}",
                report.csv_text,
            )
    report.replay_by_gamma = {g: sum(v) / len(v) for g, v in acc.items()}
    return report


def random_network(dims, seed: int) -> Network:
    """Uniform weights in [-1,1], biases in [-0.5,0.5], ReLU hidden layers."""
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-1.0, 1.0, (dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    biases = [rng.uniform(-0.5, 0.5, dims[i + 1]) for i in range(len(dims) - 1)]
    return Network(weights, biases)


def random_threshold_property(net: Network, seed: int) -> SafetyProperty:
    """Random box in [-1,1]^m and a threshold y >= t placed near the sampled
    output maximum, so SAT and UNSAT instances both occur."""
    if net.dims[-1] != 1:
        raise ValueError("threshold generator expects a single output")
    rng = np.random.default_rng(seed)
    m = net.dims[0]
    a = rng.uniform(-1.0, 1.0, m)
    b = rng.uniform(-1.0, 1.0, m)
    box = [(float(min(x, y)), float(max(x, y))) for x, y in zip(a, b)]
    pts = rng.uniform([l for l, _ in box], [h for _, h in box], size=(64, m))
    ys = [evaluate(net, x)[0] for x in pts]
    spread = max(ys) - min(ys)
    t = max(ys) + rng.uniform(-0.25, 0.25) * (spread + 0.2)
    return SafetyProperty(tuple(box), (LinearConstraint((1.0,), float(t)),))
