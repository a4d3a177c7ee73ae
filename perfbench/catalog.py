"""The closed instance catalog the workloads draw from, and its reference
verdicts.

Every instance is a base network `random_network(shape, s)` with property
`random_threshold_property(net, s + 1)`, optionally followed by one weight
perturbation from a fixed per-base grid. Because the catalog is closed, the
exact-oracle verdict of every instance any workload seed can draw is stored
in `reference.json` (written by `make_reference.py`); a run that meets an
instance missing from it stops and asks for the store to be rebuilt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from incremark.bench import Perturbation, random_network, random_threshold_property

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

A = (2, 5, 5, 1)
B = (3, 8, 8, 1)
# base seeds scanned per shape; (3,8,8,1) solves and oracle calls take
# seconds each, so its range is shorter
BASE_SEEDS = {A: range(0, 600), B: range(0, 40)}
# largest scratch tree of a base the re-verification workloads draw: set-up
# solves each drawn base, and larger trees take up to seconds per solve
MAX_NODES = {A: 9, B: 9}
# the store records tree sizes up to this many nodes; larger trees are
# abandoned while building it
SCAN_NODES = 41

# the paper grid of `incremark bench`: four magnitudes, the modified
# fraction cycling 10/30/50 percent, seeds spaced as the CLI spaces them
PAPER_GAMMAS = (0.001, 0.01, 0.03, 0.05)
PAPER_FRACTIONS = (0.1, 0.3, 0.5)
PAPER_TRIALS = 3
SEED_STRIDE = 7919
# the break grid of the repair workload: every weight resampled by 30 or
# 50 percent, so stored UNSAT trees are pruned, fall back and get grafts
BREAK_GAMMAS = (0.3, 0.5)
BREAK_TRIALS = 3


def shape_key(shape) -> str:
    return ",".join(str(d) for d in shape)


def base_key(shape, s: int) -> str:
    return f"{shape_key(shape)}:{s}"


def pert_key(shape, s: int, p: Perturbation) -> str:
    return f"{base_key(shape, s)}:{p.gamma!r}:{p.fraction!r}:{p.seed}"


def paper_grid(s: int) -> list[Perturbation]:
    out = []
    for g in PAPER_GAMMAS:
        for t in range(PAPER_TRIALS):
            run = len(out)
            out.append(Perturbation(g, PAPER_FRACTIONS[t % len(PAPER_FRACTIONS)],
                                    s + SEED_STRIDE * run))
    return out


def break_grid(s: int) -> list[Perturbation]:
    out = []
    for g in BREAK_GAMMAS:
        for _ in range(BREAK_TRIALS):
            out.append(Perturbation(g, 1.0, s + SEED_STRIDE * len(out)))
    return out


def grids(shape, s: int, verdict: str, nodes: int) -> list[Perturbation]:
    """Every perturbation of a base that some workload may draw: `replay`
    takes searched UNSAT bases of both shapes under the paper grid;
    `repair`, (2,5,5,1) only, SAT bases under the paper grid and UNSAT bases
    under the break grid."""
    if not 1 < nodes <= MAX_NODES[shape]:
        return []
    if verdict == "unsat":
        return paper_grid(s) + (break_grid(s) if shape == A else [])
    return paper_grid(s) if shape == A else []


def base_instance(shape, s: int):
    net = random_network(shape, s)
    return net, random_threshold_property(net, s + 1)


@dataclass(frozen=True)
class Base:
    shape: tuple[int, ...]
    seed: int
    verdict: str  # oracle verdict
    nodes: int  # scratch tree size when the store was built
    work: int  # traced calls of that solve: the portable cost strata use

    @property
    def key(self) -> str:
        return base_key(self.shape, self.seed)


class Reference:
    """Stored oracle verdicts, work counts and, for re-verification queries,
    replayed and fallback leaf counts, keyed by `base_key` and `pert_key`."""

    def __init__(self, data: dict):
        self.bases: dict[str, dict] = data["bases"]
        self.perturbed: dict[str, dict] = data["perturbed"]

    @classmethod
    def load(cls, path: Path = REFERENCE_PATH) -> "Reference":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def catalog(self, shape) -> list[Base]:
        out = []
        for s in BASE_SEEDS[shape]:
            rec = self.bases.get(base_key(shape, s))
            if rec is not None and rec["nodes"] is not None:
                out.append(Base(tuple(shape), s, rec["verdict"], rec["nodes"], rec["work"]))
        return out

    def perturbed_record(self, shape, s: int, p: Perturbation) -> dict:
        """verdict, work, replayed and fallbacks of one stored query."""
        key = pert_key(shape, s, p)
        rec = self.perturbed.get(key)
        if rec is None:
            raise SystemExit(f"perfbench: {key} is not in {REFERENCE_PATH.name}; "
                             "rerun perfbench/make_reference.py")
        return rec

    def base_verdict(self, shape, s: int) -> str:
        # catalog() only lists bases the store holds
        return self.bases[base_key(shape, s)]["verdict"]

    def perturbed_work(self, shape, s: int, p: Perturbation) -> int:
        return self.perturbed_record(shape, s, p)["work"]

    def perturbed_verdict(self, shape, s: int, p: Perturbation) -> str:
        return self.perturbed_record(shape, s, p)["verdict"]


def forward(weights, biases, x) -> np.ndarray:
    """The benchmark's own forward pass: ReLU on every layer but the last."""
    v = np.asarray(x, dtype=float)
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        v = np.asarray(w, dtype=float) @ v + np.asarray(b, dtype=float)
        if i < last:
            v = np.maximum(v, 0.0)
    return v


def witness_violates(net, prop, x, eps: float = 1e-6) -> bool:
    """True when x lies in the box and violates the property (satisfies every
    negated constraint), each up to eps."""
    x = np.asarray(x, dtype=float)
    if x.shape != (len(prop.box),) or not prop.constraints:
        return False
    for xi, (lo, hi) in zip(x, prop.box):
        if not lo - eps <= xi <= hi + eps:
            return False
    y = forward(net.weights, net.biases, x)
    return all(float(np.dot(c.coeffs, y)) >= c.threshold - eps for c in prop.constraints)
