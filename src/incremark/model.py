"""Network and property model, variable numbering, and the text file formats.

A network is a stack of affine layers, each followed by a ReLU except
(optionally) the last. Every quantity the verifier talks about gets a global
variable id:

    inputs, then per layer its pre-activation neurons followed by its
    post-activation neurons (a layer without a ReLU reuses its
    pre-activation ids as its outputs).

The layout numbers neurons only; the tableau numbers its slack variables
after them (`simplex.encoded_equations`). The numbering is a pure function
of the layer dimensions, so trees recorded for one network apply to any
same-shaped network.

A property computes once the facts that its constraints imply
(`LinearConstraint.terms`, `SafetyProperty.output_bounds` and
`negation_empty`); every other module reads them there.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import EPS_SAT, apart

RELU = "relu"
NONE = "none"


@dataclass(frozen=True)
class LinearConstraint:
    """One conjunct of the negated property: coeffs . y >= threshold."""

    coeffs: tuple[float, ...]
    threshold: float

    @cached_property
    def terms(self) -> tuple[tuple[int, float], ...]:
        """(output index, coefficient) of each nonzero coefficient."""
        return tuple((j, float(a)) for j, a in enumerate(self.coeffs) if a != 0.0)


@dataclass(frozen=True)
class SafetyProperty:
    """Input box plus the negated output property (conjunction of >=).

    An empty constraint tuple is the explicit empty-negation marker: the
    negation is unsatisfiable and verification is immediately UNSAT. Every
    constraint has the same number of coefficients, one per output.
    """

    box: tuple[tuple[float, float], ...]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self) -> None:
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"input box bound is not a finite number: [{lo}, {hi}]")
            if lo > hi:
                raise ValueError(f"empty input box: [{lo}, {hi}]")
        for c in self.constraints:
            if not all(map(math.isfinite, (c.threshold, *c.coeffs))):
                raise ValueError(f"constraint ge {c.threshold} {c.coeffs} holds a value that is "
                                 "not a finite number")
        if len({len(c.coeffs) for c in self.constraints}) > 1:
            raise ValueError("inconsistent coefficient counts")

    @cached_property
    def output_bounds(self) -> tuple[list[float], list[float]]:
        """Per output, the interval (lo, hi) that the constraints over that
        output alone put on it: a*y >= c bounds y by c/a."""
        n = len(self.constraints[0].coeffs) if self.constraints else 0
        lo, hi = [-math.inf] * n, [math.inf] * n
        for c in self.constraints:
            if len(c.terms) == 1:
                [(j, a)] = c.terms
                if a > 0:
                    lo[j] = max(lo[j], c.threshold / a)
                else:
                    hi[j] = min(hi[j], c.threshold / a)
        return lo, hi

    @cached_property
    def negation_empty(self) -> bool:
        """Is the negated property unsatisfiable on its own? True for the
        empty negation, and when the single-output constraints on one output
        are `apart` (y <= 0.5 and y >= 0.6): no equation states such a
        clash, so no certificate can show it."""
        return not self.constraints or any(apart(l, math.inf, -math.inf, h)
                                           for l, h in zip(*self.output_bounds))


@dataclass(frozen=True)
class Verdict:
    sat: bool
    witness: tuple[float, ...] | None = None

    @property
    def name(self) -> str:
        return "sat" if self.sat else "unsat"


UNSAT = Verdict(False)


class Network:
    """Feed-forward ReLU network with per-layer activation flags."""

    def __init__(self, weights, biases, activations=None):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        k = len(self.weights)
        if len(self.biases) != k or k == 0:
            raise ValueError("need matching weight/bias lists")
        if activations is None:
            activations = [RELU] * (k - 1) + [NONE]
        self.activations = list(activations)
        if len(self.activations) != k:
            raise ValueError("one activation flag per layer")
        for i, act in enumerate(self.activations):
            if act not in (RELU, NONE):
                raise ValueError(f"unknown activation {act!r}")
            if act == NONE and i != k - 1:
                raise ValueError("'none' is only permitted on the final layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.size == 0:  # a layer without neurons or without inputs
                raise ValueError(f"layer {i + 1}: a layer width is below 1")
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i + 1}: bad weight/bias shape")
            if i and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i + 1}: expects {self.weights[i - 1].shape[0]} "
                                 f"inputs, got {w.shape[1]}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i + 1}: a weight or bias is not a finite number")
        self.dims = (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))
        self.layout = VariableLayout(self.dims, tuple(self.activations))

    @property
    def n_inputs(self) -> int:
        return self.dims[0]

    @property
    def n_outputs(self) -> int:
        return self.dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.activations == other.activations
            and all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights))
            and all(np.array_equal(a, b) for a, b in zip(self.biases, other.biases))
        )


@dataclass
class VariableLayout:
    """Global ids of the neurons of a network shape, a pure function of
    (dims, activations); the tableau's slacks are numbered after them."""

    dims: tuple[int, ...]
    activations: tuple[str, ...]
    input_ids: list[int] = field(init=False)
    pre_ids: list[list[int]] = field(init=False)    # per layer 1..k
    post_ids: list[list[int]] = field(init=False)   # per layer; == pre_ids for 'none'
    output_ids: list[int] = field(init=False)
    neuron_ids: list[int] = field(init=False)  # inputs, then each layer's pre, post
    relu_pairs: list[tuple[int, int]] = field(init=False)
    relu_post: dict[int, int] = field(init=False)  # ReLU pre id -> post id
    pre_row: dict[int, tuple[int, int]] = field(init=False)  # pre id -> (layer, row)

    def __post_init__(self) -> None:
        self.input_ids = list(range(self.dims[0]))
        self.pre_ids, self.post_ids, self.relu_pairs, self.pre_row = [], [], [], {}
        nxt = self.dims[0]
        for i, n in enumerate(self.dims[1:]):
            pre = list(range(nxt, nxt + n))
            nxt += n
            self.pre_ids.append(pre)
            self.pre_row.update((p, (i, j)) for j, p in enumerate(pre))
            if self.activations[i] == RELU:
                post = list(range(nxt, nxt + n))
                nxt += n
                self.post_ids.append(post)
                self.relu_pairs.extend(zip(pre, post))
            else:
                self.post_ids.append(pre)
        self.output_ids = self.post_ids[-1]
        self.relu_post = dict(self.relu_pairs)
        self.neuron_ids = list(range(nxt))


def neuron_values(net: Network, x) -> np.ndarray:
    """Exact forward pass: the value of every neuron at input x, indexed by
    its layout id (inputs, then each layer's pre-activations and, after a
    ReLU, its posts); raises on dimension mismatch."""
    v = np.asarray(x, dtype=float)
    if v.shape != (net.n_inputs,):
        raise ValueError(f"expected {net.n_inputs} inputs, got shape {v.shape}")
    out = [v]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        v = w @ v + b
        out.append(v)
        if act == RELU:
            v = np.maximum(v, 0.0)
            out.append(v)
    return np.concatenate(out)


def evaluate(net: Network, x) -> np.ndarray:
    """Exact forward pass: the outputs at input x, the last entries of
    `neuron_values`; raises on dimension mismatch. It keeps no layer it has
    passed: `bench.random_threshold_property` calls it 64 times per property,
    where building the whole vector costs set-up time."""
    v = np.asarray(x, dtype=float)
    if v.shape != (net.n_inputs,):
        raise ValueError(f"expected {net.n_inputs} inputs, got shape {v.shape}")
    for w, b, act in zip(net.weights, net.biases, net.activations):
        v = w @ v + b
        if act == RELU:
            v = np.maximum(v, 0.0)
    return v


def witness_values(net: Network, prop: SafetyProperty, x, eps: float = EPS_SAT):
    """`neuron_values(net, x)` when x is a SAT witness, else None: one
    forward pass that both judges the point and gives its pre-activations.

    A SAT witness must be a finite point that sits in the box, whose
    outputs are finite, and that violates the property, i.e. satisfies
    every negated constraint, within eps. A constraint adds its nonzero
    terms one by one, from 0.0, as `Configuration.row_value` does (builtin
    `sum` compensates rounding on CPython 3.12+), and a sum that is not a
    number satisfies nothing."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_inputs,) or not np.isfinite(x).all():
        return None
    for xi, (lo, hi) in zip(x, prop.box):
        if xi < lo - eps or xi > hi + eps:
            return None
    if not prop.constraints:
        return None  # empty negation: nothing can violate the property
    with np.errstate(over="ignore", invalid="ignore"):
        values = neuron_values(net, x)
    y = values[net.layout.output_ids]
    if not np.isfinite(y).all():
        return None
    for c in prop.constraints:
        total = 0.0
        for j, a in c.terms:
            total += a * float(y[j])
        if not total >= c.threshold - eps:
            return None
    return values


def witness_ok(net: Network, prop: SafetyProperty, x, eps: float = EPS_SAT) -> bool:
    """Is x a SAT witness within eps (`witness_values`)?"""
    return witness_values(net, prop, x, eps) is not None


# ---------------------------------------------------------------------------
# text formats

def _tokens(path: str) -> list[str]:
    toks: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            body = line.split("#", 1)[0]
            toks.extend(body.split())
    return toks


def load_network(path: str) -> Network:
    """Parse the `relunet` format (see save_network for the layout)."""
    toks = _tokens(path)
    pos = 0

    def take(n: int) -> list[str]:
        nonlocal pos
        if pos + n > len(toks):
            raise ValueError(f"{path}: truncated network file")
        out = toks[pos:pos + n]
        pos += n
        return out

    magic, version = take(2)
    if magic != "relunet" or version != "1":
        raise ValueError(f"{path}: not a relunet version 1 file")
    if take(1)[0] != "dims":
        raise ValueError(f"{path}: expected 'dims'")
    dims = []
    while pos < len(toks) and toks[pos] != "layer":
        dims.append(int(take(1)[0]))
    if len(dims) < 2:
        raise ValueError(f"{path}: need at least input and output dims")
    for i, d in enumerate(dims):
        if d < 1:  # a negative width would move the reads below backwards
            raise ValueError(f"layer {max(i, 1)}: a layer width is below 1")  # as `Network` says
    weights, biases, acts = [], [], []
    for i in range(1, len(dims)):
        kw, idx, act = take(3)
        if kw != "layer" or int(idx) != i:
            raise ValueError(f"{path}: expected 'layer {i}'")
        if act not in (RELU, NONE):
            raise ValueError(f"{path}: bad activation {act!r}")
        acts.append(act)
        rows = [[float(t) for t in take(dims[i - 1])] for _ in range(dims[i])]
        bias = [float(t) for t in take(dims[i])]
        weights.append(rows)
        biases.append(bias)
    if pos != len(toks):
        raise ValueError(f"{path}: trailing tokens")
    return Network(weights, biases, acts)


def save_network(net: Network, path: str) -> None:
    """Write the canonical relunet form; floats use shortest round-trip repr."""
    lines = ["relunet 1", "dims " + " ".join(str(d) for d in net.dims)]
    for i, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
        lines.append(f"layer {i + 1} {act}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(repr(float(v)) for v in b))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_property(path: str) -> SafetyProperty:
    toks = _tokens(path)
    if not toks or toks[0] != "box":
        raise ValueError(f"{path}: property file must start with 'box'")
    pos = 1
    box = []
    while pos < len(toks) and toks[pos] != "ge":
        if pos + 1 >= len(toks) or toks[pos + 1] == "ge":
            raise ValueError(f"{path}: dangling box bound")
        box.append((float(toks[pos]), float(toks[pos + 1])))
        pos += 2
    constraints = []
    while pos < len(toks):  # at a 'ge': the box and each constraint stop only there
        pos += 1
        rest = []
        while pos < len(toks) and toks[pos] != "ge":
            rest.append(float(toks[pos]))
            pos += 1
        if len(rest) < 2:
            raise ValueError(f"{path}: 'ge' needs a threshold and coefficients")
        constraints.append(LinearConstraint(tuple(rest[1:]), rest[0]))
    return SafetyProperty(tuple(box), tuple(constraints))


def save_property(prop: SafetyProperty, path: str) -> None:
    lines = ["box"]
    for lo, hi in prop.box:
        lines.append(f"{lo!r} {hi!r}")
    for c in prop.constraints:
        lines.append("ge " + " ".join(repr(float(v)) for v in (c.threshold, *c.coeffs)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def property_hash(prop: SafetyProperty) -> str:
    parts = ["box"]
    for lo, hi in prop.box:
        parts.append(f"{lo!r},{hi!r}")
    for c in prop.constraints:
        parts.append("ge:" + repr(float(c.threshold)) + ":" + ",".join(repr(float(v)) for v in c.coeffs))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
