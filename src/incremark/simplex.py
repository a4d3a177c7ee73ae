"""Array-tableau simplex layer: configurations, pivoting, bound repair and
the interval UNSAT row test.

A Configuration owns a tableau (one row per basic variable, written over the
non-basic ones and stored as one 2-D float array over all variable ids),
per-variable bounds, and an assignment kept by Reluplex's update and
pivot-and-update: moving a non-basic variable shifts only the basics whose
rows mention it, and a pivot shifts only the basics in the entering column
and updates their rows by one rank-1 product. Basic values therefore carry
rounding drift between steps; every value that leaves the repair loop (a
witness, the row of an infeasible LP, an LP optimum) is re-solved exactly
from its row first. Rows have no constant column: each affine equation has
a slack variable pinned to minus its bias, so a pivot is pure coefficient
algebra. `equation` defines each encoded equation and its slack's interval
over the neuron intervals of a `Bounds`; the rows and slack bounds
(`encode`, `refresh_bounds`), the branch LP and the certificate test all
read it. The array is the tableau's only form: `encode` writes each row
straight from its equation's terms, with a basic term's row in its place,
and `refresh_bounds` builds a split child's tableau from its parent's.
One level of substitution is enough: the only basic terms are
pre-activations, whose affine rows come first and name no basic.

Non-basic variables always lie within their bounds: `encode` and
`refresh_bounds` place them there, and every move (`update`, `set_variable`,
the leaving side of a pivot) sends one to a value inside them. The repair
loop relies on this, and so does the row test, which therefore tests only
rows whose basic lies outside its bounds. One scan per step finds those
basics (`out_of_bounds`); the bound repair (`bound_step`, inside
`repair_step`) takes its list, and the row test (`check_unsat_rows`) the
part of it that the search passes (see `solver`). The row test reads each
row's interval from `linear_interval`, which the property equation, the
certificate test and DeepPoly's output test read too.

Each encoded equation has a slack of its own that no other equation
mentions, so every tableau row is a combination of the equations whose
multipliers can be read off the row (`certificate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import COEF_EPS, EPS_BOUND, EPS_PIVOT, EPS_RELU, LP_ITER_FACTOR, apart


# kinds of encoded equation, each written `slack - expr = 0` and named by
# (kind, index): the affine equation and the ReLU coupling of a pre-activation
# neuron, a property constraint over two or more outputs, and the branch LP's
# chord of an undecided ReLU (see `equation`)
AFF = "aff"
RELU = "relu"
PROP = "prop"
CHORD = "chord"
EQUATION_KINDS = (AFF, RELU, PROP, CHORD)

INF = math.inf

# multipliers (kind, index, y) of encoded equations whose sum is a row that
# shows a branch empty
Certificate = tuple[tuple[str, int, float], ...]


class PivotError(ValueError):
    """Requested pivot coefficient is numerically zero."""


@dataclass(frozen=True)
class Progress:
    pass


@dataclass(frozen=True)
class Satisfied:
    witness: tuple[float, ...]


@dataclass(frozen=True)
class Stuck:
    """No single repair applies. stuck_row is set when the blocker was a
    bound violation whose row has no eligible entering variable (the row is
    then an exact certificate at the current bounds, which the branch LP's
    phase 1 reports)."""

    stuck_row: int | None = None


PROGRESS = Progress()

StepResult = Progress | Satisfied | Stuck


class Configuration:
    """Tableau + bounds + assignment + ReLU pair bookkeeping.

    Variables are numbered 0..n-1, n = len(lo). The tableau is one float
    array T with a row per basic variable and a column per variable id: row
    r reads basic[r] = sum_k T[r, k] * x_k, with zeros on every basic
    column, and pos maps a basic id to its row. A coefficient within
    COEF_EPS of zero is stored as zero. The bounds lo, hi and the assignment
    alpha are lists of Python floats by id, which the repair moves and the
    row test read one at a time. Only the constructor writes bounds: a
    configuration over other bounds is a new one (`refresh_bounds`).

    T, basic: the tableau array, its one form, which `encode` writes and
    the configuration keeps as given, and the basic id of each of its rows.
    lo, hi, alpha: lists of the bounds and values of ids 0..n-1.
    equations: slack id -> (kind, index) of the one equation it belongs to.
    violations: ReLU pre id -> its pair's repairs in this local search, and
    max_violations their running maximum (`count_repair`).
    cap: the steps that one local search, or one LP phase, may take on this
    tableau, LP_ITER_FACTOR * (rows + variables).
    """

    def __init__(self, T, basic, lo, hi, alpha, relu_pairs, input_ids, equations):
        self.T = T
        self.basic: list[int] = list(basic)
        self.pos: dict[int, int] = {b: r for r, b in enumerate(self.basic)}
        self.lo: list[float] = list(lo)
        self.hi: list[float] = list(hi)
        self.alpha: list[float] = list(alpha)
        self.relu_pairs: list[tuple[int, int]] = list(relu_pairs)
        self.input_ids: list[int] = list(input_ids)
        self.equations: dict[int, tuple[str, int]] = equations
        self.violations: dict[int, int] = {pre: 0 for pre, _ in self.relu_pairs}
        self.max_violations = 0
        self.cap = LP_ITER_FACTOR * (len(self.basic) + len(self.lo))

    def row(self, basic: int) -> list[tuple[int, float]]:
        """Row of `basic` as its (non-basic id, coefficient) pairs, in id
        order: every caller only iterates them."""
        r = self.T[self.pos[basic]]
        nz = r.nonzero()[0]
        return list(zip(nz.tolist(), r[nz].tolist()))

    def count_repair(self, pre: int) -> None:
        """Score one repair of the ReLU pair of pre-activation `pre`."""
        n = self.violations[pre] = self.violations[pre] + 1
        self.max_violations = max(self.max_violations, n)

    def row_value(self, basic: int) -> float:
        """Value of `basic` re-solved from its row: the terms added one by
        one in id order, from 0.0. Builtin `sum` is not used: on CPython
        3.12+ it compensates float rounding, and results would depend on the
        Python version."""
        alpha = self.alpha
        v = 0.0
        for k, c in self.row(basic):
            v += c * alpha[k]
        return v

    def witness(self) -> tuple[float, ...]:
        return tuple(self.alpha[i] for i in self.input_ids)


def recompute(cfg: Configuration) -> None:
    """Re-solve every row for its basic variable from the non-basic alphas,
    adding each row's terms one by one in id order, as `row_value` does
    (`np.add.accumulate` is sequential). The basics' own values are left
    out of the product: their columns hold zeros, and a zero term changes
    no sum."""
    alpha = cfg.alpha
    a = np.array(alpha)
    a[cfg.basic] = 0.0
    sums = np.add.accumulate(cfg.T * a, axis=1)[:, -1]
    for b, v in zip(cfg.basic, sums.tolist()):
        alpha[b] = v


def _shift(cfg: Configuration, col: np.ndarray, d: float) -> None:
    """Shift each basic by its coefficient in `col` x d."""
    hit = col.nonzero()[0]
    alpha, basic = cfg.alpha, cfg.basic
    for r, c in zip(hit.tolist(), col[hit].tolist()):
        alpha[basic[r]] += c * d


def update(cfg: Configuration, vid: int, value: float) -> None:
    """Move non-basic vid to value, shifting by coefficient x delta only the
    basics whose rows mention it."""
    d = value - cfg.alpha[vid]
    cfg.alpha[vid] = value
    if d != 0.0:
        _shift(cfg, cfg.T[:, vid], d)


def pivot(cfg: Configuration, leaving: int, entering: int, value: float) -> None:
    """Pivot-and-update: swap a basic and a non-basic variable, substituting
    everywhere, and move the leaving variable to `value`.

    The entering variable moves by d = (value - alpha[leaving]) / a, where a
    is its coefficient in the leaving row, and each basic whose row holds it
    by c x d. The tableau takes one rank-1 update, T += (entering column) x
    (new row), and drops the coefficients it leaves within COEF_EPS of zero.
    The new row holds exactly -1.0 at `entering` (a / -a), so the update
    zeroes the entering column by itself. Mutates cfg in place; the solution
    set is unchanged.
    """
    T = cfg.T
    r = cfg.pos[leaving]
    a = T.item(r, entering)
    if abs(a) <= EPS_PIVOT:
        raise PivotError(f"pivot coefficient {a!r} for ({leaving}, {entering})")
    alpha = cfg.alpha
    d = (value - alpha[leaving]) / a
    alpha[leaving] = value
    alpha[entering] += d
    new = T[r] / -a
    new[np.abs(new) <= COEF_EPS] = 0.0
    new[leaving] = 1.0 / a
    col = T[:, entering].copy()
    col[r] = 0.0
    _shift(cfg, col, d)
    T += col[:, None] * new
    T[np.abs(T) <= COEF_EPS] = 0.0
    new[entering] = 0.0
    T[r] = new
    cfg.basic[r] = entering
    del cfg.pos[leaving]
    cfg.pos[entering] = r


def linear_interval(terms, lo, hi) -> tuple[float, float]:
    """Interval-arithmetic range (l, h) of sum(c * x) over the (x, c) pairs
    of `terms`, with each x in [lo[x], hi[x]]: the one interval function of
    the package. The terms are added one by one in the order given, from
    0.0, and a zero coefficient adds nothing, even against an infinite
    bound. A NaN coefficient makes both ends NaN."""
    l = h = 0.0
    for x, c in terms:
        if c > 0.0:
            l += c * lo[x]
            h += c * hi[x]
        elif c != 0.0:
            l += c * hi[x]
            h += c * lo[x]
    return l, h


def out_of_bounds(cfg: Configuration) -> list[int]:
    """Sorted ids of the basics outside their bounds by more than EPS_BOUND:
    the one scan of a repair step, which `bound_step` takes and
    `check_unsat_rows` takes part of."""
    lo, hi, alpha = cfg.lo, cfg.hi, cfg.alpha
    return sorted(b for b in cfg.basic
                  if alpha[b] < lo[b] - EPS_BOUND or alpha[b] > hi[b] + EPS_BOUND)


def check_unsat_rows(cfg: Configuration, rows: list[int]) -> int | None:
    """The first basic of `rows` whose row contradicts its bounds, else None:
    the row's `linear_interval`, its terms in id order, is `apart` from the
    basic's bounds.

    The search passes basics that `out_of_bounds` found, in id order: while
    every non-basic is inside its bounds the assignment is a point of each
    row's interval, so the row of a basic within EPS_BOUND of its bounds is
    never `apart` from its bounds.
    """
    lo, hi = cfg.lo, cfg.hi
    return next((b for b in rows
                 if apart(lo[b], hi[b], *linear_interval(cfg.row(b), lo, hi))), None)


def certificate(cfg: Configuration, b: int) -> Certificate:
    """Multipliers of the encoded equations whose sum is row b.

    Row b, x_b - sum_k c_k x_k = 0, is a combination of the equations, each
    written slack - expr = 0. Matching the coefficient of each equation's
    own slack gives its multiplier: 1 for b itself, -c_k for a non-basic
    slack, 0 for any other basic one (left out).
    """
    eq = cfg.equations
    out = [(*eq[k], -c) for k, c in cfg.row(b) if k in eq]
    if b in eq:
        out.append((*eq[b], 1.0))
    return tuple(sorted(out))


def resolve_violation(cfg: Configuration, b: int, need_up: bool) -> bool:
    """Re-solve basic b exactly from its row; does it still violate its
    bound in the same direction? Run before b's row certifies anything."""
    a = cfg.alpha[b] = cfg.row_value(b)
    return a < cfg.lo[b] - EPS_BOUND if need_up else a > cfg.hi[b] + EPS_BOUND


def entering_for(cfg: Configuration, row: np.ndarray, need_up: bool) -> int | None:
    """Bland-style entering choice: lowest-id non-basic in the row (a
    coefficient vector over all ids) whose coefficient sign permits moving
    the row's value the needed way and whose own bound in that movement
    direction is not saturated."""
    alpha, lo, hi = cfg.alpha, cfg.lo, cfg.hi
    coef = row.tolist()
    for k in row.nonzero()[0].tolist():
        c = coef[k]
        if abs(c) <= EPS_PIVOT:
            continue
        if (c > 0) == need_up:
            if alpha[k] < hi[k]:
                return k
        elif alpha[k] > lo[k]:
            return k
    return None


def set_variable(cfg: Configuration, vid: int, value: float) -> bool:
    """Drive one variable to a value within its bounds, pivoting it out of
    the basis first when needed. False when the move is impossible."""
    lo, hi = cfg.lo[vid], cfg.hi[vid]
    if value < lo - EPS_RELU or value > hi + EPS_RELU:
        return False
    value = min(max(value, lo), hi)
    if vid in cfg.pos:
        d = value - cfg.alpha[vid]
        if abs(d) <= EPS_RELU / 2:
            return False
        ent = entering_for(cfg, cfg.T[cfg.pos[vid]], d > 0)
        if ent is None:
            return False
        pivot(cfg, vid, ent, value)
    else:
        update(cfg, vid, value)
    return True


def violated_relu_pair(cfg: Configuration) -> tuple[int, int] | None:
    """The lowest-id ReLU pair whose post is off relu(pre) by more than
    EPS_RELU, or None."""
    for pre, post in cfg.relu_pairs:
        if abs(cfg.alpha[post] - max(0.0, cfg.alpha[pre])) > EPS_RELU:
            return pre, post
    return None


def bound_step(cfg: Configuration, out: list[int]) -> Progress | Stuck | None:
    """One bound repair, given the basics `out` that `out_of_bounds` found:
    None when there are none.

    Otherwise the lowest-id one, out[0], leaves the basis at the violated
    bound by pivot-and-update (Bland's rule, so a run of steps terminates).
    Stuck(row) when no entering variable can move it and the exact re-solve
    confirms the violation: the row then certifies that no point within the
    bounds exists. Non-basic variables need no scan: they lie within their
    bounds (see the module docstring).
    """
    if not out:
        return None
    b = out[0]
    need_up = cfg.alpha[b] < cfg.lo[b] - EPS_BOUND
    ent = entering_for(cfg, cfg.T[cfg.pos[b]], need_up)
    if ent is None:
        return Stuck(stuck_row=b) if resolve_violation(cfg, b, need_up) else PROGRESS
    pivot(cfg, b, ent, cfg.lo[b] if need_up else cfg.hi[b])
    return PROGRESS


def repair_step(cfg: Configuration, out: list[int]) -> StepResult:
    """One move of the local search, given the basics `out` that
    `out_of_bounds` found in the configuration as it stands.

    Priority: a bound step, then the lowest-id violated ReLU pair, whose
    repair is scored (`count_repair`). Non-basics need no repair: they stay
    within their bounds (see the module docstring). Satisfied when nothing
    is violated once every basic is re-solved exactly, which takes a scan
    of its own; a violation that the re-solve brings back is another step's
    work.
    """
    step = bound_step(cfg, out)
    if step is not None:
        return step

    if (bad := violated_relu_pair(cfg)) is not None:
        pre, post = bad
        cfg.count_repair(pre)
        if set_variable(cfg, post, max(0.0, cfg.alpha[pre])):
            return PROGRESS
        if set_variable(cfg, pre, cfg.alpha[post]):
            return PROGRESS
        return Stuck()

    recompute(cfg)
    if out_of_bounds(cfg) or violated_relu_pair(cfg) is not None:
        return PROGRESS
    return Satisfied(cfg.witness())


# ---------------------------------------------------------------------------
# building the initial configuration

def relaxation(lo: float, hi: float) -> tuple[float, float, float]:
    """DeepPoly's linear bounds of relu(pre) over pre in [lo, hi]:
    relu(pre) >= lc*pre and relu(pre) <= uc*pre + uk. Returns (lc, uc, uk).

    A decided-on neuron (lo >= 0) is the identity both ways; an uncertain
    one (lo < 0 < hi) is bounded above by the chord over [lo, hi] and below
    by 0; a decided-off one is 0 both ways. `equation`'s chord and DeepPoly
    read the chord here."""
    if lo >= 0.0:
        return 1.0, 1.0, 0.0
    if hi > 0.0:
        s = hi / (hi - lo)
        return 0.0, s, -s * lo
    return 0.0, 0.0, 0.0


def equation(net, prop, kind, i, lo, hi):
    """Equation (kind, i) of the encoding and its slack's interval, as
    (terms, slack_lo, slack_hi): slack = sum(c * x for x, c in terms).

    This is the one definition of each equation. The search tableau
    and its slack bounds (`encode`, `refresh_bounds`), the branch LP's chord
    rows (`lp.build`) and the certificate test (`lp.certificate_refutes`)
    all read it:

        aff    s = W.prev - pre    s in [-b, -b]
        relu   s = post - pre      s in [max(0,-u), max(0,-l)]
        chord  s = post - k.pre    s in [-inf, -k.l],  k = u/(u-l) (`relaxation`)
        prop   s = a.y             s in [c, max(c, ub)]

    `pre` is pre-activation neuron i, with weight row W and bias b of its
    layer, interval [l, u] and ReLU output `post`. `prop` is constraint i,
    a.y >= c over two or more outputs (`LinearConstraint.terms`), and ub
    is the interval upper bound of a.y; the floor at c makes a refuted
    constraint show up in a row test, not as an inverted interval. `lo`
    and `hi` give the neuron intervals, each output's tightened by the
    single-output constraints (`neuron_bounds`). A chord exists for an
    uncertain ReLU (l < 0 < u); over any other interval it is the trivial
    equation s = 0 with s free, which shows nothing. An affine equation's
    terms keep its zero weights, which `encode` leaves out of its row.
    """
    lay = net.layout
    if kind == AFF:
        li, j = lay.pre_row[i]
        prev = lay.input_ids if li == 0 else lay.post_ids[li - 1]
        s = -float(net.biases[li][j])
        return ((i, -1.0), *zip(prev, net.weights[li][j].tolist())), s, s
    if kind == PROP:
        c = prop.constraints[i]
        terms = tuple((lay.output_ids[j], a) for j, a in c.terms)
        _, ub = linear_interval(terms, lo, hi)
        return terms, c.threshold, max(ub, c.threshold)
    l, u = lo[i], hi[i]
    post = lay.relu_post[i]
    if kind == RELU:
        return ((i, -1.0), (post, 1.0)), max(0.0, -u), max(0.0, -l)
    if not l < 0.0 < u:
        return (), -INF, INF
    _, k, uk = relaxation(l, u)
    return ((i, -k), (post, 1.0)), -INF, uk


def encoded_equations(net, prop) -> dict[int, tuple[str, int]]:
    """Slack id -> (kind, index) of each equation of the search tableau, in
    the order `initialize` installs their rows: the affine equations layer
    by layer, the ReLU couplings, then the property constraints over two or
    more outputs (a single-output one bounds its output instead). Slack ids
    follow the neurons': the ReLU couplings' first, then the affine
    equations', then the property constraints'; the branch LP's chords come
    after."""
    lay = net.layout
    relu = len(lay.neuron_ids)
    aff = relu + len(lay.relu_pairs)
    out = {aff + n: (AFF, pre) for n, pre in enumerate(lay.pre_row)}
    out.update((relu + n, (RELU, pre)) for n, (pre, _) in enumerate(lay.relu_pairs))
    multi = [i for i, c in enumerate(prop.constraints) if len(c.terms) >= 2]
    out.update((aff + len(lay.pre_row) + n, (PROP, i)) for n, i in enumerate(multi))
    return out


def neuron_bounds(net, prop, bounds):
    """Copies of the neuron intervals of `bounds`, each output's tightened
    by the constraints over that output alone (`SafetyProperty.output_bounds`)."""
    lo, hi = list(bounds.lo), list(bounds.hi)
    for v, l, h in zip(net.layout.output_ids, *prop.output_bounds):
        lo[v] = max(lo[v], l)
        hi[v] = min(hi[v], h)
    return lo, hi


def initialize(net, prop, bounds) -> Configuration:
    """Standard encoding: the search tableau of the equations of
    `encoded_equations` (`encode`)."""
    return encode(net, prop, bounds, encoded_equations(net, prop))


def encode(net, prop, bounds, equations) -> Configuration:
    """One row per equation of `equations` (slack id -> (kind, index)), in
    its order: solved for the pre-activation of an affine one and for the
    slack of any other, its terms added last first (the order fixes the
    rounding of a sum over three or more outputs), a basic one as its row;
    bounds from the neuron intervals of `bounds`, each slack's written at
    its id; non-basics start at their lower bound."""
    if prop.negation_empty:
        raise ValueError("an empty negation is decided before encoding")
    lo, hi = neuron_bounds(net, prop, bounds)
    lo += [-INF] * (max(equations) + 1 - len(lo))
    hi += [INF] * (len(lo) - len(hi))
    T = np.zeros((len(equations), len(lo)))
    pos: dict[int, int] = {}
    for r, (sid, (kind, i)) in enumerate(equations.items()):
        terms, lo[sid], hi[sid] = equation(net, prop, kind, i, lo, hi)
        row = T[r]
        if kind == AFF:  # s = W.prev - pre, so pre = W.prev - s
            pos[i] = r
            row[sid] = -1.0
            for v, c in terms[1:]:  # inputs or posts, none basic
                if abs(c) > COEF_EPS:
                    row[v] = c
            continue
        pos[sid] = r
        for v, c in reversed(terms):
            if v in pos:
                row += c * T[pos[v]]
            else:
                row[v] += c
        if kind != RELU:  # a relu row negates an affine row exactly: no new tiny term
            row[np.abs(row) <= COEF_EPS] = 0.0
    alpha = [0.0 if v in pos else x for v, x in enumerate(lo)]
    cfg = Configuration(T, pos, lo, hi, alpha, net.layout.relu_pairs, net.layout.input_ids,
                        equations)
    recompute(cfg)
    return cfg


def refresh_bounds(cfg: Configuration, net, prop, bounds) -> Configuration:
    """A split child's configuration: cfg's tableau and basis over the
    freshly analyzed neuron intervals of `bounds`, its non-basics clamped
    into them and its basics re-solved. cfg is left as it is (both children
    of a split start from it), and the child's violation counters start at
    zero: they score its own local search.

    Each slack's interval is its `equation`'s over the new neuron
    intervals, except an affine slack's, [-b, -b], which reads no interval:
    it keeps the one `equation` gave it at encoding."""
    lo, hi = neuron_bounds(net, prop, bounds)
    lo += cfg.lo[len(lo):]
    hi += cfg.hi[len(hi):]
    for sid, (kind, i) in cfg.equations.items():
        if kind != AFF:
            _, lo[sid], hi[sid] = equation(net, prop, kind, i, lo, hi)
    pos = cfg.pos
    alpha = [a if v in pos else min(max(a, lo[v]), hi[v]) for v, a in enumerate(cfg.alpha)]
    child = Configuration(cfg.T.copy(), cfg.basic, lo, hi, alpha, cfg.relu_pairs,
                          cfg.input_ids, cfg.equations)
    recompute(child)
    return child


def dump(cfg: Configuration, title: str) -> str:
    """Human-readable tableau, bounds, and assignment (debug aid)."""

    def name(v: int) -> str:
        return f"x{v + 1}"

    lines = [f"[{title}]"]
    for b in sorted(cfg.pos):
        terms = []
        for k, c in cfg.row(b):
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            coef = "" if abs(mag - 1.0) < 1e-12 else f"{mag:g}*"
            terms.append(f"{sign} {coef}{name(k)}".strip())
        lines.append(f"{name(b)} = " + " ".join(terms) if terms else f"{name(b)} = 0")
    lines.append("")
    for v in range(len(cfg.lo)):
        mark = "B" if v in cfg.pos else " "
        lines.append(
            f"{mark} {name(v):>6}  in [{cfg.lo[v]:.6g}, {cfg.hi[v]:.6g}]  alpha={cfg.alpha[v]:.6g}"
        )
    return "\n".join(lines)
