"""Sparse-tableau simplex layer: configurations, pivoting, bound repair and
the interval UNSAT row test.

A Configuration owns a tableau (one row per basic variable, written over the
non-basic ones), per-variable bounds, and an assignment kept by Reluplex's
update and pivot-and-update: moving a non-basic variable shifts only the
basics whose rows mention it, and a pivot shifts only the basics in the
entering column. Basic values therefore carry rounding drift between steps;
every value that leaves the repair loop (a witness, the row of an
infeasible LP, an LP optimum) is re-solved exactly from its row first. Rows
carry no constants: each affine equation has a slack variable pinned to
minus its bias, so a pivot is pure coefficient algebra. The slack bounds
follow from the neuron intervals of a `Bounds` (see `bound_maps`).

Non-basic variables always lie within their bounds: `initialize` and
`refresh_bounds` place them there, and every move (`update`, `set_variable`,
the leaving side of a pivot) sends one to a value inside them. The repair
loop relies on this, and so does the row test, which therefore tests only
the rows whose basic lies outside its bounds (`check_unsat_rows`).

Each encoded equation has a slack of its own that no other equation
mentions, so every tableau row is a combination of the equations whose
multipliers can be read off the row (`certificate`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import COEF_EPS, EPS_BOUND, EPS_PIVOT, EPS_RELU


# kinds of encoded equation, each written `slack - expr = 0` and named by
# (kind, index): the affine equation and the ReLU coupling of a pre-activation
# neuron, a property constraint over two or more outputs, and the branch LP's
# chord of an undecided ReLU (see the lp module)
AFF = "aff"
RELU = "relu"
PROP = "prop"
CHORD = "chord"
EQUATION_KINDS = (AFF, RELU, PROP, CHORD)

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

    rows: basic id -> {non-basic id: coefficient}
    prop_slacks: property-constraint index -> slack variable id (multi-output
    constraints only; single-output ones become direct bounds).
    equations: slack id -> (kind, index) of the one equation it belongs to.
    """

    def __init__(self, rows, lo, hi, alpha, relu_pairs, input_ids, prop_slacks=None,
                 equations=None):
        self.rows: dict[int, dict[int, float]] = rows
        self.lo: dict[int, float] = lo
        self.hi: dict[int, float] = hi
        self.alpha: dict[int, float] = alpha
        self.relu_pairs: list[tuple[int, int]] = list(relu_pairs)
        self.input_ids: list[int] = list(input_ids)
        self.prop_slacks: dict[int, int] = dict(prop_slacks or {})
        self.equations: dict[int, tuple[str, int]] = equations or {}
        self.violations: dict[int, int] = {pre: 0 for pre, _ in self.relu_pairs}

    def copy(self) -> "Configuration":
        c = Configuration(
            {b: dict(r) for b, r in self.rows.items()},
            dict(self.lo),
            dict(self.hi),
            dict(self.alpha),
            self.relu_pairs,
            self.input_ids,
            self.prop_slacks,
            self.equations,
        )
        c.violations = dict(self.violations)
        return c

    def row_value(self, basic: int) -> float:
        return sum(c * self.alpha[k] for k, c in sorted(self.rows[basic].items()))

    def witness(self) -> tuple[float, ...]:
        return tuple(self.alpha[i] for i in self.input_ids)


def recompute(cfg: Configuration) -> None:
    """Re-solve every row for its basic variable from the non-basic alphas."""
    for b in cfg.rows:
        cfg.alpha[b] = cfg.row_value(b)


def update(cfg: Configuration, vid: int, value: float) -> None:
    """Move non-basic vid to value, shifting by coefficient x delta only the
    basics whose rows mention it."""
    d = value - cfg.alpha[vid]
    cfg.alpha[vid] = value
    if d == 0.0:
        return
    alpha = cfg.alpha
    for b, r in cfg.rows.items():
        c = r.get(vid)
        if c is not None:
            alpha[b] += c * d


def pivot(cfg: Configuration, leaving: int, entering: int, value: float | None = None) -> None:
    """Pivot-and-update: swap a basic and a non-basic variable, substituting
    everywhere, and move the leaving variable to `value`.

    The entering variable moves by d = (value - alpha[leaving]) / a, where a
    is its coefficient in the leaving row, and each basic whose row holds it
    by c x d. With value None the assignment is left as it is. Mutates cfg
    in place; the solution set is unchanged.
    """
    row = cfg.rows[leaving]
    a = row.get(entering, 0.0)
    if abs(a) <= EPS_PIVOT:
        raise PivotError(f"pivot coefficient {a!r} for ({leaving}, {entering})")
    alpha = cfg.alpha
    d = 0.0
    if value is not None:
        d = (value - alpha[leaving]) / a
        alpha[leaving] = value
        alpha[entering] += d
    new_row = {leaving: 1.0 / a}
    for k, c in row.items():
        if k == entering:
            continue
        v = -c / a
        if abs(v) > COEF_EPS:
            new_row[k] = v
    del cfg.rows[leaving]
    for b, r in cfg.rows.items():
        c = r.pop(entering, 0.0)
        if c == 0.0:
            continue
        alpha[b] += c * d
        for k, v in new_row.items():
            w = r.get(k, 0.0) + c * v
            if abs(w) > COEF_EPS:
                r[k] = w
            elif k in r:
                del r[k]
    cfg.rows[entering] = new_row


def row_interval(cfg: Configuration, basic: int) -> tuple[float, float]:
    """Interval-arithmetic range of a row's right-hand side under l, u."""
    lo = hi = 0.0
    for k, c in cfg.rows[basic].items():
        if c > 0:
            lo += c * cfg.lo[k]
            hi += c * cfg.hi[k]
        else:
            lo += c * cfg.hi[k]
            hi += c * cfg.lo[k]
    return lo, hi


def row_unsat(cfg: Configuration, basic: int) -> bool:
    """Does this row contradict its basic variable's bounds with margin >
    EPS_BOUND?"""
    rlo, rhi = row_interval(cfg, basic)
    return cfg.lo[basic] > rhi + EPS_BOUND or cfg.hi[basic] < rlo - EPS_BOUND


def check_unsat_rows(cfg: Configuration) -> int | None:
    """Basic id of the lowest row that contradicts its bounds, else None.

    Only basics outside their bounds by more than EPS_BOUND are tested, the
    ones `bound_violation` scans: while every non-basic is inside its bounds
    the assignment is a point of each row's interval, so the row of a basic
    within EPS_BOUND of its bounds passes `row_unsat`, whose margin is the
    same.
    """
    lo, hi, alpha = cfg.lo, cfg.hi, cfg.alpha
    for b in sorted(cfg.rows):
        a = alpha[b]
        if (a < lo[b] - EPS_BOUND or a > hi[b] + EPS_BOUND) and row_unsat(cfg, b):
            return b
    return None


def certificate(cfg: Configuration, b: int) -> Certificate:
    """Multipliers of the encoded equations whose sum is row b.

    Row b, x_b - sum_k c_k x_k = 0, is a combination of the equations, each
    written slack - expr = 0. Matching the coefficient of each equation's
    own slack gives its multiplier: 1 for b itself, -c_k for a non-basic
    slack, 0 for any other basic one (left out).
    """
    eq = cfg.equations
    out = [(*eq[k], -c) for k, c in cfg.rows[b].items() if k in eq]
    if b in eq:
        out.append((*eq[b], 1.0))
    return tuple(sorted(out))


def resolve_violation(cfg: Configuration, b: int, need_up: bool) -> bool:
    """Re-solve basic b exactly from its row; does it still violate its
    bound in the same direction? Run before b's row certifies anything."""
    a = cfg.alpha[b] = cfg.row_value(b)
    return a < cfg.lo[b] - EPS_BOUND if need_up else a > cfg.hi[b] + EPS_BOUND


def bound_violation(cfg: Configuration):
    """Lowest-id basic variable outside its bounds, with the needed direction.

    Returns (basic id, need_up) or None. Non-basic variables satisfy their
    bounds by construction (clamped whenever bounds change).
    """
    for b in sorted(cfg.rows):
        a = cfg.alpha[b]
        if a < cfg.lo[b] - EPS_BOUND:
            return b, True
        if a > cfg.hi[b] + EPS_BOUND:
            return b, False
    return None


def entering_for(cfg: Configuration, row: dict[int, float], need_up: bool) -> int | None:
    """Bland-style entering choice: lowest-id non-basic in the row whose
    coefficient sign permits moving the row's value the needed way and
    whose own bound in that movement direction is not saturated."""
    for k in sorted(row):
        c = row[k]
        if abs(c) <= EPS_PIVOT:
            continue
        increase_k = (c > 0) == need_up
        if increase_k:
            if cfg.alpha[k] < cfg.hi[k]:
                return k
        else:
            if cfg.alpha[k] > cfg.lo[k]:
                return k
    return None


def set_variable(cfg: Configuration, vid: int, value: float) -> bool:
    """Drive one variable to a value within its bounds, pivoting it out of
    the basis first when needed. False when the move is impossible."""
    lo, hi = cfg.lo[vid], cfg.hi[vid]
    if value < lo - EPS_RELU or value > hi + EPS_RELU:
        return False
    value = min(max(value, lo), hi)
    if vid in cfg.rows:
        d = value - cfg.alpha[vid]
        if abs(d) <= EPS_RELU / 2:
            return False
        ent = entering_for(cfg, cfg.rows[vid], d > 0)
        if ent is None:
            return False
        pivot(cfg, vid, ent, value)
    else:
        update(cfg, vid, value)
    return True


def violated_relu_pairs(cfg: Configuration) -> list[tuple[int, int]]:
    out = []
    for pre, post in cfg.relu_pairs:
        if abs(cfg.alpha[post] - max(0.0, cfg.alpha[pre])) > EPS_RELU:
            out.append((pre, post))
    return out


def bound_step(cfg: Configuration) -> Progress | Stuck | None:
    """One bound repair: None when every basic lies within its bounds.

    Otherwise the lowest-id violating basic leaves the basis at the violated
    bound by pivot-and-update (Bland's rule, so a run of steps terminates).
    Stuck(row) when no entering variable can move it and the exact re-solve
    confirms the violation: the row then certifies that no point within the
    bounds exists.
    """
    bv = bound_violation(cfg)
    if bv is None:
        return None
    b, need_up = bv
    ent = entering_for(cfg, cfg.rows[b], need_up)
    if ent is None:
        return Stuck(stuck_row=b) if resolve_violation(cfg, b, need_up) else PROGRESS
    pivot(cfg, b, ent, cfg.lo[b] if need_up else cfg.hi[b])
    return PROGRESS


def repair_step(cfg: Configuration) -> StepResult:
    """One move of the local search.

    Priority: a bound step, then the lowest-id violated ReLU pair.
    Non-basics need no repair: they stay within their bounds (see the module
    docstring). Satisfied when nothing is violated once every basic is
    re-solved exactly; a violation that the re-solve brings back is another
    step's work.
    """
    step = bound_step(cfg)
    if step is not None:
        return step

    bad = violated_relu_pairs(cfg)
    if bad:
        pre, post = bad[0]
        cfg.violations[pre] = cfg.violations.get(pre, 0) + 1
        if set_variable(cfg, post, max(0.0, cfg.alpha[pre])):
            return PROGRESS
        if set_variable(cfg, pre, cfg.alpha[post]):
            return PROGRESS
        return Stuck()

    recompute(cfg)
    if bound_violation(cfg) is not None or violated_relu_pairs(cfg):
        return PROGRESS
    return Satisfied(cfg.witness())


# ---------------------------------------------------------------------------
# building the initial configuration

def define_row(rows: dict[int, dict[int, float]], basic: int, expr: dict[int, float]) -> None:
    """Install basic = expr, substituting already-basic variables so the RHS
    only mentions non-basics."""
    out: dict[int, float] = {}
    stack = list(expr.items())
    while stack:
        k, c = stack.pop()
        if k in rows:
            stack.extend((k2, c * c2) for k2, c2 in rows[k].items())
        else:
            out[k] = out.get(k, 0.0) + c
    rows[basic] = {k: v for k, v in sorted(out.items()) if abs(v) > COEF_EPS}


def bound_maps(net, prop, bounds, prop_slacks):
    """Variable bounds of the tableau: the neuron intervals of `bounds`, the
    slack intervals they imply, and the negated property.

    A ReLU slack s = post - pre lies in [max(0,-u), max(0,-l)] over
    pre in [l, u]; an affine slack is pinned to minus the bias.
    Single-output constraints tighten that output's interval directly
    (`output_bounds`); multi-output ones bound their slack row
    (`prop_slack_interval`).
    """
    lay = net.layout
    lo = dict(bounds.lo)
    hi = dict(bounds.hi)
    out_lo, out_hi = output_bounds(net, prop, bounds)
    lo.update(out_lo)
    hi.update(out_hi)
    for (pre, _), sid in lay.relu_slack.items():
        lo[sid], hi[sid] = max(0.0, -hi[pre]), max(0.0, -lo[pre])
    for li in range(net.n_layers):
        for j, pre in enumerate(lay.pre_ids[li]):
            sid = lay.affine_const_slack[pre]
            lo[sid] = hi[sid] = -float(net.biases[li][j])
    for idx, sid in prop_slacks.items():
        lo[sid], hi[sid] = prop_slack_interval(net, prop.constraints[idx], out_lo, out_hi)
    return lo, hi


def output_bounds(net, prop, bounds):
    """Output intervals of `bounds`, each tightened by the constraints over
    that output alone: a*y >= c bounds y by c/a."""
    out_lo = {v: bounds.lo[v] for v in net.layout.output_ids}
    out_hi = {v: bounds.hi[v] for v in net.layout.output_ids}
    for c in prop.constraints:
        terms = [(v, a) for v, a in zip(net.layout.output_ids, c.coeffs) if a != 0.0]
        if len(terms) == 1:
            [(v, a)] = terms
            if a > 0:
                out_lo[v] = max(out_lo[v], c.threshold / a)
            else:
                out_hi[v] = min(out_hi[v], c.threshold / a)
    return out_lo, out_hi


def prop_slack_interval(net, c, out_lo, out_hi) -> tuple[float, float]:
    """Bounds of the slack s = a.y of a constraint a.y >= c over two or more
    outputs: l = c, u = the interval upper bound of a.y, floored at c so
    that a refuted-level contradiction shows up in the row test, not as an
    inverted interval."""
    ub = 0.0
    for v, a in zip(net.layout.output_ids, c.coeffs):
        if a != 0.0:
            ub += a * (out_hi[v] if a > 0 else out_lo[v])
    return c.threshold, max(ub, c.threshold)


def prop_slack_ids(net, prop) -> dict[int, int]:
    """Slack id of each property constraint over two or more outputs, from
    n_vars on in constraint order; the others bound their one output."""
    out: dict[int, int] = {}
    for idx, c in enumerate(prop.constraints):
        if sum(1 for a in c.coeffs if a != 0.0) >= 2:
            out[idx] = net.layout.n_vars + len(out)
    return out


def initialize(net, prop, bounds) -> Configuration:
    """Standard encoding: affine rows (pre basic), ReLU inequality rows
    (slack basic), property rows (property slack basic); bounds from the
    neuron intervals of `bounds`; non-basics start at their lower bound."""
    if not prop.constraints:
        raise ValueError("empty negation is decided before encoding")
    lay = net.layout
    rows: dict[int, dict[int, float]] = {}
    equations: dict[int, tuple[str, int]] = {}
    prev = lay.input_ids
    for li in range(net.n_layers):
        w = net.weights[li]
        for j, pre in enumerate(lay.pre_ids[li]):
            expr = {prev[k]: float(w[j, k]) for k in range(w.shape[1]) if w[j, k] != 0.0}
            sid = lay.affine_const_slack[pre]
            expr[sid] = -1.0
            define_row(rows, pre, expr)
            equations[sid] = (AFF, pre)
        prev = lay.post_ids[li]
    for (pre, post), sid in lay.relu_slack.items():
        define_row(rows, sid, {post: 1.0, pre: -1.0})
        equations[sid] = (RELU, pre)

    prop_slacks = prop_slack_ids(net, prop)
    for idx, sid in prop_slacks.items():
        coeffs = prop.constraints[idx].coeffs
        define_row(rows, sid, {lay.output_ids[k]: float(a) for k, a in enumerate(coeffs) if a != 0.0})
        equations[sid] = (PROP, idx)
    lo, hi = bound_maps(net, prop, bounds, prop_slacks)

    alpha = {v: lo[v] for v in lo if v not in rows}
    cfg = Configuration(rows, lo, hi, alpha, lay.relu_pairs, lay.input_ids, prop_slacks,
                        equations)
    recompute(cfg)
    return cfg


def refresh_bounds(cfg: Configuration, net, prop, bounds) -> None:
    """Replace cfg's bounds with freshly analyzed ones (same variable set),
    clamp non-basics back into range, and re-solve the basics. Violation
    counters restart: they score the upcoming local search only."""
    cfg.lo, cfg.hi = lo, hi = bound_maps(net, prop, bounds, cfg.prop_slacks)
    for v in cfg.alpha:
        if v not in cfg.rows:
            cfg.alpha[v] = min(max(cfg.alpha[v], lo[v]), hi[v])
    recompute(cfg)
    cfg.violations = {pre: 0 for pre, _ in cfg.relu_pairs}


def dump(cfg: Configuration, title: str | None = None) -> str:
    """Human-readable tableau, bounds, and assignment (debug aid)."""

    def name(v: int) -> str:
        return f"x{v + 1}"

    lines = [] if title is None else [f"[{title}]"]
    for b in sorted(cfg.rows):
        terms = []
        for k in sorted(cfg.rows[b]):
            c = cfg.rows[b][k]
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            coef = "" if abs(mag - 1.0) < 1e-12 else f"{mag:g}*"
            terms.append(f"{sign} {coef}{name(k)}".strip())
        lines.append(f"{name(b)} = " + " ".join(terms) if terms else f"{name(b)} = 0")
    lines.append("")
    for v in sorted(cfg.lo):
        mark = "B" if v in cfg.rows else " "
        lines.append(
            f"{mark} {name(v):>6}  in [{cfg.lo[v]:.6g}, {cfg.hi[v]:.6g}]  alpha={cfg.alpha[v]:.6g}"
        )
    return "\n".join(lines)
