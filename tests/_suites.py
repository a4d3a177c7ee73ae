"""Randomized property suites, shared by the module tests and the acceptance
gate. Every function returns the number of violations found; the expectation
is always zero. Seeds are fixed by callers so failures reproduce.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np

from incremark import lp
from incremark.bench import random_network, random_threshold_property
from incremark.constants import COEF_EPS, EPS_BOUND, EPS_COLLAPSE
from incremark.deeppoly import NONNEG, NONPOS, Assertion, Bounds, analyze, relaxation
from incremark.model import RELU, witness_ok
from incremark.prooftree import ProofTree
from incremark.simplex import (
    AFF,
    INF,
    PROP,
    Configuration,
    check_unsat_rows,
    encode,
    encoded_equations,
    equation,
    neuron_bounds,
    pivot,
    recompute,
)


def configuration(rows, lo, hi, alpha, relu_pairs=(), input_ids=(),
                  equations=None) -> Configuration:
    """A Configuration written in dict form: `rows` maps each basic id, in
    row order, to {id: coefficient}, and `alpha` maps ids to values (0.0
    for any other). The basics are not re-solved."""
    T = np.zeros((len(rows), len(lo)))
    for r, row in enumerate(rows.values()):
        for k, c in row.items():
            T[r, k] = c
    return Configuration(T, list(rows), lo, hi, [alpha.get(v, 0.0) for v in range(len(lo))],
                         relu_pairs, input_ids, equations or {})


def encodings(monkeypatch) -> list[Configuration]:
    """Copies of the configuration of each relaxation that `lp.build`
    encodes from here on in the test, taken before its phase 1 pivots it."""
    copies: list[Configuration] = []
    phase1 = lp.phase1

    def recorded(relax):
        copies.append(copy.deepcopy(relax.cfg))
        return phase1(relax)

    monkeypatch.setattr(lp, "phase1", recorded)
    return copies


def define_row(rows: dict[int, dict[int, float]], basic: int, expr: dict[int, float]) -> None:
    """Install basic = expr in dict-form `rows`, substituting the rows of
    already-basic variables (depth first, last term first) so that the
    right-hand side mentions only non-basics."""
    out: dict[int, float] = {}
    stack = list(expr.items())
    while stack:
        k, c = stack.pop()
        if k in rows:
            stack.extend((k2, c * c2) for k2, c2 in rows[k].items())
        else:
            out[k] = out.get(k, 0.0) + c
    rows[basic] = {k: v for k, v in sorted(out.items()) if abs(v) > COEF_EPS}


def reference_encode(net, prop, bounds, equations) -> Configuration:
    """`simplex.encode` as a dict of rows built by `define_row`, then
    copied into an array: the reference that the array encoding must
    match bit for bit."""
    lo, hi = neuron_bounds(net, prop, bounds)
    lo += [-INF] * (max(equations) + 1 - len(lo))
    hi += [INF] * (len(lo) - len(hi))
    rows: dict[int, dict[int, float]] = {}
    for sid, (kind, i) in equations.items():
        terms, lo[sid], hi[sid] = equation(net, prop, kind, i, lo, hi)
        if kind == AFF:
            expr = {v: c for v, c in terms[1:] if c != 0.0}
            expr[sid] = -1.0
            define_row(rows, i, expr)
        else:
            define_row(rows, sid, dict(terms))
    alpha = {v: x for v, x in enumerate(lo) if v not in rows}
    cfg = configuration(rows, lo, hi, alpha, net.layout.relu_pairs, net.layout.input_ids,
                        equations)
    recompute(cfg)
    return cfg


def matrix_analyze(net, box, asserts=()) -> Bounds:
    """`deeppoly.analyze` with every per-neuron step as a whole-layer numpy
    operation: the finiteness check, the sign clamps, the EPS_COLLAPSE
    collapse, the relations and the ReLU image. The reference that
    `analyze` must match bit for bit, signed zeros included."""
    lay = net.layout
    res = Bounds(output_ids=tuple(lay.output_ids))
    # per asserted layer, the floor (row 0) and ceiling (row 1) that NONNEG
    # and NONPOS put on its pre-activations
    clamps: dict[int, np.ndarray] = {}
    for a in asserts:
        li, j = lay.pre_row[a.neuron]
        if li not in clamps:
            clamps[li] = np.array([[-np.inf], [np.inf]]).repeat(len(lay.pre_ids[li]), axis=1)
        clamps[li][int(a.sign == NONPOS), j] = 0.0

    lo0 = np.array([b[0] for b in box], dtype=float)
    hi0 = np.array([b[1] for b in box], dtype=float)
    if len(lo0) != net.n_inputs:
        raise ValueError("box arity does not match the network inputs")
    res.lo += lo0.tolist()
    res.hi += hi0.tolist()
    rel: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    for li in range(net.n_layers):
        w = net.weights[li]
        n = w.shape[0]
        c = np.concatenate((w, w))
        k = np.concatenate((net.biases[li], net.biases[li]))
        upper_row = (np.arange(2 * n) >= n)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(li, 0, -1):
                lc, uc, uk = rel[j - 1]
                take_u = (c > 0) == upper_row
                k += (np.where(take_u, uk, 0.0) * c).sum(axis=1)
                c = np.where(take_u, uc, lc) * c
                k += c @ net.biases[j - 1]
                c = c @ net.weights[j - 1]
            k += np.where((c > 0) == upper_row, c * hi0, c * lo0).sum(axis=1)
            lo, hi = k[:n], k[n:]
            if not np.isfinite(hi - lo).all():
                raise RuntimeError(f"layer {li + 1}: a pre-activation interval or its width "
                                   "is not a finite float")

        if li in clamps:
            lo, hi = np.maximum(lo, clamps[li][0]), np.minimum(hi, clamps[li][1])
        if (lo > hi).any():
            emptied = lo > hi + EPS_COLLAPSE
            if emptied.any():
                j = int(emptied.argmax())
                res.infeasible = True
                res.emptied = Assertion(lay.pre_ids[li][j], NONNEG if k[n + j] < 0.0 else NONPOS)
                return res
            lo = np.minimum(lo, hi)
        res.lo += lo.tolist()
        res.hi += hi.tolist()

        if net.activations[li] == RELU:
            on = lo >= 0.0
            cross = ~on & (hi > 0.0)
            span = np.where(cross, hi - lo, 1.0)
            s = np.where(cross, hi / span, 0.0)
            lc = on.astype(float)
            rel.append((lc, np.where(cross, s, lc), np.where(cross, -s * lo, 0.0)))
            res.lo += np.maximum(lo, 0.0).tolist()
            res.hi += np.maximum(hi, 0.0).tolist()
        else:
            rel.append((np.ones(n), np.ones(n), np.zeros(n)))
    return res


def forward_values(net, x) -> dict[int, float]:
    """Values of every network variable (inputs, pre, post) at input x:
    the reference point that the tests check intervals and rows against."""
    v = np.asarray(x, dtype=float)
    lay = net.layout
    out: dict[int, float] = {i: float(v[j]) for j, i in enumerate(lay.input_ids)}
    for li, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
        pre = w @ v + b
        for j, vid in enumerate(lay.pre_ids[li]):
            out[vid] = float(pre[j])
        v = np.maximum(pre, 0.0) if act == RELU else pre
        for j, vid in enumerate(lay.post_ids[li]):
            out[vid] = float(v[j])
    return out


def relu_relations(net, bounds) -> dict[int, tuple[float, float, float]]:
    """Post id -> (lc, uc, uk), the relations `relaxation` gives each ReLU
    over its pre-activation interval in `bounds`:
    lc*pre <= post <= uc*pre + uk."""
    return {post: relaxation(bounds.lo[pre], bounds.hi[pre])
            for pre, post in net.layout.relu_pairs}


def random_configuration(rng) -> Configuration:
    """A consistent random tableau: rows over non-basic variables only,
    finite bounds (occasionally pinned), non-basics inside their bounds."""
    n = int(rng.integers(6, 11))
    m = int(rng.integers(2, 5))
    basics = sorted(int(v) for v in rng.choice(n, size=m, replace=False))
    nonbasics = [v for v in range(n) if v not in basics]
    rows: dict[int, dict[int, float]] = {}
    for b in basics:
        k = int(rng.integers(1, min(4, len(nonbasics)) + 1))
        cols = rng.choice(nonbasics, size=k, replace=False)
        row = {}
        for c in cols:
            coef = float(rng.uniform(-2.0, 2.0))
            if abs(coef) < 0.05:
                coef = 0.05 if coef >= 0 else -0.05
            row[int(c)] = coef
        rows[b] = row
    lo, hi, alpha = [], [], {}
    for v in range(n):
        l = float(rng.uniform(-5.0, 1.0))
        width = float(rng.uniform(0.0, 4.0)) if rng.random() > 0.15 else 0.0
        lo.append(l)
        hi.append(l + width)
    for v in nonbasics:
        alpha[v] = float(rng.uniform(lo[v], hi[v]))
    for b in basics:
        alpha[b] = 0.0
    cfg = configuration(rows, lo, hi, alpha, input_ids=range(min(2, n)))
    recompute(cfg)
    return cfg


def _row_solutions(cfg: Configuration, rng, count: int = 4) -> list[dict[int, float]]:
    """Arbitrary solutions of the row equations (bounds intentionally
    ignored: the preservation claim is about the equation system)."""
    nonbasics = [v for v in range(len(cfg.lo)) if v not in cfg.pos]
    sols = []
    for _ in range(count):
        s = {v: float(rng.uniform(-3.0, 3.0)) for v in nonbasics}
        for b in cfg.basic:
            s[b] = sum(c * s[k] for k, c in cfg.row(b))
        sols.append(s)
    return sols


def _satisfies_rows(cfg: Configuration, sol: dict[int, float], tol: float = 1e-6) -> bool:
    for b in cfg.basic:
        rhs = sum(c * sol[k] for k, c in cfg.row(b))
        if abs(sol[b] - rhs) > tol * (1.0 + abs(sol[b])):
            return False
    return True


def pivot_preservation(trials: int = 1000, seed: int = 101) -> int:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trials):
        cfg = random_configuration(rng)
        sols = _row_solutions(cfg, rng)
        basics = sorted(cfg.pos)
        b = basics[int(rng.integers(len(basics)))]
        cols = [k for k, _ in cfg.row(b)]
        e = cols[int(rng.integers(len(cols)))]
        pivot(cfg, b, e, cfg.alpha[b])
        if b in cfg.pos or e not in cfg.pos:
            bad += 1
            continue
        recompute(cfg)
        if not all(_satisfies_rows(cfg, s) for s in sols):
            bad += 1
            continue
        # the assignment must still solve the (pivoted) row system
        live = dict(enumerate(cfg.alpha))
        if not _satisfies_rows(cfg, live):
            bad += 1
    return bad


def row_checker_vs_corners(trials: int = 1000, seed: int = 303) -> int:
    """The row test, `check_unsat_rows` on one row, against brute-force
    corner enumeration."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trials):
        m = int(rng.integers(1, 9))
        cols = list(range(1, m + 1))
        row = {c: float(rng.uniform(-3.0, 3.0)) for c in cols}
        # x0 is the row's basic, bounded below
        lo = [0.0, *(float(rng.uniform(-4.0, 0.0)) for c in cols)]
        hi = [0.0, *(lo[c] + float(rng.uniform(0.0, 4.0)) for c in cols)]
        corners = [
            sum(row[c] * pick[i] for i, c in enumerate(cols))
            for pick in itertools.product(*[(lo[c], hi[c]) for c in cols])
        ]
        tmin, tmax = min(corners), max(corners)
        mode = int(rng.integers(3))
        if mode == 0:
            bl = float(rng.uniform(tmin - 1.0, tmax + 1.0))
            bh = bl + float(rng.uniform(0.0, 2.0))
        elif mode == 1:
            bl = tmax + float(rng.uniform(0.001, 2.0))
            bh = bl + float(rng.uniform(0.0, 2.0))
        else:
            bh = tmin - float(rng.uniform(0.001, 2.0))
            bl = bh - float(rng.uniform(0.0, 2.0))
        lo[0], hi[0] = bl, bh
        alpha = {c: lo[c] for c in cols}
        alpha[0] = 0.0
        cfg = configuration({0: row}, lo, hi, alpha)
        recompute(cfg)
        expected = bl > tmax + EPS_BOUND or bh < tmin - EPS_BOUND
        if (check_unsat_rows(cfg, [0]) == 0) != expected:
            bad += 1
    return bad


def _random_box(rng, m: int):
    a = rng.uniform(-1.0, 1.0, m)
    b = rng.uniform(-1.0, 1.0, m)
    return [(float(min(x, y)), float(max(x, y))) for x, y in zip(a, b)]


_SHAPES = ((2, 5, 5, 1), (3, 8, 1), (2, 3, 1), (3, 4, 4, 1))


def deeppoly_soundness(first_net=None, first_box=None, n_random: int = 50,
                       samples: int = 200, seed: int = 404) -> int:
    """Sampled containment: every reachable value inside its interval and
    between its ReLU relational bounds, with and without sign assertions."""
    rng = np.random.default_rng(seed)
    cases = []
    if first_net is not None:
        cases.append((first_net, list(first_box)))
    for i in range(n_random):
        net = random_network(_SHAPES[i % len(_SHAPES)], seed + 7 * i)
        cases.append((net, _random_box(rng, net.dims[0])))
    bad = 0
    for net, box in cases:
        lay = net.layout
        lows = [l for l, _ in box]
        highs = [h for _, h in box]
        xs = rng.uniform(lows, highs, (samples, len(box)))
        bounds = analyze(net, box)
        pre_of = {post: pre for pre, post in lay.relu_pairs}
        relations = relu_relations(net, bounds)
        points = [forward_values(net, x) for x in xs]
        for vals in points:
            for v, val in vals.items():
                if not (bounds.lo[v] - 1e-9 <= val <= bounds.hi[v] + 1e-9):
                    bad += 1
            for post, (lc, uc, uk) in relations.items():
                pre = pre_of[post]
                if vals[post] > uc * vals[pre] + uk + 1e-9:
                    bad += 1
                if vals[post] < lc * vals[pre] - 1e-9:
                    bad += 1
        # asserted re-analysis must still contain the matching samples
        uncertain = [p for p, _ in lay.relu_pairs
                     if bounds.lo[p] < 0.0 < bounds.hi[p]]
        if not uncertain:
            continue
        k = int(rng.integers(1, min(3, len(uncertain)) + 1))
        chosen = rng.choice(uncertain, size=k, replace=False)
        asserts = [Assertion(int(p), NONNEG if rng.random() < 0.5 else NONPOS)
                   for p in chosen]
        ab = analyze(net, box, sorted(asserts))
        matching = [
            vals for vals in points
            if all(vals[a.neuron] >= -1e-12 if a.sign == NONNEG else vals[a.neuron] <= 1e-12
                   for a in asserts)
        ]
        if ab.infeasible:
            bad += len(matching)
            continue
        for vals in matching:
            for v, val in vals.items():
                if not (ab.lo[v] - 1e-9 <= val <= ab.hi[v] + 1e-9):
                    bad += 1
    return bad


def _relaxation_point(net, prop, bounds, vals: dict[int, float]) -> dict[int, float]:
    """Extend a forward-evaluated network point by the values the
    relaxation's slacks take there, computed from the network and the
    neuron intervals alone: post - pre per ReLU, -bias per affine equation,
    a.y per multi-output constraint, and post - k.pre per uncertain ReLU,
    numbered as `simplex.encoded_equations` numbers them, chords after."""
    lay = net.layout
    point = dict(vals)
    equations = encoded_equations(net, prop)
    for sid, (kind, i) in equations.items():
        if kind == AFF:
            li, j = lay.pre_row[i]
            point[sid] = -float(net.biases[li][j])
        elif kind == PROP:
            coeffs = prop.constraints[i].coeffs
            point[sid] = sum(a * vals[y] for a, y in zip(coeffs, lay.output_ids))
        else:
            point[sid] = vals[lay.relu_post[i]] - vals[i]
    sid = max(equations) + 1
    for pre, post in lay.relu_pairs:
        l, u = bounds.lo[pre], bounds.hi[pre]
        if l < 0.0 < u:
            point[sid] = vals[post] - u / (u - l) * vals[pre]
            sid += 1
    return point


def relaxation_soundness(points: int = 1000, seed: int = 505) -> int:
    """Every network point in the asserted region, extended by its slack
    values, satisfies every row of the branch relaxation and every variable
    bound except the property's; a point that also violates the property
    satisfies those too, so a certified-infeasible relaxation holds none."""
    rng = np.random.default_rng(seed)
    bad = 0
    checked = 0
    case = 0
    while checked < points:
        case += 1
        net = random_network(_SHAPES[case % len(_SHAPES)], seed + 11 * case)
        prop = random_threshold_property(net, seed + 11 * case + 1)
        lay = net.layout
        bounds = analyze(net, prop.box)
        uncertain = [p for p, _ in lay.relu_pairs if bounds.lo[p] < 0.0 < bounds.hi[p]]
        asserts = []
        if uncertain and rng.random() < 0.6:
            p = int(rng.choice(uncertain))
            asserts = [Assertion(p, NONNEG if rng.random() < 0.5 else NONPOS)]
            bounds = analyze(net, prop.box, asserts)
            if bounds.infeasible:
                continue
        relax = lp.build(net, prop, bounds)
        feasible = relax.status != lp.INFEASIBLE

        # the rows as encoded, before phase 1 pivoted them
        encoded = encode(net, prop, bounds, relax.cfg.equations)
        rows0 = {b: dict(encoded.row(b)) for b in encoded.basic}
        lo0, hi0 = encoded.lo, encoded.hi
        prop_vars = set(lay.output_ids) | {
            sid for sid, (kind, _) in relax.cfg.equations.items() if kind == "prop"}

        lows = [l for l, _ in prop.box]
        highs = [h for _, h in prop.box]
        xs = rng.uniform(lows, highs, (60, len(lows)))
        for x in xs:
            vals = forward_values(net, x)
            in_assert = all(
                vals[a.neuron] >= 0.0 if a.sign == NONNEG else vals[a.neuron] <= 0.0
                for a in asserts
            )
            if not in_assert:
                continue
            checked += 1
            point = _relaxation_point(net, prop, bounds, vals)
            if set(point) != set(range(len(lo0))):
                bad += 1
                continue
            for b, row in rows0.items():
                if abs(sum(c * point[k] for k, c in row.items()) - point[b]) > 1e-7:
                    bad += 1
            witness = witness_ok(net, prop, x, eps=0.0)
            if witness and not feasible:
                bad += 1  # certified-infeasible region contains a witness
            for v, val in point.items():
                if (witness or v not in prop_vars) and not (
                        lo0[v] - 1e-7 <= val <= hi0[v] + 1e-7):
                    bad += 1
    return bad


def distance_axioms(n_trees: int = 30, triples: int = 1000, seed: int = 606) -> int:
    rng = np.random.default_rng(seed)
    bad = 0
    for t in range(n_trees):
        tree = ProofTree((2, 2, 1), f"{t:016x}")
        for _ in range(int(rng.integers(1, 13))):
            leaves = tree.leaves()
            nid = int(rng.choice(leaves))
            used = {a.neuron for a in tree.asserts_of(nid)}
            free = [n for n in range(8) if n not in used]
            if not free:
                continue
            n = int(rng.choice(free))
            tree.add_child(nid, Assertion(n, NONPOS))
            tree.add_child(nid, Assertion(n, NONNEG))
        ids = sorted(tree.nodes)
        for _ in range(triples // n_trees):
            a, b, c = (int(rng.choice(ids)) for _ in range(3))
            dab, dba = tree.distance(a, b), tree.distance(b, a)
            if tree.distance(a, a) != 0:
                bad += 1
            if dab != dba:
                bad += 1
            if tree.distance(a, c) > dab + tree.distance(b, c):
                bad += 1
        for nid in ids:
            node = tree.nodes[nid]
            for cid in node.children:
                if tree.distance(nid, cid) != 1:
                    bad += 1
            if len(node.children) == 2:
                l, r = node.children
                if tree.distance(l, r) != 2:
                    bad += 1
    return bad
