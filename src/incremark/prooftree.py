"""Labelled binary tree recording a search: edges carry sign assertions on
ReLU pre-activations, leaves carry a status, and a SAT leaf its witness.
A search (`solver.search`) decides one leaf and grows the tree below it, so
re-verification grows the tree that pruning a stored tree builds in place
(or, when the stored witness still holds, returns a copy of it).

An UNSAT leaf's edge assertions say which branch to re-check. An UNSAT
leaf also stores a certificate: the multipliers `[kind, index, y]` of the
encoded equations whose sum showed its branch empty, be it a tableau or LP
row (`simplex.certificate`) or a DeepPoly back-substitution
(`deeppoly.certificate`), unless no equation states the refutation (an
output ReLU's own interval). Replay re-tests it for the new weights before
anything else. The key is optional on load: a leaf without it, such as one
written by an older version, replays from its assertions alone. Files
written before the stored basis was dropped still carry `basis` and
`key_row_var` keys on UNSAT leaves; they are read as the same format
version and ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .constants import apart
from .deeppoly import NONNEG, NONPOS, SIGN_RANGE, Assertion, Bounds
from .simplex import EQUATION_KINDS, Certificate

INTERNAL = "internal"
UNSAT = "unsat"
SAT = "sat"
UNSOLVED = "unsolved"

FORMAT_VERSION = 1


@dataclass
class Node:
    id: int
    parent: int | None
    assertion: Assertion | None  # edge label from parent; None at the root
    status: str = UNSOLVED
    witness: tuple[float, ...] | None = None
    children: list[int] = field(default_factory=list)
    cert: Certificate | None = None  # every UNSAT leaf: the row that closed it


class ProofTree:
    def __init__(self, dims, prop_hash: str, verdict: str | None = None):
        self.dims = tuple(int(d) for d in dims)
        self.prop_hash = prop_hash
        self.verdict = verdict  # stored hint; recomputed on re-verification
        self.nodes: dict[int, Node] = {0: Node(0, None, None)}
        self._next = 1

    @property
    def root(self) -> Node:
        return self.nodes[0]

    def add_child(self, parent: int, assertion: Assertion) -> int:
        nid = self._next
        self._next += 1
        self.nodes[nid] = Node(nid, parent, assertion)
        self.nodes[parent].children.append(nid)
        return nid

    def asserts_of(self, v: int) -> frozenset[Assertion]:
        """Edge labels on the path root -> v (root itself carries none)."""
        out = []
        n = self.nodes[v]
        while n.parent is not None:
            out.append(n.assertion)
            n = self.nodes[n.parent]
        return frozenset(out)

    def distance(self, a: int, b: int) -> int:
        """Cardinality of the symmetric difference of the two Assert sets."""
        return len(self.asserts_of(a) ^ self.asserts_of(b))

    def leaves(self) -> list[int]:
        return [i for i in sorted(self.nodes) if not self.nodes[i].children]

    def leaves_with_status(self, status: str) -> list[int]:
        return [i for i in self.leaves() if self.nodes[i].status == status]

    def sat_leaf(self) -> int | None:
        return next(iter(self.leaves_with_status(SAT)), None)

    def leaves_by_status(self) -> dict[str, list[int]]:
        """The leaves of each status, each list in id order, from one walk;
        a status that no leaf has maps to []."""
        out: dict[str, list[int]] = {SAT: [], UNSAT: [], UNSOLVED: []}
        for i in sorted(self.nodes):
            n = self.nodes[i]
            if not n.children:
                out.setdefault(n.status, []).append(i)
        return out

    # -- pruning ------------------------------------------------------------

    def prune(self, bounds: Bounds) -> tuple["ProofTree", list[int]]:
        """A new tree of the nodes that the intervals keep, and the ids of
        the nodes that it closed, in walk order; this tree is left as it is.

        An edge assertion contradicts the intervals when its neuron's
        interval is `apart` from the range its sign allows
        (`deeppoly.SIGN_RANGE`); `bounds` must cover every asserted neuron.
        The walk copies each node it reaches, from the root down; the root
        carries no assertion (`validate`), so none is tested there. A node
        whose assertion contradicts the intervals covers an empty region, so
        it is copied as an UNSAT leaf without children or witness, which
        this run does not replay, and the walk does not go below it. A leaf
        keeps its certificate, and an internal node gets none here
        (`incremental` gives it one). Complementary assertions can never
        both contradict one interval, so no internal node loses both
        children.
        """
        return self._walk(bounds)

    def copy(self) -> "ProofTree":
        """A new tree equal to this one: `prune`'s walk, testing no
        assertion."""
        return self._walk(None)[0]

    def _walk(self, bounds: Bounds | None) -> tuple["ProofTree", list[int]]:
        """`prune`, or with bounds None a copy that closes nothing."""
        out = ProofTree(self.dims, self.prop_hash, self.verdict)
        out._next = self._next
        closed = []
        stack = [0]
        while stack:
            n = self.nodes[stack.pop()]
            a = n.assertion
            if bounds is not None and n.parent is not None and apart(
                    bounds.lo[a.neuron], bounds.hi[a.neuron], *SIGN_RANGE[a.sign]):
                out.nodes[n.id] = Node(n.id, n.parent, a, UNSAT, cert=n.cert)
                closed.append(n.id)
            else:
                out.nodes[n.id] = Node(n.id, n.parent, a, n.status, n.witness,
                                       list(n.children), n.cert)
                stack.extend(n.children)
        return out, closed

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Raise ValueError on a structural invariant breach.

        It checks that the root carries no assertion (no branch or replay
        reads one there), and one walk from the root that every node is
        reached exactly once, that each internal node has two complementary
        children, that no neuron is asserted twice on one root-to-leaf path,
        that each leaf carries a leaf status, and that only a SAT leaf
        carries a witness and only an UNSAT leaf a certificate."""
        if 0 not in self.nodes:
            raise ValueError("no root node")
        if self.root.assertion is not None:
            raise ValueError("the root node carries an assertion")
        sat_leaves = 0
        unsolved = 0
        seen: set[int] = set()
        stack: list[tuple[int, frozenset[int]]] = [(0, frozenset())]
        while stack:
            nid, path = stack.pop()
            if nid in seen:
                raise ValueError(f"node {nid}: reached twice from the root")
            seen.add(nid)
            n = self.nodes[nid]
            for what, value, home in (("witness", n.witness, SAT), ("certificate", n.cert, UNSAT)):
                if value is not None and (n.children or n.status != home):
                    where = "internal node" if n.children else f"{n.status} leaf"
                    raise ValueError(f"node {n.id}: {where} carries a {what}")
            if n.children:
                if n.status != INTERNAL:
                    raise ValueError(f"node {n.id}: children but status {n.status}")
                if len(n.children) != 2:
                    raise ValueError(f"node {n.id}: {len(n.children)} children")
                a, b = (self.nodes[c].assertion for c in n.children)
                if a is None or b is None or a.neuron != b.neuron or a.sign == b.sign:
                    raise ValueError(f"node {n.id}: children are not complementary")
                if a.neuron in path:
                    raise ValueError(f"node {n.id}: neuron {a.neuron} asserted twice on one path")
                stack.extend((c, path | {a.neuron}) for c in n.children)
            elif n.status == SAT:
                sat_leaves += 1
            elif n.status == UNSOLVED:
                unsolved += 1
            elif n.status != UNSAT:
                raise ValueError(f"node {n.id}: leaf with status {n.status!r}")
        if len(seen) != len(self.nodes):
            raise ValueError(f"{len(self.nodes) - len(seen)} nodes are not reachable from the root")
        if sat_leaves > 1:
            raise ValueError("more than one SAT leaf")
        if unsolved and not sat_leaves:
            raise ValueError("unsolved leaves without a SAT leaf")

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        nodes = []
        for i in sorted(self.nodes):
            n = self.nodes[i]
            nd = {
                "id": n.id,
                "parent": n.parent,
                "assert": None if n.assertion is None else
                          {"neuron": n.assertion.neuron, "sign": n.assertion.sign},
                "status": n.status,
                "witness": None if n.witness is None else list(n.witness),
            }
            if n.cert is not None:
                nd["cert"] = [list(e) for e in n.cert]
            nodes.append(nd)
        return {
            "version": FORMAT_VERSION,
            "dims": list(self.dims),
            "prop_hash": self.prop_hash,
            "verdict": self.verdict,
            "nodes": nodes,
        }

    def serialize(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")


def from_json(data: dict) -> ProofTree:
    """Rebuild a tree from its JSON form. A missing key or a value of the
    wrong type raises ValueError; the structure is not validated
    (deserialize does that for files)."""
    if not isinstance(data, dict):
        raise ValueError("proof tree is not a JSON object")
    version = data.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported proof tree version {version!r}")
    try:
        return _from_json(data)
    except KeyError as e:
        raise ValueError(f"proof tree is missing key {e}") from None
    except (TypeError, AttributeError, OverflowError) as e:
        raise ValueError(f"malformed proof tree: {e}") from None


def _int(x, what: str) -> int:
    """A JSON integer; int() would also take 1.5, "1" and true."""
    if type(x) is not int:
        raise ValueError(f"malformed proof tree: {what} {x!r} is not an integer")
    return x


def _finite(x) -> bool:
    """Is x a finite JSON number? (float() takes "1" and true; JSON has NaN.)"""
    return type(x) in (int, float) and math.isfinite(x)


def _cert_from_json(entries) -> Certificate:
    """A stored certificate: a list of [kind, integer index, finite number]."""
    if not isinstance(entries, list):
        raise ValueError("certificate is not a list")
    out = []
    for e in entries:
        if not isinstance(e, list) or len(e) != 3:
            raise ValueError(f"certificate entry {e!r} is not [kind, index, multiplier]")
        kind, idx, y = e
        if kind not in EQUATION_KINDS:
            raise ValueError(f"certificate names unknown equation kind {kind!r}")
        _int(idx, "certificate index")
        if not _finite(y):
            raise ValueError(f"certificate multiplier {y!r} is not a finite number")
        out.append((kind, idx, float(y)))
    return tuple(out)


def _from_json(data: dict) -> ProofTree:
    dims = [_int(d, "dims entry") for d in data["dims"]]
    tree = ProofTree(dims, data["prop_hash"], data.get("verdict"))
    tree.nodes = {}
    for nd in data["nodes"]:
        a = nd.get("assert")
        assertion = None if a is None else Assertion(_int(a["neuron"], "neuron"), a["sign"])
        if assertion is not None and assertion.sign not in (NONNEG, NONPOS):
            raise ValueError(f"bad assertion sign {assertion.sign!r}")
        w = nd.get("witness")
        if w is not None and not (isinstance(w, list) and all(map(_finite, w))):
            raise ValueError(f"witness {w!r} is not a finite point")
        parent = nd["parent"]
        node = Node(
            _int(nd["id"], "node id"),
            None if parent is None else _int(parent, "parent"),
            assertion,
            nd["status"],
            None if w is None else tuple(map(float, w)),
            cert=None if nd.get("cert") is None else _cert_from_json(nd["cert"]),
        )
        if node.id in tree.nodes:
            raise ValueError(f"duplicate node id {node.id}")
        tree.nodes[node.id] = node
    for n in tree.nodes.values():
        if n.parent is not None:
            if n.parent not in tree.nodes:
                raise ValueError(f"node {n.id}: parent {n.parent} is not in the tree")
            tree.nodes[n.parent].children.append(n.id)
    for n in tree.nodes.values():
        n.children.sort()
    tree._next = max(tree.nodes) + 1 if tree.nodes else 0
    return tree


def deserialize(path: str) -> ProofTree:
    """Load and validate a stored tree; ValueError on a malformed file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:  # json.load recurses once per level of nesting
            raise ValueError("JSON nested too deeply") from None
    tree = from_json(doc)
    tree.validate()
    return tree
