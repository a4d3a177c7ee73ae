import json
import math
import re

import pytest

import _suites
from conftest import _demo_net, _demo_prop
from incremark.deeppoly import NONNEG, NONPOS, Assertion, Bounds
from incremark.model import LinearConstraint, Network, SafetyProperty
from incremark.prooftree import (
    INTERNAL,
    SAT,
    UNSAT,
    UNSOLVED,
    ProofTree,
    ShapeMismatchError,
    deserialize,
    from_json,
)

# the trees below are of the demo network's widths, built for its property
NET, PROP = _demo_net(), _demo_prop()
HASH = "833a2885059f3ff5"


def small_tree():
    """Root split on neuron 2; left child split again on neuron 3."""
    t = ProofTree((2, 2, 1), HASH)
    l = t.add_child(0, Assertion(2, NONPOS))
    r = t.add_child(0, Assertion(2, NONNEG))
    ll = t.add_child(l, Assertion(3, NONPOS))
    lr = t.add_child(l, Assertion(3, NONNEG))
    t.nodes[0].status = INTERNAL
    t.nodes[l].status = INTERNAL
    return t, l, r, ll, lr


def test_fresh_tree_shape():
    t = ProofTree((2, 2, 1), HASH)
    assert t.dims == (2, 2, 1)
    assert t.prop_hash == HASH
    assert t.root.id == 0
    assert t.root.parent is None
    assert t.root.assertion is None
    assert t.root.status == UNSOLVED
    assert t.leaves() == [0]


def test_add_child_and_asserts_of():
    t, l, r, ll, lr = small_tree()
    assert t.nodes[l].parent == 0
    assert t.nodes[0].children == [l, r]
    assert t.asserts_of(0) == frozenset()
    assert t.asserts_of(r) == frozenset({Assertion(2, NONNEG)})
    assert t.asserts_of(lr) == frozenset({Assertion(2, NONPOS), Assertion(3, NONNEG)})


def test_children_ordered_nonpos_first():
    t, l, r, ll, lr = small_tree()
    assert t.nodes[0].children == [l, r]
    assert t.nodes[l].assertion.sign == NONPOS
    assert t.nodes[r].assertion.sign == NONNEG


def test_leaves_and_filters():
    t, l, r, ll, lr = small_tree()
    assert t.leaves() == [r, ll, lr]
    t.nodes[ll].status = UNSAT
    t.nodes[lr].status = SAT
    assert t.leaves_with_status(UNSAT) == [ll]
    assert t.leaves_with_status(SAT) == [lr]
    assert t.leaves_with_status(UNSOLVED) == [r]
    assert t.validate(NET, PROP) == {UNSAT: [ll], SAT: [lr], UNSOLVED: [r]}
    t.nodes[lr].status = UNSAT
    with pytest.raises(ValueError, match="unsolved leaves without a SAT leaf"):
        t.validate(NET, PROP)
    t.nodes[r].status = UNSAT
    assert t.validate(NET, PROP) == {UNSAT: [r, ll, lr], SAT: [], UNSOLVED: []}


def test_copy_is_an_equal_independent_tree():
    t, l, r, ll, lr = small_tree()
    t.nodes[lr].status, t.nodes[lr].witness = SAT, (0.5, -0.5)
    doc = t.to_json()
    out = t.copy()
    assert out.to_json() == doc and out._next == t._next
    out.nodes[l].children.append(99)
    out.add_child(r, Assertion(3, NONNEG))
    assert t.to_json() == doc


def test_sat_leaf_lookup():
    t, l, r, ll, lr = small_tree()
    t.nodes[r].status = t.nodes[ll].status = t.nodes[lr].status = UNSAT
    assert t.validate(NET, PROP)[SAT] == []
    t.nodes[lr].status = SAT
    assert t.validate(NET, PROP)[SAT] == [lr]
    # an internal node with a stale status is refused, never taken for a leaf
    t.nodes[l].status = SAT
    with pytest.raises(ValueError, match="children but status sat"):
        t.validate(NET, PROP)


def test_distance_basics():
    t, l, r, ll, lr = small_tree()
    assert t.distance(0, 0) == 0
    assert t.distance(0, l) == 1
    assert t.distance(l, r) == 2
    assert t.distance(ll, lr) == 2
    assert t.distance(r, lr) == 3  # {2:nonneg} vs {2:nonpos, 3:nonneg}
    assert t.distance(0, lr) == 2


def test_distance_axioms_sampled():
    assert _suites.distance_axioms(n_trees=10, triples=300) == 0


def _bounds(lo2, hi2):
    """Inputs x0, x1 in [-1, 1], x2 in [lo2, hi2], x3 in [-1, 1]."""
    return Bounds([-1.0, -1.0, lo2, -1.0], [1.0, 1.0, hi2, 1.0])


def test_prune_drops_contradicted_branch():
    t, l, r, ll, lr = small_tree()
    t.nodes[r].status = UNSAT
    out, closed = t.prune(_bounds(0.5, 1.0))  # nonpos on x3 impossible
    assert closed == [l]
    assert sorted(out.nodes) == [0, l, r]
    kept = out.nodes[l]
    assert kept.children == []
    assert kept.status == UNSAT
    assert kept.witness is None
    # untouched sibling keeps its status
    assert out.nodes[r].status == UNSAT
    # the original tree is not mutated
    assert sorted(t.nodes) == [0, l, r, ll, lr]


def test_prune_keeps_straddling_and_unknown_neurons():
    t, l, r, ll, lr = small_tree()
    out, _ = t.prune(_bounds(-1.0, 1.0))
    assert sorted(out.nodes) == sorted(t.nodes)
    # nothing known of the tree neurons: nothing to prune
    out, _ = t.prune(Bounds([-math.inf] * 4, [math.inf] * 4))
    assert sorted(out.nodes) == sorted(t.nodes)


def test_prune_never_removes_both_children():
    t, l, r, ll, lr = small_tree()
    for lo2, hi2 in ((0.5, 1.0), (-1.0, -0.5)):
        out, _ = t.prune(_bounds(lo2, hi2))
        assert len(out.nodes[0].children) == 2


def test_prune_margin():
    t, l, r, ll, lr = small_tree()
    # within the bound tolerance nothing is contradicted
    out, _ = t.prune(_bounds(5e-8, 1.0))
    assert sorted(out.nodes) == sorted(t.nodes)


def test_validate_accepts_completed_tree():
    t, l, r, ll, lr = small_tree()
    t.nodes[r].status = UNSAT
    t.nodes[ll].status = UNSAT
    t.nodes[lr].status = SAT
    t.nodes[lr].witness = (0.5, 0.5)
    t.validate(NET, PROP)


def test_validate_rejections():
    t, l, r, ll, lr = small_tree()
    t.nodes[l].status = SAT  # internal node with children
    with pytest.raises(ValueError):
        t.validate(NET, PROP)

    t, l, r, ll, lr = small_tree()
    t.nodes[ll].status = t.nodes[lr].status = SAT
    t.nodes[r].status = UNSAT
    with pytest.raises(ValueError):
        t.validate(NET, PROP)  # two SAT leaves

    t = ProofTree((2, 2, 1), HASH)
    with pytest.raises(ValueError):
        t.validate(NET, PROP)  # unsolved leaf without a SAT leaf

    t, l, r, ll, lr = small_tree()
    t.nodes[r].assertion = Assertion(2, NONPOS)  # same sign as sibling
    t.nodes[ll].status = t.nodes[lr].status = UNSAT
    with pytest.raises(ValueError):
        t.validate(NET, PROP)

    t, l, r, ll, lr = small_tree()
    t.nodes[0].children = [l]  # arity breach
    with pytest.raises(ValueError):
        t.validate(NET, PROP)

    t, l, r, ll, lr = small_tree()
    t.nodes[r].status = UNSAT
    for kid in (ll, lr):
        t.nodes[kid].assertion = Assertion(2, t.nodes[kid].assertion.sign)
    t.nodes[ll].status = t.nodes[lr].status = UNSAT
    with pytest.raises(ValueError, match="neuron 2 asserted twice on one path"):
        t.validate(NET, PROP)

    t, l, r, ll, lr = small_tree()
    t.nodes[r].status = INTERNAL  # a leaf that claims to be split
    t.nodes[ll].status = t.nodes[lr].status = UNSAT
    with pytest.raises(ValueError, match="leaf with status"):
        t.validate(NET, PROP)

    t, l, r, ll, lr = small_tree()
    t.nodes[r].children = [ll, lr]  # ll and lr are reached from l and from r
    t.nodes[r].status = INTERNAL
    t.nodes[ll].status = t.nodes[lr].status = UNSAT
    with pytest.raises(ValueError, match="reached twice"):
        t.validate(NET, PROP)

    t, l, r, ll, lr = small_tree()
    t.nodes[0].assertion = Assertion(2, NONPOS)  # a root edge that no branch reads
    t.nodes[r].status = t.nodes[ll].status = t.nodes[lr].status = UNSAT
    with pytest.raises(ValueError, match="root node carries an assertion"):
        t.validate(NET, PROP)

    t, l, r, ll, lr = small_tree()
    t.nodes[l].children = []  # ll and lr hang off no reachable node
    t.nodes[l].status = t.nodes[r].status = UNSAT
    with pytest.raises(ValueError, match="not reachable"):
        t.validate(NET, PROP)

    # `asserts_of` follows the parent pointers, so a leaf whose pointer names
    # another node than the one that lists it would replay under the wrong
    # assertions; the root has no parent
    for node, parent in ((lr, r), (l, r), (0, l)):
        t, l, r, ll, lr = small_tree()
        t.nodes[r].status = t.nodes[ll].status = t.nodes[lr].status = UNSAT
        t.nodes[node].parent = parent
        with pytest.raises(ValueError, match=f"node {node}: parent {parent} disagrees"):
            t.validate(NET, PROP)


def _complete_tree():
    t, l, r, ll, lr = small_tree()
    t.nodes[r].status = t.nodes[ll].status = UNSAT
    t.nodes[lr].status = SAT
    t.nodes[lr].witness = (0.5, 0.5)
    t.nodes[ll].cert = (("aff", 2, 1.0), ("relu", 3, -0.5))
    return t


def _edge_on_output(t):
    t.nodes[3].assertion = Assertion(6, NONPOS)
    t.nodes[4].assertion = Assertion(6, NONNEG)


def _long_witness(t):
    t.nodes[4].witness = (0.5, 0.5, 0.5)


def _cert(kind, index):
    def mutate(t):
        t.nodes[3].cert = ((kind, index, 1.0),)
    return mutate


WIDE = Network([[[0.2, -0.7], [0.8, -0.8], [0.1, 0.1]], [[0.4, 0.6, 0.0]]],
               [[-0.1, 0.0, 0.0], [0.0]])
MOVED = SafetyProperty(PROP.box, (LinearConstraint((1.0,), 0.31),))


@pytest.mark.parametrize("net, prop, mutate, message", [
    (WIDE, PROP, None, "tree dims (2, 2, 1) vs network (2, 3, 1)"),
    (NET, MOVED, None, "stored tree was built for a different property"),
    (NET, PROP, _edge_on_output, "neuron 6 is not a ReLU of the network"),
    (NET, PROP, _long_witness, "node 4: witness has 3 values for 2 inputs"),
    (NET, PROP, _cert("chord", 99), "node 3: certificate names chord equation 99, which "
                                    "this network and property do not encode"),
    # the demo property's one constraint is over one output: it bounds that
    # output and encodes no prop equation
    (NET, PROP, _cert("prop", 0), "node 3: certificate names prop equation 0, which "
                                  "this network and property do not encode"),
])
def test_validate_refuses_a_tree_that_does_not_fit(net, prop, mutate, message):
    """Each refusal of a tree that does not fit the network and property,
    with the message that `reverify` prints for it."""
    t = _complete_tree()
    assert t.validate(NET, PROP) == {SAT: [4], UNSAT: [2, 3], UNSOLVED: []}
    if mutate is not None:
        mutate(t)
    with pytest.raises(ShapeMismatchError, match=re.escape(message)):
        t.validate(net, prop)


def test_pruned_tree_is_independent():
    """The tree that `prune` builds shares no node with the stored one:
    growing it leaves the stored tree as it was."""
    t, l, r, ll, lr = small_tree()
    out, closed = t.prune(_bounds(-1.0, 1.0))  # contradicts no assertion
    assert closed == [] and sorted(out.nodes) == sorted(t.nodes)
    out.nodes[r].status = UNSAT
    assert out.add_child(r, Assertion(3, NONPOS)) == lr + 1
    assert t.nodes[r].status == UNSOLVED
    assert t.nodes[r].children == []


def test_json_roundtrip(tmp_path):
    t, l, r, ll, lr = small_tree()
    t.verdict = "sat"
    t.nodes[r].status = UNSAT
    t.nodes[lr].status = SAT
    t.nodes[lr].witness = (0.25, -0.75)
    t.nodes[ll].status = UNSAT

    data = t.to_json()
    assert data["version"] == 1
    assert data["dims"] == [2, 2, 1]
    assert data["prop_hash"] == HASH
    assert data["verdict"] == "sat"
    assert [nd["id"] for nd in data["nodes"]] == [0, l, r, ll, lr]
    assert set(data["nodes"][r]) == {"id", "parent", "assert", "status", "witness"}
    assert data["nodes"][lr]["witness"] == [0.25, -0.75]
    assert data["nodes"][0]["assert"] is None
    assert data["nodes"][l]["assert"] == {"neuron": 2, "sign": "nonpos"}

    p = tmp_path / "t.json"
    t.serialize(str(p))
    back = deserialize(str(p))
    assert back.to_json() == data
    assert back.nodes[0].children == [l, r]
    # files of the same version that still store an UNSAT leaf's basis and
    # key row load with those keys ignored
    old = json.loads(json.dumps(data))
    old["nodes"][r].update(basis=[0, 1, 4], key_row_var=4)
    assert from_json(old).to_json() == data
    # appending after a load continues the id sequence
    assert back.add_child(r, Assertion(3, NONPOS)) == lr + 1


def test_certificate_roundtrip_copy_and_prune():
    t, l, r, ll, lr = small_tree()
    for n in (r, ll, lr):
        t.nodes[n].status = UNSAT
    t.nodes[r].cert = (("aff", 2, 1.0), ("relu", 3, -0.5))
    data = t.to_json()
    assert data["nodes"][r]["cert"] == [["aff", 2, 1.0], ["relu", 3, -0.5]]
    assert "cert" not in data["nodes"][ll]
    back = from_json(json.loads(json.dumps(data)))
    assert back.nodes[r].cert == t.nodes[r].cert
    assert back.to_json() == data
    # pruning the other side keeps the certified leaf as it is
    pruned, _ = t.prune(_bounds(0.5, 1.0))
    assert sorted(pruned.nodes) == [0, l, r]
    assert pruned.nodes[r].cert == t.nodes[r].cert
    assert pruned.nodes[l].cert is None


@pytest.mark.parametrize("cert, message", [
    ("aff", "certificate is not a list"),
    ([["aff", 2]], "is not [kind, index, multiplier]"),
    ([["bias", 2, 1.0]], "unknown equation kind 'bias'"),
    ([["aff", 2.0, 1.0]], "index 2.0 is not an integer"),
    ([["aff", True, 1.0]], "index True is not an integer"),
    ([["aff", 2, "1"]], "multiplier '1' is not a finite number"),
    ([["aff", 2, float("nan")]], "multiplier nan is not a finite number"),
    ([["aff", 2, float("-inf")]], "multiplier -inf is not a finite number"),
    ([["aff", 2, 10 ** 400]], "malformed proof tree"),
])
def test_from_json_rejects_malformed_certificates(cert, message):
    t, l, r, ll, lr = small_tree()
    t.nodes[r].status = UNSAT
    data = t.to_json()
    data["nodes"][r]["cert"] = cert
    # JSON text admits NaN and Infinity, so the check must not rely on the parser
    data = json.loads(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(data)


def test_from_json_rejects():
    with pytest.raises(ValueError):
        from_json({"version": 2, "dims": [2, 2, 1], "prop_hash": HASH, "nodes": []})
    bad = {
        "version": 1, "dims": [2, 2, 1], "prop_hash": HASH, "verdict": None,
        "nodes": [
            {"id": 0, "parent": None, "assert": None, "status": "internal"},
            {"id": 1, "parent": 0, "assert": {"neuron": 2, "sign": "up"},
             "status": "unsat"},
        ],
    }
    with pytest.raises(ValueError):
        from_json(bad)
    bad["nodes"][1]["assert"]["sign"] = "nonpos"
    bad["nodes"][1]["parent"] = 5
    with pytest.raises(ValueError, match="parent 5 is not in the tree"):
        from_json(bad)
    bad["nodes"][1]["parent"] = 0
    bad["nodes"][1]["id"] = 0
    with pytest.raises(ValueError, match="duplicate node id 0"):
        from_json(bad)
    bad["nodes"][1]["id"] = 1
    bad["nodes"][1]["witness"] = "oops"
    with pytest.raises(ValueError):
        from_json(bad)
    with pytest.raises(ValueError, match="not a JSON object"):
        from_json([bad])
    # numbers past float range used to end in an OverflowError traceback
    bad["nodes"][1]["witness"] = [10 ** 400, 0.0]
    with pytest.raises(ValueError, match="malformed proof tree"):
        from_json(bad)
    # a witness entry that is not a JSON number used to be read by float():
    # "12" as (1.0, 2.0), and "0.5" and true as 0.5 and 1.0
    for w in ("12", ["0.5", True], [0.5, None], {"0": 0.5}):
        bad["nodes"][1]["witness"] = w
        with pytest.raises(ValueError, match="is not a finite point"):
            from_json(bad)
    # a NaN witness used to pass witness_ok and answer SAT
    for x in (float("nan"), float("inf"), -float("inf")):
        bad["nodes"][1]["witness"] = [0.5, x]
        with pytest.raises(ValueError, match="is not a finite point"):
            from_json(json.loads(json.dumps(bad)))
    bad["nodes"][1]["witness"] = None
    bad["nodes"][1]["assert"]["neuron"] = float("inf")
    with pytest.raises(ValueError, match="malformed proof tree"):
        from_json(bad)
    # int() used to coerce these, so a malformed file loaded: id 1.5, "1" or
    # true as 1, parent false or 0.0 as the root, neuron 2.7 as 2, dims
    # [2.9, 2, 1] as (2, 2, 1) and version true as 1
    good = small_tree()[0].to_json()
    from_json(good)
    for keys, value in [(("version",), True), (("dims", 0), 2.9),
                        (("nodes", 1, "id"), 1.5), (("nodes", 1, "id"), "1"),
                        (("nodes", 1, "id"), True), (("nodes", 1, "parent"), False),
                        (("nodes", 1, "parent"), 0.0), (("nodes", 1, "assert", "neuron"), 2.7)]:
        data = json.loads(json.dumps(good))
        target = data
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        with pytest.raises(ValueError, match="not an integer|unsupported proof tree version"):
            from_json(data)


def test_serialized_file_is_plain_json(tmp_path):
    t, *_ = small_tree()
    p = tmp_path / "t.json"
    t.serialize(str(p))
    raw = p.read_text()
    assert raw.endswith("\n")
    assert json.loads(raw)["dims"] == [2, 2, 1]
