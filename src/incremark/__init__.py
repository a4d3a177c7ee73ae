"""Safety-property verification for small feed-forward ReLU networks.

The from-scratch solver combines symbolic interval analysis with a
Reluplex-style tableau search and records every branch decision in a proof
tree. After a weight modification, the incremental driver re-verifies by
replaying each stored UNSAT leaf against the new network. A leaf keeps its
branch's sign assertions and, when a row closed it, that row's certificate:
the multipliers of the encoded equations whose sum showed the branch empty.
Fresh bounds, the certificate rebuilt for the new weights, the branch LP and
LP tightening of the input box try to close the branch again, and search runs
only where none does.
"""

from .bench import CompareReport, Perturbation, compare, oracle, perturb
from .deeppoly import Assertion, Bounds, analyze, is_property_refuted
from .incremental import IncrementalReport, ShapeMismatchError, verify_incremental
from .model import (
    LinearConstraint,
    Network,
    SafetyProperty,
    Verdict,
    evaluate,
    load_network,
    load_property,
    property_hash,
    save_network,
    save_property,
    witness_ok,
)
from .prooftree import ProofTree, deserialize, from_json
from .solver import solve

__version__ = "0.1.0"

__all__ = [
    "Assertion",
    "Bounds",
    "CompareReport",
    "IncrementalReport",
    "LinearConstraint",
    "Network",
    "Perturbation",
    "ProofTree",
    "SafetyProperty",
    "ShapeMismatchError",
    "Verdict",
    "analyze",
    "compare",
    "deserialize",
    "evaluate",
    "from_json",
    "is_property_refuted",
    "load_network",
    "load_property",
    "oracle",
    "perturb",
    "property_hash",
    "save_network",
    "save_property",
    "solve",
    "verify_incremental",
    "witness_ok",
]
