"""Digest of every proof tree and re-verification report the benchmark
catalog can produce, for checking that a change leaves them byte-identical.

    python tools/catalog_digest.py SRC_DIR > digest.txt

imports `incremark` from SRC_DIR and the instance catalog from this
repository's `perfbench/catalog.py`, and modifies neither. For each base of
the catalog (`catalog.BASE_SEEDS`) it prints one line: the base key, the
sha256 of `solve(...).to_json()` with the verdict and node count of the
solve (`hash:verdict:nodes`), and, for each perturbation of the base's grid
(`catalog.grids`), the sha256 of the re-verification's report JSON (without
`times_s`, which is wall time) and of the tree it returns, with its
verdict, the output tree's node count and the report's `replayed`,
`fallbacks` and `pruned` counts
(`report:tree:verdict:nodes:replayed:fallbacks:pruned`). Each hash is cut
to 16 hex digits. A re-verification that raises is digested as its
exception type and message (`hash:raised`), which also go to standard
error. Run it on two source trees and `diff` the outputs; a field whose
hashes moved but whose counts did not moved by floats only:

    python tools/catalog_digest.py ../parent/src > a.txt
    python tools/catalog_digest.py src > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/catalog_digest.py SRC_DIR", file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve()
    if not (src / "incremark").is_dir():
        print(f"catalog_digest: no incremark package in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(PERFBENCH))
    from catalog import BASE_SEEDS, Reference, base_instance, base_key, grids

    from incremark import incremental, solver
    from incremark import prooftree as pt
    from incremark.bench import perturb

    ref = Reference.load()
    for shape, seeds in BASE_SEEDS.items():
        for s in seeds:
            key = base_key(shape, s)
            net, prop = base_instance(shape, s)
            verdict, tree = solver.solve(net, prop)
            doc = tree.to_json()
            fields = [key, f"{_digest(doc)}:{verdict.name}:{len(tree.nodes)}"]
            rec = ref.bases[key]
            if rec["nodes"] is not None:
                for p in grids(shape, s, rec["verdict"], rec["nodes"]):
                    try:
                        verdict, report, out = incremental.verify_incremental(
                            perturb(net, p), prop, pt.from_json(doc))
                    except Exception as e:  # a raise is an outcome to compare
                        failure = f"{type(e).__name__}: {e}"
                        print(f"catalog_digest: {key} {p}: {failure}", file=sys.stderr)
                        fields.append(f"{_digest(failure)}:raised")
                        continue
                    rep = report.to_json()
                    del rep["times_s"]
                    fields.append(":".join(str(x) for x in (
                        _digest(rep), _digest(out.to_json()), verdict.name, len(out.nodes),
                        report.replayed, report.fallbacks, report.pruned)))
            print(" ".join(fields), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
