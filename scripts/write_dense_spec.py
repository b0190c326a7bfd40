#!/usr/bin/env python3
"""Print the dense-basis spec file of a catalog entry.

    PYTHONPATH=src python3 scripts/write_dense_spec.py NAME --draw K --seed S [--scales] > NAME.json

The entry's presentation is rewritten by `benchmarks/workloads.dense_spec`:
the unimodular basis comes from `random.Random(K)`, the signs of its vectors
and the metric scale from `random.Random(S)`. With --scales the metric is
`custom`, one equal scale per simple ideal, so `analyze` runs the simple-ideal
split; without it the metric is `negative_killing`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from workloads import dense_spec  # noqa: E402

from reductive_workbench.catalog import construct  # noqa: E402
from reductive_workbench.liealg import simple_ideal_decomposition  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", help="catalog entry, e.g. so7_mod_so6")
    parser.add_argument("--draw", type=int, required=True, help="seed of the basis draw")
    parser.add_argument("--seed", type=int, required=True, help="seed of the signs and the scale")
    parser.add_argument("--scales", action="store_true", help="custom metric, one scale per simple ideal")
    args = parser.parse_args()
    entry = construct(args.name)
    L = entry.algebra
    source = {
        "basis": list(L.basis_labels),
        "brackets": [[i + 1, j + 1, k + 1, str(c)] for i, j, k, c in L.entries],
        "subalgebra": [[str(x) for x in row] for row in entry.h.rows],
    }
    _, ideals = simple_ideal_decomposition(L)
    spec, _ = dense_spec(source, len(ideals), random.Random(args.draw), random.Random(args.seed))
    if not args.scales:
        spec["metric"] = {"mode": "negative_killing"}
    sys.stdout.write(json.dumps(spec, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
