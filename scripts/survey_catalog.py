#!/usr/bin/env python3
"""Print a one-line structure summary for every curated catalog entry.

    python3 scripts/survey_catalog.py [--numeric]
"""

from __future__ import annotations

import sys

from reductive_workbench.affine import fixed_torus, transvection_equals_g_check
from reductive_workbench.catalog import catalog_names, construct
from reductive_workbench.homspace import isotropy_irreducibility_probe
from reductive_workbench.report import run_report


def main() -> int:
    numeric = "--numeric" in sys.argv[1:]
    header = (
        f"{'entry':26s} {'g':>3s} {'h':>3s} {'m':>3s} {'k':>3s} "
        f"{'torus':>5s} {'affine':>6s} {'eff':>4s} {'tr=g':>4s} probe"
    )
    print(header)
    print("-" * len(header))
    for name in catalog_names():
        entry = construct(name)
        pair = entry.pair
        torus = fixed_torus(pair).dimension
        tr = transvection_equals_g_check(pair).equals_g
        probe = isotropy_irreducibility_probe(pair)
        affine = entry.expected["dims"]["affine"]
        print(
            f"{name:26s} {pair.algebra.dim:3d} {pair.h.dim:3d} {pair.m.dim:3d} "
            f"{entry.fixed_subspace.dim:3d} {torus:5d} "
            f"{('-' if affine is None else affine):>6} "
            f"{'yes' if pair.flags.effective else 'no':>4s} "
            f"{'yes' if tr else 'no':>4s} {probe}"
        )
    if numeric:
        print()
        for name in catalog_names():
            report = run_report(construct(name), checks="fast", numeric=True)
            section = report.body["numeric"]
            print(f"{name:26s} numeric: {section}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
