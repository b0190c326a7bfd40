#!/usr/bin/env python3
"""Freeze the reference data that the benchmark checks every report against.

Writes, under benchmarks/reference/:

- expected.json: dims, flags, torus_dim and probe for every workload input.
  Entries that have a record in the packaged catalog expectations are copied
  from it; the others (so7_mod_so6, so8_mod_so7, so5_mod_0, su4_mod_0) are
  computed with the independent oracle scripts/compute_expected_catalog.py,
  imported unchanged. The oracle takes several minutes on so8_mod_so7.
- reports/<name>.json: the engine's JSON report for every catalog input, with
  the numeric section set to null.
- sources.json: the catalog presentations behind the dense-basis workload, in
  the space-specification file format, so that generating that workload does
  not depend on the engine under test.

The engine's own verdicts are compared with the oracle records here and every
mismatch is printed; so6_mod_so5 must equal tests/golden/so6_mod_so5.json.
Run once, from the repository root, on the commit whose reports are the
reference:

    PYTHONPATH=src python3 benchmarks/freeze_reference.py
"""

from __future__ import annotations

import importlib.util
import json
import sys

from workloads import DENSE_SOURCES, REFERENCE_DIR, REPO, WORKLOADS, report_record

ORACLE_ONLY = ("so7_mod_so6", "so8_mod_so7", "so5_mod_0", "su4_mod_0")


def _load_oracle():
    path = REPO / "scripts" / "compute_expected_catalog.py"
    spec = importlib.util.spec_from_file_location("compute_expected_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle_record(oracle, name: str) -> dict:
    family, n, k = _parse_name(name)
    if family == "so":
        algebra = oracle.so_family(n)
        h = oracle.so_corner_indices(n, k) if k else []
    else:
        algebra = oracle.su_family(n)
        h = oracle.su_corner_indices(n, k) if k else []
    return oracle.analyze(name, oracle.Oracle(oracle.as_sum(algebra), h_indices=h))


def _parse_name(name: str) -> tuple[str, int, int]:
    # "so8_mod_so7" -> ("so", 8, 7); "su4_mod_0" -> ("su", 4, 0)
    head, tail = name.split("_mod_")
    return head[:2], int(head[2:]), 0 if tail == "0" else int(tail[2:])


def _source_spec(entry) -> dict:
    algebra = entry.algebra
    return {
        "basis": list(algebra.basis_labels),
        "brackets": [[i + 1, j + 1, k + 1, str(c)] for i, j, k, c in algebra.entries],
        "subalgebra": [[str(x) for x in row] for row in entry.h.rows],
    }


def main() -> int:
    from reductive_workbench.catalog import construct
    from reductive_workbench.report import run_report

    packaged = json.loads(
        (REPO / "src" / "reductive_workbench" / "data" / "catalog_expected.json").read_text()
    )
    oracle = _load_oracle()
    catalog_inputs = [
        name for w in WORKLOADS.values() for name in w.get("catalog", ())
    ]
    expected = {}
    for name in sorted(set(catalog_inputs) | set(DENSE_SOURCES)):
        if name in ORACLE_ONLY:
            print(f"oracle: {name} ...", flush=True)
            expected[name] = _oracle_record(oracle, name)
        else:
            expected[name] = packaged[name]

    mismatches = 0
    reports_dir = REFERENCE_DIR / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(set(catalog_inputs) | set(DENSE_SOURCES)):
        text = run_report(construct(name), checks="all", numeric=False).to_json()
        got = report_record(json.loads(text))
        if got != expected[name]:
            mismatches += 1
            print(f"MISMATCH {name}: engine {got} oracle {expected[name]}")
        if name in catalog_inputs:
            (reports_dir / f"{name}.json").write_text(text, encoding="utf-8")
    golden = (REPO / "tests" / "golden" / "so6_mod_so5.json").read_text(encoding="utf-8")
    if (reports_dir / "so6_mod_so5.json").read_text(encoding="utf-8") != golden:
        mismatches += 1
        print("MISMATCH so6_mod_so5: report differs from tests/golden/so6_mod_so5.json")

    sources = {name: _source_spec(construct(name)) for name in DENSE_SOURCES}
    (REFERENCE_DIR / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (REFERENCE_DIR / "sources.json").write_text(
        json.dumps(sources, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {REFERENCE_DIR}; {mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
