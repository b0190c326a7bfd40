#!/usr/bin/env python3
"""Regenerate the golden CLI reports for every curated catalog entry, for the
desk-cap family members named in DESK_CAP_NAMES and for the spec files under
tests/data named in SPEC_FILES.

Run after intentional report-format changes, then review the diff:

    python3 scripts/regenerate_golden_reports.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from reductive_workbench.catalog import catalog_names, construct
from reductive_workbench.report import run_report
from reductive_workbench.specfile import load_space_spec_file

# so3so3_mod_diag in a fixed unimodular basis with one metric scale per
# simple ideal: the custom-metric path on dense constants; so4_mod_so2 in the
# same way, a dense pair with h != 0 and m^h != 0
SPEC_FILES = ("so3so3_mod_diag_dense", "so4_mod_so2_dense")
# family members at the desk cap that stress the pair's adapted table: trivial
# isotropy at full size, a diagonal pair and a corner with a large h
DESK_CAP_NAMES = ("su8_mod_0", "su7_mod_0", "so8so8_mod_diag", "su8_mod_su7")


def main() -> int:
    golden_dir = Path(__file__).resolve().parent.parent / "tests" / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)
    data_dir = golden_dir.parent / "data"
    reports = [
        (name, run_report(construct(name), checks="all", numeric=False))
        for name in catalog_names() + DESK_CAP_NAMES
    ]
    for name in SPEC_FILES:
        report = run_report(load_space_spec_file(str(data_dir / f"{name}.json")), checks="all")
        report.body["input"] = f"file:{name}.json"  # as `analyze` names a file input
        reports.append((name, report))
    for name, report in reports:
        json_path = golden_dir / f"{name}.json"
        json_path.write_text(report.to_json(), encoding="utf-8")
        text_path = golden_dir / f"{name}.txt"
        text_path.write_text(report.to_text(), encoding="utf-8")
        print(f"wrote {json_path.name}, {text_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
