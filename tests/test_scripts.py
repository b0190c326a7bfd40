"""Smoke tests for the scripts under scripts/: each runs as a user would run it."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from reductive_workbench.catalog import catalog_names, construct
from reductive_workbench.cli import main

REPO = Path(__file__).resolve().parent.parent


def run_script(*args):
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / args[0]), *args[1:]],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
    )


def test_survey_catalog_prints_one_row_per_curated_entry():
    proc = run_script("survey_catalog.py")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:6] for line in proc.stdout.splitlines()[2:]}
    assert list(rows) == list(catalog_names())
    for name, row in rows.items():
        expected = construct(name).expected
        dims = expected["dims"]
        assert row == [str(x) for x in (dims["g"], dims["h"], dims["m"], dims["k"], expected["torus_dim"])], name


def test_survey_catalog_numeric_rows_are_below_tolerance():
    proc = run_script("survey_catalog.py", "--numeric")
    assert proc.returncode == 0, proc.stderr
    rows = {}
    for line in proc.stdout.splitlines():
        name, sep, section = line.partition(" numeric: ")
        if sep:
            rows[name.strip()] = ast.literal_eval(section)
    assert list(rows) == list(catalog_names())
    for name, section in rows.items():
        assert section["all_below_tolerance"] is True, name


def test_dense_spec_of_so4so4_mod_diag_keeps_the_catalog_dims(tmp_path, capsys):
    proc = run_script("write_dense_spec.py", "so4so4_mod_diag", "--draw", "1", "--seed", "11", "--scales")
    assert proc.returncode == 0, proc.stderr
    spec = tmp_path / "so4so4_mod_diag.json"
    spec.write_text(proc.stdout)
    assert main(["--json", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == construct("so4so4_mod_diag").expected["dims"]


def test_time_dense_files_prints_dims_seconds_and_report_md5(tmp_path, capsys):
    check_time_dense_files(tmp_path, capsys, [])


def test_time_dense_files_passes_scales_to_the_writer(tmp_path, capsys):
    # --scales times the custom-metric file, whose analysis runs the simple-ideal split
    check_time_dense_files(tmp_path, capsys, ["--scales"])


def check_time_dense_files(tmp_path, capsys, flags):
    proc = run_script("time_dense_files.py", *flags, "so3so3_mod_diag")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["entry", "g", "/", "m", "seconds", "rss_mb", "md5"]
    name, g, slash, m, seconds, rss, digest = row.split()
    dims = construct("so3so3_mod_diag").expected["dims"]
    assert [name, g, slash, m] == ["so3so3_mod_diag", str(dims["g"]), "/", str(dims["m"])]
    assert float(seconds) > 0 and float(rss) > 0
    # the md5 is that of the report of the file write_dense_spec.py prints with the same flags
    dense = run_script("write_dense_spec.py", "so3so3_mod_diag", "--draw", "1", "--seed", "11", *flags)
    assert dense.returncode == 0, dense.stderr
    assert ("custom" in dense.stdout) == bool(flags)
    spec = tmp_path / "so3so3_mod_diag.json"
    spec.write_text(dense.stdout)
    capsys.readouterr()
    assert main(["--json", str(spec)]) == 0
    assert digest == hashlib.md5(capsys.readouterr().out.encode()).hexdigest()


def test_time_dense_files_times_a_spec_file_as_it_is(capsys):
    # an argument ending in .json is an existing file, named by its file name
    spec = REPO / "tests" / "data" / "so3_plus_su2_over_q_sqrt2.json"
    proc = run_script("time_dense_files.py", str(spec.relative_to(REPO)), "so3so3_mod_diag")
    assert proc.returncode == 0, proc.stderr
    header, row, dense_row = proc.stdout.splitlines()
    name, g, slash, m, seconds, rss, digest = row.split()
    assert [name, g, slash, m] == [spec.name, "9", "/", "8"]
    assert float(seconds) > 0 and float(rss) > 0
    assert dense_row.split()[0] == "so3so3_mod_diag"
    capsys.readouterr()
    assert main(["--json", str(spec)]) == 0
    assert digest == hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
