"""Workload definitions, the seeded dense-basis generator and the reference check.

Every workload is one `analyze` command, run cold in a fresh interpreter, the
way users run the tool. Why each workload is here is recorded in `why` and in
NOTES.md next to this file.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = BENCH_DIR / "_work"

# Catalog pairs behind the dense-basis workload, with the number of simple
# ideals of g: the custom metric takes one scale per simple ideal.
# so(4) + so(4) is su(2)^4, so it has four.
DENSE_SOURCES = {"so4so4_mod_diag": 4, "su3_mod_su2": 1, "so3so3_mod_diag": 2}

# The dense bases are drawn once, from this fixed seed. Independent draws
# differ in cost by up to 4x (so4so4_mod_diag: 10 s to 49 s in
# liealg.simple_ideal_decomposition), which no run count averages out, so
# --seed only flips the signs of the basis vectors and draws the metric scale:
# the inputs differ from seed to seed, the work does not.
BASIS_DRAW = 7

WORKLOADS = {
    "corner_ladder": {
        "catalog": ("so6_mod_so5", "so7_mod_so6", "so8_mod_so7"),
        "args": ("--json",),
        "why": "corner quotients so(n)/so(n-1) up to the desk cap: time goes to building "
        "the pair and to g-level checks in affine; m^h = 0, so the m-level loops idle",
    },
    "trivial_isotropy": {
        "catalog": ("so5_mod_0", "su4_mod_0"),
        "args": ("--json", "--numeric-checks"),
        "why": "h = 0, so m = m^h = g: time goes to the m-level triple loops and the "
        "numeric lab; the largest working set; the reverse of corner_ladder",
    },
    "dense_basis": {
        "dense": tuple(DENSE_SOURCES),
        "args": ("--json",),
        "why": "catalog pairs in a seeded random unimodular basis with a custom metric: "
        "dense constants in every layer, spec-file parsing and the simple-ideal split",
    },
}


def command(workload: str, seed: int) -> tuple[list[str], list[str], dict | None]:
    """The `analyze` argv, the input names in report order, and generated-input statistics."""
    spec = WORKLOADS[workload]
    argv = list(spec["args"])
    if "dense" in spec:
        stats = write_dense_inputs(seed)
        out_dir = (WORK_DIR / f"dense-seed{seed}").relative_to(REPO)  # children run in REPO
        argv.extend(str(out_dir / f"{name}.json") for name in stats)
        return argv, list(stats), stats
    for name in spec["catalog"]:
        argv.extend(("--catalog", name))
    return argv, list(spec["catalog"]), None


# ---------------------------------------------------------------------------
# dense-basis generator
# ---------------------------------------------------------------------------


def _unimodular(n: int, rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """P and its inverse from 3n elementary row additions row_i += s * row_j, s = +-1."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
        for row in Pinv:  # right-multiply by the inverse step: col_j -= s * col_i
            row[j] -= s * row[i]
    return P, Pinv


def dense_spec(
    source: dict, simple_ideals: int, basis_rng: random.Random, rng: random.Random
) -> tuple[dict, dict]:
    """Rewrite a presentation in a random unimodular basis; returns (spec, stats).

    The basis comes from `basis_rng`; `rng` flips the signs of its vectors and
    draws the metric scale.
    """
    n = len(source["basis"])
    table: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for i, j, k, c in source["brackets"]:
        c = Fraction(c)
        table.setdefault((i - 1, j - 1), []).append((k - 1, c))
        table.setdefault((j - 1, i - 1), []).append((k - 1, -c))
    P, Pinv = _unimodular(n, basis_rng)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    P = [[s * x for x in row] for s, row in zip(signs, P)]  # D P, inverse Pinv D
    Pinv = [[x * s for x, s in zip(row, signs)] for row in Pinv]

    def to_new(v):  # old coordinates -> coordinates along the rows of P
        return [sum(v[k] * Pinv[k][c] for k in range(n)) for c in range(n)]

    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            old = [Fraction(0)] * n
            for (i, j), terms in table.items():
                coef = P[a][i] * P[b][j]
                if coef:
                    for k, c in terms:
                        old[k] += coef * c
            for k, c in enumerate(to_new(old)):
                if c:
                    brackets.append([a + 1, b + 1, k + 1, str(c)])
    h_rows = [to_new([Fraction(x) for x in row]) for row in source["subalgebra"]]
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    spec = {
        "basis": [f"f{a + 1}" for a in range(n)],
        "brackets": brackets,
        "subalgebra": [[str(x) for x in row] for row in h_rows],
        "metric": {"mode": "custom", "scales": [str(scale)] * simple_ideals},
    }
    stats = {
        "dim": n,
        "nonzero_share": round(len(brackets) / (n * (n - 1) // 2 * n), 4),
        "max_abs_c": str(max(abs(Fraction(e[3])) for e in brackets)),
        "metric_scale": str(scale),
    }
    return spec, stats


def write_dense_inputs(seed: int) -> dict:
    """Generate, check and write the dense-basis spec files for `seed`.

    Returns each file's statistics, keyed by its source name.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from reductive_workbench.specfile import parse_space_spec

    sources = json.loads((REFERENCE_DIR / "sources.json").read_text(encoding="utf-8"))
    basis_rng = random.Random(BASIS_DRAW)
    rng = random.Random(seed)
    out_dir = WORK_DIR / f"dense-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = {}
    for name, simple_ideals in DENSE_SOURCES.items():
        spec, stats[name] = dense_spec(sources[name], simple_ideals, basis_rng, rng)
        text = json.dumps(spec, indent=1) + "\n"
        parse_space_spec(text)  # raises SpecFileError on a malformed file
        (out_dir / f"{name}.json").write_text(text, encoding="utf-8")
    return stats


# ---------------------------------------------------------------------------
# reference check
# ---------------------------------------------------------------------------


def report_record(doc: dict) -> dict:
    """The basis-independent fields frozen in reference/expected.json."""
    flags = dict(doc["flags"])
    probe = flags.pop("isotropy_probe")
    return {"dims": doc["dims"], "flags": flags, "probe": probe, "torus_dim": doc["torus_dim"]}


def split_reports(stdout: str) -> list[dict]:
    """Split concatenated `analyze --json` output into its report documents."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while pos < len(stdout):
        doc, end = decoder.raw_decode(stdout, pos)
        docs.append(doc)
        pos = end + stdout[end:].startswith("\n")
    return docs


class Reference:
    """Frozen expectations for one workload's inputs."""

    def __init__(self, workload: str):
        self.workload = workload
        self.expected = json.loads((REFERENCE_DIR / "expected.json").read_text(encoding="utf-8"))
        self.reports = {}
        for name in WORKLOADS[workload].get("catalog", ()):
            path = REFERENCE_DIR / "reports" / f"{name}.json"
            self.reports[name] = path.read_text(encoding="utf-8")

    def problems(self, name: str, doc: dict) -> list[str]:
        """Every way the report for input `name` disagrees with the reference."""
        found = []
        if report_record(doc) != self.expected[name]:
            found.append(f"{name}: record {report_record(doc)} != {self.expected[name]}")
        if self.workload == "trivial_isotropy":
            numeric = doc.get("numeric") or {}
            if numeric.get("all_below_tolerance") is not True:
                found.append(f"{name}: numeric lab not below tolerance: {numeric}")
        if name in self.reports:
            text = json.dumps(dict(doc, numeric=None), indent=2) + "\n"
            if text != self.reports[name]:
                found.append(f"{name}: report bytes differ from reference/reports/{name}.json")
        elif doc["input"] != f"file:{name}.json":
            found.append(f"{name}: unexpected input field {doc['input']!r}")
        return found
