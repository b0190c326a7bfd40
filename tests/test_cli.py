import ast
import contextlib
import copy
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reductive_workbench import liealg, linalg, specfile
from reductive_workbench.affine import UserAssertions
from reductive_workbench.catalog import CURATED_NAMES, catalog_names, construct
from reductive_workbench.cli import main
from reductive_workbench.errors import SpecFileError, WorkbenchError
from reductive_workbench.liealg import SubspaceBasis, make_lie_algebra, simple_ideal_decomposition
from reductive_workbench.report import SpaceReport, run_report
from reductive_workbench.specfile import (
    load_space_spec_file,
    parse_positioned,
    parse_space_spec,
)

from oracles import F0, changed_basis_entries, unimodular

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


# --- positioned parser ---------------------------------------------------------


def test_positioned_parser_tracks_paths():
    text = '{\n  "a": [1, 2, {"b": "x"}],\n  "c": true\n}'
    value, positions = parse_positioned(text)
    assert value == {"a": [1, 2, {"b": "x"}], "c": True}
    assert positions[("a",)] == (2, 8)
    assert positions[("a", 2, "b")][0] == 2
    assert positions[("c",)][0] == 3
    # an escape is one character of the value but six of the line
    value, positions = parse_positioned('{"k": "\\u00e9\\n", "n": 1}')
    assert value == {"k": "\u00e9\n", "n": 1}
    assert positions[("n",)] == (1, 24)
    value, positions = parse_positioned('[[1, [2]],\n [[], 3]]')
    assert value == [[1, [2]], [[], 3]]
    assert positions[(0, 1, 0)] == (1, 7)
    assert positions[(1,)] == (2, 2)
    assert positions[(1, 0)] == (2, 3)
    assert positions[(1, 1)] == (2, 7)


json_documents = st.recursive(
    st.one_of(st.integers(), st.text(max_size=3), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=20,
)


def _paths(value, path=()):
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@settings(max_examples=100)
@given(json_documents, st.sampled_from([None, 0, 1]))
def test_positioned_parser_resolves_every_path_to_its_value(doc, indent):
    # each position, turned back into an offset, starts the JSON text of the
    # value at that path, also after the subtrees of its earlier siblings
    text = json.dumps(doc, indent=indent)
    value, positions = parse_positioned(text)
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    for path, item in _paths(value):
        line, column = positions[path]
        offset = line_starts[line - 1] + column - 1
        assert json.JSONDecoder().raw_decode(text, offset)[0] == item
    with pytest.raises(KeyError):
        positions[("no such key", 0)]


def test_positioned_parser_syntax_errors():
    with pytest.raises(SpecFileError) as exc:
        parse_positioned('{"a": [1, 2')
    assert exc.value.line is not None
    with pytest.raises(SpecFileError):
        parse_positioned('{"a": 1} trailing')
    with pytest.raises(SpecFileError):
        parse_positioned('{"a": 1, "a": 2}')


def test_parse_space_spec_semantic_errors_have_positions():
    base = {
        "basis": ["x", "y"],
        "brackets": [[1, 2, 1, "1"]],
        "subalgebra": [],
        "metric": {"mode": "negative_killing"},
    }
    bad_index = dict(base, brackets=[[1, 5, 1, "1"]])
    with pytest.raises(SpecFileError) as exc:
        parse_space_spec(json.dumps(bad_index, indent=1))
    assert "out of range" in str(exc.value) and "line" in str(exc.value)
    bad_order = dict(base, brackets=[[2, 1, 1, "1"]])
    with pytest.raises(SpecFileError) as exc:
        parse_space_spec(json.dumps(bad_order))
    assert "i < j" in str(exc.value)
    bad_rat = dict(base, brackets=[[1, 2, 1, "1/0"]])
    with pytest.raises(SpecFileError):
        parse_space_spec(json.dumps(bad_rat))
    bad_row = dict(base, subalgebra=[["1"]])
    with pytest.raises(SpecFileError) as exc:
        parse_space_spec(json.dumps(bad_row))
    assert "length" in str(exc.value)
    bad_float = dict(base, brackets=[[1, 2, 1, 0.5]])
    with pytest.raises(SpecFileError):
        parse_space_spec(json.dumps(bad_float))
    long_rat = dict(base, brackets=[[1, 2, 1, "1/" + "9" * 5000]])
    with pytest.raises(SpecFileError) as exc:
        parse_space_spec(json.dumps(long_rat))
    assert "too many digits" in str(exc.value)
    default_scaled = dict(base, metric={"mode": "negative_killing", "scales": [2]})
    text = json.dumps(default_scaled)
    with pytest.raises(SpecFileError) as exc:
        parse_space_spec(text)
    assert "scales requires metric mode 'custom'" in str(exc.value)
    assert (exc.value.line, exc.value.column) == parse_positioned(text)[1][("metric", "scales")]


SPHERE_TEXT = (DATA / "so3_sphere.json").read_text()


@st.composite
def sphere_mutations(draw):
    """so3_sphere.json with one character deleted, replaced or followed by another."""
    i = draw(st.integers(0, len(SPHERE_TEXT) - 1))
    return SPHERE_TEXT[:i] + draw(st.text(max_size=2)) + SPHERE_TEXT[i + 1 :]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), sphere_mutations()))
def test_parse_space_spec_raises_only_spec_file_errors(text):
    try:
        parse_space_spec(text)
    except SpecFileError as exc:
        assert exc.line is not None


# --- the fast decode against the positioned parse ----------------------------------

PLACEHOLDER = "@@"  # a string that no valid document below contains
DECODE_BASES = tuple(
    (DATA / name).read_text() for name in ("so3_sphere.json", "so4_mod_so2_asserted.json", "so4_mod_so2_dense.json")
)
EDIT_CHARACTERS = st.sampled_from(list('{}[]",:-/.+eE0123456789 \n\\tfnu') + ["\ud800", "\ufeff", "\u0663", "\x00", "\u00e9"])


def _with(text: str, path: tuple, value) -> str:
    """The document with the value at `path` replaced by the placeholder
    string, dumped as the base file is, and the quoted placeholder then
    replaced by `value`, raw JSON text."""
    doc = json.loads(text)
    item = doc
    for key in path[:-1]:
        item = item[key]
    item[path[-1]] = PLACEHOLDER
    return json.dumps(doc, indent=1).replace(json.dumps(PLACEHOLDER), value, 1)


@st.composite
def decode_mutations(draw):
    """A valid spec document with one of the changes the two parsers could
    read differently: byte edits, nesting around the cap, a duplicate key,
    NaN/Infinity, an integer past int()'s digit limit, a lone surrogate, a
    byte-order mark or trailing content."""
    text = draw(st.sampled_from(DECODE_BASES))
    kind = draw(st.sampled_from(
        ["edit", "nest", "nest_inner", "duplicate", "constant", "long", "surrogate", "bom", "trailing"]
    ))
    if kind == "edit":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 1))
            text = text[:i] + draw(st.text(EDIT_CHARACTERS, max_size=2)) + text[i + cut :]
        return text
    if kind == "nest":  # the document is 3 deep: root, "brackets", an entry
        extra = draw(st.integers(31, 33)) - 3
        return "[" * extra + text + "]" * extra
    if kind == "nest_inner":  # "subalgebra" sits at depth 2
        depth = draw(st.integers(31, 33)) - 1
        return _with(text, ("subalgebra",), "[" * depth + "]" * depth)
    if kind == "duplicate":
        key = draw(st.sampled_from(['"basis"', '"mode"']))  # the first "basis" is the root's
        return text.replace(key, f"{key}: 0, {key}", 1)
    if kind == "constant":
        constant = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
        return _with(text, draw(st.sampled_from([("brackets", 0, 3), ("metric", "mode")])), constant)
    if kind == "long":
        digits = "7" * draw(st.integers(4299, 4302))
        value = draw(st.sampled_from([digits, "-" + digits, '"' + digits + '"', '"1/' + digits + '"']))
        return _with(text, draw(st.sampled_from([("brackets", 0, 3), ("brackets", 0, 0)])), value)
    if kind == "surrogate":
        label = draw(st.sampled_from(['"\\ud800"', '"a\\udfff"', '"\ud800"', '"\\ud83d\\ude00"']))
        return _with(text, ("basis", 0), label)
    if kind == "bom":
        return "\ufeff" + text
    return text + draw(st.sampled_from(["x", "{}", " 1", "\n\n", "]", "\x00", "\ufeff", " \t"]))


def _outcome(parse, text):
    """What a parse makes of the text: the repr of its value, which tells
    1, 1.0 and True apart, or its message and position."""
    try:
        return "value", repr(parse(text)[0])
    except SpecFileError as exc:
        return "error", str(exc), exc.line, exc.column


@settings(max_examples=400, deadline=None)
@given(decode_mutations())
def test_fast_decode_matches_the_positioned_parse(text):
    # both give the same value, or the same message at the same line and
    # column; so does the walk over the document, whose positions the fast
    # path resolves only when an error asks for one
    assert _outcome(specfile._decode, text) == _outcome(parse_positioned, text)
    try:
        fast = parse_space_spec(text)
    except SpecFileError as exc:
        fast = str(exc), exc.line, exc.column
    with mock.patch.object(specfile, "_decode", parse_positioned):
        try:
            positioned = parse_space_spec(text)
        except SpecFileError as exc:
            positioned = str(exc), exc.line, exc.column
    assert fast == positioned


def test_nesting_at_the_cap_decodes_and_one_level_more_is_refused():
    for depth, message in ((32, None), (33, "nesting deeper than 32")):
        text = "[" * depth + "]" * depth
        assert _outcome(specfile._decode, text) == _outcome(parse_positioned, text)
        if message is None:
            assert specfile._decode(text)[0] == parse_positioned(text)[0]
        else:
            with pytest.raises(SpecFileError, match=message):
                specfile._decode(text)


def test_a_valid_file_never_runs_the_positioned_parse(monkeypatch, tmp_path, capsys):
    calls = []
    positioned = specfile.parse_positioned
    monkeypatch.setattr(specfile, "parse_positioned", lambda text: calls.append(text) or positioned(text))
    for path in sorted(DATA.glob("*.json")):  # two of them carry metric scales
        assert main(["--json", str(path)]) == 0
    assert calls == []
    # only a recipe error asks for a position: that of "scales", one parse
    doc = json.loads((DATA / "so3so3_mod_diag_dense.json").read_text())
    doc["metric"]["scales"].append("1")
    text = json.dumps(doc, indent=1)
    spec = tmp_path / "recipe.json"
    spec.write_text(text)
    capsys.readouterr()
    assert main(["--json", str(spec)]) == 1
    assert calls == [text]
    line, column = positioned(text)[1][("metric", "scales")]
    message = "3 scale factors for 2 simple ideals"
    assert capsys.readouterr().err.splitlines() == [f"error: line {line}, column {column}: {message}"]


def test_a_rational_string_reads_as_fraction_of_it():
    for text in ("0", "-0", "7", "-12", "6/4", "-6/4", "0/5", "0012/3", "-1/" + "9" * 40):
        assert specfile._rat_at(text, None, ()) == Fraction(text)
    assert specfile._rat_at(-5, None, ()) == -5


VALID_DOCS = tuple(
    json.loads((DATA / name).read_text())
    for name in ("so3_sphere.json", "so4_mod_so2_asserted.json", "so3so3_mod_diag_dense.json")
)
ODD_VALUES = (
    True, False, None, 0, 1, -2, 1.0, 2.5, 2**70, "", "x", "3", "-1/2", "1/0", "2/", "\u0663",
    "5\n", [], {}, [1, 2, 3, "1"], {"mode": "custom"},
)
SPEC_KEYS = ("basis", "brackets", "subalgebra", "metric", "assertions", "mode", "scales",
             "center_gram", "locally_irreducible", "is_sphere_or_rp", "extra")


def _value_paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _value_paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A valid spec document with one to three values swapped for odd ones,
    keys or items deleted, or keys and items added."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_value_paths(doc))))
        odd = draw(st.sampled_from(ODD_VALUES))
        if not path:
            doc = copy.deepcopy(odd)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        action = draw(st.sampled_from(("replace", "delete", "add")))
        if action == "replace":
            parent[path[-1]] = copy.deepcopy(odd)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(target, dict):
            target[draw(st.sampled_from(SPEC_KEYS))] = copy.deepcopy(odd)
        elif isinstance(target, list):
            target.insert(draw(st.integers(0, len(target))), copy.deepcopy(odd))
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_parsed_spec_builds_its_algebra_or_raises_a_workbench_error(doc):
    try:
        spec = parse_space_spec(json.dumps(doc))
    except SpecFileError:
        return
    try:
        make_lie_algebra(spec.dim, spec.bracket_entries, spec.basis_labels)
    except WorkbenchError:
        pass


@pytest.mark.parametrize("position", [0, 1, 2])
def test_cli_float_bracket_index_is_an_input_error(tmp_path, position):
    # JSON Schema counts 1.0 as an integer, so only the parser can reject it
    doc = json.loads(SPHERE_TEXT)
    doc["brackets"][0][position] = float(doc["brackets"][0][position])
    text = json.dumps(doc, indent=1)
    line, column = parse_positioned(text)[1][("brackets", 0)]
    spec = tmp_path / "float_index.json"
    spec.write_text(text)
    proc = _run_module("-m", "reductive_workbench", str(spec))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    index = doc["brackets"][0][position]
    assert proc.stderr.splitlines() == [
        f"error: line {line}, column {column}: bracket index {index!r} is not an integer"
    ]
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "value",
    ["\u0663", "\uff11", "1/\u0662"],
    ids=["arabic_indic_3", "fullwidth_1", "arabic_indic_denominator"],
)
def test_cli_non_ascii_digits_are_a_malformed_rational(tmp_path, capsys, value):
    # Python's \d and Fraction take every Unicode decimal digit; rationals take ASCII only
    doc = json.loads(SPHERE_TEXT)
    doc["subalgebra"][0][2] = value
    text = json.dumps(doc, indent=1, ensure_ascii=False)
    line, column = parse_positioned(text)[1][("subalgebra", 0, 2)]
    spec = tmp_path / "digits.json"
    spec.write_text(text, encoding="utf-8")
    assert main([str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: line {line}, column {column}: malformed rational {value!r}"
    ]
    assert captured.out == ""


@pytest.mark.parametrize(
    "name, edit, expected",
    [
        (
            "not_a_subalgebra",
            {"subalgebra": [["1", "0", "0"], ["0", "1", "0"]]},
            "error: normal_decomposition: subspace is not closed under the bracket: witness (0, 1, -1), defect 0",
        ),
        (
            "jacobi",
            {"brackets": [[1, 2, 3, "1"], [1, 3, 1, "1"]], "subalgebra": []},
            "error: make_lie_algebra: Jacobi identity fails on basis triple (0, 1, 2): defect (0, 0, -1)",
        ),
    ],
)
def test_cli_engine_errors_print_rationals_and_witnesses_plainly(tmp_path, capsys, name, edit, expected):
    # a witness prints as its index triple and defect, a rational as p/q
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps({**json.loads(SPHERE_TEXT), **edit}))
    assert main([str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [expected]
    assert "Fraction(" not in captured.err and "TripleWitness(" not in captured.err
    assert captured.out == ""


SPEC_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src/reductive_workbench/schemas/spacespec.schema.json")
    .read_text()
)


def test_valid_documents_pass_the_schema_walk():
    import jsonschema

    for doc in VALID_DOCS:
        assert list(jsonschema.Draft7Validator(SPEC_SCHEMA).iter_errors(doc)) == []
        assert parse_space_spec(json.dumps(doc)).dim == len(doc["basis"])


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_schema_walk_accepts_only_what_jsonschema_accepts(doc):
    # jsonschema is the oracle: the walk may be stricter than the schema (a
    # float index 1.0, a scale given with the default metric), never looser,
    # and each rejection is one SpecFileError with a line and a column
    import jsonschema

    try:
        parse_space_spec(json.dumps(doc))
    except SpecFileError as exc:
        assert exc.line is not None and exc.column is not None
        return
    assert list(jsonschema.Draft7Validator(SPEC_SCHEMA).iter_errors(doc)) == []


DELETED = object()


@pytest.mark.parametrize(
    "edit_path, value, at, named",
    [
        ((), ["L1"], (), "got ['L1']"),
        (("metric",), DELETED, (), "missing key 'metric'"),
        (("extra",), 1, ("extra",), "unexpected key 'extra'"),
        (("basis",), [], ("basis",), "'basis'"),
        (("basis", 1), 5, ("basis", 1), "got 5"),
        (("brackets", 2), [1, 3, 2], ("brackets", 2), "got [1, 3, 2]"),
        (("metric", "mode"), "x", ("metric", "mode"), "got 'x'"),
        (("metric", "scales"), {}, ("metric", "scales"), "'scales'"),
        (("assertions", "is_sphere_or_rp"), None, ("assertions", "is_sphere_or_rp"), "'is_sphere_or_rp'"),
    ],
    ids=["not_an_object", "missing_key", "extra_key", "empty_basis", "label_not_a_string",
         "short_bracket_entry", "unknown_mode", "scales_not_an_array", "assertion_not_a_bool"],
)
def test_each_schema_rule_is_one_error_at_the_offending_value(edit_path, value, at, named):
    # one edit to so3_sphere.json; the error sits at the offending value and names it
    doc = json.loads(SPHERE_TEXT)
    if edit_path:
        parent = doc
        for key in edit_path[:-1]:
            parent = parent[key]
        if value is DELETED:
            del parent[edit_path[-1]]
        else:
            parent[edit_path[-1]] = value
    else:
        doc = value
    text = json.dumps(doc, indent=1)
    with pytest.raises(SpecFileError) as exc:
        parse_space_spec(text)
    assert (exc.value.line, exc.value.column) == parse_positioned(text)[1][at]
    assert named in str(exc.value)


def test_valid_spec_file_never_imports_jsonschema(tmp_path):
    # a rejected file words its own error, without jsonschema either
    rejected = tmp_path / "no_metric.json"
    rejected.write_text('{"basis": ["x"], "brackets": [], "subalgebra": []}')
    for spec, code, error in (
        (DATA / "so3so3_mod_diag_dense.json", 0, ""),
        (rejected, 1, "error: line 1, column 1: missing key 'metric'\n"),
    ):
        script = (
            "import sys\n"
            "from reductive_workbench.cli import main\n"
            f"code = main(['--json', {str(spec)!r}])\n"
            "print(code, 'jsonschema' in sys.modules, file=sys.stderr)\n"
        )
        proc = _run_module("-c", script)
        assert proc.returncode == 0
        assert proc.stderr == f"{error}{code} False\n"


def test_parse_space_spec_roundtrip():
    spec = parse_space_spec((DATA / "so3_sphere.json").read_text())
    assert spec.dim == 3
    assert spec.basis_labels == ("L1", "L2", "L3")
    assert spec.assertions.locally_irreducible is True
    assert spec.assertions.is_sphere_or_rp is True


# --- golden reports ---------------------------------------------------------------


# desk-cap family members with frozen reports, as in
# scripts/regenerate_golden_reports.py
DESK_CAP_NAMES = ("su8_mod_0", "su7_mod_0", "so8so8_mod_diag", "su8_mod_su7")


@pytest.mark.parametrize("name", catalog_names() + DESK_CAP_NAMES)
def test_golden_reports_are_stable(name):
    report = run_report(construct(name), checks="all", numeric=False)
    assert report.to_json() == (GOLDEN / f"{name}.json").read_text()
    assert report.to_text() == (GOLDEN / f"{name}.txt").read_text()
    assert report.exit_code == 0


def test_golden_report_of_a_dense_custom_metric_spec(capsys):
    # so3so3_mod_diag in a fixed unimodular basis, one metric scale per simple
    # ideal: the simple-ideal split and every g-level sweep on dense constants
    spec = str(DATA / "so3so3_mod_diag_dense.json")
    for flags, suffix in ((["--json"], "json"), ([], "txt")):
        assert main([spec, *flags]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"so3so3_mod_diag_dense.{suffix}").read_text()


def test_golden_report_of_a_dense_pair_with_a_fixed_direction(capsys):
    # so4_mod_so2 in a fixed unimodular basis: h = 1, m = 5, m^h = 1 and a
    # torus of dim 1, so the normalizer check, the Killing-field check and the
    # torus read m-coordinates of dense vectors of m^h
    spec = str(DATA / "so4_mod_so2_dense.json")
    for flags, suffix in ((["--json"], "json"), ([], "txt")):
        assert main([spec, *flags]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"so4_mod_so2_dense.{suffix}").read_text()


def test_report_checks_that_h_is_a_subalgebra_once(monkeypatch):
    # normal_decomposition checks h; the pair's constructor, the largest ideal
    # in h and the transvection span (an ideal by construction) need no second sweep
    from reductive_workbench import homspace, liealg

    checked = []
    for module in (homspace, liealg):
        check = module.is_subalgebra
        monkeypatch.setattr(
            module, "is_subalgebra", lambda L, sub, check=check: checked.append(sub.dim) or check(L, sub)
        )
    report = run_report(load_space_spec_file(str(DATA / "so3so3_mod_diag_dense.json")))
    assert report.body["flags"]["transvection_equals_g"]
    assert checked == [3]


def test_reports_validate_against_report_schema():
    import jsonschema
    from importlib import resources

    schema = json.loads(
        resources.files("reductive_workbench")
        .joinpath("schemas/report.schema.json")
        .read_text()
    )
    for name in ("so4_mod_so2", "so3so3_mod_second_factor", "r2_mod_0"):
        report = run_report(construct(name), checks="all", numeric=True)
        jsonschema.validate(report.body, schema)


def test_report_byte_determinism_repeated_runs():
    # the full three-run catalog sweep lives in the acceptance suite
    for name in ("so4_mod_so2", "so3so3_mod_second_factor"):
        first = run_report(construct(name), checks="all").to_json()
        second = run_report(construct(name), checks="all").to_json()
        assert first == second


# --- CLI behaviour -----------------------------------------------------------------


def test_cli_list_catalog(capsys):
    assert main(["--list-catalog"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == list(catalog_names())


def test_cli_catalog_json(capsys):
    assert main(["--catalog", "so4_mod_so2", "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["dims"]["affine"] == 7
    assert body["torus_dim"] == 1
    assert body["flags"]["isotropy_probe"] == "reducible"
    assert body["engine"]["conventions"]["torsion"] == "T(X,Y) = -[X,Y]_m"


def test_cli_ineffective_entry_exits_zero(capsys):
    assert main(["--catalog", "so3so3_mod_second_factor"]) == 0
    out = capsys.readouterr().out
    assert "effective=false" in out
    assert "transvection_equals_g=false" in out


def test_cli_spec_file_asserted(capsys):
    assert main([str(DATA / "so4_mod_so2_asserted.json"), "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["isometry"]["certified"] is True
    assert body["isometry"]["group_dim"] == 7
    assert body["isometry"]["semisimple"] is False


def test_cli_sphere_gate_blocks_certification(capsys):
    assert main([str(DATA / "so3_sphere.json"), "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["isometry"]["certified"] is False
    assert body["dims"]["affine"] == 3


def test_cli_malformed_brackets_entry(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{\n"basis": ["a", "b"],\n"brackets": [[1, 2]],\n'
        '"subalgebra": [],\n"metric": {"mode": "negative_killing"}\n}'
    )
    assert main([str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "column" in err


def test_cli_json_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"basis": ["a"\n')
    assert main([str(bad)]) == 1
    assert "line" in capsys.readouterr().err


def test_cli_jacobi_violation_names_operation(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text(
        json.dumps(
            {
                "basis": ["f1", "f2", "f3"],
                "brackets": [
                    [1, 2, 1, "1"], [1, 2, 3, "1"],
                    [1, 3, 2, "-1"],
                    [2, 3, 1, "2"], [2, 3, 3, "-1"],
                ],
                "subalgebra": [],
                "metric": {"mode": "negative_killing"},
            }
        )
    )
    assert main([str(bad)]) == 1
    err = capsys.readouterr().err
    assert "make_lie_algebra" in err
    assert "(0, 1, 2)" in err


def test_cli_missing_file_and_no_inputs(capsys):
    assert main(["/nonexistent/path.json"]) == 1
    capsys.readouterr()
    assert main([]) == 1


def test_cli_engine_error_names_failing_operation(tmp_path, capsys):
    bad = tmp_path / "not_subalgebra.json"
    bad.write_text(
        json.dumps(
            {
                "basis": ["L1", "L2", "L3"],
                "brackets": [[1, 2, 3, 1], [2, 3, 1, 1], [1, 3, 2, -1]],
                "subalgebra": [[1, 0, 0], [0, 1, 0]],  # span(L1,L2) is not closed
                "metric": {"mode": "negative_killing"},
            }
        )
    )
    assert main([str(bad)]) == 1
    assert "normal_decomposition" in capsys.readouterr().err


def test_cli_unknown_catalog_name(capsys):
    assert main(["--catalog", "nope"]) == 1
    assert "no catalog family" in capsys.readouterr().err


def test_cli_fast_checks_skip_connection_sweep(capsys):
    assert main(["--catalog", "so3_mod_so2", "--checks", "fast", "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    names = {v["name"]: v for v in body["theorem_verdicts"]}
    assert names["connection_consistency"]["applicable"] is False


def test_cli_numeric_checks_section(capsys):
    assert main(["--catalog", "so4_mod_so2", "--numeric-checks", "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["numeric"]["status"] == "ok"
    assert body["numeric"]["all_below_tolerance"] is True


def test_cli_numeric_checks_skipped_for_files(capsys):
    assert main([str(DATA / "so3_sphere.json"), "--numeric-checks", "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["numeric"]["status"].startswith("skipped")


def _run_module(*args, timeout=None, env_changes=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    for key, value in (env_changes or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def _numeric_run(blas_threads):
    """stderr of a `--numeric-checks` run: numpy loaded, numpy.random loaded,
    and the OpenBLAS thread count in the environment after the run."""
    code = (
        "import os, sys\n"
        "from reductive_workbench.cli import main\n"
        "status = main(['--catalog', 'so5_mod_0', '--numeric-checks', '--json'])\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules, file=sys.stderr)\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    proc = _run_module("-c", code, env_changes={"OPENBLAS_NUM_THREADS": blas_threads})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["numeric"]["all_below_tolerance"] is True
    return proc.stderr.split()


def test_cli_numeric_checks_leave_numpy_random_unloaded():
    # the lab draws its self-test samples from the stdlib generator, so an
    # analyze run imports numpy but not numpy.random; its matrices are at most
    # 8x8, so the command asks for one BLAS thread
    assert _numeric_run(None) == ["True", "False", "1"]


def test_cli_numeric_checks_keep_the_blas_thread_count_of_the_caller():
    assert _numeric_run("2") == ["True", "False", "2"]


def test_cli_directory_input_is_an_input_error(tmp_path):
    proc = _run_module("-m", "reductive_workbench", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "content",
    [
        b'{"basis": ["\\u12',
        b'{"basis": ["\\uZZZZ"]}',
        b"[" * 5000,
        b'{"basis": ["\xe9"]}',
    ],
    ids=["truncated_escape", "non_hex_escape", "deep_nesting", "not_utf8"],
)
def test_cli_malformed_file_is_one_positioned_error(tmp_path, content):
    spec = tmp_path / "bad.json"
    spec.write_bytes(content)
    proc = _run_module("-m", "reductive_workbench", str(spec))
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line ")
    assert "column" in lines[0]
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_long_input_value_is_cut_in_the_error(tmp_path):
    doc = json.loads((DATA / "so3_sphere.json").read_text())
    doc["brackets"][0][3] = "x" * 100000
    spec = tmp_path / "long.json"
    spec.write_text(json.dumps(doc))
    proc = _run_module("-m", "reductive_workbench", str(spec))
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line ")
    assert "column" in lines[0]
    assert len(lines[0].encode()) < 300
    assert proc.stdout == ""


def test_cli_basis_beyond_desk_cap_is_one_positioned_error(tmp_path):
    # an abelian algebra of dim 64 with h = 0: one more than su(8)
    doc = {
        "basis": [f"x{i}" for i in range(64)],
        "brackets": [],
        "subalgebra": [],
        "metric": {"mode": "negative_killing"},
    }
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps(doc))
    proc = _run_module("-m", "reductive_workbench", str(spec), timeout=30)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line 1, column ")
    assert "desk cap" in lines[0]
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    doc["basis"].pop()  # su(8) size is still accepted
    assert parse_space_spec(json.dumps(doc)).dim == 63


# the free 2-step nilpotent algebra on x1, x2, x3: z = [g, g] = span(c12, c13, c23)
FREE_NILPOTENT_DOC = {
    "basis": ["x1", "x2", "x3", "c12", "c13", "c23"],
    "brackets": [[1, 2, 4, "1"], [1, 3, 5, "1"], [2, 3, 6, "1"]],
    "subalgebra": [],
    "metric": {"mode": "negative_killing"},
}


def test_cli_center_meeting_the_derived_algebra_is_one_error(tmp_path):
    # dim z + dim [g, g] = dim g although the two spaces coincide
    spec = tmp_path / "free_nilpotent.json"
    spec.write_text(json.dumps(FREE_NILPOTENT_DOC))
    proc = _run_module("-m", "reductive_workbench", str(spec))
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "center and derived subalgebra do not span the algebra" in lines[0]
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_exact_analysis_does_not_import_numpy():
    code = (
        "import sys\n"
        "from reductive_workbench.cli import main\n"
        "main(['--catalog', 'so4_mod_so2', '--json'])\n"
        "print('numpy' in sys.modules, 'dataclasses' in sys.modules,\n"
        "      'reductive_workbench.specfile' in sys.modules, file=sys.stderr)\n"
    )
    proc = _run_module("-c", code)
    assert proc.returncode == 0
    assert proc.stderr == "False False False\n"


def test_heavy_dependencies_are_imported_inside_functions_only():
    # sympy and numpy load on first use, so that starting the command and
    # the runs that never need them pay nothing for them; jsonschema, a
    # test-only oracle, must not come back at module level either, nor
    # dataclasses, whose import and per-class code generation cost a cold
    # command more than the rest of its start (records derive from
    # `record.Record` instead); an `if TYPE_CHECKING:` block never runs
    heavy = {"sympy", "numpy", "jsonschema", "dataclasses"}
    src = Path(__file__).resolve().parent.parent / "src" / "reductive_workbench"
    found = []

    def visit(node, path, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if not in_function and any(m.partition(".")[0] in heavy for m in modules):
                found.append(f"{path.name}:{child.lineno}")
            if isinstance(child, ast.If) and ast.unparse(child.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                visit(ast.Module(body=child.orelse, type_ignores=[]), path, in_function)
                continue
            inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, path, inner)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, False)
    assert found == []


def test_declared_dependencies_match_the_imports():
    # the third-party modules that src/ imports are exactly the declared
    # runtime dependencies; jsonschema is a test-only oracle
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements}

    imported = set()
    for path in (root / "src" / "reductive_workbench").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"reductive_workbench"}
    assert third_party == names(project["dependencies"])
    extras = project["optional-dependencies"]
    assert [extra for extra, reqs in extras.items() if "jsonschema" in names(reqs)] == ["test"]


def test_golden_report_under_optimize_flag():
    # python -O strips asserts; every verdict must come from explicit checks.
    # The spec file also runs both callers of the packed cyclic sweep: the
    # Jacobi check of its table and the Bianchi check of its pair. so3r1_mod_0
    # has a center: g1 != g and the fixed torus is nonzero. The h of
    # so4_mod_so2 and su3_mod_su2 is read off the so and su corner blocks.
    for args, golden in (
        (["--catalog", "so4_mod_so2"], "so4_mod_so2.json"),
        (["--catalog", "su3_mod_su2"], "su3_mod_su2.json"),
        (["--catalog", "so3r1_mod_0"], "so3r1_mod_0.json"),
        ([str(DATA / "so3so3_mod_diag_dense.json")], "so3so3_mod_diag_dense.json"),
        ([str(DATA / "so4_mod_so2_dense.json")], "so4_mod_so2_dense.json"),
    ):
        proc = _run_module("-O", "-m", "reductive_workbench", *args, "--json")
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / golden).read_text()


def test_source_has_no_assert_statements():
    # python -O drops assert statements, so no check may rest on one
    src = Path(__file__).resolve().parent.parent / "src" / "reductive_workbench"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_source_function_is_referenced():
    # a def that no engine, script or benchmark code reaches is dead code, even
    # if tests call it; a module function is reached through a name, an
    # attribute or an import alias, a method or property only through an
    # attribute, and a dotted span name in benchmarks/spans.py reaches its last
    # part; a field of a Record subclass is dead unless some attribute load reads it
    root = Path(__file__).resolve().parent.parent
    names, attributes, loads = set(), set(), set()
    trees = {}
    for top in ("src", "scripts", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(trees[path]):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                    if isinstance(node.ctx, ast.Load):
                        loads.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif path.name == "spans.py" and isinstance(node, ast.Constant):
                    if isinstance(node.value, str) and re.fullmatch(r"\w+(\.\w+)+", node.value):
                        attributes.add(node.value.rsplit(".", 1)[1])
    unreferenced = []
    for path, tree in trees.items():
        if path.relative_to(root).parts[0] != "src":
            continue
        methods = {
            id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            used = attributes if id(node) in methods else names | attributes
            if node.name not in used:
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(getattr(b, "id", None) == "Record" for b in cls.bases):
                for field in cls.body:
                    if isinstance(field, ast.AnnAssign) and field.target.id not in loads:
                        unreferenced.append(f"{path.name}:{field.lineno} {cls.name}.{field.target.id}")
    assert unreferenced == []


def test_exit_code_two_on_failed_applicable_verdict():
    body = {
        "theorem_verdicts": [
            {"name": "x", "applicable": True, "passed": False, "details": None}
        ]
    }
    assert SpaceReport(body).exit_code == 2


def test_console_entry_point_subprocess():
    proc = _run_module("-m", "reductive_workbench", "--catalog", "r2_mod_0", "--json")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["dims"] == {
        "g": 2, "h": 0, "m": 2, "m_fixed": 2, "k": 2, "k_center": 2,
        "transvection": 2, "affine": 2,
    }


def test_closed_stdout_pipe_exits_one_without_a_traceback():
    # the reader is gone before the first report is written, as in
    # `analyze ... | head -c 10`: the batch stops at that write, so the
    # second input is never analyzed
    code = (
        "import sys\n"
        "from reductive_workbench import cli\n"
        "calls = []\n"
        "analyze = cli.run_report\n"
        "cli.run_report = lambda *args, **kwargs: calls.append(1) or analyze(*args, **kwargs)\n"
        "status = cli.main(['--catalog', 'su3_mod_su2', '--catalog', 'so4_mod_so2', '--json'])\n"
        "print('run_report calls:', len(calls), file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    os.close(read_end)
    os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "run_report calls: 1\n"


class _RecordingStdout(io.StringIO):
    def __init__(self, events):
        super().__init__()
        self.events = events

    def write(self, text):
        self.events.append("write")
        return super().write(text)

    def flush(self):
        self.events.append("flush")


def test_each_report_is_flushed_before_the_next_input_is_loaded(monkeypatch):
    from reductive_workbench import cli

    events = []
    load, analyze = cli._load_source, cli.run_report

    def recorded_load(kind, value):
        events.append(f"load {value}")
        return load(kind, value)

    def recorded_run(source, **kwargs):
        events.append(f"analyze {source.name}")
        return analyze(source, **kwargs)

    monkeypatch.setattr(cli, "_load_source", recorded_load)
    monkeypatch.setattr(cli, "run_report", recorded_run)
    monkeypatch.setattr(sys, "stdout", _RecordingStdout(events))
    assert main(["--catalog", "r2_mod_0", "--catalog", "so3_mod_so2", "--json"]) == 0
    assert events == [
        "load r2_mod_0", "analyze r2_mod_0", "write", "flush",
        "load so3_mod_so2", "analyze so3_mod_so2", "write", "flush",
    ]


def test_reports_before_an_input_error_stay_on_stdout(tmp_path, capsys):
    sphere = str(DATA / "so3_sphere.json")
    assert main([sphere, "--json"]) == 0
    single = capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text('{"basis": ["a"\n')
    assert main([sphere, str(bad), "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == single
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("flags", [["--json"], []])
def test_batch_stdout_is_the_concatenation_of_single_runs(flags, capsys):
    inputs = [[str(DATA / "so3_sphere.json")], ["--catalog", "so3_mod_so2"], ["--catalog", "so4_mod_so2"]]
    singles = []
    for argv in inputs:
        assert main(argv + flags) == 0
        singles.append(capsys.readouterr().out)
    assert main([arg for argv in inputs for arg in argv] + flags) == 0
    assert capsys.readouterr().out == "".join(singles)


SO3_TEXT = '"basis": ["L1", "L2", "L3"], "brackets": [[1, 2, 3, "1"], [2, 3, 1, "1"], [1, 3, 2, "-1"]]'
SO3_R1_TEXT = SO3_TEXT.replace('"L3"]', '"L3", "Z"]')
R2_TEXT = '"basis": ["x", "y"], "brackets": []'


def test_cli_metric_recipe_mismatch_is_an_input_error(tmp_path):
    # the metric sits on line 2; columns point at the offending value, 1-based
    cases = [
        (SO3_TEXT, '{"mode": "custom", "scales": ["1", "2"]}', 41,
         "2 scale factors for 1 simple ideals"),
        (SO3_TEXT, '{"mode": "custom", "scales": ["-1/2"]}', 42,
         "scale 1 is -1/2; scales must be positive"),
        (R2_TEXT, '{"mode": "custom", "center_gram": [["1", "1"], ["0", "1"]]}', 53,
         "center gram is not symmetric at (1, 2)"),
        (SO3_R1_TEXT, '{"mode": "custom", "center_gram": [["1", "0"], ["0", "1"]]}', 46,
         "center gram must be 1x1"),
        (SO3_R1_TEXT, '{"mode": "custom", "center_gram": [["1", "0"]]}', 46,
         "center gram must be 1x1"),
        (SO3_TEXT, '{"mode": "custom", "center_gram": [["1"]]}', 46,
         "center gram supplied but the algebra has no center"),
        (R2_TEXT, '{"mode": "custom", "center_gram": [["1", "0"], ["0", "-1"]]}', 46,
         "center gram is not positive-definite"),
    ]
    for algebra, metric, column, message in cases:
        spec = tmp_path / "recipe.json"
        spec.write_text(f'{{{algebra}, "subalgebra": [],\n "metric": {metric}}}')
        proc = _run_module("-m", "reductive_workbench", str(spec))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: line 2, column {column}: {message}"]
        assert proc.stdout == ""


@pytest.mark.parametrize(
    "name",
    [
        "so03_mod_0",
        pytest.param("so\u0663_mod_0", id="so_arabic_indic_3_mod_0"),
        "so8_mod_so02",
        "so9_mod_0",
        "su0_mod_0",
        "so8_mod_so9",
        "so4so5_mod_diag",
        "r0_mod_0",
        pytest.param("", id="empty"),
        pytest.param("so" + "1" * 5000 + "_mod_0", id="so_5000_digits_mod_0"),
    ],
)
def test_cli_rejects_noncanonical_or_out_of_range_catalog_names(name, capsys):
    assert main(["--catalog", name]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert len(lines[0]) < 200


def test_trivial_isotropy_report_does_not_import_sympy():
    # the probe decides a trivial action without a characteristic polynomial
    code = (
        "import sys\n"
        "from reductive_workbench.cli import main\n"
        "main(['--json', '--catalog', 'so5_mod_0'])\n"
        "print('sympy' in sys.modules, file=sys.stderr)\n"
    )
    proc = _run_module("-c", code)
    assert proc.returncode == 0
    assert proc.stderr == "False\n"


def test_dense_custom_metric_spec_does_not_import_sympy(tmp_path):
    # the split of so(4) in a dense basis decomposes a centroid element whose
    # eigenvalues are all rational: its eigenspaces are certified without sympy
    entry = construct("so4_mod_so2")
    entries, to_new = _changed_basis(entry.algebra, random.Random(3))
    spec = tmp_path / "dense_so4.json"
    _spec_file(spec, entry.algebra, entries, [to_new(v) for v in entry.h.rows],
               {"mode": "custom", "scales": ["1", "3"]})
    code = (
        "import sys\n"
        "from reductive_workbench import linalg\n"
        "from reductive_workbench.cli import main\n"
        "calls = []\n"
        "charpoly = linalg.charpoly\n"
        "linalg.charpoly = lambda A: calls.append(A) or charpoly(A)\n"
        f"code = main(['--json', {str(spec)!r}])\n"
        "print(code, len(calls) > 0, 'sympy' in sys.modules, file=sys.stderr)\n"
    )
    proc = _run_module("-c", code)
    assert proc.returncode == 0
    assert proc.stderr == "0 True False\n"


def test_a_file_with_twenty_one_simple_factors_is_analyzed(tmp_path):
    # so(3)^21 (dim 63): its split takes the widened Cartan draws; the custom
    # metric takes one scale per simple ideal, so 21 scales fit and 20 do not
    cycle = [(1, 2, 3, "1"), (2, 3, 1, "1"), (1, 3, 2, "-1")]
    doc = {
        "basis": [f"L{i}_{f}" for f in range(1, 22) for i in (1, 2, 3)],
        "brackets": [[i + 3 * f, j + 3 * f, k + 3 * f, c] for f in range(21) for i, j, k, c in cycle],
        "subalgebra": [["0", "0", "1"] + ["0"] * 60],
        "metric": {"mode": "custom", "scales": [str(s) for s in range(1, 22)]},
    }
    spec = tmp_path / "so3_pow21.json"
    spec.write_text(json.dumps(doc))
    proc = _run_module("-m", "reductive_workbench", "--json", str(spec))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dims"]["g"] == 63
    doc["metric"]["scales"].pop()
    spec.write_text(json.dumps(doc))
    proc = _run_module("-m", "reductive_workbench", "--json", str(spec))
    assert proc.returncode == 1
    assert "20 scale factors for 21 simple ideals" in proc.stderr


def test_a_q_simple_ideal_that_is_not_absolutely_simple_takes_one_scale(capsys):
    # so(3) + su(2) over Q(sqrt 2), dim 9: two simple ideals over Q, of dims 3 and 6
    assert main(["--json", str(DATA / "so3_plus_su2_over_q_sqrt2.json")]) == 0
    assert json.loads(capsys.readouterr().out)["dims"]["g"] == 9
    spec = load_space_spec_file(str(DATA / "so3_plus_su2_over_q_sqrt2.json"))
    _, ideals = simple_ideal_decomposition(make_lie_algebra(spec.dim, spec.bracket_entries))
    assert [s.dim for s in ideals] == [3, 6]


def _dense_spec(tmp_path, name, seed, scales=None):
    """The catalog entry rewritten in a unimodular basis. `scales` (one per
    simple ideal, in the entry's split order) follow their ideals into the new
    basis, whose split may order them differently; None keeps the default
    metric."""
    entry = construct(name)
    L = entry.algebra
    entries, to_new = _changed_basis(L, random.Random(seed))
    metric = {"mode": "negative_killing"}
    if scales is not None:
        _, ideals = simple_ideal_decomposition(L)
        moved = [SubspaceBasis.from_vectors(L.dim, map(to_new, s.rows)) for s in ideals]
        order = sorted(range(len(moved)), key=lambda t: (moved[t].dim, moved[t].pivots, moved[t].rows))
        metric = {"mode": "custom", "scales": [scales[t] for t in order]}
    return _spec_file(tmp_path / f"{name}.json", L, entries, [to_new(v) for v in entry.h.rows], metric)


def _original_report(tmp_path, name, scales=None):
    """The catalog entry's report body, with the scales in its own basis."""
    entry = construct(name)
    if scales is None:
        return run_report(entry).body
    spec = _spec_file(tmp_path / "original.json", entry.algebra, entry.algebra.entries, entry.h.rows,
                      {"mode": "custom", "scales": list(scales)})
    return run_report(spec).body


SMALL_CURATED = [name for name in CURATED_NAMES if construct(name).algebra.dim <= 15]


@pytest.mark.parametrize("scaled", [False, True], ids=["default_metric", "scales"])
@pytest.mark.parametrize("name", SMALL_CURATED)
def test_dense_spec_of_a_small_curated_entry_gives_its_report(name, scaled, tmp_path):
    # every layer on dense constants: the spec file, the split (with scales),
    # the pair, the adapted table and k
    scales = None
    if scaled:
        _, ideals = simple_ideal_decomposition(construct(name).algebra)
        scales = [str(t + 2) for t in range(len(ideals))]
    spec = _dense_spec(tmp_path, name, 11, scales)
    assert _report_invariants(run_report(spec).body) == _report_invariants(_original_report(tmp_path, name, scales))


def test_dense_split_solves_no_system_wider_than_g(tmp_path, monkeypatch):
    # the centroid is solved on a Cartan subalgebra (rank^2 unknowns), not on g
    # (n^2 = 441 unknowns for so(7))
    spec = _dense_spec(tmp_path, "so7_mod_so6", 7, ["3"])
    widths = []
    kernel = linalg.kernel

    def spy(A, ncols):
        widths.append(ncols)
        return kernel(A, ncols)

    monkeypatch.setattr(liealg, "kernel", spy)
    monkeypatch.setattr(linalg, "kernel", spy)
    L = make_lie_algebra(spec.dim, spec.bracket_entries, spec.basis_labels)
    _, ideals = simple_ideal_decomposition(L)
    assert [s.dim for s in ideals] == [21]
    assert widths and max(widths) <= L.dim
    monkeypatch.undo()
    assert _report_invariants(run_report(spec).body) == _report_invariants(run_report(construct("so7_mod_so6")).body)


def test_a_split_whose_draws_all_fail_ends_in_one_error_line(tmp_path, monkeypatch):
    _dense_spec(tmp_path, "so3so3_mod_diag", 5, ["1", "2"])
    spec = tmp_path / "so3so3_mod_diag.json"
    monkeypatch.setattr(liealg, "krylov_rank", lambda A, v, steps: -1)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(spec)])
    assert code != 0
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Cartan subalgebra" in lines[0]
    assert "Traceback" not in err.getvalue()


def test_curated_reports_decide_the_probe_over_r_without_sympy():
    # the isotropy of the 2-sphere rotates m, which no rational eigenvector
    # splits; the invariant symmetric forms decide it, and no curated report
    # forms a characteristic polynomial that sympy would have to factor
    code = (
        "import sys\n"
        "from reductive_workbench.catalog import CURATED_NAMES, construct\n"
        "from reductive_workbench.report import run_report\n"
        "probes = {n: run_report(construct(n)).body['flags']['isotropy_probe'] for n in CURATED_NAMES}\n"
        "print(len(probes), probes['so3_mod_so2'], 'sympy' in sys.modules, file=sys.stderr)\n"
    )
    proc = _run_module("-c", code)
    assert proc.returncode == 0
    assert proc.stderr == "13 irreducible False\n"


def test_grassmannian_gr2_r5_isometry_is_certified(tmp_path):
    # so(5)/(so(2) + so(3)) with h at E12, E34, E35, E45: the probe certifies
    # irreducibility, so the asserted non-sphere gate alone is left
    L = construct("so5_mod_0").algebra
    h_rows = [[1 if k == i else 0 for k in range(L.dim)] for i in (0, 7, 8, 9)]
    spec = _spec_file(tmp_path / "gr2_r5.json", L, L.entries, h_rows, {"mode": "negative_killing"})
    body = run_report(spec, assertions=UserAssertions(is_sphere_or_rp=False)).body
    assert body["flags"]["isotropy_probe"] == "irreducible"
    iso = body["isometry"]
    assert (iso["certified"], iso["group_dim"], iso["semisimple"]) == (True, 10, True)


# --- fuzzing main() -----------------------------------------------------------------

SMALL_DIGITS = "0123\u0663\uff13"  # 0-3, an Arabic-Indic and a fullwidth three

catalog_name_inputs = st.one_of(
    st.sampled_from(["so3_mod_so2", "so3_mod_0", "r2_mod_0", "so3r1_mod_0", "so4_mod_so3"]),
    st.builds(
        "{}{}_mod_{}".format,
        st.sampled_from(["so", "su", "r", "so3so", "sp", ""]),
        st.text(SMALL_DIGITS, max_size=3),
        st.one_of(st.just("0"), st.just("diag"), st.text(SMALL_DIGITS, max_size=2).map("so{}".format)),
    ),
    st.integers(33, 80).map(lambda n: "so" + "1" * n + "_mod_0"),
    st.text(max_size=12),
)

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["1", "-1/2", "0", "x", "1/0", ""])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["mode", "scales", "a"]), inner, max_size=2)
    ),
    max_leaves=6,
)
metric_recipes = st.one_of(
    st.fixed_dictionaries({"mode": st.sampled_from(["negative_killing", "custom", "bogus"])}),
    st.fixed_dictionaries(
        {"mode": st.just("custom"), "scales": st.lists(st.sampled_from(["1", "2/3", "-1", "0", "a"]), max_size=3)}
    ),
    st.fixed_dictionaries({"mode": st.just("custom"), "center_gram": json_values}),
    json_values,
)


@st.composite
def spec_texts(draw):
    doc = json.loads(SPHERE_TEXT)
    kind = draw(st.sampled_from(["metric", "wrong_type", "truncated", "nested"]))
    if kind == "metric":
        doc["metric"] = draw(metric_recipes)
    elif kind == "wrong_type":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(json_values)
    text = json.dumps(doc)
    if kind == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif kind == "nested":
        depth = draw(st.integers(1, 60))
        text = text.replace('"subalgebra": ', '"subalgebra": ' + "[" * depth, 1)
        text = text.replace('"metric"', "]" * depth + ', "metric"', 1)
    return text


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(catalog_name_inputs, max_size=2),
    texts=st.lists(spec_texts(), max_size=2),
    flags=st.sampled_from([[], ["--json"], ["--checks=fast"], ["--json", "--checks=fast"], ["--checks=none"]]),
)
def test_main_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path_factory, names, texts, flags):
    folder = tmp_path_factory.mktemp("fuzz")
    argv = list(flags)
    for t, text in enumerate(texts):
        path = folder / f"spec{t}.json"
        path.write_text(text, encoding="utf-8")
        argv.append(str(path))
    for name in names:
        argv += ["--catalog", name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert sum("error:" in line for line in lines) <= 1
    assert "Traceback" not in err.getvalue()
    if code == 1 and (names or texts):
        assert len(lines) == 1 and lines[0].startswith("error: ")


@st.composite
def two_step_nilpotent_documents(draw):
    """Generators x_1..x_g and central c_1..c_t with each [x_i, x_j] a small
    rational combination of the c's: nilpotent of step at most 2, so Jacobi
    holds, and not of compact type unless every bracket vanishes."""
    gens = draw(st.integers(2, 4))
    centrals = draw(st.integers(1, gens * (gens - 1) // 2))
    dim = gens + centrals
    coefficient = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    brackets = [
        [i + 1, j + 1, gens + t + 1, str(c)]
        for i in range(gens)
        for j in range(i + 1, gens)
        for t in range(centrals)
        if (c := draw(coefficient))
    ]
    generator = draw(st.one_of(st.none(), st.integers(0, gens - 1)))
    subalgebra = [] if generator is None else [["1" if k == generator else "0" for k in range(dim)]]
    gram_size = draw(st.integers(1, 3))
    metric = draw(
        st.sampled_from(
            [
                {"mode": "negative_killing"},
                {"mode": "custom"},
                {"mode": "custom", "center_gram": [["2" if a == b else "0" for b in range(gram_size)] for a in range(gram_size)]},
            ]
        )
    )
    basis = [f"x{i + 1}" for i in range(gens)] + [f"c{t + 1}" for t in range(centrals)]
    return {"basis": basis, "brackets": brackets, "subalgebra": subalgebra, "metric": metric}


@settings(max_examples=40, deadline=None)
@given(doc=two_step_nilpotent_documents(), flags=st.sampled_from([[], ["--json"]]))
@example(doc=FREE_NILPOTENT_DOC, flags=[])
def test_main_on_two_step_nilpotent_algebras_ends_in_an_exit_code(tmp_path_factory, doc, flags):
    path = tmp_path_factory.mktemp("nilpotent") / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*flags, str(path)])
    assert code in (0, 1, 2)


def _report_invariants(body):
    verdicts = [(v["name"], v["applicable"], v["passed"]) for v in body["theorem_verdicts"]]
    return body["dims"], body["flags"], verdicts, body["torus_dim"]


def _changed_basis(L, rng):
    """Structure entries in a random unimodular basis f_a = sum_i P[a][i] e_i,
    and the map from old coordinates to coordinates along the f_a."""
    dim = L.dim
    P, Pinv = unimodular(dim, rng)

    def to_new(v):
        return [sum((v[i] * Pinv[i][a] for i in range(dim)), F0) for a in range(dim)]

    return changed_basis_entries(dim, L.bracket_basis, P, Pinv), to_new


def _spec_file(path, L, entries, h_rows, metric):
    doc = {
        "basis": list(L.basis_labels),
        "brackets": [[i + 1, j + 1, k + 1, str(c)] for i, j, k, c in entries],
        "subalgebra": [[str(x) for x in row] for row in h_rows],
        "metric": metric,
    }
    path.write_text(json.dumps(doc))
    return load_space_spec_file(str(path))


@pytest.mark.parametrize(
    "name, scales",
    [
        pytest.param("so3_mod_so2", None, id="so3_mod_so2"),
        pytest.param("so4_mod_so2", None, id="so4_mod_so2"),
        pytest.param("su3_mod_su2", None, id="su3_mod_su2"),
        pytest.param("so3so3_mod_diag", None, id="so3so3_mod_diag"),
        pytest.param("so4_mod_0", None, id="so4_mod_0"),
        # a parametric entry outside the curated 13
        pytest.param("so5_mod_so3", None, id="so5_mod_so3"),
        pytest.param("so6_mod_so4", None, id="so6_mod_so4"),
        pytest.param("su4_mod_su2", None, id="su4_mod_su2"),
        # one scale per simple ideal, so the split runs on the dense basis
        pytest.param("so4_mod_so2", ("1", "3"), id="so4_mod_so2_custom"),
        pytest.param("so3so3_mod_diag", ("5/2", "1"), id="so3so3_mod_diag_custom"),
    ],
)
def test_report_survives_a_unimodular_change_of_basis(name, scales, tmp_path):
    # the pair rewritten in the basis f_a = sum_i P[a][i] e_i and read back as
    # a spec file must give the original run's dims, flags, verdicts and torus
    changed = _dense_spec(tmp_path, name, sum(map(ord, name)), scales)
    assert _report_invariants(run_report(changed).body) == _report_invariants(_original_report(tmp_path, name, scales))
