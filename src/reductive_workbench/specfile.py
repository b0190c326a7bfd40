"""Space-specification files: positioned parsing, schema and semantic checks.

The input format is strict JSON (RFC 8259; see schemas/spacespec.schema.json).
The stdlib decoder parses it, with hooks on its containers that record where
every value starts and cap the nesting, so that syntax errors, schema
violations and semantic errors (bad indices, malformed rationals) all carry a
line and column. The schema's rules are walked in plain Python first; only
a document that walk does not accept goes to jsonschema, which is loaded
then and words the first error, so a valid file never imports it. Bracket
indices in files are 1-based, matching the basis listing; the Python API
stays 0-based. A basis longer than MAX_DIM (63, the dimension of su(8)) is
rejected at `basis` before any analysis starts.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from json.decoder import WHITESPACE, JSONArray, JSONObject
from json.scanner import py_make_scanner

from .affine import UserAssertions
from .errors import SpecFileError
from .homspace import MetricSpec
from .linalg import Matrix, signature

_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")

Position = tuple[int, int]
Path = tuple

# Far above the schema's own depth of 4; the containers check it, so the
# position of the error does not depend on the caller's stack.
MAX_NESTING = 32
MAX_DIM = 63  # dim su(8), the largest algebra the engine is sized for


def parse_positioned(text: str) -> tuple[object, dict[Path, Position]]:
    """Parse JSON, returning the value and a map from path tuples to positions."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    offsets: list[int] = []  # start of every value, in document pre-order
    children: list[list[int]] = [[]]  # value starts in each open container

    def where(offset: int) -> Position:
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    def record(s: str, idx: int):
        offsets.append(idx)
        children[-1].append(idx)
        return scan(s, idx)

    def nested(parse, s_and_end, *args):
        if len(children) > MAX_NESTING:
            raise SpecFileError(f"nesting deeper than {MAX_NESTING}", *where(s_and_end[1] - 1))
        children.append([])
        result = parse(s_and_end, *args)
        children.pop()
        return result

    def unique_keys(pairs):
        out = {}
        for (key, value), offset in zip(pairs, children[-1]):
            if key in out:
                raise SpecFileError(f"duplicate key {key!r}", *where(offset))
            out[key] = value
        return out

    def no_constant(name):
        raise SpecFileError(f"{name} is not a JSON value", *where(offsets[-1]))

    decoder = json.JSONDecoder(object_pairs_hook=unique_keys, parse_constant=no_constant)
    # the stdlib container parsers, scanning each value through record
    decoder.parse_object = lambda at, strict, _, *hooks: nested(
        JSONObject, at, strict, record, *hooks
    )
    decoder.parse_array = lambda at, _: nested(JSONArray, at, record)
    scan = py_make_scanner(decoder)
    try:
        value, end = record(text, WHITESPACE.match(text).end())
    except StopIteration as exc:
        raise SpecFileError("expected a JSON value", *where(exc.value)) from None
    except json.JSONDecodeError as exc:
        message = re.sub(r"( starting)? at$", "", exc.msg)  # the position follows
        raise SpecFileError(message, exc.lineno, exc.colno) from None
    except ValueError:  # an integer longer than int() converts
        raise SpecFileError("integer has too many digits", *where(offsets[-1])) from None
    end = WHITESPACE.match(text, end).end()
    if end != len(text):
        raise SpecFileError("trailing content after the document", *where(end))
    # one iterative pre-order walk pairs each offset with its path
    positions: dict[Path, Position] = {}
    starts, stack = iter(offsets), [((), value)]
    while stack:
        path, item = stack.pop()
        positions[path] = where(next(starts))
        items = item.items() if isinstance(item, dict) else ()
        if isinstance(item, list):
            items = enumerate(item)
        stack.extend(reversed([(path + (key,), child) for key, child in items]))
    return value, positions


# ---------------------------------------------------------------------------
# schema + semantic validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceSpec:
    """Validated raw contents, ready for the analysis pipeline."""

    dim: int
    basis_labels: tuple[str, ...]
    bracket_entries: tuple  # 0-based (i, j, k, Fraction)
    subalgebra_rows: Matrix
    metric_spec: MetricSpec
    assertions: UserAssertions
    # where each metric-recipe field ("scales", "center_gram") starts in the
    # file, for the recipe errors that only the algebra can reveal
    recipe_positions: dict[str, Position] = field(default_factory=dict, compare=False)


def _schema() -> dict:
    data = resources.files("reductive_workbench").joinpath("schemas/spacespec.schema.json")
    return json.loads(data.read_text(encoding="utf-8"))


def _is_rational(x) -> bool:
    # the schema's "rational": an integer (never a bool), or a string that the
    # pattern finds with re.search, as jsonschema applies it
    return type(x) is int or (type(x) is str and _RATIONAL.search(x) is not None)


def _is_list_of(x, accepts) -> bool:
    return type(x) is list and all(accepts(y) for y in x)


def _is_bracket(item) -> bool:
    return (
        type(item) is list
        and len(item) == 4
        and all(type(i) is int and i >= 1 for i in item[:3])
        and _is_rational(item[3])
    )


def _is_metric(metric) -> bool:
    return (
        type(metric) is dict
        and metric.keys() <= {"mode", "scales", "center_gram"}
        and type(metric.get("mode")) is str
        and metric["mode"] in ("negative_killing", "custom")
        and _is_list_of(metric.get("scales", []), _is_rational)
        and _is_list_of(metric.get("center_gram", []), lambda row: _is_list_of(row, _is_rational))
    )


def _is_assertions(asserts) -> bool:
    return (
        type(asserts) is dict
        and asserts.keys() <= {"locally_irreducible", "is_sphere_or_rp"}
        and all(type(v) is bool for v in asserts.values())
    )


def _plainly_valid(doc) -> bool:
    """True only when the document satisfies schemas/spacespec.schema.json:
    types, required and extra keys, minItems, indices >= 1 and the rational
    pattern. A bool or a float where a number belongs, or anything else the
    walk is not sure of, answers False and leaves the verdict to jsonschema."""
    return (
        type(doc) is dict
        and {"basis", "brackets", "subalgebra", "metric"} <= doc.keys()
        and doc.keys() <= {"basis", "brackets", "subalgebra", "metric", "assertions"}
        and _is_list_of(doc["basis"], lambda label: type(label) is str and len(label) >= 1)
        and len(doc["basis"]) >= 1
        and _is_list_of(doc["brackets"], _is_bracket)
        and _is_list_of(doc["subalgebra"], lambda row: _is_list_of(row, _is_rational))
        and _is_metric(doc["metric"])
        and _is_assertions(doc.get("assertions", {}))
    )


def _position_for(positions: dict, path: tuple) -> Position:
    while path:
        if path in positions:
            return positions[path]
        path = path[:-1]
    return positions.get((), (1, 1))


def _rat_at(value, positions, path) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        line, col = _position_for(positions, path)
        raise SpecFileError(
            f"rationals must be integers or 'p/q' strings, got {value!r}", line, col
        )
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        line, col = _position_for(positions, path)
        raise SpecFileError(f"malformed rational {value!r}", line, col)
    try:
        return Fraction(value)
    except ValueError:  # more digits than int() converts
        line, col = _position_for(positions, path)
        raise SpecFileError("rational has too many digits", line, col) from None


def parse_space_spec(text: str) -> SpaceSpec:
    """Parse and validate a specification document; raises SpecFileError."""
    doc, positions = parse_positioned(text)
    if not _plainly_valid(doc):
        import jsonschema

        validator = jsonschema.Draft7Validator(_schema())
        errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
        if errors:
            err = errors[0]
            line, col = _position_for(positions, tuple(err.absolute_path))
            raise SpecFileError(err.message, line, col)

    labels = tuple(doc["basis"])
    if len(labels) > MAX_DIM:
        line, col = _position_for(positions, ("basis",))
        raise SpecFileError(
            f"basis has {len(labels)} labels, more than the desk cap of {MAX_DIM} (su(8))",
            line,
            col,
        )
    if len(set(labels)) != len(labels):
        line, col = _position_for(positions, ("basis",))
        raise SpecFileError("basis labels must be unique", line, col)
    dim = len(labels)

    entries = []
    for t, item in enumerate(doc["brackets"]):
        i, j, k = item[0], item[1], item[2]
        path = ("brackets", t)
        line, col = _position_for(positions, path)
        for idx in (i, j, k):
            if type(idx) is not int:
                raise SpecFileError(f"bracket index {idx!r} is not an integer", line, col)
            if not 1 <= idx <= dim:
                raise SpecFileError(
                    f"bracket index {idx} out of range 1..{dim}", line, col
                )
        if i >= j:
            raise SpecFileError(
                f"bracket entries need i < j (antisymmetry is automatic), got ({i}, {j})",
                line,
                col,
            )
        coeff = _rat_at(item[3], positions, path + (3,))
        entries.append((i - 1, j - 1, k - 1, coeff))

    rows = []
    for t, row in enumerate(doc["subalgebra"]):
        path = ("subalgebra", t)
        if len(row) != dim:
            line, col = _position_for(positions, path)
            raise SpecFileError(
                f"subalgebra vector has length {len(row)}, expected {dim}", line, col
            )
        rows.append(tuple(_rat_at(x, positions, path + (c,)) for c, x in enumerate(row)))

    metric = doc["metric"]
    if metric["mode"] == "negative_killing":
        for extra in ("scales", "center_gram"):
            if extra in metric:
                line, col = _position_for(positions, ("metric", extra))
                raise SpecFileError(
                    f"{extra} requires metric mode 'custom'", line, col
                )
        spec = MetricSpec()
    else:
        scales = None
        if "scales" in metric:
            scales = []
            for c, s in enumerate(metric["scales"]):
                path = ("metric", "scales", c)
                scales.append(_rat_at(s, positions, path))
                if scales[-1] <= 0:
                    raise SpecFileError(
                        f"scale {c + 1} is {scales[-1]}; scales must be positive",
                        *_position_for(positions, path),
                    )
        gram = None
        if "center_gram" in metric:
            gram = [
                [
                    _rat_at(x, positions, ("metric", "center_gram", a, b))
                    for b, x in enumerate(row)
                ]
                for a, row in enumerate(metric["center_gram"])
            ]
            for a, row in enumerate(gram):
                for b in range(a + 1, len(row)):
                    if b < len(gram) and a < len(gram[b]) and row[b] != gram[b][a]:
                        raise SpecFileError(
                            f"center gram is not symmetric at ({a + 1}, {b + 1})",
                            *_position_for(positions, ("metric", "center_gram", a, b)),
                        )
            if all(len(row) == len(gram) for row in gram) and signature(gram)[0] < len(gram):
                raise SpecFileError(
                    "center gram is not positive-definite",
                    *_position_for(positions, ("metric", "center_gram")),
                )
        spec = MetricSpec.custom(scale_factors=scales, center_gram=gram)

    asserts = doc.get("assertions", {})
    assertions = UserAssertions(
        locally_irreducible=asserts.get("locally_irreducible"),
        is_sphere_or_rp=asserts.get("is_sphere_or_rp"),
    )
    recipe_positions = {
        key: positions[("metric", key)] for key in ("scales", "center_gram") if key in metric
    }
    return SpaceSpec(
        dim, labels, tuple(entries), tuple(rows), spec, assertions, recipe_positions
    )


def load_space_spec_file(path: str) -> SpaceSpec:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            prefix = exc.object[: exc.start].decode("utf-8")  # exc.object: the file's bytes
            line, column = prefix.count("\n") + 1, len(prefix) - prefix.rfind("\n")
            message = f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}"
            raise SpecFileError(message, line, column) from None
    return parse_space_spec(text)
