"""Space-specification files: a fast decode, positions on demand, and one validating walk.

The input format is strict JSON (RFC 8259; see schemas/spacespec.schema.json).
A document is decoded by the stdlib's C decoder, with hooks that stop it at a
duplicate key or a NaN/Infinity constant, and its nesting is then checked
against MAX_NESTING without recursion. Anything the fast decode stops at or
rejects goes to the positioned parse, which raises the positioned error. That
parse runs the pure-Python scanner with hooks on its containers that record
where every value starts and where its subtree ends, in document pre-order, so
that syntax errors, schema violations and semantic errors (bad indices,
malformed rationals) all carry a line and column. On a document the fast
decode read, it runs only when a message or a metric recipe first asks for a
position, and a path is resolved to its position only then too. One walk
over the fields, in the order basis, brackets, subalgebra, metric, assertions,
enforces the schema's rules and the semantic ones together and stops at the
first value that breaks one; the tests check it against the schema with
jsonschema, which the package itself never loads.
Bracket indices in files are 1-based, matching the basis listing; the Python
API stays 0-based. A basis longer than MAX_DIM (63, the dimension of su(8))
is rejected at `basis` before any analysis starts.
"""

from __future__ import annotations

import itertools
import json
import re
from array import array
from collections.abc import Mapping
from fractions import Fraction
from json.decoder import WHITESPACE, JSONArray, JSONObject
from json.scanner import py_make_scanner
from types import MappingProxyType
from typing import Callable

from .affine import UserAssertions
from .errors import SpecFileError
from .homspace import MetricSpec
from .linalg import Matrix, signature
from .record import Record

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")  # matched whole, as the schema's pattern

Position = tuple[int, int]
Path = tuple

# Far above the schema's own depth of 4; the containers check it, so the
# position of the error does not depend on the caller's stack.
MAX_NESTING = 32
MAX_DIM = 63  # dim su(8), the largest algebra the engine is sized for

SPEC_KEYS = ("basis", "brackets", "subalgebra", "metric", "assertions")  # the first four required
METRIC_KEYS = ("mode", "scales", "center_gram")
ASSERTION_KEYS = ("locally_irreducible", "is_sphere_or_rp")


class Positions:
    """Path tuple -> (line, column) of the value there, resolved on demand.

    The parse keeps only the start offset of every value and the index just
    past its subtree, both in document pre-order; a path is resolved by
    walking the document from the root and skipping the subtrees of the
    siblings before each step, so no map over all values is ever built."""

    def __init__(self, value, offsets: array, ends: array, where: Callable[[int], Position]):
        self._value, self._offsets, self._ends, self._where = value, offsets, ends, where

    def __getitem__(self, path: Path) -> Position:
        item, index = self._value, 0
        for key in path:
            if isinstance(item, dict) and key in item:
                siblings = itertools.takewhile(lambda k: k != key, item)
            elif isinstance(item, list) and type(key) is int and 0 <= key < len(item):
                siblings = range(key)
            else:
                raise KeyError(path)
            index += 1  # the first child
            for _ in siblings:
                index = self._ends[index]
            item = item[key]
        return self._where(self._offsets[index])


class _DeferredPositions:
    """The Positions of a document the fast decode read: the positioned
    parse runs on the first lookup, which only an error or a metric recipe
    makes."""

    def __init__(self, text: str):
        self._text, self._positions = text, None

    def __getitem__(self, path: Path) -> Position:
        if self._positions is None:
            self._positions = parse_positioned(self._text)[1]
        return self._positions[path]


def _unique_keys(pairs: list) -> dict:
    out = dict(pairs)
    if len(out) != len(pairs):
        raise ValueError("duplicate key")  # the positioned parse says which, and where
    return out


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


_FAST = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_constant=_no_constant)


def _within_nesting(value) -> bool:
    """No container opens more than MAX_NESTING levels deep: one level of
    containers at a time, so no recursion."""
    level = [value] if type(value) in (list, dict) else []
    for _ in range(MAX_NESTING):  # level holds the containers one deeper each round
        if not level:
            return True
        level = [
            child for item in level for child in (item.values() if type(item) is dict else item)
            if type(child) in (list, dict)
        ]
    return not level


def _decode(text: str) -> tuple[object, Positions | _DeferredPositions]:
    """The document and its positions: by the C decoder when it reads the
    text as a document within MAX_NESTING, else by the positioned parse,
    which raises the positioned error: the hooks stop the fast decode with a
    ValueError at a duplicate key or a NaN/Infinity constant."""
    try:
        value = _FAST.decode(text)
    except (ValueError, RecursionError):
        return parse_positioned(text)
    if not _within_nesting(value):
        return parse_positioned(text)
    return value, _DeferredPositions(text)


def parse_positioned(text: str) -> tuple[object, Positions]:
    """Parse JSON, returning the value and its positions by path tuple."""
    offsets = array("q")  # start of every value, in document pre-order
    ends = array("q")  # pre-order index just past each value's subtree
    keys: list[list[int] | None] = [None]  # key starts of each open object, None for an array

    def where(offset: int) -> Position:
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def record(s: str, idx: int):
        index = len(offsets)
        offsets.append(idx)
        ends.append(0)
        if keys[-1] is not None:
            keys[-1].append(idx)
        result = scan(s, idx)
        ends[index] = len(offsets)
        return result

    def nested(parse, starts, s_and_end, *args):
        if len(keys) > MAX_NESTING:
            raise SpecFileError(f"nesting deeper than {MAX_NESTING}", *where(s_and_end[1] - 1))
        keys.append(starts)
        result = parse(s_and_end, *args)
        keys.pop()
        return result

    def unique_keys(pairs):
        out = {}
        for (key, value), offset in zip(pairs, keys[-1]):
            if key in out:
                raise SpecFileError(f"duplicate key {key!r}", *where(offset))
            out[key] = value
        return out

    def no_constant(name):
        raise SpecFileError(f"{name} is not a JSON value", *where(offsets[-1]))

    decoder = json.JSONDecoder(object_pairs_hook=unique_keys, parse_constant=no_constant)
    # the stdlib container parsers, scanning each value through record
    decoder.parse_object = lambda at, strict, _, *hooks: nested(
        JSONObject, [], at, strict, record, *hooks
    )
    decoder.parse_array = lambda at, _: nested(JSONArray, None, at, record)
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
    return value, Positions(value, offsets, ends, where)


# ---------------------------------------------------------------------------
# validation: one walk over the document
# ---------------------------------------------------------------------------


class SpaceSpec(Record, uncompared=("recipe_positions",)):
    """Validated raw contents, ready for the analysis pipeline."""

    dim: int
    basis_labels: tuple[str, ...]
    bracket_entries: tuple  # 0-based (i, j, k, Fraction)
    subalgebra_rows: Matrix
    metric_spec: MetricSpec
    assertions: UserAssertions
    # where each metric-recipe field ("scales", "center_gram") starts in the
    # file, for the recipe errors that only the algebra can reveal
    recipe_positions: Mapping[str, Position] = MappingProxyType({})


class _RecipePositions(Mapping):
    """Where each metric-recipe field of the file starts, looked up only when
    a recipe error asks for it."""

    def __init__(self, positions: Positions | _DeferredPositions, keys: tuple[str, ...]):
        self._positions, self._keys = positions, keys

    def __getitem__(self, key: str) -> Position:
        if key not in self._keys:
            raise KeyError(key)
        return self._positions[("metric", key)]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def _error(message: str, positions: Positions, path: Path) -> SpecFileError:
    return SpecFileError(message, *positions[path])


def _name(path: Path) -> str:
    """The value at `path` as messages name it: its key, or "'key' entry" for
    an item of the array under that key."""
    keys = [key for key in path if type(key) is str]
    if not keys:
        return "the document"
    return repr(keys[-1]) + (" entry" if type(path[-1]) is int else "")


def _object(value, keys, required, positions, path) -> dict:
    """`value` as an object that has every `required` key and no key outside `keys`."""
    if type(value) is not dict:
        raise _error(f"{_name(path)} must be an object, got {value!r}", positions, path)
    for key in required:
        if key not in value:
            raise _error(f"missing key {key!r}", positions, path)
    for key in value:
        if key not in keys:
            raise _error(f"unexpected key {key!r}", positions, path + (key,))
    return value


def _array(value, positions, path) -> list:
    if type(value) is not list:
        raise _error(f"{_name(path)} must be an array, got {value!r}", positions, path)
    return value


def _rat_at(value, positions, path) -> Fraction:
    """The schema's rational: an integer (never a bool) or a 'p/q' string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        message = f"rationals must be integers or 'p/q' strings, got {value!r}"
        raise _error(message, positions, path)
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise _error(f"malformed rational {value!r}", positions, path)
    try:
        if type(value) is int:
            return Fraction(value)
        numerator, _, denominator = value.partition("/")  # two int() calls, no Fraction(str) regex
        if not denominator:
            return Fraction(int(numerator))
        return Fraction(int(numerator), int(denominator))
    except ValueError:  # more digits than int() converts
        raise _error("rational has too many digits", positions, path) from None


def parse_space_spec(text: str) -> SpaceSpec:
    """Parse and validate a specification document; raises SpecFileError at
    the first value, in document order, that breaks a rule."""
    doc, positions = _decode(text)
    doc = _object(doc, SPEC_KEYS, SPEC_KEYS[:4], positions, ())

    labels = tuple(_array(doc["basis"], positions, ("basis",)))
    if not labels:
        raise _error("'basis' must list at least one label", positions, ("basis",))
    for c, label in enumerate(labels):
        if type(label) is not str or not label:
            message = f"'basis' entry must be a non-empty string, got {label!r}"
            raise _error(message, positions, ("basis", c))
    if len(labels) > MAX_DIM:
        message = f"basis has {len(labels)} labels, more than the desk cap of {MAX_DIM} (su(8))"
        raise _error(message, positions, ("basis",))
    if len(set(labels)) != len(labels):
        raise _error("basis labels must be unique", positions, ("basis",))
    dim = len(labels)

    entries = []
    for t, item in enumerate(_array(doc["brackets"], positions, ("brackets",))):
        path = ("brackets", t)
        if type(item) is not list or len(item) != 4:
            raise _error(f"'brackets' entry must be [i, j, k, c], got {item!r}", positions, path)
        i, j, k = item[:3]
        for idx in (i, j, k):
            if type(idx) is not int:
                raise _error(f"bracket index {idx!r} is not an integer", positions, path)
            if not 1 <= idx <= dim:
                raise _error(f"bracket index {idx} out of range 1..{dim}", positions, path)
        if i >= j:
            message = f"bracket entries need i < j (antisymmetry is automatic), got ({i}, {j})"
            raise _error(message, positions, path)
        coeff = _rat_at(item[3], positions, path + (3,))
        entries.append((i - 1, j - 1, k - 1, coeff))

    rows = []
    for t, row in enumerate(_array(doc["subalgebra"], positions, ("subalgebra",))):
        path = ("subalgebra", t)
        if len(_array(row, positions, path)) != dim:
            message = f"subalgebra vector has length {len(row)}, expected {dim}"
            raise _error(message, positions, path)
        rows.append(tuple(_rat_at(x, positions, path + (c,)) for c, x in enumerate(row)))

    metric = _object(doc["metric"], METRIC_KEYS, ("mode",), positions, ("metric",))
    mode = metric["mode"]
    if mode not in ("negative_killing", "custom"):
        message = f"'mode' must be 'negative_killing' or 'custom', got {mode!r}"
        raise _error(message, positions, ("metric", "mode"))
    for key in METRIC_KEYS[1:]:
        if key in metric:
            _array(metric[key], positions, ("metric", key))
            if mode != "custom":
                raise _error(f"{key} requires metric mode 'custom'", positions, ("metric", key))
    scales = None
    if "scales" in metric:
        scales = []
        for c, s in enumerate(metric["scales"]):
            path = ("metric", "scales", c)
            scales.append(_rat_at(s, positions, path))
            if scales[-1] <= 0:
                message = f"scale {c + 1} is {scales[-1]}; scales must be positive"
                raise _error(message, positions, path)
    gram = None
    if "center_gram" in metric:
        gram = []
        for a, row in enumerate(metric["center_gram"]):
            path = ("metric", "center_gram", a)
            row = _array(row, positions, path)
            gram.append([_rat_at(x, positions, path + (b,)) for b, x in enumerate(row)])
        for a, row in enumerate(gram):
            for b in range(a + 1, len(row)):
                if b < len(gram) and a < len(gram[b]) and row[b] != gram[b][a]:
                    message = f"center gram is not symmetric at ({a + 1}, {b + 1})"
                    raise _error(message, positions, ("metric", "center_gram", a, b))
        if all(len(row) == len(gram) for row in gram) and signature(gram)[0] < len(gram):
            message = "center gram is not positive-definite"
            raise _error(message, positions, ("metric", "center_gram"))
    spec = MetricSpec.custom(scales, gram) if mode == "custom" else MetricSpec()

    asserts = _object(doc.get("assertions", {}), ASSERTION_KEYS, (), positions, ("assertions",))
    for key, value in asserts.items():
        if type(value) is not bool:
            message = f"{key!r} must be true or false, got {value!r}"
            raise _error(message, positions, ("assertions", key))
    assertions = UserAssertions(
        locally_irreducible=asserts.get("locally_irreducible"),
        is_sphere_or_rp=asserts.get("is_sphere_or_rp"),
    )
    recipe_keys = tuple(key for key in METRIC_KEYS[1:] if key in metric)
    # a file without a recipe keeps no positions, and so not its text, alive
    recipe_positions = _RecipePositions(positions, recipe_keys) if recipe_keys else SpaceSpec.recipe_positions
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
