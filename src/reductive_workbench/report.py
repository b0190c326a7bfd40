"""Full analysis pipeline and deterministic report assembly.

A report is a plain dict with fixed key insertion order, so identical inputs
produce byte-identical JSON and text renderings. Exact scalars are serialized
as canonical rational strings, never as floats; the only floats appear in the
optional numeric-lab section, which is excluded from golden comparisons.
"""

from __future__ import annotations

from fractions import Fraction

from . import __version__
from .affine import (
    ALMOST_DIRECT_PRODUCT_NOTE,
    K_BRACKET_CONVENTION,
    UserAssertions,
    affine_algebra,
    fixed_torus,
    invariant_field_algebra,
    invariant_field_killing_check,
    isometry_report,
    transvection_equals_g_check,
)
from .connection import CONVENTIONS as CONNECTION_CONVENTIONS
from .connection import connection_tensors_at_basepoint, consistency_sweep
from .errors import InvalidMetricSpec, SpecFileError, WorkbenchError
from .homspace import (
    isotropy_fixed_subspace,
    isotropy_irreducibility_probe,
    naturally_reductive_check,
    normal_decomposition,
    normalizer_invariance_check,
)
from .liealg import make_lie_algebra, SubspaceBasis
from .record import Record

METRIC_CONVENTION = (
    "minus Killing form on each simple ideal (optional positive rational scales), "
    "user Gram matrix on the center (identity by default)"
)


class PipelineError(WorkbenchError):
    """An engine error tagged with the pipeline operation that raised it."""

    def __init__(self, operation: str, cause: Exception):
        self.operation = operation
        self.cause = cause
        super().__init__(f"{operation}: {cause}")


def _step(operation: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except WorkbenchError as exc:
        raise PipelineError(operation, exc) from exc


def _fmt(value) -> str:
    return str(Fraction(value))


def _fmt_vector(vec) -> list[str]:
    return [_fmt(c) for c in vec]


class SpaceReport(Record):
    body: dict

    def to_json(self) -> str:
        import json

        return json.dumps(self.body, indent=2) + "\n"

    def to_text(self) -> str:
        b = self.body
        lines = []
        lines.append(f"reductive-workbench {b['engine']['version']} :: {b['input']}")
        lines.append(f"checks: {b['checks']}")
        dims = b["dims"]
        lines.append(
            "dims: g={g} h={h} m={m} m_fixed={m_fixed} k={k} k_center={k_center} "
            "transvection={transvection} affine={affine}".format(
                **{key: ("-" if val is None else val) for key, val in dims.items()}
            )
        )
        flags = b["flags"]
        lines.append(
            "flags: "
            + " ".join(f"{name}={str(val).lower()}" for name, val in flags.items())
        )
        lines.append(f"torus dimension: {b['torus_dim'] if b['torus_dim'] is not None else '-'}")
        lines.append("theorem verdicts:")
        for v in b["theorem_verdicts"]:
            if not v["applicable"]:
                status = "n/a"
            else:
                status = "pass" if v["passed"] else "FAIL"
            detail = ""
            if v.get("details"):
                pairs = ", ".join(
                    f"{key}={str(val).lower() if isinstance(val, bool) else val}"
                    for key, val in v["details"].items()
                )
                detail = f"  [{pairs}]"
            lines.append(f"  {v['name']:32s} {status}{detail}")
        iso = b["isometry"]
        lines.append(f"isometry identification certified: {str(iso['certified']).lower()}")
        if iso["group_dim"] is not None:
            semi = iso["semisimple"]
            semi_text = "-" if semi is None else str(semi).lower()
            lines.append(f"  group dim {iso['group_dim']}, semisimple: {semi_text}")
        for caveat in iso["caveats"]:
            lines.append(f"  caveat: {caveat}")
        if b["witnesses"]:
            lines.append("witnesses:")
            for w in b["witnesses"]:
                lines.append(f"  {w}")
        if b.get("numeric"):
            lines.append("numeric lab:")
            for key, val in b["numeric"].items():
                lines.append(f"  {key}: {val}")
        return "\n".join(lines) + "\n"

    @property
    def exit_code(self) -> int:
        for verdict in self.body["theorem_verdicts"]:
            if verdict["applicable"] and not verdict["passed"]:
                return 2
        return 0


def _header() -> dict:
    return {
        "name": "reductive-workbench",
        "version": __version__,
        "indexing": "0-based basis indices in witnesses; input files are 1-based",
        "conventions": {
            **CONNECTION_CONVENTIONS,
            "invariant_field_bracket": K_BRACKET_CONVENTION,
            "metric": METRIC_CONVENTION,
            "almost_direct_product": ALMOST_DIRECT_PRODUCT_NOTE,
        },
    }


def run_report(
    source,
    checks: str = "all",
    numeric: bool = False,
    assertions: UserAssertions | None = None,
) -> SpaceReport:
    """Execute the full pipeline on a catalog entry or a parsed SpaceSpec."""
    from .catalog import CatalogEntry

    if isinstance(source, CatalogEntry):
        input_desc = f"catalog:{source.name}"
        algebra = source.algebra
        pair = _step("normal_decomposition", lambda: source.pair)
        entry = source
    else:
        from .specfile import SpaceSpec  # a catalog-only run never loads the parser

        if not isinstance(source, SpaceSpec):
            raise TypeError(f"cannot analyze {type(source).__name__}")
        input_desc = "file"
        algebra = _step(
            "make_lie_algebra",
            make_lie_algebra,
            source.dim,
            source.bracket_entries,
            source.basis_labels,
        )
        h = SubspaceBasis.from_vectors(source.dim, source.subalgebra_rows)
        try:
            pair = normal_decomposition(algebra, h, source.metric_spec)
        except InvalidMetricSpec as exc:  # the recipe does not fit the algebra
            raise SpecFileError(str(exc), *source.recipe_positions[exc.part]) from None
        except WorkbenchError as exc:
            raise PipelineError("normal_decomposition", exc) from exc
        assertions = assertions or source.assertions
        entry = None

    witnesses: list[dict] = []

    def record_witness(check: str, witness) -> None:
        if witness is not None:
            indices = list(witness.indices)
            witnesses.append({"check": check, "indices": indices, "defect": _fmt(witness.defect)})

    nr = _step("naturally_reductive_check", naturally_reductive_check, pair)
    record_witness("naturally_reductive_identity", nr.witness)
    norm_inv = _step("normalizer_invariance_check", normalizer_invariance_check, pair)
    record_witness("normalizer_invariance", norm_inv.witness)
    killing = _step("invariant_field_killing_check", invariant_field_killing_check, pair)
    record_witness("invariant_fields_are_killing", killing.witness)

    fixed = _step("isotropy_fixed_subspace", isotropy_fixed_subspace, pair)
    probe = _step("isotropy_irreducibility_probe", isotropy_irreducibility_probe, pair)
    k = _step("invariant_field_algebra", invariant_field_algebra, pair)
    tr_check = _step("transvection_equals_g_check", transvection_equals_g_check, pair)
    torus = _step("fixed_torus", fixed_torus, pair)

    affine_details = None
    affine_dim = None
    aff = None
    if pair.flags.normal and pair.flags.effective:
        aff = _step("affine_algebra", affine_algebra, pair)
        affine_dim = aff.total_dim
        # a cross bracket [g1_a, k_b] is an entry (a, g1.dim + b, ...) of the table
        cross_ok = not any(i < aff.g1.dim <= j for i, j, _, _ in aff.assembled.entries)
        affine_details = {
            "dim_g1": aff.g1.dim,
            "dim_k": aff.k.dim,
            "dims_add": aff.total_dim == aff.g1.dim + aff.k.dim,
            "cross_brackets_vanish": cross_ok,
        }

    connection_details = None
    if checks == "all":
        tensors = _step("connection_tensors_at_basepoint", connection_tensors_at_basepoint, pair)
        connection_details = consistency_sweep(tensors)

    iso = _step("isometry_report", isometry_report, pair, assertions, probe, aff)

    flags = {
        "reductive": pair.flags.reductive,
        "normal": pair.flags.normal,
        "naturally_reductive": pair.flags.naturally_reductive,
        "effective": pair.flags.effective,
        "normalizer_invariant": norm_inv.ok,
        "transvection_equals_g": tr_check.equals_g,
        "isotropy_probe": probe,
    }

    verdicts = []

    def verdict(name: str, applicable: bool, passed: bool | None, details=None):
        verdicts.append(
            {
                "name": name,
                "applicable": applicable,
                "passed": passed if applicable else None,
                "details": details,
            }
        )

    verdict("naturally_reductive_identity", pair.flags.normal, nr.ok)
    verdict("normalizer_invariance", pair.flags.normal, norm_inv.ok)
    verdict("invariant_fields_are_killing", pair.flags.normal, killing.ok)
    verdict(
        "transvection_equals_g",
        pair.flags.normal and pair.flags.effective,
        tr_check.equals_g,
    )
    verdict(
        "transvection_complement_in_h",
        pair.flags.normal and not tr_check.equals_g,
        tr_check.complement_in_h and tr_check.complement.dim > 0,
        None
        if tr_check.equals_g
        else {
            "complement_dim": tr_check.complement.dim,
            "complement_rows": [_fmt_vector(r) for r in tr_check.complement.rows],
        },
    )
    verdict(
        "affine_direct_sum",
        affine_details is not None,
        None
        if affine_details is None
        else affine_details["dims_add"] and affine_details["cross_brackets_vanish"],
        affine_details,
    )
    verdict(
        "torus_abelian",
        pair.flags.normal,
        torus.abelian,
        {"torus_dim": torus.dimension},
    )
    verdict(
        "connection_consistency",
        connection_details is not None,
        None if connection_details is None else all(connection_details.values()),
        connection_details,
    )

    numeric_section = None
    if numeric:
        numeric_section = _numeric_section(entry)

    body = {
        "engine": _header(),
        "input": input_desc,
        "checks": checks,
        "dims": {
            "g": algebra.dim,
            "h": pair.h.dim,
            "m": pair.m.dim,
            "m_fixed": fixed.dim,
            "k": k.dim,
            "k_center": k.center.dim,
            "transvection": tr_check.transvection.dim,
            "affine": affine_dim,
        },
        "flags": flags,
        "torus_dim": torus.dimension,
        "k_status": k.status,
        "theorem_verdicts": verdicts,
        "witnesses": witnesses,
        "isometry": {
            "certified": iso.certified,
            "group_dim": iso.group_dim,
            "semisimple": iso.semisimple,
            "caveats": list(iso.caveats),
        },
        "numeric": numeric_section,
    }
    return SpaceReport(body)


def _numeric_section(entry) -> dict:
    if entry is None:
        return {"status": "skipped: no matrix realization for file inputs"}
    import random

    import numpy as np

    from .numlab import TOLERANCE, flow_commutation_residuals, matrix_exp, orthogonality_residual

    # 25 random skew matrices of sizes 3..6, exponentiated as one stack per size
    rng = random.Random(13)
    samples: dict[int, list] = {}
    for _ in range(25):
        n = rng.randint(3, 6)
        A = np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)])
        samples.setdefault(n, []).append(A - A.T)
    worst_orth = max(orthogonality_residual(matrix_exp(np.array(stack))) for stack in samples.values())
    residuals = flow_commutation_residuals(entry, 1.0, 1.0)
    worst_flow = max([0.0, *residuals])
    flows = len(residuals)
    return {
        "status": "ok",
        "tolerance": f"{TOLERANCE:.1e}",
        "matrix_exp_orthogonality_max": f"{worst_orth:.3e}",
        "flow_commutation_checks": flows,
        "flow_commutation_max": f"{worst_flow:.3e}",
        "all_below_tolerance": bool(worst_orth < TOLERANCE and worst_flow < TOLERANCE),
    }
