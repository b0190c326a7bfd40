"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Every criterion prints a single pass/fail line (visible with `pytest -s`).
All algebraic identities are checked in exact rational arithmetic with zero
tolerance; only the numeric-lab criterion carries the 1e-9 float tolerance.
"""

from fractions import Fraction

import numpy as np

from reductive_workbench.affine import (
    affine_algebra,
    fixed_torus,
    invariant_field_killing_check,
    transvection_equals_g_check,
)
from reductive_workbench.catalog import catalog_names, construct
from reductive_workbench.connection import connection_tensors_at_basepoint, consistency_sweep
from reductive_workbench.errors import JacobiViolation
from reductive_workbench.homspace import (
    naturally_reductive_check,
    normalizer_invariance_check,
)
from reductive_workbench.liealg import center, make_lie_algebra
from reductive_workbench.numlab import (
    TOLERANCE,
    flow_commutation_check,
    matrix_exp,
    orthogonality_residual,
)
from reductive_workbench.report import run_report

from oracles import dense_bianchi_by_brackets, dense_koszul_defect, dense_m_part, dense_project_m

F = Fraction

CRITERION_1_PAIRS = (
    "so3_mod_so2",
    "so4_mod_so2",
    "so4_mod_so3",
    "so5_mod_so4",
    "so6_mod_so5",
    "so3so3_mod_diag",
    "so4so4_mod_diag",
    "so3_mod_0",
    "so4_mod_0",
)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def all_entries():
    return [construct(name) for name in catalog_names()]


def effective_normal_entries():
    return [e for e in all_entries() if e.pair.flags.normal and e.pair.flags.effective]


def test_criterion_1_naturally_reductive_identity():
    ok = True
    for name in CRITERION_1_PAIRS:
        pair = construct(name).pair
        ok = ok and pair.flags.normal and naturally_reductive_check(pair).ok
    # the remaining curated entries are normal pairs too; hold them to the same bar
    for entry in all_entries():
        ok = ok and naturally_reductive_check(entry.pair).ok
    _report(1, "naturally reductive identity, exact", ok)


def test_criterion_2_normalizer_invariance():
    ok = True
    for entry in all_entries():
        res = normalizer_invariance_check(entry.pair)
        ok = ok and res.ok
    _report(2, "normalizer keeps the complement invariant", ok)


def test_criterion_3_transvection_exhausts_g():
    ok = True
    for entry in effective_normal_entries():
        ok = ok and transvection_equals_g_check(entry.pair).equals_g
    ineffective = construct("so3so3_mod_second_factor")
    res = transvection_equals_g_check(ineffective.pair)
    ok = ok and not res.equals_g and res.complement.dim > 0 and res.complement_in_h
    _report(3, "transvection algebra equals g on effective entries", ok)


def test_criterion_4_affine_structure_suite():
    ok = True
    for entry in effective_normal_entries():
        pair = entry.pair
        aff = affine_algebra(pair)  # construction re-validates Jacobi exactly
        k = aff.k
        ok = ok and aff.total_dim == aff.g1.dim + entry.fixed_subspace.dim
        zero = (F(0),) * aff.total_dim
        for a in range(aff.g1.dim):
            for b in range(k.dim):
                ok = ok and aff.assembled.bracket_basis(a, aff.g1.dim + b) == zero
        zg = center(pair.algebra)
        for z in zg.rows:
            ok = ok and k.carrier.contains_vector(tuple(dense_project_m(pair.h.rows, pair.m.rows, z)))
        ok = ok and entry.expected["dims"]["affine"] == aff.total_dim
    expected_dims = {"so3_mod_0": 6, "so3so3_mod_diag": 6, "so4_mod_so2": 7}
    for name, want in expected_dims.items():
        aff = affine_algebra(construct(name).pair)
        ok = ok and aff.total_dim == want
    # cross-presentation agreement for the two group-manifold presentations
    ok = ok and affine_algebra(construct("so3_mod_0").pair).total_dim == affine_algebra(
        construct("so3so3_mod_diag").pair
    ).total_dim
    _report(4, "affine algebra dimensions and direct-sum structure", ok)


def test_criterion_5_invariant_fields_are_killing():
    ok = True
    for entry in all_entries():
        ok = ok and invariant_field_killing_check(entry.pair).ok
    _report(5, "fixed directions satisfy the Killing identity exactly", ok)


def test_criterion_6_fixed_torus():
    ok = True
    for entry in all_entries():
        res = fixed_torus(entry.pair)
        m_part = dense_m_part(entry.algebra, entry.pair.h.rows, entry.pair.m.rows)
        for u in res.basis.rows:
            for w in res.basis.rows:
                ok = ok and not any(m_part(u, w))
        ok = ok and res.dimension == entry.expected["torus_dim"]
    for name, want in (("so4_mod_so2", 1), ("so3_mod_0", 0), ("so3_mod_so2", 0)):
        ok = ok and fixed_torus(construct(name).pair).dimension == want
    _report(6, "fixed-point torus is abelian with the expected dimension", ok)


def test_criterion_7_connection_tensor_consistency():
    # the sweep's flags against dense oracles that never read the adapted
    # table: C = 2 LC iff the Koszul term U vanishes, Bianchi from brackets
    ok = True
    for entry in all_entries():
        pair = entry.pair
        h_rows, m_rows = pair.h.rows, pair.m.rows
        flags = consistency_sweep(connection_tensors_at_basepoint(pair))
        U = dense_koszul_defect(pair.algebra, h_rows, m_rows, pair.metric.gram)
        ok = ok and all(flags.values())
        ok = ok and flags["canonical_equals_twice_lc"] == (not any(any(u) for row in U for u in row))
        ok = ok and flags["bianchi_cyclic_identity"] == dense_bianchi_by_brackets(
            pair.algebra, h_rows, m_rows
        )
    _report(7, "canonical = 2 * Levi-Civita, antisymmetry, Bianchi with torsion", ok)


def test_criterion_8_numeric_lab():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        A = rng.normal(size=(n, n))
        worst = max(worst, orthogonality_residual(matrix_exp(A - A.T)))
    ok = worst < TOLERANCE
    for entry in all_entries():
        for X in entry.fixed_subspace.rows:
            for Y in entry.pair.m.rows:
                ok = ok and flow_commutation_check(entry, X, Y, 1.0, 1.0) < TOLERANCE
    _report(8, "numeric lab residuals below 1e-9", ok)


def test_criterion_9_engine_rejection_and_determinism():
    # so(3) in the tilted basis (L1, L2, L1+L3); one sign flipped breaks Jacobi
    corrupted = [
        (0, 1, 0, 1), (0, 1, 2, 1),
        (0, 2, 1, -1),
        (1, 2, 0, 2), (1, 2, 2, -1),
    ]
    ok = False
    try:
        make_lie_algebra(3, corrupted)
    except JacobiViolation as exc:
        ok = exc.triple == (0, 1, 2) and exc.defect == (F(0), F(-2), F(0))
    blobs = []
    for _ in range(3):
        chunks = [run_report(construct(name), checks="all").to_json() for name in catalog_names()]
        blobs.append("".join(chunks))
    ok = ok and blobs[0] == blobs[1] == blobs[2]
    _report(9, "corrupted-table rejection and byte-exact determinism", ok)
