import math
from fractions import Fraction

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reductive_workbench.catalog import catalog_names, construct
from reductive_workbench.errors import NonFinite, NotInFixedSubspace, NotInM
from reductive_workbench.linalg import rat, vector
from reductive_workbench.numlab import (
    TOLERANCE,
    flow_commutation_check,
    flow_commutation_residuals,
    make_matrix_realization,
    matrix_exp,
    orthogonality_residual,
)

from oracles import realization_entries


def test_exp_of_zero_is_identity():
    assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_exp_of_pi_rotation_generator():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    R = matrix_exp(math.pi * J)
    assert np.abs(R - np.array([[-1.0, 0.0], [0.0, -1.0]])).max() < TOLERANCE


def test_exp_orthogonality_on_random_skew():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        A = rng.normal(size=(n, n))
        skew = A - A.T
        assert orthogonality_residual(matrix_exp(skew)) < TOLERANCE


def test_exp_matches_series_on_small_input():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4)) * 0.1
    expected = np.eye(4)
    term = np.eye(4)
    for k in range(1, 30):
        term = term @ A / k
        expected = expected + term
    assert np.abs(matrix_exp(A) - expected).max() < 1e-12


def test_exp_rejects_non_finite():
    with pytest.raises(NonFinite):
        matrix_exp(np.array([[0.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(NonFinite):
        matrix_exp(np.array([[np.nan]]))
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1] = np.nan
    with pytest.raises(NonFinite):
        matrix_exp(stack)


def test_exp_of_a_stack_matches_each_slice():
    # infinity norms 0, 0.6, 0.9 and 40 need 0, 1, 1 and 7 squarings
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 5, 5))
    A /= np.abs(A).sum(axis=2).max(axis=1)[:, None, None]
    A *= np.array([0.0, 0.6, 0.9, 40.0])[:, None, None]
    stacked = matrix_exp(A)
    assert stacked.shape == A.shape
    for slice_, R in zip(A, stacked):
        assert np.array_equal(R, matrix_exp(slice_))
    assert np.array_equal(matrix_exp(A.reshape(2, 2, 5, 5)), stacked.reshape(2, 2, 5, 5))
    assert matrix_exp(np.zeros((0, 5, 5))).shape == (0, 5, 5)


def test_exp_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        matrix_exp(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        matrix_exp(np.zeros(3))


def test_realization_rejects_wrong_commutators():
    flat = [[[rat(0)] * 3 for _ in range(3)] for _ in range(3)]
    with pytest.raises(ValueError):
        make_matrix_realization(flat)  # zero matrices are dependent
    E12, E13, _E23 = construct("so3_mod_0").realization.basis_matrices
    with pytest.raises(ValueError, match="leaves the span"):
        make_matrix_realization([E12, E13])  # [E12, E13] = -E23 is missing


def test_realization_rejects_non_skew():
    mats = [[[rat(1), rat(0)], [rat(0), rat(0)]], [[rat(0), rat(0)], [rat(0), rat(0)]]]
    with pytest.raises(ValueError):
        make_matrix_realization(mats)


@pytest.mark.parametrize(
    "B",
    [
        pytest.param([[0, 0], [1, 0]], id="below_diagonal_alone"),
        pytest.param([[0, 1], [1, 0]], id="symmetric_pair"),
    ],
)
def test_realization_rejects_unmatched_off_diagonal_entries(B):
    # one matrix, so no commutator and no dependence can reject it instead
    with pytest.raises(ValueError, match="antisymmetric"):
        make_matrix_realization([[[rat(x) for x in row] for row in B]])


# every family up to the desk cap: so(n), su(n), so(n) + so(n), r(d) and so(3) + r(1)
FAMILY_NAMES = (
    [f"so{n}_mod_0" for n in range(2, 9)]
    + [f"su{n}_mod_0" for n in range(2, 9)]
    + [f"so{n}so{n}_mod_diag" for n in range(3, 9)]
    + [f"r{d}_mod_0" for d in range(1, 9)]
    + ["so3r1_mod_0"]
)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_realization_matches_the_reference_pair_loop_on_every_family(name):
    # the reference commutes every pair in Fractions; the realization only
    # the pairs that meet in a nonzero row, in integers
    realization = construct(name).realization
    assert realization.algebra.entries == realization_entries(realization.basis_matrices)


def _antisymmetric(n, upper):
    M = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), x in upper.items():
        M[i][j], M[j][i] = Fraction(x), -Fraction(x)
    return M


SO4 = [_antisymmetric(4, {pos: 1}) for pos in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
E12_PLUS_E34 = _antisymmetric(4, {(0, 1): 1, (2, 3): 1})
E13_PLUS_E24 = _antisymmetric(4, {(0, 2): 1, (1, 3): 1})  # commutes with E12 + E34


@st.composite
def antisymmetric_bases(draw):
    """Rational antisymmetric bases: free draws, which mostly leave their
    span or are dependent, and rational combinations of a closed basis of
    so(3), so(4), so(3) + so(3) or su(2) in so(4), which span it unless they
    are too few or dependent."""
    value = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)])
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return [_antisymmetric(n, {pos: draw(value) for pos in upper}) for _ in range(draw(st.integers(1, 4)))]
    closed = draw(st.sampled_from(["so3", "so4", "so3so3", "self_dual"]))
    if closed == "so3":
        basis = [[row[:3] for row in B[:3]] for B in (SO4[0], SO4[1], SO4[3])]
    elif closed == "so4":
        basis = SO4
    elif closed == "so3so3":  # two diagonal blocks, whose cross pairs never meet
        basis = [_antisymmetric(6, {(i + o, j + o): 1}) for o in (0, 3) for i, j in ((0, 1), (0, 2), (1, 2))]
    else:  # su(2) inside so(4): every pair meets in every row
        basis = [E12_PLUS_E34, _antisymmetric(4, {(0, 2): 1, (1, 3): -1}), _antisymmetric(4, {(0, 3): 1, (1, 2): 1})]
    n = len(basis[0])
    count = len(basis) if draw(st.booleans()) else draw(st.integers(1, len(basis)))
    coefficient = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)])
    out = []
    for _ in range(count):
        coeffs = [draw(coefficient) for _ in basis]
        out.append([[sum((c * B[i][j] for c, B in zip(coeffs, basis)), Fraction(0)) for j in range(n)]
                    for i in range(n)])
    return out


@settings(max_examples=150, deadline=None)
@given(antisymmetric_bases())
@example([SO4[0], SO4[0]])  # dependent
@example([SO4[0], SO4[1]])  # [E12, E13] = -E23 leaves the span
@example([E12_PLUS_E34, E13_PLUS_E24])  # they meet, and every product cancels
@example([SO4[0], SO4[5], E12_PLUS_E34])  # dependent, of a pair that never meets
def test_realization_matches_the_reference_pair_loop_or_its_error(mats):
    try:
        expected = realization_entries(mats)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            make_matrix_realization(mats)
        return
    assert make_matrix_realization(mats).algebra.entries == expected


def test_to_float_converts_the_basis_once_and_matches_a_fresh_conversion():
    realization = construct("su3_mod_su2").realization
    dim, n = realization.algebra.dim, realization.matrix_dim
    rows = [vector([Fraction(k - i, 3) for k in range(dim)]) for i in range(3)]
    fresh = np.array(realization.basis_matrices, dtype=float).reshape(dim, n, n)
    expected = np.tensordot(np.array(rows, dtype=float).reshape(3, dim), fresh, axes=1)
    assert np.array_equal(realization.to_float(rows), expected)
    basis = realization.float_basis
    assert realization.to_float(rows[:1]).shape == (1, n, n)
    assert realization.float_basis is basis and np.array_equal(basis, fresh)


def test_flow_commutation_on_so4_mod_so2():
    entry = construct("so4_mod_so2")
    X = vector([0, 0, 0, 0, 0, 1])  # E34, the fixed direction
    Y = vector([0, 1, 0, 0, 0, 0])  # E13 in m
    assert flow_commutation_check(entry, X, Y, 1.0, 1.0) < TOLERANCE


def test_flow_commutation_zero_cases_are_exact():
    entry = construct("so4_mod_so2")
    X = vector([0, 0, 0, 0, 0, 1])
    Y = vector([0, 1, 0, 0, 0, 0])
    assert flow_commutation_check(entry, vector([0] * 6), Y, 1.0, 1.0) == 0.0
    assert flow_commutation_check(entry, X, Y, 0.0, 1.0) == 0.0


def test_flow_commutation_rejects_bad_inputs():
    entry = construct("so4_mod_so2")
    with pytest.raises(NotInFixedSubspace):
        flow_commutation_check(entry, vector([0, 1, 0, 0, 0, 0]), vector([0, 1, 0, 0, 0, 0]), 1.0, 1.0)
    X = vector([0, 0, 0, 0, 0, 1])
    with pytest.raises(NotInM):
        flow_commutation_check(entry, X, vector([1, 0, 0, 0, 0, 0]), 1.0, 1.0)  # E12 is in h
    with pytest.raises(ValueError):
        flow_commutation_check(entry, X, X, 3.0, 1.0)


def test_flow_commutation_all_fixed_generators_all_entries():
    for name in catalog_names():
        entry = construct(name)
        for X in entry.fixed_subspace.rows:
            for Y in entry.pair.m.rows:
                assert flow_commutation_check(entry, X, Y, 1.0, 1.0) < TOLERANCE, (name, X, Y)


def test_numeric_section_without_fixed_directions():
    from reductive_workbench.report import run_report

    numeric = run_report(construct("so6_mod_so5"), checks="fast", numeric=True).body["numeric"]
    assert numeric["flow_commutation_checks"] == 0
    assert numeric["all_below_tolerance"] is True


@pytest.mark.parametrize("name", ["so5_mod_0", "su4_mod_0"])
def test_numeric_section_reports_the_worst_per_pair_flow_check(name):
    from reductive_workbench.report import run_report

    entry = construct(name)
    numeric = run_report(entry, checks="fast", numeric=True).body["numeric"]
    worst = max(
        flow_commutation_check(entry, X, Y, 1.0, 1.0)
        for X in entry.fixed_subspace.rows
        for Y in entry.pair.m.rows
    )
    assert max(flow_commutation_residuals(entry, 1.0, 1.0)) == worst
    assert numeric["flow_commutation_max"] == f"{worst:.3e}"
    assert numeric["flow_commutation_checks"] == entry.fixed_subspace.dim * entry.pair.m.dim
