import math
from fractions import Fraction

import numpy as np
import pytest

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
