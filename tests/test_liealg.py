import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reductive_workbench import liealg, linalg
from reductive_workbench.catalog import catalog_names, construct
from reductive_workbench.errors import (
    DegenerateForm,
    JacobiViolation,
    NotASubalgebra,
    NotCompactType,
    WorkbenchError,
)
from reductive_workbench.liealg import (
    LieAlgebra,
    SubspaceBasis,
    ad_invariance_check,
    center,
    centralizer,
    derived_subalgebra,
    killing_form,
    largest_ideal_in,
    make_bilinear_form,
    make_lie_algebra,
    orthogonal_complement,
    simple_ideal_decomposition,
)
from reductive_workbench.linalg import identity, matvec, rat, transpose, vector

from oracles import (
    bracket_basis,
    changed_basis_entries,
    commutator,
    cyclic_so3_matrices,
    dense_ad_invariance,
    dense_ad_matrices,
    dense_invariance_witness,
    express_in_basis,
    fraction_matrix,
    gauss_rank,
    killing_by_entry_loop,
    killing_by_traces,
    largest_ideal_by_descent,
    so_coords,
    so_matrix_basis,
    unimodular,
)

F = Fraction


# --- constructors used across the tests -------------------------------------

CYCLIC_SO3 = [(0, 1, 2, 1), (1, 2, 0, 1), (0, 2, 1, -1)]


def cyclic_so3():
    return make_lie_algebra(3, CYCLIC_SO3, ["L1", "L2", "L3"])


def so_entries_from_matrices(n):
    """Structure entries of so(n) in the lexicographic E_ij basis, computed from
    matrix commutators (this is the oracle path; catalog has its own builder)."""
    basis = so_matrix_basis(n)
    entries = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            coords = so_coords(commutator(basis[i], basis[j]), n)
            for k, c in enumerate(coords):
                if c:
                    entries.append((i, j, k, c))
    return entries


def so_algebra(n):
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n)]
    return make_lie_algebra(n * (n - 1) // 2, so_entries_from_matrices(n), labels)


def direct_sum_entries(entries_a, dim_a, entries_b):
    out = list(entries_a)
    out.extend((i + dim_a, j + dim_a, k + dim_a, c) for i, j, k, c in entries_b)
    return out


def so3_plus_so3():
    return make_lie_algebra(6, direct_sum_entries(CYCLIC_SO3, 3, CYCLIC_SO3))


def rescaled_so3_plus_so3(s):
    """so(3) + so(3) in the basis f_a = s_a e_a."""
    entries = direct_sum_entries(CYCLIC_SO3, 3, CYCLIC_SO3)
    return make_lie_algebra(6, [(i, j, k, F(c) * s[i] * s[j] / s[k]) for i, j, k, c in entries])


def heisenberg():
    return make_lie_algebra(3, [(0, 1, 2, 1)], ["x", "y", "z"])


def abelian(dim):
    return make_lie_algebra(dim, [])


def unit_subspace(ambient, indices):
    return SubspaceBasis.from_vectors(
        ambient, [tuple(rat(1 if c == i else 0) for c in range(ambient)) for i in indices]
    )


def subspace_sum(U, W):
    """U + W, reduced from the rows of both."""
    return SubspaceBasis.from_vectors(U.ambient_dim, U.rows + W.rows)


# --- make_lie_algebra / bracket ---------------------------------------------


def test_cyclic_so3_matches_matrix_commutators():
    L = cyclic_so3()
    mats = cyclic_so3_matrices()
    for i in range(3):
        for j in range(3):
            expected = so_coords_cyclic(commutator(mats[i], mats[j]))
            assert list(L.bracket_basis(i, j)) == expected


def so_coords_cyclic(M):
    # coordinates in the L1 = E23, L2 = E13, L3 = E12 basis
    return [M[1][2], M[0][2], M[0][1]]


def test_abelian_r2_valid_and_trivial():
    L = abelian(2)
    assert L.bracket_basis(0, 1) == (rat(0), rat(0))


def test_heisenberg_valid_by_brute_force():
    from oracles import brute_force_jacobi

    L = heisenberg()
    assert brute_force_jacobi(3, bracket_basis(L)) is None


def test_bracket_of_vector_with_itself_vanishes():
    L = cyclic_so3()
    X = vector([1, "2/3", -5])
    assert L.bracket(X, X) == (rat(0),) * 3


@settings(max_examples=40)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=6, max_size=6),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=6, max_size=6),
)
def test_bracket_bilinear_antisymmetric(xs, ys):
    L = so3_plus_so3()
    X, Y = tuple(xs), tuple(ys)
    assert L.bracket(X, Y) == tuple(-c for c in L.bracket(Y, X))
    two_x = tuple(2 * c for c in X)
    assert L.bracket(two_x, Y) == tuple(2 * c for c in L.bracket(X, Y))


def test_out_of_range_entry_raises_index_error():
    with pytest.raises(IndexError):
        make_lie_algebra(3, [(0, 1, 5, 1)])


def test_entries_must_be_upper_triangular():
    with pytest.raises(ValueError):
        make_lie_algebra(3, [(1, 0, 2, 1)])


def test_zero_dimensional_algebra():
    Z = make_lie_algebra(0)
    assert (Z.dim, Z.basis_labels, Z.entries) == (0, (), ())
    assert killing_form(Z).definiteness == "positive-definite"
    assert center(Z).dim == 0
    with pytest.raises(ValueError):
        make_lie_algebra(-1)


def tilted_so3_entries():
    """so(3) in the basis (L1, L2, L1 + L3): brackets have multiple terms."""
    return [
        (0, 1, 0, -1), (0, 1, 2, 1),   # [f1,f2] = f3 - f1
        (0, 2, 1, -1),                 # [f1,f3] = -f2
        (1, 2, 0, 2), (1, 2, 2, -1),   # [f2,f3] = 2 f1 - f3
    ]


def test_tilted_so3_is_valid():
    make_lie_algebra(3, tilted_so3_entries())


def test_jacobi_rejects_corrupted_table_with_witness():
    # flip the sign of the f1-coefficient of [f1, f2]
    corrupted = [(0, 1, 0, 1)] + tilted_so3_entries()[1:]
    with pytest.raises(JacobiViolation) as exc:
        make_lie_algebra(3, corrupted)
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.defect == (rat(0), rat(-2), rat(0))
    # oracle: brute force over all 27 triples finds the same first violation
    from oracles import brute_force_jacobi

    table = {(i, j): [0, 0, 0] for i in range(3) for j in range(3)}
    for i, j, k, c in corrupted:
        table[(i, j)][k] += c
        table[(j, i)][k] -= c
    first = brute_force_jacobi(3, lambda i, j: [F(x) for x in table[(i, j)]])
    assert first == (0, 1, 2)


def reference_jacobi_sweep(L):
    """The Fraction sweep that the integer sweep replaced, over brackets read
    from L.entries: the first triple i < j < k with a nonzero Jacobi defect
    and that defect, or None."""
    bracket = bracket_basis(L)
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                defect = [F(0)] * L.dim
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, c in enumerate(bracket(x, y)):
                        if c:
                            for t, d in enumerate(bracket(l, z)):
                                defect[t] += c * d
                if any(defect):
                    return (i, j, k), tuple(defect)
    return None


basis_scales = st.one_of(
    st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool),
    st.integers(1, 2**70).map(lambda n: F(n, 7)),
)


@pytest.mark.parametrize("name", ["so4", "su3", "random"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_jacobi_sweep_matches_the_fraction_sweep(name, data):
    # the algebra in the basis f_a = s_a e_a, so the constants are fractions,
    # with up to two entries perturbed; or a table of small random constants,
    # whose defects have small entries of either sign
    if name == "random":
        n = data.draw(st.integers(3, 4))
        coefficient = st.integers(-3, 3).map(F)
        acc = {(i, j, k): data.draw(coefficient)
               for i in range(n) for j in range(i + 1, n) for k in range(n)}
        labels = tuple(f"e{a + 1}" for a in range(n))
    else:
        base = kernel_algebra(name)
        n, labels = base.dim, base.basis_labels
        s = data.draw(st.lists(basis_scales, min_size=n, max_size=n))
        acc = {(i, j, k): c * s[i] * s[j] / s[k] for i, j, k, c in base.entries}
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        i, j, k = data.draw(index), data.draw(index), data.draw(index)
        if i < j:
            delta = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
            acc[i, j, k] = acc.get((i, j, k), F(0)) + delta
    entries = tuple((i, j, k, c) for (i, j, k), c in sorted(acc.items()) if c)
    expected = reference_jacobi_sweep(LieAlgebra(n, labels, entries))
    if expected is None:
        make_lie_algebra(n, entries)
    else:
        with pytest.raises(JacobiViolation) as exc:
            make_lie_algebra(n, entries)
        assert (exc.value.triple, exc.value.defect) == expected
        assert all(type(c) is Fraction for c in exc.value.defect)


def test_jacobi_defect_is_found_whatever_its_entries_would_cancel_to():
    # [e1, e2] = e1, [e1, e3] = e2, [e2, e3] = b e2: the defect of (1, 2, 3) is
    # (-b, 1, 0), which a packing of b = 2^t with t-bit slots would read as zero
    for t in range(1, 64):
        b = F(2**t)
        with pytest.raises(JacobiViolation) as exc:
            make_lie_algebra(3, [(0, 1, 0, 1), (0, 2, 1, 1), (1, 2, 1, b)])
        assert exc.value.triple == (0, 1, 2)
        assert exc.value.defect == (-b, F(1), F(0))
    # entries bounded by 4, defect (0, -16, 1): in slots of 4 bits (the bound's
    # bit length plus one, too narrow) the -16 borrows the next slot's 1
    with pytest.raises(JacobiViolation) as exc:
        make_lie_algebra(3, [(0, 1, 0, 1), (0, 1, 1, -4), (0, 2, 0, -4), (0, 2, 2, 1)])
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.defect == (F(0), F(-16), F(1))


# --- killing form / ad invariance -------------------------------------------


def test_killing_so3_is_minus_two_identity():
    L = cyclic_so3()
    B = killing_form(L)
    assert B.gram == fraction_matrix([[-2, 0, 0], [0, -2, 0], [0, 0, -2]])
    oracle = killing_by_traces(3, bracket_basis(L))
    assert B.gram == fraction_matrix(oracle)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_packed_killing_form_matches_the_entry_loop(data):
    # random integer tables, not Lie algebras: entries up to 2^70 cross many
    # slot widths, and a table with one large entry among small ones sizes the
    # slots by it
    n = data.draw(st.integers(0, 5))
    index = st.integers(0, n - 1)
    coefficient = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)).filter(bool)
    column = st.dictionaries(index, coefficient, min_size=1, max_size=n).map(lambda d: tuple(d.items()))
    rows = tuple(data.draw(st.dictionaries(index, column, max_size=n)) if n else {} for _ in range(n))
    assert liealg._killing_integers(rows) == killing_by_entry_loop(rows)


def test_packed_killing_form_keeps_an_entry_at_its_slot_width():
    # every entry of A_0 is c and every entry of A_1 is -c, so each trace is
    # +-n^2 c^2, the bound X that sizes the slots: in slots one bit narrower
    # X reads as a negative digit and -X borrows from the next slot
    n, c = 3, 5
    rows = [{b: tuple((a, sign * c) for a in range(n)) for b in range(n)} for sign in (1, -1, 1)]
    X = n * n * c * c
    expected = [[X, -X, X], [-X, X, -X], [X, -X, X]]
    assert killing_by_entry_loop(rows) == expected
    assert liealg._killing_integers(rows) == expected


def test_killing_abelian_is_zero_and_degenerate():
    B = killing_form(abelian(2))
    assert B.gram == fraction_matrix([[0, 0], [0, 0]])
    assert B.definiteness == "degenerate"


def test_killing_direct_sum_is_block_diagonal():
    L = so3_plus_so3()
    B = killing_form(L)
    expected = [[0] * 6 for _ in range(6)]
    for t in range(2):
        for i in range(3):
            expected[3 * t + i][3 * t + i] = -2
    assert B.gram == fraction_matrix(expected)


def test_killing_so4_diagonal_matches_trace_oracle():
    L = so_algebra(4)
    B = killing_form(L)
    oracle = killing_by_traces(6, bracket_basis(L))
    assert B.gram == fraction_matrix(oracle)
    assert all(B.gram[i][i] == -4 for i in range(6))
    assert all(B.gram[i][j] == 0 for i in range(6) for j in range(6) if i != j)


def test_ad_invariance_of_killing_form():
    for L in (cyclic_so3(), so_algebra(4), so3_plus_so3(), heisenberg()):
        assert ad_invariance_check(L, killing_form(L)).ok


def test_ad_invariance_failure_carries_witness():
    L = cyclic_so3()
    form = make_bilinear_form([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    res = ad_invariance_check(L, form)
    assert not res.ok
    i, j, k = res.witness.indices
    # independently recompute the defect at the reported triple
    G, bracket = form.gram, bracket_basis(L)
    defect = sum(x * G[a][k] for a, x in enumerate(bracket(i, j))) + sum(
        G[j][a] * x for a, x in enumerate(bracket(i, k))
    )
    assert defect == res.witness.defect != 0
    # determinism: first lexicographic violation
    assert res.witness.indices == (0, 1, 2)


def test_ad_invariance_trivial_for_abelian():
    assert ad_invariance_check(abelian(2), make_bilinear_form([[3, 1], [1, 5]])).ok


# --- orthogonal complement ---------------------------------------------------


def minus_killing(L):
    B = killing_form(L)
    return make_bilinear_form([[-x for x in row] for row in B.gram])


def test_orthocomplement_of_l3_in_so3():
    L = cyclic_so3()
    sub = unit_subspace(3, [2])
    comp = orthogonal_complement(sub, minus_killing(L))
    assert comp == unit_subspace(3, [0, 1])


def test_orthocomplement_of_full_space_is_zero():
    L = cyclic_so3()
    comp = orthogonal_complement(SubspaceBasis.full(3), minus_killing(L))
    assert comp.dim == 0


def test_orthocomplement_in_so4():
    L = so_algebra(4)
    comp = orthogonal_complement(unit_subspace(6, [0]), minus_killing(L))
    assert comp == unit_subspace(6, [1, 2, 3, 4, 5])


def test_orthocomplement_rejects_degenerate_form():
    with pytest.raises(DegenerateForm):
        orthogonal_complement(unit_subspace(2, [0]), make_bilinear_form([[0, 0], [0, 1]]))


@settings(max_examples=25)
@given(st.lists(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=6, max_size=6), min_size=1, max_size=3))
def test_orthocomplement_involutive_and_dims(rows):
    L = so_algebra(4)
    form = minus_killing(L)
    sub = SubspaceBasis.from_vectors(6, rows)
    comp = orthogonal_complement(sub, form)
    assert sub.dim + comp.dim == 6
    assert sub.intersect(comp).dim == 0
    assert orthogonal_complement(comp, form) == sub


# --- centralizer / center / derived / closure --------------------------------


def test_centralizer_of_e12_in_so4():
    L = so_algebra(4)
    res = centralizer(L, unit_subspace(6, [0]))
    assert res == unit_subspace(6, [0, 5])  # span(E12, E34)
    # oracle: commutators of the matrix realization
    basis = so_matrix_basis(4)
    for idx in (0, 5):
        assert all(x == 0 for row in commutator(basis[0], basis[idx]) for x in row)


def test_center_of_simple_and_abelian():
    assert center(cyclic_so3()).dim == 0
    assert center(abelian(2)) == SubspaceBasis.full(2)
    assert center(heisenberg()) == unit_subspace(3, [2])


def _catalog_algebra(name):
    return lambda: construct(name).algebra


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(_catalog_algebra(name), id=name)
        for name in ("so3r1_mod_0", "r2_mod_0", "so3_mod_0", "so4_mod_0", "su3_mod_su2", "so3so3_mod_diag",
                     "so4so4_mod_diag", "so8_mod_0", "su8_mod_0", "so8so8_mod_diag")
    ]
    + [pytest.param(heisenberg, id="heisenberg")],
)
def test_center_is_the_centralizer_of_g(make):
    # fresh, so the center is built here: with the Killing form cached, a
    # nondegenerate one certifies z = 0 and a degenerate one leaves z to the
    # centralizer kernel; without it the kernel runs
    L = make()
    for cached in (True, False):
        L = liealg.LieAlgebra(L.dim, L.basis_labels, L.entries)
        if cached:
            killing_form(L)
        assert center(L) == centralizer(L, SubspaceBasis.full(L.dim))


def test_center_of_heisenberg_is_read_off_a_zero_killing_form():
    L = heisenberg()
    assert killing_form(L).inertia == (0, 0, 3)
    assert center(L) == unit_subspace(3, [2])  # span(z)


def test_a_nondegenerate_killing_form_decides_the_center_without_a_centralizer(monkeypatch):
    calls = []
    real = liealg.centralizer
    monkeypatch.setattr(liealg, "centralizer", lambda *args: calls.append(args) or real(*args))
    entry = construct.__wrapped__("so8_mod_so7")  # fresh: nothing cached on its algebra
    assert entry.pair.flags.normal
    assert center(entry.algebra).dim == 0
    assert calls == []
    L = heisenberg()
    killing_form(L)
    assert center(L).dim == 1 and len(calls) == 1  # B = 0 runs the kernel


def test_derived_subalgebra_examples():
    assert derived_subalgebra(cyclic_so3()) == SubspaceBasis.full(3)
    assert derived_subalgebra(abelian(2)).dim == 0
    so3_plus_r = make_lie_algebra(4, CYCLIC_SO3)
    assert derived_subalgebra(so3_plus_r) == unit_subspace(4, [0, 1, 2])


# --- largest ideal -----------------------------------------------------------


def test_largest_ideal_in_cartan_of_so3_is_zero():
    L = cyclic_so3()
    assert largest_ideal_in(L, unit_subspace(3, [2])).dim == 0


def test_largest_ideal_in_factor_is_factor():
    L = so3_plus_so3()
    second = unit_subspace(6, [3, 4, 5])
    assert largest_ideal_in(L, second) == second


def test_largest_ideal_in_so4_line_is_zero():
    L = so_algebra(4)
    assert largest_ideal_in(L, unit_subspace(6, [0])).dim == 0


def test_largest_ideal_requires_subalgebra():
    L = so_algebra(4)
    with pytest.raises(NotASubalgebra):
        largest_ideal_in(L, unit_subspace(6, [0, 1]))  # not closed


def test_largest_ideal_dominates_enumerated_ideals():
    # brute force: any coordinate-subset ideal inside h must sit in the result
    L = so3_plus_so3()
    h = unit_subspace(6, [3, 4, 5])
    result = largest_ideal_in(L, h)
    import itertools

    for size in range(1, 7):
        for combo in itertools.combinations(range(6), size):
            cand = unit_subspace(6, list(combo))
            if not h.contains(cand):
                continue
            is_ideal = all(
                cand.contains_vector(L.bracket_basis(i, j))
                or not any(L.bracket_basis(i, j))
                for i in range(6)
                for j in combo
            )
            if is_ideal and all(
                cand.contains_vector(L.bracket(u, cand.rows[t]))
                for u in identity(6)
                for t in range(cand.dim)
            ):
                assert result.contains(cand)


# --- simple ideal decomposition ----------------------------------------------


def test_decomposition_so3_plus_so3_plus_center():
    entries = direct_sum_entries(CYCLIC_SO3, 3, CYCLIC_SO3)
    L = make_lie_algebra(7, entries)
    z, ideals = simple_ideal_decomposition(L)
    assert z == unit_subspace(7, [6])
    assert ideals == (unit_subspace(7, [0, 1, 2]), unit_subspace(7, [3, 4, 5]))


def test_decomposition_so4_splits_into_two_ideals():
    L = so_algebra(4)
    z, ideals = simple_ideal_decomposition(L)
    assert z.dim == 0
    assert [s.dim for s in ideals] == [3, 3]
    B = killing_form(L)
    for a in ideals[0].rows:
        for b in ideals[1].rows:
            assert sum(x * y for x, y in zip(a, matvec(B.gram, b))) == 0
            assert L.bracket(a, b) == (rat(0),) * 6
    # each piece is an ideal: matrix-commutator oracle
    basis = so_matrix_basis(4)
    for piece in ideals:
        rows = [list(r) for r in piece.rows]
        for v in piece.rows:
            vm = sum_mats([scale_mat(c, basis[t]) for t, c in enumerate(v)])
            for g in basis:
                new = so_coords(commutator(g, vm), 4)
                assert gauss_rank(rows + [new], 6) == len(rows)
    # the two ideals are exchanged by no relabeling: sum is everything
    assert subspace_sum(ideals[0], ideals[1]) == SubspaceBasis.full(6)


@pytest.mark.parametrize("name", ["so4so4_mod_diag", "so3so3_mod_diag"])
def test_split_falls_back_to_the_exact_span_when_p_drops_a_row(name, monkeypatch):
    # a rank mod p below the rank over Q leaves dims that miss the piece's:
    # then each ideal is the exact rref of all its spanning rows
    L = construct(name).algebra
    expected = liealg._build_ideals(L)
    monkeypatch.setattr(liealg, "_independent_mod_p", lambda rows: rows[:1])
    assert liealg._build_ideals(L) == expected


def scale_mat(c, M):
    return [[c * x for x in row] for row in M]


def sum_mats(mats):
    out = [[F(0)] * len(mats[0]) for _ in mats[0]]
    for M in mats:
        for i, row in enumerate(M):
            for j, x in enumerate(row):
                out[i][j] += x
    return out


def test_decomposition_abelian():
    z, ideals = simple_ideal_decomposition(abelian(2))
    assert z == SubspaceBasis.full(2)
    assert ideals == ()


def test_decomposition_rejects_noncompact():
    with pytest.raises(NotCompactType):
        simple_ideal_decomposition(heisenberg())
    sl2 = make_lie_algebra(3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)])
    with pytest.raises(NotCompactType):
        simple_ideal_decomposition(sl2)


def test_decomposition_of_so5_is_simple():
    z, ideals = simple_ideal_decomposition(so_algebra(5))
    assert z.dim == 0
    assert [s.dim for s in ideals] == [10]


@pytest.mark.parametrize("name", ["so4", "so3so3", "su3"])
def test_simple_ideals_survive_a_unimodular_change_of_basis(name):
    L = so3_plus_so3() if name == "so3so3" else kernel_algebra(name)
    P, Pinv = unimodular(L.dim, random.Random(29))
    M = make_lie_algebra(L.dim, changed_basis_entries(L.dim, L.bracket_basis, P, Pinv))
    z, ideals = simple_ideal_decomposition(L)
    z_new, ideals_new = simple_ideal_decomposition(M)

    def back(sub):  # coordinates c along f_a = sum_i P[a][i] e_i -> c P
        return SubspaceBasis.from_vectors(L.dim, [matvec(transpose(P), v) for v in sub.rows])

    assert [s.dim for s in ideals_new] == [s.dim for s in ideals]
    assert back(z_new) == z
    assert sorted(back(s).rows for s in ideals_new) == sorted(s.rows for s in ideals)


# --- the Cartan split: dense-basis oracle and its draws -----------------------------

# catalog entries whose g has two or more simple ideals or a center, dim g <= 20;
# entries with the same g share one rewrite
SPLIT_ORACLE_ENTRIES = (
    "so4_mod_so3", "so4_mod_so2", "so4_mod_0", "so3so3_mod_diag", "so3so3_mod_second_factor",
    "so4so4_mod_diag", "so4so4_mod_second_factor", "so5so5_mod_diag", "so5so5_mod_second_factor",
    "so3r1_mod_0", "r2_mod_0",
)


def test_split_oracle_covers_the_curated_entries_with_several_ideals():
    for name in catalog_names():
        z, ideals = simple_ideal_decomposition(construct(name).algebra)
        assert (len(ideals) >= 2 or z.dim > 0) == (name in SPLIT_ORACLE_ENTRIES)


@lru_cache(maxsize=None)
def dense_rewrites(L):
    """L in two unimodular bases f_a = sum_i P[a][i] e_i, with the map P^-T from
    old coordinates to coordinates along the f_a."""
    out = []
    for seed in (41, 43):
        P, Pinv = unimodular(L.dim, random.Random(seed))
        M = make_lie_algebra(L.dim, changed_basis_entries(L.dim, L.bracket_basis, P, Pinv))
        out.append((M, transpose(fraction_matrix(Pinv))))
    return tuple(out)


@pytest.mark.parametrize("name", SPLIT_ORACLE_ENTRIES)
def test_simple_ideals_of_a_dense_basis_are_the_catalog_split_moved(name):
    L = construct(name).algebra
    z, ideals = simple_ideal_decomposition(L)
    assert len(ideals) >= 2 or z.dim > 0
    for M, to_new in dense_rewrites(L):

        def moved(sub):
            return SubspaceBasis.from_vectors(L.dim, [matvec(to_new, v) for v in sub.rows])

        z_new, ideals_new = simple_ideal_decomposition(M)
        assert z_new == moved(z)
        assert sorted(s.rows for s in ideals_new) == sorted(moved(s).rows for s in ideals)


def forced_first_draw(monkeypatch, X, v):
    draws = liealg._cartan_draws
    monkeypatch.setattr(liealg, "_cartan_draws", lambda piece: itertools.chain([(X, v)], draws(piece)))


@pytest.fixture
def krylov_ranks(monkeypatch):
    calls = []
    krylov_rank = liealg.krylov_rank

    def spy(A, v, steps):
        calls.append((krylov_rank(A, v, steps), steps))
        return calls[-1][0]

    monkeypatch.setattr(liealg, "krylov_rank", spy)
    return calls


SO3_FACTORS = (unit_subspace(6, [0, 1, 2]), unit_subspace(6, [3, 4, 5]))


def test_equal_root_values_fail_the_krylov_rank_and_the_next_draw_is_taken(monkeypatch, krylov_ranks):
    # ad(e1) and ad(e4) have eigenvalues 0, +-i on their factors: X = e1 + e4 does
    # not separate the roots, so its Krylov vectors span 2 of the 4 root dimensions
    X = tuple(F(c) for c in (1, 0, 0, 1, 0, 0))
    forced_first_draw(monkeypatch, X, tuple(F(c) for c in (1, 2, 3, 4, 5, 6)))
    assert simple_ideal_decomposition(so3_plus_so3()) == (SubspaceBasis.zero(6), SO3_FACTORS)
    assert krylov_ranks[0] == (2, 4)
    assert len(krylov_ranks) == 2 and krylov_ranks[1] == (4, 4)


def test_a_probe_vector_in_t_fails_the_krylov_rank_and_the_next_draw_is_taken(monkeypatch, krylov_ranks):
    X, _ = next(liealg._cartan_draws(SubspaceBasis.full(6)))
    forced_first_draw(monkeypatch, X, X)  # v = X lies in t = ker ad(X)
    assert simple_ideal_decomposition(so3_plus_so3()) == (SubspaceBasis.zero(6), SO3_FACTORS)
    assert [rank for rank, _ in krylov_ranks] == [0, 4]


def test_the_draws_are_bounded(monkeypatch):
    calls = []
    monkeypatch.setattr(liealg, "krylov_rank", lambda A, v, steps: calls.append(steps) or -1)
    with pytest.raises(WorkbenchError, match="no Cartan subalgebra"):
        simple_ideal_decomposition(so3_plus_so3())
    assert calls == [4] * liealg.CARTAN_DRAWS


def test_the_draws_are_deterministic():
    piece = SubspaceBasis.from_vectors(6, [(1, 2, 0, 0, 0, 0), (0, 1, 0, 3, 0, 0), (0, 0, 0, 0, 1, F(1, 2))])
    assert list(liealg._cartan_draws(piece)) == list(liealg._cartan_draws(piece))
    assert len(list(liealg._cartan_draws(piece))) == liealg.CARTAN_DRAWS


def test_the_first_draw_is_narrow_and_the_later_draws_widen():
    piece = SubspaceBasis.full(6)
    draws = list(liealg._cartan_draws(piece))
    rng = random.Random(0)  # the first draw takes coefficients in -9..9
    assert draws[0] == tuple(tuple(map(F, [rng.randint(-9, 9) for _ in range(6)])) for _ in range(2))
    widths = [max(abs(x) for vec in pair for x in vec) for pair in draws]
    assert all(w <= 9 << (3 * draw) for draw, w in enumerate(widths))
    assert widths[-1] > 9 << (3 * (liealg.CARTAN_DRAWS - 2))


def so3_power(k):
    """so(3)^k in the standard basis: factor f on e_{3f}, e_{3f+1}, e_{3f+2}."""
    return make_lie_algebra(3 * k, [(i + 3 * f, j + 3 * f, c + 3 * f, x) for f in range(k) for i, j, c, x in CYCLIC_SO3])


def test_twenty_simple_factors_split_with_widened_draws(krylov_ranks):
    # with 20 factors the root values of an X in -9..9 collide: a later,
    # wider draw separates them
    z, ideals = simple_ideal_decomposition(so3_power(20))
    assert z.dim == 0
    assert ideals == tuple(unit_subspace(60, [3 * f, 3 * f + 1, 3 * f + 2]) for f in range(20))
    assert any(rank < steps for rank, steps in krylov_ranks)


SU2_OVER_Q_SQRT2 = [  # a_i = e_i and b_i = sqrt(2) e_i of su(2) over Q(sqrt 2)
    entry for i, j, k, c in CYCLIC_SO3
    for entry in ((i, j, k, c), (i, 3 + j, 3 + k, c), (j, 3 + i, 3 + k, -c), (3 + i, 3 + j, k, 2 * c))
]


@pytest.mark.parametrize("with_so3", [False, True])
def test_a_simple_ideal_that_is_not_absolutely_simple_stays_whole(with_so3, monkeypatch):
    # the centroid of su(2) over Q(sqrt 2) is Q(sqrt 2): its non-scalar
    # elements have the one primary kernel of x^2 - 2c^2, and no element splits
    counts = []
    primary_kernels = liealg.primary_kernels
    monkeypatch.setattr(liealg, "primary_kernels", lambda S: counts.append(len(primary_kernels(S))) or primary_kernels(S))
    L = make_lie_algebra(9, direct_sum_entries(CYCLIC_SO3, 3, SU2_OVER_Q_SQRT2)) if with_so3 else make_lie_algebra(6, SU2_OVER_Q_SQRT2)
    z, ideals = simple_ideal_decomposition(L)
    assert z.dim == 0
    assert [s.dim for s in ideals] == ([3, 6] if with_so3 else [6])
    assert ideals[-1] == unit_subspace(L.dim, range(L.dim - 6, L.dim))
    assert counts[-1] == 1


def test_a_centroid_element_that_is_not_semisimple_is_a_workbench_error(monkeypatch):
    def refuse(S):
        raise ValueError("the matrix is not semisimple")

    monkeypatch.setattr(liealg, "primary_kernels", refuse)
    with pytest.raises(WorkbenchError, match="centroid element on an ideal of dim 6 is not semisimple"):
        simple_ideal_decomposition(so3_plus_so3())


# --- zero-skipping bracket and adjoint against the dense oracles -------------------


def dense_basis_so4():
    """so(4) in the basis f_i = E_1 + ... + E_i: every bracket has many terms."""
    E = so_matrix_basis(4)
    basis = [
        [[sum((E[t][a][b] for t in range(i + 1)), F(0)) for b in range(4)] for a in range(4)]
        for i in range(6)
    ]
    entries = []
    for i in range(6):
        for j in range(i + 1, 6):
            coords = express_in_basis(commutator(basis[i], basis[j]), basis)
            entries.extend((i, j, k, c) for k, c in enumerate(coords) if c)
    return make_lie_algebra(6, entries)


@lru_cache(maxsize=None)
def kernel_algebra(name):
    if name == "so4":
        return so_algebra(4)
    if name == "su3":
        from reductive_workbench.catalog import construct

        return construct("su3_mod_su2").algebra
    if name == "coprime_so3so3":
        # constants with large coprime denominators, one of them the prime of
        # the modular kernels, so the integer table's scale exceeds 2^100
        return rescaled_so3_plus_so3(
            [F(linalg.PRIME), F(1), F(3**20, 7), F(1), F(2**40 + 1, 5**10), F(1)]
        )
    return dense_basis_so4()


KERNEL_ALGEBRAS = ("so4", "su3", "dense_so4", "coprime_so3so3")
sparse_entries = st.sampled_from(
    (F(0),) * 5 + (F(1), F(-1), F(1, 2), F(-1, 2), F(3))
)
dense_entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def draw_vector(data, n):
    entries = data.draw(st.sampled_from((sparse_entries, dense_entries)))
    return tuple(data.draw(st.lists(entries, min_size=n, max_size=n)))


@pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
def test_basis_brackets_and_killing_form_match_the_entries(name):
    L = kernel_algebra(name)
    bracket = bracket_basis(L)
    for i in range(L.dim):
        for j in range(L.dim):
            got = L.bracket_basis(i, j)
            assert got == tuple(bracket(i, j))
            assert all(type(c) is Fraction for c in got)
    B = killing_form(L)
    assert B.gram == fraction_matrix(killing_by_traces(L.dim, bracket))
    assert all(type(c) is Fraction for row in B.gram for c in row)


@pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bracket_matches_bilinear_expansion(name, data):
    L = kernel_algebra(name)
    bracket = bracket_basis(L)
    X, Y = draw_vector(data, L.dim), draw_vector(data, L.dim)
    expected = [F(0)] * L.dim
    for i in range(L.dim):
        for j in range(L.dim):
            for k, c in enumerate(bracket(i, j)):
                expected[k] += X[i] * Y[j] * c
    got = L.bracket(X, Y)
    assert got == tuple(expected)
    assert all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ad_matches_dense_oracle_combination(name, data):
    L = kernel_algebra(name)
    ads = dense_ad_matrices(L.dim, bracket_basis(L))
    X = draw_vector(data, L.dim)
    expected = [
        [sum((X[i] * ads[i][a][b] for i in range(L.dim)), F(0)) for b in range(L.dim)]
        for a in range(L.dim)
    ]
    # the integer adjoint d ad(X), over its scale d
    den, got = L._integer_ad(X)
    assert all(type(c) is int for row in got for c in row)
    assert [[F(c, den) for c in row] for row in got] == expected


@pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
def test_killing_form_matches_the_entry_loop_over_the_table_scale(name):
    L = kernel_algebra(name)
    scale, rows = L._integer_table
    expected = [[F(x, scale * scale) for x in row] for row in killing_by_entry_loop(rows)]
    assert killing_form(L).gram == tuple(map(tuple, expected))


# --- [g, g] certified mod p, span closures by exact rounds --------------------------


def exact_closure(L, seeds):
    """The subalgebra generated by the seeds, by rref rounds over Q."""
    current = SubspaceBasis.from_vectors(L.dim, seeds)
    while True:
        brackets = [L.bracket(u, v) for u in current.rows for v in current.rows]
        grown = subspace_sum(current, SubspaceBasis.from_vectors(L.dim, brackets))
        if grown.dim == current.dim:
            return current
        current = grown


P = linalg.PRIME
closure_entries = st.sampled_from(
    (F(0),) * 4 + (F(1), F(-1), F(1, 2), F(2, 3), F(P), F(-P), F(2 * P), F(P, 3))
)


def rescaled(L, s):
    """L in the basis f_a = s_a e_a."""
    return make_lie_algebra(L.dim, [(i, j, k, c * s[i] * s[j] / s[k]) for i, j, k, c in L.entries])


def all_brackets(L):
    return SubspaceBasis.from_vectors(
        L.dim, [L.bracket_basis(i, j) for i in range(L.dim) for j in range(i + 1, L.dim)]
    )


def bracket_rank_mod_p(L):
    _, rows = L._integer_table
    pivots = {}
    for i, row in enumerate(rows):
        for j, terms in row.items():
            if i < j:
                linalg._add_row_mod_p(pivots, dict(terms))
    return len(pivots)


@pytest.mark.parametrize("name", KERNEL_ALGEBRAS + ("so3so3",))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_modular_closure_dimension_is_a_lower_bound(name, data):
    # [g, g] is the span of all brackets: its dimension mod P bounds it over Q, and
    # the derived subalgebra is that span whether or not the rank mod P reaches n.
    # Scales that are multiples of P vanish mod P, so the rank can fall short.
    # The largest ideal inside the subalgebra generated by drawn seeds, whose
    # entries may be multiples of P too, matches the descending-chain oracle.
    base = so3_plus_so3() if name == "so3so3" else kernel_algebra(name)
    nonzero = closure_entries.filter(bool)
    L = rescaled(base, data.draw(st.lists(nonzero, min_size=base.dim, max_size=base.dim)))
    exact = all_brackets(L)
    assert bracket_rank_mod_p(L) <= exact.dim
    assert derived_subalgebra(L) == exact
    vec = st.lists(closure_entries, min_size=L.dim, max_size=L.dim).map(tuple)
    seeds = data.draw(st.lists(vec, min_size=1, max_size=2))
    h = exact_closure(L, seeds)
    assert largest_ideal_in(L, h).rows == fraction_matrix(largest_ideal_by_descent(L, h.rows))


@pytest.mark.parametrize(
    "name, dims",
    [("so3r1", (1, [3])), ("heisenberg", (1, [])), ("abelian", (2, []))],
)
def test_derived_subalgebra_short_of_g_is_the_span_of_all_brackets(name, dims):
    L = {"so3r1": construct("so3r1_mod_0").algebra, "heisenberg": heisenberg(), "abelian": abelian(2)}[name]
    assert derived_subalgebra(L) == all_brackets(L)
    if name != "heisenberg":  # the Heisenberg algebra is not of compact type
        z, ideals = simple_ideal_decomposition(L)
        assert (z.dim, [s.dim for s in ideals]) == dims


def test_modular_rank_short_of_g_runs_the_exact_rref(monkeypatch):
    # in the basis (P e1, e2, ..., e6) the table's scale is P: [f1, f2] = P f3 is 0
    # mod P, so the bracket rows fall short of rank 6 mod P, while [g, g] = g over Q
    L = rescaled_so3_plus_so3([F(P)] + [F(1)] * 5)
    assert bracket_rank_mod_p(L) < 6
    reduced = []
    exact_rref = liealg.rref
    monkeypatch.setattr(liealg, "rref", lambda rows, n: reduced.append(len(rows)) or exact_rref(rows, n))
    assert derived_subalgebra(L) == SubspaceBasis.full(6)
    assert reduced == [15]  # all 15 brackets, once


def test_full_modular_rank_skips_the_exact_rref(monkeypatch):
    L = rescaled_so3_plus_so3([F(2), F(1, 3), F(1), F(5), F(1), F(7, 2)])
    monkeypatch.setattr(liealg, "rref", lambda rows, n: pytest.fail("rref ran"))
    assert derived_subalgebra(L) == SubspaceBasis.full(6)


def test_prime_denominator_skips_the_modular_closure(monkeypatch):
    # so(3) + so(3) in the basis (P e1, e2, ..., e6): [f2, f3] = f1 / P, so no
    # residue exists and both the rank of [g, g] and the kernels are found exactly
    L = rescaled_so3_plus_so3([F(linalg.PRIME)] + [F(1)] * 5)
    exact_kernels, reduced = [], []
    exact_kernel, exact_rref = linalg._exact_kernel, liealg.rref
    monkeypatch.setattr(linalg, "_exact_kernel", lambda A, n: exact_kernels.append(n) or exact_kernel(A, n))
    monkeypatch.setattr(liealg, "rref", lambda rows, n: reduced.append(len(rows)) or exact_rref(rows, n))
    z, ideals = simple_ideal_decomposition(L)
    assert z.dim == 0
    assert ideals == (unit_subspace(6, [0, 1, 2]), unit_subspace(6, [3, 4, 5]))
    assert 15 in reduced  # _build_derived's rref of all brackets
    assert exact_kernels


# --- largest ideal and coadjoint rows against dense oracles ------------------------


@pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_largest_ideal_matches_the_descending_chain_oracle(name, data):
    # h is the subalgebra generated by one or two drawn vectors
    L = kernel_algebra(name)
    seeds = [draw_vector(data, L.dim) for _ in range(data.draw(st.integers(1, 2)))]
    h = exact_closure(L, seeds)
    expected = largest_ideal_by_descent(L, h.rows)
    assert largest_ideal_in(L, h).rows == fraction_matrix(expected)


@pytest.mark.parametrize("name", catalog_names())
def test_largest_ideal_of_each_catalog_h_matches_the_oracle(name):
    entry = construct(name)
    expected = largest_ideal_by_descent(entry.algebra, entry.h.rows)
    assert largest_ideal_in(entry.algebra, entry.h).rows == fraction_matrix(expected)


@pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coadjoint_rows_are_the_functional_on_basis_brackets(name, data):
    L = kernel_algebra(name)
    bracket = bracket_basis(L)
    phi = draw_vector(data, L.dim)
    got = L.coadjoint(phi)
    expected = tuple(
        tuple(sum((p * x for p, x in zip(phi, bracket(i, b))), F(0)) for b in range(L.dim))
        for i in range(L.dim)
    )
    assert got == expected
    assert all(type(c) is Fraction for row in got for c in row)


# --- sparse invariance check against the dense triple loop -------------------


@lru_cache(maxsize=None)
def invariance_algebra(name):
    if name == "unimodular_su3":
        L = kernel_algebra("su3")
        P, Pinv = unimodular(L.dim, random.Random(31))
        return make_lie_algebra(L.dim, changed_basis_entries(L.dim, L.bracket_basis, P, Pinv))
    if name in KERNEL_ALGEBRAS:
        return kernel_algebra(name)
    from reductive_workbench.catalog import construct

    return construct(name).algebra


@pytest.mark.parametrize(
    "name",
    ["so3_mod_so2", "so4_mod_0", "su3_mod_su2", "so3r1_mod_0", "r2_mod_0", "unimodular_su3", "coprime_so3so3"],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ad_invariance_matches_dense_triple_loop(name, data):
    # a multiple of the Killing form (invariant) plus a few symmetric
    # perturbations, which break invariance unless they sit on the center
    L = invariance_algebra(name)
    scale = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    gram = [[scale * x for x in row] for row in killing_form(L).gram]
    index = st.integers(min_value=0, max_value=L.dim - 1)
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        p, q = data.draw(index), data.draw(index)
        delta = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        gram[p][q] += delta
        if p != q:
            gram[q][p] += delta
    form = make_bilinear_form(gram)
    res = ad_invariance_check(L, form)
    expected = dense_ad_invariance(L.dim, bracket_basis(L), form.gram)
    assert res.ok == (expected is None)
    if expected is not None:
        assert (res.witness.indices, res.witness.defect) == expected


# --- packed invariance routine against the plain loop ------------------------


def sparse_operator(A):
    """The columns (j, nonzero (a, A[a][j])) that `_invariance_witness` reads."""
    r = len(A)
    return [(j, [(a, A[a][j]) for a in range(r) if A[a][j]]) for j in range(r)]


def sparse_rows(G):
    return [[(k, x) for k, x in enumerate(row) if x] for row in G]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_packed_invariance_witness_matches_the_loop(data):
    # G = U^T diag(d) U with U unimodular; A = U^-1 diag(p / d) U^-T K, with
    # p = prod d and K skew, has A^T G = p K^T skew, so it is invariant. Each
    # operator is scaled (up to 2^80, so defects cross many slot widths) and
    # a few entries are perturbed, which breaks invariance almost always
    r = data.draw(st.integers(2, 4))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    U, Uinv = unimodular(r, rng)
    U, Uinv = [[int(x) for x in row] for row in U], [[int(x) for x in row] for row in Uinv]
    d = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=r, max_size=r))
    p = 1
    for x in d:
        p *= x
    G = [[sum(U[a][i] * d[a] * U[a][j] for a in range(r)) for j in range(r)] for i in range(r)]
    W = [[sum(Uinv[i][a] * (p // d[a]) * Uinv[j][a] for a in range(r)) for j in range(r)] for i in range(r)]
    small = st.integers(-3, 3)
    ops = []
    for _ in range(data.draw(st.integers(1, 5))):
        K = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                K[i][j] = data.draw(small)
                K[j][i] = -K[i][j]
        s = data.draw(st.one_of(small, st.integers(1, 2**80)))
        ops.append([[s * sum(W[a][b] * K[b][j] for b in range(r)) for j in range(r)] for a in range(r)])
    index = st.integers(0, r - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        A = ops[data.draw(st.integers(0, len(ops) - 1))]
        A[data.draw(index)][data.draw(index)] += data.draw(st.one_of(small, st.integers(-(2**70), 2**70)))
    den = data.draw(st.integers(1, 9))
    got = liealg._invariance_witness(map(sparse_operator, ops), sparse_rows(G), den)
    expected = dense_invariance_witness(ops, G)
    if expected is None:
        assert got is None
    else:
        assert (got.indices, got.defect) == (expected[0], F(expected[1], den))


def test_packed_invariance_witness_keeps_a_defect_at_its_slot_width():
    # entries and Gram bounded by 1 on r = 3: defects are at most 2 r = 6, so
    # the slots have 3 bits. A_0's defect is -4 at (1, 2) and A_1's is 1: in
    # slots one bit narrower, -4 is minus one unit of the next slot, which
    # A_1's 1 cancels, and the packed defect would read zero
    G = [[-1, -1, -1], [-1, 0, -1], [-1, -1, 1]]
    ops = [[[-1, 1, 1], [0, 0, 0], [1, -1, 1]], [[-1, -1, 0], [0, 0, 1], [1, 1, 1]]]
    assert dense_invariance_witness(ops, G) == ((0, 1, 2), -4)
    witness = liealg._invariance_witness(map(sparse_operator, ops), sparse_rows(G), 3)
    assert (witness.indices, witness.defect) == ((0, 1, 2), F(-4, 3))
    assert liealg._invariance_witness(map(sparse_operator, ops[1:]), sparse_rows(G), 1).indices == (0, 1, 2)
