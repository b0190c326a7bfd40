from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reductive_workbench.catalog import catalog_names, construct
from reductive_workbench.connection import connection_tensors_at_basepoint, consistency_sweep
from reductive_workbench.errors import NotNaturallyReductive
from reductive_workbench.homspace import make_reductive_pair
from reductive_workbench.liealg import make_bilinear_form
from reductive_workbench.linalg import smul, rat, vadd, vector, vneg, zero_vector

from oracles import dense_bianchi_holds, dense_koszul_defect, stored_torsion_antisymmetric
from test_homspace import (
    dense_spec_pair,
    diagonal_pair,
    second_factor_pair,
    so4_mod_so2_pair,
    sphere_pair,
    trivial_isotropy_pair,
)
from test_liealg import abelian, cyclic_so3

F = Fraction


ALL_PAIRS = [sphere_pair, diagonal_pair, second_factor_pair, so4_mod_so2_pair]


def test_sphere_pair_tensors():
    # m = span(L1, L2); [L1, L2] = L3 falls in h, so torsion vanishes
    t = connection_tensors_at_basepoint(sphere_pair())
    assert t.torsion_table[0][1] == zero_vector(3)
    # R(L1, L2)L1 = -[[L1,L2]_h, L1] = -[L3, L1] = -L2
    assert t.curvature_table[0][1][0] == vector([0, -1, 0])


def test_trivial_isotropy_pair_is_flat_with_torsion():
    pair = trivial_isotropy_pair(cyclic_so3())
    t = connection_tensors_at_basepoint(pair)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert t.curvature_table[a][b][c] == zero_vector(3)
    # torsion = -[X,Y] is the full bracket here
    assert t.torsion_table[0][1] == vector([0, 0, -1])


def test_diagonal_pair_has_symmetric_space_tensors():
    # [m, m] lands in the diagonal h: torsion zero, curvature nonzero
    t = connection_tensors_at_basepoint(diagonal_pair())
    dim_m = len(t.pair.m.rows)
    assert all(
        t.torsion_table[a][b] == zero_vector(6) for a in range(dim_m) for b in range(dim_m)
    )
    assert any(
        t.curvature_table[a][b][c] != zero_vector(6)
        for a in range(dim_m)
        for b in range(dim_m)
        for c in range(dim_m)
    )
    # pinned value: X1 = (L1,-L1), X2 = (L2,-L2): R(X1,X2)X1 = -(L2,-L2) = -X2
    assert t.curvature_table[0][1][0] == vneg(t.pair.m.rows[1])


def test_abelian_pair_all_tables_vanish():
    t = connection_tensors_at_basepoint(trivial_isotropy_pair(abelian(2)))
    for a in range(2):
        for b in range(2):
            assert t.canonical_table[a][b] == zero_vector(2)
            for c in range(2):
                assert t.curvature_table[a][b][c] == zero_vector(2)


def test_canonical_is_twice_levi_civita():
    for make in ALL_PAIRS:
        t = connection_tensors_at_basepoint(make())
        dim_m = len(t.pair.m.rows)
        for a in range(dim_m):
            for b in range(dim_m):
                assert t.canonical_table[a][b] == smul(rat(2), t.lc_table[a][b])
                assert t.lc_table[a][a] == zero_vector(t.pair.algebra.dim)


def test_torsion_and_curvature_antisymmetry():
    for make in ALL_PAIRS:
        t = connection_tensors_at_basepoint(make())
        dim_m = len(t.pair.m.rows)
        for a in range(dim_m):
            for b in range(dim_m):
                assert t.torsion_table[a][b] == vneg(t.torsion_table[b][a])
                for c in range(dim_m):
                    assert t.curvature_table[a][b][c] == vneg(t.curvature_table[b][a][c])


def test_torsion_consistency_with_connection_difference():
    # T(X,Y) = C(X,Y) - C(Y,X) - (Killing-field bracket at p) and the field
    # bracket at p is -[X,Y]_m, hence T = C(X,Y) - C(Y,X) + [X,Y]_m.
    for make in ALL_PAIRS:
        pair = make()
        t = connection_tensors_at_basepoint(pair)
        rows = pair.m.rows
        for a in range(len(rows)):
            for b in range(len(rows)):
                expected = vadd(
                    vadd(t.canonical_table[a][b], vneg(t.canonical_table[b][a])),
                    pair.bracket_m(rows[a], rows[b]),
                )
                assert t.torsion_table[a][b] == expected


def test_curvature_values_stay_in_m():
    for make in ALL_PAIRS:
        pair = make()
        t = connection_tensors_at_basepoint(pair)
        dim_m = len(pair.m.rows)
        for a in range(dim_m):
            for b in range(dim_m):
                for c in range(dim_m):
                    assert pair.m.contains_vector(t.curvature_table[a][b][c])


def bianchi_defect(pair, t, a, b, c):
    """cyclic sum of R(X,Y)Z minus cyclic sum of T(T(X,Y), Z)."""
    rows = pair.m.rows
    n = pair.algebra.dim
    total = zero_vector(n)
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        total = vadd(total, t.curvature_table[x][y][z])
        inner = t.torsion_table[x][y]
        t_of_t = vneg(pair.bracket_m(inner, rows[z]))
        total = vadd(total, vneg(t_of_t))
    return total


def test_first_bianchi_with_torsion():
    for make in ALL_PAIRS:
        pair = make()
        t = connection_tensors_at_basepoint(pair)
        dim_m = len(pair.m.rows)
        for a in range(dim_m):
            for b in range(a + 1, dim_m):
                for c in range(dim_m):
                    assert bianchi_defect(pair, t, a, b, c) == zero_vector(pair.algebra.dim)


def test_metric_compatibility_on_naturally_reductive_pairs():
    for make in ALL_PAIRS:
        pair = make()
        rows = pair.m.rows
        G = pair.metric
        for x in rows:
            for y in rows:
                for z in rows:
                    lhs = G.apply(vneg(pair.bracket_m(x, y)), z) + G.apply(
                        y, vneg(pair.bracket_m(x, z))
                    )
                    assert lhs == 0


def tilted_gram_pair():
    # so(3) + R^2 with h = 0 and a positive-definite metric tilted between
    # the two summands: reductive, not naturally reductive
    from reductive_workbench.liealg import SubspaceBasis, make_lie_algebra
    from test_liealg import CYCLIC_SO3

    Lc = make_lie_algebra(5, CYCLIC_SO3)
    gram = [[0] * 5 for _ in range(5)]
    for d in range(3):
        gram[d][d] = 2
    for d in range(3, 5):
        gram[d][d] = 1
    gram[0][3] = gram[3][0] = F(1, 2)
    return make_reductive_pair(
        Lc, SubspaceBasis.zero(5), SubspaceBasis.full(5), make_bilinear_form(gram)
    )


def test_lc_table_refused_for_non_naturally_reductive_pair():
    bad = tilted_gram_pair()
    assert not bad.flags.naturally_reductive
    t = connection_tensors_at_basepoint(bad)
    assert not t.has_lc
    assert t.canonical_table[0][1] == vector([0, 0, -1, 0, 0])
    with pytest.raises(NotNaturallyReductive):
        _ = t.lc_table


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda name=n: construct(name).pair, id=n) for n in catalog_names()]
    + [
        pytest.param(dense_spec_pair, id="so3so3_mod_diag_dense"),
        pytest.param(tilted_gram_pair, id="tilted_gram"),
    ],
)
def test_twice_lc_flag_is_the_koszul_identity(make):
    # the Levi-Civita Nomizu map is 1/2 [X,Y]_m + U(X,Y), so C = 2 LC iff the
    # Koszul term U vanishes; the tilted pair is the one where it does not
    pair = make()
    U = dense_koszul_defect(pair.algebra, pair.h.rows, pair.m.rows, pair.metric.gram)
    flag = consistency_sweep(connection_tensors_at_basepoint(pair))["canonical_equals_twice_lc"]
    assert flag == (not any(any(u) for row in U for u in row))
    assert flag == pair.flags.naturally_reductive
    assert flag is (make is not tilted_gram_pair)


def with_pair_entry(pair, a, b, part, index, delta):
    """The pair with the integer delta added to the stored integer term at
    coordinate `index` of the h-part (part 0) or the m-part (part 1) of the
    entry stored at (a, b), which is over the table's scale. For a < b that is
    [m_a, m_b], and the mirrored entry [m_b, m_a] changes with it; the table
    reads no entry stored at a > b."""
    table = pair.table
    entry = [dict(terms) for terms in table.pairs[a].get(b, ((), ()))]
    entry[part][index] = entry[part].get(index, 0) + delta
    terms = tuple(tuple(sorted((t, x) for t, x in part.items() if x)) for part in entry)
    pairs = list(table.pairs)
    pairs[a] = {**pairs[a], b: terms}
    return pair.replace(table=table.replace(pairs=tuple(pairs)))


@pytest.mark.parametrize(
    "a, b, part, holds",
    [
        pytest.param(1, 1, 1, False, id="diagonal_m_part"),
        pytest.param(1, 1, 0, True, id="diagonal_h_part"),
        pytest.param(2, 1, 1, True, id="below_the_diagonal"),
    ],
)
def test_torsion_flag_reads_the_stored_diagonal(a, b, part, holds):
    # T is antisymmetric iff no stored [m_a, m_a] has an m-part: an h-part is
    # not in T, and an entry stored at a > b is never read
    pair = construct("su3_mod_su2").pair
    bad = with_pair_entry(pair, a, b, part, 0, pair.table.scale)
    flag = consistency_sweep(connection_tensors_at_basepoint(bad))["torsion_antisymmetric"]
    assert flag is holds
    assert flag == stored_torsion_antisymmetric(bad.table, bad.m.dim)


@pytest.mark.parametrize("name", ["su3_mod_su2", "so4_mod_0"])
def test_sweep_catches_one_corrupted_m_bracket(name):
    # the sweep reads only nonzero table entries; a wrong entry must still show
    pair = construct(name).pair
    assert all(consistency_sweep(connection_tensors_at_basepoint(pair)).values())
    bad_pair = with_pair_entry(pair, 0, 1, 1, 0, pair.table.scale)  # [m_0, m_1] += m_0
    result = consistency_sweep(connection_tensors_at_basepoint(bad_pair))
    assert result["bianchi_cyclic_identity"] is False


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda name=name: construct(name).pair, id=name)
        for name in ["so3_mod_so2", "so4_mod_so2", "su3_mod_su2", "so3so3_mod_diag", "so4_mod_0"]
    ]
    + [pytest.param(dense_spec_pair, id="so3so3_mod_diag_dense")],
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sweep_bianchi_flag_matches_all_ordered_triples(make, data):
    # the sweep decides Bianchi on a < b < c only; one corrupted stored entry
    # must get the same flag as the dense oracle over every ordered triple;
    # the dense file's table has scale 4032 and large terms, which the packed
    # sweep's slot width must hold
    pair = make()
    s, r, scale = pair.h.dim, pair.m.dim, pair.table.scale
    a = data.draw(st.integers(0, r - 2))
    b = data.draw(st.integers(a + 1, r - 1))
    part = data.draw(st.sampled_from([0, 1] if s else [1]))
    index = data.draw(st.integers(0, (s, r)[part] - 1))
    # integer deltas over the table's scale: whole multiples of it, and any integer up to twice it
    delta = data.draw(
        st.one_of(st.integers(-2, 2).map(lambda k: k * scale), st.integers(-2 * scale - 1, 2 * scale + 1))
        .filter(lambda x: x != 0)
    )
    bad = with_pair_entry(pair, a, b, part, index, delta)
    result = consistency_sweep(connection_tensors_at_basepoint(bad))
    assert result["bianchi_cyclic_identity"] == dense_bianchi_holds(bad.table.pairs, bad.table.ad_h, s, r)
    assert result["torsion_antisymmetric"] == stored_torsion_antisymmetric(bad.table, r)
