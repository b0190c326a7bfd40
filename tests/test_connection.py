from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reductive_workbench.catalog import catalog_names, construct
from reductive_workbench.connection import connection_tensors_at_basepoint, consistency_sweep
from reductive_workbench.homspace import make_reductive_pair
from reductive_workbench.liealg import make_bilinear_form

from oracles import (
    dense_bianchi_by_brackets,
    dense_bianchi_holds,
    dense_koszul_defect,
    dense_nr_defect,
    stored_torsion_antisymmetric,
)
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


# The tensors are readings of the adapted table, h_i at index i and m_a at
# index s + a: T(m_a, m_b) = -[m_a, m_b]_m is the m-part of rows[s + a][s + b],
# and R(m_a, m_b)m_c = -[[m_a, m_b]_h, m_c] pairs its h-part with the entries
# rows[i][s + c]; terms are over `scale`.


def test_sphere_pair_tensors():
    # m = span(L1, L2); [L1, L2] = L3 falls in h, so torsion vanishes, and
    # [L3, L1] = L2, so R(L1, L2)L1 = -[L3, L1] = -L2
    t = connection_tensors_at_basepoint(sphere_pair())
    assert t.h_dim == 1
    assert t.rows[1][2] == ((0, t.scale),)
    assert t.rows[2][1] == ((0, -t.scale),)
    assert t.rows[0][1] == ((2, t.scale),)


def test_trivial_isotropy_pair_is_flat_with_torsion():
    # h = 0 leaves no h-part, so R = 0; torsion -[X,Y] is the full bracket:
    # T(L1, L2) = -L3
    t = connection_tensors_at_basepoint(trivial_isotropy_pair(cyclic_so3()))
    assert t.h_dim == 0 and len(t.rows) == 3
    assert t.rows[0][1] == ((2, t.scale),)


def test_diagonal_pair_has_symmetric_space_tensors():
    # [m, m] lands in the diagonal h: torsion zero, curvature nonzero
    t = connection_tensors_at_basepoint(diagonal_pair())
    entries = [t.rows[3 + a].get(3 + b, ()) for a in range(3) for b in range(3)]
    assert not any(k >= 3 for terms in entries for k, _ in terms)
    assert any(entries)
    # pinned value: X1 = (L1,-L1), X2 = (L2,-L2): [X1, X2] = (L3, L3) = h_2
    # and [h_2, X1] = X2, so R(X1,X2)X1 = -X2
    assert t.rows[3][4] == ((2, t.scale),)
    assert t.rows[2][3] == ((4, t.scale),)


def test_abelian_pair_all_tables_vanish():
    t = connection_tensors_at_basepoint(trivial_isotropy_pair(abelian(2)))
    assert t.h_dim == 0
    assert t.rows == ({}, {})


def test_canonical_is_twice_levi_civita():
    for make in ALL_PAIRS:
        pair = make()
        U = dense_koszul_defect(pair.algebra, pair.h.rows, pair.m.rows, pair.metric.gram)
        assert not any(any(u) for row in U for u in row)
        assert consistency_sweep(connection_tensors_at_basepoint(pair))["canonical_equals_twice_lc"]


def test_torsion_and_curvature_antisymmetry():
    # no [m_a, m_a] is stored, so T and R vanish on (m_a, m_a), and the table
    # stores [m_b, m_a] as -[m_a, m_b], both its h-part and its m-part
    for make in ALL_PAIRS:
        t = connection_tensors_at_basepoint(make())
        s, r = t.h_dim, len(t.gram)
        assert all(s + a not in t.rows[s + a] for a in range(r))
        assert all(
            t.rows[s + b].get(s + a, ()) == tuple((k, -v) for k, v in t.rows[s + a].get(s + b, ()))
            for a in range(r) for b in range(r)
        )
        assert stored_torsion_antisymmetric(t, r)
        assert consistency_sweep(t)["torsion_antisymmetric"]


def test_first_bianchi_with_torsion():
    for make in ALL_PAIRS:
        pair = make()
        t = connection_tensors_at_basepoint(pair)
        assert dense_bianchi_by_brackets(pair.algebra, pair.h.rows, pair.m.rows)
        assert dense_bianchi_holds(t.rows, pair.h.dim, pair.m.dim)
        assert consistency_sweep(t)["bianchi_cyclic_identity"]


def test_metric_compatibility_on_naturally_reductive_pairs():
    # the canonical connection is metric iff <[X,Y]_m, Z> + <Y, [X,Z]_m> = 0
    for make in ALL_PAIRS:
        pair = make()
        defect = dense_nr_defect(pair.algebra, pair.h.rows, pair.m.rows, pair.metric.gram)
        assert not any(x for plane in defect for row in plane for x in row)


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
    coordinate `index` of the h-part (part 0) or the m-part (part 1) of
    [m_a, m_b], which is over the table's scale, and for a != b its negative
    to the same term of [m_b, m_a]: the corrupted table stays antisymmetric
    off the diagonal, as the table is built."""
    table = pair.table
    s = pair.h.dim
    k = index + s * part  # adapted index: h_i at i, m_t at s + t
    rows = list(table.rows)
    for x, y, d in ((a, b, delta), (b, a, -delta))[: 1 if a == b else 2]:
        terms = dict(rows[s + x].get(s + y, ()))
        terms[k] = terms.get(k, 0) + d
        row = {z: e for z, e in rows[s + x].items() if z != s + y}
        if any(terms.values()):
            row[s + y] = tuple(sorted((t, v) for t, v in terms.items() if v))
        rows[s + x] = row
    return pair.replace(table=table.replace(rows=tuple(rows)))


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
    # not in T, and an entry below the diagonal changes with its mirror above
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
    assert result["bianchi_cyclic_identity"] == dense_bianchi_holds(bad.table.rows, s, r)
    assert result["torsion_antisymmetric"] == stored_torsion_antisymmetric(bad.table, r)
