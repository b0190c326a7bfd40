import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reductive_workbench.affine import (
    invariant_field_algebra,
    invariant_field_killing_check,
    transvection_algebra,
)
from reductive_workbench.catalog import CURATED_NAMES, construct
from reductive_workbench.connection import connection_tensors_at_basepoint
from reductive_workbench.errors import (
    InvalidDecomposition,
    InvalidMetricSpec,
    MetricNotAdInvariant,
    MetricNotPositiveDefinite,
    NotASubalgebra,
    NotNormal,
    NotReductive,
)
from reductive_workbench.homspace import (
    MetricSpec,
    build_metric,
    isotropy_fixed_subspace,
    isotropy_irreducibility_probe,
    make_reductive_pair,
    naturally_reductive_check,
    normal_decomposition,
    normalizer_invariance_check,
)
from reductive_workbench.liealg import (
    SubspaceBasis,
    TripleWitness,
    center,
    derived_subalgebra,
    killing_form,
    largest_ideal_in,
    make_bilinear_form,
    make_lie_algebra,
    simple_ideal_decomposition,
)
from reductive_workbench.specfile import load_space_spec_file
from reductive_workbench import homspace, linalg
from reductive_workbench.homspace import _adapted_table
from reductive_workbench.liealg import _table_bracket
from reductive_workbench.linalg import _integer_rows, identity, kernel, mat_inverse, matmul, rat, transpose

from oracles import (
    dense_block_metric,
    dense_bracket,
    dense_m_part,
    dense_normalizer,
    dense_project_m,
    dense_nr_defect,
    dense_pairings,
    fraction_matrix,
    probe_by_invariant_forms,
    unimodular,
)

from test_liealg import (
    CYCLIC_SO3,
    abelian,
    cyclic_so3,
    direct_sum_entries,
    heisenberg,
    so3_plus_so3,
    so_algebra,
    subspace_sum,
    unit_subspace,
)

F = Fraction
DATA = Path(__file__).parent / "data"


def sphere_pair():
    L = cyclic_so3()
    return normal_decomposition(L, unit_subspace(3, [2]))


def diagonal_pair():
    L = so3_plus_so3()
    diag = SubspaceBasis.from_vectors(
        6, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
    )
    return normal_decomposition(L, diag)


def second_factor_pair():
    L = so3_plus_so3()
    return normal_decomposition(L, unit_subspace(6, [3, 4, 5]))


def so4_mod_so2_pair():
    return normal_decomposition(so_algebra(4), unit_subspace(6, [0]))


def trivial_isotropy_pair(L):
    return normal_decomposition(L, SubspaceBasis.zero(L.dim))


# --- normal decomposition -----------------------------------------------------


def test_sphere_pair_decomposition_and_flags():
    pair = sphere_pair()
    assert pair.m == unit_subspace(3, [0, 1])
    f = pair.flags
    assert (f.normal, f.naturally_reductive, f.effective) == (True,) * 3


def test_diagonal_pair_is_antidiagonal_and_effective():
    pair = diagonal_pair()
    # orthocomplement of the diagonal: vectors (v, -v)
    assert pair.m == SubspaceBasis.from_vectors(
        6, [[1, 0, 0, -1, 0, 0], [0, 1, 0, 0, -1, 0], [0, 0, 1, 0, 0, -1]]
    )
    assert pair.flags.effective and pair.flags.normal


def test_second_factor_pair_is_not_effective():
    pair = second_factor_pair()
    assert pair.flags.normal
    assert not pair.flags.effective
    assert pair.m == unit_subspace(6, [0, 1, 2])


def hand_built_pair(L, h_indices, m_indices):
    # coordinate h and m under the identity metric, through the general constructor
    metric = make_bilinear_form(identity(L.dim))
    return make_reductive_pair(L, unit_subspace(L.dim, h_indices), unit_subspace(L.dim, m_indices), metric)


SL2 = make_lie_algebra(3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)], ["H", "E", "F"])


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda name=name: construct(name).pair, id=name)
     for name in (*CURATED_NAMES, "so8_mod_so7", "su8_mod_su7", "so8so8_mod_diag")]
    + [
        pytest.param(lambda: hand_built_pair(cyclic_so3(), [0, 1, 2], []), id="h_is_g"),
        pytest.param(lambda: hand_built_pair(abelian(2), [0], [1]), id="r2_abelian_ideal"),
        pytest.param(lambda: hand_built_pair(SL2, [0], [1, 2]), id="sl2_cartan"),
        pytest.param(lambda: hand_built_pair(so3_plus_so3(), [], range(6)), id="h_is_zero"),
    ],
)
def test_effective_flag_is_the_largest_ideal_test(make):
    # the flag reads the kernel of h -> gl(m) from the adapted table; the
    # coadjoint worklist of largest_ideal_in is the reference
    pair = make()
    assert pair.flags.effective == (largest_ideal_in(pair.algebra, pair.h).dim == 0)


def test_projections_identities():
    # a vector of m is read in adapted indices s + a at the pivots of m; the
    # adapted table's entries against the dense brackets are checked entrywise
    # in test_adapted_table_is_integer_over_its_two_scales
    for pair in (so4_mod_so2_pair(), diagonal_pair()):
        s = pair.h.dim
        for a, row in enumerate(pair.m.rows):
            assert pair.m_terms(row) == ((s + a, 1),)
        coords = tuple(F(a + 1, 3) for a in range(pair.m.dim))
        (combined,) = matmul([coords], pair.m.rows)
        assert pair.m_terms(combined) == tuple((s + a, c) for a, c in enumerate(coords))
        for e in identity(pair.algebra.dim):
            in_m = tuple(dense_project_m(pair.h.rows, pair.m.rows, e))
            read = dict(pair.m_terms(in_m))
            assert matmul([[read.get(s + a, 0) for a in range(pair.m.dim)]], pair.m.rows) == (in_m,)


def test_normal_decomposition_rejects_non_subalgebra():
    with pytest.raises(NotASubalgebra):
        normal_decomposition(so_algebra(4), unit_subspace(6, [0, 1]))


def test_normal_decomposition_rejects_bad_explicit_metrics():
    L = cyclic_so3()
    with pytest.raises(MetricNotAdInvariant):
        normal_decomposition(L, unit_subspace(3, [2]), make_bilinear_form([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    with pytest.raises(MetricNotAdInvariant) as exc:
        normal_decomposition(L, unit_subspace(3, [2]), make_bilinear_form([[1, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]]))
    assert str(exc.value) == "witness (0, 1, 2), defect -1/2"  # the rational as p/q, not its repr
    with pytest.raises(MetricNotPositiveDefinite):
        normal_decomposition(L, unit_subspace(3, [2]), make_bilinear_form([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def so3_pair(m_rows):
    # so(3) with h = span(L3) and the identity metric, m as given
    m = SubspaceBasis.from_vectors(3, m_rows)
    metric = make_bilinear_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return make_reductive_pair(cyclic_so3(), unit_subspace(3, [2]), m, metric)


def test_make_reductive_pair_refuses_an_m_that_h_moves_out():
    # m = span(L1, L2 + L3): [L3, L1] = L2 = (L2 + L3) - L3 leaves m, so the
    # constructor refuses at h_0 = L3 and m_0 = L1, 0-based like every witness
    with pytest.raises(NotReductive) as exc:
        so3_pair([[1, 0, 0], [0, 1, 1]])
    assert str(exc.value) == "[h_0, m_0] leaves m: witness (0, 0)"


@pytest.mark.parametrize(
    "check",
    [
        naturally_reductive_check,
        normalizer_invariance_check,
        isotropy_fixed_subspace,
        isotropy_irreducibility_probe,
        transvection_algebra,
        invariant_field_algebra,
        invariant_field_killing_check,
        connection_tensors_at_basepoint,
    ],
)
def test_guarded_entry_points_refuse_a_non_reductive_pair(check):
    # the guard of each entry point is the constructor: the non-reductive
    # m = span(L1, L2 + L3) is refused before the entry point is reached, and
    # the reductive m = span(L1, L2) goes through it on its adapted table
    ran = []
    with pytest.raises(NotReductive, match=r"witness \(0, 0\)$"):
        ran.append(check(so3_pair([[1, 0, 0], [0, 1, 1]])))
    assert ran == []
    pair = so3_pair([[1, 0, 0], [0, 1, 0]])
    assert pair.table is not None
    check(pair)


def test_normal_decomposition_builds_no_table_for_a_non_invariant_metric(monkeypatch):
    # the invariance check runs once, before m is formed, and no adapted
    # table is built for the refused metric
    L = cyclic_so3()
    built, checked = [], []
    monkeypatch.setattr(homspace, "_adapted_table", lambda *args: built.append(args) or _adapted_table(*args))
    real_check = homspace.ad_invariance_check
    monkeypatch.setattr(homspace, "ad_invariance_check", lambda *args: checked.append(args) or real_check(*args))
    with pytest.raises(MetricNotAdInvariant):
        normal_decomposition(L, unit_subspace(3, [2]), make_bilinear_form([[1, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]]))
    assert built == [] and len(checked) == 1
    normal_decomposition(L, unit_subspace(3, [2]))
    assert len(built) == 1 and len(checked) == 2


@pytest.mark.parametrize("m_rows", [[[1, 0, 0]], [[1, 0, 0], [0, 0, 1]]], ids=["short_m", "m_meets_h"])
def test_make_reductive_pair_refuses_an_invalid_decomposition(m_rows):
    with pytest.raises(InvalidDecomposition):
        so3_pair(m_rows)


def test_build_metric_rejects_noncompact():
    sl2 = make_lie_algebra(3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)])
    with pytest.raises(MetricNotPositiveDefinite):
        build_metric(sl2, MetricSpec())


def test_metric_spec_validation():
    L = so3_plus_so3()
    with pytest.raises(InvalidMetricSpec):
        build_metric(L, MetricSpec.custom(scale_factors=[1]))  # two ideals
    with pytest.raises(MetricNotPositiveDefinite):
        build_metric(L, MetricSpec.custom(scale_factors=[1, -1]))
    with pytest.raises(InvalidMetricSpec):
        build_metric(L, MetricSpec.custom(center_gram=[[1]]))  # centerless


def test_center_gram_metric_on_so3_plus_r():
    L = make_lie_algebra(4, CYCLIC_SO3)
    form = build_metric(L, MetricSpec.custom(center_gram=[[3]]))
    assert form.gram == fraction_matrix([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    pair = normal_decomposition(L, SubspaceBasis.zero(4), MetricSpec.custom(center_gram=[[3]]))
    assert pair.flags.normal and pair.flags.naturally_reductive


def _dense_spec_recipe():
    from reductive_workbench.specfile import load_space_spec_file

    spec = load_space_spec_file(str(Path(__file__).parent / "data" / "so3so3_mod_diag_dense.json"))
    return make_lie_algebra(spec.dim, spec.bracket_entries), spec.metric_spec


def _catalog_recipe(name, spec):
    from reductive_workbench.catalog import construct

    return lambda: (construct(name).algebra, spec)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(_catalog_recipe("so3r1_mod_0", MetricSpec.custom(center_gram=[[3]])), id="so3r1_gram"),
        pytest.param(
            _catalog_recipe("so3r1_mod_0", MetricSpec.custom(scale_factors=[2], center_gram=[[5]])),
            id="so3r1_scaled_gram",
        ),
        pytest.param(_catalog_recipe("r2_mod_0", MetricSpec.custom(center_gram=[[2, 1], [1, 1]])), id="r2_gram"),
        pytest.param(_catalog_recipe("so4_mod_0", MetricSpec.custom(scale_factors=[1, 2])), id="so4_1_2"),
        pytest.param(_catalog_recipe("so4_mod_0", MetricSpec.custom(scale_factors=[3, 3])), id="so4_3_3"),
        pytest.param(
            _catalog_recipe("so4so4_mod_diag", MetricSpec.custom(scale_factors=[1, 2, "1/3", 1])),
            id="so4so4_scaled",
        ),
        pytest.param(_catalog_recipe("su3_mod_su2", MetricSpec()), id="su3_default"),
        pytest.param(_dense_spec_recipe, id="so3so3_dense_file"),
    ],
)
def test_build_metric_matches_the_block_recipe(make):
    # -B plus the center Gram and the rescaled ideals against the recipe itself:
    # R^T blockdiag(center gram, -s_a B|I_a) R along z + the blocks
    L, spec = make()
    z = center(L)
    if spec.scale_factors is None:
        blocks, scales = [derived_subalgebra(L).rows], [F(1)]
    else:
        blocks, scales = [ideal.rows for ideal in simple_ideal_decomposition(L)[1]], spec.scale_factors
    cg = spec.center_gram if spec.center_gram is not None else fraction_matrix(
        [[int(i == j) for j in range(z.dim)] for i in range(z.dim)]
    )
    expected = dense_block_metric(L, z.rows, blocks, scales, cg)
    assert [list(row) for row in build_metric(L, spec).gram] == expected


def test_normal_decomposition_forms_one_coordinate_map(monkeypatch):
    # the default recipe on a centerless algebra is -B itself: only the pair's
    # coordinates along h + m take an inverse
    from reductive_workbench import homspace
    from reductive_workbench.catalog import construct

    entry = construct("so8_mod_so7")
    calls = []

    def counting_inverse(A):
        calls.append(len(A))
        return mat_inverse(A)

    monkeypatch.setattr(homspace, "mat_inverse", counting_inverse)
    pair = normal_decomposition(entry.algebra, entry.h)
    assert calls == [entry.algebra.dim]
    assert pair.flags.normal


def test_reductive_pair_with_m_not_orthogonal_to_h_is_not_normal():
    # so(3) + R with h = R central and m = span(e1, e2, e3 + z): [h, m] = 0, the
    # metric -B + identity is invariant and positive-definite, but <z, e3 + z> = 1
    L = make_lie_algebra(4, CYCLIC_SO3)
    m = SubspaceBasis.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    pair = make_reductive_pair(L, unit_subspace(4, [3]), m, build_metric(L, MetricSpec()))
    assert not pair.flags.normal


@settings(max_examples=15, deadline=None)
@given(
    st.fractions(min_value="1/3", max_value=4, max_denominator=5),
    st.fractions(min_value="1/3", max_value=4, max_denominator=5),
)
def test_scaled_metrics_keep_normal_pairs_naturally_reductive(s1, s2):
    L = so3_plus_so3()
    diag = SubspaceBasis.from_vectors(
        6, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
    )
    pair = normal_decomposition(L, diag, MetricSpec.custom(scale_factors=[s1, s2]))
    assert pair.flags.normal and pair.flags.naturally_reductive
    assert naturally_reductive_check(pair).ok


# --- naturally reductive check -------------------------------------------------


def test_normal_pairs_pass_naturally_reductive_check():
    for pair in (sphere_pair(), diagonal_pair(), second_factor_pair(), so4_mod_so2_pair()):
        assert naturally_reductive_check(pair).ok


def test_coupled_metric_breaks_natural_reductivity():
    # so(3) + R^2 with h = 0 and a positive-definite Gram coupling the so(3)
    # block to the abelian block; brute-force search over couplings finds a
    # violation, and the first lexicographic witness is pinned.
    L = make_lie_algebra(5, CYCLIC_SO3)
    h = SubspaceBasis.zero(5)
    m = SubspaceBasis.full(5)
    found = None
    for i in range(3):
        for j in range(3, 5):
            gram = [[F(0)] * 5 for _ in range(5)]
            for d in range(3):
                gram[d][d] = F(2)
            for d in range(3, 5):
                gram[d][d] = F(1)
            gram[i][j] = gram[j][i] = F(1, 2)
            form = make_bilinear_form(gram)
            if form.definiteness != "positive-definite":
                continue
            pair = make_reductive_pair(L, h, m, form)
            res = naturally_reductive_check(pair)
            if not res.ok:
                found = (i, j, res)
                break
        if found:
            break
    assert found is not None
    i, j, res = found
    assert (i, j) == (0, 3)
    assert res.witness.indices == (1, 2, 3)
    assert res.witness.defect == F(1, 2)


def test_killing_check_fails_with_the_naturally_reductive_witness():
    # The pinned coupling above: h = 0, so every direction of m is fixed and
    # the Killing defect is the naturally reductive defect itself.
    L = make_lie_algebra(5, CYCLIC_SO3)
    gram = [[F(0)] * 5 for _ in range(5)]
    for d in range(5):
        gram[d][d] = F(2) if d < 3 else F(1)
    gram[0][3] = gram[3][0] = F(1, 2)
    pair = make_reductive_pair(
        L, SubspaceBasis.zero(5), SubspaceBasis.full(5), make_bilinear_form(gram)
    )
    nr = naturally_reductive_check(pair)
    killing = invariant_field_killing_check(pair)
    assert not nr.ok and not killing.ok
    assert killing.witness == nr.witness
    assert killing.witness.indices == (1, 2, 3)
    assert killing.witness.defect == F(1, 2)


def file_pair(path):
    from reductive_workbench.specfile import load_space_spec_file

    spec = load_space_spec_file(path)
    L = make_lie_algebra(spec.dim, spec.bracket_entries, spec.basis_labels)
    h = SubspaceBasis.from_vectors(spec.dim, spec.subalgebra_rows)
    return normal_decomposition(L, h, spec.metric_spec)


def dense_spec_pair():
    return file_pair(DATA / "so3so3_mod_diag_dense.json")


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda name=name: construct(name).pair, id=name) for name in CURATED_NAMES]
    + [pytest.param(dense_spec_pair, id="so3so3_mod_diag_dense")],
)
def test_adapted_table_is_integer_over_its_two_scales(make):
    # the stored terms are ints; over `scale` they are the oracle's brackets,
    # m-part and h-part as the remainder, read entrywise in adapted indices
    # (h_i at i, m_a at s + a), and over `gram_scale` the metric on m
    pair = make()
    table, s, r = pair.table, pair.h.dim, pair.m.dim
    assert len(table.rows) == s + r
    assert all(s <= z < s + r for row in table.rows for z in row)
    terms = [x for row in table.rows for entry in row.values() for x in entry]
    terms += [x for row in table.gram for x in row]
    assert all(type(t) is int and type(v) is int for t, v in terms)

    def parts(x, b):  # the h- and m-terms of the stored [e_x, m_b], divided
        entry = table.rows[x].get(s + b, ())
        return ([(t, F(v, table.scale)) for t, v in entry if t < s],
                [(t - s, F(v, table.scale)) for t, v in entry if t >= s])

    bracket = dense_bracket(pair.algebra)
    m_part = dense_m_part(pair.algebra, pair.h.rows, pair.m.rows)

    def combine(terms, rows):  # sum c rows[t] over the (t, c) terms, in ambient coordinates
        coords = dict(terms)
        (vector,) = matmul([[coords.get(t, 0) for t in range(len(rows))]], rows)
        return list(vector) or [0] * pair.algebra.dim

    for a, x in enumerate(pair.m.rows):
        for b, y in enumerate(pair.m.rows):
            in_h, in_m = parts(s + a, b)
            expected = m_part(x, y)
            assert combine(in_m, pair.m.rows) == expected
            h_part = [u - v for u, v in zip(bracket(x, y), expected)]
            assert combine(in_h, pair.h.rows) == h_part
    for i, u in enumerate(pair.h.rows):
        for b, y in enumerate(pair.m.rows):
            in_h, in_m = parts(i, b)
            assert in_h == []
            assert combine(in_m, pair.m.rows) == bracket(u, y)
    gram = [[F(dict(row).get(c, 0), table.gram_scale) for c in range(r)] for row in table.gram]
    assert gram == dense_pairings(pair.m.rows, pair.m.rows, pair.metric.gram)


def dense_trivial_isotropy_pair():
    # the dense file's algebra with h = 0 under its custom metric
    from reductive_workbench.specfile import load_space_spec_file

    spec = load_space_spec_file(Path(__file__).parent / "data" / "so3so3_mod_diag_dense.json")
    L = make_lie_algebra(spec.dim, spec.bracket_entries, spec.basis_labels)
    return normal_decomposition(L, SubspaceBasis.zero(spec.dim), spec.metric_spec)


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda name=name: construct(name).pair, id=name)
     for name in ("so3_mod_0", "so4_mod_0", "so3r1_mod_0", "r2_mod_0")]
    + [pytest.param(dense_trivial_isotropy_pair, id="so3so3_dense_mod_0")],
)
def test_trivial_isotropy_table_is_the_algebra_table(make):
    # with h = 0 the adapted basis is g's own (m = g in rref), so the adapted
    # table and g's integer table share one layout and differ by one factor
    pair = make()
    assert pair.h.dim == 0
    scale, rows = pair.algebra._integer_table
    factor = pair.table.scale // scale
    assert factor * scale == pair.table.scale
    assert pair.table.rows == tuple(
        {j: tuple((k, factor * c) for k, c in terms) for j, terms in row.items()} for row in rows
    )


def table_bracket_adapted_rows(L, h_rows, m_rows):
    """(scale, rows) of the adapted table as every [basis[x], m_b] is
    bracketed pair by pair with `_table_bracket` over g's integer table, or
    None when some [h_i, m_b] has an h-part: the table before each basis row
    formed its own row once."""
    s, r = len(h_rows), len(m_rows)
    basis = tuple(h_rows) + tuple(m_rows)
    C, coords = _integer_rows(transpose(mat_inverse(transpose(basis))))
    D, g_rows = L._integer_table
    E, scaled = _integer_rows(basis)

    def split(x, b):
        out = {}
        for k, v in _table_bracket(g_rows, scaled[x], scaled[s + b]).items():
            for t, y in coords[k]:
                out[t] = out.get(t, 0) + v * y
        return tuple(sorted(tv for tv in out.items() if tv[1]))

    rows = [{} for _ in range(s + r)]
    for x in range(s + r):
        for b in range(x - s + 1 if x >= s else 0, r):
            if terms := split(x, b):
                if x < s and terms[0][0] < s:
                    return None
                rows[x][s + b] = terms
                if x >= s:
                    rows[s + b][x] = tuple((t, -v) for t, v in terms)
    return C * D * E * E, tuple(rows)


def assert_adapted_table_matches_table_brackets(L, h_rows, m_rows):
    # the rows need not be echelon: the table reads them as they are given
    h = SubspaceBasis(L.dim, tuple(map(tuple, h_rows)), ())
    m = SubspaceBasis(L.dim, tuple(map(tuple, m_rows)), ())
    expected = table_bracket_adapted_rows(L, h.rows, m.rows)
    if expected is None:
        with pytest.raises(NotReductive):
            _adapted_table(L, h, m, identity(len(m_rows)))
    else:
        table = _adapted_table(L, h, m, identity(len(m_rows)))
        assert (table.scale, table.rows) == expected


@pytest.mark.parametrize("name", ["so4_mod_so2", "su3_mod_su2", "so3so3_mod_diag", "so4_mod_0"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_adapted_table_matches_pairwise_table_brackets_on_random_rows(name, data):
    # h and m from the rows of a random integer basis (rational after a
    # scaling of each row), so the table is dense; with s = 0 no h-part can
    # end the build early, and for s > 0 [h, m] mostly leaves m
    L = construct(name).algebra
    n = L.dim
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    P, _ = unimodular(n, rng)
    scales = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    rows = [[x / d for x in row] for d, row in zip(scales, P)]
    s = data.draw(st.integers(0, 2))
    assert_adapted_table_matches_table_brackets(L, rows[:s], rows[s:])


@pytest.mark.parametrize("path", sorted(DATA.glob("*_dense.json")), ids=lambda p: p.stem)
def test_adapted_table_matches_pairwise_table_brackets_on_dense_files(path):
    pair = file_pair(path)
    assert_adapted_table_matches_table_brackets(pair.algebra, pair.h.rows, pair.m.rows)


@pytest.mark.parametrize("name", ["so4_mod_so2", "su3_mod_su2", "so3_mod_0"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_structure_table_defect_matches_the_dense_reference(name, data):
    # the normal pair's m under the Killing metric plus symmetric perturbations
    from reductive_workbench.catalog import construct

    entry = construct(name)
    L, n = entry.algebra, entry.algebra.dim
    gram = [[-x for x in row] for row in killing_form(L).gram]
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 3))):
        p, q = data.draw(index), data.draw(index)
        delta = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        gram[p][q] += delta
        if p != q:
            gram[q][p] += delta
    pair = make_reductive_pair(L, entry.h, entry.pair.m, make_bilinear_form(gram))
    expected = dense_nr_defect(L, pair.h.rows, pair.m.rows, pair.metric.gram)
    first = next(
        ((a, b, c) for a in range(len(expected)) for b in range(len(expected))
         for c in range(len(expected)) if expected[a][b][c]),
        None,
    )
    if first is None:
        assert pair.table.nr_witness is None
    else:
        a, b, c = first
        assert pair.table.nr_witness == TripleWitness(first, expected[a][b][c])


def test_abelian_pair_trivially_naturally_reductive():
    pair = trivial_isotropy_pair(abelian(2))
    assert naturally_reductive_check(pair).ok


# --- normalizer invariance ------------------------------------------------------


def test_normalizer_of_cartan_line_in_so3():
    pair = sphere_pair()
    assert normalizer_invariance_check(pair).ok
    assert subspace_sum(pair.h, isotropy_fixed_subspace(pair)) == unit_subspace(3, [2])


def test_normalizer_invariance_on_normal_pairs():
    for pair in (diagonal_pair(), second_factor_pair(), so4_mod_so2_pair()):
        assert normalizer_invariance_check(pair).ok


def test_normalizer_check_brackets_nothing_when_h_is_zero(monkeypatch):
    # with h = 0 no bracket has an h-part, so the check is decided unread
    pair = trivial_isotropy_pair(so3_plus_so3())
    calls = []
    monkeypatch.setattr(homspace, "_table_bracket", lambda *args: calls.append(args) or _table_bracket(*args))
    result = normalizer_invariance_check(pair)
    assert result.ok and result.witness is None
    assert calls == []


def test_normalizer_moves_complement_in_heisenberg_pair():
    pair = heisenberg_center_pair()
    assert pair.flags.naturally_reductive
    assert not pair.flags.normal
    res = normalizer_invariance_check(pair)
    assert not res.ok
    assert subspace_sum(pair.h, isotropy_fixed_subspace(pair)) == SubspaceBasis.full(3)
    assert res.witness.indices[:2] == (0, 1)  # row 0 of m^h is x, and [x, y] = z leaves m


def heisenberg_center_pair():
    # naturally reductive but non-normal: h = center, m = span(x, y)
    return make_reductive_pair(
        heisenberg(),
        unit_subspace(3, [2]),
        unit_subspace(3, [0, 1]),
        make_bilinear_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    )


def catalog_pair(name):
    from reductive_workbench.catalog import construct

    return lambda: construct(name).pair


@pytest.mark.parametrize(
    "make",
    [heisenberg_center_pair]
    + [catalog_pair(n) for n in ("so4_mod_so2", "su3_mod_su2", "so5_mod_so2", "so3so3_mod_second_factor", "so3_mod_0")],
)
def test_normalizer_matches_the_dense_oracle(make):
    # the check reads the normalizer as h + m^h; the oracle solves [X, h] in h
    pair = make()
    expected = dense_normalizer(pair.algebra, pair.h.rows)
    assert [list(row) for row in subspace_sum(pair.h, isotropy_fixed_subspace(pair)).rows] == expected


# --- isotropy fixed subspace -----------------------------------------------------


def test_fixed_subspace_examples():
    assert isotropy_fixed_subspace(sphere_pair()).dim == 0
    pair = trivial_isotropy_pair(cyclic_so3())
    assert isotropy_fixed_subspace(pair) == pair.m
    assert isotropy_fixed_subspace(so4_mod_so2_pair()) == unit_subspace(6, [5])


def test_fixed_subspace_is_bracket_closed_in_m():
    for pair in (sphere_pair(), diagonal_pair(), so4_mod_so2_pair(), second_factor_pair()):
        fixed = isotropy_fixed_subspace(pair)
        m_part = dense_m_part(pair.algebra, pair.h.rows, pair.m.rows)
        assert pair.m.contains(fixed)
        for u in fixed.rows:
            for r in pair.h.rows:
                assert pair.algebra.bracket(r, u) == (rat(0),) * pair.algebra.dim
            for w in fixed.rows:
                assert fixed.contains_vector(tuple(m_part(u, w)))


# --- irreducibility probe ---------------------------------------------------------


def test_probe_sphere_pair_never_reports_reducible():
    # h = so(2) rotates m = R^2: irreducible over R, though not over C
    assert isotropy_irreducibility_probe(sphere_pair()) == "irreducible"


def test_probe_so4_mod_so2_reducible_via_fixed_line():
    assert isotropy_irreducibility_probe(so4_mod_so2_pair()) == "reducible"


def test_probe_trivial_isotropy_reducible():
    assert isotropy_irreducibility_probe(trivial_isotropy_pair(cyclic_so3())) == "reducible"


@pytest.mark.parametrize("make", [cyclic_so3, so3_plus_so3, lambda: abelian(2)])
def test_probe_trivial_action_takes_the_first_line_of_m(make):
    # m^h = m with dim m >= 2: the line of m_1 is fixed, so invariant and proper
    pair = trivial_isotropy_pair(make())
    assert isotropy_fixed_subspace(pair).contains_vector(pair.m.rows[0])
    assert isotropy_irreducibility_probe(pair) == "reducible"


def test_probe_round_sphere_s3_irreducible():
    pair = normal_decomposition(so_algebra(4), unit_subspace(6, [0, 1, 3]))
    assert isotropy_irreducibility_probe(pair) == "irreducible"


def so3_cubed_mod_diag_pair():
    # m is two copies of the adjoint representation of the diagonal so(3)
    L = make_lie_algebra(9, direct_sum_entries(direct_sum_entries(CYCLIC_SO3, 3, CYCLIC_SO3), 6, CYCLIC_SO3))
    diag = SubspaceBasis.from_vectors(9, [[1 if k % 3 == a else 0 for k in range(9)] for a in range(3)])
    return normal_decomposition(L, diag)


def catalog_algebra_pair(name, h_indices):
    def make():
        L = construct(name).algebra
        return normal_decomposition(L, unit_subspace(L.dim, h_indices))

    return make


PROBE_KNOWN_ANSWERS = [
    # h at positions in the catalog bases: so(5) E12, E34, E35, E45; su(3) A12, S12, D1, D2
    pytest.param(catalog_algebra_pair("so5_mod_0", [0, 7, 8, 9]), "irreducible", id="gr2_r5"),
    pytest.param(catalog_algebra_pair("su3_mod_0", [0, 3, 6, 7]), "irreducible", id="cp2"),
    pytest.param(catalog_algebra_pair("su3_mod_0", [0, 1, 2]), "irreducible", id="su3_mod_so3"),
    pytest.param(lambda: trivial_isotropy_pair(abelian(1)), "irreducible", id="abelian_line"),
    pytest.param(catalog_algebra_pair("so3_mod_0", [0, 1, 2]), "irreducible", id="m_zero"),
    pytest.param(catalog_algebra_pair("su3_mod_0", [6, 7]), "reducible", id="su3_mod_torus"),
    pytest.param(catalog_algebra_pair("so4_mod_0", [0, 5]), "reducible", id="so4_mod_so2so2"),
    pytest.param(so3_cubed_mod_diag_pair, "reducible", id="so3_cubed_mod_diag"),
]


@pytest.mark.parametrize("make, verdict", PROBE_KNOWN_ANSWERS)
def test_probe_known_answers_over_r(make, verdict):
    # Gr2(R^5) and CP^2 are isotropy irreducible of complex type: their
    # commutant is C, yet the only invariant symmetric form is the metric
    pair = make()
    assert isotropy_irreducibility_probe(pair) == verdict


def spec_file_pair(name):
    spec = load_space_spec_file(DATA / name)
    L = make_lie_algebra(spec.dim, spec.bracket_entries, spec.basis_labels)
    return normal_decomposition(L, SubspaceBasis.from_vectors(spec.dim, spec.subalgebra_rows), spec.metric_spec)


def assert_probe_keeps_the_old_rule(pair):
    # the old rule: the invariant forms are one line; the probe: with Q[0][0] = 0
    # prepended, the system has full rank
    old = probe_by_invariant_forms(pair.algebra, pair.h.rows, pair.m.rows, kernel)
    assert isotropy_irreducibility_probe(pair) == old


@pytest.mark.parametrize("name", CURATED_NAMES + ("so8_mod_so7", "su8_mod_su7", "so8so8_mod_diag"))
def test_probe_keeps_the_old_rule_on_every_catalog_entry(name):
    assert_probe_keeps_the_old_rule(construct(name).pair)


@pytest.mark.parametrize("make, verdict", PROBE_KNOWN_ANSWERS)
def test_probe_keeps_the_old_rule_on_the_known_answers(make, verdict):
    assert_probe_keeps_the_old_rule(make())


@pytest.mark.parametrize("name", ["so3so3_mod_diag_dense.json", "so4_mod_so2_dense.json"])
def test_probe_keeps_the_old_rule_on_the_dense_golden_inputs(name):
    assert_probe_keeps_the_old_rule(spec_file_pair(name))


def test_probe_certifies_irreducible_by_full_rank_without_a_lift(monkeypatch):
    pair = construct("so8_mod_so7").pair
    assert isotropy_fixed_subspace(pair).dim == 0  # cached before the spy
    lifts = []
    real = linalg._lifted_null_vectors
    monkeypatch.setattr(linalg, "_lifted_null_vectors", lambda *args: lifts.append(args) or real(*args))
    assert isotropy_irreducibility_probe(pair) == "irreducible"
    assert lifts == []
    # two adjoint copies of so(3): m^h = 0, so the system decides, and the
    # forms pairing the copies are a second line
    pair = so3_cubed_mod_diag_pair()
    assert isotropy_fixed_subspace(pair).dim == 0
    assert isotropy_irreducibility_probe(pair) == "reducible"


def test_probe_refuses_a_reductive_pair_that_is_not_normal():
    # sl(2) with h = span(H) and m = span(E, F): [h, m] lies in m, but the
    # identity metric is not invariant, so no rule over R applies
    pair = hand_built_pair(SL2, [0], [1, 2])
    assert not pair.flags.normal
    with pytest.raises(NotNormal):
        isotropy_irreducibility_probe(pair)
