import random
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from reductive_workbench.affine import (
    UserAssertions,
    affine_algebra,
    fixed_torus,
    invariant_field_algebra,
    invariant_field_killing_check,
    isometry_report,
    transvection_algebra,
    transvection_equals_g_check,
)
from reductive_workbench import liealg, linalg
from reductive_workbench.catalog import CURATED_NAMES, catalog_names, construct
from reductive_workbench.errors import NotEffective, NotNormal
from reductive_workbench.liealg import (
    SubspaceBasis,
    TripleWitness,
    center,
    centralizer,
    killing_form,
    make_bilinear_form,
    make_lie_algebra,
)
from reductive_workbench.homspace import (
    isotropy_fixed_subspace,
    isotropy_irreducibility_probe,
    make_reductive_pair,
    normal_decomposition,
)

from reductive_workbench.report import run_report
from reductive_workbench.specfile import load_space_spec_file

from oracles import (
    bracket_basis,
    dense_ad_invariance,
    dense_affine_entries,
    dense_bracket,
    dense_invariant_field_entries,
    dense_kernel,
    dense_m_part,
    dense_nr_defect,
    dense_pairings,
    dense_project_m,
    dense_rref,
    nomizu_affine_dim,
)
from test_cli import _changed_basis
from test_homspace import (
    dense_spec_pair,
    diagonal_pair,
    heisenberg_center_pair,
    second_factor_pair,
    so4_mod_so2_pair,
    sphere_pair,
    trivial_isotropy_pair,
)
from test_liealg import (
    CYCLIC_SO3,
    abelian,
    cyclic_so3,
    heisenberg,
    so3_plus_so3,
    unit_subspace,
)

F = Fraction


def so3_trivial_pair():
    return trivial_isotropy_pair(cyclic_so3())


def abelian_pair():
    return trivial_isotropy_pair(abelian(2))


# --- transvection algebra -----------------------------------------------------


def test_transvection_examples():
    assert transvection_algebra(sphere_pair()) == SubspaceBasis.full(3)
    assert transvection_algebra(abelian_pair()) == SubspaceBasis.full(2)
    assert transvection_algebra(diagonal_pair()) == SubspaceBasis.full(6)


def partial_h_pair(rng=None):
    """so(3) + so(3) mod the u(1) of the first factor plus the second factor:
    [m, m]_h is that u(1) alone, a nonzero proper part of h. With a Random,
    the same pair in a dense unimodular basis."""
    L, h_rows = so3_plus_so3(), unit_subspace(6, [2, 3, 4, 5]).rows
    if rng is not None:
        entries, to_new = _changed_basis(L, rng)
        L, h_rows = make_lie_algebra(6, entries), [to_new(v) for v in h_rows]
    return normal_decomposition(L, SubspaceBasis.from_vectors(6, h_rows))


@pytest.mark.parametrize(
    "make",
    [sphere_pair, diagonal_pair, second_factor_pair, so4_mod_so2_pair, dense_spec_pair, partial_h_pair,
     lambda: partial_h_pair(random.Random(4))],
    ids=["sphere", "diagonal", "second_factor", "so4_mod_so2", "dense_so3so3", "partial_h", "dense_partial_h"],
)
def test_transvection_algebra_is_the_dense_span_of_m_and_its_brackets(make):
    # g at once when the h-parts reach rank dim h mod p, else m plus the rref
    # of their span, mapped through h
    pair = make()
    bracket = dense_bracket(pair.algebra)
    rows = [*pair.m.rows, *(bracket(x, y) for x in pair.m.rows for y in pair.m.rows)]
    expected = dense_rref(rows, pair.algebra.dim)
    assert [list(row) for row in transvection_algebra(pair).rows] == expected
    if make is partial_h_pair:
        assert len(expected) == 3


def test_transvection_equals_g_check():
    assert transvection_equals_g_check(sphere_pair()).equals_g
    assert transvection_equals_g_check(diagonal_pair()).equals_g
    res = transvection_equals_g_check(second_factor_pair())
    assert not res.equals_g
    assert res.transvection == unit_subspace(6, [0, 1, 2])
    assert res.complement == unit_subspace(6, [3, 4, 5])
    assert res.complement_in_h
    assert res.complement.dim > 0


def test_transvection_check_requires_normal():
    L = heisenberg()
    pair = make_reductive_pair(
        L,
        unit_subspace(3, [2]),
        unit_subspace(3, [0, 1]),
        make_bilinear_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    )
    with pytest.raises(NotNormal):
        transvection_equals_g_check(pair)


# --- invariant field algebra ----------------------------------------------------


def test_k_is_zero_for_sphere_pair():
    k = invariant_field_algebra(sphere_pair())
    assert k.dim == 0
    assert k.center.dim == 0
    assert k.status == "invariant-fields"


def test_k_of_group_presentation_is_so3():
    k = invariant_field_algebra(so3_trivial_pair())
    assert k.dim == 3
    assert k.center.dim == 0
    # -[.,.] on so(3) is anti-isomorphic, hence isomorphic, to so(3):
    # same Killing inertia
    assert killing_form(k.algebra).inertia == killing_form(cyclic_so3()).inertia == (0, 3, 0)


def test_k_of_so4_mod_so2_is_abelian_line():
    k = invariant_field_algebra(so4_mod_so2_pair())
    assert k.dim == 1
    assert k.carrier == unit_subspace(6, [5])
    assert k.center == k.carrier


def test_k_status_for_non_normal_pair():
    L = heisenberg()
    pair = make_reductive_pair(
        L,
        unit_subspace(3, [2]),
        unit_subspace(3, [0, 1]),
        make_bilinear_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    )
    k = invariant_field_algebra(pair)
    assert k.status == "upper-bound-candidate"
    assert k.dim == 2  # [h, m] = 0: everything is fixed


def test_k_bracket_table_closes_and_satisfies_jacobi():
    # the skipped-sweep test below sweeps k; this asserts the table values
    k = invariant_field_algebra(so3_trivial_pair())
    L = cyclic_so3()
    for a in range(3):
        for b in range(3):
            expected = tuple(-c for c in L.bracket_basis(a, b))
            assert k.algebra.bracket_basis(a, b) == expected


# --- Killing check ----------------------------------------------------------------


def test_invariant_fields_are_killing_on_normal_pairs():
    for make in (sphere_pair, diagonal_pair, second_factor_pair, so4_mod_so2_pair, so3_trivial_pair):
        assert invariant_field_killing_check(make()).ok


def test_killing_check_explicit_fixed_direction_in_so4():
    pair = so4_mod_so2_pair()
    res = invariant_field_killing_check(pair)
    assert res.ok
    # exhaustive re-check for X = E34 against all (Y, Z) pairs of m
    x = unit_subspace(6, [5]).rows[0]
    m_part = dense_m_part(pair.algebra, pair.h.rows, pair.m.rows)
    P = dense_pairings([m_part(x, y) for y in pair.m.rows], pair.m.rows, pair.metric.gram)
    for b in range(pair.m.dim):
        for c in range(pair.m.dim):
            assert P[b][c] + P[c][b] == 0


def reference_killing_witness(pair):
    """The full scan: each carrier row contracted with every entry of the
    dense naturally reductive defect of the oracle; the first nonzero one, or None."""
    table = dense_nr_defect(pair.algebra, pair.h.rows, pair.m.rows, pair.metric.gram)
    r = pair.m.dim
    for a, x in enumerate(isotropy_fixed_subspace(pair).rows):
        coords = pair.m.coords_of(x)
        for b in range(r):
            for c in range(r):
                defect = sum((coords[t] * table[t][b][c] for t in range(r)), F(0))
                if defect:
                    return TripleWitness((a, b, c), defect)
    return None


def so3so3_line_pair(weights):
    # h = the line of A3 in so(3) + so(3); the carrier is the second factor
    gram = [[F(weights[i]) if i == j else F(0) for j in range(6)] for i in range(6)]
    return make_reductive_pair(
        so3_plus_so3(), unit_subspace(6, [2]), unit_subspace(6, [0, 1, 3, 4, 5]),
        make_bilinear_form(gram),
    )


def test_killing_check_keeps_the_scan_when_the_defect_is_nonzero():
    # weights 1, 2, 3 on B1, B2, B3: <[B1, B2], B3> + <B2, [B1, B3]> = 3 - 2
    pair = so3so3_line_pair([1, 1, 1, 1, 2, 3])
    assert pair.table.nr_witness is not None
    res = invariant_field_killing_check(pair)
    assert not res.ok
    assert res.witness == reference_killing_witness(pair) == TripleWitness((0, 3, 4), F(1))
    for make in (sphere_pair, diagonal_pair, second_factor_pair, so4_mod_so2_pair, so3_trivial_pair):
        pair = make()
        assert pair.table.nr_witness is None and reference_killing_witness(pair) is None


# --- affine algebra -----------------------------------------------------------------


def test_affine_dims_for_group_presentation():
    aff = affine_algebra(so3_trivial_pair())
    assert aff.g1 == SubspaceBasis.full(3)
    assert aff.k.dim == 3
    assert aff.total_dim == 6
    assert aff.assembled.dim == 6


def test_affine_dims_for_diagonal_presentation():
    aff = affine_algebra(diagonal_pair())
    assert aff.g1.dim == 6
    assert aff.k.dim == 0
    assert aff.total_dim == 6


def test_affine_dims_for_so4_mod_so2():
    aff = affine_algebra(so4_mod_so2_pair())
    assert aff.g1.dim == 6
    assert aff.k.dim == 1
    assert aff.total_dim == 7


NORMAL_EFFECTIVE_CURATED = [
    name for name in CURATED_NAMES if construct(name).pair.flags.normal and construct(name).pair.flags.effective
]


@pytest.mark.parametrize("name", NORMAL_EFFECTIVE_CURATED)
def test_affine_dim_matches_the_nomizu_oracle(name):
    # Nomizu: r + dim{A in gl(m) : A.T = 0, A.R = 0}, from dense brackets; a
    # center z adds gl(z) beyond g1 + k (so3r1_mod_0: 8 = 7 + 1, r2_mod_0: 6 = 2 + 4)
    pair = construct(name).pair
    expected = nomizu_affine_dim(pair.algebra, pair.h.rows, pair.m.rows, linalg.kernel)
    assert affine_algebra(pair).total_dim + center(pair.algebra).dim ** 2 == expected


def test_affine_cross_brackets_vanish():
    aff = affine_algebra(so3_trivial_pair())
    A = aff.assembled
    zero = (F(0),) * 6
    for a in range(3):
        for b in range(3, 6):
            assert A.bracket_basis(a, b) == zero


def test_cross_presentation_agreement():
    # the two presentations of the same group manifold: equal affine dimension
    # and matching center / Killing invariants of the assembled algebras
    a1 = affine_algebra(so3_trivial_pair())
    a2 = affine_algebra(diagonal_pair())
    assert a1.total_dim == a2.total_dim == 6
    assert center(a1.assembled).dim == center(a2.assembled).dim == 0
    assert killing_form(a1.assembled).inertia == killing_form(a2.assembled).inertia == (0, 6, 0)


def _swept(L):
    """The validating constructor on the entries of L: it must accept them."""
    return make_lie_algebra(L.dim, L.entries, L.basis_labels)


def test_assembled_affine_algebra_passes_the_skipped_jacobi_sweep():
    # g, k and g1 + k are built without a Jacobi sweep, and transvection_algebra
    # and affine_algebra no longer re-check what the pair's flags imply: every
    # skipped check is made here, over the catalog and two family members
    names = catalog_names() + ("so8_mod_so7", "su4_mod_0")
    assembled = 0
    for name in names:
        entry = construct(name)
        L, pair = entry.algebra, entry.pair
        assert _swept(L) == L, name
        k = invariant_field_algebra(pair)
        assert _swept(k.algebra) == k.algebra, name
        # tr is an ideal: phi([e_i, w]) = 0 for each row w of tr and each
        # phi in the dense annihilator of tr
        tr = transvection_algebra(pair)
        bracket = dense_bracket(L)
        units = [[F(int(t == i)) for t in range(L.dim)] for i in range(L.dim)]
        for phi in dense_kernel(tr.rows, L.dim):
            for w in tr.rows:
                for e in units:
                    assert sum((p * v for p, v in zip(phi, bracket(e, w))), F(0)) == 0, name
        if not (pair.flags.normal and pair.flags.effective):
            continue
        aff = affine_algebra(pair)
        assert _swept(aff.assembled) == aff.assembled, name
        assembled += 1
        # the center of g injects into k through the m-projection
        images = [tuple(dense_project_m(pair.h.rows, pair.m.rows, z)) for z in center(L).rows]
        assert all(k.carrier.contains_vector(v) for v in images), name
        assert SubspaceBasis.from_vectors(L.dim, images).dim == len(images), name
        # no nonzero carrier vector inside g1 centralizes g1
        assert k.carrier.intersect(aff.g1).intersect(centralizer(L, aff.g1)).dim == 0, name
    assert assembled == len(names) - 1  # all but so3so3_mod_second_factor


def dense_so5_mod_so2_pair():
    # h = so(2) in so(5) in a unimodular basis: k = so(3), and m is not
    # spanned by unit vectors
    entry = construct("so5_mod_so2")
    entries, to_new = _changed_basis(entry.algebra, random.Random(52))
    L = make_lie_algebra(entry.algebra.dim, entries)
    return normal_decomposition(L, SubspaceBasis.from_vectors(L.dim, map(to_new, entry.h.rows)))


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda name=n: construct(name).pair, id=n) for n in catalog_names()]
    + [
        pytest.param(dense_spec_pair, id="so3so3_mod_diag_dense"),
        pytest.param(dense_so5_mod_so2_pair, id="so5_mod_so2_dense"),
        pytest.param(heisenberg_center_pair, id="heisenberg_center"),
    ],
)
def test_k_table_matches_the_dense_oracle(make):
    # k is read in m-coordinates at the pivots of m; the oracle brackets
    # ambient carrier rows and solves for the m-part and its carrier coordinates
    pair = make()
    k = invariant_field_algebra(pair)
    expected = dense_invariant_field_entries(pair.algebra, pair.h.rows, pair.m.rows, k.carrier.rows)
    assert list(k.algebra.entries) == expected
    assert all(type(c) is Fraction for *_, c in k.algebra.entries)


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda name=n: construct(name).pair, id=n) for n in catalog_names()]
    + [
        pytest.param(dense_spec_pair, id="so3so3_mod_diag_dense"),
        pytest.param(dense_so5_mod_so2_pair, id="so5_mod_so2_dense"),
    ],
)
def test_subspaces_wrapped_without_an_rref_are_their_own_rref(make):
    # m^h, the center of k and the catalog h are built from rows that are the
    # rref by construction and wrapped as they are; each must equal the rref
    # of its own rows
    pair = make()
    for sub in (isotropy_fixed_subspace(pair), invariant_field_algebra(pair).center, pair.h):
        assert sub == SubspaceBasis.from_vectors(sub.ambient_dim, sub.rows)


@pytest.mark.parametrize("name", ["su3_mod_su2", "so4so4_mod_diag", "so3r1_mod_0", "r2_mod_0"])
def test_assembled_entries_match_the_dense_oracle(name):
    # g1 = g on the first two, g with a center on the last two
    pair = construct(name).pair
    aff = affine_algebra(pair)
    g1, entries = dense_affine_entries(pair.algebra, aff.k.algebra)
    assert [list(row) for row in aff.g1.rows] == g1
    assert list(aff.assembled.entries) == entries
    assert aff.assembled.basis_labels == tuple(
        [f"g1_{a + 1}" for a in range(len(g1))] + [f"k{b + 1}" for b in range(aff.k.dim)]
    )


def test_each_structure_of_g_is_built_once_per_algebra(monkeypatch):
    built = defaultdict(list)  # builder name -> the algebras it was called on
    for name in ("_build_killing", "_build_center", "_build_derived", "_build_ideals"):
        original = getattr(liealg, name)

        def counting(L, name=name, original=original):
            built[name].append(L)
            return original(L)

        monkeypatch.setattr(liealg, name, counting)
    entry = construct.__wrapped__("so8_mod_so7")  # fresh: nothing cached on its algebra
    spec = load_space_spec_file(Path(__file__).parent / "data" / "so3so3_mod_diag_dense.json")
    for source in (entry, spec):
        run_report(source)
    for name, algebras in built.items():
        assert len({id(L) for L in algebras}) == len(algebras), name
    # g of both inputs had its Killing form, center and [g, g]; the custom
    # metric of the spec file split g into simple ideals
    g_of_spec = built["_build_ideals"]
    assert len(g_of_spec) == 1 and g_of_spec[0].dim == spec.dim
    for name in ("_build_killing", "_build_center", "_build_derived"):
        assert any(L is entry.algebra for L in built[name]), name
        assert any(L is g_of_spec[0] for L in built[name]), name


def test_only_a_spec_file_algebra_gets_a_jacobi_sweep(monkeypatch):
    # catalog algebras are matrix commutators and k is the opposite of
    # n_g(h)/h: only the g of a spec file is swept, once
    swept = []
    check = liealg._check_jacobi
    monkeypatch.setattr(liealg, "_check_jacobi", lambda L: swept.append(L.dim) or check(L))
    run_report(construct.__wrapped__("su4_mod_0"))
    assert swept == []
    spec = load_space_spec_file(Path(__file__).parent / "data" / "so3so3_mod_diag_dense.json")
    run_report(spec)
    assert swept == [spec.dim]


def test_invariance_is_checked_once_per_report_on_g(monkeypatch):
    # k is built with no metric check (see the test below): every binding of
    # ad_invariance_check is wrapped, as the traced benchmark wraps it
    calls = []
    check = liealg.ad_invariance_check
    for module in [m for key, m in sys.modules.items() if key.startswith("reductive_workbench")]:
        for key, value in list(vars(module).items()):
            if value is check:
                monkeypatch.setattr(module, key, lambda L, form: calls.append(L) or check(L, form))
    entry = construct.__wrapped__("su4_mod_0")  # fresh; k has g's dimension, so compare identity
    run_report(entry)
    assert len(calls) == 1 and calls[0] is entry.algebra
    calls.clear()
    spec = load_space_spec_file(Path(__file__).parent / "data" / "so3so3_mod_diag_dense.json")
    run_report(spec)
    assert [(L.dim, L.basis_labels) for L in calls] == [(spec.dim, tuple(spec.basis_labels))]


def test_the_metric_on_the_carrier_is_an_invariant_metric_on_k():
    # on a normal pair g's invariant metric restricts to a positive-definite
    # invariant form on k, which is therefore of compact type
    makes = [lambda name=n: construct(name).pair for n in catalog_names()]
    for make in makes + [dense_spec_pair, dense_so5_mod_so2_pair]:
        pair = make()
        assert pair.flags.normal
        k = invariant_field_algebra(pair)
        gram = dense_pairings(k.carrier.rows, k.carrier.rows, pair.metric.gram)
        assert make_bilinear_form(gram).definiteness == "positive-definite"
        assert dense_ad_invariance(k.dim, bracket_basis(k.algebra), gram) is None


def test_affine_center_injection_on_algebra_with_center():
    L = make_lie_algebra(4, CYCLIC_SO3)  # so(3) + R
    pair = normal_decomposition(L, SubspaceBasis.zero(4))
    aff = affine_algebra(pair)
    assert aff.g1 == unit_subspace(4, [0, 1, 2])
    assert aff.k.dim == 4
    assert aff.total_dim == 7
    assert aff.k.center.dim == 1


def test_affine_requires_normal_and_effective():
    with pytest.raises(NotEffective):
        affine_algebra(second_factor_pair())
    L = heisenberg()
    pair = make_reductive_pair(
        L,
        unit_subspace(3, [2]),
        unit_subspace(3, [0, 1]),
        make_bilinear_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    )
    with pytest.raises(NotNormal):
        affine_algebra(pair)


# --- fixed torus ----------------------------------------------------------------------


def test_torus_dimensions():
    assert fixed_torus(so4_mod_so2_pair()).dimension == 1
    assert fixed_torus(so3_trivial_pair()).dimension == 0
    assert fixed_torus(sphere_pair()).dimension == 0
    assert fixed_torus(second_factor_pair()).dimension == 0
    assert fixed_torus(abelian_pair()).dimension == 2


def test_torus_is_abelian_and_inside_carrier():
    for make in (so4_mod_so2_pair, so3_trivial_pair, abelian_pair):
        pair = make()
        res = fixed_torus(pair)
        k = invariant_field_algebra(pair)
        assert k.carrier.contains(res.basis)
        m_part = dense_m_part(pair.algebra, pair.h.rows, pair.m.rows)
        for u in res.basis.rows:
            for w in res.basis.rows:
                assert not any(m_part(u, w))


# --- isometry gate ----------------------------------------------------------------------


def gate(pair, assertions):
    """The isometry gate of an effective normal pair, on its own probe and affine algebra."""
    return isometry_report(pair, assertions, isotropy_irreducibility_probe(pair), affine_algebra(pair))


def test_isometry_report_gated_by_user_assertions():
    pair = so4_mod_so2_pair()
    unasserted = gate(pair, None)
    assert not unasserted.certified
    assert unasserted.group_dim == 7  # affine algebra still reported
    asserted = gate(pair, UserAssertions(locally_irreducible=True, is_sphere_or_rp=False))
    assert asserted.certified
    assert asserted.group_dim == 7
    assert asserted.semisimple is False  # k is a nonzero abelian line
    assert isotropy_irreducibility_probe(pair) == "reducible"


def test_isometry_report_sphere_gate_blocks():
    pair = sphere_pair()
    frag = gate(pair, UserAssertions(locally_irreducible=True, is_sphere_or_rp=True))
    assert not frag.certified
    assert any("sphere" in c for c in frag.caveats)


def test_isometry_report_probe_certifies_irreducible_case():
    from test_liealg import so_algebra

    pair = normal_decomposition(so_algebra(4), unit_subspace(6, [0, 1, 3]))
    frag = gate(pair, UserAssertions(is_sphere_or_rp=False))
    assert frag.certified  # probe alone certifies irreducibility
    assert frag.group_dim == 6
    assert frag.semisimple is True


def test_isometry_report_on_ineffective_pair():
    pair = second_factor_pair()
    assert not pair.flags.effective
    frag = isometry_report(pair, None, isotropy_irreducibility_probe(pair), None)
    assert not frag.certified
    assert frag.group_dim is None
    assert any("effective" in c for c in frag.caveats)

