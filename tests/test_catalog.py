import importlib.util
from pathlib import Path

import pytest

from reductive_workbench import catalog
from reductive_workbench.affine import (
    affine_algebra,
    fixed_torus,
    invariant_field_algebra,
    transvection_algebra,
    transvection_equals_g_check,
)
from reductive_workbench.catalog import (
    CURATED_NAMES,
    catalog_names,
    _block_indices,
    _build_so,
    _build_su,
    _direct_sum,
    construct,
)
from reductive_workbench.errors import ParamOutOfRange, UnknownName
from reductive_workbench.homspace import (
    isotropy_irreducibility_probe,
    normalizer_invariance_check,
    naturally_reductive_check,
)
from reductive_workbench.liealg import is_subalgebra, killing_form
from reductive_workbench.report import run_report

from oracles import commutator, express_in_basis
from test_liealg import so_algebra


@pytest.fixture(params=CURATED_NAMES)
def entry(request):
    return construct(request.param)



def test_reports_never_read_the_frozen_expectations(monkeypatch):
    # the expectations are packaged data for tests and the survey script:
    # building and analyzing an entry never loads them
    def unreadable():
        raise AssertionError("the report path read the catalog expectations")

    monkeypatch.setattr(catalog, "_expected_table", unreadable)
    report = run_report(construct.__wrapped__("so6_mod_so5"))
    assert report.body["input"] == "catalog:so6_mod_so5"

def test_every_entry_is_valid_and_embedded(entry):
    # Jacobi holds for matrix commutators (test_affine sweeps g); embeddings must be subalgebras
    assert is_subalgebra(entry.algebra, entry.h).ok
    assert entry.expected, f"no frozen expectations for {entry.name}"


def test_every_entry_matches_expected_dims(entry):
    pair = entry.pair
    exp = entry.expected["dims"]
    k = invariant_field_algebra(pair)
    assert pair.algebra.dim == exp["g"]
    assert pair.h.dim == exp["h"]
    assert pair.m.dim == exp["m"]
    assert entry.fixed_subspace.dim == exp["m_fixed"]
    assert k.dim == exp["k"]
    assert k.center.dim == exp["k_center"]
    assert transvection_algebra(pair).dim == exp["transvection"]
    if exp["affine"] is None:
        assert not pair.flags.effective
    else:
        aff = affine_algebra(pair)
        assert aff.total_dim == exp["affine"]
        assert aff.assembled.dim == exp["affine"]


def test_every_entry_matches_expected_flags(entry):
    pair = entry.pair
    exp = entry.expected["flags"]
    assert exp["reductive"]  # every built pair is reductive by construction
    assert pair.flags.normal == exp["normal"]
    assert pair.flags.naturally_reductive == exp["naturally_reductive"]
    assert pair.flags.effective == exp["effective"]
    assert naturally_reductive_check(pair).ok == exp["naturally_reductive"]
    assert normalizer_invariance_check(pair).ok == exp["normalizer_invariant"]
    assert transvection_equals_g_check(pair).equals_g == exp["transvection_equals_g"]


def test_every_entry_matches_expected_probe_and_torus(entry):
    pair = entry.pair
    assert isotropy_irreducibility_probe(pair) == entry.expected["probe"]
    assert fixed_torus(pair).dimension == entry.expected["torus_dim"]


def test_killing_form_closed_trace_forms():
    # engine ad-traces vs the closed forms the oracle uses: so(n) gives
    # -2(n-2) per E_ij, su(n) realified gives the 2n tr(XY) values
    for n in (3, 4, 5):
        L = construct(f"so{n}_mod_0" if n != 5 else "so5_mod_so4").algebra
        B = killing_form(L)
        assert all(B.gram[i][i] == -2 * (n - 2) for i in range(L.dim))
    su3 = construct("su3_mod_su2").algebra
    B = killing_form(su3)
    # A_ij: tr(A^2) = -2 -> B = -12; S_ij likewise; D_k: tr(D^2) = -2 -> -12
    assert B.gram[0][0] == -12 and B.gram[3][3] == -12 and B.gram[6][6] == -12
    assert B.definiteness == "negative-definite"


def _catalog_oracle():
    path = Path(__file__).resolve().parent.parent / "scripts" / "compute_expected_catalog.py"
    spec = importlib.util.spec_from_file_location("compute_expected_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_block_indices_match_the_oracle_index_formulas():
    # h is read off the basis matrices supported in its block; the oracle
    # script states the same positions by closed formulas over each family's order
    oracle = _catalog_oracle()
    for n in range(3, 9):
        so, su = _build_so(n), _build_su(n)
        for k in range(2, n):
            assert _block_indices(so, 0, k) == oracle.so_corner_indices(n, k)
            assert _block_indices(su, 0, 2 * k) == oracle.su_corner_indices(n, k)
        d = n * (n - 1) // 2
        assert _block_indices(_direct_sum([so, so]), n, 2 * n) == list(range(d, 2 * d))
    assert _block_indices(_direct_sum([_build_so(3)] * 2), 3, 6) == [3, 4, 5]  # the oracle's entry


def test_su3_su2_corner_is_subalgebra_with_fixed_line():
    e = construct("su3_mod_su2")
    assert e.h.dim == 3
    assert e.fixed_subspace.dim == 1
    # the fixed direction is the anti-hermitian diagonal commuting with the block
    fixed = e.fixed_subspace.rows[0]
    for r in e.h.rows:
        assert e.algebra.bracket(r, fixed) == tuple(0 for _ in range(8))


@pytest.mark.parametrize("n", range(3, 7))
def test_so_family_matches_oracle_algebra(n):
    # the catalog reads so(n) off its realization; the oracle path extracts
    # commutator coordinates on its own
    assert construct(f"so{n}_mod_0").algebra == so_algebra(n)


@pytest.mark.parametrize(
    "name",
    ["su3_mod_0", "su4_mod_0", "su5_mod_0", "so3so3_mod_diag", "so4so4_mod_diag", "so3r1_mod_0", "r3_mod_0"],
)
def test_catalog_algebra_matches_dense_commutators_of_its_matrices(name):
    # su(n), direct sums and r(d) against dense commutators of the same basis
    # matrices, each solved in the basis by the oracle's own elimination
    entry = construct(name)
    mats = entry.realization.basis_matrices
    expected = []
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            coords = express_in_basis(commutator(mats[i], mats[j]), mats)
            expected.extend((i, j, k, c) for k, c in enumerate(coords) if c)
    assert entry.algebra.entries == tuple(expected)


def test_realizations_expose_exact_skew_matrices(entry):
    real = entry.realization
    for B in real.basis_matrices:
        for i in range(real.matrix_dim):
            for j in range(real.matrix_dim):
                assert B[i][j] == -B[j][i]


def test_unknown_and_out_of_range_names():
    with pytest.raises(UnknownName):
        construct("sp4_mod_sp2")
    with pytest.raises(UnknownName):
        construct("so3so4_mod_diag")
    with pytest.raises(ParamOutOfRange):
        construct("so9_mod_so2")
    with pytest.raises(ParamOutOfRange):
        construct("so4_mod_so1")
    with pytest.raises(ParamOutOfRange):
        construct("r9_mod_0")
    with pytest.raises(ParamOutOfRange):
        construct("su2_mod_su1")


def test_parametric_families_work_beyond_curated_list():
    e = construct("su2_mod_0")
    assert e.algebra.dim == 3
    assert killing_form(e.algebra).definiteness == "negative-definite"
    e2 = construct("r3_mod_0")
    assert e2.pair.flags.normal


def test_catalog_names_listing():
    names = catalog_names()
    assert names == CURATED_NAMES
    assert len(set(names)) == len(names) == 13


def test_desk_cap_so8_mod_so2_record():
    # The centralizer of so(2) in so(8) is so(2) + so(6), so m^h = k = so(6):
    # k has no center, and the affine algebra is so(8) + so(6).
    report = run_report(construct("so8_mod_so2"), checks="all", numeric=False)
    body = report.body
    assert body["dims"] == {
        "g": 28, "h": 1, "m": 27, "m_fixed": 15, "k": 15, "k_center": 0,
        "transvection": 28, "affine": 43,
    }
    assert body["torus_dim"] == 0
    assert body["flags"] == {
        "reductive": True, "normal": True, "naturally_reductive": True,
        "effective": True, "normalizer_invariant": True,
        "transvection_equals_g": True, "isotropy_probe": "reducible",
    }
    applicable = [v for v in body["theorem_verdicts"] if v["applicable"]]
    assert applicable and all(v["passed"] for v in applicable)
    assert report.exit_code == 0


def _so(n):
    return n * (n - 1) // 2


def _su(n):
    return n * n - 1


def _family_closed_forms():
    """(name, dim g, dim m^h, torus, affine) for every family member with
    dim g <= 24, from the structure of the family alone: m^h is so(n-k) for
    so(n)/so(k) and u(n-k) for su(n)/su(k), all of g for g/0 (the torus is
    then the center of g and the affine algebra [g, g] + g) and zero for a
    diagonal pair."""
    rows = []
    for n in range(3, 8):
        for k in range(2, n):
            rows.append((f"so{n}_mod_so{k}", _so(n), _so(n - k), int(n - k == 2), _so(n) + _so(n - k)))
    for n in range(3, 6):
        for k in range(2, n):
            rows.append((f"su{n}_mod_su{k}", _su(n), (n - k) ** 2, 1, _su(n) + (n - k) ** 2))
    # g/0 as (name, dim g, dim of the center, dim [g, g])
    groups = [("so2_mod_0", 1, 1, 0), ("so3r1_mod_0", 4, 1, 3)]
    groups += [(f"so{n}_mod_0", _so(n), 0, _so(n)) for n in range(3, 8)]
    groups += [(f"su{n}_mod_0", _su(n), 0, _su(n)) for n in range(2, 6)]
    groups += [(f"r{d}_mod_0", d, d, 0) for d in range(1, 9)]
    rows += [(name, dim, dim, z, derived + dim) for name, dim, z, derived in groups]
    rows += [(f"so{n}so{n}_mod_diag", 2 * _so(n), 0, 0, 2 * _so(n)) for n in range(3, 6)]
    return rows


@pytest.mark.parametrize("name, dim_g, m_fixed, torus, affine", _family_closed_forms())
def test_family_member_matches_its_closed_form(name, dim_g, m_fixed, torus, affine):
    body = run_report(construct(name)).body
    dims, flags = body["dims"], body["flags"]
    assert (dims["g"], dims["m_fixed"], dims["k"], dims["k_center"]) == (dim_g, m_fixed, m_fixed, torus)
    assert (body["torus_dim"], dims["affine"], dims["transvection"]) == (torus, affine, dim_g)
    assert flags["normal"] and flags["naturally_reductive"] and flags["effective"]
    assert flags["transvection_equals_g"]
