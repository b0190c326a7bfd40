import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
# primary_kernels imports sympy at the first irreducible factor of degree >= 2;
# loading it here keeps that one-time import (350-390 ms) out of the examples
# that hypothesis times against its 200 ms deadline
import sympy  # noqa: F401
from hypothesis import given, settings
from hypothesis import strategies as st

from reductive_workbench import affine, catalog, homspace, linalg
from reductive_workbench.affine import UserAssertions
from reductive_workbench.homspace import MetricSpec
from reductive_workbench.liealg import SubspaceBasis, is_subalgebra, make_lie_algebra
from reductive_workbench.linalg import (
    charpoly,
    coords_in_rref,
    dot,
    factor_poly,
    identity,
    kernel,
    mat_inverse,
    matmul,
    matvec,
    poly_eval_matrix,
    primary_kernels,
    rat,
    rref,
    signature,
    transpose,
)
from reductive_workbench.report import run_report
from reductive_workbench.specfile import SpaceSpec

from oracles import (
    changed_basis_entries,
    dense_kernel,
    dense_mul,
    fraction_coords_in_rref,
    fraction_is_subalgebra,
    fraction_mat_inverse,
    fraction_matmul,
    fraction_matrix,
    fraction_rref,
    fraction_signature,
    gauss_rank,
    horner_eval_matrix,
    poly_mul,
    poly_pow_mod,
    pow_linear_mod_p,
    reference_rational_roots,
    unimodular,
)

SRC = Path(__file__).resolve().parent.parent / "src"

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


# Mostly zeros, as in the unit-vector bases of the catalog; shrinks toward 0.
sparse_fractions = st.sampled_from(
    (Fraction(0),) * 5 + (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(3))
)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(small_fractions, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def test_rat_coercions():
    assert rat(3) == Fraction(3)
    assert rat("2/3") == Fraction(2, 3)
    assert rat(Fraction(5, 7)) == Fraction(5, 7)
    with pytest.raises(TypeError):
        rat(0.5)


@given(small_matrix(3, 4))
def test_rref_idempotent_and_rank(rows):
    mat = fraction_matrix(rows)
    red, pivots = rref(mat, 4)
    again, pivots2 = rref(red, 4)
    assert red == again
    assert pivots == pivots2
    assert len(red) == gauss_rank(rows, 4)


@given(small_matrix(3, 4))
def test_rref_canonical_under_row_mixing(rows):
    mat = fraction_matrix(rows)
    red, _ = rref(mat, 4)
    # same span, different presentation: add the first row into the others
    if len(mat) >= 2:
        mixed = [mat[0]] + [linalg.vadd(r, mat[0]) for r in mat[1:]]
        red2, _ = rref(fraction_matrix(mixed), 4)
        assert red == red2


@given(small_matrix(3, 5))
def test_kernel_annihilates_and_has_complementary_dim(rows):
    mat = fraction_matrix(rows)
    ker = kernel(mat, 5)
    for v in ker:
        assert all(x == 0 for x in matvec(mat, v))
    assert len(ker) == 5 - gauss_rank(rows, 5)


def test_mat_inverse_roundtrip():
    A = fraction_matrix([[1, 2], ["1/3", 1]])
    Ainv = mat_inverse(A)
    assert matmul(A, Ainv) == identity(2)
    with pytest.raises(ValueError):
        mat_inverse(fraction_matrix([[1, 2], [2, 4]]))


@pytest.mark.parametrize(
    "gram, expected",
    [
        ([[1, 0], [0, 1]], (2, 0, 0)),
        ([[-1, 0], [0, -1]], (0, 2, 0)),
        ([[0, 1], [1, 0]], (1, 1, 0)),  # hyperbolic plane
        ([[0, 0], [0, 0]], (0, 0, 2)),
        ([[1, 0, 0], [0, -2, 0], [0, 0, 0]], (1, 1, 1)),
        ([[2, 1], [1, 2]], (2, 0, 0)),
    ],
)
def test_signature_known_cases(gram, expected):
    assert signature(fraction_matrix(gram)) == expected


def test_charpoly_known():
    J = fraction_matrix([[0, -1], [1, 0]])  # rotation generator: x^2 + 1
    assert charpoly(J) == (rat(1), rat(0), rat(1))
    N = fraction_matrix([[0, 1], [0, 0]])  # nilpotent: x^2
    assert charpoly(N) == (rat(0), rat(0), rat(1))
    D = fraction_matrix([[2, 0], [0, 2]])
    assert charpoly(D) == (rat(4), rat(-4), rat(1))


def test_poly_eval_matrix_cayley_hamilton():
    A = fraction_matrix([[1, 2], [3, "1/2"]])
    p = charpoly(A)
    assert poly_eval_matrix(p, A) == ((rat(0), rat(0)), (rat(0), rat(0)))


def test_factor_poly_splits_and_orders():
    # (x - 1)(x + 2) = x^2 + x - 2
    fs = factor_poly((rat(-2), rat(1), rat(1)))
    assert fs == (((rat(-1), rat(1)), 1), ((rat(2), rat(1)), 1))
    # x^2 + 1 irreducible over Q
    fs = factor_poly((rat(1), rat(0), rat(1)))
    assert fs == (((rat(1), rat(0), rat(1)), 1),)
    # (x - 1)^2
    fs = factor_poly((rat(1), rat(-2), rat(1)))
    assert fs == (((rat(-1), rat(1)), 2),)


def sympy_route(coeffs):
    """The whole polynomial factored by sympy, in `factor_poly` order."""
    return tuple(sorted(linalg._sympy_factors(coeffs), key=lambda fm: (len(fm[0]), fm[0])))


small_roots = st.fractions(min_value=-9, max_value=9, max_denominator=8)
# roots of any height are lifted p-adically; the mod-p route left these to sympy
tall_roots = st.one_of(
    st.integers(2**30, 2**140).map(Fraction),
    st.integers(1, 2**31).map(lambda d: Fraction(-1, d)),
    st.builds(Fraction, st.integers(-(10**45), 10**45), st.integers(2**31, 10**40)),
)
linear_factors = st.one_of(small_roots, tall_roots).map(lambda root: (-root, Fraction(1)))
irreducible_factors = st.sampled_from([
    (1, 0, 1),         # x^2 + 1 has no root mod 2^61 - 1
    (-2, 0, 1),        # x^2 - 2
    (1, 1, 1),
    (-2, 0, 0, 1),     # x^3 - 2
    (3, 0, 0, 0, 1),
]).map(lambda cs: tuple(map(Fraction, cs)))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(linear_factors, irreducible_factors), max_size=5),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
def test_factor_poly_matches_the_sympy_route(factors, lead):
    # non-monic products, repeated factors and roots beyond 2^30 included
    f = (lead,)
    for factor in factors:
        f = poly_mul(f, factor)
    assert factor_poly(f) == sympy_route(f)


def test_factor_poly_leaves_only_the_nonlinear_part_to_sympy(monkeypatch):
    seen = []
    sympy_factors = linalg._sympy_factors
    monkeypatch.setattr(linalg, "_sympy_factors", lambda cs: seen.append(cs) or sympy_factors(cs))
    # 3 (x - 1/2)^2 (x + 7): every root is certified mod p; the content drops
    f = poly_mul(poly_mul((Fraction(-3, 2), rat(3)), (Fraction(-1, 2), rat(1))), (rat(7), rat(1)))
    assert factor_poly(f) == (((Fraction(-1, 2), rat(1)), 2), ((rat(7), rat(1)), 1))
    assert seen == []
    # (x - 2)(x^2 + 1): only x^2 + 1 goes to sympy
    f = poly_mul((rat(-2), rat(1)), (rat(1), rat(0), rat(1)))
    assert factor_poly(f) == (((rat(-2), rat(1)), 1), ((rat(1), rat(0), rat(1)), 1))
    assert seen == [[rat(1), rat(0), rat(1)]]
    # (x - a)^4 (x - b)^4 with roots of 41 and 43 digits: found without sympy
    seen.clear()
    a, b = Fraction(10**40 + 7, 3**30), Fraction(-(10**42) - 1, 7**5)
    f = product_of_roots([a] * 4 + [b] * 4, rat(5))
    assert factor_poly(f) == (((-a, rat(1)), 4), ((-b, rat(1)), 4))
    assert seen == []


def product_of_roots(roots, lead, extra=()):
    """lead times the product of x - r over the roots and of the extra factors."""
    f = (Fraction(lead),)
    for root in roots:
        f = poly_mul(f, (-root, rat(1)))
    for factor in extra:
        f = poly_mul(f, factor)
    return f


leads = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    # a leading coefficient divisible by the first listed prime
    st.integers(-4, 4).filter(bool).map(lambda k: Fraction(k * linalg.ROOT_PRIMES[0] ** 3)),
)
quadratics = st.sampled_from([(), ((1, 0, 1),), ((-2, 0, 1),), ((1, 1, 1), (-2, 0, 0, 1))]).map(
    lambda fs: tuple(tuple(map(Fraction, cs)) for cs in fs)
)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_roots, max_size=6), st.data(), leads, quadratics)
def test_rational_roots_match_the_reference_route(roots, data, lead, extra):
    # repeated roots, non-monic leads and irreducible factors whose roots mod
    # l give candidates that the certificate refuses
    roots += data.draw(st.lists(st.sampled_from(roots), max_size=3)) if roots else []
    f = product_of_roots(roots, lead, extra)
    assert linalg.rational_roots(f) == reference_rational_roots(f) == sorted(set(roots))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(small_roots, tall_roots), min_size=1, max_size=5), leads, quadratics)
def test_rational_roots_of_any_height(roots, lead, extra):
    # the reference finds only roots below 2^30 in height; lifting finds all
    f = product_of_roots(roots, lead, extra)
    found = linalg.rational_roots(f)
    assert found == sorted(set(roots))
    assert set(reference_rational_roots(f)) <= set(found)


@pytest.mark.parametrize(
    "roots, lead, served",
    [
        # -105 and 105 meet mod 2, 3, 5 and 7: the first prime that keeps them apart is 11
        ([Fraction(-105), Fraction(105)], 1, 11),
        # eight roots meet mod every prime below 8
        ([Fraction(k) for k in range(1, 9)], 1, 11),
        # lc 24 of the primitive part: 2 and 3 divide it, and 1/2 = -1/3 mod 5
        ([Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4)], 48, 7),
        # roots of greater height than 2^30, apart mod 2
        ([Fraction(2**61 - 1), Fraction(-(2**100), 3**40)], -7, 2),
    ],
)
def test_rational_roots_skip_primes_that_do_not_serve(roots, lead, served, monkeypatch):
    tried = []
    squarefree_mod = linalg._squarefree_mod
    monkeypatch.setattr(linalg, "_squarefree_mod", lambda g, p: tried.append(p) or squarefree_mod(g, p))
    f = product_of_roots(roots + roots[:1], lead)  # a repeated root: the squarefree part is lifted
    assert linalg.rational_roots(f) == sorted(roots)
    assert tried[-1] == served
    assert all(r.denominator % p for r in roots for p in tried)  # no prime that divides lc(g) is tried


def test_tall_eigenvalues_do_not_import_sympy():
    # A = P diag(a, a, b, b) P^-1 with eigenvalues of 40 digits: the eigenspaces
    # are read off the lifted roots, with no factoring
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from reductive_workbench.linalg import matmul, mat_inverse, primary_kernels, rref\n"
        "a, b = Fraction(10**40 + 3, 7**20), Fraction(-(10**39) - 9, 11**18)\n"
        "P = [[Fraction(x) for x in row] for row in ([2, 1, 0, 3], [1, 1, 4, 0], [0, 5, 1, 1], [1, 0, 2, 1])]\n"
        "D = [[a if i == j and i < 2 else b if i == j else Fraction(0) for j in range(4)] for i in range(4)]\n"
        "A = matmul(matmul(P, D), mat_inverse(P))\n"
        "K = primary_kernels(A)\n"
        "columns = [tuple(row[c] for row in P) for c in range(4)]\n"
        "print([len(k) for k in K], K[0] == rref(columns[:2], 4)[0], K[1] == rref(columns[2:], 4)[0], "
        "'sympy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[2, 2] True True False\n"


@pytest.mark.parametrize("degree", range(1, 16))
def test_linear_power_matches_square_and_multiply(degree):
    # the reference route `roots_mod_p` raises x + c to these powers mod a monic factor of its polynomial
    rng = random.Random(degree)
    m = [rng.randrange(P) for _ in range(degree)] + [1]
    for c in (0, 63, rng.randrange(P)):
        for n in (P, (P - 1) // 2, *range(1, 2 * degree + 3)):
            assert pow_linear_mod_p(c, n, m) == poly_pow_mod([c, 1], n, m, P), (c, n)


COMPANIONS = {  # the companion block of each irreducible quadratic
    (Fraction(-2), Fraction(0), Fraction(1)): ((0, 2), (1, 0)),
    (Fraction(1), Fraction(0), Fraction(1)): ((0, -1), (1, 0)),
}
diagonal_blocks = st.one_of(
    small_fractions.map(lambda root: ((-root, Fraction(1)), ((root,),))),
    st.sampled_from(sorted(COMPANIONS.items())),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(diagonal_blocks, min_size=2, max_size=4), st.integers(0, 2**32))
def test_primary_kernels_split_invariantly(blocks, seed):
    # a semisimple A = P D P^-1, D block diagonal with rational eigenvalues and
    # companion blocks of x^2 - 2 and x^2 + 1: the kernel of f(A) is spanned
    # by the columns of P at the blocks of f, one kernel per distinct f
    n = sum(len(block) for _, block in blocks)
    D = [[Fraction(0)] * n for _ in range(n)]
    columns, at = {}, 0
    for f, block in blocks:
        for i, row in enumerate(block):
            D[at + i][at : at + len(block)] = map(Fraction, row)
        columns.setdefault(f, []).extend(range(at, at + len(block)))
        at += len(block)
    P, Pinv = unimodular(n, random.Random(seed))
    A = fraction_matrix(dense_mul(dense_mul(P, D), Pinv))
    factors = [f for f, _ in factor_poly(charpoly(A))]
    assert sorted(factors) == sorted(columns)
    kernels = primary_kernels(A)
    assert len(kernels) == len(factors)
    for f, K in zip(factors, kernels):
        assert K == rref([[P[i][c] for i in range(n)] for c in columns[f]], n)[0]
        for v in K:
            assert coords_in_rref(K, rref(K, n)[1], matvec(A, v)) is not None


@pytest.mark.parametrize("rows", [[[1, 1], [0, 1]], [[0, 1, 0], [0, 0, 0], [0, 0, 2]], [[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]]])
def test_primary_kernels_refuse_a_matrix_that_is_not_semisimple(rows):
    # a Jordan block: ker f(A) is short of the primary component of f
    with pytest.raises(ValueError, match="not semisimple"):
        primary_kernels(fraction_matrix(rows))


@settings(max_examples=60)
@given(st.integers(0, 4).flatmap(lambda d: st.lists(small_fractions, min_size=d + 1, max_size=d + 1)), small_matrix(3, 3))
def test_poly_eval_matrix_matches_the_horner_loop(coeffs, rows):
    # Horner's loop from lead A + c I agrees with the loop from lead I, degrees 0 to 4
    A = fraction_matrix(rows)
    assert poly_eval_matrix(coeffs, A) == horner_eval_matrix(coeffs, A)


# --- zero-skipping kernels against the dense oracles -----------------------------


def sparse_matrix(data, max_rows=6, max_cols=7):
    rows = data.draw(st.integers(1, max_rows))
    cols = data.draw(st.integers(1, max_cols))
    entries = st.lists(sparse_fractions, min_size=cols, max_size=cols).map(tuple)
    return tuple(data.draw(st.lists(entries, min_size=rows, max_size=rows))), cols


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=150)
@given(st.data())
def test_sparse_rref_is_canonical_and_agrees_with_gauss_rank(data):
    rows, cols = sparse_matrix(data)
    red, pivots = rref(rows, cols)
    assert len(red) == len(pivots) == gauss_rank(rows, cols)
    assert list(pivots) == sorted(set(pivots))
    for t, (row, p) in enumerate(zip(red, pivots)):
        assert row[p] == 1 and not any(row[:p])
        assert all(other[p] == 0 for u, other in enumerate(red) if u != t)
    assert rref(red, cols) == (red, pivots)
    assert all_fractions(red)
    # same row space: every input row has coordinates that rebuild it
    for v in rows:
        coords = coords_in_rref(red, pivots, v)
        assert coords is not None and all_fractions([coords])
        rebuilt = [Fraction(0)] * cols
        for c, row in zip(coords, red):
            rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
        assert tuple(rebuilt) == v


@settings(max_examples=150)
@given(st.data())
def test_sparse_kernel_is_canonical_and_complementary(data):
    rows, cols = sparse_matrix(data)
    ker = kernel(rows, cols)
    assert len(ker) == cols - gauss_rank(rows, cols)
    assert rref(ker, cols)[0] == ker
    assert all_fractions(ker)
    for v in ker:
        assert all(dot(row, v) == 0 for row in rows)


@settings(max_examples=100)
@given(st.data())
def test_sparse_products_match_dense_oracle(data):
    A, inner = sparse_matrix(data)
    cols = data.draw(st.integers(1, 5))
    entries = st.lists(sparse_fractions, min_size=cols, max_size=cols).map(tuple)
    B = tuple(data.draw(st.lists(entries, min_size=inner, max_size=inner)))
    product = matmul(A, B)
    assert product == tuple(tuple(row) for row in dense_mul(A, B))
    assert all_fractions(product)
    v = tuple(row[0] for row in B)
    image = matvec(A, v)
    assert all_fractions([image])
    assert image == tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in A)


def test_dot_of_disjoint_supports_is_a_fraction_zero():
    value = dot((Fraction(1), Fraction(0)), (Fraction(0), Fraction(3)))
    assert value == 0 and type(value) is Fraction


# --- the certified modular kernel -------------------------------------------------

P = linalg.PRIME

system_entries = st.one_of(
    st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5)).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(-(2**40), 2**40).map(Fraction),
)


def as_dicts(rows, keep_zeros):
    return [{c: x for c, x in enumerate(row) if keep_zeros or x} for row in rows]


@settings(max_examples=200)
@given(st.data())
def test_kernel_matches_dense_oracle_on_dense_and_dict_rows(data):
    rows_n = data.draw(st.integers(0, 6))
    cols = data.draw(st.integers(1, 6))
    entries = data.draw(st.sampled_from((system_entries, small_fractions, sparse_fractions)))
    rows = [tuple(data.draw(st.lists(entries, min_size=cols, max_size=cols))) for _ in range(rows_n)]
    expected = tuple(tuple(v) for v in dense_kernel(rows, cols))
    assert kernel(rows, cols) == expected
    assert kernel(as_dicts(rows, False), cols) == expected
    assert kernel(as_dicts(rows, True), cols) == expected
    assert all_fractions(kernel(as_dicts(rows, False), cols))


@settings(max_examples=100)
@given(st.data())
def test_echelon_basis_grows_by_independent_rows(data):
    # linalg._add_row keeps integer pivot rows, each a positive multiple of its row of the rref
    rows, cols = sparse_matrix(data)
    pivots = {}
    for t, v in enumerate(rows):
        grows = gauss_rank(rows[: t + 1], cols) > len(pivots)
        assert linalg._add_row(pivots, dict(linalg._integer_support(v)[1])) == grows
    assert len(pivots) == gauss_rank(rows, cols)
    assert all(row[p] > 0 for p, row in pivots.items())
    reduced = tuple(linalg._dense(row, row[p], cols) for p, row in sorted(pivots.items()))
    assert reduced == rref(rows, cols)[0]
    assert all_fractions(reduced)


@pytest.fixture
def exact_calls(monkeypatch):
    calls = []
    exact = linalg._exact_kernel

    def spy(A, ncols):
        calls.append(ncols)
        return exact(A, ncols)

    monkeypatch.setattr(linalg, "_exact_kernel", spy)
    return calls


@pytest.mark.parametrize(
    "rows",
    [
        # pivot entry p: mod p the first row is (0, 1, 0) and the rank drops
        [[P, 1, 0], [0, 1, 1]],
        # denominator p: no residue exists
        [[Fraction(1, P), 1, 0], [0, 1, 1]],
        # kernel entry (2^40 + 1)/3: beyond the reconstruction bound
        [[3, -(2**40 + 1)]],
    ],
    ids=["pivot_is_p", "denominator_is_p", "beyond_reconstruction_bound"],
)
def test_unlucky_prime_falls_back_to_the_exact_kernel(rows, exact_calls):
    rows = fraction_matrix(rows)
    ncols = len(rows[0])
    expected = tuple(tuple(v) for v in dense_kernel(rows, ncols))
    assert expected  # a nonzero kernel, so a wrong candidate would show
    assert kernel(rows, ncols) == expected
    assert exact_calls == [ncols]
    assert kernel(as_dicts(rows, False), ncols) == expected


def test_report_never_needs_the_exact_kernel(monkeypatch):
    def refuse(A, ncols):
        raise AssertionError("the exact fallback kernel was reached")

    monkeypatch.setattr(linalg, "_exact_kernel", refuse)
    # fresh entries and empty caches, so every kernel of the pipeline runs here
    homspace.isotropy_fixed_subspace.cache_clear()
    affine.invariant_field_algebra.cache_clear()
    for name in catalog.CURATED_NAMES:
        run_report(catalog.construct.__wrapped__(name))
    rng = random.Random(5)
    for name in ("so4so4_mod_diag", "su3_mod_su2"):
        entry = catalog.construct(name)
        L, n = entry.algebra, entry.algebra.dim
        Pm, Pinv = unimodular(n, rng)
        entries = changed_basis_entries(n, L.bracket_basis, Pm, Pinv)
        h_rows = tuple(matvec(transpose(fraction_matrix(Pinv)), v) for v in entry.h.rows)  # v P^-1
        spec = SpaceSpec(n, L.basis_labels, tuple(entries), h_rows, MetricSpec(), UserAssertions())
        assert run_report(spec).exit_code == 0
    homspace.isotropy_fixed_subspace.cache_clear()
    affine.invariant_field_algebra.cache_clear()


# --- the integer kernels against the Fraction references --------------------------

# zeros, small and large numerators, and denominators divisible by 2^61 - 1
reference_entries = st.one_of(
    sparse_fractions,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(-(2**90), 2**90).map(Fraction),
    st.builds(Fraction, st.integers(-(2**70), 2**70).filter(bool), st.sampled_from((P, 3 * P, P * P))),
)


def reference_matrix(data, rows=None, cols=None):
    """Rows over one entry strategy, with zero and repeated rows mixed in."""
    rows = data.draw(st.integers(0, 6)) if rows is None else rows
    cols = data.draw(st.integers(1, 7)) if cols is None else cols
    entries = data.draw(st.sampled_from((sparse_fractions, small_fractions, reference_entries)))
    out = [tuple(data.draw(st.lists(entries, min_size=cols, max_size=cols))) for _ in range(rows)]
    for _ in range(data.draw(st.integers(0, 2)) if out else 0):
        extra = data.draw(st.sampled_from(out + [(Fraction(0),) * cols]))
        out.insert(data.draw(st.integers(0, len(out))), extra)
    return tuple(out), cols


def raised(fn, *args):
    """fn(*args), or the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


@settings(max_examples=150)
@given(st.data())
def test_integer_rref_matches_the_fraction_rref(data):
    rows, cols = reference_matrix(data)
    red, pivots = rref(rows, cols)
    assert (red, pivots) == fraction_rref(rows, cols)
    assert all_fractions(red)
    assert rref(as_dicts(rows, False), cols) == (red, pivots)
    v = tuple(data.draw(st.lists(reference_entries, min_size=cols, max_size=cols)))
    assert coords_in_rref(red, pivots, v) == fraction_coords_in_rref(red, pivots, v)
    if red:
        mix = tuple(data.draw(st.lists(reference_entries, min_size=len(red), max_size=len(red))))
        inside = matmul((mix,), red)[0]
        coords = coords_in_rref(red, pivots, inside)
        assert coords is not None and coords == fraction_coords_in_rref(red, pivots, inside)
        assert all_fractions([coords])


@settings(max_examples=100)
@given(st.data())
def test_integer_matmul_and_inverse_match_the_fraction_kernels(data):
    A, inner = reference_matrix(data)
    # the zero and repeated rows mixed into B may leave it with more rows
    # than A has columns: a shape mismatch, a ValueError in both
    B, _ = reference_matrix(data, rows=inner)
    product, expected = raised(matmul, A, B), raised(fraction_matmul, A, B)
    if isinstance(expected, ValueError):
        assert isinstance(product, ValueError)
    else:
        assert product == expected and all_fractions(product)
    n = data.draw(st.integers(1, 5))
    square, _ = reference_matrix(data, rows=n, cols=n)
    if len(square) == n:
        inverse, expected = raised(mat_inverse, square), raised(fraction_mat_inverse, square)
        if isinstance(expected, ValueError):
            assert isinstance(inverse, ValueError) and str(inverse) == str(expected) == "matrix is singular"
        else:
            assert inverse == expected and all_fractions(inverse)


@settings(max_examples=150)
@given(st.data())
def test_integer_signature_matches_the_fraction_signature(data):
    n = data.draw(st.integers(0, 7))
    entries = data.draw(st.sampled_from((sparse_fractions, small_fractions, reference_entries)))
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = data.draw(entries)
    # an all-zero diagonal takes the row+column step first
    if data.draw(st.booleans()):
        for i in range(n):
            gram[i][i] = data.draw(entries)
    gram = fraction_matrix(gram)
    assert signature(gram) == fraction_signature(gram)
    assert signature(tuple(tuple(-x for x in row) for row in gram)) == fraction_signature(
        tuple(tuple(-x for x in row) for row in gram)
    )


@settings(max_examples=80)
@given(st.data())
def test_integer_signature_of_a_congruent_diagonal_form(data):
    # P^T D P with P unit upper triangular: the inertia is read off D, also
    # for negative and degenerate forms
    n = data.draw(st.integers(1, 7))
    diag = data.draw(st.lists(st.sampled_from((-3, -1, 0, 0, 1, 2)), min_size=n, max_size=n))
    P = [[Fraction(int(i == j)) if j <= i else data.draw(reference_entries) for i in range(n)] for j in range(n)]
    D = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    gram = matmul(transpose(P), matmul(D, P))
    expected = (sum(d > 0 for d in diag), sum(d < 0 for d in diag), diag.count(0))
    assert signature(gram) == fraction_signature(gram) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_is_subalgebra_matches_the_fraction_check(data):
    # the pair in a random unimodular basis, so that the echelon rows of h
    # have denominators, then h thinned out or widened by random vectors
    entry = catalog.construct(data.draw(st.sampled_from(("so4_mod_so2", "su3_mod_su2", "so3r1_mod_0"))))
    n = entry.algebra.dim
    Pm, Pinv = unimodular(n, random.Random(data.draw(st.integers(0, 2**16))))
    L = make_lie_algebra(n, changed_basis_entries(n, entry.algebra.bracket_basis, Pm, Pinv))
    h_rows = [matvec(transpose(fraction_matrix(Pinv)), v) for v in entry.h.rows]  # v P^-1
    rows = [v for v in h_rows if data.draw(st.booleans())]
    for _ in range(data.draw(st.integers(0, 2))):
        rows.append(tuple(data.draw(st.lists(small_fractions, min_size=n, max_size=n))))
    sub = SubspaceBasis.from_vectors(n, rows)
    check = is_subalgebra(L, sub)
    expected = fraction_is_subalgebra(L, sub.rows, sub.pivots)
    assert check.ok == (expected is None)
    if expected is not None:
        assert check.witness.indices == (*expected, -1)
    assert is_subalgebra(L, SubspaceBasis.from_vectors(n, h_rows)).ok
