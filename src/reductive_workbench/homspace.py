"""Reductive decompositions g = h + m and their classification.

Builds normal decompositions (m = orthogonal complement of h with respect to
an invariant positive-definite metric), verifies all flags exactly, finds the
fixed set of the isotropy representation on m and decides whether it is
irreducible over R, both by one sparse kernel each: no characteristic
polynomial is formed, so nothing here loads sympy.

The default metric is -B, minus the Killing form; a recipe adds only its
center Gram matrix and rescaled simple ideals to it. The adapted table
brackets the rows of h and m, scaled to integers together, from the row of
each in the layout of g's integer table, formed once, and reads each
bracket in the adapted basis through the integer inverse of that basis,
which is dropped once the table is built. It keeps integer terms over one
scale, in the layout of g's integer table, so `liealg._table_bracket`,
`liealg._cyclic_witness` and `liealg._invariance_witness` read it as they
read g's; its readers divide once per result entry. A vector of m is read
in the table's indices by its entries at the pivots of m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import (
    InvalidDecomposition,
    InvalidMetricSpec,
    MetricNotAdInvariant,
    MetricNotPositiveDefinite,
    NotASubalgebra,
    NotCompactType,
    NotNormal,
    NotReductive,
)
from .liealg import (
    BilinearForm,
    CheckResult,
    IntegerTable,
    LieAlgebra,
    SubspaceBasis,
    TripleWitness,
    _canonical,
    _invariance_witness,
    _largest_ideal_in,
    _table_bracket,
    _table_row,
    ad_invariance_check,
    center,
    derived_subalgebra,
    is_subalgebra,
    killing_form,
    make_bilinear_form,
    orthogonal_complement,
    simple_ideal_decomposition,
)
from .linalg import (
    Matrix,
    ONE,
    Vector,
    ZERO,
    identity,
    kernel,
    mat_add,
    mat_inverse,
    matmul,
    rat,
    transpose,
    vector,
    _integer_rows,
)
from .record import Record


class MetricSpec(Record):
    """Recipe for an invariant inner product: -Killing per simple ideal, with
    optional positive rational scales, and a user Gram matrix on the center
    (identity by default)."""

    scale_factors: tuple[Fraction, ...] | None = None
    center_gram: Matrix | None = None

    @staticmethod
    def custom(scale_factors=None, center_gram=None) -> "MetricSpec":
        scales = None
        if scale_factors is not None:
            scales = tuple(rat(s) for s in scale_factors)
        gram = None
        if center_gram is not None:
            gram = tuple(vector(row) for row in center_gram)
        return MetricSpec(scales, gram)


def build_metric(L: LieAlgebra, spec: MetricSpec) -> BilinearForm:
    """Assemble the invariant metric described by `spec` and check that it is
    positive-definite; its invariance is verified once, by the normal flag of
    the pair built on it (see `normal_decomposition`).

    B vanishes on z and pairs distinct simple ideals to zero, so the recipe is
    -B plus the center Gram matrix on the z-coordinates plus (1 - s) B(x_I, y)
    for each ideal I of scale s != 1: one product R^T F, with R the coordinates
    along z + the ideals, formed only when there is such a term."""
    B = killing_form(L)
    z = center(L)
    if spec.scale_factors is not None:
        _, ideals = simple_ideal_decomposition(L)
        if len(spec.scale_factors) != len(ideals):
            raise InvalidMetricSpec(
                f"{len(spec.scale_factors)} scale factors for {len(ideals)} simple ideals",
                "scales",
            )
        if any(s <= 0 for s in spec.scale_factors):
            raise MetricNotPositiveDefinite("scale factors must be positive")
        blocks = list(zip(ideals, spec.scale_factors))
    else:
        blocks = [(derived_subalgebra(L), ONE)]
    adapted = z.rows + tuple(row for blk, _ in blocks for row in blk.rows)
    if len(adapted) != L.dim:
        raise NotCompactType("center and derived subalgebra do not span the algebra")
    if spec.center_gram is not None and not z.dim:
        raise InvalidMetricSpec("center gram supplied but the algebra has no center", "center_gram")
    cg = spec.center_gram if spec.center_gram is not None else identity(z.dim)
    if len(cg) != z.dim or any(len(r) != z.dim for r in cg):
        raise InvalidMetricSpec(f"center gram must be {z.dim}x{z.dim}", "center_gram")
    asymmetric = [(i, j) for i in range(z.dim) for j in range(i + 1, z.dim) if cg[i][j] != cg[j][i]]
    if asymmetric:
        raise InvalidMetricSpec(f"center gram is not symmetric at {asymmetric[0]}", "center_gram")
    gram = tuple(tuple(-x for x in row) for row in B.gram)
    if z.dim or any(s != ONE for _, s in blocks):
        try:
            R = mat_inverse(transpose(adapted))  # row r = coordinates along adapted[r]
        except ValueError:
            # z and [g, g] have complementary dimensions but meet
            raise NotCompactType("center and derived subalgebra do not span the algebra") from None
        F = list(matmul(cg, R[: z.dim]))
        for blk, s in blocks:
            By = matmul(blk.rows, B.gram) if s != ONE else [(ZERO,) * L.dim] * blk.dim
            F.extend(tuple((ONE - s) * x for x in row) for row in By)
        gram = mat_add(gram, matmul(transpose(R), F))
    form = make_bilinear_form(gram)
    if form.definiteness != "positive-definite":
        raise MetricNotPositiveDefinite(
            f"assembled metric is {form.definiteness}; the algebra must be of compact type"
        )
    return form


class ReductiveFlags(Record):
    reductive: bool
    normal: bool
    naturally_reductive: bool
    effective: bool


# ((index, coefficient), ...) over the nonzero coordinates of one vector
Terms = tuple[tuple[int, int | Fraction], ...]


class AdaptedTable(Record):
    """The brackets in the adapted basis, h_i at index i and m_a at index
    s + a for the echelon rows of h and then of m, as nonzero integer terms
    over `scale` in the layout of g's integer table, and the metric on m over
    `gram_scale`:

        rows[x][s + b]  adapted terms of [e_x, m_b], for every x; [m_b, m_a]
                        is stored as the negative of [m_a, m_b], and no
                        [m_a, m_a] is stored
        gram[a]         the nonzero (c, <m_a, m_c>) of the metric on m
        nr_witness      first (a, b, c) with <[m_a, m_b]_m, m_c> + <m_b, [m_a, m_c]_m> != 0"""

    scale: int
    rows: IntegerTable
    gram_scale: int
    gram: tuple[Terms, ...]
    nr_witness: TripleWitness | None

    @property
    def h_dim(self) -> int:
        return len(self.rows) - len(self.gram)

    def bracket(self, x: Terms, y: Terms) -> dict[int, int]:
        """The adapted coordinates of scale [X, Y] for X in g and Y in m given
        by their adapted terms; a coordinate that cancels stays as a zero."""
        return _table_bracket(self.rows, x, y)

    def m_operator(self, x: Terms) -> list:
        """The columns (b, m-terms (c, v) of scale [X, m_b]) of [X, .]_m on m."""
        s = self.h_dim
        return [(b, [(t - s, v) for t, v in self.bracket(x, ((s + b, 1),)).items() if t >= s])
                for b in range(len(self.gram))]


class ReductivePair(Record, eq=False, uncompared=("table",)):
    """The decomposition g = h + m with its verified flags.

    `table` is the adapted table, None when the pair is not reductive. A pair
    is equal only to itself and hashes by identity, so the caches keyed by a
    pair look it up without hashing its fields.
    """

    algebra: LieAlgebra
    h: SubspaceBasis
    m: SubspaceBasis
    metric: BilinearForm
    flags: ReductiveFlags
    table: AdaptedTable | None

    def m_terms(self, X: Vector) -> Terms:
        """The nonzero adapted terms (s + a, c) of X = sum c m_a in m: m's rows
        are reduced echelon, so c is the entry of X at the pivot of m_a."""
        s = self.h.dim
        return tuple((s + a, X[p]) for a, p in enumerate(self.m.pivots) if X[p])

    def from_h_terms(self, terms: Iterable[tuple[int, Fraction]]) -> Vector:
        """The vector sum c h_i over the (i, c) terms, in ambient coordinates."""
        return _combine(terms, self.h.rows, self.algebra.dim)

    def from_m_terms(self, terms: Iterable[tuple[int, Fraction]]) -> Vector:
        """The vector sum c m_a over the (a, c) terms, in ambient coordinates."""
        return _combine(terms, self.m.rows, self.algebra.dim)


def _combine(terms: Iterable[tuple[int, Fraction]], rows: Matrix, dim: int) -> Vector:
    out = [ZERO] * dim
    for a, c in terms:
        if c:
            for k, x in enumerate(rows[a]):
                if x:
                    out[k] += c * x
    return tuple(out)


def _adapted_table(L: LieAlgebra, h: SubspaceBasis, m: SubspaceBasis, gram_m: Matrix) -> AdaptedTable | None:
    """The adapted table, or None when some [h_i, m_b] leaves m. The rows of h
    and m are scaled to integers together, over E, and each one's row in the
    layout of the integer table of L, over D, is formed once; every bracket
    with m_b is read from it and then in the adapted basis by the integer
    inverse of that basis, over C: each term is over the one scale C D E^2.
    Raises InvalidDecomposition when h and m meet."""
    s, r = h.dim, m.dim
    basis = h.rows + m.rows
    try:
        inverse = mat_inverse(transpose(basis))  # row t = coordinates along basis[t]
    except ValueError:
        raise InvalidDecomposition("h and m have a nonzero intersection") from None
    C, coords = _integer_rows(transpose(inverse))  # coords[k]: the nonzero (t, C y), e_k = sum y basis[t]
    D, g_rows = L._integer_table
    E, scaled = _integer_rows(basis)

    def split(row: tuple[dict], b: int) -> Terms:
        """The adapted terms of C D E^2 [basis[x], m_b], for the one-row
        table of E basis[x] in the layout of g's table."""
        out: dict[int, int] = {}
        for k, v in _table_bracket(row, ((0, 1),), scaled[s + b]).items():
            if v:
                for t, y in coords[k]:
                    out[t] = out.get(t, 0) + v * y
        return tuple(sorted(tv for tv in out.items() if tv[1]))

    rows: list[dict[int, Terms]] = [{} for _ in range(s + r)]
    for i in range(s):
        row = (_table_row(g_rows, scaled[i]),)  # formed once, read for every m_b
        for b in range(r):
            if terms := split(row, b):
                if terms[0][0] < s:  # sorted terms: an h-part comes first
                    return None
                rows[i][s + b] = terms
    for a in range(r - 1):
        row = (_table_row(g_rows, scaled[s + a]),)
        for b in range(a + 1, r):
            if terms := split(row, b):
                rows[s + a][s + b] = terms
                rows[s + b][s + a] = tuple((t, -v) for t, v in terms)
    G, gram = _integer_rows(gram_m)
    scale = C * D * E * E
    table = AdaptedTable(scale, tuple(rows), G, tuple(map(tuple, gram)), None)
    operators = [table.m_operator(((s + a, 1),)) for a in range(r)]
    return table.replace(nr_witness=_invariance_witness(operators, table.gram, scale * G))


def make_reductive_pair(
    L: LieAlgebra, h: SubspaceBasis, m: SubspaceBasis, metric: BilinearForm
) -> ReductivePair:
    """General constructor: flags are computed, not assumed."""
    sub_check = is_subalgebra(L, h)
    if not sub_check.ok:
        raise NotASubalgebra(sub_check.witness)
    return _reductive_pair(L, h, m, metric)


def _reductive_pair(
    L: LieAlgebra, h: SubspaceBasis, m: SubspaceBasis, metric: BilinearForm
) -> ReductivePair:
    """`make_reductive_pair` for an h already checked to be a subalgebra."""
    if h.dim + m.dim != L.dim:
        raise InvalidDecomposition(f"dim h + dim m = {h.dim + m.dim} != {L.dim}")
    images = matmul(m.rows, metric.gram)  # G.m_b, as the metric is symmetric
    table = _adapted_table(L, h, m, matmul(m.rows, transpose(images)))
    reductive = table is not None
    nr = reductive and table.nr_witness is None
    # h + m = g, so for a positive-definite metric m = h-perp iff every <h_i, m_b> = 0
    normal = (
        metric.definiteness == "positive-definite"
        and ad_invariance_check(L, metric).ok
        and not any(map(any, matmul(h.rows, transpose(images)) if m.dim else ()))
    )
    effective = _largest_ideal_in(L, h).dim == 0
    flags = ReductiveFlags(reductive, normal, nr, effective)
    return ReductivePair(L, h, m, metric, flags, table)


def normal_decomposition(
    L: LieAlgebra, h: SubspaceBasis, spec_or_form: MetricSpec | BilinearForm | None = None
) -> ReductivePair:
    """h + h-perp with respect to an invariant positive-definite metric.

    Accepts a MetricSpec (default: plain -Killing with identity on the center)
    or an explicit BilinearForm. The metric is verified to be positive-definite
    here and invariant by the pair's normal flag, which also yields the
    reductive flag: [h, m] lies in m for every invariant metric.
    """
    sub_check = is_subalgebra(L, h)
    if not sub_check.ok:
        raise NotASubalgebra(sub_check.witness)
    if spec_or_form is None:
        spec_or_form = MetricSpec()
    if isinstance(spec_or_form, MetricSpec):
        form = build_metric(L, spec_or_form)
    else:
        form = spec_or_form
        if form.definiteness != "positive-definite":
            raise MetricNotPositiveDefinite(f"metric is {form.definiteness}")
    m = orthogonal_complement(h, form)
    pair = _reductive_pair(L, h, m, form)
    if not pair.flags.normal:
        # m is the complement of a positive-definite form: only invariance can fail
        raise MetricNotAdInvariant(f"witness {ad_invariance_check(L, form).witness}")
    return pair


def naturally_reductive_check(pair: ReductivePair) -> CheckResult:
    """<[X,Y]_m, Z> + <Y, [X,Z]_m> = 0 over ordered basis triples of m."""
    if not pair.flags.reductive:
        raise NotReductive("naturally reductive check needs a reductive pair")
    witness = pair.table.nr_witness
    return CheckResult(witness is None, witness)


def normalizer_invariance_check(pair: ReductivePair) -> CheckResult:
    """Does the normalizer algebra of h keep m invariant: [n_g(h), m] in m?"""
    if not pair.flags.reductive:
        raise NotReductive("normalizer invariance check needs a reductive pair")
    # write u = u_h + X along h + m: [u_h, h] lies in h and [X, h] in m, so u
    # normalizes h iff X lies in m^h; [u_h, m] lies in m, so u keeps m
    # invariant iff [X, m_b]_h = 0 for every b: the rows of m^h decide it
    s = pair.h.dim
    if s == 0:  # no bracket has an h-part
        return CheckResult(True)
    for a, u in enumerate(isotropy_fixed_subspace(pair).rows):
        x = pair.m_terms(u)
        for b in range(pair.m.dim):
            if any(v for t, v in pair.table.bracket(x, ((s + b, 1),)).items() if t < s):
                return CheckResult(False, TripleWitness((a, b, -1), ZERO))
    return CheckResult(True)


@lru_cache(maxsize=None)
def isotropy_fixed_subspace(pair: ReductivePair) -> SubspaceBasis:
    """m^h = {X in m : [h, X] = 0}, the fixed set of the isotropy action."""
    if not pair.flags.reductive:
        raise NotReductive("fixed subspace needs a reductive pair")
    if pair.h.dim == 0 or pair.m.dim == 0:
        return pair.m
    # one equation per (i, c): the coefficient of m_c in [h_i, X] vanishes
    s, r = pair.h.dim, pair.m.dim
    system = [
        {z - s: x for z, terms in row.items() for t, x in terms if t == s + c}
        for row in pair.table.rows[:s]
        for c in range(r)
    ]
    # rref m-coordinates through the rref rows of m are the rref of m^h
    return _canonical(pair.algebra.dim, [pair.from_m_terms(enumerate(t)) for t in kernel(system, r)])


def isotropy_irreducibility_probe(pair: ReductivePair) -> str:
    """Does h act irreducibly on m over R: "irreducible" or "reducible".

    h acts on m by maps skew for the metric, so an invariant subspace U gives
    a second invariant form <P ., .>, P the orthogonal projection onto U, and
    an invariant symmetric form that is not a multiple of the metric has
    invariant eigenspaces. The action is therefore irreducible iff the
    h-invariant symmetric forms on m are the line of the metric: one sparse
    system in the unknowns Q[a][b], a <= b, with a row per h_i and a <= b for
    the entry (A^T Q + Q A)[a][b] of A = ad(h_i)|_m. A nonzero fixed set m^h
    with dim m >= 2 is invariant and decides "reducible" without the system.
    """
    if not pair.flags.reductive:
        raise NotReductive("irreducibility probe needs a reductive pair")
    if not pair.flags.normal:
        raise NotNormal("irreducibility probe needs a normal pair")
    r = pair.m.dim
    if r == 0:
        return "irreducible"
    if r >= 2 and isotropy_fixed_subspace(pair).dim:
        return "reducible"

    def unknown(a: int, b: int) -> int:  # Q[a][b] = Q[b][a], rows of the upper triangle
        a, b = min(a, b), max(a, b)
        return a * (2 * r - a - 1) // 2 + b

    s = pair.h.dim
    system = []
    for cols in pair.table.rows[:s]:  # column s + b of A as the terms (s + c, A[c][b])
        for a in range(r):
            for b in range(a, r):
                row: dict[int, int] = {}
                for c, x in cols.get(s + a, ()):  # A[c][a] Q[c][b]
                    k = unknown(c - s, b)
                    row[k] = row.get(k, 0) + x
                for c, x in cols.get(s + b, ()):  # Q[a][c] A[c][b]
                    k = unknown(a, c - s)
                    row[k] = row.get(k, 0) + x
                system.append(row)
    return "irreducible" if len(kernel(system, r * (r + 1) // 2)) == 1 else "reducible"
