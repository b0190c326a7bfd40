"""Reductive decompositions g = h + m and their classification.

Builds normal decompositions (m = orthogonal complement of h with respect to
an invariant positive-definite metric), verifies all flags exactly, finds the
fixed set of the isotropy representation on m and decides whether it is
irreducible over R, both by one sparse kernel each: no characteristic
polynomial is formed, so nothing here loads sympy.

The default metric is -B, minus the Killing form; a recipe adds only its
center Gram matrix and rescaled simple ideals to it. A pair keeps one
coordinate map along the rows of h and then of m, in integers over one
denominator, which `ReductivePair.split` reads. The adapted table brackets
the rows of h and m, scaled to integers together, and splits each bracket
through that map; it keeps integer terms over one scale, which its readers
divide once per result entry, and `liealg._invariance_witness` reads it.
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
    LieAlgebra,
    SubspaceBasis,
    TripleWitness,
    _canonical,
    _invariance_witness,
    _largest_ideal_in,
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
    _integer_support,
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
    """The brackets in the adapted basis, the echelon rows h_i of h and m_a of m,
    as nonzero integer terms over `scale`, and the metric over `gram_scale`:

        ad_h[i][b]    m-terms of [h_i, m_b], i.e. column b of ad(h_i)|_m
        pairs[a][b]   (h-terms, m-terms) of [m_a, m_b] for a < b, when nonzero;
                      [m_b, m_a] is read as its negative
        gram[a]       the nonzero <m_a, m_c> of the metric on m
        nr_witness    first (a, b, c) with <[m_a, m_b]_m, m_c> + <m_b, [m_a, m_c]_m> != 0"""

    scale: int
    ad_h: tuple[tuple[Terms, ...], ...]
    pairs: tuple[dict[int, tuple[Terms, Terms]], ...]
    gram_scale: int
    gram: tuple[Terms, ...]
    nr_witness: TripleWitness | None

    def entry(self, a: int, b: int) -> tuple[int, Terms, Terms]:
        """(sign, h-terms, m-terms) with scale [m_a, m_b] = sign times the terms."""
        if a < b:
            return (1, *self.pairs[a].get(b, ((), ())))
        return (-1, *self.pairs[b].get(a, ((), ())))

    def bracket(self, x: Terms, y: Terms) -> tuple[dict[int, int], dict[int, int]]:
        """h- and m-coordinates of scale [X, Y] for X, Y in m given by their
        nonzero m-coordinates; a coordinate that cancels stays as a zero."""
        in_h, in_m = {}, {}
        for a, xa in x:
            for b, yb in y:
                sign, h_terms, m_terms = self.entry(a, b)
                if not (h_terms or m_terms):
                    continue
                coef = sign * xa * yb
                for i, v in h_terms:
                    in_h[i] = in_h.get(i, 0) + coef * v
                for t, v in m_terms:
                    in_m[t] = in_m.get(t, 0) + coef * v
        return in_h, in_m

    def m_operator(self, x: Terms) -> list:
        """The columns (b, m-terms of scale [X, m_b]) of [X, .]_m on m."""
        return [(b, self.bracket(x, ((b, 1),))[1].items()) for b in range(len(self.pairs))]


# (C, rows): rows[k] holds the nonzero (t, C y) with e_k = sum y (h.rows + m.rows)[t]
CoordinateMap = tuple[int, tuple[tuple[tuple[int, int], ...], ...]]


class ReductivePair(Record, eq=False, uncompared=("coords", "table")):
    """The decomposition g = h + m with its coordinate map and verified flags.

    `coords` is the coordinate map along the rows of h and then of m, over one
    denominator C; `table` is the adapted table, None when the pair is not
    reductive. A pair is equal only to itself and hashes by identity, so the
    caches keyed by a pair look it up without hashing its fields.
    """

    algebra: LieAlgebra
    h: SubspaceBasis
    m: SubspaceBasis
    metric: BilinearForm
    flags: ReductiveFlags
    coords: CoordinateMap
    table: AdaptedTable | None

    def split(self, X: Vector) -> tuple[Terms, Terms]:
        """The nonzero (h-terms, m-terms) of X along g = h + m."""
        d, support = _integer_support(X)
        parts = _split(self.coords, self.h.dim, support)
        return tuple(tuple((t, Fraction(v, d * self.coords[0])) for t, v in part) for part in parts)

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


def _split(coords: CoordinateMap, s: int, support: Iterable[tuple[int, int]]) -> tuple[Terms, Terms]:
    """The integer (h-terms, m-terms) of C X, for the integer support (k, x)
    of X and the coordinate map over C; s = dim h."""
    out: dict[int, int] = {}
    for k, x in support:
        for t, y in coords[1][k]:
            out[t] = out.get(t, 0) + x * y
    terms = sorted((t, v) for t, v in out.items() if v)
    return tuple(tv for tv in terms if tv[0] < s), tuple((t - s, v) for t, v in terms if t >= s)


def _adapted_table(
    L: LieAlgebra, h: SubspaceBasis, m: SubspaceBasis, coords: CoordinateMap, gram_m: Matrix
) -> AdaptedTable | None:
    """The adapted table, or None when some [h_i, m_b] leaves m. The rows of h
    and m are scaled to integers together, over E, so every bracket is summed
    from the integer table of L, over D, and split by the coordinate map, over
    C: each term is over the one scale C D E^2."""
    s, r = h.dim, m.dim
    E, rows = _integer_rows(h.rows + m.rows)

    def split(u: list, w: list) -> tuple[Terms, Terms]:
        return _split(coords, s, [(k, x) for k, x in enumerate(L._integer_bracket(u, w)) if x])

    ad_h = tuple(tuple(split(u, w) for w in rows[s:]) for u in rows[:s])
    if any(in_h for cols in ad_h for in_h, _ in cols):
        return None
    pairs = tuple(
        {b: entry for b in range(a + 1, r) if any(entry := split(rows[s + a], rows[s + b]))}
        for a in range(r)
    )
    G, gram = _integer_rows(gram_m)
    m_cols = tuple(tuple(in_m for _, in_m in cols) for cols in ad_h)
    scale = coords[0] * L._integer_table[0] * E * E
    table = AdaptedTable(scale, m_cols, pairs, G, tuple(map(tuple, gram)), None)
    operators = [table.m_operator(((a, 1),)) for a in range(r)]
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
    rows = h.rows + m.rows
    if len(rows) != L.dim:
        raise InvalidDecomposition(f"dim h + dim m = {len(rows)} != {L.dim}")
    try:
        coord_rows = mat_inverse(transpose(rows))  # row t = coordinates along rows[t]
    except ValueError:
        raise InvalidDecomposition("h and m have a nonzero intersection") from None
    scale, cols = _integer_rows(transpose(coord_rows))
    coords = (scale, tuple(map(tuple, cols)))
    images = matmul(m.rows, metric.gram)  # G.m_b, as the metric is symmetric
    table = _adapted_table(L, h, m, coords, matmul(m.rows, transpose(images)))
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
    return ReductivePair(L, h, m, metric, flags, coords, table)


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
    # normalizes h iff X lies in m^h, and u keeps m invariant iff [X, m_b]_h = 0
    normalizer = pair.h.sum_with(isotropy_fixed_subspace(pair))
    for a, u in enumerate(normalizer.rows):
        x = pair.split(u)[1]
        for b in range(pair.m.dim):
            if any(pair.table.bracket(x, ((b, ONE),))[0].values()):
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
    r = pair.m.dim
    system = [
        {b: x for b, col in enumerate(cols) for t, x in col if t == c}
        for cols in pair.table.ad_h
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

    system = []
    for cols in pair.table.ad_h:  # column b of A as the terms (c, A[c][b])
        for a in range(r):
            for b in range(a, r):
                row: dict[int, int] = {}
                for c, x in cols[a]:  # A[c][a] Q[c][b]
                    k = unknown(c, b)
                    row[k] = row.get(k, 0) + x
                for c, x in cols[b]:  # Q[a][c] A[c][b]
                    k = unknown(a, c)
                    row[k] = row.get(k, 0) + x
                system.append(row)
    return "irreducible" if len(kernel(system, r * (r + 1) // 2)) == 1 else "reducible"
