"""Reductive decompositions g = h + m and their classification.

Builds normal decompositions (m = orthogonal complement of h with respect to
an invariant positive-definite metric), verifies all flags exactly, and probes
the isotropy representation on m for fixed vectors and invariant subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import (
    InvalidDecomposition,
    InvalidMetricSpec,
    MetricNotAdInvariant,
    MetricNotPositiveDefinite,
    NotASubalgebra,
    NotCompactType,
    NotReductive,
)
from .liealg import (
    BilinearForm,
    CheckResult,
    LieAlgebra,
    SubspaceBasis,
    TripleWitness,
    _largest_ideal_in,
    ad_invariance_check,
    center,
    commutant,
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
    is_scalar_matrix,
    kernel,
    mat_add,
    mat_inverse,
    mat_scale,
    matmul,
    matvec,
    primary_kernels,
    rat,
    stack,
    transpose,
    vadd,
    vector,
    vneg,
)


@dataclass(frozen=True)
class MetricSpec:
    """Recipe for an invariant inner product: -Killing per simple ideal, with
    optional positive rational scales, and a user Gram matrix on the center
    (identity by default)."""

    mode: str = "negative_killing"  # "negative_killing" (all defaults) or "custom"
    scale_factors: tuple[Fraction, ...] | None = None
    center_gram: Matrix | None = None

    def __post_init__(self):
        if self.mode not in ("negative_killing", "custom"):
            raise ValueError(f"unknown metric mode {self.mode!r}")
        if self.mode == "negative_killing" and (
            self.scale_factors is not None or self.center_gram is not None
        ):
            raise ValueError("negative_killing mode takes no parameters; use mode='custom'")

    @staticmethod
    def custom(scale_factors=None, center_gram=None) -> "MetricSpec":
        scales = None
        if scale_factors is not None:
            scales = tuple(rat(s) for s in scale_factors)
        gram = None
        if center_gram is not None:
            gram = tuple(vector(row) for row in center_gram)
        return MetricSpec("custom", scales, gram)


def build_metric(L: LieAlgebra, spec: MetricSpec) -> BilinearForm:
    """Assemble the invariant metric described by `spec` and check that it is
    positive-definite; its invariance is verified once, by the normal flag of
    the pair built on it (see `normal_decomposition`)."""
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
        blocks = list(ideals)
        scales = list(spec.scale_factors)
    else:
        g1 = derived_subalgebra(L)
        blocks = [g1] if g1.dim else []
        scales = [ONE]
    gram = [[ZERO] * L.dim for _ in range(L.dim)]
    adapted = list(z.rows)
    for blk in blocks:
        adapted.extend(blk.rows)
    if len(adapted) != L.dim:
        raise NotCompactType("center and derived subalgebra do not span the algebra")
    coord_rows = mat_inverse(transpose(tuple(adapted)))  # row r = coordinates along adapted[r]
    offset = z.dim
    for blk, s in zip(blocks, scales):
        R = coord_rows[offset : offset + blk.dim]
        blk_gram = mat_scale(-s, B.restrict(blk))
        contrib = matmul(matmul(transpose(R), blk_gram), R)
        gram = [list(vadd(tuple(g), c)) for g, c in zip(gram, contrib)]
        offset += blk.dim
    if z.dim:
        cg = spec.center_gram if spec.center_gram is not None else identity(z.dim)
        if len(cg) != z.dim or any(len(r) != z.dim for r in cg):
            raise InvalidMetricSpec(f"center gram must be {z.dim}x{z.dim}", "center_gram")
        for i in range(z.dim):
            for j in range(i + 1, z.dim):
                if cg[i][j] != cg[j][i]:
                    raise InvalidMetricSpec(
                        f"center gram is not symmetric at {(i, j)}", "center_gram"
                    )
        Rz = coord_rows[: z.dim]
        contrib = matmul(matmul(transpose(Rz), cg), Rz)
        gram = [list(vadd(tuple(g), c)) for g, c in zip(gram, contrib)]
    elif spec.center_gram is not None:
        raise InvalidMetricSpec(
            "center gram supplied but the algebra has no center", "center_gram"
        )
    form = make_bilinear_form(gram)
    if form.definiteness != "positive-definite":
        raise MetricNotPositiveDefinite(
            f"assembled metric is {form.definiteness}; the algebra must be of compact type"
        )
    return form


@dataclass(frozen=True)
class ReductiveFlags:
    reductive: bool
    normal: bool
    naturally_reductive: bool
    effective: bool


@dataclass(frozen=True)
class StructureTable:
    """The brackets of a reductive pair in its adapted basis: the echelon rows
    h_i of h and m_a of m, with every entry in coordinates along those rows.

        m_coords[a][b]      m-coordinates of [m_a, m_b]
        h_coords[a][b]      h-coordinates of [m_a, m_b]
        ad_h[i][c][b]       coefficient of m_c in [h_i, m_b], i.e. ad(h_i)|_m
        nr_defect[a][b][c]  <[m_a, m_b]_m, m_c> + <m_b, [m_a, m_c]_m>
        nr_witness          first triple (a, b, c) with a nonzero nr_defect
    """

    m_coords: tuple[Matrix, ...]
    h_coords: tuple[Matrix, ...]
    ad_h: tuple[Matrix, ...]
    nr_defect: tuple[Matrix, ...]
    nr_witness: TripleWitness | None

    def m_bracket(self, x: Vector, y: Vector) -> Vector:
        """m-coordinates of [X, Y]_m, for X and Y given by m-coordinates."""
        out = [ZERO] * len(x)
        for a, xa in enumerate(x):
            if xa:
                for b, yb in enumerate(y):
                    if yb:
                        for t, c in enumerate(self.m_coords[a][b]):
                            if c:
                                out[t] += xa * yb * c
        return tuple(out)


@dataclass(frozen=True)
class ReductivePair:
    """The decomposition g = h + m with projections and verified flags.

    `table` is the adapted structure table, None when the pair is not
    reductive; it is derived data and takes no part in equality or hashing.
    """

    algebra: LieAlgebra
    h: SubspaceBasis
    m: SubspaceBasis
    metric: BilinearForm
    flags: ReductiveFlags
    proj_h: Matrix
    proj_m: Matrix
    table: StructureTable | None = field(compare=False, repr=False)

    def project_m(self, X: Vector) -> Vector:
        return matvec(self.proj_m, X)

    def bracket_m(self, X: Vector, Y: Vector) -> Vector:
        return self.project_m(self.algebra.bracket(X, Y))

    def from_h_coords(self, coords: Vector) -> Vector:
        """The vector of h with the given coordinates along the rows of h."""
        return _combine(coords, self.h.rows, self.algebra.dim)

    def from_m_coords(self, coords: Vector) -> Vector:
        """The vector of m with the given coordinates along the rows of m."""
        return _combine(coords, self.m.rows, self.algebra.dim)


def _combine(coords: Vector, rows: Matrix, dim: int) -> Vector:
    out = [ZERO] * dim
    for c, row in zip(coords, rows, strict=True):
        if c:
            for k, x in enumerate(row):
                if x:
                    out[k] += c * x
    return tuple(out)


def _projections(
    L: LieAlgebra, h: SubspaceBasis, m: SubspaceBasis
) -> tuple[Matrix, Matrix, Matrix]:
    """Coordinate functionals along h.rows + m.rows, then the projections onto h and m."""
    rows = h.rows + m.rows
    if len(rows) != L.dim:
        raise InvalidDecomposition(f"dim h + dim m = {len(rows)} != {L.dim}")
    basis_t = transpose(rows)
    try:
        coord_rows = mat_inverse(basis_t)
    except ValueError:
        raise InvalidDecomposition("h and m have a nonzero intersection") from None
    h_block = tuple(basis_t[i][: h.dim] for i in range(L.dim))
    proj_h = matmul(h_block, coord_rows[: h.dim]) if h.dim else tuple(
        tuple(ZERO for _ in range(L.dim)) for _ in range(L.dim)
    )
    proj_m = mat_add(identity(L.dim), tuple(tuple(-x for x in row) for row in proj_h))
    return coord_rows, proj_h, proj_m


def _structure_table(
    L: LieAlgebra, h: SubspaceBasis, m: SubspaceBasis, coord_rows: Matrix, gram_m: Matrix
) -> StructureTable | None:
    """The adapted table, or None when some [h_i, m_b] leaves m."""
    s, r = h.dim, m.dim
    coord_cols = transpose(coord_rows)

    def split(v: Vector) -> tuple[Vector, Vector]:
        # (h-coordinates, m-coordinates) of v
        out = [ZERO] * L.dim
        for k, x in enumerate(v):
            if x:
                for t, y in enumerate(coord_cols[k]):
                    if y:
                        out[t] += x * y
        return tuple(out[:s]), tuple(out[s:])

    ad_h = []
    for u in h.rows:
        cols = []
        for w in m.rows:
            in_h, in_m = split(L.bracket(u, w))
            if any(in_h):
                return None
            cols.append(in_m)
        ad_h.append(transpose(tuple(cols)))
    m_coords = [[(ZERO,) * r for _ in range(r)] for _ in range(r)]
    h_coords = [[(ZERO,) * s for _ in range(r)] for _ in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            in_h, in_m = split(L.bracket(m.rows[a], m.rows[b]))
            h_coords[a][b], m_coords[a][b] = in_h, in_m
            h_coords[b][a], m_coords[b][a] = vneg(in_h), vneg(in_m)
    # pairing[a][b][c] = <[m_a, m_b]_m, m_c>: the nonzero m-coordinates of
    # [m_a, m_b] times the nonzero entries of their Gram rows
    gram_rows = [[(c, g) for c, g in enumerate(row) if g] for row in gram_m]
    pairing = [[(ZERO,) * r for _ in range(r)] for _ in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            line = [ZERO] * r
            for t, x in enumerate(m_coords[a][b]):
                if x:
                    for c, g in gram_rows[t]:
                        line[c] += x * g
            pairing[a][b], pairing[b][a] = tuple(line), vneg(line)
    nr_defect = tuple(
        tuple(tuple(pairing[a][b][c] + pairing[a][c][b] for c in range(r)) for b in range(r))
        for a in range(r)
    )
    nr_witness = next(
        (
            TripleWitness((a, b, c), d)
            for a, plane in enumerate(nr_defect)
            for b, line in enumerate(plane)
            for c, d in enumerate(line)
            if d
        ),
        None,
    )
    return StructureTable(
        tuple(tuple(row) for row in m_coords),
        tuple(tuple(row) for row in h_coords),
        tuple(ad_h),
        nr_defect,
        nr_witness,
    )


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
    coord_rows, proj_h, proj_m = _projections(L, h, m)
    table = _structure_table(L, h, m, coord_rows, metric.restrict(m))
    reductive = table is not None
    nr = reductive and table.nr_witness is None
    normal = (
        metric.definiteness == "positive-definite"
        and ad_invariance_check(L, metric).ok
        and m == orthogonal_complement(h, metric)
    )
    effective = _largest_ideal_in(L, h).dim == 0
    flags = ReductiveFlags(reductive, normal, nr, effective)
    return ReductivePair(L, h, m, metric, flags, proj_h, proj_m, table)


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


@dataclass(frozen=True)
class NormalizerCheck:
    ok: bool
    normalizer: SubspaceBasis
    witness: TripleWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def normalizer_invariance_check(pair: ReductivePair) -> NormalizerCheck:
    """Does the normalizer algebra of h keep m invariant: [n_g(h), m] in m?"""
    if not pair.flags.reductive:
        raise NotReductive("normalizer invariance check needs a reductive pair")
    L, h, m = pair.algebra, pair.h, pair.m
    if h.dim == 0:
        normalizer = SubspaceBasis.full(L.dim)
    else:
        ann_h = h.annihilator()
        system_rows = []
        for r in h.rows:
            # [X, r] in h  <=>  ann_h . ad(r) . X = 0 (up to sign)
            system_rows.extend(matmul(ann_h, L.ad(r)))
        normalizer = SubspaceBasis.from_vectors(L.dim, kernel(tuple(system_rows), L.dim))
    for a, u in enumerate(normalizer.rows):
        for b, w in enumerate(m.rows):
            if not m.contains_vector(L.bracket(u, w)):
                return NormalizerCheck(False, normalizer, TripleWitness((a, b, -1), ZERO))
    return NormalizerCheck(True, normalizer)


@lru_cache(maxsize=None)
def isotropy_fixed_subspace(pair: ReductivePair) -> SubspaceBasis:
    """m^h = {X in m : [h, X] = 0}, the fixed set of the isotropy action."""
    if not pair.flags.reductive:
        raise NotReductive("fixed subspace needs a reductive pair")
    if pair.h.dim == 0 or pair.m.dim == 0:
        return pair.m
    t_kernel = kernel(stack(*pair.table.ad_h), pair.m.dim)
    return SubspaceBasis.from_vectors(pair.algebra.dim, [pair.from_m_coords(t) for t in t_kernel])


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the isotropy-irreducibility probe."""

    verdict: str  # "irreducible" | "reducible" | "inconclusive"
    invariant_subspace: SubspaceBasis | None = None
    commutant_dim: int | None = 0  # None when the fixed set decided without it


def isotropy_irreducibility_probe(pair: ReductivePair) -> ProbeResult:
    """Search for a proper invariant subspace of the isotropy action on m.

    A proper nonzero fixed set m^h is invariant and decides "reducible" before
    any commutant is solved (`commutant_dim` is then None); so does m^h = m
    with dim m >= 2, where the action is trivial and the line of m_1 is
    invariant. Otherwise a trivial commutant certifies irreducibility, and a
    proper primary component of a commutant element over Q is a reducibility
    witness; failing both the probe stays honest and reports inconclusive.
    """
    if not pair.flags.reductive:
        raise NotReductive("irreducibility probe needs a reductive pair")
    m = pair.m
    if m.dim == 0:
        return ProbeResult("irreducible", None, 0)
    fixed = isotropy_fixed_subspace(pair)
    if 0 < fixed.dim < m.dim:
        return ProbeResult("reducible", fixed, None)
    if fixed.dim == m.dim >= 2:
        line = SubspaceBasis.from_vectors(pair.algebra.dim, [m.rows[0]])
        return ProbeResult("reducible", line, None)
    basis = commutant(pair.table.ad_h, m.dim)
    if len(basis) == 1:
        return ProbeResult("irreducible", None, 1)
    for T in basis:
        if is_scalar_matrix(T):
            continue
        for ker in primary_kernels(T):
            if 0 < len(ker) < m.dim:
                witness = SubspaceBasis.from_vectors(
                    pair.algebra.dim, [pair.from_m_coords(t) for t in ker]
                )
                return ProbeResult("reducible", witness, len(basis))
    return ProbeResult("inconclusive", None, len(basis))
