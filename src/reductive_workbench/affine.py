"""Transvection algebra, invariant-field algebra, affine assembly and the
fixed-point torus of a reductive pair, with the gated isometry identification.

Bracket convention on the invariant-field algebra k (carrier m^h):

    [X, Y]_k = -[X, Y]_m

The opposite sign gives the anti-isomorphic algebra; comparisons are made only
through isomorphism invariants (dimension, center dimension, Killing inertia).

Each structure is built from what the pair already proves and is not
re-checked: m^h is bracket-closed on a reductive pair, which every pair is
by construction, g1 = [g, g] is an ideal, and on a normal pair g's metric
restricts to an invariant one on k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NotEffective, NotNormal
from .homspace import ReductivePair, isotropy_fixed_subspace
from .liealg import (
    CheckResult,
    LieAlgebra,
    SubspaceBasis,
    _canonical,
    _invariance_witness,
    center,
    derived_subalgebra,
    orthogonal_complement,
)
from .linalg import matmul, matvec, rref, transpose, _add_row_mod_p, _integer_rows
from .record import Record

K_BRACKET_CONVENTION = "[X,Y]_k = -[X,Y]_m"
ALMOST_DIRECT_PRODUCT_NOTE = (
    "factors commute at the Lie-algebra level; the corresponding groups may "
    "intersect in a discrete subgroup, which is not modeled here"
)
LOCAL_IRREDUCIBILITY_CAVEAT = (
    "local irreducibility is a global Riemannian hypothesis; the algebraic probe "
    "certifies only the sufficient case of an irreducible isotropy representation"
)
SPHERE_GATE_CAVEAT = (
    "identification of the full isometry group additionally assumes the space is "
    "not globally isometric to a sphere or a real projective space (user-asserted, "
    "not computed)"
)


def transvection_algebra(pair: ReductivePair) -> SubspaceBasis:
    """span([m, m]) + m inside g: m plus the h-parts of the [m_a, m_b], a < b,
    read from the adapted table.

    It is an ideal of g for every reductive pair, so it gets no sweep: [h, m]
    and [m, h] lie in m, and for h_i in h, [h_i, [X, Y]_h] is [h_i, [X, Y]]
    (in [m, m]) minus [h_i, [X, Y]_m] (in m)."""
    s = pair.h.dim
    h_parts = [  # sorted terms: [m_a, m_b] has an h-part iff its first term is one
        {t: v for t, v in terms if t < s}
        for x, row in enumerate(pair.table.rows[s:], s)
        for z, terms in row.items()
        if z > x and terms[0][0] < s
    ]
    if not h_parts:  # [m, m] lies in m, and m is reduced already
        return pair.m
    # the h-parts are integer h-coordinates over the table's scale; their rank
    # over Q is at least their rank mod PRIME, so at dim h they span h and m + h = g
    pivots: dict[int, dict[int, int]] = {}
    if any(_add_row_mod_p(pivots, row) and len(pivots) == s for row in h_parts):
        return SubspaceBasis.full(pair.algebra.dim)
    span, _ = rref(h_parts, s)  # only the rref rows of their span are mapped through h
    vectors = [*pair.m.rows, *matmul(span, pair.h.rows)]
    return SubspaceBasis.from_vectors(pair.algebra.dim, vectors)


class TransvectionCheck(Record):
    equals_g: bool
    transvection: SubspaceBasis
    complement: SubspaceBasis  # orthogonal complement; zero when equals_g
    complement_in_h: bool

    def __bool__(self) -> bool:
        return self.equals_g


def transvection_equals_g_check(pair: ReductivePair) -> TransvectionCheck:
    """Does the transvection algebra exhaust g? For effective normal pairs it must."""
    if not pair.flags.normal:
        raise NotNormal("transvection comparison is stated for normal pairs")
    L = pair.algebra
    tr = transvection_algebra(pair)
    if tr.dim == L.dim:
        zero = SubspaceBasis.zero(L.dim)
        return TransvectionCheck(True, tr, zero, True)
    comp = orthogonal_complement(tr, pair.metric)
    return TransvectionCheck(False, tr, comp, pair.h.contains(comp))


class InvariantFieldAlgebra(Record):
    """The algebra k of isotropy-fixed directions with bracket -[.,.]_m."""

    carrier: SubspaceBasis  # m^h, in ambient coordinates
    algebra: LieAlgebra  # bracket table on the carrier basis (a Lie algebra by construction)
    center: SubspaceBasis  # ambient coordinates
    status: str  # "invariant-fields" (normal pair) or "upper-bound-candidate"

    @property
    def dim(self) -> int:
        return self.carrier.dim


@lru_cache(maxsize=None)
def invariant_field_algebra(pair: ReductivePair) -> InvariantFieldAlgebra:
    """Carrier m^h with the bracket -[X, Y]_m, read in m-coordinates.

    The carrier rows lie in m, whose rows are reduced echelon, so their
    m-coordinates are their entries at the pivots of m and are reduced echelon
    themselves. m^h is closed under [., .]_m ([h, [X, Y]_m] = -[h, [X, Y]_h]
    lies in h and in m), so the carrier coordinates of a bracket are its
    values at the carrier's leading m-indices. k gets no Jacobi sweep, as it
    is the opposite of n_g(h)/h, and no metric check (module docstring)."""
    carrier = isotropy_fixed_subspace(pair)
    status = "invariant-fields" if pair.flags.normal else "upper-bound-candidate"
    # the carrier's m-coordinates over one denominator D are rref: row k is D at
    # its leading m-index and zero at the others'
    D, rows = _integer_rows(dict(pair.m_terms(x)) for x in carrier.rows)
    lead_of = {x[0][0]: k for k, x in enumerate(rows)}  # leading adapted m-index -> carrier row
    entries = []
    for a in range(carrier.dim):
        for b in range(a + 1, carrier.dim):
            # [X_a, X_b]_k = sum c_k X_k iff [X_a, X_b]_m + sum c_k X_k = 0; bracket is over scale D^2
            bracket = pair.table.bracket(rows[a], rows[b])
            coords = sorted((lead_of[t], -v) for t, v in bracket.items() if v and t in lead_of)
            entries.extend((a, b, k, Fraction(c, pair.table.scale * D * D)) for k, c in coords)
    labels = tuple(f"k{a + 1}" for a in range(carrier.dim))
    algebra = LieAlgebra(carrier.dim, labels, tuple(entries))
    basis_t = transpose(carrier.rows)
    # rref k-coordinates through the rref carrier rows are the rref of the center
    center_ambient = _canonical(pair.algebra.dim, [matvec(basis_t, t) for t in center(algebra).rows])
    return InvariantFieldAlgebra(carrier, algebra, center_ambient, status)


def invariant_field_killing_check(pair: ReductivePair) -> CheckResult:
    """Infinitesimal isometry identity for every fixed direction X:
    <[X,Y]_m, Z> + <Y, [X,Z]_m> = 0 over all Y, Z in the basis of m.

    The defect is linear in X, so it is the naturally reductive defect
    contracted with the m-coordinates of X; when the adapted table has no
    naturally reductive witness, that defect and every contraction vanish."""
    if pair.table.nr_witness is None:
        return CheckResult(True)
    table = pair.table
    D, rows = _integer_rows(dict(pair.m_terms(x)) for x in isotropy_fixed_subspace(pair).rows)
    witness = _invariance_witness(map(table.m_operator, rows), table.gram, D * table.scale * table.gram_scale)
    return CheckResult(witness is None, witness)


class AffineAlgebra(Record):
    """Direct sum of the semisimple part of g with the invariant-field algebra."""

    g1: SubspaceBasis
    k: InvariantFieldAlgebra
    total_dim: int
    assembled: LieAlgebra


def affine_algebra(pair: ReductivePair) -> AffineAlgebra:
    """Assemble g1 + k with componentwise bracket; the two factors commute.

    Requires a normal, effective pair, and these preconditions decide what is
    not re-checked here. The center of g injects into k through the m-projection:
    for z central, [h, z_m] = -[h, z_h] lies in h and in m, so z_m is
    isotropy-fixed, and z_m = 0 would make the line of z an ideal inside h.
    No nonzero vector of g1 centralizes g1, since g is compact and so
    g1 = [g, g] is semisimple. g1 + k is nonzero on a nonzero g: g1 = 0 makes
    g abelian, so h = 0 and k = m = g.
    """
    if not pair.flags.normal:
        raise NotNormal("affine assembly is stated for normal pairs")
    if not pair.flags.effective:
        raise NotEffective("affine assembly needs an effective pair")
    L = pair.algebra
    g1 = derived_subalgebra(L)
    k = invariant_field_algebra(pair)
    total = g1.dim + k.dim
    if g1.dim == L.dim:
        # g1 = g: its rows are the unit vectors, so its table is g's own
        entries = list(L.entries)
    else:
        entries = []
        for a in range(g1.dim):
            for b in range(a + 1, g1.dim):
                # g1 is an ideal with rref rows: the bracket's coordinates are its pivot entries
                value = L.bracket(g1.rows[a], g1.rows[b])
                entries.extend((a, b, t, value[p]) for t, p in enumerate(g1.pivots) if value[p])
    s = g1.dim
    entries.extend((s + i, s + j, s + t, c) for i, j, t, c in k.algebra.entries)
    labels = [f"g1_{a + 1}" for a in range(g1.dim)] + [f"k{a + 1}" for a in range(k.dim)]
    # No Jacobi sweep: g1 is g or an ideal of the checked g, and k is a Lie
    # algebra by construction. The entries are already sorted, nonzero and
    # have i < j.
    assembled = LieAlgebra(total, tuple(labels), tuple(entries))
    return AffineAlgebra(g1, k, total, assembled)


class TorusResult(Record):
    dimension: int
    basis: SubspaceBasis  # ambient coordinates, inside the carrier of k
    abelian: bool  # [u, w]_m = 0 for all basis rows u, w, checked exactly


def fixed_torus(pair: ReductivePair) -> TorusResult:
    """Center of the invariant-field algebra, with an exact commutativity check."""
    if not pair.flags.normal:
        raise NotNormal("the fixed-point torus is stated for normal pairs")
    basis = invariant_field_algebra(pair).center
    s = pair.h.dim
    coords = [pair.m_terms(u) for u in basis.rows]
    brackets = (pair.table.bracket(x, y).items() for x in coords for y in coords)
    abelian = not any(v for bracket in brackets for t, v in bracket if t >= s)
    return TorusResult(basis.dim, basis, abelian)


class UserAssertions(Record):
    """Global Riemannian facts the engine cannot compute; None means unasserted."""

    locally_irreducible: bool | None = None
    is_sphere_or_rp: bool | None = None


class IsometryFragment(Record):
    certified: bool
    group_dim: int | None
    semisimple: bool | None
    caveats: tuple[str, ...]


def isometry_report(
    pair: ReductivePair,
    assertions: UserAssertions | None,
    probe: str,
    affine: AffineAlgebra | None,
) -> IsometryFragment:
    """Emit the isometry identification when the gates pass.

    Gate 1: the isotropy probe's verdict is "irreducible", or the user asserts
    local irreducibility. Gate 2: the user asserts the space is not a sphere or
    a real projective space. Otherwise only the affine algebra is certified.
    `affine` is the pair's affine algebra, None exactly when the pair is not
    normal and effective.
    """
    assertions = assertions or UserAssertions()
    caveats = [ALMOST_DIRECT_PRODUCT_NOTE]
    if not (pair.flags.normal and pair.flags.effective):
        caveats.append("identification requires an effective normal pair")
        return IsometryFragment(False, None, None, tuple(caveats))
    irreducibility_ok = probe == "irreducible" or assertions.locally_irreducible is True
    sphere_ok = assertions.is_sphere_or_rp is False
    caveats.append(LOCAL_IRREDUCIBILITY_CAVEAT)
    if irreducibility_ok and sphere_ok:
        semisimple = affine.k.center.dim == 0
        caveats.append(SPHERE_GATE_CAVEAT)
        return IsometryFragment(True, affine.total_dim, semisimple, tuple(caveats))
    if not irreducibility_ok:
        caveats.append(
            f"local irreducibility not established (probe: {probe}; no user assertion)"
        )
    if not sphere_ok:
        caveats.append("sphere / real projective space not excluded by the user")
    caveats.append("isometry identification not certified; only the affine algebra is")
    return IsometryFragment(False, affine.total_dim, None, tuple(caveats))
