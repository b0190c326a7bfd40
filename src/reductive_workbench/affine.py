"""Transvection algebra, invariant-field algebra, affine assembly and the
fixed-point torus of a reductive pair, with the gated isometry identification.

Bracket convention on the invariant-field algebra k (carrier m^h):

    [X, Y]_k = -[X, Y]_m

The opposite sign gives the anti-isomorphic algebra; comparisons are made only
through isomorphism invariants (dimension, center dimension, Killing inertia).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    ClosureFailure,
    NotCompactType,
    NotEffective,
    NotInFixedSubspace,
    NotNormal,
    NotReductive,
)
from .homspace import (
    ProbeResult,
    ReductivePair,
    isotropy_fixed_subspace,
    isotropy_irreducibility_probe,
)
from .liealg import (
    BilinearForm,
    CheckResult,
    LieAlgebra,
    SubspaceBasis,
    TripleWitness,
    ad_invariance_check,
    center,
    centralizer,
    derived_subalgebra,
    is_subalgebra,
    killing_form,
    make_bilinear_form,
    make_lie_algebra,
    orthogonal_complement,
)
from .linalg import Matrix, ZERO, matvec, transpose

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
    """span([m, m]) + m inside g; verified to be a subalgebra (an ideal when normal).

    It is m plus the h-parts of the [m_a, m_b], read from the adapted table.
    A span that is all of g is both at once and needs no sweep. A failed
    verification raises ClosureFailure with the offending pair of rows."""
    if not pair.flags.reductive:
        raise NotReductive("transvection algebra needs a reductive pair")
    L = pair.algebra
    vectors = list(pair.m.rows)
    for row in pair.table.pairs:
        vectors.extend(pair.from_h_terms(in_h) for in_h, _ in row.values() if in_h)
    tr = SubspaceBasis.from_vectors(L.dim, vectors)
    if tr.dim == L.dim:
        return tr
    closed = is_subalgebra(L, tr)
    if not closed.ok:
        raise ClosureFailure(closed.witness, "transvection span is not bracket-closed")
    if pair.flags.normal:
        # [e_i, w] is minus column i of ad(w)
        ads = [L.ad(w) for w in tr.rows]
        for i in range(L.dim):
            for b, A in enumerate(ads):
                if not tr.contains_vector(tuple(row[i] for row in A)):
                    raise ClosureFailure(
                        TripleWitness((i, b, -1), ZERO),
                        "transvection algebra of a normal pair is not an ideal",
                    )
    return tr


@dataclass(frozen=True)
class TransvectionCheck:
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


@dataclass(frozen=True)
class InvariantFieldAlgebra:
    """The algebra k of isotropy-fixed directions with bracket -[.,.]_m."""

    carrier: SubspaceBasis  # m^h, in ambient coordinates
    algebra: LieAlgebra  # bracket table on the carrier basis (Jacobi-validated)
    gram: Matrix  # ambient metric restricted to the carrier
    metric_invariant: bool
    compact_type: bool
    center: SubspaceBasis  # ambient coordinates
    status: str  # "invariant-fields" (normal pair) or "upper-bound-candidate"

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @property
    def killing(self) -> BilinearForm:
        return killing_form(self.algebra)


@lru_cache(maxsize=None)
def invariant_field_algebra(pair: ReductivePair) -> InvariantFieldAlgebra:
    """Carrier m^h with the projected bracket; closure and Jacobi are verified."""
    if not pair.flags.reductive:
        raise NotReductive("invariant-field algebra needs a reductive pair")
    carrier = isotropy_fixed_subspace(pair)
    status = "invariant-fields" if pair.flags.normal else "upper-bound-candidate"
    in_m = [pair.split(x)[1] for x in carrier.rows]
    # the carrier lies in m, so its Gram matrix pairs m-coordinates through the
    # metric on m: images[a][c] = <carrier row a, m_c>
    images = [{} for _ in in_m]
    for image, x in zip(images, in_m):
        for t, v in x:
            for c, g in pair.table.gram[t]:
                image[c] = image.get(c, ZERO) + v * g
    gram = tuple(
        tuple(sum((v * image.get(t, ZERO) for t, v in y), ZERO) for y in in_m) for image in images
    )
    entries = []
    for a in range(carrier.dim):
        for b in range(a + 1, carrier.dim):
            value = pair.table.bracket(in_m[a], in_m[b])[1]
            coords = carrier.coords_of(pair.from_m_terms((t, -v) for t, v in value.items()))
            if coords is None:
                raise ClosureFailure(
                    TripleWitness((a, b, -1), ZERO), "invariant-field carrier is not bracket-closed"
                )
            entries.extend((a, b, k, c) for k, c in enumerate(coords) if c)
    algebra = make_lie_algebra(
        carrier.dim, entries, [f"k{a + 1}" for a in range(carrier.dim)]
    )
    form = make_bilinear_form(gram)
    metric_invariant = ad_invariance_check(algebra, form).ok
    posdef = form.definiteness == "positive-definite"
    basis_t = transpose(carrier.rows)
    center_ambient = SubspaceBasis.from_vectors(
        pair.algebra.dim, [matvec(basis_t, t) for t in center(algebra).rows]
    )
    return InvariantFieldAlgebra(
        carrier, algebra, gram, metric_invariant,
        posdef and metric_invariant, center_ambient, status,
    )


def invariant_field_killing_check(pair: ReductivePair) -> CheckResult:
    """Infinitesimal isometry identity for every fixed direction X:
    <[X,Y]_m, Z> + <Y, [X,Z]_m> = 0 over all Y, Z in the basis of m.

    The defect is linear in X, so it is the naturally reductive defect
    contracted with the m-coordinates of X; when the adapted table has no
    naturally reductive witness, that defect and every contraction vanish."""
    if not pair.flags.reductive:
        raise NotReductive("Killing check needs a reductive pair")
    if pair.table.nr_witness is None:
        return CheckResult(True)
    rows = isotropy_fixed_subspace(pair).rows
    witnesses = (pair.table.nr_defect_witness(pair.split(x)[1], a) for a, x in enumerate(rows))
    witness = next(filter(None, witnesses), None)
    return CheckResult(witness is None, witness)


@dataclass(frozen=True)
class AffineAlgebra:
    """Direct sum of the semisimple part of g with the invariant-field algebra."""

    g1: SubspaceBasis
    k: InvariantFieldAlgebra
    total_dim: int
    assembled: LieAlgebra


def affine_algebra(pair: ReductivePair) -> AffineAlgebra:
    """Assemble g1 + k with componentwise bracket; the two factors commute.

    Requires a normal, effective pair. Verifies that the center of g embeds
    into k and that carrier vectors inside g1 centralizing g1 vanish.
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
        g1_centralizer = center(L)
    else:
        entries = []
        for a in range(g1.dim):
            for b in range(a + 1, g1.dim):
                value = L.bracket(g1.rows[a], g1.rows[b])
                coords = g1.coords_of(value)
                if coords is None:
                    raise ClosureFailure(
                        TripleWitness((a, b, -1), ZERO),
                        "derived subalgebra is not bracket-closed",
                    )
                entries.extend((a, b, t, c) for t, c in enumerate(coords) if c)
        g1_centralizer = centralizer(L, g1)
    for a in range(k.dim):
        for b in range(a + 1, k.dim):
            for t, c in enumerate(k.algebra.bracket_basis(a, b)):
                if c:
                    entries.append((g1.dim + a, g1.dim + b, g1.dim + t, c))
    if total == 0 and L.dim:
        # then g is abelian with m^h = m = 0, so h = g is an ideal inside h
        raise NotEffective("an effective pair on a nonzero algebra has a nonzero affine algebra")
    labels = [f"g1_{a + 1}" for a in range(g1.dim)] + [f"k{a + 1}" for a in range(k.dim)]
    # No Jacobi sweep: g1 is g or a closed subalgebra of the checked g (coords_of
    # above) and k was checked when it was built. The entries are already
    # sorted, nonzero and have i < j.
    assembled = LieAlgebra(total, tuple(labels), tuple(entries))
    # center of g must inject into k through the m-projection
    zg = center(L)
    if zg.dim:
        images = [pair.project_m(z) for z in zg.rows]
        for i, v in enumerate(images):
            if not k.carrier.contains_vector(v):
                raise NotInFixedSubspace(f"central direction {i} of g is not isotropy-fixed")
        if SubspaceBasis.from_vectors(L.dim, images).dim != zg.dim:
            # a central direction inside h spans an ideal inside h
            raise NotEffective("center of g does not inject into k")
    # carrier vectors inside g1 that centralize g1 vanish
    overlap = k.carrier.intersect(g1).intersect(g1_centralizer)
    if overlap.dim:
        raise NotCompactType("semisimple Killing fields meet k away from zero")
    return AffineAlgebra(g1, k, total, assembled)


@dataclass(frozen=True)
class TorusResult:
    dimension: int
    basis: SubspaceBasis  # ambient coordinates, inside the carrier of k
    abelian: bool  # [u, w]_m = 0 for all basis rows u, w, checked exactly


def fixed_torus(pair: ReductivePair) -> TorusResult:
    """Center of the invariant-field algebra, with an exact commutativity check."""
    if not pair.flags.normal:
        raise NotNormal("the fixed-point torus is stated for normal pairs")
    basis = invariant_field_algebra(pair).center
    coords = [pair.split(u)[1] for u in basis.rows]
    abelian = all(not any(pair.table.bracket(x, y)[1].values()) for x in coords for y in coords)
    return TorusResult(basis.dim, basis, abelian)


@dataclass(frozen=True)
class UserAssertions:
    """Global Riemannian facts the engine cannot compute; None means unasserted."""

    locally_irreducible: bool | None = None
    is_sphere_or_rp: bool | None = None


@dataclass(frozen=True)
class IsometryFragment:
    certified: bool
    group_dim: int | None
    semisimple: bool | None
    probe: ProbeResult | None
    caveats: tuple[str, ...]


def isometry_report(
    pair: ReductivePair,
    assertions: UserAssertions | None = None,
    probe: ProbeResult | None = None,
    affine: AffineAlgebra | None = None,
) -> IsometryFragment:
    """Emit the isometry identification when the gates pass.

    Gate 1: the isotropy probe certifies irreducibility, or the user asserts
    local irreducibility. Gate 2: the user asserts the space is not a sphere or
    a real projective space. Otherwise only the affine algebra is certified.
    Precomputed probe/affine results may be passed to avoid recomputation.
    """
    assertions = assertions or UserAssertions()
    caveats = [ALMOST_DIRECT_PRODUCT_NOTE]
    if not (pair.flags.normal and pair.flags.effective):
        caveats.append("identification requires an effective normal pair")
        return IsometryFragment(False, None, None, None, tuple(caveats))
    probe = probe or isotropy_irreducibility_probe(pair)
    aff = affine or affine_algebra(pair)
    irreducibility_ok = probe.verdict == "irreducible" or assertions.locally_irreducible is True
    sphere_ok = assertions.is_sphere_or_rp is False
    caveats.append(LOCAL_IRREDUCIBILITY_CAVEAT)
    if irreducibility_ok and sphere_ok:
        semisimple = aff.k.center.dim == 0
        caveats.append(SPHERE_GATE_CAVEAT)
        return IsometryFragment(True, aff.total_dim, semisimple, probe, tuple(caveats))
    if not irreducibility_ok:
        caveats.append(
            f"local irreducibility not established (probe: {probe.verdict}; no user assertion)"
        )
    if not sphere_ok:
        caveats.append("sphere / real projective space not excluded by the user")
    caveats.append("isometry identification not certified; only the affine algebra is")
    return IsometryFragment(False, aff.total_dim, None, probe, tuple(caveats))
