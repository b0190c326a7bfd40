"""Basepoint tensors of the canonical and Levi-Civita connections.

Sign conventions, fixed once and echoed in every report header:

    levi_civita(X, Y)  = -1/2 [X, Y]_m        (naturally reductive pairs only)
    canonical(X, Y)    = -[X, Y]_m
    torsion(X, Y)      = -[X, Y]_m
    curvature(X, Y)Z   = -[[X, Y]_h, Z]

The torsion follows from T(X,Y) = D_X Y - D_Y X - [X,Y] applied to the induced
Killing fields, whose Lie bracket at the basepoint is -[X,Y]_m.

Every table is read from the pair's adapted structure table, and so is the
consistency sweep (torsion antisymmetry, canonical = 2 LC, first Bianchi
identity) that the report runs under `checks="all"`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import NotNaturallyReductive, NotReductive
from .homspace import ReductivePair, StructureTable
from .linalg import ZERO, Vector, rat, smul, vneg


Table2 = tuple[tuple[Vector, ...], ...]
Table3 = tuple[tuple[tuple[Vector, ...], ...], ...]

CONVENTIONS = {
    "levi_civita": "LC(X,Y) = -1/2 [X,Y]_m",
    "canonical": "C(X,Y) = -[X,Y]_m",
    "torsion": "T(X,Y) = -[X,Y]_m",
    "curvature": "R(X,Y)Z = -[[X,Y]_h, Z]",
}


@dataclass(frozen=True)
class ConnectionTensors:
    """Connection data at the basepoint, indexed over the echelon basis of m.

    All values are ambient coordinate vectors lying in m. The curvature table
    (r^3 vectors) is built on first use; the consistency sweep does not read it.
    """

    pair: ReductivePair
    canonical_table: Table2
    torsion_table: Table2
    _lc: Table2 | None

    @cached_property
    def curvature_table(self) -> Table3:
        table, r = self.pair.table, self.pair.m.dim
        return tuple(
            tuple(
                tuple(self.pair.from_m_coords(_curvature(table, a, b, c)) for c in range(r))
                for b in range(r)
            )
            for a in range(r)
        )

    @property
    def lc_table(self) -> Table2:
        if self._lc is None:
            raise NotNaturallyReductive(
                "Levi-Civita basepoint table needs a naturally reductive pair"
            )
        return self._lc

    @property
    def has_lc(self) -> bool:
        return self._lc is not None


def connection_tensors_at_basepoint(pair: ReductivePair) -> ConnectionTensors:
    """Compute all basepoint tables exactly over the basis of m."""
    if not pair.flags.reductive:
        raise NotReductive("connection tensors need a reductive pair")
    table = pair.table
    r = pair.m.dim
    canonical = tuple(
        tuple(vneg(pair.from_m_coords(table.m_coords[a][b])) for b in range(r))
        for a in range(r)
    )
    torsion = canonical
    lc = None
    if pair.flags.naturally_reductive:
        half = rat("1/2")
        lc = tuple(tuple(smul(half, v) for v in row) for row in canonical)
    return ConnectionTensors(pair, canonical, torsion, lc)


def _curvature(table: StructureTable, a: int, b: int, c: int) -> Vector:
    """m-coordinates of R(m_a, m_b)m_c = -[[m_a, m_b]_h, m_c]."""
    out = [ZERO] * len(table.m_coords)
    for i, y in enumerate(table.h_coords[a][b]):
        if y:
            for t, row in enumerate(table.ad_h[i]):
                if row[c]:
                    out[t] -= y * row[c]
    return tuple(out)


def consistency_sweep(tensors: ConnectionTensors) -> dict[str, bool]:
    """Torsion antisymmetry, canonical = 2 LC (when LC exists) and the first
    Bianchi identity sum_cyc R(X,Y)Z = sum_cyc T(T(X,Y), Z) over basis triples
    of m, all exact."""
    table = tensors.pair.table
    r = tensors.pair.m.dim
    torsion = tensors.torsion_table
    antisym = all(
        torsion[a][b] == vneg(torsion[b][a]) for a in range(r) for b in range(r)
    )
    doubling = (not tensors.has_lc) or all(
        tensors.canonical_table[a][b] == smul(rat(2), tensors.lc_table[a][b])
        for a in range(r)
        for b in range(r)
    )

    def nonzero(v: Vector) -> tuple[tuple[int, Fraction], ...]:
        return tuple((t, x) for t, x in enumerate(v) if x)

    m_terms = [[nonzero(v) for v in row] for row in table.m_coords]
    h_terms = [[nonzero(v) for v in row] for row in table.h_coords]
    # ad_cols[i][z] = nonzero m-coordinates of [h_i, m_z]
    ad_cols = [[nonzero(col) for col in zip(*A)] for A in table.ad_h]

    def bianchi_holds(a: int, b: int, c: int) -> bool:
        # in m-coordinates, where T(T(m_x, m_y), m_z) = [[m_x, m_y]_m, m_z]_m
        # and R(m_x, m_y)m_z = -[[m_x, m_y]_h, m_z]
        total: dict[int, Fraction] = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for i, coef in h_terms[x][y]:
                for t, q in ad_cols[i][z]:
                    total[t] = total.get(t, ZERO) - coef * q
            for s, coef in m_terms[x][y]:
                for t, q in m_terms[s][z]:
                    total[t] = total.get(t, ZERO) - coef * q
        return not any(total.values())

    bianchi = all(
        bianchi_holds(a, b, c) for a in range(r) for b in range(a + 1, r) for c in range(r)
    )
    return {
        "torsion_antisymmetric": antisym,
        "canonical_equals_twice_lc": doubling,
        "bianchi_cyclic_identity": bianchi,
    }
