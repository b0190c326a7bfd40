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

    All values are ambient coordinate vectors lying in m.
    """

    pair: ReductivePair
    canonical_table: Table2
    torsion_table: Table2
    curvature_table: Table3
    _lc: Table2 | None

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
    curvature = tuple(
        tuple(
            tuple(pair.from_m_coords(_curvature(table, a, b, c)) for c in range(r))
            for b in range(r)
        )
        for a in range(r)
    )
    lc = None
    if pair.flags.naturally_reductive:
        half = rat("1/2")
        lc = tuple(tuple(smul(half, v) for v in row) for row in canonical)
    return ConnectionTensors(pair, canonical, torsion, curvature, lc)


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

    def bianchi_holds(a: int, b: int, c: int) -> bool:
        # in m-coordinates, where T(T(m_x, m_y), m_z) = [[m_x, m_y]_m, m_z]_m
        total = [ZERO] * r
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for t, p in enumerate(_curvature(table, x, y, z)):
                if p:
                    total[t] += p
            for s, coef in enumerate(table.m_coords[x][y]):
                if coef:
                    for t, q in enumerate(table.m_coords[s][z]):
                        if q:
                            total[t] -= coef * q
        return not any(total)

    bianchi = all(
        bianchi_holds(a, b, c) for a in range(r) for b in range(a + 1, r) for c in range(r)
    )
    return {
        "torsion_antisymmetric": antisym,
        "canonical_equals_twice_lc": doubling,
        "bianchi_cyclic_identity": bianchi,
    }
