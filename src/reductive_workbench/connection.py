"""Basepoint tensors of the canonical and Levi-Civita connections.

Sign conventions, fixed once and echoed in every report header:

    levi_civita(X, Y)  = -1/2 [X, Y]_m        (naturally reductive pairs only)
    canonical(X, Y)    = -[X, Y]_m
    torsion(X, Y)      = -[X, Y]_m
    curvature(X, Y)Z   = -[[X, Y]_h, Z]

The torsion follows from T(X,Y) = D_X Y - D_Y X - [X,Y] applied to the induced
Killing fields, whose Lie bracket at the basepoint is -[X,Y]_m.

The consistency sweep (torsion antisymmetry, canonical = 2 LC, first Bianchi
identity) that the report runs under `checks="all"` sums the integer terms of
the pair's adapted table in m-coordinates; the tables of ambient vectors are
views of it, divided once per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import NotNaturallyReductive, NotReductive
from .homspace import AdaptedTable, ReductivePair, Terms
from .linalg import ONE, Vector

HALF = Fraction(1, 2)


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

    The tables hold ambient vectors lying in m. Each is a view of the pair's
    adapted table, built on first use; the consistency sweep reads none.
    """

    pair: ReductivePair

    def _view(self, scale: Fraction) -> Table2:
        table, r = self.pair.table, self.pair.m.dim
        scale /= table.scale
        return tuple(
            tuple(self.pair.from_m_terms(_m_part(table, a, b, scale).items()) for b in range(r))
            for a in range(r)
        )

    @cached_property
    def canonical_table(self) -> Table2:
        return self._view(-ONE)

    @property
    def torsion_table(self) -> Table2:
        return self.canonical_table

    @cached_property
    def lc_table(self) -> Table2:
        if not self.has_lc:
            raise NotNaturallyReductive(
                "Levi-Civita basepoint table needs a naturally reductive pair"
            )
        return self._view(-HALF)

    @cached_property
    def curvature_table(self) -> Table3:
        table, r = self.pair.table, self.pair.m.dim
        return tuple(
            tuple(
                tuple(self.pair.from_m_terms(_curvature(table, a, b, c).items()) for c in range(r))
                for b in range(r)
            )
            for a in range(r)
        )

    @property
    def has_lc(self) -> bool:
        return self.pair.flags.naturally_reductive


def connection_tensors_at_basepoint(pair: ReductivePair) -> ConnectionTensors:
    """The basepoint tensors over the basis of m; their tables are views."""
    if not pair.flags.reductive:
        raise NotReductive("connection tensors need a reductive pair")
    return ConnectionTensors(pair)


def _m_part(table: AdaptedTable, a: int, b: int, scale: Fraction) -> dict[int, Fraction]:
    """m-coordinates of scale [m_a, m_b]_m, over the table's scale: C = T at scale -1, LC at -1/2."""
    sign, _, in_m = table.entry(a, b)
    return {t: sign * scale * x for t, x in in_m}


def _curvature(table: AdaptedTable, a: int, b: int, c: int) -> dict[int, Fraction]:
    """m-coordinates of R(m_a, m_b)m_c = -[[m_a, m_b]_h, m_c], summed in integers and divided once."""
    sign, in_h, _ = table.entry(a, b)
    out: dict[int, int] = {}
    for i, y in in_h:
        for t, v in table.ad_h[i][c]:
            out[t] = out.get(t, 0) - sign * y * v
    return {t: Fraction(v, table.scale**2) for t, v in out.items()}


def consistency_sweep(tensors: ConnectionTensors) -> dict[str, bool]:
    """Torsion antisymmetry, canonical = 2 LC (when LC exists) and the first
    Bianchi identity sum_cyc R(X,Y)Z = sum_cyc T(T(X,Y), Z) over basis triples
    of m, all exact and in m-coordinates.

    The table stores each [m_a, m_b] once, so the Bianchi defect alternates
    in its three slots: it vanishes on a repeated index and changes sign
    under a swap, and the triples a < b < c decide it."""
    table = tensors.pair.table
    r = tensors.pair.m.dim
    pairs = [(a, b) for a in range(r) for b in range(r)]
    antisym = all(_m_part(table, a, b, -ONE) == _m_part(table, b, a, ONE) for a, b in pairs)
    doubling = (not tensors.has_lc) or all(
        _m_part(table, a, b, -ONE) == {t: 2 * x for t, x in _m_part(table, a, b, -HALF).items()}
        for a, b in pairs
    )

    def bianchi_holds(a: int, b: int, c: int) -> bool:
        # R(m_x, m_y)m_z - T(T(m_x, m_y), m_z) = -[[m_x, m_y]_h, m_z] - [[m_x, m_y]_m, m_z]_m,
        # summed in integers over the square of the table's scale
        products: list[tuple[int, Terms]] = []
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            sign, in_h, in_m = table.entry(x, y)
            products.extend((-sign * coef, table.ad_h[i][z]) for i, coef in in_h)
            for s, coef in in_m:
                sign2, _, m2 = table.entry(s, z)
                products.append((-sign * sign2 * coef, m2))
        total: dict[int, int] = {}
        for coef, terms in products:
            for t, q in terms:
                total[t] = total.get(t, 0) + coef * q
        return not any(total.values())

    bianchi = all(
        bianchi_holds(a, b, c)
        for a in range(r)
        for b in range(a + 1, r)
        for c in range(b + 1, r)
    )
    return {
        "torsion_antisymmetric": antisym,
        "canonical_equals_twice_lc": doubling,
        "bianchi_cyclic_identity": bianchi,
    }
