"""Consistency of the canonical connection at the basepoint.

Sign conventions, fixed once and echoed in every report header:

    levi_civita(X, Y)  = -1/2 [X, Y]_m        (naturally reductive pairs only)
    canonical(X, Y)    = -[X, Y]_m
    torsion(X, Y)      = -[X, Y]_m
    curvature(X, Y)Z   = -[[X, Y]_h, Z]

The torsion follows from T(X,Y) = D_X Y - D_Y X - [X,Y] applied to the induced
Killing fields, whose Lie bracket at the basepoint is -[X,Y]_m.

Each tensor is a reading of the bracket, so the consistency sweep that the
report runs under `checks="all"` reads the pair's adapted table alone: torsion
antisymmetry from its diagonal, C = 2 LC from the naturally reductive witness
(LC differs from -1/2 [X,Y]_m by the Koszul term U(X,Y), and U = 0 is that
identity) and the Bianchi identity through the Jacobi check's cyclic routine.
"""

from __future__ import annotations

from .errors import NotReductive
from .homspace import AdaptedTable, ReductivePair, Terms
from .liealg import _cyclic_witness

CONVENTIONS = {
    "levi_civita": "LC(X,Y) = -1/2 [X,Y]_m",
    "canonical": "C(X,Y) = -[X,Y]_m",
    "torsion": "T(X,Y) = -[X,Y]_m",
    "curvature": "R(X,Y)Z = -[[X,Y]_h, Z]",
}


def connection_tensors_at_basepoint(pair: ReductivePair) -> AdaptedTable:
    """The adapted table, from which every basepoint tensor above is read."""
    if not pair.flags.reductive:
        raise NotReductive("connection tensors need a reductive pair")
    return pair.table


def consistency_sweep(table: AdaptedTable) -> dict[str, bool]:
    """Torsion antisymmetry, canonical = 2 LC and the first Bianchi identity
    sum_cyc R(X,Y)Z = sum_cyc T(T(X,Y), Z) over basis triples of m, all exact.

    T is bilinear and the table reads [m_b, m_a] as -[m_a, m_b], so T is
    antisymmetric iff no stored [m_a, m_a] has an m-part. By Koszul, LC
    differs from -1/2 [X,Y]_m by U(X,Y), where
    2<U(X,Y), Z> = <[Z,X]_m, Y> + <X, [Z,Y]_m>, so C = 2 LC iff U = 0: iff
    the table has no naturally reductive witness.

    The Bianchi defect is minus the m-part of the Jacobi sum of m_x, m_y, m_z,
    so the Jacobi check's cyclic routine decides it, in adapted indices (h_i
    is i, m_a is s + a): rows are the integer terms of [m_a, m_b], images the
    m-parts of [h_i, m_c] and [m_a, m_c]. The defect alternates in its slots,
    so the triples a < b < c decide it."""
    s, r = len(table.ad_h), len(table.pairs)

    def terms(a: int, b: int) -> Terms:
        sign, in_h, in_m = table.entry(a, b)
        return tuple((i, sign * v) for i, v in in_h) + tuple((s + t, sign * v) for t, v in in_m)

    rows = {s + a: {s + b: terms(a, b) for b in range(r)} for a in range(r)}
    images = [dict(zip(rows, cols)) for cols in table.ad_h] + [
        {z: tuple((l - s, c) for l, c in lc if l >= s) for z, lc in row.items()} for row in rows.values()
    ]
    return {
        "torsion_antisymmetric": not any(v for a in range(r) for _, v in table.entry(a, a)[2]),
        "canonical_equals_twice_lc": table.nr_witness is None,
        "bianchi_cyclic_identity": _cyclic_witness(rows, images, range(s, s + r)) is None,
    }
