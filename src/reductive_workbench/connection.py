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
from .homspace import AdaptedTable, ReductivePair
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

    T is bilinear and the table stores [m_b, m_a] as -[m_a, m_b], so T is
    antisymmetric iff no stored [m_a, m_a] has an m-part. By Koszul, LC
    differs from -1/2 [X,Y]_m by U(X,Y), where
    2<U(X,Y), Z> = <[Z,X]_m, Y> + <X, [Z,Y]_m>, so C = 2 LC iff U = 0: iff
    the table has no naturally reductive witness.

    The Bianchi defect is minus the m-part of the Jacobi sum of m_x, m_y, m_z,
    so the Jacobi check's cyclic routine decides it on the table as stored,
    counting the coordinates from index s = dim h on: the m-parts. The defect
    alternates in its slots, so the triples a < b < c decide it."""
    s = table.h_dim
    return {
        "torsion_antisymmetric": not any(
            v for x in range(s, len(table.rows)) for t, v in table.rows[x].get(x, ()) if t >= s
        ),
        "canonical_equals_twice_lc": table.nr_witness is None,
        "bianchi_cyclic_identity": _cyclic_witness(table.rows, s) is None,
    }
