"""Matrix realizations, and a floating-point lab for numeric sanity checks.

`make_matrix_realization` is the one route from exact antisymmetric basis
matrices to an algebra: the commutator of each basis pair, formed over the
nonzero entries of the two matrices and read in the span of the basis, gives
the structure constants. They need no Jacobi sweep, because matrix
commutators satisfy Jacobi.
Floats live only in the lab functions below; the exact engine never consumes
a numeric result, and numpy is imported only when a float function runs.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import NonFinite, NotInFixedSubspace, NotInM
from .liealg import LieAlgebra, _lie_algebra
from .linalg import Matrix, Vector, ZERO, identity, rref
from .record import Record

if TYPE_CHECKING:
    import numpy as np

TOLERANCE = 1e-9


class MatrixRealization(Record):
    """Exact antisymmetric matrix model of an algebra's basis."""

    algebra: LieAlgebra
    matrix_dim: int
    basis_matrices: tuple[Matrix, ...]

    @cached_property
    def float_basis(self) -> np.ndarray:
        """The basis matrices as one (dim, n, n) float stack, converted once."""
        import numpy as np

        dim, n = len(self.basis_matrices), self.matrix_dim
        return np.array(self.basis_matrices, dtype=float).reshape(dim, n, n)

    def to_float(self, rows) -> np.ndarray:
        """The float matrices of coordinate rows, as one (len(rows), n, n) stack."""
        import numpy as np

        basis = self.float_basis
        return np.tensordot(np.array(rows, dtype=float).reshape(len(rows), len(basis)), basis, axes=1)


def make_matrix_realization(basis_matrices, labels=None) -> MatrixRealization:
    """Derive the algebra spanned by exact antisymmetric basis matrices.

    The matrices must be linearly independent and their span closed under
    the commutator. [B_a, B_b] is formed once per pair a < b, over the
    nonzero entries of the two matrices and on its strict upper triangle
    only, and its coordinates in the basis are the structure constants.
    Commutators of matrices satisfy Jacobi, so the table gets no sweep.
    Raises ValueError for a matrix that is not antisymmetric, for dependent
    matrices and for a commutator outside the span.
    """
    mats = tuple(tuple(tuple(row) for row in B) for B in basis_matrices)
    dim = len(mats)
    n = len(mats[0]) if mats else 0
    # rows[a][i] = ((j, x), ...) over the nonzero entries x = B_a[i][j]
    rows = tuple(tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in B) for B in mats)
    nonzero = tuple(tuple((i, j, x) for i, r in enumerate(R) for j, x in r) for R in rows)
    # this also rejects a nonzero diagonal entry and an unmatched one
    for B, nz in zip(mats, nonzero):
        if any(B[j][i] != -x for i, j, x in nz):
            raise ValueError("realization matrices must be antisymmetric")
    # an antisymmetric matrix is determined by its strict upper triangle
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    width = len(upper)
    # Rows [upper(B_a) | e_a]: the matrices are independent iff every pivot
    # falls in the left block, and the right block maps echelon coordinates
    # back to basis coordinates.
    red, pivots = rref(
        [tuple(B[i][j] for i, j in upper) + e for B, e in zip(mats, identity(dim))], width + dim
    )
    if pivots and pivots[-1] >= width:
        raise ValueError("realization matrices must be linearly independent")
    # the echelon rows are reduced, so a vector of the span has coordinate
    # C[pivot] on each row; each row's support and back-map terms, read once
    pivot_row = {upper[p]: r for r, p in enumerate(pivots)}
    support = tuple(tuple((upper[c], x) for c, x in enumerate(row[:width]) if x) for row in red)
    back = tuple(tuple((k, x) for k, x in enumerate(row[width:]) if x) for row in red)
    entries = []
    for a in range(dim):
        for b in range(a + 1, dim):
            # [B_a, B_b] on the strict upper triangle, as {(i, j): value}
            C = {}
            for first, second, sign in ((a, b, 1), (b, a, -1)):
                for i, k, x in nonzero[first]:
                    for j, y in rows[second][k]:
                        if j > i:
                            C[i, j] = C.get((i, j), ZERO) + sign * x * y
            residual = dict(C)
            for pos, c in C.items():
                if c and (r := pivot_row.get(pos)) is not None:
                    for q, x in support[r]:
                        residual[q] = residual.get(q, ZERO) - c * x
                    # _lie_algebra sums the terms of each (a, b, k)
                    entries.extend((a, b, k, c * x) for k, x in back[r])
            if any(residual.values()):
                raise ValueError(f"commutator of basis pair {(a, b)} leaves the span")
    return MatrixRealization(_lie_algebra(dim, entries, labels), n, mats)


def matrix_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a degree-18 Taylor core,
    of one (n, n) matrix or of each matrix of a stack (..., n, n).

    Each matrix is scaled by 2^-s, s from its own infinity norm, until that
    norm is at most 1/2; the truncated series is evaluated by Horner on the
    whole stack, and each result is squared s times. For skew-symmetric input
    the result is orthogonal to well below the lab tolerance at desk scale.
    """
    import numpy as np

    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("square matrix required")
    if not np.all(np.isfinite(A)):
        raise NonFinite("matrix exponential of a non-finite matrix")
    n = A.shape[-1]
    stack = A.reshape((math.prod(A.shape[:-2]), n, n))
    norms = np.abs(stack).sum(axis=2).max(axis=1, initial=0.0).tolist()
    s = np.array([max(0, math.ceil(math.log2(x / 0.5))) if x > 0.5 else 0 for x in norms], dtype=int)
    scaled = stack / (2.0**s)[:, None, None]
    eye = np.eye(n)
    out = np.broadcast_to(eye, stack.shape)
    for k in range(18, 0, -1):
        out = scaled @ out
        out /= k
        out += eye
    for step in range(int(s.max(initial=0))):
        part = out[s > step]
        out[s > step] = part @ part
    return out.reshape(A.shape)


def orthogonality_residual(R: np.ndarray) -> float:
    """max |R^T R - I| over one matrix or a stack of them."""
    import numpy as np

    return float(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(R.shape[-1])).max(initial=0.0))


def flow_commutation_check(entry, X: Vector, Y: Vector, t: float, s: float) -> float:
    """Two float routes to the flow identity for an invariant direction X.

    Route one evaluates Exp(sY) Exp(tX) directly; route two pushes the flow
    through the moved basepoint, Exp(t Ad(g)X) g with g = Exp(sY). The identity
    is exact in exact arithmetic, so the residual measures realization plumbing
    and exponential quality only.
    """
    return _flow_residuals(entry, [X], [Y], t, s)[0]


def flow_commutation_residuals(entry, t: float, s: float) -> list[float]:
    """`flow_commutation_check` over every pair (X, Y) of a row of m^h and a
    row of m, X-major."""
    return _flow_residuals(entry, entry.fixed_subspace.rows, entry.pair.m.rows, t, s)


def _flow_residuals(entry, xs, ys, t: float, s: float) -> list[float]:
    """max |g Exp(tX) - Exp(t Ad(g)X) g| with g = Exp(sY), for each X of xs
    and Y of ys, X-major. Exp(tX) and Exp(sY) are formed as one stack each,
    and the conjugates g X g^T as one stack per X, over all g."""
    if abs(t) > 2 or abs(s) > 2:
        raise ValueError("step parameters are capped at |t|, |s| <= 2")
    if not all(entry.fixed_subspace.contains_vector(tuple(X)) for X in xs):
        raise NotInFixedSubspace("X must be an isotropy-fixed direction of m")
    if not all(entry.pair.m.contains_vector(tuple(Y)) for Y in ys):
        raise NotInM("Y must lie in m")
    import numpy as np

    floats = entry.realization.to_float([*xs, *ys])
    Xf = floats[: len(xs)]
    flows = matrix_exp(t * Xf)
    g = matrix_exp(s * floats[len(xs) :])
    gT = np.swapaxes(g, 1, 2)
    out = []
    for X, flow in zip(Xf, flows):
        route_two = matrix_exp(t * (g @ X @ gT)) @ g
        out.extend(np.abs(g @ flow - route_two).max(axis=(1, 2)).tolist())
    return out
