"""Structure-constant Lie algebra calculus, exact over the rationals.

A Lie algebra is given by its dimension, basis labels and a sparse table of
structure constants [e_i, e_j] = sum_k c[i][j][k] e_k, stored for i < j only
and completed by antisymmetry. Basis indices are 0-based throughout the
Python API. All subspaces are canonicalized in reduced row-echelon form, so
subspace equality is structural equality.

Each algebra caches one integer table: the scale D, the lcm of the
denominators of its constants, and D c[i][j][k] for both orders of every
basis pair. The g-level kernels (`bracket`, `_integer_ad`, `coadjoint`,
`bracket_basis`, `killing_form`, `ad_invariance_check`, `is_subalgebra`, the
Jacobi sweep, the rank of [g, g] mod p and the simple-ideal split) read that
table in Python ints, scale their vector or Gram arguments to integers the
same way, and divide once per result entry: the same Fractions as exact
rational arithmetic. A pair's adapted table has the same layout, so one
bracket loop, `_table_bracket`, brackets over either table; `_table_row`
forms the row of one vector X in that layout, so every bracket [X, Y] with
the same X is one pass over the terms of Y. One cyclic routine,
`_cyclic_witness`, packs integer terms and finds the first triple with a
nonzero cyclic sum; the Jacobi sweep and the connection's first Bianchi
check both call it. One invariance routine, `_invariance_witness`, packs
every operator into one integer matrix the same way and tests them all with
one product against the Gram matrix, and the Killing form packs the
operators over one index, so each row of its Gram matrix is one sum.

An algebra also caches its Killing form, center, derived subalgebra [g, g]
and simple-ideal split, each built once on first use; `killing_form`,
`center`, `derived_subalgebra` and `simple_ideal_decomposition` return them.

Each subspace is reduced once: `kernel` returns rref rows, and `_canonical`
wraps rows that are the rref by construction. The largest ideal inside h is
a worklist over `linalg._add_row` pivots. The simple ideals need no closure:
they are read off a Cartan subalgebra, from a centroid system with rank^2
unknowns (`_split_semisimple`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .errors import (
    DegenerateForm,
    JacobiViolation,
    NotASubalgebra,
    NotCompactType,
    WorkbenchError,
)
from .linalg import (
    Matrix,
    PRIME,
    Vector,
    ZERO,
    identity,
    is_scalar_matrix,
    kernel,
    mat_inverse,
    krylov_rank,
    coords_in_rref,
    matmul,
    primary_kernels,
    rat,
    rref,
    signature,
    stack,
    vector,
    _add_row,
    _add_row_mod_p,
    _dense,
    _divided,
    _integer_rows,
    _integer_support,
)
from .record import Record

# rows[i][j] = ((k, D c), ...) for [e_i, e_j] = sum_k c e_k, scaled by D
IntegerTable = tuple[dict[int, tuple[tuple[int, int], ...]], ...]


class SubspaceBasis(Record):
    """A subspace of Q^n in canonical reduced row-echelon basis form."""

    ambient_dim: int
    rows: Matrix
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "SubspaceBasis":
        rows = [vector(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError(f"vector length {len(r)} != ambient dim {ambient_dim}")
        red, piv = rref(rows, ambient_dim)
        return SubspaceBasis(ambient_dim, red, piv)

    @staticmethod
    def zero(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ambient_dim, identity(ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, v: Vector) -> bool:
        return self.coords_of(v) is not None

    def coords_of(self, v: Vector) -> Vector | None:
        return coords_in_rref(self.rows, self.pivots, v)

    def contains(self, other: "SubspaceBasis") -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def annihilator(self) -> Matrix:
        """Rows spanning {w : w . v = 0 for all v in the subspace} (standard dot)."""
        return kernel(self.rows, self.ambient_dim)

    def intersect(self, other: "SubspaceBasis") -> "SubspaceBasis":
        # v lies in a row space iff it is annihilated by that space's dot-annihilator
        system = stack(self.annihilator(), other.annihilator())
        return _kernel_subspace(system, self.ambient_dim)


def _kernel_subspace(system: Sequence, n: int) -> SubspaceBasis:
    """{x : system x = 0} as a subspace: `kernel` returns its rref rows."""
    return _canonical(n, kernel(system, n))


def _canonical(n: int, rows: Sequence[Vector]) -> SubspaceBasis:
    """The subspace of Q^n whose rref is `rows`, wrapped without another
    rref: each row's pivot is its leading index."""
    rows = tuple(map(tuple, rows))
    return SubspaceBasis(n, rows, tuple(next(k for k, x in enumerate(row) if x) for row in rows))


class LieAlgebra(Record):
    """Finite-dimensional Lie algebra with exact rational structure constants."""

    dim: int
    basis_labels: tuple[str, ...]
    entries: tuple[tuple[int, int, int, Fraction], ...]  # (i, j, k, c) with i < j, sorted

    @cached_property
    def _integer_table(self) -> tuple[int, IntegerTable]:
        """(D, rows): D is the lcm of the denominators of the constants, and
        rows[i][j] = ((k, D c), ...) over the nonzero c of [e_i, e_j] = sum_k c e_k,
        completed by antisymmetry. Every kernel below reads these integers and
        divides by a power of D once per result."""
        scale = lcm(*(c.denominator for *_, c in self.entries))
        acc: list[dict[int, dict[int, int]]] = [dict() for _ in range(self.dim)]
        for i, j, k, c in self.entries:
            x = c.numerator * (scale // c.denominator)
            plus, minus = acc[i].setdefault(j, {}), acc[j].setdefault(i, {})
            plus[k] = plus.get(k, 0) + x
            minus[k] = minus.get(k, 0) - x
        rows = tuple(
            {j: terms for j, col in row.items() if (terms := tuple((k, x) for k, x in col.items() if x))}
            for row in acc
        )
        return scale, rows

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a dense coordinate vector."""
        acc = [0] * self.dim
        scale, rows = self._integer_table
        for k, c in rows[i].get(j, ()):
            acc[k] = c
        return _divided(acc, scale)

    def bracket(self, X: Vector, Y: Vector) -> Vector:
        if len(X) != self.dim or len(Y) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        # X = xs / dx and Y = ys / dy with integer xs, ys over the supports
        dx, xs = _integer_support(X)
        dy, ys = _integer_support(Y)
        scale, rows = self._integer_table
        return _dense(_table_bracket(rows, xs, ys), scale * dx * dy, self.dim)

    def _integer_ad(self, X: Vector) -> tuple[int, list[list[int]]]:
        """(d, d ad(X)), the matrix in integers; d = D for an integer X."""
        if len(X) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        dx, xs = _integer_support(X)
        scale, rows = self._integer_table
        acc = [[0] * self.dim for _ in range(self.dim)]
        for i, x in xs:
            for b, terms in rows[i].items():
                for a, c in terms:
                    acc[a][b] += x * c
        return scale * dx, acc

    def coadjoint(self, phi: Vector) -> Matrix:
        """The rows phi o ad(e_i) of a functional phi: entry (i, b) is
        phi([e_i, e_b]), read from the integer table."""
        if len(phi) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        dphi, support = _integer_support(phi)
        ps = dict(support)
        scale, rows = self._integer_table
        out = []
        for row in rows:
            acc = [0] * self.dim
            for b, terms in row.items():
                acc[b] = sum(ps.get(a, 0) * c for a, c in terms)
            out.append(_divided(acc, scale * dphi))
        return tuple(out)

    # g's structures, each built once on first use by the module's builder
    @cached_property
    def _killing(self) -> BilinearForm:
        return _build_killing(self)

    @cached_property
    def _center(self) -> SubspaceBasis:
        return _build_center(self)

    @cached_property
    def _derived(self) -> SubspaceBasis:
        return _build_derived(self)

    @cached_property
    def _ideals(self) -> tuple[SubspaceBasis, tuple[SubspaceBasis, ...]]:
        return _build_ideals(self)


def make_lie_algebra(
    dim: int,
    entries: Iterable[Sequence] = (),
    basis_labels: Sequence[str] | None = None,
) -> LieAlgebra:
    """Validated constructor: `_lie_algebra` plus an exhaustive Jacobi check.

    Raises JacobiViolation with the first lexicographic failing triple and its
    defect vector.
    """
    algebra = _lie_algebra(dim, entries, basis_labels)
    _check_jacobi(algebra)
    return algebra


def _lie_algebra(
    dim: int, entries: Iterable[Sequence], basis_labels: Sequence[str] | None
) -> LieAlgebra:
    """The canonical table, for entries whose Jacobi identity holds by construction.

    `entries` lists (i, j, k, c) with i < j; duplicates accumulate, zeros drop.
    Raises IndexError for out-of-range indices.
    """
    if dim < 0:
        raise ValueError("dimension must be non-negative")
    if basis_labels is None:
        basis_labels = tuple(f"e{i + 1}" for i in range(dim))
    else:
        basis_labels = tuple(basis_labels)
        if len(basis_labels) != dim:
            raise ValueError("number of basis labels does not match the dimension")
    acc: dict[tuple[int, int, int], Fraction] = {}
    for i, j, k, c in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise IndexError(f"structure entry {(i, j, k)} out of range for dim {dim}")
        if i >= j:
            raise ValueError(f"structure entries must have i < j, got {(i, j)}")
        acc[(i, j, k)] = acc.get((i, j, k), ZERO) + rat(c)
    canonical = tuple((i, j, k, c) for (i, j, k), c in sorted(acc.items()) if c)
    return LieAlgebra(dim, basis_labels, canonical)


def _table_bracket(rows: Sequence, xs: Iterable[tuple[int, int]], ys: Sequence[tuple[int, int]]) -> dict:
    """The coordinates of [X, Y] = sum x y [e_i, e_j] over the terms (i, x)
    of X and (j, y) of Y, read from a table whose rows[i][j] holds the
    nonzero terms (k, c) of [e_i, e_j]: g's integer table or a pair's adapted
    table. A coordinate that cancels stays as a zero."""
    acc: dict[int, int] = {}
    for i, x in xs:
        row = rows[i]
        for j, y in ys:
            terms = row.get(j)
            if terms:
                xy = x * y
                for k, c in terms:
                    acc[k] = acc.get(k, 0) + xy * c
    return acc


def _table_row(rows: Sequence, xs: Sequence[tuple[int, int]]) -> dict[int, Sequence[tuple[int, int]]]:
    """The row of X = sum x e_i in the layout of the table: [X, e_j] = sum x
    rows[i][j] over the terms (i, x) of X, as the nonzero terms (k, c) of
    each column j, so that `_table_bracket` reads [X, Y] from it in one pass
    over the terms of Y. A unit vector's row is the table's own."""
    if len(xs) == 1 and xs[0][1] == 1:
        return rows[xs[0][0]]
    acc: dict[int, dict[int, int]] = {}
    for i, x in xs:
        for j, terms in rows[i].items():
            col = acc.get(j)
            if col is None:
                col = acc[j] = {}
            for k, c in terms:
                col[k] = col.get(k, 0) + x * c
    return {j: terms for j, col in acc.items() if (terms := [(k, c) for k, c in col.items() if c])}


def _check_jacobi(L: LieAlgebra) -> None:
    _, rows = L._integer_table
    if witness := _cyclic_witness(rows):
        raise JacobiViolation(*witness, _jacobi_defect(L, *witness))


def _cyclic_witness(rows: Sequence, start: int = 0) -> tuple[int, int, int] | None:
    """The first start <= i < j < k whose cyclic sum over (x, y, z) of
    [[e_x, e_y], e_z] has a nonzero coordinate t >= start, or None, for a
    table whose rows[x][y] holds the nonzero integer terms (index,
    coefficient) of [e_x, e_y]. Each stored [e_l, e_z] packs into one
    integer, coordinate t at bits w (t - start)..w (t - start + 1) in
    balanced digits; every coordinate of a cyclic sum stays below 2^(w-1) in
    size, so the sum packs to zero iff it is zero."""
    n = len(rows)
    bound = max((abs(c) for row in rows for terms in row.values() for _, c in terms), default=0)
    w = (3 * n * bound * bound).bit_length() + 2
    packed = [
        {z: sum(c << (w * (t - start)) for t, c in terms if t >= start) for z, terms in row.items()}
        for row in rows
    ]
    for i in range(start, n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                defect = 0
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, c in rows[x].get(y, ()):
                        defect += c * packed[l].get(z, 0)
                if defect:
                    return i, j, k
    return None


def _jacobi_defect(L: LieAlgebra, i: int, j: int, k: int) -> Vector:
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] in Fractions."""
    defect = [ZERO] * L.dim
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        for l, c in enumerate(L.bracket_basis(x, y)):
            if c:
                for t, d in enumerate(L.bracket_basis(l, z)):
                    defect[t] += c * d
    return tuple(defect)


class BilinearForm(Record):
    """Symmetric bilinear form with its rational inertia precomputed."""

    gram: Matrix
    inertia: tuple[int, int, int]  # (positive, negative, zero)

    @property
    def definiteness(self) -> str:
        pos, neg, zero = self.inertia
        n = pos + neg + zero
        if zero > 0:
            return "degenerate"
        if pos == n:
            return "positive-definite"
        if neg == n:
            return "negative-definite"
        return "indefinite"


def make_bilinear_form(gram: Iterable[Iterable]) -> BilinearForm:
    G = tuple(vector(row) for row in gram)
    n = len(G)
    for row in G:
        if len(row) != n:
            raise ValueError("gram matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if G[i][j] != G[j][i]:
                raise ValueError(f"gram matrix not symmetric at {(i, j)}")
    return BilinearForm(G, signature(G))


class TripleWitness(Record):
    """First basis triple violating a three-slot identity, with its defect."""

    indices: tuple[int, int, int]
    defect: Fraction

    def __str__(self) -> str:  # as error messages print it: the defect as p/q
        return f"{self.indices}, defect {self.defect}"


class CheckResult(Record):
    ok: bool
    witness: TripleWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def killing_form(L: LieAlgebra) -> BilinearForm:
    """B(X, Y) = trace(ad X . ad Y) on basis pairs: integer traces of the
    scaled adjoints, each divided by D^2 once, and cached on L."""
    return L._killing


def _build_killing(L: LieAlgebra) -> BilinearForm:
    scale, rows = L._integer_table
    den = scale * scale
    gram = [[Fraction(x, den) if x else ZERO for x in row] for row in _killing_integers(rows)]
    return make_bilinear_form(gram)


def _killing_integers(rows: Sequence) -> list[list[int]]:
    """trace(A_i A_j) for the integer operators A_i[a][b] = c over the terms
    (a, c) of rows[i][b], for a table in the layout of g's integer table.

    The operators are packed over j, Q[(b, a)] = sum_j A_j[b][a] 2^(w j), so
    row i of the Gram matrix is the one sum over the entries of A_i of
    A_i[a][b] Q[(b, a)], read back as n balanced digits. An entry is at most
    X = n^2 max|A|^2 in size and w = bitlen(X) + 1 keeps it below 2^(w-1)."""
    n = len(rows)
    bound = max((abs(c) for row in rows for terms in row.values() for _, c in terms), default=0)
    w = (n * n * bound * bound).bit_length() + 1
    packed = [0] * (n * n)  # packed[b n + a] = Q[(b, a)]
    for j, row in enumerate(rows):
        for a, terms in row.items():
            for b, c in terms:
                packed[b * n + a] += c << (w * j)
    half, mask = 1 << (w - 1), (1 << w) - 1
    gram = []
    for row in rows:
        total = sum(c * packed[b * n + a] for b, terms in row.items() for a, c in terms)
        digits = []
        for _ in range(n):
            digit = total & mask
            if digit >= half:
                digit -= 1 << w
            digits.append(digit)
            total = (total - digit) >> w
        gram.append(digits)
    return gram


def ad_invariance_check(L: LieAlgebra, form: BilinearForm) -> CheckResult:
    """<[e_i,e_j], e_k> + <e_j, [e_i,e_k]> = 0 over all ordered basis triples:
    `_invariance_witness` on the integer ad(e_i), over D, and the Gram matrix
    scaled by the lcm G of its denominators, so the defect is over D G."""
    if len(form.gram) != L.dim:
        raise ValueError("form dimension does not match the algebra")
    scale, rows = L._integer_table
    gram_scale, gram_rows = _integer_rows(form.gram)
    witness = _invariance_witness((row.items() for row in rows), gram_rows, scale * gram_scale)
    return CheckResult(witness is None, witness)


def _invariance_witness(ops: Iterable, gram: Sequence, den: int) -> TripleWitness | None:
    """The first (i, j, k) with <A_i e_j, e_k> + <e_j, A_i e_k> != 0 and its
    defect over den, or None. Each A_i comes as its columns (j, the nonzero
    (a, A_i[a][j])) and the symmetric Gram matrix as the nonzero (k, G[a][k])
    of each row a, in integers.

    All operators are tested at once: P[j][a] = sum_i A_i[a][j] 2^(w i)
    packs them into one matrix, and (M + M^T)[j][k], for M = P^T G, packs the
    defect of every A_i at (j, k) into slot i. A defect is at most
    X = 2 r max|A| max|G| in size, below 2^w for w = bitlen(X), so the slots
    under the top nonzero one sum to less than one unit of it: the packed
    defect is zero iff every defect is. Only a nonzero packed defect runs the
    loop over the operators, which finds the first witness."""
    ops = [list(cols) for cols in ops]
    max_a = max((abs(c) for cols in ops for _, terms in cols for _, c in terms), default=0)
    max_g = max((abs(g) for row in gram for _, g in row), default=0)
    w = (2 * len(gram) * max_a * max_g).bit_length()
    packed: dict[int, dict[int, int]] = {}
    for i, cols in enumerate(ops):
        for j, terms in cols:
            row = packed.setdefault(j, {})
            for a, c in terms:
                row[a] = row.get(a, 0) + (c << (w * i))
    M: dict[int, dict[int, int]] = {}
    for j, row in packed.items():
        acc = M[j] = {}
        for a, p in row.items():
            for k, g in gram[a]:
                acc[k] = acc.get(k, 0) + p * g
    if not any(v + M.get(k, {}).get(j, 0) for j, acc in M.items() for k, v in acc.items()):
        return None
    for i, cols in enumerate(ops):
        defect: dict[tuple[int, int], int] = {}
        for j, terms in cols:
            for a, c in terms:
                for k, g in gram[a]:
                    cg = c * g
                    defect[j, k] = defect.get((j, k), 0) + cg
                    defect[k, j] = defect.get((k, j), 0) + cg
        failing = [jk for jk, d in defect.items() if d]
        if failing:
            j, k = min(failing)
            return TripleWitness((i, j, k), Fraction(defect[j, k], den))
    return None


def orthogonal_complement(sub: SubspaceBasis, form: BilinearForm) -> SubspaceBasis:
    """{v : <s, v> = 0 for every s in sub}; requires a non-degenerate form."""
    if form.definiteness == "degenerate":
        raise DegenerateForm("orthogonal complement needs a non-degenerate form")
    system = matmul(sub.rows, form.gram)  # G.s for each row s, as G is symmetric
    return _kernel_subspace(system, sub.ambient_dim)


def centralizer(L: LieAlgebra, sub: SubspaceBasis) -> SubspaceBasis:
    """{X : [s, X] = 0 for all s in sub}, as the kernel of the stacked
    integer adjoints d ad(s)."""
    system = [row for s in sub.rows for row in L._integer_ad(s)[1]]
    if not system:
        return SubspaceBasis.full(L.dim)
    return _kernel_subspace(system, L.dim)


def center(L: LieAlgebra) -> SubspaceBasis:
    return L._center


def _build_center(L: LieAlgebra) -> SubspaceBasis:
    return centralizer(L, SubspaceBasis.full(L.dim))


def derived_subalgebra(L: LieAlgebra) -> SubspaceBasis:
    return L._derived


def _build_derived(L: LieAlgebra) -> SubspaceBasis:
    """g once the table's bracket rows reach rank n mod PRIME, else their rref."""
    _, rows = L._integer_table
    pivots: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        for j, terms in row.items():
            if i < j and _add_row_mod_p(pivots, dict(terms)) and len(pivots) == L.dim:
                return SubspaceBasis.full(L.dim)
    vectors = [
        L.bracket_basis(i, j) for i in range(L.dim) for j in range(i + 1, L.dim)
    ]
    return SubspaceBasis.from_vectors(L.dim, vectors)


def is_subalgebra(L: LieAlgebra, sub: SubspaceBasis) -> CheckResult:
    """Is [sub, sub] inside sub? Each pair a < b of echelon rows is bracketed
    in integers from the integer table; the rows are zero at each other's
    pivots, so the bracket lies in sub iff it equals the combination of the
    rows by its entries at the pivots, an exact integer residual. The witness
    is the first (a, b) whose bracket leaves."""
    # den times each echelon row: den at its pivot, zero at the other pivots
    den, rows = _integer_rows(sub.rows)
    _, table = L._integer_table
    for a in range(len(rows) - 1):
        row = (_table_row(table, rows[a]),)  # formed once, read for every b > a
        for b in range(a + 1, len(rows)):
            acc = _table_bracket(row, ((0, 1),), rows[b])
            residual = {k: den * x for k, x in acc.items()}
            for p, terms in zip(sub.pivots, rows):
                c = acc.get(p)
                if c:
                    for k, x in terms:
                        residual[k] = residual.get(k, 0) - c * x
            if any(residual.values()):
                return CheckResult(False, TripleWitness((a, b, -1), ZERO))
    return CheckResult(True)


def largest_ideal_in(L: LieAlgebra, h: SubspaceBasis) -> SubspaceBasis:
    """Largest ideal of L contained in the subalgebra h."""
    if not is_subalgebra(L, h):
        raise NotASubalgebra()
    return _largest_ideal_in(L, h)


def _largest_ideal_in(L: LieAlgebra, h: SubspaceBasis) -> SubspaceBasis:
    """`largest_ideal_in` for an h already checked to be a subalgebra.

    A subspace I of h is an ideal iff its annihilator contains that of h and
    is closed under phi -> phi o ad(e_i), so the largest ideal is the kernel
    of the closure of the annihilator of h under those maps: each functional
    that joins the integer pivot rows is mapped once, by `coadjoint`.
    """
    pivots: dict[int, dict[int, int]] = {}
    queue = [phi for phi in h.annihilator() if _add_row(pivots, dict(_integer_support(phi)[1]))]
    while queue and len(pivots) < L.dim:
        for psi in L.coadjoint(queue.pop()):
            if _add_row(pivots, dict(_integer_support(psi)[1])):
                queue.append(psi)
    return _kernel_subspace(list(pivots.values()), L.dim)


CARTAN_DRAWS = 8  # (X, v) pairs tried on one piece before the split gives up


def _cartan_draws(piece: SubspaceBasis) -> Iterable[tuple[Vector, Vector]]:
    """(X, v) pairs: combinations of the piece's rows, coefficients in -w..w, w = 9
    widened eightfold per draw: with many simple ideals a narrow X's root values collide."""
    rng = random.Random(0)
    for draw in range(CARTAN_DRAWS):
        width = 9 << (3 * draw)
        yield matmul([[rng.randint(-width, width) for _ in piece.rows] for _ in range(2)], piece.rows)


def _int_matvec(M: Sequence[Sequence], support: Sequence[tuple[int, int]]) -> list:
    """M v for v given by its nonzero entries (i, v_i)."""
    return [sum(row[i] * x for i, x in support) for row in M]


def _independent_mod_p(rows: Sequence[dict[int, int]]) -> list[dict[int, int]]:
    """The integer rows that raise the rank mod PRIME of the rows before them."""
    pivots: dict[int, dict[int, int]] = {}
    return [row for row in rows if _add_row_mod_p(pivots, row)]


def _split_semisimple(L: LieAlgebra, piece: SubspaceBasis) -> list[SubspaceBasis]:
    """The simple ideals of L in `piece`, a semisimple ideal of compact type.
    Every system below is built from the integer adjoints d ad(X), whose
    kernels and Krylov ranks are those of ad(X).

    - t = ker ad(X) on the piece holds a maximal torus through X, so an
      abelian t is one: a Cartan subalgebra, and no root a vanishes on X.
    - A centroid element preserves t; its restriction S solves [S X, [h_b, v]]
      = [X, [S h_b, v]] for a basis h_b of t, which on the root vector v_a of
      v reads a(S X) a = a(X) (a o S): a o S = c_a a wherever v_a != 0. The
      Krylov vectors ad(X)^k ad(X) v, k < dim piece - dim t, reach that rank
      exactly when X separates the roots and v meets every root plane; then
      c_a is constant on the connected roots of each simple ideal, and the
      solutions are the centroid restricted to t.
    - The identity is a solution and the nullity mod PRIME bounds the nullity
      over Q, so nullity 1 mod PRIME certifies a simple piece with no lift.
    - Else the primary kernels of the first non-scalar S that has two or more
      (semisimple: the centroid is a product of number fields) split t into
      blocks, each the torus t_i of a sum g_i of simple ideals. The part X_i
      of X along t_i vanishes on no root of g_i, so g_i = t_i + [X_i, g];
      each g_i is split again unless each block is one centroid line.
    """
    if piece.dim == 0:
        return []
    n, ann = L.dim, piece.annihilator() if piece.dim < L.dim else ()
    for X, v in _cartan_draws(piece):
        d, A = L._integer_ad(X)
        t = _kernel_subspace(stack(A, ann), n)
        r, j = t.dim, next((j for j, p in enumerate(t.pivots) if X[p]), None)  # None iff X = 0
        # A = d ad(X) has the rank mod PRIME of ad(X) over its own denominators
        # unless PRIME divides d; then krylov_rank reads ad(X) in Fractions and
        # takes the exact rank when PRIME divides one of those denominators
        krylov = A if d % PRIME else tuple(_divided(row, d) for row in A)
        if j is None or krylov_rank(krylov, v, piece.dim - r) < piece.dim - r:
            continue
        # a basis of t that starts with X, in integers: H_b = d_b h_b and ads[b] = D ad(H_b)
        basis = (X,) + t.rows[:j] + t.rows[j + 1 :]
        H = [_integer_support(h) for h in basis]
        ads = [A] + [L._integer_ad(h)[1] for h in basis[1:]]
        if not any(any(_int_matvec(ads[a], h)) for a in range(r) for _, h in H[a + 1 :]):
            break
    else:
        raise WorkbenchError(f"no Cartan subalgebra certified on an ideal of dim {piece.dim}")
    # unknown c r + b is the coefficient of H_c in S H_b; w[b][c] = [H_c, [H_b, v]]
    # up to one scale, so the equation of H_b reads sum_c S_c0 w[b][c] - S_cb w[0][c] = 0
    us = [_int_matvec(ad, _integer_support(v)[1]) for ad in ads]
    w = [[_int_matvec(ad, list(enumerate(u))) for ad in ads] for u in us]
    system = [{**{c * r: w[b][c][k] for c in range(r)}, **{c * r + b: -w[0][c][k] for c in range(r)}}
              for b in range(1, r) for k in range(n)]
    pivots: dict[int, dict[int, int]] = {}
    if any(_add_row_mod_p(pivots, row) and len(pivots) == r * r - 1 for row in system):
        return [piece]  # nullity 1 mod PRIME
    # each solution is the matrix of S in the coordinates along the H_b: its
    # eigenvalues do not depend on the basis, so it is not moved to t's rref basis
    mats = [tuple(f[c * r : (c + 1) * r] for c in range(r)) for f in kernel(system, r * r)]
    try:
        kernels = next((ks for S in mats if not is_scalar_matrix(S) and len(ks := primary_kernels(S)) >= 2), None)
    except ValueError:  # the centroid is a product of number fields: no S can fail it
        raise WorkbenchError(f"a centroid element on an ideal of dim {piece.dim} is not semisimple") from None
    if kernels is None:  # no rational idempotent: the piece is simple over Q
        return [piece]
    lead = mat_inverse(stack(*kernels))[0]  # H_0 = d_0 X along the kernels' rows
    H_rows = [_dense(dict(terms), 1, n) for _, terms in H]
    _, rows = L._integer_table
    spans, k = [], 0
    for ker in kernels:
        block = matmul(ker, H_rows)
        # d_0 X_i, the part of d_0 X along the block t_i: regular in g_i
        X_i = matmul([lead[k : k + len(ker)]], block)[0]
        k += len(ker)
        columns = _table_row(rows, _integer_support(X_i)[1]).values()  # [X_i, e_b] over D
        spans.append([dict(_integer_support(h)[1]) for h in block] + [dict(c) for c in columns])
    # the rows independent mod PRIME are independent over Q and span part of
    # g_i; the g_i are independent, so dimensions that add up to the piece's
    # certify every part as the whole g_i
    ideals = [SubspaceBasis(n, *rref(_independent_mod_p(span), n)) for span in spans]
    if sum(ideal.dim for ideal in ideals) != piece.dim:
        ideals = [SubspaceBasis(n, *rref(span, n)) for span in spans]
    if sum(ideal.dim for ideal in ideals) != piece.dim:
        raise WorkbenchError(f"the ideals read off a Cartan subalgebra miss part of an ideal of dim {piece.dim}")
    if len(ideals) == len(mats):  # one centroid dimension per block: all simple
        return ideals
    return [simple for ideal in ideals for simple in _split_semisimple(L, ideal)]


def simple_ideal_decomposition(L: LieAlgebra) -> tuple[SubspaceBasis, tuple[SubspaceBasis, ...]]:
    """Split a compact-type algebra as center + pairwise-orthogonal simple ideals.

    Requires the Killing form negative semi-definite with kernel equal to the
    center (raises NotCompactType otherwise). The simple ideals are returned in
    a deterministic order (dimension, then echelon rows), and cached on L.
    """
    return L._ideals


def _build_ideals(L: LieAlgebra) -> tuple[SubspaceBasis, tuple[SubspaceBasis, ...]]:
    B = killing_form(L)
    pos, _, zero = B.inertia
    if pos > 0:
        raise NotCompactType("Killing form has a positive direction")
    z = center(L)
    if zero != z.dim:  # the center lies in the kernel of B, as ad vanishes on it
        raise NotCompactType("Killing-form kernel differs from the center")
    g1 = derived_subalgebra(L)
    if z.dim + g1.dim != L.dim or (z.dim and z.intersect(g1).dim):
        raise NotCompactType("center and derived subalgebra do not split the algebra")
    ideals = _split_semisimple(L, g1)
    ideals.sort(key=lambda s: (s.dim, s.pivots, s.rows))
    return z, tuple(ideals)
