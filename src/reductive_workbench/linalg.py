"""Exact rational linear algebra on immutable tuple-backed vectors and matrices.

Every scalar that goes in or comes out is a `fractions.Fraction`; nothing
here rounds or approximates. Vectors are tuples of Fractions, matrices are
tuples of row vectors. Inside, the kernels work on integers: a row times
the lcm of its denominators (`_integer_support`), reduced mod PRIME where a
rank or a kernel is all that is needed, and divided back once per result
entry. The structure-constant kernels of `liealg` follow the same rule with
one integer table per algebra.

`rref` and `signature` eliminate integer rows by
cross-multiplication (`_cross`): a row becomes a positive multiple of the
rational row it stands for, and is divided by the gcd of its entries. The
rref is unique, so dividing each pivot row by its pivot entry at the end
gives the Fraction rows of rational elimination; `signature` scales only by
positive factors, so the signs of its pivots are the rational ones.
`matmul` and `coords_in_rref` sum integer rows over one denominator per
result row. All of them skip zeros and return the same Fraction values,
pivots and row order as the Fraction loops they replace.

`kernel` takes dense rows or sparse {column: value} rows. It scales each row
to integers and eliminates the residues mod PRIME = 2^61 - 1 with sparse
rows, lifts one candidate null vector per free column by rational
reconstruction, and certifies the candidates exactly: every row of A times
every candidate is zero. The rank over Q is at least the rank mod PRIME, so
certified candidates span the exact kernel. Else the rows independent mod
PRIME (so over Q) go to the exact eliminator `_exact_kernel`, and the whole
system only if their kernel fails the certificate too, or a denominator is
divisible by PRIME. Kernels pivot on the last column, so their null vectors
are the rref: the one of a free column f is 1 at f and nonzero elsewhere only
at later pivots. All routes return that unique rref, with no second rref.

`rational_roots` finds the rational roots of a polynomial of any height by
p-adic lifting: roots mod a small prime l, Newton-lifted to l^K past the
bound that the leading and the constant coefficient set, and certified by
exact integer division. `factor_poly` divides them out, and `primary_kernels`
takes the kernel of f(A) for each factor f. sympy loads only in
`factor_poly`, for an irreducible factor of degree >= 2 that is left over
(or for the whole polynomial in the rare case that no prime of ROOT_PRIMES
keeps its squarefree part squarefree); the only caller that can reach it is
the simple-ideal split (`liealg._split_semisimple`, through
`primary_kernels`), when a centroid element has an irrational eigenvalue.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

PRIME = 2**61 - 1  # the one prime of `kernel` and the closures
RECONSTRUCTION_BOUND = 2**30  # |numerator| and denominator of a lifted residue
ROOT_PRIMES = tuple(p for p in range(2, 256) if all(p % q for q in range(2, p)))  # the l of `rational_roots`


def rat(x) -> Fraction:
    """Coerce an int, a "p/q" string or a Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vector(coords: Iterable) -> Vector:
    return tuple(rat(c) for c in coords)


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def smul(c: Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True) if a and b), ZERO)


def matvec(A: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in A)


def matmul(A: Matrix, B: Matrix) -> Matrix:
    """A B in integers: each row of A and of B scaled to integers, a row of A
    combining the rows of B it has a nonzero coefficient for, over the lcm of
    their scales, and divided once per entry. ValueError when a row of A does
    not have one entry per row of B."""
    ncols = len(B[0]) if B else 0
    scaled = [_integer_support(row) for row in B]
    out = []
    for row in A:
        if len(row) != len(B):
            raise ValueError(f"row of length {len(row)} times {len(B)} rows")
        da, support = _integer_support(row)
        scale = lcm(*(scaled[t][0] for t, _ in support))
        acc = [0] * ncols
        for t, a in support:
            d, terms = scaled[t]
            if d != scale:
                a *= scale // d
            for k, b in terms:
                acc[k] += a * b
        out.append(_divided(acc, da * scale))
    return tuple(out)


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return tuple(vadd(r, s) for r, s in zip(A, B, strict=True))


def mat_scale(c: Fraction, A: Matrix) -> Matrix:
    return tuple(smul(c, r) for r in A)


def transpose(A: Matrix) -> Matrix:
    return tuple(zip(*A)) if A else ()


def trace(A: Matrix) -> Fraction:
    return sum((A[i][i] for i in range(len(A))), ZERO)


def stack(*mats: Matrix) -> Matrix:
    out: list[Vector] = []
    for m in mats:
        out.extend(m)
    return tuple(out)


def rref(rows: Sequence[Sequence[Fraction] | dict[int, Fraction]], ncols: int) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form with zero rows dropped; returns (rows, pivot columns).

    The result is the canonical representative of the row space: two inputs have
    equal rref iff they span the same subspace. Rows are dense sequences or
    sparse {column: value} dicts; they are eliminated as integer rows
    (`_add_row`) and each pivot row is divided by its pivot entry at the end.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if _add_row(pivots, dict(_integer_support(row)[1])) and len(pivots) == ncols:
            break  # full rank: the remaining rows lie in the span
    order = sorted(pivots)
    return tuple(_dense(pivots[p], pivots[p][p], ncols) for p in order), tuple(order)


def _add_row(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    """Reduce the integer row against the pivot rows and keep a nonzero
    remainder as a new pivot row (True), pivoting on its first column:
    every pivot row is zero at the other pivot columns and positive at its
    own, so it is a positive multiple of its row of the rref."""
    for c in [c for c in row if c in pivots]:
        row = _cross(row, pivots[c], c)
    if not row:
        return False
    p = min(row)
    if row[p] < 0:
        row = {k: -x for k, x in row.items()}
    for q, prow in pivots.items():
        if p in prow:
            pivots[q] = _cross(prow, row, p)
    pivots[p] = row
    return True


def _cross(row: dict[int, int], other: dict[int, int], c: int) -> dict[int, int]:
    """row times |a| / g minus other times sign(a) row[c] / g, a = other[c] and
    g = gcd(a, row[c]): a positive multiple of row - (row[c] / a) other, which
    vanishes at c; divided by its content, zeros dropped."""
    a, f = other[c], row[c]
    if a < 0:
        a, f = -a, -f
    g = gcd(a, f)
    a, f = a // g, f // g
    out = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
    for k, y in other.items():
        x = out.get(k, 0) - f * y
        if x:
            out[k] = x
        else:
            del out[k]
    return _primitive(out)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The integer row divided by its content, the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        return {k: x // content for k, x in row.items()}
    return row


def rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def krylov_rank(A: Matrix, v: Vector, steps: int) -> int:
    """Rank of A^k A v, k < steps: mod PRIME on A and v scaled to integers (a
    lower bound for the rank over Q), exactly if PRIME divides a denominator."""
    scale = lcm(*(x.denominator for row in A for x in row if x))
    w = _integer_row(v)
    if scale % PRIME == 0 or w is None:
        return rank([v := matvec(A, v) for _ in range(steps)], len(v))
    M = [[int(x * scale) % PRIME for x in row] for row in A]
    u, pivots = [w.get(c, 0) for c in range(len(v))], {}
    for _ in range(steps):
        u = [sum(a * b for a, b in zip(row, u)) % PRIME for row in M]
        if not _add_row_mod_p(pivots, dict(enumerate(u))):
            break  # the span is A-invariant from here on
    return len(pivots)


def kernel(A: Sequence[Sequence[Fraction] | dict[int, Fraction]], ncols: int) -> Matrix:
    """Canonical (rref) basis of the right kernel {x : A x = 0}.

    Rows are dense sequences or sparse {column: value} dicts, whose values
    may also be ints. The kernel is
    found mod PRIME, lifted by rational reconstruction and certified exactly;
    if that fails, `_exact_kernel` solves the rows independent mod PRIME, and
    the whole system if their kernel fails the certificate too.
    """
    int_rows: list[dict[int, int]] = []
    independent = []  # the rows that raised the rank mod p: independent over Q too
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> its row's other entries
    for row in A:
        int_row = _integer_row(row)
        if int_row is None:
            return _exact_kernel(A, ncols)
        int_rows.append(int_row)
        if _add_row_mod_p(pivots, int_row):
            independent.append(row)
            if len(pivots) == ncols:
                return ()  # rank over Q is at least the rank mod p
    candidates = _lifted_null_vectors(pivots, ncols)
    if candidates is not None and _annihilates(int_rows, candidates):
        return candidates
    candidates = _exact_kernel(independent, ncols)
    if _annihilates(int_rows, candidates):
        return candidates
    return _exact_kernel(A, ncols)


def _lifted_null_vectors(pivots: dict[int, dict[int, int]], ncols: int) -> Matrix | None:
    """The rref of the kernel mod PRIME, one null vector per free column,
    lifted, or None."""
    candidates = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for p, prow in pivots.items():
            x = prow.get(f)
            if x is not None:
                value = _reconstruct(PRIME - x)
                if value is None:
                    return None
                v[p] = value
        candidates.append(tuple(v))
    return tuple(candidates)


def _exact_kernel(A: Sequence[Sequence[Fraction] | dict[int, Fraction]], ncols: int) -> Matrix:
    """The exact eliminator behind `kernel`: the rref of A with its columns
    reversed, whose rows are zero after their pivots in A's order, so the null
    vectors read from it are the rref of the kernel."""
    last = ncols - 1
    items = (row.items() if isinstance(row, dict) else enumerate(row) for row in A)
    red, pivots = rref([{last - c: x for c, x in row} for row in items], ncols)
    rows = {last - p: row for row, p in zip(red, pivots)}
    return tuple(
        tuple(ONE if c == f else -rows[c][last - f] if c in rows else ZERO for c in range(ncols))
        for f in range(ncols) if f not in rows
    )


def _integer_support(v) -> tuple[int, list[tuple[int, int]]]:
    """(d, [(i, d v_i), ...]) over the nonzero v_i of a dense or {index: value}
    vector, d the lcm of their denominators."""
    support = [(i, x) for i, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x]
    d = lcm(*(x.denominator for _, x in support))
    if d == 1:
        return 1, [(i, x.numerator) for i, x in support]
    return d, [(i, x.numerator * (d // x.denominator)) for i, x in support]


def _integer_rows(rows: Iterable) -> tuple[int, list[list[tuple[int, int]]]]:
    """(D, supports): the integer support of each row over one denominator D,
    the lcm of all their denominators."""
    scaled = [_integer_support(row) for row in rows]
    den = lcm(*(d for d, _ in scaled))
    return den, [terms if d == den else [(k, x * (den // d)) for k, x in terms] for d, terms in scaled]


def _dense(row: dict[int, int], den: int, ncols: int) -> Vector:
    """The sparse integer row over den, as a dense row of Fractions."""
    return _divided([row.get(k, 0) for k in range(ncols)], den)


def _divided(acc: Sequence[int], den: int) -> Vector:
    """The integers over one nonzero denominator, as Fractions. The tuple is
    built from a list of its exact length: a tuple grown from a generator is
    shrunk at the end and may keep its larger memory block, which every
    result kept alive then carries."""
    if den == 1:
        return tuple([Fraction(a) if a else ZERO for a in acc])
    return tuple([Fraction(a, den) if a else ZERO for a in acc])


def _integer_row(row) -> dict[int, int] | None:
    """The row's nonzero entries times the lcm of their denominators, or None
    when a denominator is divisible by PRIME."""
    d, support = _integer_support(row)
    return None if d % PRIME == 0 else dict(support)


def _add_row_mod_p(pivots: dict[int, dict[int, int]], int_row: dict[int, int]) -> bool:
    """Reduce the row mod PRIME against the pivot rows and keep a nonzero
    remainder as a new pivot row (True); every pivot row stays fully reduced,
    so a row needs one pass over the pivot columns in its support."""
    row = {c: r for c, x in int_row.items() if (r := x % PRIME)}
    for c in [c for c in row if c in pivots]:
        _axpy_mod_p(row, row.pop(c), pivots[c])
    if not row:
        return False
    p = max(row)  # pivot rows absorb only earlier pivots, so stay zero after theirs
    inv = pow(row.pop(p), -1, PRIME)
    row = {c: x * inv % PRIME for c, x in row.items()}
    for prow in pivots.values():
        f = prow.pop(p, None)
        if f is not None:
            _axpy_mod_p(prow, f, row)
    pivots[p] = row
    return True


def _axpy_mod_p(row: dict[int, int], f: int, other: dict[int, int]) -> None:
    """row -= f * other, mod PRIME, dropping entries that become zero."""
    for c, x in other.items():
        y = (row.get(c, 0) - f * x) % PRIME
        if y:
            row[c] = y
        else:
            row.pop(c, None)


def _reconstruct(a: int) -> Fraction | None:
    """The n/d with n = a d mod PRIME and |n|, d < RECONSTRUCTION_BOUND, or
    None (Wang's half extended Euclid)."""
    r0, r1, s0, s1 = PRIME, a, 0, 1
    while r1 >= RECONSTRUCTION_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) >= RECONSTRUCTION_BOUND or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _annihilates(int_rows: list[dict[int, int]], candidates: list[Vector]) -> bool:
    """Exact certificate: every row times every candidate is zero, each row
    walked over its support (candidates scaled to integers first)."""
    for v in candidates:
        w = dict(_integer_support(v)[1])
        for row in int_rows:
            small, big = (row, w) if len(row) <= len(w) else (w, row)
            if sum(x * big.get(c, 0) for c, x in small.items()):
                return False
    return True


def coords_in_rref(rows: Matrix, pivots: tuple[int, ...], v: Vector) -> Vector | None:
    """Coordinates of v in the given rref row basis, or None if v is outside.

    Each row is zero at the other pivots, so the coordinates are v's entries
    at the pivots, and v is inside iff it is the combination of the rows with
    them: checked on the integer multiples of v and of those rows."""
    coords = tuple(v[p] for p in pivots)
    dv, support = _integer_support(v)
    ints = dict(support)
    used = [(_integer_support(row), ints[p]) for row, p in zip(rows, pivots) if p in ints]
    scale = lcm(*(d for (d, _), _ in used))
    # scale dv v minus its combination of the rows, each row as d times itself
    residual = {k: scale * x for k, x in support}
    for (d, terms), n in used:
        f = n * (scale // d)
        for k, x in terms:
            residual[k] = residual.get(k, 0) - f * x
    if any(residual.values()):
        return None
    return coords


def mat_inverse(A: Matrix) -> Matrix:
    n = len(A)
    aug = [list(A[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    red, pivots = rref(aug, 2 * n)
    if len(red) != n or pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)


def signature(gram: Matrix) -> tuple[int, int, int]:
    """Inertia (n_pos, n_neg, n_zero) of a symmetric matrix, by rational congruence.

    Symmetric Gaussian steps on the rows of the active block, each kept as an
    integer row times a positive factor of its own: a Schur step replaces a
    row by |a| times itself minus sign(a) times its entry times the pivot
    row, never by a times itself, so no sign flips. When the active diagonal
    is entirely zero, the row+column trick adds a row j to a row i (scaled by
    the two off-diagonal entries, which fix the factors' ratio) and column j
    to column i. Sylvester's law makes the counts well-defined.
    """
    n = len(gram)
    # rows[i] = c_i times row i of the active block, c_i > 0, active columns only
    rows = {i: dict(_integer_support(row)[1]) for i, row in enumerate(gram)}
    pos = neg = 0
    while rows:
        d = next((i for i, row in rows.items() if row.get(i)), None)
        if d is None:
            i, j = next(((i, j) for i, row in rows.items() for j in row), (None, None))
            if i is None:
                break  # remaining block is zero
            # c_i / c_j = rows[i][j] / rows[j][i], so merged is a positive
            # multiple of the sum of the block's rows i and j
            ri, rj = rows[i], rows[j]
            sign = 1 if ri[j] > 0 else -1
            merged = {k: sign * rj[i] * x for k, x in ri.items()}
            for k, x in rj.items():
                merged[k] = merged.get(k, 0) + sign * ri[j] * x
            rows[i] = merged
            for row in rows.values():  # column i += column j
                if j in row:
                    row[i] = row.get(i, 0) + row[j]
            rows = {k: _primitive({c: x for c, x in row.items() if x}) for k, row in rows.items()}
            continue
        pivot = rows.pop(d)
        if pivot[d] > 0:
            pos += 1
        else:
            neg += 1
        for i, row in rows.items():
            if d in row:
                rows[i] = _cross(row, pivot, d)
    return pos, neg, n - pos - neg


def charpoly(A: Matrix) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial, coefficients low degree to high.

    Faddeev-LeVerrier recursion; exact over the rationals.
    """
    n = len(A)
    M = identity(n)
    coeffs_high_to_low = [ONE]
    for k in range(1, n + 1):
        AM = matmul(A, M)
        c = -trace(AM) / k
        coeffs_high_to_low.append(c)
        M = mat_add(AM, mat_scale(c, identity(n)))
    return tuple(reversed(coeffs_high_to_low))


def is_scalar_matrix(A: Matrix) -> bool:
    """True when A is a multiple of the identity."""
    return all(x == (A[0][0] if i == j else 0) for i, row in enumerate(A) for j, x in enumerate(row))


def poly_eval_matrix(coeffs: Sequence[Fraction], A: Matrix) -> Matrix:
    """Evaluate a polynomial (coefficients low to high) at a square matrix, by
    Horner's loop from lead A + c I: a linear factor costs no product."""
    n = len(A)
    if len(coeffs) == 1:
        return mat_scale(coeffs[0], identity(n))
    lead, c = coeffs[-1], coeffs[-2]
    out = A if lead == 1 else mat_scale(lead, A)
    out = tuple(tuple(x + c if a == b else x for b, x in enumerate(row)) for a, row in enumerate(out))
    for c in reversed(coeffs[:-2]):
        out = mat_add(matmul(out, A), mat_scale(c, identity(n)))
    return out


def factor_poly(coeffs: Sequence[Fraction]) -> tuple[tuple[tuple[Fraction, ...], int], ...]:
    """Irreducible monic factors over Q of a rational polynomial, with multiplicities.

    The rational roots come from `rational_roots`, each divided out of the
    primitive integer polynomial with its multiplicity by exact division;
    only a nonconstant leftover goes to sympy.
    Factorization is unique, so the result is the one sympy gives for the
    whole polynomial. Deterministic ordering: by degree, then by coefficient
    tuple.
    """
    rest = _primitive_coeffs(_integer_support(coeffs)[1])
    out = []
    for root in rational_roots(coeffs) or ():  # None: no listed prime served, sympy factors it all
        mult = 0
        while (quotient := _divide_by_root(rest, root)) is not None:
            rest, mult = quotient, mult + 1
        out.append(((-root, ONE), mult))
    if len(rest) > 1:  # a constant leftover is the content
        out.extend(_sympy_factors(rest))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return tuple(out)


def _sympy_factors(coeffs: Sequence[Fraction]) -> list[tuple[tuple[Fraction, ...], int]]:
    """Monic irreducible factors and multiplicities by sympy, unsorted."""
    import sympy  # local import: sympy is slow to load and only needed here

    x = sympy.Symbol("x")
    sym_coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    _, factors = sympy.Poly(sym_coeffs, x, domain="QQ").factor_list()
    out = []
    for poly, mult in factors:
        poly = poly.monic()
        cs = tuple(
            Fraction(int(c.numerator), int(c.denominator))
            for c in reversed(poly.all_coeffs())
        )
        out.append((cs, int(mult)))
    return out


def _divide_by_root(f: Sequence[int], root: Fraction) -> list[int] | None:
    """The quotient of an integer polynomial f by q x - p, for root = p/q, or
    None when q x - p does not divide f. The quotient of a primitive divisor
    is integral (Gauss), so a step that q does not divide ends the division."""
    p, q = root.numerator, root.denominator
    quotient, acc = [0] * (len(f) - 1), 0
    for d in range(len(f) - 1, 0, -1):
        acc, r = divmod(f[d] + p * acc, q)
        if r:
            return None
        quotient[d - 1] = acc
    return quotient if f[0] + p * acc == 0 else None


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction] | None:
    """The distinct rational roots of a nonzero rational polynomial
    (coefficients low to high), ascending; None when no prime of ROOT_PRIMES
    keeps its squarefree part squarefree.

    Rational zeros by p-adic lifting (Loos, SIAM J. Comput. 12, 1983). Take
    the squarefree part g as a primitive integer polynomial with g(0) != 0 (a
    root 0 is read off first) and the first listed prime l that does not
    divide lc(g) and keeps g squarefree mod l. A rational root p/q in lowest
    terms has q | lc(g) and p | g(0), and its residue is a simple root of g
    mod l, so Newton's step lifts that residue to the unique root mod l^K >
    2 |lc(g) g(0)|, where lc(g) p/q is its symmetric residue times lc(g).
    Each candidate is certified by exact division; the residues of the
    irrational roots of g give candidates that fail it.
    """
    f = _primitive_coeffs(_integer_support(coeffs)[1])
    if len(f) < 2:
        return []
    low = next(d for d, c in enumerate(f) if c)
    roots = [ZERO] if low else []
    g = _squarefree_part(f[low:])
    if len(g) < 2:
        return roots
    lead, bound = g[-1], 2 * abs(g[-1] * g[0])
    ell = next((p for p in ROOT_PRIMES if lead % p and _squarefree_mod(g, p)), None)
    if ell is None:
        return None
    dg = [d * c for d, c in enumerate(g)][1:]
    for r in range(ell):
        if _eval_mod(g, r, ell):
            continue
        m = ell
        while m <= bound:
            inverse = pow(_eval_mod(dg, r, m), -1, m)  # g'(r) is a unit mod l, so mod m
            m *= m
            r = (r - _eval_mod(g, r, m) * inverse) % m
        u = lead * r % m
        root = Fraction(u - m if 2 * u > m else u, lead)
        if _divide_by_root(g, root) is not None:  # exact division
            roots.append(root)
    return sorted(roots)


def _primitive_coeffs(terms: Iterable[tuple[int, int]]) -> list[int]:
    """The dense integer coefficient list of the (degree, coefficient) terms,
    divided by their content, without a zero leading coefficient."""
    out: list[int] = []
    for d, c in terms:
        out.extend([0] * (d + 1 - len(out)))
        out[d] = c
    content = gcd(*out)
    return [c // content for c in out] if content > 1 else out


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') over Q, as a primitive integer polynomial: the gcd by a
    primitive pseudo-remainder sequence, the quotient by exact division."""
    a, b = f, _primitive_coeffs(enumerate([d * c for d, c in enumerate(f)][1:]))
    while len(b) > 1:
        a, b = b, _primitive_coeffs(enumerate(_pseudo_remainder(a, b)))
    if b:  # a constant remainder: f is squarefree
        return f
    quotient, rem, dm = [0] * (len(f) - len(a) + 1), list(f), len(a) - 1
    for d in range(len(f) - 1, dm - 1, -1):
        q = quotient[d - dm] = rem[d] // a[-1]
        for e, y in enumerate(a):
            rem[d - dm + e] -= q * y
    return _primitive_coeffs(enumerate(quotient))


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lc(b)^k a by b, one factor lc(b) per elimination
    step, without zero leading coefficients."""
    a, db = list(a), len(b) - 1
    while len(a) > db:
        c, shift = a.pop(), len(a) - db
        a = [x * b[-1] for x in a]
        for e, y in enumerate(b[:-1]):
            a[shift + e] -= c * y
        while a and not a[-1]:
            a.pop()
    return a


def _squarefree_mod(g: list[int], p: int) -> bool:
    """Is g squarefree mod p, with p not dividing its leading coefficient:
    gcd(g, g') = 1 mod p, by pseudo-remainders reduced mod p (lc(b) is a
    unit mod p, so each one has the gcd of the exact remainder)."""
    a, b = g, [d * c % p for d, c in enumerate(g)][1:]
    while b and not b[-1]:
        b.pop()
    while len(b) > 1:
        a, b = b, [x % p for x in _pseudo_remainder(a, b)]
        while b and not b[-1]:
            b.pop()
    return len(b) == 1


def _eval_mod(g: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % m
    return acc


def primary_kernels(A: Matrix) -> tuple[Matrix, ...]:
    """Kernel of f(A) for each distinct irreducible factor f of charpoly(A),
    in `factor_poly` order: the primary decomposition of Q^n under a
    semisimple A, where ker f(A) is the whole primary component of f.

    Raises ValueError when the kernels do not add up to Q^n: A is not semisimple.
    """
    n = len(A)
    spaces = tuple(kernel(poly_eval_matrix(f, A), n) for f, _ in factor_poly(charpoly(A)))
    if sum(map(len, spaces)) != n:
        raise ValueError("the matrix is not semisimple: its primary kernels miss part of Q^n")
    return spaces
