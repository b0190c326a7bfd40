"""Independent oracle implementations used only by the tests.

Deliberately different code paths from the package: dense Fraction matrices out
of explicit matrix realizations, naive Gaussian elimination, closed-form trace
identities. Nothing here imports the package under test, and an algebra is
read only through its `dim` and `entries` fields, never through its methods.
`nomizu_affine_dim` takes its kernel solver as an argument, so the package's
`linalg.kernel` solves a system that the oracle alone has built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

F0 = Fraction(0)
F1 = Fraction(1)


def fraction_matrix(rows):
    """The rows as tuples of Fractions, from ints, Fractions or "p/q" strings."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def dense_zero(n, m=None):
    m = n if m is None else m
    return [[F0] * m for _ in range(n)]


def dense_identity(n):
    M = dense_zero(n)
    for i in range(n):
        M[i][i] = F1
    return M


def dense_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = dense_zero(n, m)
    for i in range(n):
        for t in range(k):
            a = A[i][t]
            if a:
                for j in range(m):
                    if B[t][j]:
                        out[i][j] += a * B[t][j]
    return out


def dense_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def commutator(A, B):
    return dense_sub(dense_mul(A, B), dense_mul(B, A))


def dense_trace(A):
    return sum((A[i][i] for i in range(len(A))), F0)


def gauss_rank(rows, ncols):
    """Plain forward elimination; no pivot normalization, no canonical form."""
    mat = [list(r) for r in rows]
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def so_matrix_basis(n):
    """E_ij = e_i e_j^T - e_j e_i^T for i < j in lexicographic order."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            M = dense_zero(n)
            M[i][j] = F1
            M[j][i] = -F1
            basis.append(M)
    return basis


def so_coords(M, n):
    """Coordinates of an antisymmetric matrix in the E_ij basis."""
    return [M[i][j] for i in range(n) for j in range(i + 1, n)]


def cyclic_so3_matrices():
    """L1 = E23, L2 = E13, L3 = E12: satisfies [L1,L2] = L3 cyclically."""
    e23, e13, e12 = dense_zero(3), dense_zero(3), dense_zero(3)
    e23[1][2], e23[2][1] = F1, -F1
    e13[0][2], e13[2][0] = F1, -F1
    e12[0][1], e12[1][0] = F1, -F1
    return [e23, e13, e12]


def express_in_basis(M, basis):
    """Solve M = sum c_k basis_k by elimination on the flattened system."""
    n = len(M)
    flat_cols = [[B[i][j] for i in range(n) for j in range(n)] for B in basis]
    target = [M[i][j] for i in range(n) for j in range(n)]
    rows = len(target)
    aug = [[flat_cols[c][r] for c in range(len(basis))] + [target[r]] for r in range(rows)]
    # forward elimination
    piv_rows = []
    r = 0
    for c in range(len(basis)):
        piv = None
        for i in range(r, rows):
            if aug[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c] / aug[r][c]
                aug[i] = [a - f * b if b else a for a, b in zip(aug[i], aug[r])]
        piv_rows.append((r, c))
        r += 1
    coords = [F0] * len(basis)
    for rr, cc in piv_rows:
        coords[cc] = aug[rr][len(basis)] / aug[rr][cc]
    # consistency: rows beyond the pivots must have zero rhs
    for i in range(r, rows):
        assert aug[i][len(basis)] == 0, "matrix is outside the span of the basis"
    return coords


def bracket_basis(L):
    """bracket_fn(i, j) -> [e_i, e_j] as a coordinate list, built from the
    algebra's (i, j, k, c) entries (i < j) and completed by antisymmetry."""
    table = {}
    for i, j, k, c in L.entries:
        table.setdefault((i, j), [F0] * L.dim)[k] += c
        table.setdefault((j, i), [F0] * L.dim)[k] -= c
    zero = [F0] * L.dim
    return lambda i, j: list(table.get((i, j), zero))


def brute_force_jacobi(dim, bracket_fn):
    """bracket_fn(i, j) -> coordinate list; checks all dim^3 ordered triples."""
    def bracket_vec(x, y):
        out = [F0] * dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                bij = bracket_fn(i, j)
                for k in range(dim):
                    out[k] += xi * yj * bij[k]
        return out

    units = [[F1 if t == s else F0 for t in range(dim)] for s in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                total = [F0] * dim
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    term = bracket_vec(bracket_fn(x, y), units[z])
                    total = [a + b for a, b in zip(total, term)]
                if any(total):
                    return (i, j, k)
    return None


def dense_ad_matrices(dim, bracket_fn):
    """ad(e_i) as dense matrices from a basis-bracket function."""
    ads = []
    for i in range(dim):
        M = dense_zero(dim)
        for b in range(dim):
            col = bracket_fn(i, b)
            for a in range(dim):
                M[a][b] = col[a]
        ads.append(M)
    return ads


def killing_by_traces(dim, bracket_fn):
    """Killing matrix via dense ad products, independent of sparse bookkeeping."""
    ads = dense_ad_matrices(dim, bracket_fn)
    return [[dense_trace(dense_mul(ads[i], ads[j])) for j in range(dim)] for i in range(dim)]


def killing_by_entry_loop(rows):
    """trace(A_i A_j) for the integer operators A_i[a][b] = c over the terms
    (a, c) of rows[i][b], a table in the layout of g's integer table: the
    loop the packed Killing form replaced, each pair i <= j summed over the
    entries of A_i matched with those of A_j."""
    n = len(rows)
    ads = [{(a, b): c for b, terms in row.items() for a, c in terms} for row in rows]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            other = ads[j]
            total = 0
            for (a, b), c in ads[i].items():
                d = other.get((b, a))
                if d is not None:
                    total += c * d
            gram[i][j] = gram[j][i] = total
    return gram


def dense_rref(rows, ncols):
    """Textbook Gauss-Jordan on dense rows: reduced row-echelon form, zero rows dropped."""
    mat = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return [[F0 + x for x in row] for row in mat[:r]]


def dense_kernel(rows, ncols):
    """Reduced row-echelon basis of {x : A x = 0}, from dense Gauss-Jordan only."""
    red = dense_rref(rows, ncols)
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in red]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F0] * ncols
        v[f] = F1
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return dense_rref(basis, ncols)


def unimodular(n, rng):
    """P and P^-1 from 3n elementary integer row additions row_i += s * row_j, s = +-1."""
    P = [[F1 if i == j else F0 for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
        for row in Pinv:  # right-multiply by the inverse step: col_j -= s * col_i
            row[j] -= s * row[i]
    return P, Pinv


def changed_basis_entries(dim, bracket_fn, P, Pinv):
    """Structure entries (i, j, k, c), i < j, in the basis f_a = sum_i P[a][i] e_i.

    bracket_fn(i, j) gives [e_i, e_j] as a coordinate list in the old basis.
    """
    entries = []
    for a in range(dim):
        for b in range(a + 1, dim):
            old = [F0] * dim
            for i in range(dim):
                for j in range(dim):
                    coef = P[a][i] * P[b][j]
                    if coef:
                        for k, c in enumerate(bracket_fn(i, j)):
                            old[k] += coef * c
            new = [sum((old[k] * Pinv[k][c] for k in range(dim)), F0) for c in range(dim)]
            entries.extend((a, b, k, c) for k, c in enumerate(new) if c)
    return entries


def dense_ad_invariance(dim, bracket_fn, gram):
    """First ordered triple (i, j, k) with <[e_i,e_j], e_k> + <e_j, [e_i,e_k]> != 0
    and its defect, from the plain triple loop over dense brackets; None when
    the form is invariant. bracket_fn(i, j) gives [e_i, e_j] as a coordinate list."""
    for i in range(dim):
        rows = [bracket_fn(i, j) for j in range(dim)]
        for j in range(dim):
            for k in range(dim):
                defect = sum((rows[j][a] * gram[a][k] for a in range(dim)), F0)
                defect += sum((gram[j][a] * rows[k][a] for a in range(dim)), F0)
                if defect:
                    return (i, j, k), defect
    return None


def dense_invariance_witness(ops, gram):
    """First (i, j, k) with <A_i e_j, e_k> + <e_j, A_i e_k> != 0 and its
    integer defect, or None: the plain loop over dense integer operators
    A_i[a][j] and a dense symmetric integer Gram matrix."""
    r = len(gram)
    for i, A in enumerate(ops):
        for j in range(r):
            for k in range(r):
                defect = sum(A[a][j] * gram[a][k] + A[a][k] * gram[a][j] for a in range(r))
                if defect:
                    return (i, j, k), defect
    return None


def largest_ideal_by_descent(L, h_rows):
    """Rref basis of the largest ideal of L inside the span of h_rows, as the
    fixpoint of the descending chain h_{k+1} = {X in h_k : [e_i, X] in h_k for
    every i}. Each step solves, for the coordinates t of X = sum t_r h_k[r],
    phi([e_i, X]) = 0 for every i and every phi in the dot-annihilator of h_k,
    with dense Gauss-Jordan only."""
    n = L.dim
    bracket = bracket_basis(L)
    brackets = [[bracket(i, b) for b in range(n)] for i in range(n)]
    current = dense_rref(h_rows, n)
    while current:
        ann = dense_kernel(current, n)
        system = []
        for i in range(n):
            # [e_i, row] for each basis row of h_k
            images = [
                [sum((row[b] * brackets[i][b][a] for b in range(n)), F0) for a in range(n)]
                for row in current
            ]
            for phi in ann:
                system.append([sum((p * x for p, x in zip(phi, image)), F0) for image in images])
        coords = dense_kernel(system, len(current))
        nxt = dense_rref(
            [[sum((t * row[c] for t, row in zip(ts, current)), F0) for c in range(n)] for ts in coords],
            n,
        )
        if len(nxt) == len(current):
            return current
        current = nxt
    return current


def dense_coords(basis_rows, v):
    """Coordinates of v along the rows of an invertible square basis, from one
    Gauss-Jordan solve of the augmented system."""
    n = len(v)
    aug = [[row[k] for row in basis_rows] + [v[k]] for k in range(n)]
    return [row[n] for row in dense_rref(aug, n + 1)]


def dense_block_metric(L, center_rows, blocks, scales, center_gram):
    """R^T blockdiag(center_gram, -s_a B|I_a) R, where R holds the coordinates
    along the center rows and then the rows of each block I_a (one dense
    Gauss-Jordan inverse) and B is the Killing matrix by traces of dense ad
    products built from the entries of L."""
    n = L.dim
    B = killing_by_traces(n, bracket_basis(L))
    adapted = [list(r) for r in center_rows] + [list(r) for rows in blocks for r in rows]
    identity = dense_identity(n)
    # R = (adapted^T)^-1: row t is the coordinate along adapted[t]
    aug = [[adapted[t][k] for t in range(n)] + identity[k] for k in range(n)]
    R = [row[n:] for row in dense_rref(aug, 2 * n)]
    D = dense_zero(n)
    z = len(center_rows)
    for i in range(z):
        for j in range(z):
            D[i][j] = F0 + center_gram[i][j]
    offset = z
    for rows, s in zip(blocks, scales):
        for a, u in enumerate(rows):
            for b, v in enumerate(rows):
                D[offset + a][offset + b] = -s * sum(
                    (u[p] * B[p][q] * v[q] for p in range(n) for q in range(n)), F0
                )
        offset += len(rows)
    Rt = [[R[t][k] for t in range(n)] for k in range(n)]
    return dense_mul(dense_mul(Rt, D), R)


def dense_solve(rows, v):
    """Coordinates of v along linearly independent rows, from one Gauss-Jordan
    pass on [rows^T | v]; None when v lies outside their span."""
    s = len(rows)
    red = dense_rref([[row[t] for row in rows] + [x] for t, x in enumerate(v)], s + 1)
    # the augmented column is a pivot exactly when v is outside the span
    return [row[s] for row in red] if len(red) == s else None


def dense_bracket(L):
    """bracket(x, y) -> [x, y] as a coordinate list, summed over the dense
    basis brackets completed from the entries of L."""
    basis = bracket_basis(L)

    def bracket(x, y):
        out = [F0] * L.dim
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi and yj:
                    for t, c in enumerate(basis(i, j)):
                        out[t] += xi * yj * c
        return out

    return bracket


def dense_project_m(h_rows, m_rows, v):
    """The m-part of v along g = h + m, in ambient coordinates, from one
    Gauss-Jordan solve along h + m."""
    coords = dense_coords(list(h_rows) + list(m_rows), v)
    s = len(h_rows)
    return [sum((coords[s + t] * row[k] for t, row in enumerate(m_rows)), F0) for k in range(len(v))]


def dense_pairings(us, vs, gram):
    """P[a][b] = <us[a], vs[b]> through the plain Gram matrix."""
    n = len(gram)

    def pairing(u, v):
        return sum((u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n) if u[i] and v[j]), F0)

    return [[pairing(u, v) for v in vs] for u in us]


def dense_m_part(L, h_rows, m_rows):
    """m_part(x, y) -> the m-part of [x, y] along g = h + m, in ambient
    coordinates: `dense_bracket` and `dense_project_m`."""
    bracket = dense_bracket(L)
    return lambda x, y: dense_project_m(h_rows, m_rows, bracket(x, y))


def dense_invariant_field_entries(L, h_rows, m_rows, carrier_rows):
    """The (a, b, k, c) entries, a < b, of [X_a, X_b]_k = -[X_a, X_b]_m over the
    carrier rows X_a: the m-part from `dense_m_part` and its carrier
    coordinates from `dense_solve`."""
    m_part = dense_m_part(L, h_rows, m_rows)
    entries = []
    for a, x in enumerate(carrier_rows):
        for b in range(a + 1, len(carrier_rows)):
            coords = dense_solve(carrier_rows, [-v for v in m_part(x, carrier_rows[b])])
            assert coords is not None, "the carrier is not bracket-closed"
            entries.extend((a, b, k, c) for k, c in enumerate(coords) if c)
    return entries


def dense_nr_defect(L, h_rows, m_rows, gram):
    """defect[a][b][c] = <[m_a, m_b]_m, m_c> + <m_b, [m_a, m_c]_m>, where
    [., .]_m is the m-part along g = h + m from `dense_m_part`, paired
    through the plain Gram matrix."""
    n, r = L.dim, len(m_rows)
    m_part = dense_m_part(L, h_rows, m_rows)

    def pairing(u, v):
        return sum((u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n)), F0)

    brackets = [[m_part(m_rows[a], m_rows[b]) for b in range(r)] for a in range(r)]
    pairings = [[[pairing(brackets[a][b], m_rows[c]) for c in range(r)] for b in range(r)] for a in range(r)]
    return [
        [[pairings[a][b][c] + pairings[a][c][b] for c in range(r)] for b in range(r)]
        for a in range(r)
    ]


def dense_koszul_defect(L, h_rows, m_rows, gram):
    """U[a][b] = the m-coordinates of U(m_a, m_b), where the Levi-Civita
    Nomizu map is 1/2 [X, Y]_m + U(X, Y) and, by Koszul,
    2 <U(X, Y), Z> = <[Z, X]_m, Y> + <X, [Z, Y]_m>: the m-part from
    `dense_m_part`, paired through the plain Gram matrix and solved against
    the Gram matrix of m by `dense_solve`."""
    n, r = L.dim, len(m_rows)
    m_part = dense_m_part(L, h_rows, m_rows)

    def pairing(u, v):
        return sum((u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n)), F0)

    gram_m = [[pairing(x, y) for y in m_rows] for x in m_rows]
    brackets = [[m_part(z, x) for x in m_rows] for z in m_rows]  # [m_c, m_a]_m
    return [
        [
            dense_solve(
                gram_m,
                [
                    (pairing(brackets[c][a], m_rows[b]) + pairing(m_rows[a], brackets[c][b])) / 2
                    for c in range(r)
                ],
            )
            for b in range(r)
        ]
        for a in range(r)
    ]


def stored_torsion_antisymmetric(table, r):
    """Torsion antisymmetry read pair by pair from an adapted table: the
    m-terms of -[m_a, m_b] against those of [m_b, m_a], each as stored at
    `table.rows[s + a][s + b]` (s = dim h, m-terms at indices s and up), over
    all r^2 ordered pairs."""
    s = len(table.rows) - r

    def m_part(a, b, sign):
        return {t: sign * x for t, x in table.rows[s + a].get(s + b, ()) if t >= s}

    return all(m_part(a, b, -1) == m_part(b, a, 1) for a in range(r) for b in range(r))


def dense_bianchi_by_brackets(L, h_rows, m_rows):
    """The first Bianchi identity with torsion, sum_cyc R(X,Y)Z =
    sum_cyc T(T(X,Y), Z) for R(X,Y)Z = -[[X,Y]_h, Z] and T(X,Y) = -[X,Y]_m,
    over every ordered triple of m rows: sum_cyc ([[x,y]_h, z] + [[x,y]_m, z]_m)
    = 0, with [x,y]_h = [x,y] - [x,y]_m, from `dense_bracket` and
    `dense_m_part` in ambient coordinates."""
    bracket = dense_bracket(L)
    m_part = dense_m_part(L, h_rows, m_rows)
    r = len(m_rows)
    in_m = [[m_part(x, y) for y in m_rows] for x in m_rows]
    in_h = [
        [[p - q for p, q in zip(bracket(x, y), in_m[a][b])] for b, y in enumerate(m_rows)]
        for a, x in enumerate(m_rows)
    ]
    for a in range(r):
        for b in range(r):
            for c in range(r):
                total = [F0] * L.dim
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for term in (bracket(in_h[x][y], m_rows[z]), m_part(in_m[x][y], m_rows[z])):
                        total = [p + q for p, q in zip(total, term)]
                if any(total):
                    return False
    return True


def dense_bianchi_holds(rows, s, r):
    """The first Bianchi identity with torsion over every ordered triple of m:
    sum_cyc ([[m_x, m_y]_h, m_z] + [[m_x, m_y]_m, m_z]_m) = 0, with dense
    brackets read as stored in an adapted table, h_i at index i and m_t at
    index s + t: rows[s + a][s + b] holds the terms (index, coefficient) of
    [m_a, m_b], and rows[i][s + z] those of [h_i, m_z]."""
    h_part = [[[F0] * s for _ in range(r)] for _ in range(r)]
    m_part = [[[F0] * r for _ in range(r)] for _ in range(r)]
    for a in range(r):
        for z, terms in rows[s + a].items():
            for t, x in terms:
                if t < s:
                    h_part[a][z - s][t] += x
                else:
                    m_part[a][z - s][t - s] += x
    ad = [[[F0] * r for _ in range(r)] for _ in range(s)]
    for i in range(s):
        for z, terms in rows[i].items():
            for t, x in terms:
                ad[i][z - s][t - s] += x
    for a in range(r):
        for b in range(r):
            for c in range(r):
                total = [F0] * r
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for i in range(s):
                        total = [p + h_part[x][y][i] * q for p, q in zip(total, ad[i][z])]
                    for u in range(r):
                        total = [p + m_part[x][y][u] * q for p, q in zip(total, m_part[u][z])]
                if any(total):
                    return False
    return True


def dense_normalizer(L, h_rows):
    """Rref basis of the normalizer {X : [X, h] in h}: phi([X, r]) = 0 for
    every row r of h and every phi in the dot-annihilator of h, solved by
    dense Gauss-Jordan."""
    n = L.dim
    bracket = bracket_basis(L)
    system = []
    for r in h_rows:
        # images[k] = [e_k, r]
        images = [[sum((r[j] * bracket(k, j)[a] for j in range(n)), F0) for a in range(n)] for k in range(n)]
        for phi in dense_kernel(h_rows, n):
            system.append([sum((p * x for p, x in zip(phi, images[k])), F0) for k in range(n)])
    return dense_kernel(system, n)


def dense_affine_entries(L, k):
    """g1 = [g, g] of L as dense Gauss-Jordan rows, and the (i, j, t, c)
    entries of g1 + k: each [g1_a, g1_b] is bracketed densely from the entries
    of L and solved along the g1 rows, then the entries of the algebra k follow,
    shifted past g1."""
    n = L.dim
    basis = bracket_basis(L)
    g1 = dense_rref([basis(i, j) for i in range(n) for j in range(i + 1, n)], n)
    s = len(g1)
    bracket = dense_bracket(L)
    entries = []
    for a in range(s):
        for b in range(a + 1, s):
            coords = dense_solve(g1, bracket(g1[a], g1[b]))
            assert coords is not None, "g1 is not bracket-closed"
            entries.extend((a, b, t, c) for t, c in enumerate(coords) if c)
    entries.extend((s + i, s + j, s + t, c) for i, j, t, c in k.entries)
    return g1, entries


# --- the Fraction kernels that the package's integer kernels replaced --------
# The same Fraction values, pivots, row order and errors are what the
# package's integer rows must reproduce.


def fraction_matmul(A, B):
    """A B, each row of A combining the nonzero entries of the rows of B it
    has a nonzero coefficient for (ValueError on a shape mismatch)."""
    ncols = len(B[0]) if B else 0
    supports = [[(k, b) for k, b in enumerate(row) if b] for row in B]
    out = []
    for row in A:
        acc = [F0] * ncols
        for a, support in zip(row, supports, strict=True):
            if a:
                for k, b in support:
                    acc[k] += a * b
        out.append(tuple(acc))
    return tuple(out)


def fraction_rref(rows, ncols):
    """Reduced row-echelon form with zero rows dropped; (rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        if inv != 1:
            mat[r] = [x / inv if x else F0 for x in mat[r]]
        prow = mat[r]
        support = [(k, b) for k, b in enumerate(prow) if b]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                row = mat[i]
                f = row[c]
                for k, b in support:
                    row[k] -= f * b
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def fraction_mat_inverse(A):
    n = len(A)
    aug = [list(A[i]) + [F1 if i == j else F0 for j in range(n)] for i in range(n)]
    red, pivots = fraction_rref(aug, 2 * n)
    if len(red) != n or pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)


def fraction_coords_in_rref(rows, pivots, v):
    """Coordinates of v in the given rref row basis, or None if v is outside."""
    residual = list(v)
    coords = []
    for row, p in zip(rows, pivots):
        c = residual[p]
        coords.append(c)
        if c != 0:
            for k, x in enumerate(row):
                if x:
                    residual[k] -= c * x
    if any(x != 0 for x in residual):
        return None
    return tuple(coords)


def fraction_signature(gram):
    """Inertia (n_pos, n_neg, n_zero) by symmetric Gaussian steps over Q, with
    the row+column trick when the active diagonal is entirely zero."""
    n = len(gram)
    M = [list(row) for row in gram]
    pos = neg = 0
    active = list(range(n))
    while active:
        d = None
        for i in active:
            if M[i][i] != 0:
                d = i
                break
        if d is None:
            offdiag = None
            for ai in range(len(active)):
                for aj in range(ai + 1, len(active)):
                    i, j = active[ai], active[aj]
                    if M[i][j] != 0:
                        offdiag = (i, j)
                        break
                if offdiag:
                    break
            if offdiag is None:
                break
            i, j = offdiag
            for k in range(n):
                M[i][k] += M[j][k]
            for k in range(n):
                M[k][i] += M[k][j]
            continue
        a = M[d][d]
        if a > 0:
            pos += 1
        else:
            neg += 1
        active.remove(d)
        for i in active:
            if M[i][d] != 0:
                f = M[i][d] / a
                for k in range(n):
                    M[i][k] -= f * M[d][k]
                for k in range(n):
                    M[k][i] -= f * M[k][d]
    return pos, neg, n - pos - neg


def fraction_is_subalgebra(L, rows, pivots):
    """The first (a, b), a < b, whose bracket of rref rows leaves their span,
    or None; brackets from the entries of L, membership by
    `fraction_coords_in_rref`."""
    bracket = dense_bracket(L)
    for a, u in enumerate(rows):
        for b in range(a + 1, len(rows)):
            if fraction_coords_in_rref(rows, pivots, bracket(u, rows[b])) is None:
                return (a, b)
    return None


def poly_mul(p, q):
    """Product of two polynomials, coefficients low degree to high."""
    out = [F0] * (len(p) + len(q) - 1)
    for a, pa in enumerate(p):
        for b, qb in enumerate(q):
            out[a + b] += pa * qb
    return tuple(out)


def horner_eval_matrix(coeffs, A):
    """A polynomial (coefficients low to high) at a square matrix, by Horner's
    loop from the leading coefficient times the identity."""
    n = len(A)
    out = [[coeffs[-1] * x for x in row] for row in dense_identity(n)]
    for c in reversed(coeffs[:-1]):
        out = [[x + (c if i == j else F0) for j, x in enumerate(row)] for i, row in enumerate(dense_mul(out, A))]
    return fraction_matrix(out)


def poly_pow_mod(a, n, m, p):
    """a^n mod (m, p) for a monic m, by right-to-left square-and-multiply on
    dense coefficient lists (lowest degree first), trimmed of zero leading
    coefficients."""

    def reduce(c):
        c = [x % p for x in c]
        for d in range(len(c) - 1, len(m) - 2, -1):
            q = c[d]
            for e, y in enumerate(m):
                c[d - len(m) + 1 + e] = (c[d - len(m) + 1 + e] - q * y) % p
        c = c[: len(m) - 1]
        while c and not c[-1]:
            c.pop()
        return c

    def mulmod(u, v):
        out = [0] * max(len(u) + len(v) - 1, 0)
        for d, x in enumerate(u):
            for e, y in enumerate(v):
                out[d + e] += x * y
        return reduce(out)

    result, base = reduce([1]), reduce(a)
    while n:
        if n & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        n >>= 1
    return result


def nomizu_affine_dim(L, h_rows, m_rows, kernel):
    """r + dim{A in gl(m) : A.T = 0 and A.R = 0}, r = dim m, for the canonical
    connection's T(X, Y) = -[X, Y]_m and R(X, Y)Z = -[[X, Y]_h, Z]: the
    dimension of the affine algebra that Nomizu's theorem gives a connection
    with parallel torsion and curvature. T and R are read in the m-coordinates
    of `m_rows` from `dense_bracket` and `dense_m_part`, [X, Y]_h as the
    remainder; the r^2 entries A[p][q] (unknown p r + q) solve one linear
    system, whose kernel the `kernel(rows, ncols)` passed in returns."""
    bracket = dense_bracket(L)
    m_part = dense_m_part(L, h_rows, m_rows)
    r = len(m_rows)
    T = [[dense_solve(m_rows, [-x for x in m_part(u, v)]) for v in m_rows] for u in m_rows]
    h_part = [[[p - q for p, q in zip(bracket(u, v), m_part(u, v))] for v in m_rows] for u in m_rows]
    R = [
        [[dense_solve(m_rows, [-x for x in bracket(h_part[a][b], w)]) for w in m_rows] for b in range(r)]
        for a in range(r)
    ]

    def derivation_rows(tensor, slots):
        """The equations (A.S)(e_slots)[t] = 0 for S = tensor, one per index
        tuple and output coordinate t:
        sum_p A[t][p] S(..)[p] - sum over each slot k of sum_p A[p][k] S(.., e_p, ..)[t]."""
        rows = []
        for index in _index_tuples(r, slots):
            for t in range(r):
                row = {}
                for p, x in enumerate(_entry(tensor, index)):
                    if x:
                        row[t * r + p] = row.get(t * r + p, F0) + x
                for k in range(slots):
                    for p in range(r):
                        moved = index[:k] + (p,) + index[k + 1 :]
                        x = _entry(tensor, moved)[t]
                        if x:
                            row[p * r + index[k]] = row.get(p * r + index[k], F0) - x
                rows.append(row)
        return rows

    system = derivation_rows(T, 2) + derivation_rows(R, 3)
    return r + len(kernel(system, r * r))


def _index_tuples(r, slots):
    if slots == 0:
        return [()]
    return [head + (k,) for head in _index_tuples(r, slots - 1) for k in range(r)]


def _entry(tensor, index):
    for k in index:
        tensor = tensor[k]
    return tensor


# --- the rational-root route that p-adic lifting replaced -----------------------
# Distinct roots mod 2^61 - 1 by Cantor-Zassenhaus, each lifted by Wang's
# rational reconstruction with |numerator|, denominator < 2^30 and certified
# by exact evaluation: a root of greater height is not found.

ROUTE_PRIME = 2**61 - 1
RECONSTRUCTION_BOUND = 2**30  # |numerator| and denominator of a lifted residue
SPLIT_SHIFTS = 64  # shifts a tried to split a product of linear factors by (x + a)^((p-1)/2)


def reference_rational_roots(coeffs):
    """The rational roots, ascending, that the mod-p route certifies for a
    rational polynomial (coefficients low to high)."""
    den = lcm(*(c.denominator for c in coeffs))
    int_coeffs = {d: int(c * den) for d, c in enumerate(coeffs) if c}
    if den % ROUTE_PRIME == 0:
        return []
    roots = []
    for residue in roots_mod_p(int_coeffs):
        root = reconstruct(residue)
        if root is not None and sum(c * root**d for d, c in enumerate(coeffs)) == 0:
            roots.append(root)
    return sorted(roots)


def reconstruct(a: int) -> Fraction | None:
    """The n/d with n = a d mod ROUTE_PRIME and |n|, d < RECONSTRUCTION_BOUND, or
    None (Wang's half extended Euclid)."""
    r0, r1, s0, s1 = ROUTE_PRIME, a, 0, 1
    while r1 >= RECONSTRUCTION_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) >= RECONSTRUCTION_BOUND or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def roots_mod_p(int_coeffs: dict[int, int] | None) -> list[int]:
    """Distinct roots mod ROUTE_PRIME of an integer polynomial ({degree: coefficient}),
    except those that SPLIT_SHIFTS equal-degree steps leave unseparated; none
    when the polynomial is constant mod ROUTE_PRIME.

    gcd(x^p - x, f) is the product of x - r over the roots r; it is split by
    gcd((x + a)^((p-1)/2) - 1, .) for a = 0, 1, 2, ...
    """
    degree = max(int_coeffs or (0,))
    if degree == 0 or int_coeffs[degree] % ROUTE_PRIME == 0:
        return []  # constant, or the degree drops mod ROUTE_PRIME and a root's denominator may vanish
    f = _monic_mod_p([int_coeffs.get(d, 0) % ROUTE_PRIME for d in range(degree + 1)])
    g = _gcd_mod_p(f, _sub_mod_p(pow_linear_mod_p(0, ROUTE_PRIME, f), [0, 1]))
    pending = [g] if len(g) > 1 else []  # no root mod ROUTE_PRIME: nothing to split
    roots = []
    while pending:
        g = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % ROUTE_PRIME)
            continue
        for a in range(SPLIT_SHIFTS):
            h = _gcd_mod_p(g, _sub_mod_p(pow_linear_mod_p(a, (ROUTE_PRIME - 1) // 2, g), [1]))
            if 1 < len(h) < len(g):
                pending += [h, _divmod_mod_p(g, h)[0]]
                break
    return sorted(roots)


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _monic_mod_p(a: list[int]) -> list[int]:
    a = _trim(a)
    inv = pow(a[-1], -1, ROUTE_PRIME) if a else 1
    return [x * inv % ROUTE_PRIME for x in a]


def _sub_mod_p(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for d, y in enumerate(b):
        out[d] = (out[d] - y) % ROUTE_PRIME
    return _trim(out)


def _divmod_mod_p(a: list[int], m: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic m, mod ROUTE_PRIME."""
    rem = list(a)
    dm = len(m) - 1
    quotient = [0] * max(len(a) - dm, 0)
    for d in range(len(a) - 1, dm - 1, -1):
        q = rem[d]
        if q:
            quotient[d - dm] = q
            for e, y in enumerate(m):
                rem[d - dm + e] = (rem[d - dm + e] - q * y) % ROUTE_PRIME
    return _trim(quotient), _trim(rem[:dm])


def _mulmod_mod_p(a: list[int], b: list[int], m: list[int]) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for d, x in enumerate(a):
        if x:
            for e, y in enumerate(b):
                out[d + e] += x * y
    return _divmod_mod_p([c % ROUTE_PRIME for c in out], m)[1]


def pow_linear_mod_p(c: int, n: int, m: list[int]) -> list[int]:
    """(x + c)^n mod (m, ROUTE_PRIME), m monic, by left-to-right powering: each
    multiplication by x + c is a shift and one reduction step, not a product."""
    result, dm = [1], len(m) - 1
    for bit in f"{n:b}":
        result = _mulmod_mod_p(result, result, m)
        if bit == "1":
            out = [0, *result]
            for d, y in enumerate(result):
                out[d] = (out[d] + c * y) % ROUTE_PRIME
            if len(out) > dm:
                q = out.pop()
                for e in range(dm):
                    out[e] = (out[e] - q * m[e]) % ROUTE_PRIME
            result = _trim(out)
    return result


def _gcd_mod_p(a: list[int], b: list[int]) -> list[int]:
    """Monic gcd mod ROUTE_PRIME."""
    a, b = _monic_mod_p(list(a)), _monic_mod_p(list(b))
    while b:
        a, b = b, _monic_mod_p(_divmod_mod_p(a, b)[1])
    return a
