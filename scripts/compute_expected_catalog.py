#!/usr/bin/env python3
"""Oracle for the catalog regression data.

Recomputes every expected catalog quantity from scratch with dense Fraction
linear algebra over explicit matrix realizations: commutators instead of
structure tables, closed-form trace metrics instead of ad-traces, plain
Gaussian elimination instead of canonical echelon bookkeeping. The output is
frozen into src/reductive_workbench/data/catalog_expected.json and the test
suite compares the engine against it field by field.

Run from the repository root:  python3 scripts/compute_expected_catalog.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

F0 = Fraction(0)
F1 = Fraction(1)

# ----------------------------------------------------------------------------
# complex rational matrices as (re, im) pairs of dense Fraction matrices
# ----------------------------------------------------------------------------


def zeros(n, m=None):
    m = n if m is None else m
    return [[F0] * m for _ in range(n)]


def cmat(n):
    return (zeros(n), zeros(n))


def cmul(A, B):
    (ar, ai), (br, bi) = A, B
    n = len(ar)
    rr, ri = zeros(n), zeros(n)
    for i in range(n):
        for k in range(n):
            if ar[i][k] or ai[i][k]:
                for j in range(n):
                    rr[i][j] += ar[i][k] * br[k][j] - ai[i][k] * bi[k][j]
                    ri[i][j] += ar[i][k] * bi[k][j] + ai[i][k] * br[k][j]
    return rr, ri


def csub(A, B):
    return (
        [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A[0], B[0])],
        [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A[1], B[1])],
    )


def ccommutator(A, B):
    return csub(cmul(A, B), cmul(B, A))


def ctrace_re(A):
    return sum((A[0][i][i] for i in range(len(A[0]))), F0)


# ----------------------------------------------------------------------------
# dense rational elimination (no canonical forms: deliberately plain)
# ----------------------------------------------------------------------------


def nullspace(rows, ncols):
    """Basis of {x : rows . x = 0} by forward elimination + back substitution."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = [F0] * ncols
        v[fcol] = F1
        for row_idx, p in enumerate(pivots):
            v[p] = -mat[row_idx][fcol] / mat[row_idx][p]
        basis.append(v)
    return basis


def rank_of(rows, ncols):
    return ncols - len(nullspace([list(r) for r in rows], ncols)) if rows else 0


def member(rows, v, ncols):
    """Is v in the row span? Rank comparison, no canonical form."""
    base = rank_of(rows, ncols)
    return rank_of(list(rows) + [list(v)], ncols) == base


def solve_coords(rows, v):
    """Coordinates of v in the (independent) rows, or None."""
    ncols = len(v)
    k = len(rows)
    # solve rows^T t = v
    aug = [[rows[c][r] for c in range(k)] + [v[r]] for r in range(ncols)]
    mat = aug
    piv = []
    r = 0
    for c in range(k):
        p = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        piv.append(c)
        r += 1
    coords = [F0] * k
    for row_idx, c in enumerate(piv):
        coords[c] = mat[row_idx][k] / mat[row_idx][c]
    for i in range(r, len(mat)):
        if mat[i][k] != 0:
            return None
    return coords


# ----------------------------------------------------------------------------
# families: basis matrices, coordinate extraction, closed-form metric
# ----------------------------------------------------------------------------


class Family:
    """A factor with complex-rational basis matrices and a trace-form metric."""

    def __init__(self, name, basis, extract, killing_scale, center_dim):
        self.name = name
        self.basis = basis  # list of (re, im) matrices
        self.extract = extract  # matrix -> coordinate list
        self.killing_scale = killing_scale  # B = scale * tr(XY); 0 for abelian
        self.center_dim = center_dim

    @property
    def dim(self):
        return len(self.basis)


def so_family(n):
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            re = zeros(n)
            re[i][j], re[j][i] = F1, -F1
            basis.append((re, zeros(n)))

    def extract(M):
        re = M[0]
        return [re[i][j] for i in range(n) for j in range(i + 1, n)]

    return Family(f"so{n}", basis, extract, Fraction(n - 2), 0)


def su_family(n):
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            re = zeros(n)
            re[i][j], re[j][i] = F1, -F1
            basis.append((re, zeros(n)))
    for i in range(n):
        for j in range(i + 1, n):
            im = zeros(n)
            im[i][j], im[j][i] = F1, F1
            basis.append((zeros(n), im))
    for k in range(n - 1):
        im = zeros(n)
        im[k][k], im[k + 1][k + 1] = F1, -F1
        basis.append((zeros(n), im))

    npairs = n * (n - 1) // 2

    def extract(M):
        re, im = M
        coords = [re[i][j] for i in range(n) for j in range(i + 1, n)]
        coords += [im[i][j] for i in range(n) for j in range(i + 1, n)]
        acc = F0
        for k in range(n - 1):
            acc += im[k][k]
            coords.append(acc)
        return coords

    return Family(f"su{n}", basis, extract, Fraction(2 * n), 0)


def abelian_family(d):
    # 2d x 2d block rotation generators: faithful, all brackets zero
    basis = []
    for t in range(d):
        re = zeros(2 * d)
        re[2 * t][2 * t + 1], re[2 * t + 1][2 * t] = -F1, F1
        basis.append((re, zeros(2 * d)))

    def extract(M):
        re = M[0]
        return [re[2 * t + 1][2 * t] for t in range(d)]

    return Family(f"r{d}", basis, extract, F0, d)


class Sum:
    """Direct sum of families: block-diagonal matrices, concatenated coords."""

    def __init__(self, parts):
        self.parts = parts
        self.dim = sum(p.dim for p in parts)
        self.sizes = [len(p.basis[0][0]) for p in parts]
        self.total_size = sum(self.sizes)
        self.basis = []
        for t, p in enumerate(parts):
            for B in p.basis:
                self.basis.append(self._embed(t, B))

    def _embed(self, t, B):
        off = sum(self.sizes[:t])
        re, im = zeros(self.total_size), zeros(self.total_size)
        for i in range(self.sizes[t]):
            for j in range(self.sizes[t]):
                re[off + i][off + j] = B[0][i][j]
                im[off + i][off + j] = B[1][i][j]
        return (re, im)

    def extract(self, M):
        coords = []
        off = 0
        for t, p in enumerate(self.parts):
            sub_re = [row[off : off + self.sizes[t]] for row in M[0][off : off + self.sizes[t]]]
            sub_im = [row[off : off + self.sizes[t]] for row in M[1][off : off + self.sizes[t]]]
            coords.extend(p.extract((sub_re, sub_im)))
            off += self.sizes[t]
        return coords

    def metric_gram(self):
        """-Killing per simple block via closed trace forms, identity on centers."""
        G = zeros(self.dim)
        off = 0
        for p in self.parts:
            for a in range(p.dim):
                for b in range(p.dim):
                    if p.killing_scale:
                        G[off + a][off + b] = -p.killing_scale * ctrace_re(
                            cmul(p.basis[a], p.basis[b])
                        )
                    elif a == b:
                        G[off + a][off + b] = F1
            off += p.dim
        return G


def as_sum(family_or_list):
    if isinstance(family_or_list, Sum):
        return family_or_list
    if isinstance(family_or_list, Family):
        return Sum([family_or_list])
    return Sum(list(family_or_list))


# ----------------------------------------------------------------------------
# the analysis itself, in coordinates
# ----------------------------------------------------------------------------


class Oracle:
    def __init__(self, algebra: Sum, h_indices=None, h_rows=None):
        self.alg = algebra
        n = algebra.dim
        self.n = n
        if h_rows is None:
            h_rows = []
            for idx in h_indices or []:
                row = [F0] * n
                row[idx] = F1
                h_rows.append(row)
        self.h = h_rows
        self.G = algebra.metric_gram()
        self.m = nullspace([self._gram_row(r) for r in self.h], n)
        self.full_stack = self.h + self.m

    def _gram_row(self, v):
        return [sum((v[a] * self.G[a][b] for a in range(self.n)), F0) for b in range(self.n)]

    def bracket(self, x, y):
        X = self._embed(x)
        Y = self._embed(y)
        return self.alg.extract(ccommutator(X, Y))

    def _embed(self, coords):
        total = self.alg.total_size
        re, im = zeros(total), zeros(total)
        for c, B in zip(coords, self.alg.basis):
            if c:
                for i in range(total):
                    for j in range(total):
                        if B[0][i][j]:
                            re[i][j] += c * B[0][i][j]
                        if B[1][i][j]:
                            im[i][j] += c * B[1][i][j]
        return (re, im)

    def unit(self, i):
        row = [F0] * self.n
        row[i] = F1
        return row

    def proj_m(self, v):
        coords = solve_coords(self.full_stack, v)
        out = [F0] * self.n
        for t in range(len(self.h), len(self.full_stack)):
            c = coords[t]
            if c:
                for a in range(self.n):
                    out[a] += c * self.full_stack[t][a]
        return out

    def fixed_subspace(self):
        if not self.h or not self.m:
            return list(self.m)
        # unknowns: t over m; equations: bracket(h_r, sum t_b m_b) = 0
        system = []
        images = [[self.bracket(r, mb) for mb in self.m] for r in self.h]
        for r_idx in range(len(self.h)):
            for comp in range(self.n):
                system.append([images[r_idx][b][comp] for b in range(len(self.m))])
        tbasis = nullspace(system, len(self.m))
        return [self._combine(self.m, t) for t in tbasis]

    @staticmethod
    def _combine(rows, t):
        out = [F0] * len(rows[0])
        for c, row in zip(t, rows):
            if c:
                for a in range(len(row)):
                    out[a] += c * row[a]
        return out

    def inner(self, u, v):
        return sum((u[a] * self.G[a][b] * v[b] for a in range(self.n) for b in range(self.n)), F0)

    def naturally_reductive_ok(self):
        for x in self.m:
            for y in self.m:
                bxy = self.proj_m(self.bracket(x, y))
                for z in self.m:
                    bxz = self.proj_m(self.bracket(x, z))
                    if self.inner(bxy, z) + self.inner(y, bxz) != 0:
                        return False
        return True

    def metric_ad_invariant(self):
        for i in range(self.n):
            for j in range(self.n):
                bij = self.bracket(self.unit(i), self.unit(j))
                for k in range(self.n):
                    bik = self.bracket(self.unit(i), self.unit(k))
                    if self.inner(bij, self.unit(k)) + self.inner(self.unit(j), bik) != 0:
                        return False
        return True

    def reductive_ok(self):
        return all(
            member(self.m, self.bracket(r, w), self.n) for r in self.h for w in self.m
        )

    def normalizer_invariant(self):
        if not self.h:
            normalizer = [self.unit(i) for i in range(self.n)]
        else:
            h_ann = nullspace(self.h, self.n)
            system = []
            for r in self.h:
                cols = [self.bracket(r, self.unit(b)) for b in range(self.n)]
                for ann in h_ann:
                    system.append(
                        [sum((ann[a] * cols[b][a] for a in range(self.n)), F0) for b in range(self.n)]
                    )
            normalizer = nullspace(system, self.n)
        return all(member(self.m, self.bracket(u, w), self.n) for u in normalizer for w in self.m)

    def derived_rows(self):
        rows = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                rows.append(self.bracket(self.unit(i), self.unit(j)))
        return rows

    def transvection_dim(self):
        rows = list(self.m)
        for a in range(len(self.m)):
            for b in range(a + 1, len(self.m)):
                rows.append(self.bracket(self.m[a], self.m[b]))
        return rank_of(rows, self.n)

    def effective(self):
        current = list(self.h)
        while current:
            ann = nullspace(current, self.n)
            system = []
            for i in range(self.n):
                cols = [self.bracket(self.unit(i), c_row) for c_row in current]
                # condition: ann . [e_i, sum t_c current_c] = 0
                for ann_row in ann:
                    system.append(
                        [
                            sum((ann_row[a] * cols[c][a] for a in range(self.n)), F0)
                            for c in range(len(current))
                        ]
                    )
            t_basis = nullspace(system, len(current))
            nxt = [self._combine(current, t) for t in t_basis]
            if len(nxt) == len(current):
                return len(current) == 0
            current = nxt
        return True

    def k_data(self):
        """(k_dim, k_center_dim) for the carrier with bracket -[.,.]_m."""
        carrier = self.fixed_subspace()
        k_dim = len(carrier)
        if k_dim == 0:
            return 0, 0
        tables = []
        for a in range(k_dim):
            row = []
            for b in range(k_dim):
                val = [-c for c in self.proj_m(self.bracket(carrier[a], carrier[b]))]
                coords = solve_coords(carrier, val)
                assert coords is not None, "carrier must be bracket-closed"
                row.append(coords)
            tables.append(row)
        # center: t with [t-combination, every basis] = 0
        system = []
        for b in range(k_dim):
            for comp in range(k_dim):
                system.append([tables[a][b][comp] for a in range(k_dim)])
        center_dim = len(nullspace(system, k_dim))
        return k_dim, center_dim

    def probe_verdict(self):
        m_dim = len(self.m)
        if m_dim == 0:
            return "irreducible"
        fixed = self.fixed_subspace()
        if 0 < len(fixed) < m_dim:
            return "reducible"
        # commutant of the isotropy action in m-coordinates
        mats = []
        for r in self.h:
            cols = []
            for w in self.m:
                coords = solve_coords(self.m, self.proj_m(self.bracket(r, w)))
                cols.append(coords)
            mats.append([[cols[b][a] for b in range(m_dim)] for a in range(m_dim)])
        system = []
        for A in mats:
            for a in range(m_dim):
                for b in range(m_dim):
                    row = [F0] * (m_dim * m_dim)
                    for c in range(m_dim):
                        row[a * m_dim + c] += A[c][b]
                        row[c * m_dim + b] -= A[a][c]
                    system.append(row)
        flat = nullspace(system, m_dim * m_dim)
        # irreducible over R iff every self-adjoint T + T* of the commutant,
        # T* = G^-1 T^T G, is a scalar: G T + (G T)^T a multiple of G
        G = [[self.inner(u, v) for v in self.m] for u in self.m]
        for f in flat:
            T = [[f[p * m_dim + q] for q in range(m_dim)] for p in range(m_dim)]
            GT = [[sum((G[i][k] * T[k][j] for k in range(m_dim)), F0) for j in range(m_dim)] for i in range(m_dim)]
            S = [[GT[i][j] + GT[j][i] for j in range(m_dim)] for i in range(m_dim)]
            lam = S[0][0] / G[0][0]
            if any(S[i][j] != lam * G[i][j] for i in range(m_dim) for j in range(m_dim)):
                return "reducible"
        return "irreducible"


# ----------------------------------------------------------------------------
# entries
# ----------------------------------------------------------------------------


def so_corner_indices(n, k):
    """Indices of E_ij with j <= k in the lexicographic basis of so(n)."""
    out = []
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if j + 1 <= k:
                out.append(idx)
            idx += 1
    return out


def su_corner_indices(n, k):
    """A and S blocks share the pair ordering; D block is cumulative-diagonal."""
    npairs = n * (n - 1) // 2
    out = []
    pair_idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if j + 1 <= k:
                out.append(pair_idx)
                out.append(npairs + pair_idx)
            pair_idx += 1
    for t in range(k - 1):
        out.append(2 * npairs + t)
    return sorted(out)


def diagonal_rows(dim_factor):
    rows = []
    for i in range(dim_factor):
        row = [F0] * (2 * dim_factor)
        row[i] = F1
        row[dim_factor + i] = F1
        rows.append(row)
    return rows


def build_entries():
    entries = {}

    def add(name, algebra, h_indices=None, h_rows=None):
        entries[name] = Oracle(as_sum(algebra), h_indices=h_indices, h_rows=h_rows)

    for n in (3, 4, 5, 6):
        add(f"so{n}_mod_so{n - 1}", so_family(n), h_indices=so_corner_indices(n, n - 1))
    add("so4_mod_so2", so_family(4), h_indices=so_corner_indices(4, 2))
    add("su3_mod_su2", su_family(3), h_indices=su_corner_indices(3, 2))
    add("so3_mod_0", so_family(3), h_indices=[])
    add("so4_mod_0", so_family(4), h_indices=[])
    add("so3so3_mod_diag", [so_family(3), so_family(3)], h_rows=diagonal_rows(3))
    add("so4so4_mod_diag", [so_family(4), so_family(4)], h_rows=diagonal_rows(6))
    add(
        "so3so3_mod_second_factor",
        [so_family(3), so_family(3)],
        h_indices=[3, 4, 5],
    )
    add("so3r1_mod_0", [so_family(3), abelian_family(1)], h_indices=[])
    add("r2_mod_0", abelian_family(2), h_indices=[])
    return entries


def analyze(name, oracle):
    n = oracle.n
    h_dim = len(oracle.h)
    m_dim = len(oracle.m)
    assert h_dim + m_dim == n, name
    reductive = oracle.reductive_ok()
    nr = oracle.naturally_reductive_ok()
    invariant = oracle.metric_ad_invariant()
    effective = oracle.effective()
    k_dim, k_center = oracle.k_data()
    tr_dim = oracle.transvection_dim()
    derived_dim = rank_of(oracle.derived_rows(), n)
    affine = derived_dim + k_dim if effective else None
    report = {
        "dims": {
            "g": n,
            "h": h_dim,
            "m": m_dim,
            "m_fixed": k_dim,
            "k": k_dim,
            "k_center": k_center,
            "transvection": tr_dim,
            "affine": affine,
        },
        "torus_dim": k_center,
        "flags": {
            "reductive": reductive,
            "normal": invariant,  # m is the orthocomplement by construction
            "naturally_reductive": nr,
            "effective": effective,
            "normalizer_invariant": oracle.normalizer_invariant(),
            "transvection_equals_g": tr_dim == n,
        },
        "probe": oracle.probe_verdict(),
    }
    return report


def main():
    out_path = Path(__file__).resolve().parent.parent / "src" / "reductive_workbench" / "data" / "catalog_expected.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    results = {}
    for name, oracle in sorted(build_entries().items()):
        results[name] = analyze(name, oracle)
        print(f"{name}: dims={results[name]['dims']} probe={results[name]['probe']}")
    out_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
