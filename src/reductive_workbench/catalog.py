"""Named desk-scale algebras, subalgebra embeddings and space presentations.

Families: so(n) on the lexicographic E_ij basis (elementary antisymmetric
matrices), su(n) realified on the documented A/S/D basis, direct sums, corner
embeddings so(k) in so(n) and su(k) in su(n) (top-left block), the diagonal
embedding of g in g+g, trivial subalgebras and abelian r(d). A family states
only its basis labels and exact antisymmetric basis matrices;
`numlab.make_matrix_realization` derives the structure constants from their
integer commutators, formed only for the basis pairs that meet in a nonzero
row and over nonzero entries only (a family matrix has at most four, and a
cross-block pair of a direct sum never meets, so it is never formed), so
every entry's algebra comes with its matrix realization. A corner, or the
second summand of a direct sum, is read off the basis matrices as those
supported in its block, so only a family's builder knows its basis order.

Regression expectations for the curated entries are packaged data produced
by scripts/compute_expected_catalog.py, never typed by hand. No report reads
them: `CatalogEntry.expected` loads them on first use, for the tests and
scripts/survey_catalog.py.
"""

from __future__ import annotations

import re
from functools import cache, cached_property

from .errors import ParamOutOfRange, UnknownName
from .homspace import (
    MetricSpec,
    ReductivePair,
    isotropy_fixed_subspace,
    normal_decomposition,
)
from .liealg import LieAlgebra, SubspaceBasis, _canonical
from .linalg import Matrix, ONE, ZERO
from .numlab import MatrixRealization, make_matrix_realization
from .record import Record

DESK_CAP = 8
# a family parameter: ASCII digits in canonical form, so each entry has one name
_NUM = "([1-9][0-9]*)"

CURATED_NAMES = (
    "so3_mod_so2",
    "so4_mod_so3",
    "so5_mod_so4",
    "so6_mod_so5",
    "so4_mod_so2",
    "su3_mod_su2",
    "so3_mod_0",
    "so4_mod_0",
    "so3so3_mod_diag",
    "so4so4_mod_diag",
    "so3so3_mod_second_factor",
    "so3r1_mod_0",
    "r2_mod_0",
)


class CatalogEntry(Record, uncompared=("realization",)):
    """A named space presentation with frozen regression expectations."""

    name: str
    algebra: LieAlgebra
    h: SubspaceBasis
    metric_spec: MetricSpec
    realization: MatrixRealization

    @cached_property
    def expected(self) -> dict:
        return _expected_table().get(self.name, {})

    @cached_property
    def pair(self) -> ReductivePair:
        return normal_decomposition(self.algebra, self.h, self.metric_spec)

    @cached_property
    def fixed_subspace(self) -> SubspaceBasis:
        return isotropy_fixed_subspace(self.pair)


# ---------------------------------------------------------------------------
# factor builders: (labels, real basis matrices)
# ---------------------------------------------------------------------------


class _Factor(Record):
    labels: tuple[str, ...]
    basis_mats: tuple[Matrix, ...]


def _zeros(n):
    return [[ZERO] * n for _ in range(n)]


def _build_so(n: int) -> _Factor:
    mats = []
    labels = []
    for i in range(n):
        for j in range(i + 1, n):
            M = _zeros(n)
            M[i][j], M[j][i] = ONE, -ONE
            mats.append(tuple(tuple(r) for r in M))
            labels.append(f"E{i + 1}{j + 1}")
    return _Factor(tuple(labels), tuple(mats))


def _build_su(n: int) -> _Factor:
    # complex anti-hermitian traceless basis, realified from (re, im) pairs:
    # A_ij = E_ij - E_ji, S_ij = i(E_ij + E_ji), D_k = i(E_kk - E_{k+1,k+1})
    def realify(re, im):
        R = _zeros(2 * n)
        for i in range(n):
            for j in range(n):
                R[2 * i][2 * j] = re[i][j]
                R[2 * i + 1][2 * j + 1] = re[i][j]
                R[2 * i][2 * j + 1] = -im[i][j]
                R[2 * i + 1][2 * j] = im[i][j]
        return tuple(tuple(r) for r in R)

    mats = []
    labels = []
    for i in range(n):
        for j in range(i + 1, n):
            re = _zeros(n)
            re[i][j], re[j][i] = ONE, -ONE
            mats.append(realify(re, _zeros(n)))
            labels.append(f"A{i + 1}{j + 1}")
    for i in range(n):
        for j in range(i + 1, n):
            im = _zeros(n)
            im[i][j], im[j][i] = ONE, ONE
            mats.append(realify(_zeros(n), im))
            labels.append(f"S{i + 1}{j + 1}")
    for k in range(n - 1):
        im = _zeros(n)
        im[k][k], im[k + 1][k + 1] = ONE, -ONE
        mats.append(realify(_zeros(n), im))
        labels.append(f"D{k + 1}")
    return _Factor(tuple(labels), tuple(mats))


def _build_abelian(d: int) -> _Factor:
    mats = []
    for t in range(d):
        M = _zeros(2 * d)
        M[2 * t][2 * t + 1], M[2 * t + 1][2 * t] = -ONE, ONE
        mats.append(tuple(tuple(r) for r in M))
    return _Factor(tuple(f"Z{t + 1}" for t in range(d)), tuple(mats))


def _direct_sum(parts: list[_Factor]) -> _Factor:
    if len(parts) == 1:
        return parts[0]
    labels = [f"{lbl}_{t + 1}" for t, p in enumerate(parts) for lbl in p.labels]
    sizes = [len(p.basis_mats[0]) for p in parts]
    total = sum(sizes)
    mats = []
    off_mat = 0
    for t, p in enumerate(parts):
        for B in p.basis_mats:
            M = _zeros(total)
            for i in range(sizes[t]):
                for j in range(sizes[t]):
                    M[off_mat + i][off_mat + j] = B[i][j]
            mats.append(tuple(tuple(r) for r in M))
        off_mat += sizes[t]
    return _Factor(tuple(labels), tuple(mats))


# ---------------------------------------------------------------------------
# subalgebra pickers
# ---------------------------------------------------------------------------


def _block_indices(factor: _Factor, lo: int, hi: int) -> list[int]:
    """Positions of the basis matrices whose nonzero entries all lie in rows
    and columns lo..hi-1: the subalgebra of the block, in any family's order."""
    return [
        idx
        for idx, M in enumerate(factor.basis_mats)
        if all(lo <= i < hi and lo <= j < hi for i, row in enumerate(M) for j, x in enumerate(row) if x)
    ]


def _unit_rows(ambient, indices):
    # the indices are sorted, so the unit rows are their own rref
    return _canonical(
        ambient,
        [tuple(ONE if c == i else ZERO for c in range(ambient)) for i in indices],
    )


def _diagonal_subspace(factor_dim: int) -> SubspaceBasis:
    rows = []
    for i in range(factor_dim):
        row = [ZERO] * (2 * factor_dim)
        row[i] = ONE
        row[factor_dim + i] = ONE
        rows.append(row)
    # e_i + e_{n+i}: pivot i, and no row meets another's pivot
    return _canonical(2 * factor_dim, rows)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _expected_table() -> dict:
    import json
    from importlib import resources

    data = resources.files("reductive_workbench").joinpath("data/catalog_expected.json")
    return json.loads(data.read_text(encoding="utf-8"))


def _check_range(n: int, low: int = 2) -> None:
    if not (low <= n <= DESK_CAP):
        raise ParamOutOfRange(f"parameter {n} outside desk scale [{low}, {DESK_CAP}]")


@cache
def construct(name: str) -> CatalogEntry:
    """Build a catalog entry by name; parametric families are matched by pattern."""
    if len(name) > 32:  # longer than any family's name; also keeps int() below in range
        raise UnknownName(f"catalog name of {len(name)} characters matches no family")
    factor: _Factor
    if m := re.fullmatch(f"so{_NUM}_mod_so{_NUM}", name):
        n, k = int(m.group(1)), int(m.group(2))
        _check_range(n, low=3)
        if not 2 <= k < n:
            raise ParamOutOfRange(f"corner so({k}) needs 2 <= k < {n}")
        factor = _build_so(n)
        h_indices = _block_indices(factor, 0, k)
    elif m := re.fullmatch(f"so{_NUM}_mod_0", name):
        n = int(m.group(1))
        _check_range(n)
        factor = _build_so(n)
        h_indices = []
    elif m := re.fullmatch(f"su{_NUM}_mod_su{_NUM}", name):
        n, k = int(m.group(1)), int(m.group(2))
        _check_range(n, low=3)
        if not 2 <= k < n:
            raise ParamOutOfRange(f"corner su({k}) needs 2 <= k < {n}")
        factor = _build_su(n)
        h_indices = _block_indices(factor, 0, 2 * k)
    elif m := re.fullmatch(f"su{_NUM}_mod_0", name):
        n = int(m.group(1))
        _check_range(n)
        factor = _build_su(n)
        h_indices = []
    elif m := re.fullmatch(f"so{_NUM}so{_NUM}_mod_diag", name):
        n, n2 = int(m.group(1)), int(m.group(2))
        if n != n2:
            raise UnknownName(f"diagonal pairing needs equal factors, got {name}")
        _check_range(n, low=3)
        part = _build_so(n)
        return _finish(name, _direct_sum([part, part]), _diagonal_subspace(len(part.labels)))
    elif m := re.fullmatch(f"so{_NUM}so{_NUM}_mod_second_factor", name):
        n, n2 = int(m.group(1)), int(m.group(2))
        if n != n2:
            raise UnknownName(f"factor pairing needs equal factors, got {name}")
        _check_range(n, low=3)
        part = _build_so(n)
        factor = _direct_sum([part, part])
        h_indices = _block_indices(factor, n, 2 * n)
    elif m := re.fullmatch(f"r{_NUM}_mod_0", name):
        d = int(m.group(1))
        _check_range(d, low=1)
        factor = _build_abelian(d)
        h_indices = []
    elif name == "so3r1_mod_0":
        factor = _direct_sum([_build_so(3), _build_abelian(1)])
        h_indices = []
    else:
        raise UnknownName(f"no catalog family matches {name!r}")
    return _finish(name, factor, _unit_rows(len(factor.labels), h_indices))


def _finish(name: str, factor: _Factor, h: SubspaceBasis) -> CatalogEntry:
    realization = make_matrix_realization(factor.basis_mats, factor.labels)
    return CatalogEntry(name, realization.algebra, h, MetricSpec(), realization)


def catalog_names() -> tuple[str, ...]:
    return CURATED_NAMES
