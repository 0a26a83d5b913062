"""Linear maps of bivectors that preserve decomposability, and their
classification.

A linear map R between second exterior powers preserves decomposability
when R(x ^ y) ^ R(x ^ y) = 0 identically; this module decides that exactly
(full coefficient expansion of the biquadratic form), builds the induced
maps on higher wedge powers, and classifies such maps into the degenerate
cases (a common wedge factor or a common contraction annihilator), the
wedge squares of invertible linear maps, and the dimension-4 star
composition.  The symmetric specialization classifies curvature-type
quadrilinear forms into the metric case and the flat (hyperplane) case,
with every returned witness re-verified against its defining identity
before the report is returned.

Exact rational arithmetic throughout: the case distinctions here are rank
decisions that rounding would corrupt.  They run on integers.  A map is
kept only as its matrix cleared to integers (den times the map, one dict of
nonzero entries per nonzero column): the rational matrix is cleared once, on
construction, and the wedge-square, star and curvature-form maps are built
straight as columns.  Its wedge table W[k1, k2] = R(e_k1) ^ R(e_k2) in the
fourth exterior power is summed from the nonzero entries with numpy, in
blocks, by the group algebra's engine (``young.sum_by_code``): sorted code
order, int64 inside the 2**62 guard and one object-dtype path past it.  The
decomposability verdict is the vanishing of every coefficient expanded from
W.  Maps and forms are immutable, so W and the verdict are computed once
per map, and a curvature form reads them from its map.
The power map reads its images from the rows of W.  The square-root
recovery runs on the integer columns too: each pencil's common line is
found by intersecting the images' supports one plane at a time (x lies in
the support of w iff x ^ w = 0), kept as a primitive integer vector, and
the multiples relating the images to the lines' wedges are compared by
cross-multiplication, with one division per entry of the returned B.  Each
witness of the map classifier is checked on the columns: phi and zeta by
the integer wedge and contraction kernels, a wedge square and the star case
by cross-multiplying the columns with the 2 x 2 minors of B or C cleared to
integers (contracted into the volume for the star case).

The curvature layer reads cleared integers as well.  A curvature form is
the b = 2 ``AntisymmetricForm``, read through its one integer table: its
map's columns come from it, the kernel is eliminated from it, the
flat-case metric is summed from one slice of it, and each witness is
re-verified by cross-multiplying it with the integer entries of its
defining formula (the 2 x 2 minors of B, or the flat form from one
elimination), so no Fraction tensor is built to compare.  A form keeps its
classification report.  The generator reads each entry straight from one
integer minor of G, with one Fraction per entry.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from projdyn.exactlin import (
    JsonValue,
    Multivector,
    Tensor,
    _contract_ints,
    _contract_multivector_ints,
    _eliminate,
    _wedge_ints,
    basis_multivector,
    clear_denominators,
    det,
    format_rational,
    kernel,
    multivector_to_json,
    rank,
    rat,
    sort_with_sign,
    tensor_from_json,
    tensor_to_json,
)
from projdyn.polyintegrals import AntisymmetricForm
from projdyn.screens import MAX_SCREEN_DIM
from projdyn.young import int_dtype, sum_by_code


class DecomposabilityError(ValueError):
    """The map does not send decomposable bivectors to decomposable ones
    (the defining biquadratic identity fails)."""


class KernelNotTrivialError(ValueError):
    """The curvature form has vectors annihilating it; reduce through the
    quotient before classifying."""


def pair_basis(dim):
    return list(itertools.combinations(range(dim), 2))


class BivectorMap:
    """Linear map between second exterior powers, kept as its cleared
    integer columns.

    Columns follow the lexicographic pair basis of the source, rows the pair
    basis of the destination.  No symmetry is assumed.  The map's state is
    its dimensions, its nonzero columns as a {source pair index: column}
    dict in index order, each column a {destination pair: int} dict of its
    nonzero entries in pair order, and den, the least common denominator of
    the entries (the map is the columns over den).  It is set once, on
    construction, and a map is immutable, like the ``exactlin`` values; the
    pair bases and its wedge table (with the decomposability verdict) are
    computed from it at most once, on first use.
    """

    _table = None

    def __init__(self, dim_src, dim_dst, matrix):
        src, dst = pair_basis(dim_src), pair_basis(dim_dst)
        if len(matrix) != len(dst) or any(len(row) != len(src) for row in matrix):
            raise ValueError("matrix shape does not match the pair bases")
        rows, den = _cleared_rows(matrix)
        cols = {c: col for c in range(len(src)) if (col := {pr: row[c] for pr, row in zip(dst, rows) if row[c]})}
        self._set(dim_src, dim_dst, cols, den)

    def _set(self, dim_src, dim_dst, cols, den):
        self.dim_src = dim_src
        self.dim_dst = dim_dst
        self._cols, self._den = cols, den

    @classmethod
    def _of(cls, dim_src, dim_dst, cols, den):
        """The map of the nonzero integer columns ``cols`` over den, keys in
        order; the common factor of den and the entries is divided out, so
        den is the one the rational matrix clears to."""
        if den > 1 and (g := math.gcd(den, *(v for col in cols.values() for v in col.values()))) > 1:
            cols, den = {k: {key: v // g for key, v in col.items()} for k, col in cols.items()}, den // g
        R = cls.__new__(cls)
        R._set(dim_src, dim_dst, cols, den)
        return R

    @functools.cached_property
    def src_pairs(self):
        return pair_basis(self.dim_src)

    @functools.cached_property
    def dst_pairs(self):
        return self.src_pairs if self.dim_dst == self.dim_src else pair_basis(self.dim_dst)

    @functools.cached_property
    def _pair_col(self):
        return {pr: k for k, pr in enumerate(self.src_pairs)}

    @classmethod
    def from_images(cls, dim_src, dim_dst, images):
        """Build from the list of images of the source pair basis."""
        return cls(dim_src, dim_dst, [[img.coords.get(pr, 0) for img in images] for pr in pair_basis(dim_dst)])

    @classmethod
    def wedge_square(cls, B):
        """R(x ^ y) = B(x) ^ B(y) for a linear map given as a matrix whose
        columns are the images of the basis vectors: the 2 x 2 minors of B
        cleared to integers, over the square of its den."""
        dim_dst, dim_src = len(B), len(B[0])
        b, den = _cleared_rows(B)
        minors = _minors(b, pair_basis(dim_src), pair_basis(dim_dst))
        return cls._of(dim_src, dim_dst, {k: col for k, col in enumerate(minors) if col}, den * den)

    def cleared(self):
        """(columns, den): each column as a {destination pair: int} dict of
        den times its nonzero entries, den clearing the whole matrix."""
        return [self._cols.get(k, {}) for k in range(len(self.src_pairs))], self._den

    @property
    def matrix(self):
        """The rational matrix, rows over destination pairs, built from the
        columns on each read."""
        cols, den = self.cleared()
        return [[Fraction(col.get(pr, 0), den) for col in cols] for pr in self.dst_pairs]

    def wedge_table(self) -> WedgeTable:
        """The wedge table of the nonzero columns, built once."""
        if self._table is None:
            entries = [(k, i, j, v) for k, col in self._cols.items() for (i, j), v in col.items()]
            self._table = _wedge_table(self.dim_src, self.dim_dst, entries)
        return self._table

    def rank(self) -> int:
        cols, _ = self.cleared()
        return rank([[col.get(pr, 0) for col in cols] for pr in self.dst_pairs])

    def is_invertible(self) -> bool:
        return self.dim_src == self.dim_dst and self.rank() == len(self.src_pairs)

    def star_compose(self):
        """Compose with the volume pairing on a destination of dimension 4:
        pi -> R(pi) -| vol, landing in 2-forms (same pair indexing).  Each
        cleared column is contracted into the volume, so den is kept."""
        if self.dim_dst != 4:
            raise ValueError("the star composition needs a destination of dimension 4")
        vol = {(0, 1, 2, 3): 1}
        cols = {k: dict(sorted(_contract_multivector_ints(col, vol).items())) for k, col in self._cols.items()}
        return BivectorMap._of(self.dim_src, self.dim_dst, cols, self._den)

    def to_json(self):
        return {
            "dim_src": self.dim_src,
            "dim_dst": self.dim_dst,
            "matrix": [[format_rational(x) for x in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, obj):
        r = JsonValue.of(obj, "bivector map")
        src, dst = (r.integer(key, low=1, high=MAX_SCREEN_DIM + 1) for key in ("dim_src", "dim_dst"))
        rows = [row.rationals(n=src * (src - 1) // 2) for row in r.items("matrix", dst * (dst - 1) // 2)]
        return cls(src, dst, rows)


def _cleared_rows(matrix):
    """(rows, den): the matrix cleared to integers, den times its entries."""
    n = len(matrix[0]) if matrix else 0
    ints, den = clear_denominators([x for row in matrix for x in row])
    return [ints[r * n:(r + 1) * n] for r in range(len(matrix))], den


def _minors(b, col_pairs, row_pairs):
    """The nonzero 2 x 2 minors b[i][p] b[j][q] - b[j][p] b[i][q] of b, as
    one {(i, j): minor} dict per column pair (p, q), keys in the order of
    ``row_pairs``: the columns of the wedge square of b."""
    return [{(i, j): m for i, j in row_pairs if (m := b[i][p] * b[j][q] - b[j][p] * b[i][q])}
            for p, q in col_pairs]


# ---------------------------------------------------------------------------
# the decomposability-preservation test

# products per block of the wedge table's product stream
_BLOCK = 1 << 16


class WedgeTable:
    """The wedges W[k1, k2] = R(e_k1) ^ R(e_k2) in the fourth exterior power
    of the destination, for source pairs k1 <= k2, on a map's cleared
    integer entries (den times the map), and the decomposability verdict
    decided from them.

    The nonzero values are kept as sorted codes ((k1 * P + k2) * d**4 + the
    base-d code of the increasing 4-subset), so each W[k1, k2] is one slice.
    """

    def __init__(self, dim_src, dim_dst, codes, values, preserves):
        self.npairs = dim_src * (dim_src - 1) // 2
        self.dim_dst = dim_dst
        self.codes = codes
        self.values = values
        self.preserves = preserves

    def row(self, k1, k2) -> dict:
        """W[k1, k2] as a {4-subset: int} dict, in increasing subset order."""
        k1, k2 = min(k1, k2), max(k1, k2)
        d = self.dim_dst
        base = (k1 * self.npairs + k2) * d ** 4
        lo, hi = np.searchsorted(self.codes, [base, base + d ** 4])
        digits = (self.codes[lo:hi, None] - base) // np.array([d ** 3, d ** 2, d, 1]) % d
        return dict(zip(map(tuple, digits.tolist()), self.values[lo:hi].tolist()))


def _wedge_table(dim_src, dim_dst, entries) -> WedgeTable:
    """Build the wedge table from the nonzero image entries and decide
    decomposability: R(x ^ y) ^ R(x ^ y) vanishes identically iff every
    coefficient of its (monomial, 4-subset) expansion is zero.

    ``entries`` lists (k, i, j, v) for the nonzero entries: v is the cleared
    int of source pair k at destination pair (i, j).  Every pair of entries
    with k1 <= k2 and disjoint destination pairs gives one signed product at
    (k1, k2, 4-subset); these are summed by code into W.  Each nonzero
    W[k1, k2] with k1 = (a, b), k2 = (c, d) then adds w times p_ab p_cd,
    with weight 2 off the diagonal, where p_ab p_cd = x_a x_c y_b y_d -
    x_a x_d y_b y_c - x_b x_c y_a y_d + x_b x_d y_a y_c.  Products run in
    blocks of about ``_BLOCK`` and are summed by ``sum_by_code``; the arrays
    are int64 inside the 2**62 guard and dtype=object past it.
    """
    npairs = dim_src * (dim_src - 1) // 2
    d = dim_dst
    quad = d ** 4
    # sorted by source pair, so the partners k2 >= k1 of an entry follow its pair's first entry
    entries = sorted(entries)
    n = len(entries)
    k, i, j = (np.array([e[c] for e in entries], dtype=np.int64).reshape(n) for c in range(3))
    bound = max((abs(e[3]) for e in entries), default=0)
    vals = np.array([e[3] for e in entries], dtype=int_dtype(bound, bound, n, n))
    cdt = int_dtype(npairs * npairs * quad)
    first = np.searchsorted(k, k)

    def wedges():
        r0 = 0
        while r0 < n:
            lo = first[r0]
            r1 = min(n, r0 + max(1, _BLOCK // (n - lo)))
            i1, j1, i2, j2 = i[r0:r1, None], j[r0:r1, None], i[None, lo:], j[None, lo:]
            keep = (k[None, lo:] >= k[r0:r1, None]) & (i1 != i2) & (i1 != j2) & (j1 != i2) & (j1 != j2)
            p, q = np.nonzero(keep)
            p += r0
            q += lo
            i1, j1, i2, j2 = i[p], j[p], i[q], j[q]
            # the sign of sorting (i1, j1, i2, j2), and the sorted 4-subset as a base-d code
            odd = ((i1 > i2).astype(np.int64) + (i1 > j2) + (j1 > i2) + (j1 > j2)) & 1
            mid1, mid2 = np.maximum(i1, i2), np.minimum(j1, j2)
            subset = (((np.minimum(i1, i2) * d + np.minimum(mid1, mid2)) * d
                       + np.maximum(mid1, mid2)) * d + np.maximum(j1, j2))
            yield (k[p].astype(cdt) * npairs + k[q]) * quad + subset, vals[p] * vals[q] * (1 - 2 * odd)
            r0 = r1

    codes, values = sum_by_code(wedges(), npairs * npairs * quad)
    top = int(np.abs(values).max()) if len(values) else 0
    wvals = values.astype(int_dtype(8, top, len(values)), copy=False)
    mdt = int_dtype(dim_src ** 4 * quad)
    pa, pb = (np.array([pr[c] for pr in pair_basis(dim_src)], dtype=np.int64).reshape(npairs) for c in (0, 1))

    def terms():
        step = max(1, _BLOCK // 4)
        for r in range(0, len(codes), step):
            block = codes[r:r + step]
            pair, subset = block // quad, block % quad
            k1, k2 = (pair // npairs).astype(np.int64), (pair % npairs).astype(np.int64)
            a, b, c, e = pa[k1], pb[k1], pa[k2], pb[k2]
            w = wvals[r:r + step] * np.where(k1 < k2, 2, 1)
            for x1, x2, y1, y2, sign in ((a, c, b, e, 1), (a, e, b, c, -1), (b, c, a, e, -1), (b, e, a, c, 1)):
                mono = ((np.minimum(x1, x2).astype(mdt) * dim_src + np.maximum(x1, x2)) * dim_src
                        + np.minimum(y1, y2)) * dim_src + np.maximum(y1, y2)
                yield mono * quad + subset, w * sign

    coeffs, _ = sum_by_code(terms(), dim_src ** 4 * quad)
    return WedgeTable(dim_src, dim_dst, codes, values, not len(coeffs))


def preserves_decomposables(R: BivectorMap) -> bool:
    """True iff R(x^y) ^ R(x^y) = 0 identically in (x, y).

    Decided exactly, once per map, from its integer wedge table (see
    ``_wedge_table``): the wedges W[k1, k2] = R(e_k1) ^ R(e_k2) of the
    matrix cleared to integers (the verdict is invariant under scaling R),
    then every coefficient of the biquadratic expansion in the coordinates
    of x and y.  Destinations of dimension at most 3 always pass (their
    fourth exterior power is zero).
    """
    return R.wedge_table().preserves


def _matchings(indices):
    """All perfect matchings of an even index tuple, with the sign of the
    corresponding permutation relative to the sorted order."""
    indices = tuple(indices)
    if not indices:
        yield (), 1
        return
    first = indices[0]
    rest = indices[1:]
    for k, second in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        sign = (-1) ** k
        for sub, sub_sign in _matchings(remaining):
            yield ((first, second),) + sub, sign * sub_sign


class WedgePowerMap:
    """The induced map on 2p-vectors sending pi_1 ^ ... ^ pi_p to
    R(pi_1) ^ ... ^ R(pi_p)."""

    def __init__(self, R: BivectorMap, p: int, images: dict):
        self.R = R
        self.p = p
        self.images = images  # 2p-subset tuple -> Multivector over dst

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())


def wedge_power_map(R: BivectorMap, p: int) -> WedgePowerMap:
    """Construct the induced map on 2p-vectors, verifying well-definedness on
    the spanning decomposables: every pairing of every basis 2p-subset must
    produce the same image.  Raises DecomposabilityError when the map does
    not preserve decomposability (the product formula is then inconsistent).

    The image of a pairing is read from the wedge table row of its first
    two pairs, with the cleared integer columns of any further pairs wedged
    on by the integer kernel of ``wedge``, and is divided by den**p only
    once it is kept.
    """
    if 2 * p > min(R.dim_src, R.dim_dst):
        raise ValueError("wedge power exceeds the dimension")
    if not preserves_decomposables(R):
        raise DecomposabilityError("map does not preserve decomposable bivectors")
    table = R.wedge_table()
    cols, den = R.cleared()
    den **= p
    images = {}
    for subset in itertools.combinations(range(R.dim_src), 2 * p):
        value = None
        for matching, sign in _matchings(subset):
            ks = [R._pair_col[pr] for pr in matching]
            img = table.row(ks[0], ks[1]) if p > 1 else cols[ks[0]]
            for k in ks[2:]:
                img = _wedge_ints(img, cols[k])
            if sign < 0:
                img = {key: -v for key, v in img.items()}
            if value is None:
                value = img
            elif value != img:
                raise DecomposabilityError("inconsistent pairings: the power map is ill-defined")
        images[subset] = Multivector._raw(R.dim_dst, 2 * p, {key: Fraction(v, den) for key, v in value.items()})
    return WedgePowerMap(R, p, images)


# ---------------------------------------------------------------------------
# classification of decomposability-preserving maps

def witnesses_to_json(witnesses: dict) -> dict:
    """Serialize report witnesses: multivectors as JSON, rationals (alone,
    in vectors or in matrices) as 'p/q' strings, anything else as is."""
    out = {}
    for key, val in witnesses.items():
        if isinstance(val, Multivector):
            out[key] = multivector_to_json(val)
        elif isinstance(val, (list, tuple)) and val and isinstance(val[0], (list, tuple)):
            out[key] = [[format_rational(x) for x in row] for row in val]
        elif isinstance(val, (list, tuple)):
            out[key] = [format_rational(x) for x in val]
        elif isinstance(val, (int, Fraction)):
            out[key] = format_rational(val)
        else:
            out[key] = val
    return out


class ClassificationReport:
    """Case tag plus exact witnesses; every witness satisfies its defining
    identity (re-verified before the report is produced)."""

    def __init__(self, case, witnesses, checks):
        self.case = case
        self.witnesses = witnesses
        self.checks = list(checks)

    def __repr__(self):
        return f"ClassificationReport(case={self.case!r})"

    def to_json(self):
        return {"case": self.case, "checks": self.checks, "witnesses": witnesses_to_json(self.witnesses)}


def _normalize(vec):
    lead = next((x for x in vec if x), None)
    if lead is None:
        return list(vec)
    return [x / lead for x in vec]


def _wedge_annihilator(R: BivectorMap):
    """Nonzero phi in the destination with R(pi) ^ phi = 0 for all pi, or None.

    One row per image and 3-subset t1 < t2 < t3: the e_t1 ^ e_t2 ^ e_t3
    coordinate of R(pi) ^ phi, read off the cleared integer columns (the
    kernel does not see the scale)."""
    d = R.dim_dst
    rows = []
    for col in R.cleared()[0]:
        for t1, t2, t3 in itertools.combinations(range(d), 3):
            row = [0] * d
            row[t3] += col.get((t1, t2), 0)
            row[t2] -= col.get((t1, t3), 0)
            row[t1] += col.get((t2, t3), 0)
            if any(row):
                rows.append(row)
    if not rows:
        return [Fraction(1)] + [Fraction(0)] * (d - 1)  # the zero map: anything works
    basis = kernel(rows)
    return _normalize(basis[0]) if basis else None


def _contraction_annihilator(R: BivectorMap):
    """Nonzero zeta (destination dual) with zeta -| R(pi) = 0 for all pi, or None."""
    d = R.dim_dst
    rows = []
    for col in R.cleared()[0]:
        for j in range(d):
            # the j-th component of zeta -| img, with img[(i, j)] = -img[(j, i)]
            row = [col.get((i, j), 0) - col.get((j, i), 0) for i in range(d)]
            if any(row):
                rows.append(row)
    if not rows:
        return [Fraction(1)] + [Fraction(0)] * (d - 1)
    basis = kernel(rows)
    return _normalize(basis[0]) if basis else None


def _decomposable_span(col: dict, d: int):
    """Two vectors spanning the support of a nonzero decomposable bivector,
    given as a coordinate dict: its contractions with e_a* and e_b* for a
    nonzero coordinate (a, b).  For x ^ y they are x_a y - y_a x and
    x_b y - y_b x, independent because x_a y_b - x_b y_a != 0."""
    a, b = next(iter(col))
    rows = [[0] * d, [0] * d]
    for (i, j), v in col.items():
        for row, c in zip(rows, (a, b)):
            if i == c:
                row[j] += v
            elif j == c:
                row[i] -= v
    return rows


def _common_line(pencil, d):
    """The line common to the supports of nonzero decomposable integer
    bivectors, as a primitive integer vector with a positive first nonzero
    entry; None when their supports do not meet in exactly a line.

    The planes are intersected one at a time, starting from the span of the
    first one (``_decomposable_span``): a vector x lies in the support of w
    iff x ^ w = 0, so span(a, b) meets it in the combinations q a - p b
    with p (b ^ w) = q (a ^ w), decided by cross-multiplication.  Once a
    line remains, every later plane must contain it.  The wedges are taken
    by the integer kernel of ``wedge``, so they stay ints.
    """
    basis = _decomposable_span(pencil[0], d)
    for col in pencil[1:]:
        images = [_wedge_ints({(i,): c for i, c in enumerate(x) if c}, col) for x in basis]
        if len(basis) == 1:
            if images[0]:
                return None
            continue
        (a, b), (wa, wb) = basis, images
        if not wa or not wb:
            if wa or wb:
                basis = [a] if not wa else [b]
            continue
        key = next(iter(wa))
        p, q = wa[key], wb.get(key, 0)
        if any(q * wa.get(k, 0) != p * wb.get(k, 0) for k in wa.keys() | wb.keys()):
            return None
        basis = [[q * x - p * y for x, y in zip(a, b)]]
    if len(basis) != 1:
        return None
    line = basis[0]
    g = math.gcd(*line)
    if next(x for x in line if x) < 0:
        g = -g
    return [x // g for x in line]


def _recover_square_root(R: BivectorMap):
    """For an invertible map of wedge-square type, recover (B, epsilon, scale)
    with R = epsilon * scale * B^2 on bivectors and B normalized; None when
    the images of the hyperplane pencils are not of the common-line type.

    The images must be decomposable (every caller has decided that).  It
    runs on the cleared integer columns: line i is the common line of the
    pencil images R(e_i ^ e_k), k != i (``_common_line``), kept as a
    primitive integer vector x_i, and R(e_i ^ e_j) must be a nonzero multiple
    m_ij of l_i ^ l_j, l_i = x_i / (first nonzero of x_i).  The m_ij and
    s = m_0i m_0j / m_ij (the same for every 0 < i < j) are kept as integer
    pairs and compared by cross-multiplication, so the only divisions build
    B (column j is l_j m_0j / s, column 0 is l_0), normalized to a first
    nonzero entry of 1, and its scale.
    """
    d = R.dim_src
    cols, den = R.cleared()
    if d == 2:
        m = Fraction(cols[0].get((0, 1), 0), den)
        if not m:
            return None
        eps = 1 if m > 0 else -1
        return [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], eps, abs(m)

    def image(i, j):
        return cols[R._pair_col[(min(i, j), max(i, j))]]

    lines = []
    for i in range(d):
        pencil = [image(i, k) for k in range(d) if k != i]
        if not all(pencil):
            return None
        line = _common_line(pencil, R.dim_dst)
        if line is None:
            return None
        lines.append(line)
    leads = [next(x for x in line if x) for line in lines]
    # m[(i, j)] = num / den_ij, read on the cleared column against x_i ^ x_j
    m = {}
    for i, j in itertools.combinations(range(d), 2):
        img, xi, xj = image(i, j), lines[i], lines[j]
        w = {(a, b): xi[a] * xj[b] - xi[b] * xj[a] for a, b in itertools.combinations(range(d), 2)}
        w = {key: val for key, val in w.items() if val}
        if not w:
            return None
        key = next(iter(w))
        at_key = img.get(key, 0)
        if not at_key or any(img.get(pq, 0) * w[key] != at_key * w.get(pq, 0) for pq in img.keys() | w.keys()):
            return None
        m[(i, j)] = at_key * leads[i] * leads[j], w[key] * den
    s = None
    for i, j in itertools.combinations(range(1, d), 2):
        (n0i, d0i), (n0j, d0j), (nij, dij) = m[(0, i)], m[(0, j)], m[(i, j)]
        s_ij = n0i * n0j * dij, d0i * d0j * nij
        if s is None:
            s = s_ij
        elif s[0] * s_ij[1] != s_ij[0] * s[1]:
            return None
    # column j of B is x_j * top[j] / bottom[j]
    top = [1] + [m[(0, j)][0] * s[1] for j in range(1, d)]
    bottom = [leads[0]] + [m[(0, j)][1] * s[0] * leads[j] for j in range(1, d)]
    r, c = next((a, j) for a in range(d) for j in range(d) if lines[j][a])
    lead_top, lead_bottom = lines[c][r] * top[c], bottom[c]
    B = [[Fraction(lines[j][a] * top[j] * lead_bottom, bottom[j] * lead_top) for j in range(d)] for a in range(d)]
    s_norm = Fraction(s[0] * lead_top * lead_top, s[1] * lead_bottom * lead_bottom)
    eps = 1 if s_norm > 0 else -1
    return B, eps, abs(s_norm)


def _verify_wedge_square(R, B, factor, star=False) -> bool:
    """True iff R = factor * B^2 on bivectors, entry by entry, or with
    ``star`` iff R(x ^ y) = (B x ^ B y) -| factor vol.  Each cleared column
    of R (den times R) is compared with the 2 x 2 minors of B cleared to
    integers (den_B**2 times those of B), with ``star`` contracted into the
    volume, by cross-multiplying."""
    cols, den = R.cleared()
    b, den_b = _cleared_rows(B)
    minors = _minors(b, R.src_pairs, R.dst_pairs)
    if star:
        vol = {tuple(range(R.dim_dst)): 1}
        minors = [_contract_multivector_ints(m, vol) for m in minors]
    factor = rat(factor)
    left, right = den_b * den_b * factor.denominator, factor.numerator * den
    return all(col.get(key, 0) * left == m.get(key, 0) * right
               for col, m in zip(cols, minors) for key in col.keys() | m.keys())


def classify_bivector_map(R: BivectorMap) -> ClassificationReport:
    """Total classification of a decomposability-preserving map between
    equal-dimensional spaces; case precedence is (common wedge factor) >
    (common contraction annihilator) > (wedge square) > (dim-4 star case).

    Every returned witness is verified exactly against its defining identity;
    reaching no case signals a violated precondition.
    """
    if R.dim_src != R.dim_dst:
        raise ValueError("classification needs equal source and destination dimensions")
    if not preserves_decomposables(R):
        raise DecomposabilityError("map does not preserve decomposable bivectors")
    d = R.dim_src
    checks = ["decomposability preservation verified by full expansion"]

    cols = R.cleared()[0]
    phi = _wedge_annihilator(R)
    if phi is not None:
        phi_ints = {(i,): x for i, x in enumerate(clear_denominators(phi)[0]) if x}
        if any(_wedge_ints(col, phi_ints) for col in cols):
            raise ArithmeticError("wedge annihilator failed verification")
        checks.append("R(pi) ^ phi = 0 verified on the full pair basis")
        return ClassificationReport("phi_degenerate", {"phi": phi}, checks)

    zeta = _contraction_annihilator(R)
    if zeta is not None:
        zeta_ints = clear_denominators(zeta)[0]
        if any(_contract_ints(zeta_ints, col) for col in cols):
            raise ArithmeticError("contraction annihilator failed verification")
        checks.append("zeta -| R(pi) = 0 verified on the full pair basis")
        return ClassificationReport("zeta_degenerate", {"zeta": zeta}, checks)

    if not R.is_invertible():
        raise ArithmeticError(
            "non-invertible map without a degenerate witness: precondition violated"
        )

    rec = _recover_square_root(R)
    if rec is not None:
        B, eps, scale = rec
        if not _verify_wedge_square(R, B, eps * scale):
            raise ArithmeticError("recovered wedge square failed verification")
        checks.append("R = eps * scale * B^2 verified on the full pair basis")
        return ClassificationReport(
            "wedge_square", {"B": B, "epsilon": eps, "scale": scale}, checks
        )

    if d == 4:
        starred = R.star_compose()
        rec = _recover_square_root(starred)
        if rec is not None:
            C, eps, scale = rec
            if not _verify_wedge_square(R, C, eps * scale, star=True):
                raise ArithmeticError("star wedge square failed verification")
            mu = basis_multivector(4, (0, 1, 2, 3)).scale(Fraction(eps) * scale)
            checks.append("R(x^y) = (C x ^ C y) -| mu verified on the full pair basis")
            return ClassificationReport("star_wedge_square", {"C": C, "mu": mu}, checks)

    raise ArithmeticError("no classification case verified: precondition violated or bug")


# ---------------------------------------------------------------------------
# curvature-type forms (the symmetric specialization)

class CurvatureForm(AntisymmetricForm):
    """Order-4 form with the curvature symmetries, the b = 2 pair-antisymmetric
    form: pair antisymmetries and the cyclic identity, i.e. Im AS of the 2x2
    vertical tableau, checked once on construction.  The class implies the
    pair-exchange symmetry that makes the induced map from bivectors to
    2-forms symmetric.

    A form is immutable once built: its bivector map (with its wedge table
    and the decomposability verdict) and its classification report are
    built at most once, on first use.  Its map shares the form's integer
    table exactly: a member's entry at u > v or w > x is the negative of
    the one at u < v, w < x, so the map's columns are the table's ints at
    u < v, w < x over the table's den, as the dense matrix would clear to."""

    _map = None
    _report = None

    def __init__(self, tensor: Tensor):
        if tensor.order != 4:
            raise ValueError("curvature forms have order 4")
        super().__init__(tensor.dim, 2, tensor)

    def bivector_map(self) -> BivectorMap:
        """The induced map into 2-forms: the (w, x) component of the image of
        e_u ^ e_v is the tensor value at (u, v, w, x).  Built once, straight
        from the sparse entries and the table's ints."""
        if self._map is None:
            d = self.dim
            # (u, v) is source pair number u (2d - u - 1) / 2 + v - u - 1 in the lexicographic basis
            entries = sorted(((2 * d - u - 1) * u // 2 + v - u - 1, (w, x), c)
                             for (u, v, w, x), c in zip(self.tensor.entries, self.table().vals) if u < v and w < x)
            cols = {}
            for k, wx, c in entries:
                cols.setdefault(k, {})[wx] = c
            self._map = BivectorMap._of(d, d, cols, self.table().den)
        return self._map

    def satisfies_decomposability(self) -> bool:
        return self.bivector_map().wedge_table().preserves

    def to_json(self):
        out = tensor_to_json(self.tensor)
        out["symmetry"] = "riemann"
        return out

    @classmethod
    def from_json(cls, obj):
        r = JsonValue.of(obj, "curvature form")
        r.choice("symmetry", ("riemann",))
        r.integer("dim", low=1, high=MAX_SCREEN_DIM + 1)  # before tensor_from_json reads the entries
        return cls(tensor_from_json(r))


def _metric_ints(b_matrix):
    """(entries, den): den times the curvature form of b, as an {index:
    int} dict without zeros in product order.  Each entry is one integer
    expression in b cleared to integers (den_b * b), and den = den_b**2."""
    d = len(b_matrix)
    ints, den = clear_denominators([x for row in b_matrix for x in row])
    b = [ints[r * d:(r + 1) * d] for r in range(d)]
    entries = {}
    for u, v, w, x in itertools.product(range(d), repeat=4):
        val = b[u][w] * b[v][x] - b[u][x] * b[v][w]
        if val:
            entries[(u, v, w, x)] = val
    return entries, den * den


def metric_form_tensor(b_matrix) -> Tensor:
    """The curvature form of a symmetric bilinear form:
    R(u,v;w,x) = b(u,w) b(v,x) - b(u,x) b(v,w).

    Computed on b cleared to integers (``_metric_ints``), with one Fraction
    per entry."""
    entries, den = _metric_ints(b_matrix)
    return Tensor._raw(len(b_matrix), 4, {idx: Fraction(val, den) for idx, val in entries.items()})


def _flat_ints(phi, g_matrix, kernel_basis):
    """(entries, den): den times the flat-case curvature form, as an
    {index: int} dict without zeros in product order (see
    ``flat_form_tensor``).

    The kernel coordinates of phi -| (u ^ v) for all pairs u < v come from
    one elimination of the kernel basis (as columns) beside all the
    contracted pairs: those lie in its span iff no pivot falls past the
    basis columns, and the reduced form gives each pair's coordinates
    (zero at the free basis columns) as integers over the last pivot."""
    d = len(phi)
    phi = [rat(x) for x in phi]
    k = len(kernel_basis)
    pairs = list(itertools.combinations(range(d), 2))
    rows = [[rat(vec[i]) for vec in kernel_basis] + [phi[u] if i == v else -phi[v] if i == u else 0 for u, v in pairs]
            for i in range(d)]
    pivots, free, den_c, red = _eliminate(rows, k + len(pairs))
    if pivots and pivots[-1] >= k:
        raise ValueError("contracted pair left ker(phi): inconsistent witness data")
    at = {c: t for t, c in enumerate(free)}
    coords = [[0] * k for _ in pairs]
    for n, vec in enumerate(coords):
        for p, row in zip(pivots, red):
            vec[p] = row[at[k + n]]
    # on integers: den_c * coordinates and den_g * g, so den_c**2 * den_g * R;
    # R is summed at u < v and w < x only, as R(v, u, ., .) = -R(u, v, ., .)
    # and R(., ., x, w) = -R(., ., w, x)
    g_ints, den_g = clear_denominators([rat(x) for row in g_matrix for x in row])
    gc = [[sum(g_ints[a * k + b] * vec[b] for b in range(k)) for a in range(k)] for vec in coords]
    value = {(p, q): sum(a * b for a, b in zip(cp, gq)) for p, cp in zip(pairs, coords) for q, gq in zip(pairs, gc)}
    oriented = [((u, v), (u, v) if u < v else (v, u), u < v) for u, v in itertools.product(range(d), repeat=2) if u != v]
    entries = {}
    for (u, v), p, up in oriented:
        for (w, x), q, wp in oriented:
            if val := value[p, q]:
                entries[(u, v, w, x)] = val if up == wp else -val
    return entries, den_c * den_c * den_g


def flat_form_tensor(phi, g_matrix, kernel_basis) -> Tensor:
    """The flat-case curvature form
    R(u,v;w,x) = g(phi -| (u ^ v), phi -| (w ^ x)) with g given in the
    coordinates of a basis of ker(phi).

    The coordinates of all the contracted pairs come from one elimination
    and the entries are summed on integers (``_flat_ints``), with one
    Fraction per entry."""
    entries, den = _flat_ints(phi, g_matrix, kernel_basis)
    return Tensor._raw(len(phi), 4, {idx: Fraction(val, den) for idx, val in entries.items()})


def _is_scaled_copy(form: CurvatureForm, expected: dict, den, factor) -> bool:
    """True iff the form's tensor is factor * expected / den, expected being
    an {index: int} dict without zeros.  The form's integer table is
    compared with expected by cross-multiplying; as no entry on either side
    is zero, equal sizes and a match at every entry of the form make the
    index sets equal."""
    entries = form.tensor.entries
    if len(entries) != len(expected):
        return False
    ints, den_f = form.table().vals, form.table().den
    factor = rat(factor)
    left, right = den * factor.denominator, factor.numerator * den_f
    return all(r * left == expected.get(idx, 0) * right for idx, r in zip(entries, ints))


def _slice_metric(form: CurvatureForm, phi, kernel_basis):
    """The flat-case g on the kernel basis: g(a, b) = R(u, a, u, b) with
    u = e_k / phi_k, k the first nonzero of phi, i.e. the slice R(k, ., k, .)
    over phi_k**2.  Summed on the form's integer table and the kernel
    basis cleared to integers, with one Fraction per entry of g."""
    d = form.dim
    k = next(i for i, x in enumerate(phi) if x)
    ints, den_f = form.table().vals, form.table().den
    sliced = [(v, x, r) for (uu, v, ww, x), r in zip(form.tensor.entries, ints) if uu == k == ww]
    kb, den_k = clear_denominators([x for vec in kernel_basis for x in vec])
    kb = [kb[i * d:(i + 1) * d] for i in range(len(kernel_basis))]
    square = rat(phi[k]) ** 2
    top, bottom = square.denominator, den_f * den_k * den_k * square.numerator
    return [[Fraction(sum(r * ka[v] * kc[x] for v, x, r in sliced) * top, bottom) for kc in kb] for ka in kb]


class Eq91ViolationError(ValueError):
    """The curvature form does not satisfy the decomposability condition on
    its image 2-forms."""


def classify_curvature_form(form: CurvatureForm) -> ClassificationReport:
    """Classify a trivial-kernel curvature form satisfying the
    decomposability condition: the metric case (invertible symmetric map
    with R = eps * scale * B^2) or the flat case (hyperplane covector phi
    with a non-degenerate quadratic form on its kernel); dimension 2 returns
    the bare dim2 tag.  The complete defining formula is re-verified on all
    basis tuples before the report is returned, by cross-multiplying the
    form's integer table with the formula's integer entries.

    A form is immutable, so its report is kept on it: a second call (the
    screen finder's after the caller's own, say) returns the same report,
    which callers must not change.  A form that raises raises again on
    every call."""
    if form._report is None:
        form._report = _classify(form)
    return form._report


def _classify(form: CurvatureForm) -> ClassificationReport:
    d = form.dim
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if d == 2:
        return ClassificationReport("dim2", {}, ["dimension 2: no structure witnessed"])
    if not form.satisfies_decomposability():
        raise Eq91ViolationError("form violates the decomposability condition")
    if form.kernel():
        raise KernelNotTrivialError("form has a nontrivial kernel; quotient first")
    R = form.bivector_map()
    checks = ["decomposability condition verified", "trivial kernel verified"]

    if R.is_invertible():
        rec = _recover_square_root(R)
        if rec is None:
            raise ArithmeticError(
                "invertible curvature map is not a wedge square; the star case is"
                " excluded by the cyclic identity, so this is a bug"
            )
        B, eps, scale = rec
        if B != [list(row) for row in zip(*B)]:
            raise ArithmeticError("recovered metric is not symmetric")
        if not _is_scaled_copy(form, *_metric_ints(B), eps * scale):
            raise ArithmeticError("metric witness failed the full formula check")
        checks.append("R(u,v;w,x) = eps*scale*(b(u,w)b(v,x)-b(u,x)b(v,w)) verified")
        return ClassificationReport("metric", {"B": B, "epsilon": eps, "scale": scale}, checks)

    phi = _wedge_annihilator(R)
    if phi is None:
        raise ArithmeticError("non-invertible curvature map with no wedge annihilator: bug")
    kernel_basis = kernel([phi])
    g = _slice_metric(form, phi, kernel_basis)
    if det(g) == 0:
        raise ArithmeticError("flat-case quadratic form is degenerate despite trivial kernel")
    if g != [list(row) for row in zip(*g)]:
        raise ArithmeticError("flat-case bilinear form is not symmetric")
    if not _is_scaled_copy(form, *_flat_ints(phi, g, kernel_basis), 1):
        raise ArithmeticError("flat witness failed the full formula check")
    checks.append("R(u,v;w,x) = g(phi -| (u^v), phi -| (w^x)) verified on all basis tuples")
    return ClassificationReport(
        "flat", {"phi": phi, "g": g, "kernel_of_phi": kernel_basis}, checks
    )


# ---------------------------------------------------------------------------
# the symmetric-map generator

def _compound_minors(G, k):
    """(minors, den): the k x k minors of G cleared to integers (den_G times
    G), keyed by (rows S, columns T) over increasing k-subsets; they are
    den = den_G**k times the minors of G, the k-th compound.

    Built in one pass by size: a minor on rows S and columns T is the
    expansion along its first row, sum_m (-1)^m G[S0][T_m] M(S minus S0,
    T minus T_m), from the minors one size smaller."""
    d = len(G)
    ints, den = clear_denominators([x for row in G for x in row])
    G = [ints[r * d:(r + 1) * d] for r in range(d)]
    minors = {((), ()): 1}
    for size in range(1, k + 1):
        cols = list(itertools.combinations(range(d), size))
        minors = {
            (S, T): sum(
                (-1) ** m * G[S[0]][t] * minors[S[1:], T[:m] + T[m + 1:]]
                for m, t in enumerate(T) if G[S[0]][t]
            )
            # the rows S[k - size:] of the k-subsets S: every index at least k - size
            for S in itertools.combinations(range(k - size, d), size)
            for T in cols
        }
    return minors, den ** k


def curvature_from_symmetric_map(G) -> CurvatureForm:
    """Curvature form from a symmetric map of the dual space into the space:
    conjugate the (n-1)-th wedge power of G by the volume pairing.

    The result always satisfies the decomposability condition; its kernel is
    trivial exactly when rank(G) >= n.  Full-rank G lands in the metric case
    with the inverse of G as the metric, rank-n G in the flat case with the
    kernel line of G as the hyperplane direction (claims exercised by the
    round-trip tests rather than assumed).

    Read straight from the integer minors: with c(S) the complement of an
    index subset S and s(S) the sign of the contraction e_S -| e_0..d-1 =
    s(S) e_c(S), each entry R(a, b, w, x), a < b and w < x, is
    s(a, b) s(c(w, x)) M(c(w, x), c(a, b)) for M the
    (d - 2)-th compound of G, so one Fraction per entry; the antisymmetric
    copies take its sign.
    """
    d = len(G)
    if d < 3:
        raise ValueError("dimension must be at least 3")
    G = [[rat(x) for x in row] for row in G]
    if G != [list(row) for row in zip(*G)]:
        raise ValueError("G must be symmetric")
    minors, den = _compound_minors(G, d - 2)

    def contraction(S):
        rest = tuple(i for i in range(d) if i not in S)
        return rest, sort_with_sign(S + rest)[1]

    # (w, x) = c(S) and s(S) for the rows S of the compound, in their order
    rows = [(S, *contraction(S)) for S in itertools.combinations(range(d), d - 2)]
    entries = {}
    for a, b in pair_basis(d):
        T, s_ab = contraction((a, b))
        for S, (w, x), s_wx in rows:
            if m := minors[S, T]:
                val = Fraction(s_ab * s_wx * m, den)
                neg = -val
                entries[(a, b, w, x)] = val
                entries[(a, b, x, w)] = neg
                entries[(b, a, w, x)] = neg
                entries[(b, a, x, w)] = val
    form = CurvatureForm(Tensor._raw(d, 4, entries))
    if not form.satisfies_decomposability():
        raise ArithmeticError("generated form violates the decomposability condition")
    return form
