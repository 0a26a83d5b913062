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
decisions that rounding would corrupt.  They run on integers.  A map's
matrix is cleared to integers once (den times the map), and its wedge table
W[k1, k2] = R(e_k1) ^ R(e_k2) in the fourth exterior power is summed from
the nonzero entries with numpy, in blocks (int64 inside a 2**62 guard,
Python ints past it).  The decomposability verdict is the vanishing of
every coefficient expanded from W.  Maps and forms are immutable, so W and
the verdict are computed once per map, and a curvature form builds them
straight from its sparse entries and shares them with its bivector map.
The power map reads its images from the rows of W, the square-root
recovery reads each pencil image's span from two contractions of its
integer column, and the flat-case metric is read from one slice of the
form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from projdyn.exactlin import (
    JsonValue,
    Multivector,
    Tensor,
    basis_multivector,
    clear_denominators,
    contract,
    contract_multivector,
    det,
    format_rational,
    intersect_spans,
    kernel,
    multivector_to_json,
    rank,
    rat,
    solve,
    tensor_from_json,
    tensor_to_json,
    wedge,
)
from projdyn.polyintegrals import AntisymmetricForm
from projdyn.screens import MAX_SCREEN_DIM


class DecomposabilityError(ValueError):
    """The map does not send decomposable bivectors to decomposable ones
    (the defining biquadratic identity fails)."""


class KernelNotTrivialError(ValueError):
    """The curvature form has vectors annihilating it; reduce through the
    quotient before classifying."""


def pair_basis(dim):
    return list(itertools.combinations(range(dim), 2))


def pair_index(dim):
    return {pr: k for k, pr in enumerate(pair_basis(dim))}


class BivectorMap:
    """Linear map between second exterior powers as an exact matrix.

    Columns follow the lexicographic pair basis of the source, rows the pair
    basis of the destination.  No symmetry is assumed.  A map is immutable
    once built, like the ``exactlin`` values: its matrix cleared to integers
    and its wedge table (with the decomposability verdict) are computed at
    most once, on first use.
    """

    _cleared = None
    _table = None

    def __init__(self, dim_src, dim_dst, matrix):
        self.dim_src = dim_src
        self.dim_dst = dim_dst
        self.src_pairs = pair_basis(dim_src)
        self.dst_pairs = pair_basis(dim_dst)
        if len(matrix) != len(self.dst_pairs) or any(len(row) != len(self.src_pairs) for row in matrix):
            raise ValueError("matrix shape does not match the pair bases")
        self.matrix = [[rat(x) for x in row] for row in matrix]
        self._pair_col = pair_index(dim_src)

    @classmethod
    def from_images(cls, dim_src, dim_dst, images):
        """Build from the list of images of the source pair basis."""
        dst_pairs = pair_basis(dim_dst)
        matrix = [
            [img.coords.get(pr, Fraction(0)) for img in images]
            for pr in dst_pairs
        ]
        return cls(dim_src, dim_dst, matrix)

    @classmethod
    def wedge_square(cls, B):
        """R(x ^ y) = B(x) ^ B(y) for a linear map given as a matrix whose
        columns are the images of the basis vectors: the 2 x 2 minors of B,
        computed on B cleared to integers."""
        dim_dst = len(B)
        dim_src = len(B[0])
        ints, den = clear_denominators([x for row in B for x in row])
        b = [ints[r * dim_src:(r + 1) * dim_src] for r in range(dim_dst)]
        den *= den
        matrix = [[Fraction(b[i][p] * b[j][q] - b[j][p] * b[i][q], den) for p, q in pair_basis(dim_src)]
                  for i, j in pair_basis(dim_dst)]
        return cls(dim_src, dim_dst, matrix)

    def cleared(self):
        """(columns, den): each column as a {destination pair: int} dict of
        den times its nonzero entries, den clearing the whole matrix."""
        if self._cleared is None:
            ncols = len(self.src_pairs)
            ints, den = clear_denominators([x for row in self.matrix for x in row])
            cols = [{} for _ in range(ncols)]
            for r, pr in enumerate(self.dst_pairs):
                for c, v in enumerate(ints[r * ncols:(r + 1) * ncols]):
                    if v:
                        cols[c][pr] = v
            self._cleared = cols, den
        return self._cleared

    def wedge_table(self) -> WedgeTable:
        """The wedge table of the cleared columns, built once."""
        if self._table is None:
            cols, _ = self.cleared()
            entries = [(k, i, j, v) for k, col in enumerate(cols) for (i, j), v in col.items()]
            self._table = _wedge_table(self.dim_src, self.dim_dst, entries)
        return self._table

    def image_of_basis_pair(self, a, b) -> Multivector:
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        col = self._pair_col[(a, b)]
        coords = {pr: self.matrix[r][col] * sign for r, pr in enumerate(self.dst_pairs) if self.matrix[r][col]}
        return Multivector(self.dim_dst, 2, coords)

    def apply(self, pi: Multivector) -> Multivector:
        if pi.dim != self.dim_src or pi.grade != 2:
            raise ValueError("input must be a bivector over the source space")
        out = Multivector(self.dim_dst, 2, {})
        for pr, val in pi.coords.items():
            out = out + self.image_of_basis_pair(*pr).scale(val)
        return out

    def rank(self) -> int:
        return rank(self.matrix)

    def is_invertible(self) -> bool:
        return self.dim_src == self.dim_dst and self.rank() == len(self.src_pairs)

    def star_compose(self):
        """Compose with the volume pairing on the destination: pi -> R(pi) -| vol,
        landing in 2-forms over the destination (same pair indexing)."""
        vol = basis_multivector(self.dim_dst, tuple(range(self.dim_dst)))
        images = [
            contract_multivector(self.image_of_basis_pair(*pr), vol)
            for pr in self.src_pairs
        ]
        return BivectorMap.from_images(self.dim_src, self.dim_dst, images)

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


# ---------------------------------------------------------------------------
# the decomposability-preservation test

# Every code, product and partial sum of the int64 path stays below this;
# past it the same arrays run with dtype=object (Python ints).
_INT64_SAFE = 2 ** 62
# products summed per block: the working arrays of one call stay small
_BLOCK = 1 << 16


def _sum_codes(blocks):
    """Sum a stream of (codes, values) array blocks by code; returns the
    sorted codes with nonzero sums and those sums.

    Blocks wait until they outnumber the running sums and are then merged
    into them by one sort, so the memory follows the current blocks plus the
    live sums.  The wedge table is read by code, so sorted order is all the
    order it needs.
    """
    keys = sums = np.empty(0, dtype=np.int64)
    pending, size = [], 0

    def merge():
        codes = np.concatenate([keys] + [c for c, _ in pending])
        vals = np.concatenate([sums] + [v for _, v in pending])
        order = np.argsort(codes, kind="stable")
        codes, vals = codes[order], vals[order]
        starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
        total = np.add.reduceat(vals, starts)
        live = total != 0
        return codes[starts][live], total[live]

    for codes, vals in blocks:
        pending.append((codes, vals))
        size += len(codes)
        if size >= max(_BLOCK, len(keys)):
            keys, sums = merge()
            pending, size = [], 0
    if size:
        keys, sums = merge()
    return keys, sums


def _code_dtype(space):
    return np.int64 if space < _INT64_SAFE else object


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
    blocks of about ``_BLOCK``; the arrays are int64 inside the 2**62 guard
    and dtype=object past it.
    """
    npairs = dim_src * (dim_src - 1) // 2
    d = dim_dst
    quad = d ** 4
    # sorted by source pair, so the partners k2 >= k1 of an entry follow its pair's first entry
    entries = sorted(entries)
    n = len(entries)
    k, i, j = (np.array([e[c] for e in entries], dtype=np.int64).reshape(n) for c in range(3))
    bound = max((abs(e[3]) for e in entries), default=0)
    vals = np.array([e[3] for e in entries], dtype=np.int64 if bound * bound * n * n < _INT64_SAFE else object)
    cdt = _code_dtype(npairs * npairs * quad)
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

    codes, values = _sum_codes(wedges())
    top = int(np.abs(values).max()) if len(values) else 0
    wvals = values if 8 * top * len(values) < _INT64_SAFE else values.astype(object)
    mdt = _code_dtype(dim_src ** 4 * quad)
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

    coeffs, _ = _sum_codes(terms())
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

    def apply(self, m: Multivector) -> Multivector:
        if m.grade != 2 * self.p or m.dim != self.R.dim_src:
            raise ValueError("grade/dim mismatch")
        out = Multivector(self.R.dim_dst, 2 * self.p, {})
        for idx, val in m.coords.items():
            out = out + self.images[idx].scale(val)
        return out

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())


def wedge_power_map(R: BivectorMap, p: int) -> WedgePowerMap:
    """Construct the induced map on 2p-vectors, verifying well-definedness on
    the spanning decomposables: every pairing of every basis 2p-subset must
    produce the same image.  Raises DecomposabilityError when the map does
    not preserve decomposability (the product formula is then inconsistent).

    The image of a pairing is read from the wedge table row of its first
    two pairs, with the cleared integer columns of any further pairs wedged
    on (``wedge`` only multiplies and adds coordinates, so it runs on the
    ints), and is divided by den**p only once it is kept.
    """
    if 2 * p > min(R.dim_src, R.dim_dst):
        raise ValueError("wedge power exceeds the dimension")
    if not preserves_decomposables(R):
        raise DecomposabilityError("map does not preserve decomposable bivectors")
    table = R.wedge_table()
    cols, den = R.cleared()
    den **= p
    d = R.dim_dst
    images = {}
    for subset in itertools.combinations(range(R.dim_src), 2 * p):
        value = None
        for matching, sign in _matchings(subset):
            ks = [R._pair_col[pr] for pr in matching]
            img = table.row(ks[0], ks[1]) if p > 1 else cols[ks[0]]
            for half, k in enumerate(ks[2:], start=2):
                img = wedge(Multivector._raw(d, 2 * half, img), Multivector._raw(d, 2, cols[k])).coords
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


def _normalize_matrix(mat):
    """Scale so the first nonzero entry (row-major) is +1; returns (matrix, factor)."""
    lead = None
    for row in mat:
        for x in row:
            if x:
                lead = x
                break
        if lead is not None:
            break
    if lead is None:
        return [list(r) for r in mat], Fraction(1)
    return [[x / lead for x in row] for row in mat], lead


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


def _recover_square_root(R: BivectorMap):
    """For an invertible map of wedge-square type, recover (B, epsilon, scale)
    with R = epsilon * scale * B^2 on bivectors and B normalized; None when
    the images of the hyperplane pencils are not of the common-line type.

    The images must be decomposable (every caller has decided that): the
    span of each pencil image is read from two of its contractions."""
    d = R.dim_src
    if d == 2:
        m = R.matrix[0][0]
        if not m:
            return None
        eps = 1 if m > 0 else -1
        return [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], eps, abs(m)
    cols, den = R.cleared()
    lines = []
    for i in range(d):
        spans = []
        for k in range(d):
            if k == i:
                continue
            col = cols[R._pair_col[(min(i, k), max(i, k))]]
            if not col:
                return None
            spans.append(_decomposable_span(col, R.dim_dst))
        inter = intersect_spans(spans)
        if len(inter) != 1:
            return None
        lines.append(_normalize(inter[0]))
    # m[(i, j)]: the multiple of line_i ^ line_j that R(e_i ^ e_j) is, read on the cleared column
    m = {}
    for i, j in itertools.combinations(range(d), 2):
        img = cols[R._pair_col[(i, j)]]
        li, lj = lines[i], lines[j]
        w = {(a, b): li[a] * lj[b] - li[b] * lj[a] for a, b in itertools.combinations(range(d), 2)}
        w = {key: val for key, val in w.items() if val}
        if not w:
            return None
        key = next(iter(w))
        ratio = img.get(key, 0) / w[key]
        if not ratio or any(img.get(pq, 0) != ratio * w.get(pq, 0) for pq in img.keys() | w.keys()):
            return None
        m[(i, j)] = ratio / den
    s = None
    for i, j in itertools.combinations(range(1, d), 2):
        s_ij = m[(0, i)] * m[(0, j)] / m[(i, j)]
        if s is None:
            s = s_ij
        elif s != s_ij:
            return None
    coeffs = [Fraction(1)] + [m[(0, j)] / s for j in range(1, d)]
    B = [[lines[j][a] * coeffs[j] for j in range(d)] for a in range(d)]  # column j = c_j w_j
    B_norm, lead = _normalize_matrix(B)
    s_norm = s * lead * lead
    eps = 1 if s_norm > 0 else -1
    return B_norm, eps, abs(s_norm)


def _verify_wedge_square(R, B, factor):
    check = BivectorMap.wedge_square(B)
    return all(
        R.matrix[r][c] == factor * check.matrix[r][c]
        for r in range(len(R.dst_pairs))
        for c in range(len(R.src_pairs))
    )


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

    phi = _wedge_annihilator(R)
    if phi is not None:
        phi_mv = Multivector(d, 1, {(i,): x for i, x in enumerate(phi) if x})
        for pr in R.src_pairs:
            if not wedge(R.image_of_basis_pair(*pr), phi_mv).is_zero():
                raise ArithmeticError("wedge annihilator failed verification")
        checks.append("R(pi) ^ phi = 0 verified on the full pair basis")
        return ClassificationReport("phi_degenerate", {"phi": phi}, checks)

    zeta = _contraction_annihilator(R)
    if zeta is not None:
        for pr in R.src_pairs:
            if not contract(zeta, R.image_of_basis_pair(*pr)).is_zero():
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
            mu = basis_multivector(4, (0, 1, 2, 3)).scale(Fraction(eps) * scale)
            check_map = BivectorMap.wedge_square(C)
            for pr in R.src_pairs:
                expected = contract_multivector(check_map.image_of_basis_pair(*pr), mu)
                if expected != R.image_of_basis_pair(*pr):
                    raise ArithmeticError("star wedge square failed verification")
            checks.append("R(x^y) = (C x ^ C y) -| mu verified on the full pair basis")
            return ClassificationReport("star_wedge_square", {"C": C, "mu": mu}, checks)

    raise ArithmeticError("no classification case verified: precondition violated or bug")


# ---------------------------------------------------------------------------
# curvature-type forms (the symmetric specialization)

class CurvatureForm:
    """Order-4 form with the curvature symmetries: pair antisymmetries and
    the cyclic identity, i.e. Im AS of the 2x2 vertical tableau, checked once
    on construction.  The class implies the pair-exchange symmetry that makes
    the induced map from bivectors to 2-forms symmetric.

    A form is immutable once built: its wedge table (with the
    decomposability verdict) and its bivector map are built at most once,
    on first use."""

    _table = None
    _map = None

    def __init__(self, tensor: Tensor):
        if tensor.order != 4:
            raise ValueError("curvature forms have order 4")
        self.form = AntisymmetricForm(tensor.dim, 2, tensor)

    @property
    def dim(self):
        return self.form.dim

    @property
    def tensor(self):
        return self.form.tensor

    @classmethod
    def from_antisymmetric(cls, af: AntisymmetricForm):
        """Wrap a degree-2 form, whose constructor verified the class."""
        if af.b != 2:
            raise ValueError("need a degree-2 pair-antisymmetric form")
        out = cls.__new__(cls)
        out.form = af
        return out

    def _map_entries(self):
        """The entries R[u, v, w, x] with u < v and w < x: those of the
        bivector map, at source pair (u, v) and destination pair (w, x)."""
        return [(idx, val) for idx, val in self.tensor.entries.items() if idx[0] < idx[1] and idx[2] < idx[3]]

    def wedge_table(self) -> WedgeTable:
        """The wedge table of the bivector map, built once straight from the
        sparse entries (the dense matrix is not needed for it)."""
        if self._table is None:
            d = self.dim
            picked = self._map_entries()
            ints, _ = clear_denominators([val for _, val in picked])
            # (u, v) is source pair number u (2d - u - 1) / 2 + v - u - 1 in the lexicographic basis
            entries = [((2 * d - u - 1) * u // 2 + v - u - 1, w, x, c) for ((u, v, w, x), _), c in zip(picked, ints)]
            self._table = _wedge_table(d, d, entries)
        return self._table

    def bivector_map(self) -> BivectorMap:
        """The induced map into 2-forms: the (w, x) component of the image of
        e_u ^ e_v is the tensor value at (u, v, w, x).  Built once; it shares
        the form's wedge table, which its cleared matrix would reproduce."""
        if self._map is None:
            col = pair_index(self.dim)
            matrix = [[Fraction(0)] * len(col) for _ in col]
            for (u, v, w, x), val in self._map_entries():
                matrix[col[(w, x)]][col[(u, v)]] = val
            self._map = BivectorMap(self.dim, self.dim, matrix)
            self._map._table = self._table
        return self._map

    def satisfies_decomposability(self) -> bool:
        return self.wedge_table().preserves

    def kernel(self):
        """Exact kernel of u -> R_A(u, ., ., .) as a list of basis vectors."""
        return self.form.kernel()

    def diagonal_poly(self):
        return self.form.diagonal_poly()

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


def metric_form_tensor(b_matrix) -> Tensor:
    """The curvature form of a symmetric bilinear form:
    R(u,v;w,x) = b(u,w) b(v,x) - b(u,x) b(v,w).

    Computed on b cleared to integers (den * b), so each entry is one
    integer expression divided by den**2."""
    d = len(b_matrix)
    ints, den = clear_denominators([x for row in b_matrix for x in row])
    b = [ints[r * d:(r + 1) * d] for r in range(d)]
    den *= den
    entries = {}
    for u, v, w, x in itertools.product(range(d), repeat=4):
        val = b[u][w] * b[v][x] - b[u][x] * b[v][w]
        if val:
            entries[(u, v, w, x)] = Fraction(val, den)
    return Tensor._raw(d, 4, entries)


def flat_form_tensor(phi, g_matrix, kernel_basis) -> Tensor:
    """The flat-case curvature form
    R(u,v;w,x) = g(phi -| (u ^ v), phi -| (w ^ x)) with g given in the
    coordinates of a basis of ker(phi)."""
    d = len(phi)
    phi = [rat(x) for x in phi]
    g = [[rat(x) for x in row] for row in g_matrix]
    kb = [[rat(x) for x in vec] for vec in kernel_basis]
    k = len(kb)
    kmat = [[kb[j][i] for j in range(k)] for i in range(d)]

    # the kernel coordinates of phi -| (u ^ v) for u < v; (v, u) gives minus
    # them and (u, u) zero, as solve is linear in the right-hand side
    pairs = list(itertools.combinations(range(d), 2))
    coords = []
    for u, v in pairs:
        vec = [Fraction(0)] * d
        vec[v] += phi[u]
        vec[u] -= phi[v]
        sol = solve(kmat, vec)
        if sol is None:
            raise ValueError("contracted pair left ker(phi): inconsistent witness data")
        coords.extend(sol)
    # on integers: den_c * coordinates and den_g * g, one Fraction per entry
    ints, den_c = clear_denominators(coords)
    g_ints, den_g = clear_denominators([x for row in g for x in row])
    zero = [0] * k
    c = {(u, u): zero for u in range(d)}
    for n, (u, v) in enumerate(pairs):
        c[(u, v)] = ints[n * k:(n + 1) * k]
        c[(v, u)] = [-x for x in c[(u, v)]]
    gc = {key: [sum(g_ints[a * k + b] * vec[b] for b in range(k)) for a in range(k)] for key, vec in c.items()}
    den = den_c * den_c * den_g
    entries = {}
    for u, v in itertools.product(range(d), repeat=2):
        cu = c[(u, v)]
        if cu is zero:
            continue
        for w, x in itertools.product(range(d), repeat=2):
            val = sum(a * b for a, b in zip(cu, gc[(w, x)]))
            if val:
                entries[(u, v, w, x)] = Fraction(val, den)
    return Tensor._raw(d, 4, entries)


class Eq91ViolationError(ValueError):
    """The curvature form does not satisfy the decomposability condition on
    its image 2-forms."""


def classify_curvature_form(form: CurvatureForm) -> ClassificationReport:
    """Classify a trivial-kernel curvature form satisfying the
    decomposability condition: the metric case (invertible symmetric map
    with R = eps * scale * B^2) or the flat case (hyperplane covector phi
    with a non-degenerate quadratic form on its kernel); dimension 2 returns
    the bare dim2 tag.  The complete defining formula is re-verified on all
    basis tuples before the report is returned."""
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
        expected = metric_form_tensor(B).scale(Fraction(eps) * scale)
        if expected != form.tensor:
            raise ArithmeticError("metric witness failed the full formula check")
        checks.append("R(u,v;w,x) = eps*scale*(b(u,w)b(v,x)-b(u,x)b(v,w)) verified")
        return ClassificationReport("metric", {"B": B, "epsilon": eps, "scale": scale}, checks)

    phi = _wedge_annihilator(R)
    if phi is None:
        raise ArithmeticError("non-invertible curvature map with no wedge annihilator: bug")
    k = next(i for i, x in enumerate(phi) if x)
    kernel_basis = kernel([phi])
    # g(a, b) = R(u, a, u, b) with u = e_k / phi_k: the slice R(k, ., k, .) over phi_k^2
    sliced = [(v, x, val) for (uu, v, ww, x), val in form.tensor.entries.items() if uu == k == ww]
    square = phi[k] * phi[k]
    g = [[sum((val * ka[v] * kb[x] for v, x, val in sliced), Fraction(0)) / square for kb in kernel_basis]
         for ka in kernel_basis]
    if det(g) == 0:
        raise ArithmeticError("flat-case quadratic form is degenerate despite trivial kernel")
    if g != [list(row) for row in zip(*g)]:
        raise ArithmeticError("flat-case bilinear form is not symmetric")
    expected = flat_form_tensor(phi, g, kernel_basis)
    if expected != form.tensor:
        raise ArithmeticError("flat witness failed the full formula check")
    checks.append("R(u,v;w,x) = g(phi -| (u^v), phi -| (w^x)) verified on all basis tuples")
    return ClassificationReport(
        "flat", {"phi": phi, "g": g, "kernel_of_phi": kernel_basis}, checks
    )


# ---------------------------------------------------------------------------
# the symmetric-map generator

def _compound_matrix(G, k):
    """k-th compound (matrix of k x k minors): the induced action on the k-th
    exterior power, rows/cols indexed by increasing k-subsets."""
    d = len(G)
    ints, den = clear_denominators([x for row in G for x in row])
    G = [ints[r * d:(r + 1) * d] for r in range(d)]
    den **= k
    subsets = list(itertools.combinations(range(d), k))
    out = [[det([[G[i][j] for j in T] for i in S]) / den for T in subsets] for S in subsets]
    return out, subsets


def curvature_from_symmetric_map(G, vol_scale=1) -> CurvatureForm:
    """Curvature form from a symmetric map of the dual space into the space:
    conjugate the (n-1)-th wedge power of G by the volume pairing.

    The result always satisfies the decomposability condition; its kernel is
    trivial exactly when rank(G) >= n.  Full-rank G lands in the metric case
    with the inverse of G as the metric, rank-n G in the flat case with the
    kernel line of G as the hyperplane direction (claims exercised by the
    round-trip tests rather than assumed).
    """
    d = len(G)
    if d < 3:
        raise ValueError("dimension must be at least 3")
    G = [[rat(x) for x in row] for row in G]
    if G != [list(row) for row in zip(*G)]:
        raise ValueError("G must be symmetric")
    n = d - 1
    vol = basis_multivector(d, tuple(range(d))).scale(rat(vol_scale))
    comp, subsets = _compound_matrix(G, n - 1)
    column = {S: c for c, S in enumerate(subsets)}
    entries = {}
    for (a, b) in pair_basis(d):
        # e_a ^ e_b -| vol has one nonzero coordinate: the compound acts by reading its column
        omega = contract_multivector(basis_multivector(d, (a, b)), vol)
        coords_out = [
            sum((row[column[S]] * val for S, val in omega.coords.items()), Fraction(0))
            for row in comp
        ]
        sigma = Multivector(d, n - 1, {S: coords_out[i] for i, S in enumerate(subsets) if coords_out[i]})
        img = contract_multivector(sigma, vol)
        for (w, x), val in img.coords.items():
            for uu, vv, sgn_uv in ((a, b, 1), (b, a, -1)):
                for ww, xx, sgn_wx in ((w, x, 1), (x, w, -1)):
                    entries[(uu, vv, ww, xx)] = val * sgn_uv * sgn_wx
    form = CurvatureForm(Tensor._raw(d, 4, entries))
    if not form.satisfies_decomposability():
        raise ArithmeticError("generated form violates the decomposability condition")
    return form
