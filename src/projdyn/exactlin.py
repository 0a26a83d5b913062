"""Exact rational multilinear algebra.

Tensors (sparse N-linear forms), multivectors with wedge and interior
products, and exact Gaussian elimination (rank / kernel / solve / inverse /
determinant).  Values and results are `fractions.Fraction`; elimination
clears each row's denominators once (`clear_denominators`) and runs over
Python ints: Bareiss forward elimination, whose divisions are exact, then a
fraction-free back-substitution, with one Fraction built per returned entry.
The wedge and interior products clear each operand once in the same way,
sum on the ints and build one Fraction per coordinate.
Everything here is immutable after construction and all operations are pure
functions, so values can be shared freely between threads.

Conventions
-----------
* indices are 0-based and run over ``range(dim)``;
* multivector coordinates are keyed by strictly increasing index tuples,
  signs being normalized on construction by sorting with adjacent
  transpositions;
* a covector is a plain sequence of ``dim`` rationals.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

Rational = Fraction


class DegenerateInputError(ValueError):
    """An operation was applied to input it is not defined for (e.g. the
    support of the zero multivector)."""


def rat(x) -> Fraction:
    """Coerce ints, strings 'p/q' and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


def format_rational(x) -> str:
    """Serialize a rational as 'p/q' with q > 0 (q printed even when 1)."""
    f = rat(x)
    return f"{f.numerator}/{f.denominator}"


def accumulate(out: dict, key, val) -> None:
    """Add val at key of a sparse dict, keeping its canonical form: no
    stored value is zero, so a sum that cancels removes the key and a zero
    val never creates one."""
    old = out.get(key)
    if old is not None:
        val = old + val
        if not val:
            del out[key]
            return
    elif not val:
        return
    out[key] = val


def clear_denominators(values):
    """Scale rationals to integers by the lcm of their denominators, once.

    Returns (ints, den) with ints[k] == den * values[k].  Rank, kernel and
    decomposability decisions are invariant under such a scaling, so they
    can run on the ints.  Values that are all ints come back as they are,
    with den 1.
    """
    vals = list(values)
    kinds = set(map(type, vals))
    if kinds <= {int}:
        return vals, 1
    if not kinds <= {int, Fraction}:
        vals = [rat(x) for x in vals]
    dens = [v.denominator for v in vals]
    den = math.lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(vals, dens)], den


@functools.lru_cache(maxsize=1 << 16)
def sort_with_sign(indices: tuple):
    """Sort an index tuple, returning (sorted tuple, sign); sign 0 on repeats.

    Memoized: wedge products ask for the same few hundred keys over and over.
    The argument must be a tuple (it is the cache key).
    """
    idx = list(indices)
    sign = 1
    # insertion sort with transposition counting; fine at the sizes seen here
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


# ---------------------------------------------------------------------------
# tensors

class Tensor:
    """Sparse N-linear form over an (n+1)-dimensional space.

    ``entries`` maps N-index tuples to nonzero rationals; absent entries are
    zero.  Two tensors are equal iff dim, order and all entries agree.
    """

    __slots__ = ("dim", "order", "entries")

    def __init__(self, dim: int, order: int, entries=None):
        if dim < 1:
            raise ValueError("dim must be positive")
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.dim = dim
        self.order = order
        clean = {}
        for idx, val in (entries or {}).items():
            idx = tuple(idx)
            if len(idx) != order:
                raise ValueError(f"index {idx} has length {len(idx)}, expected {order}")
            if any(i < 0 or i >= dim for i in idx):
                raise ValueError(f"index {idx} out of range for dim {dim}")
            accumulate(clean, idx, rat(val))
        self.entries = clean

    @classmethod
    def _raw(cls, dim, order, entries):
        """Internal: wrap an already-normalized entry dict without re-checking."""
        out = cls.__new__(cls)
        out.dim = dim
        out.order = order
        out.entries = entries
        return out

    # -- ring-ish operations ------------------------------------------------

    def _check_compatible(self, other):
        if self.dim != other.dim or self.order != other.order:
            raise ValueError("tensor dim/order mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.entries)
        for idx, val in other.entries.items():
            accumulate(out, idx, val)
        return Tensor._raw(self.dim, self.order, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = rat(c)
        if not c:
            return Tensor._raw(self.dim, self.order, {})
        return Tensor._raw(self.dim, self.order, {idx: val * c for idx, val in self.entries.items()})

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.dim, self.order) == (other.dim, other.order) and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, self.order, frozenset(self.entries.items())))

    def __repr__(self):
        return f"Tensor(dim={self.dim}, order={self.order}, nnz={len(self.entries)})"

    def evaluate(self, vectors) -> Fraction:
        """Value on a full tuple of vectors (each a length-dim sequence)."""
        if len(vectors) != self.order:
            raise ValueError("need one vector per slot")
        total = Fraction(0)
        for idx, val in self.entries.items():
            term = val
            for slot, i in enumerate(idx):
                c = rat(vectors[slot][i])
                if not c:
                    term = Fraction(0)
                    break
                term *= c
            total += term
        return total


def basis_tensor(dim: int, idx) -> Tensor:
    return Tensor(dim, len(idx), {tuple(idx): Fraction(1)})


# ---------------------------------------------------------------------------
# multivectors

class Multivector:
    """Element of the k-th exterior power, sparse over increasing index tuples."""

    __slots__ = ("dim", "grade", "coords")

    def __init__(self, dim: int, grade: int, coords=None):
        if dim < 1:
            raise ValueError("dim must be positive")
        if grade < 0:
            raise ValueError("grade must be nonnegative")
        self.dim = dim
        self.grade = grade
        clean = {}
        for idx, val in (coords or {}).items():
            idx = tuple(idx)
            if len(idx) != grade:
                raise ValueError(f"index {idx} has length {len(idx)}, expected grade {grade}")
            if any(i < 0 or i >= dim for i in idx):
                raise ValueError(f"index {idx} out of range for dim {dim}")
            key, sign = sort_with_sign(idx)
            if sign == 0:
                continue
            accumulate(clean, key, rat(val) * sign)
        self.coords = clean

    @classmethod
    def _raw(cls, dim, grade, coords):
        """Internal: wrap coords with increasing keys and nonzero Fraction
        values without re-checking them."""
        out = cls.__new__(cls)
        out.dim = dim
        out.grade = grade
        out.coords = coords
        return out

    def _check_compatible(self, other):
        if self.dim != other.dim or self.grade != other.grade:
            raise ValueError("multivector dim/grade mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coords)
        for idx, val in other.coords.items():
            accumulate(out, idx, val)
        return Multivector._raw(self.dim, self.grade, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = rat(c)
        return Multivector._raw(self.dim, self.grade, {idx: val * c for idx, val in self.coords.items()} if c else {})

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return (self.dim, self.grade) == (other.dim, other.grade) and self.coords == other.coords

    def __hash__(self):
        return hash((self.dim, self.grade, frozenset(self.coords.items())))

    def __repr__(self):
        return f"Multivector(dim={self.dim}, grade={self.grade}, coords={self.coords})"

    def __getitem__(self, idx):
        key, sign = sort_with_sign(tuple(idx))
        if sign == 0:
            return Fraction(0)
        return self.coords.get(key, Fraction(0)) * sign


def vector(dim: int, coords) -> Multivector:
    """Grade-1 multivector from a coordinate sequence."""
    return Multivector(dim, 1, {(i,): rat(c) for i, c in enumerate(coords) if rat(c)})


def basis_multivector(dim: int, idx) -> Multivector:
    return Multivector(dim, len(idx), {tuple(idx): Fraction(1)})


def _wedge_ints(a: dict, b: dict) -> dict:
    """The coordinates of a ^ b from coordinate dicts: the signed products
    summed in the scan order of a, then b.  Int coordinates give ints."""
    out = {}
    for ia, va in a.items():
        for ib, vb in b.items():
            key, sign = sort_with_sign(ia + ib)
            if sign:
                accumulate(out, key, va * vb * sign)
    return out


def _cleared(m: Multivector):
    """(coords, den): m's coordinates as ints, den times their values."""
    ints, den = clear_denominators(m.coords.values())
    return dict(zip(m.coords, ints)), den


def _over(coords: dict, den) -> dict:
    """Integer coordinates divided by den: one Fraction per coordinate."""
    return {key: Fraction(v, den) for key, v in coords.items()}


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; returns the zero multivector when the grade overflows.

    Each operand is cleared to integers once and the products are summed on
    the ints (``_wedge_ints``), whose sum is den times the rational one: it
    cancels at the same keys, so the keys come in the same order, and one
    Fraction is built per coordinate.
    """
    if a.dim != b.dim:
        raise ValueError("multivector dim mismatch")
    grade = a.grade + b.grade
    if grade > a.dim:
        return Multivector._raw(a.dim, grade, {})
    (ia, da), (ib, db) = _cleared(a), _cleared(b)
    return Multivector._raw(a.dim, grade, _over(_wedge_ints(ia, ib), da * db))


def wedge_power(pi: Multivector, m: int) -> Multivector:
    """Repeated wedge pi ^ ... ^ pi (m factors), m >= 1."""
    if m < 1:
        raise ValueError("wedge power needs m >= 1")
    out = pi
    for _ in range(m - 1):
        out = wedge(out, pi)
    return out


def _contract_ints(xi, coords: dict) -> dict:
    """The coordinates of xi -| m from a covector and m's coordinate dict,
    summed in the scan order of m's keys, then their positions."""
    out = {}
    for idx, val in coords.items():
        for pos, i in enumerate(idx):
            c = xi[i]
            if not c:
                continue
            accumulate(out, idx[:pos] + idx[pos + 1:], val * c * (1 if pos % 2 == 0 else -1))
    return out


def contract(xi, m: Multivector) -> Multivector:
    """Interior product of a covector into a multivector (an antiderivation).

    contract(xi, x ^ y) = <xi,x> y - <xi,y> x for grade 2.  Runs on xi and
    m cleared to integers, with one Fraction built per coordinate.
    """
    if m.grade < 1:
        raise ValueError("cannot contract a grade-0 multivector")
    xi, dx = clear_denominators(xi)
    if len(xi) != m.dim:
        raise ValueError("covector dim mismatch")
    coords, dm = _cleared(m)
    return Multivector._raw(m.dim, m.grade - 1, _over(_contract_ints(xi, coords), dx * dm))


def _contract_multivector_ints(pi: dict, omega: dict) -> dict:
    """The coordinates of pi -| omega from coordinate dicts, summed in the
    scan order of pi, then omega."""
    out = {}
    for s_idx, sval in pi.items():
        s_set = set(s_idx)
        for t_idx, tval in omega.items():
            if not s_set.issubset(t_idx):
                continue
            rest = tuple(i for i in t_idx if i not in s_set)
            # parity of the shuffle putting (s_idx, rest) into sorted order t_idx
            _, sign = sort_with_sign(s_idx + rest)
            if sign:
                accumulate(out, rest, sval * tval * sign)
    return out


def contract_multivector(pi: Multivector, omega: Multivector) -> Multivector:
    """Plug a k-multivector into the first k slots of an N-form.

    Both arguments use the Multivector container; ``omega`` is read as an
    alternating N-form over the dual basis.  On basis elements, for S a
    subset of T, e_S -| e_T* = sign * e_{T\\S}* where the sign moves S to the
    front of T.  Runs on both operands cleared to integers, with one
    Fraction built per coordinate.
    """
    if pi.dim != omega.dim:
        raise ValueError("dim mismatch")
    if pi.grade > omega.grade:
        raise ValueError("grade of the contracted multivector exceeds the form")
    (ip, dp), (io, do) = _cleared(pi), _cleared(omega)
    return Multivector._raw(pi.dim, omega.grade - pi.grade, _over(_contract_multivector_ints(ip, io), dp * do))


def is_decomposable(pi: Multivector) -> bool:
    """True iff pi ^ pi = 0 (grade-2 input); always true when dim <= 3."""
    if pi.grade != 2:
        raise ValueError("decomposability test is for grade-2 multivectors")
    return wedge(pi, pi).is_zero()


def multivector_rank(pi: Multivector) -> int:
    """Rank of a bivector: 2 * max{m : pi^m != 0} (0 for the zero bivector)."""
    if pi.grade != 2:
        raise ValueError("rank is computed for grade-2 multivectors")
    if pi.is_zero():
        return 0
    m, power = 1, pi
    while True:
        nxt = wedge(power, pi)
        if nxt.is_zero():
            return 2 * m
        power = nxt
        m += 1


def support(m: Multivector):
    """Basis of the support subspace of a nonzero multivector.

    The support is the intersection of the kernels of the covectors xi with
    xi -| m = 0; for a decomposable x ^ y it is span{x, y}.  Returns a list
    of coordinate vectors (lists of Fractions).
    """
    if m.is_zero():
        raise DegenerateInputError("support of the zero multivector is undefined")
    # columns: covector coordinates; rows: coordinates of xi -| m, where
    # e_i* -| e_idx is (-1)^pos e_(idx without i) for i = idx[pos]
    rows = {}
    for idx, val in m.coords.items():
        for pos, i in enumerate(idx):
            rows.setdefault(idx[:pos] + idx[pos + 1:], [Fraction(0)] * m.dim)[i] = -val if pos % 2 else val
    return kernel(kernel(list(rows.values()), m.dim), m.dim)


# ---------------------------------------------------------------------------
# exact dense linear algebra (lists of lists of Fractions)

def _shape(matrix, square=None):
    """(rows, cols) of a list of rows (cols 0 without rows); ragged rows, or
    a non-square matrix given to the function named ``square``, are a ValueError."""
    lengths = {len(row) for row in matrix}
    if len(lengths) > 1:
        raise ValueError(f"matrix of {len(matrix)} rows has rows of lengths {sorted(lengths)}")
    n, cols = len(matrix), lengths.pop() if lengths else 0
    if square and cols != n:
        raise ValueError(f"{square} needs a square matrix, got {n}x{cols}")
    return n, cols


def identity_matrix(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def zeros_matrix(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def mat_mul(a, b):
    (rows, inner), (inner_b, cols) = _shape(a), _shape(b)
    if rows and inner != inner_b:
        raise ValueError(f"cannot multiply a {rows}x{inner} matrix by a {inner_b}x{cols} matrix")
    out = zeros_matrix(rows, cols)
    for ai, oi in zip(a, out):
        for c, bk in zip(ai, b):
            if c:
                for j, y in enumerate(bk):
                    if y:
                        oi[j] += c * y
    return out


def mat_vec(a, v):
    rows, cols = _shape(a)
    if rows and cols != len(v):
        raise ValueError(f"cannot multiply a {rows}x{cols} matrix by a vector of length {len(v)}")
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for row in a]


def _bareiss(rows, cols):
    """Bareiss forward elimination on integer rows, in place; returns the
    pivot columns and the sign of the row swaps.

    Each row below a pivot p becomes (p*row - f*prow) // prev, f being its
    entry in the pivot column and prev the previous pivot; the division is
    exact (Sylvester's identity, Bareiss 1968).  Afterwards row r is zero
    before pivots[r], the last pivot is the minor on the pivot rows and
    columns, and the rows past the rank are zero.
    """
    nrows = len(rows)
    pivots, sign, prev, r = [], 1, 1, 0
    for c in range(cols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                rows[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
        r += 1
        if r == nrows:
            break
    return pivots, sign


# A matrix with more than _TALL rows per column is cut to independent rows
# before Bareiss.  Interleaved timings of `_eliminate` with and without the
# cut (cols 3-8, rows up to 50 * cols, rank cols and cols - 1) put the
# break-even near 4-6 rows per column at full rank and, at corank one, near
# 12 at cols 4 falling to under 5 at cols 8 (none up to 50 at cols 3).
_TALL = 8


def _independent_rows(rows, cols):
    """A subset of the integer rows with the same row space, in their order.

    The rows kept so far are held in reduced echelon form over one common
    denominator D: ``echelon`` maps each pivot column c to the integers
    E_c = D * RREF_c, which vanish at the other pivots.  A row x lies in
    their span iff D * x[f] == sum_c x[c] * E_c[f] at every free column f,
    which is all that is computed for a dependent row.  A row that passes
    that test is kept: y = D * x - sum_c x[c] * E_c is zero at the pivots,
    its first nonzero free entry n becomes a pivot, each E_c becomes
    n * E_c - E_c[lead] * y, the new row D * y, and D becomes D * n (all
    divided by their common gcd).  The scan stops once cols rows are kept.
    """
    kept, echelon, den, free = [], {}, 1, list(range(cols))
    for row in rows:
        terms = [(row[c], e) for c, e in echelon.items() if row[c]]
        if all(den * row[f] == sum(a * e[f] for a, e in terms) for f in free):
            continue
        y = [den * x - sum(a * e[j] for a, e in terms) for j, x in enumerate(row)]
        lead = next(f for f in free if y[f])
        n = y[lead]
        for c, e in echelon.items():
            k = e[lead]
            echelon[c] = [n * a - k * b for a, b in zip(e, y)] if k else [n * a for a in e]
        echelon[lead] = [den * b for b in y]
        den *= n
        g = math.gcd(den, *(x for e in echelon.values() for x in e))
        if g > 1:
            den //= g
            echelon = {c: [x // g for x in e] for c, e in echelon.items()}
        free.remove(lead)
        kept.append(row)
        if not free:
            break
    return kept


def _eliminate(matrix, cols):
    """Bareiss elimination of each row scaled to integers, then fraction-free
    back-substitution; returns (pivots, free, d, red).

    d is the last pivot (1 at rank 0), free lists the other columns than the
    pivots, and red[k] holds the integers d * RREF[k][free] (Cramer's rule);
    RREF[k] is 1 at pivots[k] and 0 at the other pivots.  From the last row
    up, red_k = (d*row_k - sum_{j>k} row_k[pivots[j]] * red_j) // row_k[pivots[k]].

    A matrix with more than ``_TALL`` rows per column is first cut to an
    independent subset of its rows (``_independent_rows``), so Bareiss never
    rewrites the dependent rows below each pivot; the row space, and with
    it the reduced form that every caller reads, is unchanged.
    """
    rows = [clear_denominators(row)[0] for row in matrix]
    if len(rows) > _TALL * cols:
        rows = _independent_rows(rows, cols)
    pivots, _ = _bareiss(rows, cols)
    rank = len(pivots)
    free = sorted(set(range(cols)).difference(pivots))
    red = [[row[c] for c in free] for row in rows[:rank]]
    d = rows[rank - 1][pivots[-1]] if rank else 1
    for k in range(rank - 2, -1, -1):
        row, acc = rows[k], [d * x for x in red[k]]
        for j in range(k + 1, rank):
            if f := row[pivots[j]]:
                acc = [a - f * b for a, b in zip(acc, red[j])]
        p = row[pivots[k]]
        red[k] = [a // p for a in acc]
    return pivots, free, d, red


def rref(matrix):
    """Reduced row echelon form; returns (rref rows, pivot column list).

    Each entry of d times the reduced rows from `_eliminate` is divided by d
    once.  The reduced form is unique, so the Fraction rows are the same as
    those of rational Gauss-Jordan.
    """
    nrows, cols = _shape(matrix)
    pivots, free, d, red = _eliminate(matrix, cols)
    out = zeros_matrix(nrows, cols)
    for k, p in enumerate(pivots):
        out[k][p] = Fraction(1)
        for c, x in zip(free, red[k]):
            if x:
                out[k][c] = Fraction(x, d)
    return out, pivots


def rank(matrix) -> int:
    """Rank, from the forward pass of the elimination alone."""
    return len(_bareiss([clear_denominators(row)[0] for row in matrix], _shape(matrix)[1])[0])


def kernel(matrix, cols=None):
    """Basis of {x : M x = 0} as lists of Fractions, len(result) = cols - rank:
    per free column f, 1 at f and minus the RREF's column f on the pivots.
    ``cols`` is read only when the matrix has no rows (default 0).  A matrix
    with more than ``_TALL`` rows per column is eliminated on an independent
    subset of its rows (see ``_eliminate``), so each dependent row costs one
    membership test.
    """
    nrows, ncols = _shape(matrix)
    cols = ncols if nrows or cols is None else cols
    pivots, free, d, red = _eliminate(matrix, cols)
    basis = []
    for t, f in enumerate(free):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for p, row in zip(pivots, red):
            if row[t]:
                v[p] = Fraction(-row[t], d)
        basis.append(v)
    return basis


def solve(matrix, rhs):
    """One exact solution of M x = rhs (zero at the free columns), or None
    when inconsistent."""
    nrows, cols = _shape(matrix)
    if len(rhs) != nrows:
        raise ValueError(f"rhs of length {len(rhs)} for a {nrows}x{cols} matrix")
    pivots, _, d, red = _eliminate([list(row) + [b] for row, b in zip(matrix, rhs)], cols + 1)
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for p, row in zip(pivots, red):
        x[p] = Fraction(row[-1], d)
    return x


def mat_inverse(matrix):
    """Exact inverse of a square matrix, or None when singular."""
    n, _ = _shape(matrix, "mat_inverse")
    eye = identity_matrix(n)
    pivots, _, d, red = _eliminate([list(row) + e for row, e in zip(matrix, eye)], 2 * n)
    if pivots != list(range(n)):
        return None
    return [[Fraction(x, d) for x in row] for row in red]


def det(matrix) -> Fraction:
    """Exact determinant: the last pivot of `_bareiss` on the integer-scaled
    rows is their determinant up to the sign of the row swaps, and is
    divided by the product of the row scales."""
    n, _ = _shape(matrix, "det")
    scaled = [clear_denominators(row) for row in matrix]
    rows = [ints for ints, _ in scaled]
    pivots, sign = _bareiss(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[-1][-1] if n else 1, math.prod(den for _, den in scaled))


def _primitive(row: dict) -> dict:
    """A sparse integer row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _eliminate_sparse(row: dict, other: dict, label) -> dict:
    """The primitive integer row p*row - f*other, zero at ``label``, where p
    and f are the entries of ``other`` and ``row`` there."""
    p, f = other[label], row[label]
    g = math.gcd(p, f)
    a, b = p // g, f // g
    out = {k: a * v for k, v in row.items()}
    for k, v in other.items():
        accumulate(out, k, -b * v)
    return _primitive(out)


class SparseEchelon:
    """Incremental echelon basis for sparse vectors keyed by hashable labels.

    Used to compute ranks and membership for spans of tensors whose natural
    coordinates are index tuples.  Pivot choice is by the smallest label under
    the given ordering, which makes the reduced basis canonical.  Rows are
    kept as primitive integer multiples of the rational rows, so reduction
    runs over ints.  The stored rows are only partly reduced: a row may keep
    entries at pivots inserted before it.
    """

    def __init__(self):
        self.pivots = {}  # label -> primitive integer row (dict label -> int)

    def _reduce(self, vec):
        ints, _ = clear_denominators(vec.values())
        vec = {k: v for k, v in zip(vec, ints) if v}
        while vec:
            lead = min(vec)
            row = self.pivots.get(lead)
            if row is None:
                return _primitive(vec), lead
            vec = _eliminate_sparse(vec, row, lead)
        return vec, None

    def insert(self, vec) -> bool:
        """Reduce and insert; True if the vector enlarged the span."""
        red, lead = self._reduce(vec)
        if lead is None:
            return False
        # clear the new pivot from the existing rows
        for piv, row in self.pivots.items():
            if lead in row:
                self.pivots[piv] = _eliminate_sparse(row, red, lead)
        self.pivots[lead] = red
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


# ---------------------------------------------------------------------------
# JSON interchange

class FormatError(ValueError):
    """Malformed serialized data."""


def _to_rational(x):
    """x as a Fraction when it is a 'p/q' string or a finite number, else None."""
    if isinstance(x, bool) or not isinstance(x, (str, int, float, Fraction)):
        return None
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def _to_float(x):
    """x as a float when it is a finite JSON number, else None."""
    if isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x):
        return float(x)
    return None


@functools.lru_cache(maxsize=64)
def _to_int(low, high):
    """A converter to an int (not a bool) in [low, high), and the text of what
    it expects; cached, as the tensor and polynomial readers ask per entry."""
    return (lambda x: x if type(x) is int and low <= x < high else None), f"an integer in [{low}, {high})"


class JsonValue:
    """A JSON value with its path, e.g. scenario['force']['center'][1]; every
    reader of outside input checks what it reads through this class.

    Each accessor checks this value or, given ``key``, the one under that key
    of this object, and returns it as a plain Python value or raises
    FormatError naming its path.  The path string is built only then: list
    accessors check their elements without a reader each, and ``items`` walks
    a list of objects through one reused child."""

    __slots__ = ("value", "_parent", "_key")

    def __init__(self, value, name, parent=None):
        self.value = value
        self._key = name
        self._parent = parent

    @classmethod
    def of(cls, obj, name):
        """obj when it is a reader already (of a nested value), else a reader of obj named ``name``."""
        return obj if isinstance(obj, JsonValue) else cls(obj, name)

    @classmethod
    def parse(cls, text, name):
        """A reader of JSON text; text that is not JSON is a FormatError."""
        try:
            return cls(json.loads(text), name)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{name}: {exc}") from exc

    def path(self, key=None) -> str:
        head = self._key if self._parent is None else self._parent.path(self._key)
        return head if key is None else f"{head}[{key!r}]"

    def error(self, expected, key=None) -> FormatError:
        """The FormatError for this value, or for the one under a present key."""
        got = repr(self.value if key is None else self.value[key])
        return FormatError(f"{self.path(key)}: expected {expected}, got {got if len(got) <= 80 else got[:77] + '...'}")

    def _get(self, key):
        if key is None:
            return self.value
        if not isinstance(self.value, dict):
            raise self.error("an object")
        if key not in self.value:
            raise FormatError(f"{self.path()}: missing key {key!r}")
        return self.value[key]

    def _read(self, key, convert, expected):
        x = convert(self._get(key))
        if x is None:
            raise self.error(expected, key)
        return x

    def _read_all(self, key, n, at_least, convert, expected) -> list:
        seq = self.sequence(key, n, at_least)
        out = [convert(x) for x in seq]
        if None in out:
            raise (self if key is None else JsonValue(seq, key, self)).error(expected, out.index(None))
        return out

    def key(self, key) -> JsonValue:
        """The value under a required key, as a reader."""
        return JsonValue(self._get(key), key, self)

    def integer(self, key=None, low=0, high=math.inf) -> int:
        return self._read(key, *_to_int(low, high))

    def integers(self, key=None, n=None, at_least=0, low=0, high=math.inf) -> tuple:
        return tuple(self._read_all(key, n, at_least, *_to_int(low, high)))

    def finite(self, key=None) -> float:
        return self._read(key, _to_float, "a finite number")

    def floats(self, key=None, n=None) -> list:
        return self._read_all(key, n, 0, _to_float, "a finite number")

    def rational(self, key=None) -> Fraction:
        return self._read(key, _to_rational, "a rational 'p/q' or a finite number")

    def rationals(self, key=None, n=None, at_least=0) -> list:
        return self._read_all(key, n, at_least, _to_rational, "a rational 'p/q' or a finite number")

    def choice(self, key, options) -> str:
        return self._read(key, lambda x: x if isinstance(x, str) and x in options else None,
                          "one of " + ", ".join(map(repr, options)))

    def sequence(self, key=None, n=None, at_least=0):
        """A list of exactly n values, or of at least ``at_least`` when n is None."""
        x = self._get(key)
        if not isinstance(x, (list, tuple)) or (len(x) != n if n is not None else len(x) < at_least):
            length = f" of length {n}" if n is not None else f" of length >= {at_least}" if at_least else ""
            raise self.error("a list" + length, key)
        return x

    def items(self, key=None, n=None, at_least=0):
        """The elements of a list, each seen through one reused child reader."""
        seq = self.sequence(key, n, at_least)
        child = JsonValue(None, 0, self if key is None else JsonValue(seq, key, self))
        for i, x in enumerate(seq):
            child.value = x
            child._key = i
            yield child


def tensor_to_json(t: Tensor) -> dict:
    entries = [
        {"idx": list(idx), "val": format_rational(val)}
        for idx, val in sorted(t.entries.items())
    ]
    return {"dim": t.dim, "order": t.order, "entries": entries}


def tensor_from_json(obj) -> Tensor:
    r = JsonValue.of(obj, "tensor")
    dim, order = r.integer("dim", low=1), r.integer("order", low=0)
    entries = {}
    for entry in r.items("entries"):
        idx = entry.integers("idx", order, low=0, high=dim)
        if idx in entries:
            raise entry.error("an idx not listed before", "idx")
        entries[idx] = entry.rational("val")
    return Tensor._raw(dim, order, {idx: val for idx, val in entries.items() if val})


def multivector_to_json(m: Multivector) -> dict:
    entries = [
        {"idx": list(idx), "val": format_rational(val)}
        for idx, val in sorted(m.coords.items())
    ]
    return {"dim": m.dim, "order": m.grade, "entries": entries}


def dumps(obj) -> str:
    """Compact JSON with sorted keys: the byte-stable form of every output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
