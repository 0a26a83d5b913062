"""Exact rational multilinear algebra.

Tensors (sparse N-linear forms), multivectors with wedge and interior
products, and exact Gaussian elimination (rank / kernel / solve / inverse /
determinant).  Values and results are `fractions.Fraction`; elimination
clears each row's denominators once (`clear_denominators`) and runs
fraction-free over Python ints, dividing by the pivots only at the end.
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


class FormatError(ValueError):
    """Malformed serialized data."""


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
    can run on the ints.
    """
    vals = [rat(x) for x in values]
    den = math.lcm(*[v.denominator for v in vals])
    return [v.numerator * (den // v.denominator) for v in vals], den


def parse_rational(s) -> Fraction:
    """A serialized rational: a 'p/q' string or a finite JSON number."""
    if isinstance(s, bool) or not isinstance(s, (str, int, float, Fraction)):
        raise FormatError(f"bad rational literal {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise FormatError(f"bad rational literal {s!r}") from exc


# ---------------------------------------------------------------------------
# permutations

def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of images of 0..N-1."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


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

    # -- slot manipulation ----------------------------------------------------

    def permute(self, sigma):
        """Permuted form phi' with phi'(x_0,..) = phi(x_{sigma(0)},..).

        In coefficients: phi'[idx] = phi[idx o sigma], so entry jdx of phi
        lands at the idx with idx[sigma[k]] = jdx[k].
        """
        sigma = tuple(sigma)
        if len(sigma) != self.order:
            raise ValueError("permutation length mismatch")
        out = {}
        for jdx, val in self.entries.items():
            idx = [0] * self.order
            for k, pos in enumerate(sigma):
                idx[pos] = jdx[k]
            out[tuple(idx)] = val  # a bijection on index tuples: no collisions
        return Tensor._raw(self.dim, self.order, out)

    def transpose_slots(self, m: int, n: int):
        """Exchange the variables in slots m and n (0-based)."""
        sigma = list(range(self.order))
        sigma[m], sigma[n] = sigma[n], sigma[m]
        return self.permute(sigma)

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

    def contract_slot(self, slot: int, vector):
        """Plug a fixed vector into one slot, dropping it from the order."""
        vec = [rat(c) for c in vector]
        out = {}
        for idx, val in self.entries.items():
            c = vec[idx[slot]]
            if not c:
                continue
            accumulate(out, idx[:slot] + idx[slot + 1:], val * c)
        return Tensor(self.dim, self.order - 1, out)

    def contract_slots(self, assignment: dict):
        """Plug vectors into several slots at once ({slot: vector})."""
        t = self
        for slot in sorted(assignment, reverse=True):
            t = t.contract_slot(slot, assignment[slot])
        return t


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


def basis_vector(dim: int, i: int) -> Multivector:
    return Multivector(dim, 1, {(i,): Fraction(1)})


def basis_multivector(dim: int, idx) -> Multivector:
    return Multivector(dim, len(idx), {tuple(idx): Fraction(1)})


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; returns the zero multivector when the grade overflows."""
    if a.dim != b.dim:
        raise ValueError("multivector dim mismatch")
    grade = a.grade + b.grade
    if grade > a.dim:
        return Multivector._raw(a.dim, grade, {})
    out = {}
    for ia, va in a.coords.items():
        for ib, vb in b.coords.items():
            key, sign = sort_with_sign(ia + ib)
            if sign:
                accumulate(out, key, va * vb * sign)
    return Multivector._raw(a.dim, grade, out)


def wedge_power(pi: Multivector, m: int) -> Multivector:
    """Repeated wedge pi ^ ... ^ pi (m factors), m >= 1."""
    if m < 1:
        raise ValueError("wedge power needs m >= 1")
    out = pi
    for _ in range(m - 1):
        out = wedge(out, pi)
    return out


def contract(xi, m: Multivector) -> Multivector:
    """Interior product of a covector into a multivector (an antiderivation).

    contract(xi, x ^ y) = <xi,x> y - <xi,y> x for grade 2.
    """
    if m.grade < 1:
        raise ValueError("cannot contract a grade-0 multivector")
    xi = [rat(c) for c in xi]
    if len(xi) != m.dim:
        raise ValueError("covector dim mismatch")
    out = {}
    for idx, val in m.coords.items():
        for pos, i in enumerate(idx):
            c = xi[i]
            if not c:
                continue
            accumulate(out, idx[:pos] + idx[pos + 1:], val * c * (1 if pos % 2 == 0 else -1))
    return Multivector._raw(m.dim, m.grade - 1, out)


def contract_multivector(pi: Multivector, omega: Multivector) -> Multivector:
    """Plug a k-multivector into the first k slots of an N-form.

    Both arguments use the Multivector container; ``omega`` is read as an
    alternating N-form over the dual basis.  On basis elements, for S a
    subset of T, e_S -| e_T* = sign * e_{T\\S}* where the sign moves S to the
    front of T.
    """
    if pi.dim != omega.dim:
        raise ValueError("dim mismatch")
    if pi.grade > omega.grade:
        raise ValueError("grade of the contracted multivector exceeds the form")
    out = {}
    for s_idx, sval in pi.coords.items():
        s_set = set(s_idx)
        for t_idx, tval in omega.coords.items():
            if not s_set.issubset(t_idx):
                continue
            rest = tuple(i for i in t_idx if i not in s_set)
            # parity of the shuffle putting (s_idx, rest) into sorted order t_idx
            _, sign = sort_with_sign(s_idx + rest)
            if sign:
                accumulate(out, rest, sval * tval * sign)
    return Multivector._raw(pi.dim, omega.grade - pi.grade, out)


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
    d = m.dim
    lower = sorted(set(idx[:pos] + idx[pos + 1:] for idx in m.coords for pos in range(m.grade)))
    row_of = {key: r for r, key in enumerate(lower)}
    # columns: covector coordinates; rows: coordinates of xi -| m
    mat = [[Fraction(0)] * d for _ in lower]
    for i in range(d):
        contracted = contract([Fraction(1) if j == i else Fraction(0) for j in range(d)], m)
        for key, val in contracted.coords.items():
            mat[row_of[key]][i] = val
    annihilators = kernel(mat)
    if not annihilators:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(d)] for i in range(d)]
    return kernel(annihilators)


# ---------------------------------------------------------------------------
# exact dense linear algebra (lists of lists of Fractions)

def identity_matrix(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def zeros_matrix(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros_matrix(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if not c:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                if bk[j]:
                    oi[j] += c * bk[j]
    return out


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for row in a]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def _int_rows(matrix):
    """Each row scaled to integers by the lcm of its own denominators."""
    return [clear_denominators(row)[0] for row in matrix]


def _eliminate(rows):
    """Fraction-free Gauss-Jordan on integer rows, in place; returns the
    pivot columns.

    Each update is p*row - f*pivot_row with the row's content gcd divided
    out, which keeps every row a primitive multiple of the corresponding
    row of the rational elimination.  Afterwards row r is zero at every
    pivot column but pivots[r], and the rows past the rank are zero.
    """
    nrows = len(rows)
    cols = len(rows[0])
    gcd = math.gcd
    pivots = []
    r = 0
    for c in range(cols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(matrix):
    """Reduced row echelon form; returns (rref rows, pivot column list).

    Eliminates over integers and divides each pivot row by its pivot only
    at the end; the reduced form is unique, so the Fraction rows are the
    same as those of rational Gauss-Jordan.
    """
    if not matrix:
        return [], []
    rows = _int_rows(matrix)
    pivots = _eliminate(rows)
    zero = Fraction(0)
    out = []
    for r, row in enumerate(rows):
        if r < len(pivots):
            p = row[pivots[r]]
            out.append([Fraction(x, p) if x else zero for x in row])
        else:
            out.append([zero] * len(row))
    return out, pivots


def rank(matrix) -> int:
    if not matrix:
        return 0
    return len(_eliminate(_int_rows(matrix)))


def kernel(matrix):
    """Basis of {x : M x = 0}, computed exactly.

    Vectors are returned as lists of Fractions; len(result) = cols - rank.
    """
    if not matrix:
        return []
    cols = len(matrix[0])
    red, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(matrix, rhs):
    """One exact solution of M x = rhs, or None when inconsistent."""
    if not matrix:
        return [] if not rhs else None
    rows, cols = len(matrix), len(matrix[0])
    aug = [list(matrix[i]) + [rat(rhs[i])] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    return x


def mat_inverse(matrix):
    """Exact inverse of a square matrix, or None when singular."""
    n = len(matrix)
    aug = [list(matrix[i]) + identity_matrix(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def det(matrix) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination on the
    integer-scaled rows, divided by the product of the row scales."""
    rows, scale = [], 1
    for row in matrix:
        ints, den = clear_denominators(row)
        rows.append(ints)
        scale *= den
    n = len(rows)
    sign, prev = 1, 1
    for c in range(n):
        for i in range(c, n):
            if rows[i][c]:
                break
        else:
            return Fraction(0)
        if i != c:
            rows[c], rows[i] = rows[i], rows[c]
            sign = -sign
        prow = rows[c]
        p = prow[c]
        for i in range(c + 1, n):
            f = rows[i][c]
            # Bareiss: the division by the previous pivot is exact
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], prow)]
        prev = p
    return Fraction(sign * prev, scale)


def subspace_echelon(vectors):
    """Canonical echelon basis of the span of coordinate vectors (for
    comparing subspaces: equal spans give identical echelons)."""
    if not vectors:
        return []
    red, pivots = rref(vectors)
    return [red[r] for r in range(len(pivots))]


def same_subspace(a, b) -> bool:
    return subspace_echelon(a) == subspace_echelon(b)


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
    runs over ints.  The stored rows are only partly reduced (a row may keep
    entries at pivots inserted before it); ``basis()`` finishes the reduction
    and divides by the pivots.
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

    def contains(self, vec) -> bool:
        red, lead = self._reduce(vec)
        return lead is None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis(self):
        """The reduced echelon basis, ordered by pivot: each row is 1 at its
        pivot and 0 at every other pivot.  It depends only on the span."""
        reduced = {}
        for piv in sorted(self.pivots, reverse=True):
            row = self.pivots[piv]
            # rows of larger pivots are final and hold no other pivot, so
            # clearing one pivot from ``row`` never brings back another
            for k in [k for k in row if k in reduced]:
                row = _eliminate_sparse(row, reduced[k], k)
            reduced[piv] = row
        out = []
        for piv in sorted(reduced):
            p = reduced[piv][piv]
            out.append({k: Fraction(v, p) for k, v in reduced[piv].items()})
        return out


def intersect_spans(spans):
    """Intersection of a list of subspaces of Q^d, each given by a basis.

    Works through annihilators: ann(S) = kernel of the matrix with the basis
    of S as rows; the intersection is the common kernel of all annihilators.
    """
    spans = [s for s in spans]
    if not spans:
        raise ValueError("need at least one subspace")
    d = len(spans[0][0])
    ann_rows = []
    for basis in spans:
        if not basis:
            return []  # intersection with the zero space
        ann_rows.extend(kernel(basis))
    if not ann_rows:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(d)] for i in range(d)]
    return kernel(ann_rows)


def sum_of_spans(spans):
    """Echelon basis of the sum of subspaces."""
    rows = [v for basis in spans for v in basis]
    return subspace_echelon(rows)


# ---------------------------------------------------------------------------
# JSON interchange

def tensor_to_json(t: Tensor) -> dict:
    entries = [
        {"idx": list(idx), "val": format_rational(val)}
        for idx, val in sorted(t.entries.items())
    ]
    return {"dim": t.dim, "order": t.order, "entries": entries}


def _entries_from_json(obj, what):
    if not isinstance(obj, dict):
        raise FormatError(f"{what}: expected an object")
    for key in ("dim", "order", "entries"):
        if key not in obj:
            raise FormatError(f"{what}: missing key {key!r}")
    seen = set()
    entries = {}
    for item in obj["entries"]:
        for key in ("idx", "val"):
            if not isinstance(item, dict) or key not in item:
                raise FormatError(f"{what}: entry missing key {key!r}")
        idx = tuple(item["idx"])
        if idx in seen:
            raise FormatError(f"{what}: duplicate idx {list(idx)}")
        seen.add(idx)
        entries[idx] = parse_rational(item["val"])
    return int(obj["dim"]), int(obj["order"]), entries


def tensor_from_json(obj) -> Tensor:
    dim, order, entries = _entries_from_json(obj, "tensor")
    try:
        return Tensor(dim, order, entries)
    except ValueError as exc:
        raise FormatError(f"tensor: {exc}") from exc


def multivector_to_json(m: Multivector) -> dict:
    entries = [
        {"idx": list(idx), "val": format_rational(val)}
        for idx, val in sorted(m.coords.items())
    ]
    return {"dim": m.dim, "order": m.grade, "entries": entries}


def multivector_from_json(obj) -> Multivector:
    dim, grade, entries = _entries_from_json(obj, "multivector")
    for idx in entries:
        if list(idx) != sorted(set(idx)):
            raise FormatError(f"multivector: idx {list(idx)} is not strictly increasing")
    try:
        return Multivector(dim, grade, entries)
    except ValueError as exc:
        raise FormatError(f"multivector: {exc}") from exc


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
