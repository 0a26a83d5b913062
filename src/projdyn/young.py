"""Young tableaux and the row/column symmetrizers S and A.

A tableau here is a partition shape plus a box-numbering convention:
"horizontal" numbers the boxes row by row, "vertical" column by column.
The same shape with the two numberings gives genuinely different operators
on N-linear forms, so the numbering is part of the value and is never
reinterpreted silently.

S symmetrizes the variables sitting in each row (an un-normalized sum over
all products of row permutations), A antisymmetrizes each column with signs.
Both are represented as elements of the group algebra of S_N (a dict from
permutation tuples to integers), which keeps identities such as
ASAS = lambda * AS decidable exactly and independently of the dimension of
the underlying space.

The group algebra runs on int64 arrays.  Composing two elements, acting on
a tensor and the image bases are one action (``_Action``): an index row jdx
and a permutation sigma with coefficient c give c * e_{jdx o sigma^-1}.
The products become base-k integer codes, one matrix product per block of
about 4k, and one engine, ``sum_by_code``, sums them by code: into one
zeroed int64 array of the codes when the code space is small next to the
number of products, and by sort otherwise.  Every output lists its keys in
sorted code order: the same dicts as the plain per-product loops, in
increasing key order.  A guard keeps every code and partial sum of an int64
array below 2**62; past it, or with non-integer coefficients, the same
arrays run with dtype=object, the one overflow path.  The wedge table of
``curvclass`` is summed by the same engine.  ``young_scalar`` keeps S, A
and every product as arrays from start to finish.

An action reads a ``ClearedTable``: a tensor's entries as an int64 index
array and integer numerators over one common denominator, cleared once,
with the bound of the values found once for all the actions summed over it.
Results stay tables (``act``) and become ``Fraction`` tensors only when
read.  The identity action on rows sorted inside blocks of slots sums a
table over rearrangements (``sorted_block_sums``): the diagonal of a form
is such a sum.

The same action decides membership in Im AS and Im SA.  Each slot identity
of a class (an antisymmetry or symmetry under an adjacent transposition
inside a column or row, and the identity tying a column or row to the head
of the next) is a group-algebra element identity + sum of +-sigma, one
small int64 array of permutation rows, that vanishes on the class; a check
clears the tensor's entries to integers once and sums each identity's
action over that one table, so no whole permuted tensor is built.

All values are immutable and every operation is a pure function, safe for
concurrent use.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from projdyn.exactlin import JsonValue, SparseEchelon, Tensor, clear_denominators


class NumberingError(ValueError):
    """A tableau with the wrong numbering was passed to a numbering-specific
    operation (e.g. an Im AS query on a horizontally numbered tableau)."""


def conjugate_partition(lengths):
    lengths = list(lengths)
    if not lengths:
        return ()
    out = []
    for c in range(lengths[0]):
        out.append(sum(1 for ln in lengths if ln > c))
    return tuple(out)


class YoungTableau:
    """Partition shape with a box numbering ("horizontal" or "vertical")."""

    __slots__ = ("rows", "numbering")

    def __init__(self, rows, numbering="horizontal"):
        rows = tuple(int(r) for r in rows)
        if not rows or any(r < 1 for r in rows):
            raise ValueError("row lengths must be positive")
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise ValueError("row lengths must be weakly decreasing")
        if numbering not in ("horizontal", "vertical"):
            raise ValueError("numbering must be 'horizontal' or 'vertical'")
        self.rows = rows
        self.numbering = numbering

    @classmethod
    def from_columns(cls, columns, numbering="vertical"):
        """Build from column lengths (the bracket notation [j1,...,jc])."""
        return cls(conjugate_partition(columns), numbering)

    @property
    def columns(self):
        return conjugate_partition(self.rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    def row_slots(self):
        """Variable slots per row."""
        return self._slots(self.rows, "horizontal")

    def column_slots(self):
        """Variable slots per column."""
        return self._slots(self.columns, "vertical")

    def _slots(self, lengths, numbering):
        """0-based variable slots per row (lengths = rows) or per column
        (lengths = columns): consecutive under the given numbering, and
        otherwise the k-th box of each crossing line."""
        if self.numbering == numbering:
            starts = itertools.accumulate(lengths, initial=0)
            return [list(range(start, start + ln)) for start, ln in zip(starts, lengths)]
        starts = list(itertools.accumulate(conjugate_partition(lengths), initial=0))
        return [[starts[i] + k for i in range(ln)] for k, ln in enumerate(lengths)]

    def __eq__(self, other):
        if not isinstance(other, YoungTableau):
            return NotImplemented
        return self.rows == other.rows and self.numbering == other.numbering

    def __hash__(self):
        return hash((self.rows, self.numbering))

    def __repr__(self):
        if self.numbering == "horizontal":
            return f"YoungTableau({list(self.rows)})"
        return f"YoungTableau[{list(self.columns)}]"

    def to_json(self):
        return {"rows": list(self.rows), "numbering": self.numbering}

    @classmethod
    def from_json(cls, obj):
        r = JsonValue.of(obj, "tableau")
        rows = r.integers("rows", at_least=1, low=1)
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise r.error("weakly decreasing row lengths", "rows")
        return cls(rows, r.choice("numbering", ("horizontal", "vertical")))


# ---------------------------------------------------------------------------
# group algebra machinery

@functools.cache
def _permutations(k):
    """The permutations of range(k) in lexicographic order (the order of
    ``itertools.permutations``) as a (k!, k) int64 array, and their signs;
    built once per k and shared read-only."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64).reshape(-1, k)
    odd = np.zeros(len(perms), dtype=bool)
    for i, j in itertools.combinations(range(k), 2):
        odd ^= perms[:, i] > perms[:, j]
    signs = np.where(odd, -1, 1)
    perms.setflags(write=False)
    signs.setflags(write=False)
    return perms, signs


def _block_group(blocks, n, signed):
    """All products of per-block permutations of the slots: an (m, n) int64
    array of permutations and their m coefficients (the signs when
    ``signed``, else ones).

    Row k of the array is perm with perm[k] = source slot of variable k, so
    that the associated operator is phi -> phi(x_{perm(0)}, ..., x_{perm(n-1)}).
    The first block's permutation varies slowest, each block's in
    lexicographic order.
    """
    perms = np.arange(n, dtype=np.int64)[None, :]
    signs = np.ones(1, dtype=np.int64)
    for block in blocks:
        if len(block) < 2:
            continue
        local, local_signs = _permutations(len(block))
        count = len(perms)
        perms = np.repeat(perms, len(local), axis=0)
        perms.reshape(count, len(local), n)[:, :, block] = np.asarray(block)[local]
        signs = np.multiply.outer(signs, local_signs).ravel()
    return perms, signs if signed else np.ones_like(signs)


def _element(perms, coefs) -> dict:
    """The group-algebra dict {perm tuple: int} of permutation rows."""
    return dict(zip(map(tuple, perms.tolist()), coefs.tolist()))


def symmetrizer_element(tableau: YoungTableau) -> dict:
    """S as a group-algebra element {perm: coefficient}."""
    return _element(*_block_group(tableau.row_slots(), tableau.size, signed=False))


def antisymmetrizer_element(tableau: YoungTableau) -> dict:
    """A as a group-algebra element {perm: signed coefficient}."""
    return _element(*_block_group(tableau.column_slots(), tableau.size, signed=True))


# Every code, product and partial sum of an int64 array stays below this;
# past it the same arrays run with dtype=object.
_INT64_SAFE = 2 ** 62
# products per block, and the fewest pending products that sum_by_code merges:
# the working arrays of one call stay small
_BLOCK = 4096
# sum_by_code adds int64 values into one zeroed array of all the codes when
# there are at most _DENSE_SPAN codes per product, and at most
# _DENSE_SPAN * _BLOCK = 2**16 codes (512 KiB).  Measured on a shared 2-vCPU
# Xeon (numpy 2.4, random codes, one merge): the array beat the sort at every
# code space up to 7,776 codes whatever the count, and at 46,656 and 65,536
# codes from 16 codes per product down (88 vs 97 us and 102 vs 102 us at
# 4,096 products; 44 vs 32 us at 45 codes per product, 57 vs 36 us at 64).
_DENSE_SPAN = 16


def int_dtype(*bounds):
    """int64 for integers bounded by the product of ``bounds`` (each taken as
    at least 1: the largest code, or |value| times the number of values
    summed) when it is below the guard; object for a larger product, or when
    a bound is None (non-integer values)."""
    if None in bounds:
        return object
    return np.int64 if math.prod(max(b, 1) for b in bounds) < _INT64_SAFE else object


def sum_by_code(blocks, size):
    """Sum a stream of (codes, values) array blocks by code, every code below
    ``size``; returns the increasing codes with nonzero sums, and those sums,
    as two arrays.

    The arrays are int64 when the caller's bounds on the codes and on the
    sums of absolute values pass ``int_dtype``, and dtype=object (Python
    ints, or Fractions) otherwise.  Int64 values over a code space of at
    most ``_DENSE_SPAN`` codes per product (and at most 2**16 codes) are
    added into one zeroed array of the codes (``np.add.at``), whose nonzero
    entries are read in code order.  Otherwise blocks wait until they
    outnumber the running sums, and at least ``_BLOCK`` products, and are
    then merged into them by one sort, so the memory follows the pending
    blocks plus the live sums.  Both give the same codes, sums and dtype.
    """
    keys = sums = np.empty(0, dtype=np.int64)
    pending, count, dense = [], 0, None

    def merge():
        codes = np.concatenate([keys, *(c for c, _ in pending)])
        vals = np.concatenate([sums, *(v for _, v in pending)])
        order = np.argsort(codes, kind="stable")
        codes, vals = codes[order], vals[order]
        starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
        total = np.add.reduceat(vals, starts)
        live = total != 0
        return codes[starts][live], total[live]

    for codes, vals in blocks:
        if dense is not None:
            np.add.at(dense, codes, vals)
            continue
        pending.append((codes, vals))
        count += len(codes)
        if vals.dtype == np.int64 and size <= _DENSE_SPAN * min(count, _BLOCK):
            dense = np.zeros(size, dtype=np.int64)
            for codes, vals in pending:
                np.add.at(dense, codes, vals)
        elif count >= max(_BLOCK, len(keys)):
            keys, sums = merge()
            pending, count = [], 0
    if dense is not None:
        keys = np.flatnonzero(dense != 0)
        return keys, dense[keys]
    if count:
        keys, sums = merge()
    return keys, sums


def _max_abs(values):
    """The largest |v| when every value is an int (as in an int64 array),
    else None."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return int(np.abs(values).max(initial=0))
    if not set(map(type, values)) <= {int}:
        return None
    return max(map(abs, values), default=0)


def index_array(indices, width):
    """The (n, width) int64 array of a collection of n index tuples."""
    flat = np.fromiter(itertools.chain.from_iterable(indices), dtype=np.int64, count=len(indices) * width)
    return flat.reshape(len(indices), width)


class ClearedTable:
    """Index rows with values over one common denominator: the input of an
    action (``_Action.sum_codes``).

    ``rows`` is an (n, width) int64 array, ``vals`` the n numerators (ints,
    for a cleared tensor) and ``den`` their denominator.  The largest |v|
    and the array of the values (int64 inside the guard) are found here
    once, for every action summed over the table.
    """

    __slots__ = ("dim", "rows", "vals", "den", "bound", "array")

    def __init__(self, dim, rows, vals, den=1):
        self.dim = dim
        self.rows = rows
        self.vals = vals
        self.den = den
        self.bound = _max_abs(vals)
        self.array = np.array(vals, dtype=int_dtype(self.bound))

    @classmethod
    def of(cls, t: Tensor) -> "ClearedTable":
        """t's entries, cleared to integers once (``clear_denominators``)."""
        ints, den = clear_denominators(t.entries.values())
        return cls(t.dim, index_array(t.entries, t.order), ints, den)

    def with_rows(self, rows) -> "ClearedTable":
        """The same values, and so the same bound, on other index rows."""
        out = ClearedTable.__new__(ClearedTable)
        out.dim, out.rows, out.vals, out.den, out.bound, out.array = (
            self.dim, rows, self.vals, self.den, self.bound, self.array)
        return out

    def tensor(self, scale=1) -> Tensor:
        """The table's values over its denominator, times a nonzero scale, as
        a Tensor: the only division, one Fraction per distinct value."""
        value = {v: Fraction(v, self.den) * scale for v in set(self.vals)}
        entries = dict(zip(map(tuple, self.rows.tolist()), map(value.__getitem__, self.vals)))
        return Tensor._raw(self.dim, self.rows.shape[1], entries)


@functools.cache
def _radix(base, width):
    """The place values base**(width - 1), ..., base, 1 of the base-``base``
    codes of index rows of ``width`` slots, int64 inside the guard.

    Built once per (base, width) and shared read-only: past the guard it is
    a row of ``width`` Python ints, so rebuilding it for each of a long
    tableau's identities made a class check quadratic in the order."""
    radix = np.array([base ** k for k in range(width - 1, -1, -1)], dtype=int_dtype(base ** width))
    radix.setflags(write=False)
    return radix


class _Action:
    """A group-algebra element acting on index rows: row jdx and permutation
    sigma with coefficient c give c * e_{jdx o sigma^-1}.

    Results are keyed by the base-``base`` code of the index tuple and
    summed by ``sum_by_code``, so they come in sorted code order.  The
    arrays are int64 inside the 2**62 guard; past it, or with non-integer
    coefficients, the same arrays run with dtype=object.
    """

    def __init__(self, perms, coefs, base):
        width = perms.shape[1]
        self.bound = _max_abs(coefs)
        self.size = base ** width
        self.coefs = coefs
        # jdx @ weights gives the codes of jdx o sigma^-1 for every sigma
        self.weights = _radix(base, width)[perms].T

    def sum_codes(self, table: ClearedTable):
        """Sum vals[i] * coefs[p] at the code of rows[i] o perms[p]^-1;
        returns the increasing codes and their nonzero sums, as arrays."""
        dtype = int_dtype(table.bound, self.bound, len(table.vals), len(self.coefs))
        vals, coefs = table.array.astype(dtype, copy=False), np.array(self.coefs, dtype=dtype)
        step = max(1, _BLOCK // len(coefs))
        blocks = (((table.rows[r:r + step] @ self.weights).ravel(), np.multiply.outer(vals[r:r + step], coefs).ravel())
                  for r in range(0, len(vals), step))
        return sum_by_code(blocks, self.size)

    def row_images(self, rows):
        """The image of each basis row e_rows[i], one (codes, sums) pair of
        lists per row, the codes increasing.

        The rows are summed in one ``sum_by_code`` stream with row i's codes
        offset by i * size, so no two rows share a code and the sorted codes
        come grouped by row.
        """
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
        count = len(rows)
        offsets = np.arange(count + 1, dtype=int_dtype(count * self.size)) * self.size
        codes = (rows @ self.weights + offsets[:-1, None]).ravel()
        coefs = np.array(self.coefs, dtype=int_dtype(self.bound, len(self.coefs), count))
        codes, sums = sum_by_code([(codes, np.tile(coefs, count))], count * self.size)
        bounds = np.searchsorted(codes, offsets).tolist()
        codes, sums = (codes % self.size).tolist(), sums.tolist()
        return [(codes[lo:hi], sums[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def index_rows(codes, base, width):
    """The (n, width) int64 array of the index rows of base-``base`` codes."""
    radix = _radix(base, width)
    codes = np.asarray(codes, dtype=radix.dtype).reshape(-1, 1)
    return (codes // radix % base).astype(np.int64)


def compose_elements(g: dict, h: dict) -> dict:
    """Convolution with L_g . L_h = L_{g*h}: (g*h) applies h first.

    The dict form of ``_compose``: the keys become an int64 array of
    permutations, the products are summed by base-n code, and the result
    lists its keys in sorted code order, which is increasing permutation
    order.  Past the guard, or with non-integer coefficients, the same
    arrays run with dtype=object.
    """
    if not g or not h:
        return {}
    n = len(next(iter(h)))
    codes, sums = _compose((_perm_array(g, n), list(g.values())), (_perm_array(h, n), list(h.values())), n)
    return dict(zip(map(tuple, index_rows(codes, n, n).tolist()), sums.tolist()))


def _perm_array(g: dict, n: int):
    return np.array(list(g), dtype=np.int64).reshape(len(g), n)


def _compose(g, h, n):
    """g * h for elements of S_n given as (perms, coefs): perms an (m, n)
    int64 array, coefs m ints (a list or an array).

    The product of sigma in g and tau in h is keyed at sigma o tau, which is
    the action of tau^-1 on the index row sigma (``_Action``): the products
    are formed and summed by base-n code in blocks.  Returns the increasing
    codes and their nonzero sums, as arrays.
    """
    (rows, vals), (perms, coefs) = g, h
    return _Action(np.argsort(perms, axis=1), coefs, n).sum_codes(ClearedTable(n, rows, vals))


def act(g: dict, table: ClearedTable) -> ClearedTable:
    """The action of g on a cleared table: (L_sigma phi)[idx] = phi[idx o
    sigma], so entry jdx lands at idx = jdx o sigma^-1.

    The sums run by base-dim code (``_Action``), with one object-dtype path
    past the guard; the result keeps the table's denominator and lists its
    nonzero entries in sorted code order, which is increasing index order.
    """
    order = table.rows.shape[1]
    action = _Action(_perm_array(g, order), list(g.values()), table.dim)
    codes, sums = action.sum_codes(table)
    return ClearedTable(table.dim, index_rows(codes, table.dim, order), sums.tolist(), table.den)


def apply_element(g: dict, t: Tensor) -> Tensor:
    """Act on a tensor: (L_sigma phi)[idx] = phi[idx o sigma].

    The entries are scaled to integers once (``ClearedTable.of``), acted on
    (``act``), and divided back only in the result.
    """
    if not g or not t.entries:
        return Tensor._raw(t.dim, t.order, {})
    return act(g, ClearedTable.of(t)).tensor()


def _check_order(tableau, t):
    if t.order != tableau.size:
        raise ValueError(f"tensor order {t.order} != tableau size {tableau.size}")


def symmetrize_S(tableau: YoungTableau, t: Tensor) -> Tensor:
    """Un-normalized sum over all products of row-wise permutations."""
    _check_order(tableau, t)
    return apply_element(symmetrizer_element(tableau), t)


def antisymmetrize_A(tableau: YoungTableau, t: Tensor) -> Tensor:
    """Signed sum over all products of column-wise permutations."""
    _check_order(tableau, t)
    return apply_element(antisymmetrizer_element(tableau), t)


def young_scalar(tableau: YoungTableau) -> int:
    """The positive integer lambda with ASAS = lambda AS and SASA = lambda SA.

    Computed by exact ratio in the group algebra of S_N; equality there gives
    equality of the induced operators on every basis tensor of every
    dimension.  S and A are arrays of permutations (``_block_group``) and
    every product stays a pair of code and sum arrays (``_compose``),
    decoded to permutations only as the factor of the next product; each
    square is formed in the cheaper association (``_square``).  The ratio
    at one key is decided to be a positive integer first, and both
    identities are then checked in full, on every code, with that int; any
    failure signals an implementation bug.
    """
    n = tableau.size
    S = _block_group(tableau.row_slots(), n, signed=False)
    A = _block_group(tableau.column_slots(), n, signed=True)
    AS = _compose(A, S, n)
    if not len(AS[0]):
        raise ValueError("AS is the zero element; cannot extract the scalar")
    ASAS = _square(A, S, AS, n)
    (codes, sums), (square_codes, square_sums) = AS, ASAS
    at = np.searchsorted(square_codes, codes[0])
    if at == len(square_codes) or square_codes[at] != codes[0]:
        raise ArithmeticError("ASAS not proportional to AS")
    num, den = int(square_sums[at]), int(sums[0])
    lam, rest = divmod(num, den)
    if rest or lam <= 0:
        raise ArithmeticError(f"scalar {Fraction(num, den)} is not a positive integer")
    if not _is_multiple(ASAS, AS, lam):
        raise ArithmeticError("inconsistent ratio: ASAS != lambda AS")
    SA = _compose(S, A, n)
    if not _is_multiple(_square(S, A, SA, n), SA, lam):
        raise ArithmeticError("SASA != lambda SA with the same lambda")
    return lam


def _square(x, y, xy, n):
    """(xy)(xy) for elements x and y of S_n as (perms, coefs) and their
    product xy as (codes, sums).

    One product when it fits one block of ``_BLOCK`` products; otherwise
    x(y(xy)) when |x| <= |y|, else ((xy)x)y, so that the smaller factor
    multiplies the largest intermediate: at (3, 3), 10,368 + 5,760 products
    instead of 82,944."""
    xy = index_rows(xy[0], n, n), xy[1]
    if len(xy[1]) ** 2 <= _BLOCK:
        return _compose(xy, xy, n)
    if len(x[0]) <= len(y[0]):
        yxy = _compose(y, xy, n)
        return _compose(x, (index_rows(yxy[0], n, n), yxy[1]), n)
    xyx = _compose(xy, x, n)
    return _compose((index_rows(xyx[0], n, n), xyx[1]), y, n)


def _is_multiple(got, element, lam) -> bool:
    """True iff got = lam * element, both as (codes, sums) arrays."""
    (codes, sums), (base, units) = got, element
    units = units.astype(int_dtype(lam, _max_abs(units)), copy=False)
    return np.array_equal(codes, base) and np.array_equal(sums, units * lam)


# ---------------------------------------------------------------------------
# membership characterizations

def slot_identity(n: int, pairs, sign):
    """The element identity + sign * sum of the transpositions (m, p) in
    pairs, as a group-algebra element of S_n: an int64 array of its
    permutations, one row each, and the list of their coefficients."""
    perms = np.tile(np.arange(n, dtype=np.int64), (len(pairs) + 1, 1))
    for row, (m, p) in enumerate(pairs, start=1):
        perms[row, m], perms[row, p] = p, m
    return perms, [1] + [sign] * len(pairs)


def _class_identities(blocks, n: int, sign):
    """The identities cutting out Im SA (blocks = rows, sign = 1) or Im AS
    (blocks = columns, sign = -1): phi = sign T(m, p) phi for adjacent slots
    m, p of one block, then phi + sign sum_p T(p, head of the next block)
    phi = 0 over the boxes p of each block.  The adjacent transpositions
    generate each block's permutations and the sign is a character, so a
    block of k slots needs k - 1 identities, not k (k - 1) / 2."""
    for slots in blocks:
        for pair in zip(slots, slots[1:]):
            yield slot_identity(n, [pair], -sign)
    for here, after in zip(blocks, blocks[1:]):
        yield slot_identity(n, [(p, after[0]) for p in here], sign)


def annihilated_by_all(identities, table: ClearedTable) -> bool:
    """True iff every element of ``identities``, each a (perms, coefs) pair
    as ``slot_identity`` gives it, acts as zero on the table.

    Each identity sums its action over the one cleared table (``_Action``);
    the first identity leaving a nonzero sum decides.
    """
    if not table.vals:
        return True
    for perms, coefs in identities:
        if len(_Action(perms, coefs, table.dim).sum_codes(table)[1]):
            return False
    return True


def sorted_block_sums(table: ClearedTable, blocks):
    """Sums of the table's values over the rows that agree up to a
    rearrangement of the slots inside each block; the sum of a class sits at
    the base-``dim`` code of its row with each block sorted, the blocks side
    by side in the order given.

    The sums are the identity's action on the sorted rows (``_Action``,
    with one object-dtype path past the guard).  Returns (codes, sums) as
    lists of the nonzero sums, in sorted code order.
    """
    rows = np.concatenate([np.sort(table.rows[:, list(block)], axis=1) for block in blocks], axis=1)
    width = rows.shape[1]
    codes, sums = _Action(np.arange(width)[None, :], [1], table.dim).sum_codes(table.with_rows(rows))
    return codes.tolist(), sums.tolist()


def check_imSA(tableau: YoungTableau, t: Tensor) -> bool:
    """Exact membership test for Im SA (horizontally numbered tableau).

    Checks (i) symmetry under each adjacent transposition inside each row
    (these generate the row's permutations) and (ii) one identity per
    consecutive row pair:
    phi + sum over boxes p of row k of T(p, first box of row k+1) phi = 0.
    """
    if tableau.numbering != "horizontal":
        raise NumberingError("Im SA membership is a horizontal-numbering query")
    _check_order(tableau, t)
    return annihilated_by_all(_class_identities(tableau.row_slots(), t.order, 1), ClearedTable.of(t))


def check_imAS(tableau: YoungTableau, t: Tensor) -> bool:
    """Exact membership test for Im AS (vertically numbered tableau).

    Checks (i) antisymmetry under each adjacent transposition inside each
    column (these generate the column's permutations, and the sign is a
    character) and (ii) per consecutive column pair:
    phi - sum over boxes p of column k of T(p, top of column k+1) phi = 0.
    """
    if tableau.numbering != "vertical":
        raise NumberingError("Im AS membership is a vertical-numbering query")
    _check_order(tableau, t)
    return table_in_imAS(tableau, ClearedTable.of(t))


def table_in_imAS(tableau: YoungTableau, table: ClearedTable) -> bool:
    """``check_imAS`` on a cleared table of order tableau.size, for a caller
    that already holds its tensor's integer table."""
    return annihilated_by_all(_class_identities(tableau.column_slots(), tableau.size, -1), table)


# ---------------------------------------------------------------------------
# bases of the symmetry classes

def _block_indices(blocks, n: int, choices):
    """Index tuples with the values in each block of slots drawn from
    choices(len(block)), one value tuple per block."""
    for combo in itertools.product(*[choices(len(slots)) for slots in blocks]):
        idx = [0] * n
        for slots, values in zip(blocks, combo):
            for s, v in zip(slots, values):
                idx[s] = v
        yield tuple(idx)


def _image_basis(element: dict, dim: int, size: int, indices):
    """Exact basis of the image of a group-algebra element: apply it to the
    basis tensor of each index tuple and keep the results that enlarge the
    span found so far (sparse echelon reduction).

    Each image is an integer row keyed by base-dim codes, whose order is the
    order of the index tuples, so the echelon makes the same choices as on
    tuples; only the rows it accepts become ``Fraction`` tensors, with one
    ``Fraction`` per distinct value of the row.  The images of a block of
    index tuples are summed in one call (``_Action.row_images``) and reach
    the echelon in the tuples' order.
    """
    action = _Action(_perm_array(element, size), list(element.values()), dim)
    echelon = SparseEchelon()
    basis = []
    indices = iter(indices)
    step = max(1, _BLOCK // len(element))
    while block := list(itertools.islice(indices, step)):
        for codes, sums in action.row_images(block):
            row = dict(zip(codes, sums))
            if row and echelon.insert(row):
                value = {v: Fraction(v) for v in set(sums)}
                entries = dict(zip(map(tuple, index_rows(codes, dim, size).tolist()), map(value.__getitem__, sums)))
                basis.append(Tensor._raw(dim, size, entries))
    return basis


def imAS_basis(tableau: YoungTableau, dim: int):
    """Exact basis of Im AS over a dim-dimensional space.

    Applies AS to one representative basis tensor per row-group orbit (sorted
    inside each row: AS(e_idx) is invariant under permuting idx inside rows,
    so these orbits are enough to span Im AS).
    """
    AS = compose_elements(antisymmetrizer_element(tableau), symmetrizer_element(tableau))
    indices = _block_indices(
        tableau.row_slots(), tableau.size,
        lambda k: itertools.combinations_with_replacement(range(dim), k),
    )
    return _image_basis(AS, dim, tableau.size, indices)


def imSA_basis(tableau: YoungTableau, dim: int):
    """Exact basis of Im SA (column-canonical representatives, SA applied)."""
    SA = compose_elements(symmetrizer_element(tableau), antisymmetrizer_element(tableau))
    indices = _block_indices(
        tableau.column_slots(), tableau.size,
        lambda k: itertools.combinations(range(dim), k),
    )
    return _image_basis(SA, dim, tableau.size, indices)


def class_dimension(tableau: YoungTableau, dim: int) -> int:
    """Dimension of Im AS (or Im SA) over a dim-dimensional space, from the
    shape alone: the hook-content product of (dim + content) / hook."""
    rows, cols = tableau.rows, tableau.columns
    boxes = [(r, c) for r in range(len(rows)) for c in range(rows[r])]
    hooks = math.prod(rows[r] - c + cols[c] - r - 1 for r, c in boxes)
    return math.prod(dim + c - r for r, c in boxes) // hooks


def basis_products(tableau: YoungTableau, dim: int) -> int:
    """Index tuples times |S| times |A|: the products imAS_basis (vertical)
    or imSA_basis (horizontal) forms, from the shape alone."""
    if tableau.numbering == "vertical":
        tuples = math.prod(math.comb(dim + k - 1, k) for k in tableau.rows)
    else:
        tuples = math.prod(math.comb(dim, k) for k in tableau.columns)
    return tuples * math.prod(map(math.factorial, tableau.rows + tableau.columns))
