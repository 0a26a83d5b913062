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
about 4k, and one engine, ``sum_by_code``, sums them by code, so every
output lists its keys in sorted code order: the same dicts as the plain
per-product loops, in increasing key order.  A guard keeps every code and
partial sum of an int64 array below 2**62; past it, or with non-integer
coefficients, the same arrays run with dtype=object, the one overflow path.
The wedge table of ``curvclass`` is summed by the same engine.

An action reads a ``ClearedTable``: a tensor's entries as an int64 index
array and integer numerators over one common denominator, cleared once,
with the bound of the values found once for all the actions summed over it.
Results stay tables (``act``) and become ``Fraction`` tensors only when
read.  The identity action on rows sorted inside blocks of slots sums a
table over rearrangements (``sorted_block_sums``): the diagonal of a form
and the first-block symmetrization of a polar form are such sums.

The same action decides membership in Im AS and Im SA.  Each slot identity
of a class (an antisymmetry or symmetry under an adjacent transposition
inside a column or row, and the identity tying a column or row to the head
of the next) is a group-algebra element {identity: 1, sigma: +-1, ...} that
vanishes on the class; a check clears the tensor's entries to integers once
and sums each identity's action over that one table, so no whole permuted
tensor is built.

All values are immutable and every operation is a pure function, safe for
concurrent use.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from projdyn.exactlin import JsonValue, SparseEchelon, Tensor, clear_denominators, perm_sign


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

    def box_position(self, row, col) -> int:
        """0-based variable slot of the box at (row, col)."""
        if self.numbering == "horizontal":
            return sum(self.rows[:row]) + col
        cols = self.columns
        return sum(cols[:col]) + row

    def row_slots(self):
        """Variable slots per row."""
        return [
            [self.box_position(r, c) for c in range(self.rows[r])]
            for r in range(len(self.rows))
        ]

    def column_slots(self):
        """Variable slots per column."""
        cols = self.columns
        return [
            [self.box_position(r, c) for r in range(cols[c])]
            for c in range(len(cols))
        ]

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

def _group_from_blocks(blocks, n, signed):
    """All products of per-block permutations of the slots, as (perm, sign).

    perm is a tuple with perm[k] = source slot of variable k, so that the
    associated operator is phi -> phi(x_{perm(0)}, ..., x_{perm(n-1)}).
    """
    out = [(tuple(range(n)), 1)]
    for block in blocks:
        if len(block) < 2:
            continue
        grown = []
        for base, bsign in out:
            for perm in itertools.permutations(block):
                sigma = list(base)
                for target, source in zip(block, perm):
                    sigma[target] = base[source]
                if signed:
                    s = perm_sign(tuple(block.index(p) for p in perm))
                else:
                    s = 1
                grown.append((tuple(sigma), bsign * s))
        out = grown
    return out


def symmetrizer_element(tableau: YoungTableau) -> dict:
    """S as a group-algebra element {perm: coefficient}."""
    n = tableau.size
    elem = {}
    for perm, _ in _group_from_blocks(tableau.row_slots(), n, signed=False):
        elem[perm] = elem.get(perm, 0) + 1
    return elem


def antisymmetrizer_element(tableau: YoungTableau) -> dict:
    """A as a group-algebra element {perm: signed coefficient}."""
    n = tableau.size
    elem = {}
    for perm, sign in _group_from_blocks(tableau.column_slots(), n, signed=True):
        elem[perm] = elem.get(perm, 0) + sign
    return elem


# Every code, product and partial sum of an int64 array stays below this;
# past it the same arrays run with dtype=object.
_INT64_SAFE = 2 ** 62
# products per block, and the fewest pending products that sum_by_code merges:
# the working arrays of one call stay small
_BLOCK = 4096


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
    ints, or Fractions) otherwise.  Blocks wait until they outnumber the
    running sums, and at least ``_BLOCK`` products, and are then merged into
    them by one sort, so the memory follows the pending blocks plus the live
    sums.  Codes below 2**16 sort as uint16, which numpy radix-sorts.
    """
    keys = sums = np.empty(0, dtype=np.int64)
    pending, count = [], 0

    def merge():
        codes = np.concatenate([keys, *(c for c, _ in pending)])
        vals = np.concatenate([sums, *(v for _, v in pending)])
        order = np.argsort(codes.astype(np.uint16) if size <= 2 ** 16 else codes, kind="stable")
        codes, vals = codes[order], vals[order]
        starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
        total = np.add.reduceat(vals, starts)
        live = total != 0
        return codes[starts][live], total[live]

    for codes, vals in blocks:
        pending.append((codes, vals))
        count += len(codes)
        if count >= max(_BLOCK, len(keys)):
            keys, sums = merge()
            pending, count = [], 0
    if count:
        keys, sums = merge()
    return keys, sums


def _max_abs(values):
    """The largest |v| when every value is an int, else None."""
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
        self.base = base
        self.size = base ** width
        self.coefs = coefs
        self.radix = _radix(base, width)
        # jdx @ weights gives the codes of jdx o sigma^-1 for every sigma
        self.weights = self.radix[perms].T

    def sum_codes(self, table: ClearedTable):
        """Sum vals[i] * coefs[p] at the code of rows[i] o perms[p]^-1;
        returns the increasing codes and the list of their nonzero sums."""
        dtype = int_dtype(table.bound, self.bound, len(table.vals), len(self.coefs))
        vals, coefs = table.array.astype(dtype, copy=False), np.array(self.coefs, dtype=dtype)
        step = max(1, _BLOCK // len(coefs))
        blocks = (((table.rows[r:r + step] @ self.weights).ravel(), np.multiply.outer(vals[r:r + step], coefs).ravel())
                  for r in range(0, len(vals), step))
        codes, sums = sum_by_code(blocks, self.size)
        return codes, sums.tolist()

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

    def index_rows(self, codes):
        """The (n, width) int64 array of the index rows of base-``base`` codes."""
        codes = np.asarray(codes, dtype=self.radix.dtype).reshape(-1, 1)
        return (codes // self.radix % self.base).astype(np.int64)

    def decode(self, codes):
        """Index tuples of base-``base`` codes."""
        return list(map(tuple, self.index_rows(codes).tolist()))


def compose_elements(g: dict, h: dict) -> dict:
    """Convolution with L_g . L_h = L_{g*h}: (g*h) applies h first.

    The product of sigma in g and tau in h is keyed at sigma o tau, which is
    the action of tau^-1 on the index row sigma, so the sums run through
    ``_Action`` in base n: int64 arrays in blocks, with one object-dtype
    path past the guard or for non-integer coefficients.  The result lists
    its keys in sorted code order, which is increasing permutation order.
    """
    if not g or not h:
        return {}
    n = len(next(iter(h)))
    inverses = np.argsort(np.array(list(h), dtype=np.intp).reshape(len(h), n), axis=1)
    action = _Action(inverses, list(h.values()), n)
    rows = np.array(list(g), dtype=np.int64).reshape(len(g), n)
    codes, sums = action.sum_codes(ClearedTable(n, rows, list(g.values())))
    return dict(zip(action.decode(codes), sums))


def scale_element(g: dict, c) -> dict:
    return {perm: coef * c for perm, coef in g.items()} if c else {}


def act(g: dict, table: ClearedTable) -> ClearedTable:
    """The action of g on a cleared table: (L_sigma phi)[idx] = phi[idx o
    sigma], so entry jdx lands at idx = jdx o sigma^-1.

    The sums run by base-dim code (``_Action``), with one object-dtype path
    past the guard; the result keeps the table's denominator and lists its
    nonzero entries in sorted code order, which is increasing index order.
    """
    order = table.rows.shape[1]
    perms = np.array(list(g), dtype=np.intp).reshape(len(g), order)
    action = _Action(perms, list(g.values()), table.dim)
    codes, sums = action.sum_codes(table)
    return ClearedTable(table.dim, action.index_rows(codes), sums, table.den)


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
    dimension.  The ratio at one key is decided to be a positive integer
    first, and both identities are then checked in full with that int; any
    failure signals an implementation bug.
    """
    S = symmetrizer_element(tableau)
    A = antisymmetrizer_element(tableau)
    AS = compose_elements(A, S)
    if not AS:
        raise ValueError("AS is the zero element; cannot extract the scalar")
    ASAS = compose_elements(AS, AS)
    key = next(iter(AS))
    if key not in ASAS:
        raise ArithmeticError("ASAS not proportional to AS")
    lam, rest = divmod(ASAS[key], AS[key])
    if rest or lam <= 0:
        raise ArithmeticError(f"scalar {Fraction(ASAS[key], AS[key])} is not a positive integer")
    if scale_element(AS, lam) != ASAS:
        raise ArithmeticError("inconsistent ratio: ASAS != lambda AS")
    SA = compose_elements(S, A)
    if scale_element(SA, lam) != compose_elements(SA, SA):
        raise ArithmeticError("SASA != lambda SA with the same lambda")
    return lam


# ---------------------------------------------------------------------------
# membership characterizations

def slot_identity(n: int, pairs, sign) -> dict:
    """The element identity + sign * sum of the transpositions (m, p) in
    pairs, as a group-algebra element of S_n."""
    element = {tuple(range(n)): 1}
    for m, p in pairs:
        sigma = list(range(n))
        sigma[m], sigma[p] = p, m
        element[tuple(sigma)] = sign
    return element


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
    """True iff every element of ``identities`` acts as zero on the table.

    Each identity sums its action over the one cleared table (``_Action``);
    the first identity leaving a nonzero sum decides.
    """
    if not table.vals:
        return True
    order = table.rows.shape[1]
    for element in identities:
        perms = np.array(list(element), dtype=np.intp).reshape(len(element), order)
        if _Action(perms, list(element.values()), table.dim).sum_codes(table)[1]:
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
    return codes.tolist(), sums


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
    tuples; only the rows it accepts become ``Fraction`` tensors.  The
    images of a block of index tuples are summed in one call
    (``_Action.row_images``) and reach the echelon in the tuples' order.
    """
    perms = np.array(list(element), dtype=np.intp).reshape(len(element), size)
    action = _Action(perms, list(element.values()), dim)
    echelon = SparseEchelon()
    basis = []
    indices = iter(indices)
    step = max(1, _BLOCK // len(element))
    while block := list(itertools.islice(indices, step)):
        for codes, sums in action.row_images(block):
            row = dict(zip(codes, sums))
            if row and echelon.insert(row):
                entries = dict(zip(action.decode(codes), map(Fraction, sums)))
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
