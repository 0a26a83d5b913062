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
about 4k, and one helper, ``_sum_by_code``, sums them with the key order of
a dict filled by ``exactlin.accumulate``: a key sits where its running sum
last turned nonzero, so one that cancels and comes back moves to the end.
Outputs are therefore the same dicts, in the same order, as the plain
per-product loops.  A guard keeps every code and partial sum below 2**62;
past it (or with non-integer coefficients) the same sums run as the per-row
``accumulate`` loop on Python ints.

All values are immutable and every operation is a pure function, safe for
concurrent use.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from projdyn.exactlin import JsonValue, SparseEchelon, Tensor, accumulate, clear_denominators, perm_sign


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


# Every code, coefficient product and partial sum of the integer-array path
# stays below this, so no int64 operation in it can wrap.
_INT64_SAFE = 2 ** 62
# products summed per block: the working arrays of one call stay small
_BLOCK = 4096


def _sum_by_code(blocks, size):
    """Sum integer products by code, in the key order of ``accumulate``.

    ``blocks`` yields (codes, values) int64 arrays in stream order, every code
    below ``size``.  A dict filled by ``accumulate`` from the same stream holds
    a key where its running sum last turned nonzero: a key that cancels and
    comes back moves to the end.  The live sums are carried from block to
    block as (code, sum, birth position) arrays; each block is merged in with
    one stable sort by code, the carried sum ahead of the block's products.
    Returns (codes, sums) of the nonzero sums in key order.  The caller
    guarantees that the absolute values of all products sum below 2**62.
    """
    keys = sums = born = np.empty(0, dtype=np.int64)
    seen = 0
    # codes of at most 16 bits sort as uint16, which numpy radix-sorts
    sort_dtype = np.uint16 if size <= 2 ** 16 else np.int64
    for codes, vals in blocks:
        if not len(codes):
            continue
        pos = np.arange(seen, seen + len(codes))
        seen += len(codes)
        if len(keys):
            codes = np.concatenate((keys, codes))
            vals = np.concatenate((sums, vals))
            pos = np.concatenate((born, pos))
        order = np.argsort(codes.astype(sort_dtype), kind="stable")
        codes, vals, pos = codes[order], vals[order], pos[order]
        # each code's products are codes[bounds[i]:bounds[i + 1]]
        edges = np.empty(len(codes) + 1, dtype=bool)
        edges[0] = edges[-1] = True
        np.not_equal(codes[1:], codes[:-1], out=edges[1:-1])
        bounds = np.flatnonzero(edges)
        starts = bounds[:-1]
        # running sums: one cumsum, restarted at the first product of each code
        run = np.cumsum(vals)
        run -= np.repeat(run[starts] - vals[starts], bounds[1:] - starts)
        # a birth turns a zero running sum nonzero; positions rise within a
        # code, so its last birth is the largest birth position
        born = np.maximum.reduceat(np.where((run != 0) & (run == vals), pos, -1), starts)
        total = run[bounds[1:] - 1]
        live = total != 0
        keys, sums, born = codes[starts][live], total[live], born[live]
    order = np.argsort(born)
    return keys[order], sums[order]


def _max_abs(values):
    """The largest |v| when every value is an int, else None."""
    if not all(type(v) is int for v in values):
        return None
    return max(map(abs, values), default=0)


class _Action:
    """A group-algebra element acting on index rows: row jdx and permutation
    sigma with coefficient c give c * e_{jdx o sigma^-1}.

    Results are keyed by the base-``base`` code of the index tuple.  Integer
    inputs inside the int64 guard run on arrays (``_sum_by_code``); anything
    else runs the per-row ``accumulate`` loop on Python ints, with the same
    result and key order.
    """

    def __init__(self, perms, coefs, base):
        width = perms.shape[1]
        self.bound = _max_abs(coefs)
        self.base = base
        self.size = base ** width
        # codes and coefficients in int64; sum_codes also bounds the sums
        self.fits = self.bound is not None and self.bound < _INT64_SAFE and self.size < _INT64_SAFE
        self.coefs = coefs
        self.int_coefs = np.array(coefs, dtype=np.int64) if self.fits else None
        # Python ints once the codes could overflow int64
        self.radix = np.array([base ** k for k in range(width - 1, -1, -1)],
                              dtype=np.int64 if self.fits else object)
        # jdx @ weights gives the codes of jdx o sigma^-1 for every sigma
        self.weights = self.radix[perms].T

    def sum_codes(self, rows, vals):
        """Sum vals[i] * coefs[p] at the code of rows[i] o perms[p]^-1 in the
        scan order rows outer, perms inner; returns the codes and the list of
        nonzero sums in the key order of ``accumulate``."""
        rows = np.array(rows, dtype=np.int64).reshape(len(vals), -1)
        bound = _max_abs(vals)
        if (self.fits and bound is not None
                and max(bound, 1) * max(self.bound, 1) * len(vals) * len(self.coefs) < _INT64_SAFE):
            vals = np.array(vals, dtype=np.int64)
            step = max(1, _BLOCK // len(self.coefs))
            blocks = (((rows[r:r + step] @ self.weights).ravel(),
                       np.multiply.outer(vals[r:r + step], self.int_coefs).ravel())
                      for r in range(0, len(vals), step))
            codes, sums = _sum_by_code(blocks, self.size)
            return codes, sums.tolist()
        out = {}
        for row, val in zip(rows, vals):
            for code, coef in zip((row @ self.weights).tolist(), self.coefs):
                accumulate(out, code, val * coef)
        return list(out), list(out.values())

    def row_images(self, rows):
        """The image of each basis row e_rows[i], one (codes, sums) pair per
        row, each in the key order of ``accumulate``.

        Inside the int64 guard the rows are summed in one ``_sum_by_code``
        stream with row i's codes offset by i * size, so no two rows share a
        code; the stream keeps each row's own order of births.
        """
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
        count = len(rows)
        if not (self.fits and count * self.size < _INT64_SAFE
                and max(self.bound, 1) * len(self.coefs) * count < _INT64_SAFE):
            return [(np.asarray(codes).tolist(), sums)
                    for codes, sums in (self.sum_codes([row], [1]) for row in rows)]
        offsets = np.arange(count, dtype=np.int64) * self.size
        codes = (rows @ self.weights + offsets[:, None]).ravel()
        codes, sums = _sum_by_code([(codes, np.tile(self.int_coefs, count))], count * self.size)
        owner = codes // self.size
        order = np.argsort(owner, kind="stable")
        codes, sums, owner = codes[order] - owner[order] * self.size, sums[order], owner[order]
        bounds = np.searchsorted(owner, np.arange(count + 1)).tolist()
        codes, sums = codes.tolist(), sums.tolist()
        return [(codes[lo:hi], sums[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def decode(self, codes):
        """Index tuples of base-``base`` codes."""
        digits = np.asarray(codes, dtype=self.radix.dtype)[:, None] // self.radix % self.base
        return list(map(tuple, digits.tolist()))


def compose_elements(g: dict, h: dict) -> dict:
    """Convolution with L_g . L_h = L_{g*h}: (g*h) applies h first.

    The product of sigma in g and tau in h is keyed at sigma o tau, which is
    the action of tau^-1 on the index row sigma, so the sums run through
    ``_Action`` in base n: int64 arrays in blocks when the coefficients are
    ints inside the guard, the per-row ``accumulate`` loop otherwise.  The
    (sigma, tau) scan order, and so the key order of the result, is that of
    the plain double loop.
    """
    if not g or not h:
        return {}
    n = len(next(iter(h)))
    inverses = np.argsort(np.array(list(h), dtype=np.intp).reshape(len(h), n), axis=1)
    action = _Action(inverses, list(h.values()), n)
    codes, sums = action.sum_codes(list(g), list(g.values()))
    return dict(zip(action.decode(codes), sums))


def scale_element(g: dict, c) -> dict:
    return {perm: coef * c for perm, coef in g.items()} if c else {}


def apply_element(g: dict, t: Tensor) -> Tensor:
    """Act on a tensor: (L_sigma phi)[idx] = phi[idx o sigma].

    Entry jdx of phi lands at idx = jdx o sigma^-1.  The entries are scaled
    to integers once (``clear_denominators``), summed by base-dim code in the
    scan order entries outer, permutations inner (``_Action``), and divided
    back only in the result.
    """
    if not g or not t.entries:
        return Tensor._raw(t.dim, t.order, {})
    ints, den = clear_denominators(t.entries.values())
    perms = np.array(list(g), dtype=np.intp).reshape(len(g), t.order)
    action = _Action(perms, list(g.values()), t.dim)
    codes, sums = action.sum_codes(list(t.entries), ints)
    out = {idx: Fraction(v, den) for idx, v in zip(action.decode(codes), sums)}
    return Tensor._raw(t.dim, t.order, out)


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
    dimension.  An inconsistent ratio signals an implementation bug.
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
    lam = Fraction(ASAS[key], AS[key])
    if scale_element(AS, lam) != ASAS:
        raise ArithmeticError("inconsistent ratio: ASAS != lambda AS")
    SA = compose_elements(S, A)
    if scale_element(SA, lam) != compose_elements(SA, SA):
        raise ArithmeticError("SASA != lambda SA with the same lambda")
    if lam.denominator != 1 or lam <= 0:
        raise ArithmeticError(f"scalar {lam} is not a positive integer")
    return int(lam)


# ---------------------------------------------------------------------------
# membership characterizations

def check_imSA(tableau: YoungTableau, t: Tensor) -> bool:
    """Exact membership test for Im SA (horizontally numbered tableau).

    Checks (i) symmetry under every transposition inside each row and
    (ii) one identity per consecutive row pair:
    phi + sum over boxes p of row k of T(p, first box of row k+1) phi = 0.
    """
    if tableau.numbering != "horizontal":
        raise NumberingError("Im SA membership is a horizontal-numbering query")
    _check_order(tableau, t)
    rows = tableau.row_slots()
    for slots in rows:
        for m, n in itertools.combinations(slots, 2):
            if t.transpose_slots(m, n) != t:
                return False
    for k in range(len(rows) - 1):
        head_next = rows[k + 1][0]
        total = t
        for p in rows[k]:
            total = total + t.transpose_slots(p, head_next)
        if not total.is_zero():
            return False
    return True


def check_imAS(tableau: YoungTableau, t: Tensor) -> bool:
    """Exact membership test for Im AS (vertically numbered tableau).

    Checks (i) antisymmetry under every transposition inside each column and
    (ii) per consecutive column pair:
    phi - sum over boxes p of column k of T(p, top of column k+1) phi = 0.
    """
    if tableau.numbering != "vertical":
        raise NumberingError("Im AS membership is a vertical-numbering query")
    _check_order(tableau, t)
    cols = tableau.column_slots()
    negated = t.scale(-1)
    for slots in cols:
        for m, n in itertools.combinations(slots, 2):
            if t.transpose_slots(m, n) != negated:
                return False
    for k in range(len(cols) - 1):
        top_next = cols[k + 1][0]
        total = t
        for p in cols[k]:
            total = total - t.transpose_slots(p, top_next)
        if not total.is_zero():
            return False
    return True


def bianchi_sum_AS(tableau: YoungTableau, t: Tensor, k: int, j: int) -> Tensor:
    """phi - sum_p T(p, top of column j) phi over boxes p of column k (k < j).

    Vanishes on Im AS for every non-adjacent column pair as well (the
    transitivity of the column identities).
    """
    if tableau.numbering != "vertical":
        raise NumberingError("column identities need a vertical numbering")
    cols = tableau.column_slots()
    top_j = cols[j][0]
    total = t
    for p in cols[k]:
        total = total - t.transpose_slots(p, top_j)
    return total


def contract_top_of_last_columns(tableau: YoungTableau, t: Tensor, p_vec, l: int):
    """Plug the vector p into the top boxes of the last l columns.

    Returns (reduced tableau, reduced tensor); the reduced tableau has those
    column lengths decreased by one (columns shrinking to zero disappear,
    and the reduced tensor is returned with a None tableau in that case).
    """
    if tableau.numbering != "vertical":
        raise NumberingError("column contraction needs a vertical numbering")
    _check_order(tableau, t)
    cols = list(tableau.columns)
    c = len(cols)
    if not 1 <= l <= c:
        raise ValueError("l out of range")
    col_slots = tableau.column_slots()
    slots = [col_slots[c - l + i][0] for i in range(l)]
    reduced = t.contract_slots({s: p_vec for s in slots})
    new_cols = [j - 1 if i >= c - l else j for i, j in enumerate(cols)]
    new_cols = [j for j in new_cols if j > 0]
    if not new_cols:
        return None, reduced
    new_cols.sort(reverse=True)
    return YoungTableau.from_columns(new_cols), reduced


class SymmetrizedTensor:
    """A tensor tagged with the symmetry class it is claimed to inhabit.

    Membership is checked on construction: "im_SA" demands the row
    symmetries plus the row identities (horizontal numbering), "im_AS" the
    column antisymmetries plus the column identities (vertical numbering);
    "unconstrained" attaches no claim.
    """

    __slots__ = ("tableau", "tensor", "symmetry_class")

    def __init__(self, tableau: YoungTableau, tensor: Tensor, symmetry_class="unconstrained"):
        if symmetry_class not in ("im_SA", "im_AS", "unconstrained"):
            raise ValueError("symmetry_class must be 'im_SA', 'im_AS' or 'unconstrained'")
        if tensor.order != tableau.size:
            raise ValueError("tensor order does not match the tableau")
        if symmetry_class == "im_SA" and not check_imSA(tableau, tensor):
            raise ValueError("tensor is not in the image of SA for this tableau")
        if symmetry_class == "im_AS" and not check_imAS(tableau, tensor):
            raise ValueError("tensor is not in the image of AS for this tableau")
        self.tableau = tableau
        self.tensor = tensor
        self.symmetry_class = symmetry_class

    def __repr__(self):
        return f"SymmetrizedTensor({self.tableau!r}, class={self.symmetry_class!r})"


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


def vanishing_diagonal_test(tableau: YoungTableau, t: Tensor) -> bool:
    """True iff the diagonal evaluation phi(x1..xj1; x1..xj2; ...) is the zero
    polynomial, decided exactly on coefficients.

    For t in Im AS a True answer forces t = 0, so this doubles as a zero test
    through the diagonal.
    """
    if not check_imAS(tableau, t):
        raise ValueError("input must lie in Im AS for the vertical tableau")
    cols = tableau.column_slots()
    depth_of_slot = {}
    for slots in cols:
        for depth, s in enumerate(slots):
            depth_of_slot[s] = depth
    coeffs = {}
    for idx, val in t.entries.items():
        mono = {}
        for slot, i in enumerate(idx):
            pair = (depth_of_slot[slot], i)
            mono[pair] = mono.get(pair, 0) + 1
        accumulate(coeffs, tuple(sorted(mono.items())), val)
    return not coeffs


def example_pair_exchange_decompose(phi: Tensor):
    """Split an order-4 form with phi(x,y,z,t) = phi(z,t,x,y) and antisymmetry
    in (1,2) and (3,4) into (phi_Y, psi) with phi = phi_Y + psi/3.

    psi(x,y,z,t) = phi(x,y,z,t) + phi(y,z,x,t) + phi(z,x,y,t) is fully
    antisymmetric and phi_Y lies in Im AS of the vertical 2x2 tableau; when
    phi(x,y,x,y) vanishes identically, phi_Y = 0 and phi is itself fully
    antisymmetric (up to the factor 3).
    """
    if phi.order != 4:
        raise ValueError("order-4 form required")
    if phi.permute((2, 3, 0, 1)) != phi:
        raise ValueError("pair-exchange symmetry phi(x,y,z,t)=phi(z,t,x,y) fails")
    if phi.transpose_slots(0, 1) != -phi or phi.transpose_slots(2, 3) != -phi:
        raise ValueError("pair antisymmetry fails")
    psi = phi + phi.permute((1, 2, 0, 3)) + phi.permute((2, 0, 1, 3))
    phi_y = phi - psi.scale(Fraction(1, 3))
    # defensive: the split must land where the decomposition says
    for m, n in itertools.combinations(range(4), 2):
        if psi.transpose_slots(m, n) != -psi:
            raise ArithmeticError("cyclic sum failed to be fully antisymmetric")
    if not check_imAS(YoungTableau.from_columns([2, 2]), phi_y):
        raise ArithmeticError("projected part is not in Im AS")
    return phi_y, psi
