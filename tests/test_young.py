"""Symmetrizers, Bianchi-style membership tests, and symmetry-class bases."""

import functools
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_same_dict,
    bianchi_sum_AS,
    block_symmetric,
    contract_top_of_last_columns,
    example_pair_exchange_decompose,
    partitions,
    permute,
    scale_element,
    transpose_slots,
    vanishing_diagonal_test,
)
from projdyn import polyintegrals, young
from projdyn.exactlin import SparseEchelon, Tensor, accumulate, basis_tensor, rank
from projdyn.young import (
    NumberingError,
    YoungTableau,
    antisymmetrize_A,
    antisymmetrizer_element,
    apply_element,
    check_imAS,
    check_imSA,
    compose_elements,
    imAS_basis,
    imSA_basis,
    symmetrize_S,
    symmetrizer_element,
    young_scalar,
)


def random_tensor(rng, dim, order, terms=6):
    entries = {}
    for _ in range(terms):
        idx = tuple(rng.randrange(dim) for _ in range(order))
        entries[idx] = entries.get(idx, 0) + Fraction(rng.randint(-4, 4))
    return Tensor(dim, order, entries)


def AS_of(tableau, t):
    return antisymmetrize_A(tableau, symmetrize_S(tableau, t))


def SA_of(tableau, t):
    return symmetrize_S(tableau, antisymmetrize_A(tableau, t))


def riemann_symmetry_tensor(b):
    """R(u,v,w,x) = b(u,w)b(v,x) - b(u,x)b(v,w) for a symmetric matrix b."""
    d = len(b)
    entries = {}
    for u, v, w, x in itertools.product(range(d), repeat=4):
        val = b[u][w] * b[v][x] - b[u][x] * b[v][w]
        if val:
            entries[(u, v, w, x)] = Fraction(val)
    return Tensor(d, 4, entries)


def volume_form(dim):
    entries = {}
    for perm in itertools.permutations(range(4)):
        sign = 1
        p = list(perm)
        for i in range(4):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sign = -sign
        entries[perm] = Fraction(sign)
    return Tensor(dim, 4, entries)


# -- tableau bookkeeping --------------------------------------------------------

def test_conjugate_partition():
    assert young.conjugate_partition((5, 5, 3, 1)) == (4, 3, 3, 2, 2)


def test_from_columns_round_trip():
    t = YoungTableau.from_columns([4, 3, 3, 2, 2])
    assert t.rows == (5, 5, 3, 1)
    assert t.columns == (4, 3, 3, 2, 2)
    assert t.numbering == "vertical"


def test_two_numberings_are_different_tableaux():
    horizontal = YoungTableau((2, 2), "horizontal")
    vertical = YoungTableau.from_columns([2, 2])
    assert horizontal != vertical
    # horizontal: rows occupy slots (0,1) and (2,3); vertical: (0,2) and (1,3)
    assert horizontal.row_slots() == [[0, 1], [2, 3]]
    assert vertical.row_slots() == [[0, 2], [1, 3]]
    assert horizontal.column_slots() == [[0, 2], [1, 3]]
    assert vertical.column_slots() == [[0, 1], [2, 3]]


# -- S and A against the displayed formulas ----------------------------------------

def test_S_on_single_row_pair():
    t = basis_tensor(3, (0, 1))
    s = symmetrize_S(YoungTableau((2,)), t)
    assert s == Tensor(3, 2, {(0, 1): 1, (1, 0): 1})


def test_S_identity_on_length_one_rows():
    rng = random.Random(0)
    t = random_tensor(rng, 3, 2)
    assert symmetrize_S(YoungTableau((1, 1)), t) == t


def test_S_22_four_term_formula():
    # (S phi)(x,y,z,t) = phi(x,y,z,t)+phi(y,x,z,t)+phi(x,y,t,z)+phi(y,x,t,z)
    rng = random.Random(1)
    tab = YoungTableau((2, 2))
    phi = random_tensor(rng, 2, 4)
    expected = (
        phi
        + transpose_slots(phi, 0, 1)
        + transpose_slots(phi, 2, 3)
        + transpose_slots(transpose_slots(phi, 0, 1), 2, 3)
    )
    assert symmetrize_S(tab, phi) == expected
    t = basis_tensor(4, (0, 1, 2, 3))
    assert len(symmetrize_S(tab, t).entries) == 4


def test_A_22_four_term_formula():
    # (A phi)(x,y,z,t) = phi(x,y,z,t)-phi(z,y,x,t)-phi(x,t,z,y)+phi(z,t,x,y)
    rng = random.Random(2)
    tab = YoungTableau((2, 2))
    phi = random_tensor(rng, 2, 4)
    expected = (
        phi
        - transpose_slots(phi, 0, 2)
        - transpose_slots(phi, 1, 3)
        + transpose_slots(transpose_slots(phi, 0, 2), 1, 3)
    )
    assert antisymmetrize_A(tab, phi) == expected


def test_A_identity_on_single_row():
    rng = random.Random(3)
    t = random_tensor(rng, 3, 2)
    assert antisymmetrize_A(YoungTableau((2,)), t) == t


def test_A_kills_symmetric_tensor_on_column():
    t = basis_tensor(2, (0, 0))
    assert antisymmetrize_A(YoungTableau((1, 1)), t).is_zero()


# -- the scalar lambda ---------------------------------------------------------------

def hook_product(rows):
    rows = list(rows)
    cols = young.conjugate_partition(rows)
    prod = 1
    for r, ln in enumerate(rows):
        for c in range(ln):
            prod *= (ln - c) + (cols[c] - r) - 1
    return prod


def test_young_scalar_trivia():
    assert young_scalar(YoungTableau((1,))) == 1
    assert young_scalar(YoungTableau((2,))) == 2  # S^2 = 2S on a single row


def test_young_scalar_22_brute_force():
    """Independent oracle: dense operator matrices of the hardcoded four-term
    S and A formulas on order-4 tensors over a 2-dimensional space."""
    dim = 2
    idxs = list(itertools.product(range(dim), repeat=4))
    pos = {idx: k for k, idx in enumerate(idxs)}

    def op_matrix(terms):
        # terms: list of (permutation of slots, sign)
        n = len(idxs)
        m = [[Fraction(0)] * n for _ in range(n)]
        for jdx in idxs:
            for perm, sign in terms:
                idx = tuple(jdx[perm.index(k)] for k in range(4))
                m[pos[idx]][pos[jdx]] += sign
        return m

    # S phi (x,y,z,t) = phi(xyzt)+phi(yxzt)+phi(xytz)+phi(yxtz)
    S = op_matrix([((0, 1, 2, 3), 1), ((1, 0, 2, 3), 1), ((0, 1, 3, 2), 1), ((1, 0, 3, 2), 1)])
    # A phi (x,y,z,t) = phi(xyzt)-phi(zyxt)-phi(xtzy)+phi(ztxy)
    A = op_matrix([((0, 1, 2, 3), 1), ((2, 1, 0, 3), -1), ((0, 3, 2, 1), -1), ((2, 3, 0, 1), 1)])

    def mat_mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]

    AS = mat_mul(A, S)
    ASAS = mat_mul(AS, AS)
    ratios = {ASAS[i][j] / AS[i][j] for i in range(len(AS)) for j in range(len(AS)) if AS[i][j]}
    assert len(ratios) == 1
    lam = ratios.pop()
    assert young_scalar(YoungTableau((2, 2))) == lam == 12

    # the library operators agree entrywise with the brute-force matrices
    tab = YoungTableau((2, 2))
    for jdx in idxs:
        t = basis_tensor(dim, jdx)
        got = antisymmetrize_A(tab, symmetrize_S(tab, t))
        for idx in idxs:
            assert got.entries.get(idx, Fraction(0)) == AS[pos[idx]][pos[jdx]]


def test_young_scalar_equals_hook_product():
    shapes = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)]
    for shape in shapes:
        for numbering in ("horizontal", "vertical"):
            tab = YoungTableau(shape, numbering)
            assert young_scalar(tab) == hook_product(shape), shape


def test_group_algebra_identity_acts_correctly_on_tensors():
    # spot-check that apply(ASAS, t) == lambda * apply(AS, t) on random tensors
    rng = random.Random(4)
    for shape in [(2, 1), (2, 2), (3, 1)]:
        tab = YoungTableau(shape, "vertical")
        lam = young_scalar(tab)
        AS = compose_elements(antisymmetrizer_element(tab), symmetrizer_element(tab))
        for _ in range(3):
            t = random_tensor(rng, 3, tab.size)
            ast = apply_element(AS, t)
            assert apply_element(AS, ast) == ast.scale(lam)


def compose_reference(g, h):
    """The plain per-pair loop over (sigma, tau) in scan order."""
    out = {}
    for sigma, cg in g.items():
        getter = sigma.__getitem__
        for tau, ch in h.items():
            accumulate(out, tuple(map(getter, tau)), cg * ch)
    return out


def group_elements(n):
    return st.dictionaries(st.permutations(range(n)).map(tuple), st.sampled_from([-2, -1, 1, 2]), max_size=10)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5).flatmap(lambda n: st.tuples(st.just(n), group_elements(n), group_elements(n))))
def test_compose_elements_matches_the_pairwise_loop(case):
    n, g, h = case
    identity, swap = tuple(range(n)), (1, 0) + tuple(range(2, n))
    minus, plus = {identity: 1, swap: -1}, {identity: 1, swap: 1}
    # g (1 - t) (1 + t) = g (1 - t^2) = 0: every key of the product cancels
    cancelling = compose_reference(g, minus)
    assert compose_reference(cancelling, plus) == {}
    for left, right in [(g, h), (h, g), (cancelling, plus), (minus, plus), (g, {}), ({}, h)]:
        got = compose_elements(left, right)
        assert_same_dict(got, compose_reference(left, right))
        assert all(type(k) is tuple and all(type(i) is int for i in k) for k in got)



def apply_reference(g, t):
    """The plain per-product loop: entries outer, permutations inner."""
    inverses = []
    for sigma, coef in g.items():
        inv = [0] * len(sigma)
        for k, pos in enumerate(sigma):
            inv[pos] = k
        inverses.append((tuple(inv), coef))
    out = {}
    for jdx, val in t.entries.items():
        getter = jdx.__getitem__
        for inv, coef in inverses:
            accumulate(out, tuple(map(getter, inv)), val * coef)
    return out


def cancelling_tensors(dim, order):
    """Tensors with mixed denominators whose entries cancel under the symmetrizers
    (an entry and its slot swap with opposite values, plus a few loose ones)."""
    idx = st.tuples(*[st.integers(0, dim - 1)] * order)
    val = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([1, 2, 3, 4, 6, 7]))

    def build(pairs, loose):
        entries = {}
        for jdx, v in pairs:
            accumulate(entries, jdx, v)
            accumulate(entries, (jdx[1], jdx[0]) + jdx[2:], -v)
        for jdx, v in loose:
            accumulate(entries, jdx, v)
        return Tensor(dim, order, entries)

    return st.builds(build, st.lists(st.tuples(idx, val), max_size=8), st.lists(st.tuples(idx, val), max_size=4))


ELEMENT_SHAPES = [((2, 1), "vertical"), ((2, 2), "vertical"), ((2, 2), "horizontal"), ((3, 1), "horizontal")]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ELEMENT_SHAPES).flatmap(
    lambda case: st.tuples(st.just(case), cancelling_tensors(3, sum(case[0])), st.integers(0, 4))))
def test_apply_element_matches_the_per_product_loop(case):
    (rows, numbering), t, which = case
    tab = YoungTableau(rows, numbering)
    S, A = symmetrizer_element(tab), antisymmetrizer_element(tab)
    element = [S, A, compose_elements(A, S), compose_elements(S, A), {tuple(range(tab.size)): -3}][which]
    got = apply_element(element, t)
    assert_same_dict(got.entries, apply_reference(element, t))
    assert all(type(v) is Fraction for v in got.entries.values())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_by_code_matches_accumulate_on_int64_object_and_fraction_blocks(data):
    kind = data.draw(st.sampled_from(["int64", "past the guard", "fraction"]))
    size = data.draw(st.sampled_from([4, 50, 2 ** 16, 2 ** 17] if kind == "int64" else [50, 2 ** 70]))
    codes = data.draw(st.lists(st.sampled_from([0, 1, 3, size - 1]), max_size=40))
    values = {"int64": st.integers(-2, 2), "past the guard": st.sampled_from([0, 1, -(2 ** 62), 2 ** 63 + 1]),
              "fraction": st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))}[kind]
    vals = data.draw(st.lists(values, min_size=len(codes), max_size=len(codes)))
    # many products: 1,000 over 50 codes (or 4) pass the dense cut-off, 1,000 over 2**16 do not
    many = data.draw(st.sampled_from([0, 0, 1000]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    codes += [rng.randrange(size) for _ in range(many)]
    vals += [rng.choice(vals or [1]) for _ in range(many)]
    if data.draw(st.booleans()):  # every code cancels
        codes, vals = codes + codes, vals + [-v for v in vals]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(codes)), max_size=5)))
    bounds = [0, *cuts, len(codes)]
    dtype = np.int64 if kind == "int64" else object
    blocks = [(np.array(codes[a:b], dtype=np.int64 if size < 2 ** 62 else object), np.array(vals[a:b], dtype=dtype))
              for a, b in zip(bounds, bounds[1:])]
    if not codes and data.draw(st.booleans()):  # no block at all
        blocks = []
    expected = {}
    for code, val in zip(codes, vals):
        accumulate(expected, code, val)
    # with a merge threshold of 3 products the running sums are carried across merges; the cut-off
    # as it stands, the sort alone (no dense span) and the dense array wherever the values are int64
    results = []
    for span in (young._DENSE_SPAN, 0, 2 ** 40):
        with mock.patch.object(young, "_BLOCK", data.draw(st.sampled_from([3, 4096]))), \
                mock.patch.object(young, "_DENSE_SPAN", span):
            results.append(young.sum_by_code(blocks, size))
    for got_codes, got_sums in results:
        got = dict(zip(got_codes.tolist(), got_sums.tolist()))
        assert_same_dict(got, expected)
        assert all(type(v) is type(expected[k]) for k, v in got.items())
        assert (got_codes.dtype, got_sums.dtype) == (results[1][0].dtype, results[1][1].dtype)
        assert got_sums.dtype == dtype or not got


def chained_squares(tableau):
    """AS, the chained ASAS, SA and the chained SASA as group-algebra dicts."""
    n = tableau.size
    S = young._block_group(tableau.row_slots(), n, signed=False)
    A = young._block_group(tableau.column_slots(), n, signed=True)
    out = []
    for x, y in ((A, S), (S, A)):
        xy = young._compose(x, y, n)
        for codes, sums in (xy, young._square(x, y, xy, n)):
            out.append(dict(zip(map(tuple, young.index_rows(codes, n, n).tolist()), sums.tolist())))
    return out


def distinct_tableaux(shapes):
    """(rows, numbering) for each shape in both numberings, once per distinct
    pair of row and column slots (one row or one column is the same
    tableau in both)."""
    seen, out = set(), []
    for rows in shapes:
        for numbering in ("horizontal", "vertical"):
            tab = YoungTableau(rows, numbering)
            slots = repr((tab.row_slots(), tab.column_slots()))
            if slots not in seen:
                seen.add(slots)
                out.append((rows, numbering))
    return out


# 7-box codes (7**7) are past the dense cut-off: the two 7-box shapes run the sort
_CHAINED = distinct_tableaux(rows for n in range(1, 7) for rows in partitions(n)) + [
    ((4, 1, 1, 1), "vertical"), ((3, 2, 1, 1), "horizontal")]


@pytest.mark.parametrize("rows, numbering", _CHAINED, ids=[f"{'x'.join(map(str, r))}-{nb}" for r, nb in _CHAINED])
def test_young_scalar_chains_the_squares_of_the_pairwise_loop(rows, numbering):
    tab = YoungTableau(rows, numbering)
    S, A = symmetrizer_element(tab), antisymmetrizer_element(tab)
    AS, ASAS, SA, SASA = chained_squares(tab)
    assert_same_dict(AS, compose_reference(A, S))
    assert_same_dict(SA, compose_reference(S, A))
    assert_same_dict(ASAS, compose_reference(AS, AS))
    assert_same_dict(SASA, compose_reference(SA, SA))
    assert young_scalar(tab) == hook_product(rows)


@pytest.mark.parametrize("rows", [(2, 2), (3, 3)])
def test_young_scalar_refuses_a_corrupted_product(rows):
    # drop one code from the k-th engine call: every product feeds a full identity check
    tab = YoungTableau(rows, "vertical")
    calls = []
    inner = young.sum_by_code
    with mock.patch.object(young, "sum_by_code", lambda blocks, size: calls.append(size) or inner(blocks, size)):
        young_scalar(tab)
    for k in range(len(calls)):
        seen = []

        def dropping(blocks, size, k=k, seen=seen):
            codes, sums = inner(blocks, size)
            seen.append(size)
            if len(seen) - 1 == k:
                middle = len(codes) // 2
                codes, sums = np.delete(codes, middle), np.delete(sums, middle)
            return codes, sums

        with mock.patch.object(young, "sum_by_code", dropping), pytest.raises(ArithmeticError):
            young_scalar(tab)


def test_compose_elements_on_seven_boxes():
    # 7**7 codes are past the dense cut-off: the int64 sort path
    tab = YoungTableau((3, 2, 1, 1), "vertical")
    S, A = symmetrizer_element(tab), antisymmetrizer_element(tab)
    AS = compose_elements(A, S)
    assert_same_dict(AS, compose_reference(A, S))
    rng = random.Random(7)
    part = dict(rng.sample(sorted(AS.items()), 40))
    for left, right in [(part, AS), (AS, part)]:
        assert_same_dict(compose_elements(left, right), compose_reference(left, right))


def test_group_algebra_beyond_the_int64_guard_runs_the_exact_loop():
    n = 4
    big = 2 ** 62 - 1
    perms = list(itertools.permutations(range(n)))
    rng = random.Random(62)
    g = {p: rng.choice([big, -big, 2 ** 31 + 1, 1]) for p in rng.sample(perms, 12)}
    h = {p: rng.choice([big, -(2 ** 31), 3]) for p in rng.sample(perms, 12)}
    for left, right in [(g, h), (h, g), (g, {p: 1 for p in perms})]:
        got = compose_elements(left, right)
        assert_same_dict(got, compose_reference(left, right))
    # the largest product is above 2**63: int64 arithmetic would have wrapped
    gh = compose_elements(g, h)
    assert max(map(abs, gh.values())) >= 2 ** 63
    # coefficients that do not fit int64 at all, on either side
    for left, right in [(g, gh), (gh, g), (gh, gh)]:
        assert_same_dict(compose_elements(left, right), compose_reference(left, right))
    # four products of |c| each: c = 2**60 - 1 is just inside the guard, 2**60 just outside
    swap = {tuple(range(n)): 1, (1, 0, 2, 3): 1}
    for c in (2 ** 60 - 1, 2 ** 60, -(2 ** 60)):
        edge = {tuple(range(n)): c, (0, 1, 3, 2): -c}
        for left, right in [(edge, swap), (swap, edge)]:
            assert_same_dict(compose_elements(left, right), compose_reference(left, right))
    # twenty slots: 20**20 codes are beyond int64 whatever the coefficients
    wide = {tuple(range(20)): 2, tuple(range(19, -1, -1)): -1, (1, 0) + tuple(range(2, 20)): 1}
    assert_same_dict(compose_elements(wide, wide), compose_reference(wide, wide))
    tab = YoungTableau((2, 2), "vertical")
    t = Tensor(3, 4, {(0, 1, 2, 0): Fraction(big, 3), (1, 0, 2, 0): Fraction(-big, 5), (2, 2, 1, 0): Fraction(7)})
    huge = Tensor(3, 4, {(0, 1, 2, 0): Fraction(2 ** 63), (2, 2, 1, 0): Fraction(-(2 ** 70), 3)})
    for element in (symmetrizer_element(tab), scale_element(antisymmetrizer_element(tab), big),
                    scale_element(symmetrizer_element(tab), 2 ** 63)):
        for tensor in (t, huge):
            got = apply_element(element, tensor)
            assert_same_dict(got.entries, apply_reference(element, tensor))
    # a non-integer coefficient also takes the loop
    half = scale_element(symmetrizer_element(tab), Fraction(1, 2))
    assert_same_dict(apply_element(half, t).entries, apply_reference(half, t))


def image_basis_reference(element, dim, size, indices):
    echelon = SparseEchelon()
    basis = []
    for idx in indices:
        entries = apply_reference(element, Tensor(dim, size, {idx: Fraction(1)}))
        if entries and echelon.insert(entries):
            basis.append(entries)
    return basis


def assert_same_basis(got, expected):
    assert len(got) == len(expected)
    for t, entries in zip(got, expected):
        assert_same_dict(t.entries, entries)


@pytest.mark.parametrize("columns,dim", [([2, 1], 3), ([2, 1], 4), ([2, 2], 3), ([2, 2], 4), ([2, 2], 5),
                                         ([2, 2, 2], 3), ([3, 2], 4)])
def test_image_bases_match_the_per_product_loop(columns, dim):
    tab = YoungTableau.from_columns(columns)
    A, S = antisymmetrizer_element(tab), symmetrizer_element(tab)
    indices = young._block_indices(tab.row_slots(), tab.size,
                                   lambda k: itertools.combinations_with_replacement(range(dim), k))
    expected = image_basis_reference(compose_reference(A, S), dim, tab.size, indices)
    assert_same_basis(imAS_basis(tab, dim), expected)
    horizontal = YoungTableau(tab.columns, "horizontal")
    A, S = antisymmetrizer_element(horizontal), symmetrizer_element(horizontal)
    indices = young._block_indices(horizontal.column_slots(), horizontal.size,
                                   lambda k: itertools.combinations(range(dim), k))
    expected = image_basis_reference(compose_reference(S, A), dim, horizontal.size, indices)
    assert_same_basis(imSA_basis(horizontal, dim), expected)

def test_image_bases_past_the_stacked_guard_match_the_per_product_loop():
    # one row fits int64 but a stacked block does not (2**50 * 24 products per
    # row), or not even one row does (2**62), or a coefficient is not an int
    tab = YoungTableau.from_columns([2, 2])
    AS = compose_reference(antisymmetrizer_element(tab), symmetrizer_element(tab))
    indices = list(young._block_indices(tab.row_slots(), tab.size,
                                        lambda k: itertools.combinations_with_replacement(range(3), k)))
    for c in (2 ** 50, 2 ** 62, Fraction(1, 3)):
        element = scale_element(AS, c)
        expected = image_basis_reference(element, 3, tab.size, indices)
        got = young._image_basis(element, 3, tab.size, iter(indices))
        assert_same_basis(got, expected)


# -- membership tests ------------------------------------------------------------------

def test_check_imSA_on_SA_images():
    rng = random.Random(5)
    tab = YoungTableau((2, 2), "horizontal")
    for _ in range(5):
        u = random_tensor(rng, 3, 4)
        assert check_imSA(tab, SA_of(tab, u))
    assert check_imSA(tab, Tensor(3, 4, {}))


def test_check_imSA_rejects_unsymmetrized():
    tab = YoungTableau((2, 2), "horizontal")
    t = basis_tensor(3, (0, 1, 0, 1))
    assert not check_imSA(tab, t)


def test_check_imAS_on_AS_images():
    rng = random.Random(6)
    for cols in ([2, 2], [2, 2, 2], [3, 2]):
        tab = YoungTableau.from_columns(cols)
        for _ in range(3):
            u = random_tensor(rng, 3, tab.size, terms=4)
            assert check_imAS(tab, AS_of(tab, u))


def test_check_imAS_riemann_symmetry_tensor():
    tab = YoungTableau.from_columns([2, 2])
    b = [[2, 1, 0], [1, 3, -1], [0, -1, 1]]
    assert check_imAS(tab, riemann_symmetry_tensor(b))


def test_check_imAS_rejects_volume_form():
    # the Bianchi sum on a fully antisymmetric 4-form is 3*phi != 0
    tab = YoungTableau.from_columns([2, 2])
    vol = volume_form(4)
    assert not check_imAS(tab, vol)
    total = vol - transpose_slots(vol, 0, 2) - transpose_slots(vol, 1, 2)
    assert total == vol.scale(3)


def test_numbering_mismatch_is_an_error():
    t = Tensor(3, 4, {})
    with pytest.raises(NumberingError):
        check_imAS(YoungTableau((2, 2), "horizontal"), t)
    with pytest.raises(NumberingError):
        check_imSA(YoungTableau((2, 2), "vertical"), t)



# the transpose-based checks the group-algebra identities replaced, kept here as an
# independent reference: each builds whole permuted tensors with transpose_slots

def reference_imSA(tableau, t):
    rows = tableau.row_slots()
    for slots in rows:
        for m, n in itertools.combinations(slots, 2):
            if transpose_slots(t, m, n) != t:
                return False
    for k in range(len(rows) - 1):
        total = t
        for p in rows[k]:
            total = total + transpose_slots(t, p, rows[k + 1][0])
        if not total.is_zero():
            return False
    return True


def reference_imAS(tableau, t):
    cols = tableau.column_slots()
    for slots in cols:
        for m, n in itertools.combinations(slots, 2):
            if transpose_slots(t, m, n) != t.scale(-1):
                return False
    for k in range(len(cols) - 1):
        if not reference_bianchi(tableau, t, k, k + 1).is_zero():
            return False
    return True


def reference_bianchi(tableau, t, k, j):
    cols = tableau.column_slots()
    total = t
    for p in cols[k]:
        total = total - transpose_slots(t, p, cols[j][0])
    return total


_ORACLE_SHAPES = ([2, 2], [2, 2, 2], [3, 2], [2, 1])


@functools.cache
def _class_basis(columns, numbering, dim):
    vertical = YoungTableau.from_columns(list(columns))
    if numbering == "vertical":
        return imAS_basis(vertical, dim)
    return imSA_basis(YoungTableau(vertical.rows, "horizontal"), dim)


@st.composite
def class_combinations(draw):
    """(column lengths, tensor): a combination of Im AS or Im SA basis elements,
    sometimes with coefficients of 2**63 or one entry perturbed."""
    columns = draw(st.sampled_from(_ORACLE_SHAPES))
    dim = draw(st.integers(2, 3))
    basis = _class_basis(tuple(columns), draw(st.sampled_from(("vertical", "horizontal"))), dim)
    scale = draw(st.sampled_from((1, 2 ** 63)))
    order = sum(columns)
    t = Tensor(dim, order, {})
    for element in basis:
        t = t + element.scale(scale * draw(st.integers(-2, 2)))
    if draw(st.booleans()):
        idx = tuple(draw(st.lists(st.integers(0, dim - 1), min_size=order, max_size=order)))
        t = t + Tensor(dim, order, {idx: draw(st.sampled_from((1, -3, 2 ** 63)))})
    return columns, t


@settings(max_examples=150, deadline=None)
@given(case=class_combinations())
def test_identity_checks_match_the_transpose_reference(case):
    columns, t = case
    vertical = YoungTableau.from_columns(columns)
    horizontal = YoungTableau(vertical.rows, "horizontal")
    assert check_imAS(vertical, t) == reference_imAS(vertical, t)
    assert check_imSA(horizontal, t) == reference_imSA(horizontal, t)
    for k, j in itertools.combinations(range(len(columns)), 2):
        assert bianchi_sum_AS(vertical, t, k, j) == reference_bianchi(vertical, t, k, j)
    if t.order % 2 == 0:
        b = t.order // 2
        identities = (young.slot_identity(t.order, [(m, m + 1)], -1) for m in [*range(b - 1), *range(b, 2 * b - 1)])
        assert young.annihilated_by_all(identities, young.ClearedTable.of(t)) == block_symmetric(t, b)


def test_identity_checks_see_both_verdicts():
    # the oracle test above only means something if members and non-members both occur
    for columns in _ORACLE_SHAPES:
        vertical = YoungTableau.from_columns(columns)
        horizontal = YoungTableau(vertical.rows, "horizontal")
        member = _class_basis(tuple(columns), "vertical", 3)[-1].scale(2 ** 63)
        assert check_imAS(vertical, member) and reference_imAS(vertical, member)
        spoiled = member + basis_tensor(3, (0,) * vertical.size)
        assert not check_imAS(vertical, spoiled) and not reference_imAS(vertical, spoiled)
        member = _class_basis(tuple(columns), "horizontal", 3)[-1]
        assert check_imSA(horizontal, member) and reference_imSA(horizontal, member)
        spoiled = member + basis_tensor(3, (0,) * vertical.size)
        assert not check_imSA(horizontal, spoiled) and not reference_imSA(horizontal, spoiled)


def test_class_checks_clear_the_entries_once(monkeypatch):
    # every identity of a check runs on one cleared entry list
    cleared = []
    inner = young.clear_denominators
    monkeypatch.setattr(young, "clear_denominators", lambda values: cleared.append(1) or inner(values))
    vertical = YoungTableau.from_columns([2, 2, 2])
    horizontal = YoungTableau(vertical.rows, "horizontal")
    for check, tableau, numbering in ((check_imAS, vertical, "vertical"), (check_imSA, horizontal, "horizontal")):
        member = Tensor(3, 6, {})
        for c, element in enumerate(_class_basis((2, 2, 2), numbering, 3), start=1):
            member = member + element.scale(Fraction(c, 7))
        cleared.clear()
        assert check(tableau, member) and cleared == [1]


def test_no_pipeline_permutes_a_whole_tensor(monkeypatch):
    # every slot identity and the pair interleave of BiHomogeneousPoly.antisymmetric run through
    # the group-algebra action: Tensor has no whole-tensor permutation, and the
    # tests' reference (oracles.permute, which transpose_slots calls) refuses to run
    import oracles
    from projdyn import compat, screens
    from projdyn.polynomials import Poly

    assert not hasattr(Tensor, "permute") and not hasattr(Tensor, "transpose_slots")

    def refuse(t, sigma):
        raise AssertionError("permute called")

    monkeypatch.setattr(oracles, "permute", refuse)
    d = 3
    kinetic = Poly.zero(2 * d)
    for i in range(d):
        kinetic = kinetic + polyintegrals.vvar(i, d) * polyintegrals.vvar(i, d)
    assert compat.hamiltonian_test(kinetic, screen=screens.sphere_screen(d)).verdict == "quadric"
    R = Poly.zero(2 * d)
    for c, p in enumerate(polyintegrals.impulsion_poly_basis(d, 3), start=1):
        R = R + p.scale(c)
    assert polyintegrals.BiHomogeneousPoly.from_poly(R, d, 3).antisymmetric().diagonal_poly() == R

# -- bases and dimensions -----------------------------------------------------------------

def test_imAS_basis_sizes_22():
    tab = YoungTableau.from_columns([2, 2])
    assert len(imAS_basis(tab, 3)) == 6
    assert len(imAS_basis(tab, 4)) == 20


def test_imAS_basis_single_box():
    tab = YoungTableau.from_columns([1])
    for d in (2, 3, 5):
        assert len(imAS_basis(tab, d)) == d


def test_imAS_basis_elements_pass_membership():
    tab = YoungTableau.from_columns([3, 2])
    for t in imAS_basis(tab, 3):
        assert check_imAS(tab, t)


def test_solution_space_of_membership_equals_span():
    """Conditions (i)+(ii) cut out exactly span(AS(basis tensors)): both the
    span and the constraint solution space have the same dimension."""
    for cols, dim in [([2, 2], 3), ([2, 1], 3), ([2, 2], 4)]:
        tab = YoungTableau.from_columns(cols)
        basis = imAS_basis(tab, dim)
        n = tab.size
        all_idx = list(itertools.product(range(dim), repeat=n))
        col_of = {idx: k for k, idx in enumerate(all_idx)}
        rows = []

        def add_constraint(linear_map):
            # linear_map : basis tensor -> Tensor; one row per output coordinate
            outputs = {}
            for idx in all_idx:
                image = linear_map(basis_tensor(dim, idx))
                for out_idx, val in image.entries.items():
                    outputs.setdefault(out_idx, {})[idx] = val
            for out_idx, coeffs in outputs.items():
                row = [Fraction(0)] * len(all_idx)
                for idx, val in coeffs.items():
                    row[col_of[idx]] = val
                rows.append(row)

        cslots = tab.column_slots()
        for slots in cslots:
            for m, p in itertools.combinations(slots, 2):
                add_constraint(lambda t, m=m, p=p: transpose_slots(t, m, p) + t)
        for k in range(len(cslots) - 1):
            add_constraint(lambda t, k=k: bianchi_sum_AS(tab, t, k, k + 1))
        nullity = len(all_idx) - rank(rows)
        assert nullity == len(basis)


def test_S_injective_on_imAS():
    for cols, dim in [([2, 2], 3), ([2, 1], 3), ([3, 2], 3)]:
        tab = YoungTableau.from_columns(cols)
        basis = imAS_basis(tab, dim)
        echelon = SparseEchelon()
        count = 0
        for t in basis:
            if echelon.insert(symmetrize_S(tab, t).entries):
                count += 1
        assert count == len(basis)


# -- the two lemmas --------------------------------------------------------------------------

def test_transitive_bianchi_identities():
    rng = random.Random(7)
    for cols in ([2, 2, 2], [2, 2, 1], [3, 2, 1]):
        tab = YoungTableau.from_columns(cols)
        for _ in range(2):
            t = AS_of(tab, random_tensor(rng, 3, tab.size, terms=4))
            for k, j in itertools.combinations(range(len(cols)), 2):
                assert bianchi_sum_AS(tab, t, k, j).is_zero()


def test_contraction_stability():
    rng = random.Random(8)
    cases = [([2, 2], 1), ([2, 2], 2), ([3, 2], 1), ([2, 2, 2], 2)]
    for cols, l in cases:
        tab = YoungTableau.from_columns(cols)
        t = AS_of(tab, random_tensor(rng, 3, tab.size, terms=4))
        p = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        reduced_tab, reduced = contract_top_of_last_columns(tab, t, p, l)
        if reduced_tab is None:
            continue
        assert check_imAS(reduced_tab, reduced)


def test_contraction_reduced_shape():
    tab = YoungTableau.from_columns([2, 2, 2])
    t = AS_of(tab, basis_tensor(3, (0, 1, 0, 2, 1, 2)))
    reduced_tab, _ = contract_top_of_last_columns(tab, t, [1, 0, 0], 2)
    assert reduced_tab.columns == (2, 1, 1)


# -- diagonal test and the 2x2 example ----------------------------------------------------------

def test_vanishing_diagonal_zero_tensor():
    tab = YoungTableau.from_columns([2, 2])
    assert vanishing_diagonal_test(tab, Tensor(3, 4, {}))


def test_vanishing_diagonal_detects_nonzero():
    tab = YoungTableau.from_columns([2, 2])
    t = AS_of(tab, basis_tensor(3, (0, 1, 0, 1)))
    assert not t.is_zero()
    assert not vanishing_diagonal_test(tab, t)


def test_vanishing_diagonal_random_nonzero_members():
    rng = random.Random(9)
    tab = YoungTableau.from_columns([2, 2])
    hits = 0
    for _ in range(10):
        t = AS_of(tab, random_tensor(rng, 3, 4, terms=3))
        if t.is_zero():
            continue
        hits += 1
        assert not vanishing_diagonal_test(tab, t)
    assert hits > 0


def test_pair_exchange_decompose_fully_antisymmetric_input():
    vol = volume_form(4)
    phi_y, psi = example_pair_exchange_decompose(vol)
    assert phi_y.is_zero()
    assert psi == vol.scale(3)


def test_pair_exchange_decompose_riemann_input():
    b = [[1, 0, 2], [0, 1, 0], [2, 0, 5]]
    phi = riemann_symmetry_tensor(b)
    phi_y, psi = example_pair_exchange_decompose(phi)
    assert psi.is_zero()  # the cyclic sum an exact Bianchi cancellation
    assert phi_y == phi


def test_pair_exchange_decompose_vanishing_diagonal_forces_antisymmetric():
    # any phi in the constrained space with phi(x,y,x,y) = 0 must be a 4-form
    vol = volume_form(5)
    b = [[1, 1, 0, 0, 0], [1, 2, 0, 0, 1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 1, 0, 0, 3]]
    phi = vol.scale(Fraction(5, 2))
    phi_y, psi = example_pair_exchange_decompose(phi)
    assert phi_y.is_zero()
    # mixed input: Riemann part has nonvanishing diagonal, so phi_Y survives
    mixed = vol + riemann_symmetry_tensor(b)
    phi_y, psi = example_pair_exchange_decompose(mixed)
    assert phi_y == riemann_symmetry_tensor(b)
    assert psi == vol.scale(3)


def test_riemann_class_basis_is_pair_exchange_symmetric():
    # Im AS of the 2x2 vertical tableau implies phi(x,y,z,t) = phi(z,t,x,y):
    # every basis element has it, so a separate pair-exchange check on a
    # member of the class can never fire
    tab = YoungTableau.from_columns([2, 2])
    for d, size in zip(range(2, 7), (1, 6, 20, 50, 105)):
        basis = imAS_basis(tab, d)
        assert len(basis) == size
        assert all(permute(t, (2, 3, 0, 1)) == t for t in basis)


def test_class_dimension_and_products_from_the_shape():
    for rows in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)]:
        for numbering, basis in (("vertical", imAS_basis), ("horizontal", imSA_basis)):
            tab = YoungTableau(rows, numbering)
            for d in range(1, 5):
                assert young.class_dimension(tab, d) == len(basis(tab, d)), (rows, numbering, d)
    # (2,2) vertical: C(d+1, 2)^2 sorted index tuples, |S| = |A| = 4
    assert young.basis_products(YoungTableau.from_columns([2, 2]), 12) == 78 ** 2 * 16
    # (2,2) horizontal: C(d, 2)^2 column-increasing tuples
    assert young.basis_products(YoungTableau((2, 2)), 12) == 66 ** 2 * 16
