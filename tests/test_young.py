"""Symmetrizers, Bianchi-style membership tests, and symmetry-class bases."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdyn import young
from projdyn.exactlin import SparseEchelon, Tensor, accumulate, basis_tensor, rank
from projdyn.young import (
    NumberingError,
    YoungTableau,
    antisymmetrize_A,
    antisymmetrizer_element,
    apply_element,
    bianchi_sum_AS,
    check_imAS,
    check_imSA,
    compose_elements,
    contract_top_of_last_columns,
    example_pair_exchange_decompose,
    imAS_basis,
    imSA_basis,
    scale_element,
    symmetrize_S,
    symmetrizer_element,
    vanishing_diagonal_test,
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
        + phi.transpose_slots(0, 1)
        + phi.transpose_slots(2, 3)
        + phi.transpose_slots(0, 1).transpose_slots(2, 3)
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
        - phi.transpose_slots(0, 2)
        - phi.transpose_slots(1, 3)
        + phi.transpose_slots(0, 2).transpose_slots(1, 3)
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
        assert list(got.items()) == list(compose_reference(left, right).items())
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
    assert list(got.entries.items()) == list(apply_reference(element, t).items())
    assert all(type(v) is Fraction for v in got.entries.values())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_by_code_keeps_the_accumulate_order_across_blocks(data):
    size = data.draw(st.sampled_from([4, 50, 2 ** 16, 2 ** 17]))
    codes = data.draw(st.lists(st.sampled_from([0, 1, 3, size - 1]), max_size=40))
    vals = data.draw(st.lists(st.integers(-2, 2), min_size=len(codes), max_size=len(codes)))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(codes)), max_size=5)))
    bounds = [0, *cuts, len(codes)]
    blocks = [(np.array(codes[a:b], dtype=np.int64), np.array(vals[a:b], dtype=np.int64))
              for a, b in zip(bounds, bounds[1:])]
    expected = {}
    for code, val in zip(codes, vals):
        accumulate(expected, code, val)
    got_codes, got_sums = young._sum_by_code(blocks, size)
    assert list(zip(got_codes.tolist(), got_sums.tolist())) == list(expected.items())


def test_compose_elements_on_seven_boxes():
    # 7**7 codes no longer sort as uint16: the int64 sort path
    tab = YoungTableau((3, 2, 1, 1), "vertical")
    S, A = symmetrizer_element(tab), antisymmetrizer_element(tab)
    AS = compose_elements(A, S)
    assert list(AS.items()) == list(compose_reference(A, S).items())
    rng = random.Random(7)
    part = dict(rng.sample(sorted(AS.items()), 40))
    for left, right in [(part, AS), (AS, part)]:
        assert list(compose_elements(left, right).items()) == list(compose_reference(left, right).items())


def test_group_algebra_beyond_the_int64_guard_runs_the_exact_loop():
    n = 4
    big = 2 ** 62 - 1
    perms = list(itertools.permutations(range(n)))
    rng = random.Random(62)
    g = {p: rng.choice([big, -big, 2 ** 31 + 1, 1]) for p in rng.sample(perms, 12)}
    h = {p: rng.choice([big, -(2 ** 31), 3]) for p in rng.sample(perms, 12)}
    for left, right in [(g, h), (h, g), (g, {p: 1 for p in perms})]:
        got = compose_elements(left, right)
        assert list(got.items()) == list(compose_reference(left, right).items())
    # the largest product is above 2**63: int64 arithmetic would have wrapped
    gh = compose_elements(g, h)
    assert max(map(abs, gh.values())) >= 2 ** 63
    # coefficients that do not fit int64 at all, on either side
    for left, right in [(g, gh), (gh, g), (gh, gh)]:
        assert list(compose_elements(left, right).items()) == list(compose_reference(left, right).items())
    # four products of |c| each: c = 2**60 - 1 is just inside the guard, 2**60 just outside
    swap = {tuple(range(n)): 1, (1, 0, 2, 3): 1}
    for c in (2 ** 60 - 1, 2 ** 60, -(2 ** 60)):
        edge = {tuple(range(n)): c, (0, 1, 3, 2): -c}
        for left, right in [(edge, swap), (swap, edge)]:
            assert list(compose_elements(left, right).items()) == list(compose_reference(left, right).items())
    # twenty slots: 20**20 codes are beyond int64 whatever the coefficients
    wide = {tuple(range(20)): 2, tuple(range(19, -1, -1)): -1, (1, 0) + tuple(range(2, 20)): 1}
    assert list(compose_elements(wide, wide).items()) == list(compose_reference(wide, wide).items())
    tab = YoungTableau((2, 2), "vertical")
    t = Tensor(3, 4, {(0, 1, 2, 0): Fraction(big, 3), (1, 0, 2, 0): Fraction(-big, 5), (2, 2, 1, 0): Fraction(7)})
    huge = Tensor(3, 4, {(0, 1, 2, 0): Fraction(2 ** 63), (2, 2, 1, 0): Fraction(-(2 ** 70), 3)})
    for element in (symmetrizer_element(tab), scale_element(antisymmetrizer_element(tab), big),
                    scale_element(symmetrizer_element(tab), 2 ** 63)):
        for tensor in (t, huge):
            got = apply_element(element, tensor)
            assert list(got.entries.items()) == list(apply_reference(element, tensor).items())
    # a non-integer coefficient also takes the loop
    half = scale_element(symmetrizer_element(tab), Fraction(1, 2))
    assert list(apply_element(half, t).entries.items()) == list(apply_reference(half, t).items())


def image_basis_reference(element, dim, size, indices):
    echelon = SparseEchelon()
    basis = []
    for idx in indices:
        entries = apply_reference(element, Tensor(dim, size, {idx: Fraction(1)}))
        if entries and echelon.insert(entries):
            basis.append(list(entries.items()))
    return basis


@pytest.mark.parametrize("columns,dim", [([2, 1], 3), ([2, 1], 4), ([2, 2], 3), ([2, 2], 4), ([2, 2], 5),
                                         ([2, 2, 2], 3), ([3, 2], 4)])
def test_image_bases_match_the_per_product_loop(columns, dim):
    tab = YoungTableau.from_columns(columns)
    A, S = antisymmetrizer_element(tab), symmetrizer_element(tab)
    indices = young._block_indices(tab.row_slots(), tab.size,
                                   lambda k: itertools.combinations_with_replacement(range(dim), k))
    expected = image_basis_reference(compose_reference(A, S), dim, tab.size, indices)
    assert [list(t.entries.items()) for t in imAS_basis(tab, dim)] == expected
    horizontal = YoungTableau(tab.columns, "horizontal")
    A, S = antisymmetrizer_element(horizontal), symmetrizer_element(horizontal)
    indices = young._block_indices(horizontal.column_slots(), horizontal.size,
                                   lambda k: itertools.combinations(range(dim), k))
    expected = image_basis_reference(compose_reference(S, A), dim, horizontal.size, indices)
    assert [list(t.entries.items()) for t in imSA_basis(horizontal, dim)] == expected

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
        assert [list(t.entries.items()) for t in got] == expected


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
    total = vol - vol.transpose_slots(0, 2) - vol.transpose_slots(1, 2)
    assert total == vol.scale(3)


def test_numbering_mismatch_is_an_error():
    t = Tensor(3, 4, {})
    with pytest.raises(NumberingError):
        check_imAS(YoungTableau((2, 2), "horizontal"), t)
    with pytest.raises(NumberingError):
        check_imSA(YoungTableau((2, 2), "vertical"), t)


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
                add_constraint(lambda t, m=m, p=p: t.transpose_slots(m, p) + t)
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


def test_symmetrized_tensor_wrapper():
    from projdyn.young import SymmetrizedTensor

    tab = YoungTableau.from_columns([2, 2])
    b = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    t = riemann_symmetry_tensor(b)
    wrapped = SymmetrizedTensor(tab, t, "im_AS")
    assert wrapped.symmetry_class == "im_AS"
    with pytest.raises(ValueError):
        SymmetrizedTensor(tab, volume_form(4), "im_AS")
    with pytest.raises(ValueError):
        SymmetrizedTensor(YoungTableau((2, 2), "horizontal"), t, "im_AS")
    SymmetrizedTensor(tab, volume_form(4), "unconstrained")


def test_riemann_class_basis_is_pair_exchange_symmetric():
    # Im AS of the 2x2 vertical tableau implies phi(x,y,z,t) = phi(z,t,x,y):
    # every basis element has it, so a separate pair-exchange check on a
    # member of the class can never fire
    tab = YoungTableau.from_columns([2, 2])
    for d, size in zip(range(2, 7), (1, 6, 20, 50, 105)):
        basis = imAS_basis(tab, d)
        assert len(basis) == size
        assert all(t.permute((2, 3, 0, 1)) == t for t in basis)


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
