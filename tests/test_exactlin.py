"""Exterior algebra, interior products, and exact elimination."""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    basis_vector,
    contract_by_fractions,
    contract_multivector_by_fractions,
    echelon_basis,
    echelon_contains,
    intersect_spans,
    multivector_from_json,
    permute,
    same_subspace,
    sum_of_spans,
    wedge_by_fractions,
)
from projdyn import exactlin as ex
from projdyn.exactlin import (
    DegenerateInputError,
    Multivector,
    Tensor,
    basis_multivector,
    contract,
    contract_multivector,
    is_decomposable,
    kernel,
    multivector_rank,
    rank,
    support,
    vector,
    wedge,
    wedge_power,
)
from projdyn.polynomials import Poly


def frac_vec(rng, dim, span=4):
    return [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(dim)]


def random_bivector(rng, dim, terms=2):
    out = Multivector(dim, 2, {})
    for _ in range(terms):
        out = out + wedge(vector(dim, frac_vec(rng, dim)), vector(dim, frac_vec(rng, dim)))
    return out


# -- wedge ------------------------------------------------------------------

def test_wedge_basis_case():
    assert wedge(basis_vector(3, 0), basis_vector(3, 1)) == basis_multivector(3, (0, 1))


def test_wedge_alternation():
    x = vector(3, [1, Fraction(-2, 3), 5])
    assert wedge(x, x).is_zero()


def test_wedge_bilinear_hand_expansion():
    # (e0+e1) ^ e1 = e0^e1, expanding bilinearly by hand
    e0, e1 = basis_vector(3, 0), basis_vector(3, 1)
    assert wedge(e0 + e1, e1) == basis_multivector(3, (0, 1))


def test_wedge_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        wedge(basis_vector(3, 0), basis_vector(4, 0))


def test_wedge_grade_overflow_returns_zero():
    a = basis_multivector(3, (0, 1))
    b = basis_multivector(3, (1, 2))
    assert wedge(a, b).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 5), st.integers(1, 2), st.integers(1, 2))
def test_wedge_graded_anticommutative(seed, dim, j, k):
    rng = random.Random(seed)
    a = Multivector(dim, j, {tuple(sorted(rng.sample(range(dim), j))): Fraction(rng.randint(-3, 3)) for _ in range(2)})
    b = Multivector(dim, k, {tuple(sorted(rng.sample(range(dim), k))): Fraction(rng.randint(-3, 3)) for _ in range(2)})
    lhs = wedge(a, b)
    rhs = wedge(b, a).scale((-1) ** (j * k))
    assert lhs == rhs


def test_wedge_associative():
    rng = random.Random(7)
    for _ in range(10):
        a = vector(5, frac_vec(rng, 5))
        b = random_bivector(rng, 5)
        c = vector(5, frac_vec(rng, 5))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# -- contraction --------------------------------------------------------------

def test_contract_dual_basis():
    e1_dual = [1, 0, 0]
    assert contract(e1_dual, basis_multivector(3, (0, 1))) == basis_vector(3, 1)


def test_contract_annihilation():
    e3_dual = [0, 0, 1]
    assert contract(e3_dual, basis_multivector(3, (0, 1))).is_zero()


def test_contract_two_form_expansion():
    # phi = e0* + e1*, contract into e0 ^ e1 gives e1 - e0
    out = contract([1, 1, 0], basis_multivector(3, (0, 1)))
    assert out == basis_vector(3, 1) - basis_vector(3, 0)


def test_contract_grade2_identity():
    rng = random.Random(3)
    for _ in range(15):
        dim = 4
        x, y, xi = frac_vec(rng, dim), frac_vec(rng, dim), frac_vec(rng, dim)
        lhs = contract(xi, wedge(vector(dim, x), vector(dim, y)))
        pair_x = sum(a * b for a, b in zip(xi, x))
        pair_y = sum(a * b for a, b in zip(xi, y))
        rhs = vector(dim, y).scale(pair_x) - vector(dim, x).scale(pair_y)
        assert lhs == rhs


def test_contract_multivector_into_volume():
    vol = basis_multivector(4, (0, 1, 2, 3))
    pi = basis_multivector(4, (0, 1))
    assert contract_multivector(pi, vol) == basis_multivector(4, (2, 3))
    pi2 = basis_multivector(4, (1, 2))
    # moving (1,2) to the front of (0,1,2,3) costs two transpositions
    assert contract_multivector(pi2, vol) == basis_multivector(4, (0, 3))


def test_contract_multivector_antiderivation_consistency():
    # x -| (y -| w) = (y ^ x)-ish ordering check against the nested covector rule
    rng = random.Random(11)
    vol = basis_multivector(5, (0, 1, 2, 3, 4))
    for _ in range(5):
        x = frac_vec(rng, 5)
        first = contract_multivector(vector(5, x), vol)
        y = frac_vec(rng, 5)
        nested = contract_multivector(vector(5, y), first)
        joint = contract_multivector(wedge(vector(5, x), vector(5, y)), vol)
        assert nested == joint


COORD = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 5, 10**9 + 7]))


@st.composite
def multivector_pairs(draw):
    """a and b over one space with grade(a) <= grade(b), and a covector:
    sparse, small coordinates, so sums cancel at some keys."""
    dim = draw(st.integers(1, 6))

    def draw_multivector(grade):
        keys = draw(st.lists(st.sampled_from(list(itertools.combinations(range(dim), grade))), unique=True))
        return Multivector(dim, grade, {key: draw(COORD) for key in keys})

    a = draw_multivector(draw(st.integers(0, dim)))
    b = draw_multivector(draw(st.integers(a.grade, dim)))
    return a, b, draw(st.lists(COORD, min_size=dim, max_size=dim))


def same_coords(got, expected):
    """Equal coordinates listed in the same key order, all Fractions."""
    assert list(got.coords.items()) == list(expected.coords.items())
    assert all(type(v) is Fraction for v in got.coords.values())


@settings(max_examples=200, deadline=None)
@given(multivector_pairs())
def test_products_on_cleared_integers_match_the_fraction_loops(case):
    a, b, xi = case
    same_coords(wedge(a, b), wedge_by_fractions(a, b))
    same_coords(wedge(b, a), wedge_by_fractions(b, a))
    same_coords(contract_multivector(a, b), contract_multivector_by_fractions(a, b))
    if a.grade:
        same_coords(contract(xi, a), contract_by_fractions(xi, a))
    # the integer kernels: ints in, ints out, den times the rational result key by key
    (ia, da), (ib, db) = ex._cleared(a), ex._cleared(b)
    ix, dx = ex.clear_denominators(xi)
    kernels = [(ex._wedge_ints(ia, ib), da * db, wedge_by_fractions(a, b)),
               (ex._contract_multivector_ints(ia, ib), da * db, contract_multivector_by_fractions(a, b)),
               (ex._contract_ints(ix, ib), dx * db, contract_by_fractions(xi, b) if b.grade else None)]
    for got, den, expected in kernels:
        assert all(type(v) is int for v in got.values())
        if expected is not None:
            assert [(key, Fraction(v, den)) for key, v in got.items()] == list(expected.coords.items())


# -- kernel / rank -------------------------------------------------------------

def test_kernel_identity_empty():
    assert kernel(ex.identity_matrix(3)) == []


def test_kernel_zero_map():
    basis = kernel(ex.zeros_matrix(3, 3))
    assert len(basis) == 3
    assert same_subspace(basis, ex.identity_matrix(3))


def test_kernel_rank_one_diag():
    m = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    basis = kernel(m)
    assert same_subspace(basis, [[0, 1, 0], [0, 0, 1]])


def test_rank_plus_nullity():
    rng = random.Random(5)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        assert rank(m) + len(kernel(m)) == cols


def test_solve_and_inverse():
    m = [[2, 1], [1, 1]]
    x = ex.solve(m, [3, 2])
    assert x == [Fraction(1), Fraction(1)]
    inv = ex.mat_inverse(m)
    assert ex.mat_mul(m, inv) == ex.identity_matrix(2)
    assert ex.solve([[1, 1], [1, 1]], [0, 1]) is None


def test_det():
    assert ex.det([[2, 0], [0, 3]]) == 6
    assert ex.det([[1, 2], [2, 4]]) == 0


# -- integer elimination against rational Gauss-Jordan --------------------------
# rref, kernel, solve, mat_inverse, rank, det and SparseEchelon eliminate over
# integers after clearing denominators.  The references below are rational
# eliminations, and kernel, solve and inverse read off the rational reduced
# form; the reduced row echelon form is unique, so every result must agree
# exactly.

def rref_by_fractions(matrix):
    """Gauss-Jordan over Fraction, dividing by each pivot as it is found."""
    m = [[ex.rat(x) for x in row] for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def det_by_fractions(matrix):
    """Determinant by rational elimination below the diagonal."""
    m = [[ex.rat(x) for x in row] for row in matrix]
    n = len(m)
    sign, out = 1, Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out * sign


def rank_mod_p(matrix, p=2**61 - 1):
    """Rank over GF(p) of the matrix with each row's denominators cleared;
    it equals the rank over Q unless p divides every maximal nonzero minor."""
    mat = [[x % p for x in ex.clear_denominators(row)[0]] for row in matrix]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        for i in range(r + 1, len(mat)):
            f = mat[i][c] * inv % p
            mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def kernel_by_fractions(matrix):
    """Kernel basis read off the rational reduced form: one vector per free
    column f, 1 at f and minus the reduced rows' entries at f on the pivots."""
    red, pivots = rref_by_fractions(matrix)
    cols = len(matrix[0]) if matrix else 0
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve_by_fractions(matrix, rhs):
    """The solution of M x = rhs that is zero at the free columns, or None."""
    cols = len(matrix[0])
    red, pivots = rref_by_fractions([list(row) + [b] for row, b in zip(matrix, rhs)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    return x


def inverse_by_fractions(matrix):
    n = len(matrix)
    eye = ex.identity_matrix(n)
    red, pivots = rref_by_fractions([list(row) + e for row, e in zip(matrix, eye)])
    return [row[n:] for row in red] if pivots == list(range(n)) else None


# small entries, many zeros, and large pairwise coprime denominators
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.sampled_from([10**9 + 7, 998244353, 2**31 - 1, 3**20, 7**15])),
)


@st.composite
def matrices(draw, square=False):
    """Zero, wide, tall, rank-deficient and duplicated-row matrices."""
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["zero", "dense", "rank-deficient", "duplicated-rows"]))
    if kind == "zero":
        return [[Fraction(0)] * cols for _ in range(rows)]
    if kind == "rank-deficient":
        k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        a = [[draw(ENTRY) for _ in range(k)] for _ in range(rows)]
        b = [[draw(ENTRY) for _ in range(cols)] for _ in range(k)]
        return ex.mat_mul(a, b)
    m = [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]
    if kind == "duplicated-rows" and rows > 1:
        i, j = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
        m[j] = list(m[i])
    return m


def all_fractions(value):
    if isinstance(value, list):
        return all(all_fractions(x) for x in value)
    return value is None or type(value) is Fraction


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_integer_elimination_matches_rational_gauss_jordan(m, data):
    rhs = data.draw(st.lists(ENTRY, min_size=len(m), max_size=len(m)))
    square = data.draw(matrices(square=True))

    red, pivots = ex.rref(m)
    got = red, pivots, kernel(m), ex.solve(m, rhs), ex.mat_inverse(square)
    expected = (*rref_by_fractions(m), kernel_by_fractions(m), solve_by_fractions(m, rhs),
                inverse_by_fractions(square))
    assert got == expected
    assert all_fractions([got[0]] + list(got[2:]))
    assert rank(m) == len(expected[1])
    assert ex.det(square) == det_by_fractions(square)
    assert type(ex.det(square)) is Fraction


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_matches_rank_mod_p(m):
    assert rank(m) == rank_mod_p(m)
    assert len(ex.rref(m)[1]) == rank(m)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 4), ENTRY, min_size=1, max_size=4), min_size=1, max_size=6))
def test_sparse_echelon_matches_rational_gauss_jordan(vectors):
    """The integer sparse echelon finds the same span increments and the same
    reduced basis as rational Gauss-Jordan on the stacked dense rows."""
    echelon = ex.SparseEchelon()
    dense = []
    for vec in vectors:
        before = len(rref_by_fractions(dense)[1])
        dense.append([ex.rat(vec.get(k, 0)) for k in range(5)])
        assert echelon.insert(vec) == (len(rref_by_fractions(dense)[1]) > before)
    red, pivots = rref_by_fractions(dense)
    assert [[row.get(k, Fraction(0)) for k in range(5)] for row in echelon_basis(echelon)] == red[:len(pivots)]
    assert all(echelon_contains(echelon, vec) for vec in vectors)


@given(st.lists(ENTRY, max_size=6))
def test_clear_denominators_scales_by_the_lcm(values):
    ints, den = ex.clear_denominators(values)
    assert all(type(x) is int for x in ints)
    assert [Fraction(x, den) for x in ints] == values
    # the least such scale: a common factor q of den and the ints would let
    # den / q clear the denominators as well
    assert den >= 1 and math.gcd(den, *ints) == 1


def test_elimination_accepts_ints_and_strings():
    m = [[2, "1/2", 0], [4, 1, "3"]]
    assert ex.rref(m) == rref_by_fractions(m)
    assert ex.det([[2, "1/3"], ["1/2", 1]]) == Fraction(11, 6)
    assert ex.rref([]) == ([], []) and ex.det([]) == 1


# -- seeded large cases ----------------------------------------------------------
# The hypothesis matrices stop at 6x6.  These reach the sizes of the exact
# chain's requests and of the tall systems of the pipelines, where the exact
# divisions of the elimination act on large minors.

HUGE_DENOMINATORS = (10**9 + 7, 998244353, 2**31 - 1, 3**20, 7**15)


def rational_matrix(rng, rows, cols, entry):
    return [[entry(rng) for _ in range(cols)] for _ in range(rows)]


def small_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def huge_rational(rng):
    """Zero three times in ten, else ENTRY's large numerators over coprime denominators."""
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-10**12, 10**12), rng.choice(HUGE_DENOMINATORS))


def low_rank_product(rng, n, k):
    """An n x k times k x n product of small integer matrices, its rows and
    columns then divided by small denominators (which keeps the rank k,
    unless the draw is unlucky); summed over ints, as Fraction products of
    this size would take longer than the elimination."""
    a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
    b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
    row_dens = [rng.randint(1, 5) for _ in range(n)]
    col_dens = [rng.randint(1, 5) for _ in range(n)]
    return [[Fraction(sum(x * y for x, y in zip(row, col)), r * c) for col, c in zip(zip(*b), col_dens)]
            for row, r in zip(a, row_dens)]


def assert_elimination_exact(m):
    """rref against rational Gauss-Jordan and rank against the rank mod p;
    the kernel is annihilated and is the identity on the free columns, which
    determines it."""
    red, pivots = ex.rref(m)
    assert (red, pivots) == rref_by_fractions(m)
    assert rank(m) == len(pivots) == rank_mod_p(m)
    free = [c for c in range(len(m[0])) if c not in pivots]
    basis = kernel(m)
    assert [[v[c] for c in free] for v in basis] == ex.identity_matrix(len(free))
    assert all(not any(ex.mat_vec(m, v)) for v in basis)
    assert all_fractions(red) and all_fractions(basis)
    return pivots


@pytest.mark.parametrize("n", [12, 18, 24, 30])
def test_elimination_of_the_exact_chain_products(n):
    m = low_rank_product(random.Random(n), n, n - 3)
    assert len(assert_elimination_exact(m)) == n - 3


def test_solve_of_a_30x31_augmented_system():
    rng = random.Random(31)
    m = rational_matrix(rng, 30, 30, small_rational)
    x0 = [small_rational(rng) for _ in range(30)]
    rhs = ex.mat_vec(m, x0)
    assert ex.solve(m, rhs) == solve_by_fractions(m, rhs) == x0
    assert rank(m) == 30 == rank_mod_p(m)


def test_one_dependent_row():
    rng = random.Random(14)
    m = rational_matrix(rng, 14, 14, small_rational)
    m[-1] = [a + b for a, b in zip(m[0], m[1])]
    assert assert_elimination_exact(m) == list(range(13))
    assert not any(ex.rref(m)[0][-1])
    assert ex.det(m) == 0
    # consistent exactly when the rhs obeys the same dependency
    rhs = [small_rational(rng) for _ in range(14)]
    rhs[-1] = rhs[0] + rhs[1]
    x = ex.solve(m, rhs)
    assert x == solve_by_fractions(m, rhs) and ex.mat_vec(m, x) == rhs
    rhs[-1] += 1
    assert ex.solve(m, rhs) is None is solve_by_fractions(m, rhs)


@pytest.mark.parametrize("rows, cols", [(100, 5), (295, 6)])
def test_tall_matrices_of_small_ints(rows, cols):
    rng = random.Random(rows)
    m = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(cols)] for _ in range(rows)]
    assert_elimination_exact(m)
    # a tall matrix of rank 2: every row a combination of two
    u, v = m[0], m[1]
    low = [[a * x + b * y for x, y in zip(u, v)] for a, b in ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rows))]
    assert len(assert_elimination_exact(low)) == rank_mod_p([u, v])


@st.composite
def tall_extensions(draw):
    """(m, rhs, tall, tall_rhs): a drawn matrix with a right-hand side, and
    the same rows with dependent rows added (small integer combinations,
    zero rows among them), shuffled and each scaled by a nonzero rational,
    the right-hand side following every row.  The added rows reach past
    the tall-row cut-off (``ex._TALL`` rows per column) in about half of the
    cases."""
    m = draw(matrices())
    rhs = draw(st.lists(ENTRY, min_size=len(m), max_size=len(m)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cols = len(m[0])
    rows = [(list(row), b) for row, b in zip(m, rhs)]
    for _ in range(rng.randint(cols + 1, 2 * ex._TALL * cols + 6)):
        w = [rng.randint(-2, 2) for _ in m]
        rows.append(([sum((c * row[j] for c, row in zip(w, m)), Fraction(0)) for j in range(cols)],
                     sum((c * b for c, b in zip(w, rhs)), Fraction(0))))
    rng.shuffle(rows)
    scales = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7, 10**9 + 7])) for _ in rows]
    return (m, rhs, [[c * x for x in row] for (row, _), c in zip(rows, scales)],
            [c * b for (_, b), c in zip(rows, scales)])


def nonzero_rref(matrix):
    red, pivots = ex.rref(matrix)
    return red[:len(pivots)], pivots


@settings(max_examples=150, deadline=None)
@given(tall_extensions())
def test_tall_matrices_eliminate_like_their_independent_rows(case):
    m, rhs, tall, tall_rhs = case
    assert len(tall) > len(tall[0])
    assert kernel(tall) == kernel(m)
    assert nonzero_rref(tall) == nonzero_rref(m)
    assert ex.solve(tall, tall_rhs) == ex.solve(m, rhs)


def independent_rows_kept_all(monkeypatch, call):
    """call() with the tall-row pre-pass replaced by keeping every row."""
    with monkeypatch.context() as patch:
        patch.setattr(ex, "_independent_rows", lambda rows, cols: rows)
        return call()


def test_rank_deficient_integer_rows_past_the_cut_off_match_full_elimination(monkeypatch):
    # small entries make the echelon's updates at a new pivot matter: a kept
    # row left unreduced there passes or fails later membership tests wrongly
    rng = random.Random(8)
    for _ in range(500):
        cols = rng.randint(3, 5)
        basis = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rng.randint(1, cols - 1))]
        rows = [[sum(rng.randint(-1, 1) * b[j] for b in basis) for j in range(cols)]
                for _ in range(ex._TALL * cols + 1)]
        assert kernel(rows) == independent_rows_kept_all(monkeypatch, lambda: kernel(rows))


def test_the_300_row_wedge_annihilator_kernel_matches_full_elimination(monkeypatch):
    from projdyn import curvclass

    rng = random.Random(6)
    d = 6
    phi = vector(d, [1, -2, 0, 3, 1, 0])
    common = curvclass.BivectorMap.from_images(
        d, d, [wedge(phi, vector(d, frac_vec(rng, d))) for _ in curvclass.pair_basis(d)])
    square = curvclass.BivectorMap.wedge_square([frac_vec(rng, d) for _ in range(d)])
    for R, nullity in ((common, 1), (square, 0)):
        seen = []
        with monkeypatch.context() as patch:
            patch.setattr(curvclass, "kernel", lambda rows: seen.append(rows) or kernel(rows))
            curvclass._wedge_annihilator(R)
        (rows,) = seen
        assert len(rows) == 300
        basis = kernel(rows)
        assert len(basis) == nullity
        assert basis == independent_rows_kept_all(monkeypatch, lambda: kernel(rows)) == kernel_by_fractions(rows)
        assert nonzero_rref(rows) == independent_rows_kept_all(monkeypatch, lambda: nonzero_rref(rows))


def test_tall_rows_past_the_int64_guard_match_full_elimination(monkeypatch):
    rng = random.Random(62)
    base = [[rng.randint(-2**70, 2**70) for _ in range(5)] for _ in range(3)]
    rows = [[sum(rng.randint(-3, 3) * row[j] for row in base) for j in range(5)] for _ in range(60)]
    rows[7:7] = base
    rhs = [rng.randint(-2**65, 2**65) for _ in rows]
    for matrix in (rows, [row + [b] for row, b in zip(rows, rhs)]):
        assert max(abs(x) for row in matrix for x in row) > 2**62
        assert len(matrix) > ex._TALL * len(matrix[0])
        full = independent_rows_kept_all(monkeypatch, lambda: (kernel(matrix), nonzero_rref(matrix)))
        assert (kernel(matrix), nonzero_rref(matrix)) == full
        assert kernel(matrix) == kernel_by_fractions(matrix)
    consistent = [sum(x * y for x, y in zip(row, rows[0])) for row in rows]
    x = ex.solve(rows, consistent)
    assert x == solve_by_fractions(rows, consistent) and ex.mat_vec(rows, x) == consistent
    assert ex.solve(rows, rhs) is None is solve_by_fractions(rows, rhs)


def test_huge_coprime_denominators():
    rng = random.Random(7)
    m = rational_matrix(rng, 8, 9, huge_rational)
    m[5] = [a - 3 * b for a, b in zip(m[2], m[4])]
    assert assert_elimination_exact(m)
    square = [row[:8] for row in m[:4]] + rational_matrix(rng, 4, 8, huge_rational)
    assert ex.det(square) == det_by_fractions(square)
    assert ex.mat_inverse(square) == inverse_by_fractions(square)
    rhs = [huge_rational(rng) for _ in range(8)]
    assert ex.solve(square, rhs) == solve_by_fractions(square, rhs)


@pytest.mark.parametrize("n", range(1, 11))
def test_det_up_to_10x10(n):
    rng = random.Random(100 + n)
    m = rational_matrix(rng, n, n, small_rational)
    m[0][0] = Fraction(0)  # the first pivot needs a row swap
    assert ex.det(m) == det_by_fractions(m)
    if n > 1:
        m[-1] = [2 * x for x in m[0]]
        assert ex.det(m) == 0 == det_by_fractions(m)


def test_rows_with_a_zero_under_the_pivot_keep_pace():
    """A row whose entry under the pivot is zero is still scaled by p / prev:
    here the second pivot 1 is not a multiple of the first pivot 2, so
    scaling by p // prev would zero the last row."""
    m = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert ex.det(m) == 1
    assert ex.rref(m) == (ex.identity_matrix(3), [0, 1, 2])
    assert ex.mat_inverse(m) == [[1, -1, 0], [-1, 2, 0], [0, 0, 1]]
    assert rank(m) == 3


def test_intersection_with_the_zero_space_is_zero():
    assert intersect_spans([[], [[1, 0]]]) == [] == intersect_spans([[[1, 0]], []])
    assert intersect_spans([[[1, 0]], [[1, 1]]]) == []
    assert intersect_spans([[[1, 0], [0, 1]]]) == ex.identity_matrix(2)


@pytest.mark.parametrize("call, shape", [
    (lambda: ex.det([[1, 2, 3], [4, 5, 6]]), "2x3"),
    (lambda: ex.det([[1, 2], [3, 4], [5, 6]]), "3x2"),
    (lambda: ex.solve([[1, 0], [0, 1]], [1, 2, 3]), "length 3 for a 2x2"),
    (lambda: ex.solve([[1, 0], [0, 1]], [1]), "length 1 for a 2x2"),
    (lambda: ex.mat_inverse([[1, 0, 0], [0, 1, 0]]), "2x3"),
    (lambda: rank([[1, 2], [3, 4, 5]]), r"lengths \[2, 3\]"),
    (lambda: ex.rref([[1, 2], [3, 4, 5]]), r"lengths \[2, 3\]"),
    (lambda: kernel([[1, 2], [3, 4, 5]]), r"lengths \[2, 3\]"),
    (lambda: ex.mat_mul([[1, 2, 3]], [[1], [2]]), "1x3 matrix by a 2x1"),
    (lambda: ex.mat_vec([[1, 2]], [1, 2, 3]), "1x2 matrix by a vector of length 3"),
])
def test_shape_errors_name_the_shape(call, shape):
    with pytest.raises(ValueError, match=shape):
        call()


# -- decomposability / support / wedge powers ---------------------------------

def test_decomposable_basis_bivector():
    assert is_decomposable(basis_multivector(4, (0, 1)))


def test_not_decomposable_in_dim4():
    pi = Multivector(4, 2, {(0, 1): 1, (2, 3): 1})
    assert not is_decomposable(pi)
    assert wedge(pi, pi) == basis_multivector(4, (0, 1, 2, 3)).scale(2)


def test_dim3_always_decomposable():
    rng = random.Random(1)
    for _ in range(20):
        pi = random_bivector(rng, 3)
        assert is_decomposable(pi)


def test_support_decomposable():
    assert same_subspace(support(basis_multivector(4, (0, 1))), [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_support_rank4_in_dim5():
    pi = Multivector(5, 2, {(0, 1): 1, (2, 3): 1})
    expected = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
    assert same_subspace(support(pi), expected)


def test_support_factors_common_vector():
    # e0^e1 + e0^e2 = e0 ^ (e1+e2)
    pi = Multivector(4, 2, {(0, 1): 1, (0, 2): 1})
    assert same_subspace(support(pi), [[1, 0, 0, 0], [0, 1, 1, 0]])


def test_support_of_zero_raises():
    with pytest.raises(DegenerateInputError):
        support(Multivector(3, 2, {}))


def test_wedge_power_square_of_decomposable_is_zero():
    assert wedge_power(basis_multivector(4, (0, 1)), 2).is_zero()


def test_wedge_power_binomial():
    pi = Multivector(4, 2, {(0, 1): 1, (2, 3): 1})
    assert wedge_power(pi, 2) == basis_multivector(4, (0, 1, 2, 3)).scale(2)
    assert multivector_rank(pi) == 4


def test_rank_via_wedge_powers_random():
    rng = random.Random(9)
    for dim in (4, 5, 6):
        for _ in range(10):
            vecs = [frac_vec(rng, dim) for _ in range(4)]
            pi = wedge(vector(dim, vecs[0]), vector(dim, vecs[1])) + wedge(vector(dim, vecs[2]), vector(dim, vecs[3]))
            r = multivector_rank(pi)
            assert r in (0, 2, 4)
            assert r == 2 * len([m for m in range(1, dim // 2 + 1) if not wedge_power(pi, m).is_zero()])


# -- the two support lemmas ---------------------------------------------------

def test_support_shrinks_along_wedge_powers():
    # supp(pi^m) <= supp(pi^p) for p <= m; equality with supp(pi) at full rank
    rng = random.Random(21)
    for dim in (4, 5, 6):
        for _ in range(12):
            pi = random_bivector(rng, dim, terms=2)
            if pi.is_zero():
                continue
            r = multivector_rank(pi)
            m_max = r // 2
            supports = {m: support(wedge_power(pi, m)) for m in range(1, m_max + 1)}
            for p in range(1, m_max + 1):
                inter = intersect_spans([supports[m_max], supports[p]])
                assert same_subspace(inter, supports[m_max])  # containment
            for p in range(1, m_max + 1):
                assert same_subspace(supports[p], supports[1])  # full-rank equality


def test_support_of_vector_wedge():
    rng = random.Random(33)
    for _ in range(25):
        dim = 5
        mu = random_bivector(rng, dim, terms=1)
        if mu.is_zero():
            continue
        phi_in = support(mu)[0]
        grown = wedge(vector(dim, phi_in), mu)
        if not grown.is_zero():
            inter = intersect_spans([support(grown), support(mu)])
            assert same_subspace(inter, support(grown))  # contained in supp(mu)
        phi_out = frac_vec(rng, dim)
        if ex.rank(support(mu) + [phi_out]) == len(support(mu)):
            continue  # accidentally inside the support
        grown = wedge(vector(dim, phi_out), mu)
        assert not grown.is_zero()
        expected = sum_of_spans([support(mu), [phi_out]])
        assert same_subspace(support(grown), expected)


# -- tensors -------------------------------------------------------------------

def test_tensor_permute_matches_evaluation():
    rng = random.Random(17)
    t = Tensor(3, 3, {(0, 1, 2): Fraction(2), (1, 1, 0): Fraction(-1, 2)})
    sigma = (2, 0, 1)
    permuted = permute(t, sigma)
    for _ in range(5):
        vecs = [frac_vec(rng, 3) for _ in range(3)]
        assert permuted.evaluate(vecs) == t.evaluate([vecs[s] for s in sigma])


def permute_by_accumulation(t, sigma):
    """permute as it was written in ``Tensor``, through ``accumulate``: the
    reference for the direct stores of the bijective version."""
    out = {}
    for jdx, val in t.entries.items():
        idx = [0] * t.order
        for k, pos in enumerate(sigma):
            idx[pos] = jdx[k]
        ex.accumulate(out, tuple(idx), val)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_permute_is_a_bijection_on_entries(data):
    order = data.draw(st.integers(1, 4))
    t = Tensor(3, order, data.draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * order), SMALL, max_size=10)))
    sigma = data.draw(st.permutations(range(order)))
    inverse = [sigma.index(k) for k in range(order)]
    moved = permute(t, sigma)
    reference = permute_by_accumulation(t, sigma)
    assert moved.entries == reference and list(moved.entries) == list(reference)
    back = permute(moved, inverse)
    assert back == t and len(back.entries) == len(t.entries)
    assert list(back.entries) == list(permute_by_accumulation(moved, inverse))


def test_tensor_equality_normalization():
    a = Tensor(2, 2, {(0, 1): Fraction(1, 2)})
    b = Tensor(2, 2, {(0, 1): Fraction(2, 4), (1, 1): 0})
    assert a == b


# -- canonical form after cancellation ---------------------------------------------
# Every sparse container stores no zero value, also when terms cancel inside
# an operation.  Each result is compared with a dense reference that sums all
# terms without deleting anything and drops the zeros only at the end.

SMALL = st.sampled_from([Fraction(v) for v in (-2, -1, 2, 1)] + [Fraction(1, 2), Fraction(-1, 2)])
UNIT = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)])
TENSOR3 = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), SMALL, max_size=8)
BIVECTOR4 = st.dictionaries(st.sampled_from(list(itertools.combinations(range(4), 2))), SMALL, max_size=6)
VECTOR4 = st.dictionaries(st.tuples(st.integers(0, 3)), SMALL, max_size=4)
POLY2 = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), SMALL, min_size=1, max_size=5)


def dense_sum(terms):
    out = defaultdict(Fraction)
    for key, val in terms:
        out[key] += val
    return {key: val for key, val in out.items() if val}


def assert_no_zero(stored):
    assert all(type(v) is Fraction and v for v in stored.values())


def assert_canonical(stored, terms):
    assert stored == dense_sum(terms)
    assert_no_zero(stored)


def sorted_sign(idx):
    if len(set(idx)) < len(idx):
        return tuple(sorted(idx)), 0
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return tuple(sorted(idx)), (-1) ** inversions


def partly_cancelling(data, base, extra):
    """base negated on a drawn subset of its keys, plus extra entries."""
    keys = data.draw(st.lists(st.sampled_from(sorted(base)), unique=True)) if base else []
    return {**data.draw(extra), **{k: -base[k] for k in keys}}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_operations_keep_canonical_form(data):
    a = data.draw(TENSOR3)
    b = partly_cancelling(data, a, TENSOR3)
    ta, tb = Tensor(3, 3, a), Tensor(3, 3, b)
    assert (ta + ta.scale(-1)).entries == {}
    assert_canonical((ta + tb).entries, list(a.items()) + list(b.items()))
    sigma = data.draw(st.permutations(range(3)))
    moved = []
    for jdx, val in a.items():
        idx = [0] * 3
        for k, pos in enumerate(sigma):
            idx[pos] = jdx[k]
        moved.append((tuple(idx), val))
    assert_canonical(permute(ta, sigma).entries, moved)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multivector_operations_keep_canonical_form(data):
    a = data.draw(BIVECTOR4)
    b = partly_cancelling(data, a, BIVECTOR4)
    ma, mb = Multivector(4, 2, a), Multivector(4, 2, b)
    assert (ma + ma.scale(-1)).coords == {}
    assert_canonical((ma + mb).coords, list(a.items()) + list(b.items()))
    x, y = Multivector(4, 1, data.draw(VECTOR4)), Multivector(4, 1, data.draw(VECTOR4))
    assert (wedge(x, y) + wedge(y, x)).coords == {}
    terms = []
    for ia, va in ma.coords.items():
        for ib, vb in mb.coords.items():
            key, sign = sorted_sign(ia + ib)
            terms.append((key, va * vb * sign))
    assert_canonical(wedge(ma, mb).coords, terms)
    xi = data.draw(st.lists(UNIT, min_size=4, max_size=4))
    terms = [(idx[:pos] + idx[pos + 1:], val * xi[i] * (-1) ** pos)
             for idx, val in ma.coords.items() for pos, i in enumerate(idx)]
    assert_canonical(contract(xi, ma).coords, terms)


@settings(max_examples=60, deadline=None)
@given(POLY2, POLY2)
def test_poly_operations_keep_canonical_form(a, b):
    p, q = Poly(2, a), Poly(2, b)
    assert (p * q - q * p).terms == {}
    assert (p + p.scale(-1)).terms == {}
    terms = [(tuple(x + y for x, y in zip(e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items()]
    assert_canonical((p * q).terms, terms)
    assert_canonical(p.diff(0).terms, [((e[0] - 1, e[1]), c * e[0]) for e, c in a.items() if e[0]])
    assert_canonical((p * q).exact_div(q).terms, list(a.items()))


@settings(max_examples=60, deadline=None)
@given(POLY2, BIVECTOR4, VECTOR4, VECTOR4, st.sampled_from([Fraction(0), Fraction(-1), Fraction(3, 2)]),
       st.lists(UNIT, min_size=4, max_size=4))
def test_unchecked_results_equal_their_validated_copies(a, pi, x, y, c, xi):
    """Results built without the validating constructors are what those
    constructors would build from them, and store no zero."""
    p = Poly(2, a)
    for r in (p.scale(c), p.scale(0), -p, p.diff(0), p.diff(1), p.extend(4, 1), p.extend(3)):
        assert Poly(r.nvars, r.terms) == r
        assert_no_zero(r.terms)
    m = Multivector(4, 2, pi)
    vx, vy = Multivector(4, 1, x), Multivector(4, 1, y)
    xy = wedge(vx, vy)
    self_cancelling = (wedge(vx, vx), wedge(xy, xy), wedge(xy, vy), m - m)
    assert all(r.is_zero() for r in self_cancelling)
    for r in (m.scale(c), -m, m - m.scale(c), contract(xi, m), xy) + self_cancelling:
        assert Multivector(r.dim, r.grade, r.coords) == r
        assert_no_zero(r.coords)


def test_sort_with_sign_repeats_its_answers():
    for k in range(5):
        for idx in itertools.product(range(4), repeat=k):
            first = ex.sort_with_sign(idx)
            assert first == sorted_sign(idx)
            assert ex.sort_with_sign(tuple(list(idx))) == first
    assert ex.sort_with_sign((2, 0, 2)) == ((0, 2, 2), 0)
    assert ex.sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 4), SMALL, min_size=1, max_size=4), min_size=1, max_size=4),
       st.lists(SMALL, min_size=4, max_size=4))
def test_sparse_echelon_keeps_canonical_form(vectors, coeffs):
    echelon = ex.SparseEchelon()
    for vec in vectors:
        echelon.insert(vec)
    dependent = dense_sum((k, c * v) for c, vec in zip(coeffs, vectors) for k, v in vec.items())
    assert not echelon.insert(dependent)
    assert echelon_contains(echelon, dependent)
    rows = echelon_basis(echelon)
    for row in rows:
        assert_no_zero(row)
    dense = [[vec.get(k, Fraction(0)) for k in range(5)] for vec in vectors]
    assert echelon.rank == rank(dense)
    assert same_subspace([[row.get(k, Fraction(0)) for k in range(5)] for row in rows], dense)


def basis_of(vectors):
    echelon = ex.SparseEchelon()
    for vec in vectors:
        echelon.insert(vec)
    return echelon_basis(echelon)


def test_sparse_echelon_basis_is_reduced_for_later_pivot():
    # {1: 1} enters first, so the row of pivot 0 kept an entry at label 1
    a, b = {1: Fraction(-2)}, {0: Fraction(-2), 1: Fraction(-2)}
    expected = [{0: Fraction(1)}, {1: Fraction(1)}]
    assert basis_of([a, b]) == expected
    assert basis_of([b, a]) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 4), SMALL, min_size=1, max_size=4), min_size=1, max_size=5)
       .flatmap(lambda vs: st.tuples(st.just(vs), st.permutations(vs))))
def test_sparse_echelon_basis_is_independent_of_insertion_order(pair):
    vectors, shuffled = pair
    rows = basis_of(vectors)
    assert basis_of(shuffled) == rows
    pivots = [min(row) for row in rows]
    for row, piv in zip(rows, pivots):
        assert row[piv] == 1
        assert all(k not in row for k in pivots if k != piv)


# -- JSON ------------------------------------------------------------------------

def test_tensor_json_round_trip():
    t = Tensor(3, 2, {(0, 1): Fraction(-3, 7), (2, 2): Fraction(5)})
    assert ex.tensor_from_json(ex.tensor_to_json(t)) == t


def test_multivector_json_round_trip():
    m = Multivector(4, 2, {(0, 1): Fraction(1, 3), (1, 3): Fraction(-2)})
    assert multivector_from_json(ex.multivector_to_json(m)) == m


def test_duplicate_idx_is_format_error():
    bad = {"dim": 2, "order": 1, "entries": [{"idx": [0], "val": "1/1"}, {"idx": [0], "val": "2/1"}]}
    with pytest.raises(ex.FormatError):
        ex.tensor_from_json(bad)


def test_strictly_increasing_required_for_multivector_json():
    bad = {"dim": 3, "order": 2, "entries": [{"idx": [1, 0], "val": "1/1"}]}
    with pytest.raises(ex.FormatError):
        multivector_from_json(bad)
