"""Homogenization, the polar table and the antisymmetric form, exchange
identities, gdot."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from projdyn import polyintegrals as pin
from projdyn import screens as sc
from projdyn.exactlin import Tensor, accumulate
from projdyn.polynomials import NotPolynomialError, Poly, SqrtElem
from projdyn.polyintegrals import (
    BiHomogeneousPoly,
    ForceHomogeneityError,
    dim_Pbb,
    exchange_value,
    gdot,
    homogenize_polynomial,
    impulsion_poly_basis,
    is_impulsion_invariant,
    plucker,
    qvar,
    swap_blocks,
    vvar,
)
from projdyn.young import ClearedTable


def random_pbb_element(rng, dim, b, span=3):
    R = Poly.zero(2 * dim)
    for p in impulsion_poly_basis(dim, b):
        R = R + p.scale(Fraction(rng.randint(-span, span)))
    return R


def polar_form(R, dim, b):
    """The polar table of R as a Fraction tensor."""
    return pin._polar_table(R, dim, b)[0].tensor()


def poly_from_polar(T, b):
    """The diagonal R_S(q..q; v..v) of a polar tensor."""
    return pin._diagonal_poly(ClearedTable.of(T), b, [range(b), range(b, 2 * b)])


def shear_free(T, b):
    """The first-block symmetrization test of a tensor."""
    return pin._shear_free(ClearedTable.of(T), b)


def euclid_kinetic(dim, chart_vars):
    out = Poly.zero(2 * dim)
    for i in chart_vars:
        out = out + vvar(i, dim) * vvar(i, dim)
    return out.scale(Fraction(1, 2))


# -- dimension formula ---------------------------------------------------------

def test_dim_formula_values():
    assert dim_Pbb(2, 2) == 6
    assert dim_Pbb(3, 2) == 20
    for n in range(1, 6):
        assert dim_Pbb(n, 1) == n * (n + 1) // 2  # bivector count


def test_impulsion_basis_spans_formula_dimension():
    for dim, b in [(2, 1), (3, 1), (3, 2), (4, 2), (3, 3), (4, 1)]:
        assert len(impulsion_poly_basis(dim, b)) == dim_Pbb(dim - 1, b)


# -- homogenization -------------------------------------------------------------

def test_homogenize_linear_form_dim2():
    # h = q1, G_H = v0  ->  q1 v0 - q0 v1
    screen = sc.flat_screen(2)
    out = homogenize_polynomial(Poly.variable(2, 4), screen)
    assert out == plucker(2, 1, 0).scale(-1) or out == plucker(2, 0, 1).scale(-1) or out == qvar(1, 2) * vvar(0, 2) - qvar(0, 2) * vvar(1, 2)
    assert out == qvar(1, 2) * vvar(0, 2) - qvar(0, 2) * vvar(1, 2)


def test_homogenize_constant():
    screen = sc.flat_screen(3)
    out = homogenize_polynomial(Poly.const(6, Fraction(5, 3)), screen)
    assert out == Poly.const(6, Fraction(5, 3))


def test_homogenize_flat_kinetic_dim3():
    screen = sc.flat_screen(3)
    G_H = euclid_kinetic(3, [0, 1])
    out = homogenize_polynomial(G_H, screen)
    n0 = qvar(2, 3) * vvar(0, 3) - vvar(2, 3) * qvar(0, 3)
    n1 = qvar(2, 3) * vvar(1, 3) - vvar(2, 3) * qvar(1, 3)
    assert out == (n0 * n0 + n1 * n1).scale(Fraction(1, 2))
    assert is_impulsion_invariant(out, 3)


def test_homogenize_sphere_kinetic_is_impulsion_square():
    screen = sc.sphere_screen(3)
    G_H = euclid_kinetic(3, [0, 1, 2])
    out = homogenize_polynomial(G_H, screen)
    q2 = sum((qvar(i, 3) ** 2 for i in range(3)), Poly.zero(6))
    v2 = sum((vvar(i, 3) ** 2 for i in range(3)), Poly.zero(6))
    qv = sum((qvar(i, 3) * vvar(i, 3) for i in range(3)), Poly.zero(6))
    assert out == (q2 * v2 - qv * qv).scale(Fraction(1, 2))


def test_homogenize_rejects_non_integral():
    screen = sc.flat_screen(3)
    bad = qvar(0, 3) * vvar(0, 3) * vvar(1, 3)
    with pytest.raises(NotPolynomialError):
        homogenize_polynomial(bad, screen)


def _point_on_linear(rng, phi):
    """A rational q with phi.q = 1 and v with phi.v = 0."""
    k = max(i for i, c in enumerate(phi) if c)
    q = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in phi]
    v = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in phi]
    q[k] = v[k] = 0
    q[k] = (1 - sum(c * x for c, x in zip(phi, q))) / phi[k]
    v[k] = -sum(c * x for c, x in zip(phi, v)) / phi[k]
    return q, v


def _point_on_quadric(rng, g):
    """A rational q with q^T G q = 1 and last coordinate > 0, and v with
    q^T G v = 0, for a G with G[-1][-1] = 1: the second point of the quadric
    on a rational line through e_last, and a vector less its G-projection."""
    dim = len(g)

    def form(x, y):
        return sum(g[i][j] * x[i] * y[j] for i in range(dim) for j in range(dim))

    while True:
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim)]
        if form(u, u):
            break
    e = [Fraction(0)] * (dim - 1) + [Fraction(1)]
    s = -2 * form(e, u) / form(u, u)
    q = [a + s * b for a, b in zip(e, u)]
    if q[-1] < 0:
        q = [-x for x in q]
    w = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(dim)]
    return q, [b - form(q, w) * a for a, b in zip(q, w)]


_ANGULAR = qvar(0, 3) * vvar(1, 3) - qvar(1, 3) * vvar(0, 3)
_NON_DIAGONAL_G = [[2, Fraction(1, 3), 0], [Fraction(1, 3), 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("screen", [
    sc.flat_screen(3),
    sc.flat_screen(3, 0),
    sc.LinearFormScreen([Fraction(2), Fraction(-1, 2), Fraction(3)]),
    sc.sphere_screen(3),
    sc.hyperboloid_screen(3),
    sc.QuadraticRootScreen(_NON_DIAGONAL_G),
], ids=["flat", "flat-axis-0", "linear-phi", "sphere", "hyperboloid", "non-diagonal-quadric"])
def test_homogenization_restricts_to_the_screen_integral(screen):
    # homogenization followed by restriction to the screen is the identity:
    # at q on the screen (h(q) = 1) and v tangent to it (dh(v) = 0),
    # q / h = q and <dh,q> v - <dh,v> q = h v = v; and R is invariant under
    # the shear v -> v + gamma q and the scaling (q, v) -> (lam q, v / lam)
    rng = random.Random(2)
    if screen.kind == "linear":
        # the kinetic term, a momentum and a momentum times the angular momentum
        G_H = euclid_kinetic(3, [0, 1]) + vvar(0, 3) + _ANGULAR * vvar(1, 3)
    else:
        # the kinetic term of the screen's form, and products of angular momenta
        g = screen.gmat_exact
        G_H = sum((vvar(i, 3) * vvar(j, 3)).scale(g[i][j] / 2) for i in range(3) for j in range(3))
        G_H = G_H + _ANGULAR * _ANGULAR + plucker(3, 0, 2).scale(Fraction(-3, 4)) * _ANGULAR
    R = homogenize_polynomial(G_H, screen)
    for _ in range(10):
        if screen.kind == "linear":
            q, v = _point_on_linear(rng, screen.phi_exact)
        else:
            q, v = _point_on_quadric(rng, screen.gmat_exact)
        assert R.evaluate(q + v) == G_H.evaluate(q + v)
        gamma, lam = Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(rng.randint(1, 9), rng.randint(1, 5))
        moved = [lam * x for x in q] + [(y + gamma * x) / lam for x, y in zip(q, v)]
        assert R.evaluate(moved) == G_H.evaluate(q + v)


def test_homogenized_sphere_kinetic_is_impulsion_invariant():
    # G(q, v + c q) = G(q, v) and equal q- and v-degrees in every monomial,
    # decided exactly on the homogenized polynomial
    R = homogenize_polynomial(euclid_kinetic(3, [0, 1, 2]), sc.sphere_screen(3))
    assert not R.is_zero()
    assert is_impulsion_invariant(R, 3)


# -- polar forms -------------------------------------------------------------------

def test_polar_form_b1():
    R = qvar(1, 2) * vvar(0, 2) - qvar(0, 2) * vvar(1, 2)
    T = polar_form(R, 2, 1)
    assert T == Tensor(2, 2, {(1, 0): 1, (0, 1): -1})


def test_polar_form_violating_shear_detected():
    R = qvar(0, 2) * vvar(0, 2)
    T = polar_form(R, 2, 1)
    assert T == Tensor(2, 2, {(0, 0): 1})
    assert not shear_free(T, 1)
    with pytest.raises(ValueError):
        BiHomogeneousPoly.from_poly(R, 2)


def test_from_poly_rejects_a_shear_variant_term():
    q0v1 = qvar(0, 2) * vvar(1, 2)
    with pytest.raises(ValueError):
        BiHomogeneousPoly.from_poly(q0v1, 2)
    with pytest.raises(ValueError):
        BiHomogeneousPoly.from_poly(q0v1 * plucker(2, 0, 1), 2)


def test_from_poly_accepts_exactly_the_impulsion_invariant_polynomials():
    # the polar form's first-block test is the only shear decision of
    # from_poly; it agrees with the substitution test on P^{b,b} elements
    # and on the same elements bent by one bidegree-(b, b) monomial
    rng = random.Random(7)
    for dim, b in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        for _ in range(6):
            R = random_pbb_element(rng, dim, b)
            exps = [0] * (2 * dim)
            for k in range(b):
                exps[rng.randrange(dim)] += 1
                exps[dim + rng.randrange(dim)] += 1
            for cand in (R, R + Poly(2 * dim, {tuple(exps): Fraction(rng.choice([-2, 1, 3]))})):
                if cand.is_zero():
                    continue
                invariant = is_impulsion_invariant(cand, dim)
                try:
                    BiHomogeneousPoly.from_poly(cand, dim, b)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == invariant


def test_polar_round_trip_random():
    rng = random.Random(4)
    for dim, b in [(3, 2), (4, 2), (3, 3)]:
        R = random_pbb_element(rng, dim, b)
        T = polar_form(R, dim, b)
        assert poly_from_polar(T, b) == R
        assert oracles.block_symmetric(T, b)
        assert shear_free(T, b)


def test_polar_form_squared_impulsion_passes_constraint():
    R = plucker(2, 1, 0) ** 2
    T = polar_form(R, 2, 2)
    assert shear_free(T, 2)


def symmetrization_by_permutation_sum(T, b):
    """Sum of all (b+1)! permutations of the first b+1 slots, one Tensor
    per permutation: the reference for the one-pass class sums."""
    total = Tensor(T.dim, T.order, {})
    for perm in itertools.permutations(range(b + 1)):
        total = total + oracles.permute(T, tuple(perm) + tuple(range(b + 1, 2 * b)))
    return total.is_zero()


@functools.lru_cache(maxsize=None)
def basis_polars(dim, b):
    return [polar_form(p, dim, b) for p in impulsion_poly_basis(dim, b)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_first_block_symmetrization_matches_permutation_sum(data):
    dim, b = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]))
    coeff = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 5, 10**6 + 3]))
    T = Tensor(dim, 2 * b, {})
    for polar in basis_polars(dim, b):
        T = T + polar.scale(data.draw(coeff))
    assert shear_free(T, b)
    idx_strategy = st.tuples(*[st.integers(0, dim - 1)] * (2 * b))
    bent = T + Tensor(dim, 2 * b, data.draw(st.dictionaries(idx_strategy, coeff, min_size=1, max_size=3)))
    assert shear_free(bent, b) == symmetrization_by_permutation_sum(bent, b)
    assert symmetrization_by_permutation_sum(T, b)


def test_first_block_symmetrization_single_entry_never_vanishes():
    for b in (1, 2, 3):
        for idx in itertools.product(range(2), repeat=2 * b):
            T = Tensor(2, 2 * b, {idx: Fraction(3, 7)})
            assert not shear_free(T, b)
            assert not symmetrization_by_permutation_sum(T, b)


# -- the antisymmetric carrier --------------------------------------------------------

def test_to_antisymmetric_b1_is_polar():
    R = qvar(1, 2) * vvar(0, 2) - qvar(0, 2) * vvar(1, 2)
    bh = BiHomogeneousPoly.from_poly(R, 2)
    af = bh.antisymmetric()
    assert af.tensor == polar_form(R, 2, 1)


def test_to_antisymmetric_squared_impulsion():
    p = plucker(2, 1, 0)
    bh = BiHomogeneousPoly.from_poly(p * p, 2)
    af = bh.antisymmetric()

    def pv(a, c):
        return Fraction((1 if (a, c) == (1, 0) else 0) - (1 if (a, c) == (0, 1) else 0))

    for u, v, w, x in itertools.product(range(2), repeat=4):
        assert af.value((u, v, w, x)) == pv(u, v) * pv(w, x)
    assert af.diagonal_poly() == p * p


def test_to_antisymmetric_metric_formula():
    # R(q,v) = g(q) g(v) - g(q,v)^2  ->  R_A(u,v;w,x) = b(u,w)b(v,x) - b(u,x)b(v,w)
    rng = random.Random(5)
    d = 3
    b = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            b[i][j] = b[j][i] = Fraction(rng.randint(-2, 2))
    b[0][0] += 3
    gqq = sum((qvar(i, d) * qvar(j, d) * b[i][j] for i in range(d) for j in range(d)), Poly.zero(2 * d))
    gvv = sum((vvar(i, d) * vvar(j, d) * b[i][j] for i in range(d) for j in range(d)), Poly.zero(2 * d))
    gqv = sum((qvar(i, d) * vvar(j, d) * b[i][j] for i in range(d) for j in range(d)), Poly.zero(2 * d))
    R = gqq * gvv - gqv * gqv
    af = BiHomogeneousPoly.from_poly(R, d).antisymmetric()
    for u, v, w, x in itertools.product(range(d), repeat=4):
        assert af.value((u, v, w, x)) == b[u][w] * b[v][x] - b[u][x] * b[v][w]


def test_antisymmetric_diagonal_round_trip_random():
    rng = random.Random(6)
    for dim, b in [(3, 2), (4, 2), (3, 3)]:
        R = random_pbb_element(rng, dim, b)
        if R.is_zero():
            continue
        af = BiHomogeneousPoly.from_poly(R, dim, b).antisymmetric()
        assert af.diagonal_poly() == R


def test_bivector_form_descends():
    # R_B(q ^ v) = R(q, v): evaluate the b-linear form on the impulsion bivector
    from projdyn.exactlin import vector, wedge

    rng = random.Random(7)
    dim, b = 3, 2
    R = random_pbb_element(rng, dim, b)
    af = BiHomogeneousPoly.from_poly(R, dim, b).antisymmetric()
    for _ in range(10):
        q = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
        pi_bv = wedge(vector(dim, q), vector(dim, v))
        assert oracles.evaluate_on_bivectors(af, [pi_bv] * b) == R.evaluate(q + v)


def test_antisymmetric_form_kernel():
    # kinetic form on the flat screen: trivial kernel in dim 3
    screen = sc.flat_screen(3)
    R = homogenize_polynomial(euclid_kinetic(3, [0, 1]), screen)
    af = BiHomogeneousPoly.from_poly(R, 3).antisymmetric()
    assert af.kernel() == []


# -- the table chain against the Fraction loops ---------------------------------------

@functools.lru_cache(maxsize=None)
def cached_basis(dim, b):
    return impulsion_poly_basis(dim, b)


@st.composite
def pbb_elements(draw):
    """(dim, b, R): an integer combination of the impulsion basis times a
    rational, or the zero polynomial."""
    dim, b = draw(st.sampled_from([(d, b) for d in (2, 3, 4) for b in (1, 2, 3)]))
    R = Poly.zero(2 * dim)
    if draw(st.booleans()) or dim == 2:
        for p in cached_basis(dim, b):
            R = R + p.scale(draw(st.integers(-3, 3)))
    else:
        # a few basis elements only: sparse elements in the larger spaces
        for p in draw(st.lists(st.sampled_from(cached_basis(dim, b)), min_size=1, max_size=4)):
            R = R + p.scale(draw(st.integers(-3, 3)))
    scale = Fraction(draw(st.integers(-7, 7).filter(bool)), draw(st.sampled_from([1, 3, 10**6 + 3])))
    return dim, b, R.scale(scale)


@settings(max_examples=40, deadline=None)
@given(case=pbb_elements())
def test_table_chain_matches_the_fraction_loops(case):
    dim, b, R = case
    polar = oracles.polar_form(R, dim, b)
    assert list(polar_form(R, dim, b).entries.items()) == list(polar.entries.items())
    oracles.assert_same_dict(poly_from_polar(polar, b).terms, oracles.poly_from_polar(polar, b).terms, increasing=False)
    element = BiHomogeneousPoly.from_poly(R, dim, b)
    assert element.poly is R
    assert list(element._table.tensor().entries.items()) == list(polar.entries.items())
    form = element.antisymmetric()
    expected = oracles.to_antisymmetric(polar, b)
    oracles.assert_same_dict(form.tensor.entries, expected.entries)
    assert all(type(v) is Fraction for v in form.tensor.entries.values())
    oracles.assert_same_dict(form.diagonal_poly().terms, oracles.pair_diagonal(expected, b).terms, increasing=False)
    assert form.diagonal_poly() == R


@st.composite
def bihomogeneous_polys(draw):
    """(dim, b, R): a few bidegree-(b, b) monomials with rational coefficients,
    shear invariant or not, sometimes added to an element of P^{b,b}."""
    dim, b = draw(st.sampled_from([(d, b) for d in (2, 3, 4) for b in (1, 2, 3)]))
    half = st.lists(st.integers(0, dim - 1), min_size=b, max_size=b)
    terms = {}
    for q_ms, v_ms in draw(st.lists(st.tuples(half, half), min_size=1, max_size=5)):
        exps = [0] * (2 * dim)
        for i in q_ms:
            exps[i] += 1
        for i in v_ms:
            exps[dim + i] += 1
        terms[tuple(exps)] = Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from([1, 3, 10**6 + 3])))
    R = Poly(2 * dim, terms)
    if draw(st.booleans()):
        for p in draw(st.lists(st.sampled_from(cached_basis(dim, b)), max_size=3)):
            R = R + p.scale(draw(st.integers(-3, 3)))
    return dim, b, R


@settings(max_examples=60, deadline=None)
@given(case=bihomogeneous_polys())
def test_polar_table_is_block_symmetric_by_construction(case):
    # from_poly decides no block symmetry: _polar_table writes every
    # rearrangement of a monomial's q- and of its v-indices with one value,
    # so the table equals its transposes inside each block
    dim, b, R = case
    T = polar_form(R, dim, b)
    assert oracles.block_symmetric(T, b)
    assert T == oracles.polar_form(R, dim, b)


def test_antisymmetric_decides_the_class_once_on_the_candidate_table(monkeypatch):
    # the carrier's class is decided on the integer table the chain already
    # holds: no entry is cleared again, and the class is decided exactly once
    from projdyn import young

    calls = {"of": 0, "table_in_imAS": 0}
    of, decide = young.ClearedTable.of, pin.table_in_imAS

    def counted_of(t):
        calls["of"] += 1
        return of(t)

    def counted_decide(*args):
        calls["table_in_imAS"] += 1
        return decide(*args)

    monkeypatch.setattr(young.ClearedTable, "of", counted_of)
    monkeypatch.setattr(pin, "table_in_imAS", counted_decide)
    for dim, b in ((3, 1), (3, 2), (4, 3)):
        R = Poly.zero(2 * dim)
        for c, p in enumerate(cached_basis(dim, b), start=1):
            R = R + p.scale(Fraction(c, 3))
        for element in (BiHomogeneousPoly.from_poly(R, dim, b), BiHomogeneousPoly.from_poly(Poly.zero(2 * dim), dim, b)):
            calls.update(of=0, table_in_imAS=0)
            form = element.antisymmetric()
            assert calls == {"of": 0, "table_in_imAS": 0 if element.poly.is_zero() else 1}
            assert form.diagonal_poly() == element.poly
            assert young.check_imAS(pin.pair_tableau(b), form.tensor)


def test_table_chain_rejects_what_the_fraction_chain_rejects():
    # a non-bihomogeneous polynomial: the polar table refuses it
    bent = qvar(0, 3) * qvar(1, 3) * vvar(0, 3)
    for build in (lambda: pin._polar_table(bent, 3, 1), lambda: oracles.polar_form(bent, 3, 1),
                  lambda: BiHomogeneousPoly.from_poly(bent, 3, 1)):
        with pytest.raises(ValueError, match=r"^polynomial is not bi-homogeneous of degree \(1,1\)$"):
            build()
    # block-symmetric polar forms that violate the shear constraint
    for R, b in ((qvar(0, 2) * vvar(0, 2), 1), (plucker(3, 0, 1) * qvar(2, 3) * vvar(2, 3), 2)):
        sheared = oracles.polar_form(R, R.nvars // 2, b)
        assert oracles.block_symmetric(sheared, b) and not shear_free(sheared, b)
        with pytest.raises(ValueError, match=r"^polar tensor violates the shear constraint$"):
            BiHomogeneousPoly.from_poly(R, R.nvars // 2, b)


def test_chain_clears_denominators_once_for_the_polar_table(monkeypatch):
    # one from_poly(...).antisymmetric() clears a value list twice: R's
    # coefficients for the polar table, and the form's entries for the
    # carrier's class check
    from projdyn import young

    cleared = []
    for module in (pin, young):
        inner = module.clear_denominators
        monkeypatch.setattr(module, "clear_denominators",
                            lambda values, inner=inner: cleared.append(1) or inner(values))
    R = Poly.zero(8)
    for c, p in enumerate(cached_basis(4, 3), start=1):
        R = R + p.scale(Fraction(c, 7))
    form = BiHomogeneousPoly.from_poly(R, 4, 3).antisymmetric()
    assert len(cleared) <= 2
    assert form.diagonal_poly() == R


# -- exchange identities ----------------------------------------------------------------

def test_exchange_identities_random():
    rng = random.Random(8)
    for dim in (3, 4):
        for b in (1, 2, 3):
            for _ in range(4):
                R = random_pbb_element(rng, dim, b, span=4)
                assert swap_blocks(R, dim) == R.scale((-1) ** b)
                assert oracles.substitute_v_minus_q(R, dim) == R
                q = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
                v = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
                val_qv, val_vq = exchange_value(R, dim, q, v)
                assert val_vq == (-1) ** b * val_qv


def assert_same_swap(R, dim):
    fast, reference = swap_blocks(R, dim), oracles.swap_blocks(R, dim)
    assert fast.nvars == reference.nvars
    assert list(fast.terms.items()) == list(reference.terms.items())


def test_swap_blocks_matches_the_substitution_on_pbb_elements():
    rng = random.Random(18)
    for dim in (3, 4):
        for b in (1, 2, 3):
            for _ in range(3):
                R = Poly.zero(2 * dim)
                for p in cached_basis(dim, b):
                    R = R + p.scale(rng.randint(-4, 4))
                assert_same_swap(R.scale(Fraction(rng.randint(1, 9), rng.randint(1, 9))), dim)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_swap_blocks_matches_the_substitution_on_any_polynomial(data):
    dim = data.draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * (2 * dim))
    coefs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    R = Poly(2 * dim, data.draw(st.dictionaries(exps, coefs, max_size=8)))
    assert_same_swap(R, dim)
    for wrong in (dim - 1, dim + 1):
        for swap in (swap_blocks, oracles.swap_blocks):
            with pytest.raises(ValueError):
                swap(R, wrong)


def test_shear_invariances_symbolic():
    # R(q, v + c q) = R(q + c v, v) = R(q, v) for free-motion integrals
    rng = random.Random(9)
    dim = 3
    R = random_pbb_element(rng, dim, 2)
    nv = 2 * dim + 1
    gamma = Poly.variable(2 * dim, nv)
    im_shear_q = [Poly.variable(i, nv) + gamma * Poly.variable(dim + i, nv) for i in range(dim)]
    im_shear_q += [Poly.variable(dim + i, nv) for i in range(dim)]
    assert R.substitute(im_shear_q) == R.extend(nv)
    assert pin.shear_defect(R, dim).is_zero()


# -- gdot ------------------------------------------------------------------------------------

def test_gdot_free_motion_impulsion():
    L = plucker(3, 1, 0)
    assert gdot(L).is_zero()


def test_gdot_rejects_invariance_violation():
    with pytest.raises(ValueError):
        gdot(qvar(0, 2) * vvar(0, 2))


def test_gdot_rejects_an_odd_variable_count():
    with pytest.raises(ValueError, match="even number of variables"):
        gdot(Poly.variable(0, 3))


def test_gdot_kepler_angular_momentum():
    force = sc.kepler_force(1.0, [0.0, 0.0, 1.0])
    L = plucker(3, 0, 1)
    assert gdot(L, force).is_zero()


def test_gdot_kepler_noncenter_angular_momentum_not_conserved():
    force = sc.kepler_force(1.0, [0.5, 0.0, 1.0])
    L = plucker(3, 0, 1)
    assert not gdot(L, force).is_zero()


def test_gdot_inverse_cube_conserves_all_impulsion_components():
    force = sc.inverse_cube_force(3, mu=2.0)
    for i, j in itertools.combinations(range(3), 2):
        assert gdot(plucker(3, i, j), force).is_zero()


def test_gdot_rejects_inhomogeneous_force():
    d = 3
    nv = 2 * d
    bad = [SqrtElem(Poly.variable(i, nv), Poly.zero(nv), Poly.const(nv, 1), Poly.const(nv, 1)) for i in range(d)]
    with pytest.raises(ForceHomogeneityError):
        gdot(plucker(3, 0, 1), bad)


def test_gdot_radial_invariance():
    # adding gamma(q) q to the force leaves gdot unchanged
    rng = random.Random(10)
    d = 3
    nv = 2 * d
    norm2 = sum((Poly.variable(i, nv) ** 2 for i in range(d)), Poly.zero(nv))
    base_force = sc.inverse_cube_force(3, mu=1.0)
    radial = [
        SqrtElem(Poly.variable(i, nv).scale(Fraction(3, 2)), Poly.zero(nv), norm2 * norm2, Poly.const(nv, 1))
        for i in range(d)
    ]
    shifted = [
        SqrtElem(a.P * b.D + b.P * a.D, Poly.zero(nv), a.D * b.D, a.base)
        for a, b in zip(base_force.exact, radial)
    ]
    for _ in range(3):
        G = random_pbb_element(rng, d, 2)
        lhs = gdot(G, base_force)
        rhs = gdot(G, shifted)
        assert (lhs - rhs).is_zero() if not isinstance(lhs, Poly) else (lhs - rhs).is_zero()


def test_gdot_bihomogeneous_parts():
    # for G of bidegree (b,b) and a degree -3 force, gdot splits into parts of
    # bidegrees (b-1, b+1) and (b-3, b-1) only
    rng = random.Random(11)
    d = 3
    G = random_pbb_element(rng, d, 2)
    force = sc.inverse_cube_force(d, mu=1.0)
    out = gdot(G, force)
    if isinstance(out, Poly):
        num = out
        den_deg = 0
    else:
        assert out.Q.is_zero()
        num = out.P
        den_deg = out.D.degree_in(range(d))
    qs, vs = list(range(d)), list(range(d, 2 * d))
    for exps in num.terms:
        qdeg = sum(exps[i] for i in qs) - den_deg
        vdeg = sum(exps[i] for i in vs)
        assert (qdeg, vdeg) in ((1, 3), (-1, 1))  # b = 2


def test_gdot_zero_force_aliases():
    L = plucker(3, 0, 1)
    assert gdot(L, None).is_zero()
    assert gdot(L, sc.zero_force(3)).is_zero()


# -- the polynomial layer against the plain Fraction loops -------------------------------

def mul_loop(a, b):
    """The Fraction double loop over two term dicts, in the order Poly products keep."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            accumulate(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
    return out


def pow_loop(a, k, nvars):
    out, base = {(0,) * nvars: Fraction(1)}, a
    while k:
        if k & 1:
            out = mul_loop(out, base)
        base = mul_loop(base, base)
        k >>= 1
    return out


def substitute_loop(p, images):
    """Term by term: coefficient times cached image powers, summed as Poly additions."""
    nvars = images[0].nvars
    out, cache = {}, {}
    for exps, coef in p.terms.items():
        term = {(0,) * nvars: coef}
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in cache:
                    cache[(i, e)] = pow_loop(images[i].terms, e, nvars)
                term = mul_loop(term, cache[(i, e)])
        for key, val in term.items():
            accumulate(out, key, val)
    return out


MIXED = st.sampled_from([Fraction(v) for v in (1, -1, 2, -3)]
                        + [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(-7, 4)])
POLY3 = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), MIXED, max_size=6)
SMALL_POLY3 = st.dictionaries(st.tuples(*[st.integers(0, 1)] * 3), MIXED, max_size=4)


@settings(max_examples=80, deadline=None)
@given(POLY3, POLY3, POLY3)
def test_poly_products_match_the_fraction_loop(a, b, c):
    p, q, r = Poly(3, a), Poly(3, b), Poly(3, c)
    pairs = [(p, q), (q, p), (p, p), (p * q, r), (p + q, p - q), (p - r, (p + r) * q),
             (p, Poly.zero(3)), (Poly.zero(3), q), (p, Poly.const(3, Fraction(-2, 3))), (Poly.const(3, 5), q)]
    for x, y in pairs:
        got = x * y
        assert list(got.terms.items()) == list(mul_loop(x.terms, y.terms).items())
        assert all(type(v) is Fraction for v in got.terms.values())
    assert (p * q - q * p).is_zero()


@settings(max_examples=60, deadline=None)
@given(POLY3, st.lists(SMALL_POLY3, min_size=3, max_size=3))
def test_poly_substitute_matches_the_fraction_loop(a, images):
    p, images = Poly(3, a), [Poly(3, t) for t in images]
    assert list(p.substitute(images).terms.items()) == list(substitute_loop(p, images).items())


@settings(max_examples=60, deadline=None)
@given(POLY3, POLY3, POLY3, POLY3, POLY3.filter(bool))
def test_sqrt_sum_with_equal_denominators_keeps_it(p1, q1, p2, q2, d):
    base = Poly(3, {(1, 0, 0): Fraction(1), (0, 0, 2): Fraction(3)})
    D = Poly(3, d)
    a = SqrtElem(Poly(3, p1), Poly(3, q1), D, base)
    b = SqrtElem(Poly(3, p2), Poly(3, q2), Poly(3, dict(d)), base)
    total = a + b
    assert total.D == D
    # the cross-multiplied sum (P1 D + P2 D + (Q1 D + Q2 D) s) / D^2 is the same element
    cross_P, cross_Q, cross_D = a.P * D + b.P * D, a.Q * D + b.Q * D, D * D
    assert total.P * cross_D == cross_P * total.D
    assert total.Q * cross_D == cross_Q * total.D


def test_homogenization_of_a_high_degree_non_integral_raises():
    # summing with cross-multiplied denominators once gave degree 4 * 32 here
    dim = 3
    T = qvar(0, dim) ** 30 * vvar(0, dim) ** 2 + (qvar(1, dim) ** 30 * vvar(1, dim) ** 2).scale(Fraction(1, 3))
    with pytest.raises(NotPolynomialError, match="division left a remainder"):
        homogenize_polynomial(T, sc.sphere_screen(dim))
