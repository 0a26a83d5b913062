"""Workload ``exact-chain``: library calls along the paper's exact chain.

Young symmetrizers, impulsion polynomials, curvature forms and bivector
maps, the screen finder, and the rational linear algebra under all of them.
A few large inputs per round keep the exact layers in their inner loops;
``screens`` and ``cli`` stay idle.  Every round runs the same list of
request kinds; the seed draws the matrices, coefficients and numberings,
which leaves the work per round nearly constant.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from common import (
    Request,
    check,
    compound,
    conjugate,
    corank_one_symmetric,
    flat,
    group_algebra_sizes,
    hook_content_dim,
    hook_product,
    mat_mul,
    mat_vec,
    partitions,
    proportional,
    random_invertible,
    random_symmetric,
    rank_mod_p,
    shuffled,
)

from projdyn import compat, curvclass, exactlin, polyintegrals, screens, young
from projdyn.polynomials import Poly
from projdyn.polyintegrals import ScreenIntegral


def _var(i, nv):
    return Poly.variable(i, nv)


def _plucker(d, i, j):
    """p_ij = q_i v_j - q_j v_i, built here rather than by polyintegrals."""
    nv = 2 * d
    return _var(i, nv) * _var(d + j, nv) - _var(j, nv) * _var(d + i, nv)


def _evaluate(p, point):
    total = Fraction(0)
    for exps, coef in p.terms.items():
        term = coef
        for x, e in zip(point, exps):
            if e:
                term *= x ** e
        total += term
    return total


def _rand_rational(rng, num=9, den=5):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


# ---------------------------------------------------------------------------
# young

def _young_scalar(rows, numbering):
    tableau = young.YoungTableau(rows, numbering)
    expected = hook_product(rows)
    s, a = group_algebra_sizes(rows)
    n = s * a

    def run(tr):
        lam = tr.call("young.young_scalar", young.young_scalar, tableau)
        check(lam == expected, f"young_scalar{rows} = {lam}, hook product {expected}")

    # A*S, (AS)*(AS), S*A, (SA)*(SA): products of group-algebra terms
    return Request("young_scalar", run, {"young.compose_products": 2 * n + 2 * n * n})


def _imAS_basis(columns, dim):
    tableau = young.YoungTableau.from_columns(columns)
    rows = conjugate(columns)
    expected = hook_content_dim(rows, dim)
    s, a = group_algebra_sizes(rows)

    def run(tr):
        basis = tr.call("young.imAS_basis", young.imAS_basis, tableau, dim)
        check(len(basis) == expected, f"imAS_basis{columns} d={dim}: {len(basis)} != {expected}")

    return Request("imAS_basis", run, {"young.compose_products": s * a})


# ---------------------------------------------------------------------------
# polynomials and polyintegrals

def _poly_products(rng, d, nterms):
    nv = 2 * d

    def rand_poly():
        terms = {}
        for _ in range(nterms):
            exps = [0] * nv
            for _ in range(rng.randint(1, 3)):
                exps[rng.randrange(nv)] += 1
            terms[tuple(exps)] = _rand_rational(rng)
        return Poly(nv, terms)

    p, q = rand_poly(), rand_poly()
    images = [Poly(nv, {tuple(int(k == j) for k in range(nv)): _rand_rational(rng)
                        for j in rng.sample(range(nv), 2)}) for _ in range(nv)]
    point = [_rand_rational(rng) for _ in range(nv)]

    def run(tr):
        prod = tr.call("polynomials.Poly.__mul__", p.__mul__, q)
        sub = tr.call("polynomials.Poly.substitute", prod.substitute, images)
        tr.count("polynomials.terms_out", len(prod.terms) + len(sub.terms))
        check(_evaluate(prod, point) == _evaluate(p, point) * _evaluate(q, point), "Poly product")
        check(_evaluate(sub, point) == _evaluate(prod, [_evaluate(img, point) for img in images]),
              "Poly substitute")

    return Request("poly_products", run)


def _impulsion_chain(rng, d, b, kepler):
    expected = hook_content_dim((b, b), d)
    coeffs = [rng.randint(-3, 3) or 1 for _ in range(expected)]
    conserved = [(i, j) for i, j in itertools.combinations(range(d), 2) if j < d - 1]
    g_terms = [(rng.randint(1, 3), [rng.choice(conserved) for _ in range(b)]) for _ in range(3)]

    def run(tr):
        basis = tr.call("polyintegrals.impulsion_poly_basis", polyintegrals.impulsion_poly_basis, d, b)
        check(len(basis) == expected, f"P^(b,b) basis d={d} b={b}: {len(basis)} != {expected}")
        R = Poly.zero(2 * d)
        for c, p in zip(coeffs, basis):
            R = R + p.scale(c)
        swapped = tr.call("polyintegrals.swap_blocks", polyintegrals.swap_blocks, R, d)
        check(swapped == R.scale((-1) ** b), "exchange identity R(v, q) = (-1)^b R(q, v)")
        form = tr.call(
            "polyintegrals.antisymmetric",
            lambda: polyintegrals.BiHomogeneousPoly.from_poly(R, d, b).antisymmetric(),
        )
        check(form.diagonal_poly() == R, "antisymmetric form's diagonal differs from R")
        G = Poly.zero(2 * d)
        for c, pairs in g_terms:
            term = Poly.const(2 * d, c)
            for pr in pairs:
                term = term * _plucker(d, *pr)
            G = G + term
        check(tr.call("polyintegrals.gdot", polyintegrals.gdot, G, kepler).is_zero(),
              "rotation-invariant impulsion polynomial not conserved along Kepler")
        moving = tr.call("polyintegrals.gdot", polyintegrals.gdot, _plucker(d, 0, d - 1), kepler)
        check(not moving.is_zero(), "p_0,d-1 conserved along Kepler")

    return Request("impulsion_chain", run)


def _homogenize(rng, d):
    flat_screen = screens.flat_screen(d)
    a = random_symmetric(rng, d - 1, boost=1)
    nv = 2 * d
    T = Poly.zero(nv)
    expected = Poly.zero(nv)
    for i in range(d - 1):
        for j in range(d - 1):
            if a[i][j]:
                T = T + (_var(d + i, nv) * _var(d + j, nv)).scale(a[i][j])
                expected = expected + (_plucker(d, i, d - 1) * _plucker(d, j, d - 1)).scale(a[i][j])

    def run(tr):
        R = tr.call("polyintegrals.homogenize_polynomial", polyintegrals.homogenize_polynomial,
                    T, flat_screen)
        check(R == expected, "flat homogenization differs from sum a_ij p_i,d-1 p_j,d-1")

    return Request("homogenize", run)


# ---------------------------------------------------------------------------
# curvclass and compat

def _curvature_metric(rng, d):
    G = random_symmetric(rng, d, boost=2 * d)

    def run(tr):
        form = tr.call("curvclass.curvature_from_symmetric_map", curvclass.curvature_from_symmetric_map, G)
        rep = tr.call("curvclass.classify_curvature_form", curvclass.classify_curvature_form, form)
        check(rep.case == "metric", f"metric generator classified as {rep.case}")
        ident = [[int(i == j) for j in range(d)] for i in range(d)]
        check(proportional(flat(mat_mul(rep.witnesses["B"], G)), flat(ident)), "B G not proportional to I")
        scr = tr.call("compat.find_compatible_screen", compat.find_compatible_screen, form)
        check(scr.verdict == "quadric", f"screen finder verdict {scr.verdict}")
        check(proportional(flat(mat_mul(scr.witnesses["g"], G)), flat(ident)), "quadric g G not proportional to I")

    return Request("curvature_metric", run)


def _curvature_flat(rng, d):
    G = corank_one_symmetric(rng, d, signs=(1, -1))

    def run(tr):
        form = tr.call("curvclass.curvature_from_symmetric_map", curvclass.curvature_from_symmetric_map, G)
        rep = tr.call("curvclass.classify_curvature_form", curvclass.classify_curvature_form, form)
        check(rep.case == "flat", f"rank-deficient generator classified as {rep.case}")
        phi = rep.witnesses["phi"]
        check(any(phi) and not any(mat_vec(G, phi)), "phi does not span ker G")

    return Request("curvature_flat", run)


def _wedge_square(rng, d):
    B = random_invertible(rng, d)
    square = compound(B, 2)
    fourth = compound(B, 4)
    subsets4 = list(itertools.combinations(range(d), 4))

    def run(tr):
        R = tr.call("curvclass.BivectorMap.wedge_square", curvclass.BivectorMap.wedge_square, B)
        check(R.matrix == square, "wedge square differs from the second compound")
        check(tr.call("curvclass.preserves_decomposables", curvclass.preserves_decomposables, R),
              "wedge square does not preserve decomposables")
        rep = tr.call("curvclass.classify_bivector_map", curvclass.classify_bivector_map, R)
        check(rep.case == "wedge_square" and proportional(flat(rep.witnesses["B"]), flat(B)),
              f"classified as {rep.case} without a multiple of B")
        W = tr.call("curvclass.wedge_power_map", curvclass.wedge_power_map, R, 2)
        for c, S in enumerate(subsets4):
            img = W.images[S].coords
            check(all(img.get(T, 0) == fourth[r][c] for r, T in enumerate(subsets4)),
                  "wedge power map differs from the fourth compound")

    return Request("wedge_square", run)


def _vv(i, d):
    return _var(d + i, 2 * d)


def _qq(i, d):
    return _var(i, 2 * d)


def _kinetic(d, chart):
    out = Poly.zero(2 * d)
    for i in chart:
        out = out + _vv(i, d) * _vv(i, d)
    return out.scale(Fraction(1, 2))


def _eye(n, c=1):
    return [[Fraction(c) if i == j else 0 for j in range(n)] for i in range(n)]


HALF = Fraction(1, 2)
OFF_HALF = [[0, HALF], [HALF, 0]]


def _hamiltonian_cases():
    """Demo leading terms with their known verdicts and witnesses."""
    x0, x1 = _qq(0, 3), _qq(1, 3)
    w0, w1 = _vv(0, 3), _vv(1, 3)
    return [
        ("sphere kinetic d3", screens.sphere_screen(3), _kinetic(3, range(3)),
         {"verdict": "quadric", "g": _eye(3), "lambda": HALF}),
        ("sphere kinetic d4", screens.sphere_screen(4), _kinetic(4, range(4)),
         {"verdict": "quadric", "g": _eye(4), "lambda": HALF}),
        ("flat kinetic d3", screens.flat_screen(3), _kinetic(3, range(2)),
         {"verdict": "hyperplane", "phi": [0, 0, 1], "g": _eye(2, HALF)}),
        ("flat kinetic d4", screens.flat_screen(4), _kinetic(4, range(3)),
         {"verdict": "hyperplane", "phi": [0, 0, 0, 1], "g": _eye(3, HALF)}),
        ("oscillator", screens.flat_screen(3), w0 * w1,
         {"verdict": "hyperplane", "phi": [0, 0, 1], "g": OFF_HALF}),
        ("change of screen", screens.flat_screen(3), (x0 * w1 - x1 * w0) ** 2 + w0 ** 2 + w1 ** 2,
         {"verdict": "quadric", "g": _eye(3)}),
        ("not an integral", screens.flat_screen(3), x0 * w0 * w1,
         {"verdict": "incompatible", "reason": "leading_term_not_free_integral"}),
        ("cylindric", screens.flat_screen(4), _vv(0, 4) * _vv(1, 4),
         {"verdict": "cylindric", "kernel": [[0, 0, 1, 0]], "inner_g": OFF_HALF}),
    ]


def _hamiltonian(label, screen, T, expect):
    integral = ScreenIntegral(screen, T)

    def run(tr):
        rep = tr.call("compat.hamiltonian_test", compat.hamiltonian_test, integral)
        check(rep.verdict == expect["verdict"], f"hamiltonian_test({label}): {rep.verdict}")
        for key in ("g", "phi", "lambda", "reason"):
            if key in expect:
                check(rep.witnesses[key] == expect[key], f"hamiltonian_test({label}) witness {key}")
        if "kernel" in expect:
            check(rank_mod_p(rep.kernel_basis + expect["kernel"]) == len(expect["kernel"])
                  == len(rep.kernel_basis), f"hamiltonian_test({label}) kernel")
            check(rep.inner.witnesses["g"] == expect["inner_g"], f"hamiltonian_test({label}) inner g")

    return Request("hamiltonian_test", run)


# ---------------------------------------------------------------------------
# exactlin

def _rand_matrix(rng, rows, cols):
    return [[_rand_rational(rng) for _ in range(cols)] for _ in range(rows)]


def _rref(rng, n):
    M = _rand_matrix(rng, n, n)
    M[-1] = [a + b for a, b in zip(M[0], M[1])]  # one dependent row
    r = rank_mod_p(M)

    def run(tr):
        red, piv = tr.call("exactlin.rref", exactlin.rref, M)
        check(len(piv) == r, f"rref rank {len(piv)} != {r}")
        check(all(red[i][p] == (i == k) for k, p in enumerate(piv) for i in range(n)), "rref pivots")
        check(not any(flat(red[r:])), "rref rows below the rank are not zero")

    return Request("rref", run, {"exactlin.matrix_cells": n * n})


def _kernel(rng, n):
    k = 3
    A, B = _rand_matrix(rng, n, n - k), _rand_matrix(rng, n - k, n)
    M = mat_mul(A, B)
    nullity = n - rank_mod_p(M)

    def run(tr):
        basis = tr.call("exactlin.kernel", exactlin.kernel, M)
        check(len(basis) == nullity, f"kernel size {len(basis)} != {nullity}")
        check(all(not any(mat_vec(M, v)) for v in basis), "kernel vector not annihilated")

    return Request("kernel", run, {"exactlin.matrix_cells": n * n})


def _solve(rng, n):
    M = _rand_matrix(rng, n, n)
    rhs = mat_vec(M, [_rand_rational(rng) for _ in range(n)])

    def run(tr):
        x = tr.call("exactlin.solve", exactlin.solve, M, rhs)
        check(x is not None and mat_vec(M, x) == rhs, "solve returned no solution of M x = rhs")

    return Request("solve", run, {"exactlin.matrix_cells": n * (n + 1)})


def _bivector(rng, d):
    return {pr: _rand_rational(rng) for pr in itertools.combinations(range(d), 2)}


def _wedge_pairs(rng, count, d=6):
    pairs = [(_bivector(rng, d), _bivector(rng, d)) for _ in range(count)]
    mvs = [(exactlin.Multivector(d, 2, a), exactlin.Multivector(d, 2, b)) for a, b in pairs]

    def expected(a, b, i, j, k, l):
        return (a[i, j] * b[k, l] - a[i, k] * b[j, l] + a[i, l] * b[j, k]
                + a[j, k] * b[i, l] - a[j, l] * b[i, k] + a[k, l] * b[i, j])

    def run(tr):
        for (a, b), (ma, mb) in zip(pairs, mvs):
            w = tr.call("exactlin.wedge", exactlin.wedge, ma, mb)
            for S in itertools.combinations(range(d), 4):
                check(w.coords.get(S, 0) == expected(a, b, *S), "wedge of bivectors")

    return Request("wedge", run)


def _support(rng, d=6):
    x = [_rand_rational(rng) for _ in range(d)]
    y = [_rand_rational(rng) for _ in range(d)]
    xy = exactlin.wedge(exactlin.vector(d, x), exactlin.vector(d, y))

    def run(tr):
        basis = tr.call("exactlin.support", exactlin.support, xy)
        check(len(basis) == 2 and rank_mod_p(basis + [x, y]) == 2, "support of x ^ y is not span{x, y}")

    return Request("support", run)


# ---------------------------------------------------------------------------

class Workload:
    name = "exact-chain"

    def __init__(self, tiny=False):
        self.tiny = tiny
        self.kepler = {d: screens.kepler_force(1.0, [0.0] * (d - 1) + [1.0]) for d in (3, 4)}
        self.hamiltonian = _hamiltonian_cases()

    def round(self, rng):
        if self.tiny:
            return self._tiny_round(rng)
        reqs = []
        for n in (4, 5):
            for rows in partitions(n):
                reqs += [_young_scalar(rows, "horizontal"), _young_scalar(rows, "vertical")]
        for rows in partitions(6):
            if 1 < len(rows) < 6:  # (6) and (1^6) alone would double the round
                reqs.append(_young_scalar(rows, rng.choice(("horizontal", "vertical"))))
        for columns, dim in (([2, 2], 3), ([2, 2], 4), ([2, 2], 5), ([2, 2, 2], 3), ([3, 2], 4)):
            reqs.append(_imAS_basis(columns, dim))
        for d in (3, 4):
            for b in (1, 2, 3):
                reqs.append(_impulsion_chain(rng, d, b, self.kepler[d]))
            reqs.append(_homogenize(rng, d))
        reqs += [_poly_products(rng, 3, 12) for _ in range(6)]
        for d in (3, 4, 5):
            reqs += [_curvature_metric(rng, d), _curvature_flat(rng, d)]
        for d in (4, 5, 6):
            reqs.append(_wedge_square(rng, d))
        reqs += [_hamiltonian(*case) for case in self.hamiltonian]
        for n in (12, 18, 24, 30):
            reqs += [_rref(rng, n), _kernel(rng, n), _solve(rng, n)]
        reqs += [_wedge_pairs(rng, 10), _wedge_pairs(rng, 10), _support(rng), _support(rng)]
        # ten small requests that put the median inside the 15-20 ms cluster
        # of requests instead of on the gap above it
        reqs += [_imAS_basis([2, 1], 3), _imAS_basis([2, 1], 4), _curvature_flat(rng, 3),
                 _rref(rng, 14), _kernel(rng, 14), _solve(rng, 14),
                 _homogenize(rng, 5), _homogenize(rng, 5), _support(rng), _support(rng)]
        # 95 requests (any count = 5 mod 10): the median and the 90th percentile
        # fall inside one request's samples rather than between two requests
        return shuffled(rng, reqs)

    def _tiny_round(self, rng):
        return shuffled(rng, [
            _young_scalar((2, 1), "vertical"),
            _imAS_basis([2, 2], 3),
            _impulsion_chain(rng, 3, 1, self.kepler[3]),
            _homogenize(rng, 3),
            _poly_products(rng, 3, 4),
            _curvature_metric(rng, 3),
            _curvature_flat(rng, 3),
            _wedge_square(rng, 4),
            _hamiltonian(*self.hamiltonian[4]),
            _rref(rng, 4),
            _kernel(rng, 5),
            _solve(rng, 4),
            _wedge_pairs(rng, 1),
            _support(rng),
        ])
