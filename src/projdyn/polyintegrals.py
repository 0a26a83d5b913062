"""Homogeneous polynomial first integrals of free motion.

A function on a screen's tangent bundle lifts to a unique homogeneous form
on the cone, invariant under the shear v -> v + gamma q and the scaling
(q, v) -> (lam q, v / lam).  Polynomial first integrals of free motion are
exactly the bi-homogeneous polynomials R(q, v) with those invariances: the
space P^{b,b}, which this module represents three ways and converts between:

* as a polynomial in the doubled variable set (q_0..q_n, v_0..v_n);
* as its polar form, a 2b-linear tensor symmetric in each block of b slots;
* as the pair-antisymmetric form whose diagonal recovers R, i.e. a degree-b
  polynomial in the impulsion bivector q ^ v.

The module also homogenizes screen-level polynomial integrals on linear and
quadratic-root screens, differentiates candidate integrals along a
projective force field (including inverse-square fields through the
square-root ring) and reconstructs bivariate polynomials from evaluation
oracles.  Every step is exact and decides each invariance once; a
screen-level integral is a Poly (anything else raises TypeError).
Everything operates on immutable values through pure functions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from projdyn.exactlin import (
    SparseEchelon,
    Tensor,
    accumulate,
    clear_denominators,
    kernel,
    mat_inverse,
    mat_mul,
    rat,
)
from projdyn.polynomials import NotPolynomialError, Poly, SqrtElem
from projdyn.young import YoungTableau, antisymmetrizer_element, apply_element, check_imAS

# variable layout for ambient dimension d: q_i = var i, v_i = var d + i


def qvar(i, dim):
    return Poly.variable(i, 2 * dim)


def vvar(i, dim):
    return Poly.variable(dim + i, 2 * dim)


def q_indices(dim):
    return range(dim)


def v_indices(dim):
    return range(dim, 2 * dim)


# ---------------------------------------------------------------------------
# the space P^{b,b}

# The largest degree `projdyn pbb-dim --b` accepts: dim_Pbb(256, 10000) has
# 1,032 digits (Python prints ints of up to 4,300) and takes about 0.1 s.
MAX_PBB_DEGREE = 10_000


def dim_Pbb(n: int, b: int) -> int:
    """n (n+1)^2 (n+2)^2 ... (n+b-1)^2 (n+b) / (b! (b+1)!), exactly."""
    if n < 1 or b < 1:
        raise ValueError("need n >= 1 and b >= 1")
    num = n * (n + b)
    for k in range(1, b):
        num *= (n + k) ** 2
    den = math.factorial(b) * math.factorial(b + 1)
    out = Fraction(num, den)
    if out.denominator != 1:
        raise ArithmeticError("dimension formula did not produce an integer")
    return int(out)


def plucker(dim: int, i: int, j: int) -> Poly:
    """Impulsion coordinate p_ij = q_i v_j - q_j v_i."""
    return qvar(i, dim) * vvar(j, dim) - qvar(j, dim) * vvar(i, dim)


def impulsion_poly_basis(dim: int, b: int):
    """Linearly independent products of b impulsion coordinates: an exact
    basis of the polynomial first integrals of free motion of degree b."""
    pairs = list(itertools.combinations(range(dim), 2))
    pls = {pr: plucker(dim, *pr) for pr in pairs}
    echelon = SparseEchelon()
    basis = []
    for combo in itertools.combinations_with_replacement(pairs, b):
        p = Poly.const(2 * dim, 1)
        for pr in combo:
            p = p * pls[pr]
        if p.is_zero():
            continue
        if echelon.insert(p.terms):
            basis.append(p)
    return basis


def shear_defect(R: Poly, dim: int) -> Poly:
    """R(q, v + gamma q) - R(q, v) in the extended space with gamma as the
    last variable; the zero polynomial iff R is shear invariant."""
    nv = 2 * dim + 1
    gamma = Poly.variable(2 * dim, nv)
    images = [Poly.variable(i, nv) for i in range(dim)]
    images += [Poly.variable(dim + i, nv) + gamma * Poly.variable(i, nv) for i in range(dim)]
    return R.substitute(images) - R.extend(nv)


def is_impulsion_invariant(R: Poly, dim: int) -> bool:
    """Both invariances of a homogenized form: every monomial has equal q- and
    v-degree, and the shear v -> v + gamma q leaves R unchanged."""
    for exps in R.terms:
        if sum(exps[:dim]) != sum(exps[dim:]):
            return False
    return shear_defect(R, dim).is_zero()


def swap_blocks(R: Poly, dim: int) -> Poly:
    """R(v, q) as a polynomial (exchange of the two argument blocks)."""
    images = [vvar(i, dim) for i in range(dim)] + [qvar(i, dim) for i in range(dim)]
    return R.substitute(images)


def substitute_v_minus_q(R: Poly, dim: int) -> Poly:
    """R(v, -q)."""
    images = [vvar(i, dim) for i in range(dim)] + [-qvar(i, dim) for i in range(dim)]
    return R.substitute(images)


def exchange_value(R: Poly, dim: int, q, v):
    """The pair (R(q, v), R(v, q)); for R in P^{b,b} the second value equals
    (-1)^b times the first, and also R(v, -q) = R(q, v)."""
    point_qv = list(q) + list(v)
    point_vq = list(v) + list(q)
    return R.evaluate(point_qv), R.evaluate(point_vq)


# ---------------------------------------------------------------------------
# polar form and the pair-antisymmetric form

def _multiset_factor(idx) -> Fraction:
    counts = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    num = 1
    for c in counts.values():
        num *= math.factorial(c)
    return Fraction(num, math.factorial(len(idx)))


def polar_form(R: Poly, dim: int, b: int) -> Tensor:
    """Polar form of a bidegree-(b, b) polynomial: the 2b-linear tensor,
    symmetric in the first b and in the last b slots, whose doubled diagonal
    R_S(q..q; v..v) recovers R."""
    if not (R.is_homogeneous_in(list(q_indices(dim)), b) and R.is_homogeneous_in(list(v_indices(dim)), b)):
        raise ValueError(f"polynomial is not bi-homogeneous of degree ({b},{b})")
    entries = {}
    for exps, coef in R.terms.items():
        q_ms = []
        for i in range(dim):
            q_ms.extend([i] * exps[i])
        v_ms = []
        for i in range(dim):
            v_ms.extend([i] * exps[dim + i])
        base = coef * _multiset_factor(q_ms) * _multiset_factor(v_ms)
        for q_idx in set(itertools.permutations(q_ms)):
            for v_idx in set(itertools.permutations(v_ms)):
                entries[q_idx + v_idx] = base
    return Tensor(dim, 2 * b, entries)


def poly_from_polar(T: Tensor, b: int) -> Poly:
    """Diagonal R(q, v) = R_S(q..q; v..v) of a block-symmetric polar tensor."""
    dim = T.dim
    out = {}
    for idx, val in T.entries.items():
        exps = [0] * (2 * dim)
        for slot, i in enumerate(idx):
            exps[i if slot < b else dim + i] += 1
        accumulate(out, tuple(exps), val)
    return Poly(2 * dim, out)


def block_symmetric(T: Tensor, b: int) -> bool:
    for m in range(b - 1):
        if T.transpose_slots(m, m + 1) != T:
            return False
    for m in range(b, 2 * b - 1):
        if T.transpose_slots(m, m + 1) != T:
            return False
    return True


def first_block_symmetrization_vanishes(T: Tensor, b: int) -> bool:
    """The defining constraint of the polar forms of P^{b,b}: symmetrizing the
    first b+1 slots yields zero (equivalently R_S(q..q; q, v..v) = 0).  This
    alone decides shear invariance: R(q, v + gamma q) - R(q, v) expands into
    values of R_S with q in all of the first b+1 slots.

    The symmetrized entry at idx is the sum of T over all rearrangements of
    idx's first b+1 indices, each counted |stabilizer| > 0 times, so it
    vanishes iff every such class sums to zero.  The class sums run in one
    pass over the integer-scaled entries.
    """
    head = b + 1
    ints, _ = clear_denominators(T.entries.values())
    sums = {}
    for idx, val in zip(T.entries, ints):
        key = (tuple(sorted(idx[:head])), idx[head:])
        sums[key] = sums.get(key, 0) + val
    return not any(sums.values())


class BiHomogeneousPoly:
    """Element of P^{b,b}: bidegree-(b,b) polynomial with the shear invariance,
    stored with its polar form."""

    def __init__(self, dim: int, b: int, polar: Tensor):
        if polar.dim != dim or polar.order != 2 * b:
            raise ValueError("polar tensor has the wrong dim/order")
        if not block_symmetric(polar, b):
            raise ValueError("polar tensor is not symmetric in its two blocks")
        if not first_block_symmetrization_vanishes(polar, b):
            raise ValueError("polar tensor violates the shear constraint")
        self.dim = dim
        self.b = b
        self.polar = polar

    @classmethod
    def from_poly(cls, R: Poly, dim: int, b: int = None):
        """The element with diagonal R; the constructor decides shear invariance."""
        if b is None:
            b = R.degree_in(list(q_indices(dim)))
            if b < 1:
                raise ValueError("cannot infer the degree")
        return cls(dim, b, polar_form(R, dim, b))

    @property
    def poly(self) -> Poly:
        return poly_from_polar(self.polar, self.b)

    def antisymmetric(self) -> "AntisymmetricForm":
        return to_antisymmetric(self)


class AntisymmetricForm:
    """The pair-antisymmetric carrier of an element of P^{b,b}: a 2b-linear
    form antisymmetric in each slot pair (2i, 2i+1) and satisfying the
    column-exchange identities, with R(q, v) on its full diagonal.  Descends
    to a symmetric b-linear form on bivectors."""

    def __init__(self, dim: int, b: int, tensor: Tensor):
        if tensor.dim != dim or tensor.order != 2 * b:
            raise ValueError("tensor has the wrong dim/order")
        if not check_imAS(pair_tableau(b), tensor):
            raise ValueError("tensor lacks the pair-antisymmetric symmetry class")
        self.dim = dim
        self.b = b
        self.tensor = tensor

    def diagonal_poly(self) -> Poly:
        return _pair_diagonal(self.tensor, self.b)

    def value(self, idx) -> Fraction:
        return self.tensor.entries.get(tuple(idx), Fraction(0))

    def evaluate_bivectors(self, bivectors) -> Fraction:
        """Value of the induced symmetric b-linear form on grade-2 inputs.

        Expands each bivector over increasing index pairs only; the pair
        antisymmetry of the tensor makes this the unique descent with
        R_B(q ^ v) = R(q, v).
        """
        if len(bivectors) != self.b:
            raise ValueError("need one bivector per slot pair")
        total = Fraction(0)
        for idx, val in self.tensor.entries.items():
            if any(idx[2 * k] >= idx[2 * k + 1] for k in range(self.b)):
                continue
            term = val
            for k, pi in enumerate(bivectors):
                coef = pi.coords.get((idx[2 * k], idx[2 * k + 1]), Fraction(0))
                if not coef:
                    term = Fraction(0)
                    break
                term *= coef
            total += term
        return total

    def kernel(self):
        """Vectors u with the form vanishing whenever u fills the first slot."""
        rows = {}
        for idx, val in self.tensor.entries.items():
            rows.setdefault(idx[1:], {})[idx[0]] = val
        mat = []
        for rest, cols in sorted(rows.items()):
            mat.append([cols.get(i, Fraction(0)) for i in range(self.dim)])
        if not mat:
            return [[Fraction(1) if j == i else Fraction(0) for j in range(self.dim)] for i in range(self.dim)]
        return kernel(mat)


def pair_tableau(b: int) -> YoungTableau:
    """The vertical tableau with b columns of length 2 (slot pairs)."""
    return YoungTableau.from_columns([2] * b)


def _pair_diagonal(T: Tensor, b: int) -> Poly:
    """T(q, v, q, v, ..., q, v) as a polynomial: q fills the first and v the
    second slot of each of the b slot pairs."""
    dim = T.dim
    out = {}
    for idx, val in T.entries.items():
        exps = [0] * (2 * dim)
        for k in range(b):
            exps[idx[2 * k]] += 1
            exps[dim + idx[2 * k + 1]] += 1
        accumulate(out, tuple(exps), val)
    return Poly(2 * dim, out)


def to_antisymmetric(R) -> AntisymmetricForm:
    """The unique pair-antisymmetric form whose full diagonal is R.

    Construction: reorder the polar form's slots into (q,v) pairs, apply the
    column antisymmetrizer for the b-pair tableau, and fix the normalization
    by the exact polynomial ratio of the candidate's diagonal against R.  The
    ratio is checked on every term, so the scaled form has diagonal R; its
    symmetry class is verified once, by the AntisymmetricForm constructor.
    """
    if not isinstance(R, BiHomogeneousPoly):
        raise TypeError("pass a BiHomogeneousPoly")
    b, dim = R.b, R.dim
    R_poly = R.poly
    if R_poly.is_zero():
        return AntisymmetricForm(dim, b, Tensor(dim, 2 * b, {}))
    interleave = tuple(2 * j if j < b else 2 * (j - b) + 1 for j in range(2 * b))
    cand = apply_element(antisymmetrizer_element(pair_tableau(b)), R.polar.permute(interleave))
    diag = _pair_diagonal(cand, b)
    if diag.is_zero():
        raise ArithmeticError("antisymmetrization collapsed a nonzero integral")
    key = next(iter(R_poly.terms))
    if key not in diag.terms:
        raise ArithmeticError("candidate diagonal is not proportional to R")
    mu = diag.terms[key] / R_poly.terms[key]
    if diag != R_poly.scale(mu):
        raise ArithmeticError("candidate diagonal is not proportional to R")
    return AntisymmetricForm(dim, b, cand.scale(1 / mu))


# ---------------------------------------------------------------------------
# homogenization of screen-level integrals

def _substitute_sqrt(poly: Poly, images) -> SqrtElem:
    """poly(images) over one common denominator.

    The images carry few distinct denominators (h or q^T G q for the
    x-images, 1 or q^T G q for the w-images), so each term's denominator is a
    product of their powers.  Each term's numerator is built from cached
    powers of the image numerators and scaled once to the largest power of
    every denominator; the scaled numerators are summed into one dict each.
    """
    base = images[0].base
    nv = base.nvars
    one = Poly.const(nv, 1)
    dens = []
    for img in images:
        if img.D != one and img.D not in dens:
            dens.append(img.D)
    slots = [dens.index(img.D) if img.D in dens else None for img in images]
    nums = [SqrtElem(img.P, img.Q, one, base) for img in images]
    cache = {}
    terms = []
    for exps, coef in poly.terms.items():
        num = SqrtElem.from_poly(Poly.const(nv, coef), base)
        powers = [0] * len(dens)
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in cache:
                    cache[(i, e)] = nums[i] ** e
                num = num * cache[(i, e)]
                if slots[i] is not None:
                    powers[slots[i]] += e
        terms.append((num, powers))
    top = [max((powers[j] for _, powers in terms), default=0) for j in range(len(dens))]
    scales = {}
    P, Q = {}, {}
    for num, powers in terms:
        gaps = tuple(t - k for t, k in zip(top, powers))
        if gaps not in scales:
            scales[gaps] = math.prod((d ** g for d, g in zip(dens, gaps)), start=one)
        for part, out in ((num.P, P), (num.Q, Q)):
            for key, val in (part * scales[gaps]).terms.items():
                accumulate(out, key, val)
    D = math.prod((d ** t for d, t in zip(dens, top)), start=one)
    return SqrtElem(Poly._raw(nv, P), Poly._raw(nv, Q), D, base)


def _central_images(screen):
    """The images of x_0.. and w_0.. under x = q / h(q) and
    w = <dh,q> v - <dh,v> q, for a linear or quadratic-root screen."""
    dim = screen.dim
    nv = 2 * dim
    if screen.kind == "linear":
        phi = [rat(x) for x in screen.phi_exact]
        base = Poly.const(nv, 1)
        h = Poly(nv, {tuple(1 if k == i else 0 for k in range(nv)): phi[i] for i in range(dim) if phi[i]})
        phi_v = Poly(nv, {tuple(1 if k == dim + i else 0 for k in range(nv)): phi[i] for i in range(dim) if phi[i]})
        x_imgs = [SqrtElem(qvar(i, dim), Poly.zero(nv), h, base) for i in range(dim)]
        w_imgs = [
            SqrtElem(h * vvar(i, dim) - phi_v * qvar(i, dim), Poly.zero(nv), Poly.const(nv, 1), base)
            for i in range(dim)
        ]
    elif screen.kind == "quadratic_root":
        gm = [[rat(x) for x in row] for row in screen.gmat_exact]
        gq = Poly.zero(nv)
        for i in range(dim):
            for j in range(dim):
                if gm[i][j]:
                    gq = gq + (qvar(i, dim) * qvar(j, dim)).scale(gm[i][j])
        gqv = Poly.zero(nv)
        for i in range(dim):
            for j in range(dim):
                if gm[i][j]:
                    gqv = gqv + (qvar(i, dim) * vvar(j, dim)).scale(gm[i][j])
        base = gq
        x_imgs = [SqrtElem(Poly.zero(nv), qvar(i, dim), gq, base) for i in range(dim)]
        w_imgs = [
            SqrtElem(Poly.zero(nv), gq * vvar(i, dim) - gqv * qvar(i, dim), gq, base)
            for i in range(dim)
        ]
    else:
        raise NotPolynomialError("exact homogenization needs a linear or quadratic-root screen")
    return x_imgs + w_imgs


def homogenize_polynomial(G_H: Poly, screen) -> Poly:
    """Exact homogenization of a screen-level polynomial (ambient variables,
    read on the tangent bundle of the screen).

    Substitutes x = q / h(q) and w = <dh,q> v - <dh,v> q and clears the
    denominators; raises NotPolynomialError when the result is not a
    polynomial, which happens exactly when G_H is not (the restriction of) a
    first integral of free motion.
    """
    return _substitute_sqrt(G_H, _central_images(screen)).as_poly()


class ScreenIntegral:
    """A function on a screen's tangent bundle, polynomial in the velocity:
    ``expr`` is a Poly in the ambient doubled variables, read on TH."""

    def __init__(self, screen, expr):
        if not isinstance(expr, Poly):
            raise TypeError("a screen integral is an exact polynomial")
        self.screen = screen
        self.expr = expr


# ---------------------------------------------------------------------------
# the time-derivative operator

class ForceHomogeneityError(ValueError):
    """The exact force components are not homogeneous of degree -3."""


def _component_homogeneity(comp: SqrtElem, dim: int):
    """Formal q-homogeneity degree of (P + Q s)/D, requiring v-independence;
    returns the degree as a Fraction or raises."""
    qs = list(q_indices(dim))
    vs = list(v_indices(dim))
    for poly in (comp.P, comp.Q, comp.D, comp.base):
        if poly.degree_in(vs) > 0:
            raise ForceHomogeneityError("force components must not depend on the velocity")
        if not poly.is_homogeneous_in(qs):
            raise ForceHomogeneityError("force component pieces must be homogeneous")
    degs = set()
    dD = comp.D.degree_in(qs)
    if not comp.P.is_zero():
        degs.add(Fraction(comp.P.degree_in(qs) - dD))
    if not comp.Q.is_zero():
        degs.add(Fraction(comp.Q.degree_in(qs)) + Fraction(comp.base.degree_in(qs), 2) - dD)
    if len(degs) > 1:
        raise ForceHomogeneityError("mixed homogeneity inside one component")
    return degs.pop() if degs else None


def _exact_components(force, dim):
    if force is None:
        return None
    comps = getattr(force, "exact", force if isinstance(force, list) else None)
    if comps is None:
        return None
    out = []
    base = None
    for c in comps:
        if isinstance(c, Poly):
            c = SqrtElem.from_poly(c, Poly.const(2 * dim, 1))
        out.append(c)
        if not c.Q.is_zero():
            base = c.base
    if base is not None:
        # rebase rational components so all arithmetic shares one root
        out = [
            SqrtElem(c.P, c.Q, c.D, base) if c.Q.is_zero() or c.base == base else c
            for c in out
        ]
        if any(not c.Q.is_zero() and c.base != base for c in out):
            raise ForceHomogeneityError("components mix different square roots")
    return out


def check_force_degree(force, dim):
    comps = _exact_components(force, dim)
    if comps is None:
        raise ForceHomogeneityError("force has no exact representation")
    for c in comps:
        deg = _component_homogeneity(c, dim)
        if deg is not None and deg != -3:
            raise ForceHomogeneityError(f"component homogeneity {deg}, expected -3")
    return comps


def gdot(G: Poly, force=None, dim=None):
    """Time derivative <dG/dq, v> + <dG/dv, f> of a candidate integral.

    ``G`` must satisfy the shear and scaling invariances (rejected
    otherwise); ``force`` is None/zero or carries exact components of
    homogeneity degree -3 (rational, or with one square root).  Returns a
    Poly for polynomial data and a SqrtElem when a root is involved; either
    answers ``.is_zero()`` exactly.  Radial force terms drop out identically.
    """
    if dim is None:
        if G.nvars % 2:
            raise ValueError("pass dim explicitly")
        dim = G.nvars // 2
    if not is_impulsion_invariant(G, dim):
        raise ValueError("G does not satisfy the homogeneity/shear invariances")
    kinetic = Poly.zero(2 * dim)
    for i in range(dim):
        kinetic = kinetic + G.diff(i) * vvar(i, dim)
    comps = None
    if force is not None:
        comps = check_force_degree(force, dim)
        if all(c.is_zero() for c in comps):
            comps = None
    if comps is None:
        return kinetic
    base = next((c.base for c in comps if not c.Q.is_zero()), comps[0].base)
    total = SqrtElem.from_poly(kinetic, base)
    for i in range(dim):
        dGdv = G.diff(dim + i)
        if dGdv.is_zero():
            continue
        c = comps[i]
        if c.base != base:
            c = SqrtElem(c.P, c.Q, c.D, base)
        total = total + c * SqrtElem.from_poly(dGdv, base)
    if total.Q.is_zero():
        try:
            return total.as_poly()
        except NotPolynomialError:
            return total
    return total


def gdot_is_zero(G, force=None, dim=None) -> bool:
    return gdot(G, force, dim).is_zero()


def decompose_by_parity(G: Poly, force=None, dim=None):
    """Split a polynomial first integral by velocity-degree parity.

    Returns the nonzero parity sums (top parity first); each returned piece
    is itself a first integral of the same system, and the top-degree
    component is a first integral of free motion.
    """
    if dim is None:
        dim = G.nvars // 2
    if not gdot_is_zero(G, force, dim):
        raise ValueError("input is not a first integral of the given system")
    vidx = list(v_indices(dim))
    comps = G.components_by(lambda exps: sum(exps[i] for i in vidx))
    if not comps:
        return []
    b = max(comps)
    top = Poly.zero(2 * dim)
    other = Poly.zero(2 * dim)
    for m, piece in comps.items():
        if (b - m) % 2 == 0:
            top = top + piece
        else:
            other = other + piece
    leading = comps[b]
    free_defect = Poly.zero(2 * dim)
    for i in range(dim):
        free_defect = free_defect + leading.diff(i) * vvar(i, dim)
    if not free_defect.is_zero():
        raise ArithmeticError("leading term is not a free-motion integral")
    out = []
    for piece in (top, other):
        if piece.is_zero():
            continue
        if not gdot_is_zero(piece, force, dim):
            raise ArithmeticError("parity component failed to be an integral")
        out.append(piece)
    return out


# ---------------------------------------------------------------------------
# bivariate polynomial reconstruction from an evaluation oracle

def _simplex_points(m, k, box, shift_num=1, shift_den=None):
    lo, hi = box
    lo = [rat(x) for x in lo]
    hi = [rat(x) for x in hi]
    shift_den = shift_den or (k + 2)
    pts = []
    for alpha in itertools.product(range(k + 1), repeat=m):
        if sum(alpha) > k:
            continue
        pts.append(tuple(
            lo[i] + (hi[i] - lo[i]) * Fraction(alpha[i] * shift_den + shift_num, (k + 1) * shift_den + 2)
            for i in range(m)
        ))
    return pts


def _monomials_upto(m, k):
    return [e for e in itertools.product(range(k + 1), repeat=m) if sum(e) <= k]


def _vandermonde(points, monos):
    return [[math.prod(p[i] ** e[i] for i in range(len(p))) if p else Fraction(1) for e in monos] for p in points]


def reconstruct_polynomial(oracle, deg_x, deg_y, m, n, x_box=None, y_box=None):
    """Recover the polynomial F(x, y) behind an exact evaluation oracle that
    is polynomial of degree <= deg_x in x and <= deg_y in y.

    Sample points form shifted simplex lattices inside the open boxes (these
    are in general position for total-degree interpolation); a singular
    interpolation matrix triggers a deterministic resample.  The recovered
    polynomial is re-checked against the oracle on a fresh point set.
    """
    x_box = x_box or ([0] * m, [1] * m)
    y_box = y_box or ([0] * n, [1] * n)
    monos_x = _monomials_upto(m, deg_x)
    monos_y = _monomials_upto(n, deg_y)
    for attempt in range(1, 5):
        xs = _simplex_points(m, deg_x, x_box, shift_num=attempt)
        ys = _simplex_points(n, deg_y, y_box, shift_num=attempt)
        Mx = _vandermonde(xs, monos_x)
        My = _vandermonde(ys, monos_y)
        Mx_inv = mat_inverse(Mx)
        My_inv = mat_inverse(My)
        if Mx_inv is None or My_inv is None:
            continue  # not in general position; resample deterministically
        F = [[rat(oracle(x, y)) for y in ys] for x in xs]
        C = mat_mul(mat_mul(Mx_inv, F), [list(r) for r in zip(*My_inv)])
        terms = {}
        for a, ex in enumerate(monos_x):
            for b_, ey in enumerate(monos_y):
                if C[a][b_]:
                    terms[tuple(ex) + tuple(ey)] = C[a][b_]
        out = Poly(m + n, terms)
        fresh_x = _simplex_points(m, deg_x, x_box, shift_num=2 * attempt + 3, shift_den=2 * (deg_x + 2) + 1)
        fresh_y = _simplex_points(n, deg_y, y_box, shift_num=2 * attempt + 3, shift_den=2 * (deg_y + 2) + 1)
        ok = all(
            out.evaluate(list(x) + list(y)) == rat(oracle(x, y))
            for x in fresh_x[: deg_x + 2]
            for y in fresh_y[: deg_y + 2]
        )
        if ok:
            return out
        raise ArithmeticError("reconstructed polynomial disagrees with the oracle")
    raise ArithmeticError("could not find sample points in general position")
