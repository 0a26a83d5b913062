"""Homogeneous polynomial first integrals of free motion.

A function on a screen's tangent bundle lifts to a unique homogeneous form
on the cone, invariant under the shear v -> v + gamma q and the scaling
(q, v) -> (lam q, v / lam).  Polynomial first integrals of free motion are
exactly the bi-homogeneous polynomials R(q, v) with those invariances: the
space P^{b,b}.  This module represents an element two ways, and builds the
second from the first through R's polar form, an internal integer table:

* as a polynomial R in the doubled variable set (q_0..q_n, v_0..v_n);
* as the pair-antisymmetric form whose diagonal recovers R, i.e. a degree-b
  polynomial in the impulsion bivector q ^ v.

The module also homogenizes screen-level polynomial integrals on linear and
quadratic-root screens, by polynomial substitution over a power of the
screen's denominator, and differentiates candidate integrals along a
projective force field (including inverse-square fields through the
square-root ring).  Every step is exact and decides each invariance once; a
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
    clear_denominators,
    kernel,
    rat,
)
from projdyn.polynomials import NotPolynomialError, Poly, SqrtElem
from projdyn.young import (
    ClearedTable,
    YoungTableau,
    act,
    antisymmetrizer_element,
    compose_elements,
    index_array,
    sorted_block_sums,
    table_in_imAS,
)

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
    """R(v, q) as a polynomial (exchange of the two argument blocks): each
    exponent tuple has its halves exchanged, in R's key order."""
    if R.nvars != 2 * dim:
        raise ValueError("need one image per variable")
    return Poly._raw(R.nvars, {e[dim:] + e[:dim]: c for e, c in R.terms.items()})


def exchange_value(R: Poly, dim: int, q, v):
    """The pair (R(q, v), R(v, q)); for R in P^{b,b} the second value equals
    (-1)^b times the first, and also R(v, -q) = R(q, v)."""
    point_qv = list(q) + list(v)
    point_vq = list(v) + list(q)
    return R.evaluate(point_qv), R.evaluate(point_vq)


# ---------------------------------------------------------------------------
# polar form and the pair-antisymmetric form
#
# The chain runs on one ``ClearedTable`` of the polar form, built from R's
# cleared coefficients; Fractions are built only for the final form.  A
# diagonal monomial is keyed by the base-dim code of its sorted q-indices,
# then its sorted v-indices.


def _polar_table(R: Poly, dim: int, b: int):
    """The polar form of R as a cleared table, and R's coefficients keyed by
    monomial code over their own common denominator.

    The polar entry at every rearrangement of the q- and of the v-indices of
    a monomial c q^e v^f is c e! f! / (b!)^2 (multi-index factorials); over
    the denominator lcm(R's denominators) * (b!)^2 its numerator is
    num(c) * e! f!.  Entries are listed term by term, each term's index rows
    in the order of set(permutations(...)) of its q- and then its v-indices.
    """
    if not (R.is_homogeneous_in(list(q_indices(dim)), b) and R.is_homogeneous_in(list(v_indices(dim)), b)):
        raise ValueError(f"polynomial is not bi-homogeneous of degree ({b},{b})")
    nums, den = clear_denominators(R.terms.values())
    halves = {}
    rows, vals, diagonal = [], [], {}
    for exps, num in zip(R.terms, nums):
        for half in (exps[:dim], exps[dim:]):
            if half not in halves:
                ms = tuple(i for i, e in enumerate(half) for _ in range(e))
                halves[half] = (ms, list(set(itertools.permutations(ms))), math.prod(map(math.factorial, half)))
        q_ms, q_rows, q_fact = halves[exps[:dim]]
        v_ms, v_rows, v_fact = halves[exps[dim:]]
        for q_idx in q_rows:
            rows.extend(q_idx + v_idx for v_idx in v_rows)
        vals.extend([num * q_fact * v_fact] * (len(rows) - len(vals)))
        code = 0
        for i in q_ms + v_ms:
            code = code * dim + i
        diagonal[code] = num
    table = ClearedTable(dim, index_array(rows, 2 * b), vals, den * math.factorial(b) ** 2)
    return table, (diagonal, den)


def _monomial(code: int, dim: int, b: int) -> tuple:
    """Exponent tuple of a diagonal monomial code."""
    exps = [0] * (2 * dim)
    for k in range(2 * b):  # the last digit is the last v-index
        code, i = divmod(code, dim)
        exps[i if k >= b else dim + i] += 1
    return tuple(exps)


def _diagonal_poly(table: ClearedTable, b: int, blocks) -> Poly:
    """The diagonal of a cleared table with q in the slots of the first block
    and v in those of the second."""
    codes, sums = sorted_block_sums(table, blocks)
    return Poly._raw(2 * table.dim, {_monomial(c, table.dim, b): Fraction(v, table.den) for c, v in zip(codes, sums)})


def _shear_free(table: ClearedTable, b: int) -> bool:
    """The defining constraint of the polar forms of P^{b,b}: symmetrizing the
    first b+1 slots yields zero (equivalently R_S(q..q; q, v..v) = 0).  This
    alone decides shear invariance: R(q, v + gamma q) - R(q, v) expands into
    values of R_S with q in all of the first b+1 slots.  The symmetrization
    vanishes iff the table sums to zero over every class of rearrangements
    of the first b+1 indices, which one pass sums (``sorted_block_sums``)."""
    return not sorted_block_sums(table, [range(b + 1), *([k] for k in range(b + 1, 2 * b))])[1]


class BiHomogeneousPoly:
    """Element of P^{b,b}: a bidegree-(b,b) polynomial R with the shear
    invariance, built from R by ``from_poly`` and kept as R (``poly``) and
    as its polar form, one cleared table.

    The polar table is symmetric in each block of b slots by construction:
    ``_polar_table`` writes every rearrangement of a monomial's q-indices
    and of its v-indices with one value.  So block symmetry is not checked
    (it held on 300 of 300 random bihomogeneous R, shear-variant ones
    included); the table decides shear invariance only.
    """

    @classmethod
    def from_poly(cls, R: Poly, dim: int, b: int = None):
        """The element with diagonal R; the polar table decides shear
        invariance.  R itself is kept as the diagonal, by the polarization
        identity: the polar form's doubled diagonal R_S(q..q; v..v) is R."""
        if b is None:
            b = R.degree_in(list(q_indices(dim)))
            if b < 1:
                raise ValueError("cannot infer the degree")
        table, diagonal = _polar_table(R, dim, b)
        if not _shear_free(table, b):
            raise ValueError("polar tensor violates the shear constraint")
        out = cls.__new__(cls)
        out.dim, out.b, out.poly = dim, b, R
        out._table, out._diagonal = table, diagonal
        return out

    def antisymmetric(self) -> "AntisymmetricForm":
        """The unique pair-antisymmetric form whose full diagonal is R.

        Construction: reorder the polar form's slots into (q,v) pairs and
        apply the column antisymmetrizer for the b-pair tableau, both as one
        action of the composed group-algebra element on the polar table,
        then fix the normalization by the candidate's diagonal against R:
        the two must have the same monomials and diag[k] R[e] == diag[e] R[k]
        at every one, which is decided on integers.  The candidate divided by
        mu = diag[e] / R[e], the only division of the chain, has diagonal R.
        Its symmetry class is linear, so it is decided once, on the
        candidate's integer table.
        """
        b, dim = self.b, self.dim
        target, den = self._diagonal
        if not target:
            return AntisymmetricForm._member(dim, b, Tensor._raw(dim, 2 * b, {}))
        interleave = tuple(2 * j if j < b else 2 * (j - b) + 1 for j in range(2 * b))
        cand = act(compose_elements(antisymmetrizer_element(pair_tableau(b)), {interleave: 1}), self._table)
        diag = dict(zip(*sorted_block_sums(cand, _pair_blocks(b))))
        if not diag:
            raise ArithmeticError("antisymmetrization collapsed a nonzero integral")
        key = next(iter(target))
        if diag.keys() != target.keys():
            raise ArithmeticError("candidate diagonal is not proportional to R")
        d_key, r_key = diag[key], target[key]
        if any(diag[k] * r_key != d_key * r for k, r in target.items()):
            raise ArithmeticError("candidate diagonal is not proportional to R")
        if not table_in_imAS(pair_tableau(b), cand):
            raise ValueError("tensor lacks the pair-antisymmetric symmetry class")
        mu = Fraction(d_key * den, cand.den * r_key)  # diag[key] / R[key]
        return AntisymmetricForm._member(dim, b, cand.tensor(1 / mu))


class AntisymmetricForm:
    """The pair-antisymmetric carrier of an element of P^{b,b}: a 2b-linear
    form antisymmetric in each slot pair (2i, 2i+1) and satisfying the
    column-exchange identities, with R(q, v) on its full diagonal.  Descends
    to a symmetric b-linear form on bivectors.  A form is immutable once
    built: its integer table and its kernel are computed at most once.  The
    table is the only place where a form's entries are cleared; the class
    check and every integer reader of the form read it."""

    _table = None
    _kernel = None

    def __init__(self, dim: int, b: int, tensor: Tensor):
        if tensor.dim != dim or tensor.order != 2 * b:
            raise ValueError("tensor has the wrong dim/order")
        self.dim = dim
        self.b = b
        self.tensor = tensor
        if not table_in_imAS(pair_tableau(b), self.table()):
            raise ValueError("tensor lacks the pair-antisymmetric symmetry class")

    @classmethod
    def _member(cls, dim: int, b: int, tensor: Tensor) -> "AntisymmetricForm":
        """The form of a tensor already known to lie in the class."""
        out = cls.__new__(cls)
        out.dim, out.b, out.tensor = dim, b, tensor
        return out

    def restrict(self, coords) -> "AntisymmetricForm":
        """The form, of this type, on the span of the basis vectors at coords,
        renumbered 0, 1, ... in that order.  Every identity of the class
        permutes slots, not index values, so the restriction of a member is
        a member and is wrapped without a re-check."""
        position = {c: k for k, c in enumerate(coords)}
        entries = {tuple(position[i] for i in idx): val for idx, val in self.tensor.entries.items()
                   if all(i in position for i in idx)}
        return self._member(len(coords), self.b, Tensor._raw(len(coords), 2 * self.b, entries))

    def table(self) -> ClearedTable:
        """The entries cleared to integers, in the entries' order, once."""
        if self._table is None:
            self._table = ClearedTable.of(self.tensor)
        return self._table

    def diagonal_poly(self) -> Poly:
        """T(q, v, ..., q, v) as a polynomial: q and v fill each slot pair."""
        return _diagonal_poly(self.table(), self.b, _pair_blocks(self.b))

    def value(self, idx) -> Fraction:
        return self.tensor.entries.get(tuple(idx), Fraction(0))

    def kernel(self):
        """Vectors u with the form vanishing whenever u fills the first slot.

        The form is immutable, so the basis is eliminated once, on first
        use, from rows of the integer table (the kernel does not see the
        scale); each call returns fresh lists of it."""
        if self._kernel is None:
            rows = {}
            for idx, v in zip(self.tensor.entries, self.table().vals):
                rows.setdefault(idx[1:], {})[idx[0]] = v
            mat = [[cols.get(i, 0) for i in range(self.dim)] for _, cols in sorted(rows.items())]
            self._kernel = kernel(mat, self.dim)
        return [list(vec) for vec in self._kernel]


def pair_tableau(b: int) -> YoungTableau:
    """The vertical tableau with b columns of length 2 (slot pairs)."""
    return YoungTableau.from_columns([2] * b)


def _pair_blocks(b: int):
    """The q-slots and the v-slots of the b slot pairs."""
    return [range(0, 2 * b, 2), range(1, 2 * b, 2)]


# ---------------------------------------------------------------------------
# homogenization of screen-level integrals

def _central_images(screen):
    """Polynomial images for x = q / h(q) and w = <dh,q> v - <dh,v> q on a
    linear or quadratic-root screen, and whether the screen is a quadric.

    On a linear screen h = phi.q, w is W with W_i = h v_i - (phi.v) q_i; on
    a quadratic-root screen h^2 = q^T G q and w is W / h with
    W_i = (q^T G q) v_i - (q^T G v) q_i.  The images are those of q_0..,
    W_0.. and of a denominator variable: h, or h^2 on a quadric.
    """
    dim = screen.dim
    nv = 2 * dim
    q = [qvar(i, dim) for i in range(dim)]
    if screen.kind == "linear":
        phi = [rat(x) for x in screen.phi_exact]
        h = Poly(nv, {tuple(1 if k == i else 0 for k in range(nv)): phi[i] for i in range(dim) if phi[i]})
        phi_v = Poly(nv, {tuple(1 if k == dim + i else 0 for k in range(nv)): phi[i] for i in range(dim) if phi[i]})
        return q + [h * vvar(i, dim) - phi_v * q[i] for i in range(dim)] + [h], False
    if screen.kind == "quadratic_root":
        gm = [[rat(x) for x in row] for row in screen.gmat_exact]
        gq = gqv = Poly.zero(nv)
        for i in range(dim):
            for j in range(dim):
                if gm[i][j]:
                    gq = gq + (q[i] * q[j]).scale(gm[i][j])
                    gqv = gqv + (q[i] * vvar(j, dim)).scale(gm[i][j])
        return q + [gq * vvar(i, dim) - gqv * q[i] for i in range(dim)] + [gq], True
    raise NotPolynomialError("exact homogenization needs a linear or quadratic-root screen")


def homogenize_polynomial(G_H: Poly, screen) -> Poly:
    """Exact homogenization of a screen-level polynomial (ambient variables,
    read on the tangent bundle of the screen).

    Substitutes x = q / h(q) and w = <dh,q> v - <dh,v> q and clears the
    denominators; raises NotPolynomialError when the result is not a
    polynomial, which happens exactly when G_H is not (the restriction of) a
    first integral of free motion.

    Each term c x^a w^b becomes c q^a W^b / h^k (``_central_images``), with
    k = |a| on a linear screen and k = |a| + |b| on a quadric.  A class of
    terms is lifted by one variable carrying each term's missing power of
    the denominator, up to the class's largest k, and substituted once.  On
    a quadric the terms of odd k carry the irrational h = sqrt(q^T G q), so
    they must sum to zero; those of even k are a power of q^T G q apart.
    The quotient by the denominator comes from ``exact_div``, whose terms
    are in descending graded-lex order whatever the numerator's order.
    """
    images, quadric = _central_images(screen)
    dim = screen.dim
    span, step = (2 * dim, 2) if quadric else (dim, 1)
    classes = {}
    for exps, coef in G_H.terms.items():
        k = sum(exps[:span])
        classes.setdefault(k % step, []).append((exps, coef, k))

    def numerator(terms):
        top = max(k for _, _, k in terms)
        lifted = Poly._raw(G_H.nvars + 1, {exps + ((top - k) // step,): coef for exps, coef, k in terms})
        return lifted.substitute(images), top // step

    if 1 in classes and not numerator(classes[1])[0].is_zero():
        raise NotPolynomialError("value has an irrational part")
    if 0 not in classes:
        return Poly.zero(2 * dim)
    num, power = numerator(classes[0])
    return num.exact_div(images[-1] ** power)


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
    """The force's exact components as SqrtElems on one base: that of the
    components with an irrational part, else the first component's."""
    if force is None:
        return None
    comps = getattr(force, "exact", force if isinstance(force, list) else None)
    if comps is None:
        return None
    out = [SqrtElem.from_poly(c, Poly.const(2 * dim, 1)) if isinstance(c, Poly) else c for c in comps]
    roots = [c.base for c in out if not c.Q.is_zero()] or [c.base for c in out[:1]]
    if any(root != roots[0] for root in roots):
        raise ForceHomogeneityError("components mix different square roots")
    return [c if c.base == roots[0] else SqrtElem(c.P, c.Q, c.D, roots[0]) for c in out]


def check_force_degree(force, dim):
    comps = _exact_components(force, dim)
    if comps is None:
        raise ForceHomogeneityError("force has no exact representation")
    for c in comps:
        deg = _component_homogeneity(c, dim)
        if deg is not None and deg != -3:
            raise ForceHomogeneityError(f"component homogeneity {deg}, expected -3")
    return comps


def gdot(G: Poly, force=None):
    """Time derivative <dG/dq, v> + <dG/dv, f> of a candidate integral.

    ``G`` must satisfy the shear and scaling invariances (rejected
    otherwise); ``force`` is None/zero or carries exact components of
    homogeneity degree -3 (rational, or with one square root).  Returns a
    Poly for polynomial data and a SqrtElem when a root is involved; either
    answers ``.is_zero()`` exactly.  Radial force terms drop out identically.
    """
    if G.nvars % 2:
        raise ValueError("G needs an even number of variables")
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
    base = comps[0].base
    total = SqrtElem.from_poly(kinetic, base)
    for i in range(dim):
        dGdv = G.diff(dim + i)
        if not dGdv.is_zero():
            total = total + comps[i] * SqrtElem.from_poly(dGdv, base)
    if total.Q.is_zero():
        try:
            return total.as_poly()
        except NotPolynomialError:
            return total
    return total
