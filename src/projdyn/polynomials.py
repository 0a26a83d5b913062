"""Exact multivariate polynomials and a small square-root extension ring.

`Poly` stores terms as a map from exponent tuples to rationals.  It is the
carrier for everything the package decides symbolically: time derivatives of
candidate first integrals, shear/scaling invariances, polar forms, screen
compatibility identities.

`SqrtElem` represents (P + Q*s)/D where P, Q, D are polynomials and s is a
formal square root with s**2 = S for a fixed base polynomial S.  It is what
makes inverse-square-type force fields exactly differentiable: zero testing
reduces to P = 0 and Q = 0, because s is irrational over the rational
function field whenever S is not a perfect square.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from projdyn.exactlin import JsonValue, accumulate, clear_denominators, format_rational, rat


class NotPolynomialError(ArithmeticError):
    """An exact computation that must produce a polynomial did not."""


def _int_product(left, right):
    """Sum the products of two lists of (exps, nonzero int) items by exponent
    in the scan order left outer, right inner, keeping the key order of
    ``accumulate``: a key sits where its running sum last turned nonzero."""
    out = {}
    for e1, c1 in left:
        for e2, c2 in right:
            key = tuple(map(add, e1, e2))
            old = out.get(key)
            if old is None:
                out[key] = c1 * c2
            else:
                total = old + c1 * c2
                if total:
                    out[key] = total
                else:
                    del out[key]
    return out


def _power(x, k, one):
    """x**k by repeated squaring, starting from the unit ``one``."""
    if k < 0:
        raise ValueError("negative power")
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


class Poly:
    """Polynomial in a fixed number of variables, exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has length {len(exps)}, expected {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            accumulate(clean, exps, rat(coef))
        self.terms = clean

    @classmethod
    def _raw(cls, nvars, terms):
        """Internal: wrap a term dict whose exponent tuples are valid and
        whose coefficients are nonzero Fractions, without re-checking it."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        c = rat(c)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, i, nvars):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, exps, coef=1):
        return cls(len(exps), {tuple(exps): rat(coef)})

    # -- ring operations -------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            accumulate(out, exps, coef)
        return Poly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return Poly._raw(self.nvars, {})
        mono, poly = (other, self) if len(other.terms) == 1 else (self, other)
        if len(mono.terms) == 1:
            # a monomial factor shifts every key: no collisions, same order
            (shift, c), = mono.terms.items()
            return Poly._raw(self.nvars, {tuple(map(add, e, shift)): v * c for e, v in poly.terms.items()})
        # integer numerators over one denominator: each int sum is den times
        # the Fraction sum, so it cancels at the same places and the key
        # order is that of the plain accumulate loop in the same scan order
        ints, den = clear_denominators(self.terms.values())
        if other is self:
            other_ints, other_den = ints, den
        else:
            other_ints, other_den = clear_denominators(other.terms.values())
        out = _int_product(zip(self.terms, ints), list(zip(other.terms, other_ints)))
        den *= other_den
        return Poly._raw(self.nvars, {e: Fraction(v, den) for e, v in out.items()})

    __rmul__ = __mul__

    def scale(self, c):
        c = rat(c)
        if not c:
            return Poly._raw(self.nvars, {})
        return Poly._raw(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k):
        return _power(self, k, Poly.const(self.nvars, 1))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus and structure ---------------------------------------------------

    def diff(self, i: int) -> "Poly":
        out = {}
        for exps, coef in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            accumulate(out, exps[:i] + (e - 1,) + exps[i + 1:], coef * e)
        return Poly._raw(self.nvars, out)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var_indices) -> int:
        """Max total exponent over a set of variable indices (-1 if zero)."""
        if not self.terms:
            return -1
        return max(sum(e[i] for i in var_indices) for e in self.terms)

    def is_homogeneous_in(self, var_indices, degree=None) -> bool:
        degs = {sum(e[i] for i in var_indices) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return True if degree is None else degs == {degree}

    def evaluate(self, point):
        point = [rat(x) for x in point]
        total = Fraction(0)
        for exps, coef in self.terms.items():
            term = coef
            for x, e in zip(point, exps):
                if e:
                    if not x:
                        term = Fraction(0)
                        break
                    term *= x ** e
            total += term
        return total

    def evaluate_float(self, point) -> float:
        total = 0.0
        for exps, coef in self.terms.items():
            term = float(coef)
            for x, e in zip(point, exps):
                if e:
                    term *= float(x) ** e
            total += term
        return total

    def substitute(self, images):
        """Full substitution: variable i is replaced by images[i] (a Poly).

        All images must share one variable space, which becomes the result's.
        Runs on integer numerators: the coefficients and each cached image
        power are cleared of denominators once, and the terms are summed in
        one dict over their common denominator, which only scales every
        partial sum by a positive integer (same cancellations, same key order
        as summing the ``Fraction`` terms one by one).
        """
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nv = images[0].nvars
        coefs, den = clear_denominators(self.terms.values())
        cache = {}
        terms = []
        for exps, coef in zip(self.terms, coefs):
            # the term's numerators over den times its powers' denominators
            term, term_den = {(0,) * nv: coef}, den
            for i, e in enumerate(exps):
                if e:
                    if (i, e) not in cache:
                        power = images[i] ** e
                        ints, power_den = clear_denominators(power.terms.values())
                        cache[(i, e)] = list(zip(power.terms, ints)), power_den
                    items, power_den = cache[(i, e)]
                    term = _int_product(term.items(), items)
                    term_den *= power_den
            terms.append((term, term_den))
        common = math.lcm(*[d for _, d in terms])
        out = {}
        for term, term_den in terms:
            scale = common // term_den
            for key, val in term.items():
                accumulate(out, key, val * scale)
        return Poly._raw(nv, {e: Fraction(v, common) for e, v in out.items()})

    def extend(self, new_nvars, offset=0):
        """Embed into a larger variable space, shifting variables by offset."""
        pad = new_nvars - offset - self.nvars
        if offset < 0 or pad < 0:
            raise ValueError(f"cannot embed {self.nvars} variables at offset {offset} into {new_nvars}")
        head, tail = (0,) * offset, (0,) * pad
        return Poly._raw(new_nvars, {head + exps + tail: coef for exps, coef in self.terms.items()})

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact quotient self / divisor; raises NotPolynomialError otherwise.

        Single-divisor long division under the graded-lex order; for a true
        multiple the remainder vanishes, for anything else it does not.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly.zero(self.nvars)

        def order_key(exps):
            return (sum(exps), exps)

        lead_d = max(divisor.terms, key=order_key)
        cd = divisor.terms[lead_d]
        rem = dict(self.terms)
        quot = {}
        while rem:
            lead_r = max(rem, key=order_key)
            diff = tuple(a - b for a, b in zip(lead_r, lead_d))
            if any(d < 0 for d in diff):
                raise NotPolynomialError("division left a remainder")
            c = rem[lead_r] / cd
            accumulate(quot, diff, c)
            for e2, c2 in divisor.terms.items():
                accumulate(rem, tuple(a + b for a, b in zip(diff, e2)), -c * c2)
        return Poly._raw(self.nvars, quot)

    # -- presentation -------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for exps, coef in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e)
            bits.append(f"{coef}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"

    def to_json(self, var_names=None):
        names = var_names or [f"x{i}" for i in range(self.nvars)]
        if len(names) != self.nvars:
            raise ValueError("need one name per variable")
        terms = [
            {"exps": list(exps), "coef": format_rational(coef)}
            for exps, coef in sorted(self.terms.items())
        ]
        return {"vars": list(names), "terms": terms}

    @classmethod
    def from_json(cls, obj):
        r = JsonValue.of(obj, "polynomial")
        nvars = len(r.sequence("vars"))
        terms = {}
        for term in r.items("terms"):
            exps = term.integers("exps", nvars, low=0)
            if exps in terms:
                raise term.error("exps not listed before", "exps")
            terms[exps] = term.rational("coef")
        return cls._raw(nvars, {exps: coef for exps, coef in terms.items() if coef})


# ---------------------------------------------------------------------------
# rational functions with one adjoined square root

class SqrtElem:
    """(P + Q*s)/D with s**2 = base, over a fixed polynomial base.

    D is a nonzero polynomial; the base is shared by all elements entering an
    arithmetic operation.  No gcd normalization is performed: zero testing
    never needs it, and sizes stay small at this package's scale.  A sum of
    two elements with equal D keeps that D; only unequal denominators are
    cross-multiplied.  So the P, Q and D of a result depend on how it was
    summed, up to a common polynomial factor; its value, ``is_zero`` and
    ``as_poly`` do not.
    """

    __slots__ = ("P", "Q", "D", "base")

    def __init__(self, P: Poly, Q: Poly, D: Poly, base: Poly):
        if D.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.P, self.Q, self.D, self.base = P, Q, D, base

    @classmethod
    def from_poly(cls, p: Poly, base: Poly):
        nv = p.nvars
        return cls(p, Poly.zero(nv), Poly.const(nv, 1), base)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.P.nvars, other)
        if isinstance(other, Poly):
            other = SqrtElem.from_poly(other, self.base)
        if self.base != other.base:
            raise ValueError("square-root base mismatch")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if self.D == other.D:
            return SqrtElem(self.P + other.P, self.Q + other.Q, self.D, self.base)
        return SqrtElem(
            self.P * other.D + other.P * self.D,
            self.Q * other.D + other.Q * self.D,
            self.D * other.D,
            self.base,
        )

    def __neg__(self):
        return SqrtElem(-self.P, -self.Q, self.D, self.base)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return SqrtElem(
            self.P * other.P + self.Q * other.Q * self.base,
            self.P * other.Q + self.Q * other.P,
            self.D * other.D,
            self.base,
        )

    def __pow__(self, k):
        return _power(self, k, SqrtElem.from_poly(Poly.const(self.P.nvars, 1), self.base))

    def diff(self, i: int) -> "SqrtElem":
        """Partial derivative; ds/dx_i = (d base/dx_i) / (2 s)."""
        S = self.base
        Si = S.diff(i)
        # d(P + Q s) = (2 S P_i + (2 S Q_i + Q Si) s) / (2 S), then the quotient rule
        numP = S.scale(2) * self.P.diff(i)
        numQ = S.scale(2) * self.Q.diff(i) + self.Q * Si
        P_out = numP * self.D - S.scale(2) * self.P * self.D.diff(i)
        Q_out = numQ * self.D - S.scale(2) * self.Q * self.D.diff(i)
        D_out = S.scale(2) * self.D * self.D
        return SqrtElem(P_out, Q_out, D_out, self.base)

    def is_zero(self) -> bool:
        return self.P.is_zero() and self.Q.is_zero()

    def as_poly(self) -> Poly:
        """Exact polynomial value, when the element is one."""
        if not self.Q.is_zero():
            raise NotPolynomialError("value has an irrational part")
        return self.P.exact_div(self.D)

    def evaluate_float(self, point) -> float:
        s = math.sqrt(self.base.evaluate_float(point))
        return (self.P.evaluate_float(point) + self.Q.evaluate_float(point) * s) / self.D.evaluate_float(point)

    def __repr__(self):
        return f"SqrtElem(P={self.P!r}, Q={self.Q!r}, D={self.D!r})"
