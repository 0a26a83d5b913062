"""Layer timings of the P^{b,b} chain: the impulsion basis, the
pair-antisymmetric carrier and the time derivative along Kepler.

Times fixed seeded inputs for d = 3-4 and b = 1-3, each call on arguments
built outside the timer, and writes the medians and quartiles in ms:

* ``impulsion_poly_basis``: the basis of P^{b,b} in dimension d;
* ``from_poly.antisymmetric``: ``BiHomogeneousPoly.from_poly(R, d, b)
  .antisymmetric()`` on an integer combination of that basis, the chain of
  perfbench ``exact-chain`` (digested with the form's entries in key order);
* ``gdot``: a product of b impulsion coordinates p_ij with j < d - 1, summed
  over three such products, along the Kepler force centred on the last
  basis vector (conserved, so the result is zero), and p_0,d-1 along it
  (not conserved);
* ``homogenize_polynomial``: a velocity-quadratic screen term, the screen's
  kinetic term plus an integer combination of four products of two
  impulsion coordinates, on the flat screen, the sphere and the hyperboloid
  for d = 3-5 (digested with the result's terms in key order), and
  q0^30 v0^2 + q1^30 v1^2 / 3 on the sphere, which is not a polynomial
  (digested as its error);
* ``compat.hamiltonian_test``: the same terms for d = 3-4, and the term
  q0 v0 v1 on the flat screen, which is not a free integral.

Each input is seeded by SEED, d and b (or the screen); each time is the
median (and quartiles) of REPEATS calls.  The run loop, the result digests and the
report are those of ``benchrun.py``: the repeats go round all the cases,
and round every checkout named by ``--src``, in turn.

    python3 tools/bench_pbb.py                       # this checkout
    python3 tools/bench_pbb.py --src src --out BENCH_pbb.json --label "this change" \
        --src OTHER/src --out BENCH_pbb_parent.json --label "base"

``--src`` names a ``src`` directory that projdyn is imported from; the
default is the one beside this script.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction

import benchrun

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 61
SEED = 2027


def antisymmetric(R, d, b):
    """The carrier's tensor, in a list so that its entries are digested in
    key order."""
    from projdyn.polyintegrals import BiHomogeneousPoly

    return [BiHomogeneousPoly.from_poly(R, d, b).antisymmetric().tensor]


def homogenized_terms(T, screen):
    """The homogenized polynomial's terms in key order, or the error's repr."""
    from projdyn.polyintegrals import homogenize_polynomial
    from projdyn.polynomials import NotPolynomialError

    try:
        return list(homogenize_polynomial(T, screen).terms.items())
    except NotPolynomialError as exc:
        return repr(exc)


def screen_term(rng, screen):
    """The screen's kinetic term, half of w^T G w (w with the flat screen's
    last coordinate left out), plus a combination of impulsion products."""
    from projdyn import polyintegrals
    from projdyn.polynomials import Poly

    d = screen.dim
    w = [polyintegrals.vvar(i, d) for i in range(d)]
    if screen.kind == "linear":
        T = sum((w[i] * w[i] for i in range(d - 1)), Poly.zero(2 * d)).scale(Fraction(1, 2))
    else:
        g = screen.gmat_exact
        T = sum(((w[i] * w[j]).scale(g[i][j] / 2) for i in range(d) for j in range(d)), Poly.zero(2 * d))
    for p in rng.sample(polyintegrals.impulsion_poly_basis(d, 2), 4):
        T = T + p.scale(rng.randint(-3, 3) or 1)
    return T


def cases():
    """((function name, case label), function, make) tuples: make() builds
    the function's arguments fresh."""
    from projdyn import compat, polyintegrals, screens
    from projdyn.polynomials import Poly

    out = []
    for d in (3, 4):
        kepler = screens.kepler_force(1.0, [0.0] * (d - 1) + [1.0])
        conserved = [(i, j) for i, j in itertools.combinations(range(d), 2) if j < d - 1]
        for b in (1, 2, 3):
            rng = random.Random(SEED * 100 + 10 * d + b)
            label = f"d{d}_b{b}"
            basis = polyintegrals.impulsion_poly_basis(d, b)
            R = Poly.zero(2 * d)
            for p in basis:
                R = R + p.scale(rng.randint(-3, 3) or 1)
            G = Poly.zero(2 * d)
            for _ in range(3):
                term = Poly.const(2 * d, rng.randint(1, 3))
                for pair in (rng.choice(conserved) for _ in range(b)):
                    term = term * polyintegrals.plucker(d, *pair)
                G = G + term
            moving = polyintegrals.plucker(d, 0, d - 1)
            out.append(("impulsion_poly_basis", label, polyintegrals.impulsion_poly_basis, lambda d=d, b=b: (d, b)))
            out.append(("from_poly.antisymmetric", label, antisymmetric, lambda R=R, d=d, b=b: (R, d, b)))
            out.append(("gdot", f"kepler_conserved_{label}", polyintegrals.gdot, lambda G=G, f=kepler: (G, f)))
        out.append(("gdot", f"kepler_moving_d{d}", polyintegrals.gdot, lambda G=moving, f=kepler: (G, f)))
    for d in (3, 4, 5):
        for name in ("flat", "sphere", "hyperboloid"):
            screen = screens.screen_from_json({"kind": name, "dim": d})
            T = screen_term(random.Random(f"{SEED} {name} {d}"), screen)
            out.append(("homogenize_polynomial", f"{name}_d{d}", homogenized_terms, lambda T=T, s=screen: (T, s)))
            if d < 5:
                out.append(("compat.hamiltonian_test", f"{name}_d{d}", compat.hamiltonian_test,
                            lambda T=T, s=screen: (T, s)))
    q, v = [polyintegrals.qvar(i, 3) for i in range(3)], [polyintegrals.vvar(i, 3) for i in range(3)]
    high = q[0] ** 30 * v[0] ** 2 + (q[1] ** 30 * v[1] ** 2).scale(Fraction(1, 3))
    out.append(("homogenize_polynomial", "sphere_d3_not_polynomial", homogenized_terms,
                lambda T=high, s=screens.sphere_screen(3): (T, s)))
    out.append(("compat.hamiltonian_test", "flat_d3_not_free", compat.hamiltonian_test,
                lambda T=q[0] * v[0] * v[1], s=screens.flat_screen(3): (T, s)))
    return [((name, label), fn, make) for name, label, fn, make in out]


if __name__ == "__main__":
    benchrun.main("tools/bench_pbb.py", __doc__, cases, REPEATS, SEED, os.path.join(HERE, os.pardir, "BENCH_pbb.json"))
