"""Every quadratic first integral of q'' = f(q), from one exact kernel.

The direct method: a first integral G = T + V of velocity degree at most 2
has a Killing tensor of the chart as its leading term T, and a potential
part V in x alone.  dG/dt = 0 is linear in their coefficients, so one exact
kernel holds every such integral.  The leading terms span a subspace of the
curvature-type forms on R^{n+1}: its dimension, the leading-term rank, is
the kernel dimension less the constant integral.  A row w1:w2 is the
oscillator f = (-w1^2 x1, -w2^2 x2).
"""

from fractions import Fraction

from projdyn import compat as cp
from projdyn.exactlin import SparseEchelon


def oscillator(*omegas):
    n = len(omegas)
    return cp.SecondOrderSystem(n, [cp.xvar(i, n).scale(-Fraction(w) ** 2) for i, w in enumerate(omegas)])


systems = [
    ("free, n = 2", cp.SecondOrderSystem.free(2)),
    ("free, n = 3", cp.SecondOrderSystem.free(3)),
    ("isotropic, n = 2", cp.SecondOrderSystem.oscillator(2)),
    ("isotropic, n = 3", cp.SecondOrderSystem.oscillator(3)),
    ("1:2", oscillator(1, 2)),
    ("1:3", oscillator(1, 3)),
    ("1:2:3", oscillator(1, 2, 3)),
]

print("1. Kernel dimension and leading-term rank:")
print(f"   {'system':<18}{'kernel dim':>12}{'leading-term rank':>20}")
for name, system in systems:
    integrals = cp.quadratic_integrals(system)
    leading = SparseEchelon()
    for integral in integrals:
        leading.insert(integral.T.terms)
    print(f"   {name:<18}{len(integrals):>12}{leading.rank:>20}")

print()
print("2. The integrals of the 1:2 oscillator (x0, x1 the positions, x2, x3")
print("   the velocities), each leading term sent through the screen finder:")
for integral in cp.quadratic_integrals(oscillator(1, 2)):
    verdict = "constant" if integral.T.is_zero() else integral.hamiltonian_test().verdict
    print(f"   G = {integral.G}  ->  {verdict}")
