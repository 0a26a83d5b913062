"""Classifying linear maps that preserve decomposable bivectors.

Wedge squares of linear maps always preserve decomposability; generic maps
in dimension four and higher essentially never do.  The classifier returns
an exact witness for every case: a common wedge factor, a common
contraction annihilator, the square root of a wedge square, or (only in
dimension four) a square root after composing with the volume pairing.
"""

import random
from fractions import Fraction

from projdyn.curvclass import (
    BivectorMap,
    CurvatureForm,
    classify_bivector_map,
    classify_curvature_form,
    curvature_from_symmetric_map,
    metric_form_tensor,
    pair_basis,
    preserves_decomposables,
)

rng = random.Random(1)

print("A wedge square preserves decomposability and is recovered up to scale:")
B = [[1, 2, 0, 0], [0, 1, 0, 0], [3, 0, 1, 0], [0, 0, -1, 2]]
R = BivectorMap.wedge_square(B)
print("  preserves?", preserves_decomposables(R))
rep = classify_bivector_map(R)
print("  case:", rep.case, "| epsilon:", rep.witnesses["epsilon"],
      "| scale:", rep.witnesses["scale"])

print()
print("A random map on a 4-dimensional space fails the biquadratic identity:")
prs = pair_basis(4)
M = [[Fraction(rng.randint(-3, 3)) for _ in prs] for _ in prs]
print("  preserves?", preserves_decomposables(BivectorMap(4, 4, M)))

print()
print("The dimension-4 star composition is its own case:")
starred = BivectorMap.wedge_square(B).star_compose()
print("  case:", classify_bivector_map(starred).case)

print()
print("Curvature forms: a symmetric map of the dual generates one, and the")
print("classifier inverts the construction.")
G = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
form = curvature_from_symmetric_map(G)
print("  kernel trivial?", form.kernel() == [])
rep = classify_curvature_form(form)
print("  case:", rep.case, "| recovered metric (normalized):")
for row in rep.witnesses["B"]:
    print("   ", row)

print()
print("Dropping the rank by one moves to the flat case, the hyperplane")
print("direction spanning the kernel of the generator:")
G_deg = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
rep = classify_curvature_form(curvature_from_symmetric_map(G_deg))
print("  case:", rep.case, "| phi:", rep.witnesses["phi"], "| g:", rep.witnesses["g"])

print()
print("The Minkowski metric classifies with its own signature:")
rep = classify_curvature_form(CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, -1]])))
print("  case:", rep.case, "| B:", rep.witnesses["B"])
