"""The real locus of the j-invariant.

j takes every real value exactly once on the union of two curves: the
imaginary axis from i upward (values from 1728 to +infinity, increasing) and
the vertical line at real part 1/2 (values from 1728 down to -infinity,
decreasing). A CM point has real j exactly when its reduced form is
ambiguous, and the unique locus point with the same j is read off the reduced
form: such a point lies on the axis, on the line, or on the unit arc, which
tau -> tau/(tau + 1) carries onto the line.
"""

import math

from cmparity import (
    TauExact,
    axis_curve,
    f_curve,
    is_real_j,
    j_numeric,
    reduce_fundamental,
    t_representative,
)

print("== the two branch functions ==")
print("  axis branch (increasing):")
for t in (1.0, math.sqrt(2), math.sqrt(3), 2.0):
    print(f"    j(i*{t:.4f}) = {axis_curve(t):,.3f}")
print("  line branch (decreasing):")
for t in (0.5, math.sqrt(3) / 2, math.sqrt(7) / 2, math.sqrt(15) / 2, 2.0):
    print(f"    j(1/2 + i*{t:.4f}) = {f_curve(t):,.3f}")

print()
print("== reduction to the fundamental domain ==")
for triple in ((1, -3, 3), (25, 0, 9), (3, -3, 2)):
    reduced, matrix = reduce_fundamental(TauExact(*triple))
    print(f"  {triple} -> ({reduced.a},{reduced.b},{reduced.c}) via {matrix}")

print()
print("== which points have real j? ==")
for triple in ((1, 0, 1), (3, -3, 2), (3, 1, 5), (2, 1, 3)):
    t = TauExact(*triple)
    real = is_real_j(t)
    line = f"  {triple}: disc={t.disc:>4} real={real}"
    if real:
        rep = t_representative(t)
        line += f"  -> locus point {rep.branch}, t={rep.t:.9f}"
    else:
        line += f"  (j = {j_numeric(complex(t)):.3f})"
    print(line)
