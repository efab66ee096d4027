#!/usr/bin/env python3
"""The row-span criterion: distinct fiber points generate the fiber power.

Write two fiber points of the degree-25 cover side by side as the columns
of a 5-by-2 matrix of group elements.  Each row has entries in one class,
so it lies in the fiber square S5 x_{C2} S5 (order 7200).  The subgroup
generated by the five rows is the whole fiber square exactly when the two
points differ; a repeated point only ever spans the diagonal copy of S5.
This demo spot-checks a few pairs; the test suite sweeps all 625.
"""

import hurwitz as hw
from hurwitz.io import load_group_file, resolve_reference

S5 = load_group_file(resolve_reference("S5", "groups"))
classes = S5.conjugacy_classes()
c2 = next(c for c in classes if c.cycle_type() == (2, 1, 1, 1))
c5 = next(c for c in classes if c.cycle_type() == (5,))
h = hw.validate_parameter(S5, [c2, c5], [4, 1])
fiber = hw.build_fiber(h, "aut")
pts = fiber.points()

power = hw.FiberPowerGroup(S5, 2)
print(f"fiber square of S5: order {power.order} on {power.realized.degree} points")

# the preconditions (pseudosimple group, classes safe) are checked once here
check = hw.row_span_checker(h, 2)
for i, j in ((0, 1), (3, 17), (24, 0), (5, 5), (0, 0)):
    full = check([pts[i], pts[j]])
    kind = "distinct" if i != j else "repeated"
    print(f"points ({i:2}, {j:2}) [{kind:8}]: rows span the fiber square = {full}")
