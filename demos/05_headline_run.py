"""The order-64 run: a degree-3 class no transferred product reaches.

Takes about a second; the other demos take well under one.
"""
import json

import numpy as np

from cohlat import (CriterionConfig, GroupCohomology, builtin_group,
                    evaluate_criterion)
from cohlat.linalg import Subspace

g = builtin_group("sz8-sylow")
report = evaluate_criterion(g, CriterionConfig(which="b"))

print("dim H^0..H^3:", report.h_dims)
print("span of transferred products:", report.transfer_span_dim)
print("span of triple products:", report.triple_cup_span_dim)
print("dim Im Sq1 in degree 3:", report.sq1_image_dim)
print("criterion (b):", report.criterion_b)
print("witness class:", report.witness_b)

# check the witness by hand: it is hit by Sq1 and missed by the span
gc = GroupCohomology(g, 4)
w = np.array(report.witness_b, dtype=np.int64)
span = (Subspace.span(np.array(report.transfer_span_basis), gc.h_dim(3))
        if report.transfer_span_basis else Subspace.zero(gc.h_dim(3)))
print("witness in Im Sq1:", gc.sq1_image(3).contains_vector(w),
      " witness in the span:", span.contains_vector(w))

# per-subgroup bookkeeping comes back with the report
small = [t for t in report.subgroups if t.order <= 4]
print(len(report.subgroups), "subgroup classes;",
      sum(t.span_dim for t in report.subgroups), "total span dims;",
      len(small), "classes of order <= 4")

# the same run through the command line:
#   cohlat criterion --group builtin:sz8-sylow --which b --output json
print("\nreport as JSON keys:", sorted(report.to_dict().keys()))
