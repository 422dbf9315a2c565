"""Restriction and transfer between a group and its subgroups."""
import numpy as np

from cohlat import GroupCohomology, builtin_group, subgroup_classes
from cohlat.cohomology import SubgroupLink
from cohlat.criterion import transfer_cup_image, transfer_cup_span

g = builtin_group("D4")
gc = GroupCohomology(g, 3)

# restriction then transfer multiplies by the index, so mod 2 it kills
# everything coming from a proper subgroup
for sub in subgroup_classes(g):
    link = SubgroupLink(gc, sub, max_degree=2)
    v = np.eye(gc.h_dim(1), dtype=np.int64)[0]
    back = link.transfer(1, link.restrict(1, v))
    print(f"subgroup order {sub.order}: index {g.order // sub.order}, "
          f"transfer(restrict(x)) = {back.tolist()}")

# transfers of products from one subgroup span part of degree 3
sub = next(s for s in subgroup_classes(g) if s.order == 4)
span, term = transfer_cup_image(gc, sub)
print("\none order-4 subgroup contributes a span of dim", span.dim,
      "inside dim", gc.h_dim(3))

# the full span over every subgroup class
span, terms = transfer_cup_span(gc)
print("all classes together:", span.dim, "of", gc.h_dim(3))
for t in terms:
    print(f"  order {t.order:2d} index {t.index:2d}  "
          f"dim H^1 = {t.h1_dim}  contributed dim {t.span_dim}")
