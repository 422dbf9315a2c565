"""Integer lattices with a group action: squares, covers, obstructions."""
import numpy as np

from cohlat import builtin_group
from cohlat.lattices import (GLattice, alpha_image, build_mnq,
                             builtin_lattice, coflasque_resolution,
                             exterior_ses, gamma2, h1_integral, lambda2,
                             lambda2_regular_decomposition, phi,
                             two_slot_extension)

v4 = builtin_group("V4")

# exterior and divided squares of the regular lattice
reg = GLattice.regular(v4)
print("regular rank", reg.rank,
      " wedge rank", lambda2(reg).rank,
      " divided-square rank", gamma2(reg).rank)

# the square sequence 0 -> L/2 -> divided -> wedge -> 0 really is exact
exterior_ses(reg).verify()
print("square sequence verifies")

# the two-slot sum map: kernel, image, and the rank of its cokernel M
data = build_mnq(v4)
ses = two_slot_extension(data)
print("sum map: kernel rank", ses.sub.rank,
      " image rank", ses.quo.rank,
      " M rank", data.m_rank, "= (n-1)^2 =", (v4.order - 1) ** 2,
      " torsion free:", data.m_torsion_free)

# M itself is built in closed form, as J (x) J for J = Z[G]/Z.N
m = builtin_lattice("M", v4)

# integral degree-one cohomology of lattices, by Smith reduction
print("H^1 of M:", h1_integral(v4, m),
      "  of the sign lattice:", h1_integral(builtin_group("C2"),
                                            GLattice.sign_lattice(
                                                builtin_group("C2"))))

# the connecting map of the square sequence can be nonzero: V4's M is the
# smallest case
print("alpha image on M:", alpha_image(m))

# the top-down coflasque cover of V4's M: rank 14 with a kernel of rank 5,
# re-verified coflasque on every subgroup class
res = coflasque_resolution(m)
print("coflasque cover rank", res.cover.rank,
      " kernel rank", res.kernel_lattice.rank)

# phi pipes the coflasque kernel through alpha; zero for tiny groups
print("phi(C4) =", phi(builtin_group("C4")))

# the wedge of a big regular lattice is handled by orbit bookkeeping, not
# dense matrices
dec = lambda2_regular_decomposition(builtin_group("sz8-sylow"))
print("order-64 wedge: involution orbits", len(dec.involutions),
      " pair orbits", len(dec.pair_reps), " rank", dec.rank)
