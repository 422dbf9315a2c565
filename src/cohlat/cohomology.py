"""Group cohomology with 2-power coefficients from minimal resolutions.

For a minimal resolution of a 2-group, mod-2 cochain differentials vanish,
so degree-i classes with F2 coefficients are plain vectors of length
ranks[i]. Products use chain lifts (composition product), connecting maps
use lifts of cochains to larger moduli. Chain maps are lifted over F2 on
the resolution's own boundaries and held as 0/1 uint8 matrices.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (BudgetExceeded, DegreeOutOfRange, IncompatibleOperands,
                     InternalInvariant, ModulusTooSmall, NotA2Group)
from .groups import FiniteGroup, Subgroup
from .linalg import (HowellForm, Subspace, kernel_basis_modk,
                     modk_quotient_invariant_factors)
from .resolution import (MAX_RESOLUTION_DEGREE, _lift, extend_resolution,
                         lift_chain_map, minimal_resolution, restrict_complex)

BAR_MAX_ENTRIES = 70000    # |G|^(degree + 1) cap on the bar-complex oracle


def default_modulus_exp(group: FiniteGroup) -> int:
    """v2(|G|) + 1: enough headroom for every integral Bockstein we take."""
    n = group.order
    v = (n & -n).bit_length() - 1
    return v + 1


def _class_vector(vec, dim: int) -> np.ndarray:
    """A mod-2 class vector of length dim, reduced mod 2."""
    out = np.asarray(vec, dtype=np.int64) % 2
    if out.shape != (dim,):
        raise IncompatibleOperands(
            f"class vector has shape {out.shape}, expected ({dim},)")
    return out


class GroupCohomology:
    """Cohomology of one finite 2-group up to a fixed degree.

    `max_degree` is a validated ceiling, not a work order: the resolution
    is deepened on demand to the degree each reader needs.
    """

    def __init__(self, group: FiniteGroup, max_degree: int,
                 modulus_exp: Optional[int] = None):
        if not group.is_2group:
            raise NotA2Group(f"group of order {group.order} is not a 2-group")
        self.group = group
        self.max_degree = max_degree
        self.k = modulus_exp if modulus_exp is not None \
            else default_modulus_exp(group)
        if self.k < default_modulus_exp(group):
            raise ModulusTooSmall(
                f"need modulus exponent >= {default_modulus_exp(group)} "
                f"for order {group.order}")
        if max_degree > MAX_RESOLUTION_DEGREE:
            raise BudgetExceeded(
                f"resolution degree {max_degree} > {MAX_RESOLUTION_DEGREE}")
        self.res = minimal_resolution(group, self.k, 0)
        self._deltas: Dict[Tuple[int, int], np.ndarray] = {}

    @property
    def dims(self) -> List[int]:
        """dim H^i(G, F2) for i = 0..max_degree."""
        self._reach(self.max_degree)
        return list(self.res.ranks[: self.max_degree + 1])

    def h_dim(self, degree: int) -> int:
        self._check_degree(degree)
        return self.res.ranks[degree]

    def _check_degree(self, degree: int, slack: int = 0):
        """Validate a read of degree..degree+slack and build up to it."""
        if not 0 <= degree <= self.max_degree - slack:
            raise DegreeOutOfRange(
                f"degree {degree} outside 0..{self.max_degree - slack}")
        self._reach(degree + slack)

    def _reach(self, degree: int):
        """Deepen res in place to at least `degree`."""
        if self.res.top_degree < degree:
            extend_resolution(self.res, degree)

    def _check_modulus(self, m_exp: int):
        """Coefficients Z/2^m_exp need 1 <= m_exp <= the resolution's k."""
        if m_exp < 1:
            raise IncompatibleOperands(f"modulus exponent {m_exp} below 1")
        if m_exp > self.k:
            raise ModulusTooSmall(
                f"coefficients mod 2^{m_exp} need a resolution modulus "
                f"exponent >= {m_exp}, not {self.k}")

    def delta(self, degree: int, m_exp: int) -> np.ndarray:
        """Cochain differential matrix: delta(phi) = phi @ delta."""
        self._check_degree(degree, slack=1)
        self._check_modulus(m_exp)
        return self._delta_matrix(degree, m_exp)

    def _delta_matrix(self, degree: int, m_exp: int) -> np.ndarray:
        key = (degree, m_exp)
        d = self._deltas.get(key)
        if d is None:
            res = self.res
            rows = res.boundaries[degree + 1][res.gen_coords(degree + 1)]
            d = res.block_augment(degree, rows, two_exp=m_exp).T.copy()
            self._deltas[key] = d
        return d

    def check_minimal(self) -> bool:
        """Mod-2 differentials of a minimal resolution all vanish."""
        return not any(self.delta(i, 1).any()
                       for i in range(self.max_degree))

    def cohomology_invariants(self, degree: int, m_exp: int) -> List[int]:
        """H^degree(G, Z/2^m) as a list of invariant factors."""
        self._check_degree(degree)
        self._check_modulus(m_exp)
        if m_exp == 1:
            # minimality: the outgoing differential vanishes mod 2
            rank = self.res.ranks[degree]
            ker = HowellForm(np.eye(rank, dtype=np.int64),
                             [(i, 0) for i in range(rank)], 1)
        else:
            # above modulus 2 the outgoing differential matters; at the top
            # degree this deepens the resolution one step past max_degree
            self._reach(degree + 1)
            ker = kernel_basis_modk(self._delta_matrix(degree, m_exp), m_exp)
        if degree == 0:
            im = np.zeros((0, self.res.ranks[0]), dtype=np.int64)
        else:
            im = self._delta_matrix(degree - 1, m_exp)
        return modk_quotient_invariant_factors(ker, im, m_exp)

    # -- products ---------------------------------------------------------

    def cochain_lift(self, degree: int, vec: np.ndarray, steps: int
                     ) -> List[np.ndarray]:
        """Chain maps c[j]: P_(degree+j) -> P_j over F2 lifting the cochain.

        c[0] sends each degree-`degree` generator to vec[s] times the
        augmentation generator; the block augmentation of c[0] is vec again.
        """
        f, top = self._lift_cochain(degree, vec, steps)
        return f + [self.res.extend_rows(degree + steps, top, self.res, steps)]

    def _lift_cochain(self, degree: int, vec: np.ndarray, steps: int
                      ) -> Tuple[List[np.ndarray], np.ndarray]:
        """c[0..steps-1] and the generator rows of c[steps]."""
        if steps < 0:
            raise DegreeOutOfRange(f"negative lift length {steps}")
        self._check_degree(degree, slack=steps)
        res = self.res
        start = np.zeros((res.ranks[degree], res.dims[0]), dtype=np.uint8)
        start[:, res.gen_coords(0)[0]] = _class_vector(vec, res.ranks[degree])
        return _lift(res, degree, res, start, steps)

    def cup_map(self, a_deg: int, b_deg: int, b: np.ndarray) -> np.ndarray:
        """Matrix of a -> a . b from H^a_deg to H^(a_deg+b_deg), F2 classes,
        of shape (dim H^(a_deg+b_deg), dim H^a_deg).

        The cochain b is lifted through a_deg steps; the last step solves
        for the generator rows only, which is all the product reads.
        """
        _, top = self._lift_cochain(b_deg, b, a_deg)
        return self.res.block_augment(a_deg, top, two_exp=1)

    def cup(self, a_deg: int, a: np.ndarray, b_deg: int, b: np.ndarray
            ) -> np.ndarray:
        """Product of mod-2 classes, a vector in H^(a_deg+b_deg)(G, F2)."""
        mat = self.cup_map(a_deg, b_deg, b)
        return mat @ _class_vector(a, mat.shape[1]) % 2

    # -- connecting maps ---------------------------------------------------

    def bockstein(self, degree: int, vec: np.ndarray, m_exp: int
                  ) -> np.ndarray:
        """Connecting map of 0 -> Z/2^m -> Z/2^(m+1) -> Z/2 -> 0.

        Takes a mod-2 cocycle vector in degree `degree`, returns a cocycle
        vector mod 2^m in degree + 1.
        """
        self._check_degree(degree, slack=1)
        self._check_modulus(m_exp)
        vec = _class_vector(vec, self.res.ranks[degree])
        # delta checks that the resolution reaches Z/2^(m_exp + 1)
        up = vec @ self.delta(degree, m_exp + 1) % (1 << (m_exp + 1))
        if (up % 2).any():
            raise IncompatibleOperands("input is not a mod-2 cocycle")
        return (up >> 1) % (1 << m_exp)

    def sq1(self, degree: int, vec: np.ndarray) -> np.ndarray:
        """First Steenrod square = mod-2 Bockstein."""
        return self.bockstein(degree, vec, 1)

    def _basis_bocksteins(self, degree: int, m_exp: int) -> np.ndarray:
        """Bocksteins to Z/2^m_exp of H^degree's basis classes, as rows.

        Row i of delta(degree, m_exp + 1) is the coboundary of basis cochain
        i; it vanishes mod 2 on a minimal resolution, and its half is that
        class's Bockstein.
        """
        d = self.delta(degree, m_exp + 1)
        if (d & 1).any():
            raise InternalInvariant(
                f"odd differential in degree {degree}: not minimal")
        return d >> 1

    def sq1_image(self, degree: int) -> Subspace:
        """Image of Sq1: H^(degree-1) -> H^degree with F2 coefficients."""
        self._check_degree(degree)
        dim = self.res.ranks[degree]
        if degree == 0 or dim == 0:
            return Subspace.zero(dim)
        return Subspace.span(self._basis_bocksteins(degree - 1, 1), dim)

    def integral_reduction_image(self, degree: int) -> Subspace:
        """Image of H^degree(G, Z) -> H^degree(G, F2).

        A mod-2 class comes from an integral class exactly when its
        Bockstein to Z/|G| coefficients vanishes; that kernel is computed
        through one augmented-kernel pass mod |G|. In degree 0 the map
        Z -> F2 is onto for every G.
        """
        self._check_degree(degree, slack=1)
        r = self.res.ranks[degree]
        if r == 0:
            return Subspace.zero(0)
        if degree == 0:
            return Subspace.span([[1]], 1)
        k0 = default_modulus_exp(self.group) - 1  # 2^k0 = |G|
        stacked = np.vstack([self._basis_bocksteins(degree, k0),
                             self.delta(degree, k0)])
        ker = kernel_basis_modk(stacked, k0).matrix
        return Subspace.span(ker[:, :r] % 2, r)


class SubgroupLink:
    """Restriction and transfer between a group and one subgroup.

    Comparison chain maps run between the restricted resolution P|_H and
    H's own minimal resolution Q, with F2 coefficients: u: P|_H -> Q for
    transfer, lifted here, and v: Q -> P|_H for restriction, lifted on the
    first read of `v`. Each read is a fixed linear map per degree; the
    link builds its matrix on the first read of that degree and holds it.
    """

    def __init__(self, parent: GroupCohomology, sub: Subgroup,
                 max_degree: Optional[int] = None):
        if sub.parent != parent.group:
            raise IncompatibleOperands("subgroup belongs to another group")
        self.parent = parent
        self.sub = sub
        self.max_degree = max_degree if max_degree is not None \
            else parent.max_degree
        if self.max_degree > parent.max_degree:
            raise DegreeOutOfRange("link degree exceeds the parent's")
        hgrp, self.to_global = sub.as_group()
        self.hco = GroupCohomology(hgrp, self.max_degree,
                                   modulus_exp=parent.k)
        # the lifts read both complexes to max_degree, and the restricted
        # complex is a snapshot of the parent's, so both are built first
        parent._reach(self.max_degree)
        self.hco._reach(self.max_degree)
        self.ph2 = restrict_complex(parent.res, sub)
        q = self.hco.res
        u0 = np.zeros((self.ph2.ranks[0], q.dims[0]), dtype=np.uint8)
        u0[:, q.gen_coords(0)[0]] = 1
        self.u = lift_chain_map(self.ph2, q, u0, self.max_degree)
        self._v: Optional[List[np.ndarray]] = None
        self._left_inv_reps = parent.group.inv[sub.coset_reps()]
        self._res_mats: Dict[int, np.ndarray] = {}
        self._cor_mats: Dict[int, np.ndarray] = {}

    @property
    def v(self) -> List[np.ndarray]:
        """The comparison map Q -> P|_H, lifted on first use."""
        if self._v is None:
            q = self.hco.res
            v0 = np.zeros((q.ranks[0], self.ph2.dims[0]), dtype=np.uint8)
            v0[0, self.ph2.gen_coords(0)[0]] = 1
            self._v = lift_chain_map(q, self.ph2, v0, self.max_degree)
        return self._v

    def restrict(self, degree: int, vec: np.ndarray) -> np.ndarray:
        """res: H^degree(G, F2) -> H^degree(H, F2)."""
        self.hco._check_degree(degree)  # the link's ceiling
        vec = _class_vector(vec, self.parent.res.ranks[degree])
        mat = self._res_mats.get(degree)
        if mat is None:
            gen_rows = self.v[degree][self.hco.res.gen_coords(degree)]
            mat = self.parent.res.block_augment(degree, gen_rows, two_exp=1)
            self._res_mats[degree] = mat
        return mat @ vec % 2

    def transfer(self, degree: int, vec: np.ndarray) -> np.ndarray:
        """cor: H^degree(H, F2) -> H^degree(G, F2).

        The H-linear cochain b o u is summed over inverse left-coset
        representatives: (cor f)(p) = sum_j f(g_j^-1 p). As a matrix, the
        rows of u at the summed coordinates, added over the cosets and then
        over each generator block of H's resolution.
        """
        vec = _class_vector(vec, self.hco.h_dim(degree))
        mat = self._cor_mats.get(degree)
        if mat is None:
            n = self.parent.group.order
            rank = self.parent.res.ranks[degree]
            cols = (np.arange(rank, dtype=np.int64)[:, None] * n
                    + self._left_inv_reps[None, :])
            summed = self.u[degree][cols].sum(axis=1, dtype=np.int64)
            mat = self.hco.res.block_augment(degree, summed, two_exp=1)
            self._cor_mats[degree] = mat
        return mat @ vec % 2

# ---------------------------------------------------------------------------
# Independent cross-check: unnormalized bar cochains
# ---------------------------------------------------------------------------


def _bar_delta(group: FiniteGroup, i: int) -> np.ndarray:
    """Differential from functions on G^i to functions on G^(i+1).

    Trivial coefficients, so the usual alternating face sum with the first
    and last faces dropping an argument.
    """
    n = group.order
    t = group.table
    dom = n ** i
    cod = n ** (i + 1)
    d = np.zeros((dom, cod), dtype=np.int64)
    for col in range(cod):
        tup = []
        x = col
        for _ in range(i + 1):
            tup.append(x % n)
            x //= n
        tup.reverse()  # tup[0] is the leftmost argument

        def pack(seq):
            out = 0
            for s in seq:
                out = out * n + s
            return out

        d[pack(tup[1:]), col] += 1
        sign = -1
        for j in range(i):
            merged = tup[:j] + [int(t[tup[j], tup[j + 1]])] + tup[j + 2:]
            d[pack(merged), col] += sign
            sign = -sign
        d[pack(tup[:-1]), col] += sign
    return d


def bar_cohomology_invariants(group: FiniteGroup, degree: int,
                              m_exp: int) -> List[int]:
    """H^degree(G, Z/2^m) straight from the bar complex.

    No resolutions, no minimality: an independent (and much larger)
    computation for cross-checking small groups.
    """
    if group.order ** (degree + 1) > BAR_MAX_ENTRIES:
        raise BudgetExceeded("bar complex too large for this group/degree")
    ker = kernel_basis_modk(_bar_delta(group, degree), m_exp)
    if degree == 0:
        im = np.zeros((0, 1), dtype=np.int64)
    else:
        im = _bar_delta(group, degree - 1) % (1 << m_exp)
    return modk_quotient_invariant_factors(ker, im, m_exp)
