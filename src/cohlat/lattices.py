"""Integral representations: exterior squares, marginal quotients, coflasque
covers, and images of the two-torsion connecting map.

Conventions. Lattice elements are integer column vectors; the action matrix
of g satisfies A(gh) = A(g) A(h). Where a module mixes free and two-torsion
coordinates (the divided-square construction), a boolean mask marks the
torsion coordinates and arithmetic on masked rows is read mod 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (BudgetExceeded, CoflasquenessCheckFailed,
                     IncompatibleOperands, InternalInvariant,
                     NotRankOneKernel, ValidationError)
from .groups import FiniteGroup, Subgroup, cayley_tree, subgroup_classes
from .linalg import (GF2Matrix, IntSolver, Subspace, _abs_max, f2_product,
                     int_left_kernel, int_spans_equal, invariant_factors,
                     kernel_basis_modk, modk_quotient_invariant_factors,
                     quotient_invariant_factors, row_hnf)

MAX_DENSE_RANK = 1200
H1_MAX_RANK = 300
# phi reaches every built-in up to this order: the top-down coflasque cover
# stays under H1_MAX_RANK there (rank 256 at most, on D8 and Q16), and an
# order-16 phi takes 0.5-1.6 s on one core
ALPHA_MAX_ORDER = 16
ALPHA_MAX_WEDGE_COLUMNS = 4000   # alpha's fixed-point columns: rank(W) * gens


def _check_dense_rank(rank: int) -> None:
    """Raise before a dense lattice of this rank is built."""
    if rank > MAX_DENSE_RANK:
        raise BudgetExceeded(
            f"dense lattice rank {rank} exceeds {MAX_DENSE_RANK}")


def _exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over Z for integer matrices, bounds read off the operands: in
    int64 while max|a| * max|b| * (inner size) < 2^63, so no sum can wrap,
    else in Python ints; a product that leaves int64 raises ValidationError."""
    if _abs_max(a) * _abs_max(b) * a.shape[1] < 1 << 63:
        return a @ b
    out = a.astype(object) @ b.astype(object)
    if _abs_max(out) >= 1 << 63:
        raise ValidationError("products of action matrices leave int64")
    return out.astype(np.int64)


def _signable(rows: np.ndarray) -> np.ndarray:
    """The int64 rows, refused as _exact_product refuses them if an entry
    is -2^63: a sign leaves it at |entry| 2^63 (-1 wraps it to itself)."""
    if rows.min(initial=0) == np.iinfo(np.int64).min:
        raise ValidationError("products of action matrices leave int64")
    return rows


def _agree(x: np.ndarray, y: np.ndarray, mask: Optional[np.ndarray]) -> bool:
    """Whether x = y over Z, the rows under mask read mod 2. Nothing is
    subtracted, so nothing can wrap."""
    if mask is None:
        return np.array_equal(x, y)
    return (np.array_equal(x[~mask], y[~mask])
            and np.array_equal(x[mask] & 1, y[mask] & 1))


class GLattice:
    """Integral representation given by matrices for the group generators."""

    def __init__(self, group: FiniteGroup, gen_actions, *,
                 rank: Optional[int] = None, permutation: bool = False,
                 mod2_mask: Optional[np.ndarray] = None,
                 name: str = "", validate: bool = True):
        self.group = group
        gens = group.generators()
        if len(gen_actions) != len(gens):
            raise ValidationError("need one action per group generator")
        self.monomial = bool(gen_actions) and all(
            isinstance(a, tuple) for a in gen_actions)
        if not self.monomial and any(isinstance(a, tuple)
                                     for a in gen_actions):
            raise ValidationError("mixed action encodings")
        if self.monomial:
            self._gen_ps = [(np.asarray(p, dtype=np.int64),
                             np.asarray(s, dtype=np.int64))
                            for p, s in gen_actions]
            self.rank = len(self._gen_ps[0][0])
        else:
            self._gen_mats = [np.asarray(m, dtype=np.int64)
                              for m in gen_actions]
            self.rank = (self._gen_mats[0].shape[0] if self._gen_mats
                         else (rank if rank is not None else 0))
        self._cache = {}
        if rank is not None and rank != self.rank:
            raise ValidationError("stated rank disagrees with the matrices")
        self.permutation = permutation
        self.mod2_mask = (np.asarray(mod2_mask, dtype=bool)
                          if mod2_mask is not None else None)
        self.name = name
        if validate:
            self._validate()

    def _action(self, g: int):
        """Action of g, (p, s) if monomial else the matrix, composed down the
        group's spanning tree from the nearest cached element."""
        if not 0 <= g < self.group.order:
            raise ValidationError(f"element {g} out of range")
        if g == 0 and 0 not in self._cache:
            self._cache[0] = ((np.arange(self.rank, dtype=np.int64),
                               np.ones(self.rank, dtype=np.int64))
                              if self.monomial
                              else np.eye(self.rank, dtype=np.int64))
        tree = self.group.spanning_tree()
        path = []
        a = g
        while a != 0 and a not in self._cache:
            path.append(a)
            a = tree.parent[a]
        for b in reversed(path):
            a, i = tree.parent[b], tree.gen[b]
            # from the identity, a copy of the generator's action: no product
            self._cache[b] = (self._step(self._cache[a], i) if a else
                              tuple(x.copy() for x in self._gen_ps[i])
                              if self.monomial else self._gen_mats[i].copy())
        return self._cache[g]

    def _step(self, act, i: int):
        """The action of g s_i from the action act of g: a gather if
        monomial, else an exact product (_exact_product)."""
        if self.monomial:
            ps, ss = self._gen_ps[i]
            return act[0][ps], act[1][ps] * ss
        return _exact_product(act, self._gen_mats[i])

    def matrix(self, g: int) -> np.ndarray:
        if self.monomial:
            p, s = self._action(g)
            m = np.zeros((self.rank, self.rank), dtype=np.int64)
            m[p, np.arange(self.rank)] = s
            return m
        return self._action(g)

    def apply(self, g: int, rows: np.ndarray) -> np.ndarray:
        """rows A(g)^T, A(g) applied to a vector or to each row of a matrix:
        a gather if monomial, else an exact product (_exact_product)."""
        rows = np.asarray(rows, dtype=np.int64)
        if self.monomial:
            p, s = self._action(g)
            out = np.zeros_like(rows)
            out[..., p] = s * _signable(rows)
            return out
        return _exact_product(np.atleast_2d(rows),
                              self._action(g).T).reshape(rows.shape)

    def pull(self, g: int, rows: np.ndarray) -> np.ndarray:
        """rows A(g), a vector or each row of a matrix times A(g): a gather
        if monomial, else an exact product (_exact_product)."""
        rows = np.asarray(rows, dtype=np.int64)
        if self.monomial:
            p, s = self._action(g)
            return _signable(rows)[..., p] * s
        return _exact_product(np.atleast_2d(rows),
                              self._action(g)).reshape(rows.shape)

    def _validate(self):
        if not self.monomial:
            _check_dense_rank(self.rank)
        gens = self.group.generators()
        if self.permutation:
            for g in gens:
                if self.monomial:
                    _, s = self._action(g)
                    if not (s == 1).all():
                        raise ValidationError("permutation flag with signs")
                else:
                    m = self.matrix(g)
                    if not ((m >= 0).all() and (m.sum(0) == 1).all()
                            and (m.sum(1) == 1).all()):
                        raise ValidationError(
                            "permutation flag with non-permutation matrix")
        if self.mod2_mask is not None:
            free = ~self.mod2_mask
            for s in gens:
                m = self.matrix(s)
                if m[np.ix_(free, self.mod2_mask)].any():
                    raise ValidationError(
                        "torsion coordinates leak into free ones")
        # consistency on every Cayley edge forces a homomorphism; tree
        # edges hold by construction
        for g, i, gs, is_tree in self.group.spanning_tree().edges:
            if is_tree:
                continue
            got, want = self._action(gs), self._step(self._action(g), i)
            if not (all(map(np.array_equal, got, want)) if self.monomial
                    else _agree(got, want, self.mod2_mask)):
                raise ValidationError(
                    "generator actions violate the group relations")

    # -- constructions ------------------------------------------------------

    @classmethod
    def regular(cls, group: FiniteGroup) -> "GLattice":
        gens = group.generators()
        ones = np.ones(group.order, dtype=np.int64)
        acts = [(group.table[g, :].astype(np.int64), ones.copy())
                for g in gens]
        return cls(group, acts, rank=group.order, permutation=True,
                   name="regular")

    @classmethod
    def trivial(cls, group: FiniteGroup, rank: int = 1) -> "GLattice":
        gens = group.generators()
        eye = np.eye(rank, dtype=np.int64)
        return cls(group, [eye.copy() for _ in gens], rank=rank,
                   name="trivial")

    @classmethod
    def sign_lattice(cls, group: FiniteGroup) -> "GLattice":
        gens = group.generators()
        if gens:
            try:
                return cls(group, [np.array([[-1]], dtype=np.int64)
                                   for _ in gens], name="sign")
            except ValidationError:
                pass
        raise ValidationError("group admits no order-two character")

    # -- derived data -------------------------------------------------------

    def fixed_rows(self, elements: Optional[Sequence[int]] = None) -> np.ndarray:
        """Integer basis (rows) of the sublattice fixed by the given elements."""
        if self.mod2_mask is not None:
            raise IncompatibleOperands("fixed rows need a free lattice")
        if elements is None:
            elements = self.group.generators()
        return _fixed_rows(self.rank, [self.matrix(g) for g in elements])

    def restricted_matrices(self, sub: Subgroup) -> List[np.ndarray]:
        """Action matrices for the subgroup's own minimal generators."""
        hgrp, to_global = sub.as_group()
        return [self.matrix(int(to_global[s])) for s in hgrp.generators()]


def _fixed_rows(rank: int, mats: List[np.ndarray]) -> np.ndarray:
    """Integer basis (rows) of the sublattice the matrices all fix."""
    if not mats:
        return np.eye(rank, dtype=np.int64)
    return int_left_kernel(np.hstack(
        [m.T - np.eye(rank, dtype=np.int64) for m in mats]))


def direct_sum(*lats: GLattice) -> GLattice:
    group = lats[0].group
    if any(l.group is not group for l in lats):
        raise IncompatibleOperands("summands over different groups")
    if any(l.mod2_mask is not None for l in lats):
        raise IncompatibleOperands("direct sum needs free lattices")
    gens = group.generators()
    offs = np.cumsum([0] + [l.rank for l in lats])
    total = int(offs[-1])
    name = "+".join(l.name or "?" for l in lats)
    if all(l.monomial for l in lats):
        acts = []
        for i, _ in enumerate(gens):
            p = np.concatenate([l._gen_ps[i][0] + off
                                for l, off in zip(lats, offs)])
            s = np.concatenate([l._gen_ps[i][1] for l in lats])
            acts.append((p, s))
        return GLattice(group, acts, rank=total,
                        permutation=all(l.permutation for l in lats),
                        name=name, validate=False)
    _check_dense_rank(total)
    mats = [np.zeros((total, total), dtype=np.int64) for _ in gens]
    for l, off in zip(lats, offs):
        for m, g in zip(mats, gens):
            m[off:off + l.rank, off:off + l.rank] = l.matrix(g)
    return GLattice(group, mats, rank=total, name=name, validate=False)


# ---------------------------------------------------------------------------
# Exterior and divided squares
# ---------------------------------------------------------------------------


def _pair_arrays(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs i < j in lex order, as two index arrays."""
    return np.triu_indices(n, 1)


def _wedge_minors_of_map(a: np.ndarray) -> np.ndarray:
    """Induced map on second exterior powers of a rectangular matrix."""
    q, m = a.shape
    k, l = _pair_arrays(m)
    i, j = _pair_arrays(q)
    if i.size == 0 or k.size == 0:
        return np.zeros((len(i), len(k)), dtype=np.int64)
    return (a[np.ix_(i, k)] * a[np.ix_(j, l)]
            - a[np.ix_(i, l)] * a[np.ix_(j, k)])


def wedge_coords(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinates of x wedge y in the (i<j) lex pair basis."""
    i, j = _pair_arrays(len(x))
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    return x[i] * y[j] - x[j] * y[i]


def lambda2(lat: GLattice) -> GLattice:
    """Second exterior power with basis e_i ^ e_j, i < j, lex ordered."""
    if lat.mod2_mask is not None:
        raise IncompatibleOperands("exterior square needs a free lattice")
    n = lat.rank
    m = n * (n - 1) // 2
    gens = lat.group.generators()
    name = f"wedge2({lat.name or '?'})"
    if lat.monomial:
        # e_k ^ e_l goes to s_k s_l e_(p_k) ^ e_(p_l), negated when sorting
        # swaps the pair; pair a < b sits at a(2n - a - 1)/2 + b - a - 1
        k, l = _pair_arrays(n)
        acts = []
        for p, s in lat._gen_ps:
            a, b = np.minimum(p[k], p[l]), np.maximum(p[k], p[l])
            acts.append((a * (2 * n - a - 1) // 2 + b - a - 1,
                         np.where(p[k] > p[l], -1, 1) * s[k] * s[l]))
        return GLattice(lat.group, acts, rank=m, name=name, validate=False)
    _check_dense_rank(m)
    mats = [_wedge_minors_of_map(lat.matrix(g)) for g in gens]
    # functorial: relations hold because minors are multiplicative
    return GLattice(lat.group, mats, rank=m, name=name, validate=False)


def _diag_block(a: np.ndarray) -> np.ndarray:
    """Mod-2 spill of pair coordinates onto diagonal ones.

    Column (k<l) holds the diagonal part of (A e_k)(A e_l): entry i is
    a_ik * a_il.
    """
    k, l = _pair_arrays(a.shape[0])
    return (a[:, k] * a[:, l]) % 2


def gamma2(lat: GLattice) -> GLattice:
    """Tensor square modulo xy + yx: free pair coords, mod-2 diagonal coords."""
    if lat.mod2_mask is not None:
        raise IncompatibleOperands("divided square needs a free lattice")
    n = lat.rank
    m = n * (n - 1) // 2
    _check_dense_rank(m + n)
    gens = lat.group.generators()
    mats = []
    for g in gens:
        a = lat.matrix(g)
        top = np.hstack([_wedge_minors_of_map(a),
                         np.zeros((m, n), dtype=np.int64)])
        bot = np.hstack([_diag_block(a), a % 2])
        mats.append(np.vstack([top, bot]))
    mask = np.array([False] * m + [True] * n)
    return GLattice(lat.group, mats, rank=m + n, mod2_mask=mask,
                    name=f"star2({lat.name or '?'})", validate=False)


def mod2_reduction(lat: GLattice) -> GLattice:
    """The lattice with every coordinate read mod 2."""
    _check_dense_rank(lat.rank)
    gens = lat.group.generators()
    mats = [lat.matrix(g) % 2 for g in gens]
    return GLattice(lat.group, mats, rank=lat.rank,
                    mod2_mask=np.ones(lat.rank, dtype=bool),
                    name=f"mod2({lat.name or '?'})", validate=False)


def _equivariant(f: np.ndarray, src: GLattice, dst: GLattice) -> bool:
    """Whether A_dst(g) f = f A_src(g) over Z on the generators, reading mod 2
    the rows masked in dst, or every row if dst is free and src fully
    masked."""
    mask = dst.mod2_mask
    if mask is None and src.mod2_mask is not None and src.mod2_mask.all():
        mask = np.ones(dst.rank, dtype=bool)
    return all(_agree(dst.apply(g, f.T).T, src.pull(g, f), mask)
               for g in src.group.generators())


@dataclass
class LatticeSES:
    """Short exact sequence of lattice-like modules with explicit maps."""
    sub: GLattice
    mid: GLattice
    quo: GLattice
    inj: np.ndarray    # mid.rank x sub.rank
    proj: np.ndarray   # quo.rank x mid.rank

    def verify(self) -> "LatticeSES":
        if self.inj.shape != (self.mid.rank, self.sub.rank):
            raise ValidationError("injection shape mismatch")
        if self.proj.shape != (self.quo.rank, self.mid.rank):
            raise ValidationError("projection shape mismatch")
        if self.mid.rank != self.sub.rank + self.quo.rank:
            raise ValidationError("ranks do not add up")
        sub_masked = self.sub.mod2_mask is not None
        if sub_masked and not self.sub.mod2_mask.all():
            raise IncompatibleOperands("partially masked kernel unsupported")
        mask = (np.ones(self.quo.rank, dtype=bool) if sub_masked
                else self.quo.mod2_mask)
        composite = _exact_product(self.proj, self.inj)
        if not _agree(composite, np.zeros_like(composite), mask):
            raise ValidationError("composite is nonzero")
        if sub_masked:
            if GF2Matrix.from_dense(self.inj.T % 2).rank() != self.sub.rank:
                raise ValidationError("injection is not injective mod 2")
        elif len(row_hnf(self.inj)[1]) != self.sub.rank:
            raise ValidationError("injection drops rank")
        if self.quo.mod2_mask is None:
            # onto exactly when the columns span Z^q: proj^T has HNF I_q
            hnf, _ = row_hnf(self.proj.T)
            if not np.array_equal(hnf, np.eye(self.quo.rank, dtype=np.int64)):
                raise ValidationError("projection is not onto")
        else:
            if GF2Matrix.from_dense(self.proj % 2).rank() != self.quo.rank:
                raise ValidationError("projection is not onto mod 2")
        if not _equivariant(self.inj, self.sub, self.mid):
            raise ValidationError("injection is not equivariant")
        if not _equivariant(self.proj, self.mid, self.quo):
            raise ValidationError("projection is not equivariant")
        return self


def exterior_ses(lat: GLattice) -> LatticeSES:
    """0 -> L/2 -> star-square(L) -> wedge-square(L) -> 0."""
    n = lat.rank
    m = n * (n - 1) // 2
    gam = gamma2(lat)
    lam = lambda2(lat)
    sub = mod2_reduction(lat)
    inj = np.vstack([np.zeros((m, n), dtype=np.int64),
                     np.eye(n, dtype=np.int64)])
    proj = np.hstack([np.eye(m, dtype=np.int64),
                      np.zeros((m, n), dtype=np.int64)])
    return LatticeSES(sub, gam, lam, inj, proj).verify()


def exterior_of_rank_one_extension(ses: LatticeSES) -> LatticeSES:
    """From 0 -> Z -> X -> Y -> 0 build 0 -> Y -> wedge2(X) -> wedge2(Y) -> 0.

    The injection sends y to x ^ sigma for any preimage x of y, where sigma
    spans the rank-one kernel; the middle homology is checked to vanish.
    Preimages of the basis are read off the Hermite form of [proj^T | I]:
    its first rows are (e_j, x_j) with proj x_j = e_j exactly when proj is
    onto. Two preimages differ by a multiple of sigma, which the wedge
    with sigma kills.
    """
    if ses.sub.rank != 1 or ses.sub.mod2_mask is not None:
        raise NotRankOneKernel("kernel is not free of rank one")
    for g in ses.sub.group.generators():
        if not np.array_equal(ses.sub.matrix(g), np.eye(1, dtype=np.int64)):
            raise NotRankOneKernel("kernel action is not trivial")
    sigma = ses.inj[:, 0]
    lam_mid = lambda2(ses.mid)
    lam_quo = lambda2(ses.quo)
    q = ses.quo.rank
    hnf, pivcols = row_hnf(np.hstack([ses.proj.T,
                                      np.eye(ses.mid.rank, dtype=np.int64)]))
    if pivcols[:q] != list(range(q)) or \
            not np.array_equal(hnf[:q, :q], np.eye(q, dtype=np.int64)):
        raise ValidationError("projection is not onto")
    eta = np.array([wedge_coords(x, sigma) for x in hnf[:q, q:]],
                   dtype=np.int64).T
    proj2 = _wedge_minors_of_map(ses.proj)
    out = LatticeSES(ses.quo, lam_mid, lam_quo, eta, proj2).verify()
    if invariant_factors(eta):
        raise InternalInvariant("the wedge-with-kernel map is not saturated")
    ker = int_left_kernel(proj2.T)
    if not int_spans_equal(ker, eta.T):
        raise InternalInvariant("middle homology is nonzero")
    return out


# ---------------------------------------------------------------------------
# Marginal lattices of the two-slot sum map
# ---------------------------------------------------------------------------


@dataclass
class MNQData:
    group: FiniteGroup
    rho: np.ndarray                 # 2n x n^2, rows map into the product
    kernel: np.ndarray              # 1 x 2n
    image_lattice: GLattice         # induced action on the image
    image_basis: np.ndarray         # rows, basis of the image in the product
    m_rank: int
    m_torsion_free: bool


def _product_perm(group: FiniteGroup, g: int) -> np.ndarray:
    """Permutation of pair coordinates (a, b) -> (ga, gb)."""
    n = group.order
    t = group.table
    return (t[g][:, None] * n + t[g][None, :]).ravel()


def _pair_lattice(group: FiniteGroup) -> GLattice:
    """The permutation lattice Z[G x G], pair (a, b) at coordinate a*n + b."""
    ones = np.ones(group.order ** 2, dtype=np.int64)
    return GLattice(group, [(_product_perm(group, s), ones)
                            for s in group.generators()],
                    rank=group.order ** 2, permutation=True, name="pairs")


def _sublattice_action(lat: GLattice, solver: IntSolver,
                       name: str) -> GLattice:
    """Action on an invariant sublattice of lat in the coordinates of its
    Hermite basis solver.hnf: one batched solve per generator reads the
    moved basis back."""
    mats = []
    for g in lat.group.generators():
        x, ok = solver.solve(lat.apply(g, solver.hnf))
        if not ok.all():
            raise InternalInvariant(f"{name} is not invariant")
        mats.append(x.T)
    return GLattice(lat.group, mats, rank=solver.hnf.shape[0], name=name)


def build_mnq(group: FiniteGroup) -> MNQData:
    """Assemble the two-slot sum map into the product, with its kernel and
    image; its cokernel M is built in closed form by _marginal_quotient."""
    n = group.order
    rho = np.zeros((2 * n, n * n), dtype=np.int64)
    ar = np.arange(n)
    for g in range(n):
        rho[g, g * n + ar] = 1
        rho[n + g, ar * n + g] = 1
    ker = int_left_kernel(rho)
    gamma = np.concatenate([np.ones(n, dtype=np.int64),
                            -np.ones(n, dtype=np.int64)])
    if ker.shape[0] != 1 or not (np.array_equal(ker[0], gamma)
                                 or np.array_equal(ker[0], -gamma)):
        raise InternalInvariant("kernel is not the expected rank-one lattice")
    solver = IntSolver(rho)
    hnf, pivcols = solver.hnf, solver.pivcols
    torsion_free = all(int(hnf[i, c]) == 1 for i, c in enumerate(pivcols))
    if not torsion_free:
        torsion_free = not invariant_factors(rho)
    image = _sublattice_action(_pair_lattice(group), solver,
                               "two-slot-image")
    m_rank = n * n - hnf.shape[0]
    return MNQData(group, rho, ker, image, hnf, m_rank, torsion_free)


def _marginal_quotient(group: FiniteGroup) -> Tuple[GLattice, np.ndarray]:
    """The cokernel M of the two-slot sum map, with the projection from the
    product lattice Z[G x G] (pair (a, b) at coordinate a*n + b) onto its
    basis.

    The sum map's image is Z[G] (x) N + N (x) Z[G] for the norm N, so M is
    J (x) J with J = Z[G]/Z.N: basis the classes of e_h, h != 1, where
    e_1 = -sum_h e_h. P_J = [-1 | I] projects Z[G] onto J, and g acts on J
    by P_J on the columns table[g, 1:]. Only J is validated:
    kron(A, A) kron(B, B) = kron(AB, AB), so M is a homomorphism whenever
    J is.
    """
    n = group.order
    _check_dense_rank((n - 1) ** 2)
    p_j = np.hstack([-np.ones((n - 1, 1), dtype=np.int64),
                     np.eye(n - 1, dtype=np.int64)])
    acts = [p_j[:, group.table[g, 1:]] for g in group.generators()]
    GLattice(group, acts, rank=n - 1, name="J")    # validates J
    m = GLattice(group, [np.kron(a, a) for a in acts], rank=(n - 1) ** 2,
                 name="marginal-quotient", validate=False)
    return m, np.kron(p_j, p_j)


def two_slot_extension(data: MNQData) -> LatticeSES:
    """0 -> Z -> Z[G] + Z[G] -> image -> 0 from the assembled sum map."""
    group = data.group
    reg2 = direct_sum(GLattice.regular(group), GLattice.regular(group))
    x, ok = IntSolver(data.image_basis).solve(data.rho)
    if not ok.all():
        raise InternalInvariant("generator escapes the image basis")
    proj = x.T
    inj = (-data.kernel.T if data.kernel[0, 0] < 0 else data.kernel.T)
    triv = GLattice.trivial(group)
    return LatticeSES(triv, reg2, data.image_lattice, inj, proj).verify()


# ---------------------------------------------------------------------------
# Integral degree-one cohomology and cocycle spaces
# ---------------------------------------------------------------------------


def _local_action(group_like, lat: GLattice):
    """(local group, matrices for its generators) for a group or subgroup."""
    if isinstance(group_like, Subgroup):
        if group_like.parent is not lat.group:
            raise IncompatibleOperands("subgroup of a different group")
        return group_like.as_group()[0], lat.restricted_matrices(group_like)
    if group_like is lat.group:
        return lat.group, [lat.matrix(s) for s in lat.group.generators()]
    raise IncompatibleOperands("group does not act on this lattice")


def h1_integral(group_like, lat: GLattice) -> List[int]:
    """Invariant factors of degree-one cohomology with integral coefficients.

    Crossed homomorphisms modulo principal ones. For two-power order the
    computation runs at modulus |H|: degree-one cohomology is the cokernel
    of the fixed sublattice reducing into the fixed points mod |H|, exact
    because |H| annihilates it. Other orders go through the
    generator-parametrized cocycle space over the integers.
    """
    if lat.mod2_mask is not None:
        raise IncompatibleOperands("integral cohomology needs a free lattice")
    if lat.rank > H1_MAX_RANK:
        raise BudgetExceeded(
            f"lattice rank {lat.rank} exceeds the budget {H1_MAX_RANK}")
    hgrp, mats = _local_action(group_like, lat)
    m = lat.rank
    if hgrp.order == 1 or m == 0:
        return []
    order = hgrp.order
    if order & (order - 1) == 0:
        v = order.bit_length() - 1
        fixed_mod, blocks = _fixed_points_mod2k(order, mats)
        fixed_int = int_left_kernel(blocks)
        return modk_quotient_invariant_factors(
            fixed_mod, fixed_int % (1 << v), v)
    zrows, _ = integral_cocycles(hgrp, mats)
    brows = np.hstack([mt.T - np.eye(m, dtype=np.int64) for mt in mats])
    facs = quotient_invariant_factors(zrows, brows)
    if any(f == 0 for f in facs):
        raise InternalInvariant("degree-one cohomology here must be finite")
    return facs


def _fixed_points_mod2k(order: int, mats: List[np.ndarray]):
    """Rows fixed mod 2^k by the matrices, 2^k > 1 the two-part of order: the
    Howell form of the kernel mod 2^k of hstack(A^T - I), returned with that
    system."""
    k = (order & -order).bit_length() - 1
    system = np.hstack([mt.T - np.eye(len(mt), dtype=np.int64) for mt in mats])
    return kernel_basis_modk(system, k), system


def _schreier_walk(lat: GLattice):
    """Cocycle values and closing conditions along the group's spanning tree.

    A cocycle z (rule z(gh) = z(g) + g z(h)) is fixed by its values on the
    d group generators, concatenated into one vector x of d*m unknowns.
    Returns (coeff, system): z(g) = coeff[g] @ x for every element g, and
    the cocycle conditions are x @ system = 0, one column block per edge
    outside the BFS tree (a Schreier generator of the relation group). Two
    readers: integral_cocycles, and alpha_image, which reads system mod 2.
    An entry sums at most |G| element actions, so the walk raises
    ValidationError unless |G| max|A(g)| < 2^63.
    """
    d, m, n = len(lat.group.generators()), lat.rank, lat.group.order
    if n * (1 if lat.monomial else max(
            _abs_max(lat.matrix(g)) for g in range(n))) >= 1 << 63:
        raise ValidationError("cocycle coefficients would leave int64")
    coeff = {0: np.zeros((m, d * m), dtype=np.int64)}
    closing = []
    for a, i, b, is_tree in lat.group.spanning_tree().edges:
        expr = coeff[a].copy()
        expr[:, i * m:(i + 1) * m] += lat.matrix(a)
        if is_tree:
            coeff[b] = expr
        else:
            closing.append(coeff[b] - expr)
    # |G| * d edges against |G| - 1 tree edges: closing is never empty
    return coeff, np.hstack([c.T for c in closing])


def integral_cocycles(group: FiniteGroup, mats: List[np.ndarray]):
    """Integer basis of crossed homomorphisms, generator-parametrized.

    Returns (rows, expand): each row holds a cocycle's values on the group
    generators (concatenated), and expand(row) tabulates the values on every
    element. Cocycle rule: z(gh) = z(g) + g z(h). h1_integral reads rows
    only; the pair stays because perfbench's tracer counts out[0].shape[1].
    """
    d = len(group.generators())
    m = mats[0].shape[0] if mats else 0
    if d == 0 or m == 0:
        def expand_empty(row):
            return np.zeros((group.order, m), dtype=np.int64)
        return np.zeros((0, d * m), dtype=np.int64), expand_empty
    coeff, system = _schreier_walk(GLattice(group, mats, validate=False))
    rows = int_left_kernel(system)

    def expand(row):
        out = np.zeros((group.order, m), dtype=np.int64)
        for g, expr in coeff.items():
            out[g] = expr @ row
        return out
    return rows, expand


# ---------------------------------------------------------------------------
# Connecting image into mod-2 degree-two cohomology
# ---------------------------------------------------------------------------


def _relator_values(group: FiniteGroup, c) -> np.ndarray:
    """A normalized two-cochain mod 2, given as c(a, s) for s a generator, on
    the Schreier relators in the column order of _schreier_walk's system:
    u(1) = 0 and u(a s) = u(a) + c(a, s) down the tree, and a non-tree edge
    a -> b = a s reads u(a) + c(a, s) - u(b)."""
    gens, u, out = group.generators(), {0: 0}, []
    for a, i, b, is_tree in group.spanning_tree().edges:
        val = u[a] ^ c(a, gens[i])
        if is_tree:
            u[b] = val
        else:
            out.append(val ^ u[b])
    return np.concatenate(out, axis=-1)


def alpha_image(lat: GLattice) -> List[int]:
    """Invariant factors of the image of the connecting map taking degree-one
    classes of the wedge square W into degree-two mod-2 classes of L.

    At cocycle level: lift a W-valued cocycle z into the divided square with
    zero diagonal part, apply the differential, and read the diagonal spill,
    c(g, h) = D_g z(h) mod 2 (_diag_block); it is linear in z mod 2.

    Cocycles. With 2^k the two-part of |G| and v fixed mod 2^k, z_v(h) =
    (A_h v - v) / 2^k is an integral cocycle. Summing the cocycle rule of any
    z over G gives |G| z = delta u with u = -sum_g z(g), so u is fixed mod
    2^k and an odd multiple of z is a sum of z_v's plus a coboundary. A
    coboundary delta w spills a coboundary: the zero-diagonal lift of delta w
    is delta(lift of w) minus the L/2-valued cochain h -> D_h w. So the image
    is the span of the z_v's spills modulo the coboundaries.

    Relators. Two-cochains are read on the n(d - 1) + 1 Schreier relators
    t_a s t_b^-1 of the d generators (_relator_values), not on the n^2
    pairs. They generate the relation subgroup, so Z[G]^relators -> Z[G]^d
    -> Z[G] -> Z is exact through degree two. A cocycle's relator values
    are its pull-back (lift the generators into the extension it defines),
    and it is a coboundary exactly when they lie in the image of d_2^*,
    _schreier_walk's closing system. All is read mod 2, so no sign enters,
    and z_v is read at the generators alone: a row they fix, G fixes.
    """
    if lat.mod2_mask is not None:
        raise IncompatibleOperands("connecting image needs a free lattice")
    group = lat.group
    n = group.order
    if n > ALPHA_MAX_ORDER:
        raise BudgetExceeded(
            f"group order {n} exceeds the connecting-map budget "
            f"{ALPHA_MAX_ORDER}")
    ml = lat.rank
    m = ml * (ml - 1) // 2
    gens = group.generators()
    if m * len(gens) > ALPHA_MAX_WEDGE_COLUMNS:
        raise BudgetExceeded(
            f"fixed-point system on the wedge square has {m * len(gens)} "
            f"columns, over the {ALPHA_MAX_WEDGE_COLUMNS} budget")
    two = n & -n
    if m == 0 or two == 1:
        return []    # odd order: degree-two classes mod 2 vanish
    # the wedge square's generator matrices, within the budget just checked
    wedge = [_wedge_minors_of_map(lat.matrix(s)) for s in gens]
    fixed = _fixed_points_mod2k(n, wedge)[0].matrix
    # z_v(s) mod 2 needs W_s v mod 2^(k+1). Products are exact: float64 sums
    # stay below 2 * 4^k * rank(W) < 2**53, float32 ones of 0/1 below 2**24
    zs = {}
    for s, w in zip(gens, wedge):
        diff = fixed @ (w.T % (2 * two)).astype(np.float64) - fixed
        if (diff % two).any():
            raise InternalInvariant("a row fixed mod 2^k moved mod 2^k")
        zs[s] = (diff // two % 2).astype(np.float32)

    @lru_cache(maxsize=1)  # the walk reads all edges out of g in a row
    def diag(g: int) -> np.ndarray:
        return _diag_block(lat.matrix(g)).T.astype(np.float32)
    spills = _relator_values(group, lambda g, s: f2_product(zs[s], diag(g)))
    cob = Subspace.span(_schreier_walk(lat)[1], spills.shape[1])
    return [2] * Subspace.span(cob.reduce(spills), cob.ambient_dim).dim


# ---------------------------------------------------------------------------
# Coflasque covers
# ---------------------------------------------------------------------------


@dataclass
class CoflasqueResolution:
    ses: LatticeSES                  # 0 -> R -> P -> L -> 0
    summands: List[Tuple[Tuple[int, ...], int]]  # (subgroup elements, rows)

    @property
    def kernel_lattice(self) -> GLattice:
        return self.ses.sub

    @property
    def cover(self) -> GLattice:
        return self.ses.mid


@dataclass
class _CoverBlock:
    """Summand Z[G/K] (x) span(rows) of a cover, with its evaluations:
    images[j, s] = A(r_j) rows[s] for the left-coset representatives r_j."""
    sub: Subgroup
    reps: np.ndarray
    rows: np.ndarray
    images: np.ndarray

    @classmethod
    def of(cls, lat: GLattice, sub: Subgroup, rows) -> "_CoverBlock":
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, lat.rank)
        reps = sub.coset_reps()
        images = np.stack([lat.apply(int(r), rows) for r in reps])
        return cls(sub, reps, rows, images)

    def lattice(self) -> GLattice:
        """The permutation lattice Z[G/K] (x) Z^k of the block: basis
        j*k + s goes to (coset of g r_j)*k + s under g."""
        group, k = self.sub.parent, self.rows.shape[0]
        coset = self.sub.coset_table()[0]
        ones = np.ones(len(self.reps) * k, dtype=np.int64)
        return GLattice(group, [((coset[group.table[g, self.reps]][:, None] * k
                                  + np.arange(k)).ravel(), ones)
                                for g in group.generators()],
                        rank=len(ones), permutation=True, name="cover-block")

    def orbit_sums(self, h: Subgroup) -> np.ndarray:
        """Evaluated sums over the H-orbits of the block's basis: the images
        of the block's H-fixed points."""
        group = h.parent
        coset = self.sub.coset_table()[0]
        # the orbit of coset j is coset[h r_j] over h in H; label it by its least
        label = coset[group.table[np.ix_(h.elements, self.reps)]].min(axis=0)
        onehot = (np.unique(label)[:, None] == label[None, :]).astype(np.int64)
        sums = onehot @ self.images.reshape(len(self.reps), -1)
        return sums.reshape(-1, self.images.shape[2])


def _top_down_blocks(lat: GLattice,
                     classes: List[Subgroup]) -> List[_CoverBlock]:
    """Summands of a small permutation cover with coflasque kernel.

    Subgroup classes are visited from largest to smallest. At class H the
    image of the cover's H-fixed points holds the norms N_H(L) (for any
    cover, N_H ev(p) = ev(N_H p)) and the evaluated H-orbit sums of the
    summands chosen so far; Z[G/H] (x) f is added for each row f of L^H
    outside that span, in order, each evaluated once. H^1(H, R) is the
    cokernel of P^H -> L^H for the kernel R, so it vanishes. The trivial
    class comes last and brings no norms (N_1(L) = L would fill the span):
    its rows are the basis of L, so its summands Z[G] (x) e make the cover
    onto.
    """
    blocks: List[_CoverBlock] = []
    for sub in reversed(classes):
        fixed = _fixed_rows(lat.rank, lat.restricted_matrices(sub))
        if fixed.shape[0] == 0:
            continue
        known = [np.zeros((0, lat.rank), dtype=np.int64)]
        if sub.order > 1:
            known.append(sum(lat.matrix(int(h)) for h in sub.elements).T)
        span = IntSolver(np.vstack(known + [b.orbit_sums(sub)
                                            for b in blocks]))
        pieces, at = [], 0
        while at < fixed.shape[0]:
            out = np.flatnonzero(~span.solve(fixed[at:])[1])
            if out.size == 0:
                break
            at += int(out[0])
            pieces.append(_CoverBlock.of(lat, sub, fixed[at]))
            span.add(pieces[-1].orbit_sums(sub))
            at += 1
        if pieces:
            blocks.append(_CoverBlock(
                sub, pieces[0].reps, np.vstack([b.rows for b in pieces]),
                np.concatenate([b.images for b in pieces], axis=1)))
    return blocks


def coflasque_resolution(lat: GLattice,
                         pad_free: int = 0) -> CoflasqueResolution:
    """Permutation cover with coflasque kernel, verified subgroup by subgroup.

    The cover is a sum of coset lattices tensored with fixed rows of the
    input, chosen top-down (_top_down_blocks); evaluation at coset
    representatives maps it onto the input. A permutation lattice is its
    own cover. pad_free appends redundant free columns, giving an
    inequivalent resolution for cross-checks.
    """
    if lat.mod2_mask is not None:
        raise IncompatibleOperands("resolution needs a free lattice")
    group = lat.group
    if lat.permutation and pad_free == 0:
        zero = GLattice(group,
                        [np.zeros((0, 0), dtype=np.int64)
                         for _ in group.generators()],
                        rank=0, name="zero")
        ident = LatticeSES(zero, lat, lat,
                           np.zeros((lat.rank, 0), dtype=np.int64),
                           np.eye(lat.rank, dtype=np.int64)).verify()
        return CoflasqueResolution(ident, [])
    classes = subgroup_classes(group)
    blocks = _top_down_blocks(lat, classes)
    if pad_free:
        pad = np.eye(lat.rank, dtype=np.int64)[:min(pad_free, lat.rank)]
        blocks.append(_CoverBlock.of(lat, Subgroup(group, [0]), pad))
    blocks = [b for b in blocks if b.rows.shape[0]]
    if not blocks:
        raise InternalInvariant("no summand survives to cover the lattice")
    summands = [(tuple(int(x) for x in b.sub.elements), b.rows.shape[0])
                for b in blocks]
    cover = direct_sum(*[b.lattice() for b in blocks])
    # column j*k + s of a block evaluates coset j of the block's row s
    ev = np.hstack([b.images.reshape(-1, lat.rank).T for b in blocks])
    solver = IntSolver(int_left_kernel(ev.T))
    kernel = _sublattice_action(cover, solver, "coflasque-kernel")
    ses = LatticeSES(kernel, cover, lat, solver.hnf.T, ev).verify()
    for sub in classes:
        bad = h1_integral(sub, kernel)
        if bad:
            raise CoflasquenessCheckFailed(
                f"kernel has degree-one cohomology {bad} at a subgroup "
                f"of order {sub.order}")
    return CoflasqueResolution(ses, summands)


def phi(group: FiniteGroup, lat: Optional[GLattice] = None,
        verify_independence: bool = False) -> List[int]:
    """Invariant factors of the obstruction module of a lattice.

    Defaults to the marginal quotient lattice of the group. The value is the
    connecting image of a coflasque kernel; with verify_independence a
    second, larger resolution must give the same answer.
    """
    if group.order > ALPHA_MAX_ORDER:
        raise BudgetExceeded(
            f"group order {group.order} exceeds the budget "
            f"{ALPHA_MAX_ORDER}")
    if group.order == 1:
        return []
    if lat is None:
        lat = _marginal_quotient(group)[0]
    res = coflasque_resolution(lat)
    out = alpha_image(res.kernel_lattice)
    if verify_independence:
        alt = coflasque_resolution(lat, pad_free=1)
        if alpha_image(alt.kernel_lattice) != out:
            raise InternalInvariant(
                "connecting image depends on the resolution")
    return out


# ---------------------------------------------------------------------------
# The regular lattice's exterior square, by element census
# ---------------------------------------------------------------------------


@dataclass
class RegularExteriorDecomposition:
    involutions: List[int]
    pair_reps: List[int]
    rank: int

    @property
    def counts(self) -> Tuple[int, int]:
        return len(self.involutions), len(self.pair_reps)


def lambda2_regular_decomposition(group: FiniteGroup) \
        -> RegularExteriorDecomposition:
    """Involution and inverse-pair census for the exterior square of the
    regular lattice, with the rank identity verified."""
    n = group.order
    inv = group.inv
    involutions = [g for g in range(1, n) if int(inv[g]) == g]
    pair_reps = [g for g in range(1, n)
                 if int(inv[g]) != g and g < int(inv[g])]
    rank = n * (n - 1) // 2
    if len(involutions) * (n // 2) + len(pair_reps) * n != rank:
        raise InternalInvariant("rank census does not match")
    return RegularExteriorDecomposition(involutions, pair_reps, rank)


def induced_sign_lattice(group: FiniteGroup, involution: int) -> GLattice:
    """Induction to the group of the sign lattice of one involution."""
    if involution == 0 or int(group.inv[involution]) != involution:
        raise ValidationError("element is not an involution")
    sub = Subgroup(group, sorted({0, involution}))
    reps = sub.coset_reps()
    coset, pos = sub.coset_table()
    acts = []
    for g in group.generators():
        x = group.table[g, reps]
        acts.append((coset[x], np.where(pos[x] == 0, 1, -1)))
    return GLattice(group, acts, rank=len(reps), name="induced-sign")


# ---------------------------------------------------------------------------
# Named and serialized lattices
# ---------------------------------------------------------------------------


def builtin_lattice(name: str, group: FiniteGroup) -> GLattice:
    """Named lattices the command line resolves against a group."""
    if name == "regular":
        return GLattice.regular(group)
    if name == "sign":
        return GLattice.sign_lattice(group)
    if name == "M":
        return _marginal_quotient(group)[0]
    raise ValidationError(f"unknown builtin lattice {name!r}")


def lattice_from_json(group: FiniteGroup, data: dict) -> GLattice:
    """Lattice from {"rank": r, "generators": [{"element", "matrix"}]}.

    The listed elements must generate the group; matrices for the group's
    canonical generators are assembled by walking words in the listed ones.
    """
    try:
        rank = int(data["rank"])
        entries = [(int(e["element"]),
                    np.asarray(e["matrix"], dtype=np.int64))
                   for e in data["generators"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed lattice description: {exc}") \
            from None
    for el, mat in entries:
        if not 0 <= el < group.order:
            raise ValidationError(f"element {el} out of range")
        if mat.shape != (rank, rank):
            raise ValidationError("matrix shape disagrees with the rank")
    tree = cayley_tree(group, [el for el, _ in entries])
    if len(tree.order) != group.order:
        raise ValidationError("listed elements do not generate the group")
    known = {0: np.eye(rank, dtype=np.int64)}
    for b in tree.order[1:]:
        known[b] = _exact_product(known[tree.parent[b]],
                                  entries[tree.gen[b]][1])
    lat = GLattice(group, [known[s] for s in group.generators()],
                   rank=rank, name="from-json")
    for el, mat in entries:
        if not np.array_equal(lat.matrix(el), mat):
            raise ValidationError("matrices are inconsistent with the group")
    return lat
