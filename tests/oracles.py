"""Independent references that the tests check the package against.

These routes are slow or exponentially large, so no production path runs
them: the diagonal route of the cup product, the permutation splitting of
the exterior sequence, the pullback lattice, the every-class coflasque
cover, the per-basis Bockstein routes of the Sq1 and integral images,
the bar-pair and mod-2-cocycle routes of the connecting image, and the
class-by-class transfer span, with one resolution per subgroup class.

Not collected as a test module. pytest's default import mode puts tests/
on sys.path, so test modules import it as `oracles`.
"""
from typing import List, Tuple
from unittest import mock

import numpy as np

from cohlat import lattices
from cohlat.cohomology import GroupCohomology, default_modulus_exp
from cohlat.criterion import SubgroupTerm, transfer_cup_image
from cohlat.errors import (BudgetExceeded, CoflasquenessCheckFailed,
                           IncompatibleOperands, InternalInvariant)
from cohlat.groups import subgroup_classes
from cohlat.lattices import (CoflasqueResolution, GLattice, MNQData,
                             _diag_block, _equivariant, _marginal_quotient,
                             _pair_arrays, _pair_lattice, _sublattice_action,
                             _wedge_minors_of_map, direct_sum, exterior_ses,
                             h1_integral, lambda2)
from cohlat.linalg import (GF2Matrix, IntSolver, Subspace, int_left_kernel,
                           kernel_basis_modk)
from cohlat.resolution import GModuleComplex, lift_chain_map

TENSOR_SQUARE_MAX_COORDS = 20000    # per degree, for the diagonal route


# -- the transfer span, one class at a time --


def transfer_cup_span_by_class(gc: GroupCohomology
                               ) -> Tuple[Subspace, List[SubgroupTerm]]:
    """Union of per-class transfer spans, each class on its own link and
    its own resolution, in its own sorted labelling."""
    total = Subspace.zero(gc.h_dim(3))
    terms = []
    for sub in subgroup_classes(gc.group):
        span, term = transfer_cup_image(gc, sub)
        total = total.union(span)
        terms.append(term)
    return total, terms


# -- the diagonal route of the cup product --


def tensor_square_complex(cx: GModuleComplex,
                          max_degree: int) -> GModuleComplex:
    """Total complex of P (x) P with the diagonal action.

    Degree i concatenates blocks (p, q), p+q = i, each of dimension
    dims[p]*dims[q], laid out as a*dims[q] + b so the two partial boundaries
    are Kronecker products. TENSOR_SQUARE_MAX_COORDS bounds the coordinate
    count of any degree; this construction is only meant for small groups.
    """
    if cx.amb_group is not cx.group:
        raise IncompatibleOperands("tensor square needs a plain resolution")
    group = cx.group
    n = group.order
    t = group.table
    out = GModuleComplex(group, cx.k)
    prev_blocks: List[Tuple[int, int, int]] = []
    for i in range(max_degree + 1):
        blocks = []
        off = 0
        for p in range(i + 1):
            q = i - p
            blocks.append((p, q, off))
            off += cx.dims[p] * cx.dims[q]
        total = off
        if total > TENSOR_SQUARE_MAX_COORDS:
            raise BudgetExceeded(
                f"tensor square degree {i} needs {total} coordinates "
                f"(> {TENSOR_SQUARE_MAX_COORDS}); group too large for the "
                "diagonal route")
        coord_gen = np.zeros(total, dtype=np.int64)
        coord_elt = np.zeros(total, dtype=np.int64)
        gen_off = 0
        for p, q, off in blocks:
            dp, dq = cx.dims[p], cx.dims[q]
            a = np.repeat(np.arange(dp), dq)
            b = np.tile(np.arange(dq), dp)
            ga, ea = cx.coord_gen[p][a], cx.coord_elt[p][a]
            gb, eb = cx.coord_gen[q][b], cx.coord_elt[q][b]
            # orbit representative: act by ea^-1 on both slots
            w = t[group.inv[ea], eb]
            gen_local = (ga * cx.ranks[q] + gb) * n + w
            coord_gen[off:off + dp * dq] = gen_off + gen_local
            coord_elt[off:off + dp * dq] = ea
            gen_off += cx.ranks[p] * cx.ranks[q] * n
        if i == 0:
            out.add_degree(coord_gen, coord_elt, None)
            prev_blocks = blocks
            continue
        boundary = np.zeros((total, out.dims[i - 1]), dtype=np.int64)
        prev_off = {(p, q): off for p, q, off in prev_blocks}
        for p, q, off in blocks:
            dp, dq = cx.dims[p], cx.dims[q]
            sl = slice(off, off + dp * dq)
            if p >= 1:
                doff = prev_off[(p - 1, q)]
                kb = np.kron(cx.boundaries[p], np.eye(dq, dtype=np.int64))
                boundary[sl, doff:doff + cx.dims[p - 1] * dq] = kb
            if q >= 1:
                sign = -1 if p % 2 else 1
                doff = prev_off[(p, q - 1)]
                kb = np.kron(np.eye(dp, dtype=np.int64), cx.boundaries[q])
                boundary[sl, doff:doff + dp * cx.dims[q - 1]] = sign * kb
        out.add_degree(coord_gen, coord_elt, boundary % cx.mod)
        # float64 BLAS is exact: entries below 2^MAX_MOD_EXP, at most
        # TENSOR_SQUARE_MAX_COORDS terms per sum, so every sum stays below 2^53
        if i >= 2 and (out.boundaries[i].astype(np.float64)
                       @ out.boundaries[i - 1] % cx.mod).any():
            raise InternalInvariant("tensor square boundary fails d.d=0")
        prev_blocks = blocks
    return out


def diagonal_approximation(cx: GModuleComplex, max_degree: int
                           ) -> Tuple[GModuleComplex, List[np.ndarray]]:
    """Chain map P -> P (x) P lifting the identity augmentation."""
    tens = tensor_square_complex(cx, max_degree)
    start = np.zeros((1, tens.dims[0]), dtype=np.int64)
    start[0, 0] = 1  # e_0 -> e_0 (x) e_0
    maps = lift_chain_map(cx, tens, start, max_degree)
    return tens, maps


def cup_via_diagonal(gc: GroupCohomology, a_deg: int, a: np.ndarray,
                     b_deg: int, b: np.ndarray) -> np.ndarray:
    """gc.cup(a_deg, a, b_deg, b) through an explicit diagonal approximation.

    Exponentially larger; only for cross-checking small groups.
    """
    total = a_deg + b_deg
    gc._check_degree(total)
    res = gc.res
    tens, maps = diagonal_approximation(res, total)
    a = np.asarray(a, dtype=np.int64) % 2
    b = np.asarray(b, dtype=np.int64) % 2
    gen_rows = maps[total][res.gen_coords(total)] % 2
    # evaluate (a tensor b) on the (a_deg, b_deg) block coordinates
    out = np.zeros(res.ranks[total], dtype=np.int64)
    offset = 0
    for p in range(total + 1):
        q = total - p
        dp, dq = res.dims[p], res.dims[q]
        if p == a_deg:
            block = gen_rows[:, offset:offset + dp * dq]
            weights = (a[res.coord_gen[p]][:, None]
                       * b[res.coord_gen[q]][None, :]).ravel()
            out = (out + block @ weights) % 2
        offset += dp * dq
    return out % 2


# -- the Sq1 and integral images, one Bockstein per basis class --


def sq1_image_by_bocksteins(gc: GroupCohomology, degree: int) -> Subspace:
    """gc.sq1_image(degree) from one Sq1 per basis class of H^(degree-1)."""
    gc._check_degree(degree)
    if degree == 0:
        return Subspace.zero(gc.h_dim(0))
    r = gc.h_dim(degree - 1)
    rows = [gc.sq1(degree - 1, e) for e in np.eye(r, dtype=np.int64)]
    if not rows:
        return Subspace.zero(gc.h_dim(degree))
    return Subspace.span(np.array(rows), gc.h_dim(degree))


def integral_reduction_image_by_bocksteins(gc: GroupCohomology,
                                           degree: int) -> Subspace:
    """gc.integral_reduction_image(degree) from one Bockstein to Z/|G| per
    basis class of H^degree."""
    gc._check_degree(degree, slack=1)
    k0 = default_modulus_exp(gc.group) - 1  # 2^k0 = |G|
    r = gc.h_dim(degree)
    if r == 0:
        return Subspace.zero(0)
    basis = np.eye(r, dtype=np.int64)
    w = np.array([gc.bockstein(degree, e, k0) for e in basis])
    b = gc.delta(degree, k0) % (1 << k0)
    stacked = np.vstack([w, b])
    ker = kernel_basis_modk(stacked, k0).matrix
    lam = ker[:, :r] % 2
    return Subspace.span(lam, r)


# -- lattice constructions --


def permutation_splitting(lat: GLattice) -> np.ndarray:
    """Equivariant right inverse of the star-to-wedge projection for a
    permutation lattice: e_i ^ e_j goes to the product class of e_i e_j."""
    if not lat.permutation:
        raise IncompatibleOperands("splitting needs a permutation lattice")
    n = lat.rank
    m = n * (n - 1) // 2
    s = np.vstack([np.eye(m, dtype=np.int64),
                   np.zeros((n, m), dtype=np.int64)])
    ses = exterior_ses(lat)
    if (ses.proj @ s != np.eye(m, dtype=np.int64)).any():
        raise InternalInvariant("splitting does not split")
    if not _equivariant(s, ses.quo, ses.mid):
        raise InternalInvariant("splitting is not equivariant")
    return s


def pullback_lattice(data: MNQData,
                     resolution: CoflasqueResolution) -> GLattice:
    """Kernel of (x, p) -> [x] - eval(p) over the marginal quotient M.

    Replaces the product lattice with a cover whose kernel is coflasque; the
    result is itself verified coflasque. The resolution must be one of M
    over data.group, else IncompatibleOperands.
    """
    group = data.group
    m, m_proj = _marginal_quotient(group)
    quo = resolution.ses.quo
    if quo.group is not group or quo.rank != m.rank or not _equivariant(
            np.eye(m.rank, dtype=np.int64), m, quo):
        raise IncompatibleOperands(
            "the resolution is not of the marginal quotient of this group")
    ev = resolution.ses.proj
    solver = IntSolver(int_left_kernel(np.hstack([m_proj, -ev]).T))
    out = _sublattice_action(direct_sum(_pair_lattice(group),
                                        resolution.cover),
                             solver, "pullback-kernel")
    for sub in subgroup_classes(group):
        if h1_integral(sub, out):
            raise CoflasquenessCheckFailed("pullback kernel is not coflasque")
    return out


def untrimmed_resolution(lat: GLattice) -> CoflasqueResolution:
    """coflasque_resolution(lat) with a summand at every subgroup class,
    spanned by every fixed row of lat there, in place of the top-down
    choice."""
    def every_class(lat, classes):
        return [lattices._CoverBlock.of(lat, sub, lattices._fixed_rows(
            lat.rank, lat.restricted_matrices(sub))) for sub in classes]
    with mock.patch.object(lattices, "_top_down_blocks", every_class):
        return lattices.coflasque_resolution(lat)


# -- the connecting image by former routes --


def _bfs_reference(group, gens):
    """Level-by-level BFS from the identity: element -> (parent, generator
    index), and every edge (a, i, b, new) in the order the walk meets it."""
    parent = {0: (-1, -1)}
    edges = []
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for i, s in enumerate(gens):
                b = int(group.table[a, s])
                edges.append((a, i, b, b not in parent))
                if b not in parent:
                    parent[b] = (a, i)
                    nxt.append(b)
        frontier = nxt
    return parent, edges


def _schreier_reference(group, mats, modulus=None):
    """The cocycle walk as a BFS of its own, blocks reduced by the mask and
    products taken in int64."""
    d, m = len(mats), mats[0].shape[0]
    red = (lambda x: x) if modulus is None else (lambda x: x & (modulus - 1))
    _, edges = _bfs_reference(group, group.generators())
    emat = {0: np.eye(m, dtype=np.int64)}
    coeff = {0: np.zeros((m, d * m), dtype=np.int64)}
    closing = []
    for a, i, b, new in edges:
        expr = coeff[a].copy()
        expr[:, i * m:(i + 1) * m] += emat[a]
        expr = red(expr)
        if new:
            coeff[b] = expr
            emat[b] = red(emat[a] @ mats[i])
        else:
            closing.append(red(coeff[b] - expr))
    return coeff, np.hstack([c.T for c in closing])


def _coboundary_rows_mod2(group, lat):
    """Rows spanning the coboundaries of one-cochains valued in the lattice
    mod 2; two-cochain coordinates are (g, h, i) flattened in that order."""
    n = group.order
    m = lat.rank
    t = group.table
    rows = np.zeros((n * m, n * n * m), dtype=np.uint8)
    mats = {g: (lat.matrix(g) % 2).astype(np.uint8) for g in range(n)}
    for h in range(n):
        for i in range(m):
            col = np.zeros((n, n, m), dtype=np.uint8)
            for g in range(n):
                col[g, h] ^= mats[g][:, i]        # g . w(h)
            for g, k in zip(*np.nonzero(t == h)):
                col[g, k, i] ^= 1                 # w(gh)
            col[h, :, i] ^= 1                     # w(g)
            rows[h * m + i] = col.reshape(-1)
    return rows


def _alpha_by_bar_pairs(lat):
    """The connecting image by the former route: the spills D_g z_v(h) at
    all n^2 pairs (g, h), modulo the bar coboundaries of L/2-valued
    one-cochains."""
    if lat.mod2_mask is not None:
        raise IncompatibleOperands("connecting image needs a free lattice")
    group = lat.group
    n = group.order
    if n > lattices.ALPHA_MAX_ORDER:
        raise BudgetExceeded("group order over the connecting-map budget")
    ml = lat.rank
    m = ml * (ml - 1) // 2
    gens = group.generators()
    if m * len(gens) > lattices.ALPHA_MAX_WEDGE_COLUMNS:
        raise BudgetExceeded("wedge fixed-point system over its budget")
    two = n & -n
    if m == 0 or two == 1:
        return []    # odd order: degree-two classes mod 2 vanish
    fixed = lattices._fixed_points_mod2k(
        n, [_wedge_minors_of_map(lat.matrix(s)) for s in gens])[0].matrix
    nb = fixed.shape[0]
    # A_h acts on W by 2x2 minors: v as an antisymmetric X goes to A_h X A_h^T
    i, j = _pair_arrays(ml)
    x = np.zeros((nb, ml, ml), dtype=np.int64)
    x[:, i, j] = fixed
    x[:, j, i] = -fixed
    # z_v mod 2 needs A_h v mod 2^(k+1): A_h enters reduced into [0, mod)
    mod = 2 * two
    assert ml * ml * (mod - 1) ** 2 * (two - 1) < 1 << 63
    # float32 products of 0/1 entries are exact: sums stay below 2**24
    dall = np.concatenate([_diag_block(lat.matrix(g)).T for g in range(n)],
                          axis=1).astype(np.float32)
    spills = np.zeros((nb, n, n, ml), dtype=np.uint8)    # (v, g, h, i)
    for h in range(1, n):  # the identity fixes v: z = 0, its spills stay 0
        a = lat.matrix(h) % mod
        diff = ((a @ x) @ a.T)[:, i, j] - fixed
        assert not (diff % two).any()
        z = ((diff // two) & 1).astype(np.float32)
        spills[:, :, h] = ((z @ dall) % 2).reshape(nb, n, ml)
    cob = _coboundary_rows_mod2(group, lat)
    rank0 = GF2Matrix.from_dense(cob).rank()
    both = GF2Matrix.from_dense(
        np.vstack([cob, spills.reshape(nb, n * n * ml)]))
    return [2] * (both.rank() - rank0)


def _alpha_by_mod2_cocycles(lat):
    """The connecting image by the former route: integral cocycles of the
    wedge square read mod 2 off the Schreier system mod 2^(v2|G|+1), and
    their spills D_g z(h) at every pair of elements."""
    g = lat.group
    n = g.order
    lam = lambda2(lat)
    if lam.rank == 0:
        return []
    k = (n & -n).bit_length()
    coeff, system = _schreier_reference(
        g, [lam.matrix(s) for s in g.generators()], 1 << k)
    # float32 products of 0/1 entries are exact: sums stay below 2**24
    zrows = (kernel_basis_modk(system, k).matrix & 1).astype(np.float32)
    vals = np.stack([zrows @ (coeff[h] & 1).T.astype(np.float32) % 2
                     for h in range(n)])
    diag = np.stack([_diag_block(lat.matrix(x)) for x in range(n)])
    spills = (np.einsum("gim,hzm->zghi", diag.astype(np.float32), vals)
              % 2).astype(np.uint8)
    cob = _coboundary_rows_mod2(g, lat)
    rank0 = GF2Matrix.from_dense(cob).rank()
    both = np.vstack([cob, spills.reshape(len(zrows), n * n * lat.rank)])
    return [2] * (GF2Matrix.from_dense(both).rank() - rank0)

