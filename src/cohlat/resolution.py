"""Minimal free resolutions of the trivial module over (Z/2^k)[G].

A complex stores, per degree, a free module over the acting group's modular
group algebra. Coordinates are plain Z/2^k entries indexed so that every
coordinate is (group element) . (module generator); boundaries are dense
matrices acting on row vectors, x -> x @ d. Composition therefore reads
d[i] @ d[i-1], and d[i] @ d[i-1] == 0. Chain maps are lifted over F2 on
these same boundaries, read mod 2, and held as 0/1 uint8 matrices.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (BudgetExceeded, IncompatibleOperands, InternalInvariant,
                     LiftFailed, ValidationError)
from .groups import FiniteGroup, Subgroup
from .linalg import (MAX_MOD_EXP, GF2Matrix, ModKSolver, Subspace, _word,
                     f2_product, howell_form, kernel_basis_modk)

MAX_RESOLUTION_DEGREE = 12


class GModuleComplex:
    """Chain complex of free modules over (Z/2^k)[H] for an acting group H.

    The acting group may sit inside an ambient group whose multiplication
    table indexes the coordinates (used for restricted complexes, which share
    their boundary matrices with the parent resolution).
    """

    def __init__(self, group: FiniteGroup, modulus_exp: int,
                 amb_group: Optional[FiniteGroup] = None):
        if not 1 <= modulus_exp <= MAX_MOD_EXP:
            raise ValidationError(
                f"modulus exponent must be in 1..{MAX_MOD_EXP}")
        self.group = group
        self.k = modulus_exp
        self.mod = 1 << modulus_exp
        self.amb_group = amb_group if amb_group is not None else group
        self.ranks: List[int] = []
        self.dims: List[int] = []
        self.boundaries: List[Optional[np.ndarray]] = []
        self.coord_gen: List[np.ndarray] = []
        self.coord_elt: List[np.ndarray] = []
        self.coord_index: List[np.ndarray] = []  # (rank, |H|) -> coordinate
        self._actions: Dict[int, np.ndarray] = {}
        self._solvers: Dict[int, ModKSolver] = {}
        # guards _solvers, the mod-2 factorizations restricted complexes share
        self._lock = threading.Lock()

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def gen_coords(self, degree: int) -> np.ndarray:
        return self.coord_index[degree][:, 0]

    def add_degree(self, coord_gen: np.ndarray, coord_elt: np.ndarray,
                   boundary: Optional[np.ndarray]):
        nloc = self.group.order
        rank = (int(coord_gen.max()) + 1) if coord_gen.size else 0
        dim = coord_gen.size
        if dim != rank * nloc:
            raise InternalInvariant("coordinate layout is not free")
        if dim and np.bincount(coord_gen * nloc + coord_elt,
                               minlength=dim).max() != 1:
            raise InternalInvariant("coordinate labels collide")
        index = np.zeros((rank, nloc), dtype=np.int64)
        index[coord_gen, coord_elt] = np.arange(dim)
        self.ranks.append(rank)
        self.dims.append(dim)
        self.coord_gen.append(coord_gen.astype(np.int64))
        self.coord_elt.append(coord_elt.astype(np.int64))
        self.coord_index.append(index)
        self.boundaries.append(boundary)

    def add_standard_degree(self, rank: int, boundary: Optional[np.ndarray]):
        """Degree with layout (generator, ambient element), identity acting."""
        if self.amb_group is not self.group:
            raise InternalInvariant("standard layout needs ambient == acting")
        n = self.group.order
        coord_gen = np.repeat(np.arange(rank, dtype=np.int64), n)
        coord_elt = np.tile(np.arange(n, dtype=np.int64), rank)
        self.add_degree(coord_gen, coord_elt, boundary)

    def action_table(self, degree: int) -> np.ndarray:
        """Gathers of the action, one row per element: (g . v)[c] is
        v[table[g, c]], the coordinate of g^-1 . c."""
        table = self._actions.get(degree)
        if table is None:
            moved = self.group.table[self.group.inv[:, None],
                                     self.coord_elt[degree]]
            table = self.coord_index[degree][self.coord_gen[degree], moved]
            self._actions[degree] = table
        return table

    def act(self, degree: int, g_local: int, rows: np.ndarray) -> np.ndarray:
        """g . v for row vectors in degree `degree` coordinates."""
        gather = self.action_table(degree)[g_local]
        return np.ascontiguousarray(rows[..., gather])

    def extend_rows(self, degree: int, gen_rows: np.ndarray,
                    dst: "GModuleComplex", dst_degree: int) -> np.ndarray:
        """Equivariant extension of generator images to a full matrix.

        gen_rows[s] is the image of generator s of this complex in degree
        `degree`, written in dst's coordinates at dst_degree. Both complexes
        must share the acting group. The result has gen_rows' dtype; uint8
        rows are 0/1 chain-map rows and are taken as reduced.
        """
        if dst.group is not self.group and dst.group != self.group:
            raise IncompatibleOperands("acting groups differ")
        gen_rows = np.asarray(gen_rows)
        if gen_rows.dtype != np.uint8:
            gen_rows = gen_rows % self.mod
        table = dst.action_table(dst_degree)
        out = np.empty((self.dims[degree], dst.dims[dst_degree]),
                       dtype=gen_rows.dtype)
        # the coordinate of g . (generator s) takes g . gen_rows[s]
        out[self.coord_index[degree]] = np.take(gen_rows, table, axis=1)
        return out

    def boundary_solver(self, degree: int) -> ModKSolver:
        """The boundary's factorization mod 2, which every chain lift uses."""
        with self._lock:
            s = self._solvers.get(degree)
            if s is None:
                s = ModKSolver(self.boundaries[degree])
                self._solvers[degree] = s
        return s

    def block_augment(self, degree: int, rows: np.ndarray,
                      two_exp: int) -> np.ndarray:
        """Sum coordinates over each generator block (the augmentation),
        mod 2^two_exp."""
        rows = np.atleast_2d(rows)
        out = rows[:, self.coord_index[degree]].sum(axis=2, dtype=np.int64)
        return out % (1 << two_exp)


def _minimal_generators(cx: GModuleComplex, degree: int,
                        kernel_rows: np.ndarray) -> np.ndarray:
    """Greedy minimal module generators of the kernel K (Nakayama).

    A row w is selected when it lies outside mK plus the span of the rows
    selected before it, m = (2, I) with I the augmentation ideal. The
    choice is made over F2 in Kbar / I.Kbar, Kbar = K mod 2, which is the
    same vector space: the resolution is exact, made of free Z/2^k-modules
    and ends on Z/2^k, so every kernel K is a Z/2^k-direct summand of its
    free module F. Then K meets 2F in 2K, and reduction mod 2 maps K onto
    Kbar with kernel 2K, hence K/mK = Kbar/I.Kbar and a row is selected in
    one exactly when it is selected in the other.

    I.Kbar is the span of the (x-1)wbar, x in G; since
    (gy-1)w = (g-1)(yw) + (y-1)w and yw lies in Kbar, the (g-1)wbar for the
    group generators g and the kernel rows w span it. The rows are reduced
    by its packed echelon form; the residues independent of the residues
    before them pick the generators, and they are the pivot columns of the
    echelon form of the residues transposed.
    """
    if kernel_rows.shape[0] == 0:
        return kernel_rows
    bar = kernel_rows & 1
    radical = np.vstack([cx.act(degree, g, bar) ^ bar
                         for g in cx.group.generators()])
    residues = Subspace.span(radical, bar.shape[1]).reduce(bar)
    return kernel_rows[GF2Matrix.from_dense(residues.T).rref()[1]]


# resolutions kept, least recently used evicted first; one sz8-sylow
# criterion run holds 9, one per isomorphism type of subgroup
RES_CACHE_SIZE = 64
_RES_CACHE: "OrderedDict[Tuple[FiniteGroup, int], GModuleComplex]" = OrderedDict()
# guards _RES_CACHE and the in-place extension of the complexes it holds
_RES_LOCK = threading.Lock()


def minimal_resolution(group: FiniteGroup, modulus_exp: int,
                       max_degree: int) -> GModuleComplex:
    """Minimal free resolution of the trivial module out to max_degree.

    Results are cached per (group, modulus), RES_CACHE_SIZE at most, and
    extended in place when a deeper resolution is requested later.
    """
    if max_degree > MAX_RESOLUTION_DEGREE:
        raise BudgetExceeded(
            f"resolution degree {max_degree} > {MAX_RESOLUTION_DEGREE}")
    key = (group, modulus_exp)
    with _RES_LOCK:
        cx = _RES_CACHE.get(key)
        if cx is None:
            cx = GModuleComplex(group, modulus_exp)
            cx.add_standard_degree(1, None)
            _RES_CACHE[key] = cx
            while len(_RES_CACHE) > RES_CACHE_SIZE:
                _RES_CACHE.popitem(last=False)
        else:
            _RES_CACHE.move_to_end(key)
        _extend_resolution(cx, max_degree)
    return cx


def extend_resolution(cx: GModuleComplex, max_degree: int):
    """Deepen a complex from minimal_resolution in place to max_degree.

    Holders of a complex deepen it through this call, not by asking
    minimal_resolution again: the cache may have evicted their complex and
    would then hand back a new one.
    """
    if max_degree > MAX_RESOLUTION_DEGREE:
        raise BudgetExceeded(
            f"resolution degree {max_degree} > {MAX_RESOLUTION_DEGREE}")
    with _RES_LOCK:
        _extend_resolution(cx, max_degree)


def _extend_resolution(cx: GModuleComplex, max_degree: int):
    n = cx.group.order
    while cx.top_degree < max_degree:
        deg = cx.top_degree
        if deg == 0:
            mat = np.ones((n, 1), dtype=np.int64)  # the augmentation
        else:
            mat = cx.boundaries[deg]
        kernel = kernel_basis_modk(mat, cx.k).matrix
        gens = _minimal_generators(cx, deg, kernel)
        if gens.shape[0] == 0:
            # trivial group: the resolution stops, pad with zero modules
            cx.add_standard_degree(0, np.zeros((0, cx.dims[deg]),
                                               dtype=_word(cx.k)))
            continue
        if cx.block_augment(deg, gens, two_exp=1).any():
            raise InternalInvariant("selected generators are not minimal")
        # d_deg is equivariant, so the new boundary composes to zero exactly
        # when its generator rows do
        if deg >= 1 and (gens @ cx.boundaries[deg] % cx.mod).any():
            raise InternalInvariant("boundary composition is nonzero")
        # standard layout: row s*n + g is g . gens[s]; stored in the Howell
        # word, entries in [0, 2^k)
        rank = gens.shape[0]
        boundary = gens.astype(_word(cx.k))[:, cx.action_table(deg)]
        cx.add_standard_degree(rank, boundary.reshape(rank * n, -1))


def restrict_complex(cx: GModuleComplex, sub: Subgroup) -> GModuleComplex:
    """View a resolution of G as a complex of free H-modules, H <= G.

    Boundary matrices are shared, not copied. Generators of the restricted
    module sit at the right-coset representatives: the H-orbit of a
    coordinate (s, x) is {(s, hx)} and is labeled by the coset Hx.
    """
    if cx.amb_group is not cx.group:
        raise IncompatibleOperands("can only restrict a plain resolution")
    parent = cx.group
    hgrp, _ = sub.as_group()
    cosidx, hloc = sub.right_coset_table()
    n = parent.order
    ncos = sub.index
    out = GModuleComplex(hgrp, cx.k, amb_group=parent)
    for i in range(cx.top_degree + 1):
        amb_elt = np.tile(np.arange(n, dtype=np.int64), cx.ranks[i])
        amb_gen = np.repeat(np.arange(cx.ranks[i], dtype=np.int64), n)
        coord_gen = amb_gen * ncos + cosidx[amb_elt]
        coord_elt = hloc[amb_elt]
        out.add_degree(coord_gen, coord_elt, cx.boundaries[i])
    out._solvers = cx._solvers  # same matrices, share the mod-2 factorizations
    out._lock = cx._lock
    return out


def _lift(src: GModuleComplex, src_degree: int, dst: GModuleComplex,
          gen_rows: np.ndarray, steps: int
          ) -> Tuple[List[np.ndarray], np.ndarray]:
    """F2 lift of the 0/1 generator images gen_rows, src degree
    src_degree -> dst degree 0, through `steps` degrees.

    Returns the uint8 maps f[j]: src degree src_degree + j -> dst degree j
    for j < steps, and only the generator rows of f[steps]. Products run in
    float32 BLAS on 0/1 data, exact below 2^24 terms.
    """
    maps = []
    for j in range(1, steps + 1):
        maps.append(src.extend_rows(src_degree + j - 1, gen_rows, dst, j - 1))
        i = src_degree + j
        rows = src.boundaries[i][src.gen_coords(i)] & 1
        rhs = f2_product(rows.astype(np.float32),
                         maps[-1].astype(np.float32))
        sol, ok = dst.boundary_solver(j).solve_many(rhs)
        if not ok.all():
            raise LiftFailed(f"no chain lift from degree {i} onto degree {j}")
        gen_rows = sol.astype(np.uint8)
    return maps, gen_rows


def lift_chain_map(src: GModuleComplex, dst: GModuleComplex,
                   gen_rows0: np.ndarray, through_degree: int
                   ) -> List[np.ndarray]:
    """Lift a degree-0 generator assignment to a chain map src -> dst over F2.

    Both complexes are read mod 2. Returns 0/1 uint8 matrices f[i] with
    d_src[i] @ f[i-1] == f[i] @ d_dst[i] mod 2. Requires dst to be exact
    mod 2 in degrees 1..through_degree, as every resolution here is: it
    is made of free Z/2^k-modules and resolves Z/2^k.
    """
    gen0 = (np.atleast_2d(gen_rows0) & 1).astype(np.uint8)
    f, top = _lift(src, 0, dst, gen0, through_degree)
    return f + [src.extend_rows(through_degree, top, dst, through_degree)]


def verify_exactness(cx: GModuleComplex, degree: int) -> bool:
    """Check im d_(degree+1) == ker d_degree (degree 0: the augmentation)."""
    if degree == 0:
        mat = np.ones((cx.dims[0], 1), dtype=np.int64)
    else:
        mat = cx.boundaries[degree]
    # both Howell forms are canonical, so equal spans give equal matrices
    return np.array_equal(kernel_basis_modk(mat, cx.k).matrix,
                          howell_form(cx.boundaries[degree + 1], cx.k).matrix)


def verify_boundary_squares(cx: GModuleComplex) -> bool:
    # boundaries in the Howell word multiply in that word, which wraps
    # modulo 2^8 or 2^16; 2^k divides that modulus, so the product is
    # exact mod 2^k
    for i in range(2, cx.top_degree + 1):
        if (cx.boundaries[i] @ cx.boundaries[i - 1] & (cx.mod - 1)).any():
            return False
    return True

