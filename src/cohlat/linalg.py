"""Exact linear algebra over F2 (bit-packed), Z/2^k, and Z.

Conventions: vectors are 1-D numpy arrays treated as rows, a matrix maps
x -> x @ M, and "kernel" always means the left kernel {x : x @ M = 0}.
Everything is deterministic: same input, same bytes out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import IncompatibleOperands, InternalInvariant

MAX_MOD_EXP = 12  # at most 16: Howell elimination runs on uint8/uint16 words

# trailing-zero lookup for residues mod 2^k, k <= MAX_MOD_EXP
_TZ = np.zeros(1 << MAX_MOD_EXP, dtype=np.int64)
_TZ[0] = MAX_MOD_EXP
for _i in range(1, 1 << MAX_MOD_EXP):
    _TZ[_i] = (_i & -_i).bit_length() - 1


def _inv_pow2(a: int, k: int) -> int:
    """Inverse of an odd residue mod 2^k."""
    return pow(int(a), -1, 1 << k)


# ---------------------------------------------------------------------------
# Howell forms over Z/2^k
# ---------------------------------------------------------------------------
#
# A Howell form is an echelon form whose row span is closed under the
# "shadow" rows 2^(k-v) * row for every row with pivot 2^v.  That closure is
# what makes prefix-zero slicing exact over Z/2^k: any span element whose
# first t coordinates vanish is a combination of the rows with pivots beyond
# column t.  Plain echelon forms do not have that property when zero
# divisors are around, and kernel extraction below relies on it.
#
# Elimination runs on narrow unsigned words (uint8 for k <= 8, uint16 for
# k <= 16) and reduces with the mask 2^k - 1.  Unsigned arithmetic wraps
# modulo 2^8 or 2^16, and 2^k divides that word modulus, so every product,
# difference and shift is exact mod 2^k before the mask is applied.  That
# needs k <= 16, which MAX_MOD_EXP guarantees.  Results go back to callers
# as int64.


@dataclass
class HowellForm:
    matrix: np.ndarray            # canonical rows, pivots strictly left-to-right
    pivots: List[Tuple[int, int]]  # (column, valuation exponent) per row
    modulus_exp: int

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _word(k: int):
    return np.uint8 if k <= 8 else np.uint16


def _store_modk(dst: np.ndarray, a: np.ndarray, k: int):
    """dst[...] = a mod 2^k, for dst of the word type of k.

    Casting an integer to the word keeps its low bits, and 2^k divides the
    word modulus, so integer input needs no int64 copy on the way. Float
    and object entries are reduced exactly mod 2^k first, so Python ints
    of any size are taken; a non-integral entry raises.
    """
    if a.dtype.kind not in "iub":
        try:
            integral = a.dtype.kind in "fO" and bool((a % 1 == 0).all())
        except TypeError:
            integral = False
        if not integral:
            raise IncompatibleOperands("matrix entries must be integers")
        a = (a % (1 << k)).astype(np.int64)
    dst[...] = a
    dst &= (1 << k) - 1


def howell_form(a: np.ndarray, k: int) -> HowellForm:
    """Canonical Howell form of integer matrix `a` taken mod 2^k."""
    if not 1 <= k <= MAX_MOD_EXP:
        raise IncompatibleOperands(f"modulus exponent {k} outside 1..{MAX_MOD_EXP}")
    mask = (1 << k) - 1
    word = _word(k)
    a = np.asarray(a)
    if a.ndim != 2:
        raise IncompatibleOperands("expected a 2-D matrix")
    nrows, ncols = a.shape
    # room for shadow rows; grown on demand
    cap = nrows + 8
    work = np.zeros((cap, ncols), dtype=word)
    _store_modk(work[:nrows], a, k)
    live = nrows
    done = 0
    pivots: List[Tuple[int, int]] = []
    for col in range(ncols):
        if done == live:
            break
        colvals = work[done:live, col]
        nz = np.nonzero(colvals)[0]
        if nz.size == 0:
            continue
        # the first entry of least valuation; an odd first entry is one
        if colvals[nz[0]] & 1:
            v = 0
            pick = done + int(nz[0])
        else:
            vals = _TZ[colvals[nz]]
            v = int(vals.min())
            pick = done + int(nz[np.argmax(vals == v)])
        # rows from done down vanish left of col, and so does every row
        # change below: only columns col: are touched
        if pick != done:
            work[[done, pick], col:] = work[[pick, done], col:]
        piv = work[done, col:]
        odd = int(piv[0]) >> v
        if odd != 1:
            piv[...] = (piv * word(_inv_pow2(odd, k))) & mask
        # eliminate the column everywhere else; above-rows end up reduced mod 2^v
        q = work[:live, col] >> v
        q[done] = 0
        rows = np.nonzero(q)[0]
        if rows.size:
            work[rows, col:] = (work[rows, col:]
                                - np.multiply.outer(q[rows], piv)) & mask
        if v > 0:
            shadow = (work[done] << (k - v)) & mask
            if shadow.any():
                if live == cap:
                    grow = max(8, cap // 2)
                    work = np.vstack([work, np.zeros((grow, ncols), dtype=word)])
                    cap += grow
                work[live] = shadow
                live += 1
        pivots.append((col, v))
        done += 1
    if work[done:live].any():
        raise InternalInvariant("Howell form: rows past the pivot block must be zero")
    return HowellForm(work[:done].astype(np.int64), pivots, k)


class ModKSolver:
    """Factored form of a matrix mod 2 for repeated solves x @ M = b.

    The factor is the packed reduced echelon form: pivot columns `pivcols`,
    echelon rows H and transform T with T @ M = H over F2, held side by
    side as one float32 array [H | T]; `echelon` and `transform` are its
    column views. Every other H row vanishes in a pivot column, so
    b[piv] @ [H | T] gives the residue b + b[piv] @ H and the solution
    b[piv] @ T in one BLAS product, exact for 0/1 sums below 2^24.
    Quotients mod 2^k read their coordinates off a Howell form instead.
    """

    def __init__(self, mat: np.ndarray):
        self.ncols = mat.shape[1]
        red, pivots, tm = GF2Matrix.from_dense(mat).rref(transform=True)
        r = len(pivots)
        self.pivcols = np.array(pivots, dtype=np.int64)
        self.factor = np.hstack([red.head(r).to_dense(),
                                 tm.head(r).to_dense()]).astype(np.float32)
        self.echelon = self.factor[:, :self.ncols]
        self.transform = self.factor[:, self.ncols:]

    def solve_many(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Solve x @ M = b mod 2 for each row b of rhs (a vector is one row).

        Returns (X, ok) where ok[i] is False when row i had no solution
        (X[i] is garbage in that case).
        """
        rhs = np.asarray(rhs, dtype=np.int64) & 1
        rhs = rhs[None, :] if rhs.ndim == 1 else rhs
        if rhs.shape[1] != self.ncols:
            raise IncompatibleOperands("rhs has wrong width")
        prod = f2_product(rhs[:, self.pivcols].astype(np.float32), self.factor)
        res = rhs ^ prod[:, :self.ncols]
        return prod[:, self.ncols:], ~res.any(axis=1)


def kernel_basis_modk(mat: np.ndarray, k: int) -> HowellForm:
    """Howell form of {x : x @ mat = 0 mod 2^k}.

    The rows of the Howell form of [mat | I] that vanish on mat's columns
    span the kernel, by the prefix-zero property, and they keep the shadow
    closure and reduced entries above their pivots: they are the kernel's
    own Howell form, read off with the pivots moved left by mat's width.
    """
    mat = np.asarray(mat)
    nrows, ncols = mat.shape
    # [mat | I] mod 2^k, built in the word howell_form eliminates on
    aug = np.zeros((nrows, ncols + nrows), dtype=_word(k))
    _store_modk(aug[:, :ncols], mat, k)
    aug[np.arange(nrows), ncols + np.arange(nrows)] = 1
    hf = howell_form(aug, k)
    lead = next((i for i, (c, _) in enumerate(hf.pivots) if c >= ncols),
                hf.rank)
    return HowellForm(hf.matrix[lead:, ncols:].copy(),
                      [(c - ncols, v) for c, v in hf.pivots[lead:]], k)


# ---------------------------------------------------------------------------
# Bit-packed F2 matrices
# ---------------------------------------------------------------------------


class GF2Matrix:
    """Dense F2 matrix with rows packed into uint64 words."""

    __slots__ = ("nrows", "ncols", "words")

    def __init__(self, nrows: int, ncols: int, words: Optional[np.ndarray] = None):
        self.nrows = nrows
        self.ncols = ncols
        nw = (ncols + 63) >> 6
        if words is None:
            words = np.zeros((nrows, max(nw, 1)), dtype=np.uint64)
        self.words = words

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "GF2Matrix":
        arr = (np.asarray(arr) & 1).astype(np.uint8)
        if arr.ndim != 2:
            raise IncompatibleOperands("expected a 2-D matrix")
        nrows, ncols = arr.shape
        nw = max((ncols + 63) >> 6, 1)
        packed = np.packbits(arr, axis=1, bitorder="little")
        buf = np.zeros((nrows, nw * 8), dtype=np.uint8)
        buf[:, : packed.shape[1]] = packed
        return cls(nrows, ncols, buf.view(np.uint64).reshape(nrows, nw))

    def to_dense(self) -> np.ndarray:
        if self.nrows == 0:
            return np.zeros((0, self.ncols), dtype=np.uint8)
        raw = self.words.view(np.uint8)
        bits = np.unpackbits(raw, axis=1, bitorder="little")
        return bits[:, : self.ncols].copy()

    def rref(self, transform: bool = False):
        """Reduced row echelon form; returns (rref, pivot_cols, transform_or_None).

        The transform satisfies T @ self = rref over F2, with the rows of T
        past the rank spanning the left kernel. Elimination runs on one
        packed [M | T] array, so each pivot swaps and clears once; T starts
        on a word boundary and is split off at the end.
        """
        n = self.nrows
        nw = self.words.shape[1]
        work = self.words.copy()
        if transform:
            work = np.hstack([work, GF2Matrix(n, n).words])
            diag = np.arange(n)
            work[diag, nw + (diag >> 6)] = \
                np.uint64(1) << (diag & 63).astype(np.uint64)
        r = 0
        pivots: List[int] = []
        c = 0  # first column not yet searched for a pivot
        while r < n and c < self.ncols:
            # rows r.. vanish left of c, so the next pivot column is the
            # lowest bit set in some row r..; a word with none is skipped
            w = c >> 6
            found = int(np.bitwise_or.reduce(work[r:, w]))
            if not found:
                c = (w + 1) << 6
                continue
            c = (w << 6) + (found & -found).bit_length() - 1
            if c >= self.ncols:
                break
            mask = (work[:, w] & np.uint64(1 << (c & 63))) != 0
            p = r + int(mask[r:].argmax())
            if p != r:
                work[[r, p]] = work[[p, r]]
            # rows r..p-1 had a zero here, so after the swap the rows to
            # clear are the ones marked, less the pivot row; the pivot row
            # is zero in the words left of w
            mask[p] = False
            if mask.any():
                work[mask, w:] ^= work[r, w:]
            pivots.append(c)
            r += 1
            c += 1
        tm = GF2Matrix(n, n, work[:, nw:].copy()) if transform else None
        return (GF2Matrix(n, self.ncols, np.ascontiguousarray(work[:, :nw])),
                pivots, tm)

    def head(self, r: int) -> "GF2Matrix":
        """The first r rows."""
        return GF2Matrix(r, self.ncols, self.words[:r])

    def rank(self) -> int:
        _, pivots, _ = self.rref()
        return len(pivots)


def f2_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod 2 for float32 0/1 factors, as int64; exact below 2^24 terms."""
    return (a @ b).astype(np.int64) & 1


# ---------------------------------------------------------------------------
# F2 subspaces in reduced echelon form
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of F2^n held as a canonical reduced-echelon basis."""

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: np.ndarray, pivots: List[int]):
        self.ambient_dim = ambient_dim
        self.basis = basis            # uint8, shape (dim, ambient_dim), canonical
        self._pivots = pivots

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((0, ambient_dim), dtype=np.uint8), [])

    @classmethod
    def span(cls, rows, ambient_dim: int) -> "Subspace":
        rows = np.asarray(rows, dtype=np.int64)     # from_dense reads it mod 2
        if rows.size == 0:
            return cls.zero(ambient_dim)
        red, pivots, _ = GF2Matrix.from_dense(
            rows.reshape(-1, ambient_dim)).rref()
        return cls(ambient_dim, red.head(len(pivots)).to_dense(), pivots)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce(self, rows) -> np.ndarray:
        """Residues of a vector, or of each row of a matrix, modulo the
        subspace: zero exactly on its members. Every basis row vanishes in
        the other rows' pivot columns, so one product reads them off."""
        rows = np.asarray(rows, dtype=np.int64) & 1
        flat = np.atleast_2d(rows)     # a view: the residues land in rows
        flat ^= f2_product(flat[:, self._pivots].astype(np.float32),
                           self.basis.astype(np.float32))
        return rows.astype(np.uint8)

    def contains_vector(self, v) -> bool:
        return not self.reduce(v).any()

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise IncompatibleOperands("ambient dimensions differ")
        return not self.reduce(other.basis).any()

    def union(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise IncompatibleOperands("ambient dimensions differ")
        return Subspace.span(np.vstack([self.basis, other.basis]) if self.dim or other.dim
                             else np.zeros((0, self.ambient_dim)), self.ambient_dim)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis.shape == other.basis.shape
                and bool(np.array_equal(self.basis, other.basis)))

    def __hash__(self):
        return hash((self.ambient_dim, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def basis_rows(self) -> List[List[int]]:
        return [[int(x) for x in row] for row in self.basis]


# ---------------------------------------------------------------------------
# Integer matrices: HNF, kernels, solve, Smith normal form
# ---------------------------------------------------------------------------

_INT64_GUARD = 1 << 50


def _as_int_matrix(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.dtype == object:
        return arr.copy()
    return arr.astype(np.int64, order="C", copy=True)


def _abs_max(m: np.ndarray) -> int:
    """Largest absolute entry, as a Python int (0 when empty)."""
    if m.size == 0:
        return 0
    return max(int(m.max()), -int(m.min()))


def _row_maxima(m: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each row of an int64 matrix, as int64."""
    return np.abs(m).max(axis=1, initial=0)


def row_hnf(a):
    """Row Hermite normal form. Returns (H, pivot_cols).

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    rows below the rank are zero and dropped. Falls back to Python ints
    before an entry of H would leave the int64 guard; the check reads
    per-row maxima, refreshed only on the rows a step changes.
    """
    work = _as_int_matrix(a)
    nrows, ncols = work.shape
    # per-row maxima of |work| while it is int64, else None
    wmax = _row_maxima(work) if work.dtype != object else None

    def subtract(rows: np.ndarray, q: np.ndarray, src: int):
        """work[rows] -= outer(q, work[src])."""
        nonlocal work, wmax
        if wmax is not None and (int(np.abs(q).max()) * int(wmax[src])
                                 + int(wmax[rows].max()) >= _INT64_GUARD):
            work = work.astype(object)
            wmax = None
        if wmax is None:
            q = q.astype(object)
        work[rows] -= np.outer(q, work[src])
        if wmax is not None:
            wmax[rows] = _row_maxima(work[rows])

    def swap(i: int, j: int):
        for m in (work, wmax):
            if m is not None:
                m[[i, j]] = m[[j, i]]

    done = 0
    pivcols: List[int] = []
    for col in range(ncols):
        if done == nrows:
            break
        while True:
            colvals = work[done:, col]
            nz = np.nonzero(colvals)[0]
            if nz.size == 0:
                break
            pick = done + int(nz[np.argmin(np.abs(colvals[nz]))])
            if pick != done:
                swap(done, pick)
            if work[done, col] < 0:
                work[done] = -work[done]
            piv = work[done, col]
            q = work[done + 1:, col] // piv
            hit = np.nonzero(q)[0]
            if hit.size == 0:
                if not np.any(work[done + 1:, col]):
                    break
                # remainders smaller than pivot exist; loop picks a smaller pivot
                continue
            subtract(done + 1 + hit, q[hit], done)
        if work[done, col]:
            piv = work[done, col]
            if done > 0:
                q = work[:done, col] // piv
                hit = np.nonzero(q)[0]
                if hit.size:
                    subtract(hit, q[hit], done)
            pivcols.append(col)
            done += 1
    return work[:done], pivcols


def int_left_kernel(a) -> np.ndarray:
    """Lattice basis of {x integer : x @ a = 0} (saturated by construction)."""
    work = _as_int_matrix(a)
    nrows, ncols = work.shape
    aug = np.zeros((nrows, ncols + nrows), dtype=work.dtype)
    aug[:, :ncols] = work
    aug[:, ncols:] = np.eye(nrows, dtype=work.dtype if work.dtype != object else np.int64)
    hnf, pivcols = row_hnf(aug)
    lead = [i for i, c in enumerate(pivcols) if c >= ncols]
    if not lead:
        return np.zeros((0, nrows), dtype=np.int64)
    ker = hnf[lead[0]:, ncols:]
    if ker.dtype == object:
        mx = max(abs(int(x)) for x in ker.flat) if ker.size else 0
        if mx < _INT64_GUARD:
            ker = ker.astype(np.int64)
    return np.array(ker, copy=True)


class IntSolver:
    """Integer row lattice kept in Hermite normal form as rows are added,
    with batched exact solves against that form."""

    def __init__(self, rows):
        rows = np.asarray(rows)
        self.hnf = np.zeros((0, rows.shape[1]), dtype=np.int64)
        self.pivcols: List[int] = []
        self._hmax: List[int] = []    # per-row maxima of |hnf|, for the guard
        self.add(rows)

    def add(self, rows) -> None:
        rows = np.asarray(rows)
        if rows.shape[0]:
            self.hnf, self.pivcols = row_hnf(np.vstack([self.hnf, rows]))
            self._hmax = [_abs_max(r) for r in self.hnf]

    def solve(self, rows) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinates of the rows in the basis `hnf`: returns (X, ok), where
        ok[i] says row i lies in the lattice and then X[i] @ hnf is row i.

        One reduction in pivot order: floor division leaves each pivot
        column in [0, pivot) and later basis rows vanish there, so a row is
        a member exactly when its residue is zero, and the quotients are its
        coordinates. Falls back to Python ints before an entry could leave
        the int64 guard. Members are checked in exact arithmetic; a
        mismatch raises InternalInvariant.
        """
        want = np.asarray(rows)
        res = _as_int_matrix(want)
        if res.ndim != 2 or res.shape[1] != self.hnf.shape[1]:
            raise IncompatibleOperands("rows have the wrong width")
        if self.hnf.dtype == object:
            res = res.astype(object)
        x = np.zeros((res.shape[0], len(self.pivcols)), dtype=res.dtype)
        bound = _abs_max(res) if res.dtype != object else 0
        for i, c in enumerate(self.pivcols):
            q = res[:, c] // self.hnf[i, c]
            hit = np.flatnonzero(q)
            if hit.size == 0:
                continue
            q = q[hit]
            if res.dtype != object:
                step = _abs_max(q) * self._hmax[i]
                if bound + step >= _INT64_GUARD:
                    bound = _abs_max(res)
                if bound + step >= _INT64_GUARD:
                    res, x, q = (a.astype(object) for a in (res, x, q))
                bound += step
            x[hit, i] = q
            res[hit] -= np.outer(q, self.hnf[i])
        ok = ~(res != 0).any(axis=1)
        xs = x[ok]
        # float64 sums are exact while every partial sum stays below 2^53
        if _abs_max(xs) * _abs_max(self.hnf) * len(self.pivcols) < 1 << 53:
            back = (xs.astype(np.float64)
                    @ self.hnf.astype(np.float64)).astype(np.int64)
        else:
            back = xs.astype(object) @ self.hnf.astype(object)
        if not np.array_equal(back, want[ok]):
            raise InternalInvariant("a solve does not reproduce its rows")
        return x, ok


def int_spans_equal(a, b) -> bool:
    """Do two integer row sets span the same lattice?"""
    ha, pa = row_hnf(a)
    hb, pb = row_hnf(b)
    return pa == pb and ha.shape == hb.shape and np.array_equal(ha, hb)


def smith_normal_form(a) -> np.ndarray:
    """Smith normal form D over Z: U @ a @ V = D for some unimodular U, V,
    with the nonzero diagonal d1 | d2 | ... positive and everything else
    zero. D holds Python ints when `a` does or an entry reaches the int64
    guard, else int64.

    Read off Hermite forms (Storjohann 2000): row_hnf alternates between
    the matrix and its transpose until the matrix is diagonal. A round's
    first pivot is the gcd of the last round's first row: it shrinks, or
    it divides that row and its row and column clear, after which the
    rest of the matrix goes on alone. The diagonal is then put in
    divisibility order by gcd/lcm swaps in Python ints.
    """
    arr = np.asarray(a)
    work, _ = row_hnf(arr)
    r = work.shape[0]
    while work.shape[1] != r or np.count_nonzero(work) != r:
        work, _ = row_hnf(work.T)
    diag = [int(x) for x in work.diagonal()]
    for i in range(r):
        for j in range(i + 1, r):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    big = arr.dtype == object or (r and diag[-1] >= _INT64_GUARD)
    out = np.zeros(arr.shape, dtype=object if big else np.int64)
    out[np.arange(r), np.arange(r)] = diag
    return out


def invariant_factors(a) -> List[int]:
    """Smith invariant factors of an integer matrix, 0s and 1s dropped."""
    d = smith_normal_form(a)
    return [int(x) for x in d.diagonal() if x not in (0, 1)]


def quotient_invariant_factors(space_rows, sub_rows) -> List[int]:
    """Invariant factors (with multiplicity, 1s dropped) of span(space)/span(sub).

    Requires span(sub) <= span(space) over Z; rows of `sub` are expressed in
    the Hermite basis of `space` by one batched solve and the coefficient
    matrix goes through Smith. Free quotient summands show up as trailing
    zeros.
    """
    solver = IntSolver(space_rows)
    coeffs, ok = solver.solve(sub_rows)
    if not ok.all():
        raise IncompatibleOperands("sub is not inside space")
    d = smith_normal_form(coeffs)
    diag = [int(d[i, i]) for i in range(min(d.shape))]
    facs = [x for x in diag if x not in (0, 1)]
    rank = sum(1 for x in diag if x != 0)
    return facs + [0] * (len(solver.pivcols) - rank)


def modk_quotient_invariant_factors(space, sub_rows, k: int) -> List[int]:
    """Invariant factors of span(space)/span(sub) as Z/2^k-modules.

    `space` is a HowellForm mod 2^k, as kernel_basis_modk returns it, or
    rows whose Howell form is taken here. The quotient is presented on the
    Howell rows h_i, pivot 2^v_i. One reduction against them in pivot order
    gives the coordinates of the sub rows and of the shadows
    2^(k-v_i) h_i. The relators are the sub coordinates and
    2^(k-v_i) e_i - coords(2^(k-v_i) h_i): in a relation sum c_j h_j = 0
    with first nonzero coefficient c_i, the pivot column of h_i reads
    c_i 2^v_i = 0, so c_i is a multiple of 2^(k-v_i) and subtracting that
    multiple of relator i leaves a relation starting further right.
    Elimination over Z/2^k finishes (_local_invariant_factors).
    """
    hf = space if isinstance(space, HowellForm) else howell_form(space, k)
    if hf.modulus_exp != k:
        raise IncompatibleOperands(
            f"Howell form is mod 2^{hf.modulus_exp}, not mod 2^{k}")
    mask = (1 << k) - 1
    width = hf.matrix.shape[1]
    sub = np.asarray(sub_rows, dtype=np.int64)
    sub = sub.reshape(0, width) if sub.size == 0 else np.atleast_2d(sub)
    if sub.ndim != 2 or sub.shape[1] != width:
        raise IncompatibleOperands("sub rows have the wrong width")
    r = hf.rank
    if r == 0:
        if (sub & mask).any():
            raise IncompatibleOperands("sub is not inside space")
        return []
    basis = hf.matrix & mask
    cols = np.array([c for c, _ in hf.pivots], dtype=np.int64)
    vals = np.array([v for _, v in hf.pivots], dtype=np.int64)
    if (basis.shape[0] != r or np.any(np.diff(cols) <= 0)
            or np.any(basis[np.arange(r), cols] != 1 << vals)
            or np.any(basis[np.arange(width)[None, :] < cols[:, None]])):
        raise InternalInvariant("not a Howell form: pivots out of echelon")
    shifts = k - vals
    rows = np.vstack([sub & mask, (basis << shifts[:, None]) & mask])
    coords = np.zeros((rows.shape[0], r), dtype=np.int64)
    for i, (col, v) in enumerate(hf.pivots):
        q = rows[:, col] >> v
        nz = np.flatnonzero(q)
        if nz.size:
            rows[nz] = (rows[nz] - np.outer(q[nz], basis[i])) & mask
            coords[nz, i] = q[nz]
    ns = sub.shape[0]
    if rows[:ns].any():
        raise IncompatibleOperands("sub is not inside space")
    if rows[ns:].any():
        raise InternalInvariant(
            "not a Howell form: a shadow row escapes the span")
    coords[ns + np.arange(r), np.arange(r)] -= 1 << shifts
    return _local_invariant_factors(coords & mask, k)


def _local_invariant_factors(rels: np.ndarray, k: int) -> List[int]:
    """Invariant factors, 1s dropped, of (Z/2^k)^n / rowspan(rels), rels
    with n columns and entries in [0, 2^k).

    Z/2^k is local: an entry of least valuation 2^v times a unit divides
    every other entry. So that pivot clears its column with row operations
    and its row with column operations, leaving 2^v and the matrix without
    its row and column. Least valuations never fall, so the factors come
    out in divisibility order; a column left over is a free summand, 2^k.
    """
    mask = (1 << k) - 1
    work = rels
    out: List[int] = []
    while work.size:
        tz = _TZ[work]
        pr, pc = divmod(int(tz.argmin()), work.shape[1])
        v = int(tz[pr, pc])
        if v >= k:
            break    # the rest is zero
        row = work[pr]
        odd = int(row[pc]) >> v
        if odd != 1:
            row = (row * _inv_pow2(odd, k)) & mask
        work = (work - np.outer(work[:, pc] >> v, row)) & mask
        work = np.delete(np.delete(work, pr, 0), pc, 1)
        if v:
            out.append(1 << v)
    return out + [1 << k] * work.shape[1]
