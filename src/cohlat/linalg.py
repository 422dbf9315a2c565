"""Exact linear algebra over F2 (bit-packed), Z/2^k, and Z.

Conventions: vectors are 1-D numpy arrays treated as rows, a matrix maps
x -> x @ M, and "kernel" always means the left kernel {x : x @ M = 0}.
Everything is deterministic: same input, same bytes out.
"""
from __future__ import annotations

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
    transform: Optional[np.ndarray]  # T with (T @ original) % m == matrix
    modulus_exp: int

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _word(k: int):
    return np.uint8 if k <= 8 else np.uint16


def _store_modk(dst: np.ndarray, a: np.ndarray, k: int):
    """dst[...] = a mod 2^k, for dst of the word type of k.

    Casting an integer to the word keeps its low bits, and 2^k divides the
    word modulus, so integer input needs no int64 copy on the way.
    """
    if a.dtype.kind not in "iu":
        a = a.astype(np.int64)
    dst[...] = a
    dst &= (1 << k) - 1


def howell_form(a: np.ndarray, k: int, transform: bool = False) -> HowellForm:
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
    tmat = None
    if transform:
        tmat = np.zeros((cap, nrows), dtype=word)
        tmat[:nrows, :nrows] = np.eye(nrows, dtype=word)
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
        vals = _TZ[colvals[nz]]
        v = int(vals.min())
        pick = done + int(nz[np.argmax(vals == v)])
        if pick != done:
            work[[done, pick]] = work[[pick, done]]
            if tmat is not None:
                tmat[[done, pick]] = tmat[[pick, done]]
        odd = int(work[done, col]) >> v
        if odd != 1:
            u = word(_inv_pow2(odd, k))
            work[done] = (work[done] * u) & mask
            if tmat is not None:
                tmat[done] = (tmat[done] * u) & mask
        # eliminate the column everywhere else; above-rows end up reduced mod 2^v
        q = work[:live, col] >> v
        q[done] = 0
        rows = np.nonzero(q)[0]
        if rows.size:
            work[rows] = (work[rows] - np.outer(q[rows], work[done])) & mask
            if tmat is not None:
                tmat[rows] = (tmat[rows] - np.outer(q[rows], tmat[done])) & mask
        if v > 0:
            shadow = (work[done] << (k - v)) & mask
            if shadow.any():
                if live == cap:
                    grow = max(8, cap // 2)
                    work = np.vstack([work, np.zeros((grow, ncols), dtype=word)])
                    if tmat is not None:
                        tmat = np.vstack([tmat, np.zeros((grow, nrows), dtype=word)])
                    cap += grow
                work[live] = shadow
                if tmat is not None:
                    tmat[live] = (tmat[done] << (k - v)) & mask
                live += 1
        pivots.append((col, v))
        done += 1
    if work[done:live].any():
        raise InternalInvariant("Howell form: rows past the pivot block must be zero")
    return HowellForm(work[:done].astype(np.int64),
                      pivots,
                      tmat[:done].astype(np.int64) if tmat is not None else None,
                      k)


class ModKSolver:
    """Factored form of a matrix mod 2^k for repeated solves x @ M = b.

    Above k = 1 the factor is the Howell form with transform. Mod 2 it is
    the packed reduced echelon form: pivot columns `pivcols`, echelon rows H
    and transform T with T @ M = H over F2, both held as float32. Every
    other H row vanishes in a pivot column, so a residue is b + b[piv] @ H
    and a solution b[piv] @ T: two BLAS products, exact for 0/1 sums below
    2^24. These are the H and T that howell_form(M, 1, transform=True)
    returns, since both eliminations take the first row with a nonzero
    entry as the pivot and clear the column in every other row.
    """

    def __init__(self, mat: np.ndarray, k: int):
        self.k = k
        self.m = 1 << k
        self.nrows, self.ncols = mat.shape
        if k == 1:
            red, pivots, tm = GF2Matrix.from_dense(mat).rref(transform=True)
            r = len(pivots)
            self.hf = None
            self.pivcols = np.array(pivots, dtype=np.int64)
            self.echelon = red.head(r).to_dense().astype(np.float32)
            self.transform = tm.head(r).to_dense().astype(np.float32)
        else:
            self.hf = howell_form(mat, k, transform=True)

    def solve_many(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Solve x @ M = b for each row b of rhs (a vector is one row).

        Returns (X, ok) where ok[i] is False when row i had no solution
        (X[i] is garbage in that case).
        """
        rhs = np.asarray(rhs, dtype=np.int64) & (self.m - 1)
        rhs = rhs[None, :] if rhs.ndim == 1 else rhs
        if rhs.shape[1] != self.ncols:
            raise IncompatibleOperands("rhs has wrong width")
        if self.hf is None:
            q = rhs[:, self.pivcols].astype(np.float32)
            res = rhs ^ f2_product(q, self.echelon)
            return f2_product(q, self.transform), ~res.any(axis=1)
        mask = self.m - 1
        res = rhs.copy()
        x = np.zeros((rhs.shape[0], self.nrows), dtype=np.int64)
        hmat, tmat = self.hf.matrix, self.hf.transform
        for i, (col, v) in enumerate(self.hf.pivots):
            q = res[:, col] >> v
            nz = np.nonzero(q)[0]
            if nz.size:
                res[nz] = (res[nz] - np.outer(q[nz], hmat[i])) & mask
                x[nz] = (x[nz] + np.outer(q[nz], tmat[i])) & mask
        ok = ~res.any(axis=1)
        return x, ok


def kernel_basis_modk(mat: np.ndarray, k: int) -> np.ndarray:
    """Howell basis of {x : x @ mat = 0 mod 2^k}."""
    mat = np.asarray(mat)
    nrows, ncols = mat.shape
    # [mat | I] mod 2^k, built in the word howell_form eliminates on
    aug = np.zeros((nrows, ncols + nrows), dtype=_word(k))
    _store_modk(aug[:, :ncols], mat, k)
    aug[np.arange(nrows), ncols + np.arange(nrows)] = 1
    hf = howell_form(aug, k)
    lead = [i for i, (c, _) in enumerate(hf.pivots) if c >= ncols]
    if not lead:
        return np.zeros((0, nrows), dtype=np.int64)
    return hf.matrix[lead[0]:, ncols:].copy()


def modk_spans_equal(a: np.ndarray, b: np.ndarray, k: int) -> bool:
    ha = howell_form(a, k).matrix
    hb = howell_form(b, k).matrix
    return ha.shape == hb.shape and bool(np.array_equal(ha, hb))


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

    def copy(self) -> "GF2Matrix":
        return GF2Matrix(self.nrows, self.ncols, self.words.copy())

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


def gf2_rref_dense(arr: np.ndarray):
    g = GF2Matrix.from_dense(arr)
    red, pivots, _ = g.rref()
    return red.head(len(pivots)).to_dense(), pivots


def f2_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod 2 for float32 0/1 factors, as int64; exact below 2^24 terms."""
    return (a @ b).astype(np.int64) & 1


def gf2_reduce(rows: np.ndarray, pivots, echelon: np.ndarray) -> np.ndarray:
    """Residues of 0/1 integer rows modulo a reduced echelon basis over F2.

    `echelon` holds the basis rows as float32 and `pivots` their pivot
    columns; every basis row vanishes in the other rows' pivot columns.
    """
    return rows ^ f2_product(rows[:, pivots].astype(np.float32), echelon)


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
        rows = np.asarray(rows, dtype=np.int64) & 1
        if rows.size == 0:
            return cls.zero(ambient_dim)
        rows = rows.reshape(-1, ambient_dim)
        red, pivots = gf2_rref_dense(rows)
        return cls(ambient_dim, red.astype(np.uint8), pivots)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce(self, v: np.ndarray) -> np.ndarray:
        v = (np.asarray(v, dtype=np.int64) & 1).astype(np.uint8).copy()
        for row, p in zip(self.basis, self._pivots):
            if v[p]:
                v ^= row
        return v

    def contains_vector(self, v) -> bool:
        return not self.reduce(v).any()

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise IncompatibleOperands("ambient dimensions differ")
        return all(self.contains_vector(r) for r in other.basis)

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
    return arr.astype(np.int64, copy=True)


def _needs_object(work: np.ndarray, q: np.ndarray, row: np.ndarray) -> bool:
    if work.dtype == object:
        return False
    qa = int(np.abs(q).max(initial=0))
    ra = int(np.abs(row).max(initial=0))
    wa = int(np.abs(work).max(initial=0))
    return qa * ra + wa >= _INT64_GUARD


def _to_object(*arrs):
    out = []
    for a in arrs:
        if a is None:
            out.append(None)
        elif a.dtype == object:
            out.append(a)
        else:
            out.append(a.astype(object))
    return out


def _abs_max(m: np.ndarray) -> int:
    """Largest absolute entry, as a Python int (0 when empty)."""
    if m.size == 0:
        return 0
    return max(int(m.max()), -int(m.min()))


def _row_maxima(m: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each row of an int64 matrix, as int64."""
    return np.abs(m).max(axis=1, initial=0)


def row_hnf(a, transform: bool = False):
    """Row Hermite normal form. Returns (H, pivot_cols, T) with T @ a = H.

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    rows below the rank are zero and dropped. Falls back to Python ints
    before an entry of H or T would leave the int64 guard; the check reads
    per-row maxima, refreshed only on the rows a step changes.
    """
    work = _as_int_matrix(a)
    nrows, ncols = work.shape
    tmat = None
    if transform:
        tmat = np.eye(nrows, dtype=work.dtype if work.dtype == object
                      else np.int64)
    # per-row maxima of |work| and |T| while both are int64, else None
    wmax = _row_maxima(work) if work.dtype != object else None
    tmax = np.ones(nrows, dtype=np.int64) if tmat is not None else None

    def subtract(rows: np.ndarray, q: np.ndarray, src: int):
        """work[rows] -= outer(q, work[src]), and the same on T."""
        nonlocal work, tmat, wmax, tmax
        if wmax is not None:
            qa = int(np.abs(q).max())
            over = qa * int(wmax[src]) + int(wmax[rows].max()) >= _INT64_GUARD
            if tmax is not None:
                over = over or (qa * int(tmax[src]) + int(tmax[rows].max())
                                >= _INT64_GUARD)
            if over:
                work, tmat = _to_object(work, tmat)
                wmax = tmax = None
        if wmax is None:
            q = q.astype(object)
        work[rows] -= np.outer(q, work[src])
        if tmat is not None:
            tmat[rows] -= np.outer(q, tmat[src])
        if wmax is not None:
            wmax[rows] = _row_maxima(work[rows])
            if tmax is not None:
                tmax[rows] = _row_maxima(tmat[rows])

    def swap(i: int, j: int):
        for m in (work, tmat, wmax, tmax):
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
                if tmat is not None:
                    tmat[done] = -tmat[done]
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
    hnf = work[:done]
    return hnf, pivcols, tmat


def int_left_kernel(a) -> np.ndarray:
    """Lattice basis of {x integer : x @ a = 0} (saturated by construction)."""
    work = _as_int_matrix(a)
    nrows, ncols = work.shape
    aug = np.zeros((nrows, ncols + nrows), dtype=work.dtype)
    aug[:, :ncols] = work
    aug[:, ncols:] = np.eye(nrows, dtype=work.dtype if work.dtype != object else np.int64)
    hnf, pivcols, _ = row_hnf(aug)
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
    """Factored integer matrix for repeated exact solves x @ M = b."""

    def __init__(self, mat):
        self.mat = _as_int_matrix(mat)
        self.ncols = self.mat.shape[1]
        self.nrows = self.mat.shape[0]
        self.hnf, self.pivcols, self.tmat = row_hnf(self.mat, transform=True)
        self._matmax = _abs_max(self.mat)

    def solve(self, b) -> Optional[np.ndarray]:
        """x with x @ M = b, or None when b is outside the row lattice.

        The answer is checked against M in exact arithmetic before it is
        returned; a mismatch raises InternalInvariant.
        """
        b = _as_int_matrix(np.asarray(b).reshape(1, -1))[0]
        res = b.astype(object) if self.hnf.dtype == object else b
        x = np.zeros(self.nrows, dtype=self.hnf.dtype)
        for i, c in enumerate(self.pivcols):
            piv = self.hnf[i, c]
            if res[c] % piv != 0:
                return None
            q = res[c] // piv
            if q:
                res = res - q * self.hnf[i]
                x = x + q * self.tmat[i]
        if np.any(res):
            return None
        # int64 is exact for the check when no partial sum can reach 2^63
        if (x.dtype == object or self.mat.dtype == object or
                _abs_max(x) * self._matmax * self.nrows >= 1 << 63):
            back = x.astype(object) @ self.mat.astype(object)
        else:
            back = x @ self.mat
        if not np.array_equal(back, b):
            raise InternalInvariant("integer solve does not reproduce its rhs")
        return x

    def contains(self, b) -> bool:
        return self.solve(b) is not None


class IntSpan:
    """Integer row lattice kept in Hermite normal form as rows are added,
    with membership read off residues against that form."""

    def __init__(self, width: int):
        self.hnf = np.zeros((0, width), dtype=np.int64)
        self.pivcols: List[int] = []
        self._hmax: List[int] = []

    def add(self, rows) -> None:
        rows = _as_int_matrix(rows)
        if rows.shape[0]:
            self.hnf, self.pivcols, _ = row_hnf(np.vstack([self.hnf, rows]))
            self._hmax = [_abs_max(r) for r in self.hnf]

    def residues(self, rows) -> np.ndarray:
        """The rows reduced by the basis; a row lies in the span exactly when
        its residue is zero. Floor division leaves each pivot column in
        [0, pivot), and later basis rows vanish there. Falls back to Python
        ints before an entry could leave the int64 guard."""
        res = _as_int_matrix(rows)
        if self.hnf.dtype == object:
            res = res.astype(object)
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
                    res = res.astype(object)
                    q = q.astype(object)
                bound += step
            res[hit] -= np.outer(q, self.hnf[i])
        return res


def int_spans_equal(a, b) -> bool:
    """Do two integer row sets span the same lattice?"""
    ha, pa, _ = row_hnf(a)
    hb, pb, _ = row_hnf(b)
    return pa == pb and ha.shape == hb.shape and np.array_equal(ha, hb)


def smith_normal_form(a) -> np.ndarray:
    """Smith normal form D over Z: U @ a @ V = D for some unimodular U, V,
    with the nonzero diagonal d1 | d2 | ... positive and everything else
    zero. Falls back to Python ints before an entry would leave the int64
    guard.
    """
    work = _as_int_matrix(a)
    nrows, ncols = work.shape

    def guard(q, vec):
        """Go to Python ints unless work -= outer(q, vec) stays in int64."""
        nonlocal work
        if _needs_object(work, np.atleast_1d(q), vec):
            work = work.astype(object)

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        sub = work[t:, t:]
        nz = np.nonzero(sub)
        if nz[0].size == 0:
            break
        vals = np.abs(sub[nz])
        j = int(np.argmin(vals))
        pr, pc = int(nz[0][j]) + t, int(nz[1][j]) + t
        if pr != t:
            work[[t, pr]] = work[[pr, t]]
        if pc != t:
            work[:, [t, pc]] = work[:, [pc, t]]
        if work[t, t] < 0:
            work[t] = -work[t]
        piv = work[t, t]
        col = work[t + 1:, t]
        row = work[t, t + 1:]
        qc = col // piv
        qr = row // piv
        if np.any(qc) or np.any(qr):
            guard(np.concatenate([np.atleast_1d(qc), np.atleast_1d(qr)]),
                  work[t])
            if np.any(qc):
                qc = work[t + 1:, t] // work[t, t]
                work[t + 1:] -= np.outer(qc, work[t])
            if np.any(qr):
                qr = work[t, t + 1:] // work[t, t]
                work[:, t + 1:] -= np.outer(work[:, t], qr)
            continue  # remainders may now be smaller than the pivot
        if np.any(work[t + 1:, t]) or np.any(work[t, t + 1:]):
            continue
        rest = work[t + 1:, t + 1:]
        if rest.size and piv > 1:
            bad = np.nonzero(rest % piv)
            if bad[0].size:
                r = int(bad[0][0]) + t + 1
                guard(1, work[r])
                work[t] += work[r]
                continue
        t += 1
    return work


def invariant_factors(a, drop_ones: bool = True) -> List[int]:
    """Nonzero Smith invariant factors of an integer matrix."""
    d = smith_normal_form(a)
    out = [int(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0]
    if drop_ones:
        out = [x for x in out if x != 1]
    return out


def quotient_invariant_factors(space_rows, sub_rows) -> List[int]:
    """Invariant factors (with multiplicity, 1s dropped) of span(space)/span(sub).

    Requires span(sub) <= span(space) over Z; rows of `sub` are expressed in
    the basis extracted from `space` and the coefficient matrix goes through
    Smith. Free quotient summands show up as trailing zeros.
    """
    space_rows = _as_int_matrix(space_rows)
    sub_rows = _as_int_matrix(sub_rows)
    basis, _, _ = row_hnf(space_rows)
    if basis.shape[0] == 0:
        if sub_rows.size and np.any(sub_rows):
            raise IncompatibleOperands("sub is not inside space")
        return []
    solver = IntSolver(basis)
    coeffs = []
    for r in sub_rows:
        x = solver.solve(r)
        if x is None:
            raise IncompatibleOperands("sub is not inside space")
        coeffs.append(x[: basis.shape[0]])
    if not coeffs:
        return [0] * basis.shape[0]
    cm = np.array(coeffs, dtype=object if basis.dtype == object else np.int64)
    d = smith_normal_form(cm)
    diag = [int(d[i, i]) for i in range(min(d.shape))]
    facs = [x for x in diag if x not in (0, 1)]
    rank = sum(1 for x in diag if x != 0)
    facs += [0] * (basis.shape[0] - rank)
    return facs


def modk_quotient_invariant_factors(space_rows, sub_rows, k: int) -> List[int]:
    """Invariant factors of span(space)/span(sub) as Z/2^k-modules.

    Presents the quotient on the Howell generators of the space: relators are
    the sub rows in those coordinates, the mod-2^k relations among the
    generators themselves (a Howell row times its pivot order need not die),
    and 2^k times each generator.  Smith over Z finishes.
    """
    hf = howell_form(space_rows, k)
    if hf.rank == 0:
        if np.any(np.asarray(sub_rows, dtype=np.int64) % (1 << k)):
            raise IncompatibleOperands("sub is not inside space")
        return []
    solver = ModKSolver(hf.matrix, k)
    sub_rows = np.asarray(sub_rows, dtype=np.int64)
    if sub_rows.size:
        coeffs, ok = solver.solve_many(sub_rows)
        if not ok.all():
            raise IncompatibleOperands("sub is not inside space")
        rels = [coeffs]
    else:
        rels = []
    selfrels = kernel_basis_modk(hf.matrix, k)
    if selfrels.size:
        rels.append(selfrels)
    rels.append((1 << k) * np.eye(hf.rank, dtype=np.int64))
    return invariant_factors(np.vstack(rels))
