"""Exact linear algebra tests, cross-checked against naive oracles."""
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohlat.errors import InternalInvariant
from cohlat.linalg import (
    MAX_MOD_EXP,
    GF2Matrix,
    IntSolver,
    IntSpan,
    ModKSolver,
    Subspace,
    howell_form,
    int_left_kernel,
    int_spans_equal,
    invariant_factors,
    kernel_basis_modk,
    modk_quotient_invariant_factors,
    modk_spans_equal,
    quotient_invariant_factors,
    row_hnf,
    smith_normal_form,
)


def _naive_span_modk(rows, k, width=None):
    """Every Z/2^k combination of the rows, as a set of tuples."""
    m = 1 << k
    rows = [tuple(int(x) % m for x in r) for r in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
    seen = {tuple([0] * width)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for r in rows:
                w = tuple((a + b) % m for a, b in zip(v, r))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_howell_span_matches_naive_enumeration():
    rng = random.Random(7)
    for k in (1, 2, 3):
        m = 1 << k
        for _ in range(25):
            nr, nc = rng.randint(1, 3), rng.randint(1, 3)
            a = np.array([[rng.randrange(m) for _ in range(nc)] for _ in range(nr)])
            hf = howell_form(a, k)
            assert _naive_span_modk(a, k) == _naive_span_modk(hf.matrix, k, nc)
            # membership agrees with enumeration, and a solution solves
            span = _naive_span_modk(a, k)
            hsolver = ModKSolver(a, k)
            for _ in range(10):
                v = np.array([rng.randrange(m) for _ in range(nc)])
                x, ok = hsolver.solve_many(v)
                assert bool(ok[0]) == (tuple(int(e) for e in v) in span)
                if ok[0]:
                    assert np.array_equal((x[0] @ a) % m, v)


def test_howell_canonical_under_row_shuffle():
    rng = random.Random(3)
    for k in (1, 2, 4):
        m = 1 << k
        a = np.array([[rng.randrange(m) for _ in range(5)] for _ in range(6)])
        h1 = howell_form(a, k).matrix
        perm = list(range(6))
        rng.shuffle(perm)
        h2 = howell_form(a[perm], k).matrix
        assert np.array_equal(h1, h2)
        # unit row scalings do not change the span either
        scaled = (a * 3) % m
        extra = np.vstack([a, scaled])
        h3 = howell_form(extra, k).matrix
        assert np.array_equal(h1, h3)


def test_howell_shadow_rows_capture_torsion():
    # span of (2,1) mod 4 contains (0,2) = 2*(2,1) mod 4; echelon without
    # the shadow row would miss it in prefix-zero slicing
    a = np.array([[2, 1]])
    hf = howell_form(a, 2)
    assert hf.matrix.tolist() == [[2, 1], [0, 2]]  # the shadow row
    x, ok = ModKSolver(a, 2).solve_many(np.array([0, 2]))
    assert ok[0] and np.array_equal((x[0] @ a) % 4, [0, 2])
    ker = kernel_basis_modk(np.array([[2], [1]]), 2)
    # x1*2 + x2*1 = 0 mod 4: solutions generated by (1,2) and (0,4)=0
    naive = {(x, y) for x in range(4) for y in range(4) if (2 * x + y) % 4 == 0}
    assert _naive_span_modk(ker, 2) == naive


def test_kernel_modk_random_against_bruteforce():
    rng = random.Random(11)
    for k in (1, 2, 3):
        m = 1 << k
        for _ in range(20):
            nr, nc = rng.randint(1, 3), rng.randint(1, 2)
            a = np.array([[rng.randrange(m) for _ in range(nc)] for _ in range(nr)])
            ker = kernel_basis_modk(a, k)
            naive = {v for v in itertools.product(range(m), repeat=nr)
                     if not np.any((np.array(v) @ a) % m)}
            assert _naive_span_modk(ker, k, nr) == naive
            for row in ker:
                assert not np.any((row @ a) % m)


def test_modk_solver_roundtrip():
    rng = random.Random(13)
    for k in (1, 3, 7):
        m = 1 << k
        a = np.array([[rng.randrange(m) for _ in range(6)] for _ in range(4)])
        s = ModKSolver(a, k)
        for _ in range(10):
            x = np.array([rng.randrange(m) for _ in range(4)])
            b = (x @ a) % m
            y, ok = s.solve_many(b)
            assert ok.shape == (1,) and ok[0]
            assert np.array_equal((y[0] @ a) % m, b)


def test_gf2_matrix_pack_unpack_and_rank():
    rng = random.Random(5)
    for _ in range(10):
        nr, nc = rng.randint(1, 9), rng.randint(1, 130)
        arr = np.array([[rng.randrange(2) for _ in range(nc)] for _ in range(nr)])
        g = GF2Matrix.from_dense(arr)
        assert np.array_equal(g.to_dense(), arr)
        # rank against fraction-free elimination over Q
        from fractions import Fraction
        mat = [[Fraction(int(x)) for x in row] for row in arr]
        r = 0
        for c in range(nc):
            p = next((i for i in range(r, nr) if mat[i][c] % 2 != 0), None)
            if p is None:
                continue
            mat[r], mat[p] = mat[p], mat[r]
            for i in range(nr):
                if i != r and mat[i][c] % 2 != 0:
                    mat[i] = [(a - b) % 2 for a, b in zip(mat[i], mat[r])]
            r += 1
        assert g.rank() == r


def test_gf2_kernel_solve():
    rng = random.Random(17)
    for _ in range(10):
        nr, nc = rng.randint(2, 8),  rng.randint(2, 70)
        arr = np.array([[rng.randrange(2) for _ in range(nc)] for _ in range(nr)])
        g = GF2Matrix.from_dense(arr)
        red, pivots, tm = g.rref(transform=True)
        t = tm.to_dense().astype(np.int64)
        assert np.array_equal((t @ arr) % 2, red.to_dense())
        # the rows past the rank kill the matrix and are independent
        ker = t[len(pivots):]
        assert ker.shape[0] == nr - g.rank()
        assert not ((ker @ arr) % 2).any()
        assert GF2Matrix.from_dense(ker).rank() == ker.shape[0]


def test_subspace_canonical_and_ops():
    v1 = [1, 0, 1, 0]
    v2 = [0, 1, 1, 0]
    s = Subspace.span([v1, v2, [1, 1, 0, 0]], 4)
    assert s.dim == 2
    assert s.contains_vector([1, 1, 0, 0])
    assert not s.contains_vector([0, 0, 0, 1])
    t = Subspace.span([[0, 0, 0, 1]], 4)
    u = s.union(t)
    assert u.dim == 3 and u.contains(s) and u.contains(t)
    assert Subspace.span([v2, v1], 4) == Subspace.span([v1, v2, [1, 1, 0, 0]], 4)


def test_smith_hand_checked_diagonal():
    d = smith_normal_form(np.diag([6, 4]))
    assert d.tolist() == [[2, 0], [0, 12]]


def _smith_diagonal_by_minors(rows):
    """Smith diagonal from determinantal divisors: d_k = D_k / D_(k-1), D_k
    the gcd of the k x k minors (an oracle independent of elimination)."""
    nr, nc = len(rows), len(rows[0])
    out, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        dk = 0
        for ri in itertools.combinations(range(nr), k):
            for ci in itertools.combinations(range(nc), k):
                dk = math.gcd(dk, _int_det([[rows[i][j] for j in ci]
                                            for i in ri]))
        if dk == 0:
            out += [0] * (min(nr, nc) - len(out))
            break
        out.append(dk // prev)
        prev = dk
    return out


def _check_smith_form(a, d):
    nr, nc = a.shape
    diag = [int(d[i, i]) for i in range(min(nr, nc))]
    off = np.array(d, dtype=object)
    for i in range(min(nr, nc)):
        off[i, i] = 0
    assert d.shape == a.shape and not np.any(off)
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero) and diag[:len(nonzero)] == nonzero
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    return diag


def test_smith_random_properties():
    rng = random.Random(23)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        a = np.array(rows)
        diag = _check_smith_form(a, smith_normal_form(a))
        assert diag == _smith_diagonal_by_minors(rows)


def test_smith_large_entries_object_fallback():
    rows = [[2**40, 3**20], [5**15, 7**12]]
    d = smith_normal_form(np.array(rows, dtype=np.int64))
    assert d.dtype == object
    assert _check_smith_form(np.array(rows), d) == _smith_diagonal_by_minors(rows)


@pytest.mark.parametrize("scale", [1, 1 << 45])
def test_int_span_membership_matches_the_solver(scale):
    # residues vanish exactly on the lattice IntSolver solves in; the large
    # scale pushes the reduction past the int64 guard
    rng = np.random.default_rng(7)
    for _ in range(25):
        w = int(rng.integers(1, 7))
        chunks = [rng.integers(-4, 5, size=(int(rng.integers(0, 4)), w))
                  for _ in range(3)]
        span = IntSpan(w)
        for c in chunks:
            span.add(c * scale)
        rows = np.vstack(chunks)
        members = rng.integers(-3, 4, size=(4, rows.shape[0])) @ rows
        cands = np.vstack([members, rng.integers(-6, 7, size=(6, w))])
        cands = cands * scale
        res = span.residues(cands)
        solver = IntSolver(rows.astype(object) * scale) if rows.size else None
        for cand, r in zip(cands, res):
            inside = solver is not None and solver.contains(cand)
            inside = inside or (solver is None and not np.any(cand))
            assert (not np.any(r)) == inside
        assert not np.any(res[:len(members)])
    # q = 2^30 against a row entry 2^40: the product 2^70 wraps to 0 in int64
    span = IntSpan(2)
    span.add(np.array([[1, 1 << 40]]))
    far = np.array([[1 << 30, 0]])
    assert np.any(span.residues(far))
    assert not np.any(span.residues(far.astype(object) + [[0, 1 << 70]]))


def test_int_kernel_and_solve():
    rng = random.Random(31)
    for _ in range(20):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = np.array([[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)])
        ker = int_left_kernel(a)
        assert not np.any(ker @ a)
        # saturated: kernel of 2x must equal kernel of x
        assert int_spans_equal(ker, int_left_kernel(2 * a)) or ker.shape[0] == 0
        x = np.array([rng.randint(-3, 3) for _ in range(nr)])
        b = x @ a
        y = IntSolver(a).solve(b)
        assert y is not None and np.array_equal(y @ a, b)
    two = IntSolver(np.array([[2, 0], [0, 2]]))
    assert two.solve(np.array([1, 0])) is None


def test_int_solver_membership():
    a = np.array([[2, 1, 0], [0, 3, 1]])
    s = IntSolver(a)
    assert s.contains(np.array([2, 4, 1]))
    assert not s.contains(np.array([1, 0, 0]))


def test_quotient_invariant_factors():
    space = np.eye(2, dtype=np.int64)
    sub = np.array([[2, 0], [0, 3]])
    assert quotient_invariant_factors(space, sub) == [6]
    assert quotient_invariant_factors(space, np.array([[1, 0]])) == [0]
    assert quotient_invariant_factors(space, space) == []


def test_invariant_factors_drop_ones():
    assert invariant_factors(np.array([[1, 0], [0, 4]])) == [4]


def test_modk_quotient_on_a_non_split_howell_basis():
    # mod 4 the span of (2, 1) is cyclic of order four even though its
    # Howell form has two rows; the order relations must account for that
    empty = np.zeros((0, 2), dtype=np.int64)
    assert modk_quotient_invariant_factors([[2, 1]], empty, 2) == [4]
    assert modk_quotient_invariant_factors([[2, 1]], [[0, 2]], 2) == [2]
    assert modk_quotient_invariant_factors([[1, 0], [0, 2]], empty, 2) == [2, 4]


def test_modk_quotient_matches_naive_enumeration():
    rng = random.Random(11)
    for k in (1, 2, 3):
        m = 1 << k
        for _ in range(30):
            nc = rng.randint(1, 3)
            space = np.array([[rng.randrange(m) for _ in range(nc)]
                              for _ in range(rng.randint(1, 3))])
            mults = [rng.randrange(m) for _ in space]
            sub = np.array([[c * x for x in r] for c, r in zip(mults, space)])
            facs = modk_quotient_invariant_factors(space, sub, k)
            big = _naive_span_modk(space, k, nc)
            small = _naive_span_modk(sub, k, nc)
            order = 1
            for f in facs:
                order *= f
            assert order == len(big) // len(small)
            # the largest factor is the exponent of the quotient
            expo = 1
            for v in big:
                t = 1
                w = v
                while w not in small:
                    w = tuple((a + b) % m for a, b in zip(w, v))
                    t += 1
                expo = max(expo, t)
            assert (facs[-1] if facs else 1) == expo


# ---------------------------------------------------------------------------
# Narrow-word Howell kernels against an int64 reference
# ---------------------------------------------------------------------------
#
# The reference below is the plain int64 elimination with `% m` reductions
# that the uint8/uint16 kernels replaced. Both make the same pivot choices
# and are exact mod 2^k, so every returned array must agree bit for bit.


def _ref_tz(vals, k):
    return np.array([k if x == 0 else (x & -x).bit_length() - 1
                     for x in (int(y) for y in vals)], dtype=np.int64)


def _ref_howell_form(a, k, transform=False):
    m = 1 << k
    a = np.asarray(a, dtype=np.int64)
    nrows, ncols = a.shape
    cap = nrows + 8
    work = np.zeros((cap, ncols), dtype=np.int64)
    work[:nrows] = a % m
    tmat = None
    if transform:
        tmat = np.zeros((cap, nrows), dtype=np.int64)
        tmat[:nrows, :nrows] = np.eye(nrows, dtype=np.int64)
    live = nrows
    done = 0
    pivots = []
    for col in range(ncols):
        if done == live:
            break
        colvals = work[done:live, col]
        nz = np.nonzero(colvals)[0]
        if nz.size == 0:
            continue
        vals = _ref_tz(colvals[nz], k)
        v = int(vals.min())
        pick = done + int(nz[np.argmax(vals == v)])
        if pick != done:
            work[[done, pick]] = work[[pick, done]]
            if tmat is not None:
                tmat[[done, pick]] = tmat[[pick, done]]
        odd = int(work[done, col]) >> v
        if odd != 1:
            u = pow(odd, -1, m)
            work[done] = (work[done] * u) % m
            if tmat is not None:
                tmat[done] = (tmat[done] * u) % m
        q = work[:live, col] >> v
        q[done] = 0
        rows = np.nonzero(q)[0]
        if rows.size:
            work[rows] = (work[rows] - np.outer(q[rows], work[done])) % m
            if tmat is not None:
                tmat[rows] = (tmat[rows] - np.outer(q[rows], tmat[done])) % m
        if v > 0:
            shadow = (work[done] << (k - v)) % m
            if shadow.any():
                if live == cap:
                    grow = max(8, cap // 2)
                    work = np.vstack([work, np.zeros((grow, ncols), dtype=np.int64)])
                    if tmat is not None:
                        tmat = np.vstack([tmat, np.zeros((grow, nrows), dtype=np.int64)])
                    cap += grow
                work[live] = shadow
                if tmat is not None:
                    tmat[live] = (tmat[done] << (k - v)) % m
                live += 1
        pivots.append((col, v))
        done += 1
    return work[:done].copy(), pivots, (tmat[:done].copy() if tmat is not None else None)


def _ref_solve_many(a, k, rhs):
    m = 1 << k
    hmat, pivots, tmat = _ref_howell_form(a, k, transform=True)
    res = np.asarray(rhs, dtype=np.int64) % m
    x = np.zeros((res.shape[0], a.shape[0]), dtype=np.int64)
    for i, (col, v) in enumerate(pivots):
        q = res[:, col] >> v
        nz = np.nonzero(q)[0]
        if nz.size:
            res[nz] = (res[nz] - np.outer(q[nz], hmat[i])) % m
            x[nz] = (x[nz] + np.outer(q[nz], tmat[i])) % m
    return x, ~res.any(axis=1)


def _ref_kernel_basis_modk(mat, k):
    nrows, ncols = mat.shape
    aug = np.zeros((nrows, ncols + nrows), dtype=np.int64)
    aug[:, :ncols] = mat % (1 << k)
    aug[:, ncols:] = np.eye(nrows, dtype=np.int64)
    hmat, pivots, _ = _ref_howell_form(aug, k)
    lead = [i for i, (c, _) in enumerate(pivots) if c >= ncols]
    if not lead:
        return np.zeros((0, nrows), dtype=np.int64)
    return hmat[lead[0]:, ncols:].copy()


def _random_modk_matrices(k, rng):
    """Shapes from 1x1 to 24x20, with plain, torsion-heavy, low-rank and
    out-of-range (negative, wider than 2^k) entries."""
    m = 1 << k
    for _ in range(12):
        nr, nc = int(rng.integers(1, 25)), int(rng.integers(1, 21))
        kind = int(rng.integers(4))
        if kind == 0:
            a = rng.integers(0, m, size=(nr, nc))
        elif kind == 1:
            # entries 2^j * odd: pivots of every valuation, many shadow rows
            expo = rng.integers(0, k + 1, size=(nr, nc))
            a = (rng.integers(0, m, size=(nr, nc)) << expo) % m
        elif kind == 2:
            r = int(rng.integers(1, min(nr, nc) + 1))
            a = rng.integers(0, m, size=(nr, r)) @ rng.integers(0, m, size=(r, nc))
        else:
            a = rng.integers(-(1 << 20), 1 << 20, size=(nr, nc))
        yield np.asarray(a, dtype=np.int64)


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 12])
def test_narrow_howell_matches_int64_reference(k):
    m = 1 << k
    rng = np.random.default_rng(1000 + k)
    for a in _random_modk_matrices(k, rng):
        ref_h, ref_piv, _ = _ref_howell_form(a, k)
        hf = howell_form(a, k)
        assert hf.matrix.dtype == np.int64 and hf.transform is None
        assert hf.pivots == ref_piv
        assert np.array_equal(hf.matrix, ref_h)

        ref_h, ref_piv, ref_t = _ref_howell_form(a, k, transform=True)
        hf = howell_form(a, k, transform=True)
        assert hf.transform.dtype == np.int64
        assert hf.pivots == ref_piv
        assert np.array_equal(hf.matrix, ref_h)
        assert np.array_equal(hf.transform, ref_t)
        assert np.array_equal((hf.transform @ a) % m, hf.matrix)

        rhs = np.vstack([rng.integers(0, m, size=(3, a.shape[0])) @ a,
                         rng.integers(-m, 2 * m, size=(3, a.shape[1]))])
        x, ok = ModKSolver(a, k).solve_many(rhs)
        ref_x, ref_ok = _ref_solve_many(a, k, rhs)
        assert np.array_equal(ok, ref_ok) and ok[:3].all()
        assert np.array_equal(x, ref_x)
        assert np.array_equal((x[ok] @ a) % m, rhs[ok] % m)

        ker = kernel_basis_modk(a, k)
        assert np.array_equal(ker, _ref_kernel_basis_modk(a, k))
        assert not ((ker @ a) % m).any()


def test_modulus_budget_fits_the_narrow_words():
    # Howell elimination wraps in uint16 at most; it is exact only when
    # 2^k divides 2^16
    assert MAX_MOD_EXP <= 16


# ---------------------------------------------------------------------------
# Packed mod-2 solver against the Howell form at k = 1
# ---------------------------------------------------------------------------


def _check_f2_solver_matches_howell(a, rhs):
    hf = howell_form(a, 1, transform=True)
    s = ModKSolver(a, 1)
    assert s.hf is None
    assert s.echelon.dtype == s.transform.dtype == np.float32
    assert [int(c) for c in s.pivcols] == [c for c, _ in hf.pivots]
    assert np.array_equal(s.echelon, hf.matrix)
    assert np.array_equal(s.transform, hf.transform)
    x, ok = s.solve_many(rhs)
    ref_x, ref_ok = _ref_solve_many(a, 1, rhs)
    assert x.dtype == np.int64
    assert np.array_equal(ok, ref_ok) and np.array_equal(x, ref_x)
    assert np.array_equal((x[ok] @ a) % 2, rhs[ok] % 2)
    # a single vector is one row
    x0, ok0 = s.solve_many(rhs[0])
    assert ok0.shape == (1,) and bool(ok0[0]) == bool(ref_ok[0])
    assert np.array_equal(x0[0], ref_x[0])


def test_f2_solver_matches_howell_on_random_matrices():
    rng = np.random.default_rng(2024)
    for a in itertools.chain(_random_modk_matrices(1, rng),
                             [np.zeros((3, 4), dtype=np.int64),
                              rng.integers(0, 2, size=(70, 130))]):
        rhs = np.vstack([rng.integers(0, 2, size=(4, a.shape[0])) @ a,
                         rng.integers(-3, 3, size=(4, a.shape[1]))])
        _check_f2_solver_matches_howell(a, rhs)


def test_f2_solver_matches_howell_on_sz8_boundaries():
    from cohlat.groups import builtin_group
    from cohlat.resolution import minimal_resolution
    cx = minimal_resolution(builtin_group("sz8-sylow"), 1, 3)
    rng = np.random.default_rng(8)
    for i in range(1, 4):
        d = cx.boundaries[i]
        rhs = np.vstack([rng.integers(0, 2, size=(5, d.shape[0])) @ d,
                         rng.integers(0, 2, size=(5, d.shape[1]))])
        _check_f2_solver_matches_howell(d, rhs)


# ---------------------------------------------------------------------------
# Smith diagonal in exact integers
# ---------------------------------------------------------------------------


def _int_det(rows):
    """Determinant of a square matrix of Python ints (Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for i in range(n):
        p = next((r for r in range(i, n) if m[r][i] != 0), None)
        if p is None:
            return 0
        if p != i:
            m[i], m[p] = m[p], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[n - 1][n - 1] if n else 1


def _int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(lambda nr: st.integers(1, 11).flatmap(
    lambda nc: st.lists(st.lists(st.integers(-10, 10), min_size=nc, max_size=nc),
                        min_size=nr, max_size=nr))))
def test_smith_diagonal_is_exact_on_random_input(rows):
    a = np.array(rows, dtype=np.int64)
    d = smith_normal_form(a)
    diag = _check_smith_form(a, d)
    # Python-int input takes the same steps
    assert [int(x) for x in smith_normal_form(a.astype(object)).diagonal()] == diag
    if min(a.shape) <= 3:
        assert diag == _smith_diagonal_by_minors(rows)
    else:
        # d1 is the gcd of the entries, and the rank is the rank over Q
        assert diag[0] == math.gcd(*[x for r in rows for x in r])
        assert sum(1 for x in diag if x) == np.linalg.matrix_rank(a.astype(float))


# ---------------------------------------------------------------------------
# HNF transforms in exact integers
# ---------------------------------------------------------------------------

# a tall matrix whose transform wrapped in int64 when only H was guarded
_HNF_WRAP_CASE = [
    [-9, -10, -4, 6, -1, 4, 5], [1, -4, -1, -1, 10, 6, 9],
    [2, 7, -2, 9, 7, 1, -3], [-9, 1, 2, 8, -2, -10, -2],
    [-5, 1, -8, 9, 8, -6, 3], [2, -6, -4, -10, 8, -10, -2],
    [5, 6, -7, 8, -1, -6, 8], [-4, -7, -6, 0, -7, -8, 1],
    [7, -5, -2, 3, -9, 1, -2], [1, 8, 8, -3, 0, -10, 8],
    [10, 1, -1, -8, 3, 10, -2], [4, -5, -9, -4, -9, 8, -3],
    [2, 9, -9, -5, 5, 9, -4]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 29).flatmap(lambda nr: st.integers(1, 11).flatmap(
    lambda nc: st.lists(st.lists(st.integers(-10, 10), min_size=nc, max_size=nc),
                        min_size=nr, max_size=nr))))
@example(_HNF_WRAP_CASE)
def test_hnf_transform_is_exact_and_unimodular(rows):
    a = np.array(rows, dtype=np.int64)
    h, pivcols, t = row_hnf(a, transform=True)
    tt = [[int(x) for x in r] for r in t]
    hh = [[int(x) for x in r] for r in h]
    zeros = [[0] * a.shape[1]] * (a.shape[0] - len(hh))
    assert _int_matmul(tt, rows) == hh + zeros
    assert abs(_int_det(tt)) == 1
    assert len(pivcols) == len(hh)
    assert all(hh[i][c] > 0 for i, c in enumerate(pivcols))
    # the same H without a transform
    assert [[int(x) for x in r] for r in row_hnf(a)[0]] == hh


def test_int_solver_rejects_a_corrupted_factorization():
    a = np.array([[2, 1, 0], [0, 3, 1], [1, 1, 1]], dtype=np.int64)
    solver = IntSolver(a)
    b = np.array([3, 5, 2], dtype=np.int64)
    x = solver.solve(b)
    assert np.array_equal(x @ a, b)
    solver.tmat = solver.tmat.copy()
    solver.tmat[0, 0] += 1
    with pytest.raises(InternalInvariant):
        solver.solve(b)


# ---------------------------------------------------------------------------
# Integer input straight to narrow words
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 7, 8, 9])
def test_howell_and_kernel_take_any_integer_dtype(k):
    # integer input is cast to the word and masked, with no int64 copy;
    # every dtype must give what exact residues mod 2^k give the int64
    # reference, negative and wider-than-word entries included
    m = 1 << k
    rng = np.random.default_rng(3000 + k)
    dtypes = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]
    for a in _random_modk_matrices(k, rng):
        for dt in dtypes:
            info = np.iinfo(dt)
            lo, hi = max(info.min, -(1 << 40)), min(info.max, 1 << 40)
            x = rng.integers(lo, hi, size=a.shape, endpoint=True).astype(dt)
            exact = np.array([[int(v) % m for v in row] for row in x.tolist()],
                             dtype=np.int64).reshape(x.shape)
            ref_h, ref_piv, ref_t = _ref_howell_form(exact, k, transform=True)
            hf = howell_form(x, k, transform=True)
            assert hf.matrix.dtype == hf.transform.dtype == np.int64
            assert hf.pivots == ref_piv
            assert np.array_equal(hf.matrix, ref_h)
            assert np.array_equal(hf.transform, ref_t)
            ker = kernel_basis_modk(x, k)
            assert ker.dtype == np.int64
            assert np.array_equal(ker, _ref_kernel_basis_modk(exact, k))
    # non-integer input still goes through int64
    b = np.array([[300.0, -129.0], [True, 2]], dtype=object)
    assert np.array_equal(kernel_basis_modk(b, k), _ref_kernel_basis_modk(
        np.array([[300, -129], [1, 2]]), k))
    assert np.array_equal(howell_form(b.astype(bool), k).matrix,
                          _ref_howell_form(np.array([[1, 1], [1, 1]]), k)[0])


# ---------------------------------------------------------------------------
# Packed rref: pivot search by words against the per-column loop
# ---------------------------------------------------------------------------


def _ref_gf2_rref(g, transform):
    """The per-column elimination the word search replaced."""
    work = g.words.copy()
    n = g.nrows
    tw = None
    if transform:
        tw = GF2Matrix(n, n).words
        diag = np.arange(n)
        tw[diag, diag >> 6] = np.uint64(1) << (diag & 63).astype(np.uint64)
    r = 0
    pivots = []
    for c in range(g.ncols):
        w, sh = c >> 6, np.uint64(c & 63)
        mask = ((work[:, w] >> sh) & np.uint64(1)).astype(bool)
        nz = np.flatnonzero(mask[r:])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
            if transform:
                tw[[r, p]] = tw[[p, r]]
        mask[p] = False
        if mask.any():
            work[mask] ^= work[r]
            if transform:
                tw[mask] ^= tw[r]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return work, pivots, tw


def _random_gf2_matrices(rng):
    """Widths on and off word boundaries, dense and sparse fills, zero
    column runs (inside a word, a whole word, at the end) and low rank."""
    for nc in (1, 5, 63, 64, 65, 127, 128, 129, 200, 300):
        for nr in (0, 1, 3, 40, 90):
            density = float(rng.choice([0.02, 0.2, 0.5]))
            a = (rng.random((nr, nc)) < density).astype(np.uint8)
            runs = rng.integers(0, nc, size=(int(rng.integers(0, 4)), 2))
            for s, length in runs:
                a[:, s:s + int(rng.choice([1, 7, 64, 70]))] = 0
            if nr > 3 and rng.random() < 0.3:
                r = int(rng.integers(1, 4))
                a = (rng.integers(0, 2, size=(nr, r))
                     @ rng.integers(0, 2, size=(r, nc))) & 1
            yield a
    yield np.zeros((4, 130), dtype=np.uint8)
    yield np.eye(70, 150, k=75, dtype=np.uint8)


def test_rref_word_search_matches_column_loop():
    rng = np.random.default_rng(64)
    for a in _random_gf2_matrices(rng):
        g = GF2Matrix.from_dense(a)
        for transform in (False, True):
            red, pivots, tm = g.rref(transform=transform)
            ref_words, ref_pivots, ref_tw = _ref_gf2_rref(g, transform)
            assert pivots == ref_pivots
            assert np.array_equal(red.words, ref_words)
            assert red.ncols == g.ncols and red.nrows == g.nrows
            if transform:
                assert np.array_equal(tm.words, ref_tw)
                t = tm.to_dense().astype(np.int64)
                assert np.array_equal(t @ a % 2, red.to_dense())
            else:
                assert tm is None
        assert np.array_equal(g.to_dense(), a & 1)  # input left alone
