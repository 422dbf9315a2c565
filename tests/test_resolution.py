"""Resolution layer: minimality, exactness, restriction, lifts, diagonal."""
import numpy as np
import pytest

from collections import OrderedDict

from cohlat import resolution
from cohlat.cohomology import default_modulus_exp
from cohlat.errors import BudgetExceeded, InternalInvariant
from cohlat.groups import Subgroup, builtin_group, direct_product, subgroup_classes
from cohlat.linalg import GF2Matrix, howell_form, kernel_basis_modk
from cohlat.resolution import (GModuleComplex, _extend_resolution,
                               _minimal_generators, extend_resolution,
                               lift_chain_map, minimal_resolution,
                               restrict_complex, verify_boundary_squares,
                               verify_exactness)

import oracles
from oracles import diagonal_approximation, tensor_square_complex

# mod-2 cohomology dimensions from the standard ring presentations:
# C2, C4, C8 are 1 in every degree; V4 and D4 grow linearly; Q8 is periodic.
KNOWN_BETTI = {
    "C2": [1, 1, 1, 1, 1],
    "C4": [1, 1, 1, 1, 1],
    "C8": [1, 1, 1, 1, 1],
    "V4": [1, 2, 3, 4, 5],
    "C4xC2": [1, 2, 3, 4, 5],
    "D4": [1, 2, 3, 4, 5],
    "Q8": [1, 2, 2, 1, 1],
}


@pytest.mark.parametrize("name", sorted(KNOWN_BETTI))
@pytest.mark.parametrize("k", [1, 2])
def test_ranks_match_known_betti(name, k):
    g = builtin_group(name)
    cx = minimal_resolution(g, k, 4)
    # the shared cache may already be deeper than requested
    assert cx.ranks[:5] == KNOWN_BETTI[name]


@pytest.mark.parametrize("name,k", [("C4", 3), ("D4", 2), ("Q8", 4), ("V4", 1)])
def test_complex_is_exact_and_minimal(name, k):
    g = builtin_group(name)
    cx = minimal_resolution(g, k, 4)
    assert verify_boundary_squares(cx)
    for i in range(4):
        assert verify_exactness(cx, i)
    for i in range(1, 5):
        gen_rows = cx.boundaries[i][cx.gen_coords(i)]
        assert not cx.block_augment(i - 1, gen_rows, two_exp=1).any()


@pytest.mark.parametrize("name,k", [("D4", 8), ("C4xC2", 9), ("V4", 12)])
def test_boundaries_are_stored_in_the_howell_word(name, k):
    # uint8 up to k = 8, uint16 above; products wrap in the word, whose
    # modulus 2^k divides, so the squares are exact mod 2^k
    cx = minimal_resolution(builtin_group(name), k, 4)
    word = np.uint8 if k <= 8 else np.uint16
    assert all(cx.boundaries[i].dtype == word for i in range(1, 5))
    assert verify_boundary_squares(cx)
    for i in range(2, 5):
        exact = (cx.boundaries[i].astype(np.int64)
                 @ cx.boundaries[i - 1].astype(np.int64))
        assert not (exact % cx.mod).any()


def test_boundary_rows_are_equivariant():
    g = builtin_group("D4")
    cx = minimal_resolution(g, 2, 3)
    for i in range(1, 4):
        d = cx.boundaries[i]
        gens = cx.gen_coords(i)
        for x in range(g.order):
            moved = cx.coord_index[i][np.arange(cx.ranks[i]), x]
            assert np.array_equal(d[moved], cx.act(i - 1, x, d[gens]))


def test_trivial_group_resolution_stops():
    g = builtin_group("D4")
    triv = Subgroup(g, [0])
    one, _ = triv.as_group()
    cx = minimal_resolution(one, 2, 3)
    assert cx.ranks[0] == 1
    assert not any(cx.ranks[1:])


def test_restrict_complex_shares_boundaries():
    g = builtin_group("D4")
    cx = minimal_resolution(g, 2, 3)
    h = next(s for s in subgroup_classes(g)
             if s.order == 4 and s.as_group()[0].element_orders.max() == 4)
    rcx = restrict_complex(cx, h)
    assert rcx.ranks == [2 * r for r in cx.ranks]
    for i in range(4):
        assert rcx.boundaries[i] is cx.boundaries[i]
    # the restricted action of h agrees with the ambient action
    _, to_global = h.as_group()
    for i in range(3):
        v = np.arange(cx.dims[i], dtype=np.int64) % 4
        for hl in range(h.order):
            assert np.array_equal(rcx.act(i, hl, v),
                                  cx.act(i, int(to_global[hl]), v))


def _check_chain_map(src, dst, f):
    """f is a chain map over F2: 0/1 uint8 entries, squares commute mod 2."""
    for i in range(len(f)):
        assert f[i].dtype == np.uint8 and not (f[i] > 1).any()
        if i:
            lhs = src.boundaries[i] @ f[i - 1] % 2
            rhs = f[i] @ dst.boundaries[i] % 2
            assert np.array_equal(lhs, rhs)


def test_lift_identity_chain_map():
    cx = minimal_resolution(builtin_group("Q8"), 3, 3)
    start = np.zeros((1, cx.dims[0]), dtype=np.int64)
    start[0, 0] = 1
    f = lift_chain_map(cx, cx, start, 3)
    _check_chain_map(cx, cx, f)
    # lifting the identity keeps every degree invertible mod 2
    for m in f:
        assert GF2Matrix.from_dense(m).rank() == m.shape[0]


def test_comparison_lifts_between_subgroup_resolutions():
    g = builtin_group("D4")
    cx = minimal_resolution(g, 2, 3)
    h = next(s for s in subgroup_classes(g) if s.order == 4)
    hgrp, _ = h.as_group()
    ph = restrict_complex(cx, h)
    q = minimal_resolution(hgrp, 2, 3)
    # u: P|_H -> Q sends every degree-0 generator to the generator of Q
    u0 = np.zeros((ph.ranks[0], q.dims[0]), dtype=np.int64)
    u0[:, q.gen_coords(0)[0]] = 1
    u = lift_chain_map(ph, q, u0, 3)
    _check_chain_map(ph, q, u)
    # v: Q -> P|_H sends the generator to the identity-coset generator
    v0 = np.zeros((q.ranks[0], ph.dims[0]), dtype=np.int64)
    v0[0, ph.gen_coords(0)[0]] = 1
    v = lift_chain_map(q, ph, v0, 3)
    _check_chain_map(q, ph, v)
    # composites are chain self-maps
    _check_chain_map(q, q, [v[i] @ u[i] % 2 for i in range(4)])
    _check_chain_map(ph, ph, [u[i] @ v[i] % 2 for i in range(4)])


@pytest.mark.parametrize("name", ["C2", "V4", "D4"])
def test_diagonal_approximation_commutes(name):
    cx = minimal_resolution(builtin_group(name), 1, 3)
    tens, maps = diagonal_approximation(cx, 3)
    assert verify_boundary_squares(tens)
    for i in range(1, 4):
        lhs = cx.boundaries[i] @ maps[i - 1] % 2
        rhs = maps[i] @ tens.boundaries[i] % 2
        assert np.array_equal(lhs, rhs)


def test_tensor_square_budget():
    g = builtin_group("sz8-sylow")
    cx = minimal_resolution(g, 1, 1)
    with pytest.raises(BudgetExceeded):
        tensor_square_complex(cx, 1)


def test_tensor_square_reads_its_budget_constant(monkeypatch):
    cx = minimal_resolution(builtin_group("C2"), 1, 1)
    tensor_square_complex(cx, 1)
    monkeypatch.setattr(oracles, "TENSOR_SQUARE_MAX_COORDS", 1)
    with pytest.raises(BudgetExceeded,
                       match=r"degree 0 needs 4 coordinates \(> 1\)"):
        tensor_square_complex(cx, 1)


def test_sz8_low_degrees():
    g = builtin_group("sz8-sylow")
    cx = minimal_resolution(g, 7, 3)
    assert cx.ranks[:4] == [1, 3, 5, 9]
    assert verify_boundary_squares(cx)
    assert verify_exactness(cx, 0)
    assert verify_exactness(cx, 1)


def _span_row_generators(cx, degree, kernel_rows):
    """Rows spanning m*K over Z/2^k for K the span of kernel_rows: 2w, (g-1)w."""
    parts = [(2 * kernel_rows) % cx.mod]
    for g in cx.group.generators():
        acted = cx.act(degree, g, kernel_rows)
        parts.append((acted - kernel_rows) % cx.mod)
    return np.vstack(parts)


def _modk_spans_equal(a, b, k):
    """Equal spans mod 2^k have equal canonical Howell forms."""
    return np.array_equal(howell_form(a, k).matrix, howell_form(b, k).matrix)


def _ref_minimal_generators(cx, degree, kernel_rows):
    """Greedy selection in K/mK over Z/2^k that refactors the whole span
    after every pick."""
    base = howell_form(_span_row_generators(cx, degree, kernel_rows), cx.k)
    selected = []
    span = base.matrix
    for w in kernel_rows:
        if _modk_spans_equal(span, np.vstack([span, w]), cx.k):
            continue  # w already lies in the span
        selected.append(w)
        span = howell_form(np.vstack([base.matrix] + selected), cx.k).matrix
    return np.array(selected, dtype=np.int64).reshape(-1, kernel_rows.shape[1])


def _check_minimal_generators(cx, degrees):
    for deg in degrees:
        mat = (np.ones((cx.dims[0], 1), dtype=np.int64) if deg == 0
               else cx.boundaries[deg])
        kernel = kernel_basis_modk(mat, cx.k).matrix
        ref = _ref_minimal_generators(cx, deg, kernel)
        assert np.array_equal(_minimal_generators(cx, deg, kernel), ref)
        # the resolution was built from the same generators
        assert np.array_equal(cx.boundaries[deg + 1][cx.gen_coords(deg + 1)], ref)


@pytest.mark.parametrize("group", [
    builtin_group("D8"),
    direct_product(builtin_group("C2"), builtin_group("D8"), "C2xD8"),
], ids=["D8", "C2xD8"])
def test_minimal_generators_match_refactor_per_generator(group):
    k = default_modulus_exp(group)
    _check_minimal_generators(minimal_resolution(group, k, 3), range(3))


@pytest.mark.parametrize("name,k", [
    ("D8", 1), ("D8", 3), ("C2xD8", 1), ("C2xD8", 3),
    ("sz8-sylow", 1), ("sz8-sylow", 3), ("sz8-sylow", None),
])
def test_minimal_generators_over_f2_match_selection_mod_2k(name, k):
    # selection in Kbar/I.Kbar over F2 against selection in K/mK over Z/2^k,
    # through boundary 3
    if name == "C2xD8":
        group = direct_product(builtin_group("C2"), builtin_group("D8"), name)
    else:
        group = builtin_group(name)
    k = default_modulus_exp(group) if k is None else k
    _check_minimal_generators(minimal_resolution(group, k, 3), range(3))


def test_corrupted_generator_row_fails_the_boundary_check(monkeypatch):
    # adding (g-1)e_0 keeps the augmentation zero mod 2, so only the
    # composition check on the generator rows can catch it
    cx = GModuleComplex(builtin_group("D4"), 2)
    cx.add_standard_degree(1, None)
    _extend_resolution(cx, 1)
    honest = resolution._minimal_generators

    def corrupt(cx_, degree, kernel_rows):
        gens = honest(cx_, degree, kernel_rows).copy()
        e0 = np.zeros(cx_.dims[degree], dtype=np.int64)
        e0[0] = 1
        gens[0] = (gens[0] + cx_.act(degree, 1, e0) - e0) % cx_.mod
        return gens

    monkeypatch.setattr(resolution, "_minimal_generators", corrupt)
    with pytest.raises(InternalInvariant, match="composition"):
        _extend_resolution(cx, 2)


def test_resolution_cache_evicts_least_recently_used(monkeypatch):
    assert resolution.RES_CACHE_SIZE >= 64  # one sz8-sylow criterion run holds 43
    monkeypatch.setattr(resolution, "_RES_CACHE", OrderedDict())
    monkeypatch.setattr(resolution, "RES_CACHE_SIZE", 2)
    c2, c4, v4 = (builtin_group(n) for n in ("C2", "C4", "V4"))
    first = minimal_resolution(v4, 2, 3)
    minimal_resolution(c4, 2, 3)
    assert minimal_resolution(v4, 2, 3) is first  # a hit refreshes V4
    minimal_resolution(c2, 2, 3)                   # evicts C4
    assert list(resolution._RES_CACHE) == [(v4, 2), (c2, 2)]
    minimal_resolution(c4, 2, 3)                   # evicts V4
    assert (v4, 2) not in resolution._RES_CACHE
    rebuilt = minimal_resolution(v4, 2, 3)
    assert rebuilt is not first
    assert rebuilt.ranks == first.ranks
    for a, b in zip(rebuilt.boundaries[1:], first.boundaries[1:]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_complex(a, b):
    assert a.ranks == b.ranks and a.dims == b.dims and a.k == b.k
    for i in range(a.top_degree + 1):
        assert np.array_equal(a.coord_gen[i], b.coord_gen[i])
        assert np.array_equal(a.coord_elt[i], b.coord_elt[i])
    assert a.boundaries[0] is None and b.boundaries[0] is None
    for x, y in zip(a.boundaries[1:], b.boundaries[1:]):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name,k,top", [("sz8-sylow", 7, 4), ("D8", 1, 5),
                                        ("D8", 3, 5)])
def test_deepening_in_steps_matches_one_build(monkeypatch, name, k, top):
    # readers deepen a held complex one degree at a time; the boundaries
    # must not depend on that
    g = builtin_group(name)
    monkeypatch.setattr(resolution, "_RES_CACHE", OrderedDict())
    stepped = minimal_resolution(g, k, 3)
    for d in range(4, top + 1):
        extend_resolution(stepped, d)
    monkeypatch.setattr(resolution, "_RES_CACHE", OrderedDict())
    straight = minimal_resolution(g, k, top)
    assert straight is not stepped and stepped.top_degree == top
    _same_complex(stepped, straight)


def _loop_extend_rows(src, degree, gen_rows, dst, dst_degree):
    """extend_rows as one row block per element g, gathered through the
    coordinate permutation c -> g^-1 . c built for that element."""
    t, inv = dst.group.table, dst.group.inv
    out = np.zeros((src.dims[degree], dst.dims[dst_degree]), dtype=np.int64)
    cg, ce = src.coord_gen[degree], src.coord_elt[degree]
    for g in range(src.group.order):
        rows = np.nonzero(ce == g)[0]
        moved = t[inv[g], dst.coord_elt[dst_degree]]
        gather = dst.coord_index[dst_degree][dst.coord_gen[dst_degree], moved]
        out[rows] = gen_rows[cg[rows]][:, gather]
    return out % src.mod


def _check_extend_rows(src, dst, degree_pairs, rng):
    for degree, dst_degree in degree_pairs:
        gen_rows = rng.integers(-src.mod, 2 * src.mod,
                                (src.ranks[degree], dst.dims[dst_degree]))
        got = src.extend_rows(degree, gen_rows, dst, dst_degree)
        assert got.dtype == np.int64
        assert np.array_equal(
            got, _loop_extend_rows(src, degree, gen_rows, dst, dst_degree))


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("group", [
    builtin_group("D8"),
    direct_product(builtin_group("C2"), builtin_group("D8"), "C2xD8"),
    builtin_group("sz8-sylow"),
], ids=["D8", "C2xD8", "sz8-sylow"])
def test_extend_rows_matches_the_per_element_loop(group, k):
    cx = minimal_resolution(group, k, 3)
    rng = np.random.default_rng(k)
    down = [(i, i - 1) for i in range(1, 4)]
    _check_extend_rows(cx, cx, down, rng)
    # each boundary is the extension of its generator rows
    for i in range(1, 4):
        gen_rows = cx.boundaries[i][cx.gen_coords(i)]
        assert np.array_equal(cx.extend_rows(i, gen_rows, cx, i - 1),
                              cx.boundaries[i])
    classes = subgroup_classes(group)
    for order in (group.order // 2, 4):
        rcx = restrict_complex(cx, next(s for s in classes if s.order == order))
        _check_extend_rows(rcx, rcx, down, rng)
    # cochain lifts extend from a degree onto a lower one of the same complex
    _check_extend_rows(cx, cx, [(1, 0), (2, 1), (3, 0), (3, 2)], rng)
