"""Cohomology layer: invariants vs bar complex, products, Bocksteins, transfer."""
import hashlib
import json
import random
from collections import OrderedDict

import numpy as np
import pytest

from cohlat import cohomology, resolution
from cohlat.cohomology import (GroupCohomology, SubgroupLink,
                               bar_cohomology_invariants, default_modulus_exp)
from cohlat.errors import (BudgetExceeded, DegreeOutOfRange,
                           IncompatibleOperands, ModulusTooSmall, NotA2Group)
from cohlat.groups import (Subgroup, builtin_group, direct_product,
                           subgroup_classes)
from cohlat.linalg import Subspace
from cohlat.resolution import lift_chain_map


def _basis(n):
    return np.eye(n, dtype=np.int64)


@pytest.fixture(scope="module")
def gc_cache():
    cache = {}

    def get(name, deg=3):
        key = (name, deg)
        if key not in cache:
            cache[key] = GroupCohomology(builtin_group(name), deg)
        return cache[key]

    return get


def test_rejects_odd_group():
    from cohlat.groups import cyclic_group
    with pytest.raises(NotA2Group):
        GroupCohomology(cyclic_group(3), 2)


def test_modulus_floor(gc_cache):
    with pytest.raises(ModulusTooSmall):
        GroupCohomology(builtin_group("C8"), 2, modulus_exp=2)
    assert default_modulus_exp(builtin_group("C8")) == 4
    assert default_modulus_exp(builtin_group("sz8-sylow")) == 7


def test_degree_range(gc_cache):
    gc = gc_cache("C4")
    with pytest.raises(DegreeOutOfRange):
        gc.h_dim(4)
    with pytest.raises(DegreeOutOfRange):
        gc.cup(2, np.array([1]), 2, np.array([1]))


def test_minimal_deltas_vanish(gc_cache):
    for name in ("C4", "V4", "D4", "Q8"):
        assert gc_cache(name).check_minimal()


# -- invariant factors against the independent bar complex --

BAR_CASES = [
    ("C2", 3, 1), ("C2", 2, 2),
    ("C4", 3, 1), ("C4", 2, 2), ("C4", 2, 3),
    ("V4", 2, 1), ("V4", 2, 2),
    ("Q8", 2, 1), ("Q8", 2, 2),
    ("D4", 2, 1), ("D4", 2, 2),
    ("C4xC2", 2, 1), ("C2xC2xC2", 2, 1),
]


@pytest.mark.parametrize("name,maxdeg,m", BAR_CASES)
def test_invariants_match_bar_complex(name, maxdeg, m, gc_cache):
    g = builtin_group(name)
    gc = gc_cache(name)
    for i in range(maxdeg + 1):
        assert gc.cohomology_invariants(i, m) \
            == bar_cohomology_invariants(g, i, m)


def test_h0_is_coefficients(gc_cache):
    assert gc_cache("D4").cohomology_invariants(0, 3) == [8]


# -- products --

@pytest.mark.parametrize("name", ["C2", "V4", "D4"])
def test_cup_matches_diagonal_route(name, gc_cache):
    gc = gc_cache(name)
    rng = random.Random(11)
    for _ in range(8):
        p, q = rng.choice([(1, 1), (1, 2), (2, 1)])
        a = np.array([rng.randint(0, 1) for _ in range(gc.h_dim(p))])
        b = np.array([rng.randint(0, 1) for _ in range(gc.h_dim(q))])
        assert np.array_equal(gc.cup(p, a, q, b),
                              gc.cup_via_diagonal(p, a, q, b))


@pytest.mark.parametrize("name", ["V4", "D4", "Q8", "C4xC2"])
def test_cup_commutative_and_bilinear(name, gc_cache):
    gc = gc_cache(name)
    rng = random.Random(5)
    r1, r2 = gc.h_dim(1), gc.h_dim(2)
    for _ in range(10):
        a = np.array([rng.randint(0, 1) for _ in range(r1)])
        b = np.array([rng.randint(0, 1) for _ in range(r1)])
        c = np.array([rng.randint(0, 1) for _ in range(r2)])
        assert np.array_equal(gc.cup(1, a, 1, b), gc.cup(1, b, 1, a))
        assert np.array_equal(gc.cup(1, a, 2, c), gc.cup(2, c, 1, a))
        lhs = gc.cup(1, (a + b) % 2, 2, c)
        rhs = (gc.cup(1, a, 2, c) + gc.cup(1, b, 2, c)) % 2
        assert np.array_equal(lhs, rhs)


def test_cup_associative(gc_cache):
    for name in ("V4", "D4"):
        gc = gc_cache(name)
        r1 = gc.h_dim(1)
        for a in _basis(r1):
            for b in _basis(r1):
                for c in _basis(r1):
                    lhs = gc.cup(2, gc.cup(1, a, 1, b), 1, c)
                    rhs = gc.cup(1, a, 2, gc.cup(1, b, 1, c))
                    assert np.array_equal(lhs, rhs)


def test_unit_class(gc_cache):
    gc = gc_cache("D4")
    one = np.array([1])
    for deg in (1, 2):
        for e in _basis(gc.h_dim(deg)):
            assert np.array_equal(gc.cup(0, one, deg, e), e)
            assert np.array_equal(gc.cup(deg, e, 0, one), e)


def test_degree_one_products_tell_d4_from_q8(gc_cache):
    # D4 has two independent degree-1 classes with vanishing product;
    # for Q8 the square of every nonzero degree-1 class is nonzero and
    # no product of independent classes dies (anisotropic form).
    d4 = gc_cache("D4")
    vecs = [np.array(v) for v in [(0, 1), (1, 0), (1, 1)]]
    assert any(not d4.cup(1, a, 1, b).any()
               for a in vecs for b in vecs if not np.array_equal(a, b))
    q8 = gc_cache("Q8")
    for v in vecs:
        assert q8.cup(1, v, 1, v).any()
    for a in vecs:
        for b in vecs:
            if not np.array_equal(a, b):
                assert q8.cup(1, a, 1, b).any()


def test_v4_ring_is_polynomial(gc_cache):
    gc = gc_cache("V4")
    rows = [gc.cup(1, a, 1, b) for a in _basis(2) for b in _basis(2)]
    assert Subspace.span(np.array(rows), 3).dim == 3
    triples = [gc.cup(1, a, 2, gc.cup(1, b, 1, c))
               for a in _basis(2) for b in _basis(2) for c in _basis(2)]
    assert Subspace.span(np.array(triples), 4).dim == 4


# -- connecting maps --

def test_sq1_is_squaring_on_order_two(gc_cache):
    gc = gc_cache("C2")
    x = np.array([1])
    assert np.array_equal(gc.sq1(1, x), gc.cup(1, x, 1, x))
    gc = gc_cache("V4")
    for v in ([1, 0], [0, 1], [1, 1]):
        v = np.array(v)
        assert np.array_equal(gc.sq1(1, v), gc.cup(1, v, 1, v))


def test_sq1_vanishes_on_lifted_classes(gc_cache):
    assert not gc_cache("C4").sq1(1, np.array([1])).any()
    assert not gc_cache("C8").sq1(1, np.array([1])).any()


def test_sq1_squares_to_zero(gc_cache):
    for name in ("V4", "D4", "Q8", "C4xC2"):
        gc = gc_cache(name)
        for e in _basis(gc.h_dim(1)):
            assert not gc.sq1(2, gc.sq1(1, e)).any()


def test_sq1_is_a_derivation(gc_cache):
    # sq1(ab) = sq1(a) b + a sq1(b) for degree-1 classes
    for name in ("V4", "D4"):
        gc = gc_cache(name)
        for a in _basis(gc.h_dim(1)):
            for b in _basis(gc.h_dim(1)):
                lhs = gc.sq1(2, gc.cup(1, a, 1, b))
                rhs = (gc.cup(2, gc.sq1(1, a), 1, b)
                       + gc.cup(1, a, 2, gc.sq1(1, b))) % 2
                assert np.array_equal(lhs, rhs)


def test_bockstein_c4_order(gc_cache):
    # the degree-1 class of C4 has integral Bockstein of order 2 inside
    # H^2(C4, Z) = Z/4, so the mod-4 connecting value is exactly 2
    gc = gc_cache("C4")
    assert np.array_equal(gc.bockstein(1, np.array([1]), 2), np.array([2]))


def test_integral_reduction_images(gc_cache):
    gc4 = gc_cache("C4")
    assert gc4.integral_reduction_image(1).dim == 0
    assert gc4.integral_reduction_image(2).dim == 1
    gcv = gc_cache("V4")
    im = gcv.integral_reduction_image(2)
    assert im.dim == 2
    assert im == gcv.sq1_image(2)


def test_sq1_image_inside_integral_image(gc_cache):
    for name in ("V4", "D4", "Q8", "C4xC2"):
        gc = gc_cache(name)
        for deg in (1, 2):
            assert gc.integral_reduction_image(deg).contains(
                gc.sq1_image(deg))


# -- restriction and transfer --

def _link(gc, order, pred=None, maxdeg=None):
    for s in subgroup_classes(gc.group):
        if s.order == order and (pred is None or pred(s)):
            return SubgroupLink(gc, s, max_degree=maxdeg)
    raise AssertionError("no such subgroup")


def test_transfer_degree_zero_is_index(gc_cache):
    gc = gc_cache("D4")
    link = _link(gc, 4)
    assert not link.transfer(0, np.array([1])).any()  # even index
    full = SubgroupLink(gc, Subgroup(gc.group, range(8)))
    assert np.array_equal(full.transfer(0, np.array([1])), np.array([1]))


def test_full_subgroup_link_is_identity(gc_cache):
    gc = gc_cache("Q8")
    full = SubgroupLink(gc, Subgroup(gc.group, range(8)))
    for deg in (1, 2, 3):
        for e in _basis(gc.h_dim(deg)):
            r = full.restrict(deg, e)
            assert np.array_equal(full.transfer(deg, r), e)


def test_cor_res_vanishes_for_even_index(gc_cache):
    for name in ("C4", "D4", "Q8"):
        gc = gc_cache(name)
        for s in subgroup_classes(gc.group):
            if s.order in (1, gc.group.order):
                continue
            link = SubgroupLink(gc, s)
            for deg in (1, 2):
                for e in _basis(gc.h_dim(deg)):
                    assert not link.transfer(
                        deg, link.restrict(deg, e)).any()


def test_restriction_is_a_ring_map(gc_cache):
    gc = gc_cache("D4")
    link = _link(gc, 4, maxdeg=3)
    for a in _basis(gc.h_dim(1)):
        for b in _basis(gc.h_dim(1)):
            lhs = link.restrict(2, gc.cup(1, a, 1, b))
            rhs = link.hco.cup(1, link.restrict(1, a),
                               1, link.restrict(1, b))
            assert np.array_equal(lhs, rhs)


def test_frobenius_reciprocity(gc_cache):
    # cor(res(a) . x) == a . cor(x)
    for name in ("D4", "Q8"):
        gc = gc_cache(name)
        for order in (2, 4):
            link = _link(gc, order)
            for a in _basis(gc.h_dim(1)):
                for x in _basis(link.hco.h_dim(1)):
                    inner = link.hco.cup(1, link.restrict(1, a), 1, x)
                    lhs = link.transfer(2, inner)
                    rhs = gc.cup(1, a, 1, link.transfer(1, x))
                    assert np.array_equal(lhs, rhs)


def test_transfer_image_is_conjugation_invariant(gc_cache):
    gc = gc_cache("D4")
    h = next(s for s in subgroup_classes(gc.group)
             if s.order == 2 and not s.contains(2))
    for g in range(1, 8):
        hg = h.conjugated(g)
        spans = []
        for sub in (h, Subgroup(gc.group, hg.elements)):
            link = SubgroupLink(gc, sub)
            rows = [link.transfer(2, e) for e in _basis(link.hco.h_dim(2))]
            spans.append(Subspace.span(np.array(rows), gc.h_dim(2)))
        assert spans[0] == spans[1]


def test_restrict_to_trivial_subgroup(gc_cache):
    gc = gc_cache("D4")
    link = SubgroupLink(gc, Subgroup(gc.group, [0]))
    assert link.restrict(1, np.array([1, 0])).shape == (0,)
    assert not link.transfer(0, np.array([1])).any()


def test_cochain_lift_is_a_chain_map(gc_cache):
    gc = gc_cache("D4")
    res = gc.res
    vec = np.array([1, 1, 0])
    lifts = gc.cochain_lift(2, vec, 1)
    assert np.array_equal(
        res.block_augment(0, lifts[0][res.gen_coords(2)], two_exp=1)
        .ravel(), vec)
    lhs = res.boundaries[3] @ lifts[0] % 2
    rhs = lifts[1] @ res.boundaries[1] % 2
    assert np.array_equal(lhs, rhs)


def test_subgroup_link_chain_maps_are_bytes(gc_cache):
    # the comparison maps are mod 2 and held as uint8; transfer reads only
    # the summed coordinates, and must agree with the full int64 product
    gc = gc_cache("D4")
    sub = next(s for s in subgroup_classes(gc.group) if s.order == 4)
    link = SubgroupLink(gc, sub)
    q = link.hco.res
    u0 = np.zeros((link.ph2.ranks[0], q.dims[0]), dtype=np.int64)
    u0[:, q.gen_coords(0)[0]] = 1
    full_u = lift_chain_map(link.ph2, q, u0, link.max_degree)
    assert all(f.dtype == np.uint8 for f in link.u + link.v)
    assert all(np.array_equal(a, b) for a, b in zip(link.u, full_u))
    n = gc.group.order
    for deg in range(link.max_degree + 1):
        for vec in _basis(link.hco.h_dim(deg)):
            phi = full_u[deg] @ vec[q.coord_gen[deg]] % 2
            cols = (np.arange(gc.h_dim(deg))[:, None] * n
                    + link._left_inv_reps[None, :])
            assert np.array_equal(link.transfer(deg, vec),
                                  phi[cols].sum(axis=1) % 2)


def test_invariants_deepen_an_evicted_resolution(monkeypatch):
    monkeypatch.setattr(resolution, "_RES_CACHE", OrderedDict())
    monkeypatch.setattr(resolution, "RES_CACHE_SIZE", 1)
    gc = GroupCohomology(builtin_group("D8"), 2)
    resolution.minimal_resolution(builtin_group("C2"), 2, 2)  # evicts D8
    assert (gc.group, gc.k) not in resolution._RES_CACHE
    # at the top degree above mod 2 the resolution must grow one step
    got = gc.cohomology_invariants(2, 2)
    assert gc.res.top_degree == 3
    assert got == GroupCohomology(builtin_group("D8"), 3).cohomology_invariants(2, 2)


def _fresh(monkeypatch, name, max_degree):
    monkeypatch.setattr(resolution, "_RES_CACHE", OrderedDict())
    return GroupCohomology(builtin_group(name), max_degree)


def test_subgroup_links_share_the_mod2_factorizations(monkeypatch):
    # the restricted complex holds the parent's boundaries, so it reuses
    # the parent's solvers: each degree is factored once per resolution
    made = []

    class CountingSolver(resolution.ModKSolver):
        def __init__(self, mat):
            made.append(mat.shape)
            super().__init__(mat)

    monkeypatch.setattr(resolution, "ModKSolver", CountingSolver)
    gc = _fresh(monkeypatch, "D8", 3)
    for sub in subgroup_classes(gc.group):
        link = SubgroupLink(gc, sub)
        assert link.ph2._solvers is gc.res._solvers
    assert sorted(gc.res._solvers) == [1, 2, 3]
    solvers = [s for cx in resolution._RES_CACHE.values()
               for s in cx._solvers.values()]
    assert len(made) == len(solvers)


def test_construction_builds_nothing_and_dims_reach_the_ceiling(monkeypatch):
    gc = _fresh(monkeypatch, "D4", 4)
    assert gc.res.top_degree == 0
    assert gc.dims == [1, 2, 3, 4, 5]  # max_degree + 1 entries
    assert gc.res.top_degree == 4
    with pytest.raises(BudgetExceeded):
        GroupCohomology(builtin_group("C2"), resolution.MAX_RESOLUTION_DEGREE + 1)


def test_bar_oracle_reads_its_budget_constant(monkeypatch):
    c2 = builtin_group("C2")
    assert bar_cohomology_invariants(c2, 1, 1) == [2]
    monkeypatch.setattr(cohomology, "BAR_MAX_ENTRIES", 3)   # |G|^2 = 4
    with pytest.raises(BudgetExceeded):
        bar_cohomology_invariants(c2, 1, 1)


def test_every_reader_stops_at_max_degree(monkeypatch):
    gc = _fresh(monkeypatch, "D4", 3)
    v = np.array([1])
    sub = Subgroup(gc.group, [0])
    rejected = [
        lambda: gc.h_dim(4),
        lambda: gc.h_dim(-1),
        lambda: gc.delta(3, 1),
        lambda: gc.bockstein(3, v, 1),
        lambda: gc.sq1(3, v),
        lambda: gc.sq1_image(4),
        lambda: gc.integral_reduction_image(3),
        lambda: gc.cohomology_invariants(4, 1),
        lambda: gc.cup(2, v, 2, v),
        lambda: gc.cup_via_diagonal(2, v, 2, v),
        lambda: gc.cup_map(2, 2, v),
        lambda: gc.cup_map(4, 0, v),
        lambda: gc.cup_map(-1, 2, v),
        lambda: gc.cochain_lift(4, v, 0),
        lambda: gc.cochain_lift(2, v, 2),  # degree + steps past the top
        lambda: gc.cochain_lift(0, v, 4),
        lambda: gc.cochain_lift(1, v, -1),
        lambda: SubgroupLink(gc, sub, max_degree=4),
    ]
    for read in rejected:
        with pytest.raises(DegreeOutOfRange):
            read()
    assert gc.res.top_degree == 0  # a rejected read builds nothing
    assert len(gc.cochain_lift(1, np.array([1, 0]), 2)) == 3


def test_each_reader_builds_exactly_the_degrees_it_reads(monkeypatch):
    x, y = np.array([1, 0]), np.array([0, 1])
    reads = [
        (lambda gc: gc.h_dim(2), 2),
        (lambda gc: gc.delta(1, 2), 2),
        (lambda gc: gc.bockstein(1, x, 1), 2),
        (lambda gc: gc.sq1_image(2), 2),
        (lambda gc: gc.integral_reduction_image(2), 3),
        (lambda gc: gc.cup(1, x, 1, y), 2),
        (lambda gc: gc.cup_map(0, 2, np.array([1, 0, 1])), 2),
        (lambda gc: gc.cup_map(2, 1, y), 3),
        (lambda gc: gc.cochain_lift(1, x, 2), 3),
        (lambda gc: gc.cohomology_invariants(2, 1), 2),
        (lambda gc: gc.cohomology_invariants(2, 2), 3),
        # one step past max_degree: the documented top-degree extension
        (lambda gc: gc.cohomology_invariants(4, 2), 5),
        (lambda gc: gc.check_minimal(), 4),
    ]
    for read, top in reads:
        gc = _fresh(monkeypatch, "D4", 4)
        read(gc)
        assert gc.res.top_degree == top
    gc = _fresh(monkeypatch, "D4", 4)
    sub = next(s for s in subgroup_classes(gc.group) if s.order == 4)
    link = SubgroupLink(gc, sub, max_degree=2)
    assert gc.res.top_degree == link.hco.res.top_degree == 2
    assert link.ph2.top_degree == 2 and len(link.u) == len(link.v) == 3
    # a later, deeper read leaves the link's snapshot as it was
    gc.h_dim(4)
    assert link.ph2.top_degree == 2
    assert link.restrict(2, np.array([1, 0, 1])).shape == (link.hco.h_dim(2),)


def _link_and_cup_tables(group):
    """Restriction and transfer matrices of every subgroup class in degrees
    0..3, and the cup tables H^1 x H^1 and H^1 x H^2, as nested lists."""
    gc = GroupCohomology(group, 3)
    links = []
    for sub in subgroup_classes(group):
        link = SubgroupLink(gc, sub)
        links.append({
            "elements": [int(x) for x in sub.elements],
            "restrict": [[link.restrict(d, e).tolist()
                          for e in _basis(gc.h_dim(d))] for d in range(4)],
            "transfer": [[link.transfer(d, e).tolist()
                          for e in _basis(link.hco.h_dim(d))]
                         for d in range(4)],
        })
    cups = [[[gc.cup(1, a, b_deg, b).tolist() for b in _basis(gc.h_dim(b_deg))]
             for a in _basis(gc.h_dim(1))] for b_deg in (1, 2)]
    return {"links": links, "cup": cups}


# sha256 of json.dumps(_link_and_cup_tables(group), sort_keys=True),
# captured before chain lifts moved from a reduced copy of the resolution
# onto the resolution itself; no criterion report reads restriction
LINK_TABLE_SHA256 = {
    "D8": "ed2b79f2f5c1ef477083c96403991d72f6fdb80b156e7f020e29e63801b4e234",
    "C2xD8": "48f59e8fe99ab1bd1aad61c2c0e674b4c1621e856ed29f1fd4424acd878202cc",
}


@pytest.mark.parametrize("name", sorted(LINK_TABLE_SHA256))
def test_restrict_transfer_and_cup_tables_are_pinned(name):
    group = (direct_product(builtin_group("C2"), builtin_group("D8"), name)
             if name == "C2xD8" else builtin_group(name))
    raw = json.dumps(_link_and_cup_tables(group), sort_keys=True).encode()
    assert hashlib.sha256(raw).hexdigest() == LINK_TABLE_SHA256[name]


# -- held restriction and transfer matrices against the per-call formulas --

def _ref_restrict(link, degree, vec):
    """Restriction rebuilt on every call, as before links held matrices."""
    link.hco._check_degree(degree)
    vec = np.asarray(vec, dtype=np.int64) % 2
    gen_rows = link.v[degree][link.hco.res.gen_coords(degree)]
    mat = link.parent.res.block_augment(degree, gen_rows, two_exp=1)
    return mat @ vec % 2


def _ref_transfer(link, degree, vec):
    """Transfer rebuilt on every call: the cochain b o u at the summed
    coordinates, added over the inverse left-coset representatives."""
    vec = np.asarray(vec, dtype=np.int64) % 2
    bexp = vec[link.hco.res.coord_gen[degree]]
    n = link.parent.group.order
    rank = link.parent.res.ranks[degree]
    cols = (np.arange(rank, dtype=np.int64)[:, None] * n
            + link._left_inv_reps[None, :])
    phi = link.u[degree][cols.ravel()] @ bexp
    return phi.reshape(cols.shape).sum(axis=1) % 2


def _probe_vectors(dim, rng):
    return ([np.zeros(dim, dtype=np.int64), np.ones(dim, dtype=np.int64)]
            + [rng.integers(0, 2, dim) for _ in range(3)])


def _same_read(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("name,max_degree,index2_only", [
    ("D8", 4, False), ("C2xD8", 5, False), ("sz8-sylow", 4, True)])
def test_held_link_maps_match_the_per_call_formulas(name, max_degree,
                                                    index2_only):
    gc = GroupCohomology(_named_group(name), max_degree)
    rng = np.random.default_rng(17)
    subs = [s for s in subgroup_classes(gc.group)
            if s.index == 2 or (not index2_only and s.order < gc.group.order)]
    # H = 1 has rank 0 in every positive degree
    assert index2_only or subs[0].order == 1
    for sub in subs:
        link = SubgroupLink(gc, sub)
        degrees = range(link.max_degree + 1)
        for deg in degrees:
            for vec in _probe_vectors(link.hco.h_dim(deg), rng):
                for _ in range(2):  # the build, then the held matrix
                    _same_read(link.transfer(deg, vec),
                               _ref_transfer(link, deg, vec))
        # transfer leaves the restriction's comparison map unlifted
        assert link._v is None
        for deg in degrees:
            for vec in _probe_vectors(gc.h_dim(deg), rng):
                for _ in range(2):
                    _same_read(link.restrict(deg, vec),
                               _ref_restrict(link, deg, vec))
        assert sorted(link._res_mats) == sorted(link._cor_mats) == list(degrees)


# -- the F2 chain-map path against the int64 route it replaced --

def _int64_lift(src, src_degree, dst, gen_rows, steps):
    """Chain lift with int64 products and a full map in every degree,
    including the top one."""
    f = [src.extend_rows(src_degree, np.asarray(gen_rows, dtype=np.int64) & 1,
                         dst, 0)]
    for j in range(1, steps + 1):
        i = src_degree + j
        rhs = src.boundaries[i][src.gen_coords(i)] @ f[j - 1] & 1
        sol, ok = dst.boundary_solver(j).solve_many(rhs)
        assert ok.all()
        f.append(src.extend_rows(i, sol, dst, j))
    return f


def _int64_cochain_lift(gc, degree, vec, steps):
    res = gc.res
    start = np.zeros((res.ranks[degree], res.dims[0]), dtype=np.int64)
    start[:, res.gen_coords(0)[0]] = np.asarray(vec) % 2
    return _int64_lift(res, degree, res, start, steps)


def _int64_cup(gc, a_deg, a, b_deg, b):
    """The product read off the extended top map, one generator block at a
    time."""
    res = gc.res
    top = _int64_cochain_lift(gc, b_deg, b, a_deg)[-1]
    gen_rows = top[res.gen_coords(a_deg + b_deg)]
    cg = res.coord_gen[a_deg]
    aug = np.zeros((gen_rows.shape[0], res.ranks[a_deg]), dtype=np.int64)
    for s in range(res.ranks[a_deg]):
        aug[:, s] = gen_rows[:, cg == s].sum(axis=1)
    return aug % 2 @ a % 2


def _same_bytes_as_int64(got, ref):
    """got holds the int64 0/1 maps of ref as uint8, byte for byte."""
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert r.dtype == np.int64 and not ((r < 0) | (r > 1)).any()
        assert g.dtype == np.uint8 and g.shape == r.shape
        assert g.tobytes() == r.astype(np.uint8).tobytes()


def _named_group(name):
    if name == "C2xD8":
        return direct_product(builtin_group("C2"), builtin_group("D8"), name)
    return builtin_group(name)


@pytest.mark.parametrize("name,stride", [("D8", 1), ("C2xD8", 2),
                                         ("sz8-sylow", 6)])
def test_f2_chain_maps_match_the_int64_route(name, stride):
    gc = GroupCohomology(_named_group(name), 3)
    for sub in subgroup_classes(gc.group)[::stride]:
        link = SubgroupLink(gc, sub)
        q = link.hco.res
        u0 = np.zeros((link.ph2.ranks[0], q.dims[0]), dtype=np.int64)
        u0[:, q.gen_coords(0)[0]] = 1
        v0 = np.zeros((q.ranks[0], link.ph2.dims[0]), dtype=np.int64)
        v0[0, link.ph2.gen_coords(0)[0]] = 1
        for src, dst, start, held in ((link.ph2, q, u0, link.u),
                                      (q, link.ph2, v0, link.v)):
            ref = _int64_lift(src, 0, dst, start, 3)
            _same_bytes_as_int64(lift_chain_map(src, dst, start, 3), ref)
            _same_bytes_as_int64(held, ref)
    for deg in (1, 2):
        for e in _basis(gc.h_dim(deg)):
            _same_bytes_as_int64(gc.cochain_lift(deg, e, 3 - deg),
                                 _int64_cochain_lift(gc, deg, e, 3 - deg))
    for a_deg, b_deg in ((1, 1), (1, 2), (2, 1)):
        for a in _basis(gc.h_dim(a_deg)):
            for b in _basis(gc.h_dim(b_deg)):
                got = gc.cup(a_deg, a, b_deg, b)
                ref = _int64_cup(gc, a_deg, a, b_deg, b)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["C2", "C4", "C8", "V4", "C4xC2",
                                  "C2xC2xC2", "D4", "Q8"])
def test_cup_map_matches_diagonal_route(name, gc_cache):
    # every built-in of order <= 8, one draw per degree pair: each diagonal
    # read lifts a fresh diagonal approximation
    gc = gc_cache(name)
    rng = np.random.default_rng(8)
    for p, q in ((1, 1), (1, 2), (2, 1)):
        a = rng.integers(0, 2, gc.h_dim(p))
        b = rng.integers(0, 2, gc.h_dim(q))
        mat = gc.cup_map(p, q, b)
        assert mat.shape == (gc.h_dim(p + q), gc.h_dim(p))
        assert np.array_equal(mat @ a % 2, gc.cup_via_diagonal(p, a, q, b))


# -- readers check their operands --

def test_link_readers_check_degree_and_length(gc_cache):
    gc = gc_cache("D4")
    link = _link(gc, 4, maxdeg=2)
    for read, dim in ((link.restrict, gc.h_dim),
                      (link.transfer, link.hco.h_dim)):
        for deg in (-1, 3):
            with pytest.raises(DegreeOutOfRange):
                read(deg, np.zeros(dim(2), dtype=np.int64))
        for deg in (1, 2):
            for n in (dim(deg) - 1, dim(deg) + 1):
                with pytest.raises(IncompatibleOperands):
                    read(deg, np.ones(n, dtype=np.int64))


def test_connecting_maps_check_length_and_modulus(gc_cache):
    gc = gc_cache("D4")  # H^1 has dimension 2
    x = np.array([1, 0])
    for bad in (np.array([1]), np.array([1, 0, 1]), np.array([[1, 0]])):
        for read in (lambda: gc.bockstein(1, bad, 1), lambda: gc.sq1(1, bad),
                     lambda: gc.cochain_lift(1, bad, 1)):
            with pytest.raises(IncompatibleOperands):
                read()
    for m in (0, -1):
        for read in (lambda: gc.bockstein(1, x, m), lambda: gc.delta(1, m),
                     lambda: gc.cohomology_invariants(1, m)):
            with pytest.raises(IncompatibleOperands):
                read()
