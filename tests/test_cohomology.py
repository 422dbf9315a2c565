"""Cohomology layer: invariants vs bar complex, products, Bocksteins, transfer."""
import random
from collections import OrderedDict

import numpy as np
import pytest

from cohlat import resolution
from cohlat.cohomology import (GroupCohomology, SubgroupLink,
                               bar_cohomology_invariants, default_modulus_exp)
from cohlat.errors import (BudgetExceeded, DegreeOutOfRange, ModulusTooSmall,
                           NotA2Group)
from cohlat.groups import Subgroup, builtin_group, subgroup_classes
from cohlat.linalg import Subspace


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
    res2 = gc.res2
    vec = np.array([1, 1, 0])
    lifts = gc.cochain_lift(2, vec, 1)
    assert np.array_equal(
        res2.block_augment(0, lifts[0][res2.gen_coords(2)], two_exp=1)
        .ravel(), vec)
    lhs = res2.boundaries[3] @ lifts[0] % 2
    rhs = lifts[1] @ res2.boundaries[1] % 2
    assert np.array_equal(lhs, rhs)


def test_subgroup_link_chain_maps_are_bytes(gc_cache):
    # the comparison maps are mod 2 and held as uint8; transfer reads only
    # the summed coordinates, and must agree with the full int64 product
    from cohlat.resolution import lift_chain_map
    gc = gc_cache("D4")
    sub = next(s for s in subgroup_classes(gc.group) if s.order == 4)
    link = SubgroupLink(gc, sub)
    q2 = link.hco.res2
    u0 = np.zeros((link.ph2.ranks[0], q2.dims[0]), dtype=np.int64)
    u0[:, q2.gen_coords(0)[0]] = 1
    full_u = lift_chain_map(link.ph2, q2, u0, link.max_degree)
    assert all(f.dtype == np.uint8 for f in link.u + link.v)
    assert all(np.array_equal(a, b) for a, b in zip(link.u, full_u))
    n = gc.group.order
    for deg in range(link.max_degree + 1):
        for vec in _basis(link.hco.h_dim(deg)):
            phi = full_u[deg] @ vec[q2.coord_gen[deg]] % 2
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


def test_construction_builds_nothing_and_dims_reach_the_ceiling(monkeypatch):
    gc = _fresh(monkeypatch, "D4", 4)
    assert gc.res.top_degree == 0 and gc.res2.top_degree == 0
    assert gc.dims == [1, 2, 3, 4, 5]  # max_degree + 1 entries
    assert gc.res.top_degree == gc.res2.top_degree == 4
    with pytest.raises(BudgetExceeded):
        GroupCohomology(builtin_group("C2"), resolution.MAX_RESOLUTION_DEGREE + 1)


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
        assert gc.res.top_degree == gc.res2.top_degree == top
    gc = _fresh(monkeypatch, "D4", 4)
    sub = next(s for s in subgroup_classes(gc.group) if s.order == 4)
    link = SubgroupLink(gc, sub, max_degree=2)
    assert gc.res2.top_degree == link.hco.res2.top_degree == 2
    assert link.ph2.top_degree == 2 and len(link.u) == len(link.v) == 3
    # a later, deeper read leaves the link's snapshot as it was
    gc.h_dim(4)
    assert link.ph2.top_degree == 2
    assert link.restrict(2, np.array([1, 0, 1])).shape == (link.hco.h_dim(2),)
