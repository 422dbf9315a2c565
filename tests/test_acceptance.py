"""Acceptance gate: one test per shipped guarantee, at its stated budget."""
import json
import random
import time

import numpy as np
import pytest

from cohlat.cli import main
from cohlat.cohomology import (GroupCohomology, SubgroupLink,
                               bar_cohomology_invariants)
from cohlat.criterion import (CriterionConfig, evaluate_criterion,
                              transfer_cup_image, triple_cup_span)
from cohlat.groups import (Subgroup, abelianization, builtin_group,
                           commutator_subgroup, subgroup_classes)
from cohlat.lattices import (GLattice, alpha_image, build_mnq,
                             builtin_lattice, direct_sum,
                             exterior_of_rank_one_extension, exterior_ses,
                             lambda2_regular_decomposition, phi,
                             two_slot_extension)
from cohlat.linalg import (GF2Matrix, Subspace, invariant_factors,
                           kernel_basis_modk)
from cohlat.resolution import (minimal_resolution, verify_boundary_squares,
                               verify_exactness)

SMALL_GROUPS = ["C2", "C4", "C8", "V4", "C4xC2", "C2xC2xC2", "D4", "Q8"]
NEGATIVE_CONTROLS = SMALL_GROUPS + ["C16", "D8", "Q16", "C4xC4"]

# frozen before this library existed: dims of the order-64 headline group
# from a truncated-quotient elimination, with degrees <= 2 double-checked
# on the raw bar complex (differential ranks 61 and 4030 over F2, so
# dim H^1 = 64 - 61 and dim H^2 = (4096 - 4030) - 61)
ORACLE_DIMS = [1, 3, 5, 9]


@pytest.fixture(scope="module")
def headline(tmp_path_factory):
    """One CLI run of the headline criterion, shared by the tests below."""
    out = tmp_path_factory.mktemp("headline") / "report.json"
    t0 = time.monotonic()
    code = main(["criterion", "--group", "builtin:sz8-sylow",
                 "--threads", "4", "--out", str(out)])
    elapsed = time.monotonic() - t0
    return code, json.loads(out.read_text()), elapsed


def test_1_headline_group_satisfies_criterion_b(headline):
    code, env, elapsed = headline
    assert code == 0
    assert elapsed < 3600.0
    res = env["result"]
    assert res["criterion_b"] is True
    assert res["nonzero_obstruction"] is True
    w = np.array(res["witness_b"], dtype=np.int64)
    assert w.any()
    # the witness really is a degree-3 class hit by Sq1 ...
    gc = GroupCohomology(builtin_group("sz8-sylow"), 4)
    assert gc.sq1_image(3).contains_vector(w)
    # ... missed by every transferred product
    basis = res["transfer_span"]["basis"]
    span = (Subspace.span(np.array(basis, dtype=np.int64), gc.h_dim(3))
            if basis else Subspace.zero(gc.h_dim(3)))
    assert not span.contains_vector(w)


def test_2_negative_controls_both_variants_false():
    t0 = time.monotonic()
    for name in NEGATIVE_CONTROLS:
        rep = evaluate_criterion(builtin_group(name),
                                 CriterionConfig(which="both"))
        assert rep.criterion_a is False, name
        assert rep.criterion_b is False, name
        assert rep.witness_a is None and rep.witness_b is None
        assert not rep.nonzero_obstruction
    assert time.monotonic() - t0 < 300.0


def test_3_order64_dims_match_the_precomputed_oracle(tmp_path):
    g = builtin_group("sz8-sylow")
    gc = GroupCohomology(g, 3)
    assert [gc.h_dim(i) for i in range(4)] == ORACLE_DIMS
    # degree 1 re-derived live by two independent routes
    assert bar_cohomology_invariants(g, 1, 1) == [2] * ORACLE_DIMS[1]
    assert abelianization(g) == [2, 2, 2]
    # the CLI reports the same dims
    out = tmp_path / "dims.json"
    assert main(["cohomology", "--group", "builtin:sz8-sylow",
                 "--max-degree", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["dims"] == ORACLE_DIMS


def test_4_order64_structure_facts():
    t0 = time.monotonic()
    g = builtin_group("sz8-sylow")
    assert g.order == 64
    t = g.table
    center = [x for x in range(64) if np.array_equal(t[x], t[:, x])]
    assert center == sorted(commutator_subgroup(g))
    assert len(center) == 8
    orders = g.element_orders
    assert all(int(orders[x]) <= 2 for x in center)
    assert abelianization(g) == [2, 2, 2]
    assert int(np.count_nonzero(orders == 2)) == 7
    assert all(int(orders[x]) == 4
               for x in set(range(64)) - set(center))
    assert time.monotonic() - t0 < 1.0


def test_5_phi_vanishes_for_tiny_groups():
    t0 = time.monotonic()
    for name in ("C2", "C4", "V4"):
        assert phi(builtin_group(name)) == [], name
    assert time.monotonic() - t0 < 600.0


def test_6_sum_map_lattice_identities():
    for name in SMALL_GROUPS:
        g = builtin_group(name)
        n = g.order
        data = build_mnq(g)
        assert data.kernel.shape == (1, 2 * n)
        assert not (data.kernel @ data.rho).any()
        # constant on each slot, so the coordinate permutations fix it
        v = data.kernel.ravel()
        assert len(set(v[:n].tolist())) == 1
        assert len(set(v[n:].tolist())) == 1
        assert abs(int(v[0])) == 1 and int(v[0]) == -int(v[n])
        ses = two_slot_extension(data)
        assert ses.sub.rank == 1
        assert all(np.array_equal(ses.sub.matrix(x),
                                  np.eye(1, dtype=np.int64))
                   for x in range(n))
        assert data.m_torsion_free
        assert invariant_factors(data.rho) == []
        assert data.m_rank == (n - 1) ** 2
    dec = lambda2_regular_decomposition(builtin_group("sz8-sylow"))
    assert len(dec.involutions) == 7
    assert len(dec.pair_reps) == 28
    assert dec.rank == 2016


def test_7_property_suites(headline):
    rng = random.Random(7)

    # boundaries square to zero and the resolutions are exact
    for name in ("C4", "V4", "D4", "Q8"):
        cx = minimal_resolution(builtin_group(name), 3, 4)
        assert verify_boundary_squares(cx)
        assert all(verify_exactness(cx, i) for i in range(1, 4))

    # Sq1 squares degree-1 classes, kills its own image, and obeys the
    # product rule
    for name in ("V4", "D4", "Q8", "C4xC2"):
        gc = GroupCohomology(builtin_group(name), 4)
        e1 = list(np.eye(gc.h_dim(1), dtype=np.int64))
        for a in e1:
            assert np.array_equal(gc.sq1(1, a), gc.cup(1, a, 1, a))
            assert not gc.sq1(2, gc.sq1(1, a)).any()
        for a in e1:
            for b in e1:
                lhs = gc.sq1(2, gc.cup(1, a, 1, b))
                rhs = (gc.cup(2, gc.sq1(1, a), 1, b)
                       + gc.cup(1, a, 2, gc.sq1(1, b))) % 2
                assert np.array_equal(lhs, rhs)
        for v in np.eye(gc.h_dim(2), dtype=np.int64):
            assert not gc.sq1(3, gc.sq1(2, v)).any()

    # cup products commute mod 2
    gc = GroupCohomology(builtin_group("D4"), 3)
    for da, db in ((1, 1), (1, 2)):
        for _ in range(4):
            a = np.array([rng.randrange(2) for _ in range(gc.h_dim(da))])
            b = np.array([rng.randrange(2) for _ in range(gc.h_dim(db))])
            assert np.array_equal(gc.cup(da, a, db, b),
                                  gc.cup(db, b, da, a))

    # restriction followed by transfer multiplies by the index
    for sub in subgroup_classes(gc.group):
        link = SubgroupLink(gc, sub, max_degree=2)
        idx = gc.group.order // sub.order
        for deg in (1, 2):
            for v in np.eye(gc.h_dim(deg), dtype=np.int64):
                back = link.transfer(deg, link.restrict(deg, v))
                assert np.array_equal(back, (idx % 2) * v)

    # Frobenius reciprocity: transfer(res(a) . y) == a . transfer(y)
    for sub in subgroup_classes(gc.group):
        if sub.order != 4:
            continue
        link = SubgroupLink(gc, sub, max_degree=2)
        for a in np.eye(gc.h_dim(1), dtype=np.int64):
            ra = link.restrict(1, a)
            for y in np.eye(link.hco.h_dim(1), dtype=np.int64):
                lhs = link.transfer(2, link.hco.cup(1, ra, 1, y))
                rhs = gc.cup(1, a, 1, link.transfer(1, y))
                assert np.array_equal(lhs, rhs)

    # exactness of the coefficient ladder at modulus 4: classes killed by
    # Sq1 are exactly the mod-2 shadows of mod-4 classes
    for name in ("C4", "D4", "Q8"):
        gch = GroupCohomology(builtin_group(name), 3)
        for deg in (1, 2):
            r = gch.h_dim(deg)
            sq = np.array([gch.sq1(deg, e)
                           for e in np.eye(r, dtype=np.int64)])
            ker_dim = r - GF2Matrix.from_dense(sq % 2).rank()
            shadows = kernel_basis_modk(gch.delta(deg, 2), 2).matrix % 2
            assert ker_dim == Subspace.span(shadows, r).dim

    # alpha vanishes on permutation lattices and is unchanged by
    # permutation padding
    v4 = builtin_group("V4")
    for g in (builtin_group("C4"), v4, builtin_group("D4")):
        assert alpha_image(GLattice.regular(g)) == []
        assert alpha_image(direct_sum(GLattice.trivial(g),
                                      GLattice.regular(g))) == []
    m = builtin_lattice("M", v4)
    assert alpha_image(m) == [2, 2]
    assert alpha_image(direct_sum(m, GLattice.regular(v4))) == [2, 2]
    assert alpha_image(direct_sum(m, GLattice.trivial(v4, 2))) == [2, 2]

    # the exterior-square sequence is exact, and rank-one extensions keep
    # the projection onto for the two smallest groups
    exterior_ses(m).verify()
    exterior_ses(GLattice.regular(builtin_group("C4"))).verify()
    for name in ("C2", "C4"):
        exterior_of_rank_one_extension(
            two_slot_extension(build_mnq(builtin_group(name)))).verify()

    # transferred-product spans do not depend on the conjugate chosen
    d4 = builtin_group("D4")
    gcd4 = GroupCohomology(d4, 3)
    seen = 0
    for sub in subgroup_classes(d4):
        if sub.order != 2:
            continue
        conjs = {tuple(sub.conjugated(x).elements) for x in range(d4.order)}
        if len(conjs) == 1:
            continue
        base, _ = transfer_cup_image(gcd4, sub)
        for x in range(d4.order):
            other, _ = transfer_cup_image(gcd4, sub.conjugated(x))
            assert other == base
        seen += 1
    assert seen > 0

    # for the headline group the transferred products land inside the
    # span of triple products
    _, env, _ = headline
    res = env["result"]
    gc8 = GroupCohomology(builtin_group("sz8-sylow"), 4)
    w_span = triple_cup_span(gc8)
    assert res["triple_cup_span_dim"] == w_span.dim
    assert res["transfer_span"]["dim"] == 0
    for row in res["transfer_span"]["basis"]:
        assert w_span.contains_vector(np.array(row, dtype=np.int64))


def test_8_minimal_resolution_agrees_with_bar_brute_force():
    for name in SMALL_GROUPS:
        g = builtin_group(name)
        gc = GroupCohomology(g, 3)
        for deg in range(4):
            for m_exp in (1, 2):
                mine = gc.cohomology_invariants(deg, m_exp)
                ref = bar_cohomology_invariants(g, deg, m_exp)
                assert mine == ref, (name, deg, m_exp)
