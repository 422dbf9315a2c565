"""Tests for the degree-three obstruction criterion."""
import hashlib
import json
from collections import OrderedDict
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from cohlat import cli, cohomology, groups, resolution
from cohlat.cohomology import (GroupCohomology, SubgroupLink,
                               default_modulus_exp)
from cohlat.criterion import (MIN_MAX_DEGREE, CriterionConfig,
                              evaluate_criterion, transfer_cup_image,
                              transfer_cup_span, triple_cup_span)
from cohlat.errors import ModulusTooSmall, ValidationError
from cohlat.groups import (BUILTIN_GROUPS, FiniteGroup, Subgroup,
                           builtin_group, closure, cyclic_group,
                           direct_product, subgroup_classes)
from cohlat.linalg import GF2Matrix, Subspace
from oracles import transfer_cup_span_by_class


def _characters(group):
    """All nonzero homs to F2, as value arrays, from generator images."""
    gens = group.generators()
    t = group.table
    homs = []
    for bits in product((0, 1), repeat=len(gens)):
        val = {0: 0}
        frontier = [0]
        ok = True
        while frontier and ok:
            nxt = []
            for a in frontier:
                for gi, b in zip(gens, bits):
                    c = int(t[a, gi])
                    v = val[a] ^ b
                    if c in val:
                        if val[c] != v:
                            ok = False
                            break
                    else:
                        val[c] = v
                        nxt.append(c)
                if not ok:
                    break
            frontier = nxt
        if ok and len(val) == group.order and any(bits):
            homs.append(np.array([val[i] for i in range(group.order)]))
    return homs


def _char_table(gc):
    """Character value table of each degree-1 basis class.

    The value on g is read off by restricting to the cyclic subgroup it
    generates; the restriction is nonzero exactly on classes whose character
    is 1 outside the squares of that cyclic group.
    """
    g = gc.group
    rows = []
    for e in np.eye(gc.h_dim(1), dtype=np.int64):
        vals = np.zeros(g.order, dtype=np.int64)
        for x in range(1, g.order):
            cyc = [0]
            y = x
            while y != 0:
                cyc.append(int(y))
                y = int(g.table[y, x])
            lx = SubgroupLink(gc, Subgroup(g, sorted(set(cyc))), max_degree=1)
            rx = lx.restrict(1, e)
            if rx.any():
                hg = lx.hco.group
                loc = {int(v): i for i, v in enumerate(lx.to_global)}
                sqc = closure(hg, sorted({int(hg.table[a, a])
                                          for a in range(hg.order)}))
                vals[x] = 0 if loc[x] in sqc else int(rx[0])
        rows.append(vals)
    return np.array(rows) % 2


def _ver_images(group, sub):
    """Transfer of each character of the subgroup, by the coset-walk formula."""
    t, inv = group.table, group.inv
    reps = sub.coset_reps()
    hgrp, to_global = sub.as_group()
    loc = {int(x): i for i, x in enumerate(to_global)}
    cos = np.zeros(group.order, dtype=int)
    for j, r in enumerate(reps):
        for h in sub.elements:
            cos[t[r, h]] = j
    vtab = []
    for g in range(group.order):
        out = 0
        for r in reps:
            gr = int(t[g, r])
            hj = int(t[inv[reps[cos[gr]]], gr])
            out = int(hgrp.table[out, loc[hj]])
        vtab.append(out)
    return [np.array([phi[vtab[x]] for x in range(group.order)]) % 2
            for phi in _characters(hgrp)]


NEGATIVE_CONTROLS = ["C2", "C4", "C8", "C16", "V4", "C4xC2", "C2xC2xC2",
                     "C4xC4", "D4", "Q8", "D8", "Q16"]


@pytest.fixture(scope="module")
def sz8_report():
    return evaluate_criterion(builtin_group("sz8-sylow"),
                              CriterionConfig(which="b", max_degree=4))


@pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
def test_negative_controls(name):
    rep = evaluate_criterion(builtin_group(name))
    assert rep.criterion_a is False
    assert rep.criterion_b is False
    assert rep.witness_a is None and rep.witness_b is None
    assert not rep.nonzero_obstruction


def test_sz8_criterion_holds(sz8_report):
    rep = sz8_report
    assert rep.criterion_b is True
    assert rep.nonzero_obstruction
    assert rep.h_dims == [1, 3, 5, 9]
    assert rep.transfer_span_dim == 0
    assert rep.triple_cup_span_dim == 0
    assert rep.sq1_image_dim == 2
    assert rep.criterion_a is None and rep.integral_image_dim is None


def test_sz8_witness_is_verified(sz8_report):
    w = np.array(sz8_report.witness_b)
    assert w.any()
    gc = GroupCohomology(builtin_group("sz8-sylow"), 4)
    assert gc.sq1_image(3).contains_vector(w)
    span = Subspace.span(np.array(sz8_report.transfer_span_basis), 9) \
        if sz8_report.transfer_span_basis else Subspace.zero(9)
    assert not span.contains_vector(w)


def test_sz8_subgroup_terms(sz8_report):
    terms = sz8_report.subgroups
    assert len(terms) == 59
    orders = {}
    for t in terms:
        orders[t.order] = orders.get(t.order, 0) + 1
    assert orders == {1: 1, 2: 7, 4: 14, 8: 22, 16: 7, 32: 7, 64: 1}
    assert all(t.span_dim == 0 for t in terms)
    full = [t for t in terms if t.order == 64][0]
    assert full.h1_dim == 3 and full.integral_h2_dim == 3


def test_sz8_products_match_integral_classes():
    # the integrally-liftable degree-2 classes are exactly the products of
    # degree-1 classes, and all triple products vanish
    gc = GroupCohomology(builtin_group("sz8-sylow"), 4)
    e = np.eye(3, dtype=np.int64)
    pairs = [gc.cup(1, e[i], 1, e[j]) for i in range(3) for j in range(i, 3)]
    assert all(p.any() for p in pairs)
    pspan = Subspace.span(np.array(pairs), gc.h_dim(2))
    assert pspan.dim == 3
    assert gc.integral_reduction_image(2) == pspan
    assert triple_cup_span(gc).dim == 0


def test_full_group_term_needs_no_transfer():
    # with the whole group as subgroup the transfer is the identity, so the
    # term must equal the span of direct products
    g = builtin_group("D4")
    gc = GroupCohomology(g, 3)
    span, term = transfer_cup_image(gc, Subgroup(g, range(g.order)))
    e = np.eye(gc.h_dim(1), dtype=np.int64)
    direct = [gc.cup(1, x, 2, u.astype(np.int64))
              for x in e for u in gc.integral_reduction_image(2).basis]
    assert span == Subspace.span(np.array(direct), gc.h_dim(3))
    assert term.index == 1


def test_transfer_matches_coset_walk_oracle():
    for name in ["C4", "C8", "D4", "C4xC2", "D8"]:
        g = builtin_group(name)
        gc = GroupCohomology(g, 2)
        tab = _char_table(gc)
        nonzero_seen = 0
        for sub in subgroup_classes(g):
            if not 1 < sub.order < g.order:
                continue
            link = SubgroupLink(gc, sub, max_degree=1)
            mine = [(link.transfer(1, e) @ tab) % 2
                    for e in np.eye(link.hco.h_dim(1), dtype=np.int64)]
            oracle = _ver_images(g, sub)
            my_span = Subspace.span(np.array(mine), g.order)
            or_span = Subspace.span(np.array(oracle), g.order)
            assert my_span == or_span
            nonzero_seen += sum(1 for r in oracle if r.any())
        if name in ("C4", "C8", "D4", "D8"):
            assert nonzero_seen > 0


def test_span_is_conjugation_invariant():
    g = builtin_group("D8")
    gc = GroupCohomology(g, 3)
    sub = next(s for s in subgroup_classes(g)
               if s.order == 2 and len({tuple(s.conjugated(x).elements)
                                        for x in range(g.order)}) > 1)
    base, _ = transfer_cup_image(gc, sub)
    for x in range(g.order):
        other, _ = transfer_cup_image(gc, sub.conjugated(x))
        assert other == base


def test_report_dict_roundtrips(sz8_report):
    d = sz8_report.to_dict()
    assert d["criterion_b"] is True
    assert d["group"]["order"] == 64
    assert len(d["group"]["hash"]) == 64
    assert d["config"]["which"] == "b"
    assert d["transfer_span"]["dim"] == 0
    assert len(d["subgroups"]) == 59


def test_config_validation():
    g = builtin_group("C4")
    with pytest.raises(ValidationError):
        evaluate_criterion(g, CriterionConfig(which="c"))
    with pytest.raises(ValidationError):
        evaluate_criterion(g, CriterionConfig(max_degree=4))
    with pytest.raises(ValidationError):
        evaluate_criterion(g, CriterionConfig(which="b", max_degree=3))
    with pytest.raises(ModulusTooSmall):
        evaluate_criterion(g, CriterionConfig(modulus_exp=1))
    cfg = CriterionConfig(which="b").resolve(g)
    assert (cfg.modulus_exp, cfg.max_degree) == (3, 4)


def test_variant_b_implies_variant_a():
    # groups where both variants were computed never disagree
    for name in ["C4", "V4", "D4", "Q8"]:
        rep = evaluate_criterion(builtin_group(name))
        assert not (rep.criterion_b and not rep.criterion_a)


# sha256 of json.dumps(report.to_dict(), sort_keys=True), captured before
# readers built the resolution on demand (when every run built it to
# max_degree); any change to a report byte shows here
REPORT_SHA256 = {
    ("C16", "b"): "4b868706bf4c4a304a69f2c30c4b1a6980206210f29571ed73ea1dc1142a8eec",
    ("C16", "both"): "4f4937aeb7eaed79d14e9feb43b4338c61d021a137701743e4426db1d98c4de8",
    ("C2", "b"): "5b7db70c3c9810136a5f9d088561d114c68be7659a6ccc70a68c045d219b4b25",
    ("C2", "both"): "9fdace952136a373943a0851fbd82bdf25960fa8b1030f562b60991f7e35bcdb",
    ("C2xC2xC2", "b"): "cdc595af3f1356ffe74f8d9b795a1b66afd102c99d7aec5e66cf5f59261309bd",
    ("C2xC2xC2", "both"): "0af7dd27ab3079c3f0b10bf81ada8cc35b08c8974d35b5bd16c09bcc14a84709",
    ("C4", "b"): "3704cadca89ad662c931e025e59f221ca41e927437cdf4b842b3a5b29b9f8ca2",
    ("C4", "both"): "e13ec696ca9c710bd456ced7a75aec37a33e17cd12363d6eb74abcb262087b03",
    ("C4xC2", "b"): "63ea84d2f28883e07c8e37fe00f86edf28026381caecfd94687bf2edfc5b3b88",
    ("C4xC2", "both"): "19eff19f59d315bb8213a482c1e6a036273981d6b36493cda2c6806ce332f4dd",
    ("C4xC4", "b"): "7ca655d06804691de73fdb49e444b25be5118ede9bc04eff409f35879d6ae33d",
    ("C4xC4", "both"): "d75e0fc047852d00b5b872a8814a4eb5f01ae92bc853d360f8f358233bd059ae",
    ("C8", "b"): "b658f18b65b1664c7f21d4d5eca176c96b9a96eeb2ff532d3d609fbf3955ec7e",
    ("C8", "both"): "10bc58f475c95ee5cb368056e1ef2e5dc94af373b4cbfe9cb45d0f250e4dafea",
    ("D4", "b"): "c3393f320303833ead4b384f4f2842f55f19fe514ba9e7b4c9a7f7f1e9ef9659",
    ("D4", "both"): "8d3d8ee74e4590416a935e5972e27b897c06d38c71cb43c478cddd34aa528184",
    ("D8", "b"): "fb8f2f0044b48bb9282ae501c3e0cc75400d89fb887b2daf3cb5c9785c222d21",
    ("D8", "both"): "4acf13637dc692be28c358dca8bf3b9cbb4e18f0222dfca318a294613cb4b601",
    ("Q16", "b"): "4a1c33dcffd863589261d68dc125ad9c81a902585fc3760ca9b85d6e2c917c5c",
    ("Q16", "both"): "22a54a4c11c3fe9e0b29d4dd3ae5d8f3efe6b5524f0d9ea9be8aa6843cf81516",
    ("Q8", "b"): "cb17e1c5cf7520c640594dccc6207b8bfd2e945150dca72a24bad8aa6fc1f165",
    ("Q8", "both"): "e07a0ec6741992bac9820746163d3bb8f9a444b32bdd470ecae9b773c8dfc11c",
    ("V4", "b"): "e2b28f7ff0934b8d5721b4100faa27c2119dda477c17a7470bd19093b453f161",
    ("V4", "both"): "cb83b2d1b088f1014a85a3984348e79dec18b02235704da1dbba725ad8515d67",
    ("sz8-sylow", "b"): "b804c164fcbd79ea513f43543b2ac3290e3ae540bfc2f90ea33f4ee890e8db92",
    ("sz8-sylow", "both"): "65445d67cfe04b37573376a6f32d3c2bdf3594effdce39e0c6b8ee47b03af2c3",
}


def test_report_pins_cover_every_builtin():
    assert set(REPORT_SHA256) == {(n, w) for n in BUILTIN_GROUPS
                                  for w in ("b", "both")}


@pytest.mark.parametrize("name,which", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(name, which):
    rep = evaluate_criterion(builtin_group(name), CriterionConfig(which=which))
    raw = json.dumps(rep.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(raw).hexdigest() == REPORT_SHA256[(name, which)]


@pytest.mark.parametrize("which,top", [("b", 3), ("both", 4)])
def test_criterion_builds_only_the_degrees_it_reads(monkeypatch, which, top):
    monkeypatch.setattr(resolution, "_RES_CACHE", OrderedDict())
    g = builtin_group("D4")
    rep = evaluate_criterion(g, CriterionConfig(which=which))
    assert rep.max_degree == MIN_MAX_DEGREE[which]  # still reported as is
    cx = resolution._RES_CACHE[(g, default_modulus_exp(g))]
    assert cx.top_degree == top
    # no subgroup resolution is built past the links' degree 3 either
    assert max(c.top_degree for c in resolution._RES_CACHE.values()) == top


def test_criterion_lifts_no_restriction_map(monkeypatch):
    # each subgroup class costs one chain lift, the transfer's u: P|_H -> Q
    # from the restricted complex; the restriction map v is never lifted
    lifts = []

    def counting(src, dst, gen_rows0, through_degree):
        lifts.append(src)
        return resolution.lift_chain_map(src, dst, gen_rows0, through_degree)

    monkeypatch.setattr(cohomology, "lift_chain_map", counting)
    g = builtin_group("D8")
    rep = evaluate_criterion(g, CriterionConfig(which="b"))
    assert len(lifts) == len(rep.subgroups) == len(subgroup_classes(g))
    assert all(src.amb_group is not src.group for src in lifts)


def _relabelled(group, seed):
    """The group with its non-identity elements renamed by a seeded
    permutation, as the benchmark's group files are."""
    perm = np.zeros(group.order, dtype=np.int64)
    perm[1:] = 1 + np.random.default_rng(seed).permutation(group.order - 1)
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return FiniteGroup(table, name=f"{group.name}-r{seed}")


C2XD8 = direct_product(cyclic_group(2), builtin_group("D8"), "C2xD8")


@pytest.mark.parametrize(
    "group", [builtin_group(n) for n in BUILTIN_GROUPS]
    + [C2XD8, _relabelled(C2XD8, 1),
       _relabelled(builtin_group("sz8-sylow"), 1)], ids=lambda g: g.name)
def test_span_matches_the_class_by_class_oracle(group):
    # one resolution per isomorphism type gives the span and the terms of
    # one resolution per class, byte for byte
    gc = GroupCohomology(group, 3)
    span, terms = transfer_cup_span(gc)
    want_span, want_terms = transfer_cup_span_by_class(gc)
    assert span.basis_rows() == want_span.basis_rows()
    assert [t.to_dict() for t in terms] == [t.to_dict() for t in want_terms]


def test_report_bytes_hold_when_no_isomorphism_is_found(monkeypatch):
    # with no search budget each class builds its own resolution, as the
    # class-by-class loop did, and the report is the pinned one
    monkeypatch.setattr(resolution, "_RES_CACHE", OrderedDict())
    monkeypatch.setattr(groups, "ISOMORPHISM_MAX_STEPS", 0)
    g = builtin_group("sz8-sylow")
    rep = evaluate_criterion(g, CriterionConfig(which="b"))
    raw = json.dumps(rep.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(raw).hexdigest() == REPORT_SHA256[("sz8-sylow", "b")]
    tables = {h.as_group()[0].table.tobytes() for h in subgroup_classes(g)}
    assert len(resolution._RES_CACHE) == len(tables) > 9


def test_relabelled_sz8_run_holds_one_resolution_per_type(monkeypatch,
                                                          tmp_path):
    # the 59 classes of sz8-sylow fall into 9 isomorphism types, the whole
    # group among them, so the CLI run holds 9 complexes and factors the
    # boundaries of degrees 1-3 of each
    monkeypatch.setattr(resolution, "_RES_CACHE", OrderedDict())
    inits = []

    class CountingSolver(resolution.ModKSolver):
        def __init__(self, *args):
            inits.append(args)
            super().__init__(*args)
    monkeypatch.setattr(resolution, "ModKSolver", CountingSolver)
    g = _relabelled(builtin_group("sz8-sylow"), 1)
    path = tmp_path / "sz8.json"
    path.write_text(json.dumps({"order": g.order,
                                "table": g.table.tolist()}))
    assert cli.main(["criterion", "--group", str(path), "--which", "b",
                     "--out", str(tmp_path / "report.json")]) == 0
    assert len(resolution._RES_CACHE) == 9
    assert len(inits) == 27
    tables = {h.as_group()[0].table.tobytes() for h in subgroup_classes(g)}
    assert len(tables) > 40


@pytest.mark.parametrize("name", ["V4", "D4", "C2xC2xC2", "C4xC4"])
def test_triple_cup_span_matches_every_triple(name):
    gc = GroupCohomology(builtin_group(name), 3)
    e = np.eye(gc.h_dim(1), dtype=np.int64)
    rows = [gc.cup(1, a, 2, gc.cup(1, b, 1, c))
            for a in e for b in e for c in e]
    assert triple_cup_span(gc) == Subspace.span(np.array(rows), gc.h_dim(3))
