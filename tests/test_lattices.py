"""Lattice layer: actions, squares, sum-map quotients, covers, obstructions."""
import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from cohlat.errors import (BudgetExceeded, CoflasquenessCheckFailed,
                           IncompatibleOperands, InternalInvariant,
                           NotRankOneKernel, ValidationError)
from cohlat.groups import (BUILTIN_GROUPS, FiniteGroup, Subgroup,
                           builtin_group, cyclic_group, dihedral_group,
                           direct_product, subgroup_classes)
import cohlat
from cohlat import lattices, linalg
from cohlat.lattices import (GLattice, LatticeSES, _diag_block,
                             _equivariant, _exact_product, _pair_arrays,
                             _product_perm, _relator_values, _schreier_walk,
                             _wedge_minors_of_map, alpha_image, build_mnq,
                             builtin_lattice, coflasque_resolution, direct_sum,
                             exterior_of_rank_one_extension, exterior_ses,
                             gamma2, h1_integral, induced_sign_lattice,
                             integral_cocycles, lambda2,
                             lambda2_regular_decomposition, lattice_from_json,
                             mod2_reduction, phi, two_slot_extension,
                             wedge_coords)
from cohlat.linalg import (int_spans_equal, invariant_factors,
                           quotient_invariant_factors, row_hnf)

from oracles import (_alpha_by_bar_pairs, _alpha_by_mod2_cocycles,
                     _bfs_reference, _schreier_reference,
                     permutation_splitting, pullback_lattice,
                     untrimmed_resolution)


# -- construction and validation --


def test_action_count_must_match_generators():
    c2 = builtin_group("C2")
    with pytest.raises(ValidationError):
        GLattice(c2, [np.eye(1, dtype=np.int64)] * 2)


def test_relations_are_checked():
    c4 = builtin_group("C4")
    with pytest.raises(ValidationError):
        GLattice(c4, [np.array([[2]])])


def test_mixed_encodings_rejected():
    v4 = builtin_group("V4")
    perm = (np.array([1, 0]), np.ones(2, dtype=np.int64))
    with pytest.raises(ValidationError):
        GLattice(v4, [perm, np.eye(2, dtype=np.int64)])


def test_permutation_flag_rejects_signs():
    c2 = builtin_group("C2")
    with pytest.raises(ValidationError):
        GLattice(c2, [(np.array([1, 0]), np.array([-1, 1]))],
                 permutation=True)
    with pytest.raises(ValidationError):
        GLattice(c2, [np.array([[1, 1], [0, -1]])], permutation=True)


def test_torsion_rows_must_not_leak():
    c2 = builtin_group("C2")
    with pytest.raises(ValidationError):
        GLattice(c2, [np.array([[1, 0], [1, 1]])],
                 mod2_mask=np.array([True, False]))


def test_stated_rank_must_agree():
    c2 = builtin_group("C2")
    with pytest.raises(ValidationError):
        GLattice(c2, [np.eye(2, dtype=np.int64)], rank=3)


def test_dense_rank_budget():
    c2 = builtin_group("C2")
    with pytest.raises(BudgetExceeded):
        GLattice.trivial(c2, rank=1201)


def test_dense_constructions_check_the_rank_they_build():
    # each builds without validation, so checks its own output rank
    c2 = builtin_group("C2")
    half = GLattice.trivial(c2, rank=601)
    signs = GLattice(c2, [(np.arange(1201), -np.ones(1201, dtype=np.int64))])
    with pytest.raises(BudgetExceeded):
        direct_sum(half, half)                       # rank 1202
    with pytest.raises(BudgetExceeded):
        mod2_reduction(signs)                        # monomial in, dense out
    with pytest.raises(BudgetExceeded):
        lambda2(GLattice.trivial(c2, rank=50))       # rank 1225
    with pytest.raises(BudgetExceeded):
        gamma2(GLattice.trivial(c2, rank=49))        # rank 1176 + 49


# A A = (1 - 2^64) I over Z, which int64 products wrap to I
_WRAPS_TO_ONE = np.array([[0, 2**32 + 1], [-(2**32 - 1), 0]], dtype=np.int64)


def test_int64_wraparound_does_not_fake_an_action():
    c2, c4 = builtin_group("C2"), builtin_group("C4")
    assert np.array_equal(_WRAPS_TO_ONE @ _WRAPS_TO_ONE, np.eye(2))
    with pytest.raises(ValidationError, match="leave int64"):
        GLattice(c2, [_WRAPS_TO_ONE])                      # the relation check
    with pytest.raises(ValidationError, match="leave int64"):
        GLattice(c4, [_WRAPS_TO_ONE], validate=False).matrix(2)  # the tree walk
    for group, elements in ((c2, (1,)), (c4, (3, 1))):   # C4: B B at s^2
        data = {"rank": 2, "generators": [
            {"element": el, "matrix": _WRAPS_TO_ONE.tolist()}
            for el in elements]}
        with pytest.raises(ValidationError, match="leave int64"):
            lattice_from_json(group, data)


def test_large_entries_compose_exactly_when_products_fit():
    # A = [[1, 2^62], [0, -1]] squares to I, though its int64 sums could
    # wrap: the product runs in Python ints and comes back as int64
    c2 = builtin_group("C2")
    a = np.array([[1, 1 << 62], [0, -1]], dtype=np.int64)
    lat = GLattice(c2, [a])
    assert lat.matrix(1).tolist() == a.tolist()
    data = {"rank": 2, "generators": [{"element": 1, "matrix": a.tolist()}]}
    assert lattice_from_json(c2, data).matrix(1).tolist() == a.tolist()


def test_cocycles_refuse_an_action_that_wraps_in_int64():
    # s^2 on C4 composes B B = (1 - 2^64) I, which int64 wraps to I
    with pytest.raises(ValidationError, match="leave int64"):
        integral_cocycles(builtin_group("C4"), [_WRAPS_TO_ONE])


def _exact(a, b):
    return (a.astype(object) @ b.astype(object)).tolist()


def test_exact_product_switches_to_python_ints_at_the_int64_bound():
    # one row against one column of two equal entries x and y: int64 while
    # x * y * 2 < 2^63
    x = np.array([[1 << 31, 1 << 31]], dtype=np.int64)
    below = np.array([[(1 << 31) - 1]] * 2, dtype=np.int64)
    out = _exact_product(x, below)                  # 2^63 - 2^32, in int64
    assert out.dtype == np.int64 and out.tolist() == _exact(x, below)
    at = np.array([[1 << 31]] * 2, dtype=np.int64)  # 2^63 leaves int64
    with pytest.raises(ValidationError, match="leave int64"):
        _exact_product(x, at)
    # past the bound, products that fit come back exact, as int64
    for a, b in ((x, np.array([[1 << 31], [-(1 << 31)]])),
                 (np.ones((1, 3), dtype=np.int64),
                  np.array([[1 << 62], [1 << 62], [-(1 << 62)]]))):
        out = _exact_product(a, b)
        assert out.dtype == np.int64 and out.tolist() == _exact(a, b)


def test_schreier_walk_reads_the_cached_element_matrices(monkeypatch):
    lat = builtin_lattice("M", builtin_group("D4"))
    calls = []
    real = lattices._exact_product

    def counting(a, b):
        calls.append(1)
        return real(a, b)
    monkeypatch.setattr(lattices, "_exact_product", counting)
    fresh = GLattice(lat.group, lat._gen_mats, validate=False)
    _schreier_walk(fresh)        # composes down the tree, once per element
    assert len(calls) == lat.group.order - 1 - len(lat.group.generators())
    for g in range(lat.group.order):
        lat.matrix(g)
    calls.clear()
    system = _schreier_walk(lat)[1]
    assert not calls
    assert np.array_equal(system, _schreier_walk(fresh)[1])


def test_apply_agrees_with_matrix():
    d4 = builtin_group("D4")
    reg = GLattice.regular(d4)
    rng = random.Random(0)
    for _ in range(10):
        g = rng.randrange(8)
        v = np.array([rng.randrange(-5, 6) for _ in range(8)])
        assert np.array_equal(reg.apply(g, v), reg.matrix(g) @ v)
    for g in (-1, 8):
        with pytest.raises(ValidationError):
            reg.matrix(g)
        with pytest.raises(ValidationError):
            GLattice.sign_lattice(d4).matrix(g)


def test_apply_moves_a_batch_of_rows():
    d4 = builtin_group("D4")
    rng = np.random.default_rng(3)
    for lat in (GLattice.regular(d4), builtin_lattice("M", d4)):
        rows = rng.integers(-5, 6, size=(4, lat.rank))
        for g in range(d4.order):
            want = [lat.matrix(g) @ r for r in rows]
            assert np.array_equal(lat.apply(g, rows), want)


def test_regular_lattice_is_left_translation():
    q8 = builtin_group("Q8")
    reg = GLattice.regular(q8)
    assert reg.permutation and reg.rank == 8
    for g in range(8):
        m = reg.matrix(g)
        for x in range(8):
            assert m[:, x].tolist() == [1 if y == q8.table[g, x] else 0
                                        for y in range(8)]


def test_sign_lattice_character():
    v4 = builtin_group("V4")
    s = GLattice.sign_lattice(v4)
    assert s.rank == 1
    # the canonical generators all act by -1
    for g in v4.generators():
        assert s.matrix(g)[0, 0] == -1
    one, _ = Subgroup(builtin_group("C2"), [0]).as_group()
    with pytest.raises(ValidationError):
        GLattice.sign_lattice(one)


def test_fixed_rows():
    c2 = builtin_group("C2")
    reg = GLattice.regular(c2)
    assert reg.fixed_rows().tolist() == [[1, 1]]
    assert GLattice.sign_lattice(c2).fixed_rows().shape == (0, 1)
    assert np.array_equal(reg.fixed_rows([0]), np.eye(2, dtype=np.int64))


def test_restricted_matrices_are_subgroup_actions():
    d4 = builtin_group("D4")
    reg = GLattice.regular(d4)
    sub = next(s for s in subgroup_classes(d4) if s.order == 4)
    mats = reg.restricted_matrices(sub)
    hgrp, _ = sub.as_group()
    assert len(mats) == len(hgrp.generators())
    for m in mats:
        assert ((m >= 0).all() and (m.sum(0) == 1).all()
                and (m.sum(1) == 1).all())


def test_direct_sum_blocks_and_flags():
    c2 = builtin_group("C2")
    reg = GLattice.regular(c2)
    two = direct_sum(reg, reg)
    assert two.rank == 4 and two.permutation and two.monomial
    mixed = direct_sum(reg, GLattice.sign_lattice(c2))
    m = mixed.matrix(1)
    assert m[:2, :2].tolist() == reg.matrix(1).tolist()
    assert m[2, 2] == -1 and not m[:2, 2:].any()
    with pytest.raises(IncompatibleOperands):
        direct_sum(reg, GLattice.regular(builtin_group("C4")))


# -- exterior and divided squares --


def test_lambda2_of_swap_is_sign():
    c2 = builtin_group("C2")
    lam = lambda2(GLattice.regular(c2))
    assert lam.rank == 1 and lam.matrix(1).tolist() == [[-1]]


def test_lambda2_matches_minors_on_dense_input():
    c4 = builtin_group("C4")
    a = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    lat = GLattice(c4, [a])
    lam = lambda2(lat)
    assert lam.rank == 3
    # column (k, l) of the wedge action is the wedge of columns k and l
    pairs = [(0, 1), (0, 2), (1, 2)]
    for c, (k, l) in enumerate(pairs):
        assert lam.matrix(1)[:, c].tolist() == \
            wedge_coords(a[:, k], a[:, l]).tolist()


def test_pair_arrays_are_the_lex_pairs():
    for n in range(41):
        i, j = _pair_arrays(n)
        assert i.dtype == j.dtype == np.int64
        assert list(zip(i.tolist(), j.tolist())) == \
            list(itertools.combinations(range(n), 2))


def _lambda2_by_pair_loop(lat):
    """Monomial wedge-square actions from a pair dict and a loop per pair."""
    pairs = list(itertools.combinations(range(lat.rank), 2))
    idx = {pair: col for col, pair in enumerate(pairs)}
    acts = []
    for p, s in lat._gen_ps:
        pp = np.zeros(len(pairs), dtype=np.int64)
        ss = np.zeros(len(pairs), dtype=np.int64)
        for col, (k, l) in enumerate(pairs):
            a, b, sign = int(p[k]), int(p[l]), int(s[k] * s[l])
            if a > b:
                a, b, sign = b, a, -sign
            pp[col], ss[col] = idx[(a, b)], sign
        acts.append((pp, ss))
    return acts


def _monomial_cases():
    c2 = builtin_group("C2")
    yield GLattice(c2, [(np.zeros(0, dtype=np.int64),) * 2])        # rank 0
    yield GLattice(c2, [(np.array([0]), np.array([-1]))])           # rank 1
    for name in BUILTIN_GROUPS:
        g = builtin_group(name)
        if g.order > 16:
            continue
        reg = GLattice.regular(g)
        signs = [induced_sign_lattice(g, x) for x in range(1, g.order)
                 if int(g.inv[x]) == x]
        yield from [reg] + signs
        yield direct_sum(reg, signs[-1])
        yield direct_sum(*signs[:3], reg)                     # signs first


def test_lambda2_monomial_matches_the_pair_loop():
    cases = list(_monomial_cases())
    assert len(cases) > 60 and {lat.rank for lat in cases} >= {0, 1}
    for lat in cases:
        lam = lambda2(lat)
        assert lam.monomial and lam.rank == lat.rank * (lat.rank - 1) // 2
        for (p, s), (pp, ss) in zip(lam._gen_ps, _lambda2_by_pair_loop(lat)):
            assert p.dtype == s.dtype == np.int64
            assert p.tobytes() == pp.tobytes() and s.tobytes() == ss.tobytes()


def test_diag_block_is_the_square_spill():
    # coefficient of the i-th square in the image of the (k, l) product
    a = np.array([[1, 1], [0, -1]])
    assert _diag_block(a).tolist() == [[1], [0]]


def test_diag_block_composition_identity():
    rng = random.Random(1)
    n = 4
    for _ in range(10):
        a = np.array([[rng.randrange(-3, 4) for _ in range(n)]
                      for _ in range(n)])
        b = np.array([[rng.randrange(-3, 4) for _ in range(n)]
                      for _ in range(n)])
        lhs = _diag_block(a @ b)
        rhs = (_diag_block(a) @ _wedge_minors_of_map(b)
               + (a % 2) @ _diag_block(b))
        assert not ((lhs - rhs) % 2).any()


def test_gamma2_revalidates_with_full_checks():
    c4 = builtin_group("C4")
    lat = GLattice(c4, [np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])])
    gam = gamma2(lat)
    assert gam.rank == 6
    assert gam.mod2_mask.tolist() == [False] * 3 + [True] * 3
    GLattice(c4, [gam.matrix(s) for s in c4.generators()], rank=6,
             mod2_mask=gam.mod2_mask)


def test_mod2_reduction_is_fully_masked():
    red = mod2_reduction(GLattice.regular(builtin_group("V4")))
    assert red.mod2_mask.all() and red.rank == 4


def test_exterior_ses_verifies():
    for name in ("C2", "V4"):
        lat = GLattice.regular(builtin_group(name))
        ses = exterior_ses(lat)
        n = lat.rank
        assert (ses.sub.rank, ses.mid.rank, ses.quo.rank) == \
            (n, n * (n + 1) // 2, n * (n - 1) // 2)


def test_permutation_splitting_is_a_right_inverse():
    v4 = builtin_group("V4")
    reg = GLattice.regular(v4)
    s = permutation_splitting(reg)
    ses = exterior_ses(reg)
    assert np.array_equal(ses.proj @ s, np.eye(6, dtype=np.int64))
    with pytest.raises(IncompatibleOperands):
        permutation_splitting(GLattice.sign_lattice(builtin_group("C2")))


def test_ses_verify_rejects_bad_maps():
    c2 = builtin_group("C2")
    triv = GLattice.trivial(c2)
    two = direct_sum(triv, triv)
    with pytest.raises(ValidationError):
        LatticeSES(triv, two, triv, np.array([[1], [0]]),
                   np.array([[1, 0]])).verify()
    reg = GLattice.regular(c2)
    with pytest.raises(ValidationError):
        LatticeSES(triv, reg, triv, np.array([[1], [0]]),
                   np.array([[0, 1]])).verify()


def test_ses_verify_rejects_a_full_rank_projection_that_is_not_onto():
    c2 = builtin_group("C2")
    triv = GLattice.trivial(c2)
    zero = GLattice(c2, [np.zeros((0, 0), dtype=np.int64)], rank=0)
    with pytest.raises(ValidationError, match="not onto"):
        LatticeSES(zero, triv, triv, np.zeros((1, 0), dtype=np.int64),
                   np.array([[2]])).verify()
    two = direct_sum(triv, triv)
    with pytest.raises(ValidationError, match="not onto"):
        LatticeSES(triv, two, triv, np.array([[1], [0]]),
                   np.array([[0, 2]])).verify()
    LatticeSES(triv, two, triv, np.array([[1], [0]]),
               np.array([[0, 1]])).verify()


def test_ses_verify_rejects_an_injection_that_drops_rank():
    c2 = builtin_group("C2")
    sub = GLattice.trivial(c2, rank=2)
    mid = GLattice.trivial(c2, rank=3)
    quo = GLattice.trivial(c2)
    proj = np.array([[0, 0, 1]])
    with pytest.raises(ValidationError, match="drops rank"):
        LatticeSES(sub, mid, quo, np.array([[1, 2], [1, 2], [0, 0]]),
                   proj).verify()
    LatticeSES(sub, mid, quo, np.array([[1, 2], [1, 3], [0, 0]]),
               proj).verify()


def test_ses_verify_names_the_map_that_is_not_equivariant():
    # 0 -> Z -> Z[C2] -> Z^- -> 0, with the end lattices swapped in turn
    c2 = builtin_group("C2")
    triv, reg, sign = (GLattice.trivial(c2), GLattice.regular(c2),
                       GLattice.sign_lattice(c2))
    inj, proj = np.array([[1], [1]]), np.array([[1, -1]])
    LatticeSES(triv, reg, sign, inj, proj).verify()
    with pytest.raises(ValidationError, match="injection is not equivariant"):
        LatticeSES(sign, reg, sign, inj, proj).verify()
    with pytest.raises(ValidationError, match="projection is not equivariant"):
        LatticeSES(triv, reg, triv, inj, proj).verify()


def test_splitting_must_be_equivariant():
    # A = [[1, 1], [0, -1]] is an action but not a permutation: flagged as
    # one, its square's diagonal spill breaks the product-class splitting
    lat = GLattice(builtin_group("C2"), [np.array([[1, 1], [0, -1]])],
                   permutation=True, validate=False)
    with pytest.raises(InternalInvariant, match="splitting is not equivariant"):
        permutation_splitting(lat)


def test_equivariance_reads_masked_rows_mod_2():
    c2 = builtin_group("C2")
    free = GLattice.trivial(c2)
    f = np.array([[1], [0]])

    def masked(a, mask=(False, True)):
        return GLattice(c2, [np.array(a)], mod2_mask=np.array(mask))
    # dst has a free row and a masked one; A_dst f - f A_src lands in them
    assert _equivariant(f, free, masked([[1, 0], [2, 1]]))    # even, masked
    assert not _equivariant(f, free, masked([[1, 0], [1, 1]]))  # odd, masked
    assert not _equivariant(f, free, masked([[-1, 0], [0, 1]]))  # even, free
    # a fully masked src reads every row mod 2, unless dst has a mask
    sign = GLattice.sign_lattice(c2)
    assert _equivariant(np.array([[1]]), mod2_reduction(free), sign)
    assert not _equivariant(np.array([[1]]), free, sign)
    half = GLattice(c2, [np.eye(2, dtype=np.int64)],
                    mod2_mask=np.array([False, True]))
    assert not _equivariant(np.array([[1, 0]]), half, sign)
    assert not _equivariant(f, mod2_reduction(free),
                            masked([[-1, 0], [0, 1]]))


def test_equivariance_and_composite_checks_are_exact_over_z():
    # A^2 = I on Z^4, and A f - f = (-2^64, 2^64, 2^64, 0) over Z, which
    # int64 products wrap to zero; so does the row (1, 1, 1, 1) against f
    c2 = builtin_group("C2")
    a = np.diag([1, -1, -1, -1])
    a[0] = 1
    mid = GLattice(c2, [a])
    f = np.array([[0], [-(1 << 63)], [-(1 << 63)], [0]], dtype=np.int64)
    triv = GLattice.trivial(c2)
    with pytest.raises(ValidationError, match="leave int64"):
        _equivariant(f, triv, mid)
    proj = np.array([[1, 1, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(ValidationError, match="leave int64"):
        LatticeSES(triv, mid, GLattice.trivial(c2, rank=3), f, proj).verify()


def test_ses_verify_rejects_partial_mask():
    c2 = builtin_group("C2")
    gam = gamma2(GLattice.regular(c2))   # mask is [False, True, True]
    quo = GLattice.trivial(c2)
    mid = GLattice.trivial(c2, rank=4)
    with pytest.raises(IncompatibleOperands):
        LatticeSES(gam, mid, quo, np.zeros((4, 3), dtype=np.int64),
                   np.zeros((1, 4), dtype=np.int64)).verify()


# -- the two-slot sum map and its lattices --


def test_mnq_kernel_and_rank():
    c2 = builtin_group("C2")
    data = build_mnq(c2)
    assert data.m_rank == 1 and data.m_torsion_free
    assert data.kernel.tolist() in ([[1, 1, -1, -1]], [[-1, -1, 1, 1]])
    assert builtin_lattice("M", c2).matrix(1).tolist() == [[1]]


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "D4", "Q8", "C8"])
def test_mnq_is_torsion_free_with_unit_factors(name):
    g = builtin_group(name)
    data = build_mnq(g)
    n = g.order
    assert data.m_rank == (n - 1) ** 2
    assert data.m_torsion_free
    assert invariant_factors(data.rho) == []


def test_mnq_sz8_rank_without_materializing():
    g = builtin_group("sz8-sylow")
    data = build_mnq(g)
    assert data.m_rank == 3969
    assert data.m_torsion_free
    with pytest.raises(BudgetExceeded):    # rank 3969 over the dense 1200
        builtin_lattice("M", g)


def test_m_builds_at_order_32():
    # M follows the dense-rank budget alone; phi keeps its order budget
    g = direct_product(builtin_group("C2"), builtin_group("C16"))
    assert builtin_lattice("M", g).rank == 961
    with pytest.raises(BudgetExceeded):
        phi(g)


def test_two_slot_extension_shape():
    c2 = builtin_group("C2")
    ses = two_slot_extension(build_mnq(c2))
    assert (ses.sub.rank, ses.mid.rank, ses.quo.rank) == (1, 4, 3)
    assert ses.inj.ravel().tolist() == [1, 1, -1, -1]


def test_exterior_of_rank_one_extension_ranks():
    for name, expect in (("C2", (3, 6, 3)), ("C4", (7, 28, 21))):
        ses = two_slot_extension(build_mnq(builtin_group(name)))
        out = exterior_of_rank_one_extension(ses)
        assert (out.sub.rank, out.mid.rank, out.quo.rank) == expect


def test_exterior_extension_needs_trivial_rank_one_kernel():
    c2 = builtin_group("C2")
    with pytest.raises(NotRankOneKernel):
        exterior_of_rank_one_extension(exterior_ses(GLattice.trivial(c2, 2)))
    twisted = LatticeSES(GLattice.sign_lattice(c2), GLattice.regular(c2),
                         GLattice.trivial(c2), np.array([[1], [-1]]),
                         np.array([[1, 1]])).verify()
    with pytest.raises(NotRankOneKernel):
        exterior_of_rank_one_extension(twisted)


# -- integral degree-one cohomology --

H1_CASES = [
    ("C2", "trivial", []),
    ("C2", "sign", [2]),
    ("C2", "regular", []),
    ("C4", "sign", [2]),
    ("V4", "M", [2]),
    ("D4", "M", [2]),
    ("Q8", "M", []),
    ("C8", "M", []),
]


def _named(g, kind):
    if kind == "trivial":
        return GLattice.trivial(g)
    return builtin_lattice(kind, g)


@pytest.mark.parametrize("name,kind,expect", H1_CASES)
def test_h1_integral_known_values(name, kind, expect):
    g = builtin_group(name)
    assert h1_integral(g, _named(g, kind)) == expect


def _h1_by_smith(group, lat):
    """The same group, straight through the integral cocycle lattice."""
    mats = [lat.matrix(s) for s in group.generators()]
    zrows, _ = integral_cocycles(group, mats)
    brows = np.array([np.concatenate([mt @ v - v for mt in mats])
                      for v in np.eye(lat.rank, dtype=np.int64)])
    return quotient_invariant_factors(zrows, brows)


@pytest.mark.parametrize("name,kind", [("C2", "sign"), ("V4", "M"),
                                       ("D4", "M"), ("Q8", "regular")])
def test_h1_routes_agree(name, kind):
    g = builtin_group(name)
    lat = _named(g, kind)
    assert h1_integral(g, lat) == _h1_by_smith(g, lat)


def test_h1_over_subgroup_classes():
    d4 = builtin_group("D4")
    lat = builtin_lattice("M", d4)
    got = sorted((s.order, h1_integral(s, lat)) for s in subgroup_classes(d4))
    assert got == [(1, []), (2, []), (2, []), (2, []),
                   (4, []), (4, [2]), (4, [2]), (8, [2])]


def test_h1_regular_vanishes_on_subgroups():
    # induced-from-free has trivial degree-one cohomology everywhere
    d4 = builtin_group("D4")
    reg = GLattice.regular(d4)
    for s in subgroup_classes(d4):
        assert h1_integral(s, reg) == []


def test_h1_induced_sign_matches_the_small_group():
    # induction preserves degree-one cohomology of the inducing subgroup
    d4 = builtin_group("D4")
    for tau in (2, 4, 5):
        assert h1_integral(d4, induced_sign_lattice(d4, tau)) == [2]


def test_h1_input_guards():
    c2 = builtin_group("C2")
    c4 = builtin_group("C4")
    with pytest.raises(IncompatibleOperands):
        h1_integral(c4, GLattice.regular(c2))
    with pytest.raises(IncompatibleOperands):
        h1_integral(c2, mod2_reduction(GLattice.regular(c2)))
    with pytest.raises(IncompatibleOperands):
        h1_integral(Subgroup(c4, [0, 2]), GLattice.regular(c2))
    with pytest.raises(BudgetExceeded):
        h1_integral(c2, GLattice.trivial(c2, rank=301))


def test_h1_integral_at_odd_order():
    # the integral-cocycle branch: J = Z[C3]/(norm) has H^1 = Z/3
    c3 = cyclic_group(3)
    j = GLattice(c3, [np.array([[0, -1], [1, -1]])])
    assert h1_integral(c3, j) == [3]
    assert h1_integral(c3, GLattice.regular(c3)) == []


def test_integral_cocycles_expand():
    c2 = builtin_group("C2")
    rows, expand = integral_cocycles(c2, [np.array([[-1]])])
    assert rows.tolist() == [[1]]
    assert expand(rows[0]).tolist() == [[0], [1]]


def _mod2_cocycle_cases(g):
    """Regular, rank-2 trivial, M and one induced-sign lattice, plus the
    wedge squares among them of rank 1..70 (ranks are checked first: the
    wedge of a large M does not fit in memory)."""
    involution = min(x for x in range(1, g.order) if int(g.inv[x]) == x)
    base = [GLattice.regular(g), GLattice.trivial(g, 2),
            builtin_lattice("M", g), induced_sign_lattice(g, involution)]
    wedges = [lambda2(lat) for lat in base
              if 1 <= lat.rank * (lat.rank - 1) // 2 <= 70]
    return base + wedges


# -- the spanning-tree walks against the breadth-first walks they replaced --

SMALL_BUILTINS = ["C2", "C4", "C8", "C16", "V4", "C4xC2", "C2xC2xC2",
                  "C4xC4", "D4", "Q8", "D8", "Q16"]


def _tree_cases(g):
    lats = [GLattice.regular(g), GLattice.sign_lattice(g)]
    if g.order <= 8:
        lats += [lambda2(lats[0]), builtin_lattice("M", g)]
    return lats


@pytest.mark.parametrize("name", SMALL_BUILTINS)
def test_lattice_matrices_match_the_bfs_words(name):
    g = builtin_group(name)
    parent, _ = _bfs_reference(g, g.generators())
    for lat in _tree_cases(g):
        if lat.monomial:
            gens = []
            for p, sg in lat._gen_ps:
                m = np.zeros((lat.rank, lat.rank), dtype=np.int64)
                m[p, np.arange(lat.rank)] = sg
                gens.append(m)
        else:
            gens = lat._gen_mats
        want = {0: np.eye(lat.rank, dtype=np.int64)}
        for b, (a, i) in parent.items():
            if b:
                want[b] = want[a] @ gens[i]
        for x in range(g.order):
            got = lat.matrix(x)
            assert got.dtype == np.int64
            assert np.array_equal(got, want[x]), (lat.name, x)


@pytest.mark.parametrize("name", SMALL_BUILTINS)
def test_schreier_walk_matches_the_bfs_walk(name):
    g = builtin_group(name)
    for lat in _tree_cases(g):
        mats = [lat.matrix(s) for s in g.generators()]
        coeff, system = _schreier_walk(lat)
        want_coeff, want_system = _schreier_reference(g, mats)
        assert system.dtype == np.int64
        assert np.array_equal(system, want_system), lat.name
        assert list(coeff) == list(want_coeff)
        for x in want_coeff:
            assert np.array_equal(coeff[x], want_coeff[x])


def _character_reference(group):
    """Values mod 2 of the character sending every generator to -1, or None
    where the relations forbid it."""
    val = {0: 0}
    for a, _, b, new in _bfs_reference(group, group.generators())[1]:
        if new:
            val[b] = val[a] ^ 1
        elif val[b] != val[a] ^ 1:
            return None
    return val


@pytest.mark.parametrize("group", [builtin_group(n) for n in SMALL_BUILTINS]
                         + [cyclic_group(3), cyclic_group(6),
                            dihedral_group(6), dihedral_group(12)],
                         ids=lambda g: g.name)
def test_sign_lattice_matches_the_character_walk(group):
    val = _character_reference(group)
    if val is None:
        with pytest.raises(ValidationError, match="order-two character"):
            GLattice.sign_lattice(group)
        return
    lat = GLattice.sign_lattice(group)
    for x in range(group.order):
        assert lat.matrix(x).tolist() == [[(-1) ** val[x]]]


def test_lattice_from_json_with_redundant_elements():
    # all of D4, then all but the canonical generators, listed backwards
    # so that each generator is a product of two listed elements that do
    # not commute; the identity is listed too, and every matrix is checked
    d4 = builtin_group("D4")
    reg = GLattice.regular(d4)
    gens = d4.generators()
    for listed in (range(8), [x for x in range(7, -1, -1) if x not in gens]):
        data = {"rank": 8, "generators": [
            {"element": x, "matrix": reg.matrix(x).tolist()} for x in listed]}
        lat = lattice_from_json(d4, data)
        for x in range(8):
            assert np.array_equal(lat.matrix(x), reg.matrix(x))
        data["generators"][1]["matrix"] = reg.matrix(0).tolist()
        with pytest.raises(ValidationError):
            lattice_from_json(d4, data)


ORDER_16 = ["C2", "C4", "V4", "C8", "C4xC2", "C2xC2xC2", "D4", "Q8", "C16",
            "C4xC4", "D8", "Q16"]


def _relabelled(group, copy):
    """The group with its non-identity elements renamed by a seeded
    permutation, as the benchmark's group files are."""
    rng = np.random.default_rng([copy])
    perm = np.zeros(group.order, dtype=np.int64)
    perm[1:] = 1 + rng.permutation(group.order - 1)
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return FiniteGroup(table, name=f"{group.name}-r{copy}")


@pytest.mark.parametrize(
    "name,copy", [pytest.param(n, 0, id=n) for n in ORDER_16 + ["C3", "C6"]]
    + [pytest.param(n, c, id=f"{n}-r{c}")
       for n in ORDER_16 for c in (1, 2, 3)])
def test_coker_projection_matches_pivot_reduction(name, copy):
    # M and its projection against the cokernel of the sum map read off
    # its Hermite form: column c of the projection is e_c reduced by the
    # unit pivot rows, restricted to the free (non-pivot) columns
    g = (cyclic_group(int(name[1:])) if name in ("C3", "C6")
         else builtin_group(name))
    if copy:
        g = _relabelled(g, copy)
    data = build_mnq(g)
    hnf, pivcols = row_hnf(data.rho)
    assert np.array_equal(hnf, data.image_basis)
    assert all(hnf[i, p] == 1 for i, p in enumerate(pivcols))
    n2 = hnf.shape[1]
    free = [c for c in range(n2) if c not in set(pivcols)]

    def reduce_vec(c):
        v = np.zeros(n2, dtype=np.int64)
        v[c] = 1
        for i, p in enumerate(pivcols):
            if v[p]:
                v = v - v[p] * hnf[i]
        return v[free]

    want = np.array([reduce_vec(c) for c in range(n2)], dtype=np.int64).T
    assert np.array_equal(lattices._marginal_quotient(g)[1], want)
    m = builtin_lattice("M", g)
    for x in range(g.order):
        assert np.array_equal(m.matrix(x), want[:, _product_perm(g, x)[free]])


# -- the connecting image and coflasque covers --


def test_alpha_vanishes_for_split_inputs():
    # permutation lattices split the square sequence, free ones coinduce
    assert alpha_image(GLattice.regular(builtin_group("V4"))) == []
    assert alpha_image(GLattice.regular(builtin_group("C2"))) == []


def test_alpha_rank_one_is_empty():
    assert alpha_image(GLattice.trivial(builtin_group("C2"))) == []


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "C8", "C4xC2",
                                  "C2xC2xC2", "D4", "Q8"])
def test_alpha_matches_the_mod2_cocycle_route(name):
    # the fixed points mod |G| against the full cocycle system mod 2|G|, on
    # the lattices above less M at order 8 (the former route took 1.6 to 165
    # s there), the sign lattice, and phi's coflasque kernels up to order 4
    g = builtin_group(name)
    lats = [lat for lat in _mod2_cocycle_cases(g)
            if g.order < 8 or lat.name != "marginal-quotient"]
    lats.append(GLattice.sign_lattice(g))
    if g.order <= 4:
        lats.append(coflasque_resolution(builtin_lattice("M", g))
                    .kernel_lattice)
    for lat in lats:
        assert alpha_image(lat) == _alpha_by_mod2_cocycles(lat), lat.name


def test_alpha_vanishes_at_odd_order():
    c3 = cyclic_group(3)
    for lat in (GLattice.regular(c3), GLattice.trivial(c3, 3)):
        assert alpha_image(lat) == _alpha_by_mod2_cocycles(lat) == []


@pytest.mark.parametrize("name,expect", [("C4xC2", [2, 2]), ("D4", [2, 2]),
                                         ("C2xC2xC2", [2] * 8)])
def test_alpha_on_marginal_quotients_of_order_8(name, expect):
    assert alpha_image(builtin_lattice("M", builtin_group(name))) == expect


ORDER_8 = ["C8", "C4xC2", "C2xC2xC2", "D4", "Q8"]


def _involution(g):
    return min(x for x in range(1, g.order) if int(g.inv[x]) == x)


def _bar_route_cases(family):
    """(label, lattice) pairs the relator route is checked on."""
    m = {name: builtin_lattice("M", builtin_group(name))
         for name in SMALL_BUILTINS}
    if family == "kernels":
        return [(name, coflasque_resolution(m[name]).kernel_lattice)
                for name in SMALL_BUILTINS]
    if family == "padded":
        return [(name, coflasque_resolution(m[name], pad_free=1)
                 .kernel_lattice) for name in ["C2", "C4", "V4"] + ORDER_8]
    if family == "untrimmed":
        return [(name, untrimmed_resolution(m[name])
                 .kernel_lattice) for name in ["C2", "C4", "V4"]]
    if family == "order-8 M":
        return [(name, m[name]) for name in ORDER_8]
    if family == "sums":
        cases = []
        for name in ["V4", "C4xC2", "D4"]:
            g = builtin_group(name)
            cases += [(name + " M+sign",
                       direct_sum(m[name], GLattice.sign_lattice(g))),
                      (name + " M+induced-sign",
                       direct_sum(m[name],
                                  induced_sign_lattice(g, _involution(g))))]
        return cases
    cases = []
    for name, g in [("C6", cyclic_group(6)), ("D3", dihedral_group(6)),
                    ("C10", cyclic_group(10)), ("D5", dihedral_group(10)),
                    ("C12", cyclic_group(12)), ("D6", dihedral_group(12))]:
        ind = induced_sign_lattice(g, _involution(g))
        lats = [GLattice.regular(g), GLattice.trivial(g, 2),
                builtin_lattice("M", g), ind, lambda2(ind)]
        try:
            lats.append(GLattice.sign_lattice(g))
        except ValidationError:    # a generator of odd order: D3, D5
            pass
        cases += [(f"{name} {lat.name}", lat) for lat in lats]
    return cases


def _alpha_or_budget(route, lat):
    try:
        return route(lat)
    except BudgetExceeded:
        return "BudgetExceeded"


@pytest.mark.parametrize("family", ["kernels", "padded", "untrimmed",
                                    "order-8 M", "sums", "off 2-groups"])
def test_alpha_matches_the_bar_pairs_route(family):
    got = {}
    for label, lat in _bar_route_cases(family):
        got[label] = _alpha_or_budget(alpha_image, lat)
        assert got[label] == _alpha_or_budget(_alpha_by_bar_pairs, lat), label
    if family == "off 2-groups":
        # M over C10 fits the wedge budget; over D5, C12 and D6 it does not
        assert [k for k, v in got.items() if v == "BudgetExceeded"] == [
            "D5 marginal-quotient", "C12 marginal-quotient",
            "D6 marginal-quotient"]


def test_alpha_builds_one_diagonal_block_per_element(monkeypatch):
    # the spill D_g of an element's matrix serves every generator edge out
    # of g: n blocks for D8's coflasque kernel, not one per edge (n * d)
    lat = coflasque_resolution(
        builtin_lattice("M", builtin_group("D8"))).kernel_lattice
    shapes = []

    def counting(a):
        shapes.append(a.shape)
        return _diag_block(a)
    monkeypatch.setattr(lattices, "_diag_block", counting)
    assert alpha_image(lat) == []
    assert len(shapes) == lat.group.order == 16
    assert len(lat.group.generators()) == 2


def _inflated_from_v4(other):
    """M(V4) as a lattice over other x V4, through the projection to V4."""
    v4 = builtin_group("V4")
    g = direct_product(other, v4)
    m = builtin_lattice("M", v4)
    return GLattice(g, [m.matrix(s % v4.order) for s in g.generators()],
                    name="inflated-M")


@pytest.mark.parametrize("other", [3, 2, 4])
def test_alpha_is_nonzero_off_2_groups(other):
    lat = _inflated_from_v4(cyclic_group(other))
    assert alpha_image(lat) == _alpha_by_bar_pairs(lat) == [2, 2]


def _walk_cases():
    groups = [builtin_group(name) for name in ["C2", "V4", "D4", "Q8",
                                               "C4xC4"]]
    groups += [cyclic_group(6), dihedral_group(6),
               direct_product(cyclic_group(3), builtin_group("V4"))]
    for g in groups:
        yield GLattice.regular(g)
        yield induced_sign_lattice(g, _involution(g))
        if g.order <= 8:
            yield builtin_lattice("M", g)


def test_relator_values_of_a_coboundary_are_the_closing_system():
    # the relator values of delta f, (delta f)(a, s) = a f(s) - f(as) + f(a),
    # are x @ system mod 2 with x = (f(s_1), ..., f(s_d)); a batch of three
    # random f: G -> L/2 at once, f(1) not forced to 0
    rng = np.random.default_rng(7)
    for lat in _walk_cases():
        g = lat.group
        gens = g.generators()
        f = rng.integers(0, 2, (3, g.order, lat.rank))
        mats = {a: lat.matrix(a) & 1 for a in range(g.order)}

        def delta_f(a, s):
            return (f[:, s] @ mats[a].T + f[:, g.table[a, s]] + f[:, a]) & 1
        got = _relator_values(g, delta_f)
        x = np.concatenate([f[:, s] for s in gens], axis=1)
        system = _schreier_walk(lat)[1]
        assert got.shape == (3, (g.order * (len(gens) - 1) + 1) * lat.rank)
        assert np.array_equal(got, (x @ system) & 1), (g.order, lat.name)


def test_alpha_reads_its_budget_constant(monkeypatch):
    lat = builtin_lattice("M", builtin_group("V4"))   # 36 wedge coords x 2
    monkeypatch.setattr(lattices, "ALPHA_MAX_WEDGE_COLUMNS", 72)
    assert alpha_image(lat) == [2, 2]
    monkeypatch.setattr(lattices, "ALPHA_MAX_WEDGE_COLUMNS", 71)
    with pytest.raises(BudgetExceeded, match="72 columns, over the 71"):
        alpha_image(lat)


def test_alpha_rejects_a_row_that_is_not_fixed(monkeypatch):
    # a row fixed mod |G| by construction; a corrupted one must raise
    lat = builtin_lattice("M", builtin_group("V4"))
    real = lattices._fixed_points_mod2k

    def corrupted(order, mats):
        hf, system = real(order, mats)
        rows = hf.matrix.copy()
        rows[0, 0] += 1
        return dataclasses.replace(hf, matrix=rows), system
    monkeypatch.setattr(lattices, "_fixed_points_mod2k", corrupted)
    with pytest.raises(InternalInvariant):
        alpha_image(lat)


def test_alpha_budgets():
    c2 = builtin_group("C2")
    with pytest.raises(BudgetExceeded):
        alpha_image(GLattice.regular(builtin_group("sz8-sylow")))
    fat = direct_sum(*[GLattice.regular(c2) for _ in range(45)])
    with pytest.raises(BudgetExceeded):
        alpha_image(fat)


_ALLOCATION_PROBE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cohlat.errors import BudgetExceeded
from cohlat.groups import builtin_group
from cohlat.lattices import alpha_image, builtin_lattice, gamma2, lambda2
m = builtin_lattice("M", builtin_group("D8"))
for build in (alpha_image, lambda2, gamma2):
    try:
        build(m)
        print(build.__name__, "built")
    except BudgetExceeded:
        print(build.__name__, "BudgetExceeded")
    except MemoryError:
        print(build.__name__, "MemoryError")
"""


def test_budgets_raise_before_they_allocate():
    # M of D8 is dense of rank 225: its wedge square has rank 25200, one
    # 4.7 GiB matrix per generator. Under a 2 GiB address-space limit,
    # building before checking fails with MemoryError.
    src = os.path.dirname(os.path.dirname(cohlat.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _ALLOCATION_PROBE],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["alpha_image", "BudgetExceeded",
                                  "lambda2", "BudgetExceeded",
                                  "gamma2", "BudgetExceeded"]


def test_coflasque_permutation_fast_path():
    reg = GLattice.regular(builtin_group("D4"))
    res = coflasque_resolution(reg)
    assert res.kernel_lattice.rank == 0
    assert res.cover is reg and res.summands == []


def test_coflasque_of_the_sign_lattice():
    c2 = builtin_group("C2")
    res = coflasque_resolution(GLattice.sign_lattice(c2))
    assert res.cover.rank == 2 and res.kernel_lattice.rank == 1
    assert res.summands == [((0,), 1)]
    # the kernel here is the fixed line, a trivial module
    assert res.kernel_lattice.matrix(1).tolist() == [[1]]


def test_coflasque_kernel_passes_every_subgroup():
    v4 = builtin_group("V4")
    res = coflasque_resolution(builtin_lattice("M", v4))
    for s in subgroup_classes(v4):
        assert h1_integral(s, res.kernel_lattice) == []


def test_coflasque_pad_free_gives_bigger_cover():
    c2 = builtin_group("C2")
    lat = builtin_lattice("M", c2)
    base = coflasque_resolution(lat)
    padded = coflasque_resolution(lat, pad_free=1)
    assert padded.cover.rank == base.cover.rank + 2
    assert padded.summands[-1] == ((0,), 1)


def test_coflasque_untrimmed_agrees():
    c4 = builtin_group("C4")
    lat = builtin_lattice("M", c4)
    a = coflasque_resolution(lat)
    b = untrimmed_resolution(lat)
    assert b.cover.rank > a.cover.rank
    assert alpha_image(a.kernel_lattice) == alpha_image(b.kernel_lattice)


@pytest.mark.parametrize("name,cover,kernel", [
    ("C2", 1, 0), ("C4", 9, 0), ("V4", 14, 5), ("D4", 64, 15)])
def test_top_down_cover_ranks(name, cover, kernel):
    res = coflasque_resolution(builtin_lattice("M", builtin_group(name)))
    assert (res.cover.rank, res.kernel_lattice.rank) == (cover, kernel)


@pytest.mark.parametrize("name", ["C2", "V4"])  # C4: the test below
def test_top_down_kernel_has_the_untrimmed_alpha(name):
    lat = builtin_lattice("M", builtin_group(name))
    top = coflasque_resolution(lat)
    every = untrimmed_resolution(lat)
    assert every.cover.rank > top.cover.rank
    assert alpha_image(top.kernel_lattice) == alpha_image(every.kernel_lattice)


@pytest.mark.parametrize("name", ["V4", "D4"])
def test_orbit_sums_span_the_evaluated_fixed_points(name):
    # what the top-down choice counts as reached at H is ev(P^H), with P^H
    # read off the permutation cover itself
    g = builtin_group(name)
    lat = builtin_lattice("M", g)
    blocks = lattices._top_down_blocks(lat, subgroup_classes(g))
    res = coflasque_resolution(lat)
    for sub in subgroup_classes(g):
        fixed = res.cover.fixed_rows(list(sub.elements))
        sums = np.vstack([b.orbit_sums(sub) for b in blocks])
        assert int_spans_equal(sums, fixed @ res.ses.proj.T), sub.order


def test_free_cover_alone_fails_the_coflasque_check(monkeypatch):
    # Z[G] (x) L maps onto L, but its kernel has H^1(H, R) = L^H / N_H(L)
    v4 = builtin_group("V4")
    lat = builtin_lattice("M", v4)

    def free_only(lat, classes):
        return [lattices._CoverBlock.of(lat, Subgroup(v4, [0]),
                                        np.eye(lat.rank, dtype=np.int64))]
    monkeypatch.setattr(lattices, "_top_down_blocks", free_only)
    with pytest.raises(CoflasquenessCheckFailed):
        coflasque_resolution(lat)


def test_pullback_lattice_is_coflasque():
    c2 = builtin_group("C2")
    data = build_mnq(c2)
    res = coflasque_resolution(builtin_lattice("M", c2))
    pb = pullback_lattice(data, res)
    # product rank 4, plus the cover (rank 1 on C2), less M (rank 1)
    assert res.cover.rank == 1
    assert pb.rank == 4
    for s in subgroup_classes(c2):
        assert h1_integral(s, pb) == []


def test_pullback_rejects_a_resolution_of_another_lattice():
    # another rank, another action of the same rank, another group
    c2 = builtin_group("C2")
    data = build_mnq(c2)
    for lat in (GLattice.regular(c2), GLattice.sign_lattice(c2),
                builtin_lattice("M", builtin_group("C4"))):
        with pytest.raises(IncompatibleOperands):
            pullback_lattice(data, coflasque_resolution(lat))


@pytest.mark.parametrize("name", ["C2", "C4"])
def test_phi_vanishes_on_small_groups(name):
    assert phi(builtin_group(name)) == []


def test_phi_on_a_2_group_makes_no_smith_call(monkeypatch):
    # exactness is read off Hermite forms, degree-one cohomology mod |H|
    calls = []
    smith = linalg.smith_normal_form

    def counting(a):
        calls.append(np.shape(a))
        return smith(a)
    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    assert phi(builtin_group("C4")) == []
    assert calls == []


def test_phi_makes_no_sum_map_call(monkeypatch):
    # M is built in closed form, not as the sum map's cokernel
    def refuse(group):
        raise AssertionError("the sum map was assembled")
    monkeypatch.setattr(lattices, "build_mnq", refuse)
    assert phi(builtin_group("C4")) == []
    assert builtin_lattice("M", builtin_group("D4")).rank == 49


def test_phi_independence_check():
    assert phi(builtin_group("C4"), verify_independence=True) == []


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "C8", "C4xC2",
                                  "C2xC2xC2", "D4", "Q8", "C16", "C4xC4",
                                  "D8", "Q16"])
def test_phi_on_every_builtin_up_to_order_16(name):
    # up to order 8 a second, padded resolution must give the same answer
    g = builtin_group(name)
    assert phi(g, verify_independence=g.order <= 8) == []


@pytest.mark.parametrize("group", [cyclic_group(3), cyclic_group(6),
                                   dihedral_group(6)], ids=["C3", "C6", "D3"])
def test_phi_vanishes_at_orders_3_and_6(group):
    assert phi(group) == []


def _digest(*arrays) -> str:
    """First 16 hex digits of the sha256 of the arrays' shapes and int64
    bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _generator_matrices(lat):
    return [lat.matrix(s) for s in lat.group.generators()]


# digests of the bases and maps the integral constructions return: a change
# of Hermite basis, of solve coordinates or of preimage shows up here;
# "untrimmed" is the every-class cover's maps / its kernel's generators
LATTICE_PINS = {
    "C2": {"image": "d68126667c5caf13", "cover": "1ac76107313a8d89",
           "kernel": "9d37e282dff85f7c", "pad_free": "8ca42a1db8d53d63",
           "two_slot": "233a9025a708bf12", "exterior": "5cde56d954e1e23d",
           "pullback": "5ae52d859c7940ad",
           "untrimmed": "37509bd30353905f/8b5b236ff5bde115"},
    "C4": {"image": "19623b95b6fd94ac", "cover": "3ee466fd0c343c98",
           "kernel": "9d37e282dff85f7c", "pad_free": "97d5f07bf76fc4ca",
           "two_slot": "f3cd483edae8c00e", "exterior": "c6483e15b6899db6",
           "pullback": "e967123b296db3ff",
           "untrimmed": "69e709961a03868e/503b44ad898847ec"},
    "V4": {"image": "2835453b2841c576", "cover": "334aa6933ad88743",
           "kernel": "c7f738a43330bffd", "pad_free": "2c5b86acd86074f6",
           "two_slot": "f3cd483edae8c00e", "exterior": "c6483e15b6899db6",
           "pullback": "e89005e083ccae13",
           "untrimmed": "498c664db91963eb/2ea62401c87986c5"},
    "C8": {"image": "5459098cd0847fe2", "cover": "a5e705859e0a91cb",
           "kernel": "9d37e282dff85f7c", "pad_free": "bdf7b11306ce4440",
           "two_slot": "3721ce1b61a019fa", "exterior": "59fdcec4ef486d18"},
    "C4xC2": {"image": "682b1d3cbe722fd0", "cover": "cad74de02e796bbe",
              "kernel": "928c775726474477", "pad_free": "1de3d5205075d6b5",
              "two_slot": "3721ce1b61a019fa", "exterior": "59fdcec4ef486d18"},
    "C2xC2xC2": {"image": "147e508b5ecbd4eb", "cover": "9f9c61d21349ea57",
                 "kernel": "f7227e34ec802e2c", "pad_free": "512709c8c14a4b8b",
                 "two_slot": "3721ce1b61a019fa",
                 "exterior": "59fdcec4ef486d18"},
    "D4": {"image": "1e69d3f9ea29425c", "cover": "0bc066bfe12ff367",
           "kernel": "d2e31a5ce704a22e", "pad_free": "a22a6dcf0e9b38bb",
           "two_slot": "3721ce1b61a019fa", "exterior": "59fdcec4ef486d18"},
    "Q8": {"image": "9103c45f37eec8f8", "cover": "c99afa974ca4cab8",
           "kernel": "3591351518a683a3", "pad_free": "11f3beb693778c20",
           "two_slot": "3721ce1b61a019fa", "exterior": "59fdcec4ef486d18"},
}


@pytest.mark.parametrize("name", list(LATTICE_PINS))
def test_lattice_constructions_keep_their_bytes(name):
    g = builtin_group(name)
    data = build_mnq(g)
    m = builtin_lattice("M", g)
    res = coflasque_resolution(m)
    pad = coflasque_resolution(m, pad_free=1)
    two = two_slot_extension(data)
    ext = exterior_of_rank_one_extension(two)
    got = {
        "image": _digest(data.image_basis,
                         *_generator_matrices(data.image_lattice)),
        "cover": _digest(res.ses.proj, res.ses.inj),
        "kernel": _digest(*_generator_matrices(res.kernel_lattice)),
        "pad_free": _digest(pad.ses.inj,
                            *_generator_matrices(pad.kernel_lattice)),
        "two_slot": _digest(two.proj),
        "exterior": _digest(ext.inj, ext.proj),
    }
    if g.order <= 4:
        got["pullback"] = _digest(
            *_generator_matrices(pullback_lattice(data, res)))
        every = untrimmed_resolution(m)
        got["untrimmed"] = (
            _digest(every.ses.proj, every.ses.inj) + "/"
            + _digest(*_generator_matrices(every.kernel_lattice)))
    assert got == LATTICE_PINS[name]


def test_phi_order_budget():
    with pytest.raises(BudgetExceeded):
        phi(builtin_group("sz8-sylow"))


# -- regular exterior census and induction --


def test_regular_decomposition_counts():
    assert lambda2_regular_decomposition(builtin_group("C2")).counts == (1, 0)
    assert lambda2_regular_decomposition(builtin_group("C4")).counts == (1, 1)
    assert lambda2_regular_decomposition(builtin_group("V4")).counts == (3, 0)
    dec = lambda2_regular_decomposition(builtin_group("sz8-sylow"))
    assert dec.counts == (7, 28) and dec.rank == 2016


def test_induced_sign_is_monomial_with_balanced_signs():
    d4 = builtin_group("D4")
    lat = induced_sign_lattice(d4, 2)
    assert lat.rank == 4
    for g in range(8):
        m = lat.matrix(g)
        assert sorted(np.abs(m).sum(0).tolist()) == [1, 1, 1, 1]
    with pytest.raises(ValidationError):
        induced_sign_lattice(d4, 1)   # order four, not an involution


# -- named and serialized lattices --


def test_builtin_lattice_names():
    c2 = builtin_group("C2")
    assert builtin_lattice("regular", c2).rank == 2
    assert builtin_lattice("sign", c2).rank == 1
    assert builtin_lattice("M", c2).rank == 1
    with pytest.raises(ValidationError):
        builtin_lattice("nope", c2)
    with pytest.raises(BudgetExceeded):
        builtin_lattice("M", builtin_group("sz8-sylow"))


def test_lattice_from_json_roundtrip():
    d4 = builtin_group("D4")
    reg = GLattice.regular(d4)
    data = {"rank": 8,
            "generators": [{"element": int(s),
                            "matrix": reg.matrix(int(s)).tolist()}
                           for s in d4.generators()]}
    lat = lattice_from_json(d4, data)
    rng = random.Random(2)
    for _ in range(5):
        g = rng.randrange(8)
        assert np.array_equal(lat.matrix(g), reg.matrix(g))


def test_lattice_from_json_rejects_bad_input():
    c4 = builtin_group("C4")
    with pytest.raises(ValidationError):
        lattice_from_json(c4, {"generators": []})
    with pytest.raises(ValidationError):
        lattice_from_json(c4, {"rank": 1, "generators": [
            {"element": 7, "matrix": [[1]]}]})
    with pytest.raises(ValidationError):
        lattice_from_json(c4, {"rank": 2, "generators": [
            {"element": 1, "matrix": [[1]]}]})
    with pytest.raises(ValidationError):
        lattice_from_json(c4, {"rank": 1, "generators": [
            {"element": 0, "matrix": [[1]]}]})
    with pytest.raises(ValidationError):
        lattice_from_json(c4, {"rank": 1, "generators": [
            {"element": 1, "matrix": [[-1]]},
            {"element": 2, "matrix": [[-1]]}]})
