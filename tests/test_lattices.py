"""Lattice layer: actions, squares, sum-map quotients, covers, obstructions."""
import random

import numpy as np
import pytest

from cohlat.errors import (BudgetExceeded, CoflasquenessCheckFailed,
                           IncompatibleOperands, InternalInvariant,
                           NotRankOneKernel, ValidationError)
from cohlat.groups import (Subgroup, builtin_group, cyclic_group,
                           dihedral_group, subgroup_classes)
from cohlat import lattices
from cohlat.lattices import (GLattice, LatticeSES, _coboundary_rows_mod2,
                             _diag_block, _product_perm, _schreier_walk,
                             _wedge_matrix, alpha_image, build_mnq,
                             builtin_lattice, coflasque_resolution, direct_sum,
                             exterior_of_rank_one_extension, exterior_ses,
                             gamma2, h1_integral, induced_sign_lattice,
                             integral_cocycles, lambda2,
                             lambda2_regular_decomposition, lattice_from_json,
                             mod2_reduction, permutation_splitting, phi,
                             pullback_lattice, two_slot_extension,
                             wedge_coords)
from cohlat.linalg import (GF2Matrix, int_spans_equal, invariant_factors,
                           kernel_basis_modk, quotient_invariant_factors,
                           row_hnf)


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
        rhs = (_diag_block(a) @ _wedge_matrix(b) + (a % 2) @ _diag_block(b))
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
    assert data.m_lattice.matrix(1).tolist() == [[1]]


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
    assert data.m_lattice is None


def test_mnq_materialize_override():
    data = build_mnq(builtin_group("C2"), materialize_m=False)
    assert data.m_lattice is None
    res = coflasque_resolution(GLattice.trivial(builtin_group("C2")))
    with pytest.raises(BudgetExceeded):
        pullback_lattice(data, res)


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


def _bfs_reference(group, gens):
    """Level-by-level BFS from the identity: element -> (parent, generator
    index), and every edge (a, i, b, new) in the order the walk meets it."""
    parent = {0: (-1, -1)}
    edges = []
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for i, s in enumerate(gens):
                b = int(group.table[a, s])
                edges.append((a, i, b, b not in parent))
                if b not in parent:
                    parent[b] = (a, i)
                    nxt.append(b)
        frontier = nxt
    return parent, edges


def _schreier_reference(group, mats, modulus=None):
    """The cocycle walk as a BFS of its own, blocks reduced by the mask and
    products taken in int64."""
    d, m = len(mats), mats[0].shape[0]
    red = (lambda x: x) if modulus is None else (lambda x: x & (modulus - 1))
    _, edges = _bfs_reference(group, group.generators())
    emat = {0: np.eye(m, dtype=np.int64)}
    coeff = {0: np.zeros((m, d * m), dtype=np.int64)}
    closing = []
    for a, i, b, new in edges:
        expr = coeff[a].copy()
        expr[:, i * m:(i + 1) * m] += emat[a]
        expr = red(expr)
        if new:
            coeff[b] = expr
            emat[b] = red(emat[a] @ mats[i])
        else:
            closing.append(red(coeff[b] - expr))
    return coeff, np.hstack([c.T for c in closing])


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
        coeff, system = _schreier_walk(g, mats)
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


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "D4", "Q8", "C8",
                                  "C4xC2", "C2xC2xC2"])
def test_coker_projection_matches_pivot_reduction(name):
    g = builtin_group(name)
    data = build_mnq(g)
    hnf, pivcols, _ = row_hnf(data.rho)
    assert np.array_equal(hnf, data.image_basis)
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
    assert np.array_equal(data.m_projection, want)
    for s in g.generators():
        perm = _product_perm(g, s)
        cols = [reduce_vec(perm[c]) for c in free]
        assert np.array_equal(data.m_lattice.matrix(s),
                              np.array(cols, dtype=np.int64).T)


# -- the connecting image and coflasque covers --


def test_alpha_vanishes_for_split_inputs():
    # permutation lattices split the square sequence, free ones coinduce
    assert alpha_image(GLattice.regular(builtin_group("V4"))) == []
    assert alpha_image(GLattice.regular(builtin_group("C2"))) == []


def test_alpha_rank_one_is_empty():
    assert alpha_image(GLattice.trivial(builtin_group("C2"))) == []


def _alpha_by_mod2_cocycles(lat):
    """The connecting image by the former route: integral cocycles of the
    wedge square read mod 2 off the Schreier system mod 2^(v2|G|+1), and
    their spills D_g z(h) at every pair of elements."""
    g = lat.group
    n = g.order
    lam = lambda2(lat)
    if lam.rank == 0:
        return []
    k = (n & -n).bit_length()
    coeff, system = _schreier_reference(
        g, [lam.matrix(s) for s in g.generators()], 1 << k)
    # float32 products of 0/1 entries are exact: sums stay below 2**24
    zrows = (kernel_basis_modk(system, k) & 1).astype(np.float32)
    vals = np.stack([zrows @ (coeff[h] & 1).T.astype(np.float32) % 2
                     for h in range(n)])
    diag = np.stack([_diag_block(lat.matrix(x)) for x in range(n)])
    spills = (np.einsum("gim,hzm->zghi", diag.astype(np.float32), vals)
              % 2).astype(np.uint8)
    cob = _coboundary_rows_mod2(g, lat)
    rank0 = GF2Matrix.from_dense(cob).rank()
    both = np.vstack([cob, spills.reshape(len(zrows), n * n * lat.rank)])
    return [2] * (GF2Matrix.from_dense(both).rank() - rank0)


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


def test_alpha_rejects_a_row_that_is_not_fixed(monkeypatch):
    # a row fixed mod |G| by construction; a corrupted one must raise
    lat = builtin_lattice("M", builtin_group("V4"))
    real = lattices._fixed_points_mod2k

    def corrupted(order, mats):
        rows, system = real(order, mats)
        rows = rows.copy()
        rows[0, 0] += 1
        return rows, system
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
    a = coflasque_resolution(lat, trim=True)
    b = coflasque_resolution(lat, trim=False)
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
    every = coflasque_resolution(lat, trim=False)
    assert every.cover.rank > top.cover.rank
    assert alpha_image(top.kernel_lattice) == alpha_image(every.kernel_lattice)


@pytest.mark.parametrize("name", ["V4", "D4"])
def test_orbit_sums_span_the_evaluated_fixed_points(name):
    # what the top-down choice counts as reached at H is ev(P^H), with P^H
    # read off the permutation cover itself
    g = builtin_group(name)
    lat = builtin_lattice("M", g)
    blocks = lattices._top_down_blocks(lat)
    res = coflasque_resolution(lat)
    for sub in subgroup_classes(g):
        fixed = res.cover.fixed_rows(list(sub.elements))
        sums = np.vstack([b.orbit_sums(sub) for b in blocks])
        assert int_spans_equal(sums, fixed @ res.ses.proj.T), sub.order


def test_free_cover_alone_fails_the_coflasque_check(monkeypatch):
    # Z[G] (x) L maps onto L, but its kernel has H^1(H, R) = L^H / N_H(L)
    v4 = builtin_group("V4")
    lat = builtin_lattice("M", v4)

    def free_only(lat):
        return [lattices._CoverBlock.of(lat, Subgroup(v4, [0]),
                                        np.eye(lat.rank, dtype=np.int64))]
    monkeypatch.setattr(lattices, "_top_down_blocks", free_only)
    with pytest.raises(CoflasquenessCheckFailed):
        coflasque_resolution(lat)


def test_pullback_lattice_is_coflasque():
    c2 = builtin_group("C2")
    data = build_mnq(c2)
    res = coflasque_resolution(data.m_lattice)
    pb = pullback_lattice(data, res)
    # product rank 4, plus the cover (rank 1 on C2), less M (rank 1)
    assert res.cover.rank == 1
    assert pb.rank == 4
    for s in subgroup_classes(c2):
        assert h1_integral(s, pb) == []


@pytest.mark.parametrize("name", ["C2", "C4"])
def test_phi_vanishes_on_small_groups(name):
    assert phi(builtin_group(name)) == []


def test_phi_independence_check():
    assert phi(builtin_group("C4"), verify_independence=True) == []


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "C8", "C4xC2",
                                  "C2xC2xC2", "D4", "Q8", "C16", "C4xC4",
                                  "D8", "Q16"])
def test_phi_on_every_builtin_up_to_order_16(name):
    # up to order 8 a second, padded resolution must give the same answer
    g = builtin_group(name)
    assert phi(g, verify_independence=g.order <= 8) == []


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
