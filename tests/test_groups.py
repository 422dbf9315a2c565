"""Group layer tests: validation, builtins, subgroup classes, abelianization."""
import numpy as np
import pytest

from cohlat import groups
from cohlat.errors import IdentityNotZero, NotAGroup, ValidationError
from cohlat.groups import (BUILTIN_GROUPS, FiniteGroup, Subgroup,
                           _conjugacy_key, abelianization, builtin_group,
                           closure, commutator_subgroup, cyclic_group,
                           dihedral_group, direct_product, group_from_json,
                           isomorphism, load_group, quaternion_group,
                           quotient_group, subgroup_classes, sylow2_sz8)


# --- independent oracle helpers (no library code) ---

def _oracle_closure(table, seed):
    got = set(seed) | {0}
    while True:
        new = {table[a][b] for a in got for b in got} - got
        if not new:
            return frozenset(got)
        got |= new


def _oracle_all_subgroups(table):
    seen = {frozenset([0])}
    frontier = [frozenset([0])]
    n = len(table)
    while frontier:
        nxt = []
        for h in frontier:
            for g in range(n):
                if g not in h:
                    j = _oracle_closure(table, h | {g})
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
        frontier = nxt
    return seen


def _oracle_class_key(table, h):
    n = len(table)
    inv = [next(b for b in range(n) if table[a][b] == 0) for a in range(n)]
    best = None
    for g in range(n):
        key = tuple(sorted(table[table[inv[g]][x]][g] for x in h))
        if best is None or key < best:
            best = key
    return best


# --- validation ---

def test_rejects_non_square():
    with pytest.raises(NotAGroup):
        FiniteGroup(np.zeros((2, 3), dtype=np.int64))


def test_rejects_identity_elsewhere():
    t = cyclic_group(3).table.copy()
    swap = np.array([1, 0, 2])
    relabeled = swap[t[np.ix_(swap, swap)]]
    with pytest.raises(IdentityNotZero):
        FiniteGroup(relabeled)


def test_rejects_nonassociative_loop():
    # latin square with identity but (1*1)*2 = 2 != 4 = 1*(1*2)
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 3, 4, 0, 1],
         [3, 4, 1, 2, 0],
         [4, 2, 0, 1, 3]]
    with pytest.raises(NotAGroup):
        FiniteGroup(np.array(t))


def test_rejects_broken_row():
    t = np.array([[0, 1], [1, 1]])
    with pytest.raises(NotAGroup):
        FiniteGroup(t)


# --- builtins ---

@pytest.mark.parametrize("name,order", [
    ("C2", 2), ("C4", 4), ("C8", 8), ("C16", 16), ("V4", 4), ("C4xC2", 8),
    ("C2xC2xC2", 8), ("C4xC4", 16), ("D4", 8), ("Q8", 8), ("D8", 16),
    ("Q16", 16), ("sz8-sylow", 64),
])
def test_builtin_validates(name, order):
    g = builtin_group(name)
    FiniteGroup(g.table)  # re-validate from scratch
    assert g.order == order
    assert g.is_2group


def test_element_orders_q8_d4():
    q8 = quaternion_group(8)
    assert sorted(q8.element_orders.tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]
    d4 = dihedral_group(8)
    assert sorted(d4.element_orders.tolist()) == [1, 2, 2, 2, 2, 2, 4, 4]


def _loop_dihedral_table(order, twist):
    """a^i1 b^j1 * a^i2 b^j2 entry by entry, a^i b^j at index i + m*j."""
    m = order // 2
    t = np.zeros((order, order), dtype=np.int64)
    for i1 in range(m):
        for j1 in range(2):
            for i2 in range(m):
                for j2 in range(2):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % m
                    if j1 and j2:
                        i = (i + twist) % m
                    t[i1 + m * j1, i2 + m * j2] = i + m * (j1 ^ j2)
    return t


def test_dihedral_and_quaternion_tables_match_the_loops():
    cases = ([(dihedral_group(n), n, 0) for n in range(4, 130, 2)]
             + [(quaternion_group(n), n, n // 4) for n in (8, 16, 32)])
    for g, order, twist in cases:
        ref = _loop_dihedral_table(order, twist)
        assert g.table.dtype == ref.dtype
        assert g.table.tobytes() == ref.tobytes(), g.name


def test_unknown_builtin():
    with pytest.raises(ValidationError):
        builtin_group("C3")


def test_generator_counts():
    assert len(cyclic_group(4).generators()) == 1
    assert len(builtin_group("V4").generators()) == 2
    assert len(builtin_group("C2xC2xC2").generators()) == 3
    assert len(builtin_group("C4xC4").generators()) == 2


def test_generators_generate():
    expected_rank = {"D4": 2, "Q16": 2, "C4xC2": 2, "C8": 1, "sz8-sylow": 3}
    for name, rank in expected_rank.items():
        g = builtin_group(name)
        gens = g.generators()
        assert closure(g, gens) == set(range(g.order))
        assert len(gens) == rank



SMALL_BUILTINS = [n for n in BUILTIN_GROUPS if builtin_group(n).order <= 16]
NON_P_GROUPS = [cyclic_group(6), dihedral_group(6), dihedral_group(12),
                direct_product(cyclic_group(2), cyclic_group(6))]


@pytest.mark.parametrize("name", SMALL_BUILTINS)
def test_closure_matches_oracle_on_random_seeds(name):
    g = builtin_group(name)
    table = g.table.tolist()
    rng = np.random.default_rng(g.order)
    for size in (0, 1, 1, 2, 2, 3):
        for _ in range(4):
            seed = rng.integers(0, g.order, size).tolist()
            assert closure(g, seed) == _oracle_closure(table, seed)


def _set_generators(g):
    """generators() on Python sets: a lift of a basis of the Frattini
    quotient for p-groups, largest element orders first otherwise."""
    t, inv, n = g.table.tolist(), g.inv.tolist(), g.order
    primes = [q for q in range(2, n + 1)
              if n % q == 0 and all(q % r for r in range(2, q))]
    if len(primes) > 1:
        gens, got = [], {0}
        while len(got) < n:
            gens.append(max((x for x in range(n) if x not in got),
                            key=lambda x: (int(g.element_orders[x]), -x)))
            got = _oracle_closure(t, gens)
        return gens
    seed = {t[t[t[inv[a]][inv[b]]][a]][b] for a in range(n) for b in range(n)}
    for x in range(n):
        y = x
        for _ in range(primes[0] - 1):
            y = t[y][x]
        seed.add(y)
    quot, coset_of = quotient_group(g, sorted(_oracle_closure(t, seed)))
    chosen, span = [], {0}
    for q in range(1, quot.order):
        if q not in span:
            chosen.append(q)
            span = _oracle_closure(quot.table.tolist(), chosen)
            if len(span) == quot.order:
                break
    reps = {int(coset_of[x]): x for x in range(n - 1, -1, -1)}
    return [reps[q] for q in chosen]


def _relabelled(group, seed):
    """The group with its non-identity elements renamed by a seeded
    permutation, as the benchmark's group files are."""
    perm = np.zeros(group.order, dtype=np.int64)
    perm[1:] = 1 + np.random.default_rng(seed).permutation(group.order - 1)
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return FiniteGroup(table, name=f"{group.name}-r{seed}")


PRODUCT_GROUPS = [direct_product(cyclic_group(2), builtin_group("D8")),
                  direct_product(cyclic_group(2), sylow2_sz8())]
ODD_P_GROUPS = [cyclic_group(3), cyclic_group(9),
                direct_product(cyclic_group(3), cyclic_group(3)),
                direct_product(cyclic_group(5), cyclic_group(5))]
RELABELLED_GROUPS = [_relabelled(builtin_group(n), seed)
                     for n in ("D8", "Q16", "C4xC4", "sz8-sylow")
                     for seed in range(5)]


@pytest.mark.parametrize("g", [builtin_group(n) for n in BUILTIN_GROUPS]
                         + NON_P_GROUPS + PRODUCT_GROUPS + ODD_P_GROUPS
                         + RELABELLED_GROUPS, ids=lambda g: g.name)
def test_generators_and_commutators_match_set_reference(g):
    table = g.table.tolist()
    assert g.generators() == _set_generators(g)
    comms = {table[table[table[int(g.inv[a])][int(g.inv[b])]][a]][b]
             for a in range(g.order) for b in range(g.order)}
    assert commutator_subgroup(g) == _oracle_closure(table, comms)


@pytest.mark.parametrize("g", [builtin_group(n) for n in BUILTIN_GROUPS]
                         + PRODUCT_GROUPS, ids=lambda g: g.name)
def test_class_local_generators_match_set_reference(g):
    # the local group of every nontrivial subgroup class up to order 64
    for sub in subgroup_classes(g):
        if 1 < sub.order <= 64:
            local = sub.as_group()[0]
            assert local.generators() == _set_generators(local), sub.key()

# --- the order-64 headline group ---

def test_sz8_structure():
    g = sylow2_sz8()
    assert g.order == 64
    orders = g.element_orders
    assert int(orders.max()) == 4
    assert int((orders == 2).sum()) == 7
    center = {z for z in range(64)
              if all(g.mul(z, x) == g.mul(x, z) for x in range(64))}
    derived = commutator_subgroup(g)
    assert center == derived == set(range(8))
    # the bottom 8 indices are the (0, b) pairs, an elementary abelian cube
    zsub = Subgroup(g, sorted(center))
    zgrp, _ = zsub.as_group()
    assert sorted(zgrp.element_orders.tolist()) == [1] + [2] * 7
    assert len(g.generators()) == 3
    assert abelianization(g) == [2, 2, 2]


def test_sz8_central_order2_classes():
    g = sylow2_sz8()
    classes = subgroup_classes(g)
    by_order = {}
    for s in classes:
        by_order.setdefault(s.order, []).append(s)
    # all involutions are central, so each order-2 subgroup is its own class
    assert len(by_order[2]) == 7
    assert len(by_order[1]) == 1
    assert len(by_order[64]) == 1


# --- subgroup classes vs exhaustive oracle ---

@pytest.mark.parametrize("name", [
    "C4", "V4", "C8", "C4xC2", "C2xC2xC2", "D4", "Q8", "C16", "C4xC4",
    "D8", "Q16",
])
def test_subgroup_classes_match_oracle(name):
    g = builtin_group(name)
    table = g.table.tolist()
    allsubs = _oracle_all_subgroups(table)
    expected = {_oracle_class_key(table, h) for h in allsubs}
    got = {s.key() for s in subgroup_classes(g)}
    assert got == expected


def _loop_conjugacy_key(group, elements):
    """One conjugate at a time, compared as Python tuples."""
    t, inv = group.table, group.inv
    return min(tuple(sorted(int(t[t[inv[g], x], g]) for x in elements))
               for g in range(group.order))


def test_conjugacy_key_matches_loop_reference():
    g = sylow2_sz8()
    for s in subgroup_classes(g):
        for x in (0, 9, 37, 63):
            conj = g.table[g.table[g.inv[x], s.elements], x]
            assert _conjugacy_key(g, conj) == _loop_conjugacy_key(g, conj) == s.key()


def test_subgroup_class_counts_frozen():
    assert len(subgroup_classes(cyclic_group(4))) == 3
    assert len(subgroup_classes(builtin_group("V4"))) == 5
    assert len(subgroup_classes(builtin_group("D4"))) == 8
    assert len(subgroup_classes(builtin_group("Q8"))) == 6



def _set_subgroup_classes(group):
    """subgroup_classes on Python sets: every class representative joined
    with every cyclic subgroup not inside it, one closure per join."""
    t = group.table

    def set_closure(seed):
        got = {0} | set(seed)
        frontier = list(got)
        while frontier:
            members, nxt = list(got), []
            for f in frontier:
                for p in t[f, members].tolist():
                    if p not in got:
                        got.add(p)
                        nxt.append(p)
            frontier = nxt
        return got

    cyclics = sorted({tuple(sorted(set_closure([g])))
                      for g in range(group.order)})
    reps = {}
    for c in cyclics:
        reps.setdefault(_conjugacy_key(group, np.array(c)), None)
    layer = list(reps)
    while layer:
        new = []
        for h in layer:
            for c in cyclics:
                if set(c) <= set(h):
                    continue
                j = np.array(sorted(set_closure(list(h) + list(c))))
                key = _conjugacy_key(group, j)
                if key not in reps:
                    reps[key] = None
                    new.append(key)
        layer = new
    return sorted(reps, key=lambda k: (len(k), k))


def _relabelled_sz8():
    # a fixed relabelling that keeps the identity at 0
    perm = np.zeros(64, dtype=np.int64)
    perm[1:] = 1 + (5 * np.arange(63)) % 63
    t = sylow2_sz8().table
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return FiniteGroup(out, name="sz8-relabelled")


@pytest.mark.parametrize("make", [
    sylow2_sz8,
    lambda: direct_product(cyclic_group(2), dihedral_group(16)),
    _relabelled_sz8,
], ids=["sz8-sylow", "C2xD8", "sz8-relabelled"])
def test_subgroup_classes_match_set_reference(make):
    g = make()
    assert [s.key() for s in subgroup_classes(g)] == _set_subgroup_classes(g)


def test_order_128_subgroup_class_counts():
    # C2 x sz8-sylow, pinned from the set-based reference (about 10 s)
    g = direct_product(cyclic_group(2), sylow2_sz8())
    orders = [s.order for s in subgroup_classes(g)]
    assert len(orders) == 258
    assert {o: orders.count(o) for o in set(orders)} == {
        1: 1, 2: 15, 4: 49, 8: 85, 16: 57, 32: 35, 64: 15, 128: 1}

# --- subgroup mechanics ---

def test_subgroup_rejects_unclosed():
    g = dihedral_group(8)
    with pytest.raises(NotAGroup):
        Subgroup(g, [0, 1])  # rotation of order 4 without its square


def test_cosets_partition():
    g = dihedral_group(8)
    s = next(x for x in range(8) if g.element_orders[x] == 2 and
             any(g.mul(x, y) != g.mul(y, x) for y in range(8)))
    h = Subgroup(g, sorted(closure(g, [s])))
    assert h.order == 2 and h.index == 4
    reps = h.coset_reps()
    assert len(reps) == 4 and reps[0] == 0
    covered = set()
    for r in reps:
        coset = {g.mul(int(r), int(x)) for x in h.elements}
        assert not covered & coset
        covered |= coset
    assert covered == set(range(8))
    rreps = h.right_coset_reps()
    covered = set()
    for r in rreps:
        covered |= {g.mul(int(x), int(r)) for x in h.elements}
    assert covered == set(range(8))


@pytest.mark.parametrize("name", ["D8", "sz8-sylow"])
def test_coset_table_matches_the_coset_loop(name):
    # one table gives each element's coset and position in H; the
    # representatives are those of the first-unseen-element loop, for left
    # cosets rH and for right cosets Hr
    g = builtin_group(name)
    for h in subgroup_classes(g):
        sides = [(lambda r, x: g.mul(r, x), h.coset_table(), h.coset_reps()),
                 (lambda r, x: g.mul(x, r), h.right_coset_table(),
                  h.right_coset_reps())]
        for mul, (coset, pos), got_reps in sides:
            seen = np.zeros(g.order, dtype=bool)
            reps = []
            for x in range(g.order):
                if not seen[x]:
                    reps.append(x)
                    seen[[mul(x, int(e)) for e in h.elements]] = True
            assert got_reps.tolist() == reps
            for x in range(g.order):
                assert mul(reps[coset[x]], int(h.elements[pos[x]])) == x


def test_relabelled_subgroup_reads_the_new_local_order():
    # a view through phi keeps the sorted elements and reads local element
    # phi[x] where the class read x: its table is the target's, and both
    # coset tables index the new local order
    g = builtin_group("sz8-sylow")
    for h in subgroup_classes(g):
        local, to_global = h.as_group()
        target = _relabelled(local, h.order)
        phi = isomorphism(local, target)
        view = h.relabelled(phi)
        vlocal, vglobal = view.as_group()
        assert np.array_equal(vlocal.table, target.table)
        assert np.array_equal(vglobal[phi], to_global)
        assert view.key() == h.key() and view.index == h.index
        for (coset, pos), (hcoset, hpos), side in [
                (view.coset_table(), h.coset_table(), "left"),
                (view.right_coset_table(), h.right_coset_table(), "right")]:
            assert np.array_equal(coset, hcoset), side
            assert np.array_equal(pos, phi[hpos]), side
        assert np.array_equal(view.coset_reps(), h.coset_reps())


def test_as_group_is_valid_group():
    g = quaternion_group(16)
    h = Subgroup(g, sorted(closure(g, [g.generators()[0]])))
    local, to_global = h.as_group()
    FiniteGroup(local.table)  # full validation
    for a in range(local.order):
        for b in range(local.order):
            assert to_global[local.mul(a, b)] == g.mul(int(to_global[a]),
                                                       int(to_global[b]))


def test_conjugated_subgroup():
    g = dihedral_group(8)
    classes = subgroup_classes(g)
    h = next(s for s in classes if s.order == 2 and not s.contains(2))
    for x in range(8):
        c = h.conjugated(x)
        assert c.order == 2
        assert _oracle_class_key(g.table.tolist(), set(map(int, c.elements))) \
            == _oracle_class_key(g.table.tolist(), set(map(int, h.elements)))


# --- isomorphisms ---

def _is_isomorphism(a, b, phi):
    return (phi is not None and sorted(phi.tolist()) == list(range(a.order))
            and np.array_equal(phi[a.table], b.table[np.ix_(phi, phi)]))


def _c4_semidirect_c4():
    """<a, b | a^4, b^4, b a b^-1 = a^-1>, a^i b^j at index i + 4j."""
    x = np.arange(16)
    i1, j1 = (x % 4)[:, None], (x // 4)[:, None]
    i2, j2 = x % 4, x // 4
    return FiniteGroup((i1 + (-1) ** j1 * i2) % 4 + 4 * ((j1 + j2) % 4),
                       name="C4:C4")


def test_isomorphism_maps_are_bijective_homomorphisms():
    # all pairs of class groups of the built-ins up to order 16 and of
    # C2 x D8; acceptance is symmetric and transitive, as isomorphism is
    locals_ = [h.as_group()[0]
               for g in [builtin_group(n) for n in BUILTIN_GROUPS
                         if builtin_group(n).order <= 16]
               + [direct_product(cyclic_group(2), builtin_group("D8"))]
               for h in subgroup_classes(g)]
    assert len(locals_) == 130
    found = set()
    for x, a in enumerate(locals_):
        for y, b in enumerate(locals_):
            phi = isomorphism(a, b)
            if phi is not None:
                assert _is_isomorphism(a, b, phi), (x, y)
                found.add((x, y))
    assert all((y, x) in found for x, y in found)
    for x, y in found:
        assert {z for w, z in found if w == y} == \
            {z for w, z in found if w == x}
    # 16 types, whose element-order histograms all differ, so every pair
    # of one histogram was found isomorphic
    types = {min(z for w, z in found if w == x) for x in range(len(locals_))}
    assert sorted(locals_[x].order for x in types) == \
        [1, 2, 4, 4, 8, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 32]
    assert len({np.bincount(locals_[x].element_orders).tobytes()
                for x in types}) == 16


@pytest.mark.parametrize("name", BUILTIN_GROUPS)
def test_isomorphism_finds_each_relabelled_builtin(name):
    g = builtin_group(name)
    for seed in range(4):
        r = _relabelled(g, seed)
        assert _is_isomorphism(g, r, isomorphism(g, r)), seed
        assert _is_isomorphism(r, g, isomorphism(r, g)), seed


def test_isomorphism_tells_c4xc4_from_c4_semidirect_c4():
    # same order, element-order histogram and generator count
    a, b = builtin_group("C4xC4"), _c4_semidirect_c4()
    assert np.bincount(a.element_orders).tolist() == \
        np.bincount(b.element_orders).tolist() == [0, 1, 3, 0, 12]
    assert len(a.generators()) == len(b.generators()) == 2
    assert isomorphism(a, b) is None and isomorphism(b, a) is None
    r = _relabelled(b, 2)
    assert _is_isomorphism(b, r, isomorphism(b, r))


def test_isomorphism_gives_up_at_its_budget(monkeypatch):
    g = builtin_group("D4")
    r = _relabelled(g, 3)
    assert isomorphism(g, r) is not None
    monkeypatch.setattr(groups, "ISOMORPHISM_MAX_STEPS", 0)
    assert isomorphism(g, r) is None


# --- quotients and abelianization ---

def test_quotient_q8_by_center():
    g = quaternion_group(8)
    quot, coset_of = quotient_group(g, sorted(commutator_subgroup(g)))
    assert quot.order == 4
    assert sorted(quot.element_orders.tolist()) == [1, 2, 2, 2]
    for a in range(8):
        for b in range(8):
            assert coset_of[g.mul(a, b)] == quot.mul(int(coset_of[a]),
                                                     int(coset_of[b]))


def test_quotient_requires_normal():
    g = dihedral_group(8)
    h = next(s for s in subgroup_classes(g)
             if s.order == 2 and not s.contains(2))
    with pytest.raises(NotAGroup):
        quotient_group(g, list(h.elements))


@pytest.mark.parametrize("name,expected", [
    ("C4", [4]), ("C8", [8]), ("Q8", [2, 2]), ("D4", [2, 2]),
    ("C4xC2", [2, 4]), ("C2xC2xC2", [2, 2, 2]), ("Q16", [2, 2]),
    ("sz8-sylow", [2, 2, 2]),
])
def test_abelianization(name, expected):
    assert abelianization(builtin_group(name)) == expected


# --- io ---

def test_group_from_json_roundtrip():
    v4 = builtin_group("V4")
    payload = {"order": 4, "table": v4.table.tolist()}
    g = group_from_json(payload)
    assert g == v4


def test_group_from_json_rejects_malformed():
    with pytest.raises(ValidationError):
        group_from_json({"order": 2})
    with pytest.raises(ValidationError):
        group_from_json({"order": 2, "table": [[0, 1]]})
    with pytest.raises(ValidationError):
        group_from_json([0, 1])


def test_load_group_builtin_and_file(tmp_path):
    assert load_group("builtin:D4").order == 8
    p = tmp_path / "g.json"
    p.write_text('{"order": 2, "table": [[0, 1], [1, 0]]}')
    assert load_group(str(p)).order == 2
    with pytest.raises(ValidationError):
        load_group(str(tmp_path / "missing.json"))


def test_hash_digest_stable():
    a = sylow2_sz8().hash_digest()
    b = sylow2_sz8().hash_digest()
    assert a == b and len(a) == 64
    assert cyclic_group(4).hash_digest() != builtin_group("V4").hash_digest()
