"""Finite groups as validated Cayley tables, plus the built-in group zoo.

Elements are integers 0..n-1 with 0 the identity; table[a, b] is the product
a*b. Groups are immutable once constructed and hashable by table bytes.
"""
from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (BudgetExceeded, IdentityNotZero, InternalInvariant,
                     NotAGroup, ValidationError)
from .linalg import invariant_factors, row_hnf

MAX_ORDER = 1024
MAX_SUBGROUP_CLASSES = 10000
ISOMORPHISM_MAX_STEPS = 1000000  # Cayley edges walked per isomorphism search


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    __slots__ = ("order", "table", "inv", "element_orders", "_hash", "_gens",
                 "_tree", "name")

    def __init__(self, table: np.ndarray, name: str = "", validate: bool = True):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise NotAGroup("table must be square")
        n = table.shape[0]
        if n == 0 or n > MAX_ORDER:
            raise NotAGroup(f"order must be in 1..{MAX_ORDER}")
        if table.min() < 0 or table.max() >= n:
            raise NotAGroup("table entries out of range")
        self.order = n
        self.table = table
        self.name = name
        if validate:
            self._validate()
        inv = np.full(n, -1, dtype=np.int64)
        rows, cols = np.nonzero(table == 0)
        inv[rows] = cols
        self.inv = inv
        orders = np.ones(n, dtype=np.int64)
        for g in range(n):
            x, o = g, 1
            while x != 0:
                x = int(table[x, g])
                o += 1
            orders[g] = o
        self.element_orders = orders
        self._hash = None
        self._gens = None
        self._tree = None

    def _validate(self):
        t = self.table
        n = self.order
        ident = np.arange(n, dtype=np.int64)
        for e in range(n):
            if np.array_equal(t[e], ident) and np.array_equal(t[:, e], ident):
                if e != 0:
                    raise IdentityNotZero(f"identity is index {e}, not 0")
                break
        else:
            raise NotAGroup("no two-sided identity element")
        if not np.array_equal(t[0], ident) or not np.array_equal(t[:, 0], ident):
            raise IdentityNotZero("index 0 is not the identity")
        srt = np.sort(t, axis=1)
        if not np.array_equal(srt, np.tile(ident, (n, 1))):
            raise NotAGroup("a row is not a permutation (missing inverses)")
        srt = np.sort(t, axis=0)
        if not np.array_equal(srt, np.tile(ident[:, None], (1, n))):
            raise NotAGroup("a column is not a permutation")
        # associativity in blocks to bound memory at larger orders
        step = max(1, (1 << 22) // (n * n))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            left = t[t[lo:hi]]            # (hi-lo, n, n): (a*b)*c
            right = t[lo:hi][:, t]        # a*(b*c)
            if not np.array_equal(left, right):
                raise NotAGroup("multiplication is not associative")

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    @property
    def is_2group(self) -> bool:
        n = self.order
        return n & (n - 1) == 0

    def generators(self) -> List[int]:
        """Deterministic generating set; minimal for p-groups."""
        if self._gens is not None:
            return list(self._gens)
        p = _prime_power_base(self.order)
        if self.order == 1:
            gens: List[int] = []
        elif p is not None:
            gens = _pgroup_min_generators(self, p)
        else:
            gens = []
            cl = _generated(self, gens)
            while cl.size < self.order:
                best = max(np.setdiff1d(np.arange(self.order), cl).tolist(),
                           key=lambda g: (int(self.element_orders[g]), -g))
                gens.append(best)
                cl = _generated(self, gens)
        self._gens = tuple(gens)
        return list(gens)

    def spanning_tree(self) -> "CayleyTree":
        """The Cayley-graph tree of generators(), built once."""
        if self._tree is None:
            tree = cayley_tree(self, self.generators())
            if len(tree.order) != self.order:
                raise InternalInvariant("generators do not generate")
            self._tree = tree
        return self._tree

    def hash_digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"group:{self.order}:".encode())
        h.update(self.table.astype(np.uint16).tobytes())
        return h.hexdigest()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.table.tobytes()))
        return self._hash

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup) and self.order == other.order
                and np.array_equal(self.table, other.table))

    def __repr__(self):
        tag = self.name or "group"
        return f"FiniteGroup({tag}, order={self.order})"


class CayleyTree(NamedTuple):
    """Breadth-first spanning tree of a Cayley graph, rooted at the identity.

    order lists the reached elements in BFS order. For each reached b other
    than the identity, b = parent[b] * gens[gen[b]] is its tree edge; both
    are -1 at the identity and at unreached elements. edges holds every edge
    (a, i, a * gens[i], is_tree) out of a reached element, in BFS order.
    """
    order: Tuple[int, ...]
    parent: Tuple[int, ...]
    gen: Tuple[int, ...]
    edges: Tuple[Tuple[int, int, int, bool], ...]


def cayley_tree(group: FiniteGroup, gens: Sequence[int]) -> CayleyTree:
    """BFS over right multiplication by gens from the identity."""
    t = group.table
    parent = [-1] * group.order
    gen = [-1] * group.order
    seen = [False] * group.order
    seen[0] = True
    order = [0]
    edges = []
    for a in order:  # grows as elements are reached
        for i, s in enumerate(gens):
            b = int(t[a, s])
            is_tree = not seen[b]
            if is_tree:
                seen[b] = True
                parent[b], gen[b] = a, i
                order.append(b)
            edges.append((a, i, b, is_tree))
    return CayleyTree(tuple(order), tuple(parent), tuple(gen), tuple(edges))


def relator_walk(group: FiniteGroup, step, start):
    """Additive walk down the spanning tree: u(1) = start and
    u(a s_i) = u(a) + step(a, i) on tree edges. Returns (u, relators): u by
    element in BFS order, and for each other edge a -> b = a s_i, in edge
    order, u(b) - u(a) - step(a, i), the value on its Schreier relator
    t_a s_i t_b^-1. These relators generate the relations of the generators.
    """
    u, relators = {0: start}, []
    for a, i, b, is_tree in group.spanning_tree().edges:
        if is_tree:
            u[b] = u[a] + step(a, i)
        else:
            relators.append(u[b] - u[a] - step(a, i))
    return u, relators


def _prime_power_base(n: int) -> Optional[int]:
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    return None


def _pgroup_min_generators(group: FiniteGroup, p: int) -> List[int]:
    """Coset representatives of a basis of G modulo its Frattini subgroup.

    For a p-group the Frattini subgroup is generated by p-th powers and
    commutators, and any lift of a basis of the quotient generates G. Each
    pick is the least element outside the span S so far, so the least of its
    coset; S is normal and holds g^p, so joining g gives the union of g^i S.
    """
    t = group.table
    x = np.arange(group.order)
    powers = x
    for _ in range(p - 1):
        powers = t[powers, x]
    phi = _generated(group, np.concatenate([powers, _commutators(group)]))
    span = np.isin(x, phi)
    chosen: List[int] = []
    while not span.all():
        g = int(np.argmin(span))
        chosen.append(g)
        coset = np.flatnonzero(span)
        for _ in range(p - 1):
            coset = t[g, coset]
            span[coset] = True
    return chosen


def _generated(group: FiniteGroup, seed: Sequence[int]) -> np.ndarray:
    """Sorted elements of the subgroup generated by the seed elements.

    Breadth-first over a membership mask: each round multiplies the whole
    frontier by the seed on the right and keeps the products not yet
    reached.
    """
    t = group.table
    mask = np.zeros(group.order, dtype=bool)
    mask[0] = True
    mask[np.asarray(seed, dtype=np.int64)] = True
    gens = frontier = mask.nonzero()[0]
    while frontier.size:
        fresh = np.zeros(group.order, dtype=bool)
        fresh[t[frontier[:, None], gens]] = True
        fresh &= ~mask
        mask |= fresh
        frontier = fresh.nonzero()[0]
    return mask.nonzero()[0]


def isomorphism(a: FiniteGroup, b: FiniteGroup) -> Optional[np.ndarray]:
    """An isomorphism phi from a onto b, phi[a.table] == b.table[phi][:, phi],
    or None when there is none or the search ran out of steps.

    Groups that differ in order, element orders or generator count are
    rejected at once. Otherwise the search backtracks over images of
    a.generators(), each of the generator's element order. With images
    chosen for the first j generators, the map is spread over the Cayley
    graph of those j generators from the identity: a tree edge x -> x*g
    sets phi(x*g) = phi(x)*phi(g), every other edge must agree with it,
    and no two elements may share an image. A choice that fails is dropped
    before the next generator is tried. When all generators have images,
    phi holds on every edge of a generating set, so it is a homomorphism,
    and it is injective between groups of one order. Each image tried
    costs the edge count of its Cayley graph; once the total passes
    ISOMORPHISM_MAX_STEPS the answer is None.
    """
    if (a.order != b.order
            or not np.array_equal(np.sort(a.element_orders),
                                  np.sort(b.element_orders))
            or len(a.generators()) != len(b.generators())):
        return None
    gens = a.generators()
    graphs = [cayley_tree(a, gens[:j + 1]).edges for j in range(len(gens))]
    cands = [np.flatnonzero(b.element_orders == a.element_orders[g]).tolist()
             for g in gens]
    bt = b.table.tolist()
    imgs = [0] * len(gens)
    steps = 0

    def spread(edges) -> Optional[Dict[int, int]]:
        """phi over a Cayley graph from imgs, or None if it fails."""
        phi, hit = {0: 0}, {0}
        for x, i, y, is_tree in edges:
            z = bt[phi[x]][imgs[i]]
            if not is_tree:
                if phi[y] != z:
                    return None
            elif z in hit:
                return None
            else:
                phi[y] = z
                hit.add(z)
        return phi

    def search(j: int) -> Optional[Dict[int, int]]:
        nonlocal steps
        for z in cands[j]:
            steps += len(graphs[j])
            if steps > ISOMORPHISM_MAX_STEPS:
                return None
            imgs[j] = z
            phi = spread(graphs[j])
            if phi is not None and j + 1 < len(gens):
                phi = search(j + 1)
            if phi is not None:
                return phi
        return None

    phi = search(0) if gens else {0: 0}
    return None if phi is None else np.array(
        [phi[x] for x in range(a.order)], dtype=np.int64)


class Subgroup:
    """A subgroup of a parent group, stored by its sorted element list.

    Its local elements 0..order-1, which as_group() and the coset tables
    index, are the sorted elements unless relabelled() reorders them.
    """

    __slots__ = ("parent", "elements", "order", "_local", "_cosets",
                 "_rcosets", "_as_group")

    def __init__(self, parent: FiniteGroup, elements: Sequence[int], check: bool = True):
        el = np.array(sorted(int(x) for x in set(elements)), dtype=np.int64)
        if check:
            if el.size == 0 or el[0] != 0:
                raise NotAGroup("subgroup must contain the identity")
            members = set(int(x) for x in el)
            prods = parent.table[np.ix_(el, el)]
            if not set(int(x) for x in prods.flat) <= members:
                raise NotAGroup("element set is not closed under multiplication")
        self.parent = parent
        self.elements = el
        self.order = int(el.size)
        self._local = el
        self._cosets = None
        self._rcosets = None
        self._as_group = None

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def contains(self, g: int) -> bool:
        i = int(np.searchsorted(self.elements, g))
        return i < self.order and int(self.elements[i]) == g

    def relabelled(self, phi: np.ndarray) -> "Subgroup":
        """The same subgroup with local element phi[x] in place of x.

        For an isomorphism phi from as_group()'s group onto a group T, the
        result's as_group() has T's table. Its elements stay sorted, so
        contains() and key() are unchanged.
        """
        out = Subgroup(self.parent, self.elements, check=False)
        out._local = np.empty_like(self._local)
        out._local[phi] = self._local
        return out

    def coset_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Left cosets as (coset, pos): g = r * x with x local element
        pos[g] and r the representative of coset number coset[g]. Cosets are
        numbered by their least element, which is the representative."""
        if self._cosets is None:
            self._cosets = self._cosets_of(self.parent.table[:, self._local])
        return self._cosets

    def right_coset_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Right cosets as (coset, pos): g = x * r with x local element
        pos[g], numbered and represented as in coset_table."""
        if self._rcosets is None:
            self._rcosets = self._cosets_of(self.parent.table[self._local].T)
        return self._rcosets

    def _cosets_of(self, members: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(coset, pos) from members[g], the coset of g listed in local
        order, taking cosets in order of their least element."""
        n = self.parent.order
        coset = np.full(n, -1, dtype=np.int64)
        pos = np.zeros(n, dtype=np.int64)
        j = 0
        for g in range(n):
            if coset[g] < 0:
                coset[members[g]] = j
                pos[members[g]] = np.arange(self.order)
                j += 1
        coset.setflags(write=False)
        pos.setflags(write=False)
        return coset, pos

    def coset_reps(self) -> np.ndarray:
        """Left-coset representatives (g for cosets gH), identity first."""
        return np.flatnonzero(self.coset_table()[1] == 0).astype(np.int64)

    def as_group(self) -> Tuple[FiniteGroup, np.ndarray]:
        """The subgroup as a standalone group plus local->global element map."""
        if self._as_group is None:
            to_global = self._local
            pos = np.full(self.parent.order, -1, dtype=np.int64)
            pos[to_global] = np.arange(self.order)
            local = pos[self.parent.table[np.ix_(to_global, to_global)]]
            grp = FiniteGroup(local, name=f"sub{self.order}", validate=False)
            self._as_group = (grp, to_global)
        return self._as_group

    def conjugated(self, g: int) -> "Subgroup":
        t = self.parent.table
        gi = self.parent.inv[g]
        els = t[t[gi, self.elements], g]
        return Subgroup(self.parent, els, check=False)

    def key(self) -> Tuple[int, ...]:
        return tuple(int(x) for x in self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.order})"


def _conjugacy_key(group: FiniteGroup, elements: np.ndarray) -> Tuple[int, ...]:
    """Lexicographically smallest conjugate element tuple; canonical class id."""
    t, inv = group.table, group.inv
    everyone = np.arange(group.order)
    # row g holds the sorted conjugate g^-1 H g
    conj = np.sort(t[t[inv[:, None], elements], everyone[:, None]], axis=1)
    best = np.lexsort(conj.T[::-1])[0]
    return tuple(int(x) for x in conj[best])


def subgroup_classes(group: FiniteGroup) -> List[Subgroup]:
    """Conjugacy-class representatives of all subgroups.

    Layered closure: start from cyclic subgroups, join class representatives
    against every cyclic subgroup, dedupe by canonical conjugate key. Each
    representative is the lexicographically smallest member of its class.
    """
    n = group.order
    masks = {}  # membership masks of the distinct cyclic subgroups
    for g in range(n):
        mask = np.zeros(n, dtype=bool)
        mask[_generated(group, [g])] = True
        masks.setdefault(mask.tobytes(), mask)
    cyclics = np.array(list(masks.values()))
    reps: Dict[Tuple[int, ...], np.ndarray] = {}
    for c in cyclics:
        key = _conjugacy_key(group, np.flatnonzero(c))
        reps.setdefault(key, np.array(key, dtype=np.int64))
    # a join already seen has its class in reps
    seen = set()
    layer = list(reps.values())
    while layer:
        new = []
        for h in layer:
            inside = np.zeros(n, dtype=bool)
            inside[h] = True
            outside = (cyclics & ~inside).any(axis=1)
            for c in cyclics[outside]:
                j = _generated(group, np.flatnonzero(inside | c))
                if j.tobytes() in seen:
                    continue
                seen.add(j.tobytes())
                key = _conjugacy_key(group, j)
                if key not in reps:
                    if len(reps) >= MAX_SUBGROUP_CLASSES:
                        raise BudgetExceeded(f"more than {MAX_SUBGROUP_CLASSES}"
                                             " subgroup classes")
                    reps[key] = np.array(key, dtype=np.int64)
                    new.append(reps[key])
        layer = new
    out = [Subgroup(group, els, check=False) for els in reps.values()]
    out.sort(key=lambda s: (s.order, s.key()))
    return out


def quotient_group(group: FiniteGroup, normal_elements: Sequence[int]):
    """Quotient by a normal subgroup; returns (quotient, coset_index_map)."""
    k = np.array(sorted(set(int(x) for x in normal_elements)), dtype=np.int64)
    kset = set(int(x) for x in k)
    t = group.table
    for g in range(group.order):
        conj = t[t[group.inv[g], k], g]
        if not set(int(x) for x in conj) <= kset:
            raise NotAGroup("subgroup is not normal")
    coset_of = np.full(group.order, -1, dtype=np.int64)
    reps = []
    for g in range(group.order):
        if coset_of[g] < 0:
            cid = len(reps)
            reps.append(g)
            coset_of[t[g, k]] = cid
    m = len(reps)
    reps = np.array(reps, dtype=np.int64)
    qt = np.zeros((m, m), dtype=np.int64)
    for a in range(m):
        qt[a] = coset_of[t[reps[a], reps]]
    return FiniteGroup(qt, name=f"{group.name}/N" if group.name else "quotient"), coset_of


def _commutators(group: FiniteGroup) -> np.ndarray:
    """Every commutator a^-1 b^-1 a b, flattened over (a, b)."""
    t, inv = group.table, group.inv
    x = np.arange(group.order)
    return t[t[t[inv[:, None], inv[None, :]], x[:, None]], x[None, :]].ravel()


def commutator_subgroup(group: FiniteGroup) -> set:
    return set(_generated(group, _commutators(group)).tolist())


def abelianization(group: FiniteGroup) -> List[int]:
    """Invariant factors of G/[G,G] (1s dropped): Z^d on the d generators
    modulo the exponent sums of the Schreier relators (relator_walk)."""
    d = len(group.generators())
    unit = np.eye(d, dtype=np.int64)
    rels = relator_walk(group, lambda a, i: unit[i],
                        np.zeros(d, dtype=np.int64))[1]
    hnf, _ = row_hnf(np.array(rels, dtype=np.int64).reshape(len(rels), d))
    if hnf.shape[0] != d:
        raise InternalInvariant("commutator quotient of a finite group must be finite")
    return invariant_factors(hnf)


# ---------------------------------------------------------------------------
# Built-in groups
# ---------------------------------------------------------------------------


def _f8_mul(x: int, y: int) -> int:
    """Multiplication in F8 = F2[t]/(t^3+t+1), elements as 3-bit masks."""
    r = 0
    while y:
        if y & 1:
            r ^= x
        y >>= 1
        x <<= 1
        if x & 8:
            x ^= 0b1011
    return r


def _f8_theta(a: int) -> int:
    sq = _f8_mul(a, a)
    return _f8_mul(sq, sq)


def sylow2_sz8() -> FiniteGroup:
    """The 2-Sylow subgroup of Sz(8), order 64.

    Elements are pairs (a, b) over F8 with (a,b)*(c,d) = (a+c, theta(a)c+b+d),
    theta(a) = a^4; index = 8*a + b, so (0,0) = 0 is the identity.
    """
    n = 64
    t = np.zeros((n, n), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            for c in range(8):
                for d in range(8):
                    ra = a ^ c
                    rb = _f8_mul(_f8_theta(a), c) ^ b ^ d
                    t[8 * a + b, 8 * c + d] = 8 * ra + rb
    return FiniteGroup(t, name="sz8-sylow")


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int64)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"C{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str = "") -> FiniteGroup:
    na, nb = a.order, b.order
    ia = np.arange(na * nb, dtype=np.int64) // nb
    ib = np.arange(na * nb, dtype=np.int64) % nb
    t = a.table[np.ix_(ia, ia)] * nb + b.table[np.ix_(ib, ib)]
    return FiniteGroup(t, name=name or f"{a.name}x{b.name}")


def _dihedral_table(order: int, twist: int) -> np.ndarray:
    """Table of <a, b | a^m, b^2 = a^twist, b a b^-1 = a^-1>, m = order / 2,
    with a^i b^j at index i + m*j: a^i1 b^j1 a^i2 b^j2 = a^i b^(j1 xor j2)
    where i = i1 -+ i2 (minus when j1 = 1), plus twist when j1 = j2 = 1."""
    m = order // 2
    x = np.arange(order, dtype=np.int64)
    i1, j1 = (x % m)[:, None], (x // m)[:, None]
    i2, j2 = x % m, x // m
    i = (i1 + np.where(j1 == 0, i2, -i2) + twist * (j1 & j2)) % m
    return i + m * (j1 ^ j2)


def dihedral_group(order: int) -> FiniteGroup:
    if order % 2 or order < 4:
        raise ValidationError("dihedral order must be even and >= 4")
    return FiniteGroup(_dihedral_table(order, 0), name=f"D(order {order})")


def quaternion_group(order: int) -> FiniteGroup:
    if order not in (8, 16, 32):
        raise ValidationError("generalized quaternion order must be 8, 16 or 32")
    # b^2 = a^(m/2) for the order-m rotation a
    return FiniteGroup(_dihedral_table(order, order // 4), name=f"Q{order}")


def _builtin_factories() -> Dict[str, "callable"]:
    return {
        "C2": lambda: cyclic_group(2),
        "C4": lambda: cyclic_group(4),
        "C8": lambda: cyclic_group(8),
        "C16": lambda: cyclic_group(16),
        "V4": lambda: direct_product(cyclic_group(2), cyclic_group(2), "V4"),
        "C4xC2": lambda: direct_product(cyclic_group(4), cyclic_group(2)),
        "C2xC2xC2": lambda: direct_product(
            direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2), "C2xC2xC2"),
        "C4xC4": lambda: direct_product(cyclic_group(4), cyclic_group(4)),
        "D4": lambda: dihedral_group(8),
        "Q8": lambda: quaternion_group(8),
        "D8": lambda: dihedral_group(16),
        "Q16": lambda: quaternion_group(16),
        "sz8-sylow": sylow2_sz8,
    }


BUILTIN_GROUPS = tuple(sorted(_builtin_factories()))


@lru_cache(maxsize=None)
def builtin_group(name: str) -> FiniteGroup:
    try:
        return _builtin_factories()[name]()
    except KeyError:
        raise ValidationError(f"unknown builtin group {name!r}; "
                              f"known: {', '.join(BUILTIN_GROUPS)}") from None


def group_from_json(payload) -> FiniteGroup:
    if not isinstance(payload, dict):
        raise ValidationError("group file must hold a JSON object")
    try:
        order = int(payload["order"])
        table = payload["table"]
    except (KeyError, TypeError, ValueError):
        raise ValidationError('group file needs integer "order" and "table"') from None
    if (not isinstance(table, list) or len(table) != order
            or any(not isinstance(r, list) or len(r) != order for r in table)):
        raise ValidationError("table must be an order x order array of indices")
    return FiniteGroup(np.array(table, dtype=np.int64))


def load_group(source: str) -> FiniteGroup:
    """Resolve 'builtin:<name>' or a JSON file path to a group."""
    if source.startswith("builtin:"):
        return builtin_group(source.split(":", 1)[1])
    try:
        with open(source) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read group file {source}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"group file {source} is not valid JSON: {exc}") from None
    return group_from_json(payload)
