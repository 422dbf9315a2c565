"""Seeded benchmark inputs: relabelled group files and the ring query stream.

The seed never reaches the program. It picks a relabelling of each input
group's elements (a permutation fixing the identity, index 0) and the
ring-session query stream; the program only sees the JSON group files,
loaded through its public loader.
"""
import json

import numpy as np

from cohlat.groups import builtin_group, direct_product

# group files per workload: file stem -> how to build the un-relabelled group
GROUPS = {
    "criterion-sz8": {"sz8": ("sz8-sylow",)},
    "phi-small": {"C2": ("C2",), "C4": ("C4",)},
    "ring-session": {"C2xD8": ("C2", "D8")},
}

_STREAM_TAG = {"relabel": 1, "queries": 2}


def rng_for(seed: int, stream: str, copy: int = 0) -> np.random.Generator:
    """Independent generator per purpose and copy, so none shifts another."""
    return np.random.default_rng([seed, _STREAM_TAG[stream], copy])


def base_group(names):
    """The un-relabelled group: a built-in, or a direct product of built-ins."""
    group = builtin_group(names[0])
    for name in names[1:]:
        group = direct_product(group, builtin_group(name))
    return group


def relabel_table(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Table of the same group with element a renamed perm[a]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def random_relabelling(order: int, rng: np.random.Generator) -> np.ndarray:
    perm = np.zeros(order, dtype=np.int64)
    perm[1:] = 1 + rng.permutation(order - 1)
    return perm


def write_group_files(workload: str, seed: int, outdir, copy: int = 0) -> dict:
    """Write the workload's relabelled groups as JSON files; stem -> path.

    Each copy is an independent relabelling drawn from the same seed.
    """
    rng = rng_for(seed, "relabel", copy)
    paths = {}
    for stem, names in GROUPS[workload].items():
        table = base_group(names).table
        perm = random_relabelling(table.shape[0], rng)
        path = outdir / f"{stem}-{copy}.json"
        payload = {"order": int(table.shape[0]),
                   "table": relabel_table(table, perm).tolist()}
        path.write_text(json.dumps(payload))
        paths[stem] = str(path)
    return paths


CUP_DEGREES = [(a, b) for a in range(1, 5) for b in range(1, 6 - a)]
POOL_BLOCKS = 10
RING_MAX_DEGREE = 5
RING_MODULUS_EXP = 6


def _class(rng, dim):
    return rng.integers(0, 2, dim, dtype=np.int64)


def ring_query_pool(seed: int, dims, link_dims):
    """POOL_BLOCKS distinct shuffled blocks of 100 queries each.

    dims are the group's mod-2 cohomology dimensions; link_dims[j] those of
    the j-th proper subgroup class. Every block has the same composition
    (two cups per degree pair, 20 sq1, 10 Bocksteins, 15 restrictions, 15
    transfers, 15 invariant-factor and 5 integral-image queries), so any run
    of whole blocks has the same mix whatever the seed; only operands and
    order vary. cup(4, 1) is 2% of the stream and the slowest kind, so the
    99th percentile falls inside one kind. Queries cycle through the pool.
    """
    rng = rng_for(seed, "queries")
    pool = []
    for _ in range(POOL_BLOCKS):
        block = []
        for a, b in CUP_DEGREES:
            for _ in range(2):
                block.append(("cup", a, _class(rng, dims[a]),
                              b, _class(rng, dims[b])))
        for _ in range(20):
            d = int(rng.integers(1, 4))
            block.append(("sq1", d, _class(rng, dims[d])))
        for _ in range(10):
            d = int(rng.integers(1, 4))
            block.append(("bockstein", d, _class(rng, dims[d]),
                          int(rng.integers(1, RING_MODULUS_EXP))))
        for _ in range(15):
            j = int(rng.integers(len(link_dims)))
            d = int(rng.integers(1, RING_MAX_DEGREE + 1))
            block.append(("restrict", j, d, _class(rng, dims[d])))
        for _ in range(15):
            j = int(rng.integers(len(link_dims)))
            d = int(rng.integers(1, RING_MAX_DEGREE + 1))
            block.append(("transfer", j, d, _class(rng, link_dims[j][d])))
        for _ in range(15):
            block.append(("invariants", int(rng.integers(0, RING_MAX_DEGREE)),
                          int(rng.integers(1, RING_MODULUS_EXP + 1))))
        for _ in range(5):
            block.append(("integral_image",
                          int(rng.integers(0, RING_MAX_DEGREE))))
        order = rng.permutation(len(block))
        pool.append([block[i] for i in order])
    return pool
