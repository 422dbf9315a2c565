"""One benchmark process: set up, run the timed part, then check the answers.

Started by run.py with the path of a JSON spec; writes its result JSON to the
spec's "result" path. A fresh process per run, because cohlat keeps a
module-global resolution cache that would otherwise carry over.

Spec keys: workload, mode ("setup" stops once inputs are ready, "run" goes
on), trace (0/1), seconds, seed, groups (file stem -> path), workdir, tag
(names this process's files), result, spans (where a traced run writes
its spans).
"""
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from inputs import (POOL_BLOCKS, RING_MAX_DEGREE, RING_MODULUS_EXP,
                    ring_query_pool)
from tracer import Tracer, load_layers, per_layer_units

EXPECTED_FILE = Path(__file__).with_name("expected.json")


class Run:
    """What the timed part of one run produced."""

    def __init__(self):
        self.units = []        # seconds per unit of work; solve_s is the median
        self.latencies = []    # seconds per operation
        self.answers = []      # one entry per operation, in order


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- invariants of the cohomology ring -----------------------------------------
# They do not depend on how the group's elements are labelled, and they are
# non-zero where cup, restriction and transfer are, so an implementation
# that returns zeros of the right shape fails them.

def f2_rank(rows) -> int:
    """Rank over F2 by plain elimination, independent of cohlat.linalg."""
    if not len(rows):
        return 0
    m = np.array(rows, dtype=np.int64) % 2
    rank = 0
    for col in range(m.shape[1]):
        if rank == m.shape[0]:
            break
        piv = np.flatnonzero(m[rank:, col])
        if not piv.size:
            continue
        m[[rank, rank + piv[0]]] = m[[rank + piv[0], rank]]
        hit = np.flatnonzero(m[:, col])
        m[hit[hit != rank]] ^= m[rank]
        rank += 1
    return rank


def _unit_vectors(dim):
    return list(np.eye(dim, dtype=np.int64))


def cup_ranks(gc, pairs) -> dict:
    """Rank of each cup map H^a x H^b -> H^(a+b), keyed "a,b"."""
    return {f"{a},{b}": f2_rank([gc.cup(a, x, b, y)
                                 for x in _unit_vectors(gc.h_dim(a))
                                 for y in _unit_vectors(gc.h_dim(b))])
            for a, b in pairs}


def link_ranks(links, degrees) -> list:
    """Sorted [order, restriction ranks, transfer ranks] per subgroup link."""
    out = []
    for link in links:
        res = [f2_rank([link.restrict(d, x) for x in
                        _unit_vectors(link.parent.h_dim(d))]) for d in degrees]
        cor = [f2_rank([link.transfer(d, x) for x in
                        _unit_vectors(link.hco.h_dim(d))]) for d in degrees]
        out.append([link.sub.order, res, cor])
    return sorted(out)


# -- criterion-sz8 ------------------------------------------------------------

# cup maps and subgroup links the criterion check recomputes on the CLI's
# cached resolution: cheap, and non-zero even though the order-64 group's
# transfer and triple-cup spans are zero
CRITERION_CUP_PAIRS = [(1, 1), (1, 2)]
CRITERION_LINK_DEGREES = range(4)


def setup_criterion(spec):
    """Imports only: the CLI loads the group itself, inside the timed part."""
    import cohlat.cli  # noqa: F401
    return {"path": spec["groups"]["sz8"],
            "out": str(Path(spec["workdir"]) / f"report-{spec['tag']}.json")}


def run_criterion(state, seconds):
    from cohlat import cli
    run = Run()
    t0 = time.perf_counter()
    code = cli.main(["criterion", "--group", state["path"], "--which", "b",
                     "--out", state["out"]])
    run.units.append(time.perf_counter() - t0)
    run.latencies.append(run.units[0])
    run.answers.append(code)
    return run


def index2_links(gc, max_degree):
    from cohlat.cohomology import SubgroupLink
    from cohlat.groups import subgroup_classes
    return [SubgroupLink(gc, sub, max_degree=max_degree)
            for sub in subgroup_classes(gc.group) if sub.index == 2]


def check_criterion(state, run, expected):
    """Report matches the un-relabelled built-in; witness re-checked live;
    cup and index-2 link ranks recomputed on the cached resolution."""
    from cohlat.cohomology import GroupCohomology
    from cohlat.groups import load_group
    from cohlat.linalg import Subspace
    if run.answers[0] != 0:
        return 1, None
    raw = Path(state["out"]).read_bytes()
    report = json.loads(raw)
    res = report["result"]
    bad = [k for k, v in expected["result"].items() if res.get(k) != v]
    if res["transfer_span"]["dim"] != expected["transfer_span_dim"]:
        bad.append("transfer_span.dim")
    subs = sorted([s["order"], s["index"], s["h1_dim"], s["integral_h2_dim"],
                   s["span_dim"]] for s in res["subgroups"])
    if subs != expected["subgroups"]:
        bad.append("subgroups")
    cfg = res["config"]
    gc = GroupCohomology(load_group(state["path"]), cfg["max_degree"],
                         modulus_exp=cfg["modulus_exp"])
    if cup_ranks(gc, CRITERION_CUP_PAIRS) != expected["cup_ranks"]:
        bad.append("cup_ranks")
    links = index2_links(gc, max(CRITERION_LINK_DEGREES))
    if link_ranks(links, CRITERION_LINK_DEGREES) != expected["link_ranks"]:
        bad.append("link_ranks")
    witness = res["witness_b"]
    if witness is not None:
        w = np.array(witness, dtype=np.int64)
        basis = np.array(res["transfer_span"]["basis"], dtype=np.int64)
        span = (Subspace.span(basis, gc.h_dim(3)) if basis.size
                else Subspace.zero(gc.h_dim(3)))
        if not gc.sq1_image(3).contains_vector(w) or span.contains_vector(w):
            bad.append("witness_b")
    for key in bad:
        print(f"check failed: criterion-sz8 {key}", file=sys.stderr)
    return int(bool(bad)), hashlib.sha256(raw).hexdigest()


# -- phi-small ----------------------------------------------------------------

def setup_phi(spec):
    from cohlat.groups import load_group
    return {stem: load_group(path) for stem, path in spec["groups"].items()}


def run_phi(groups, seconds):
    from cohlat.errors import CohlatError
    from cohlat.lattices import phi
    run = Run()
    deadline = time.perf_counter() + seconds
    while not run.units or time.perf_counter() < deadline:
        t_pass = time.perf_counter()
        for stem, group in groups.items():
            try:
                out = phi(group)
            except CohlatError as exc:
                out = f"error: {exc}"
            run.answers.append((stem, out))
        run.units.append(time.perf_counter() - t_pass)
        run.latencies.append(run.units[-1])
    return run


def check_phi(groups, run, expected):
    failed = 0
    for stem, out in run.answers:
        if out != expected[stem]:
            print(f"check failed: phi({stem}) = {out}", file=sys.stderr)
            failed += 1
    return failed, _digest(run.answers[:len(groups)])


# -- ring-session -------------------------------------------------------------

def setup_ring(spec):
    from cohlat.cohomology import GroupCohomology, SubgroupLink
    from cohlat.groups import load_group, subgroup_classes
    group = load_group(spec["groups"]["C2xD8"])
    gc = GroupCohomology(group, RING_MAX_DEGREE, modulus_exp=RING_MODULUS_EXP)
    links = [SubgroupLink(gc, sub) for sub in subgroup_classes(group)
             if sub.order < group.order]
    pool = ring_query_pool(spec["seed"], gc.dims,
                           [link.hco.dims for link in links])
    return {"gc": gc, "links": links, "pool": pool}


def _ask(state, q):
    gc, links = state["gc"], state["links"]
    kind = q[0]
    if kind == "cup":
        return gc.cup(q[1], q[2], q[3], q[4])
    if kind == "sq1":
        return gc.sq1(q[1], q[2])
    if kind == "bockstein":
        return gc.bockstein(q[1], q[2], q[3])
    if kind == "restrict":
        return links[q[1]].restrict(q[2], q[3])
    if kind == "transfer":
        return links[q[1]].transfer(q[2], q[3])
    if kind == "invariants":
        return gc.cohomology_invariants(q[1], q[2])
    return gc.integral_reduction_image(q[1]).dim


def run_ring(state, seconds):
    """Closed loop of whole blocks until the deadline, at least one pool cycle
    (1000 queries, so the 99th percentile has ten samples beyond it)."""
    from cohlat.errors import CohlatError
    run = Run()
    pool = state["pool"]
    deadline = time.perf_counter() + seconds
    b = 0
    while b < POOL_BLOCKS or time.perf_counter() < deadline:
        t_block = time.perf_counter()
        for q in pool[b % POOL_BLOCKS]:
            t0 = time.perf_counter()
            try:
                out = _ask(state, q)
            except CohlatError as exc:
                out = f"error: {exc}"
            run.latencies.append(time.perf_counter() - t0)
            run.answers.append(out)
        run.units.append(time.perf_counter() - t_block)
        b += 1
    return run


def _ring_check(state, q, out, expected) -> bool:
    gc, links = state["gc"], state["links"]
    kind = q[0]
    if isinstance(out, str):
        return False
    if kind == "cup":
        return np.array_equal(out, gc.cup(q[3], q[4], q[1], q[2]))
    if kind == "sq1":
        return not gc.sq1(q[1] + 1, out).any()
    if kind == "bockstein":
        m = q[3]
        return not (out @ gc.delta(q[1] + 1, m) % (1 << m)).any()
    if kind == "restrict":
        return not links[q[1]].transfer(q[2], out).any()
    if kind == "transfer":
        return out.shape == (gc.h_dim(q[2]),)
    if kind == "invariants":
        return out == expected["invariants"][q[1]][q[2] - 1]
    return out == expected["integral_image_dims"][q[1]]


RING_CUP_PAIRS = [(a, b) for a in range(1, RING_MAX_DEGREE)
                  for b in range(a, RING_MAX_DEGREE + 1 - a)]
RING_LINK_DEGREES = range(RING_MAX_DEGREE + 1)


def check_ring(state, run, expected):
    """The ring's invariants must match; then each distinct query is checked
    once, and its repeats must match it. A wrong invariant fails every answer.
    """
    gc = state["gc"]
    for key, got in (
            ("dims", gc.dims),
            ("cup_ranks", cup_ranks(gc, RING_CUP_PAIRS)),
            ("link_ranks", link_ranks(state["links"], RING_LINK_DEGREES))):
        if got != expected[key]:
            print(f"check failed: ring-session {key}", file=sys.stderr)
            return len(run.answers), None
    failed = 0
    queries = [q for block in state["pool"] for q in block]
    first = run.answers[:len(queries)]
    ok = [_ring_check(state, q, out, expected)
          for q, out in zip(queries, first)]
    for i, out in enumerate(run.answers):
        j = i % len(queries)
        if not ok[j] or not _same(out, first[j]):
            failed += 1
    if failed:
        print(f"check failed: ring-session, {failed} answers", file=sys.stderr)
    return failed, _digest([_plain(out) for out in first])


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) \
            and np.array_equal(a, b)
    return a == b


def _plain(out):
    return out.tolist() if isinstance(out, np.ndarray) else out


WORKLOADS = {
    "criterion-sz8": (setup_criterion, run_criterion, check_criterion),
    "phi-small": (setup_phi, run_phi, check_phi),
    "ring-session": (setup_ring, run_ring, check_ring),
}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    setup, run_fn, check = WORKLOADS[spec["workload"]]
    import cohlat  # noqa: F401  (imports are part of set-up)
    tracer = None
    if spec["trace"]:
        tracer = Tracer(load_layers())
        tracer.install()
    state = setup(spec)
    ready_ns = time.monotonic_ns()
    result = {"ready_ns": ready_ns}
    if spec["mode"] == "run":
        start = time.perf_counter_ns()
        run = run_fn(state, spec["seconds"])
        end = time.perf_counter_ns()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        expected = json.loads(EXPECTED_FILE.read_text())[spec["workload"]]
        if tracer is not None:
            # before the check, whose own calls are not part of the run
            result["layers"] = tracer.metrics(per_layer_units(), start, end)
            tracer.write_spans(Path(spec["spans"]))
        failed, digest = check(state, run, expected)
        result.update({
            "units_s": run.units,
            "latencies_s": run.latencies,
            "attempted": len(run.answers),
            "failed": failed,
            "peak_rss_mb": peak_kib / 1024.0,
            "digest": digest,
        })
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
