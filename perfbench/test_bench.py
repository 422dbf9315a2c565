"""Quick checks of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

Relabelling must leave every invariant the benchmark checks unchanged, a
wrong answer or a cup or transfer that returns zeros must count as a
failure, and the tracer must rebind every import of a wrapped function.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cohlat.cohomology import GroupCohomology, SubgroupLink
from cohlat.criterion import CriterionConfig, evaluate_criterion
from cohlat.groups import builtin_group, load_group, subgroup_classes
from cohlat.lattices import phi

from run import tail_latency
from inputs import GROUPS, random_relabelling, relabel_table, rng_for, \
    write_group_files
from tracer import load_layers
from worker import (EXPECTED_FILE, Run, _ask, check_phi, check_ring,
                    cup_ranks, link_ranks, setup_ring)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SMALL = ["C2", "C4", "C8", "V4", "C4xC2", "C2xC2xC2", "D4", "Q8"]
INVARIANTS = ("h_dims", "triple_cup_span_dim", "sq1_image_dim",
              "integral_image_dim", "criterion_a", "criterion_b")


def relabelled(name, seed, tmp_path):
    table = builtin_group(name).table
    perm = random_relabelling(table.shape[0], rng_for(seed, "relabel"))
    path = tmp_path / f"{name}-{seed}.json"
    path.write_text(json.dumps({"order": int(table.shape[0]),
                                "table": relabel_table(table, perm).tolist()}))
    return load_group(str(path)), perm


def test_relabelling_is_an_isomorphism(tmp_path):
    base = builtin_group("D4")
    group, perm = relabelled("D4", 3, tmp_path)
    assert perm[0] == 0
    assert np.array_equal(group.table[np.ix_(perm, perm)], perm[base.table])


@pytest.mark.parametrize("name", SMALL)
def test_criterion_invariants_survive_relabelling(name, tmp_path):
    def invariants(group):
        rep = evaluate_criterion(group, CriterionConfig(which="both"))
        out = rep.to_dict()
        return ([out[k] for k in INVARIANTS], out["transfer_span"]["dim"],
                sorted((s.order, s.h1_dim, s.integral_h2_dim, s.span_dim)
                       for s in rep.subgroups))
    want = invariants(builtin_group(name))
    for seed in (0, 1):
        assert invariants(relabelled(name, seed, tmp_path)[0]) == want


@pytest.mark.parametrize("name", ["C4xC2", "D4", "Q8"])
def test_rank_invariants_survive_relabelling(name, tmp_path):
    def ranks(group):
        gc = GroupCohomology(group, 3)
        links = [SubgroupLink(gc, sub) for sub in subgroup_classes(group)
                 if sub.order < group.order]
        return cup_ranks(gc, [(1, 1), (1, 2)]), link_ranks(links, range(4))
    want = ranks(builtin_group(name))
    assert any(want[0].values()) and any(any(cor) for _, _, cor in want[1])
    for seed in (0, 1):
        assert ranks(relabelled(name, seed, tmp_path)[0]) == want


@pytest.mark.parametrize("name", ["C2", "C4"])
def test_phi_survives_relabelling(name, tmp_path):
    assert phi(relabelled(name, 0, tmp_path)[0]) == phi(builtin_group(name))


def test_generated_files_load(tmp_path):
    for workload in GROUPS:
        (tmp_path / "again").mkdir(exist_ok=True)
        paths = write_group_files(workload, 5, tmp_path)
        again = write_group_files(workload, 5, tmp_path / "again")
        for stem, path in paths.items():
            assert load_group(path).order > 1
            assert Path(path).read_text() == Path(again[stem]).read_text()


def test_wrong_answer_counts_as_failure():
    run = Run()
    run.answers = [("C2", []), ("C4", [2])]
    expected = json.loads(EXPECTED_FILE.read_text())["phi-small"]
    assert check_phi({"C2": None, "C4": None}, run, expected)[0] == 1


@pytest.fixture(scope="module")
def ring(tmp_path_factory):
    """A ring-session set-up and its first few answers."""
    workdir = tmp_path_factory.mktemp("ring")
    state = setup_ring({"seed": 0, "groups": write_group_files(
        "ring-session", 0, workdir)})
    run = Run()
    run.answers = [_ask(state, q) for q in state["pool"][0][:5]]
    return state, run, json.loads(EXPECTED_FILE.read_text())["ring-session"]


def test_ring_check_passes(ring):
    assert check_ring(*ring)[0] == 0


def test_zero_cup_is_caught(ring, monkeypatch):
    monkeypatch.setattr(GroupCohomology, "cup", lambda self, a_deg, a, b_deg,
                        b: np.zeros(self.h_dim(a_deg + b_deg), dtype=np.int64))
    assert check_ring(*ring)[0] > 0


def test_zero_transfer_is_caught(ring, monkeypatch):
    monkeypatch.setattr(SubgroupLink, "transfer", lambda self, degree, vec:
                        np.zeros(self.parent.h_dim(degree), dtype=np.int64))
    assert check_ring(*ring)[0] > 0


def test_p99_only_where_the_run_has_enough_operations():
    few = [1000.0] * 13 + [5000.0]
    assert tail_latency(few) == 1000.0
    # ten samples beyond the 99th percentile of 1000 do not reach it; eleven do
    assert tail_latency([1.0] * 990 + [50.0] * 10) == 1.0
    assert tail_latency([1.0] * 989 + [50.0] * 11) == 50.0


def test_tracer_rebinds_every_import():
    code = (
        "import sys, cohlat\n"
        "from tracer import Tracer, load_layers\n"
        "layers = load_layers()\n"
        "import importlib\n"
        "originals = []\n"
        "for spec in layers['spans'].values():\n"
        "    mod, attr = spec['target'].split(':')\n"
        "    if '.' not in attr:\n"
        "        originals.append(getattr(importlib.import_module(mod), attr))\n"
        "Tracer(layers).install()\n"
        "left = [f'{n}.{k}' for n, m in sys.modules.items()\n"
        "        if n.startswith('cohlat') for k, v in vars(m).items()\n"
        "        if any(v is o for o in originals)]\n"
        "print(left)\n")
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{BENCH_DIR}")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
