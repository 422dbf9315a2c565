"""Regenerate expected.json: the answers of the un-relabelled inputs.

    PYTHONPATH=src python3 perfbench/make_expected.py

Takes about a minute, most of it the order-64 criterion run. The
benchmark compares every relabelled run against these answers, which do
not depend on how the elements are labelled. The ranks of the cup,
restriction and transfer maps are among them: they are non-zero, so a cup
or transfer that returns zeros fails the check.
"""
import json
import sys
from pathlib import Path

from cohlat.cohomology import GroupCohomology, SubgroupLink
from cohlat.criterion import CriterionConfig, evaluate_criterion
from cohlat.groups import subgroup_classes
from cohlat.lattices import phi

from inputs import GROUPS, RING_MAX_DEGREE, RING_MODULUS_EXP, base_group
from worker import (CRITERION_CUP_PAIRS, CRITERION_LINK_DEGREES,
                    RING_CUP_PAIRS, RING_LINK_DEGREES, cup_ranks,
                    index2_links, link_ranks)

# criterion-sz8 report fields that must not depend on the labelling
CRITERION_FIELDS = ("h_dims", "triple_cup_span_dim", "sq1_image_dim",
                    "integral_image_dim", "criterion_a", "criterion_b",
                    "nonzero_obstruction")


def criterion_expected():
    (names,) = GROUPS["criterion-sz8"].values()
    group = base_group(names)
    report = evaluate_criterion(group, CriterionConfig(which="b")).to_dict()
    cfg = report["config"]
    gc = GroupCohomology(group, cfg["max_degree"],
                         modulus_exp=cfg["modulus_exp"])
    links = index2_links(gc, max(CRITERION_LINK_DEGREES))
    return {
        "cup_ranks": cup_ranks(gc, CRITERION_CUP_PAIRS),
        "link_ranks": link_ranks(links, CRITERION_LINK_DEGREES),
        "result": {k: report[k] for k in CRITERION_FIELDS},
        "transfer_span_dim": report["transfer_span"]["dim"],
        "subgroups": sorted([s["order"], s["index"], s["h1_dim"],
                             s["integral_h2_dim"], s["span_dim"]]
                            for s in report["subgroups"]),
    }


def ring_expected():
    (names,) = GROUPS["ring-session"].values()
    group = base_group(names)
    gc = GroupCohomology(group, RING_MAX_DEGREE, modulus_exp=RING_MODULUS_EXP)
    links = [SubgroupLink(gc, sub) for sub in subgroup_classes(group)
             if sub.order < group.order]
    degrees = range(RING_MAX_DEGREE)
    return {
        "dims": gc.dims,
        "cup_ranks": cup_ranks(gc, RING_CUP_PAIRS),
        "link_ranks": link_ranks(links, RING_LINK_DEGREES),
        "invariants": [[gc.cohomology_invariants(d, m)
                        for m in range(1, RING_MODULUS_EXP + 1)]
                       for d in degrees],
        "integral_image_dims": [gc.integral_reduction_image(d).dim
                                for d in degrees],
    }


def main() -> int:
    expected = {
        "criterion-sz8": criterion_expected(),
        "phi-small": {stem: phi(base_group(names))
                      for stem, names in GROUPS["phi-small"].items()},
        "ring-session": ring_expected(),
    }
    path = Path(__file__).with_name("expected.json")
    path.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
