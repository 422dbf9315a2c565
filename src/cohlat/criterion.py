"""Degree-three obstruction criterion from transfer spans.

The evaluated question: do all integrally-liftable degree-3 classes (and in
the sharper variant, all first Steenrod squares of degree-2 classes) already
lie in the span of transfers of products x . u, where x runs over degree-1
classes of a subgroup and u over integrally-liftable degree-2 classes?
A "no" certifies a nonzero obstruction for the group.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cohomology import GroupCohomology, SubgroupLink, default_modulus_exp
from .errors import InternalInvariant, ValidationError
from .groups import FiniteGroup, Subgroup, subgroup_classes
from .linalg import Subspace

WHICH_CHOICES = ("a", "b", "both")
MIN_MAX_DEGREE = {"a": 5, "b": 4, "both": 5}


@dataclass(frozen=True)
class CriterionConfig:
    """Run parameters; None fields resolve to per-group defaults."""
    modulus_exp: Optional[int] = None
    max_degree: Optional[int] = None
    which: str = "both"

    def resolve(self, group: FiniteGroup) -> "CriterionConfig":
        if self.which not in WHICH_CHOICES:
            raise ValidationError(
                f"which must be one of {', '.join(WHICH_CHOICES)}")
        k = self.modulus_exp
        if k is None:
            k = default_modulus_exp(group)
        deg = self.max_degree
        if deg is None:
            deg = MIN_MAX_DEGREE[self.which]
        if deg < MIN_MAX_DEGREE[self.which]:
            raise ValidationError(
                f"max_degree {deg} too small for variant {self.which!r}; "
                f"need >= {MIN_MAX_DEGREE[self.which]}")
        return CriterionConfig(k, deg, self.which)


@dataclass
class SubgroupTerm:
    """One conjugacy class's contribution to the transfer span."""
    order: int
    index: int
    representative: Tuple[int, ...]
    h1_dim: int
    integral_h2_dim: int
    span_dim: int

    def to_dict(self) -> Dict:
        return {
            "order": self.order,
            "index": self.index,
            "representative": list(self.representative),
            "h1_dim": self.h1_dim,
            "integral_h2_dim": self.integral_h2_dim,
            "span_dim": self.span_dim,
        }


@dataclass
class CriterionReport:
    group_order: int
    group_hash: str
    modulus_exp: int
    max_degree: int
    which: str
    h_dims: List[int]
    transfer_span_dim: int
    transfer_span_basis: List[List[int]]
    triple_cup_span_dim: int
    sq1_image_dim: Optional[int]
    integral_image_dim: Optional[int]
    criterion_a: Optional[bool]
    criterion_b: Optional[bool]
    witness_a: Optional[List[int]]
    witness_b: Optional[List[int]]
    subgroups: List[SubgroupTerm] = field(default_factory=list)

    @property
    def nonzero_obstruction(self) -> bool:
        return bool(self.criterion_a) or bool(self.criterion_b)

    def to_dict(self) -> Dict:
        return {
            "group": {"order": self.group_order, "hash": self.group_hash},
            "config": {
                "modulus_exp": self.modulus_exp,
                "max_degree": self.max_degree,
                "which": self.which,
            },
            "h_dims": self.h_dims,
            "transfer_span": {
                "dim": self.transfer_span_dim,
                "basis": self.transfer_span_basis,
            },
            "triple_cup_span_dim": self.triple_cup_span_dim,
            "sq1_image_dim": self.sq1_image_dim,
            "integral_image_dim": self.integral_image_dim,
            "criterion_a": self.criterion_a,
            "criterion_b": self.criterion_b,
            "witness_a": self.witness_a,
            "witness_b": self.witness_b,
            "nonzero_obstruction": self.nonzero_obstruction,
            "subgroups": [s.to_dict() for s in self.subgroups],
        }


def transfer_cup_image(gc: GroupCohomology, sub: Subgroup
                       ) -> Tuple[Subspace, SubgroupTerm]:
    """Span of transfers of x . u over one subgroup, x degree 1, u an
    integrally-liftable degree-2 class of the subgroup.

    The products x . u for all x are the columns of one cup map per u.
    """
    link = SubgroupLink(gc, sub, max_degree=3)
    hco = link.hco
    h1 = hco.h_dim(1)
    lift2 = hco.integral_reduction_image(2)
    rows = [link.transfer(3, w)
            for u in lift2.basis for w in hco.cup_map(1, 2, u).T]
    dim3 = gc.h_dim(3)
    span = Subspace.span(np.array(rows), dim3) if rows \
        else Subspace.zero(dim3)
    term = SubgroupTerm(sub.order, sub.index,
                        tuple(int(x) for x in sub.elements),
                        h1, lift2.dim, span.dim)
    return span, term


def transfer_cup_span(gc: GroupCohomology,
                      classes: Optional[Sequence[Subgroup]] = None
                      ) -> Tuple[Subspace, List[SubgroupTerm]]:
    """Union of per-class transfer spans over all subgroup classes."""
    if classes is None:
        classes = subgroup_classes(gc.group)
    total = Subspace.zero(gc.h_dim(3))
    terms = []
    for sub in classes:
        span, term = transfer_cup_image(gc, sub)
        total = total.union(span)
        terms.append(term)
    return total, terms


def triple_cup_span(gc: GroupCohomology) -> Subspace:
    """Span of all products of three degree-1 classes.

    Products of degree-1 classes commute, so e_i e_j e_l with i <= j <= l
    span it. Column i of the cup map of e_j is e_i e_j, and the cup map of
    e_l sends it to e_i e_j e_l: 2 r1 cup maps in all.
    """
    r1 = gc.h_dim(1)
    basis = np.eye(r1, dtype=np.int64)
    by1 = [gc.cup_map(1, 1, e) for e in basis]
    by2 = [gc.cup_map(2, 1, e) for e in basis]
    rows = [by2[l] @ by1[j][:, i] % 2
            for i in range(r1) for j in range(i, r1) for l in range(j, r1)]
    if not rows:
        return Subspace.zero(gc.h_dim(3))
    return Subspace.span(np.array(rows), gc.h_dim(3))


def _first_outside(space: Subspace, inside: Subspace) -> Optional[np.ndarray]:
    for row in space.basis:
        if not inside.contains_vector(row):
            return row
    return None


def evaluate_criterion(group: FiniteGroup,
                       config: CriterionConfig = CriterionConfig()
                       ) -> CriterionReport:
    """Full criterion run for one group."""
    cfg = config.resolve(group)
    gc = GroupCohomology(group, cfg.max_degree, modulus_exp=cfg.modulus_exp)
    span, terms = transfer_cup_span(gc)
    triple = triple_cup_span(gc)
    want_a = cfg.which in ("a", "both")
    want_b = cfg.which in ("b", "both")
    sq1_dim = integral_dim = None
    crit_a = crit_b = None
    wit_a = wit_b = None
    sq1_im = gc.sq1_image(3)
    if want_b:
        sq1_dim = sq1_im.dim
        out = _first_outside(sq1_im, span)
        crit_b = out is not None
        wit_b = [int(x) for x in out] if out is not None else None
    if want_a:
        pi2_im = gc.integral_reduction_image(3)
        if not pi2_im.contains(sq1_im):
            raise InternalInvariant(
                "squares of degree-2 classes must lift integrally")
        integral_dim = pi2_im.dim
        out = _first_outside(pi2_im, span)
        crit_a = out is not None
        wit_a = [int(x) for x in out] if out is not None else None
    if crit_a is not None and crit_b is not None and crit_b and not crit_a:
        raise InternalInvariant(
            "variant (b) implies variant (a); report disagrees")
    return CriterionReport(
        group_order=group.order,
        group_hash=group.hash_digest(),
        modulus_exp=cfg.modulus_exp,
        max_degree=cfg.max_degree,
        which=cfg.which,
        h_dims=[gc.h_dim(i) for i in range(4)],
        transfer_span_dim=span.dim,
        transfer_span_basis=span.basis_rows(),
        triple_cup_span_dim=triple.dim,
        sq1_image_dim=sq1_dim,
        integral_image_dim=integral_dim,
        criterion_a=crit_a,
        criterion_b=crit_b,
        witness_a=wit_a,
        witness_b=wit_b,
        subgroups=terms,
    )
