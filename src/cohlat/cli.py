"""Command-line front end: parse sources, orchestrate, report deterministically."""
import argparse
import json
import sys
from typing import Optional

from cohlat import __version__
from cohlat.cohomology import GroupCohomology, default_modulus_exp
from cohlat.criterion import CriterionConfig, evaluate_criterion
from cohlat.errors import (BudgetExceeded, CohlatError, InternalInvariant,
                           LiftFailed, ValidationError)
from cohlat.groups import FiniteGroup, load_group
from cohlat.lattices import (GLattice, build_mnq, builtin_lattice,
                             lambda2_regular_decomposition, lattice_from_json,
                             phi)

DEFAULT_MAX_DEGREE = 4


def load_lattice(source: str, group: FiniteGroup) -> GLattice:
    """Resolve 'builtin:<name>' or a JSON file path to a lattice over group."""
    if source.startswith("builtin:"):
        return builtin_lattice(source.split(":", 1)[1], group)
    try:
        with open(source) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(
            f"cannot read lattice file {source}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"lattice file {source} is not valid JSON: {exc}") from None
    return lattice_from_json(group, payload)


def _envelope(command: str, args, group: FiniteGroup, config: dict,
              result: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "group": {
            "source": args.group,
            "order": group.order,
            "hash": group.hash_digest(),
        },
        "config": config,
        "result": result,
    }


def cmd_cohomology(args) -> dict:
    group = load_group(args.group)
    k = args.modulus_exp
    if k is None:
        k = default_modulus_exp(group)
    top = args.max_degree - 1
    if top < 0:
        raise ValidationError("max-degree must be positive")
    gc = GroupCohomology(group, top, modulus_exp=k)
    dims = [gc.h_dim(i) for i in range(top + 1)]
    config = {"modulus_exp": k, "max_degree": args.max_degree}
    return _envelope("cohomology", args, group, config, {"dims": dims})


def cmd_criterion(args) -> dict:
    if args.threads < 1:
        raise ValidationError("threads must be positive")
    group = load_group(args.group)
    cfg = CriterionConfig(modulus_exp=args.modulus_exp,
                          max_degree=args.max_degree, which=args.which)
    report = evaluate_criterion(group, cfg)
    config = {"modulus_exp": report.modulus_exp,
              "max_degree": report.max_degree, "which": report.which}
    return _envelope("criterion", args, group, config, report.to_dict())


def cmd_phi(args) -> dict:
    group = load_group(args.group)
    lat = load_lattice(args.lattice, group)
    out = phi(group, lat)
    config = {"lattice": args.lattice}
    return _envelope("phi", args, group, config, {
        "invariant_factors": out,
        "lattice_rank": lat.rank,
    })


def cmd_lattice_info(args) -> dict:
    group = load_group(args.group)
    lat = load_lattice(args.lattice, group)
    dec = lambda2_regular_decomposition(group)
    data = build_mnq(group)
    config = {"lattice": args.lattice}
    return _envelope("lattice-info", args, group, config, {
        "lattice": {
            "rank": lat.rank,
            "permutation": lat.permutation,
            "wedge_square_rank": lat.rank * (lat.rank - 1) // 2,
        },
        "regular_census": {
            "involutions": len(dec.involutions),
            "inverse_pairs": len(dec.pair_reps),
            "wedge_rank": dec.rank,
        },
        "sum_map": {
            "m_rank": data.m_rank,
            "torsion_free": data.m_torsion_free,
        },
    })


def _text_lines(payload: dict, prefix: str = "") -> list:
    lines = []
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            lines.extend(_text_lines(val, f"{prefix}{key}."))
        elif isinstance(val, list) and val and isinstance(val[0], (dict, list)):
            lines.append(f"{prefix}{key}: {len(val)} entries")
        else:
            lines.append(f"{prefix}{key}: {val}")
    return lines


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "\n".join(_text_lines(payload)) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohlat",
        description="Exact 2-group cohomology, transfer criteria, and "
                    "lattice obstructions.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", required=True,
                       help="'builtin:<name>' or a JSON group file")
        p.add_argument("--output", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report here")

    p = subs.add_parser("cohomology", help="dimensions of H^i(G, Z/2^m)")
    common(p)
    p.add_argument("--modulus-exp", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE,
                   help="report degrees 0 .. max-degree-1")
    p.set_defaults(run=cmd_cohomology)

    p = subs.add_parser("criterion", help="transfer-span obstruction test")
    common(p)
    p.add_argument("--which", choices=("a", "b", "both"), default="both")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: the run is serial")
    p.add_argument("--modulus-exp", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(run=cmd_criterion)

    p = subs.add_parser("phi", help="obstruction invariant factors of a lattice")
    common(p)
    p.add_argument("--lattice", default="builtin:M",
                   help="'builtin:M|regular|sign' or a JSON lattice file")
    p.set_defaults(run=cmd_phi)

    p = subs.add_parser("lattice-info", help="ranks, census, torsion-freeness")
    common(p)
    p.add_argument("--lattice", required=True)
    p.set_defaults(run=cmd_lattice_info)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except (InternalInvariant, LiftFailed, CohlatError) as exc:
        print(f"internal: {exc}", file=sys.stderr)
        return 4
    text = render(payload, args.output)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
