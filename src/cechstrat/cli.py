"""Command-line surface.

Subcommands: enumerate, cech, filtration, dominates, stratum, track,
frontier-demo.  Exit codes: 0 success, 2 validation error, 3 inconclusive
frontier verdict.  frontier-demo's --seed can also be supplied through the
environment as CECHSTRAT_SEED (the flag wins).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import paths, scposet, strat
from .cech import cech_filtration
from .cech import cech_complex as build_cech_complex
from .complexes import SimplicialComplex
from .geometry import PointConfig, RanPoint

def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cechstrat",
        description="Cech complexes, the domination order on simplicial "
        "complex classes, and stratified configuration paths.",
        epilog="Environment: CECHSTRAT_SEED mirrors frontier-demo's --seed.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="all classes up to a vertex bound, with Hasse diagram")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--dot", help="write the Hasse diagram as DOT to this file")
    p.add_argument("--json", dest="json_file", help="write the universe as JSON to this file")

    p = sub.add_parser("cech", help="Cech complex of a configuration")
    p.add_argument("--points", required=True, help="point-configuration JSON file")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--max-dim", type=int, default=None)

    p = sub.add_parser("filtration", help="full Cech filtration of a configuration")
    p.add_argument("--points", required=True)
    p.add_argument("--max-dim", type=int, default=None)

    p = sub.add_parser("dominates", help="witness map between two complexes, if any")
    p.add_argument("--a", required=True, help="complex JSON file (candidate dominator)")
    p.add_argument("--b", required=True, help="complex JSON file (candidate dominated)")

    p = sub.add_parser("stratum",
                       help="stratum label and safe ball of a configuration-radius pair")
    p.add_argument("--points", required=True)
    p.add_argument("--radius", type=float, required=True)

    p = sub.add_parser("track", help="zigzag along a path")
    p.add_argument("--path", required=True, help="path JSON file")
    p.add_argument("--resolution", type=float, required=True,
                   help="largest grid step where points move; stretches where no "
                        "point moves are solved exactly and ignore it")
    p.add_argument("--out", help="write the zigzag JSON here instead of stdout")
    p.add_argument("--as-filtration", action="store_true",
                   help="also attempt to read the zigzag as a filtration")

    p = sub.add_parser("frontier-demo",
                       help="frontier-condition violation on the two-point family")
    p.add_argument("--seed", type=int,
                   help="seed for the Monte-Carlo sampling (default: CECHSTRAT_SEED, else 0)")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--refined", action="store_true",
                   help="use degeneracy-refined labels instead of coarse classes")
    return parser


def _cmd_enumerate(args) -> int:
    universe = scposet.enumerate_classes(args.max_vertices)
    diagram = scposet.hasse(universe)
    sys.stdout.write(f"classes: {len(universe.classes)}\n")
    sys.stdout.write(f"cover_edges: {len(diagram.cover_edges)}\n")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(scposet.export_dot(diagram))
    if args.json_file:
        with open(args.json_file, "w") as fh:
            fh.write(_dump(universe.to_json_dict()))
    return 0


def _cmd_cech(args) -> int:
    config = PointConfig.from_json_dict(_load_json(args.points))
    complex_ = build_cech_complex(RanPoint(config, args.radius), args.max_dim)
    sys.stdout.write(_dump(complex_.to_json_dict()))
    return 0


def _cmd_filtration(args) -> int:
    config = PointConfig.from_json_dict(_load_json(args.points))
    filt = cech_filtration(config, args.max_dim)
    sys.stdout.write(_dump(filt.to_json_dict()))
    return 0


def _cmd_dominates(args) -> int:
    a = SimplicialComplex.from_json_dict(_load_json(args.a))
    b = SimplicialComplex.from_json_dict(_load_json(args.b))
    witness = scposet.dominates(a, b)
    if witness is None:
        sys.stdout.write("none\n")
    else:
        sys.stdout.write(_dump(witness.to_json_dict()))
    return 0


def _cmd_stratum(args) -> int:
    config = PointConfig.from_json_dict(_load_json(args.points))
    x = RanPoint(config, args.radius)
    label = strat.stratum_label(x)
    ball = strat.tilde_r(x)
    data = label.to_json_dict()
    data["safe_radius"] = ball.safe_radius
    data["r_tilde"] = ball.r_tilde
    data["case"] = ball.case
    sys.stdout.write(_dump(data))
    return 0


def _cmd_track(args) -> int:
    path = paths.PLPath.from_json_dict(_load_json(args.path))
    diagram = paths.zigzag(path, args.resolution)
    data = diagram.to_json_dict()
    if args.as_filtration:
        chain = paths.as_filtration(diagram)
        data["filtration"] = (
            None if chain is None else {
                "classes": [c.to_json_dict() for c in chain.classes],
                "maps": [m.to_json_dict() for m in chain.maps],
            }
        )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_dump(data))
    else:
        sys.stdout.write(_dump(data))
    return 0


def _cmd_frontier_demo(args) -> int:
    seed = args.seed
    if seed is None:  # the flag wins over the variable
        raw = os.environ.get("CECHSTRAT_SEED", "0")
        try:
            seed = int(raw)
        except ValueError as exc:
            raise ValueError(f"invalid CECHSTRAT_SEED={raw!r}: {exc}") from None
    family = strat.two_point_line_family()
    config = PointConfig(1, ((0.0,), (1.0,)))
    label_a = strat.stratum_label(RanPoint(config, 0.4))
    label_b = strat.stratum_label(RanPoint(config, 0.6))
    report = strat.frontier_check(family, label_a, label_b, n_samples=args.samples,
                                  refined=args.refined, seed=seed)
    sys.stdout.write(_dump(report.to_json_dict()))
    return 3 if report.verdict == "inconclusive" else 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "cech": _cmd_cech,
    "filtration": _cmd_filtration,
    "dominates": _cmd_dominates,
    "stratum": _cmd_stratum,
    "track": _cmd_track,
    "frontier-demo": _cmd_frontier_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
