"""Command-line frontend: reproducible runs with JSON (and DOT) reports.

Exit code protocol: 0 found/ok, 10 exhausted within the bound, 11 freeness
collision, 12 cross-check mismatch, 2 error (bad input, I/O, arithmetic,
runtime or memory failure, reported as an `error:` line on stderr).  Every
report embeds the full resolved configuration and input hashes; reruns with
an identical configuration are byte-identical apart from the timing field.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import pcp, reduction, resourcegraph
from .exact import ExactDensityMatrix, rat_from_str, rat_to_str
from .freerot import (
    FreePair,
    RotationParams,
    freeness_scan,
    make_free_pair,
    rotation_matrix,
)
from .util import canonical_json, sha256_hex

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_EXHAUSTED = 10
EXIT_COLLISION = 11
EXIT_MISMATCH = 12


def _parse_axis(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"axis must have three components, got {text!r}")
    return tuple(rat_from_str(p) for p in parts)


def _rotation_params(args) -> RotationParams:
    return RotationParams(
        cos_theta=rat_from_str(args.cos),
        sin_theta=rat_from_str(args.sin),
        axis_a=_parse_axis(args.axis_a),
        axis_b=_parse_axis(args.axis_b),
    )


def _build_pair(args) -> FreePair:
    params = _rotation_params(args)
    if getattr(args, "force", False):
        # Escape hatch for demonstrating collision detection on pairs that
        # fail the freeness preconditions.
        return FreePair(
            a=rotation_matrix(params.cos_theta, params.sin_theta, params.axis_a),
            b=rotation_matrix(params.cos_theta, params.sin_theta, params.axis_b),
            params=params,
        )
    return make_free_pair(params)


def _rotation_config(args) -> dict:
    params = _rotation_params(args)
    return params.to_json_dict()


def _load_instance(args):
    text = Path(args.instance).read_text()
    inst = pcp.parse_instance(text)
    return inst, {"instance": sha256_hex(text.encode())}


def _seed_state(selector: str) -> ExactDensityMatrix:
    if selector == "maxmixed":
        return ExactDensityMatrix.maximally_mixed(4)
    if selector == "spread":
        return resourcegraph.generic_seed(4)
    if selector.startswith("basis:"):
        k = int(selector.split(":", 1)[1])
        if not 0 <= k < 4:
            raise ValueError("basis index must lie in 0..3")
        return ExactDensityMatrix.basis_state(4, k)
    raise ValueError(f"unknown state selector {selector!r}")


def _target_state(selector: str, source: ExactDensityMatrix) -> ExactDensityMatrix:
    if selector.startswith("target:"):
        lam = rat_from_str(selector.split(":", 1)[1])
        return reduction.make_target(lam).apply(source)
    return _seed_state(selector)


def _cmd_verify_free(args):
    pair = _build_pair(args)
    report = freeness_scan(pair, args.max_len, node_budget=args.budget)
    config = {
        "subcommand": "verify-free",
        "rotation": _rotation_config(args),
        "max_len": args.max_len,
        "force": bool(args.force),
        "budget": args.budget,
    }
    code = EXIT_OK if report.is_empty else EXIT_COLLISION
    return code, config, {}, report.to_json_dict(), {}


def _cmd_solve_pcp(args):
    inst, hashes = _load_instance(args)
    outcome = pcp.solve_bounded(inst, args.depth, node_budget=args.budget)
    config = {
        "subcommand": "solve-pcp",
        "instance": args.instance,
        "depth": args.depth,
        "budget": args.budget,
    }
    code = EXIT_OK if outcome.status == pcp.FOUND else EXIT_EXHAUSTED
    return code, config, hashes, outcome.to_json_dict(), {}


def _cmd_compile(args):
    inst, hashes = _load_instance(args)
    gens = reduction.compile_generators(
        inst, _build_pair(args), rat_from_str(args.damping)
    )
    config = {
        "subcommand": "compile",
        "instance": args.instance,
        "rotation": _rotation_config(args),
        "damping": rat_to_str(rat_from_str(args.damping)),
    }
    return EXIT_OK, config, hashes, gens.to_json_dict(), {}


def _cmd_membership(args):
    inst, hashes = _load_instance(args)
    gens = reduction.compile_generators(
        inst, _build_pair(args), rat_from_str(args.damping)
    )
    result = reduction.membership_search(
        gens, args.depth, mode=args.mode, node_budget=args.budget
    )
    oracle = pcp.solve_bounded(inst, max(1, args.depth // 2), node_budget=args.budget)
    agree = (result.status == reduction.FOUND) == (oracle.status == pcp.FOUND)
    config = {
        "subcommand": "membership",
        "instance": args.instance,
        "rotation": _rotation_config(args),
        "damping": rat_to_str(rat_from_str(args.damping)),
        "depth": args.depth,
        "mode": args.mode,
        "budget": args.budget,
    }
    outcome = {
        "membership": result.to_json_dict(),
        "oracle": oracle.to_json_dict(),
        "statuses_agree": agree,
    }
    if not agree:
        code = EXIT_MISMATCH
    elif result.status == reduction.FOUND:
        code = EXIT_OK
    else:
        code = EXIT_EXHAUSTED
    return code, config, hashes, outcome, {}


def _cmd_reach(args):
    inst, hashes = _load_instance(args)
    gens = reduction.compile_generators(
        inst, _build_pair(args), rat_from_str(args.damping)
    )
    source = _seed_state(getattr(args, "from_state"))
    target = _target_state(args.to, source)
    graph = resourcegraph.explore(
        gens.channels(), [source], args.depth, node_budget=args.budget
    )
    outcome_obj = resourcegraph.reach(graph, source, target)
    config = {
        "subcommand": "reach",
        "instance": args.instance,
        "rotation": _rotation_config(args),
        "damping": rat_to_str(rat_from_str(args.damping)),
        "depth": args.depth,
        "from": getattr(args, "from_state"),
        "to": args.to,
        "budget": args.budget,
    }
    outcome = {
        "reach": outcome_obj.to_json_dict(),
        "graph_nodes": len(graph.nodes),
        "graph_edges": len(graph.edges),
        "truncated": graph.truncated,
    }
    extra = {}
    if args.dot:
        extra[args.dot] = graph.to_dot()
    code = EXIT_OK if outcome_obj.status == resourcegraph.REACHABLE else EXIT_EXHAUSTED
    return code, config, hashes, outcome, extra


def _cmd_monotones(args):
    hashes = {}
    config = {"subcommand": "monotones", "budget": args.budget}
    if args.graph == "demo":
        graph = resourcegraph.demo_graph()
        config["graph"] = "demo"
    else:
        if not args.instance:
            raise ValueError("monotones needs --graph demo or --instance FILE")
        inst, hashes = _load_instance(args)
        gens = reduction.compile_generators(
            inst, _build_pair(args), rat_from_str(args.damping)
        )
        seed = _seed_state(args.seed)
        graph = resourcegraph.explore(
            gens.channels(), [seed], args.depth, node_budget=args.budget
        )
        config.update(
            {
                "instance": args.instance,
                "rotation": _rotation_config(args),
                "damping": rat_to_str(rat_from_str(args.damping)),
                "depth": args.depth,
                "seed": args.seed,
            }
        )
    q = resourcegraph.quotient(graph)
    family = resourcegraph.monotone_family(q)
    compatible = resourcegraph.check_compatible(graph, family)
    complete = resourcegraph.check_complete(graph, family)
    outcome = {
        "classes": q.to_json_dict(),
        "tables": family.to_json_dict()["tables"],
        "compatible": compatible.ok,
        "complete": complete.ok,
        "compatible_counterexample": compatible.counterexample,
        "complete_counterexample": complete.counterexample,
        "graph_nodes": len(graph.nodes),
        "truncated": graph.truncated,
    }
    extra = {}
    if args.dot:
        extra[args.dot] = q.to_dot()
    code = EXIT_OK if compatible.ok and complete.ok else EXIT_MISMATCH
    return code, config, hashes, outcome, extra


def _cmd_diff(args):
    inst, hashes = _load_instance(args)
    damping = rat_from_str(args.damping)
    gens = reduction.compile_generators(inst, _build_pair(args), damping)
    if args.target_damping:
        target_damping = rat_from_str(args.target_damping)
    else:
        # Match the target to the shortest tile solution realizable within
        # the bound when one exists; otherwise any value refutes equally.
        probe = pcp.solve_bounded(inst, max(1, args.depth // 2), node_budget=args.budget)
        if probe.status == pcp.FOUND:
            target_damping = damping ** (2 * len(probe.witness))
        else:
            target_damping = damping ** 2
    f1 = gens.channels()
    f2 = f1 + (reduction.labeled(reduction.make_target(target_damping), "PSI"),)
    outcome_obj = reduction.theory_diff(f1, f2, args.depth, node_budget=args.budget)
    config = {
        "subcommand": "diff",
        "instance": args.instance,
        "rotation": _rotation_config(args),
        "damping": rat_to_str(damping),
        "target_damping": rat_to_str(target_damping),
        "depth": args.depth,
        "budget": args.budget,
    }
    code = EXIT_OK if outcome_obj.status == reduction.DISTINCT else EXIT_EXHAUSTED
    return code, config, hashes, outcome_obj.to_json_dict(), {}


def _add_rotation_args(p):
    p.add_argument("--cos", default="3/5", help="rational cosine of the angle")
    p.add_argument("--sin", default="4/5", help="rational sine of the angle")
    p.add_argument("--axis-a", default="0,0,1", help="first rotation axis")
    p.add_argument("--axis-b", default="1,0,0", help="second rotation axis")


def _add_common_args(p, budget=200_000):
    """--budget (omitted when budget is None) and --out."""
    if budget is not None:
        p.add_argument("--budget", type=int, default=budget, help="node budget")
    p.add_argument("--out", default=None, help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeops",
        description="Exact channel-semigroup and tile-matching experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-free", help="scan a rotation pair for collisions")
    _add_rotation_args(p)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument(
        "--force",
        action="store_true",
        help="skip the freeness preconditions (for demonstrating collisions)",
    )
    _add_common_args(p, budget=1_000_000)
    p.set_defaults(handler=_cmd_verify_free)

    p = sub.add_parser("solve-pcp", help="bounded search for a tile solution")
    p.add_argument("--instance", required=True)
    p.add_argument("--depth", type=int, required=True)
    _add_common_args(p)
    p.set_defaults(handler=_cmd_solve_pcp)

    p = sub.add_parser("compile", help="compile an instance into channel generators")
    p.add_argument("--instance", required=True)
    _add_rotation_args(p)
    p.add_argument("--damping", default="1/2")
    _add_common_args(p, budget=None)
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser(
        "membership", help="search for the depolarising target in the semigroup"
    )
    p.add_argument("--instance", required=True)
    _add_rotation_args(p)
    p.add_argument("--damping", default="1/2")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--mode", choices=("generic", "structured"), default="generic")
    _add_common_args(p, budget=500_000)
    p.set_defaults(handler=_cmd_membership)

    p = sub.add_parser("reach", help="bounded state-reachability query")
    p.add_argument("--instance", required=True)
    _add_rotation_args(p)
    p.add_argument("--damping", default="1/2")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--from", dest="from_state", default="basis:0")
    p.add_argument("--to", required=True)
    p.add_argument("--dot", default=None, help="write the graph as DOT here")
    _add_common_args(p, budget=100_000)
    p.set_defaults(handler=_cmd_reach)

    p = sub.add_parser(
        "monotones", help="quotient a graph and build the monotone family"
    )
    p.add_argument("--graph", default=None, help="'demo' for the built-in fixture")
    p.add_argument("--instance", default=None)
    _add_rotation_args(p)
    p.add_argument("--damping", default="1/2")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", default="basis:0")
    p.add_argument("--dot", default=None, help="write the quotient as DOT here")
    _add_common_args(p, budget=100_000)
    p.set_defaults(handler=_cmd_monotones)

    p = sub.add_parser(
        "diff", help="bounded distinguishability of a set and its target extension"
    )
    p.add_argument("--instance", required=True)
    _add_rotation_args(p)
    p.add_argument("--damping", default="1/2")
    p.add_argument("--target-damping", default=None)
    p.add_argument("--depth", type=int, required=True)
    _add_common_args(p, budget=500_000)
    p.set_defaults(handler=_cmd_diff)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code, config, hashes, outcome, extra = args.handler(args)
    except (ValueError, OSError, ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR
    report = {
        "config": config,
        "input_hashes": hashes,
        "outcome": outcome,
        "wall_time_s": round(time.perf_counter() - start, 6),
    }
    text = canonical_json(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for path, content in extra.items():
        Path(path).write_text(content)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
