"""Command-line frontend: reproducible runs with JSON (and DOT) reports.

Exit code protocol: 0 found/ok, 10 exhausted within the bound (or cut short
by the budget without an answer), 11 freeness collision, 12 cross-check
mismatch, 2 error (bad input, I/O, arithmetic, runtime or memory failure,
reported as an `error:` line on stderr).  Every report embeds the full
resolved configuration and input hashes; reruns with an identical
configuration are byte-identical apart from the timing field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from pathlib import Path

from . import __version__, pcp, reduction, resourcegraph
from .exact import ExactDensityMatrix, rat_from_str
from .freerot import (
    FreePair,
    RotationParams,
    freeness_certificate,
    freeness_scan,
    make_free_pair,
    rotation_quaternion,
)
from .util import canonical_json, report_json

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_EXHAUSTED = 10
EXIT_COLLISION = 11
EXIT_MISMATCH = 12

ROTATION_DEFAULTS = {"cos": "3/5", "sin": "4/5", "axis_a": "0,0,1", "axis_b": "1,0,0"}
ROTATION_FLAGS = {"--" + name.replace("_", "-") for name in ROTATION_DEFAULTS}
# The rotation flags and --damping of every subcommand that compiles an instance.
INSTANCE_DEFAULTS = {**ROTATION_DEFAULTS, "damping": "1/2"}
# Options that only `monotones --instance` reads, with their defaults; they
# default to None on the parser so that `--graph demo` can reject them.
MONOTONES_INSTANCE_DEFAULTS = {
    **INSTANCE_DEFAULTS,
    "depth": 3,
    "seed": "basis:0",
    "budget": 100_000,
}
# Parsed options that a report's config leaves out: the subcommand, output
# paths, and the options that a handler resolves into a value of its own (the
# rotation flags into `rotation`, --from into `from`).
NOT_CONFIG = frozenset(
    {"command", "out", "dot", "tables", "cos", "sin", "axis_a", "axis_b", "from_state"}
)


def _parse_axis(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"axis must have three components, got {text!r}")
    return tuple(rat_from_str(p) for p in parts)


def _rotation_params(args) -> RotationParams:
    return RotationParams(
        cos=rat_from_str(args.cos),
        sin=rat_from_str(args.sin),
        axis_a=_parse_axis(args.axis_a),
        axis_b=_parse_axis(args.axis_b),
    )


def _build_pair(args) -> FreePair:
    params = _rotation_params(args)
    if getattr(args, "force", False):
        # Escape hatch for demonstrating collision detection on pairs that
        # fail the freeness preconditions.
        return FreePair(
            a=rotation_quaternion(params.cos, params.sin, params.axis_a),
            b=rotation_quaternion(params.cos, params.sin, params.axis_b),
            params=params,
        )
    return make_free_pair(params)


def _load_instance(args):
    text = Path(args.instance).read_text()
    inst = pcp.parse_instance(text)
    return inst, {"instance": hashlib.sha256(text.encode()).hexdigest()}


def _compiled(args):
    """Load the instance, build the pair and compile the generators.

    Returns the generators, the resolved rotation and damping, and the
    input hashes.
    """
    inst, hashes = _load_instance(args)
    pair = _build_pair(args)
    damping = rat_from_str(args.damping)
    gens = reduction.compile_generators(inst, pair, damping)
    return gens, {"rotation": pair.params, "damping": damping}, hashes


def _seed_state(selector: str) -> ExactDensityMatrix:
    if selector == "maxmixed":
        return ExactDensityMatrix.maximally_mixed(4)
    if selector == "spread":
        return resourcegraph.generic_seed(4)
    if selector in ("basis:0", "basis:1", "basis:2", "basis:3"):
        return ExactDensityMatrix.basis_state(4, int(selector[-1]))
    raise ValueError(f"unknown state selector {selector!r}")


def _target_state(selector: str, source: ExactDensityMatrix) -> ExactDensityMatrix:
    if selector.startswith("target:"):
        lam = rat_from_str(selector.split(":", 1)[1])
        return reduction.make_target(lam).apply(source)
    return _seed_state(selector)


def _config(args, resolved: dict) -> dict:
    """A report's config: the subcommand, every parsed option that has a
    value and is not in NOT_CONFIG, and the values the handler resolved
    (which replace an option of the same name), and the package version."""
    given = {n: v for n, v in vars(args).items() if v is not None and n not in NOT_CONFIG}
    return {"subcommand": args.command, **given, **resolved, "version": __version__}


def _cmd_verify_free(args):
    pair = _build_pair(args)
    report = freeness_scan(pair, args.max_len, node_budget=args.budget)
    if not report.is_empty:
        code = EXIT_COLLISION
    elif report.truncated:
        code = EXIT_EXHAUSTED  # no collision, but only up to scanned_max_len
    else:
        code = EXIT_OK
    outcome = {**report_json(report), "certificate": freeness_certificate(pair)}
    return code, {"rotation": pair.params}, {}, outcome, {}


def _cmd_solve_pcp(args):
    inst, hashes = _load_instance(args)
    outcome = pcp.solve_bounded(inst, args.depth, node_budget=args.budget)
    code = EXIT_OK if outcome.status == pcp.FOUND else EXIT_EXHAUSTED
    return code, {}, hashes, outcome, {}


def _cmd_compile(args):
    gens, resolved, hashes = _compiled(args)
    return EXIT_OK, resolved, hashes, gens, {}


def _cmd_membership(args):
    gens, resolved, hashes = _compiled(args)
    result = reduction.membership_search(
        gens, args.depth, mode=args.mode, node_budget=args.budget
    )
    # a witness of n letters is a tile solution of length n
    oracle = pcp.solve_bounded(gens.instance, args.depth, node_budget=args.budget)
    agree = (result.status == reduction.FOUND) == (oracle.status == pcp.FOUND)
    if not agree and (result.truncated or oracle.truncated):
        agree = None  # a budget cut, not a disagreement
    outcome = {"membership": result, "oracle": oracle, "statuses_agree": agree}
    if agree is False:
        code = EXIT_MISMATCH
    elif agree and result.status == reduction.FOUND:
        code = EXIT_OK
    else:
        code = EXIT_EXHAUSTED
    return code, resolved, hashes, outcome, {}


def _cmd_reach(args):
    gens, resolved, hashes = _compiled(args)
    source = _seed_state(args.from_state)
    target = _target_state(args.to, source)
    graph = resourcegraph.explore(
        gens.channels(), [source], args.depth, node_budget=args.budget
    )
    outcome_obj = resourcegraph.reach(graph, source, target)
    outcome = {
        "reach": outcome_obj,
        "graph_nodes": len(graph.nodes),
        "graph_edges": len(graph.edges),
        "truncated": graph.truncated,
    }
    extra = {}
    if args.dot:
        extra[args.dot] = graph.to_dot()
    code = EXIT_OK if outcome_obj.status == resourcegraph.REACHABLE else EXIT_EXHAUSTED
    return code, {**resolved, "from": args.from_state}, hashes, outcome, extra


def _cmd_monotones(args):
    if args.graph == "demo":
        given = [
            "--" + name.replace("_", "-")
            for name in MONOTONES_INSTANCE_DEFAULTS
            if getattr(args, name) is not None
        ]
        if given:
            raise ValueError(f"--graph demo does not take {', '.join(given)}")
        graph = resourcegraph.demo_graph()
        resolved, hashes = {}, {}
    else:
        for name, default in MONOTONES_INSTANCE_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        gens, resolved, hashes = _compiled(args)
        seed = _seed_state(args.seed)
        graph = resourcegraph.explore(
            gens.channels(), [seed], args.depth, node_budget=args.budget
        ).named()
    q = resourcegraph.quotient(graph)
    family = resourcegraph.monotone_family(q)
    incompatible = resourcegraph.check_compatible(graph, family)
    incomplete = resourcegraph.check_complete(family)
    outcome = {
        "classes": q,
        "table_summary": family.summary_json(),
        "compatible": incompatible is None,
        "complete": incomplete is None,
        "compatible_counterexample": incompatible,
        "complete_counterexample": incomplete,
        "graph_nodes": len(graph.nodes),
        "truncated": graph.truncated,
    }
    extra = {args.dot: q.to_dot()} if args.dot else {}
    if args.tables:
        extra[args.tables] = family
    code = EXIT_OK if incompatible is None and incomplete is None else EXIT_MISMATCH
    return code, resolved, hashes, outcome, extra


def _cmd_diff(args):
    gens, resolved, hashes = _compiled(args)
    damping = resolved["damping"]
    if args.target_damping is not None:
        target_damping = rat_from_str(args.target_damping)
    else:
        # A solution of length n <= depth // 2, doubled, is one of length 2n
        # <= depth, which realizes T_{p^{2n}} within the bound; without one,
        # any value refutes equally.
        probe = pcp.solve_bounded(
            gens.instance, max(1, args.depth // 2), node_budget=args.budget
        )
        if probe.status == pcp.FOUND:
            target_damping = damping ** (2 * len(probe.witness))
        else:
            target_damping = damping ** 2
    psi = reduction.make_target(target_damping, "PSI")
    outcome_obj = reduction.theory_diff(gens, psi, args.depth, node_budget=args.budget)
    code = EXIT_OK if outcome_obj.status == reduction.DISTINCT else EXIT_EXHAUSTED
    resolved = {**resolved, "target_damping": target_damping}
    return code, resolved, hashes, outcome_obj, {}


def _add_rotation_args(p, defaults=ROTATION_DEFAULTS):
    p.add_argument("--cos", default=defaults.get("cos"), help="rational cosine of the angle")
    p.add_argument("--sin", default=defaults.get("sin"), help="rational sine of the angle")
    p.add_argument("--axis-a", default=defaults.get("axis_a"), help="first rotation axis")
    p.add_argument("--axis-b", default=defaults.get("axis_b"), help="second rotation axis")


def _add_instance_args(p, group=None, defaults=INSTANCE_DEFAULTS):
    """--instance (required unless it joins a group), the rotation flags and
    --damping: the options that _compiled reads."""
    (group or p).add_argument("--instance", required=group is None)
    _add_rotation_args(p, defaults)
    p.add_argument("--damping", default=defaults.get("damping"))


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_common_args(p, budget=200_000):
    """--out, and --budget with that default (omitted when budget is False)."""
    if budget is not False:
        p.add_argument("--budget", type=_budget, default=budget, help="expansion budget")
    p.add_argument("--out", default=None, help="write the JSON report here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
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

    p = sub.add_parser("solve-pcp", help="bounded search for a tile solution")
    p.add_argument("--instance", required=True)
    p.add_argument("--depth", type=int, required=True)
    _add_common_args(p)

    p = sub.add_parser("compile", help="compile an instance into channel generators")
    _add_instance_args(p)
    _add_common_args(p, budget=False)

    p = sub.add_parser(
        "membership", help="search for the depolarising target in the semigroup"
    )
    _add_instance_args(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--mode", choices=("generic", "structured"), default="generic")
    _add_common_args(p, budget=500_000)

    p = sub.add_parser("reach", help="bounded state-reachability query")
    _add_instance_args(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--from", dest="from_state", default="basis:0")
    p.add_argument("--to", required=True)
    p.add_argument("--dot", default=None, help="write the graph as DOT here")
    _add_common_args(p, budget=100_000)

    p = sub.add_parser(
        "monotones", help="quotient a graph and build the monotone family"
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", choices=("demo",), help="the built-in fixture")
    _add_instance_args(p, source, defaults={})
    p.add_argument("--depth", type=int)
    p.add_argument("--seed")
    p.add_argument("--dot", default=None, help="write the quotient as DOT here")
    p.add_argument("--tables", default=None, help="write the full monotone tables as JSON here")
    _add_common_args(p, budget=None)

    p = sub.add_parser(
        "diff", help="bounded distinguishability of a set and its target extension"
    )
    _add_instance_args(p)
    p.add_argument("--target-damping", default=None)
    p.add_argument("--depth", type=int, required=True)
    _add_common_args(p, budget=500_000)

    return parser


def _check_output_paths(args) -> None:
    """Reject two output options that name one file, as one write would undo another."""
    seen = {}
    for option in ("out", "dot", "tables"):
        path = getattr(args, option, None)
        if path:  # an empty path writes no file
            other = seen.setdefault(Path(path).resolve(), option)
            if other != option:
                raise ValueError(f"--{other} and --{option} name the same file: {path}")


def handler(command: str):
    """The _cmd_ function of a subcommand, looked up by name on each call,
    so that one set on this module after the parser was built is the one
    that runs."""
    return {
        "verify-free": _cmd_verify_free,
        "solve-pcp": _cmd_solve_pcp,
        "compile": _cmd_compile,
        "membership": _cmd_membership,
        "reach": _cmd_reach,
        "monotones": _cmd_monotones,
        "diff": _cmd_diff,
    }[command]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):  # argparse takes "-3/5" for an option: join it with "="
        if argv[i - 1] in ROTATION_FLAGS and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        _check_output_paths(args)
        code, resolved, hashes, outcome, extra = handler(args.command)(args)
        report = {
            "config": _config(args, resolved),
            "input_hashes": hashes,
            "outcome": outcome,
            "wall_time_s": round(time.perf_counter() - start, 6),
        }
        # The report goes last: a run that fails to write an extra file leaves
        # no report.  Text (DOT) is written as it is, data as the canonical
        # JSON of its report form.
        files = {**extra, args.out: report} if args.out else extra
        for path, content in files.items():
            with open(path, "w") as fp:
                if isinstance(content, str):
                    fp.write(content)
                else:
                    canonical_json(report_json(content), fp)
        if not args.out:
            canonical_json(report_json(report), sys.stdout)
    except (ValueError, OSError, ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
