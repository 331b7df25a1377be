"""Workload definitions, seeded instance files and the answer checker.

A workload is a fixed list of CLI queries run in order, one after the other,
by a single client (a closed loop with one caller).  Queries name instances
as ``@classic3`` / ``@classic_minus``; the harness writes those files and
substitutes their paths, so the CLI only ever sees generated inputs.

The seed permutes the tile order of each instance.  Pass ``k`` of a run with
seed ``s`` uses permutation number ``(s + k) mod n!`` in
``itertools.permutations`` order, so seed 0 starts from the order listed
here and every run of several passes spreads its passes over the orders
evenly.  The checker verifies answers (exit code, status, witness validity)
rather than literal witnesses or node counts, so every seed is checkable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

# The README / ROADMAP instances.  classic3 is solvable (shortest solution
# 1,3,2,3); classic_minus has no solution at any length.
INSTANCES = {
    "classic3": (("1", "101"), ("10", "00"), ("011", "11")),
    "classic_minus": (("1", "101"), ("10", "00")),
}

FOUND = "found"
EXHAUSTED = "exhausted_to_depth"

# Exit-code protocol of freeops.cli.
EXIT_OK = 0
EXIT_EXHAUSTED = 10


@dataclass(frozen=True)
class Query:
    """One CLI call; `expect` is the answer the checker requires, if any."""

    argv: tuple
    expect: str | None = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def instance(self) -> str | None:
        for tok in self.argv:
            if tok.startswith("@"):
                return tok[1:]
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    queries: tuple
    smoke: tuple  # same shape at tiny bounds, for the benchmark's own tests


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="semigroup-search",
            why=(
                "compiled-semigroup products, phase keys and exact-hash dedup on"
                " exhaustive and early-exit searches; almost no state or report work"
            ),
            queries=(
                Query(("verify-free", "--max-len", "15")),
                Query(("membership", "--instance", "@classic_minus", "--depth", "14"), EXHAUSTED),
                Query(("membership", "--instance", "@classic3", "--depth", "8"), FOUND),
                Query(
                    ("membership", "--instance", "@classic3", "--depth", "16", "--mode", "structured"),
                    FOUND,
                ),
                Query(("diff", "--instance", "@classic3", "--depth", "5")),
            ),
            smoke=(
                Query(("verify-free", "--max-len", "4")),
                Query(("membership", "--instance", "@classic_minus", "--depth", "4"), EXHAUSTED),
                Query(("membership", "--instance", "@classic3", "--depth", "8"), FOUND),
                Query(("diff", "--instance", "@classic3", "--depth", "2")),
            ),
        ),
        Workload(
            name="orbit-reach",
            why=(
                "channel conjugation of dense states, a PSD re-check and a digest per"
                " child state; tiny report"
            ),
            queries=(
                Query(
                    ("reach", "--instance", "@classic3", "--depth", "5",
                     "--from", "spread", "--to", "target:1/4")
                ),
            ),
            smoke=(
                Query(
                    ("reach", "--instance", "@classic3", "--depth", "2",
                     "--from", "spread", "--to", "target:1/4")
                ),
            ),
        ),
        Workload(
            name="monotone-report",
            why=(
                "quadratic quotient, monotone family, compatibility and completeness"
                " checks and a 42 MB JSON report; explore is a small share"
            ),
            queries=(Query(("monotones", "--instance", "@classic3", "--depth", "4")),),
            smoke=(Query(("monotones", "--graph", "demo")),),
        ),
    )
}


def tiles_for(name: str, seed: int, pass_index: int) -> tuple:
    """Tile order of instance `name` in pass `pass_index` of seed `seed`."""
    tiles = INSTANCES[name]
    perms = list(itertools.permutations(range(len(tiles))))
    perm = perms[(seed + pass_index) % len(perms)]
    return tuple(tiles[i] for i in perm)


def write_instances(directory: Path, seed: int, pass_index: int) -> dict:
    """Write every instance file for one pass; returns name -> path."""
    paths = {}
    for name in INSTANCES:
        path = directory / f"{name}.pcp"
        tiles = tiles_for(name, seed, pass_index)
        path.write_text("".join(f"{top}|{bottom}\n" for top, bottom in tiles))
        paths[name] = str(path)
    return paths


def resolve_argv(query: Query, paths: dict) -> list:
    return [paths[tok[1:]] if tok.startswith("@") else tok for tok in query.argv]


# --- answer checker -----------------------------------------------------------


def _check_verify_free(query, code, out, tiles):
    max_len = int(query.argv[query.argv.index("--max-len") + 1])
    words = 2 ** (max_len + 1) - 2
    problems = []
    if code != EXIT_OK:
        problems.append(f"exit code {code}, expected {EXIT_OK}")
    if out["word_count"] != words:
        problems.append(f"scanned {out['word_count']} words, expected {words}")
    if out["collisions"] or out["scalar_words"]:
        problems.append("collisions or scalar words reported")
    return problems, {"words": out["word_count"]}


def _check_membership(query, code, out, tiles):
    from freeops import pcp  # imported late: the harness checks src/ exists first

    result = out["membership"]
    status = result["status"]
    problems = []
    if not out["statuses_agree"]:
        problems.append("membership and tile oracle disagree")
    if status != query.expect:
        problems.append(f"status {status}, expected {query.expect}")
    want = EXIT_OK if status == FOUND else EXIT_EXHAUSTED
    if code != want:
        problems.append(f"exit code {code}, expected {want} for {status}")
    if result["truncated"]:
        problems.append("search hit its node budget")
    extracted = result["extracted"]
    if extracted is not None:
        inst = pcp.PCPInstance(tuple(tiles))
        if not pcp.verify_solution(inst, tuple(extracted)):
            problems.append(f"extracted word {extracted} does not solve the instance")
    if status == FOUND and not result["witness"]:
        problems.append("found without a witness word")
    counts = {"nodes": result["nodes_expanded"], "oracle_nodes": out["oracle"]["nodes_expanded"]}
    return problems, counts


def _check_diff(query, code, out, tiles):
    problems = []
    if out["status"] != "distinct":
        problems.append(f"status {out['status']}, expected distinct")
    if code != EXIT_OK:
        problems.append(f"exit code {code}, expected {EXIT_OK}")
    if out["truncated"]:
        problems.append("closure hit its node budget")
    return problems, {"nodes": out["nodes_expanded"]}


def _check_reach(query, code, out, tiles):
    problems = []
    status = out["reach"]["status"]
    if status != "not_reachable_within_bound":
        problems.append(f"status {status}, expected not_reachable_within_bound")
    if code != EXIT_EXHAUSTED:
        problems.append(f"exit code {code}, expected {EXIT_EXHAUSTED}")
    if out["truncated"]:
        problems.append("exploration hit its node budget")
    return problems, {"states": out["graph_nodes"], "edges": out["graph_edges"]}


def _check_monotones(query, code, out, tiles):
    problems = []
    if not (out["compatible"] and out["complete"]):
        problems.append("monotone family is not compatible and complete")
    if code != EXIT_OK:
        problems.append(f"exit code {code}, expected {EXIT_OK}")
    if out["truncated"]:
        problems.append("exploration hit its node budget")
    return problems, {"states": out["graph_nodes"], "classes": len(out["classes"]["classes"])}


CHECKERS = {
    "verify-free": _check_verify_free,
    "membership": _check_membership,
    "diff": _check_diff,
    "reach": _check_reach,
    "monotones": _check_monotones,
}


def check(query: Query, code, report_path: Path, tiles) -> tuple:
    """Check one query's exit code and report.

    Returns (problems, counts): an empty problem list means the answer is
    right; counts are node/state counts recorded for the run metadata.
    """
    if code is None:
        return ["query raised"], {}
    try:
        report = json.loads(Path(report_path).read_text())
        return CHECKERS[query.subcommand](query, code, report["outcome"], tiles)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"], {}
