"""Tile-matching (Post correspondence) instances and bounded search.

An instance is a list of tiles, each carrying a top and a bottom binary
word.  The bounded solver runs a breadth-first search over overhang
configurations (the unmatched suffix of the side currently ahead) and
semi-decides solvability: it confirms solutions, and otherwise only ever
reports exhaustion up to the given depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .util import breadth_first

TileWord = Tuple[int, ...]


class InstanceParseError(ValueError):
    """Malformed instance text; carries the offending 1-based line number,
    or None when the fault is in no one line."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DegenerateTileError(ValueError):
    """A tile with both sides empty makes every word containing it a
    trivial solution; the solver refuses to search such instances."""


@dataclass(frozen=True, slots=True)
class PCPInstance:
    """Ordered tiles; tile i (1-based) is the i-th letter of the alphabet."""

    tiles: Tuple[Tuple[str, str], ...]

    def __post_init__(self):
        if not self.tiles:
            raise ValueError("an instance needs at least one tile")
        for idx, (top, bottom) in enumerate(self.tiles, start=1):
            for side in (top, bottom):
                if any(ch not in "01" for ch in side):
                    raise ValueError(f"tile {idx}: words must be over {{0,1}}")

    def to_text(self) -> str:
        return "".join(f"{t}|{b}\n" for t, b in self.tiles)


def parse_instance(text: str) -> PCPInstance:
    """One tile per line as "top|bottom"; blank lines and '#' comments skipped."""
    tiles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.count("|") != 1:
            raise InstanceParseError(lineno, "expected exactly one '|' separator")
        top, bottom = (part.strip() for part in line.split("|"))
        for side in (top, bottom):
            bad = next((ch for ch in side if ch not in "01"), None)
            if bad is not None:
                raise InstanceParseError(lineno, f"non-binary character {bad!r}")
        tiles.append((top, bottom))
    if not tiles:
        raise InstanceParseError(None, "no tiles in instance")
    return PCPInstance(tuple(tiles))


def apply_hom(inst: PCPInstance, side: str, word: Iterable[int]) -> str:
    """Concatenate the chosen side of the tiles named by `word` (1-based)."""
    if side == "top":
        pick = 0
    elif side == "bottom":
        pick = 1
    else:
        raise ValueError(f"side must be 'top' or 'bottom', got {side!r}")
    parts = []
    for idx in word:
        if not 1 <= idx <= len(inst.tiles):
            raise ValueError(f"tile index {idx} out of range 1..{len(inst.tiles)}")
        parts.append(inst.tiles[idx - 1][pick])
    return "".join(parts)


def verify_solution(inst: PCPInstance, word: TileWord) -> bool:
    if not word:
        raise ValueError("solutions must be nonempty")
    return apply_hom(inst, "top", word) == apply_hom(inst, "bottom", word)


FOUND = "found"
EXHAUSTED = "exhausted_to_depth"


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    status: str
    witness: Optional[TileWord]
    depth_reached: int
    nodes_expanded: int
    truncated: bool = False


def _step(config: Tuple[int, str], tile: Tuple[str, str]):
    """Extend a configuration (sign, over) by one tile (top, bottom).

    sign +1 means the top string is ahead by `over`, -1 the bottom, 0
    balanced.  Returns the successor, (0, "") on a match, or None when
    neither string remains a prefix of the other.
    """
    (sign, over), (top, bottom) = config, tile
    if sign >= 0:
        p = over + top
        q = bottom
    else:
        p = top
        q = over + bottom
    if p == q:
        return (0, "")
    if p.startswith(q):
        return (1, p[len(q):])
    if q.startswith(p):
        return (-1, q[len(p):])
    return None


def solve_bounded(
    inst: PCPInstance,
    max_depth: int,
    node_budget: int = 200_000,
) -> SearchOutcome:
    """Breadth-first search for a shortest solution of at most max_depth tiles.

    Deterministic: tiles are tried in index order and the first solution
    found, back at the balanced root, is the shortest one, lexicographically
    least among equals.  The budget counts expansions (one tile laid on one
    configuration); a level cut short by it does not count as reached.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    for idx, (top, bottom) in enumerate(inst.tiles, start=1):
        if top == "" and bottom == "":
            raise DegenerateTileError(
                f"tile {idx} has both sides empty; any word using it alone is a"
                " trivial solution"
            )
    word, expanded, done, truncated = breadth_first(
        (0, ""), (0, ""), list(enumerate(inst.tiles, start=1)), _step, max_depth, node_budget
    )
    if word is not None:
        return SearchOutcome(FOUND, word, len(word), expanded)
    return SearchOutcome(EXHAUSTED, None, done, expanded, truncated)
