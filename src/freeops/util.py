"""Small shared helpers: the report JSON rule, canonical JSON, the budget
rule of every bounded search, its breadth-first level loop and column form."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from functools import partial, reduce
from itertools import islice, product, repeat
from operator import add, mul
from typing import Callable, Iterator, Sequence, Sized, Tuple


def report_json(value):
    """The report form of a result: an object with its own to_json_dict
    becomes the report form of what that returns, another dataclass a dict
    of its fields by name, a dict keeps its keys, a tuple becomes a list,
    and a Fraction its canonical string, str(value); anything else is kept."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: report_json(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [report_json(v) for v in value]
    if hasattr(value, "to_json_dict"):
        return report_json(value.to_json_dict())
    if dataclasses.is_dataclass(value):
        return {f.name: report_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def canonical_json(data, fp) -> None:
    """Write data to the stream fp as
    json.dump(data, fp, indent=2, sort_keys=True) followed by a newline."""
    json.dump(data, fp, indent=2, sort_keys=True)
    fp.write("\n")


def level_cut(frontier_len: int, letter_count: int, budget: int) -> Tuple[int, bool]:
    """The budget rule of every bounded search, in expansions (one letter on
    one stored item): a level keeps the first max(budget, 0) of its frontier_len
    x letter_count, frontier-major, and is truncated exactly when one more was due."""
    kept = min(frontier_len * letter_count, max(budget, 0))
    return kept, frontier_len * letter_count > kept


def level_pairs(frontier: Sized, letters: Sized, budget: int) -> Tuple[Iterator, bool]:
    """One breadth-first level: the (item, letter) pairs of frontier x letters
    in that order, cut by level_cut, and whether the cut dropped any."""
    kept, truncated = level_cut(len(frontier), len(letters), budget)
    return islice(product(frontier, letters), kept), truncated


def breadth_first(root, goal, letters: Sequence, step: Callable, max_depth: int, budget: int):
    """The visited-set level loop over words of the (symbol, letter) pairs in
    letters, from the empty word at the key root.  Each level goes through
    level_pairs with the budget left; step(node, letter) gives the child's
    key or None, and a key seen for the first time joins the next frontier.
    Ends at the first word whose key is goal, after max_depth levels, a
    truncated one or one that leaves no child.  Returns the goal word or
    None, the expansions, the last full level and the truncation."""
    seen = {root}
    frontier = [(root, ())]
    expanded = done = 0
    truncated = False
    for depth in range(1, max_depth + 1):
        pairs, truncated = level_pairs(frontier, letters, budget - expanded)
        frontier = []
        for (node, word), (symbol, letter) in pairs:
            expanded += 1
            child = step(node, letter)
            if child is None:
                continue
            if child == goal:
                return word + (symbol,), expanded, done, False
            if child not in seen:
                seen.add(child)
                frontier.append((child, word + (symbol,)))
        if truncated:
            break
        done = depth
        if not frontier:
            break
    return None, expanded, done, truncated


def combine(row, cols, stop: int) -> list:
    """The entrywise sum of row[j] * cols[j][:stop], one map per nonzero row[j]."""
    terms = [map(mul, repeat(c), islice(col, stop)) for c, col in zip(row, cols) if c]
    return list(reduce(partial(map, add), terms)) if terms else [0] * stop
