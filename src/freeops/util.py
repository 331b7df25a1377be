"""Small shared helpers: the report JSON rule, canonical JSON,
the breadth-first level loop of every bounded search and its column form."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from functools import partial, reduce
from itertools import islice, product, repeat
from operator import add, mul
from typing import Iterator, Sized, Tuple


def report_json(value):
    """The report form of a result: a dataclass becomes a dict of its fields
    by name, a dict keeps its keys, a tuple becomes a list, and a Fraction
    its canonical string, str(value); anything else is kept."""
    if isinstance(value, Fraction):
        return str(value)
    if dataclasses.is_dataclass(value):
        return {f.name: report_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: report_json(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [report_json(v) for v in value]
    return value


class Report:
    """Base of the results whose report keys are their field names."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return report_json(self)


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


def combine(row, cols, stop: int) -> list:
    """The entrywise sum of row[j] * cols[j][:stop], one map per nonzero row[j]."""
    terms = [map(mul, repeat(c), islice(col, stop)) for c, col in zip(row, cols) if c]
    return list(reduce(partial(map, add), terms)) if terms else [0] * stop
