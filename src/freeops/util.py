"""Small shared helpers: canonical JSON, hashing and the breadth-first
level loop of every bounded search."""

from __future__ import annotations

import hashlib
import json
from itertools import islice, product
from typing import Iterator, Sized, Tuple


def canonical_json(data, fp) -> None:
    """Write stable JSON text to the stream fp: sorted keys, fixed
    separators, trailing newline.  Streaming keeps large reports from being
    built as one string."""
    json.dump(data, fp, indent=2, sort_keys=True)
    fp.write("\n")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def level_pairs(frontier: Sized, letters: Sized, budget: int) -> Tuple[Iterator, bool]:
    """One breadth-first level: the (item, letter) pairs of frontier x letters
    in that order, cut after `budget` pairs, and whether the cut dropped any.

    This is the budget rule of every bounded search: the budget counts
    expansions (one letter applied to one stored item), and a search is
    truncated exactly when one more expansion was due.
    """
    budget = max(budget, 0)
    pairs = islice(product(frontier, letters), budget)
    return pairs, len(frontier) * len(letters) > budget
