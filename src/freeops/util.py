"""Small shared helpers: the report JSON rule, canonical JSON, hashing,
the breadth-first level loop of every bounded search and its column form."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, islice, product, repeat
from operator import add, mul
from typing import Iterator, Sized, Tuple


def report_json(value):
    """The report form of a result: a dataclass becomes a dict of its fields
    by name, a dict keeps its keys, a tuple becomes a list, and a Fraction
    its canonical string (what rat_to_str writes); anything else is kept."""
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


class SharedKeyDict:
    """The flat dict dict(zip(keys, values)) with str values, where many such
    dicts share one strictly increasing key tuple.  canonical_json encodes
    each key once per tuple and each distinct value once per dict."""

    __slots__ = ("keys", "values")

    def __init__(self, keys, values):
        self.keys, self.values = keys, values


_CONTAINERS = (dict, list, tuple, SharedKeyDict)


def canonical_json(data, fp) -> None:
    """Write data to the stream fp exactly as
    json.dump(data, fp, indent=2, sort_keys=True) followed by a newline.

    With an indent the stdlib runs its pure-Python encoder, one call per
    value.  Here containers are walked in Python, and every non-empty flat
    container (a dict, list or tuple holding no dict, list or tuple) goes to
    the C encoder in one call: with the item separator "," plus the newline
    and indent of its items, the C encoder writes what the indenting encoder
    writes, apart from the newline and indent after the opening bracket and
    before the closing one, which are added back here.  Output is still
    streamed: the largest string held is one flat container.

    A SharedKeyDict is written in one join of values and key prefixes, the
    prefixes built once per key tuple and nesting level; the tuple is held
    for the whole call, so its id cannot be reused.
    """
    write = fp.write
    templates = {}  # (id(keys), level) -> (keys, key prefixes, closing text)

    def emit(obj, level):
        inner = "\n" + "  " * (level + 1)
        if isinstance(obj, SharedKeyDict):
            keys = obj.keys
            entry = templates.get((id(keys), level))
            if entry is None:
                if not all(a < b for a, b in zip(keys, keys[1:])):
                    raise ValueError("shared keys must be strictly increasing")
                seps = ["{" + inner] + ["," + inner] * (len(keys) - 1)
                prefixes = [sep + json.dumps({k: 0})[1:-4] + ": " for sep, k in zip(seps, keys)]
                close = "\n" + "  " * level + "}" if keys else "{}"
                entry = templates[id(keys), level] = (keys, prefixes, close)
            _, prefixes, close = entry
            text = {v: json.dumps(v) for v in set(obj.values)}
            if not all(type(v) is str for v in text):
                raise TypeError("shared-key dict values must be str")
            write("".join(chain.from_iterable(zip(prefixes, map(text.__getitem__, obj.values)))))
            write(close)
            return
        if isinstance(obj, dict):
            values, brackets = obj.values(), "{}"
        elif isinstance(obj, (list, tuple)):
            values, brackets = obj, "[]"
        else:
            write(json.dumps(obj))
            return
        if not obj:
            write(brackets)
            return
        close = "\n" + "  " * level + brackets[1]
        # one subclass test per distinct value type, not one per value
        if not any(issubclass(t, _CONTAINERS) for t in set(map(type, values))):
            text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
            write(brackets[0] + inner + text[1:-1] + close)
            return
        if brackets == "{}":
            # each key as the encoder writes it: {key: 0} is '{<key>: 0}'
            items = [(json.dumps({k: 0})[1:-4] + ": ", v) for k, v in sorted(obj.items())]
        else:
            items = [("", v) for v in obj]
        sep = brackets[0] + inner
        for prefix, value in items:
            write(sep + prefix)
            emit(value, level + 1)
            sep = "," + inner
        write(close)

    emit(data, 0)
    write("\n")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
