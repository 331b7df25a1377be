"""Byte pins of report outcomes and DOT files, and a brute-force check of
the monotone distances.

The first three hashes were taken from the reports before the state layer
moved to unit edges and integer distances, the rank-1 `reach` pin before
the PSD test moved from the characteristic polynomial to Bareiss
elimination; any change to them is a change to the report format, not a
refactor.
"""

import hashlib
import io
import json
import random

import pytest

from corpus import random_digraph
from freeops import cli
from freeops.resourcegraph import monotone_family, quotient
from freeops.util import canonical_json

CLASSIC = "1|101\n10|00\n011|11\n"

# name -> (argv without the instance path, exit code, outcome sha256, DOT sha256)
PINS = {
    "monotones-demo": (
        ["monotones", "--graph", "demo"],
        0,
        "ce200600cf730844f13347a2d73965eac81b1b501d83b251078ed0366fe9f81b",
        "da7657f502b0bbe74b44fd795c9135cd2808e0a1f108438c2e6cce501875c4bd",
    ),
    "monotones-classic3-depth3": (
        ["monotones", "--instance", "@", "--depth", "3"],
        0,
        "0acd35485e8e78cb2d070be60cbad9de1660bdc284ac757926176d128bc150ce",
        "eefa6a4849bf56e50a335a07fa04eb9b90b513124b0b4a8efcca90f5d9900dca",
    ),
    "reach-classic3-depth2": (
        ["reach", "--instance", "@", "--depth", "2", "--from", "spread", "--to", "target:1/4"],
        10,
        "1cc409a13addbc15dd019c85abf30a76b05ae42e45caaecf76c55e3e80038d13",
        "ec2ae4e69b79f150694f7cad1ea73afffdfbd4833240d972305ddfc42a550f22",
    ),
    # The rank-1 seed ends its PSD test on an all-zero remainder.
    "reach-classic3-depth4-basis0": (
        ["reach", "--instance", "@", "--depth", "4", "--from", "basis:0", "--to", "target:1/4"],
        0,
        "c803d2927f5e7a0b30039b98e008f6e55c352074175b0615b8d7a3a98ebf3197",
        "db547f80f19c841de9ba5409e2cfcf7d46696eb4e70abb00cb0ff5cbfc693693",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_report_bytes_pinned(tmp_path, name):
    argv, want_code, outcome_hash, dot_hash = PINS[name]
    inst = tmp_path / "classic.pcp"
    inst.write_text(CLASSIC)
    out = tmp_path / "r.json"
    dot = tmp_path / "g.dot"
    argv = [str(inst) if a == "@" else a for a in argv]
    assert cli.main(argv + ["--out", str(out), "--dot", str(dot)]) == want_code
    buf = io.StringIO()
    canonical_json(json.loads(out.read_text())["outcome"], buf)
    assert sha256(buf.getvalue().encode()) == outcome_hash
    assert sha256(dot.read_bytes()) == dot_hash


def longest_paths_brute_force(q, base):
    """Longest path length from base to every class by enumerating every
    path of the DAG (all are simple); -1 where no path exists."""
    out = {u: [] for u in range(q.size)}
    for u, v in q.edges:
        out[u].append(v)
    best = [-1] * q.size
    stack = [(base, 0)]
    while stack:
        u, length = stack.pop()
        best[u] = max(best[u], length)
        stack.extend((v, length + 1) for v in out[u])
    return best


def test_distances_match_brute_force_longest_paths():
    rng = random.Random(2105)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_digraph(rng, n, rng.randint(0, min(n * n, 3 * n)))
        q = quotient(g)
        for table in monotone_family(q).tables:
            assert list(table.dist) == longest_paths_brute_force(q, table.base)
