"""Byte pins of report outcomes and DOT files, and a brute-force check of
the monotone distances.

The first three hashes were taken from the reports before the state layer
moved to unit edges and integer distances, the rank-1 `reach` pin before
the PSD test moved from the characteristic polynomial to Bareiss
elimination, and the compiled-semigroup pins (`verify-free`, `compile`,
`membership`, `diff`) before those searches moved to one level loop and
one budget rule; any change to them is a change to the report format, not
a refactor.  Three were re-taken since: the `diff` pins when `diff` came to
build only f1's closure (only `nodes_expanded` moved), and the truncated
`membership` pin when a budget cut stopped counting as a mismatch (only
`statuses_agree` and the exit code moved).  The `y-axis` and `force` pins
were taken before rotations, words and compiled generators moved from
4x4 matrices to quaternion pairs; the default axes (z and x) leave the
sin * n_y term of the rotation at zero, and the forced cos 0 pair fails the
freeness preconditions, so the older pins reach neither path.  The three
channel-step pins (`reach` at depth 5, `reach` with a y axis at damping
2/3, `monotones` at damping 1/3) were taken before the channel step moved
from dense 4x4 products to the blocks of the quaternion pair.  The
benchmark's `verify-free --max-len 15`, `membership @minus --depth 14` and
`diff --depth 5` pins were taken before the quaternion product became
straight-line Hamilton formulas and the closure's dampings integer pairs.
The three `verify-free` pins were re-taken when the outcome gained its
`certificate` key (the mod-p freeness certificate, null for the forced
cos 0 pair); with that key removed, each outcome still hashes to its old
pin.  The four `monotones` pins were re-taken when the report came to hold
one summary line per table and the full tables moved to the `--tables`
file; REASSEMBLED keeps their old hashes, which the outcome with its
summary replaced by the parsed file still reproduces.  Every pin that
compiles an instance into channels (`compile`, `membership`, `diff`,
`reach` and the classic3 `monotones` pins, with their REASSEMBLED hashes)
was re-taken when each tile came to compile into a unitary channel E_i
and a reset channel R_i in place of the H_i and G_i that carried a
tile-index block; the `verify-free` and `monotones --graph demo` pins did
not move.  The `solve-pcp` pins and the `reach` pins of a printed path and
of the maximally mixed seed were taken before a channel came to carry a
tuple of separately reduced quaternions in place of one flat tuple.  The
`diff` pins were re-taken when `diff` came to run the generic membership
search at the one length its target's damping names, in place of building
a closure: `matches` kept only the target's entry and `nodes_expanded`
fell, while status, exit code and witness stayed.  The budget-500 pin no
longer cut its search, so it was re-pointed at a query that the one-length
search does cut.

The pins hash a re-encoding of the parsed outcome, so the report writer
itself is checked separately: the raw `--out` bytes, every subcommand's
in-memory report and Hypothesis-drawn data must come out exactly as the
stdlib's indenting encoder writes them.
"""

import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corpus import DEFAULT_PAIR, random_graphs
from freeops import cli
from freeops.exact import GaussianRational
from freeops.freerot import FreePair, RotationParams, freeness_scan, rotation_quaternion
from freeops.pcp import PCPInstance, SearchOutcome
from freeops.reduction import DiffOutcome, MembershipOutcome, compile_generators
from freeops.resourcegraph import ReachOutcome, demo_graph, monotone_family, quotient
from freeops.util import canonical_json, report_json

CLASSIC = "1|101\n10|00\n011|11\n"
CLASSIC_MINUS = "1|101\n10|00\n"
Y_AXIS_ROTATION = ["--cos", "5/13", "--sin", "12/13", "--axis-a", "0,1,0", "--axis-b", "0,0,1"]

# name -> (argv, exit code, outcome sha256, DOT sha256 or None without --dot);
# "@" stands for the CLASSIC instance file, "@minus" for CLASSIC_MINUS.
PINS = {
    "monotones-demo": (
        ["monotones", "--graph", "demo"],
        0,
        "96f14511bc35e380a1549147ab626780bf58434a5e4412f551b15a84d0bd73b5",
        "da7657f502b0bbe74b44fd795c9135cd2808e0a1f108438c2e6cce501875c4bd",
    ),
    "monotones-classic3-depth3": (
        ["monotones", "--instance", "@", "--depth", "3"],
        0,
        "f3a968112cd970eb65b80d078f0bcb8079916cc1dfe9e2c016b292b3195f90a1",
        "aad3f8b5e755f7b280c00078c7f4941d551bfd855de7ca5b9d9d8a18b1b34612",
    ),
    "reach-classic3-depth2": (
        ["reach", "--instance", "@", "--depth", "2", "--from", "spread", "--to", "target:1/4"],
        10,
        "ff6d52cb6fdfb9b5fe8931b77a33a16c6289b0c91ef655ecd5dde54ab73fa6db",
        "ac2a6df7995098df3fd6117a62433ebf444d9cd792a4a5412b6c12a4021b73b2",
    ),
    # The rank-1 seed ends its PSD test on an all-zero remainder.  The
    # target at damping 1/4 needs a solution of length 2, which classic3
    # lacks.
    "reach-classic3-depth4-basis0": (
        ["reach", "--instance", "@", "--depth", "4", "--from", "basis:0", "--to", "target:1/4"],
        10,
        "08507b1c5177384e2c3ae610923a37e03c9b119b094a9a3ecf8cb36e6673735c",
        "dfc908d73defd6999bb9f50a5f3f62c95a4cf947eabf881eb6180efeebf2c703",
    ),
    "verify-free-len10": (
        ["verify-free", "--max-len", "10"],
        0,
        "c389d0bdb1a7e053172ce3bf2558329bee178fcc72be9eb92186cdd596ed5c48",
        None,
    ),
    "compile-classic3": (
        ["compile", "--instance", "@"],
        0,
        "a1b865ff418971f6aadcb86ee321dfa544307e3614f2624a17e72cb7c0c349e0",
        None,
    ),
    "membership-classic3-depth8": (
        ["membership", "--instance", "@", "--depth", "8"],
        0,
        "a8524cd3c67c093f7c985f5ddbf9cdcd7ea7df25de194900e341ab66ce116391",
        None,
    ),
    "membership-classic3-depth16-structured": (
        ["membership", "--instance", "@", "--depth", "16", "--mode", "structured"],
        0,
        "58a5ee520a15cdb47f40b6a492e049cc2dfed8e9bf08ee71f9a4073b17d5716e",
        None,
    ),
    "membership-minus-depth10-exhausted": (
        ["membership", "--instance", "@minus", "--depth", "10"],
        10,
        "658772ee8e7bb9d4621fe49e412b1eb8e0b2a997618fd452a5d15bcbe4ba4996",
        None,
    ),
    # The generic search needs 12 expansions for classic3, so 300 no longer
    # cuts it; the next pin keeps a cut search.
    "membership-classic3-depth10-budget300": (
        ["membership", "--instance", "@", "--depth", "10", "--budget", "300"],
        0,
        "a8524cd3c67c093f7c985f5ddbf9cdcd7ea7df25de194900e341ab66ce116391",
        None,
    ),
    # Truncated in depth 4 while the tile oracle finds a solution: the cut
    # search is inconclusive (statuses_agree null, exit 10).
    "membership-classic3-depth10-structured-budget50": (
        [
            "membership", "--instance", "@", "--depth", "10", "--mode", "structured",
            "--budget", "50",
        ],
        10,
        "5ed97cc5f78a29344dee342c0428db4be6675fe1e3a7aee24e5f527049da1280",
        None,
    ),
    "diff-classic3-depth4": (
        ["diff", "--instance", "@", "--depth", "4"],
        0,
        "911e2b8cbcfb3d1c164669b619cd4eb5dcbbf1ccefca0ccbd465d3471ca507c1",
        None,
    ),
    # Length 8 takes 3 + 9 + 27 + 81 expansions, so 40 cuts the fourth level:
    # inconclusive (exit 10), with lengths up to 7 decided by the damping.
    "diff-classic3-depth8-budget40": (
        ["diff", "--instance", "@", "--depth", "8", "--target-damping", "1/256", "--budget", "40"],
        10,
        "48169693e9dcc2cb7081f76e735bebe43c7150751dd31b8450da0e7021545894",
        None,
    ),
    # A rotation with a y axis, so the sin * n_y term of the rotation is
    # nonzero; the default axes are z and x.
    "compile-classic3-y-axis": (
        ["compile", "--instance", "@", *Y_AXIS_ROTATION],
        0,
        "624bf81444b3ecbb392e342c168ee8b8c6e3a15f5d99a8c86c77b0e6e70f1acc",
        None,
    ),
    "membership-classic3-depth8-y-axis": (
        ["membership", "--instance", "@", "--depth", "8", *Y_AXIS_ROTATION],
        0,
        "a8524cd3c67c093f7c985f5ddbf9cdcd7ea7df25de194900e341ab66ce116391",
        None,
    ),
    # The channel-step pins: the benchmark's reach query, a y-axis rotation
    # (nonzero real part of beta) at damping 2/3, and monotones at damping 1/3.
    "reach-classic3-depth5": (
        ["reach", "--instance", "@", "--depth", "5", "--from", "spread", "--to", "target:1/4"],
        10,
        "4c4a29e450ed353f493a0ef709db514127c99291899032ac1d0c3180deb46fe6",
        "2c312db21c273edade7050888a705f47a2b9d2813e2c63295c5ec263f1c410d7",
    ),
    "reach-classic3-depth3-y-axis-damping-2-3": (
        [
            "reach", "--instance", "@", "--depth", "3", "--from", "spread",
            "--to", "target:1/4", "--damping", "2/3", *Y_AXIS_ROTATION,
        ],
        10,
        "5059f8ea9bab7dcafc2d6bc0ed7aead69436eff8d67e2963c5e663a7851fa9bc",
        "d5c7929c78bbd39e422fb21b0f188cee2a9029ef4abcc0a714a354f0cea04912",
    ),
    "monotones-classic3-depth3-damping-1-3": (
        ["monotones", "--instance", "@", "--depth", "3", "--seed", "spread", "--damping", "1/3"],
        0,
        "ee9eb705f3eba573360ad2f168d652f0e7389f477d10c0f39aa5f9851d6d6db9",
        "fed9010de22bd11c0db882e0da5c0b44b9e9a4a42e655030607c4ad95b15c4f4",
    ),
    # The benchmark's monotone query in its first tile order: 83 classes
    # from 121 states, a 31 KB report and 83 x 83 table values in its
    # --tables file (331 KB).
    "monotones-classic3-depth4": (
        ["monotones", "--instance", "@", "--depth", "4"],
        0,
        "b6971aaedbdd88bd7414ee49ea93af4550ec613ee4a17691bf0e3c77f49c8722",
        "81ddcd40bca1bbfc5e7814168d506a6d8f960d266226f25a82272dceafd374b8",
    ),
    # The benchmark's three semigroup-search bounds that no pin above covers:
    # 65,534 words, a 14-deep exhausted meet-in-the-middle and a diff whose
    # target p^2 takes 3 expansions.
    "verify-free-len15": (
        ["verify-free", "--max-len", "15"],
        0,
        "66dd2190ad9a137d007426d2d89c911d7bad30100021e3c599eb42f023a25885",
        None,
    ),
    "membership-minus-depth14-exhausted": (
        ["membership", "--instance", "@minus", "--depth", "14"],
        10,
        "195b79746337f1de412267b3ce8ff747878e982308d86e78b8a48d00378b9123",
        None,
    ),
    "diff-classic3-depth5": (
        ["diff", "--instance", "@", "--depth", "5"],
        0,
        "5a5a682a44fcbf5b1eca3098a8a0a1e59ceb22badda900d0fac7b8277b874dab",
        None,
    ),
    # The tile search and the reach paths that no pin above runs: a found
    # witness and an exhausted search, a printed shortest path (the
    # adjacency walk) and the maximally mixed seed.
    "solve-pcp-classic3-depth4": (
        ["solve-pcp", "--instance", "@", "--depth", "4"],
        0,
        "5e1391c99fdd31710130fa39410feb523264a4c0f65cf30e3d71d8f884079e79",
        None,
    ),
    "solve-pcp-minus-depth6": (
        ["solve-pcp", "--instance", "@minus", "--depth", "6"],
        10,
        "ad3eb47b723a7d31d8e46d5c01e8b97a1c1048c3cbbfa37da13bb14533ef74ef",
        None,
    ),
    "reach-classic3-depth4-basis0-path": (
        ["reach", "--instance", "@", "--depth", "4", "--from", "basis:0", "--to", "target:1/16"],
        0,
        "eb59732bf9e752d41701c2682effb16f9f306a2769cf5cf59d851554401d8c7e",
        "dfc908d73defd6999bb9f50a5f3f62c95a4cf947eabf881eb6180efeebf2c703",
    ),
    "reach-classic3-depth3-maxmixed": (
        ["reach", "--instance", "@", "--depth", "3", "--from", "maxmixed", "--to", "target:1/4"],
        10,
        "d8c1c481f8b6b368b61fcd751a5b45329c90b8edfca8b7a89057b949ee45995d",
        "43c0b508818694bc4480c51c6d0e4794ebf09c20e2723a8a5724574143462174",
    ),
    # cos 0 fails the freeness preconditions; --force scans it anyway.
    "verify-free-force-cos0": (
        ["verify-free", "--max-len", "4", "--force", "--cos", "0", "--sin", "1"],
        11,
        "c33c6b6221d11241204f550c6aea08ad28d8c0c83045d0345d9d2cc8be8669a7",
        None,
    ),
}


# The `monotones` pins' outcome hashes in the shape from before the full
# tables left the report for the --tables file (the classic3 ones re-taken
# with the unitary and reset channels).
REASSEMBLED = {
    "monotones-demo": "ce200600cf730844f13347a2d73965eac81b1b501d83b251078ed0366fe9f81b",
    "monotones-classic3-depth3": "69c9058bcba27be0a77df3eb0f21e87bf1924af0e45a20856e255d8c96408e8f",
    "monotones-classic3-depth3-damping-1-3": (
        "6f94ad42be94ce2479538d01755d6e0b841bcfe0897c98d1f9218d60af469685"
    ),
    "monotones-classic3-depth4": "bfc6a0b4f836f1cb4ba4a0835de76bda12c2dd53a45afdb99b03cea8042cb19f",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdlib_json(data) -> str:
    """What canonical_json must write: the stdlib's indenting encoder."""
    buf = io.StringIO()
    json.dump(data, buf, indent=2, sort_keys=True)
    return buf.getvalue() + "\n"


def written(data) -> str:
    buf = io.StringIO()
    canonical_json(data, buf)
    return buf.getvalue()


# Quotes, backslashes, control characters, DEL, non-ASCII, a line
# separator, a lone surrogate and an astral character, on top of arbitrary
# code points.
ESCAPES = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\ud800", "\U0001f600"]
TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.lists(st.sampled_from(ESCAPES)).map("".join),
)
BIG = st.integers(min_value=2**64, max_value=2**200)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), BIG, BIG.map(lambda n: -n), st.floats(), TEXT
)
# Each dict draws its keys from one kind, so that the keys sort; ints,
# floats and bools compare with one another.
KEY_KINDS = (TEXT, st.one_of(st.integers(), st.floats(), st.booleans()), st.none())
DATA = st.recursive(
    st.one_of(SCALARS, st.sampled_from([[], (), {}])),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        *(st.dictionaries(keys, children, max_size=6) for keys in KEY_KINDS),
    ),
    max_leaves=40,
)


@settings(max_examples=300)
@given(DATA)
def test_canonical_json_matches_stdlib(data):
    assert written(data) == stdlib_json(data)


@pytest.mark.parametrize(
    "data",
    [
        {1: 0, "a": 0},
        {"a": [1], 2: {}},
        {(1, 2): 0},
        {"a": {(1,): [1]}},
        [Fraction(1, 2)],
        {"a": [{"b": Fraction(1, 2)}]},
    ],
    ids=["mixed-keys", "mixed-keys-nested", "tuple-key", "tuple-key-nested", "flat", "nested"],
)
def test_canonical_json_rejects_what_stdlib_rejects(data):
    with pytest.raises(TypeError):
        stdlib_json(data)
    with pytest.raises(TypeError):
        written(data)


# Each result next to the dict that its own hand-written to_json_dict
# returned before util.report_json replaced those methods, and the classic3
# generator set and the demo quotient, which keep a to_json_dict of their
# own, next to the dict that method returned before report_json read it.
# The diff outcome holds the one target's entry that `matches` keeps since
# diff came to search one length.
ZERO, ONE = Fraction(0), Fraction(1)
Z, X = (ZERO, ZERO, ONE), (ONE, ZERO, ZERO)
HALF_I = rotation_quaternion(ONE / 2, ZERO, Z)
RULE_PINS = [
    (
        MembershipOutcome(
            "found",
            "generic",
            4,
            17,
            witness=("E1", "R1"),
            witness_damping=Fraction(1, 4),
        ),
        {
            "status": "found",
            "mode": "generic",
            "witness": ["E1", "R1"],
            "witness_damping": "1/4",
            "extracted": None,
            "depth_reached": 4,
            "nodes_expanded": 17,
            "truncated": False,
        },
    ),
    (
        MembershipOutcome("exhausted_to_depth", "structured", 2, 11, truncated=True),
        {
            "status": "exhausted_to_depth",
            "mode": "structured",
            "witness": None,
            "witness_damping": None,
            "extracted": None,
            "depth_reached": 2,
            "nodes_expanded": 11,
            "truncated": True,
        },
    ),
    (
        SearchOutcome("found", (1, 3, 2), 3, 9),
        {"status": "found", "witness": [1, 3, 2], "depth_reached": 3, "nodes_expanded": 9, "truncated": False},
    ),
    (
        DiffOutcome(
            "indistinguishable_up_to_depth",
            None,
            {"f2:PSI": {"realized_by": ("E1", "R1"), "at_depth": 2}},
            2,
            3,
        ),
        {
            "status": "indistinguishable_up_to_depth",
            "witness": None,
            "matches": {"f2:PSI": {"realized_by": ["E1", "R1"], "at_depth": 2}},
            "depth_reached": 2,
            "nodes_expanded": 3,
            "truncated": False,
        },
    ),
    (ReachOutcome("reachable", ("E1", "R2")), {"status": "reachable", "path": ["E1", "R2"]}),
    (
        ReachOutcome("not_reachable_within_bound", None),
        {"status": "not_reachable_within_bound", "path": None},
    ),
    (
        PCPInstance((("1", "101"), ("10", "00"), ("", "1"))),
        {"tiles": [["1", "101"], ["10", "00"], ["", "1"]]},
    ),
    (
        RotationParams(Fraction(5, 13), Fraction(12, 13), (ZERO, ONE, ZERO), Z),
        {"cos": "5/13", "sin": "12/13", "axis_a": ["0", "1", "0"], "axis_b": ["0", "0", "1"]},
    ),
    (
        # The forced cos 1/2, sin 0 pair: a = b = I/2, so every word is
        # scalar and collides with the first word of its length.
        freeness_scan(FreePair(HALF_I, HALF_I, RotationParams(ONE / 2, ZERO, Z, X)), 3),
        {
            "scanned_max_len": 3,
            "word_count": 14,
            "collisions": [
                {"word_a": a, "word_b": b}
                for a, b in [("0", "1"), ("00", "01"), ("00", "10"), ("00", "11")]
                + [("000", w) for w in ("001", "010", "011", "100", "101", "110", "111")]
            ],
            "scalar_words": ["0", "1", "00", "01", "10", "11"]
            + ["000", "001", "010", "011", "100", "101", "110", "111"],
            "truncated": False,
        },
    ),
    (
        compile_generators(PCPInstance((("1", "101"), ("10", "00"), ("011", "11"))), DEFAULT_PAIR, ONE / 2),
        {
            "instance": {"tiles": [["1", "101"], ["10", "00"], ["011", "11"]]},
            "instance_text": CLASSIC,
            "rotation": {"cos": "3/5", "sin": "4/5", "axis_a": ["0", "0", "1"], "axis_b": ["1", "0", "0"]},
            "damping": {label: "1/2" for label in ("E1", "E2", "E3", "R1", "R2", "R3")},
            "operators": {
                label: {"rows": 4, "cols": cols, "entries": entries.split()}
                for label, cols, entries in [
                    ("E1", 4, "9/25 12/25 -16/25 12/25 -12/25 -351/625 -132/625 16/25"
                              " -16/25 132/625 -351/625 -12/25 -12/25 16/25 12/25 9/25"),
                    ("E2", 4, "9/25 12/25 -176/625 468/625 -12/25 9/25 468/625 176/625"
                              " -16/25 12/25 -351/625 -132/625 12/25 16/25 132/625 -351/625"),
                    ("E3", 4, "3/5 2108/3125 -1344/3125 0 4/5 -1581/3125 1008/3125 0"
                              " 0 -1008/3125 -1581/3125 -4/5 0 -1344/3125 -2108/3125 3/5"),
                    ("R1", 1, "9/25 -12/25 -16/25 -12/25"),
                    ("R2", 1, "9/25 -12/25 -16/25 12/25"),
                    ("R3", 1, "3/5 4/5 0 0"),
                ]
            },
        },
    ),
    (
        quotient(demo_graph()),
        {
            "classes": {
                **{n: [n] for n in ("a", "b", "c", "d", "e", "omega", "rho", "sigma")},
                "g1": ["g1", "g2"],
            },
            "edges": [
                [u, v, "1"]
                for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "sigma"),
                             ("omega", "a"), ("rho", "a"), ("rho", "sigma"), ("sigma", "g1")]
            ],
        },
    ),
]


@pytest.mark.parametrize(
    "result, expected",
    RULE_PINS,
    ids=[
        "membership-found", "membership-cut", "search", "diff", "reach", "reach-none",
        "instance", "rotation-y-axis", "collisions-forced-cos-1-2", "generators-classic3",
        "quotient-demo",
    ],
)
def test_report_json_rule_matches_hand_written_exports(result, expected):
    assert report_json(result) == expected
    assert written(report_json(result)) == stdlib_json(expected)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-free", "--max-len", "6"],
        ["solve-pcp", "--instance", "@", "--depth", "4"],
        ["compile", "--instance", "@"],
        ["membership", "--instance", "@", "--depth", "8"],
        ["membership", "--instance", "@", "--depth", "16", "--mode", "structured"],
        ["reach", "--instance", "@", "--depth", "2", "--from", "spread", "--to", "target:1/4"],
        ["monotones", "--graph", "demo"],
        ["monotones", "--instance", "@", "--depth", "2"],
        ["monotones", "--graph", "demo", "--tables", "t.json"],
        ["monotones", "--instance", "@", "--depth", "2", "--tables", "t.json"],
        ["diff", "--instance", "@", "--depth", "4"],
    ],
    ids=lambda argv: "-".join(a for a in argv if a != "@"),
)
def test_handler_reports_encode_as_stdlib(tmp_path, argv):
    """The in-memory report, as cli.main builds it and takes to its report
    form, not a parsed copy, and the data of the extra files (the --tables
    family)."""
    path = tmp_path / "classic.pcp"
    path.write_text(CLASSIC)
    args = cli.build_parser().parse_args([str(path) if a == "@" else a for a in argv])
    _, resolved, hashes, outcome, extra = cli.handler(args.command)(args)
    config = cli._config(args, resolved)
    report = report_json(
        {"config": config, "input_hashes": hashes, "outcome": outcome, "wall_time_s": 0.5}
    )
    assert written(report) == stdlib_json(report)
    data = [report_json(content) for content in extra.values() if not isinstance(content, str)]
    assert len(data) == ("--tables" in argv)
    for content in data:
        assert written(content) == stdlib_json(content)


def pinned_argv(tmp_path, name):
    """The pin's argv with its instance files written, and its exit code."""
    argv, want_code, _, _ = PINS[name]
    files = {"@": CLASSIC, "@minus": CLASSIC_MINUS}
    for token, text in files.items():
        path = tmp_path / f"{token[1:] or 'classic'}.pcp"
        path.write_text(text)
        files[token] = str(path)
    return [files.get(a, a) for a in argv], want_code


def outcome_sha256(outcome) -> str:
    buf = io.StringIO()
    canonical_json(outcome, buf)
    return sha256(buf.getvalue().encode())


@pytest.mark.parametrize("name", sorted(PINS))
def test_report_bytes_pinned(tmp_path, name):
    _, _, outcome_hash, dot_hash = PINS[name]
    argv, want_code = pinned_argv(tmp_path, name)
    out = tmp_path / "r.json"
    dot = tmp_path / "g.dot"
    argv += ["--out", str(out)]
    if dot_hash is not None:
        argv += ["--dot", str(dot)]
    assert cli.main(argv) == want_code
    text = out.read_text()
    assert text == stdlib_json(json.loads(text))
    assert outcome_sha256(json.loads(text)["outcome"]) == outcome_hash
    if dot_hash is not None:
        assert sha256(dot.read_bytes()) == dot_hash


@pytest.mark.parametrize("name", sorted(REASSEMBLED))
def test_tables_file_reassembles_old_pins(tmp_path, name):
    """The --tables file holds the full tables byte for byte: put in place
    of the summary lines, it gives back the outcome of the old pin."""
    argv, want_code = pinned_argv(tmp_path, name)
    out = tmp_path / "r.json"
    tables = tmp_path / "t.json"
    assert cli.main(argv + ["--out", str(out), "--tables", str(tables)]) == want_code
    raw = tables.read_bytes()
    parsed = json.loads(raw)
    assert raw == (json.dumps(parsed, indent=2, sort_keys=True) + "\n").encode()
    outcome = json.loads(out.read_text())["outcome"]
    assert outcome_sha256(outcome) == PINS[name][2]
    del outcome["table_summary"]
    outcome["tables"] = parsed
    assert outcome_sha256(outcome) == REASSEMBLED[name]


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
    for g in random_graphs(2105, 60):
        q = quotient(g)
        for table in monotone_family(q).tables:
            assert list(table.dist) == longest_paths_brute_force(q, table.base)
