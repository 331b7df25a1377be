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
summary replaced by the parsed file still reproduces.

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

from corpus import random_graphs
from freeops import cli
from freeops.exact import GaussianRational
from freeops.freerot import FreePair, RotationParams, freeness_scan, rotation_quaternion
from freeops.pcp import PCPInstance, SearchOutcome
from freeops.reduction import DiffOutcome, MembershipOutcome
from freeops.resourcegraph import ReachOutcome, monotone_family, quotient
from freeops.util import SharedKeyDict, canonical_json, report_json

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
        "520f91585cc1faad7304e3b5ef92dc3c3eff59aa34e09c192fea5dd1c975d317",
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
    "verify-free-len10": (
        ["verify-free", "--max-len", "10"],
        0,
        "c389d0bdb1a7e053172ce3bf2558329bee178fcc72be9eb92186cdd596ed5c48",
        None,
    ),
    "compile-classic3": (
        ["compile", "--instance", "@"],
        0,
        "c4d088f1f2b1edd6b9edd7f602bcf6ea67080b2351c9231b1431b03abb52a07f",
        None,
    ),
    "membership-classic3-depth8": (
        ["membership", "--instance", "@", "--depth", "8"],
        0,
        "169e5f634acc9044abd22ede9265c8fbeefa4d37032c970429da5dd066d4c040",
        None,
    ),
    "membership-classic3-depth16-structured": (
        ["membership", "--instance", "@", "--depth", "16", "--mode", "structured"],
        0,
        "801ac0bd1b3c6983c93135864b9c9acd84d129b2e604c837eea86c45c7b4fe0f",
        None,
    ),
    "membership-minus-depth10-exhausted": (
        ["membership", "--instance", "@minus", "--depth", "10"],
        10,
        "ac0aec5f1b2803595382824ed8213f4abb00e6dace4c9de3b463c764c8bcd0cb",
        None,
    ),
    # Truncated at depth 6 while the tile oracle finds a solution: the cut
    # search is inconclusive (statuses_agree null, exit 10).
    "membership-classic3-depth10-budget300": (
        ["membership", "--instance", "@", "--depth", "10", "--budget", "300"],
        10,
        "e5fbecc18aee1e7524c305edb25fdc96f7001ba6dd157ff56914df6dd5aa3dec",
        None,
    ),
    "diff-classic3-depth4": (
        ["diff", "--instance", "@", "--depth", "4"],
        0,
        "7617a83b9d5cb05c55f897c2120642f3c1d759433eb7e566eb51e40873f08486",
        None,
    ),
    "diff-classic3-depth6-budget500": (
        ["diff", "--instance", "@", "--depth", "6", "--budget", "500"],
        10,
        "c1e1b777a7c513967bded83bc2bcad92381479af17361284de69246fd1a4d882",
        None,
    ),
    # A rotation with a y axis, so the sin * n_y term of the rotation is
    # nonzero; the default axes are z and x.
    "compile-classic3-y-axis": (
        ["compile", "--instance", "@", *Y_AXIS_ROTATION],
        0,
        "3c00de92beb4010420d2cc335c2fe465ebff71ace60280d2e59ef13972917254",
        None,
    ),
    "membership-classic3-depth8-y-axis": (
        ["membership", "--instance", "@", "--depth", "8", *Y_AXIS_ROTATION],
        0,
        "169e5f634acc9044abd22ede9265c8fbeefa4d37032c970429da5dd066d4c040",
        None,
    ),
    # The channel-step pins: the benchmark's reach query, a y-axis rotation
    # (nonzero real part of beta) at damping 2/3, and monotones at damping 1/3.
    "reach-classic3-depth5": (
        ["reach", "--instance", "@", "--depth", "5", "--from", "spread", "--to", "target:1/4"],
        10,
        "bbac6a27c783af66dc052872425b11a6a45c5f0652b69967785926604f4249ce",
        "d540c333c1cf9ce3ad23f09167df1c59b08b039b9c0f15c5d7f5cbc889d14f46",
    ),
    "reach-classic3-depth3-y-axis-damping-2-3": (
        [
            "reach", "--instance", "@", "--depth", "3", "--from", "spread",
            "--to", "target:1/4", "--damping", "2/3", *Y_AXIS_ROTATION,
        ],
        10,
        "359ccfacb6d028c7a10e7f1944f300b97b968268104feecd2972686704b7c94c",
        "df9c942f7613be2e0d0d0a9285de40af75350356f8557bdae8ecb1f03df33a11",
    ),
    "monotones-classic3-depth3-damping-1-3": (
        ["monotones", "--instance", "@", "--depth", "3", "--seed", "spread", "--damping", "1/3"],
        0,
        "8c7f6e864cb655592876f8ef382bf774468ef72423f31292237ecfffb08e7481",
        "b7e7a0e3f432d3afd3c335a1fe54f926b4ab1c1f1eeb07ed769db2ef1dd6f056",
    ),
    # The benchmark's monotone query in its first tile order: 910 classes,
    # a 331 KB report and 910 x 910 table values in its --tables file.
    "monotones-classic3-depth4": (
        ["monotones", "--instance", "@", "--depth", "4"],
        0,
        "9489ac593b494eb172d88a53aca5c0c5feaafadb2b7fb7c2a7e151d96c2229db",
        "8ba824bcf0c09025b6263f364d3c92123106023b9274b408a0ef3a7c885be9e6",
    ),
    # The benchmark's three semigroup-search bounds that no pin above covers:
    # 65,534 words, a 14-deep exhausted meet-in-the-middle and 9,120 closure
    # expansions.
    "verify-free-len15": (
        ["verify-free", "--max-len", "15"],
        0,
        "66dd2190ad9a137d007426d2d89c911d7bad30100021e3c599eb42f023a25885",
        None,
    ),
    "membership-minus-depth14-exhausted": (
        ["membership", "--instance", "@minus", "--depth", "14"],
        10,
        "b5502386bd8637772680ab6ed884ab9235a02be09da79ba3df130f9c0dadf53a",
        None,
    ),
    "diff-classic3-depth5": (
        ["diff", "--instance", "@", "--depth", "5"],
        0,
        "3faac3e7e7d6b917ba90ff7116644e6d3245f3b882baf02c473e850d62dbc777",
        None,
    ),
    # cos 0 fails the freeness preconditions; --force scans it anyway.
    "verify-free-force-cos0": (
        ["verify-free", "--max-len", "4", "--force", "--cos", "0", "--sin", "1"],
        11,
        "c33c6b6221d11241204f550c6aea08ad28d8c0c83045d0345d9d2cc8be8669a7",
        None,
    ),
}


# The `monotones` pins' outcome hashes from before the full tables left the
# report for the --tables file.
REASSEMBLED = {
    "monotones-demo": "ce200600cf730844f13347a2d73965eac81b1b501d83b251078ed0366fe9f81b",
    "monotones-classic3-depth3": "0acd35485e8e78cb2d070be60cbad9de1660bdc284ac757926176d128bc150ce",
    "monotones-classic3-depth3-damping-1-3": (
        "5c096f5e77bf2156960e648b7eba0c3f482c5045466985c4f4bf66f5fb612789"
    ),
    "monotones-classic3-depth4": "7ed092afbcd1a960efbca2391db51adb5ae4b7bf6e760627fe63106d2a02ff99",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expand_shared(obj):
    """json.dump's default: a SharedKeyDict is the dict it stands for, and
    any other type is rejected as json.dump rejects it."""
    if isinstance(obj, SharedKeyDict):
        return dict(zip(obj.keys, obj.values))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def stdlib_json(data) -> str:
    """What canonical_json must write: the stdlib's indenting encoder."""
    buf = io.StringIO()
    json.dump(data, buf, indent=2, sort_keys=True, default=expand_shared)
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


# Shared keys: arbitrary text plus what a %-template or str.format would
# misread, and the empty key.
SHARED_KEYS = st.lists(
    st.one_of(TEXT, st.sampled_from(ESCAPES + ["%", "%s", "%%", "{}", "{0}", ""])), unique=True
).map(lambda keys: tuple(sorted(keys)))


@settings(max_examples=200)
@given(st.data())
def test_shared_key_dict_matches_stdlib(data):
    keys = data.draw(SHARED_KEYS)
    rows = data.draw(
        st.lists(st.lists(TEXT, min_size=len(keys), max_size=len(keys)), min_size=1, max_size=3)
    )
    shared = [SharedKeyDict(keys, tuple(values)) for values in rows]
    # The same key tuple at nesting levels 1 and 3, and again at level 3.
    report = {"first": shared[0], "tables": [{"values": s} for s in shared]}
    assert written(report) == stdlib_json(report)
    assert written(shared[0]) == stdlib_json(shared[0])


PERCENT = SharedKeyDict(("a", "b%s", "c"), ("1", "%d", "2"))


@pytest.mark.parametrize(
    "data",
    [
        SharedKeyDict((), ()),
        [SharedKeyDict((), ()), {"a": SharedKeyDict((), ())}],
        # one key tuple at levels 1, 2 and 4
        [PERCENT, [PERCENT], {"x": [{"y": PERCENT}]}],
        {"a": SharedKeyDict(("k",), ("v",)), "b": SharedKeyDict(("k",), ("w",))},
    ],
    ids=["empty", "empty-nested", "one-tuple-three-levels", "equal-tuples"],
)
def test_shared_key_dict_cases(data):
    assert written(data) == stdlib_json(data)


@pytest.mark.parametrize(
    "keys, values, error",
    [
        (("b", "a"), ("1", "2"), ValueError),
        (("a", "a"), ("1", "2"), ValueError),
        (("a", "b", "a"), ("1", "2", "3"), ValueError),
        (("a", "b"), ("1", 1), TypeError),
        (("a", "b"), (1, True), TypeError),
    ],
    ids=["unsorted", "duplicate", "duplicate-apart", "int-value", "int-and-bool"],
)
def test_shared_key_dict_rejects(keys, values, error):
    with pytest.raises(error):
        written({"t": SharedKeyDict(keys, values)})


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
# returned before util.report_json replaced those methods.
DIGEST = "ab" * 16
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
            witness=("G1", "H1"),
            scalar_value=GaussianRational(Fraction(3, 5), Fraction(-4, 5)),
            witness_damping=Fraction(1, 4),
        ),
        {
            "status": "found",
            "mode": "generic",
            "witness": ["G1", "H1"],
            "scalar_value": "3/5-4/5*i",
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
            "scalar_value": None,
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
            "distinct",
            {"side": 2, "label": "PSI", "damping": "1/16", "unitary_digest": DIGEST},
            {"f1:H1": {"realized_by": ["H1"], "at_depth": 1}},
            2,
            30,
        ),
        {
            "status": "distinct",
            "witness": {"side": 2, "label": "PSI", "damping": "1/16", "unitary_digest": DIGEST},
            "matches": {"f1:H1": {"realized_by": ["H1"], "at_depth": 1}},
            "depth_reached": 2,
            "nodes_expanded": 30,
            "truncated": False,
        },
    ),
    (ReachOutcome("reachable", ("H1", "G2")), {"status": "reachable", "path": ["H1", "G2"]}),
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
]


@pytest.mark.parametrize(
    "result, expected",
    RULE_PINS,
    ids=[
        "membership-found", "membership-cut", "search", "diff", "reach", "reach-none",
        "instance", "rotation-y-axis", "collisions-forced-cos-1-2",
    ],
)
def test_report_json_rule_matches_hand_written_exports(result, expected):
    assert report_json(result) == expected
    assert result.to_json_dict() == expected
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
    """The in-memory report, as cli.main builds it, not a parsed copy, and
    the data of the extra files (the --tables SharedKeyDicts)."""
    path = tmp_path / "classic.pcp"
    path.write_text(CLASSIC)
    args = cli.build_parser().parse_args([str(path) if a == "@" else a for a in argv])
    _, resolved, hashes, outcome, extra = args.handler(args)
    config = cli._config(args, resolved)
    report = {"config": config, "input_hashes": hashes, "outcome": outcome, "wall_time_s": 0.5}
    assert written(report) == stdlib_json(report)
    data = [content for content in extra.values() if not isinstance(content, str)]
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
