"""Shared test fixtures: the instance corpus, the default rotation pair,
channel composition and independent oracles.

The oracles stay deliberately separate from the package code paths they
check: solutions are found by exhaustive enumeration, positivity by Sturm
chains on the characteristic polynomial of `oracles.char_poly`,
characteristic polynomials also by Leibniz expansion, and graph
reachability by pairwise BFS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace
from typing import List, Optional, Tuple

from oracles import add, char_poly, mul, neg, trace
from freeops import cli
from freeops.exact import ExactDensityMatrix, ExactMatrix, GaussianRational
from freeops.freerot import make_free_pair, q_adjoint, q_mul
from freeops.pcp import PCPInstance
from freeops.reduction import ChannelElement
from freeops.resourcegraph import MonotoneFamily, ReachGraph, _closure_bitsets


# The pair every subcommand builds by default (3-4-5 about +z and +x), read
# from the CLI's defaults so that the default is stated in one place.
DEFAULT_PAIR = make_free_pair(cli._rotation_params(SimpleNamespace(**cli.ROTATION_DEFAULTS)))


def compose(x: ChannelElement, y: ChannelElement) -> ChannelElement:
    """(x compose y)(rho) = x(y(rho)), the nonempty labels joined by "*".
    A reset x absorbs y; two unitary channels multiply their pairs and
    dampings; a unitary x = (q1, q2) on a reset y onto g resets onto
    q1 g q2^dag, the dampings multiplied.  The searches form these products
    inline."""
    label = "*".join(lab for lab in (x.label, y.label) if lab)
    if x.reset:
        return ChannelElement(x.quaternions, x.damping, label)
    q1, q2 = x.quaternions
    if not y.reset:
        r1, r2 = y.quaternions
        return ChannelElement((q_mul(q1, r1), q_mul(q2, r2)), x.damping * y.damping, label)
    (g,) = y.quaternions
    return ChannelElement((q_mul(q_mul(q1, g), q_adjoint(q2)),), x.damping * y.damping, label)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    tiles: Tuple[Tuple[str, str], ...]
    solvable: bool
    min_len: Optional[int]           # minimal solution length (enumerated)
    witness: Optional[Tuple[int, ...]]  # lexicographically least minimal solution

    @property
    def instance(self) -> PCPInstance:
        return PCPInstance(self.tiles)

    @property
    def size(self) -> int:
        return len(self.tiles)


SOLVABLE = [
    CorpusEntry("single_zero", (("0", "0"),), True, 1, (1,)),
    CorpusEntry("single_one", (("1", "1"),), True, 1, (1,)),
    CorpusEntry("pad_left", (("01", "0"), ("1", "11")), True, 2, (1, 2)),
    CorpusEntry(
        "classic3", (("1", "101"), ("10", "00"), ("011", "11")), True, 4, (1, 3, 2, 3)
    ),
    CorpusEntry(
        "three_tile_chain", (("0", "00"), ("01", "1"), ("1", "11")), True, 2, (1, 2)
    ),
    CorpusEntry("double_zero", (("0", "00"), ("00", "0")), True, 2, (1, 2)),
    CorpusEntry("empty_image", (("01", "011"), ("1", "")), True, 2, (1, 2)),
    CorpusEntry("overhang_swap", (("01", "0"), ("0", "10")), True, 2, (1, 2)),
    CorpusEntry("two_step", (("010", "01"), ("1", "01")), True, 2, (1, 2)),
    CorpusEntry("mirror", (("11", "1"), ("1", "11")), True, 2, (1, 2)),
    CorpusEntry("unary_gap2", (("1", "111"), ("11", "1")), True, 3, (1, 2, 2)),
    CorpusEntry("unary_gap3", (("1", "1111"), ("11", "1")), True, 4, (1, 2, 2, 2)),
    CorpusEntry("unary_gap4", (("1", "11111"), ("11", "1")), True, 5, (1, 2, 2, 2, 2)),
    # Tile 3's bottom word is a suffix of its top word.
    CorpusEntry(
        "textbook3", (("1", "111"), ("10111", "10"), ("10", "0")), True, 4, (2, 1, 1, 3)
    ),
]

UNSOLVABLE = [
    CorpusEntry("diff_letters", (("0", "1"),), False, None, None),
    CorpusEntry("grow_bottom", (("0", "00"),), False, None, None),
    CorpusEntry("first_char", (("01", "10"),), False, None, None),
    CorpusEntry("len_mismatch", (("0", "01"), ("1", "10")), False, None, None),
    CorpusEntry("classic_minus", (("1", "101"), ("10", "00")), False, None, None),
    CorpusEntry("blocked", (("011", "11"), ("10", "00")), False, None, None),
    CorpusEntry("no_first", (("10", "0"), ("0", "100")), False, None, None),
    CorpusEntry("drift", (("1", "11"), ("10", "01")), False, None, None),
    CorpusEntry("deep_drift", (("0", "011"), ("1", "0")), False, None, None),
    CorpusEntry("parity", (("00", "001"), ("11", "110")), False, None, None),
    CorpusEntry("fig_tile", (("0", "100"),), False, None, None),
    # Regression: with the tile index carried in a second block and each
    # bottom word inverted, the word H1 G1 H2 G2 was scalar here.
    CorpusEntry("cancelling_pair", (("0", "01"), ("01", "0")), False, None, None),
]

CORPUS = SOLVABLE + UNSOLVABLE

# Every tile whose words have at most 2 bits, apart from the empty tile: the
# two-tile sweeps run all 2,304 ordered pairs of them.
SHORT_WORDS = ["", "0", "1", "00", "01", "10", "11"]
SHORT_TILES = [(top, bottom) for top in SHORT_WORDS for bottom in SHORT_WORDS if top or bottom]

# The solvable instance whose shortest scalar word under the former
# index-block encoding (length 6) was shorter than 2 x its solution length.
MIXED_CANCELLATION = next(e for e in SOLVABLE if e.name == "textbook3")


# --- enumeration oracle -------------------------------------------------------


def enumerate_solutions(tiles, max_len: int) -> List[Tuple[int, ...]]:
    """Every solution word up to max_len, by brute-force product enumeration."""
    sols = []
    k = len(tiles)
    for n in range(1, max_len + 1):
        for word in product(range(1, k + 1), repeat=n):
            top = "".join(tiles[i - 1][0] for i in word)
            bottom = "".join(tiles[i - 1][1] for i in word)
            if top == bottom:
                sols.append(word)
    return sols


# --- polynomial oracles -------------------------------------------------------


def _trim(p: List[Fraction]) -> List[Fraction]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _derivative(p: List[Fraction]) -> List[Fraction]:
    return [k * c for k, c in enumerate(p)][1:]


def _poly_mod(num: List[Fraction], den: List[Fraction]) -> List[Fraction]:
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    while len(num) - 1 >= dn and _trim(num):
        shift = len(num) - 1 - dn
        factor = num[-1] / lead
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num = num[:-1]
    return _trim(num)


def _sign_variations(signs: List[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def sturm_count_negative_roots(coeffs) -> int:
    """Distinct real roots in (-inf, 0) of a real-rooted polynomial.

    Accepts ascending coefficients (ints or Fractions).  Roots at zero are
    stripped first, then the square-free Sturm chain is evaluated at -inf
    and at 0.
    """
    p = _trim([Fraction(c) for c in coeffs])
    if not p:
        raise ValueError("zero polynomial")
    while p[0] == 0:
        p = p[1:]
    if len(p) == 1:
        return 0
    # square-free part: p / gcd(p, p')
    a, b = p, _derivative(p)
    while _trim(b):
        a, b = b, _poly_mod(a, b)
    g = _trim(a)
    if len(g) > 1:
        # exact division of p by g via repeated synthetic steps
        q = []
        rem = list(p)
        dn = len(g) - 1
        while len(rem) - 1 >= dn:
            factor = rem[-1] / g[-1]
            q.append(factor)
            for i, c in enumerate(g):
                rem[len(rem) - 1 - dn + i] -= factor * c
            rem = rem[:-1]
        p = _trim(list(reversed(q)))
    chain = [p, _derivative(p)]
    while len(chain[-1]) > 1:
        rem = _poly_mod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    def sign(x):
        return (x > 0) - (x < 0)
    at_minus_inf = [
        sign(q[-1]) * (-1) ** (len(q) - 1) for q in chain if _trim(q)
    ]
    at_zero = [sign(q[0]) for q in chain if _trim(q)]
    return _sign_variations(at_minus_inf) - _sign_variations(at_zero)


def sturm_is_psd(matrix: ExactMatrix) -> bool:
    """Independent PSD oracle: no negative characteristic roots."""
    coeffs = []
    for z in char_poly(matrix):
        assert z.im == 0
        coeffs.append(z.re)
    return sturm_count_negative_roots(coeffs) == 0


def charpoly_by_expansion(matrix: ExactMatrix):
    """det(x*I - M) by Leibniz expansion over polynomial coefficients.

    Exponential in the dimension; intended for n <= 4 cross-checks only.
    """
    n = matrix.rows
    zero = GaussianRational(Fraction(0))
    one = GaussianRational(Fraction(1))

    def poly_mul(p, q):
        out = [zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] = add(out[i + j], mul(a, b))
        return out

    # entry polynomials of x*I - M
    entry_polys = {}
    for i in range(n):
        for j in range(n):
            m = matrix.entry(i, j)
            entry_polys[i, j] = [neg(m), one] if i == j else [neg(m)]
    total = [zero] * (n + 1)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # parity via inversion count
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inversions % 2 else 1
        term = [one if sign == 1 else neg(one)]
        for i in range(n):
            term = poly_mul(term, entry_polys[i, perm[i]])
        for k, c in enumerate(term):
            total[k] = add(total[k], c)
    return tuple(total)


# --- exact random objects ------------------------------------------------------

PYTHAGOREAN = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
]

UNITS = [
    GaussianRational(Fraction(1)),
    GaussianRational(Fraction(-1)),
    GaussianRational(Fraction(0), Fraction(1)),
    GaussianRational(Fraction(0), Fraction(-1)),
]


def random_exact_unitary(rng: random.Random, n: int) -> ExactMatrix:
    """Product of exact plane rotations and unit-phase diagonals."""
    u = ExactMatrix.diagonal([rng.choice(UNITS) for _ in range(n)])
    for _ in range(rng.randint(2, 4)):
        p, q = rng.sample(range(n), 2)
        c, s = rng.choice(PYTHAGOREAN)
        if rng.random() < 0.5:
            s = -s
        rows = [
            [GaussianRational(Fraction(1)) if i == j else GaussianRational(Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
        rows[p][p] = GaussianRational(c)
        rows[q][q] = GaussianRational(c)
        if rng.random() < 0.5:
            rows[p][q] = GaussianRational(s)
            rows[q][p] = GaussianRational(-s)
        else:
            rows[p][q] = GaussianRational(Fraction(0), s)
            rows[q][p] = GaussianRational(Fraction(0), s)
        u = u @ ExactMatrix.from_rows(rows)
    return u


def random_hermitian_with_spectrum(rng: random.Random, n: int):
    """(matrix, eigenvalues): an exact unitary conjugation of a random
    rational diagonal."""
    eigs = [
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)
    ]
    u = random_exact_unitary(rng, n)
    m = u @ ExactMatrix.diagonal(eigs) @ u.dagger()
    return m, eigs


def random_density(rng: random.Random, dim: int = 4) -> ExactDensityMatrix:
    """X X^dag normalized by its trace; exact and positive by construction."""
    while True:
        entries = [
            GaussianRational(
                Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
            )
            for _ in range(dim * dim)
        ]
        x = ExactMatrix(dim, dim, entries)
        m = x @ x.dagger()
        t = trace(m)
        if t.re != 0:
            return ExactDensityMatrix(m.scale(GaussianRational(1 / t.re)))


# --- graph oracles --------------------------------------------------------------


def random_digraph(rng: random.Random, n_nodes: int, n_edges: int) -> ReachGraph:
    nodes = [f"n{i:03d}" for i in range(n_nodes)]
    pairs = set()
    while len(pairs) < n_edges:
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        pairs.add((nodes[u], nodes[v]))
    edges = [(u, v, f"{u}>{v}") for u, v in sorted(pairs)]
    return ReachGraph.synthetic(nodes, edges, seeds=(nodes[0],))


def random_graphs(seed: int, count: int) -> List[ReachGraph]:
    """count random digraphs of 1 to 12 nodes and at most 3n edges."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(1, 12)
        graphs.append(random_digraph(rng, n, rng.randint(0, min(n * n, 3 * n))))
    return graphs


def bfs_reachable(graph: ReachGraph, start: str) -> set:
    adj = {}
    for u, v, _ in graph.edges:
        adj.setdefault(u, []).append(v)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def mutual_reachability_classes(graph: ReachGraph):
    """Partition by pairwise mutual reachability, via per-node BFS."""
    nodes = sorted(graph.nodes)
    reach = {n: bfs_reachable(graph, n) for n in nodes}
    classes = []
    assigned = {}
    for n in nodes:
        if n in assigned:
            continue
        cls = sorted(
            m for m in nodes if m in reach[n] and n in reach[m]
        )
        for m in cls:
            assigned[m] = len(classes)
        classes.append(tuple(cls))
    return classes


def check_complete_pairwise(family: MonotoneFamily) -> Optional[dict]:
    """Reference completeness check: every class pair against every table,
    O(n^2 T).  r dominates s when no table's distance at s is below its
    distance at r; the first (r, s) where dominance and closure
    reachability differ is the counterexample, None when there is none."""
    q = family.quotient
    closure = _closure_bitsets(q)
    by_base = {t.base: t.dist for t in family.tables}
    tables = [t.dist for t in family.tables]
    for r in range(q.size):
        own = by_base.get(r)
        for s in range(q.size):
            dominated = True
            if own is not None and own[s] < own[r]:
                dominated = False
            else:
                for dist in tables:
                    if dist[s] < dist[r]:
                        dominated = False
                        break
            reachable = bool(closure[r] & (1 << s))
            if dominated != reachable:
                return {
                    "from": q.representative(r),
                    "to": q.representative(s),
                    "dominated": dominated,
                    "reachable": reachable,
                }
    return None


def check_compatible_pairwise(g: ReachGraph, family: MonotoneFamily) -> Optional[dict]:
    """Reference compatibility check: every graph edge against every table,
    O(E T); the first (edge, table) whose distance drops along the edge is
    the counterexample, None when there is none."""
    class_of = family.quotient.class_of
    for u, v, lab in g.edges:
        cu = class_of[u]
        cv = class_of[v]
        for table in family.tables:
            if table.dist[cv] < table.dist[cu]:
                return {
                    "edge": [u, v, lab],
                    "base": family.quotient.representative(table.base),
                    "value_from": str(table.value(cu)),
                    "value_to": str(table.value(cv)),
                }
    return None
