"""Compiling tile instances into channel generator sets and searching them.

Each tile i of an instance yields two block unitaries: the H generator
encodes the tile's top word in its first 2x2 block, the G generator the
adjoint of the bottom word; the second block tracks the tile index, so a
product can only collapse to a scalar when the index bookkeeping telescopes
and the two encoded words agree.  Wrapping the unitaries in depolarising
channels with exact damping turns word search into membership search for
the channel semigroup.

Every compiled unitary lies in SU(2) x SU(2), so a channel carries its
unitary as an integer quaternion pair (see freerot): compilation and the
searches multiply quaternions, and phase equivalence is equality up to sign.
A channel acts on an operator (the matrix units choi reads, a target's
source) block by block, straight from its quaternion pair
(ExactMatrix.depolarised); explore applies its Choi key map.  Only the
compile report, the independent cross-check of a membership witness and the
digest of a diff witness build the 4x4 ExactMatrix, with
freerot.quaternion_matrix.  Each search expands one level at a time through
util.level_pairs, so a node budget counts expansions in all of them.

Comparing a generator set F with F + {T} needs only F's closure.  Every
generator of F lies in both sets and realizes itself in either closure, so
the two span the same theory exactly when T lies in the semigroup that F
generates.  theory_diff therefore looks up both sides in that one closure.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Optional, Sequence, Tuple

from . import pcp
from .exact import (
    ExactDensityMatrix,
    ExactMatrix,
    GaussianRational,
    rat_to_str,
)
from .freerot import (
    FreePair,
    Quaternions,
    encode_word,
    q_adjoint,
    q_blocks,
    q_identity,
    q_is_scalar,
    q_mul,
    q_phase_key,
    quaternion_matrix,
)
from .pcp import EXHAUSTED, FOUND, PCPInstance, TileWord
from .util import Report, level_pairs

DISTINCT = "distinct"
INDISTINGUISHABLE = "indistinguishable_up_to_depth"


@dataclass(frozen=True, slots=True)
class ChannelElement:
    """The map rho -> damping * U rho U^dag + (1 - damping) * I/4.

    U is a quaternion pair in SU(2) x SU(2).  A product of two such maps
    multiplies the unitaries, multiplies the dampings, and concatenates the
    generator words, so it is again of this form; the searches form it
    inline.
    """

    unitary: Quaternions
    damping: Fraction
    word: Tuple[str, ...] = ()
    dim = 4

    def __post_init__(self):
        q = self.unitary
        if len(q) != 9 or q[-1] < 1 or gcd(*q) != 1:
            raise ValueError("channel unitary must be a quaternion pair over a reduced denominator")
        if any(sum(v * v for v in q[k : k + 4]) != q[-1] ** 2 for k in (0, 4)):
            raise ValueError("channel unitary blocks must be unit quaternions")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")

    @property
    def label(self) -> str:
        if self.word:
            return "*".join(self.word)
        return "id" if self.damping == 1 else f"target({self.damping})"

    def apply_to_matrix(self, m: ExactMatrix) -> ExactMatrix:
        """Linear action on an arbitrary operator (not only states)."""
        return m.depolarised(self.unitary, self.damping)

    def apply(self, state: ExactDensityMatrix) -> ExactDensityMatrix:
        return ExactDensityMatrix(self.apply_to_matrix(state.mat))


def make_target(damping: Fraction) -> ChannelElement:
    """The pure depolarising map rho -> damping*rho + (1-damping)*I/4."""
    if not (0 < damping < 1):
        raise ValueError("target damping must lie strictly inside (0, 1)")
    return ChannelElement(q_identity(2), damping, ())


def labeled(channel: ChannelElement, label: str) -> ChannelElement:
    """Copy of a channel carrying the given single-letter word label."""
    return dataclasses.replace(channel, word=(label,))


@dataclass(frozen=True, slots=True)
class GeneratorSet:
    """The compiled channels of an instance: one H and one G per tile."""

    instance: PCPInstance
    pair: FreePair
    h_gens: Tuple[ChannelElement, ...]
    g_gens: Tuple[ChannelElement, ...]

    def channels(self) -> Tuple[ChannelElement, ...]:
        return self.h_gens + self.g_gens

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance.to_json_dict(),
            "instance_text": self.instance.to_text(),
            "rotation": self.pair.params.to_json_dict(),
            "damping": {ch.word[0]: rat_to_str(ch.damping) for ch in self.channels()},
            "unitaries": {
                ch.word[0]: quaternion_matrix(ch.unitary).to_json_dict()
                for ch in self.channels()
            },
        }


def compile_generators(
    inst: PCPInstance, pair: FreePair, damping: Fraction
) -> GeneratorSet:
    """Build the 2k generators for a k-tile instance at the given damping.

    Tile i (1-based) gives H_i = blockdiag(code(top_i), A^i B) and
    G_i = blockdiag(code(bottom_i), A^i B)^dag.
    """
    if not (0 < damping < 1):
        raise ValueError("generator damping must lie strictly inside (0, 1)")
    index_block = pair.b
    h_gens = []
    g_gens = []
    for i, (top, bottom) in enumerate(inst.tiles, start=1):
        index_block = q_mul(pair.a, index_block)
        h = q_blocks(encode_word(pair, top), index_block)
        g = q_adjoint(q_blocks(encode_word(pair, bottom), index_block))
        h_gens.append(ChannelElement(h, damping, (f"H{i}",)))
        g_gens.append(ChannelElement(g, damping, (f"G{i}",)))
    return GeneratorSet(
        instance=inst, pair=pair, h_gens=tuple(h_gens), g_gens=tuple(g_gens)
    )


def phase_canonical(m: ExactMatrix) -> ExactMatrix:
    """Scale so the first nonzero entry becomes 1.

    Two unitaries are equal up to a global phase exactly when their
    canonical forms coincide; dividing by the entry itself (rather than
    its phase) keeps everything inside Q(i).  The searches compare sign
    keys of quaternion pairs instead; this form only fixes the bytes of
    the reported unitary digest.
    """
    for z in m.entries():
        if z:
            return m.scale(z.inverse())
    return m


@dataclass(frozen=True, slots=True)
class MembershipOutcome(Report):
    status: str
    mode: str
    depth_reached: int
    nodes_expanded: int
    truncated: bool = False
    witness: Optional[Tuple[str, ...]] = None
    scalar_value: Optional[GaussianRational] = None
    witness_damping: Optional[Fraction] = None
    extracted: Optional[TileWord] = None


def _extract_tile_word(
    inst: PCPInstance, witness: Tuple[str, ...]
) -> Optional[TileWord]:
    """Parse a scalar witness into a tile word when it has (a cyclic
    rotation of) the shape G_{an}..G_{a1} H_{a1}..H_{an}; the candidate is
    only returned when it actually solves the instance."""
    total = len(witness)
    if total == 0 or total % 2:
        return None
    n = total // 2
    for r in range(total):
        rot = witness[r:] + witness[:r]
        if all(lab[0] == "G" for lab in rot[:n]) and all(
            lab[0] == "H" for lab in rot[n:]
        ):
            g_idx = [int(lab[1:]) for lab in rot[:n]]
            h_idx = [int(lab[1:]) for lab in rot[n:]]
            if g_idx[::-1] == h_idx:
                candidate = tuple(h_idx)
                if pcp.verify_solution(inst, candidate):
                    return candidate
    return None


def _found_outcome(
    gens: GeneratorSet,
    mode: str,
    witness: Tuple[str, ...],
    depth: int,
    expanded: int,
) -> MembershipOutcome:
    """Cross-check a witness on the 4x4 matrices and report it with its
    damping monomial."""
    by_label = {ch.word[0]: ch for ch in gens.channels()}
    product = ExactMatrix.identity(4)
    damping = Fraction(1)
    for lab in witness:
        product = product @ quaternion_matrix(by_label[lab].unitary)
        damping *= by_label[lab].damping
    scalar = product.as_scalar()
    if scalar is None:
        raise AssertionError("witness product is not scalar")
    return MembershipOutcome(
        status=FOUND,
        mode=mode,
        witness=witness,
        scalar_value=scalar,
        witness_damping=damping,
        extracted=_extract_tile_word(gens.instance, witness),
        depth_reached=depth,
        nodes_expanded=expanded,
    )


def _generic_search(
    gens: GeneratorSet, max_depth: int, node_budget: int
) -> MembershipOutcome:
    """Shortest scalar word over all 2k generators.

    Meet-in-the-middle over exact products: u ++ v multiplies to a scalar
    exactly when the phase key of v's product equals that of the adjoint
    of u's product.  Levels are deduplicated on the exact product with the
    first (lexicographically least) word retained, so the result matches a
    breadth-first scan over all words: the witness is the shortest scalar
    word, lexicographically least among equals.  Level j meets the
    canonical levels j - 1 and j, so only those are kept.
    """
    letters = [(ch.word[0], ch.unitary) for ch in gens.channels()]
    ident = q_identity(2)
    level = {ident: ()}
    canon_prev = {q_phase_key(ident): ()}
    expanded = 0
    truncated = False
    checked = 0
    for j in range(1, (max_depth + 1) // 2 + 1):
        pairs, truncated = level_pairs(level.items(), letters, node_budget - expanded)
        new_level = {}
        for (q, word), (lab, u) in pairs:
            expanded += 1
            child = q_mul(q, u)
            if child not in new_level:
                new_level[child] = word + (lab,)
        if truncated:
            break
        level = new_level
        canon = {}
        for q, word in level.items():
            canon.setdefault(q_phase_key(q), word)
        keyed = [(q_phase_key(q_adjoint(q)), word) for q, word in level.items()]
        for m, back in ((2 * j - 1, canon_prev), (2 * j, canon)):
            if m > max_depth:
                continue
            for key, word in keyed:
                hit = back.get(key)
                if hit is not None:
                    return _found_outcome(gens, "generic", word + hit, m, expanded)
            checked = m
        canon_prev = canon
    return MembershipOutcome(
        EXHAUSTED, "generic", depth_reached=checked, nodes_expanded=expanded, truncated=truncated
    )


def _structured_search(
    gens: GeneratorSet, max_depth: int, node_budget: int
) -> MembershipOutcome:
    """Search only sandwich words G_{an}..G_{a1} H_{a1}..H_{an}.

    Extending the tile word by i wraps the current product between G_i and
    H_i, which mirrors the overhang search on the instance itself; the index
    blocks telescope identically, so a scalar can only be the identity and
    certifies a matching tile word.
    """
    tiles = [
        (i, g.unitary, h.unitary)
        for i, (g, h) in enumerate(zip(gens.g_gens, gens.h_gens), start=1)
    ]
    ident = q_identity(2)
    visited = {ident}
    frontier = [(ident, ())]
    expanded = 0
    truncated = False
    depth_done = 0
    for n in range(1, max_depth // 2 + 1):
        pairs, truncated = level_pairs(frontier, tiles, node_budget - expanded)
        next_frontier = []
        for (q, parent), (i, g, h) in pairs:
            expanded += 1
            child = q_mul(q_mul(g, q), h)
            word = parent + (i,)
            if q_is_scalar(child):
                witness = tuple(f"G{i}" for i in reversed(word)) + tuple(
                    f"H{i}" for i in word
                )
                return _found_outcome(gens, "structured", witness, 2 * n, expanded)
            if child not in visited:
                visited.add(child)
                next_frontier.append((child, word))
        if truncated:
            break
        depth_done = n
        frontier = next_frontier
        if not frontier:
            break
    return MembershipOutcome(
        EXHAUSTED,
        "structured",
        depth_reached=2 * depth_done,
        nodes_expanded=expanded,
        truncated=truncated,
    )


def membership_search(
    gens: GeneratorSet,
    max_depth: int,
    mode: str = "generic",
    node_budget: int = 500_000,
) -> MembershipOutcome:
    """Semi-decide whether the depolarising target lies in the generated
    semigroup, by hunting for a nonempty generator word whose unitary part
    is a scalar.  Reports the exact damping monomial of any witness so the
    caller can match the target's damping."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if mode == "generic":
        return _generic_search(gens, max_depth, node_budget)
    if mode == "structured":
        return _structured_search(gens, max_depth, node_budget)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True, slots=True)
class DiffOutcome(Report):
    status: str
    witness: Optional[dict]
    matches: Dict[str, dict]
    depth_reached: int
    nodes_expanded: int
    truncated: bool = False


def _closure(
    channels: Sequence[ChannelElement], max_depth: int, node_budget: int
):
    """All canonical channel forms reachable by words of length <=
    max_depth, with shortest word kept.  A form is keyed as (phase key of
    the unitary, damping numerator, damping denominator): the damping is
    carried as a reduced integer pair, not as a Fraction, whose product
    normalises through extra calls and whose hash computes a modular
    inverse on every call.

    Returns the forms, the expansion count, whether the budget cut the
    search, and the deepest level that was fully enumerated."""
    if not channels:
        raise ValueError("need at least one channel")
    letters = [
        (ch.unitary, ch.label, ch.damping.numerator, ch.damping.denominator)
        for ch in channels
    ]
    ident = q_identity(2)
    elems = {(q_phase_key(ident), 1, 1): ((), 0)}
    frontier = [(ident, (), 1, 1)]
    expanded = 0
    for depth in range(1, max_depth + 1):
        pairs, truncated = level_pairs(frontier, letters, node_budget - expanded)
        nxt = []
        for (q, word, p, r), (u, label, dp, dr) in pairs:
            expanded += 1
            child = q_mul(q, u)
            p, r = p * dp, r * dr
            g = gcd(p, r)
            p, r = p // g, r // g
            key = (q_phase_key(child), p, r)
            if key not in elems:
                child_word = word + (label,)
                elems[key] = (child_word, depth)
                nxt.append((child, child_word, p, r))
        if truncated:
            return elems, expanded, True, depth - 1
        frontier = nxt
    return elems, expanded, False, max_depth


def theory_diff(
    f1: Sequence[ChannelElement],
    extra: Sequence[ChannelElement],
    max_depth: int,
    node_budget: int = 500_000,
) -> DiffOutcome:
    """Bounded refuter for "do f1 and f2 = f1 + extra span the same theory".

    Each generator of f2 is looked up, as an exact canonical channel, in
    f1's bounded closure, and each generator of f1 in f2's.  A generator
    absent from a fully enumerated closure witnesses bounded distinctness;
    if every generator is realized both ways the sets are indistinguishable
    up to the depth bound.  No outcome ever claims unconditional equality.

    Only f1's closure is built, and it stands in for f2's: f1 is a prefix
    of f2, so a generator of f1 has the same shortest word in both (the
    empty word, or the first equal letter at depth 1).  The reported depth,
    expansion count and truncation are that one closure's.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    elems, expanded, truncated, done = _closure(f1, max_depth, node_budget)
    matches: Dict[str, dict] = {}
    witness = None
    for side, own in ((2, tuple(f1) + tuple(extra)), (1, f1)):
        for ch in own:
            damp = ch.damping
            hit = elems.get((q_phase_key(ch.unitary), damp.numerator, damp.denominator))
            if hit is not None:
                matches.setdefault(
                    f"f{side}:{ch.label}", {"realized_by": list(hit[0]), "at_depth": hit[1]}
                )
            elif witness is None and not truncated:
                witness = {
                    "side": side,
                    "label": ch.label,
                    "damping": rat_to_str(ch.damping),
                    "unitary_digest": phase_canonical(quaternion_matrix(ch.unitary)).digest(),
                }
    status = DISTINCT if witness is not None else INDISTINGUISHABLE
    return DiffOutcome(
        status, witness, matches, depth_reached=done, nodes_expanded=expanded, truncated=truncated
    )
