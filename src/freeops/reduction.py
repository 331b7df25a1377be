"""Compiling tile instances into channel generator sets and searching them.

Each tile i of an instance yields two block unitaries: the H generator
encodes the tile's top word in its first 2x2 block, the G generator the
adjoint of the bottom word; the second block tracks the tile index, so a
product can only collapse to a scalar when the index bookkeeping telescopes
and the two encoded words agree.  Wrapping the unitaries in depolarising
channels with exact damping turns word search into membership search for
the channel semigroup.

Every compiled unitary lies in SU(2) x SU(2), so the searches multiply
integer quaternion pairs (see freerot), where phase equivalence is equality
up to sign; ExactMatrix work is left to the values a report prints.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from . import pcp
from .exact import (
    ExactDensityMatrix,
    ExactMatrix,
    GaussianRational,
    ShapeError,
    block_diag,
    rat_to_str,
)
from .freerot import (
    FreePair,
    encode_word,
    q_adjoint,
    q_identity,
    q_is_scalar,
    q_mul,
    q_phase_key,
    to_quaternions,
)
from .pcp import PCPInstance, TileWord

FOUND = "found"
EXHAUSTED = "exhausted_to_depth"

DISTINCT = "distinct"
INDISTINGUISHABLE = "indistinguishable_up_to_depth"


@dataclass(frozen=True, slots=True)
class ChannelElement:
    """The map rho -> damping * U rho U^dag + (1 - damping) * I/d.

    Composition multiplies the unitaries, multiplies the dampings, and
    concatenates the generator words, so a composite is again of this form.
    """

    unitary: ExactMatrix
    damping: Fraction
    word: Tuple[str, ...] = ()

    def __post_init__(self):
        u = self.unitary
        if u.rows != u.cols:
            raise ShapeError("channel unitary must be square")
        if not u.is_unitary():
            raise ValueError("channel matrix must be exactly unitary")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")

    @property
    def dim(self) -> int:
        return self.unitary.rows

    @property
    def label(self) -> str:
        if self.word:
            return "*".join(self.word)
        return "id" if self.damping == 1 else f"target({self.damping})"

    def apply_to_matrix(self, m: ExactMatrix) -> ExactMatrix:
        """Linear action on an arbitrary operator (not only states)."""
        if m.rows != self.dim or m.cols != self.dim:
            raise ShapeError("operator dimension does not match the channel")
        u = self.unitary
        rotated = (u @ m @ u.dagger()).scale(self.damping)
        mix = ExactMatrix.identity(self.dim).scale(
            m.trace() * GaussianRational((1 - self.damping) / self.dim)
        )
        return rotated + mix

    def apply(self, state: ExactDensityMatrix) -> ExactDensityMatrix:
        return ExactDensityMatrix(self.apply_to_matrix(state.mat))

    @classmethod
    def identity_element(cls, dim: int = 4) -> "ChannelElement":
        return cls(ExactMatrix.identity(dim), Fraction(1), ())


def compose(x: ChannelElement, y: ChannelElement) -> ChannelElement:
    """(x compose y)(rho) = x(y(rho)); dampings multiply, words concatenate."""
    return ChannelElement(
        unitary=x.unitary @ y.unitary,
        damping=x.damping * y.damping,
        word=x.word + y.word,
    )


def make_target(damping: Fraction, dim: int = 4) -> ChannelElement:
    """The pure depolarising map rho -> damping*rho + (1-damping)*I/d."""
    if not (0 < damping < 1):
        raise ValueError("target damping must lie strictly inside (0, 1)")
    return ChannelElement(ExactMatrix.identity(dim), damping, ())


def labeled(channel: ChannelElement, label: str) -> ChannelElement:
    """Copy of a channel carrying the given single-letter word label."""
    return dataclasses.replace(channel, word=(label,))


def choi(channel) -> ExactMatrix:
    """Choi operator: apply the channel to one half of the unnormalized
    maximally entangled operator.  Output factor first, so trace
    preservation reads as partial_trace_first(...) == identity."""
    d = channel.dim
    entries = [GaussianRational(Fraction(0))] * (d * d * d * d)
    side = d * d
    for i in range(d):
        for j in range(d):
            basis = [0] * (d * d)
            basis[i * d + j] = 1
            out = channel.apply_to_matrix(ExactMatrix(d, d, basis))
            for a in range(d):
                for b in range(d):
                    entries[(a * d + i) * side + (b * d + j)] = out.entry(a, b)
    return ExactMatrix(side, side, entries)


@dataclass(frozen=True, slots=True)
class GeneratorSet:
    """The compiled channels of an instance: one H and one G per tile."""

    instance: PCPInstance
    pair: FreePair
    h_gens: Tuple[ChannelElement, ...]
    g_gens: Tuple[ChannelElement, ...]

    @property
    def damping_assignment(self) -> Dict[str, Fraction]:
        out = {}
        for ch in self.channels():
            out[ch.word[0]] = ch.damping
        return out

    def channels(self) -> Tuple[ChannelElement, ...]:
        return self.h_gens + self.g_gens

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance.to_json_dict(),
            "instance_text": self.instance.to_text(),
            "rotation": self.pair.params.to_json_dict(),
            "damping": {k: rat_to_str(v) for k, v in self.damping_assignment.items()},
            "unitaries": {
                ch.word[0]: ch.unitary.to_json_dict() for ch in self.channels()
            },
        }


def compile_generators(
    inst: PCPInstance, pair: FreePair, damping: Fraction
) -> GeneratorSet:
    """Build the 2k generators for a k-tile instance at the given damping.

    Tile i (1-based) gives H_i = blockdiag(code(top_i), A^i B) and
    G_i = blockdiag(code(bottom_i)^dag, (A^i B)^dag).
    """
    if not (0 < damping < 1):
        raise ValueError("generator damping must lie strictly inside (0, 1)")
    a = pair.a
    b = pair.b
    h_gens = []
    g_gens = []
    for i, (top, bottom) in enumerate(inst.tiles, start=1):
        index_block = a.pow(i) @ b
        h_gens.append(
            ChannelElement(
                unitary=block_diag(encode_word(pair, top), index_block),
                damping=damping,
                word=(f"H{i}",),
            )
        )
        g_gens.append(
            ChannelElement(
                unitary=block_diag(
                    encode_word(pair, bottom).dagger(), index_block.dagger()
                ),
                damping=damping,
                word=(f"G{i}",),
            )
        )
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
class MembershipOutcome:
    status: str
    mode: str
    witness: Optional[Tuple[str, ...]]
    scalar_value: Optional[GaussianRational]
    witness_damping: Optional[Fraction]
    extracted: Optional[TileWord]
    depth_reached: int
    nodes_expanded: int
    truncated: bool = False

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "mode": self.mode,
            "witness": list(self.witness) if self.witness is not None else None,
            "scalar_value": str(self.scalar_value)
            if self.scalar_value is not None
            else None,
            "witness_damping": rat_to_str(self.witness_damping)
            if self.witness_damping is not None
            else None,
            "extracted": list(self.extracted) if self.extracted is not None else None,
            "depth_reached": self.depth_reached,
            "nodes_expanded": self.nodes_expanded,
            "truncated": self.truncated,
        }


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
    damping: Fraction,
    depth: int,
    expanded: int,
) -> MembershipOutcome:
    product = ExactMatrix.identity(4)
    by_label = {ch.word[0]: ch.unitary for ch in gens.channels()}
    for lab in witness:
        product = product @ by_label[lab]
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
    word, lexicographically least among equals.
    """
    letters = [
        (ch.word[0], to_quaternions(ch.unitary), ch.damping) for ch in gens.channels()
    ]
    ident = q_identity(2)
    levels = [{ident: ((), Fraction(1))}]
    canon_levels = [{q_phase_key(ident): ((), Fraction(1))}]
    expanded = 0
    truncated = False
    checked = 0

    half = (max_depth + 1) // 2
    for j in range(1, half + 1):
        new_level = {}
        for q, (word, damp) in levels[j - 1].items():
            for lab, u, d in letters:
                if expanded >= node_budget:
                    truncated = True
                    break
                expanded += 1
                child = q_mul(q, u)
                if child not in new_level:
                    new_level[child] = (word + (lab,), damp * d)
            if truncated:
                break
        if truncated:
            break
        canon = {}
        for q, payload in new_level.items():
            key = q_phase_key(q)
            if key not in canon:
                canon[key] = payload
        levels.append(new_level)
        canon_levels.append(canon)
        for m, back in ((2 * j - 1, j - 1), (2 * j, j)):
            if not 1 <= m <= max_depth:
                continue
            for q, (word, damp) in levels[j].items():
                hit = canon_levels[back].get(q_phase_key(q_adjoint(q)))
                if hit is not None:
                    back_word, back_damp = hit
                    return _found_outcome(
                        gens, "generic", word + back_word, damp * back_damp, m, expanded
                    )
            checked = m
    return MembershipOutcome(
        status=EXHAUSTED,
        mode="generic",
        witness=None,
        scalar_value=None,
        witness_damping=None,
        extracted=None,
        depth_reached=checked,
        nodes_expanded=expanded,
        truncated=truncated,
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
    tile_bound = max_depth // 2
    expanded = 0
    truncated = False
    ident = q_identity(2)
    visited = {ident}
    frontier = [(ident, ())]
    pairs = [
        (i, to_quaternions(g.unitary), to_quaternions(h.unitary), g.damping * h.damping)
        for i, (g, h) in enumerate(zip(gens.g_gens, gens.h_gens), start=1)
    ]

    damping_of: Dict[TileWord, Fraction] = {(): Fraction(1)}
    depth_done = 0
    for n in range(1, tile_bound + 1):
        next_frontier = []
        for q, parent in frontier:
            for i, g, h, step_damp in pairs:
                if expanded >= node_budget:
                    truncated = True
                    break
                expanded += 1
                child = q_mul(q_mul(g, q), h)
                word = parent + (i,)
                damping = damping_of[parent] * step_damp
                if q_is_scalar(child):
                    witness = tuple(f"G{i}" for i in reversed(word)) + tuple(
                        f"H{i}" for i in word
                    )
                    return _found_outcome(
                        gens, "structured", witness, damping, 2 * n, expanded
                    )
                if child not in visited:
                    visited.add(child)
                    damping_of[word] = damping
                    next_frontier.append((child, word))
            if truncated:
                break
        if truncated:
            break
        depth_done = n
        frontier = next_frontier
        if not frontier:
            break
    return MembershipOutcome(
        status=EXHAUSTED,
        mode="structured",
        witness=None,
        scalar_value=None,
        witness_damping=None,
        extracted=None,
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
class DiffOutcome:
    status: str
    witness: Optional[dict]
    matches: Dict[str, dict]
    depth_reached: int
    nodes_expanded: int
    truncated: bool = False

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness,
            "matches": self.matches,
            "depth_reached": self.depth_reached,
            "nodes_expanded": self.nodes_expanded,
            "truncated": self.truncated,
        }


def _closure(
    channels: Sequence[ChannelElement], max_depth: int, node_budget: int
):
    """All canonical channel forms (phase key of the unitary, damping)
    reachable by words of length <= max_depth, with shortest word kept.

    Returns the forms, the expansion count, whether the budget cut the
    search, and the deepest level that was fully enumerated."""
    if not channels:
        raise ValueError("need at least one channel")
    letters = [(to_quaternions(ch.unitary), ch.label, ch.damping) for ch in channels]
    ident = q_identity(channels[0].dim // 2)
    elems = {(q_phase_key(ident), Fraction(1)): ((), 0)}
    frontier = [(ident, (), Fraction(1))]
    expanded = 0
    for depth in range(1, max_depth + 1):
        nxt = []
        for q, word, damp in frontier:
            for u, label, d in letters:
                if expanded >= node_budget:
                    return elems, expanded, True, depth - 1
                expanded += 1
                child = q_mul(q, u)
                child_damp = damp * d
                key = (q_phase_key(child), child_damp)
                if key not in elems:
                    child_word = word + (label,)
                    elems[key] = (child_word, depth)
                    nxt.append((child, child_word, child_damp))
        frontier = nxt
    return elems, expanded, False, max_depth


def theory_diff(
    f1: Sequence[ChannelElement],
    f2: Sequence[ChannelElement],
    max_depth: int,
    node_budget: int = 500_000,
) -> DiffOutcome:
    """Bounded refuter for "do these generating sets span the same theory".

    Each generator of one set is looked up, as an exact canonical channel,
    in the other set's bounded closure.  A generator absent from a fully
    enumerated closure witnesses bounded distinctness; if every generator is
    realized both ways the sets are indistinguishable up to the depth bound.
    No outcome ever claims unconditional equality.  When a budget cuts a
    closure short, depth_reached is the deepest level both closures
    completed.
    """
    e1, n1, t1, done1 = _closure(f1, max_depth, node_budget)
    e2, n2, t2, done2 = _closure(f2, max_depth, node_budget)
    matches: Dict[str, dict] = {}
    witness = None
    for side, own, other_elems, other_truncated in (
        (2, f2, e1, t1),
        (1, f1, e2, t2),
    ):
        for ch in own:
            key = (q_phase_key(to_quaternions(ch.unitary)), ch.damping)
            hit = other_elems.get(key)
            if hit is not None:
                word, depth = hit
                matches.setdefault(
                    f"f{side}:{ch.label}",
                    {"realized_by": list(word), "at_depth": depth},
                )
            elif witness is None and not other_truncated:
                witness = {
                    "side": side,
                    "label": ch.label,
                    "damping": rat_to_str(ch.damping),
                    "unitary_digest": phase_canonical(ch.unitary).digest(),
                }
    status = DISTINCT if witness is not None else INDISTINGUISHABLE
    return DiffOutcome(
        status=status,
        witness=witness,
        matches=matches,
        depth_reached=min(done1, done2),
        nodes_expanded=n1 + n2,
        truncated=t1 or t2,
    )
