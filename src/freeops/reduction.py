"""Compiling tile instances into channel generator sets and searching them.

Write psi for freerot.encode_word (0 -> a, 1 -> b), identify R^4 with the
quaternions in the basis of freerot.hamilton, and write |1> for the
quaternion 1, the state basis:0.  At damping p, tile i = (u_i, v_i) gives

- E_i, a unitary channel: rho -> p M_i rho M_i^T + (1 - p) tr(rho) I/4, with
  M_i the real orthogonal map x -> psi(u_i) x psi(v_i)^dag;
- R_i, a reset channel: rho -> tr(rho) (p |f_i><f_i| + (1 - p) I/4), with
  f_i = psi(u_i) psi(v_i)^dag.

The target T_lam is the reset onto lam |1><1| + (1 - lam) I/4.  It lies in
the generated semigroup exactly when the instance has a solution t of some
length n with lam = p^n, and the witness is the tile word itself,
E_{t1} ... E_{t(n-1)} R_{tn}:

1. R o X = R for every trace-preserving X.
2. Each E_j is unital, so E_j o R is again a reset: g -> M_j g, with the
   damping multiplied by p.
3. So a product that contains a reset equals its prefix up to the first
   reset, E_{t1} o ... o E_{t(n-1)} o R_{tn}: the constant channel onto the
   p^n-depolarised |g>, g = M_{t1} ... M_{tn} 1 = psi(u_t) psi(v_t)^dag for
   the tile word t.
4. A product without a reset is a unitary channel, which is never constant.
5. g = +-1 exactly when psi(u_t) = +-psi(v_t).  As <a, b> is free, that
   holds exactly when u_t = v_t: no nontrivial reduced word is +-1 (see
   freerot.freeness_certificate), and the free monoid embeds in the free
   group.

A channel carries a tuple of integer quaternions (see freerot): E_i the
pair (psi(u_i), psi(v_i)), so that composing E channels multiplies pairs
memberwise, and R_i the one unit vector (f_i,).  The maps of (+-q1, +-q2)
are +-M, one channel, and g and -g give one reset: a channel is keyed by
the sign key of each of its quaternions.  A channel acts on an operator
(a witness's matrix units, a target's source) by its own definition,
through the 4x4 matrix of M or the column g (ChannelElement.operator), and
its Choi operator has a closed form in the same integer columns.
The structured search runs util.breadth_first, the generic search its own
level loop, both cut by util.level_cut: a node budget counts expansions in
each.

Comparing a generator set F with F + {T_lam} is membership at one length.
Every generator of F lies in both sets, so the two span the same theory
exactly when T_lam lies in the semigroup that F generates, and by 3 and 4
only a word of length n with lam = p^n can realize it: theory_diff runs
the generic search at that one length n, or none when lam is no such power.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Dict, Optional, Tuple

from . import pcp
from .exact import ExactDensityMatrix, ExactMatrix, ShapeError, matrix_units
from .freerot import (
    Q_IDENTITY,
    UNIT_QUATERNIONS,
    FreePair,
    Quaternion,
    encode_word,
    hamilton,
    q_adjoint,
    q_mul,
    q_sign_key,
)
from .pcp import EXHAUSTED, FOUND, PCPInstance, TileWord
from .util import breadth_first, level_pairs

DISTINCT = "distinct"
INDISTINGUISHABLE = "indistinguishable_up_to_depth"
# A unitary channel's quaternion pair (q1, q2), or a reset's one quaternion (g,).
Quaternions = Tuple[Quaternion, ...]


def _columns(qs: Quaternions) -> Quaternions:
    """ChannelElement.operator's integer columns over one denominator: a
    pair's images q1 e q2^dag of the UNIT_QUATERNIONS e, unreduced, or (g,)."""
    if len(qs) == 1:
        return qs
    q1, q2 = qs
    right = q_adjoint(q2)
    return tuple(hamilton(hamilton(q1, e), right) for e in UNIT_QUATERNIONS)


def _image(pair: Quaternions, x: Quaternion) -> Quaternion:
    """M x for the pair (q1, q2): q1 x q2^dag, reduced."""
    q1, q2 = pair
    return q_mul(q_mul(q1, x), q_adjoint(q2))


def _pair_mul(x: Quaternions, y: Quaternions) -> Quaternions:
    """The pair of the composed unitary channel: memberwise products."""
    return q_mul(x[0], y[0]), q_mul(x[1], y[1])


def _is_unit(q: Quaternion) -> bool:
    """Whether q is a unit quaternion over a reduced, positive denominator."""
    return len(q) == 5 and q[4] > 0 and gcd(*q) == 1 and sum(v * v for v in q[:4]) == q[4] ** 2


@dataclass(frozen=True, slots=True)
class ChannelElement:
    """A unitary channel rho -> p M rho M^T + (1 - p) tr(rho) I/4, M the map
    x -> q1 x q2^dag of the quaternion pair (q1, q2), or a reset, the
    channel rho -> tr(rho) (p |g><g| + (1 - p) I/4) of the one unit
    quaternion (g,); p is the damping.  The label names the channel in
    reports, graph edges and words: E1, R1, PSI.

    The Choi operator J[4a + i, 4b + j] = Phi(E_ij)[a, b] has a closed form
    over 4 pd D^2, for p = pn/pd and M or g integer over D: the numerator
    4 pn M[a, i] M[b, j] + (pd - pn) D^2 delta_ij delta_ab, or for a reset
    delta_ij (4 pn g_a g_b + (pd - pn) D^2 delta_ab)."""

    quaternions: Quaternions
    damping: Fraction
    label: str = ""
    dim = 4

    def __post_init__(self):
        qs = self.quaternions
        if len(qs) not in (1, 2) or not all(map(_is_unit, qs)):
            raise ValueError("a channel needs one or two reduced unit quaternions")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")

    @property
    def reset(self) -> bool:
        return len(self.quaternions) == 1

    def operator(self) -> ExactMatrix:
        """The 4x4 matrix of M, its column e the image of the unit quaternion
        e, or for a reset the column g."""
        cols = _columns(self.quaternions)
        values = [c[i] for i in range(4) for c in cols]
        return ExactMatrix.from_integers(4, len(cols), values, cols[0][4])

    def choi_operator(self) -> ExactMatrix:
        """J in the closed form above, from row 4a + i's factor M[a, i] or g_a
        of the product term and its block for delta_ij, 0 or i."""
        cols = _columns(self.quaternions)
        den = cols[0][4]
        x = [(cols[0][a], i) if self.reset else (cols[i][a], 0) for a in range(4) for i in range(4)]
        pn, pd = self.damping.numerator, self.damping.denominator
        f, mix = 4 * pn, (pd - pn) * den * den
        values = [f * u * w * (k == l) + mix * (r == c)
                  for r, (u, k) in enumerate(x) for c, (w, l) in enumerate(x)]
        return ExactMatrix.from_integers(16, 16, values, 4 * pd * den * den)

    def apply_to_matrix(self, m: ExactMatrix) -> ExactMatrix:
        """p K(m) + (1 - p) tr(m) I/4, with K(m) = M m M^T or tr(m) |g><g|:
        linear on any 4x4 operator, not only on states."""
        if (m.rows, m.cols) != (4, 4):
            raise ShapeError("a channel acts on 4x4 operators")
        op = self.operator()
        x = m.partial_trace_first(4, 1) if self.reset else m  # a reset reads tr(m), 1x1
        return m.depolarised(self.damping, op @ x @ op.dagger())

    def apply(self, state: ExactDensityMatrix) -> ExactDensityMatrix:
        return ExactDensityMatrix(self.apply_to_matrix(state.mat))


def make_target(damping: Fraction, label: str = "") -> ChannelElement:
    """T_damping: the reset onto damping |1><1| + (1 - damping) I/4."""
    if not (0 < damping < 1):
        raise ValueError("target damping must lie strictly inside (0, 1)")
    return ChannelElement((Q_IDENTITY,), damping, label)


@dataclass(frozen=True, slots=True)
class GeneratorSet:
    """The compiled channels of an instance: one E and one R per tile."""

    instance: PCPInstance
    pair: FreePair
    e_gens: Tuple[ChannelElement, ...]
    r_gens: Tuple[ChannelElement, ...]

    def channels(self) -> Tuple[ChannelElement, ...]:
        return self.e_gens + self.r_gens

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "instance_text": self.instance.to_text(),
            "rotation": self.pair.params,
            "damping": {ch.label: ch.damping for ch in self.channels()},
            "operators": {ch.label: ch.operator() for ch in self.channels()},
        }


def compile_generators(
    inst: PCPInstance, pair: FreePair, damping: Fraction
) -> GeneratorSet:
    """Build E_1..E_k and R_1..R_k for a k-tile instance at the given damping."""
    if not (0 < damping < 1):
        raise ValueError("generator damping must lie strictly inside (0, 1)")
    e_gens = []
    r_gens = []
    for i, (top, bottom) in enumerate(inst.tiles, start=1):
        q1, q2 = encode_word(pair, top), encode_word(pair, bottom)
        e_gens.append(ChannelElement((q1, q2), damping, f"E{i}"))
        r_gens.append(ChannelElement((q_mul(q1, q_adjoint(q2)),), damping, f"R{i}"))
    return GeneratorSet(
        instance=inst, pair=pair, e_gens=tuple(e_gens), r_gens=tuple(r_gens)
    )


def phase_canonical(m: ExactMatrix) -> ExactMatrix:
    """Scale so the first nonzero entry becomes 1.

    Two matrices are equal up to a global phase exactly when their
    canonical forms coincide; dividing by the entry itself (rather than
    its phase) keeps everything inside Q(i).  The searches compare sign
    keys of quaternions instead; this form only fixes the bytes of the
    reported digest of a diff witness, whose M or g is defined up to sign.
    """
    for z in m.entries():
        if z:
            return m.scale(z.inverse())
    return m


@dataclass(frozen=True, slots=True)
class MembershipOutcome:
    status: str
    mode: str
    depth_reached: int
    nodes_expanded: int
    truncated: bool = False
    witness: Optional[Tuple[str, ...]] = None
    witness_damping: Optional[Fraction] = None
    extracted: Optional[TileWord] = None


class WitnessMismatchError(RuntimeError):
    """A witness that a search found is not the target channel."""


def _found_outcome(
    gens: GeneratorSet, mode: str, tiles: TileWord, expanded: int
) -> MembershipOutcome:
    """Report the witness E_{t1} .. E_{t(n-1)} R_{tn} of the tile word t
    with its damping monomial, after checking, apart from the search, that
    its Choi operator is the target's at that damping.  Block (i, j) of a
    Choi operator is the image of the matrix unit E_ij (see choi): the
    witness's are composed through each letter's own definition, the last
    letter first, once per distinct image, and their assembly is compared
    with the target's closed form, a route that shares no letter
    application.  The reset maps the 12 off-diagonal units to 0 and the 4
    diagonal ones to one state, so a witness of n letters takes
    16 + 2(n - 1) letter applications."""
    letters = tuple(gens.e_gens[i - 1] for i in tiles[:-1]) + (gens.r_gens[tiles[-1] - 1],)
    damping = prod(ch.damping for ch in letters)
    target = make_target(damping)
    images = matrix_units(4)
    for ch in reversed(letters):
        image_of = {m: ch.apply_to_matrix(m) for m in dict.fromkeys(images)}
        images = [image_of[m] for m in images]
    if ExactMatrix.choi_from_images(images) != target.choi_operator():
        raise WitnessMismatchError("witness channel is not the target")
    return MembershipOutcome(
        status=FOUND,
        mode=mode,
        witness=tuple(ch.label for ch in letters),
        witness_damping=damping,
        extracted=tiles if pcp.verify_solution(gens.instance, tiles) else None,
        depth_reached=len(tiles),
        nodes_expanded=expanded,
    )


def _generic_search(
    gens: GeneratorSet, max_depth: int, node_budget: int, min_depth: int = 1
) -> MembershipOutcome:
    """Shortest witness of min_depth to max_depth letters by meeting in the
    middle.

    A witness splits into an E-prefix of at most half the depth, with pair
    (q1, q2), and a reset-ended suffix onto g; the word resets onto
    q1 g q2^dag, which is +-1 exactly when g = +-q1^dag q2.  Level s holds
    the E-words of length s by exact pair, the first (lexicographically
    least) word kept, and the expansions of level s - 1 are the suffixes of
    length s too: word w and letter i give E_w R_i, onto the g of the pair
    of w E_i.  Length 2s - 1 meets the prefixes of length s - 1 with the
    suffixes of length s, and 2s those of length s.  A word is the channel
    of its prefix up to its first reset, so a shortest word that realizes a
    target has one reset, last: the witness is the shortest,
    lexicographically least among equals, that a breadth-first scan over
    all generator words finds.  Lengths below min_depth are built but not
    checked.
    """
    letters = [(i, ch.quaternions) for i, ch in enumerate(gens.e_gens, start=1)]
    level = {(Q_IDENTITY, Q_IDENTITY): ()}
    expanded = 0
    truncated = False
    checked = 0
    for s in range(1, (max_depth + 1) // 2 + 1):
        pairs, truncated = level_pairs(level.items(), letters, node_budget - expanded)
        new_level = {}
        suffixes = {}
        for (q, word), (i, u) in pairs:
            expanded += 1
            child = c1, c2 = _pair_mul(q, u)
            suffixes.setdefault(q_sign_key(q_mul(c1, q_adjoint(c2))), word + (i,))
            new_level.setdefault(child, word + (i,))
        if truncated:
            break
        for m, prefixes in ((2 * s - 1, level), (2 * s, new_level)):
            if not min_depth <= m <= max_depth:
                continue
            for (q1, q2), word in prefixes.items():
                hit = suffixes.get(q_sign_key(q_mul(q_adjoint(q1), q2)))
                if hit is not None:
                    return _found_outcome(gens, "generic", word + hit, expanded)
            checked = m
        level = new_level
    return MembershipOutcome(
        EXHAUSTED, "generic", depth_reached=checked, nodes_expanded=expanded, truncated=truncated
    )


def _structured_search(gens: GeneratorSet, max_depth: int, node_budget: int) -> MembershipOutcome:
    """Breadth-first over reset vectors.

    E_{t1} .. E_{t(n-1)} R_{tn} resets onto g = M_{t1} .. M_{tn} 1, so level
    n applies each M_j to the vectors of level n - 1, up to sign; the first
    vector +-1, sign key Q_IDENTITY, is a witness, its word the tile word
    backwards.
    """
    letters = [(i, ch.quaternions) for i, ch in enumerate(gens.e_gens, start=1)]

    def step(g, q):
        return q_sign_key(_image(q, g))

    word, expanded, done, truncated = breadth_first(
        Q_IDENTITY, Q_IDENTITY, letters, step, max_depth, node_budget
    )
    if word is not None:
        return _found_outcome(gens, "structured", word[::-1], expanded)
    return MembershipOutcome(
        EXHAUSTED, "structured", depth_reached=done, nodes_expanded=expanded, truncated=truncated
    )


def membership_search(
    gens: GeneratorSet,
    max_depth: int,
    mode: str = "generic",
    node_budget: int = 500_000,
) -> MembershipOutcome:
    """Semi-decide whether a target T_lam lies in the generated semigroup,
    by hunting for a generator word of at most max_depth letters that is a
    constant channel onto a depolarised |1>.  Reports the exact damping
    monomial lam of any witness."""
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


def theory_diff(
    gens: GeneratorSet,
    target: ChannelElement,
    max_depth: int,
    node_budget: int = 500_000,
) -> DiffOutcome:
    """Bounded refuter for "do F, the compiled generators, and F + {T} span
    the same theory", T the reset onto lam |1><1| + (1 - lam) I/4.

    Every generator of F realizes itself, so the two span the same theory
    exactly when T lies in the semigroup that F generates.  A word's channel
    is that of its prefix up to its first reset: a unitary channel, or a
    reset of damping p^k, k the position of that reset.  So T has a word of
    at most max_depth letters only if lam = p^n for some n <= max_depth,
    and then exactly when a tile word of length n is a solution (steps 1-5
    above): _generic_search checks that one length, and its witness goes
    through the same Choi cross-check as a membership witness.  An
    unrealized T witnesses bounded distinctness; a realized one leaves the
    sets indistinguishable up to the depth bound.  No outcome ever claims
    unconditional equality.

    depth_reached is max_depth, or n - 1 when the budget cut the search:
    every length but n is decided by the damping alone.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if not target.reset or q_sign_key(target.quaternions[0]) != Q_IDENTITY:
        raise ValueError("a diff target must be a reset onto |1>")
    p = gens.r_gens[0].damping
    n, power = 1, p
    while power > target.damping and n < max_depth:
        n, power = n + 1, power * p
    expanded, truncated, matches = 0, False, {}
    if power == target.damping:
        found = _generic_search(gens, n, node_budget, min_depth=n)
        expanded, truncated = found.nodes_expanded, found.truncated
        if found.status == FOUND:
            matches[f"f2:{target.label}"] = {"realized_by": list(found.witness), "at_depth": n}
    witness = None
    if not (matches or truncated):
        witness = {
            "side": 2,
            "label": target.label,
            "damping": str(target.damping),
            "digest": phase_canonical(target.operator()).digest(),
        }
    status = DISTINCT if witness is not None else INDISTINGUISHABLE
    return DiffOutcome(
        status,
        witness,
        matches,
        depth_reached=n - 1 if truncated else max_depth,
        nodes_expanded=expanded,
        truncated=truncated,
    )
