"""Independent matrix oracles for the tests, built on the public API only.

Each helper reads and builds a matrix through `entries()`, `entry()`, the
constructor, `from_rows`, `identity` and `dagger`, and multiplies with its
own loop over Gaussian-integer numerators, not with `@`.  Sums, products,
negations and conjugates of Gaussian rationals, and so matrix sums and
differences entry by entry, are written here on a GaussianRational's `re`
and `im`: the package has no such scalar arithmetic, and its matrix sum is
not used here.  So an oracle shares no code with the kernel it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from freeops.exact import ExactMatrix, GaussianRational, ShapeError, rat_from_str
from freeops.freerot import Q_IDENTITY, Collision, CollisionReport, q_adjoint, q_mul, q_sign_key
from freeops.resourcegraph import (
    NOT_REACHABLE,
    REACHABLE,
    ReachGraph,
    ReachOutcome,
    UnknownStateError,
    certify_cptp,
)
from freeops.util import level_pairs

ZERO = GaussianRational(Fraction(0))


def gr(re, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions or "p/q" strings."""
    return GaussianRational(*(rat_from_str(v) if isinstance(v, str) else v for v in (re, im)))


def add(*zs: GaussianRational) -> GaussianRational:
    return GaussianRational(sum(z.re for z in zs), sum(z.im for z in zs))


def sub(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    return GaussianRational(a.re - b.re, a.im - b.im)


def mul(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    return GaussianRational(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def conj(z: GaussianRational) -> GaussianRational:
    return GaussianRational(z.re, -z.im)


def neg(z: GaussianRational) -> GaussianRational:
    return GaussianRational(-z.re, -z.im)


def as_scalar(m: ExactMatrix):
    """c when the square matrix m equals c * identity, else None."""
    c = m.entry(0, 0)
    entries = list(m.entries())
    want = [c if i == j else ZERO for i in range(m.rows) for j in range(m.cols)]
    return c if m.rows == m.cols and entries == want else None


def _entrywise(op, a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError(f"cannot combine {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    return ExactMatrix(a.rows, a.cols, list(map(op, a.entries(), b.entries())))


def mat_add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return _entrywise(add, a, b)


def mat_sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return _entrywise(sub, a, b)


def _numerators(m: ExactMatrix):
    """(rows of (re, im) integer numerators, common denominator) of m."""
    entries = list(m.entries())
    den = 1
    for z in entries:
        den = lcm(den, z.re.denominator, z.im.denominator)
    pairs = [(int(z.re * den), int(z.im * den)) for z in entries]
    return [pairs[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)], den


def _int_product(a, b):
    """Product of two matrices of Gaussian integers held as (re, im) rows."""
    cols = list(zip(*b))
    return [
        [
            (
                sum(x * u - y * v for (x, y), (u, v) in zip(row, col)),
                sum(x * v + y * u for (x, y), (u, v) in zip(row, col)),
            )
            for col in cols
        ]
        for row in a
    ]


def _product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    na, da = _numerators(a)
    nb, db = _numerators(b)
    den = da * db
    return ExactMatrix.from_rows(
        [[GaussianRational(Fraction(re, den), Fraction(im, den)) for re, im in row]
         for row in _int_product(na, nb)]
    )


def zeros(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix(rows, cols, [0] * (rows * cols))


def block_diag(*blocks: ExactMatrix) -> ExactMatrix:
    """The block-diagonal matrix with the given blocks in order."""
    cols = sum(b.cols for b in blocks)
    rows, c0 = [], 0
    for b in blocks:
        for i in range(b.rows):
            row = [b.entry(i, j) for j in range(b.cols)]
            rows.append([ZERO] * c0 + row + [ZERO] * (cols - c0 - b.cols))
        c0 += b.cols
    return ExactMatrix.from_rows(rows)


def block(m: ExactMatrix, row0: int, col0: int, rows: int, cols: int) -> ExactMatrix:
    """The rows x cols submatrix whose top-left entry is (row0, col0)."""
    return ExactMatrix.from_rows(
        [[m.entry(i, j) for j in range(col0, col0 + cols)] for i in range(row0, row0 + rows)]
    )


def mat_pow(m: ExactMatrix, exponent: int) -> ExactMatrix:
    """m to a non-negative integer power; exponent 0 gives the identity."""
    if exponent < 0:
        raise ValueError("negative exponents are not defined here")
    result = ExactMatrix.identity(m.rows)
    for _ in range(exponent):
        result = _product(result, m)
    return result


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [
            [mul(a.entry(i1, j1), b.entry(i2, j2)) for j1 in range(a.cols) for j2 in range(b.cols)]
            for i1 in range(a.rows)
            for i2 in range(b.rows)
        ]
    )


def trace(m: ExactMatrix) -> GaussianRational:
    if m.rows != m.cols:
        raise ShapeError("trace requires a square matrix")
    return add(*(m.entry(i, i) for i in range(m.rows)))


def is_unitary(m: ExactMatrix) -> bool:
    return m.rows == m.cols and _product(m, m.dagger()) == ExactMatrix.identity(m.rows)


def char_poly(m: ExactMatrix) -> tuple:
    """Ascending coefficients of det(x*I - m) as GaussianRationals.

    Faddeev-LeVerrier on the integer numerator matrix N (m = N / den): with
    M_0 = I, c_n = 1 and M_k = N M_{k-1} + c_{n-k} I, where
    c_{n-k} = -tr(N M_{k-1}) / k, every division is exact.  The coefficient
    of x^k of det(x*I - N) is then rescaled by den^(n-k).
    """
    if m.rows != m.cols:
        raise ShapeError("characteristic polynomial requires a square matrix")
    n = m.rows
    num, den = _numerators(m)
    coeffs = [(0, 0)] * (n + 1)
    coeffs[n] = (1, 0)
    acc = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        acc = _int_product(num, acc)
        tr = sum(acc[i][i][0] for i in range(n))
        ti = sum(acc[i][i][1] for i in range(n))
        if tr % k or ti % k:
            raise ArithmeticError("inexact division in char-poly recurrence")
        cr, ci = -(tr // k), -(ti // k)
        coeffs[n - k] = (cr, ci)
        for i in range(n):
            re, im = acc[i][i]
            acc[i][i] = (re + cr, im + ci)
    return tuple(
        GaussianRational(Fraction(cr, den ** (n - k)), Fraction(ci, den ** (n - k)))
        for k, (cr, ci) in enumerate(coeffs)
    )


def det(m: ExactMatrix) -> GaussianRational:
    c0 = char_poly(m)[0]
    return c0 if m.rows % 2 == 0 else neg(c0)


def gr_from_str(text: str) -> GaussianRational:
    """Parse the text form written by exact.gr_to_str."""
    text = text.strip()
    if not text.endswith("*i"):
        return GaussianRational(rat_from_str(text))
    body = text[:-2]
    # Split at the sign separating the real part from the imaginary
    # coefficient; a leading sign belongs to the real part.
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-":
            return GaussianRational(
                rat_from_str(body[:idx]), rat_from_str(body[idx] + body[idx + 1 :])
            )
    return GaussianRational(Fraction(0), rat_from_str(body))


def _block(q) -> tuple:
    """The 2x2 matrix ((alpha, beta), (-conj(beta), conj(alpha))) that the
    quaternion tuple q stands for: alpha = (q0 + i q1) / q4, beta = (q2 + i q3) / q4."""
    alpha = GaussianRational(Fraction(q[0], q[4]), Fraction(q[1], q[4]))
    beta = GaussianRational(Fraction(q[2], q[4]), Fraction(q[3], q[4]))
    return ((alpha, beta), (neg(conj(beta)), conj(alpha)))


def _mul_2x2(x: tuple, y: tuple) -> tuple:
    return tuple(
        tuple(add(mul(x[i][0], y[0][j]), mul(x[i][1], y[1][j])) for j in (0, 1)) for i in (0, 1)
    )


def quaternion_matrix(q) -> ExactMatrix:
    """The 2x2 matrix that one quaternion (a, b, c, d, den) stands for, or
    for a channel's tuple of quaternions the block-diagonal matrix of its
    quaternions in order."""
    if isinstance(q[0], tuple):
        return block_diag(*map(quaternion_matrix, q))
    return ExactMatrix.from_rows([list(r) for r in _block(q)])


def q_is_scalar(q) -> bool:
    """Whether the matrix of the quaternion q is c * I: q is real."""
    return not (q[1] or q[2] or q[3])


def coordinates(x: ExactMatrix) -> tuple:
    """The quaternion (Re alpha, Im alpha, Re beta, Im beta) of a 2x2 matrix
    ((alpha, beta), (-conj(beta), conj(alpha)))."""
    alpha, beta = x.entry(0, 0), x.entry(0, 1)
    return (alpha.re, alpha.im, beta.re, beta.im)


# The quaternions 1, i, j, k as 2x2 matrices.
UNIT_BLOCKS = [quaternion_matrix(tuple(int(k == i) for k in range(4)) + (1,)) for i in range(4)]


def orthogonal_map(top: ExactMatrix, bottom: ExactMatrix) -> ExactMatrix:
    """The real 4x4 matrix of x -> top x bottom^dag on quaternion coordinates,
    by 2x2 products: column e holds the coordinates of top e bottom^dag."""
    cols = [coordinates(_product(_product(top, e), bottom.dagger())) for e in UNIT_BLOCKS]
    return ExactMatrix.from_rows([[col[i] for col in cols] for i in range(4)])


def column(values) -> ExactMatrix:
    return ExactMatrix(len(values), 1, list(values))


def reference_scan(pair, max_len: int, node_budget: int) -> CollisionReport:
    """The freeness scan word by word: each word's 2x2 matrix multiplied out
    from the identity with this module's Gaussian-rational arithmetic, the
    words of each length in lexicographic order, and the scan cut short at
    the first word past the budget.  A word is scalar when its matrix is
    c * I for any c, zero included; a collision is an exactly equal matrix."""
    letters = {"0": _block(pair.a), "1": _block(pair.b)}
    one = gr(1)
    seen, collisions, scalar_words = {}, [], []
    count = scanned = 0
    for length in range(1, max_len + 1):
        for bits in product("01", repeat=length):
            if count >= node_budget:
                return CollisionReport(
                    scanned, count, tuple(collisions), tuple(scalar_words), True
                )
            word = "".join(bits)
            m = ((one, ZERO), (ZERO, one))
            for ch in word:
                m = _mul_2x2(m, letters[ch])
            count += 1
            (a, b), (c, d) = m
            if not b and not c and a == d:
                scalar_words.append(word)
            first = seen.setdefault(m, word)
            if first != word:
                collisions.append(Collision(first, word))
        scanned = length
    return CollisionReport(scanned, count, tuple(collisions), tuple(scalar_words), False)


def matrix_from_json(data: dict) -> ExactMatrix:
    """Inverse of ExactMatrix.to_json_dict."""
    entries = [gr_from_str(s) for s in data["entries"]]
    return ExactMatrix(int(data["rows"]), int(data["cols"]), entries)


class KrausChannel:
    """The channel rho -> sum_k K rho K^dag of a finite Kraus list.

    The state layer takes any object with `dim`, `label` and a
    `choi_operator`, here reference_choi of the linear `apply_to_matrix`;
    the program itself only builds quaternion channels, so this one lives
    with the oracles and drives the small explore and Choi tests.
    """

    def __init__(self, ops, label: str):
        d = ops[0].rows
        if any(k.rows != d or k.cols != d for k in ops):
            raise ShapeError("Kraus operators must be square and same-sized")
        self.ops = tuple(ops)
        self.label = label
        self.dim = d

    def apply_to_matrix(self, m: ExactMatrix) -> ExactMatrix:
        terms = [list(_product(_product(k, m), k.dagger()).entries()) for k in self.ops]
        return ExactMatrix(self.dim, self.dim, [add(*zs) for zs in zip(*terms)])

    def choi_operator(self) -> ExactMatrix:
        return reference_choi(self)


def _scaled(m: ExactMatrix, z: GaussianRational) -> ExactMatrix:
    return ExactMatrix(m.rows, m.cols, [mul(e, z) for e in m.entries()])


def reference_apply(channel, m: ExactMatrix) -> ExactMatrix:
    """A quaternion channel's formula spelled out with this module's M or g:
    p K(m) + (1 - p) tr(m) I/4, with K(m) = M m M^T or tr(m) g g^T, each
    product, scaling and sum a matrix of its own."""
    p, t, q = channel.damping, trace(m), channel.quaternions
    if channel.reset:
        g = column([Fraction(v, q[0][4]) for v in q[0][:4]])
        image = _scaled(_product(g, g.dagger()), t)
    else:
        blocks = quaternion_matrix(q)
        o = orthogonal_map(block(blocks, 0, 0, 2, 2), block(blocks, 2, 2, 2, 2))
        image = _product(_product(o, m), o.dagger())
    mixing = _scaled(_scaled(ExactMatrix.identity(4), t), gr((1 - p) / 4))
    return mat_add(_scaled(image, gr(p)), mixing)


def reference_choi(channel) -> ExactMatrix:
    """The Choi operator entry by entry: each matrix unit E_ij built from
    its entries and put through the channel's apply_to_matrix, and each
    entry (a, b) of the image read into J[a*d + i, b*d + j]."""
    d = channel.dim
    side = d * d
    entries = [ZERO] * (side * side)
    for i in range(d):
        for j in range(d):
            unit = ExactMatrix(d, d, [int(k == i * d + j) for k in range(side)])
            out = channel.apply_to_matrix(unit)
            for a in range(d):
                for b in range(d):
                    entries[(a * d + i) * side + (b * d + j)] = out.entry(a, b)
    return ExactMatrix(side, side, entries)


def reference_states(channels, seeds, max_depth: int, node_budget: int = 100_000):
    """The exploration child by child: every channel certified, then each
    kept (state, channel) pair of util.level_pairs through the channel's own
    apply_to_matrix, and each new child checked Hermitian of unit trace.
    Returns the graph and its states, as matrices, in discovery order."""
    for ch in channels:
        certify_cptp(ch)
    states = {}  # matrix -> digest, in discovery order
    frontier = []
    for s in seeds:
        if s.mat not in states:
            states[s.mat] = s.mat.digest()
            frontier.append((states[s.mat], s.mat))
    edges = {}
    expanded = 0
    truncated = False
    for _ in range(max_depth):
        pairs, truncated = level_pairs(frontier, channels, node_budget - expanded)
        next_frontier = []
        for (nid, state), ch in pairs:
            expanded += 1
            m = ch.apply_to_matrix(state)
            if m not in states:
                if not (m.is_hermitian() and trace(m) == GaussianRational(1)):
                    raise ValueError(f"channel {ch.label}: a child is not Hermitian of unit trace")
                states[m] = m.digest()
                next_frontier.append((states[m], m))
            edges[(nid, states[m], ch.label)] = None
        if truncated:
            break
        frontier = next_frontier
    graph = ReachGraph(
        nodes=tuple(states.values()),
        edges=tuple(edges),
        seeds=tuple(dict.fromkeys(states[s.mat] for s in seeds)),
        truncated=truncated,
    )
    return graph, tuple(states)


def reference_explore(channels, seeds, max_depth: int, node_budget: int = 100_000) -> ReachGraph:
    return reference_states(channels, seeds, max_depth, node_budget)[0]


def reference_reach(g: ReachGraph, source, target) -> ReachOutcome:
    """The reach query as a parent walk: each node's (label, successor) pairs
    sorted, every level done in full, each node's first parent edge
    recorded, and the path read back from the target."""
    index = g.index or {}
    src = index.get(source.mat.hermitian_key())
    if src is None:
        raise UnknownStateError("source state is not a node of the graph")
    dst = index.get(target.mat.hermitian_key())
    adj = {n: [] for n in g.nodes}
    for u, v, lab in g.edges:
        adj[u].append((lab, v))
    parents = {src: None}
    frontier = [src]
    while frontier and dst not in parents:
        next_frontier = []
        for u in frontier:
            for lab, v in sorted(adj[u]):
                if v not in parents:
                    parents[v] = (u, lab)
                    next_frontier.append(v)
        frontier = next_frontier
    if dst not in parents:
        return ReachOutcome(NOT_REACHABLE, None)
    path = []
    while parents[dst] is not None:
        dst, lab = parents[dst]
        path.append(lab)
    return ReachOutcome(REACHABLE, tuple(reversed(path)))


def reference_closure(channels, max_depth: int):
    """Every channel that a word of at most max_depth letters realizes, keyed
    as (sign keys of its quaternions, damping numerator, damping
    denominator), with the first word that realizes it in breadth-first
    order and that word's length; the empty word realizes the identity.  A
    word extends on the right: a unitary channel (q1, q2) by a unitary
    letter (u1, u2) becomes (q1 u1, q2 u2), by a reset onto g the reset onto
    q1 g q2^dag, and a reset absorbs every later letter, so only unitary
    channels are extended.  Returns the closure and the number of
    (channel, letter) extensions made."""
    closure = {((Q_IDENTITY, Q_IDENTITY), 1, 1): ((), 0)}
    frontier = [((Q_IDENTITY, Q_IDENTITY), Fraction(1), ())]
    expanded = 0
    for depth in range(1, max_depth + 1):
        next_frontier = []
        for (q1, q2), damping, word in frontier:
            for ch in channels:
                expanded += 1
                if ch.reset:
                    child = (q_mul(q_mul(q1, ch.quaternions[0]), q_adjoint(q2)),)
                else:
                    child = tuple(map(q_mul, (q1, q2), ch.quaternions))
                p = damping * ch.damping
                key = (tuple(map(q_sign_key, child)), p.numerator, p.denominator)
                if key not in closure:
                    closure[key] = word + (ch.label,), depth
                    if not ch.reset:
                        next_frontier.append((child, p, word + (ch.label,)))
        frontier = next_frontier
    return closure, expanded
