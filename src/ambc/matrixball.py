"""
The affine matrix-ball construction: streams, channels, numberings, zigzags,
and the forward and backward maps between affine permutations and triples
(P, Q, rho).

Geometry conventions (matrix coordinates): a ball (x, y) sits in row x
(growing southward) and column y (growing eastward).  (x1,y1) is strictly
northwest of (x2,y2) when x1 < x2 and y1 < y2.  A *stream* is a periodic
chain of balls in the northwest order; its *density* is the number of balls
per period and its *altitude* is the sum of ceil(y/n) - 1 over one period of
window representatives.  A *channel* of a partial permutation is a
maximum-density substream; among these the *southwest channel* is the unique
one every other channel dominates from the northeast: the least channel in
that order, found by one candidate pass and one checking pass.

The forward step numbers the balls by longest reverse paths out of the
southwest channel, groups equal labels into zigzags, and replaces each
zigzag by its outer corner-posts, emitting one stream ball per zigzag; one
chain of balls, or one zigzag (density 1), needs no channel search.  The
backward step inverts this against a prescribed compatible stream, with no
numbering from the empty window; against one stream ball (density 1) its
numbering is two sweeps along the diagonals x - v, with no relaxation.
Iterating gives ``phi`` and ``psi``.

Positions stay with the balls; values move along the zigzag.  Every
corner-post a step makes shares its row with one ball of its zigzag, so the
step writes it at that ball's window position.  The forward step hands one
position per zigzag to its stream ball; the backward step fills one position
per stream ball, the only writes that can collide.

Anchoring conventions (the results below are anchor-independent, but the
intermediate numberings are not): a channel or stream ball with the smallest
window x gets label 1.  Both numberings solve one constraint system, the
longest-path bounds: a ball strictly southeast of a translate of another
ball carries a larger label than that translate.  The channel numbering is
the least solution that gives the channel balls their labels.  The backward
numbering is the greatest solution at or below its seed, where the stream
translates strictly northwest of a ball bound its label.  Turning the balls
by 180 degrees (negating positions, values and labels) maps the one fixpoint
onto the other, so one relaxation computes both.  It visits the balls in
sweep order, descending (turned) x: a bound from a ball strictly southeast
takes effect in the same round, so the rounds count the wrap-arounds of a
longest path through the translates.  The order only saves rounds; neither
numbering depends on the order in which balls are visited.

The relaxation builds its table of bounds one pair of balls at a time, from
one quotient and one comparison, and after a full first round checks each
ball only against the balls dropped since its last check, kept in a drop
log.  Its rounds, labels and result are those of full rounds.  The channel
numbering starts every other ball unbounded, so its first round applies the
channel's bounds and no seed is computed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, lt, sub
from typing import Optional, Sequence

from .affine import (
    AffinePerm,
    InvariantError,
    PartialPerm,
    _ceil_div,
    _trusted,
)
from .tabloids import Blocks, Rows, Tabloid, _dominant_blocks, _tabloid_error, offset_rows

Win = tuple  # window tuple with int or None entries

_CHANNEL_ENUM_CAP = 500_000


# --- streams -----------------------------------------------------------------


@dataclass(frozen=True)
class Stream:
    """
    A periodic chain of balls, stored as its window representatives
    ((x1,y1),...,(xd,yd)) with 1 <= x1 < ... < xd <= n.

    >>> Stream(3, ((1, 2), (3, 4))).altitude()
    1
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        if not self.pairs:
            raise ValueError("a stream has at least one ball per period")
        xs = [x for x, _ in self.pairs]
        ys = [y for _, y in self.pairs]
        if not all(1 <= x <= self.n for x in xs) or sorted(set(xs)) != xs:
            raise ValueError(f"stream window positions must be distinct in 1..{self.n}: {xs}")
        # values that clash modulo n rise by n or more, so this check rejects them
        if any(a >= b for a, b in zip(ys, ys[1:])) or ys[-1] - ys[0] >= self.n:
            raise ValueError(f"stream windows must form a chain: {self.pairs}")

    def domain(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.pairs)

    def codomain(self) -> tuple[int, ...]:
        return tuple(sorted((y - 1) % self.n + 1 for _, y in self.pairs))

    def density(self) -> int:
        return len(self.pairs)

    def altitude(self) -> int:
        return sum(_ceil_div(y, self.n) - 1 for _, y in self.pairs)


def _stream_pairs_for(domain: tuple, codomain: tuple, altitude: int, n: int):
    """Window balls of the stream from sorted residue tuples."""
    d = len(domain)
    pairs = []
    for i in range(d):
        q, r = divmod(i + altitude, d)
        pairs.append((domain[i], codomain[r] + n * q))
    return tuple(pairs)


def make_stream(domain: Sequence[int], codomain: Sequence[int], altitude: int, n: int) -> Stream:
    """
    The unique stream mapping the residue classes of ``domain`` onto those of
    ``codomain`` with the given altitude.

    >>> make_stream((1, 2, 3), (1, 2, 3), 2, 3).pairs
    ((1, 3), (2, 4), (3, 5))
    """
    a = tuple(sorted(domain))
    b = tuple(sorted(codomain))
    if not a or len(a) != len(b):
        raise ValueError(f"domain and codomain must be nonempty and equal-sized: {a} vs {b}")
    if not all(1 <= x <= n for x in a + b):
        raise ValueError(f"residues must lie in 1..{n}: {a}, {b}")
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ValueError(f"residues must be distinct: {a}, {b}")
    return Stream(n, _stream_pairs_for(a, b, altitude, n))


# --- channels ----------------------------------------------------------------


def _balls(win: Win) -> tuple[list, list]:
    """Positions and values of the balls of ``win``, in window order."""
    xs: list[int] = []
    vs: list[int] = []
    for i, v in enumerate(win):
        if v is not None:
            xs.append(i + 1)
            vs.append(v)
    return xs, vs


def _chain_runs(vs: list, n: int) -> list:
    """The chain table of the balls with values ``vs`` (in window order): per
    anchor ball a, the balls b a substream starting at a may use, namely a
    itself and the later balls with values in (vs[a], vs[a] + n), each as
    (b, vs[b], run) in window order, where run is the length of the longest
    increasing run of those balls starting at b.  The anchor comes first, and
    its run is the longest such substream.

    Each anchor's balls are scanned from the last back, keeping the frontier
    ``best``: best[L] is the greatest value starting a run of length L + 1
    among the balls scanned so far, so it decreases in L and a ball's run is
    1 + the number of leading entries above its value."""
    table = []
    for a, low in enumerate(vs):
        cap = low + n
        nodes: list[tuple[int, int, int]] = []  # built from the last ball back
        best: list[int] = []
        for b in range(len(vs) - 1, a - 1, -1):
            v = vs[b]
            if low <= v < cap:  # window values are distinct: v == low only at b == a
                run = 0
                for u in best:
                    if u < v:
                        break
                    run += 1
                if run == len(best):
                    best.append(v)
                else:
                    best[run] = v
                nodes.append((b, v, run + 1))
        nodes.reverse()
        table.append(nodes)
    return table


def _max_density(win: Win, n: int) -> int:
    """Maximum density of a substream: the longest increasing run of window
    balls whose total rise stays below n."""
    _, vs = _balls(win)
    return max((nodes[0][2] for nodes in _chain_runs(vs, n)), default=0)


def _all_channels(xs: list, vs: list, n: int) -> list[tuple[int, ...]]:
    """All maximum-density substreams, each as its ascending ball indices."""
    if not xs:
        raise ValueError("empty permutation has no channels")
    table = _chain_runs(vs, n)
    d = max(nodes[0][2] for nodes in table)
    out = []
    for a, nodes in enumerate(table):
        if nodes[0][2] != d:
            continue
        # (next node to try, last value taken, indices taken)
        stack = [(1, vs[a], (a,))]
        while stack:
            i, last, chain = stack.pop()
            if len(chain) == d:
                out.append(chain)
                if len(out) > _CHANNEL_ENUM_CAP:
                    raise InvariantError(
                        f"channel enumeration exceeded {_CHANNEL_ENUM_CAP} channels: n={n}, "
                        f"balls={list(zip(xs, vs))}"
                    )
                continue
            need = d - len(chain)
            for j in range(i, len(nodes)):
                b, v, run = nodes[j]
                if run == need and v > last:
                    stack.append((j + 1, v, chain + (b,)))
    return out


def _dominates_from_ne(vs: list, n: int, c, other) -> bool:
    """Whether every ball of the chain c has a translate of a ball of the
    chain ``other`` weakly to its northeast.  Both chains are ascending ball
    indices (their values then ascend and rise by less than n), so the
    translates of ``other`` form one chain in the plane: of those in rows at
    or above ball t, the last has the greatest value.  It is the ball of
    ``other`` at the largest index <= t, or the last ball shifted by -n when
    there is none, so one merge walk decides."""
    j, m = 0, len(other)
    for t in c:
        while j < m and other[j] <= t:
            j += 1
        top = vs[other[j - 1]] if j else vs[other[-1]] - n
        if top < vs[t]:
            return False
    return True


def _southwest_channel(xs: list, vs: list, n: int) -> tuple[int, ...]:
    """Ball indices of the least channel, the one all others dominate from the
    northeast: a candidate pass adopts each channel southwest of the candidate,
    and a checking pass tests the result against every other channel."""
    chans = _all_channels(xs, vs, n)
    if len(chans) == 1:
        return chans[0]
    cand = chans[0]
    for o in chans[1:]:
        if _dominates_from_ne(vs, n, o, cand):
            cand = o
    ok = all(o == cand or _dominates_from_ne(vs, n, cand, o) for o in chans)
    sw = [o for o in chans if o == cand] if ok else []
    if len(sw) != 1:
        raise InvariantError(
            f"expected a unique southwest channel, found {len(sw)}: n={n}, "
            f"balls={list(zip(xs, vs))}, channels={[tuple(xs[t] for t in c) for c in sw]}"
        )
    return sw[0]


# --- numberings ---------------------------------------------------------------


@dataclass(frozen=True)
class Numbering:
    """
    A periodic integer labeling of the balls of a partial permutation:
    the ball over window position x carries ``labels[x]``, and translating a
    ball by (n, n) adds ``step``.
    """

    n: int
    step: int
    labels: tuple[tuple[int, int], ...]  # (window position, label), ascending

    def label(self, ball: tuple[int, int]) -> int:
        x, _ = ball
        q, r = divmod(x - 1, self.n)
        table = dict(self.labels)
        if r + 1 not in table:
            raise ValueError(f"no ball over position {r + 1}")
        return table[r + 1] + q * self.step


def _seed(xs: list, vs: list, sources, n: int) -> list:
    """Seed each ball (xs[t], vs[t]) with max(l_s + k d) over the source
    balls s = (x_s, v_s), where the i-th source (from 1) carries l_s = i, d is
    the number of sources, and k, the largest shift whose translate of s by
    k(n, n) lies strictly northwest of ball t, is the least of (v_t - v_s - 1)
    // n and (both lie in one window) 0 if x_s < x_t, else -1."""
    d = len(sources)
    src = [(sx, sy + 1, j) for j, (sx, sy) in enumerate(sources, start=1)]
    lab = []
    for x, v in zip(xs, vs):
        best = None
        for sx, sy, j in src:
            k = (v - sy) // n
            c = 0 if sx < x else -1
            cand = (k if k < c else c) * d + j
            if best is None or cand > best:
                best = cand
        lab.append(best)
    return lab


def _settle(xs: list, vs: list, lab: list, n: int, d: int) -> bool:
    """Lower the labels of the balls (xs[t], vs[t]) in place to the greatest
    labeling at or below them that satisfies the longest-path bounds for
    period shift d >= 1.  A translate of ball u by k(n, n) lies strictly
    southeast of ball t from k = max((x_t - x_u) // n, (v_t - v_u) // n) + 1
    on, so the bound is lab[t] <= lab[u] + k d - 1: a min-plus relaxation
    that settles within m rounds for m balls unless no such labeling exists.
    Returns whether it settled.

    The table is built one unordered pair at a time from one quotient, q =
    (v_t - v_u) // n.  Two balls of a window, turned or not, lie less than n
    apart, so (x_t - x_u) // n is 0 or -1 as their positions compare, and
    they differ in value modulo n, so (v_u - v_t) // n = -1 - q.  The bound on
    the ball of larger x is mostly the default d - 1 and is then not stored.
    Positions are compared, so the balls may come in any order.

    Each round visits the balls in sweep order, descending x (both callers
    pass monotone positions, so this is the list or its reverse).  A bound
    with k = 0 comes from a ball of larger x, already lowered in the same
    round; only the wrap bounds (k >= 1) wait for the next round, so the
    rounds count wrap-arounds.  The first round checks every bound, and
    each ball whose label drops goes on a drop log.  A checked label meets
    every bound as the labels then stood, so a later round checks a ball only
    against the log since its last check.  Each round leaves the labels a
    full round would; the relaxation stops after the first round that drops
    nothing, or fails after m + 2 rounds.  The result does not depend on the
    order."""
    m = len(xs)
    if m < 2:
        return True  # a lone ball's one bound, lab <= lab + d - 1, holds
    rows = [[d - 1] * m for _ in xs]
    for t in range(m):
        x, v, row = xs[t], vs[t], rows[t]
        for u in range(t + 1, m):
            q = (v - vs[u]) // n
            if x < xs[u]:
                if q >= -1:
                    row[u] = q * d + d - 1
                    continue
                row[u] = -1
                rows[u][t] = -q * d - 1
            elif q < 0:
                rows[u][t] = -q * d - 1
            else:
                row[u] = q * d + d - 1
                rows[u][t] = -1
    sweep = range(m - 1, -1, -1) if xs[0] < xs[-1] else range(m)
    log = []
    seen = [0] * m
    for t in sweep:
        low = min(map(add, lab, rows[t]))
        if low < lab[t]:
            lab[t] = low
            log.append(t)
        seen[t] = len(log)
    for _ in range(m + 1):
        start = len(log)
        for t in sweep:
            if seen[t] == len(log):
                continue
            row = rows[t]
            low = lab[t]
            for u in log[seen[t]:]:
                c = lab[u] + row[u]
                if c < low:
                    low = c
            if low < lab[t]:
                lab[t] = low
                log.append(t)
            seen[t] = len(log)
        if len(log) == start:
            return True
    return False


def _channel_labels(xs: list, vs: list, chan: tuple[int, ...], n: int) -> list:
    """Labels of the balls (xs[t], vs[t]), numbered by longest paths out of
    the proper numbering of the channel with ascending ball indices ``chan``
    (its first ball is anchored at 1): the least labeling that satisfies the
    longest-path bounds and gives the channel balls those labels, computed by
    ``_settle`` on the balls turned by 180 degrees.  The other balls start
    unbounded, so the first round applies the channel's bounds, the seed of
    the numbering.  It exists unless the channel is not of maximum density."""
    lab = [float("inf")] * len(xs)
    for j, t in enumerate(chan, start=1):
        lab[t] = -j
    if not _settle([-x for x in xs], [-v for v in vs], lab, n, len(chan)):
        raise InvariantError(
            f"channel numbering failed to stabilize: n={n}, balls={list(zip(xs, vs))}, "
            f"channel={tuple(xs[t] for t in chan)}"
        )
    lab = [-label for label in lab]
    for j, t in enumerate(chan, start=1):
        if lab[t] != j:
            raise InvariantError(
                f"channel numbering moved a channel ball: n={n}, balls={list(zip(xs, vs))}, "
                f"channel={tuple(xs[t] for t in chan)}, ball {xs[t]} labelled {lab[t]} against {j}"
            )
    return lab


def channel_numbering(w: PartialPerm, channel: Stream) -> Numbering:
    """The numbering of the balls of w induced by a channel of w."""
    chan = channel.domain()
    if set(chan) - set(w.domain()) or any(w.window[x - 1] != y for x, y in channel.pairs):
        raise ValueError(f"the given stream is not a substream of w: {_inputs(w, channel)}")
    if channel.density() != _max_density(w.window, w.n):
        raise ValueError(f"the given stream is not a channel (density not maximal): {_inputs(w, channel)}")
    xs, vs = _balls(w.window)
    lab = _channel_labels(xs, vs, tuple(xs.index(x) for x in chan), w.n)
    return Numbering(w.n, channel.density(), tuple(zip(xs, lab)))


def channels(w: PartialPerm) -> tuple[Stream, ...]:
    """All maximum-density substreams of w."""
    xs, vs = _balls(w.window)
    out = [Stream(w.n, tuple((xs[t], vs[t]) for t in c)) for c in _all_channels(xs, vs, w.n)]
    return tuple(sorted(out, key=lambda s: s.pairs))


def southwest_channel(w: PartialPerm) -> Stream:
    """The unique channel all other channels dominate from the northeast."""
    xs, vs = _balls(w.window)
    return Stream(w.n, tuple((xs[t], vs[t]) for t in _southwest_channel(xs, vs, w.n)))


# --- forward step -------------------------------------------------------------


def _zigzags(xs: list, vs: list, lab: list, n: int, d: int) -> list:
    """Group labelled balls into one zigzag per label class modulo d: a ball
    labelled 1 + k d + r, 0 <= r < d, joins class r translated by -k(n, n), as
    (x - k n, v - k n, x) with its window position x last.  Each class,
    possibly empty, is sorted by x descending (values then ascend)."""
    out: list[list] = [[] for _ in range(d)]
    for x, v, label in zip(xs, vs, lab):
        k, r = divmod(label - 1, d)
        out[r].append((x - k * n, v - k * n, x))
    for balls in out:
        balls.sort(reverse=True)
        for t in range(len(balls) - 1):
            if balls[t][1] >= balls[t + 1][1]:
                raise InvariantError(
                    f"zigzag balls out of order: {balls}; n={n}, d={d}, "
                    f"balls={list(zip(xs, vs))}, labels={lab}"
                )
    return out


def _one_zigzag(xs: list, vs: list, n: int) -> Optional[list]:
    """The zigzag ``_zigzags`` builds for a step of density 1, or None.  In
    value order, each ball moves by the least k(n, n), k = (x - x_prev) // n
    + 1, that puts it strictly north of the one before; the walk fails when a
    moved value does not rise.  At density 1, dominance between single balls
    is the value order, so the lowest ball is the southwest channel and starts
    the walk.  Success implies density 1: balls i < j with v_i < v_j < v_i + n
    force k_j >= k_i + 1, so the moved v_j - v_i is below 0 and the walk fails."""
    (v, x), *rest = sorted(zip(vs, xs))
    zig = [(x, v, x)]
    for v, x in rest:
        px, pv, _ = zig[-1]
        kn = ((x - px) // n + 1) * n
        if v - kn <= pv:
            return None
        zig.append((x - kn, v - kn, x))
    return zig


def _forward_win(win: Win, n: int) -> tuple[Win, tuple[tuple[int, int], ...]]:
    """One forward step: a zigzag of balls (x_i, y_i, p_i), x descending,
    leaves the outer posts (x_i, y_{i+1}) at the positions p_i and the stream
    ball (x_r, y_0) at p_r, for its last ball r.  No channel is searched when
    the values rise by less than n in all (one chain, each ball its own
    zigzag: the window empties into the stream) or when ``_one_zigzag`` walks
    the one zigzag of a step of density 1."""
    xs, vs = _balls(win)
    if vs[-1] - vs[0] < n and all(map(lt, vs, vs[1:])):
        return (None,) * n, tuple(zip(xs, vs))
    zigzags = [_one_zigzag(xs, vs, n)]
    if zigzags[0] is None:
        chan = _southwest_channel(xs, vs, n)
        zigzags = _zigzags(xs, vs, _channel_labels(xs, vs, chan, n), n, len(chan))
    out = list(win)
    spairs = []
    for balls in zigzags:  # each holds a channel ball
        for (x, _, p), (_, y, _) in zip(balls, balls[1:]):
            out[p - 1] = y + p - x
        x, _, p = balls[-1]
        out[p - 1] = None
        spairs.append((p, balls[0][1] + p - x))
    spairs.sort()
    return tuple(out), tuple(spairs)


def _place(out: list, n: int, x: int, y: int, win: Win, spairs) -> None:
    """Put the stream ball (x, y) into the window ``out`` as its translate
    over 1..n; ``win`` and ``spairs`` are the step's input window and stream,
    named if the position is already taken."""
    q = (x - 1) // n
    r = x - q * n - 1
    if out[r] is not None:
        raise InvariantError(
            f"window position {r + 1} produced twice: n={n}, window={win}, "
            f"stream={tuple(spairs)}, ball={(x, y)}, output so far={tuple(out)}"
        )
    out[r] = y - q * n


def forward_step(w: PartialPerm) -> tuple[PartialPerm, Stream]:
    """
    One forward step: replace every zigzag by its outer corner-posts and
    collect one stream ball per zigzag.  The stream's density equals the
    channel density of w.
    """
    if not w.domain():
        raise ValueError("forward step of an empty permutation")
    new_win, spairs = _forward_win(w.window, w.n)
    return PartialPerm(w.n, new_win), Stream(w.n, spairs)


@dataclass(frozen=True)
class DomTriple:
    """The image (P, Q, rho) of an affine permutation under the forward map."""

    p: Tabloid
    q: Tabloid
    rho: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(self.rho))
        if self.p.shape() != self.q.shape():
            raise ValueError(f"shape mismatch: {self.p.shape()} vs {self.q.shape()}")
        if len(self.rho) != len(self.p.rows):
            raise ValueError(f"rho length {len(self.rho)} != rows {len(self.p.rows)}")

    def shape(self) -> tuple[int, ...]:
        return self.p.shape()


def _phi_win(win: Win, n: int) -> tuple[Rows, Rows, tuple[int, ...]]:
    p_rows: list[tuple[int, ...]] = []
    q_rows: list[tuple[int, ...]] = []
    rho: list[int] = []
    cur = win
    for _ in range(n + 1):
        if all(v is None for v in cur):
            return tuple(p_rows), tuple(q_rows), tuple(rho)
        cur, spairs = _forward_win(cur, n)
        # P records the value side of each stream, Q the position side; the
        # descent law L(w) = tau(P(w)) and the worked examples pin this.
        p_rows.append(tuple(sorted((y - 1) % n + 1 for _, y in spairs)))
        q_rows.append(tuple(x for x, _ in spairs))
        rho.append(sum(_ceil_div(y, n) - 1 for _, y in spairs))
    raise InvariantError(
        f"forward iteration did not terminate within n steps: n={n}, window={tuple(win)}"
    )


def phi(w: AffinePerm) -> DomTriple:
    """
    The forward map w -> (P, Q, rho): iterate forward steps, reading off the
    stream codomains (rows of P), domains (rows of Q) and altitudes (rho).

    >>> phi(AffinePerm(3, (1, 2, 3))).rho
    (0,)
    """
    p_rows, q_rows, rho, _ = _forward(w)
    return _trusted(DomTriple, _trusted(Tabloid, w.n, p_rows), _trusted(Tabloid, w.n, q_rows), rho)


def _forward(w: AffinePerm) -> tuple[Rows, Rows, tuple[int, ...], Blocks]:
    """The forward image of w as the rows of P and Q, rho and its weight
    blocks by ``_dominant_blocks``, after the one check that P and Q are
    row-standard tabloids of one shape holding 1..n and rho has one entry per
    row; an InvariantError naming w if the triple is not dominant."""
    p_rows, q_rows, rho = _phi_win(w.window, w.n)
    lam = tuple(map(len, p_rows))
    blocks = None
    if tuple(map(len, q_rows)) == lam and len(rho) == len(lam) and not (
            _tabloid_error(p_rows, w.n) or _tabloid_error(q_rows, w.n)):
        blocks = _dominant_blocks(lam, rho, offset_rows(p_rows, q_rows))
    if blocks is None:
        raise InvariantError(
            f"forward map left the dominant image: n={w.n}, window={w.window}, "
            f"P={p_rows}, Q={q_rows}, rho={rho}"
        )
    return p_rows, q_rows, rho, blocks


# --- backward step ------------------------------------------------------------


def _bk_labels(xs: list, vs: list, spairs, n: int) -> list:
    """The stabilized backward labels of the balls (xs[t], vs[t]) against the
    stream balls ``spairs``: the greatest labeling at or below the seed that
    strictly increases along strict northwest order."""
    lab = _seed(xs, vs, spairs, n)
    if not _settle(xs, vs, lab, n, len(spairs)):
        raise InvariantError(
            f"backward numbering did not settle: n={n}, balls={list(zip(xs, vs))}, "
            f"stream={tuple(spairs)}"
        )
    return lab


def _one_bk_zigzag(xs: list, vs: list, sx: int, sy: int, n: int) -> list:
    """The zigzag ``_zigzags`` builds from ``_bk_labels`` against one stream
    ball (sx, sy), with no relaxation.  Label 1 + k moves a ball by -k(n, n),
    which keeps c = x - v and lowers p = x + v by 2kn.  For c_a < c_b the
    longest-path bounds are k_b - k_a <= (c_b - c_a - 1 + p_b - p_a) // 2n
    and k_a - k_b <= (c_b - c_a - 1 + p_a - p_b) // 2n; the numerators add
    along the c order and floors are superadditive, so the bounds between
    neighbours in c imply the rest.  The greatest labeling at or below the
    seed is then one sweep up the c order and one back; neighbours whose
    bounds add below 0 close a cycle no labeling meets, where ``_settle``
    fails.  The moved balls are an antichain: descending c is descending x."""
    n2 = 2 * n
    balls = sorted(zip(map(sub, xs, vs), xs, vs))
    ks: list[int] = []  # the seed less 1, lowered going up
    down = []  # the bound on k_a - k_b for each pair of neighbours
    for c, x, v in balls:
        p = x + v
        k = (v - sy - 1) // n
        if sx >= x and k > -1:
            k = -1
        elif k > 0:
            k = 0
        if ks:
            up = (c - pc - 1 + p - pp) // n2
            back = (c - pc - 1 - p + pp) // n2
            if up + back < 0:
                raise InvariantError(
                    f"backward numbering did not settle: n={n}, balls={list(zip(xs, vs))}, "
                    f"stream={((sx, sy),)}"
                )
            if pk + up < k:
                k = pk + up
            down.append(back)
        ks.append(k)
        pc, pp, pk = c, p, k
    for i in range(len(ks) - 2, -1, -1):
        if ks[i + 1] + down[i] < ks[i]:
            ks[i] = ks[i + 1] + down[i]
    return [(x - k * n, v - k * n, x) for (_, x, v), k in zip(reversed(balls), reversed(ks))]


def backward_numbering(w: PartialPerm, s: Stream) -> Numbering:
    """
    The stabilized backward numbering of the balls of w against a compatible
    stream: the greatest labeling that strictly increases along strict
    northwest order and stays at or below the seed, where each ball gets the
    largest label a stream translate strictly northwest of it allows (the
    stream ball with the smallest window x is anchored at 1).
    """
    _check_compatible(w, s)
    xs, vs = _balls(w.window)
    lab = _bk_labels(xs, vs, s.pairs, w.n)
    return Numbering(w.n, s.density(), tuple(zip(xs, lab)))


def _check_compatible(w: PartialPerm, s: Stream) -> None:
    if w.n != s.n:
        raise ValueError(f"period mismatch: {w.n} != {s.n}")
    if set(w.domain()) & set(s.domain()):
        raise ValueError(f"stream and permutation domains overlap: {_inputs(w, s)}")
    if set(w.codomain_residues()) & set(s.codomain()):
        raise ValueError(f"stream and permutation values overlap modulo n: {_inputs(w, s)}")
    if w.domain() and s.density() < _max_density(w.window, w.n):
        raise ValueError(f"stream density below a substream of w: not compatible: {_inputs(w, s)}")


def _inputs(w: PartialPerm, s: Stream) -> str:
    """The inputs of a stream check, for its error message."""
    return f"n={w.n}, window={w.window}, stream={s.pairs}"


def _bk_win(win: Win, n: int, spairs) -> Win:
    """One backward step: stream ball (sx, sy) and its zigzag of balls
    (x_i, y_i, p_i), x descending, give the inner posts (x_1, sy), (x_2, y_1),
    ... at the positions p_i, and (sx, y_r), placed as a stream ball.  From
    the empty window the zigzags are empty: no numbering is computed.
    Against one stream ball ``_one_bk_zigzag`` builds the one zigzag."""
    xs, vs = _balls(win)
    d = len(spairs)
    if not xs:
        zigzags = [()] * d
    elif d == 1:
        zigzags = [_one_bk_zigzag(xs, vs, *spairs[0], n)]
    else:
        zigzags = _zigzags(xs, vs, _bk_labels(xs, vs, spairs, n), n, d)
    out = list(win)
    for (sx, sy), balls in zip(spairs, zigzags):
        y = sy
        for x, v, p in balls:
            out[p - 1] = y + p - x
            y = v
        _place(out, n, sx, y, win, spairs)
    return tuple(out)


def backward_step(w: PartialPerm, s: Stream) -> PartialPerm:
    """
    One backward step against a compatible stream: rebuild the zigzags whose
    outer corner-posts are the balls of w and whose back corner-posts are the
    stream balls, and return their inner corner-posts.
    """
    _check_compatible(w, s)
    return PartialPerm(w.n, _bk_win(w.window, w.n, s.pairs))


def psi_cache_clear() -> None:
    """Drop the memo of backward steps that the cell sweeps share."""
    _psi_step.cache_clear()


def psi_cache_info():
    """Hits, misses, maximum and current size of the memo of backward steps
    that the cell sweeps share; single-triple calls such as ``psi`` skip it."""
    return _psi_step.cache_info()


def _bk_row(win: Win, q_row: tuple, p_row: tuple, alt: int, n: int) -> Win:
    """The backward step from ``win`` against the stream of one row of the triple."""
    return _bk_win(win, n, _stream_pairs_for(q_row, p_row, alt, n))


@lru_cache(maxsize=4096)
def _psi_step(win: Win, q_row: tuple, p_row: tuple, alt: int, n: int) -> Win:
    """``_bk_row`` behind a memo.  Sweeps over the triples of one shape, such
    as the distinguished involutions and the star probe, meet the same lower
    rows again and hit it; a generic window almost never repeats a step, so
    ``psi`` and the coordinate maps take ``_bk_row`` without the memo."""
    return _bk_row(win, q_row, p_row, alt, n)


def _psi_rows(p_rows: Rows, q_rows: Rows, rho: Sequence[int], n: int, step=_psi_step) -> Win:
    # trusted: the rows of two tabloids of one shape and one altitude per row
    win = (None,) * n
    for q_row, p_row, alt in zip(reversed(q_rows), reversed(p_rows), reversed(tuple(rho))):
        win = step(win, tuple(q_row), tuple(p_row), alt, n)
    return win


def psi(p: Tabloid, q: Tabloid, rho: Sequence[int]) -> AffinePerm:
    """
    The backward map (P, Q, rho) -> w: feed the streams prescribed by the
    rows and altitudes through backward steps, innermost row first.

    >>> from .tabloids import canonical_tabloid
    >>> t = canonical_tabloid((3,))
    >>> psi(t, t, (1,)).window
    (2, 3, 4)
    """
    rho = tuple(rho)
    if p.shape() != q.shape() or len(rho) != len(p.rows):
        raise ValueError("P, Q and rho must share one shape")
    return _psi_perm(p.rows, q.rows, rho, p.n)


def _psi_perm(p_rows: Rows, q_rows: Rows, rho: tuple[int, ...], n: int, step=_bk_row) -> AffinePerm:
    """psi on trusted rows, one backward ``step`` per row; a hole in the
    result is an InvariantError naming the triple, and AffinePerm checks the
    window."""
    win = _psi_rows(p_rows, q_rows, rho, n, step)
    if any(v is None for v in win):
        raise InvariantError(
            f"backward map produced holes from a full tabloid pair: n={n}, "
            f"P={p_rows}, Q={q_rows}, rho={rho}"
        )
    return AffinePerm(n, win)


def psi_triple(t: DomTriple) -> AffinePerm:
    return _psi_perm(t.p.rows, t.q.rows, t.rho, t.p.n)  # DomTriple checked the shapes
