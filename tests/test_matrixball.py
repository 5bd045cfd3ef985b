import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambc.affine import (
    AffinePerm,
    InvariantError,
    PartialPerm,
    descents,
    format_window,
    inverse,
    parse_window,
    partitions,
    shift,
)
from ambc.matrixball import (
    DomTriple,
    Stream,
    _all_channels,
    _balls,
    _bk_labels,
    _bk_win,
    _channel_labels,
    _dominates_from_ne,
    _forward_win,
    _max_density,
    _one_bk_zigzag,
    _one_zigzag,
    _psi_rows,
    _southwest_channel,
    _zigzags,
    backward_numbering,
    backward_step,
    channel_numbering,
    channels,
    forward_step,
    make_stream,
    phi,
    psi,
    psi_cache_clear,
    psi_triple,
    southwest_channel,
)
from ambc import cells, matrixball, psi_cache_info
from ambc.cells import distinguished_involutions, star_tabloid, upsilon, upsilon_inverse
from ambc.cli import format_triple, parse_triple
from ambc.jring import t_multiply
from ambc.lusztig_vogan import theta1, theta1_inverse
from ambc.oracles import _random_affine_perm, dominates_by_translates
from ambc.repring import FWeight, fweight_from_rows
from ambc.tabloids import (
    Tabloid,
    canonical_tabloid,
    enumerate_tabloids,
    is_dominant_wrt,
    offset_constants,
    rev_lambda,
    tau,
)

from conftest import (
    dominant_diffs,
    one_column_triple,
    random_cell_element,
    small_partial_windows,
    small_windows,
    stack_headroom,
)


class TestStreams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Stream(3, ())
        with pytest.raises(ValueError):
            Stream(3, ((1, 2), (2, 1)))  # values not increasing
        with pytest.raises(ValueError):
            Stream(3, ((1, 1), (2, 5)))  # rise of n within one period

    def test_make_stream_shift(self):
        for n, s in [(5, 0), (5, 3), (4, -2), (3, 7)]:
            st_ = make_stream(range(1, n + 1), range(1, n + 1), s, n)
            assert st_.pairs == tuple((i, i + s) for i in range(1, n + 1))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_altitude_roundtrip(self, data):
        n = data.draw(st.integers(1, 8))
        d = data.draw(st.integers(1, n))
        a = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=d, max_size=d))))
        b = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=d, max_size=d))))
        alt = data.draw(st.integers(-7, 7))
        s = make_stream(a, b, alt, n)
        assert s.altitude() == alt
        assert s.domain() == a
        assert s.codomain() == b
        assert s.density() == d

    def test_make_stream_errors(self):
        with pytest.raises(ValueError):
            make_stream((), (), 0, 3)
        with pytest.raises(ValueError):
            make_stream((1,), (1, 2), 0, 3)


class TestChannels:
    def test_identity_single_channel(self):
        w = AffinePerm(5, (1, 2, 3, 4, 5))
        ch = channels(w)
        assert len(ch) == 1 and ch[0].density() == 5
        assert southwest_channel(w) == ch[0]

    def test_longest_element_channels(self):
        n = 5
        w = AffinePerm(n, tuple(range(n, 0, -1)))
        ch = channels(w)
        assert len(ch) == n and all(c.density() == 1 for c in ch)
        # the southwest channel passes through the ball (n, 1)
        assert southwest_channel(w).pairs == ((n, 1),)

    def test_golden_density(self, golden9):
        w = AffinePerm(9, golden9["w"])
        assert southwest_channel(w).density() == 3

    def test_golden_southwest(self, golden9):
        w = AffinePerm(9, golden9["w"])
        assert southwest_channel(w).pairs == ((4, 2), (6, 4), (9, 6))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            channels(PartialPerm(3, (None, None, None)))

    def test_density_equals_first_part(self):
        rng = random.Random(14)
        for _ in range(40):
            w = _random_affine_perm(rng, rng.randint(1, 8))
            assert southwest_channel(w).density() == phi(w).shape()[0]

    def test_dominance_walk_against_translates(self):
        wins = list(small_windows())
        rng = random.Random(53)
        for _ in range(300):
            n = rng.randint(1, 12)
            win = _random_affine_perm(rng, n, rng.choice((1, 2, 3))).window
            win = tuple(v if rng.random() < 0.7 else None for v in win)
            if any(v is not None for v in win):
                wins.append((win, n))
        pairs = 0
        for win, n in wins:
            xs, vs = _balls(win)
            chans = _all_channels(xs, vs, n)
            balls = [[(xs[t], vs[t]) for t in c] for c in chans]
            for c, c_balls in zip(chans, balls):
                for other, other_balls in zip(chans, balls):
                    expected = dominates_by_translates(c_balls, other_balls, n)
                    assert _dominates_from_ne(vs, n, c, other) == expected, (n, win, c, other)
                    pairs += 1
        assert pairs > 5000

    def test_one_merge_walk_per_channel_and_pass(self, monkeypatch):
        # reversed blocks of lengths 3, 2, 3, 2, 3: a channel takes one ball
        # of each, so 108 channels, and the southwest one takes each block's
        # last ball.  The candidate pass and the checking pass each walk once
        # against every channel but one.
        win = (3, 2, 1, 5, 4, 8, 7, 6, 10, 9, 13, 12, 11)
        xs, vs = _balls(win)
        assert len(_all_channels(xs, vs, 13)) == 108
        calls = []

        def counted(*args):
            calls.append(args)
            return _dominates_from_ne(*args)

        monkeypatch.setattr(matrixball, "_dominates_from_ne", counted)
        assert _southwest_channel(xs, vs, 13) == (2, 4, 7, 9, 12)
        assert len(calls) == 2 * 107

    def test_enumeration_cap_names_input(self, monkeypatch):
        # [2,1,4,3] has 2 * 2 = 4 channels, past a cap of 1
        monkeypatch.setattr(matrixball, "_CHANNEL_ENUM_CAP", 1)
        msg = r"exceeded 1 channels: n=4, balls=\[\(1, 2\), \(2, 1\), \(3, 4\), \(4, 3\)\]$"
        with pytest.raises(InvariantError, match=msg):
            phi(AffinePerm(4, (2, 1, 4, 3)))


class TestChannelNumbering:
    def test_identity_labels(self):
        w = AffinePerm(4, (1, 2, 3, 4))
        num = channel_numbering(w, southwest_channel(w))
        assert dict(num.labels) == {1: 1, 2: 2, 3: 3, 4: 4}
        assert num.label((6, 6)) == 2 + num.step
        partial = PartialPerm(4, (1, None, 3, 4))
        num = channel_numbering(partial, southwest_channel(partial))
        with pytest.raises(ValueError, match="no ball over position 2"):
            num.label((6, 6))

    def test_longest_element_shares_one_label(self):
        n = 5
        w = AffinePerm(n, tuple(range(n, 0, -1)))
        # no reverse path of positive length joins distinct window balls
        balls = w.balls()
        for b1, b2 in itertools.permutations(balls, 2):
            assert not (b1[0] < b2[0] and b1[1] < b2[1])
        num = channel_numbering(w, southwest_channel(w))
        labels = {lab for _, lab in num.labels}
        assert len(labels) == 1

    def test_rejects_non_channel(self):
        w = AffinePerm(3, (1, 2, 3))
        with pytest.raises(ValueError):
            channel_numbering(w, make_stream((1,), (1,), 0, 3))

    def test_unsettled_names_input(self):
        # a density-1 "channel" beside a chain of two balls: the longest-path
        # bounds have a positive cycle, so the labels never settle
        msg = r"failed to stabilize: n=2, balls=\[\(1, 1\), \(2, 2\)\], channel=\(1,\)$"
        with pytest.raises(InvariantError, match=msg):
            _channel_labels([1, 2], [1, 2], (0,), 2)

    def test_moved_channel_ball_names_input(self):
        # the balls over 2 and 3 are no chain: a path from a translate of
        # ball 3 through ball 1 lifts ball 2 above its channel label
        msg = (
            r"moved a channel ball: n=3, balls=\[\(1, 1\), \(2, 2\), \(3, 0\)\], "
            r"channel=\(2, 3\), ball 2 labelled 2 against 1$"
        )
        with pytest.raises(InvariantError, match=msg):
            _channel_labels([1, 2, 3], [1, 2, 0], (1, 2), 3)

    def test_ambiguous_southwest_names_input(self, monkeypatch):
        # two copies of one channel: neither is the unique southwest one
        monkeypatch.setattr(matrixball, "_all_channels", lambda xs, vs, n: [(0,), (0,)])
        msg = r"found 2: n=2, balls=\[\(1, 2\), \(2, 1\)\], channels=\[\(1,\), \(1,\)\]$"
        with pytest.raises(InvariantError, match=msg):
            southwest_channel(AffinePerm(2, (2, 1)))

    def test_no_least_channel_names_input(self, monkeypatch):
        # two crossing chains of the identity: neither dominates the other,
        # so the candidate the first pass keeps fails the checking pass
        monkeypatch.setattr(matrixball, "_all_channels", lambda xs, vs, n: [(0, 3), (1, 2)])
        msg = r"found 0: n=4, balls=\[\(1, 1\), \(2, 2\), \(3, 3\), \(4, 4\)\], channels=\[\]$"
        with pytest.raises(InvariantError, match=msg):
            southwest_channel(AffinePerm(4, (1, 2, 3, 4)))


class TestForwardStep:
    def test_n16_golden(self):
        w = parse_window("[11,5,4,3,2,-9,13,10,9,8,1,15,12,22,14,16]")
        out, stream = forward_step(w)
        assert format_window(out) == "[_,11,5,4,3,-8,_,13,10,9,2,_,15,_,22,_]"
        assert stream.density() == 5

    def test_identity(self):
        w = AffinePerm(4, (1, 2, 3, 4))
        out, stream = forward_step(w)
        assert out.domain() == ()
        assert stream.pairs == tuple((i, i) for i in range(1, 5))
        assert stream.altitude() == 0

    def test_terminates_in_row_count_steps(self, golden9):
        w = AffinePerm(9, golden9["w"])
        cur: PartialPerm = w
        steps = 0
        while cur.domain():
            cur, _ = forward_step(cur)
            steps += 1
        assert steps == len(golden9["p"].rows)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            forward_step(PartialPerm(2, (None, None)))

    def test_positions_partition_domain(self):
        # every ball keeps its position: it carries an outer post of its
        # zigzag or gives the position to the stream ball, never both.  The
        # inputs are every window with n <= 5 and shifts in {-1, 0, 1},
        # seeded windows up to n = 64, and each window with holes that their
        # forward steps reach, once.
        rng = random.Random(61)
        todo = [win for win, _ in small_windows(5)]
        for n in (6, 8, 12, 16, 24, 32, 48, 64):
            todo += [_random_affine_perm(rng, n, spread).window for spread in (1, 2, 4, 8)]
        seen = set()
        while todo:
            win = todo.pop()
            if win in seen:
                continue
            seen.add(win)
            w = PartialPerm(len(win), win)
            out, stream = forward_step(w)
            assert sorted(out.domain() + stream.domain()) == list(w.domain()), win
            if out.domain():
                todo.append(out.window)

    def test_zigzag_order_names_input(self, monkeypatch):
        # one label on three balls of density 2 that are not one chain: the
        # zigzag's values descend
        monkeypatch.setattr(matrixball, "_channel_labels", lambda xs, vs, chan, n: [1, 1, 1])
        msg = r"n=3, d=2, balls=\[\(1, 2\), \(2, 1\), \(3, 3\)\], labels=\[1, 1, 1\]"
        with pytest.raises(InvariantError, match=msg):
            forward_step(PartialPerm(3, (2, 1, 3)))

    def test_one_chain_streams_every_ball(self, monkeypatch):
        # values rising by less than n in all: the step searches no channel,
        # empties the window and streams the balls themselves
        monkeypatch.setattr(matrixball, "_southwest_channel", None)
        monkeypatch.setattr(matrixball, "_one_zigzag", None)
        out, stream = forward_step(PartialPerm(5, (None, 2, 4, None, 6)))
        assert out.window == (None,) * 5
        assert stream.pairs == ((2, 2), (3, 4), (5, 6))


class TestPhi:
    def test_unterminated_names_input(self, monkeypatch):
        # a forward step that removes no ball never empties the window
        monkeypatch.setattr(matrixball, "_forward_win", lambda win, n: (win, ((1, win[0]),)))
        msg = r"within n steps: n=2, window=\(2, 1\)"
        with pytest.raises(InvariantError, match=msg):
            phi(AffinePerm(2, (2, 1)))

    def test_not_dominant_names_input(self, monkeypatch):
        monkeypatch.setattr(matrixball, "_dominant_blocks", lambda lam, rho, s: None)
        msg = r"left the dominant image: n=3, window=\(2, 1, 3\)"
        with pytest.raises(InvariantError, match=msg):
            phi(AffinePerm(3, (2, 1, 3)))

    def test_golden(self, golden9):
        t = phi(AffinePerm(9, golden9["w"]))
        assert (t.p, t.q, t.rho) == (golden9["p"], golden9["q"], golden9["rho"])

    def test_identity(self):
        t = phi(AffinePerm(4, (1, 2, 3, 4)))
        assert t.p.rows == ((1, 2, 3, 4),) and t.q.rows == ((1, 2, 3, 4),) and t.rho == (0,)

    def test_shifted_golden(self, golden9):
        t = phi(parse_window("[-1,3,10,-5,14,-3,18,7,2]"))
        assert (t.p, t.q, t.rho) == (golden9["p"], golden9["q"], (0, -1, 1))

    def test_descent_law(self, golden9):
        w = AffinePerm(9, golden9["w"])
        left, right = descents(w)
        assert left == tau(golden9["p"]) and right == tau(golden9["q"])


class TestBackwardNumbering:
    def test_printed_example_n11(self):
        # stream over residues 8..11 with altitude 0 against the partial word;
        # labels are anchor-relative so compare differences
        w = PartialPerm(11, _psi_rows(((5, 6, 7), (2, 3, 4), (1,)),
                                      ((5, 6, 7), (2, 3, 4), (1,)), (0, 2, 0), 11))
        s = make_stream(range(8, 12), range(8, 12), 0, 11)
        num = backward_numbering(w, s)
        balls = {
            "A1": (7, 25), "A2": (6, 24), "A3": (5, 23), "B1": (4, 4),
            "C3": (13, 5), "C2": (14, 6), "C1": (23, 7),
        }
        expected = {"A1": -1, "A2": -2, "A3": -3, "B1": -4, "C1": -1, "C2": -2, "C3": -3}
        base = num.label(balls["A1"]) - expected["A1"]
        for name, ball in balls.items():
            assert num.label(ball) == expected[name] + base, name

    def test_printed_example_n15(self):
        w = PartialPerm(15, _psi_rows(((7, 8, 9, 10), (3, 4, 5, 6), (1, 2)),
                                      ((7, 8, 9, 10), (3, 4, 5, 6), (1, 2)), (0, 3, 0), 15))
        s = make_stream(range(11, 16), range(11, 16), 0, 15)
        num = backward_numbering(w, s)
        balls_a = {1: (10, 46), 2: (9, 34), 3: (8, 33), 4: (7, 32)}
        balls_c = {1: (32, 10), 2: (31, 9), 3: (19, 8), 4: (18, 7)}
        base = num.label(balls_a[1]) + 1
        for i in range(1, 5):
            assert num.label(balls_a[i]) == -i + base
            assert num.label(balls_c[i]) == -i + base
        assert num.label((6, 6)) == -5 + base
        assert num.label((5, 5)) == -6 + base

    def test_monotone_after_settle(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(2, 7)
            lam = rng.choice(list(partitions(n)))
            if len(lam) < 2:
                continue
            rows = list(enumerate_tabloids(lam))
            t = rng.choice(rows)
            rho = tuple(sorted(rng.randint(-2, 2) for _ in lam))
            w = psi(t, t, rho)
            partial, stream = forward_step(w)
            if not partial.domain():
                continue
            num = backward_numbering(partial, stream)
            labels = dict(num.labels)
            for (x1, l1), (x2, l2) in itertools.permutations(num.labels, 2):
                y1 = partial.window[x1 - 1]
                y2 = partial.window[x2 - 1]
                for k in range(-2, 3):
                    if x1 < x2 + k * n and y1 < y2 + k * n:
                        assert l1 < l2 + k * num.step

    def test_order_independence(self):
        # settling in a different candidate order reaches the same numbering
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 6)
            lam = rng.choice([l for l in partitions(n) if len(l) >= 2])
            t = rng.choice(list(enumerate_tabloids(lam)))
            rho = tuple(sorted(rng.randint(-2, 2) for _ in lam))
            w = psi(t, t, rho)
            partial, stream = forward_step(w)
            if not partial.domain():
                continue
            num = backward_numbering(partial, stream)

            xs = [x for x, _ in num.labels]
            vs = [partial.window[x - 1] for x in xs]
            # reversed scan order
            xs_r = list(reversed(xs))
            vs_r = list(reversed(vs))
            lab_r = _bk_labels(xs_r, vs_r, stream.pairs, n)
            assert dict(zip(xs_r, lab_r)) == dict(num.labels)

    def test_unsettled_names_input(self):
        # two balls in a chain outrun a density-1 stream: no labeling strictly
        # increases along the balls and their translates
        msg = r"n=3, balls=\[\(1, 1\), \(2, 2\)\], stream=\(\(3, 3\),\)"
        with pytest.raises(InvariantError, match=msg):
            _bk_labels([1, 2], [1, 2], ((3, 3),), 3)

    def test_incompatible_stream(self):
        w = PartialPerm(4, (1, None, None, None))
        with pytest.raises(ValueError, match="domains overlap"):
            backward_numbering(w, make_stream((1,), (2,), 0, 4))
        with pytest.raises(ValueError, match="values overlap modulo n"):
            backward_numbering(w, make_stream((2,), (1,), 0, 4))


class TestBackwardStep:
    def test_from_empty(self):
        s = make_stream(range(1, 5), range(1, 5), 3, 4)
        out = backward_step(PartialPerm(4, (None,) * 4), s)
        assert out.window == (4, 5, 6, 7)

    def test_from_empty_numbers_nothing(self, monkeypatch):
        # the first step of every psi places the stream balls as they are
        monkeypatch.setattr(matrixball, "_bk_labels", None)
        out = backward_step(PartialPerm(4, (None,) * 4), make_stream((1, 3), (2, 4), 1, 4))
        assert out.window == (4, None, 6, None)

    def test_forward_inverts(self, golden9):
        w = AffinePerm(9, golden9["w"])
        partial, stream = forward_step(w)
        assert backward_step(partial, stream) == PartialPerm(9, w.window)

    def test_zigzag_corner_post_rule(self):
        # inner posts of a zigzag with back (a0,b0) and outer (a1,b1)..(ar,br)
        # are (a0,b1), (a1,b2), ..., (a_{r-1},b_r), (a_r,b0)
        back = (0, 0)
        outer = [(10, 46), (20, 20), (32, 10)]
        win = [None] * 46
        n = 46  # wide period so nothing wraps
        for x, y in outer:
            win[x - 1] = y
        out = _bk_win(tuple(win), n, (back,))
        produced = {(i + 1, v) for i, v in enumerate(out) if v is not None}
        a = [back[0]] + [x for x, _ in sorted(outer)]
        b = [back[1]] + sorted((y for _, y in outer), reverse=True)
        expected = {(a[i], b[i + 1]) for i in range(len(outer))} | {(a[-1], b[0])}
        normalized = set()
        for x, y in expected:
            q = (x - 1) // n
            normalized.add((x - q * n, y - q * n))
        assert produced == normalized

    def test_position_twice_names_input(self):
        # the stream ball's position 1 still holds the input's ball
        msg = (
            r"position 1 produced twice: n=2, window=\(1, None\), "
            r"stream=\(\(1, 2\),\), ball=\(1, 3\), output so far=\(0, None\)$"
        )
        with pytest.raises(InvariantError, match=msg):
            _bk_win((1, None), 2, ((1, 2),))


def _general_zigzags(xs, vs, n):
    chan = _southwest_channel(xs, vs, n)
    return _zigzags(xs, vs, _channel_labels(xs, vs, chan, n), n, len(chan))


def density_one_windows(rng, count, max_n=12):
    """Seeded partial windows of density 1 with n <= max_n and spreads 1-8:
    values first, then positions in window order, each taken by a ball with
    no value above it by less than n still unplaced."""
    for _ in range(count):
        n = rng.randint(1, max_n)
        spread = rng.randint(1, 8)
        left = [r + n * rng.randint(-spread, spread) for r in rng.sample(range(1, n + 1), rng.randint(1, n))]
        win = [None] * n
        for p in sorted(rng.sample(range(n), len(left))):
            v = rng.choice([v for v in left if not any(v < u < v + n for u in left)])
            left.remove(v)
            win[p] = v
        yield tuple(win), n


class TestClosedFormSteps:
    """The one-chain and density-1 forward steps against the general path:
    southwest channel, channel numbering and zigzags."""

    def check(self, windows, monkeypatch):
        closed = []
        for win, n in windows:
            xs, vs = _balls(win)
            zig = _one_zigzag(xs, vs, n)
            assert (zig is not None) == (_max_density(win, n) == 1), win
            if zig is not None:
                assert [zig] == _general_zigzags(xs, vs, n), win
                closed.append((win, n, _forward_win(win, n)))
            if vs[-1] - vs[0] < n and vs == sorted(vs):
                assert _general_zigzags(xs, vs, n) == [[(x, v, x)] for x, v in zip(xs, vs)], win
                assert _forward_win(win, n) == ((None,) * n, tuple(zip(xs, vs))), win
        # the same steps with the walk switched off take the general path
        monkeypatch.setattr(matrixball, "_one_zigzag", lambda xs, vs, n: None)
        for win, n, out in closed:
            assert _forward_win(win, n) == out, win
        return len(closed)

    def test_exhaustive_small(self, monkeypatch):
        # every window with holes, n <= 5 and shifts in {-1, 0, 1}
        wins = list(small_partial_windows(5))
        assert len(wins) == 101_451
        assert self.check(wins, monkeypatch) == 17_192

    def test_seeded_density_one(self, monkeypatch):
        wins = list(density_one_windows(random.Random(83), 2000))
        assert self.check(wins, monkeypatch) == 2000


def _bk_outcome(step):
    """The zigzags of a backward step, or the message of its InvariantError."""
    try:
        return step()
    except InvariantError as e:
        return str(e)


def _general_bk_zigzags(xs, vs, sx, sy, n):
    return _zigzags(xs, vs, _bk_labels(xs, vs, ((sx, sy),), n), n, 1)


class TestDensityOneBackward:
    """The density-1 backward zigzag against the general path, ``_bk_labels``
    then ``_zigzags``, on compatible and incompatible pairs alike: equal
    zigzags, or the same InvariantError."""

    @staticmethod
    def check(pairs):
        failed = 0
        for win, n, sx, sy in pairs:
            xs, vs = _balls(win)
            got = _bk_outcome(lambda: [_one_bk_zigzag(xs, vs, sx, sy, n)])
            assert got == _bk_outcome(lambda: _general_bk_zigzags(xs, vs, sx, sy, n)), (win, sx, sy)
            failed += isinstance(got, str)
        return failed

    def test_exhaustive_small(self):
        # every window with holes, n <= 4 and shifts in {-1, 0, 1}, with one
        # stream ball in each hole, of each free residue and shift
        pairs = []
        for win, n in small_partial_windows(4):
            free = set(range(1, n + 1)) - {(v - 1) % n + 1 for v in win if v is not None}
            for sx in (i + 1 for i, v in enumerate(win) if v is None):
                pairs += [(win, n, sx, r + n * s) for r in sorted(free) for s in (-1, 0, 1)]
        assert len(pairs) == 17_694
        assert self.check(pairs) == 7_191

    def test_seeded(self):
        rng = random.Random(27)
        pairs = []
        for _ in range(1500):  # arbitrary pairs, mostly incompatible
            n = rng.randint(2, 16)
            spread = rng.randint(1, 4)
            k = rng.randint(1, n - 1)
            pos, res = rng.sample(range(1, n + 1), k + 1), rng.sample(range(1, n + 1), k + 1)
            win = [None] * n
            for p, r in zip(pos[1:], res[1:]):
                win[p - 1] = r + n * rng.randint(-spread, spread)
            pairs.append((tuple(win), n, pos[0], res[0] + n * rng.randint(-spread, spread)))
        for win, n in density_one_windows(rng, 1500, max_n=16):  # compatible ones
            if None in win:
                free = sorted(set(range(1, n + 1)) - {(v - 1) % n + 1 for v in win if v is not None})
                sx = rng.choice([i + 1 for i, v in enumerate(win) if v is None])
                pairs.append((win, n, sx, rng.choice(free) + n * rng.randint(-8, 8)))
        assert (len(pairs), self.check(pairs)) == (2698, 789)

    def test_backward_step_takes_it(self, monkeypatch):
        # psi of (1^n) steps against one stream ball only: no relaxation runs,
        # and the general path gives the same permutation
        t = canonical_tabloid((1,) * 12)
        rho = tuple(random.Random(5).randint(-3, 3) for _ in range(12))
        monkeypatch.setattr(matrixball, "_bk_labels", None)
        w = psi(t, t, rho)
        monkeypatch.undo()
        monkeypatch.setattr(matrixball, "_one_bk_zigzag", lambda *a: _general_bk_zigzags(*a)[0])
        assert psi(t, t, rho) == w


GOLDEN_WINDOW = AffinePerm(9, (3, 7, 14, 2, 18, 4, 19, 8, 6))
GOLDEN_TRIPLE = phi(GOLDEN_WINDOW)
LV_PAIR = theta1((3, 1, 1, 0))

# every entry point that runs the backward map on one triple at a time, and
# distinguished_involutions, which runs it once per omega-orbit of tabloids
SINGLE_TRIPLE_CALLS = {
    "psi": lambda: psi(GOLDEN_TRIPLE.p, GOLDEN_TRIPLE.q, GOLDEN_TRIPLE.rho),
    "psi_triple": lambda: psi_triple(GOLDEN_TRIPLE),
    "upsilon_inverse": lambda: upsilon_inverse(*upsilon(GOLDEN_WINDOW)),
    "theta1_inverse": lambda: theta1_inverse(LV_PAIR.shape, LV_PAIR.weight),
    "t_multiply": lambda: t_multiply(GOLDEN_WINDOW, inverse(GOLDEN_WINDOW)),
    "distinguished_involutions": lambda: distinguished_involutions((3, 2, 1), 6),
}


class TestPsi:
    def test_golden(self, golden9):
        w = psi(golden9["p"], golden9["q"], golden9["rho"])
        assert w.window == golden9["w"]

    def test_distinguished_golden(self):
        t = Tabloid(9, ((2, 4, 6, 9), (3, 7, 8), (1, 5)))
        assert format_window(psi(t, t, (0, 0, 0))) == "[-3,5,3,7,2,10,4,8,9]"

    def test_canonical_golden(self):
        t = canonical_tabloid((2, 2, 1, 1, 1))
        assert format_window(psi(t, t, (0, 0, -1, 0, 1))) == "[-28,-8,-2,4,10,16,36]"

    def test_partial_words(self):
        rows = ((5, 6, 7), (2, 3, 4), (1,))
        win = _psi_rows(rows, rows, (0, 2, 0), 11)
        assert format_window(PartialPerm(11, win)) == "[-15,-6,-5,4,23,24,25,_,_,_,_]"
        rows = ((7, 8, 9, 10), (3, 4, 5, 6), (1, 2))
        win = _psi_rows(rows, rows, (0, 3, 0), 15)
        assert format_window(PartialPerm(15, win)) == "[-21,-20,-8,-7,5,6,32,33,34,46,_,_,_,_,_]"

    @pytest.mark.parametrize("call", sorted(SINGLE_TRIPLE_CALLS))
    def test_single_triple_calls_skip_the_step_memo(self, call):
        # a generic window almost never repeats a backward step, and the
        # distinguished involutions gain nothing from the memo on a first
        # pass, so none of these calls reads or fills it
        run = SINGLE_TRIPLE_CALLS[call]
        psi_cache_clear()
        for _ in range(2):
            run()
        info = psi_cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_cell_sweeps_share_the_step_memo(self):
        # the star probe, the memo's only library reader: its altitudes share
        # their lower rows
        psi_cache_clear()
        cells._star_probe.cache_clear()
        star_tabloid(Tabloid(5, ((1, 2, 4), (3, 5))), 2)
        info = psi_cache_info()
        assert info.hits > 0 and 0 < info.currsize <= info.maxsize == 4096

    def test_row_count_needs_no_recursion(self):
        # 80 rows, 40 frames of headroom: a frame per row would overflow
        p, q, rho = one_column_triple(80)
        with stack_headroom(40):
            w = psi(p, q, rho)
        assert phi(w) == DomTriple(p, q, rho)

    def test_holes_name_input(self, monkeypatch):
        # backward steps that place no ball leave every position empty
        monkeypatch.setattr(
            matrixball, "_psi_rows", lambda p_rows, q_rows, rho, n, step: (None,) * n
        )
        t = canonical_tabloid((2, 1))
        msg = r"n=3, P=\(\(2, 3\), \(1,\)\), Q=\(\(2, 3\), \(1,\)\), rho=\(0, 1\)"
        with pytest.raises(InvariantError, match=msg):
            psi(t, t, (0, 1))

    def test_bad_triple(self):
        with pytest.raises(ValueError, match="one shape"):
            psi(Tabloid(2, ((1, 2),)), Tabloid(2, ((1,), (2,))), (0, 0))
        with pytest.raises(ValueError, match="not a partition"):
            Tabloid(3, ((1,), (2, 3)))
        t = canonical_tabloid((2, 1))
        with pytest.raises(ValueError, match="one shape"):
            psi(t, t, (0,))


class TestRoundTrips:
    def test_exhaustive_small(self):
        # forward after backward is the identity on dominant triples, n <= 4
        for n in range(1, 5):
            for lam in partitions(n):
                tabs = list(enumerate_tabloids(lam))
                for p in tabs:
                    for q in tabs:
                        s = offset_constants(p, q)
                        for diff in dominant_diffs(lam, -1, 1):
                            rho = tuple(d + c for d, c in zip(diff, s))
                            w = psi(p, q, rho)
                            t = phi(w)
                            assert (t.p, t.q, t.rho) == (p, q, rho)

    def test_sampled_larger(self):
        rng = random.Random(0)

        for _ in range(120):
            n = rng.randint(1, 9)
            w = _random_affine_perm(rng, n)
            assert psi_triple(phi(w)) == w

    def test_inverse_law(self):
        rng = random.Random(8)

        for _ in range(60):
            n = rng.randint(2, 6)
            lam = rng.choice(list(partitions(n)))
            w, p, q = random_cell_element(rng, lam)
            t = phi(w)
            ti = phi(inverse(w))
            s_pq = offset_constants(p, q)
            s_qp = offset_constants(q, p)
            norm = tuple(r - c for r, c in zip(t.rho, s_pq))
            expected = tuple(c - r for r, c in zip(rev_lambda(lam, norm), s_qp))
            assert (ti.p, ti.q, ti.rho) == (q, p, expected)


class TestTripleFormat:
    def test_roundtrip(self, golden9):
        t = DomTriple(golden9["p"], golden9["q"], golden9["rho"])
        text = format_triple(t)
        assert parse_triple(text) == t
        assert format_triple(parse_triple(text)) == text

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_triple("{}")
        with pytest.raises(ValueError):
            parse_triple('{"p": [[1]], "q": [[1]], "rho": [0], "x": 1}')
        with pytest.raises(ValueError):
            parse_triple('{"p": [[1,2]], "q": [[1],[2]], "rho": [0]}')


ROW2 = canonical_tabloid((2,))


class TestMalformedInputs:
    """Each public input check rejects its input with a ValueError, reached
    through the public function; the match pins the check that fired and,
    where the message names the input, the input."""

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: PartialPerm(0, ()), "period must be positive, got 0", id="period-zero"),
            pytest.param(lambda: PartialPerm(-2, ()), "period must be positive, got -2", id="period-negative"),
            pytest.param(lambda: phi(AffinePerm(2.0, (2, 1))), "period must be an integer, got 2.0", id="period-float"),
            pytest.param(lambda: PartialPerm(True, (1,)), "period must be an integer, got True", id="period-bool"),
            # a window entry is an int or a hole: no float, even an integral
            # one, and no bool
            pytest.param(lambda: phi(AffinePerm(3, (1.5, 2, 3.5))),
                         r"window entries must be integers or holes: \(1\.5, 2, 3\.5\)", id="window-float"),
            pytest.param(lambda: phi(AffinePerm(3, (1.0, 2, 3))),
                         r"window entries must be integers or holes: \(1\.0, 2, 3\)", id="window-integral-float"),
            pytest.param(lambda: shift(3, 0.5), r"integers or holes: \(1\.5, 2\.5, 3\.5\)", id="shift-float"),
            pytest.param(lambda: PartialPerm(2, (True, None)), r"integers or holes: \(True, None\)",
                         id="window-bool"),
            pytest.param(lambda: Stream(3, ((1, 2.0),)), r"integer pairs: \(\(1, 2\.0\),\)", id="stream-float"),
            pytest.param(lambda: Stream(3, ((True, 2),)), r"integer pairs: \(\(True, 2\),\)", id="stream-bool"),
            pytest.param(lambda: Stream(3, ((1, 2), (1, 3))), r"distinct in 1\.\.3: \[1, 1\]",
                         id="stream-repeated-position"),
            # Stream has no clash check of its own: values that clash mod n rise by n
            # or more, so its chain check rejects them
            pytest.param(lambda: Stream(3, ((1, 1), (2, 4))), r"must form a chain: \(\(1, 1\), \(2, 4\)\)",
                         id="stream-values-clash"),
            pytest.param(lambda: make_stream((1, 4), (1, 2), 0, 3), r"in 1\.\.3: \(1, 4\), \(1, 2\)",
                         id="make-stream-out-of-range"),
            pytest.param(lambda: make_stream((1, 1), (1, 2), 0, 3), r"distinct: \(1, 1\), \(1, 2\)",
                         id="make-stream-repeated"),
            pytest.param(lambda: channel_numbering(PartialPerm(3, (1, 2, 3)), Stream(3, ((1, 2),))),
                         r"not a substream of w: n=3, window=\(1, 2, 3\), stream=\(\(1, 2\),\)",
                         id="channel-not-substream"),
            pytest.param(lambda: channel_numbering(PartialPerm(3, (1, 2, 3)), Stream(3, ((1, 1),))),
                         r"not a channel \(density not maximal\): n=3, window=\(1, 2, 3\), stream=\(\(1, 1\),\)",
                         id="channel-density-not-maximal"),
            pytest.param(lambda: backward_step(PartialPerm(3, (None,) * 3), Stream(2, ((1, 1),))),
                         "period mismatch: 3 != 2", id="backward-period-mismatch"),
            pytest.param(lambda: backward_step(PartialPerm(4, (1, 2, None, None)), Stream(4, ((3, 3),))),
                         r"density below a substream of w: not compatible: n=4, window=\(1, 2, None, None\), "
                         r"stream=\(\(3, 3\),\)", id="backward-density-too-low"),
            pytest.param(lambda: backward_step(PartialPerm(3, (1, None, None)), Stream(3, ((1, 2),))),
                         r"domains overlap: n=3, window=\(1, None, None\), stream=\(\(1, 2\),\)",
                         id="backward-domains-overlap"),
            pytest.param(lambda: backward_step(PartialPerm(3, (1, None, None)), Stream(3, ((2, 4),))),
                         r"values overlap modulo n: n=3, window=\(1, None, None\), stream=\(\(2, 4\),\)",
                         id="backward-values-overlap"),
            pytest.param(lambda: DomTriple(ROW2, ROW2, (0, 0)), "rho length 2 != rows 1",
                         id="triple-rho-length"),
            pytest.param(lambda: FWeight((2, 1), ((0,),)), r"expected 2 blocks for shape \(2, 1\), got \(\(0,\),\)",
                         id="fweight-block-count"),
            pytest.param(lambda: FWeight((1, 1), ((0,),)), "weight length 1 != 2", id="fweight-block-length"),
            pytest.param(lambda: FWeight((2, 1), ((0,), (0,))).block_of_part(3), r"3 is not a part of \(2, 1\)",
                         id="block-of-missing-part"),
            pytest.param(lambda: fweight_from_rows((2, 1), (0,)), "vector length 1 != rows 2",
                         id="fweight-from-rows-length"),
            pytest.param(lambda: rev_lambda((2, 1), (0,)), r"length mismatch: \(2, 1\) vs \(0,\)",
                         id="rev-lambda-length"),
            pytest.param(lambda: is_dominant_wrt((0, 0), ROW2, ROW2), "rho length 2 != number of rows 1",
                         id="is-dominant-length"),
            pytest.param(lambda: upsilon_inverse(ROW2, ROW2, FWeight((1, 1), ((0, 0),))),
                         r"weight shape \(1, 1\) != tabloid shape \(2,\)", id="upsilon-inverse-shape"),
        ],
    )
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
