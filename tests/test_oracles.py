import itertools
import random

import pytest

from ambc import oracles
from ambc.affine import AffinePerm, InvariantError, PartialPerm, conjugate_partition, identity, partitions
from ambc.matrixball import (
    _balls,
    _bk_labels,
    _bk_win,
    _chain_runs,
    _channel_labels,
    _forward_win,
    _max_density,
    _phi_win,
    _seed,
    _settle,
    _southwest_channel,
    _stream_pairs_for,
    _zigzags,
    channels,
    psi,
    southwest_channel,
)
from ambc.oracles import (
    OracleReport,
    brute_channels,
    brute_complete_stream_families,
    brute_schur_product,
    brute_southwest_channel,
    chain_runs_by_scan,
    channel_labels_round_robin,
    epsilon_from_families,
    self_check,
    settle_by_decrement,
    _random_affine_perm,
    _ssyt_monomials,
)
from ambc.repring import tensor_gl
from ambc.tabloids import anticanonical_tabloid

from conftest import dominant_diffs, small_windows


def partial_windows():
    """(window, n) of seeded partial windows with n <= 8: random holes punched
    into random affine windows, empty ones skipped."""
    rng = random.Random(47)
    for _ in range(400):
        n = rng.randint(1, 8)
        win = _random_affine_perm(rng, n, rng.choice((1, 2, 3))).window
        win = tuple(v if rng.random() < 0.7 else None for v in win)
        if any(v is not None for v in win):
            yield win, n


class TestBruteChannels:
    def test_identity(self):
        assert len(brute_channels(identity(5))) == 1

    def test_longest_element(self):
        n = 5
        w = AffinePerm(n, tuple(range(n, 0, -1)))
        assert len(brute_channels(w)) == n

    def test_differential(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 8)
            w = _random_affine_perm(rng, n)
            assert brute_channels(w) == channels(w)
        # every forward step after the first sees a window with holes
        for win, n in partial_windows():
            w = PartialPerm(n, win)
            assert brute_channels(w) == channels(w), (win, n)

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_channels(identity(9))
        with pytest.raises(ValueError, match="empty permutation has no channels"):
            brute_channels(PartialPerm(3, (None, None, None)))


def reversed_block_windows(max_n):
    """(window, n) of every window cut into reversed blocks, [3,2,1,5,4] for
    blocks of lengths 3 and 2, with n <= max_n: a channel takes one ball of
    each block."""
    for n in range(1, max_n + 1):
        for cuts in itertools.product((False, True), repeat=n - 1):
            win, start = [], 0
            for end in [i + 1 for i, cut in enumerate(cuts) if cut] + [n]:
                win.extend(range(end, start, -1))
                start = end
            yield tuple(win), n


class TestBruteSouthwestChannel:
    def test_exhaustive_small(self):
        # the channel depends only on the ball order, so the value sequences
        # of every n <= 5 with shifts in {-1, 0, 1}, put at the first
        # positions, stand for every window with holes
        seen = 0
        for n in range(1, 6):
            for k in range(1, n + 1):
                for perm in itertools.permutations(range(1, n + 1), k):
                    for shifts in itertools.product((-1, 0, 1), repeat=k):
                        win = tuple(v + n * s for v, s in zip(perm, shifts)) + (None,) * (n - k)
                        w = PartialPerm(n, win)
                        assert southwest_channel(w) == brute_southwest_channel(w), (win, n)
                        seen += 1
        assert seen == 43_659

    def test_seeded_and_reversed_blocks(self):
        wins = list(partial_windows()) + list(reversed_block_windows(8))
        for win, n in wins:
            w = PartialPerm(n, win)
            assert southwest_channel(w) == brute_southwest_channel(w), (win, n)

    def test_uniqueness_guard(self, monkeypatch):
        # with every channel dominating every other, the 3 channels of the
        # longest element all qualify
        monkeypatch.setattr(oracles, "dominates_by_translates", lambda c, other, n: True)
        with pytest.raises(InvariantError, match=r"unique southwest channel, found 3: \(3, 2, 1\)"):
            brute_southwest_channel(AffinePerm(3, (3, 2, 1)))


def backward_steps(win, n):
    """(positions, values, stream balls) of every backward step of
    psi(phi(w)), innermost step first."""
    p_rows, q_rows, rho = _phi_win(win, n)
    cur = (None,) * n
    for q_row, p_row, alt in zip(reversed(q_rows), reversed(p_rows), reversed(rho)):
        spairs = _stream_pairs_for(q_row, p_row, alt, n)
        xs = [x for x in range(1, n + 1) if cur[x - 1] is not None]
        yield xs, [cur[x - 1] for x in xs], spairs
        cur = _bk_win(cur, n, spairs)
    assert cur == tuple(win)


class TestSettleByDecrement:
    @staticmethod
    def check(win, n):
        for xs, vs, spairs in backward_steps(win, n):
            seed = _seed(xs, vs, spairs, n)
            expected = settle_by_decrement(xs, vs, seed, n, len(spairs))
            assert _bk_labels(xs, vs, spairs, n) == expected, (win, xs, vs, spairs)

    def test_exhaustive_small(self):
        for win, n in small_windows():
            self.check(win, n)

    def test_seeded(self):
        rng = random.Random(45)
        for _ in range(120):
            n = rng.randint(5, 32)
            self.check(_random_affine_perm(rng, n, rng.choice((1, 2, 4, 8))).window, n)

    def test_seeded_large(self):
        # at these sizes the sweep order of _settle saves rounds
        rng = random.Random(48)
        for n in (48, 64):
            for spread in (1, 2, 4, 8):
                self.check(_random_affine_perm(rng, n, spread).window, n)

    def test_cap(self):
        # two balls of one chain against a stream of density 1 have no
        # settled labeling, so the labels fall until they pass the floor
        # min(lab) - (m - 1) = 4, a few decrements in
        msg = r"fell below the floor 4: n=2, d=1, balls=\[\(1, 1\), \(2, 2\)\]"
        with pytest.raises(InvariantError, match=msg):
            settle_by_decrement([1, 2], [1, 2], [5, 5], 2, 1)


def forward_windows(win, n):
    """The window before every forward step of phi(w), first step first."""
    cur = tuple(win)
    while any(v is not None for v in cur):
        yield cur
        cur, _ = _forward_win(cur, n)


class TestChannelLabelsRoundRobin:
    @staticmethod
    def check(win, n):
        for cur in forward_windows(win, n):
            xs, vs = _balls(cur)
            chan = _southwest_channel(xs, vs, n)
            lab = _channel_labels(xs, vs, chan, n)
            expected = channel_labels_round_robin(cur, n, [xs[t] for t in chan])
            assert dict(zip(xs, lab)) == expected, (win, cur, chan)

    def test_exhaustive_small(self):
        for win, n in small_windows():
            self.check(win, n)

    def test_seeded(self):
        rng = random.Random(46)
        for n in (5, 8, 12, 16, 24, 32, 48, 64):
            for _ in range(3):
                self.check(_random_affine_perm(rng, n, rng.choice((1, 2, 4, 8))).window, n)

    def test_not_a_channel(self):
        # a single ball of a density-2 chain: the labels rise without bound
        with pytest.raises(InvariantError, match="failed to stabilize"):
            channel_labels_round_robin((-1, 0), 2, [1])
        # two balls that are no chain: the labels settle above the channel's
        with pytest.raises(InvariantError, match="moved a channel ball"):
            channel_labels_round_robin((-2, -1, 3), 3, [1, 3])


class TestSettleOrder:
    """_settle visits the balls in sweep order to save rounds; on any order of
    the balls it reaches the same labels."""

    @staticmethod
    def shuffled_settle(xs, vs, lab, n, d, rng):
        order = list(range(len(xs)))
        rng.shuffle(order)
        lab_p = [lab[t] for t in order]
        assert _settle([xs[t] for t in order], [vs[t] for t in order], lab_p, n, d)
        out = [None] * len(xs)
        for t, label in zip(order, lab_p):
            out[t] = label
        return out

    def check(self, win, n, rng):
        for xs, vs, spairs in backward_steps(win, n):
            lab = self.shuffled_settle(xs, vs, _seed(xs, vs, spairs, n), n, len(spairs), rng)
            assert lab == _bk_labels(xs, vs, spairs, n), (win, xs, vs, spairs)
        for cur in forward_windows(win, n):
            xs, vs = _balls(cur)
            chan = _southwest_channel(xs, vs, n)
            sources = [(xs[t], vs[t]) for t in chan]
            seed = [-(label + 1) for label in _seed(xs, vs, sources, n)]
            turned = [-x for x in xs], [-v for v in vs]
            lab = self.shuffled_settle(*turned, seed, n, len(chan), rng)
            expected = _channel_labels(xs, vs, chan, n)
            assert [-label for label in lab] == expected, (win, cur, chan)

    def test_exhaustive_small(self):
        rng = random.Random(49)
        for win, n in small_windows():
            self.check(win, n, rng)

    def test_seeded(self):
        rng = random.Random(50)
        for _ in range(40):
            n = rng.randint(5, 16)
            self.check(_random_affine_perm(rng, n, rng.choice((1, 2, 4, 8))).window, n, rng)


class TestSettleFailurePath:
    """On small balls in any order, with any values and seed labels, _settle
    settles exactly when no substream is denser than d, and then reaches the
    labels of single decrements from the same seed."""

    def test_seeded(self):
        rng = random.Random(51)
        settled = 0
        for _ in range(3000):
            n = rng.randint(1, 8)
            m = rng.randint(1, n)
            spread = rng.randint(0, 3)
            xs = rng.sample(range(1, n + 1), m)
            vs = [r + n * rng.randint(-spread, spread) for r in rng.sample(range(1, n + 1), m)]
            seed = [rng.randint(-10, 10) for _ in range(m)]
            d = rng.randint(1, 4)
            win = [None] * n
            for x, v in zip(xs, vs):
                win[x - 1] = v
            lab = list(seed)
            ok = _settle(xs, vs, lab, n, d)
            assert ok == (_max_density(tuple(win), n) <= d), (n, xs, vs, seed, d)
            if ok:
                settled += 1
                assert lab == settle_by_decrement(xs, vs, seed, n, d), (n, xs, vs, seed, d)
        assert 0 < settled < 3000


class TestSeed:
    """_seed against a search over the translates of each source: the largest
    shift k that puts the source's translate strictly northwest of the ball.
    Balls and sources come in any order, in window or turned positions, a
    source may sit on a ball, and values spread over several windows."""

    @staticmethod
    def seed_by_search(xs, vs, sources, n):
        d = len(sources)
        out = []
        for x, v in zip(xs, vs):
            cands = []
            for j, (sx, sy) in enumerate(sources, start=1):
                k = -(abs(x - sx) + abs(v - sy)) // n - 2
                assert sx + k * n < x and sy + k * n < v
                while sx + (k + 1) * n < x and sy + (k + 1) * n < v:
                    k += 1
                cands.append(j + k * d)
            out.append(max(cands))
        return out

    def test_seeded(self):
        rng = random.Random(53)
        for _ in range(3000):
            n = rng.randint(1, 12)
            sign = rng.choice((1, -1))
            balls, sources = (
                [
                    (sign * x, sign * (r + n * rng.randint(-3, 3)))
                    for x, r in zip(
                        rng.sample(range(1, n + 1), m), rng.sample(range(1, n + 1), m)
                    )
                ]
                for m in (rng.randint(1, n), rng.randint(1, n))
            )
            if rng.random() < 0.5:  # the channel numbering's seed: sources on balls
                sources = rng.sample(balls, rng.randint(1, len(balls)))
            xs, vs = [x for x, _ in balls], [v for _, v in balls]
            expected = self.seed_by_search(xs, vs, sources, n)
            assert _seed(xs, vs, sources, n) == expected, (n, balls, sources)


class TestZigzagOrder:
    """_zigzags groups the balls into label classes in one pass and sorts each
    class, so the order in which the balls come does not matter."""

    @staticmethod
    def labelled_steps(win, n):
        """(xs, vs, labels, d) of every forward and backward step of phi(w)
        and psi(phi(w))."""
        for cur in forward_windows(win, n):
            xs, vs = _balls(cur)
            chan = _southwest_channel(xs, vs, n)
            yield xs, vs, _channel_labels(xs, vs, chan, n), len(chan)
        for xs, vs, spairs in backward_steps(win, n):
            yield xs, vs, _bk_labels(xs, vs, spairs, n), len(spairs)

    def test_permuted_balls(self):
        rng = random.Random(52)
        for win, n in small_windows():
            for xs, vs, lab, d in self.labelled_steps(win, n):
                order = list(range(len(xs)))
                rng.shuffle(order)
                permuted = ([seq[t] for t in order] for seq in (xs, vs, lab))
                got = _zigzags(*permuted, n, d)
                assert got == _zigzags(xs, vs, lab, n, d), (win, xs, vs, lab)


class TestChainRuns:
    """_chain_runs against the quadratic scan.  The table reads only the ball
    values, so the value sequences of every n <= 5 below stand for every
    window with holes and shifts in {-1, 0, 1}."""

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for k in range(n + 1):
                for perm in itertools.permutations(range(1, n + 1), k):
                    for shifts in itertools.product((-1, 0, 1), repeat=k):
                        vs = [v + n * s for v, s in zip(perm, shifts)]
                        assert _chain_runs(vs, n) == chain_runs_by_scan(vs, n), (vs, n)

    def test_seeded(self):
        rng = random.Random(51)
        wins = list(partial_windows())
        for _ in range(400):
            n = rng.randint(9, 16)
            win = _random_affine_perm(rng, n, rng.choice((1, 2, 4, 8))).window
            wins.append((tuple(v if rng.random() < 0.7 else None for v in win), n))
        for win, n in wins:
            vs = [v for v in win if v is not None]
            assert _chain_runs(vs, n) == chain_runs_by_scan(vs, n), (win, n)


class TestMaxDensity:
    def test_against_brute_channels(self):
        for win, n in partial_windows():
            density = brute_channels(PartialPerm(n, win))[0].density()
            assert _max_density(win, n) == density, (win, n)


class TestStreamFamilies:
    def test_exist_for_anticanonical(self):
        for n in (2, 3, 4, 5, 6):
            for lam in partitions(n):
                anti = anticanonical_tabloid(lam)
                for diff in dominant_diffs(lam, -1, 1)[:6]:
                    w = psi(anti, anti, diff)
                    fams = brute_complete_stream_families(w)
                    assert fams, (lam, diff)
                    for fam in fams:
                        assert tuple(len(s) for s in fam) == lam
                        assert sorted(x for s in fam for x in s) == list(w.domain())

    def test_altitudes_family_independent(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(2, 7)
            lam = rng.choice(list(partitions(n)))
            anti = anticanonical_tabloid(lam)
            diff = rng.choice(dominant_diffs(lam))
            w = psi(anti, anti, diff)
            eps = epsilon_from_families(w)  # raises if family-dependent
            assert len(eps) == len(lam)

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_complete_stream_families(identity(11))

    def test_epsilon_guards(self, monkeypatch):
        w = AffinePerm(3, (1, 2, 6))
        monkeypatch.setattr(oracles, "brute_complete_stream_families", lambda w: [])
        with pytest.raises(ValueError, match="no complete stream family"):
            epsilon_from_families(w)
        # the stream through position 3 has altitude 1, the others 0
        families = [((1, 2), (3,)), ((1, 3), (2,))]
        monkeypatch.setattr(oracles, "brute_complete_stream_families", lambda w: families)
        with pytest.raises(ValueError, match=r"family-dependent weight: \[\(0, 1\), \(1, 0\)\]"):
            epsilon_from_families(w)


class TestForwardStepBookkeeping:
    @staticmethod
    def interval_index(x, lam, n):
        """Index of the interval of the column-length partition of the line
        containing x: (shift, which-interval)."""

        conj = conjugate_partition(lam)
        a, r = divmod(x - 1, n)
        acc = 0
        for i, c in enumerate(conj):
            if r < acc + c:
                return (a, i)
            acc += c
        raise AssertionError

    def test_zigzag_block_counts(self):
        # within every forward zigzag, inner corner-posts fill exactly the
        # same interval-blocks as the outer posts plus the stream ball
        rng = random.Random(43)
        for _ in range(20):
            n = rng.randint(3, 8)
            lam = rng.choice(list(partitions(n)))
            anti = anticanonical_tabloid(lam)
            diff = rng.choice(dominant_diffs(lam, -1, 1))
            w = psi(anti, anti, diff)
            xs, vs = _balls(w.window)
            chan = _southwest_channel(xs, vs, n)
            lab = _channel_labels(xs, vs, chan, n)
            for balls in _zigzags(xs, vs, lab, n, len(chan)):
                inner = [(x, y) for x, y, _ in balls]
                outer = [(x, y) for (x, _, _), (_, y, _) in zip(balls, balls[1:])]
                stream_ball = (balls[-1][0], balls[0][1])
                count = lambda pts: sorted(
                    (self.interval_index(x, lam, n), self.interval_index(y, lam, n))
                    for x, y in pts
                )
                assert count(inner) == count(outer + [stream_ball])


class TestBruteSchur:
    def test_rank_two(self):
        assert brute_schur_product((1, 0), (1, 0), 2) == {(2, 0): 1, (1, 1): 1}

    def test_trivial_factor(self):
        assert brute_schur_product((2, 1, -1), (0, 0, 0), 3) == {(2, 1, -1): 1}

    def test_worked_example(self):
        assert brute_schur_product((2, 1, 0), (2, 0, 0), 3) == tensor_gl((2, 1, 0), (2, 0, 0))

    def test_differential(self):
        rng = random.Random(44)
        for _ in range(50):
            m = rng.randint(1, 3)
            mu = tuple(sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True))
            nu = tuple(sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True))
            assert brute_schur_product(mu, nu, m) == tensor_gl(mu, nu)

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_schur_product((1, 0, 0, 0), (1, 0, 0, 0), 4)

    def test_lex_leading_guard(self, monkeypatch):
        monkeypatch.setattr(oracles, "_poly_mul", lambda p, q, m: {(0, 1): 1})
        with pytest.raises(ValueError, match=r"lex-leading exponent \(0, 1\) is not dominant"):
            brute_schur_product((0, 0), (0, 0), 2)

    def test_more_rows_than_variables(self):
        # no semistandard filling of a column of 3 with entries in 1..2
        assert _ssyt_monomials((1, 1, 1), 2) == {}
        assert _ssyt_monomials((2, 1), 2) == {(2, 1): 1, (1, 2): 1}


class TestSelfCheck:
    def test_clean_run(self):
        reports = self_check(samples=12)
        assert reports and all(r.passed for r in reports)

    def test_report_shapes(self):
        r = OracleReport("case", "1", "2", False)
        assert "MISMATCH" in r.line()
        assert r.to_json()["passed"] is False
