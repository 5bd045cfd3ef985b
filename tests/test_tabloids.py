import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambc import cells
from ambc.affine import format_ints, partitions
from ambc.cells import star_right, star_tabloid
from ambc.matrixball import _psi_perm, _psi_step, phi
from ambc.tabloids import (
    Tabloid,
    _lch_pair,
    anticanonical_tabloid,
    canonical_tabloid,
    count_tabloids,
    delta_vec,
    enumerate_tabloids,
    iota_vec,
    is_dominant_wrt,
    local_charge,
    offset_constants,
    omega_rows,
    omega_tabloid,
    parse_shape,
    parse_tabloid,
    rev_lambda,
    tau,
)

from conftest import dominant_diffs, format_tabloid


def swap_residues(t, i):
    """t with residues i and i + 1 (cyclically) exchanged."""
    j = i % t.n + 1
    return Tabloid(
        t.n,
        tuple(tuple(sorted(j if x == i else i if x == j else x for x in row)) for row in t.rows),
    )


class TestTabloidBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tabloid(3, ((1, 2), (2,)))  # 2 repeated
        with pytest.raises(ValueError):
            Tabloid(3, ((1,), (2, 3)))  # lengths increase
        with pytest.raises(ValueError):
            Tabloid(4, ((2, 1, 3), (4,)))  # row not sorted

    def test_text_roundtrip(self, golden9):
        text = format_tabloid(golden9["p"])
        assert text == "[[2,4,6],[3,7,8],[1,5,9]]"
        assert parse_tabloid(text) == golden9["p"]
        assert parse_shape("4,3,1") == (4, 3, 1)
        assert format_ints((4, 3, 1)) == "4,3,1"
        with pytest.raises(ValueError):
            parse_shape("1,3")
        with pytest.raises(ValueError):
            parse_tabloid("[[1,2],[2]]")


class TestTau:
    def test_canonical_forced_value(self):
        # the reverse-row superstandard tabloid is the unique one whose
        # tau-invariant lies inside {n}
        for n, lam in [(8, (4, 3, 1)), (5, (5,)), (4, (2, 2)), (6, (3, 2, 1))]:
            can = canonical_tabloid(lam)
            t = tau(can)
            assert t <= {n}
            others = [T for T in enumerate_tabloids(lam) if tau(T) <= {n}]
            assert others == [can]

    def test_anticanonical_forced_value(self):
        lam, n = (4, 3, 1), 8
        assert tau(anticanonical_tabloid(lam)) == frozenset({1, 2, 4, 6})

    def test_single_row(self):
        assert tau(Tabloid(4, ((1, 2, 3, 4),))) == frozenset()

    def test_golden(self, golden9):
        assert tau(golden9["q"]) == frozenset({3, 5, 7, 8})


class TestLocalCharge:
    def test_worked_example(self):
        t = Tabloid(8, ((3, 5, 7, 8), (1, 2, 4, 6)))
        assert local_charge(t, 1) == 2

    def test_standard_pair(self):
        assert local_charge(Tabloid(6, ((1, 2, 3), (4, 5, 6))), 1) == 0

    def test_golden_charges(self, golden9):
        p, q = golden9["p"], golden9["q"]
        assert [local_charge(p, i) for i in (1, 2)] == [0, 1]
        assert [local_charge(q, i) for i in (1, 2)] == [2, 0]

    def test_out_of_range(self, golden9):
        with pytest.raises(ValueError):
            local_charge(golden9["p"], 3)

    @staticmethod
    def shift_search(a, b):
        # the definition: smallest d >= 0 with a[l-d] < b[l] for every l in
        # [d+1, len(b)], 1-based
        for d in range(len(b) + 1):
            if all(a[l - d - 1] < b[l - 1] for l in range(d + 1, len(b) + 1)):
                return d

    def test_merge_walk_matches_definition(self):
        # every pair of disjoint ascending rows with len(a) >= len(b) >= 1 in
        # 1..n for n <= 8, then random pairs up to n = 64
        for n in range(1, 9):
            for where in itertools.product((0, 1, 2), repeat=n):
                a = tuple(x for x, r in enumerate(where, start=1) if r == 1)
                b = tuple(x for x, r in enumerate(where, start=1) if r == 2)
                if len(a) >= len(b) >= 1:
                    assert _lch_pair(a, b) == self.shift_search(a, b), (a, b)
        rng = random.Random(48)
        for _ in range(2000):
            n = rng.randint(2, 64)
            k = rng.randint(1, n // 2)
            k2 = rng.choice((k, rng.randint(1, k)))
            drawn = rng.sample(range(1, n + 1), k + k2)
            a, b = tuple(sorted(drawn[:k])), tuple(sorted(drawn[k:]))
            assert _lch_pair(a, b) == self.shift_search(a, b), (a, b)


class TestOffsetConstants:
    def test_golden(self, golden9):
        assert offset_constants(golden9["p"], golden9["q"]) == golden9["s_pq"]

    def test_shifted_golden(self, golden9):
        assert offset_constants(omega_tabloid(golden9["p"]), golden9["q"]) == (0, -2, 0)

    def test_self_is_zero(self, golden9):
        for t in (golden9["p"], golden9["q"]):
            assert offset_constants(t, t) == (0, 0, 0)

    def test_cocycle(self):
        rng = random.Random(7)
        for n, lam in [(4, (2, 1, 1)), (5, (2, 2, 1)), (6, (2, 2, 2)), (5, (1, 1, 1, 1, 1))]:
            tabs = list(enumerate_tabloids(lam))
            for _ in range(30):
                p, q, r = (rng.choice(tabs) for _ in range(3))
                spq = offset_constants(p, q)
                sqr = offset_constants(q, r)
                spr = offset_constants(p, r)
                assert tuple(a + b for a, b in zip(spq, sqr)) == spr

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            offset_constants(Tabloid(3, ((1, 2), (3,))), Tabloid(3, ((1, 2, 3),)))


class TestRevLambda:
    def test_worked_example(self):
        assert rev_lambda((2, 2, 1, 1, 1), (3, 1, 5, 2, 4)) == (1, 3, 4, 2, 5)

    def test_distinct_parts_identity(self):
        assert rev_lambda((4, 2, 1), (7, 8, 9)) == (7, 8, 9)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_involution(self, data):
        n = data.draw(st.integers(1, 6))
        lam = data.draw(st.sampled_from(list(partitions(n))))
        rho = data.draw(
            st.lists(st.integers(-5, 5), min_size=len(lam), max_size=len(lam)).map(tuple)
        )
        assert rev_lambda(lam, rev_lambda(lam, rho)) == rho


class TestDominance:
    def test_worked_example(self, golden9):
        assert is_dominant_wrt((2, 0, 2), golden9["p"], golden9["q"])

    def test_zero_difference(self, golden9):
        assert is_dominant_wrt(golden9["s_pq"], golden9["p"], golden9["q"])

    def test_decreasing_in_block_fails(self):
        t = canonical_tabloid((3, 3, 3))
        assert not is_dominant_wrt((1, 0, 0), t, t)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            is_dominant_wrt((0, 0), canonical_tabloid((2, 1)), canonical_tabloid((1, 1, 1)))


class TestCanonicalTabloids:
    def test_goldens(self):
        assert canonical_tabloid((4, 3, 1)).rows == ((5, 6, 7, 8), (2, 3, 4), (1,))
        assert anticanonical_tabloid((4, 3, 1)).rows == ((1, 4, 6, 8), (2, 5, 7), (3,))
        assert canonical_tabloid((3, 3, 1)).rows == ((5, 6, 7), (2, 3, 4), (1,))
        assert canonical_tabloid((2, 2, 1, 1, 1)).rows == ((6, 7), (4, 5), (3,), (2,), (1,))

    def test_single_row_agree(self):
        assert canonical_tabloid((5,)) == anticanonical_tabloid((5,))


class TestOmega:
    def test_golden(self, golden9):
        assert omega_tabloid(golden9["p"]).rows == ((3, 5, 7), (4, 8, 9), (1, 2, 6))

    def test_order_n(self, golden9):
        t = golden9["q"]
        for _ in range(9):
            t = omega_tabloid(t)
        assert t == golden9["q"]

    def test_single_row_fixed(self):
        t = Tabloid(5, ((1, 2, 3, 4, 5),))
        assert omega_tabloid(t) == t

    def test_power_is_repeated_shift(self, golden9):
        rows = golden9["q"].rows
        for k in range(-10, 11):
            t = golden9["q"]
            for _ in range(k % 9):
                t = omega_tabloid(t)
            assert omega_rows(rows, 9, k) == t.rows, k


class TestStarTabloid:
    def test_golden(self, golden9):
        qs = star_tabloid(golden9["q"], 9)
        assert qs.rows == ((3, 5, 7), (2, 8, 9), (1, 4, 6))
        assert star_tabloid(qs, 9) == golden9["q"]

    def test_single_row_undefined(self):
        t = Tabloid(4, ((1, 2, 3, 4),))
        assert all(star_tabloid(t, i) is None for i in range(1, 5))

    def test_small_n_undefined(self):
        assert star_tabloid(Tabloid(2, ((1,), (2,))), 1) is None

    def test_neighbour_rows_do_not_decide(self):
        # in both, residues i-1, i, i+2 lie in the longer top row and i+1 in
        # the bottom row of a two-row shape, yet T* is defined only in the
        # first: no rule on the rows of i-1..i+2 and their lengths decides it
        assert star_tabloid(Tabloid(5, ((1, 2, 4), (3, 5))), 2).rows == ((1, 3, 4), (2, 5))
        assert star_tabloid(Tabloid(5, ((1, 2, 3, 4), (5,))), 4) is None

    def test_involution_where_defined(self):
        for n in (3, 4, 5):
            for lam in partitions(n):
                for t in enumerate_tabloids(lam):
                    for i in range(1, n + 1):
                        s = star_tabloid(t, i)
                        if s is not None:
                            assert star_tabloid(s, i) == t

    def test_defined_only_across_rows(self):
        for n in (3, 4):
            for lam in partitions(n):
                for t in enumerate_tabloids(lam):
                    for i in range(1, n + 1):
                        s = star_tabloid(t, i)
                        if s is None:
                            continue
                        assert t.row_of(i) != t.row_of(i % n + 1)
                        assert s == swap_residues(t, i)

    def test_probe_cache_holds_one_entry_per_tabloid(self):
        # every residue is probed as residue 1, so the 246 tabloids at n = 5
        # bound the cache, not the 1,230 (tabloid, residue) pairs
        cells._star_probe.cache_clear()
        for lam in partitions(5):
            for t in enumerate_tabloids(lam):
                for i in range(1, 6):
                    star_tabloid(t, i)
        assert cells._star_probe.cache_info().currsize <= 246

    def test_rotation_matches_probe_at_each_residue(self):
        # star_tabloid probes at residue 1 on a rotated tabloid; the reference
        # probes at residue i itself, memoized so each probe runs once
        probe = functools.cache(cells._star_probe.__wrapped__)

        def reference(t, i):
            hit = probe(t.n, t.rows, i)
            return None if hit is None or probe(t.n, hit, i) != t.rows else Tabloid(t.n, hit)

        cases = [
            (t, i) for n in (3, 4, 5) for lam in partitions(n) for t in enumerate_tabloids(lam) for i in range(1, n + 1)
        ]
        six = [t for lam in partitions(6) for t in enumerate_tabloids(lam)]
        rng = random.Random(24)
        cases += [(rng.choice(six), rng.randint(1, 6)) for _ in range(20)]
        for t, i in cases:
            assert star_tabloid(t, i) == reference(t, i), (t.rows, i)

    def test_matches_cell_level_ground_truth(self):
        # exhaustive n=4, both directions: T*(t, i) is the swap s exactly when
        # every admissible window move at i in the cell of t lands in the cell
        # of s and every one in the cell of s lands back in the cell of t
        for lam in partitions(4):
            tabs = list(enumerate_tabloids(lam))
            images = {}
            for t in tabs:
                cell = []
                for p in tabs:
                    s = offset_constants(p, t)
                    for diff in dominant_diffs(lam):
                        # the memo-sharing row loop: members share lower rows
                        rho = tuple(d + c for d, c in zip(diff, s))
                        cell.append(_psi_perm(p.rows, t.rows, rho, 4, _psi_step))
                for i in range(1, 5):
                    moved = (star_right(w, i) for w in cell)
                    images[t, i] = {phi(ws).q for ws in moved if ws is not None}
            for t in tabs:
                for i in range(1, 5):
                    swap = swap_residues(t, i)
                    two_sided = images[t, i] == {swap} and images[swap, i] == {t}
                    assert star_tabloid(t, i) == (swap if two_sided else None), (t.rows, i)


class TestDeltaIota:
    def test_goldens(self, golden9):
        q = golden9["q"]
        assert delta_vec(q, 1) == (0, 0, 0)
        assert delta_vec(q, 9) == (0, 0, 0)
        assert iota_vec(golden9["p"], 9) == (0, 0, 1)

    def test_single_row(self):
        t = Tabloid(4, ((1, 2, 3, 4),))
        assert iota_vec(t, 2) == (1,)
        assert delta_vec(t, 2) == (1,)

    def test_delta_top_of_block(self):
        t = canonical_tabloid((3, 2, 2, 1))
        # residue 1 lives in the bottom row (part 1), which opens its own run
        assert delta_vec(t, 1) == (0, 0, 0, 1)
        # residue 4 lives in the first part-2 row, which opens the run of 2s
        assert delta_vec(t, 4) == (0, 1, 1, 0)
        # residue 2 lives in the second part-2 row, which continues that run
        assert delta_vec(t, 2) == (0, 0, 0, 0)


class TestEnumeration:
    def test_counts(self):
        assert count_tabloids((3,)) == 1
        assert count_tabloids((1, 1, 1)) == 6
        assert count_tabloids((2, 1)) == 3
        assert count_tabloids((3, 3, 3)) == 1680
        for n in range(1, 6):
            for lam in partitions(n):
                assert len(list(enumerate_tabloids(lam))) == count_tabloids(lam)

    def test_deterministic_order(self):
        first = list(enumerate_tabloids((2, 1)))
        second = list(enumerate_tabloids((2, 1)))
        assert first == second
        assert first[0].rows == ((1, 2), (3,))


class TestShiftOffsetIdentity:
    def test_exhaustive_small(self):
        # offset constants of a shifted pair differ by the indicator vectors
        rng = random.Random(3)
        for n in range(2, 7):
            for lam in partitions(n):
                tabs = list(enumerate_tabloids(lam))
                sample = tabs if len(tabs) <= 20 else rng.sample(tabs, 20)
                for p in sample:
                    for q in sample:
                        s = offset_constants(p, q)
                        lhs = offset_constants(p, omega_tabloid(q))
                        rhs = tuple(
                            a - b + c for a, b, c in zip(s, iota_vec(q, n), delta_vec(q, n))
                        )
                        assert lhs == rhs
                        lhs2 = offset_constants(omega_tabloid(p), q)
                        rhs2 = tuple(
                            a + b - c for a, b, c in zip(s, iota_vec(p, n), delta_vec(p, n))
                        )
                        assert lhs2 == rhs2


class TestStarOffsetIdentity:
    def test_exhaustive_small(self):
        rng = random.Random(5)
        for n in range(3, 7):
            for lam in partitions(n):
                tabs = list(enumerate_tabloids(lam))
                sample = tabs if len(tabs) <= 14 else rng.sample(tabs, 14)
                for t in sample:
                    for i in (1, n // 2, n):
                        ts = star_tabloid(t, i)
                        if ts is None:
                            continue
                        for p in sample[:6]:
                            if i != n:
                                assert offset_constants(p, ts) == offset_constants(p, t)
                                assert offset_constants(ts, p) == offset_constants(t, p)
                            else:
                                adj = tuple(
                                    a - b - c + d
                                    for a, b, c, d in zip(
                                        iota_vec(t, 1),
                                        iota_vec(t, n),
                                        delta_vec(t, 1),
                                        delta_vec(t, n),
                                    )
                                )
                                assert offset_constants(p, ts) == tuple(
                                    s + x for s, x in zip(offset_constants(p, t), adj)
                                )
                                assert offset_constants(ts, p) == tuple(
                                    s - x for s, x in zip(offset_constants(t, p), adj)
                                )
