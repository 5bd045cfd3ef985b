import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambc.affine import (
    AffinePerm,
    PartialPerm,
    block_coordinate,
    block_diagonal,
    compose,
    conjugate_partition,
    descents,
    descents_right,
    format_window,
    from_dominant_weight,
    identity,
    inverse,
    is_nonextended,
    longest_parabolic,
    min_double_coset_rep,
    parse_int,
    parse_window,
    partitions,
    shift,
    window_diagonals,
)
from ambc.cli import compact_json, format_ints, parse_ints, read_json

from conftest import longest_finite


@st.composite
def affine_perms(draw, max_n=7, spread=3):
    n = draw(st.integers(1, max_n))
    base = draw(st.permutations(list(range(1, n + 1))))
    offs = draw(st.lists(st.integers(-spread, spread), min_size=n, max_size=n))
    return AffinePerm(n, tuple(v + n * k for v, k in zip(base, offs)))


class TestWindowBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            AffinePerm(3, (1, 4, 3))  # 1 and 4 clash mod 3
        with pytest.raises(ValueError):
            AffinePerm(3, (1, 2))
        with pytest.raises(ValueError):
            AffinePerm(3, (1, 2, None))
        PartialPerm(3, (1, 2, None))

    def test_evaluation_periodicity(self):
        w = AffinePerm(3, (5, -2, 3))
        assert w(1) == 5 and w(4) == 8 and w(-2) == 2
        w = PartialPerm(3, (5, None, 1))
        assert w(1) == 5 and w(2) is None and w(4) == 8 and w(-2) == 2

    def test_parse_format_roundtrip(self):
        for text in ["[3,7,14,2,18,4,19,8,6]", "[-1,3,10,-5,14,-3,18,7,2]", "[_,5,1]"]:
            w = parse_window(text)
            assert format_window(w) == text
            assert parse_window(format_window(w)) == w

    def test_parse_accepts_empty_set_sign(self):
        assert parse_window("[∅,5,1]") == parse_window("[_,5,1]")

    def test_parse_rejects_garbage(self):
        for text in ["", "[]", "1,2,3", "[1,x]", "[1,1,2]"]:
            with pytest.raises(ValueError):
                parse_window(text)
        # only "_" and "∅" are holes
        for text in ["[1,,2]", "[,]", "[1, ,2]"]:
            with pytest.raises(ValueError, match="bad window entry ''"):
                parse_window(text)


class TestGroupLaws:
    def test_compose_golden(self):
        w = parse_window("[-1,3,10,-5,14,-3,18,7,2]")
        assert compose(shift(9), w) == parse_window("[0,4,11,-4,15,-2,19,8,3]")

    def test_shift_inverse_pair(self):
        for n in (1, 2, 5):
            assert compose(shift(n), shift(n, -1)) == identity(n)
            assert inverse(shift(n)).window == tuple(range(0, n))

    def test_identity_neutral(self):
        assert compose(shift(9), identity(9)).window == tuple(range(2, 11))

    def test_period_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))

    @settings(max_examples=60, deadline=None)
    @given(affine_perms(), affine_perms(), affine_perms())
    def test_associativity(self, u, v, w):
        n = max(u.n, v.n, w.n)
        u, v, w = (AffinePerm(n, tuple(range(1, n + 1))) if x.n != n else x for x in (u, v, w))
        assert compose(compose(u, v), w) == compose(u, compose(v, w))

    @settings(max_examples=60, deadline=None)
    @given(affine_perms())
    def test_inverse_involution(self, w):
        assert inverse(inverse(w)) == w
        assert compose(w, inverse(w)) == identity(w.n)

    def test_inverse_golden(self, golden9):
        w = AffinePerm(9, golden9["w"])
        assert compose(w, inverse(w)) == identity(9)


class TestDescents:
    def test_identity_no_descents(self):
        assert descents(identity(6)) == (frozenset(), frozenset())

    def test_longest_parabolic_descents(self):
        # right descents of the block-reversal element avoid the column sums
        lam, n = (4, 3, 1), 8
        w = longest_parabolic(lam, n)
        conj = conjugate_partition(lam)
        sums = set()
        acc = 0
        for c in conj:
            acc += c
            sums.add(acc)
        expected = frozenset(set(range(1, n + 1)) - sums)
        left, right = descents(w)
        assert right == expected and left == expected

    def test_descents_match_window(self):
        w = parse_window("[3,7,14,2,18,4,19,8,6]")
        assert descents_right(w) == frozenset({3, 5, 7, 8})


class TestParabolic:
    def test_extremes(self):
        assert longest_parabolic((5,), 5) == identity(5)
        assert longest_parabolic((1, 1, 1, 1), 4) == longest_finite(4)

    def test_small(self):
        assert longest_parabolic((2, 1), 3).window == (2, 1, 3)

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            longest_parabolic((2, 1), 4)
        with pytest.raises(ValueError):
            longest_parabolic((1, 2), 3)


class TestBallBookkeeping:
    def test_block_coordinates(self):
        assert block_coordinate((1, 1), 9) == (0, 0)
        assert block_coordinate((0, 0), 9) == (-1, -1)
        assert block_coordinate((10, 46), 15) == (0, 3)
        assert block_diagonal((1, 1), 9) == 0
        assert block_diagonal((10, 46), 15) == 3

    def test_from_dominant_weight(self):
        assert from_dominant_weight((0, 0, 0)) == identity(3)
        assert from_dominant_weight((5, 1, 1, 1, -2, -2, -2)) == parse_window(
            "[36,9,10,11,-9,-8,-7]"
        )
        assert from_dominant_weight((5, 2, 1, 0, -1, -2, -5)) == parse_window(
            "[36,16,10,4,-2,-8,-28]"
        )
        for bad in [(), (0, 1), (True, 0)]:
            with pytest.raises(ValueError):
                from_dominant_weight(bad)

    def test_weight_recovered_from_diagonals(self):
        mu = (4, 2, 2, 0, -1, -3)
        assert window_diagonals(from_dominant_weight(mu)) == mu


class TestDoubleCosets:
    def test_golden(self):
        w = parse_window("[36,9,10,11,-9,-8,-7]")
        assert min_double_coset_rep(w) == parse_window("[-9,-8,-7,9,10,11,36]")

    def test_fixed_points(self):
        assert min_double_coset_rep(identity(4)) == identity(4)
        w = parse_window("[-28,-8,-2,4,10,16,36]")
        assert min_double_coset_rep(w) == w

    def test_idempotent_and_coset_constant(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 5)
            base = list(range(1, n + 1))
            rng.shuffle(base)
            w = AffinePerm(n, tuple(v + n * rng.randint(-2, 2) for v in base))
            rep = min_double_coset_rep(w)
            assert min_double_coset_rep(rep) == rep
            # multiply by random finite permutations on both sides
            for _ in range(5):
                sl = list(range(1, n + 1))
                sr = list(range(1, n + 1))
                rng.shuffle(sl)
                rng.shuffle(sr)
                u = compose(compose(AffinePerm(n, tuple(sl)), w), AffinePerm(n, tuple(sr)))
                assert min_double_coset_rep(u) == rep

    def test_both_windows_sorted(self):
        w = min_double_coset_rep(parse_window("[4,1]"))
        assert list(w.window) == sorted(w.window)
        wi = inverse(w)
        assert list(wi.window) == sorted(wi.window)


class TestNonExtended:
    def test_basics(self):
        assert is_nonextended(identity(5))
        assert not is_nonextended(shift(5))
        assert is_nonextended(parse_window("[-1,3,10,-5,14,-3,18,7,2]"))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_closed_under_group_ops(self, data):
        n = data.draw(st.integers(1, 5))
        base = data.draw(st.permutations(list(range(1, n + 1))))
        offs = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        offs[-1] -= sum(offs)  # window offsets sum to zero
        w = AffinePerm(n, tuple(v + n * k for v, k in zip(base, offs)))
        assert is_nonextended(w)
        assert is_nonextended(inverse(w))
        assert is_nonextended(compose(w, w))


def test_partitions_enumeration():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert conjugate_partition((4, 3, 1)) == (3, 2, 2, 1)


class TestTextHelpers:
    def test_ints(self):
        assert parse_ints("2,−1,0", "weight") == (2, -1, 0)
        assert format_ints((2, -1, 0)) == "2,-1,0"
        with pytest.raises(ValueError, match="bad weight '2,,1'"):
            parse_ints("2,,1", "weight")
        assert parse_int(" −12 ", "entry") == -12
        with pytest.raises(ValueError, match="bad entry '1+'"):
            parse_int("1" * 5000, "entry")  # more digits than int() converts

    def test_json(self):
        assert compact_json({"a": [1, 2]}) == '{"a":[1,2]}'
        assert read_json('{"b": 1, "a": 2}', "thing", ("a", "b")) == {"a": 2, "b": 1}
        with pytest.raises(ValueError, match="bad thing text"):
            read_json("{", "thing")
        with pytest.raises(ValueError, match='thing must be an object with keys "a", "b"'):
            read_json('{"a": 1}', "thing", ("a", "b"))

    def test_total_window(self):
        assert parse_window("[2,1]", total=True) == AffinePerm(2, (2, 1))
        with pytest.raises(ValueError, match="window has holes: '\\[_,1\\]'"):
            parse_window("[_,1]", total=True)
