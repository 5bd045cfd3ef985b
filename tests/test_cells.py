import random

import pytest

from ambc import cells
from ambc.affine import (
    AffinePerm,
    InvariantError,
    descents_right,
    identity,
    inverse,
    longest_parabolic,
    parse_window,
    partitions,
    shift,
)
from ambc.cells import (
    CellLabel,
    cell_shape,
    distinguished_involutions,
    is_distinguished,
    left_cell,
    right_cell,
    star_left,
    star_right,
    star_tabloid,
    xi_epsilon,
)
from ambc.matrixball import _psi_rows, phi, psi
from ambc.oracles import epsilon_from_families
from ambc.tabloids import (
    anticanonical_tabloid,
    canonical_tabloid,
    count_tabloids,
    enumerate_tabloids,
    rev_lambda,
)

import conftest
from conftest import cell_label, conjugate_by_shift, dominant_diffs, finite_permutations, random_cell_element


class TestCellShape:
    def test_identity(self):
        assert cell_shape(identity(6)) == (6,)

    def test_parabolic_longest(self):
        for lam, n in [((2, 2, 1), 5), ((3, 1), 4), ((4, 3, 1), 8)]:
            assert cell_shape(longest_parabolic(lam, n)) == lam

    def test_min_coset_example(self):
        assert cell_shape(parse_window("[-9,-8,-7,9,10,11,36]")) == (3, 3, 1)

    def test_left_right_labels(self, golden9):
        w = AffinePerm(9, golden9["w"])
        assert left_cell(w) == golden9["q"]
        assert right_cell(w) == golden9["p"]
        lab = cell_label(w, "left")
        assert lab == CellLabel("left", (3, 3, 3), golden9["q"])
        assert cell_label(w, "two_sided") == CellLabel("two_sided", (3, 3, 3))
        assert cell_label(w, "right") == CellLabel("right", (3, 3, 3), golden9["p"])

    def test_bad_kind_before_phi(self, monkeypatch):
        # a bad kind is an input error even on a window phi cannot map
        def failing_phi(w):
            raise InvariantError(f"phi called on {w}")

        monkeypatch.setattr(conftest, "phi", failing_phi)
        with pytest.raises(InvariantError):
            cell_label(identity(3), "left")
        with pytest.raises(ValueError, match="bad cell kind 'bogus'"):
            cell_label(identity(3), "bogus")

    def test_celllabel_validation(self):
        with pytest.raises(ValueError):
            CellLabel("up", (2, 1))
        with pytest.raises(ValueError):
            CellLabel("two_sided", (2, 1), canonical_tabloid((2, 1)))
        with pytest.raises(ValueError):
            CellLabel("left", (3,), canonical_tabloid((2, 1)))


class TestStarOperations:
    def test_golden(self):
        w = parse_window("[-1,3,10,-5,14,-3,18,7,2]")
        ws = star_right(w, 9)
        assert ws == parse_window("[-7,3,10,-5,14,-3,18,7,8]")
        assert star_right(ws, 9) == w
        t = phi(ws)
        assert t.p.rows == ((2, 4, 6), (3, 7, 8), (1, 5, 9))
        assert t.q == star_tabloid(phi(w).q, 9)
        assert t.rho == (0, 0, 0)

    def test_identity_undefined(self):
        for i in range(1, 6):
            assert star_right(identity(5), i) is None
            assert star_left(identity(5), i) is None

    def test_small_period_undefined(self):
        assert star_right(shift(2), 1) is None

    def test_involution_where_defined(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(3, 7)
            lam = rng.choice(list(partitions(n)))
            w, _, _ = random_cell_element(rng, lam)
            for i in range(1, n + 1):
                ws = star_right(w, i)
                if ws is not None:
                    assert star_right(ws, i) == w
                sw = star_left(w, i)
                if sw is not None:
                    assert star_left(sw, i) == w

    def test_left_right_inverse_symmetry(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(3, 6)
            lam = rng.choice(list(partitions(n)))
            w, _, _ = random_cell_element(rng, lam)
            for i in range(1, n + 1):
                sw = star_left(w, i)
                ws = star_right(inverse(w), i)
                assert (sw is None) == (ws is None)
                if sw is not None:
                    assert sw == inverse(ws)

    def test_star_probe_stops_at_the_first_other_image(self, monkeypatch):
        # the first probe image of ((1, 3), (2,), (4,)) at residue 1 is not
        # the swap, so no later probe can make T* defined
        calls = []

        def counting_phi_win(win, n):
            calls.append(win)
            return phi_win(win, n)

        phi_win = cells._phi_win
        monkeypatch.setattr(cells, "_phi_win", counting_phi_win)
        assert cells._star_probe.__wrapped__(4, ((1, 3), (2,), (4,)), 1) is None
        assert len(calls) == 1


class TestDistinguished:
    def test_golden(self):
        assert is_distinguished(parse_window("[-3,5,3,7,2,10,4,8,9]"))

    def test_shift_not_distinguished(self):
        assert not is_distinguished(shift(5))

    def test_finite_involutions(self):
        # inside the finite symmetric group, distinguished = involution
        for n in (2, 3, 4):
            for w in finite_permutations(n):
                assert is_distinguished(w) == (inverse(w) == w)

    def test_enumeration_counts_and_involutivity(self):
        for n in range(1, 6):
            for lam in partitions(n):
                invs = distinguished_involutions(lam, n)
                assert len(invs) == count_tabloids(lam)
                assert len(set(invs)) == len(invs)
                for w in invs:
                    assert inverse(w) == w
                    assert is_distinguished(w)

    def test_rotation_matches_definition(self):
        # one psi per omega-orbit, the rest by conjugation: the same list as
        # psi(T, T, 0) over every tabloid, in order (the reference is psi's
        # row loop on the step memo, so lower rows run once)
        for n in range(1, 8):
            for lam in partitions(n):
                zero = (0,) * len(lam)
                expected = [AffinePerm(n, _psi_rows(t.rows, t.rows, zero, n)) for t in enumerate_tabloids(lam)]
                assert distinguished_involutions(lam, n) == expected

    def test_window_conjugation_matches_definition(self):
        rng = random.Random(24)
        for _ in range(500):
            n = rng.randint(1, 12)
            values = rng.sample(range(1, n + 1), n)
            w = AffinePerm(n, tuple(v + n * rng.randint(-3, 3) for v in values))
            assert cells._omega_window(w.window, n) == conjugate_by_shift(w).window

    def test_unclosed_orbit_names_input(self, monkeypatch):
        # a rotation that adds n to every value never closes an orbit of
        # length > 1: the first such orbit of shape (2, 1) is that of
        # ((1, 2), (3,))
        monkeypatch.setattr(cells, "_omega_window", lambda win, n: tuple(v + n for v in win))
        msg = r"n=3, shape=\(2, 1\), T=\(\(1, 2\), \(3,\)\)"
        with pytest.raises(InvariantError, match=msg):
            distinguished_involutions((2, 1), 3)

    def test_single_column_contains_longest(self):
        n = 4
        invs = distinguished_involutions((1,) * n, n)
        assert AffinePerm(n, tuple(range(n, 0, -1))) in invs

    def test_single_row_is_identity(self):
        assert distinguished_involutions((5,), 5) == [identity(5)]

    def test_closure_under_star_and_shift(self):
        # conjugating a distinguished involution by the shift, or applying a
        # two-sided star at one residue, stays distinguished
        rng = random.Random(9)
        for n in (3, 4, 5, 6):
            for lam in partitions(n):
                tabs = list(enumerate_tabloids(lam))
                sample = tabs if len(tabs) <= 8 else rng.sample(tabs, 8)
                for t in sample:
                    w = psi(t, t, (0,) * len(lam))
                    assert is_distinguished(conjugate_by_shift(w))
                    for i in range(1, n + 1):
                        ws = star_right(w, i)
                        if ws is None:
                            continue
                        both = star_left(ws, i)
                        if both is not None:
                            assert is_distinguished(both)


class TestCanonicalCellFacts:
    def test_right_descents_inside_n(self):
        # members of the canonical left cell keep right descents inside {n}
        rng = random.Random(10)
        for n in (3, 4, 5):
            for lam in partitions(n):
                can = canonical_tabloid(lam)
                tabs = list(enumerate_tabloids(lam))
                for _ in range(6):
                    w, _, _ = random_cell_element(rng, lam, tabs, None, can)
                    assert descents_right(w) <= {n}

    def test_left_cell_partition(self):
        # sharing a left cell label is sharing the Q-tabloid
        rng = random.Random(11)
        lam = (2, 1)
        tabs = list(enumerate_tabloids(lam))
        cells = {}
        for _ in range(30):
            w, _, q = random_cell_element(rng, lam, tabs)
            cells.setdefault(q, set()).add(w)
        for q, elems in cells.items():
            for w in elems:
                assert left_cell(w) == q


class TestXiEpsilon:
    def test_longest_parabolic_zero(self):
        for lam, n in [((2, 2, 1), 5), ((3, 3), 6), ((4, 1), 5)]:
            assert xi_epsilon(longest_parabolic(lam, n)) == (0,) * len(lam)

    def test_shift_powers(self):
        for n, d in [(4, 3), (5, -2), (3, 0)]:
            assert xi_epsilon(shift(n, d)) == (d,)

    def test_rejects_off_diagonal(self, golden9):
        with pytest.raises(ValueError):
            xi_epsilon(AffinePerm(9, golden9["w"]))

    def test_matches_stream_families(self):
        rng = random.Random(13)
        for n in (3, 4, 5, 6):
            for lam in partitions(n):
                anti = anticanonical_tabloid(lam)
                for diff in rng.sample(dominant_diffs(lam), min(4, len(dominant_diffs(lam)))):
                    w = psi(anti, anti, diff)
                    assert xi_epsilon(w) == rev_lambda(lam, diff)
                    assert epsilon_from_families(w) == xi_epsilon(w)
