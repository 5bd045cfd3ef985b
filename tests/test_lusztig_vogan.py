import itertools
import random

import pytest

from ambc.affine import (
    AffinePerm,
    InvariantError,
    from_dominant_weight,
    min_double_coset_rep,
    parse_window,
    partitions,
    window_diagonals,
)
from ambc.lusztig_vogan import (
    LVPair,
    lv_window,
    mu_lambda,
    mu_lambda_zero,
    theta1,
    theta1_inverse,
    w_tableau,
    w_tableau_zero,
)
from ambc import lusztig_vogan, tabloids
from ambc.cells import upsilon
from ambc.cli import format_lv_pair
from ambc.repring import FWeight, fweight_from_rows
from ambc.tabloids import equal_part_runs
from conftest import parse_lv_pair, rho_lambda, zero_fweight, zero_pair


def theta1_reference(mu):
    """theta1 without its memo: the forward image of the minimal
    double-coset representative, read as a pair."""
    p, _, weight = upsilon(min_double_coset_rep(from_dominant_weight(mu)))
    return LVPair(p.shape(), weight)


class TestWorkedExamples:
    def test_forward_n7(self):
        pair = theta1((5, 1, 1, 1, -2, -2, -2))
        assert pair.shape == (3, 3, 1)
        assert pair.weight == fweight_from_rows((3, 3, 1), (1, -2, 3))

    def test_inverse_n7(self):
        lam = (2, 2, 1, 1, 1)
        weight = fweight_from_rows(lam, (0, 0, 1, 0, -1))
        assert theta1_inverse(lam, weight) == (5, 2, 1, 0, -1, -2, -5)
        assert lv_window(lam, weight) == parse_window("[-28,-8,-2,4,10,16,36]")

    def test_zero_weight(self):
        for n in (1, 4, 6):
            assert theta1((0,) * n) == LVPair((n,), FWeight((n,), ((0,),)))

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="not weakly decreasing"):
            theta1((0, 1))
        with pytest.raises(ValueError, match=r"weight shape \(2, 1\) != \(3,\)"):
            theta1_inverse((3,), zero_fweight((2, 1)))
        with pytest.raises(ValueError, match="not a partition"):
            theta1_inverse((1, 2), zero_fweight((2, 1)))

    def test_single_row_shift(self):
        # for the one-row shape the window is a shift power, so the weight
        # collects s+1..s+n block indices
        for n, s in [(4, 2), (3, 7), (5, 0)]:
            mu = theta1_inverse((n,), FWeight((n,), ((s,),)))
            q, r = divmod(s, n)
            expected = tuple(sorted([q + 1] * r + [q] * (n - r), reverse=True))
            assert mu == expected


class TestTableaux:
    def test_balanced_goldens(self):
        assert w_tableau_zero((3, 3, 2, 2, 1)) == (
            (4, 3, 1),
            (2, 1, -1),
            (0, -1),
            (-2, -3),
            (-4,),
        )
        assert w_tableau((3, 3, 2, 2, 1), 2, 5)[0] == (6, 6, 1)
        assert w_tableau((3, 3, 2, 2, 1), 2, 5)[1:] == w_tableau_zero((3, 3, 2, 2, 1))[1:]

    def test_mu_goldens(self):
        assert mu_lambda_zero((3, 3, 2, 2, 1)) == (4, 3, 2, 1, 1, 0, -1, -1, -2, -3, -4)
        assert mu_lambda((3, 3, 2, 2, 1), 2, 5) == (6, 6, 2, 1, 1, 0, -1, -1, -2, -3, -4)
        assert mu_lambda((3, 3, 1), 3, 2) == (2, 2, 2, 0, -1, -1, -2)

    def test_zero_weight_degenerate(self):
        for lam in [(3, 3, 1), (2, 2), (4, 1)]:
            for r in sorted(set(lam)):
                assert w_tableau(lam, r, 0) == w_tableau_zero(lam)

    def test_water_fill_matches_brute_force(self):
        # minimal sum of squares among weakly decreasing top-ups
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(2, 7)
            lam = rng.choice(list(partitions(n)))
            r = rng.choice(sorted(set(lam)))
            s = rng.randint(1, 6)
            got = w_tableau(lam, r, s)[0][:r]
            a = w_tableau_zero(lam)[0][:r]
            best = None
            for extra in itertools.product(range(s + 1), repeat=r):
                if sum(extra) != s:
                    continue
                b = tuple(x + e for x, e in zip(a, extra))
                if any(b[i] < b[i + 1] for i in range(r - 1)):
                    continue
                key = sum(x * x for x in b)
                if best is None or key < best[0]:
                    best = (key, b)
            assert got == best[1]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            w_tableau((3, 3, 1), 2, 1)  # 2 is not a part
        with pytest.raises(ValueError):
            w_tableau((3, 3, 1), 3, -1)
        with pytest.raises(ValueError, match="not a partition"):
            w_tableau((1, 3), 3, 1)


class TestGeneratorWeights:
    def test_rho_lambda_layout(self):
        fw = rho_lambda((3, 3, 1), 3, 2)
        assert fw.blocks == ((2, 0), (0,))
        fw = rho_lambda((3, 3, 1), 1, 4)
        assert fw.blocks == ((0, 0), (4,))
        with pytest.raises(ValueError):
            rho_lambda((3, 3, 1), 2, 1)
        with pytest.raises(ValueError, match="not a partition"):
            rho_lambda((1, 3), 3, 1)

    def test_worked_cross_checks(self):
        for lam, r, s in [((3, 3, 1), 3, 2), ((4, 4, 2), 4, 3), ((3, 3, 2, 2, 1), 2, 5)]:
            assert theta1(mu_lambda(lam, r, s)) == LVPair(lam, rho_lambda(lam, r, s))
            assert theta1(mu_lambda_zero(lam)) == zero_pair(lam)


class TestBijection:
    def test_round_trip_box(self):
        for n in (1, 2, 3, 4, 5):
            for mu in itertools.combinations_with_replacement(range(2, -3, -1), n):
                pair = theta1(mu)
                assert theta1_inverse(pair.shape, pair.weight) == mu

    def test_round_trip_random_weights(self):
        rng = random.Random(18)
        for _ in range(40):
            n = rng.randint(2, 8)
            lam = rng.choice(list(partitions(n)))
            blocks = []
            for a, b in equal_part_runs(lam):
                blocks.append(tuple(sorted((rng.randint(-3, 3) for _ in range(b - a)), reverse=True)))
            weight = FWeight(lam, tuple(blocks))
            mu = theta1_inverse(lam, weight)
            assert theta1(mu) == LVPair(lam, weight)

    def test_block_diagonal_criterion(self):
        # the window of the pair reads the weight off its ball diagonals
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(2, 7)
            lam = rng.choice(list(partitions(n)))
            blocks = tuple(
                tuple(sorted((rng.randint(-2, 2) for _ in range(b - a)), reverse=True))
                for a, b in equal_part_runs(lam)
            )
            weight = FWeight(lam, blocks)
            w = lv_window(lam, weight)
            mu = theta1_inverse(lam, weight)
            assert window_diagonals(w) == mu
            assert min_double_coset_rep(from_dominant_weight(mu)) == w

    def test_det_shift_equivariance(self):
        rng = random.Random(20)
        for _ in range(25):
            n = rng.randint(2, 6)
            mu = tuple(sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True))
            c = rng.randint(-2, 2)
            base = theta1(mu)
            shifted = theta1(tuple(x + c for x in mu))
            assert shifted == theta1_reference(tuple(x + c for x in mu))
            assert shifted.shape == base.shape
            expected = tuple(
                tuple(x + c * part for x in block)
                for part, block in zip(
                    (base.shape[a] for a, _ in equal_part_runs(base.shape)), base.weight.blocks
                )
            )
            assert shifted.weight.blocks == expected

    def test_inverse_checks_the_shape_once(self, monkeypatch):
        calls = []
        for module in (lusztig_vogan, tabloids):
            def counted(lam, n=None, real=module.check_partition):
                calls.append(lam)
                return real(lam, n)

            monkeypatch.setattr(module, "check_partition", counted)
        weight = FWeight((2, 2, 1, 1, 1), ((0, 0), (1, 0, -1)))
        assert theta1_inverse((2, 2, 1, 1, 1), weight) == (5, 2, 1, 0, -1, -2, -5)
        assert calls == [(2, 2, 1, 1, 1)]

    def test_representative_outside_the_canonical_cell(self, monkeypatch):
        # theta1's internal check: a representative whose tabloids are not the
        # canonical pair of its shape is a corrupt state, not a bad input; an
        # earlier entry for (0, 0, 0) would answer without reaching the seam
        lusztig_vogan._theta_lowered.cache_clear()
        monkeypatch.setattr(lusztig_vogan, "min_double_coset_rep", lambda w: AffinePerm(3, (2, 1, 3)))
        msg = (
            r"double-coset representative escaped the canonical cell: \(\(1, 3\), \(2,\)\) vs \(\(2, 3\), \(1,\)\)"
            r", computing theta1 of the lowered weight \(0, 0, 0\)"
        )
        with pytest.raises(InvariantError, match=msg):
            theta1((1, 1, 1))


class TestThetaMemo:
    """theta1 reads one memo keyed on the weight lowered to last part 0."""

    def test_cold_memo_matches_reference_on_the_box(self):
        lusztig_vogan._theta_lowered.cache_clear()
        for m in range(1, 6):
            for mu in itertools.combinations_with_replacement(range(3, -4, -1), m):
                assert theta1(mu) == theta1_reference(mu), mu
        info = lusztig_vogan._theta_lowered.cache_info()
        assert info.hits > 0 and info.misses > 0

    def test_cold_memo_matches_reference_on_seeded_weights(self):
        lusztig_vogan._theta_lowered.cache_clear()
        rng = random.Random(30)
        for _ in range(300):
            m = rng.randint(1, 9)
            mu = tuple(sorted((rng.randint(-9, 9) for _ in range(m)), reverse=True))
            assert theta1(mu) == theta1_reference(mu), mu

    def test_one_entry_per_twist_class(self):
        lusztig_vogan._theta_lowered.cache_clear()
        for c in range(-3, 4):
            theta1((2 + c, 1 + c, c))
        info = lusztig_vogan._theta_lowered.cache_info()
        assert (info.misses, info.hits, info.currsize, info.maxsize) == (1, 6, 1, 4096)

    def test_raising_fill_stores_nothing(self, monkeypatch):
        lusztig_vogan._theta_lowered.cache_clear()
        monkeypatch.setattr(lusztig_vogan, "min_double_coset_rep", lambda w: AffinePerm(3, (2, 1, 3)))
        with pytest.raises(InvariantError, match="escaped the canonical cell"):
            theta1((0, 0, 0))
        assert lusztig_vogan._theta_lowered.cache_info().currsize == 0
        monkeypatch.undo()
        assert theta1((0, 0, 0)) == LVPair((3,), FWeight((3,), ((0,),)))
        assert lusztig_vogan._theta_lowered.cache_info().currsize == 1

    def test_bad_input_reaches_no_fill(self):
        lusztig_vogan._theta_lowered.cache_clear()
        with pytest.raises(ValueError, match="not weakly decreasing"):
            theta1((0, 1))
        with pytest.raises(ValueError, match="must be integers"):
            theta1((1.5, 0))
        assert lusztig_vogan._theta_lowered.cache_info().misses == 0


class TestWChannels:
    @staticmethod
    def w_channels(tab):
        """Subsets picking one box per column, contents in {k, k+1}, boxes
        weakly rising to the right."""
        cols = len(tab[0])
        heights = [sum(1 for row in tab if len(row) > j) for j in range(cols)]
        out = []
        values = {v for row in tab for v in row}
        for k in sorted(values):
            for pick in itertools.product(*(range(h) for h in heights)):
                if any(pick[j + 1] > pick[j] for j in range(cols - 1)):
                    continue
                contents = [tab[pick[j]][j] for j in range(cols)]
                if all(c in (k, k + 1) for c in contents) and k in contents:
                    out.append(tuple((pick[j], j) for j in range(cols)))
        return sorted(set(out))

    def test_printed_channels(self):
        tab = w_tableau((4, 3, 2, 2, 1), 4, 0)
        chans = self.w_channels(tab)
        contents_one = ((2, 0), (1, 1), (0, 2), (0, 3))  # entries {0, 1}
        contents_zero = ((2, 0), (2, 1), (1, 2), (0, 3))  # entries {-1, 0}
        assert set(chans) == {contents_one, contents_zero}

    def test_channel_count_bound(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 8)
            lams = [l for l in partitions(n) if len(l) == 1 or l[0] > l[1]]
            lam = rng.choice(lams)
            s = rng.randint(0, 6)
            tab = w_tableau(lam, lam[0], s)
            assert 1 <= len(self.w_channels(tab)) <= 2


class TestLVPairFormat:
    def test_roundtrip(self):
        pair = LVPair((3, 3, 1), fweight_from_rows((3, 3, 1), (1, -2, 3)))
        text = format_lv_pair(pair)
        assert text == '{"shape":[3,3,1],"weight_blocks":[[1,-2],[3]]}'
        assert parse_lv_pair(text) == pair

    def test_validation(self):
        with pytest.raises(ValueError):
            LVPair((3, 1), zero_fweight((2, 2)))
        with pytest.raises(ValueError):
            parse_lv_pair("{}")
