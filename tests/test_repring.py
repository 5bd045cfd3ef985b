import itertools
import random

import pytest

from ambc import repring
from ambc.affine import InvariantError, format_ints
from ambc.oracles import brute_schur_product, lr_by_tableaux
from ambc.repring import (
    FWeight,
    _lr_product,
    dim_f,
    dim_gl,
    fweight_from_rows,
    is_determinantal,
    parse_fweight,
    parse_gl_weight,
    tensor_f,
    tensor_gl,
)
from ambc.tabloids import delta_vec, enumerate_tabloids, equal_part_runs
from conftest import format_fweight, zero_fweight


def random_weight(rng, m, lo=-3, hi=3):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(m)), reverse=True))


def all_weights(m, lo, hi):
    """Every weakly decreasing vector of length m with entries in [lo, hi]."""
    return list(itertools.combinations_with_replacement(range(hi, lo - 1, -1), m))


def lr_reference(mu, nu, m):
    """``lr_by_tableaux`` with its shapes zero-padded to m rows, as
    ``_lr_product`` gives them."""
    return {k + (0,) * (m - len(k)): c for k, c in lr_by_tableaux(mu, nu, m).items()}


def gl_reference(mu, nu):
    """``lr_reference`` on the weights lowered to last part 0, its shapes
    raised back by both last parts."""
    low = mu[-1] + nu[-1]
    lowered = (tuple(x - w[-1] for x in w) for w in (mu, nu))
    return {tuple(x + low for x in k): c for k, c in lr_reference(*lowered, len(mu)).items()}


class TestTensorGL:
    def test_worked_example(self):
        dec = tensor_gl((2, 1, 0), (2, 0, 0))
        assert dec == {(4, 1, 0): 1, (3, 2, 0): 1, (3, 1, 1): 1, (2, 2, 1): 1}

    def test_trivial_factor(self):
        assert tensor_gl((3, 1, -2), (0, 0, 0)) == {(3, 1, -2): 1}

    def test_rank_two(self):
        assert tensor_gl((1, 0), (1, 0)) == {(2, 0): 1, (1, 1): 1}

    def test_coefficient_above_one(self):
        dec = tensor_gl((2, 1, 0), (2, 1, 0))
        assert dec == {
            (4, 2, 0): 1, (4, 1, 1): 1, (3, 3, 0): 1, (3, 2, 1): 2, (2, 2, 2): 1,
        }

    def test_negative_weights(self):
        dec = tensor_gl((0, -1), (1, 0))
        assert dec == {(1, -1): 1, (0, 0): 1}

    def test_commutative(self):
        rng = random.Random(1)
        for _ in range(40):
            m = rng.randint(1, 4)
            mu, nu = random_weight(rng, m), random_weight(rng, m)
            assert tensor_gl(mu, nu) == tensor_gl(nu, mu)

    def test_associative(self):
        rng = random.Random(2)
        for _ in range(12):
            m = rng.randint(1, 3)
            mu, nu, ka = (random_weight(rng, m, -2, 2) for _ in range(3))
            lhs = {}
            for w, c in tensor_gl(mu, nu).items():
                for w2, c2 in tensor_gl(w, ka).items():
                    lhs[w2] = lhs.get(w2, 0) + c * c2
            rhs = {}
            for w, c in tensor_gl(nu, ka).items():
                for w2, c2 in tensor_gl(mu, w).items():
                    rhs[w2] = rhs.get(w2, 0) + c * c2
            assert lhs == rhs

    def test_dimension_conservation(self):
        rng = random.Random(3)
        for _ in range(120):
            m = rng.randint(1, 4)
            mu, nu = random_weight(rng, m), random_weight(rng, m)
            dec = tensor_gl(mu, nu)
            assert sum(c * dim_gl(w) for w, c in dec.items()) == dim_gl(mu) * dim_gl(nu)

    def test_determinant_twist(self):
        rng = random.Random(4)
        for _ in range(30):
            m = rng.randint(1, 4)
            mu = random_weight(rng, m)
            c = rng.randint(-2, 2)
            det = (c,) * m
            dec = tensor_gl(mu, det)
            assert dec == {tuple(x + c for x in mu): 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            tensor_gl((0, 1), (0, 0))
        with pytest.raises(ValueError):
            tensor_gl((1, 0), (1, 0, 0))


class TestLRReference:
    """The horizontal-strip pass against the per-shape tableau count and
    against raw polynomial arithmetic."""

    def test_all_small_weights(self):
        count = 0
        for m in range(1, 4):
            for mu, nu in itertools.product(all_weights(m, -3, 3), repeat=2):
                mu_p = tuple(x - mu[-1] for x in mu)
                nu_p = tuple(x - nu[-1] for x in nu)
                assert _lr_product(mu_p, nu_p) == lr_reference(mu_p, nu_p, m), (mu, nu)
                count += 1
        assert count == 7889

    def test_seeded_partitions(self):
        rng = random.Random(6)
        for _ in range(300):
            m = rng.randint(4, 6)
            mu, nu = (tuple(sorted((rng.randint(0, 5) for _ in range(m)), reverse=True)) for _ in range(2))
            assert _lr_product(mu, nu) == lr_reference(mu, nu, m), (mu, nu)

    def test_matches_brute_schur_product(self):
        count = 0
        for m in range(1, 4):
            for mu, nu in itertools.product(all_weights(m, -2, 2), repeat=2):
                assert tensor_gl(mu, nu) == brute_schur_product(mu, nu, m), (mu, nu)
                count += 1
        assert count == 1475

    def test_all_weights_rank_four(self):
        # positive last parts, factors with equal box counts and factors the
        # kernel swaps, none of which the partition boxes above reach often
        count = 0
        for mu, nu in itertools.product(all_weights(4, -2, 2), repeat=2):
            assert tensor_gl(mu, nu) == gl_reference(mu, nu), (mu, nu)
            count += 1
        assert count == 4900

    def test_seeded_long_blocks(self):
        rng = random.Random(7)
        for _ in range(40):
            lengths = [rng.randint(5, 7) for _ in range(rng.randint(1, 2))]
            lam = tuple(part for i, b in enumerate(lengths) for part in (len(lengths) - i,) * b)
            r1, r2 = (FWeight(lam, tuple(random_weight(rng, b, -1, 2) for b in lengths)) for _ in range(2))
            expected = {(): 1}
            for b1, b2 in zip(r1.blocks, r2.blocks):
                expected = {
                    blocks + (w,): c * mult
                    for blocks, c in expected.items()
                    for w, mult in gl_reference(b1, b2).items()
                }
            assert tensor_f(r1, r2) == {FWeight(lam, blocks): c for blocks, c in expected.items()}, (r1, r2)


class TestDimensions:
    def test_known_values(self):
        assert dim_gl((0, 0, 0)) == 1
        assert dim_gl((1, 0, 0)) == 3
        assert dim_gl((2, 1, 0)) == 8
        assert dim_gl((1, 1, 0)) == 3
        assert dim_gl((5,)) == 1

    def test_det_twist_invariance(self):
        assert dim_gl((3, 1, -2)) == dim_gl((5, 3, 0))


class TestFWeight:
    def test_roundtrip(self):
        fw = FWeight((3, 3, 1), ((1, -2), (3,)))
        assert fw.flatten() == (1, -2, 3)
        assert fweight_from_rows((3, 3, 1), (1, -2, 3)) == fw
        assert fw.block_of_part(3) == (1, -2)
        assert fw.block_of_part(1) == (3,)

    def test_validation(self):
        with pytest.raises(ValueError):
            FWeight((3, 3, 1), ((1, 2), (3,)))  # block not weakly decreasing
        with pytest.raises(ValueError):
            FWeight((3, 3, 1), ((1,), (3,)))  # block size mismatch
        with pytest.raises(ValueError):
            fweight_from_rows((2, 2), (0, 1))
        with pytest.raises(ValueError, match="not a partition"):
            fweight_from_rows((1, 2), (0, 0))

    def test_zero(self):
        assert zero_fweight((2, 2, 1)).flatten() == (0, 0, 0)
        for bad in [(), (1, 2), (2, 0)]:
            with pytest.raises(ValueError, match="not a partition"):
                zero_fweight(bad)

    def test_text_roundtrip(self):
        fw = FWeight((2, 2, 1, 1, 1), ((0, 0), (1, 0, -1)))
        text = format_fweight(fw)
        assert parse_fweight(text) == fw
        with pytest.raises(ValueError):
            parse_fweight("[1,2]")


class TestTensorF:
    def test_single_block_matches_gl(self):
        r1 = fweight_from_rows((3, 3, 3), (2, 1, 0))
        r2 = fweight_from_rows((3, 3, 3), (2, 0, 0))
        dec = tensor_f(r1, r2)
        expected = {
            fweight_from_rows((3, 3, 3), w): c for w, c in tensor_gl((2, 1, 0), (2, 0, 0)).items()
        }
        assert dec == expected

    def test_trivial_block_passthrough(self):
        r1 = FWeight((2, 1, 1), ((3,), (1, 0)))
        r2 = FWeight((2, 1, 1), ((0,), (0, 0)))
        assert tensor_f(r1, r2) == {r1: 1}

    def test_dimension_conservation(self):
        rng = random.Random(5)
        shapes = [(2, 2, 1), (3, 1, 1), (2, 2, 2, 1), (4, 4, 2)]
        for _ in range(25):
            lam = rng.choice(shapes)

            def rand_fw():
                blocks = []
                for a, b in equal_part_runs(lam):
                    blocks.append(random_weight(rng, b - a, -2, 2))
                return FWeight(lam, tuple(blocks))

            r1, r2 = rand_fw(), rand_fw()
            dec = tensor_f(r1, r2)
            assert sum(c * dim_f(w) for w, c in dec.items()) == dim_f(r1) * dim_f(r2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tensor_f(zero_fweight((2, 1)), zero_fweight((3,)))

    def test_non_dominant_factor_names_blocks(self, monkeypatch):
        monkeypatch.setattr(repring, "_lr_product", lambda mu, nu: {(0, 1): 1})
        r1 = FWeight((2, 2, 1), ((1, 0), (2,)))
        r2 = FWeight((2, 2, 1), ((0, -3), (-1,)))
        msg = r"tensor product of \(1, 0\) and \(0, -3\) gave the non-dominant weight \(0, 1\)"
        with pytest.raises(InvariantError, match=msg):
            tensor_f(r1, r2)


class TestDeterminantal:
    def test_basics(self):
        assert is_determinantal((2, 2, 1), (0, 0, 0))
        assert is_determinantal((2, 2, 1), (3, 3, 7))
        assert not is_determinantal((2, 2, 1), (3, 2, 7))

    def test_delta_vectors_are_determinantal(self):
        for lam in [(2, 2, 1), (3, 1, 1), (2, 2, 2)]:
            for t in enumerate_tabloids(lam):
                n = sum(lam)
                assert is_determinantal(lam, delta_vec(t, 1))
                assert is_determinantal(lam, delta_vec(t, n))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_determinantal((2, 1), (0, 0, 0))


class TestWeightText:
    def test_roundtrip(self):
        for text in ["2,1,0", "0", "-3,-3", "5,1,1,1,-2,-2,-2"]:
            assert format_ints(parse_gl_weight(text)) == text
        with pytest.raises(ValueError):
            parse_gl_weight("1,2")
        with pytest.raises(ValueError):
            parse_gl_weight("a,b")
