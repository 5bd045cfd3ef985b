import json
import random
import time

import pytest

from ambc import jring, matrixball
from ambc.affine import (
    AffinePerm,
    InvariantError,
    compose,
    identity,
    inverse,
    parse_window,
    partitions,
    shift,
)
from ambc.cells import is_distinguished, star_right, upsilon, upsilon_inverse
from ambc.jring import (
    format_jelement,
    j_multiply,
    jelement_to_json,
    parse_jelement,
    pgl_member,
    sl_reduce,
    t_basis,
    t_multiply,
    unit,
)
from ambc.lusztig_vogan import theta1, theta1_inverse
from ambc.matrixball import phi, psi
from ambc.oracles import _random_affine_perm
from ambc.repring import fweight_from_rows, tensor_f
from ambc.tabloids import count_tabloids, enumerate_tabloids, equal_part_runs, offset_constants

from conftest import random_cell_element


W9 = "[-1,3,10,-5,14,-3,18,7,2]"
W9P = "[-6,2,-4,15,18,-2,8,22,10]"
PRODUCT_TERMS = [
    "[-7,3,-5,18,19,-3,7,23,8]",
    "[-7,7,-5,14,18,-3,8,19,12]",
    "[-5,3,-3,14,18,2,7,19,8]",
    "[-5,7,-3,10,14,2,8,18,12]",
]


class TestWorkedProduct:
    def test_four_terms(self):
        prod = t_multiply(parse_window(W9), parse_window(W9P))
        assert prod == {parse_window(t): 1 for t in PRODUCT_TERMS}

    def test_reversed_vanishes(self):
        assert t_multiply(parse_window(W9P), parse_window(W9)) == {}

    def test_first_term_triple(self):
        # the summand with normalized weight (0,1,4) sits at offsets (0,-1,-2)
        t = phi(parse_window(PRODUCT_TERMS[0]))
        assert t.rho == (0, 0, 2)
        assert offset_constants(t.p, t.q) == (0, -1, -2)


class TestUnits:
    def test_single_row(self):
        assert unit((4,), 4) == {identity(4): 1}

    def test_support_size(self):
        for lam, n in [((2, 1), 3), ((2, 2), 4), ((3, 1, 1), 5)]:
            assert len(unit(lam, n)) == count_tabloids(lam)

    def test_two_sided_identity(self):
        rng = random.Random(21)
        for lam, n in [((2, 1), 3), ((2, 2), 4), ((2, 1, 1), 4), ((3, 2), 5)]:
            u = unit(lam, n)
            for _ in range(4):
                w, _, _ = random_cell_element(rng, lam)
                assert j_multiply(u, t_basis(w)) == t_basis(w)
                assert j_multiply(t_basis(w), u) == t_basis(w)

    def test_distinguished_unit_entry(self, golden9):
        w = AffinePerm(9, golden9["w"])
        d = psi(golden9["p"], golden9["p"], (0, 0, 0))
        assert t_multiply(d, w) == {w: 1}


class TestBilinearity:
    def test_zero_factor(self, golden9):
        assert j_multiply({AffinePerm(9, golden9["w"]): 1}, {}) == {}

    def test_bilinear(self):
        rng = random.Random(22)
        for _ in range(10):
            n = rng.randint(3, 5)
            lam = rng.choice(list(partitions(n)))
            u, _, _ = random_cell_element(rng, lam)
            v, _, _ = random_cell_element(rng, lam)
            w, _, _ = random_cell_element(rng, lam)
            lhs = j_multiply({u: 1, v: 1}, t_basis(w))
            rhs = {}
            for part in (t_multiply(u, w), t_multiply(v, w)):
                for k, c in part.items():
                    rhs[k] = rhs.get(k, 0) + c
            assert lhs == {k: c for k, c in rhs.items() if c}

    def test_period_mismatch(self):
        with pytest.raises(ValueError):
            j_multiply(t_basis(identity(3)), t_basis(identity(4)))
        with pytest.raises(ValueError):
            t_multiply(identity(3), identity(4))


class TestStructure:
    def test_cross_cell_orthogonality(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(3, 5)
            lams = list(partitions(n))
            l1, l2 = rng.sample(lams, 2)
            u, _, _ = random_cell_element(rng, l1)
            v, _, _ = random_cell_element(rng, l2)
            assert t_multiply(u, v) == {}

    def test_column_row_mismatch_vanishes(self):
        rng = random.Random(24)
        for _ in range(15):
            n = rng.randint(3, 5)
            lam = rng.choice(list(partitions(n)))
            tabs = list(enumerate_tabloids(lam))
            u, _, q = random_cell_element(rng, lam, tabs)
            others = [t for t in tabs if t != q]
            if not others:
                continue
            v, _, _ = random_cell_element(rng, lam, tabs, rng.choice(others), None)
            assert t_multiply(u, v) == {}

    def test_associativity(self):
        rng = random.Random(25)
        for _ in range(25):
            n = rng.randint(3, 6)
            lam = rng.choice(list(partitions(n)))
            tabs = list(enumerate_tabloids(lam))
            p, q, r, s = (rng.choice(tabs) for _ in range(4))
            a, _, _ = random_cell_element(rng, lam, tabs, p, q)
            b, _, _ = random_cell_element(rng, lam, tabs, q, r)
            c, _, _ = random_cell_element(rng, lam, tabs, r, s)
            lhs = j_multiply(j_multiply(t_basis(a), t_basis(b)), t_basis(c))
            rhs = j_multiply(t_basis(a), j_multiply(t_basis(b), t_basis(c)))
            assert lhs == rhs

    def test_diagonal_commutativity(self):
        rng = random.Random(26)
        for _ in range(20):
            n = rng.randint(3, 6)
            lam = rng.choice(list(partitions(n)))
            tabs = list(enumerate_tabloids(lam))
            t = rng.choice(tabs)
            u, _, _ = random_cell_element(rng, lam, tabs, t, t)
            v, _, _ = random_cell_element(rng, lam, tabs, t, t)
            assert j_multiply(t_basis(u), t_basis(v)) == j_multiply(t_basis(v), t_basis(u))

    def test_omega_transport(self):
        rng = random.Random(27)
        for _ in range(15):
            n = rng.randint(3, 5)
            lam = rng.choice(list(partitions(n)))
            tabs = list(enumerate_tabloids(lam))
            q = rng.choice(tabs)
            u, _, _ = random_cell_element(rng, lam, tabs, None, q)
            v, _, _ = random_cell_element(rng, lam, tabs, q, None)
            i, j, k = (rng.randint(-2, 2) for _ in range(3))
            lhs = t_multiply(
                compose(compose(shift(n, i), u), shift(n, -j)),
                compose(compose(shift(n, j), v), shift(n, -k)),
            )
            rhs = {
                compose(compose(shift(n, i), w), shift(n, -k)): c
                for w, c in t_multiply(u, v).items()
            }
            assert lhs == rhs

    def test_star_transport(self):
        # multiplying by a starred right factor stars every summand

        rng = random.Random(28)
        done = 0
        while done < 12:
            n = rng.randint(3, 5)
            lam = rng.choice(list(partitions(n)))
            tabs = list(enumerate_tabloids(lam))
            q = rng.choice(tabs)
            u, _, _ = random_cell_element(rng, lam, tabs, None, q)
            v, _, _ = random_cell_element(rng, lam, tabs, q, None)
            prod = t_multiply(u, v)
            if not prod:
                continue
            for i in range(1, n + 1):
                vs = star_right(v, i)
                if vs is None:
                    continue
                starred = {}
                ok = True
                for w, c in prod.items():
                    wsi = star_right(w, i)
                    if wsi is None:
                        ok = False
                        break
                    starred[wsi] = c
                if ok:
                    assert t_multiply(u, vs) == starred
                    done += 1

    def test_determinantal_single_term(self):
        rng = random.Random(29)
        for n in (3, 4, 5):
            for lam in partitions(n):
                tabs = list(enumerate_tabloids(lam))
                for _ in range(4):
                    p, q, r = (rng.choice(tabs) for _ in range(3))
                    det = []
                    for a, b in equal_part_runs(lam):
                        det.extend([rng.randint(-2, 2)] * (b - a))
                    s_pq = offset_constants(p, q)
                    u = psi(p, q, tuple(d + c for d, c in zip(det, s_pq)))
                    v, _, _ = random_cell_element(rng, lam, tabs, q, r)
                    rho_v = tuple(x - c for x, c in zip(phi(v).rho, offset_constants(q, r)))
                    s_pr = offset_constants(p, r)
                    expected = psi(p, r, tuple(a + b + c for a, b, c in zip(s_pr, det, rho_v)))
                    assert t_multiply(u, v) == {expected: 1}


def random_products(seed: int, count: int, max_n: int = 5):
    """``count`` seeded composable pairs (x, y), Q(x) = P(y), with 2 <= n <= max_n."""
    rng = random.Random(seed)
    for _ in range(count):
        lam = rng.choice(list(partitions(rng.randint(2, max_n))))
        tabs = list(enumerate_tabloids(lam))
        q = rng.choice(tabs)
        x, _, _ = random_cell_element(rng, lam, tabs, None, q)
        y, _, _ = random_cell_element(rng, lam, tabs, q, None)
        yield x, y


def product_by_definition(u, v):
    """t_u * t_v through the public coordinates: upsilon of both factors,
    tensor_f of their weights, upsilon_inverse of every summand."""
    pu, qu, wu = upsilon(u)
    pv, qv, wv = upsilon(v)
    if qu != pv:
        return {}
    out = {}
    for weight, mult in tensor_f(wu, wv).items():
        w = upsilon_inverse(pu, qv, weight)
        out[w] = out.get(w, 0) + mult
    return out


class TestRowCores:
    # t_multiply and j_multiply run on the rows and weight blocks of the
    # coordinates; the public functions are the reference

    def test_product_matches_definition(self):
        negative = 0
        for u, v in random_products(40, 500, max_n=7):
            expected = product_by_definition(u, v)
            assert expected and t_multiply(u, v) == expected, (u, v)
            negative += any(x < 0 for x in upsilon(u)[2].flatten())
        assert negative > 100

    def test_sums_match_bilinear_extension(self):
        rng = random.Random(41)
        mismatched = 0
        for _ in range(40):
            n = rng.randint(2, 5)
            cells_n = list(partitions(n))
            pool = [random_cell_element(rng, rng.choice(cells_n))[0] for _ in range(6)]
            a = {rng.choice(pool): rng.randint(-2, 2) for _ in range(rng.randint(1, 4))}
            b = {rng.choice(pool): rng.randint(-2, 2) for _ in range(rng.randint(1, 4))}
            expected = {}
            for u, cu in a.items():
                for v, cv in b.items():
                    prod = t_multiply(u, v)
                    mismatched += not prod
                    for w, c in prod.items():
                        expected[w] = expected.get(w, 0) + cu * cv * c
            assert j_multiply(a, b) == {w: c for w, c in expected.items() if c}
        assert mismatched > 50

    def test_unit_product_maps_each_element_once(self, monkeypatch):
        calls = []
        real = matrixball._phi_win

        def counted(win, n):
            calls.append(win)
            return real(win, n)

        rng = random.Random(42)
        for lam, n in [((2, 1), 3), ((2, 2), 4), ((2, 1, 1), 4), ((3, 2), 5)]:
            u = unit(lam, n)
            w, _, _ = random_cell_element(rng, lam)
            monkeypatch.setattr(matrixball, "_phi_win", counted)
            calls.clear()
            assert j_multiply(u, t_basis(w)) == t_basis(w)
            assert len(calls) == len(u) + 1
            monkeypatch.undo()

    def test_postcondition_names_window(self, monkeypatch):
        # a non-dominant altitude vector: rho - s decreases in the first run
        real = matrixball._phi_win

        w = parse_window(W9)

        def broken(win, n):
            p, q, rho = real(win, n)
            return (p, q, (rho[0] + 10,) + rho[1:]) if win == w.window else (p, q, rho)

        monkeypatch.setattr(matrixball, "_phi_win", broken)
        msg = r"left the dominant image: n=9, window=\(-1, 3, 10, -5, 14, -3, 18, 7, 2\)"
        with pytest.raises(InvariantError, match=msg):
            t_multiply(w, parse_window(W9P))
        with pytest.raises(InvariantError, match=msg):
            j_multiply(t_basis(parse_window(W9P)), t_basis(w))
        with pytest.raises(InvariantError, match=msg):
            upsilon(w)
        with pytest.raises(InvariantError, match=msg):
            phi(w)


class TestFactorMemo:
    # j_multiply reads each factor's coordinates from a 4096-entry memo;
    # every test starts with it empty (conftest)

    def test_entries_equal_fresh_forward_map(self):
        rng = random.Random(43)
        for _ in range(60):
            lam = rng.choice(list(partitions(rng.randint(1, 7))))
            w, _, _ = random_cell_element(rng, lam)
            fresh = matrixball._forward(w)
            assert jring._coordinates(w) == fresh  # a miss
            assert jring._coordinates(w) == fresh  # a hit

    def test_composable_pool_maps_each_factor_once(self):
        rng = random.Random(44)
        lam = (3, 2)
        tabs = list(enumerate_tabloids(lam))
        q = tabs[0]
        left = [random_cell_element(rng, lam, tabs, p, q)[0] for p in tabs[1:7]]
        right = [random_cell_element(rng, lam, tabs, q, r)[0] for r in tabs[1:7]]
        for u in left:
            for v in right:
                assert t_multiply(u, v)
        info = jring._coordinates.cache_info()
        assert (info.misses, info.hits, info.currsize) == (12, 60, 12)

    def test_only_j_multiply_fills_it(self):
        rng = random.Random(45)
        w, _, _ = random_cell_element(rng, (3, 2, 2))
        t_multiply(w, w)
        size = jring._coordinates.cache_info().currsize
        coordinates = upsilon(w)
        assert upsilon_inverse(*coordinates) == w
        t = phi(w)
        assert psi(t.p, t.q, t.rho) == w
        pair = theta1((2, 1, 1, 0, -1))
        assert theta1_inverse(pair.shape, pair.weight) == (2, 1, 1, 0, -1)
        assert jring._coordinates.cache_info().currsize == size == 1

    def test_failure_is_not_kept(self, monkeypatch):
        real = matrixball._phi_win
        w = parse_window(W9)

        def broken(win, n):
            p, q, rho = real(win, n)
            return (p, q, (rho[0] + 10,) + rho[1:]) if win == w.window else (p, q, rho)

        monkeypatch.setattr(matrixball, "_phi_win", broken)
        msg = r"left the dominant image: n=9, window=\(-1, 3, 10, -5, 14, -3, 18, 7, 2\)"
        for _ in range(2):
            with pytest.raises(InvariantError, match=msg):
                t_multiply(w, parse_window(W9P))
        assert jring._coordinates.cache_info().currsize == 1
        monkeypatch.undo()
        assert t_multiply(w, parse_window(W9P)) == {parse_window(t): 1 for t in PRODUCT_TERMS}


class TestAntiInvolution:
    def test_inverse_reverses_products(self):
        # J is anti-involutive under w -> w^-1: t_u t_v = sum c_z t_z implies
        # t_{v^-1} t_{u^-1} = sum c_z t_{z^-1}; inverses come from windows
        for u, v in random_products(29, 500):
            expected = {inverse(z): c for z, c in t_multiply(u, v).items()}
            assert t_multiply(inverse(v), inverse(u)) == expected, (u, v)


class TestGroupLevelIdentities:
    # identities J satisfies for group-level reasons (Lusztig, Cells in affine
    # Weyl groups II); inverses come from windows, not through the forward map

    def test_cyclic_symmetry(self):
        # gamma_{x,y,z}, the coefficient of t_{z^-1} in t_x t_y, equals
        # gamma_{y,z,x}
        terms = 0
        for x, y in random_products(33, 400):
            for w, c in t_multiply(x, y).items():
                z = inverse(w)
                assert t_multiply(y, z).get(inverse(x), 0) == c, (x, y, z)
                terms += 1
        assert terms > 1000

    def test_one_distinguished_involution(self):
        # t_{x^-1} t_x holds exactly one distinguished involution d, the one
        # of the left cell of x, with coefficient gamma_{x^-1,x,d} = 1
        for x, _ in random_products(34, 400):
            prod = t_multiply(inverse(x), x)
            q = phi(x).q
            d = psi(q, q, (0,) * len(q.rows))
            assert [w for w in prod if is_distinguished(w)] == [d], x
            assert prod[d] == 1, x


class TestUpsilon:
    def test_worked_example(self):
        p, q, weight = upsilon(parse_window(W9))
        assert weight == fweight_from_rows((3, 3, 3), (2, 1, 0))
        p2, q2, weight2 = upsilon(parse_window(W9P))
        assert weight2 == fweight_from_rows((3, 3, 3), (2, 0, 0))
        assert q == p2

    def test_distinguished_diagonal_zero(self):
        t = next(enumerate_tabloids((2, 2, 1)))
        w = psi(t, t, (0, 0, 0))
        p, q, weight = upsilon(w)
        assert p == q == t and weight.flatten() == (0, 0, 0)

    def test_multiplicative(self):
        rng = random.Random(30)
        for _ in range(12):
            n = rng.randint(3, 5)
            lam = rng.choice(list(partitions(n)))
            tabs = list(enumerate_tabloids(lam))
            q = rng.choice(tabs)
            u, pu, _ = random_cell_element(rng, lam, tabs, None, q)
            v, _, rv = random_cell_element(rng, lam, tabs, q, None)
            _, _, wu = upsilon(u)
            _, _, wv = upsilon(v)
            matrix_side = tensor_f(wu, wv)
            ring_side = {}
            for w, c in t_multiply(u, v).items():
                pw, qw, ww = upsilon(w)
                assert (pw, qw) == (pu, rv)
                ring_side[ww] = ring_side.get(ww, 0) + c
            assert ring_side == matrix_side


class TestQuotients:
    def test_sl_reduce_shift_class(self):
        for n in (2, 3, 4):
            assert sl_reduce({shift(n, n): 1}) == {identity(n): 1}
            assert sl_reduce({shift(n, -n): 2}) == {identity(n): 2}

    def test_sl_reduce_idempotent(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(2, 5)
            lam = rng.choice(list(partitions(n)))
            w, _, _ = random_cell_element(rng, lam)
            red = sl_reduce(t_basis(w))
            assert sl_reduce(red) == red
            (rep,) = red
            assert 0 <= sum(phi(rep).rho) < n

    def test_sl_reduce_merges_classes(self):
        w = identity(3)
        assert sl_reduce({w: 1, shift(3, 3): -1}) == {}

    def test_pgl_member(self):
        assert pgl_member(parse_window(W9))
        assert not pgl_member(shift(9))

    def test_sl_reduce_matches_ambc_form(self):
        # the class representative is psi(P, Q, rho - k lambda) with
        # k = sum(rho) // n; each element holds a symbol, a central translate
        # of it (so their coefficients merge, and a quarter of the time
        # cancel) and one more symbol
        rng = random.Random(34)
        for _ in range(1000):
            n = rng.randint(1, 9)
            w = _random_affine_perm(rng, n, rng.randint(1, 8))
            a = {w: rng.choice((-2, -1, 1, 2))}
            a[compose(shift(n, rng.choice((-2, -1, 1, 2)) * n), w)] = rng.choice((-1, 1))
            a[_random_affine_perm(rng, n, rng.randint(1, 8))] = 3
            assert sl_reduce(a) == sl_reduce_by_psi(a), a

    def test_quotients_skip_the_forward_map(self):
        # phi of this window exceeds the channel enumeration cap; the window
        # sum alone answers both quotients
        w = AffinePerm(38, tuple(i + 1 if i % 2 else i - 1 for i in range(1, 39)))
        start = time.perf_counter()
        assert pgl_member(w)
        assert sl_reduce({w: 1}) == {w: 1}
        assert time.perf_counter() - start < 1.0


def sl_reduce_by_psi(a):
    """sl_reduce through the AMBC: each symbol w with phi(w) = (P, Q, rho)
    goes to psi(P, Q, rho - k lambda), k = sum(rho) // n."""
    out = {}
    for w, c in a.items():
        t = phi(w)
        k = sum(t.rho) // w.n
        rep = psi(t.p, t.q, tuple(r - k * part for r, part in zip(t.rho, t.shape())))
        out[rep] = out.get(rep, 0) + c
    return {w: c for w, c in out.items() if c}


class TestTextFormats:
    def test_formal_sum_roundtrip(self):
        prod = t_multiply(parse_window(W9), parse_window(W9P))
        text = format_jelement(prod)
        assert parse_jelement(text) == prod
        assert format_jelement(parse_jelement(text)) == text
        assert format_jelement({}) == "0"
        assert parse_jelement("0") == {}

    def test_negative_coefficients(self):
        a = {identity(3): -2, shift(3): 1}
        assert parse_jelement(format_jelement(a)) == a
        assert parse_jelement("−1*[2,1]") == {AffinePerm(2, (2, 1)): -1}

    def test_json_form(self):
        prod = t_multiply(parse_window(W9), parse_window(W9P))
        data = json.loads(jelement_to_json(prod))
        assert len(data) == 4 and all(d["coef"] == 1 for d in data)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_jelement("2*[1,_]")
        with pytest.raises(ValueError):
            parse_jelement("[1,2,3]")
