"""
Acceptance suite: one test per criterion, each printing a pass/fail line and
holding itself to a runtime budget.

The two bulk sweeps (transport laws, central-shift law) run on a
deterministic reduced pair grid on the largest shapes so the suite fits its
budgets on a small machine; the grids stay exhaustive in every other
dimension.  Run with ``pytest -s`` to see the per-criterion lines.
"""
import contextlib
import itertools
import random
import time
from multiprocessing import get_context

from ambc.affine import (
    AffinePerm,
    compose,
    inverse,
    is_nonextended,
    parse_window,
    partitions,
    shift,
)
from ambc.cells import is_distinguished, star_right, star_tabloid, xi_epsilon
from ambc.jring import j_multiply, t_basis, t_multiply, unit
from ambc.lusztig_vogan import (
    LVPair,
    mu_lambda,
    mu_lambda_zero,
    theta1,
    theta1_inverse,
)
from ambc.matrixball import forward_step, phi, psi, psi_cache_clear
from ambc.oracles import brute_schur_product, epsilon_from_families, _random_affine_perm
from ambc.repring import dim_gl, fweight_from_rows, tensor_gl
from ambc.tabloids import (
    Tabloid,
    anticanonical_tabloid,
    count_tabloids,
    enumerate_tabloids,
    offset_constants,
    omega_tabloid,
    rev_lambda,
)

from conftest import dominant_diffs, random_cell_element, rho_lambda, zero_pair
from sweeps import (
    DEFAULT_STRIDES,
    central_shift_chunk,
    pair_budget_strides,
    transport_chunk,
    transport_jobs,
)


@contextlib.contextmanager
def criterion(number, name, budget_s):
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        dt = time.perf_counter() - t0
        print(f"\nACCEPTANCE {number} ({name}): {status} in {dt:.1f}s / budget {budget_s:.0f}s")
    assert dt < budget_s, f"criterion {number} ran {dt:.1f}s, over its {budget_s:.0f}s budget"


def run_pool(worker, jobs):
    ctx = get_context("fork")
    with ctx.Pool(2) as pool:
        return pool.map(worker, jobs, chunksize=1)


def test_criterion_1_golden_roundtrip(golden9):
    with criterion(1, "golden forward/backward round-trip", 1.0):
        w = AffinePerm(9, golden9["w"])
        t = phi(w)
        assert t.p == golden9["p"]
        assert t.q == golden9["q"]
        assert t.rho == (2, 0, 2)
        assert psi(t.p, t.q, t.rho) == w


def test_criterion_2_golden_forward_step():
    with criterion(2, "golden forward step, n=16", 1.0):
        w = parse_window("[11,5,4,3,2,-9,13,10,9,8,1,15,12,22,14,16]")
        out, _ = forward_step(w)
        assert out == parse_window("[_,11,5,4,3,-8,_,13,10,9,2,_,15,_,22,_]")


def test_criterion_3_shift_and_star_transport(golden9):
    with criterion(3, "shift/star transport laws, n <= 5", 120.0):
        # printed shift example
        w = parse_window("[-1,3,10,-5,14,-3,18,7,2]")
        t = phi(compose(shift(9), w))

        assert compose(shift(9), w) == parse_window("[0,4,11,-4,15,-2,19,8,3]")
        assert t.p == omega_tabloid(golden9["p"])
        assert t.q == golden9["q"]
        assert t.rho == (0, -1, 2)
        assert offset_constants(t.p, t.q) == (0, -2, 0)
        # printed star example
        ws = star_right(w, 9)
        assert ws == parse_window("[-7,3,10,-5,14,-3,18,7,8]")
        ts = phi(ws)
        assert ts.p == golden9["p"]
        assert ts.q == star_tabloid(golden9["q"], 9)
        assert ts.rho == (0, 0, 0)
        # the sweep: both shift laws and both star laws on the pair grid
        results = run_pool(transport_chunk, transport_jobs(5, DEFAULT_STRIDES))
        bases = sum(r[0] for r in results)
        checks = sum(r[1] for r in results)
        violations = [v for r in results for v in r[2]]
        assert not violations, violations[:3]
        assert bases >= 300_000
        assert checks > 4 * bases


def test_criterion_4_distinguished_involutions():
    with criterion(4, "distinguished involutions, n <= 7", 60.0):
        total = 0
        for n in range(1, 8):
            for lam in partitions(n):
                members = [psi(t, t, (0,) * len(lam)) for t in enumerate_tabloids(lam)]
                assert len(members) == count_tabloids(lam)
                assert len(set(members)) == len(members)
                for w in members:
                    assert inverse(w) == w
                    assert is_distinguished(w)
                total += len(members)
            psi_cache_clear()
        assert total == sum(count_tabloids(lam) for n in range(1, 8) for lam in partitions(n))
        # printed n=9 member
        t9 = Tabloid(9, ((2, 4, 6, 9), (3, 7, 8), (1, 5)))
        assert psi(t9, t9, (0, 0, 0)) == parse_window("[-3,5,3,7,2,10,4,8,9]")


def test_criterion_5_jring():
    with criterion(5, "asymptotic Hecke algebra block, n <= 6", 120.0):
        u = parse_window("[-1,3,10,-5,14,-3,18,7,2]")
        v = parse_window("[-6,2,-4,15,18,-2,8,22,10]")
        expected = {
            parse_window("[-7,3,-5,18,19,-3,7,23,8]"): 1,
            parse_window("[-7,7,-5,14,18,-3,8,19,12]"): 1,
            parse_window("[-5,3,-3,14,18,2,7,19,8]"): 1,
            parse_window("[-5,7,-3,10,14,2,8,18,12]"): 1,
        }
        assert t_multiply(u, v) == expected
        assert t_multiply(v, u) == {}

        rng = random.Random(20240601)
        for _ in range(500):
            n = rng.randint(2, 6)
            lam = rng.choice(list(partitions(n)))
            tabs = list(enumerate_tabloids(lam))
            p, q, r, s = (rng.choice(tabs) for _ in range(4))
            a, _, _ = random_cell_element(rng, lam, tabs, p, q, spread=1)
            b, _, _ = random_cell_element(rng, lam, tabs, q, r, spread=1)
            c, _, _ = random_cell_element(rng, lam, tabs, r, s, spread=1)
            lhs = j_multiply(j_multiply(t_basis(a), t_basis(b)), t_basis(c))
            rhs = j_multiply(t_basis(a), j_multiply(t_basis(b), t_basis(c)))
            assert lhs == rhs

        for lam, n in [((3,), 3), ((2, 1), 3), ((2, 2), 4), ((2, 1, 1), 4), ((3, 2), 5)]:
            e = unit(lam, n)
            for _ in range(3):
                w, _, _ = random_cell_element(rng, lam)
                assert j_multiply(e, t_basis(w)) == t_basis(w)
                assert j_multiply(t_basis(w), e) == t_basis(w)


def test_criterion_6_representation_ring():
    with criterion(6, "representation ring products", 60.0):
        assert tensor_gl((2, 1, 0), (2, 0, 0)) == {
            (4, 1, 0): 1,
            (3, 2, 0): 1,
            (3, 1, 1): 1,
            (2, 2, 1): 1,
        }
        rng = random.Random(7)
        for _ in range(1000):
            m = rng.randint(1, 4)
            mu = tuple(sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True))
            nu = tuple(sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True))
            dec = tensor_gl(mu, nu)
            assert sum(c * dim_gl(w) for w, c in dec.items()) == dim_gl(mu) * dim_gl(nu)
        for _ in range(150):
            m = rng.randint(1, 3)
            mu = tuple(sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True))
            nu = tuple(sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True))
            assert brute_schur_product(mu, nu, m) == tensor_gl(mu, nu)


def test_criterion_7_lusztig_vogan():
    with criterion(7, "Lusztig-Vogan bijection", 300.0):
        # both printed worked examples
        pair = theta1((5, 1, 1, 1, -2, -2, -2))
        assert pair.shape == (3, 3, 1) and pair.weight.flatten() == (1, -2, 3)

        lam = (2, 2, 1, 1, 1)
        assert theta1_inverse(lam, fweight_from_rows(lam, (0, 0, 1, 0, -1))) == (
            5, 2, 1, 0, -1, -2, -5,
        )
        # generator weights and the balanced tableaux agree with the bijection
        for n in range(1, 9):
            for lam in partitions(n):
                assert theta1(mu_lambda_zero(lam)) == zero_pair(lam)
                mult = {}
                for part in lam:
                    mult[part] = mult.get(part, 0) + 1
                for r in sorted(mult):
                    for s in range(1, 2 * r * mult[r] + 4):
                        assert theta1(mu_lambda(lam, r, s)) == LVPair(lam, rho_lambda(lam, r, s))
            psi_cache_clear()
        # bijectivity over the box of dominant weights with entries in [-3,3]
        for n in range(1, 8):
            seen = set()
            for mu in itertools.combinations_with_replacement(range(3, -4, -1), n):
                p = theta1(mu)
                assert theta1_inverse(p.shape, p.weight) == mu
                key = (p.shape, p.weight)
                assert key not in seen
                seen.add(key)
            psi_cache_clear()


def test_criterion_8_diagonal_cell_weights():
    with criterion(8, "diagonal-cell weights vs stream families, n <= 8", 180.0):
        total = 0
        for n in range(2, 9):
            for lam in partitions(n):
                anti = anticanonical_tabloid(lam)
                for diff in dominant_diffs(lam):
                    w = psi(anti, anti, diff)
                    expected = rev_lambda(lam, diff)
                    assert xi_epsilon(w) == expected
                    assert epsilon_from_families(w) == expected
                    total += 1
            psi_cache_clear()
        assert total > 3000


def test_criterion_9_central_shift_and_pgl():
    with criterion(9, "central shift law and non-extended test", 60.0):
        strides = pair_budget_strides(6, 380)
        results = run_pool(central_shift_chunk, transport_jobs(6, strides, chunks=4))
        bases = sum(r[0] for r in results)
        violations = [v for r in results for v in r[2]]
        assert not violations, violations[:3]
        assert bases >= 100_000
        rng = random.Random(13)
        for _ in range(1000):
            w = _random_affine_perm(rng, rng.randint(1, 8))
            assert (sum(phi(w).rho) == 0) == is_nonextended(w)
