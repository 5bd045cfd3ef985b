"""
Seeded inputs, operations and output checks for the benchmark workloads.

Every input is a pure function of the workload seed (and of a pass index), so
the same seed gives the same inputs in any process.  The library only ever
sees the generated inputs.

An operation (``Op``) is one call a user would make: a phi/psi round trip, a
``t_multiply``, a README command line, ...  ``run_op`` times the library calls
of an operation and nothing else; ``CHECKS`` verifies the result outside the
timed region.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from ambc import (
    AffinePerm,
    Tabloid,
    distinguished_involutions,
    enumerate_tabloids,
    inverse,
    offset_constants,
    phi,
    psi,
    star_tabloid,
    t_multiply,
    tensor_f,
    tensor_gl,
    theta1,
    theta1_inverse,
    upsilon,
)
from ambc import cli
from ambc.affine import partitions
from ambc.matrixball import psi_cache_clear
from ambc.repring import dim_f, dim_gl
from ambc.tabloids import count_tabloids, equal_part_runs, rev_lambda


class CheckError(Exception):
    """An operation returned a wrong answer."""


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    n: int = 0  # period of the input window, for per-size metrics
    spread: int = 0  # translation spread of a random window (0: none)


# --- random_roundtrip ----------------------------------------------------------

SPREADS = (1, 2, 4, 8)
# Windows per spread in one pass.  The weights place the median op inside the
# n = 32 windows and the 90th percentile inside the n = 64 windows, away from
# the cost gaps between sizes, so both percentiles are steady.
ROUNDTRIP_MIX = {8: 2, 16: 1, 32: 2, 64: 2}
ROUNDTRIP_SIZES = tuple(ROUNDTRIP_MIX)


def random_window(rng: random.Random, n: int, spread: int) -> AffinePerm:
    """A uniform permutation of 1..n, each entry shifted by a random multiple
    of n in [-spread, spread]."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return AffinePerm(n, tuple(v + n * rng.randint(-spread, spread) for v in values))


def roundtrip_pass(seed: int, index: int) -> list[Op]:
    rng = random.Random(f"random_roundtrip:{seed}:{index}")
    ops = [
        Op("roundtrip", (random_window(rng, n, s),), n, s)
        for s in SPREADS
        for n, k in ROUNDTRIP_MIX.items()
        for _ in range(k)
    ]
    rng.shuffle(ops)
    return ops


# Reference windows per spread at each size: more where calls are cheap, so
# that every per-size median rests on enough calls.
REFERENCE_PER_SPREAD = {8: 20, 16: 20, 32: 10, 64: 5}


def reference_windows() -> list[Op]:
    """A fixed, seed-independent set of random windows at every size and
    spread.  Every workload times phi and psi on each of them once, spread
    over its run, for the per-size metrics."""
    rng = random.Random("reference")
    ops = [
        Op("roundtrip", (random_window(rng, n, s),), n, s)
        for n, k in REFERENCE_PER_SPREAD.items()
        for s in SPREADS
        for _ in range(k)
    ]
    rng.shuffle(ops)
    return ops


# --- channel_rich ---------------------------------------------------------------

# Channel-count band per size: the first forward step of a run of reversed
# blocks has one channel per choice of one ball in each block, so the count is
# the product of the block lengths.  Each band spans a factor of two, which
# keeps the per-input cost within about that factor; n = 32 stays below the
# ~15k channels of an unconstrained composition, so that one run holds more
# than 100 operations.
CHANNEL_BANDS = {16: (72, 144), 24: (1296, 2592), 32: (4608, 9216)}
# Windows per size in one pass, cycling the first block through 1, 2, 3.  The
# weights put the median op inside the n = 24 windows and the 90th percentile
# inside the n = 32 ones.
CHANNEL_MIX = {16: 3, 24: 6, 32: 3}


def block_lengths(rng: random.Random, n: int, first: int) -> list[int]:
    """A composition of n into parts 1..3 starting with ``first`` whose
    product lies in the band of n."""
    lo, hi = CHANNEL_BANDS[n]
    while True:
        blocks = [first]
        while sum(blocks) < n:
            blocks.append(rng.randint(1, min(3, n - sum(blocks))))
        if lo <= math.prod(blocks) <= hi:
            return blocks


def reversed_blocks(blocks: list[int]) -> AffinePerm:
    """The finite permutation reversing consecutive blocks of the given lengths."""
    window: list[int] = []
    for length in blocks:
        start = len(window)
        window.extend(range(start + length, start, -1))
    return AffinePerm(len(window), tuple(window))


DEFECT_WINDOW = reversed_blocks([2] * 19)  # [2,1,4,3,...,38,37]: 2^19 channels


def channel_pass(seed: int, index: int) -> list[Op]:
    rng = random.Random(f"channel_rich:{seed}:{index}")
    ops = []
    for n, k in CHANNEL_MIX.items():
        for j in range(k):
            blocks = block_lengths(rng, n, j % 3 + 1)
            ops.append(Op("roundtrip", (reversed_blocks(blocks), math.prod(blocks)), n))
    rng.shuffle(ops)
    return ops


# --- cell_tables ---------------------------------------------------------------

CELL_MAX_N = 7
STAR_N = 5
THETA_BOX = range(-3, 4)
TMULT_POOLS = 280  # each pool gives 6 x 6 composable pairs
TENSOR_OPS = 40000
TENSOR_MAX_M = 4
CHUNK = 500  # operations per pass

README_CLI = (
    (["ambc-forward", "[3,7,14,2,18,4,19,8,6]"],
     '{"p":[[2,4,6],[3,7,8],[1,5,9]],"q":[[3,5,7],[1,2,8],[4,6,9]],"rho":[2,0,2]}\n'),
    (["ambc-backward", '{"p":[[2,4,6],[3,7,8],[1,5,9]],"q":[[3,5,7],[1,2,8],[4,6,9]],"rho":[2,0,2]}'],
     "[3,7,14,2,18,4,19,8,6]\n"),
    # the README shows only the last line (`| tail -1`)
    (["involutions", "--shape", "4,3,2"], "count 1260\n"),
    (["jmult", "[-1,3,10,-5,14,-3,18,7,2]", "[-6,2,-4,15,18,-2,8,22,10]"],
     "1*[-7,3,-5,18,19,-3,7,23,8] + 1*[-7,7,-5,14,18,-3,8,19,12] + "
     "1*[-5,3,-3,14,18,2,7,19,8] + 1*[-5,7,-3,10,14,2,8,18,12]\n"),
    (["lv", "5,1,1,1,-2,-2,-2"], "shape 3,3,1\nweight 1,-2,3\n"),
    (["lv-inverse", "--shape", "2,2,1,1,1", "--weight", "[[0,0],[1,0,-1]]"], "5,2,1,0,-1,-2,-5\n"),
    (["tensor", "--m", "3", "2,1,0", "2,0,0"], "1 4,1,0\n1 3,2,0\n1 3,1,1\n1 2,2,1\n"),
)


def random_tabloid(rng: random.Random, lam: tuple[int, ...]) -> Tabloid:
    values = list(range(1, sum(lam) + 1))
    rng.shuffle(values)
    rows, start = [], 0
    for part in lam:
        rows.append(tuple(sorted(values[start:start + part])))
        start += part
    return Tabloid(sum(lam), tuple(rows))


def dominant_rho(rng: random.Random, p: Tabloid, q: Tabloid) -> tuple[int, ...]:
    """A random altitude vector making (p, q, rho) dominant: rho - s_{P,Q}
    weakly increasing inside every equal-part run."""
    lam = p.shape()
    diff = [rng.randint(-1, 1) for _ in lam]
    for a, b in equal_part_runs(lam):
        diff[a:b] = sorted(diff[a:b])
    return tuple(s + d for s, d in zip(offset_constants(p, q), diff))


def composable_pairs(rng: random.Random) -> list[Op]:
    """6 x 6 pairs (u, v) inside one two-sided cell with Q(u) = P(v)."""
    n = rng.randint(4, CELL_MAX_N)
    lam = rng.choice(list(partitions(n)))
    q = random_tabloid(rng, lam)
    left = [(p, psi(p, q, dominant_rho(rng, p, q))) for p in (random_tabloid(rng, lam) for _ in range(6))]
    right = [(r, psi(q, r, dominant_rho(rng, q, r))) for r in (random_tabloid(rng, lam) for _ in range(6))]
    return [Op("t_multiply", (u, v, p, r), n) for p, u in left for r, v in right]


def dominant_weights(m: int) -> list[tuple[int, ...]]:
    """Weakly decreasing vectors of length m with entries in THETA_BOX."""
    return list(itertools.combinations_with_replacement(reversed(THETA_BOX), m))


def random_weight(rng: random.Random, m: int) -> tuple[int, ...]:
    return tuple(sorted((rng.choice(THETA_BOX) for _ in range(m)), reverse=True))


def cell_sequence(seed: int) -> list[list[Op]]:
    """Every operation of the workload once, shuffled and cut into passes.

    The README command lines go into the first pass so that every run checks
    them; the rest is a seeded shuffle, so any prefix of the sequence has the
    same mix of kinds.
    """
    rng = random.Random(f"cell_tables:{seed}")
    ops: list[Op] = []
    for lam in partitions(STAR_N):
        for t in enumerate_tabloids(lam, STAR_N):
            ops.extend(Op("star", (t, i), STAR_N) for i in range(1, STAR_N + 1))
    for n in range(3, CELL_MAX_N + 1):
        ops.extend(Op("involutions", (lam, n), n) for lam in partitions(n))
    for m in range(1, CELL_MAX_N + 1):
        ops.extend(Op("theta", (mu,), m) for mu in dominant_weights(m))
    for _ in range(TMULT_POOLS):
        ops.extend(composable_pairs(rng))
    for _ in range(TENSOR_OPS):
        m = rng.randint(1, TENSOR_MAX_M)
        ops.append(Op("tensor", (random_weight(rng, m), random_weight(rng, m)), m))
    rng.shuffle(ops)
    first = ops[:CHUNK - len(README_CLI)] + [Op("cli", case) for case in README_CLI]
    rng.shuffle(first)
    rest = ops[CHUNK - len(README_CLI):]
    return [first] + [rest[i:i + CHUNK] for i in range(0, len(rest), CHUNK)]


class Passes:
    """The passes of a workload in order: the first ``ready`` are made at
    set-up, later ones on demand, outside any timed region."""

    def __init__(self, make, ready: int) -> None:
        self.make = make
        self.made = [make(i) for i in range(ready)]

    def __iter__(self):
        for i in itertools.count():
            yield self.made[i] if i < len(self.made) else self.make(i)


def make_passes(workload: str, seed: int) -> Passes:
    """The inputs of a workload; this is the input generation set-up pays for."""
    if workload == "random_roundtrip":
        return Passes(lambda i: roundtrip_pass(seed, i), 30)
    if workload == "channel_rich":
        return Passes(lambda i: channel_pass(seed, i), 30)
    sequence = cell_sequence(seed)
    psi_cache_clear()  # generating composable pairs ran psi; start the run cold
    return Passes(lambda i: sequence[i % len(sequence)], 0)


PROBE_PER_KIND = {"star": 20, "theta": 10, "t_multiply": 10, "tensor": 20, "involutions": 3, "cli": len(README_CLI)}


def probe_ops(seed: int) -> list[Op]:
    """The first few operations of each cell_tables kind, for the layers a
    traced run of another workload never reaches."""
    taken: Counter = Counter()
    out = []
    for ops in cell_sequence(seed):
        for op in ops:
            if taken[op.kind] < PROBE_PER_KIND[op.kind]:
                taken[op.kind] += 1
                out.append(op)
    return out


# --- running and checking -------------------------------------------------------


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def run_roundtrip(w, *_):
    triple, t_phi = _timed(phi, w)
    back, t_psi = _timed(psi, triple.p, triple.q, triple.rho)
    return (triple, back), {"phi": t_phi, "psi": t_psi}


def run_theta(mu):
    pair, t_fwd = _timed(theta1, mu)
    back, t_inv = _timed(theta1_inverse, pair.shape, pair.weight)
    return (pair, back), {"theta1": t_fwd, "theta1_inverse": t_inv}


def run_cli(argv, _expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, dt = _timed(cli.main, list(argv))
    return (code, out.getvalue()), {"main": dt}


def _single(fn):
    def run(*args):
        out, dt = _timed(fn, *args)
        return out, {"call": dt}
    return run


RUNNERS = {
    "roundtrip": run_roundtrip,
    "t_multiply": lambda u, v, _p, _r: _single(t_multiply)(u, v),
    "theta": run_theta,
    "involutions": _single(distinguished_involutions),
    "star": _single(star_tabloid),
    "tensor": _single(tensor_gl),
    "cli": run_cli,
}


def run_op(op: Op):
    """(result, seconds per library call) of one operation; raises what the
    library raises."""
    return RUNNERS[op.kind](*op.args)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def check_roundtrip(op: Op, result) -> None:
    _triple, back = result
    _require(back == op.args[0], f"psi(phi(w)) != w for w = {op.args[0].window}")


def check_t_multiply(op: Op, result, coordinates=upsilon) -> None:
    """Every term lies in the (P(u), Q(v)) entry of the cell block, the term
    weights reproduce the tensor product of the factor weights, and the
    Weyl dimensions multiply.  ``coordinates`` is ``upsilon``, or a traced
    wrapper of it."""
    u, v, p, r = op.args
    _require(bool(result), "t_u * t_v vanished on a composable pair")
    _, _, wu = coordinates(u)
    _, _, wv = coordinates(v)
    by_weight: dict = {}
    for w, coef in result.items():
        wp, wq, weight = coordinates(w)
        _require(wp == p and wq == r, f"term {w.window} left the (P(u), Q(v)) entry")
        by_weight[weight] = by_weight.get(weight, 0) + coef
    _require(by_weight == tensor_f(wu, wv), "term weights differ from the tensor product")
    dims = sum(c * dim_f(weight) for weight, c in by_weight.items())
    _require(dims == dim_f(wu) * dim_f(wv), "dimensions of the product do not multiply")


def check_theta(op: Op, result) -> None:
    pair, back = result
    mu = op.args[0]
    _require(sum(pair.shape) == len(mu), f"theta1{mu} has shape {pair.shape}")
    _require(back == mu, f"theta1_inverse(theta1({mu})) = {back}")


def check_involutions(op: Op, result) -> None:
    lam, _n = op.args
    _require(len(result) == count_tabloids(lam), f"{len(result)} involutions for shape {lam}")
    _require(len({w.window for w in result}) == len(result), f"repeated involution for shape {lam}")
    for w in result:
        _require(inverse(w) == w, f"{w.window} is not an involution")


def swap_residues(t: Tabloid, i: int) -> Tabloid:
    j = i % t.n + 1
    return Tabloid(t.n, tuple(tuple(sorted(j if x == i else i if x == j else x for x in row)) for row in t.rows))


def check_star(op: Op, result) -> None:
    t, i = op.args
    if result is None:
        return
    _require(result == swap_residues(t, i), f"star({t.rows}, {i}) is not the swap of {i}, {i % t.n + 1}")
    _require(star_tabloid(result, i) == t, f"star at {i} is not involutive on {t.rows}")


def check_tensor(op: Op, result) -> None:
    mu, nu = op.args
    _require(all(c > 0 for c in result.values()), f"non-positive multiplicity in {mu} x {nu}")
    _require(all(len(k) == len(mu) and sum(k) == sum(mu) + sum(nu) for k in result), f"bad weight in {mu} x {nu}")
    dims = sum(c * dim_gl(k) for k, c in result.items())
    _require(dims == dim_gl(mu) * dim_gl(nu), f"dimensions of {mu} x {nu} do not multiply")


def check_cli(op: Op, result) -> None:
    argv, expected = op.args
    code, out = result
    _require(code == 0, f"ambc {' '.join(argv)} exited {code}")
    if argv[0] == "involutions":
        lines = out.splitlines(keepends=True)
        windows = count_tabloids((4, 3, 2))  # the README shows only the count line
        _require(lines[-1:] == [expected] and len(lines) == windows + 1, f"ambc {argv[0]} output differs from the README")
    else:
        _require(out == expected, f"ambc {argv[0]} output differs from the README")


CHECKS = {
    "roundtrip": check_roundtrip,
    "t_multiply": check_t_multiply,
    "theta": check_theta,
    "involutions": check_involutions,
    "star": check_star,
    "tensor": check_tensor,
    "cli": check_cli,
}


# --- input properties -----------------------------------------------------------


def psi_bottom_rows(op: Op, result) -> list[tuple]:
    """The bottom row (n, Q row, P row, altitude) of every psi call an
    operation makes, read from the psi inputs the operation implies."""
    if op.kind == "roundtrip":
        t = result[0]
        return [(t.p.n, t.q.rows[-1], t.p.rows[-1], t.rho[-1])]
    if op.kind == "involutions":
        lam, n = op.args
        return [(n, t.rows[-1], t.rows[-1], 0) for t in enumerate_tabloids(lam, n)]
    if op.kind == "theta":
        pair = result[0]
        lam = pair.shape
        rho = rev_lambda(lam, pair.weight.flatten())
        bottom = tuple(range(1, lam[-1] + 1))  # bottom row of the canonical tabloid
        return [(sum(lam), bottom, bottom, rho[-1])]
    return []

