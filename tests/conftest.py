import contextlib
import functools
import inspect
import itertools
import random
import sys

import pytest
from hypothesis import settings

from ambc import jring
from ambc.affine import AffinePerm, compact_json, compose, inverse, partitions, shift
from ambc.cells import CellLabel
from ambc.lusztig_vogan import LVPair
from ambc.matrixball import phi, psi
from ambc.repring import FWeight
from ambc.tabloids import Tabloid, enumerate_tabloids, equal_part_runs, offset_constants

# Every @given test draws the same examples on every run and writes no
# example database, so tier-1 stays deterministic and leaves no files.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def cold_coordinate_memo():
    """Every test starts with an empty J-ring factor memo, so a test that
    counts or breaks forward maps sees each of them run."""
    jring._coordinates.cache_clear()


# The worked nine-residue example used as a golden fixture throughout.
@pytest.fixture(scope="session")
def golden9():
    return {
        "w": (3, 7, 14, 2, 18, 4, 19, 8, 6),
        "p": Tabloid(9, ((2, 4, 6), (3, 7, 8), (1, 5, 9))),
        "q": Tabloid(9, ((3, 5, 7), (1, 2, 8), (4, 6, 9))),
        "rho": (2, 0, 2),
        "s_pq": (0, -2, -1),
    }


def dominant_diffs(lam, lo=-2, hi=2):
    """Normalized altitude vectors: weakly increasing on equal-part runs."""
    out = []
    for diff in itertools.product(range(lo, hi + 1), repeat=len(lam)):
        if all(diff[k] <= diff[k + 1] for a, b in equal_part_runs(lam) for k in range(a, b - 1)):
            out.append(diff)
    return out


@functools.lru_cache(maxsize=None)
def tabloids_of(lam: tuple) -> tuple:
    """Every tabloid of shape lam, in ``enumerate_tabloids`` order."""
    return tuple(enumerate_tabloids(lam))


def random_cell_element(rng: random.Random, lam, tabs=None, p=None, q=None, spread=2):
    """A random element with prescribed cell data, via the backward map."""

    tabs = tabs if tabs is not None else tabloids_of(tuple(lam))
    p = p if p is not None else rng.choice(tabs)
    q = q if q is not None else rng.choice(tabs)
    s = offset_constants(p, q)
    diff = []
    for a, b in equal_part_runs(lam):
        diff.extend(sorted(rng.randint(-spread, spread) for _ in range(b - a)))
    return psi(p, q, tuple(d + c for d, c in zip(diff, s))), p, q


def small_windows(max_n=4):
    """(window, n) of every affine window with n <= max_n and shifts in
    {-1, 0, 1}."""
    for n in range(1, max_n + 1):
        for perm in itertools.permutations(range(1, n + 1)):
            for shifts in itertools.product((-1, 0, 1), repeat=n):
                yield tuple(v + n * s for v, s in zip(perm, shifts)), n


def small_partial_windows(max_n):
    """(window, n) of every window with n <= max_n, shifts in {-1, 0, 1}
    and at least one ball, the others holes."""
    for n in range(1, max_n + 1):
        for where in itertools.product((False, True), repeat=n):
            k = sum(where)
            if not k:
                continue
            for perm in itertools.permutations(range(1, n + 1), k):
                for shifts in itertools.product((-1, 0, 1), repeat=k):
                    vals = iter(v + n * s for v, s in zip(perm, shifts))
                    yield tuple(next(vals) if p else None for p in where), n


def longest_finite(n):
    """The longest element of the finite symmetric group, window [n,...,1]."""
    return AffinePerm(n, tuple(range(n, 0, -1)))


def conjugate_by_shift(w, power=1):
    """omega^power * w * omega^-power."""
    om = shift(w.n, power)
    return compose(compose(om, w), inverse(om))


def cell_label(w, kind):
    """The two-sided, left or right CellLabel of w; a bad kind is a
    ValueError before phi runs."""
    if kind not in ("two_sided", "left", "right"):
        raise ValueError(f"bad cell kind {kind!r}")
    t = phi(w)
    if kind == "two_sided":
        return CellLabel(kind, t.shape())
    if kind == "left":
        return CellLabel(kind, t.shape(), t.q)
    return CellLabel(kind, t.shape(), t.p)


def finite_permutations(n):
    """All elements of the finite symmetric group inside period n."""
    for p in itertools.permutations(range(1, n + 1)):
        yield AffinePerm(n, p)


def small_partitions(max_n):
    return [(n, lam) for n in range(1, max_n + 1) for lam in partitions(n)]


@contextlib.contextmanager
def stack_headroom(frames):
    """Lower the recursion limit to ``frames`` above the caller's depth."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def one_column_triple(k):
    """A triple of shape (1^k): k one-ball rows, so psi takes k backward steps."""
    t = Tabloid(k, tuple((i,) for i in range(1, k + 1)))
    return t, t, (0,) * k


def format_tabloid(t: Tabloid) -> str:
    """Nested-bracket rows, e.g. "[[2,4,6],[3,7,8],[1,5,9]]"."""
    return compact_json(t.rows)


def format_fweight(fw: FWeight) -> str:
    return compact_json({"shape": fw.shape, "blocks": fw.blocks})


def zero_fweight(lam) -> FWeight:
    return FWeight(lam, tuple((0,) * (b - a) for a, b in equal_part_runs(lam)))


def rho_lambda(lam, r: int, s: int) -> FWeight:
    """The generator weight: (s, 0, ..., 0) on the factor of part size r,
    zero elsewhere."""
    if r not in lam:
        raise ValueError(f"{r} is not a part of {lam}")
    blocks = []
    for a, b in equal_part_runs(lam):
        if lam[a] == r:
            blocks.append((s,) + (0,) * (b - a - 1))
        else:
            blocks.append((0,) * (b - a))
    return FWeight(lam, tuple(blocks))


def zero_pair(lam) -> LVPair:
    return LVPair(tuple(lam), zero_fweight(lam))
