"""
Row-standard Young tabloids and their statistics.

A tabloid of shape lambda (a partition of n) fills the diagram with the
residues 1..n, each exactly once; rows are sets, kept sorted ascending.  On
top of the raw data this module implements the combinatorial statistics the
matrix-ball construction needs:

* the tau-invariant (the descent set a tabloid imposes),
* local charges and symmetrized offset constants s_{P,Q},
* the block reversal rev_lambda and the dominance test that cuts out the
  image of the forward construction,
* the residue shift T -> omega(T), and the indicator vectors delta and iota
  of the tabloid side of Knuth moves (the move T -> T* itself is decided in
  ``cells``, by the forward and backward maps).

Offset constants follow the recurrence s_i - s_{i-1} = lch_{i-1}(P) -
lch_{i-1}(Q) on equal-part runs, with s_i = 0 whenever row i starts a new
run; the worked nine-residue golden test pins this convention.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .affine import (
    _is_int,
    check_partition,
    conjugate_partition,
    parse_ints,
    read_json,
    residue,
)

RowVector = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]
Blocks = tuple[RowVector, ...]  # one weight block per equal-part run


@dataclass(frozen=True)
class Tabloid:
    """
    A row-standard Young tabloid: rows of residues 1..n, each row sorted
    ascending, row lengths weakly decreasing.

    >>> Tabloid(3, ((1, 3), (2,))).shape()
    (2, 1)
    """

    n: int
    rows: Rows

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        error = _tabloid_error(self.rows, self.n)
        if error:
            raise ValueError(error)

    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def row_of(self, i: int) -> int:
        """1-based index of the row containing residue i."""
        return _row_index(self.rows)[i]


def _tabloid_error(rows: Rows, n: int) -> Optional[str]:
    """Why ``rows`` are not a row-standard tabloid of 1..n (nonempty rows of
    weakly decreasing lengths, each ascending, holding each residue once), or
    None if they are."""
    lam = tuple(map(len, rows))
    if not lam or 0 in lam or list(lam) != sorted(lam, reverse=True):
        return f"not a partition: {lam}"
    if sorted(itertools.chain(*rows)) != list(range(1, n + 1)) or any(list(r) != sorted(r) for r in rows):
        return f"rows must be strictly increasing and hold each residue 1..{n} once: {rows}"
    return None


def _row_index(rows: Rows) -> dict[int, int]:
    return {x: t for t, row in enumerate(rows, start=1) for x in row}


def tau(t: Tabloid) -> frozenset[int]:
    """
    The tau-invariant: residues i whose row lies strictly above the row of
    i+1 (indices cyclic, so n is compared against 1).  Rows are numbered from
    the top, and "above" means a smaller row index; this calibration makes
    tau of the reverse-row superstandard tabloid land inside {n}.
    """
    return frozenset(tau_rows(t.rows, t.n))


def tau_rows(rows: Rows, n: int) -> tuple[int, ...]:
    idx = _row_index(rows)
    return tuple(i for i in range(1, n + 1) if idx[i] < idx[i % n + 1])


def local_charge(t: Tabloid, i: int) -> int:
    """
    The local charge in row i: the least right-shift d of row i making
    (row i, row i+1) a standard skew pair.

    >>> local_charge(Tabloid(8, ((3, 5, 7, 8), (1, 2, 4, 6))), 1)
    2
    """
    if not 1 <= i <= len(t.rows) - 1:
        raise ValueError(f"row index {i} out of range for shape {t.shape()}")
    return _lch_pair(t.rows[i - 1], t.rows[i])


def _lch_pair(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    # smallest d >= 0 with a[l-d] < b[l] for all l in [d+1, len(b)], 1-based;
    # for ascending rows that is max(0, max_l(l - #{i: a[i] < b[l]})), read
    # off in one merge walk
    d = i = 0
    for l, y in enumerate(b, start=1):
        while i < len(a) and a[i] < y:
            i += 1
        if l - i > d:
            d = l - i
    return d


def offset_constants(p: Tabloid, q: Tabloid) -> RowVector:
    """
    The symmetrized offset constants s_{P,Q}: zero at the start of each
    equal-part run, and accumulating local-charge differences inside a run.

    >>> p = Tabloid(9, ((2, 4, 6), (3, 7, 8), (1, 5, 9)))
    >>> q = Tabloid(9, ((3, 5, 7), (1, 2, 8), (4, 6, 9)))
    >>> offset_constants(p, q)
    (0, -2, -1)
    """
    if p.shape() != q.shape():
        raise ValueError(f"shape mismatch: {p.shape()} vs {q.shape()}")
    return offset_rows(p.rows, q.rows)


def offset_rows(prows: Rows, qrows: Rows) -> RowVector:
    lam = tuple(len(r) for r in prows)
    out = [0] * len(lam)
    for i in range(1, len(lam)):
        if lam[i - 1] == lam[i]:
            out[i] = out[i - 1] + _lch_pair(prows[i - 1], prows[i]) - _lch_pair(qrows[i - 1], qrows[i])
    return tuple(out)


def equal_part_runs(lam: Sequence[int]) -> list[tuple[int, int]]:
    """Half-open index ranges [start, stop) of maximal equal-part runs."""
    runs = []
    start = 0
    for i in range(1, len(lam) + 1):
        if i == len(lam) or lam[i] != lam[start]:
            runs.append((start, i))
            start = i
    return runs


def rev_lambda(lam: Sequence[int], rho: Sequence[int]) -> RowVector:
    """
    Reverse rho within each maximal run of equal parts of lam.

    >>> rev_lambda((2, 2, 1, 1, 1), (3, 1, 5, 2, 4))
    (1, 3, 4, 2, 5)
    """
    lam = tuple(lam)
    rho = tuple(rho)
    if len(lam) != len(rho):
        raise ValueError(f"length mismatch: {lam} vs {rho}")
    out = list(rho)
    for a, b in equal_part_runs(lam):
        out[a:b] = reversed(out[a:b])
    return tuple(out)


def is_dominant_wrt(rho: Sequence[int], p: Tabloid, q: Tabloid) -> bool:
    """
    True iff rho - s_{P,Q} is weakly increasing inside every equal-part run,
    i.e. the triple (P, Q, rho) lies in the image of the forward map.
    """
    s = offset_constants(p, q)
    rho = tuple(rho)
    if len(rho) != len(s):
        raise ValueError(f"rho length {len(rho)} != number of rows {len(s)}")
    return _dominant_blocks(p.shape(), rho, s) is not None


def _dominant_blocks(lam: Sequence[int], rho: RowVector, s: RowVector) -> Optional[Blocks]:
    """rev_lambda(lam, rho - s) cut into one block per equal-part run of lam
    if every block is weakly decreasing (rho is dominant for the offset
    constants s), else None; rho and s have one entry per row."""
    blocks = []
    for a, b in equal_part_runs(lam):
        block = tuple(rho[i] - s[i] for i in range(b - 1, a - 1, -1))
        if any(x < y for x, y in zip(block, block[1:])):
            return None
        blocks.append(block)
    return tuple(blocks)


def canonical_tabloid(lam: Sequence[int], n: Optional[int] = None) -> Tabloid:
    """
    The reverse-row superstandard tabloid: rows are filled bottom-up with
    consecutive integers starting at 1.

    >>> canonical_tabloid((4, 3, 1)).rows
    ((5, 6, 7, 8), (2, 3, 4), (1,))
    """
    lam = check_partition(lam, n)
    return Tabloid(sum(lam), _canonical_rows(lam))


def _canonical_rows(lam: tuple[int, ...]) -> Rows:
    """The rows of ``canonical_tabloid(lam)`` for a checked partition lam."""
    rows: list[tuple[int, ...]] = []
    start = 1
    for part in reversed(lam):
        rows.append(tuple(range(start, start + part)))
        start += part
    return tuple(reversed(rows))


def anticanonical_tabloid(lam: Sequence[int], n: Optional[int] = None) -> Tabloid:
    """
    The column superstandard tabloid: columns are filled left to right, each
    top to bottom.

    >>> anticanonical_tabloid((4, 3, 1)).rows
    ((1, 4, 6, 8), (2, 5, 7), (3,))
    """
    lam = check_partition(lam, n)
    conj = conjugate_partition(lam)
    offsets = [0]
    for c in conj:
        offsets.append(offsets[-1] + c)
    rows = tuple(
        tuple(offsets[j] + i + 1 for j in range(lam[i])) for i in range(len(lam))
    )
    return Tabloid(sum(lam), rows)


def omega_tabloid(t: Tabloid) -> Tabloid:
    """Shift every residue by one (n wraps to 1), keeping rows sorted."""
    return Tabloid(t.n, omega_rows(t.rows, t.n))


def omega_rows(rows: Rows, n: int, power: int = 1) -> Rows:
    """The rows of omega^power(T): residue x goes to x + power mod n."""
    return tuple(tuple(sorted((x + power - 1) % n + 1 for x in row)) for row in rows)


def iota_vec(t: Tabloid, i: int) -> RowVector:
    """The indicator of the row containing residue i."""
    r = t.row_of(residue(i, t.n))
    return tuple(1 if j == r else 0 for j in range(1, len(t.rows) + 1))


def delta_vec(t: Tabloid, i: int) -> RowVector:
    """
    Zero if the row of residue i continues an equal-part run from above;
    otherwise the indicator of that row's whole equal-part run.
    """
    lam = t.shape()
    r = t.row_of(residue(i, t.n))
    if r >= 2 and lam[r - 2] == lam[r - 1]:
        return tuple(0 for _ in lam)
    return tuple(1 if part == lam[r - 1] else 0 for part in lam)


def enumerate_tabloids(lam: Sequence[int], n: Optional[int] = None) -> Iterator[Tabloid]:
    """
    All row-standard tabloids of shape lam, in a fixed lexicographic order.
    The count is the multinomial n! / (lam_1! lam_2! ...).

    >>> sum(1 for _ in enumerate_tabloids((2, 1)))
    3
    """
    lam = check_partition(lam, n)
    total = sum(lam)

    def rec(remaining: tuple[int, ...], parts: tuple[int, ...]) -> Iterator[Rows]:
        if not parts:
            yield ()
            return
        for row in itertools.combinations(remaining, parts[0]):
            rest = tuple(x for x in remaining if x not in row)
            for tail in rec(rest, parts[1:]):
                yield (row,) + tail

    for rows in rec(tuple(range(1, total + 1)), lam):
        yield Tabloid(total, rows)


def count_tabloids(lam: Sequence[int]) -> int:
    """n! / (lam_1! lam_2! ...)."""
    lam = check_partition(lam)
    out = 1
    seen = 0
    for part in lam:
        seen += part
        out *= math.comb(seen, part)
    return out


# --- text formats ------------------------------------------------------------


def parse_tabloid(text: str, n: Optional[int] = None) -> Tabloid:
    """
    Parse nested-bracket rows back into a tabloid.

    >>> parse_tabloid("[[2,4,6],[3,7,8],[1,5,9]]").shape()
    (3, 3, 3)
    """
    return tabloid_from_lists(read_json(text, "tabloid"), n)


def tabloid_from_lists(data, n: Optional[int] = None) -> Tabloid:
    if not isinstance(data, list) or not all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in data
    ):
        raise ValueError(f"tabloid must be a list of integer rows: {data!r}")
    size = sum(len(row) for row in data)
    if n is not None and size != n:
        raise ValueError(f"tabloid holds {size} residues, expected {n}")
    return Tabloid(size, tuple(tuple(sorted(row)) for row in data))


def parse_shape(text: str) -> tuple[int, ...]:
    """Parse a comma list like "4,3,1" into a partition."""
    return check_partition(parse_ints(text, "shape"))
