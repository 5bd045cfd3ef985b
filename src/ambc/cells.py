"""
Kazhdan-Lusztig cell labels through the matrix-ball construction, star
operations on affine permutations and their tabloid side T -> T*,
distinguished involutions, the matrix-algebra coordinates Upsilon(w) =
(P, Q, weight) with their inverse, and the bijection between a diagonal cell
intersection and dominant weights.

Cell membership is decided entirely by the forward map: two elements share a
left cell exactly when their Q-tabloids agree, a right cell when their
P-tabloids agree, and a two-sided cell when their shapes agree.  An element
is a distinguished involution exactly when its image is (T, T, 0).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .affine import AffinePerm, InvariantError, _trusted, inverse, residue
from .matrixball import _forward, _phi_win, _psi_perm, _psi_rows, phi
from .repring import FWeight
from .tabloids import (
    Blocks,
    Rows,
    RowVector,
    Tabloid,
    anticanonical_tabloid,
    enumerate_tabloids,
    equal_part_runs,
    offset_constants,
    omega_rows,
)


@dataclass(frozen=True)
class CellLabel:
    """A left, right, or two-sided cell label."""

    kind: str  # "left" | "right" | "two_sided"
    shape: tuple[int, ...]
    tabloid: Optional[Tabloid] = None

    def __post_init__(self):
        if self.kind not in ("left", "right", "two_sided"):
            raise ValueError(f"bad cell kind {self.kind!r}")
        if self.kind == "two_sided":
            if self.tabloid is not None:
                raise ValueError("two-sided cells carry no tabloid")
        else:
            if self.tabloid is None or self.tabloid.shape() != tuple(self.shape):
                raise ValueError("cell tabloid must match the shape")


def cell_shape(w: AffinePerm) -> tuple[int, ...]:
    """The partition labeling the two-sided cell of w."""
    return phi(w).shape()


def left_cell(w: AffinePerm) -> Tabloid:
    """The tabloid Q(w) labeling the left cell of w."""
    return phi(w).q


def right_cell(w: AffinePerm) -> Tabloid:
    """The tabloid P(w) labeling the right cell of w."""
    return phi(w).p


def star_right(w: AffinePerm, i: int) -> Optional[AffinePerm]:
    """
    The right star operation (Knuth move) at residue i: swap w(i+kn) and
    w(i+1+kn) for all k, defined when w(i-1) or w(i+2) lies strictly between
    w(i) and w(i+1).  Returns None when undefined (always for n < 3).

    >>> from .affine import parse_window, format_window
    >>> w = parse_window("[-1,3,10,-5,14,-3,18,7,2]")
    >>> format_window(star_right(w, 9))
    '[-7,3,10,-5,14,-3,18,7,8]'
    """
    win = _star_window(w.window, w.n, (i - 1) % w.n + 1)
    return None if win is None else AffinePerm(w.n, win)


def _star_window(win: tuple[int, ...], n: int, i: int) -> Optional[tuple[int, ...]]:
    """The window of the right star operation at residue i in 1..n, or None
    when undefined."""
    if n < 3:
        return None
    a = win[i - 1]
    b = win[i % n] + (n if i == n else 0)  # w(i + 1)
    left = win[(i - 2) % n] - (n if i == 1 else 0)  # w(i - 1)
    right = win[(i + 1) % n] + (n if i >= n - 1 else 0)  # w(i + 2)
    lo, hi = (a, b) if a < b else (b, a)
    if not (lo < left < hi or lo < right < hi):
        return None
    if i < n:
        return win[: i - 1] + (b, a) + win[i + 1 :]
    return (a - n,) + win[1 : n - 1] + (b,)


def star_left(w: AffinePerm, i: int) -> Optional[AffinePerm]:
    """The left star operation: conjugate the right one through inversion."""
    s = star_right(inverse(w), i)
    return None if s is None else inverse(s)


def star_tabloid(t: Tabloid, i: int) -> Optional[Tabloid]:
    """
    The tabloid side of the Knuth move at residue i: the swap s of residues
    i and i+1 (cyclically), defined exactly when every Knuth-admissible
    window swap at positions (i, i+1) inside the left cell labeled by t lands
    in the left cell labeled by s, and every one inside the cell of s lands
    back in the cell of t.  Returns None when undefined (in particular
    whenever i and i+1 share a row, or n < 3).

    Decided by probing the cell along the diagonal: the words psi(t, t, rho)
    for every rho in {-1, 0, 1}^k that weakly increases on each run of equal
    parts of the shape.  Whether these probes see every image of the cell is
    open.  Conjugation by omega carries psi(t, t, rho) to
    psi(omega t, omega t, rho) and the move at i to the move at i + 1, so the
    probe runs at residue 1 on omega^(1-i)(t) and its image is rotated back:
    the probe cache holds at most one entry per tabloid.
    """
    n = t.n
    if n < 3:
        return None
    i = residue(i, n)
    rows = omega_rows(t.rows, n, 1 - i)
    hit = _star_probe(n, rows, 1)
    if hit is None or _star_probe(n, hit, 1) != rows:
        return None
    return Tabloid(n, omega_rows(hit, n, i - 1))


@lru_cache(maxsize=None)
def _star_probe(n: int, rows: Rows, i: int) -> Optional[Rows]:
    """The rows with residues i and i+1 swapped if every star move at i of
    psi(rows, rows, rho), over the probe altitudes rho, has that Q-tabloid;
    otherwise None.  Cached per (tabloid, residue), asked only at residue 1;
    its psi runs are the only library reads of the backward-step memo."""
    j = i % n + 1
    if any(i in row and j in row for row in rows):
        return None
    swapped = tuple(
        tuple(sorted(j if x == i else i if x == j else x for x in row)) for row in rows
    )
    seen = False
    for rho in _probe_altitudes(tuple(len(row) for row in rows)):
        win = _star_window(_psi_rows(rows, rows, rho, n), n, i)
        if win is None:
            continue
        if _phi_win(win, n)[1] != swapped:
            return None
        seen = True
    return swapped if seen else None


@lru_cache(maxsize=None)
def _probe_altitudes(lam: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The altitudes in {-1, 0, 1}^k weakly increasing on each run of equal parts
    of lam, top row fastest: psi steps bottom-up, so probes share first steps."""
    runs = [range(a, b - 1) for a, b in equal_part_runs(lam)]
    top_fastest = (r[::-1] for r in itertools.product((-1, 0, 1), repeat=len(lam)))
    return tuple(rho for rho in top_fastest if all(rho[k] <= rho[k + 1] for ks in runs for k in ks))


def is_distinguished(w: AffinePerm) -> bool:
    """
    True iff w is a distinguished involution: the forward map sends it to
    (T, T, 0) for some tabloid T.

    >>> from .affine import shift
    >>> is_distinguished(shift(3))
    False
    """
    t = phi(w)
    return t.p == t.q and all(r == 0 for r in t.rho)


def distinguished_involutions(lam: Sequence[int], n: int) -> list[AffinePerm]:
    """
    The distinguished involutions of the two-sided cell of shape lam: the
    backward images of (T, T, 0) over all row-standard tabloids T, in the
    order of ``enumerate_tabloids``.

    psi(omega T, omega T, 0) = omega psi(T, T, 0) omega^-1, so psi runs once
    per omega-orbit of tabloids, on its first member, and the other members
    are conjugates.  An orbit whose conjugates do not close up on its first
    window is an InvariantError naming n, the shape and the tabloid.
    """
    lam = tuple(lam)
    tabs = [t.rows for t in enumerate_tabloids(lam, n)]
    zero = (0,) * len(lam)
    found: dict[Rows, AffinePerm] = {}
    for first in tabs:
        if first in found:
            continue
        w = _psi_perm(first, first, zero, n)
        rows = first
        while rows not in found:  # orbits are disjoint: this stops at first
            found[rows] = w
            rows = omega_rows(rows, n)
            w = AffinePerm(n, _omega_window(w.window, n))
        if w != found[first]:
            raise InvariantError(
                f"conjugation by omega does not close the orbit of psi(T, T, 0): "
                f"n={n}, shape={lam}, T={first}"
            )
    return [found[rows] for rows in tabs]


def _omega_window(win: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The window of omega w omega^-1: (w(n) - n + 1, w(1) + 1, ..., w(n-1) + 1)."""
    return (win[-1] - n + 1,) + tuple(v + 1 for v in win[:-1])


def upsilon(w: AffinePerm) -> tuple[Tabloid, Tabloid, FWeight]:
    """
    The matrix-algebra coordinates of t_w: the row label P(w), the column
    label Q(w), and the representation-ring entry, i.e. the block reversal of
    the altitude vector after subtracting the offset constants.
    """
    p, q, _, blocks = _forward(w)
    lam = tuple(map(len, p))
    return _trusted(Tabloid, w.n, p), _trusted(Tabloid, w.n, q), _trusted(FWeight, lam, blocks)


def upsilon_inverse(p: Tabloid, q: Tabloid, weight: FWeight) -> AffinePerm:
    """
    The element with coordinates (P, Q, weight): the backward image of P, Q
    and the altitude vector s_{P,Q} + rev_lambda(weight).

    >>> from .affine import parse_window
    >>> w = parse_window("[-1,3,10,-5,14,-3,18,7,2]")
    >>> upsilon_inverse(*upsilon(w)) == w
    True
    """
    s = offset_constants(p, q)
    if weight.shape != p.shape():
        raise ValueError(f"weight shape {weight.shape} != tabloid shape {p.shape()}")
    return _from_coordinates(p.rows, q.rows, s, weight.blocks, p.n)


def _from_coordinates(p_rows: Rows, q_rows: Rows, s: RowVector, blocks: Blocks, n: int) -> AffinePerm:
    """Upsilon^-1 on rows: the backward image of the altitudes s plus the
    block reversal of the weight, for trusted rows of one shape, offset
    constants s = s_{P,Q} and dominant blocks on their equal-part runs."""
    rev = (x for block in blocks for x in reversed(block))
    return _psi_perm(p_rows, q_rows, tuple(c + x for c, x in zip(s, rev)), n)


def xi_epsilon(w: AffinePerm) -> tuple[int, ...]:
    """
    The dominant weight attached to an element of the diagonal intersection
    of the anti-canonical left cell with its inverse: the weight of
    upsilon(w) as a row vector (the offset constants of a diagonal pair
    vanish).  Raises ValueError off that diagonal.
    """
    p, q, weight = upsilon(w)
    anti = anticanonical_tabloid(p.shape())
    if p != anti or q != anti:
        raise ValueError("xi_epsilon needs P(w) = Q(w) = the column superstandard tabloid")
    return weight.flatten()
