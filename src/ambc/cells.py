"""
Kazhdan-Lusztig cell labels through the matrix-ball construction, star
operations on affine permutations, distinguished involutions, and the
bijection between a diagonal cell intersection and dominant weights.

Cell membership is decided entirely by the forward map: two elements share a
left cell exactly when their Q-tabloids agree, a right cell when their
P-tabloids agree, and a two-sided cell when their shapes agree.  An element
is a distinguished involution exactly when its image is (T, T, 0).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .affine import AffinePerm, inverse
from .matrixball import phi, psi
from .tabloids import (
    Tabloid,
    anticanonical_tabloid,
    enumerate_tabloids,
    rev_lambda,
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


def cell_label(w: AffinePerm, kind: str) -> CellLabel:
    t = phi(w)
    if kind == "two_sided":
        return CellLabel(kind, t.shape())
    if kind == "left":
        return CellLabel(kind, t.shape(), t.q)
    if kind == "right":
        return CellLabel(kind, t.shape(), t.p)
    raise ValueError(f"bad cell kind {kind!r}")


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
    backward images of (T, T, 0) over all row-standard tabloids T.
    """
    zero = (0,) * len(tuple(lam))
    return [psi(t, t, zero) for t in enumerate_tabloids(lam, n)]


def xi_epsilon(w: AffinePerm) -> tuple[int, ...]:
    """
    The dominant weight attached to an element of the diagonal intersection
    of the anti-canonical left cell with its inverse: rev_lambda of the
    altitude vector.  Raises ValueError off that diagonal.
    """
    t = phi(w)
    lam = t.shape()
    anti = anticanonical_tabloid(lam)
    if t.p != anti or t.q != anti:
        raise ValueError("xi_epsilon needs P(w) = Q(w) = the column superstandard tabloid")
    return rev_lambda(lam, t.rho)
