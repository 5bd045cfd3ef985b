"""
Extended affine permutations in window notation.

An extended affine permutation of period n is a bijection w: Z -> Z with
w(i + n) = w(i) + n.  It is determined by its *window* [w(1), ..., w(n)],
whose entries are pairwise distinct modulo n.  A *partial* permutation allows
holes in the window (an injection defined on a union of residue classes).

The plane picture: w is identified with its set of *balls* (i, w(i)), drawn
in matrix coordinates (x grows southward, y grows eastward).  Block
coordinates and block diagonals of balls are the bookkeeping used by the
Lusztig-Vogan machinery.

Windows are 1-indexed throughout: ``window[i-1] == w(i)``.  Residues are
stored as integers in 1..n.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from operator import lt
from typing import Iterable, Optional, Sequence

Ball = tuple[int, int]


class InvariantError(RuntimeError):
    """An internal postcondition failed; the computation state is corrupt."""


def _ceil_div(a: int, b: int) -> int:
    # ceil(a / b) for b > 0, exact on negative a
    return -((-a) // b)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true/false are bools


def _all_int(values: Sequence, types=frozenset({int})) -> bool:
    """True iff every value is an int but no bool, or has a type in ``types``:
    one C-level pass over the types, then _is_int on the rest."""
    return set(map(type, values)) <= types or all(type(x) in types or _is_int(x) for x in values)


def _trusted(cls, *values):
    """``cls(*values)`` for a frozen dataclass without its ``__post_init__``
    checks, for values the caller has just checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip((field.name for field in fields(cls)), values))
    return obj


def residue(i: int, n: int) -> int:
    """The residue of i in 1..n."""
    return (i - 1) % n + 1


@dataclass(frozen=True)
class PartialPerm:
    """
    A partial affine permutation: a window with optional holes.

    Defined entries must be pairwise distinct modulo n.

    >>> PartialPerm(3, (5, None, 1)).domain()
    (1, 3)
    """

    n: int
    window: tuple[Optional[int], ...]

    def __post_init__(self):
        if not _is_int(self.n):
            raise ValueError(f"period must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"period must be positive, got {self.n}")
        if len(self.window) != self.n:
            raise ValueError(f"window length {len(self.window)} != period {self.n}")
        object.__setattr__(self, "window", tuple(self.window))
        if not _all_int(self.window, {int, type(None)}):
            raise ValueError(f"window entries must be integers or holes: {self.window}")
        seen = set()
        for v in self.window:
            if v is None:
                continue
            r = v % self.n
            if r in seen:
                raise ValueError(f"window values clash modulo {self.n}: {self.window}")
            seen.add(r)

    def __call__(self, i: int) -> Optional[int]:
        """Evaluate w(i) for any integer i (None on holes)."""
        q, r = divmod(i - 1, self.n)
        v = self.window[r]
        return None if v is None else v + q * self.n

    def domain(self) -> tuple[int, ...]:
        """Defined window positions, ascending."""
        return tuple(i for i in range(1, self.n + 1) if self.window[i - 1] is not None)

    def codomain_residues(self) -> tuple[int, ...]:
        """Residues (1..n) of the defined window values, ascending."""
        return tuple(sorted(residue(v, self.n) for v in self.window if v is not None))

    def balls(self) -> tuple[Ball, ...]:
        """One ball (i, w(i)) per defined window position."""
        return tuple((i, self.window[i - 1]) for i in self.domain())

    def is_total(self) -> bool:
        return all(v is not None for v in self.window)


@dataclass(frozen=True)
class AffinePerm(PartialPerm):
    """
    A total extended affine permutation.

    >>> w = AffinePerm(3, (2, 3, 4))
    >>> w(0), w(1), w(7)
    (1, 2, 8)
    """

    def __post_init__(self):
        super().__post_init__()
        if not self.is_total():
            raise ValueError(f"affine permutation window has holes: {self.window}")

    def __call__(self, i: int) -> int:
        q, r = divmod(i - 1, self.n)
        return self.window[r] + q * self.n


def identity(n: int) -> AffinePerm:
    return AffinePerm(n, tuple(range(1, n + 1)))


def shift(n: int, power: int = 1) -> AffinePerm:
    """The shift permutation i -> i + power (window [2,3,...,n+1] for power 1)."""
    return AffinePerm(n, tuple(i + power for i in range(1, n + 1)))


def compose(u: AffinePerm, v: AffinePerm) -> AffinePerm:
    """
    The product u * v, i.e. i -> u(v(i)).

    >>> compose(shift(3), shift(3, -1)) == identity(3)
    True
    """
    if u.n != v.n:
        raise ValueError(f"period mismatch: {u.n} != {v.n}")
    return AffinePerm(u.n, tuple(u(v(i)) for i in range(1, u.n + 1)))


def inverse(w: AffinePerm) -> AffinePerm:
    """
    The inverse permutation, with compose(w, inverse(w)) = identity.

    >>> inverse(shift(4)).window
    (0, 1, 2, 3)
    """
    return AffinePerm(w.n, _inverse_window(w.window, w.n))


def _inverse_window(win: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(1, n + 1):
        q, r = divmod(win[i - 1] - 1, n)
        # w(i) = v means inverse(v) = i, so inverse(r+1) = i - q*n
        out[r] = i - q * n
    return tuple(out)


def descents_right(w: AffinePerm) -> frozenset[int]:
    """Residues i in 1..n with w(i) > w(i+1) (w(n+1) means w(1)+n)."""
    return frozenset(i for i in range(1, w.n + 1) if w(i) > w(i + 1))


def descents(w: AffinePerm) -> tuple[frozenset[int], frozenset[int]]:
    """The pair (left, right) of descent sets; left descents are those of the inverse."""
    return descents_right(inverse(w)), descents_right(w)


def is_nonextended(w: AffinePerm) -> bool:
    """
    True iff w lies in the non-extended affine symmetric group,
    i.e. the window sums to n(n+1)/2.

    >>> is_nonextended(shift(3))
    False
    """
    return sum(w.window) == w.n * (w.n + 1) // 2


def longest_parabolic(lam: Sequence[int], n: int) -> AffinePerm:
    """
    The longest element of the parabolic subgroup S_{lam'_1} x S_{lam'_2} x ...
    embedded block-wise: each block of consecutive positions (sized by the
    conjugate partition) is reversed.

    >>> longest_parabolic((2, 1), 3).window
    (2, 1, 3)
    >>> longest_parabolic((3,), 3) == identity(3)
    True
    """
    lam = check_partition(lam, n)
    win: list[int] = []
    start = 1
    for block in conjugate_partition(lam):
        win.extend(range(start + block - 1, start - 1, -1))
        start += block
    return AffinePerm(n, tuple(win))


def check_partition(lam: Sequence[int], n: Optional[int] = None) -> tuple[int, ...]:
    """Validate a partition (weakly decreasing positive parts), optionally of n."""
    lam = tuple(lam)
    bad = not lam or any(not _is_int(p) or p < 1 for p in lam)
    if bad or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"not a partition: {lam}")
    if n is not None and sum(lam) != n:
        raise ValueError(f"partition {lam} does not sum to {n}")
    return lam


def check_gl_weight(mu: Sequence[int], m: Optional[int] = None) -> tuple[int, ...]:
    """Validate a weakly decreasing integer vector, optionally of length m."""
    mu = tuple(mu)
    if not mu:
        raise ValueError("empty weight")
    if not _all_int(mu):
        raise ValueError(f"weight entries must be integers: {mu}")
    if any(map(lt, mu, mu[1:])):
        raise ValueError(f"weight is not weakly decreasing: {mu}")
    if m is not None and len(mu) != m:
        raise ValueError(f"weight length {len(mu)} != {m}")
    return mu


def conjugate_partition(lam: Sequence[int]) -> tuple[int, ...]:
    """
    The transposed partition.

    >>> conjugate_partition((4, 3, 1))
    (3, 2, 2, 1)
    """
    lam = check_partition(lam)
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def partitions(n: int) -> Iterable[tuple[int, ...]]:
    """All partitions of n, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def block_coordinate(ball: Ball, n: int) -> tuple[int, int]:
    """
    The n-block coordinate (ceil(x/n)-1, ceil(y/n)-1) of a ball.

    >>> block_coordinate((1, 1), 9)
    (0, 0)
    >>> block_coordinate((0, 0), 9)
    (-1, -1)
    """
    x, y = ball
    return _ceil_div(x, n) - 1, _ceil_div(y, n) - 1


def block_diagonal(ball: Ball, n: int) -> int:
    """The block diagonal ceil(y/n) - ceil(x/n) of a ball."""
    x, y = ball
    return _ceil_div(y, n) - _ceil_div(x, n)


def from_dominant_weight(mu: Sequence[int]) -> AffinePerm:
    """
    The affine permutation [n*mu_1 + 1, n*mu_2 + 2, ..., n*mu_n + n] attached
    to a weakly decreasing integer vector mu.

    >>> from_dominant_weight((0, 0, 0)) == identity(3)
    True
    """
    mu = check_gl_weight(mu)
    n = len(mu)
    return AffinePerm(n, tuple(n * m + i for i, m in enumerate(mu, start=1)))


def window_diagonals(w: AffinePerm) -> tuple[int, ...]:
    """Block diagonals of the window balls, sorted descending."""
    return tuple(sorted((block_diagonal(b, w.n) for b in w.balls()), reverse=True))


def min_double_coset_rep(w: AffinePerm) -> AffinePerm:
    """
    The minimal-length element of the double coset S_n w S_n: the unique
    member u with both u(1) < ... < u(n) and u^-1(1) < ... < u^-1(n).

    The multiset of window block diagonals is a complete double-coset
    invariant, and equals the weight mu with w in S_n w_mu S_n; sorting the
    window of w_mu ascending lands on the doubly minimal element.

    >>> min_double_coset_rep(identity(4)) == identity(4)
    True
    """
    mu = window_diagonals(w)
    u = from_dominant_weight(mu)
    return AffinePerm(w.n, tuple(sorted(u.window)))


# --- window format -----------------------------------------------------------


def parse_int(text: str, what: str) -> int:
    """Read one integer: an optional minus sign ("-" or "−") and ASCII digits,
    with whitespace around.  Anything else, digits too many for ``int``
    included, is a ValueError naming the ``what``."""
    try:
        if re.fullmatch(r"\s*[-−]?[0-9]+\s*", text):
            return int(text.replace("−", "-"))
    except ValueError:  # more digits than int() converts
        pass
    raise ValueError(f"bad {what} {text!r}")


_WINDOW_RE = re.compile(r"^\[(.*)\]$", re.S)
_HOLES = {"_", "∅"}


def format_window(w: PartialPerm) -> str:
    """Render a window as "[a1,a2,...]" with "_" for holes."""
    return "[" + ",".join("_" if v is None else str(v) for v in w.window) + "]"


def parse_window(text: str, total: bool = False) -> PartialPerm:
    """
    Parse "[a1,a2,...]" (holes written "_" or the empty-set sign) back into a
    permutation.  Returns an AffinePerm when the window is total; with
    ``total``, a window with holes is a ValueError.

    >>> parse_window("[3,7,14,2,18,4,19,8,6]").n
    9
    >>> parse_window("[_,5,1]").domain()
    (2, 3)
    """
    m = _WINDOW_RE.match(text.strip())
    if not m:
        raise ValueError(f"window must look like [a1,a2,...]: {text!r}")
    parts = [p.strip() for p in m.group(1).split(",")] if m.group(1).strip() else []
    win = [None if p in _HOLES else parse_int(p, "window entry") for p in parts]
    if not win:
        raise ValueError(f"empty window: {text!r}")
    if all(v is not None for v in win):
        return AffinePerm(len(win), tuple(win))
    if total:
        raise ValueError(f"window has holes: {text!r}")
    return PartialPerm(len(win), tuple(win))
