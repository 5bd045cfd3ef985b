"""
The Lusztig-Vogan bijection, computed through the matrix-ball construction.

Forward direction: a dominant GL_n weight mu is identified with the affine
permutation [n*mu_1 + 1, ..., n*mu_n + n]; its minimal double-coset
representative lands in the diagonal intersection of the canonical left cell
with its inverse, where the forward map reads off the shape and (after block
reversal) a dominant weight of the attached product group.  Backward: feed
the weight through the backward map at the canonical tabloid and collect the
window's block diagonals.

The integer tableaux built here (balanced columns, with the first-row
entries topped up by a minimal-square water filling) give the dominant
weights matched to the one-row generator weights; they are exercised by the
test suite as an independent cross-check of both directions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .affine import (
    AffinePerm,
    InvariantError,
    check_partition,
    compact_json,
    conjugate_partition,
    from_dominant_weight,
    min_double_coset_rep,
    read_json,
    window_diagonals,
)
from .cells import _from_coordinates, upsilon
from .repring import FWeight, fweight_from_json
from .tabloids import _canonical_rows, canonical_tabloid


@dataclass(frozen=True)
class LVPair:
    """A nilpotent-orbit shape together with a dominant weight of the
    attached product group."""

    shape: tuple[int, ...]
    weight: FWeight

    def __post_init__(self):
        object.__setattr__(self, "shape", check_partition(self.shape))
        if self.weight.shape != self.shape:
            raise ValueError(f"weight shape {self.weight.shape} != {self.shape}")


def theta1(mu: Sequence[int]) -> LVPair:
    """
    The bijection from dominant GL_n weights to pairs (shape, weight).

    >>> theta1((0, 0, 0)) == LVPair((3,), FWeight((3,), ((0,),)))
    True
    """
    p, q, weight = upsilon(min_double_coset_rep(from_dominant_weight(mu)))
    can = canonical_tabloid(p.shape())
    if p != can or q != can:
        raise InvariantError(
            f"double-coset representative escaped the canonical cell: {p.rows} vs {can.rows}"
        )
    return LVPair(p.shape(), weight)


def theta1_inverse(lam: Sequence[int], weight: FWeight) -> tuple[int, ...]:
    """
    The inverse bijection: the dominant GL_n weight whose class meets the
    backward image of the canonical tabloid pair at the given weight.

    >>> theta1_inverse((3,), FWeight((3,), ((2,),)))
    (1, 1, 0)
    """
    return window_diagonals(lv_window(lam, weight))


def lv_window(lam: Sequence[int], weight: FWeight) -> AffinePerm:
    """The canonical-cell window representing (lam, weight): the offset
    constants of the canonical tabloid pair vanish."""
    pair = LVPair(lam, weight)
    can = _canonical_rows(pair.shape)
    return _from_coordinates(can, can, (0,) * len(can), weight.blocks, sum(pair.shape))


def w_tableau_zero(lam: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """
    The balanced tableau of shape lam: column j holds the centered ladder
    (h-1, h-3, ..., 1-h) for h the column height, read top to bottom.

    >>> w_tableau_zero((3, 3, 2, 2, 1))
    ((4, 3, 1), (2, 1, -1), (0, -1), (-2, -3), (-4,))
    """
    conj = conjugate_partition(lam)
    return tuple(
        tuple(conj[j] - 1 - 2 * i for j in range(lam[i])) for i in range(len(lam))
    )


def _water_fill(a: Sequence[int], s: int) -> tuple[int, ...]:
    """Raise entries of the weakly decreasing vector a by s unit steps, each
    step incrementing the smallest entry that keeps the vector weakly
    decreasing; this minimizes the sum of squares at fixed sum."""
    b = list(a)
    for _ in range(s):
        eligible = [i for i in range(len(b)) if i == 0 or b[i] < b[i - 1]]
        i = min(eligible, key=lambda i: b[i])
        b[i] += 1
    return tuple(b)


def w_tableau(lam: Sequence[int], r: int, s: int) -> tuple[tuple[int, ...], ...]:
    """
    The balanced tableau with its first r first-row entries replaced by the
    minimal-square top-up of total weight s.

    >>> w_tableau((3, 3, 2, 2, 1), 2, 5)[0]
    (6, 6, 1)
    """
    if r not in lam:
        raise ValueError(f"{r} is not a part of {lam}")
    if s < 0:
        raise ValueError(f"negative weight {s}")
    base = w_tableau_zero(lam)
    first = _water_fill(base[0][:r], s) + base[0][r:]
    return (first,) + base[1:]


def mu_lambda_zero(lam: Sequence[int]) -> tuple[int, ...]:
    """The dominant weight collecting the balanced tableau's entries."""
    return tuple(sorted((x for row in w_tableau_zero(lam) for x in row), reverse=True))


def mu_lambda(lam: Sequence[int], r: int, s: int) -> tuple[int, ...]:
    """
    The dominant weight collecting the entries of the topped-up tableau.

    >>> mu_lambda((3, 3, 1), 3, 2)
    (2, 2, 2, 0, -1, -1, -2)
    """
    return tuple(sorted((x for row in w_tableau(lam, r, s) for x in row), reverse=True))


# --- text format -----------------------------------------------------------------


def format_lv_pair(p: LVPair) -> str:
    return compact_json({"shape": p.shape, "weight_blocks": p.weight.blocks})


def parse_lv_pair(text: str) -> LVPair:
    """Parse the JSON form {"shape": [...], "weight_blocks": [[...], ...]}."""
    data = read_json(text, "pair", ("shape", "weight_blocks"))
    weight = fweight_from_json(data["shape"], data["weight_blocks"])
    return LVPair(weight.shape, weight)
