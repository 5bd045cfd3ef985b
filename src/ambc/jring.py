"""
The asymptotic Hecke algebra of the extended affine symmetric group as a
based ring on basis symbols t_w, multiplied through its matrix-algebra
presentation: the block of a two-sided cell is a matrix algebra over the
representation ring of the attached product of general linear groups, with
rows and columns indexed by the P- and Q-tabloids and entries read off by
the forward map.

Concretely, t_u * t_v vanishes unless the shapes agree and Q(u) = P(v);
otherwise the weights of the coordinates upsilon(u), upsilon(v) (defined in
``cells``) tensor-multiply in the representation ring and each summand is
carried back through upsilon_inverse.  Products run on the rows and weight
blocks of the coordinates, computed once per factor and kept in a memo of
4096 factors that only ``j_multiply`` reads.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .affine import AffinePerm, is_nonextended
from .cells import _from_coordinates, distinguished_involutions
from .matrixball import _forward
from .repring import _block_product
from .tabloids import offset_rows

JElement = dict  # AffinePerm -> nonzero integer coefficient

# The factors of J-ring products recur: one cycle of the benchmark's
# cell_tables workload multiplies 2,732 distinct elements in 10,080 products,
# and 4096 entries (24 MB at n = 64) keep them all.  phi and the coordinate
# maps meet elements that rarely repeat, so they call _forward.
_coordinates = lru_cache(maxsize=4096)(_forward)


def t_basis(w: AffinePerm) -> JElement:
    return {w: 1}


def t_multiply(u: AffinePerm, v: AffinePerm) -> JElement:
    """
    The product t_u * t_v expanded in the t-basis.

    Zero across distinct two-sided cells and whenever Q(u) != P(v); otherwise
    the entries tensor-multiply and each output weight is carried back
    through the backward map.
    """
    return j_multiply(t_basis(u), t_basis(v))


def j_multiply(a: JElement, b: JElement) -> JElement:
    """Bilinear extension of t_multiply, from the coordinates of each element
    of a and of b, read from a memo of the last 4096 factors mapped (a forward
    map on a miss); zero coefficients are dropped."""
    periods = sorted({w.n for w in a} | {w.n for w in b})
    if len(periods) > 1:
        raise ValueError(f"period mismatch: {' != '.join(map(str, periods))}")
    right = [(_coordinates(v), cv) for v, cv in b.items()]
    out: JElement = {}
    for u, cu in a.items():
        pu, qu, _, wu = _coordinates(u)
        for (pv, qv, _, wv), cv in right:
            if qu != pv:  # tabloids of different shapes never agree
                continue
            s = offset_rows(pu, qv)  # s_{P(u),Q(v)}, once per product
            for blocks, mult in _block_product(wu, wv):
                w = _from_coordinates(pu, qv, s, blocks, u.n)
                out[w] = out.get(w, 0) + cu * cv * mult
    return {w: c for w, c in out.items() if c}


def unit(lam: Sequence[int], n: int) -> JElement:
    """
    The unit of the cell block of shape lam: the sum of t_w over the
    distinguished involutions of the cell.
    """
    return {w: 1 for w in distinguished_involutions(lam, n)}


# The altitude vector of phi(w) sums to (sum(w.window) - n(n+1)/2) / n, so
# the window sum decides both quotients without the forward map.
pgl_member = is_nonextended


def sl_reduce(a: JElement) -> JElement:
    """
    Rewrite each basis symbol to the canonical representative of its class
    modulo the central shift omega^n (which adds the shape to the altitude
    vector and n^2 to the window sum); the representative has altitude sum
    in [0, n).
    """
    out: JElement = {}
    for w, c in a.items():
        k = (sum(w.window) - w.n * (w.n + 1) // 2) // w.n**2
        rep = AffinePerm(w.n, tuple(v - k * w.n for v in w.window)) if k else w
        out[rep] = out.get(rep, 0) + c
    return {w: c for w, c in out.items() if c}
