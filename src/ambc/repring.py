"""
The representation ring side: tensor products of rational GL_m irreducibles
with possibly negative highest weights, assembled block-wise into the ring
attached to a partition (one GL factor per equal-part multiplicity).

Products are computed by the Littlewood-Richardson rule: both weights are
shifted by determinant powers until they are partitions, the labels of the
factor with fewer boxes are placed on the other one in a single pass, each
label's boxes as a horizontal strip whose row counts keep the lattice-word
condition, and the shift is undone.  The Weyl dimension formula is included
as a verification oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Sequence

from .affine import InvariantError, _trusted, check_gl_weight, check_partition, compact_json, parse_ints, read_json
from .tabloids import RowVector, equal_part_runs

GLWeight = tuple[int, ...]
VirtualChar = dict  # weight -> nonzero integer multiplicity


@dataclass(frozen=True)
class FWeight:
    """
    A dominant weight of the product group attached to ``shape``: one
    weakly decreasing block per equal-part run of the shape, listed in row
    order (largest parts first).

    >>> FWeight((3, 3, 1), ((1, -2), (3,))).flatten()
    (1, -2, 3)
    """

    shape: tuple[int, ...]
    blocks: tuple[GLWeight, ...]

    def __post_init__(self):
        shape = check_partition(self.shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        runs = equal_part_runs(shape)
        if len(self.blocks) != len(runs):
            raise ValueError(f"expected {len(runs)} blocks for shape {shape}, got {self.blocks}")
        for (a, b), block in zip(runs, self.blocks):
            check_gl_weight(block, b - a)

    def flatten(self) -> RowVector:
        """The row vector aligned with the rows of the shape."""
        return tuple(x for block in self.blocks for x in block)

    def block_of_part(self, part: int) -> GLWeight:
        for (a, _), block in zip(equal_part_runs(self.shape), self.blocks):
            if self.shape[a] == part:
                return block
        raise ValueError(f"{part} is not a part of {self.shape}")


def fweight_from_rows(lam: Sequence[int], vec: Sequence[int]) -> FWeight:
    """Cut a row vector (weakly decreasing on each equal-part run) into blocks."""
    vec = tuple(vec)
    if len(vec) != len(lam):
        raise ValueError(f"vector length {len(vec)} != rows {len(lam)}")
    return FWeight(lam, tuple(vec[a:b] for a, b in equal_part_runs(lam)))


def zero_fweight(lam: Sequence[int]) -> FWeight:
    return FWeight(lam, tuple((0,) * (b - a) for a, b in equal_part_runs(lam)))


def is_determinantal(lam: Sequence[int], rho: Sequence[int]) -> bool:
    """True iff rho is constant on every equal-part run of lam."""
    lam = check_partition(lam)
    rho = tuple(rho)
    if len(rho) != len(lam):
        raise ValueError(f"length mismatch: {lam} vs {rho}")
    return all(len(set(rho[a:b])) == 1 for a, b in equal_part_runs(lam))


# --- Littlewood-Richardson ----------------------------------------------------


def _add_strips(kappa: tuple, prev: tuple, k: int, slack: int, nxt: dict, mult: int) -> None:
    """
    Add to ``nxt`` every way to put k boxes of the next label on ``kappa`` as
    a horizontal strip, a_r boxes in row r, with the lattice condition
    a_0 + ... + a_r <= prev_0 + ... + prev_{r-1} against the row counts
    ``prev`` of the previous label (``slack`` is that bound's slack before
    row 0).  Each result is keyed by its shape and its row counts.
    """
    rows = len(kappa)
    last = kappa[-1]
    stack = [(0, k, slack, ())]
    while stack:
        r, left, slack, adds = stack.pop()
        if not left:
            adds += (0,) * (rows - r)
            key = (tuple(map(add, kappa, adds)), adds)
            nxt[key] = nxt.get(key, 0) + mult
            continue
        hi = left if left < slack else slack
        if r and kappa[r - 1] - kappa[r] < hi:
            hi = kappa[r - 1] - kappa[r]
        # the rows below r hold at most kappa[r] - last boxes of a strip
        lo = left - kappa[r] + last
        for a in range(lo if lo > 0 else 0, hi + 1):
            stack.append((r + 1, left - a, slack - a + prev[r], adds + (a,)))


def _lr_product(mu: tuple[int, ...], nu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """
    Expand s_mu * s_nu over partitions with at most len(mu) rows, for
    partitions mu and nu zero-padded to one length (every key is padded the
    same way): place the labels 1, 2, ... of the factor with fewer boxes on
    the other one, each label's boxes as a horizontal strip whose row counts
    keep the lattice condition against the previous label's.  Equal (shape,
    row counts) states merge with their multiplicities added.

    >>> _lr_product((2, 1, 0), (2, 1, 0))[(3, 2, 1)]
    2
    """
    if sum(nu) > sum(mu):
        mu, nu = nu, mu
    zeros = (0,) * len(mu)
    states = {(mu, zeros): 1}
    for j, k in enumerate(nu):
        if not k:
            break
        nxt: dict = {}
        for (kappa, prev), mult in states.items():
            # label 1 is free of the lattice condition
            _add_strips(kappa, prev, k, 0 if j else k, nxt, mult)
        states = nxt
    out: dict[tuple[int, ...], int] = {}
    for (kappa, _), mult in states.items():
        out[kappa] = out.get(kappa, 0) + mult
    return out


def tensor_gl(mu: Sequence[int], nu: Sequence[int]) -> VirtualChar:
    """
    Decompose the tensor product of the GL_m irreducibles with highest
    weights mu and nu (entries may be negative).  Returns a map from
    dominant weights to multiplicities.

    >>> sorted(tensor_gl((2, 1, 0), (2, 0, 0)))
    [(2, 2, 1), (3, 1, 1), (3, 2, 0), (4, 1, 0)]
    """
    mu = check_gl_weight(mu)
    return _gl_product(mu, check_gl_weight(nu, len(mu)))


def _gl_product(mu: GLWeight, nu: GLWeight) -> VirtualChar:
    # tensor_gl of checked weights: shift to partitions, multiply, shift back
    c1 = max(0, -mu[-1])
    c2 = max(0, -nu[-1])
    raw = _lr_product(tuple(x + c1 for x in mu), tuple(x + c2 for x in nu))
    shift = c1 + c2
    return {tuple(x - shift for x in kappa): coeff for kappa, coeff in raw.items()}


def tensor_f(r1: FWeight, r2: FWeight) -> VirtualChar:
    """
    Block-wise tensor product in the ring attached to a shape: decompose each
    GL factor separately and combine multiplicatively.
    """
    if r1.shape != r2.shape:
        raise ValueError(f"shape mismatch: {r1.shape} vs {r2.shape}")
    return {_trusted(FWeight, r1.shape, blocks): c for blocks, c in _block_product(r1.blocks, r2.blocks)}


def _block_product(blocks1, blocks2) -> list[tuple[tuple[GLWeight, ...], int]]:
    """
    tensor_f on the blocks of two dominant weights of one shape: one (blocks,
    multiplicity) per summand, each factor decomposed once and its weights
    checked dominant once (an InvariantError naming the factor if not).
    """
    combos: list[tuple[tuple[GLWeight, ...], int]] = [((), 1)]
    for b1, b2 in zip(blocks1, blocks2):
        factor = _gl_product(b1, b2)
        for kappa in factor:
            if any(x < y for x, y in zip(kappa, kappa[1:])):
                raise InvariantError(f"tensor product of {b1} and {b2} gave the non-dominant weight {kappa}")
        combos = [
            (blocks + (w,), c * mult) for blocks, c in combos for w, mult in factor.items()
        ]
    return combos


def dim_gl(mu: Sequence[int]) -> int:
    """
    Dimension of the GL irreducible with highest weight mu, by the Weyl
    formula prod_{i<j} (mu_i - mu_j + j - i) / (j - i).

    >>> dim_gl((2, 1, 0))
    8
    """
    mu = check_gl_weight(mu)
    m = len(mu)
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= mu[i] - mu[j] + j - i
            den *= j - i
    if num % den:
        raise InvariantError(f"Weyl dimension formula gave a non-integer for mu={mu}")
    return num // den


def dim_f(fw: FWeight) -> int:
    """Product of the factor dimensions."""
    return math.prod(dim_gl(b) for b in fw.blocks)


# --- text formats ---------------------------------------------------------------


def parse_gl_weight(text: str) -> GLWeight:
    """Parse a comma list like "2,1,0" into a dominant weight."""
    return check_gl_weight(parse_ints(text, "weight"))


def format_fweight(fw: FWeight) -> str:
    return compact_json({"shape": fw.shape, "blocks": fw.blocks})


def parse_fweight(text: str) -> FWeight:
    """Parse the JSON form {"shape": [...], "blocks": [[...], ...]}."""
    data = read_json(text, "weight", ("shape", "blocks"))
    return fweight_from_json(data["shape"], data["blocks"])


def fweight_from_json(shape, blocks) -> FWeight:
    """The FWeight of a decoded JSON ``shape`` (a list of parts) and
    ``blocks`` (a list of lists); any other form is a ValueError."""
    if not (isinstance(shape, list) and isinstance(blocks, list)
            and all(isinstance(b, list) for b in blocks)):
        raise ValueError(f"shape and weight blocks must be JSON lists: {shape!r}, {blocks!r}")
    return FWeight(tuple(shape), tuple(tuple(b) for b in blocks))
