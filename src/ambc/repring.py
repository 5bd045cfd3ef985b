"""
The representation ring side: tensor products of rational GL_m irreducibles
with possibly negative highest weights, assembled block-wise into the ring
attached to a partition (one GL factor per equal-part multiplicity).

Products are computed by the Littlewood-Richardson rule on the weights as
they are: the labels of the factor with fewer boxes above its last part are
placed in a single pass on the other factor raised by that last part, each
label's boxes as a horizontal strip whose row counts keep the lattice-word
condition.  Strips read only differences of parts, so no weight is shifted
to a partition and back.  The Weyl dimension formula is included as a
verification oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .affine import InvariantError, _trusted, check_gl_weight, check_partition, parse_ints, read_json
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


def is_determinantal(lam: Sequence[int], rho: Sequence[int]) -> bool:
    """True iff rho is constant on every equal-part run of lam."""
    lam = check_partition(lam)
    rho = tuple(rho)
    if len(rho) != len(lam):
        raise ValueError(f"length mismatch: {lam} vs {rho}")
    return all(len(set(rho[a:b])) == 1 for a, b in equal_part_runs(lam))


# --- Littlewood-Richardson ----------------------------------------------------


def _lr_product(mu: GLWeight, nu: GLWeight) -> VirtualChar:
    """
    Decompose the tensor product of the GL_m irreducibles with dominant
    weights mu and nu of one length m (partitions included) by the
    Littlewood-Richardson rule, without shifting either to a partition.
    The factor with fewer boxes above its last part gives the labels, label
    j + 1 with nu[j] - nu[-1] boxes, placed in turn on the other factor
    raised by nu[-1]: each as a horizontal strip, a_r boxes in row r, whose
    running row counts keep the lattice condition a_0 + ... + a_r <= prev_0
    + ... + prev_{r-1} against the previous label's.  That condition keeps
    label j + 1 out of the rows above row j; the last row takes what is
    left.  Equal (weight, row counts) states merge with their multiplicities
    added, the final label's by weight alone.

    >>> _lr_product((2, 1, 0), (2, 1, 0))[(3, 2, 1)]
    2
    """
    m = len(mu)
    if sum(nu) - m * nu[-1] > sum(mu) - m * mu[-1]:
        mu, nu = nu, mu
    low = nu[-1]
    raised = tuple(x + low for x in mu)
    labels = [x - low for x in nu[:-1] if x > low]
    if not labels:
        return {raised: 1}
    states = {(raised, (0,) * m): 1}
    out: VirtualChar = {}
    final = len(labels) - 1
    for j, k in enumerate(labels):
        nxt: dict = {} if j < final else out
        for (kappa, prev), mult in states.items():
            # label 1 is free of the lattice condition
            stack = [(j, k, prev[j - 1] if j else k, kappa[:j], (0,) * j)]
            while stack:
                r, left, slack, head, adds = stack.pop()
                hi = left if left < slack else slack
                if r and kappa[r - 1] - kappa[r] < hi:
                    hi = kappa[r - 1] - kappa[r]
                # the rows below r hold at most kappa[r] - kappa[-1] boxes
                lo = left - kappa[r] + kappa[-1]
                if lo < 0:
                    lo = 0
                if r == m - 2:
                    if left > slack + prev[r]:  # the last row breaks the lattice condition
                        continue
                    for a in range(lo, hi + 1):
                        key = head + (kappa[r] + a, kappa[-1] + left - a)
                        if j < final:
                            key = (key, adds + (a, left - a))
                        nxt[key] = nxt.get(key, 0) + mult
                    continue
                for a in range(lo, hi + 1):
                    if a == left:  # the strip is complete
                        key = head + (kappa[r] + a,) + kappa[r + 1:]
                        if j < final:
                            key = (key, adds + (a,) + (0,) * (m - r - 1))
                        nxt[key] = nxt.get(key, 0) + mult
                    else:
                        stack.append((r + 1, left - a, slack - a + prev[r], head + (kappa[r] + a,), adds + (a,)))
        states = nxt
    return out


def tensor_gl(mu: Sequence[int], nu: Sequence[int]) -> VirtualChar:
    """
    Decompose the tensor product of the GL_m irreducibles with highest
    weights mu and nu (entries may be negative) by ``_lr_product``.  Returns
    a map from dominant weights to multiplicities.

    >>> sorted(tensor_gl((2, 1, 0), (2, 0, 0)))
    [(2, 2, 1), (3, 1, 1), (3, 2, 0), (4, 1, 0)]
    """
    mu = check_gl_weight(mu)
    return _lr_product(mu, check_gl_weight(nu, len(mu)))


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
        factor = _lr_product(b1, b2)
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
