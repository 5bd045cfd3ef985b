"""
Independent brute-force reimplementations used for differential testing, plus
a runnable self-check corpus.

Everything here favors transparency over speed: channels by subset
enumeration, complete stream families by exact-cover backtracking over
residue classes, symmetric-function products by raw monomial expansion.
Guards keep the exponential searches at desk scale.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from typing import Sequence

from .affine import AffinePerm, InvariantError, PartialPerm, _ceil_div, partitions
from .matrixball import Stream, _phi_win, channels, phi, psi, psi_triple
from .repring import VirtualChar, check_gl_weight, tensor_gl
from .tabloids import anticanonical_tabloid, equal_part_runs, rev_lambda


@dataclass(frozen=True)
class OracleReport:
    case: str
    expected: str
    actual: str
    passed: bool

    def line(self) -> str:
        status = "ok" if self.passed else "MISMATCH"
        return f"{status:8s} {self.case}: expected {self.expected}, got {self.actual}"

    def to_json(self) -> dict:
        return asdict(self)


# --- channels by enumeration ---------------------------------------------------


def _is_chain(win, n: int, positions: Sequence[int]) -> bool:
    ps = sorted(positions)
    return all(
        0 < win[b - 1] - win[a - 1] < n for a, b in itertools.combinations(ps, 2)
    )


def brute_channels(w: PartialPerm) -> tuple[Stream, ...]:
    """All maximum-density substreams, found by raw subset enumeration."""
    if w.n > 8:
        raise ValueError(f"brute channel search is guarded to n <= 8, got {w.n}")
    dom = w.domain()
    if not dom:
        raise ValueError("empty permutation has no channels")
    best: list[tuple[int, ...]] = []
    for k in range(len(dom), 0, -1):
        for sub in itertools.combinations(dom, k):
            if _is_chain(w.window, w.n, sub):
                best.append(sub)
        if best:
            break
    streams = [Stream(w.n, tuple((x, w.window[x - 1]) for x in sub)) for sub in best]
    return tuple(sorted(streams, key=lambda s: s.pairs))


def dominates_by_translates(c: Sequence, other: Sequence, n: int) -> bool:
    """Whether every ball (x, v) of c has a translate k of a ball (xo, vo) of
    ``other`` weakly to its northeast: ceil((v - vo) / n) <= k <= (x - xo) // n."""
    return all(any(_ceil_div(v - vo, n) <= (x - xo) // n for xo, vo in other) for x, v in c)


def brute_southwest_channel(w: PartialPerm) -> Stream:
    """The channel of ``brute_channels`` every channel dominates from the northeast."""
    chans = brute_channels(w)
    sw = [c for c in chans if all(dominates_by_translates(c.pairs, o.pairs, w.n) for o in chans)]
    if len(sw) != 1:
        raise InvariantError(f"expected a unique southwest channel, found {len(sw)}: {w.window}")
    return sw[0]


def chain_runs_by_scan(vs: Sequence[int], n: int) -> list[list[tuple[int, int, int]]]:
    """
    The chain table of the balls with values ``vs`` (in window order), each
    ball's run found by scanning every later ball of its anchor: per anchor
    ball a, the balls b with b == a or b > a and vs[b] in (vs[a], vs[a] + n),
    as (b, vs[b], run) in window order, where run is 1 + the greatest run of a
    later such ball with a larger value.  ``matrixball._chain_runs`` builds
    the same table with a per-length frontier.
    """
    table = []
    for a, low in enumerate(vs):
        cap = low + n
        nodes: list[tuple[int, int, int]] = []
        for b in range(len(vs) - 1, a - 1, -1):
            v = vs[b]
            if low <= v < cap:
                nodes.append((b, v, 1 + max((r for _, u, r in nodes if u > v), default=0)))
        nodes.reverse()
        table.append(nodes)
    return table


# --- backward numbering by single decrements ------------------------------------

def settle_by_decrement(
    xs: Sequence[int], vs: Sequence[int], lab: Sequence[int], n: int, d: int
) -> list[int]:
    """
    Settle a backward numbering one decrement at a time, starting from the
    labels ``lab`` of the balls (xs[t], vs[t]) against a stream of density d.

    Each pass scans the balls in list order and lowers by 1 the label of the
    first ball that (i) has a translate of some ball strictly southeast of it
    with a label at most its own, and (ii) has only strictly smaller labels
    strictly northwest of it.  It stops when no ball qualifies, at the
    greatest labeling at or below ``lab`` that strictly increases along strict
    northwest order, whatever the scan order; ``matrixball._bk_labels``
    reaches the same labeling from ``matrixball._seed`` by the min-plus
    relaxation ``matrixball._settle``.

    No settled labeling goes below min(lab) - (m - 1): the chain that sets a
    label repeats no ball modulo n, so it has at most m - 1 steps, each to a
    translate by k >= 0.  A label below that floor raises InvariantError
    naming n, d and the balls.
    """
    lab = list(lab)
    m = len(xs)
    floor = min(lab, default=0) - (m - 1)
    while True:
        for t in range(m):
            x, v, lt = xs[t], vs[t], lab[t]
            # smallest shift k with the translate of u strictly southeast of t
            below = any(
                lab[u] + max((x - xs[u]) // n + 1, (v - vs[u]) // n + 1) * d <= lt
                for u in range(m)
            )
            # largest shift k with the translate of u strictly northwest of t
            if below and all(
                lab[u] + min(-((xs[u] - x) // n) - 1, -((vs[u] - v) // n) - 1) * d < lt
                for u in range(m)
            ):
                lab[t] -= 1
                if lab[t] < floor:
                    raise InvariantError(
                        f"decrement settle fell below the floor {floor}: n={n}, d={d}, "
                        f"balls={list(zip(xs, vs))}"
                    )
                break
        else:
            return lab


# --- channel numbering by round-robin relaxation -----------------------------------


def channel_labels_round_robin(win, n: int, channel: Sequence[int]) -> dict[int, int]:
    """
    Number the balls of the window ``win`` by longest paths out of the proper
    numbering of ``channel`` (its window positions; the one with the smallest
    window x is anchored at 1), relaxing one pair of balls at a time.

    Each non-channel ball starts at the largest label a channel translate
    strictly northwest of it gives.  Each round then visits the balls in
    window order and, for every ball j, raises the label of ball x to
    lab[j] + k d + 1 for the largest k whose translate of j by k(n, n) lies
    strictly northwest of x.  It stops at the least labeling at or above the
    seed that satisfies every such bound, whatever the visiting order;
    ``matrixball._channel_labels`` reaches the same labeling by running
    ``matrixball._settle`` on the balls turned by 180 degrees, the channel
    balls at their labels and the others unbounded.
    """
    dom = [i + 1 for i, v in enumerate(win) if v is not None]
    d = len(channel)
    base = {x: i + 1 for i, x in enumerate(sorted(channel))}
    labels = {x: base.get(x) for x in dom}
    for x in dom:
        if labels[x] is None:
            labels[x] = max(
                base[c] + min((x - c - 1) // n, (win[x - 1] - win[c - 1] - 1) // n) * d + 1
                for c in base
            )
    for _ in range(len(dom) + 2):
        changed = False
        for x in dom:
            wx = win[x - 1]
            for j in dom:
                k = min((x - j - 1) // n, (wx - win[j - 1] - 1) // n)
                cand = labels[j] + k * d + 1
                if cand > labels[x]:
                    labels[x] = cand
                    changed = True
        if not changed:
            break
    else:
        raise InvariantError("round-robin channel numbering failed to stabilize")
    if any(labels[x] != base[x] for x in channel):
        raise InvariantError("round-robin channel numbering moved a channel ball")
    return labels


# --- complete stream families ----------------------------------------------------


def brute_complete_stream_families(w: PartialPerm) -> list[tuple[tuple[int, ...], ...]]:
    """
    All partitions of the ball set into disjoint streams whose densities
    realize the cell shape of w; each family lists the streams' window
    position sets, ordered by the shape's rows.
    """
    if w.n > 10:
        raise ValueError(f"stream-family search is guarded to n <= 10, got {w.n}")
    lam = tuple(len(r) for r in _phi_win(w.window, w.n)[0])
    dom = w.domain()
    families: list[tuple[tuple[int, ...], ...]] = []

    def rec(remaining: tuple[int, ...], row: int, acc: tuple[tuple[int, ...], ...]):
        if row == len(lam):
            if not remaining:
                families.append(acc)
            return
        size = lam[row]
        for sub in itertools.combinations(remaining, size):
            # canonical order of equal-density streams: increasing minima
            if row > 0 and lam[row - 1] == size and sub[0] < acc[-1][0]:
                continue
            if _is_chain(w.window, w.n, sub):
                rest = tuple(x for x in remaining if x not in sub)
                rec(rest, row + 1, acc + (sub,))

    rec(dom, 0, ())
    return families


def stream_altitude(w: PartialPerm, positions: Sequence[int]) -> int:
    return sum(_ceil_div(w.window[x - 1], w.n) - 1 for x in positions)


def epsilon_from_families(w: PartialPerm) -> tuple[int, ...]:
    """
    The weight read off a complete stream family: altitudes sorted descending
    inside every run of equal densities.  Checks that every family yields the
    same answer.
    """
    families = brute_complete_stream_families(w)
    if not families:
        raise ValueError("no complete stream family exists")
    lam = tuple(len(s) for s in families[0])
    answers = set()
    for fam in families:
        alts = [stream_altitude(w, s) for s in fam]
        for a, b in equal_part_runs(lam):
            alts[a:b] = sorted(alts[a:b], reverse=True)
        answers.add(tuple(alts))
    if len(answers) != 1:
        raise ValueError(f"family-dependent weight: {sorted(answers)}")
    return answers.pop()


# --- symmetric function products --------------------------------------------------


def _lr_tableau_count(kappa: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Number of Littlewood-Richardson skew tableaux of shape kappa/mu and
    content nu (semistandard, reverse reading word a lattice word), found by
    filling the cells one at a time."""
    rows = len(kappa)
    mu = mu + (0,) * (rows - len(mu))
    cells = [(r, c) for r in range(rows) for c in range(kappa[r] - 1, mu[r] - 1, -1)]
    remaining = list(nu)
    filling: dict[tuple[int, int], int] = {}

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right = filling.get((r, c + 1))
        above = filling.get((r - 1, c)) if r > 0 and c >= mu[r - 1] else None
        total = 0
        for v in range(1, len(nu) + 1):
            if remaining[v - 1] == 0:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            # lattice condition on the reverse reading word: every prefix has
            # at least as many (v-1)s as vs
            if v > 1 and (nu[v - 2] - remaining[v - 2]) < (nu[v - 1] - remaining[v - 1]) + 1:
                continue
            remaining[v - 1] -= 1
            filling[(r, c)] = v
            total += place(idx + 1)
            del filling[(r, c)]
            remaining[v - 1] += 1
        return total

    return place(0)


def lr_by_tableaux(mu: Sequence[int], nu: Sequence[int], max_rows: int) -> dict[tuple[int, ...], int]:
    """
    Expand s_mu * s_nu over partitions with at most max_rows rows by
    enumerating every shape kappa containing mu and counting the
    Littlewood-Richardson tableaux of shape kappa/mu and content nu;
    the kernel ``repring._lr_kernel`` reaches the same coefficients on
    dominant weights, unshifted, in one pass over horizontal strips
    (``repring._lr_product`` reads it through a memo of lowered pairs).
    """
    mu = tuple(p for p in mu if p)
    nu = tuple(p for p in nu if p)
    if not nu:
        return {mu: 1}
    if not mu:
        return {nu: 1} if len(nu) <= max_rows else {}
    total = sum(mu) + sum(nu)

    out: dict[tuple[int, ...], int] = {}

    def kappas(row: int, prev: int, used: int):
        if row == max_rows:
            if used == total:
                yield ()
            return
        base = mu[row] if row < len(mu) else 0
        hi = min(prev, base + nu[0] if row == 0 else prev)
        for part in range(base, hi + 1):
            if used + part > total:
                break
            for rest in kappas(row + 1, part, used + part):
                yield (part,) + rest

    for kappa in kappas(0, total, 0):
        kappa = tuple(p for p in kappa if p)
        if len(kappa) < len(mu):  # max_rows < len(mu): kappa cannot contain mu
            continue
        coeff = _lr_tableau_count(kappa, mu, nu)
        if coeff:
            out[kappa] = coeff
    return out


def _ssyt_monomials(shape: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the Schur polynomial in m variables: sum over
    semistandard tableaux of the shape with entries in 1..m (none, so {},
    when the shape has more than m rows)."""
    shape = tuple(p for p in shape if p)
    if not shape:
        return {(0,) * m: 1}
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    out: dict[tuple[int, ...], int] = {}
    filling: dict[tuple[int, int], int] = {}

    def rec(idx: int):
        if idx == len(cells):
            weight = [0] * m
            for v in filling.values():
                weight[v - 1] += 1
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[idx]
        lo = filling.get((r, c - 1), 1)
        above = filling.get((r - 1, c))
        lo = max(lo, above + 1 if above is not None else 1)
        for v in range(lo, m + 1):
            filling[(r, c)] = v
            rec(idx + 1)
            del filling[(r, c)]

    rec(0)
    return out


def _poly_mul(p: dict, q: dict, m: int) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def brute_schur_product(mu: Sequence[int], nu: Sequence[int], m: int) -> VirtualChar:
    """
    Multiply two Laurent-Schur polynomials by explicit monomial expansion and
    re-expand in the Schur basis by lex-leading-term elimination.
    """
    if m > 3:
        raise ValueError(f"brute Schur products are guarded to m <= 3, got {m}")
    mu = check_gl_weight(mu, m)
    nu = check_gl_weight(nu, m)
    c1 = max(0, -mu[-1])
    c2 = max(0, -nu[-1])
    poly = _poly_mul(
        _ssyt_monomials(tuple(x + c1 for x in mu), m),
        _ssyt_monomials(tuple(x + c2 for x in nu), m),
        m,
    )
    out: VirtualChar = {}
    while poly:
        lead = max(poly)
        if any(a < b for a, b in zip(lead, lead[1:])):
            raise ValueError(f"lex-leading exponent {lead} is not dominant")
        coeff = poly[lead]
        out[tuple(x - c1 - c2 for x in lead)] = coeff
        for key, c in _ssyt_monomials(lead, m).items():
            k = poly.get(key, 0) - coeff * c
            if k:
                poly[key] = k
            else:
                poly.pop(key, None)
    return out


# --- self-check corpus -------------------------------------------------------------


def _random_affine_perm(rng: random.Random, n: int, spread: int = 2) -> AffinePerm:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return AffinePerm(n, tuple(v + n * rng.randint(-spread, spread) for v in vals))


def _report(case: str, expected, actual) -> OracleReport:
    return OracleReport(case, str(expected), str(actual), expected == actual)


def self_check(seed: int = 20240601, samples: int = 60) -> list[OracleReport]:
    """
    Differential corpus: the fast channel search against subset enumeration,
    forward/backward round trips, the diagonal-cell weight against
    stream-family altitudes, and tensor products against raw polynomial
    arithmetic.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0: {samples}")
    rng = random.Random(seed)
    reports: list[OracleReport] = []

    for i in range(samples):
        n = rng.randint(2, 8)
        w = _random_affine_perm(rng, n)
        fast = tuple(s.pairs for s in channels(w))
        slow = tuple(s.pairs for s in brute_channels(w))
        reports.append(_report(f"channels[{i}] n={n}", slow, fast))

    for i in range(samples):
        n = rng.randint(2, 8)
        w = _random_affine_perm(rng, n)
        t = phi(w)
        reports.append(_report(f"roundtrip[{i}] n={n}", w.window, psi_triple(t).window))

    count = 0
    for n in range(2, 8):
        for lam in partitions(n):
            anti = anticanonical_tabloid(lam)
            for _ in range(3):
                rho = _random_dominant_diag(rng, lam)
                w = psi(anti, anti, rho)
                expected = rev_lambda(lam, rho)
                actual = epsilon_from_families(w)
                reports.append(_report(f"epsilon[{count}] lam={lam}", expected, actual))
                count += 1

    for i in range(samples):
        m = rng.randint(1, 3)
        mu = tuple(sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True))
        nu = tuple(sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True))
        fast = tensor_gl(mu, nu)
        slow = brute_schur_product(mu, nu, m)
        reports.append(_report(f"schur[{i}] m={m}", sorted(slow.items()), sorted(fast.items())))

    return reports


def _random_dominant_diag(rng: random.Random, lam: tuple[int, ...]) -> tuple[int, ...]:
    """A random altitude vector dominant for a diagonal tabloid pair: weakly
    increasing on every equal-part run."""
    rho = []
    for a, b in equal_part_runs(lam):
        block = sorted(rng.randint(-2, 2) for _ in range(b - a))
        rho.extend(block)
    return tuple(rho)
