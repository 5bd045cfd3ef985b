"""
Bulk sweep machinery for the acceptance suite: exhaustive verification of the
shift and Knuth-move transport laws over every tabloid pair of a shape and
every admissible altitude vector in a box.

A sweep chunk handles one contiguous slice of P-tabloids for one shape.  Each
worker keeps a local memo of backward-map results keyed by (p, q, rho) so the
transported triples (which are themselves grid triples of neighboring pairs)
are computed once.
"""
from __future__ import annotations

import itertools

from ambc.affine import _inverse_window, partitions
from ambc.cells import _star_window, star_tabloid
from ambc.matrixball import _psi_rows, psi_cache_clear
from ambc.tabloids import (
    count_tabloids,
    enumerate_tabloids,
    equal_part_runs,
    iota_vec,
    offset_rows,
    omega_rows,
)

BOX = 2  # altitude entries swept over [-BOX, BOX]


def _tab_data(t):
    n = t.n
    stars = tuple(
        (s.rows if (s := star_tabloid(t, i)) is not None else None) for i in range(1, n + 1)
    )
    return {
        "omega": omega_rows(t.rows, n),
        "iota1": iota_vec(t, 1),
        "iotan": iota_vec(t, n),
        "stars": stars,
    }


def _window_right_shift(win, n):
    # window of w * omega^{-1}: position i holds w(i-1)
    return (win[n - 1] - n,) + win[: n - 1]


def _window_left_shift(win, n):
    # window of omega * w
    return tuple(v + 1 for v in win)


def _grid(n, lam, p_lo, p_hi, stride):
    """The grid triples (P rows, Q rows, rho) of a job (n, lam, p_lo, p_hi,
    stride): P-tabloids with index in [p_lo, p_hi) against the Q-tabloids with
    (p_index + q_index) % stride == 0, so stride 1 is the full pair grid and
    any stride covers every tabloid on both sides, and every rho in the box
    with rho - s_{P,Q} weakly increasing on each run of equal parts of lam."""
    tabs = [t.rows for t in enumerate_tabloids(lam)]
    runs = equal_part_runs(lam)
    box = list(itertools.product(range(-BOX, BOX + 1), repeat=len(lam)))
    for pi in range(p_lo, p_hi):
        prows = tabs[pi]
        for qi, qrows in enumerate(tabs):
            if (pi + qi) % stride:
                continue
            s = offset_rows(prows, qrows)
            for rho in box:
                diff = tuple(r - c for r, c in zip(rho, s))
                if all(diff[k] <= diff[k + 1] for a, b in runs for k in range(a, b - 1)):
                    yield prows, qrows, rho


def transport_chunk(args):
    """Check every transport law on the grid of a job; returns statistics and
    a list of violations (empty when the laws hold)."""
    n, lam = args[:2]
    data = {t.rows: _tab_data(t) for t in enumerate_tabloids(lam)}
    memo: dict = {}

    def backward(prows, qrows, rho):
        key = (prows, qrows, rho)
        win = memo.get(key)
        if win is None:
            win = _psi_rows(prows, qrows, rho, n)
            memo[key] = win
        return win

    bases = 0
    checks = 0
    violations = []

    def expect(tag, prows, qrows, rho, window):
        nonlocal checks
        checks += 1
        if backward(prows, qrows, rho) != window:
            violations.append((tag, prows, qrows, rho, window))

    for prows, qrows, rho in _grid(*args):
        pd = data[prows]
        qd = data[qrows]
        bases += 1
        win = backward(prows, qrows, rho)
        # right shift: w omega^{-1} has Q shifted and rho lowered on
        # the row of residue n in Q
        expect(
            "shift-right",
            prows,
            qd["omega"],
            tuple(r - c for r, c in zip(rho, qd["iotan"])),
            _window_right_shift(win, n),
        )
        # left shift: omega w has P shifted and rho raised on the row
        # of residue n in P
        expect(
            "shift-left",
            pd["omega"],
            qrows,
            tuple(r + c for r, c in zip(rho, pd["iotan"])),
            _window_left_shift(win, n),
        )
        if n < 3:
            continue
        inv = None
        for i in range(1, n + 1):
            qstar = qd["stars"][i - 1]
            if qstar is not None and (win_star := _star_window(win, n, i)) is not None:
                if i < n:
                    rho_star = rho
                else:
                    rho_star = tuple(
                        r + a - b for r, a, b in zip(rho, qd["iota1"], qd["iotan"])
                    )
                expect("star-right", prows, qstar, rho_star, win_star)
            pstar = pd["stars"][i - 1]
            if pstar is not None:
                if inv is None:
                    inv = _inverse_window(win, n)
                inv_star = _star_window(inv, n, i)
                if inv_star is not None:
                    if i < n:
                        rho_star = rho
                    else:
                        rho_star = tuple(
                            r - a + b
                            for r, a, b in zip(rho, pd["iota1"], pd["iotan"])
                        )
                    expect(
                        "star-left",
                        pstar,
                        qrows,
                        rho_star,
                        _inverse_window(inv_star, n),
                    )
    psi_cache_clear()
    return bases, checks, violations


def transport_jobs(max_n, strides, chunks=6):
    """Chunk list covering every shape of every n <= max_n.  ``strides`` maps
    a shape to its pair-grid stride (1 = the full grid when absent); shapes
    with many tabloids are split into P-slices so two workers stay busy."""
    jobs = []
    for n in range(1, max_n + 1):
        for lam in partitions(n):
            count = count_tabloids(lam)
            stride = strides.get(lam, 1)
            if count <= 60:
                jobs.append((n, lam, 0, count, stride))
            else:
                step = max(1, count // chunks)
                for lo in range(0, count, step):
                    jobs.append((n, lam, lo, min(lo + step, count), stride))
    # big jobs first for better two-worker balance
    jobs.sort(key=lambda j: (j[3] - j[2]) * count_tabloids(j[1]), reverse=True)
    return jobs


# deterministic pair-grid strides for the two largest n=5 shapes, sized so
# the acceptance run fits its runtime budget on a small machine
DEFAULT_STRIDES = {(2, 1, 1, 1): 4, (1, 1, 1, 1, 1): 12}


def central_shift_chunk(args):
    """Check that multiplying by the central shift omega^n adds the shape to
    the altitude vector, over the grid of a job."""
    n, lam = args[:2]
    bases = 0
    violations = []
    for prows, qrows, rho in _grid(*args):
        bases += 1
        shifted = tuple(v + n for v in _psi_rows(prows, qrows, rho, n))
        rho_up = tuple(r + part for r, part in zip(rho, lam))
        if _psi_rows(prows, qrows, rho_up, n) != shifted:
            violations.append((prows, qrows, rho))
    psi_cache_clear()
    return bases, bases, violations


def pair_budget_strides(max_n, budget_pairs):
    """Strides capping each shape's visited pair count near the budget."""
    out = {}
    for n in range(1, max_n + 1):
        for lam in partitions(n):
            pairs = count_tabloids(lam) ** 2
            if pairs > budget_pairs:
                out[lam] = -(-pairs // budget_pairs)
    return out
