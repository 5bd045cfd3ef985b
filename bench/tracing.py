"""
The traced run: spans around the calls the benchmark makes into the library,
and step-by-step rebuilds of phi, psi, t_multiply, theta1 and theta1_inverse
from public functions, each checked against the real call.

Spans are aggregated in memory per name (inclusive and self time, call
count); nothing is written until the run ends.  Layer metrics are reported per
workload operation, so they stay comparable when a faster commit completes
more operations in the same run length.

The public step functions repeat work that phi and psi do once:
``forward_step`` recomputes the southwest channel and the channel numbering,
``backward_step`` recomputes the backward numbering, and
``channel_numbering``, ``backward_numbering`` and ``backward_step`` re-run
the maximum-density validation that phi and psi skip.  Layer times subtract
that repeated work; it is counted only in ``trace.overhead_frac``.
"""
from __future__ import annotations

import contextlib
import io
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from ambc import (
    AffinePerm,
    DomTriple,
    InvariantError,
    PartialPerm,
    Tabloid,
    backward_numbering,
    backward_step,
    canonical_tabloid,
    channel_numbering,
    channels,
    distinguished_involutions,
    forward_step,
    make_stream,
    min_double_coset_rep,
    offset_constants,
    phi,
    psi,
    rev_lambda,
    southwest_channel,
    star_tabloid,
    t_multiply,
    tensor_f,
    tensor_gl,
    theta1,
    theta1_inverse,
    upsilon,
    from_dominant_weight,
)
from ambc import cli, matrixball
from ambc.affine import window_diagonals
from ambc.lusztig_vogan import LVPair
from ambc.repring import fweight_from_rows

from workloads import CHECKS, CheckError, Op, check_t_multiply

# The validation the public step functions repeat.  It is private, so it is
# looked up by name: if a later version drops it, the layer times simply
# include whatever validation remains.
_validation = getattr(matrixball, "_max_density", None)

# Library functions the CLI calls; wrapping them splits cli.main into the
# library call and the CLI's own parsing and formatting.
CLI_LIBRARY_CALLS = ("phi", "psi_triple", "distinguished_involutions", "t_multiply", "theta1", "theta1_inverse", "tensor_gl")


class Tracer:
    """Spans and counters of one traced run, aggregated per name."""

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)  # inclusive seconds
        self.own: defaultdict[str, float] = defaultdict(float)  # self seconds
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_channels = 0
        self._open: list[float] = []  # child seconds of each open span

    @contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            children = self._open.pop()
            self.total[name] += dt
            self.own[name] += dt - children
            self.calls[name] += 1
            if self._open:
                self._open[-1] += dt

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span; return (result, seconds)."""
        with self.span(name):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
        return out, dt

    def validation(self, name: str, w: PartialPerm) -> None:
        if _validation is not None and w.domain():
            with self.span(name):
                _validation(w.window, w.n)

    def count_channels(self, w: PartialPerm) -> None:
        """Channels of w through the public enumerator (trace only)."""
        try:
            with self.span("probe.channels"):
                found = len(channels(w))
        except InvariantError:
            self.counts["channel_enumerations_failed"] += 1
            return
        self.counts["chains"] += found
        self.counts["multi_channel_steps"] += found > 1
        self.max_channels = max(self.max_channels, found)


# --- rebuilds from public functions ------------------------------------------------


def phi_steps(tr: Tracer, w: AffinePerm) -> DomTriple:
    """phi as a loop of southwest_channel, channel_numbering and forward_step."""
    n = w.n
    p_rows, q_rows, rho = [], [], []
    cur = PartialPerm(n, w.window)
    while cur.domain():
        tr.count_channels(cur)
        sw, _ = tr.call("matrixball.southwest_channel", southwest_channel, cur)
        tr.call("matrixball.channel_numbering", channel_numbering, cur, sw)
        tr.validation("validation.forward", cur)
        (cur, stream), _ = tr.call("matrixball.forward_step", forward_step, cur)
        tr.counts["forward_steps"] += 1
        p_rows.append(stream.codomain())
        q_rows.append(stream.domain())
        rho.append(stream.altitude())
    return DomTriple(Tabloid(n, tuple(p_rows)), Tabloid(n, tuple(q_rows)), tuple(rho))


def psi_steps(tr: Tracer, p: Tabloid, q: Tabloid, rho) -> AffinePerm:
    """psi as a loop of make_stream, backward_numbering and backward_step from
    the innermost row."""
    n = p.n
    cur = PartialPerm(n, (None,) * n)
    for q_row, p_row, alt in reversed(list(zip(q.rows, p.rows, rho))):
        s, _ = tr.call("matrixball.make_stream", make_stream, q_row, p_row, alt, n)
        if cur.domain():
            tr.counts["balls"] += len(cur.domain())
            tr.call("matrixball.backward_numbering", backward_numbering, cur, s)
            tr.validation("validation.backward", cur)
        cur, _ = tr.call("matrixball.backward_step", backward_step, cur, s)
    return AffinePerm(n, cur.window)


def representation_weight(lam, rho, s):
    return fweight_from_rows(lam, rev_lambda(lam, tuple(r - c for r, c in zip(rho, s))))


def t_multiply_steps(tr: Tracer, u: AffinePerm, v: AffinePerm) -> dict:
    """t_multiply as phi, offset_constants, tensor_f and psi."""
    tu, tv = phi_steps(tr, u), phi_steps(tr, v)
    lam = tu.shape()
    if lam != tv.shape() or tu.q != tv.p:
        return {}
    s_out, _ = tr.call("tabloids.offset_constants", offset_constants, tu.p, tv.q)
    wu = representation_weight(lam, tu.rho, tr.call("tabloids.offset_constants", offset_constants, tu.p, tu.q)[0])
    wv = representation_weight(lam, tv.rho, tr.call("tabloids.offset_constants", offset_constants, tv.p, tv.q)[0])
    product, _ = tr.call("repring.tensor_f", tensor_f, wu, wv)
    tr.counts["terms"] += len(product)
    out: dict = {}
    for weight, mult in product.items():
        rho = rev_lambda(lam, weight.flatten())
        w = psi_steps(tr, tu.p, tv.q, tuple(a + b for a, b in zip(s_out, rho)))
        out[w] = out.get(w, 0) + mult
    return out


def theta1_steps(tr: Tracer, mu) -> LVPair:
    """theta1 as min_double_coset_rep and phi."""
    w, _ = tr.call("affine.min_double_coset_rep", min_double_coset_rep, from_dominant_weight(mu))
    t = phi_steps(tr, w)
    lam = t.shape()
    return LVPair(lam, fweight_from_rows(lam, rev_lambda(lam, t.rho)))


def theta1_inverse_steps(tr: Tracer, lam, weight) -> tuple[int, ...]:
    """theta1_inverse as psi at the canonical tabloid pair."""
    can = canonical_tabloid(lam)
    return window_diagonals(psi_steps(tr, can, can, rev_lambda(lam, weight.flatten())))


# --- traced operations ----------------------------------------------------------------


def _rebuild(tr: Tracer, name: str, real, fn, *args):
    """Run a rebuild inside a span, require it to equal the real result, and
    return its seconds."""
    t0 = perf_counter()
    with tr.span("rebuild." + name):
        rebuilt = fn(tr, *args)
    dt = perf_counter() - t0
    if rebuilt != real:
        raise CheckError(f"rebuilt {name} differs from the real call")
    return dt


def traced_roundtrip(tr: Tracer, w, *_):
    triple, t_phi = tr.call("matrixball.phi", phi, w)
    r_phi = _rebuild(tr, "phi", triple, phi_steps, w)
    back, t_psi = tr.call("matrixball.psi", psi, triple.p, triple.q, triple.rho)
    r_psi = _rebuild(tr, "psi", back, psi_steps, triple.p, triple.q, triple.rho)
    return (triple, back), t_phi + t_psi, r_phi + r_psi


def traced_t_multiply(tr: Tracer, u, v, *_):
    real, dt = tr.call("jring.t_multiply", t_multiply, u, v)
    return real, dt, _rebuild(tr, "t_multiply", real, t_multiply_steps, u, v)


def traced_theta(tr: Tracer, mu):
    pair, t_fwd = tr.call("lusztig_vogan.theta1", theta1, mu)
    r_fwd = _rebuild(tr, "theta1", pair, theta1_steps, mu)
    back, t_inv = tr.call("lusztig_vogan.theta1_inverse", theta1_inverse, pair.shape, pair.weight)
    r_inv = _rebuild(tr, "theta1_inverse", back, theta1_inverse_steps, pair.shape, pair.weight)
    return (pair, back), t_fwd + t_inv, r_fwd + r_inv


def _spanned(name: str, fn, count=None):
    def run(tr: Tracer, *args):
        t0 = perf_counter()
        out, dt = tr.call(name, fn, *args)
        if count:
            count(tr, out)
        return out, dt, perf_counter() - t0
    return run


def _count_star(tr: Tracer, out) -> None:
    tr.counts["star_defined"] += out is not None


def _count_terms(tr: Tracer, out) -> None:
    tr.counts["terms"] += len(out)


@contextmanager
def cli_library_spans(tr: Tracer):
    """Record the library calls cli.main makes as child spans of it."""
    saved = {name: getattr(cli, name) for name in CLI_LIBRARY_CALLS if hasattr(cli, name)}

    def wrap(name, fn):
        return lambda *args: tr.call("cli.library." + name, fn, *args)[0]

    for name, fn in saved.items():
        setattr(cli, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def traced_cli(tr: Tracer, argv, _expected):
    out = io.StringIO()
    t0 = perf_counter()
    with cli_library_spans(tr), contextlib.redirect_stdout(out):
        code, dt = tr.call("cli.main", cli.main, list(argv))
    return (code, out.getvalue()), dt, perf_counter() - t0


TRACED = {
    "roundtrip": traced_roundtrip,
    "t_multiply": traced_t_multiply,
    "theta": traced_theta,
    "involutions": _spanned("cells.distinguished_involutions", distinguished_involutions),
    "star": _spanned("tabloids.star_tabloid", star_tabloid, _count_star),
    "tensor": _spanned("repring.tensor_gl", tensor_gl, _count_terms),
    "cli": traced_cli,
}


def run_traced(tr: Tracer, op: Op):
    """(result, untraced seconds, traced seconds) of one operation."""
    return TRACED[op.kind](tr, *op.args)


def check_traced(tr: Tracer, op: Op, result) -> None:
    """The output check, with the upsilon calls of the t_multiply check traced."""
    if op.kind == "t_multiply":
        check_t_multiply(op, result, lambda w: tr.call("jring.upsilon", upsilon, w)[0])
    else:
        CHECKS[op.kind](op, result)


# --- layer metrics ---------------------------------------------------------------------


def layer_metrics(tr: Tracer, ops: int, scale: float = 1.0) -> dict[str, float | None]:
    """Per-layer metrics per operation, times multiplied by ``scale``; None
    where the run never reached the layer."""

    def ms(*names: str, minus: tuple[str, ...] = ()) -> float | None:
        if not any(tr.calls[n] for n in names):
            return None
        return scale * 1e3 * (sum(tr.total[n] for n in names) - sum(tr.total[n] for n in minus)) / ops

    def per_op(count: str, *spans: str) -> float | None:
        return tr.counts[count] / ops if any(tr.calls[n] for n in spans) else None

    steps = tr.counts["forward_steps"]
    chains = tr.counts["chains"]
    star_calls = tr.calls["tabloids.star_tabloid"]
    return {
        "matrixball.southwest_channel.ms": ms("matrixball.southwest_channel"),
        "matrixball.channels_per_step": chains / steps if chains else None,
        "matrixball.channel_useful_ratio": steps / chains if chains else None,
        "matrixball.channel_numbering.ms": ms("matrixball.channel_numbering", minus=("validation.forward",)),
        # forward_step - southwest_channel - (channel_numbering - validation)
        "matrixball.zigzag.ms": ms(
            "matrixball.forward_step", "validation.forward",
            minus=("matrixball.southwest_channel", "matrixball.channel_numbering"),
        ),
        "matrixball.backward_numbering.ms": ms("matrixball.backward_numbering", minus=("validation.backward",)),
        # backward_step repeats backward_numbering, validation included
        "matrixball.backward_rebuild.ms": ms("matrixball.backward_step", minus=("matrixball.backward_numbering",)),
        "matrixball.forward_steps": per_op("forward_steps", "matrixball.forward_step"),
        "matrixball.balls": per_op("balls", "matrixball.backward_numbering"),
        "tabloids.star_tabloid.ms": ms("tabloids.star_tabloid"),
        "tabloids.star_defined_ratio": tr.counts["star_defined"] / star_calls if star_calls else None,
        "jring.t_multiply.ms": ms("jring.t_multiply"),
        "jring.upsilon.ms": ms("jring.upsilon"),
        "repring.tensor_f.ms": ms("repring.tensor_f"),
        "repring.tensor_gl.ms": ms("repring.tensor_gl"),
        "repring.terms": per_op("terms", "repring.tensor_f", "repring.tensor_gl"),
        "lusztig_vogan.theta1.ms": ms("lusztig_vogan.theta1"),
        "lusztig_vogan.theta1_inverse.ms": ms("lusztig_vogan.theta1_inverse"),
        "affine.min_double_coset_rep.ms": ms("affine.min_double_coset_rep"),
        "cells.distinguished_involutions.ms": ms("cells.distinguished_involutions"),
        "cli.main.ms": ms("cli.main"),
        "cli.overhead.ms": scale * 1e3 * tr.own["cli.main"] / ops if tr.calls["cli.main"] else None,
    }
