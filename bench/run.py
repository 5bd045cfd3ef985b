"""
The ambc benchmark: one seeded run of one workload, standard library only.

    python3 bench/run.py --workload random_roundtrip --seed 1 --seconds 30 --trace 0

The run imports ``ambc`` from ``src/`` next to this directory, makes the
workload's inputs from the seed, runs operations back to back in this single
process for ``--seconds`` (finishing the pass under way, and at least
``MIN_OPS`` operations), and checks every output.

It prints a metric table, one JSON report line (machine facts, operation
counts, input properties, unscaled times) and, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` rebuilds the calls
step by step and reports the per-layer metrics instead.  Times are rescaled
for the machine's speed drift (see ``Speed``); bench/README.md has the metric
definitions.

Exit status: 0 when every output checked out, 1 on a wrong answer, 2 when the
ambc sources are missing.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("random_roundtrip", "channel_rich", "cell_tables")
SETUP_REPEATS = 5
MIN_OPS = 100  # so the 90th percentile has at least ten samples beyond it
LOOP_CAP_S = 120.0  # keeps a slow machine within the 180 s a run may take
# On a shared machine the interpreter's speed drifts by a quarter within
# seconds.  A fixed pure-Python loop, timed every CAL_EVERY_S through the run,
# tracks that drift; every reported time is rescaled to the speed at which the
# loop takes CAL_MS, so the drift cancels and the ratio of ambc's work to the
# loop's remains.  The report line also carries the unscaled values.
CAL_MS = 0.6
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    **{f"{fn}_ms_n{n}": "ms" for fn in ("phi", "psi") for n in (8, 16, 32, 64)},
}
PER_LAYER = {
    "matrixball.southwest_channel.ms": "ms",
    "matrixball.channels_per_step": "count",
    "matrixball.channel_useful_ratio": "ratio",
    "matrixball.channel_numbering.ms": "ms",
    "matrixball.zigzag.ms": "ms",
    "matrixball.backward_numbering.ms": "ms",
    "matrixball.backward_rebuild.ms": "ms",
    "matrixball.forward_steps": "count",
    "matrixball.balls": "count",
    "tabloids.star_tabloid.ms": "ms",
    "tabloids.star_defined_ratio": "ratio",
    "jring.t_multiply.ms": "ms",
    "jring.upsilon.ms": "ms",
    "repring.tensor_f.ms": "ms",
    "repring.tensor_gl.ms": "ms",
    "repring.terms": "count",
    "lusztig_vogan.theta1.ms": "ms",
    "lusztig_vogan.theta1_inverse.ms": "ms",
    "affine.min_double_coset_rep.ms": "ms",
    "cells.distinguished_involutions.ms": "ms",
    "cli.main.ms": "ms",
    "cli.overhead.ms": "ms",
    "trace.overhead_frac": "ratio",
}


def calibration_loop() -> int:
    """Fixed interpreter work: the dict, tuple and integer operations ambc
    is made of."""
    table: dict = {}
    acc = 0
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += key[0] if key[0] < key[1] else key[1]
    return acc + len(table)


class Speed:
    """Timings of the calibration loop through a run."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ms: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # time the interpreter, not the collector
        try:
            runs = []
            for _ in range(3):
                t0 = perf_counter()
                calibration_loop()
                runs.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.at.append(perf_counter())
        self.ms.append(1e3 * statistics.median(runs))

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= CAL_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """The factor taking a time measured over [start, end] to the
        reference speed: from the median of the samples taken within
        CAL_WINDOW_S of the interval, and at least the nearest one on each
        side."""
        i = min(bisect.bisect_left(self.at, start - CAL_WINDOW_S), bisect.bisect_right(self.at, start) - 1)
        j = max(bisect.bisect_right(self.at, end + CAL_WINDOW_S), bisect.bisect_left(self.at, end) + 1)
        return CAL_MS / statistics.median(self.ms[max(i, 0):j])

    def run_scale(self) -> float:
        return CAL_MS / statistics.fmean(self.ms)


def unscaled(start: float, end: float) -> float:
    return 1.0


@dataclass
class Record:
    """One attempted operation: when it ran, library seconds per stage, or
    the error it raised, and the reason its output was rejected, if it was."""

    index: int  # pass the operation belongs to
    op: object
    start: float
    end: float
    seconds: dict
    error: str | None = None
    wrong: str | None = None


@dataclass
class Properties:
    """Input properties of the operations a run attempted."""

    kinds: Counter = field(default_factory=Counter)
    sizes: Counter = field(default_factory=Counter)
    spreads: Counter = field(default_factory=Counter)
    psi_calls: int = 0
    psi_repeats: int = 0
    seen: set = field(default_factory=set)

    def observe(self, wl, op, result) -> None:
        if op.kind == "roundtrip":
            self.sizes[op.n] += 1
            self.spreads[op.spread] += 1
        if result is None:
            return
        for key in wl.psi_bottom_rows(op, result):
            self.psi_calls += 1
            self.psi_repeats += key in self.seen
            self.seen.add(key)

    def report(self) -> dict:
        return {
            "sizes": dict(sorted(self.sizes.items())),
            "spreads": dict(sorted(self.spreads.items())),
            "psi_calls_seen": self.psi_calls,
            "psi_bottom_row_repeat_share": self.psi_repeats / self.psi_calls if self.psi_calls else None,
        }


def set_up(workload: str, seed: int):
    """Import ambc and the benchmark's modules afresh and make the inputs;
    return (seconds, workloads module, passes)."""
    for name in [m for m in sys.modules if m in ("workloads", "tracing") or m == "ambc" or m.startswith("ambc.")]:
        del sys.modules[name]
    t0 = perf_counter()
    wl = importlib.import_module("workloads")
    passes = wl.make_passes(workload, seed)
    return perf_counter() - t0, wl, passes


def measure(passes, execute, speed: Speed, seconds: float, min_ops: int = MIN_OPS, interleave=()) -> list[Record]:
    """Run whole passes until ``seconds`` have passed and ``min_ops``
    operations were attempted (or the safety cap is hit), sampling ``speed``
    between operations.  The calls in ``interleave`` run one at a time at
    evenly spaced moments, so that they sample the whole run."""
    records: list[Record] = []
    pending = list(interleave)
    spacing = seconds / (len(pending) + 1)
    speed.sample()
    t0 = perf_counter()
    for index, ops in enumerate(passes):
        for op in ops:
            records.append(execute(index, op))
            if speed.due():
                speed.sample()
            while pending and perf_counter() - t0 >= spacing * (len(interleave) - len(pending) + 1):
                pending.pop(0)()
                if speed.due():
                    speed.sample()
        elapsed = perf_counter() - t0
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and len(records) >= min_ops):
            break
    for call in pending:
        call()
    speed.sample()
    return records


def _error(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def plain_executor(wl, props: Properties):
    def execute(index, op) -> Record:
        props.kinds[op.kind] += 1
        t0 = perf_counter()
        try:
            result, stages = wl.run_op(op)
        except Exception as e:  # an operation that raises counts as failed; the run goes on
            t1 = perf_counter()
            props.observe(wl, op, None)
            return Record(index, op, t0, t1, {"failed": t1 - t0}, error=_error(e))
        t1 = perf_counter()
        props.observe(wl, op, result)
        return Record(index, op, t0, t1, stages, wrong=_check(lambda: wl.CHECKS[op.kind](op, result)))

    return execute


def traced_executor(wl, tracing, tr, props: Properties):
    def execute(index, op) -> Record:
        props.kinds[op.kind] += 1
        t0 = perf_counter()
        try:
            result, untraced, traced = tracing.run_traced(tr, op)
        except wl.CheckError as e:  # a rebuild disagreed with the real call
            return Record(index, op, t0, perf_counter(), {}, wrong=str(e))
        except Exception as e:
            t1 = perf_counter()
            props.observe(wl, op, None)
            return Record(index, op, t0, t1, {"failed": t1 - t0}, error=_error(e))
        t1 = perf_counter()
        props.observe(wl, op, result)
        wrong = _check(lambda: tracing.check_traced(tr, op, result))
        return Record(index, op, t0, t1, {"untraced": untraced, "traced": traced}, wrong=wrong)

    return execute


def _check(check) -> str | None:
    """None when the check passes, else why the output was rejected."""
    try:
        check()
    except Exception as e:  # a check that cannot even read the output rejects it too
        return _error(e)
    return None


def end_to_end(records: list[Record], per_size: dict, setups: list[float], rss_mb: float, scale) -> dict:
    """The end-to-end metrics, with each operation's time rescaled by
    ``scale(start, end)``."""
    op_ms = [1e3 * sum(r.seconds.values()) * scale(r.start, r.end) for r in records]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1e3 * len(op_ms) / sum(op_ms),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[8],
        "peak_rss_mb": rss_mb,
        **per_size,
    }


def per_size_from_passes(records: list[Record]) -> dict:
    """phi and psi per call at each size on the run's own seeded windows: in
    every pass, the mean over the pass's windows of that size, then the median
    over passes."""
    groups = defaultdict(list)
    for r in records:
        if r.error is None:
            groups[r.index, r.op.n].append(r.seconds)
    samples = defaultdict(list)
    for (_, n), stages in groups.items():
        for fn in ("phi", "psi"):
            samples[f"{fn}_ms_n{n}"].append(statistics.fmean(s[fn] for s in stages))
    return {name: 1e3 * statistics.median(v) for name, v in samples.items()}


class Reference:
    """phi and psi per call at each size, timed on the fixed reference
    windows.  Each window runs once, so psi never finds it in its cache."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.samples: list[tuple] = []  # (fn, n, spread, start, end, seconds)
        self.wrong: list[str] = []

    def calls(self) -> list:
        return [lambda op=op: self.run(op) for op in self.wl.reference_windows()]

    def run(self, op) -> None:
        t0 = perf_counter()
        result, stages = self.wl.run_op(op)
        t1 = perf_counter()
        if reason := _check(lambda: self.wl.CHECKS[op.kind](op, result)):
            self.wrong.append(reason)
        for fn in ("phi", "psi"):
            self.samples.append((fn, op.n, op.spread, t0, t1, stages[fn]))

    def per_size(self, scale) -> dict:
        """The median over the windows of one size and spread, averaged over
        the spreads."""
        groups = defaultdict(list)
        for fn, n, spread, t0, t1, sec in self.samples:
            groups[fn, n, spread].append(sec * scale(t0, t1))
        by_size = defaultdict(list)
        for (fn, n, _), v in groups.items():
            by_size[f"{fn}_ms_n{n}"].append(statistics.median(v))
        return {name: 1e3 * statistics.fmean(v) for name, v in by_size.items()}


def defect_probe(wl) -> tuple[dict, str | None]:
    """The n = 38 window of 19 adjacent transpositions, run once outside the
    measured operations: phi on it fails while channels are enumerated."""
    op = wl.Op("roundtrip", (wl.DEFECT_WINDOW, 2 ** 19), 38)
    t0 = perf_counter()
    try:
        result, _ = wl.run_op(op)
    except Exception as e:
        return {"window_n": 38, "outcome": _error(e), "seconds": perf_counter() - t0}, None
    out = {"window_n": 38, "outcome": "ok", "seconds": perf_counter() - t0}
    return out, _check(lambda: wl.CHECKS[op.kind](op, result))


def layer_values(wl, tracing, tr, records: list[Record], seed: int, scale: float) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics of the traced loop, times rescaled by ``scale``;
    layers the workload never reached come from a short traced probe of
    cell_tables operations."""
    values = tracing.layer_metrics(tr, len(records), scale)
    missing = [name for name, v in values.items() if v is None]
    wrong = []
    if missing:
        probe = tracing.Tracer()
        ops = wl.probe_ops(seed)
        execute = traced_executor(wl, tracing, probe, Properties())
        wrong = [r.wrong for r in map(lambda op: execute(0, op), ops) if r.wrong]
        from_probe = tracing.layer_metrics(probe, len(ops), scale)
        values.update({name: from_probe[name] for name in missing})
    timed = [r for r in records if r.error is None and r.wrong is None]
    values["trace.overhead_frac"] = (
        sum(r.seconds["traced"] for r in timed) / sum(r.seconds["untraced"] for r in timed) - 1
    )
    return values, missing, wrong


def facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ambc" / "__init__.py").is_file():
        print(f"bench: no ambc sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    speed = Speed()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        wl = passes = None
        gc.collect()  # every set-up starts from the same heap
        speed.sample()
        t0 = perf_counter()
        dt, wl, passes = set_up(args.workload, args.seed)
        speed.sample()
        raw_setups.append(dt)
        setups.append(dt * speed.scale(t0, t0 + dt))
    # the inputs live for the whole run; keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    ambc_file = Path(sys.modules["ambc"].__file__).resolve()
    if SRC.resolve() not in ambc_file.parents:
        print(f"bench: imported ambc from {ambc_file}, not from {SRC}", file=sys.stderr)
        return 2

    props = Properties()
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    wrong: list[str] = []
    if args.trace:
        import tracing

        tr = tracing.Tracer()
        # no percentiles in a traced run, so no minimum operation count
        records = measure(passes, traced_executor(wl, tracing, tr, props), speed, args.seconds, min_ops=1)
        values, from_probe, probe_wrong = layer_values(wl, tracing, tr, records, args.seed, speed.run_scale())
        wrong += probe_wrong
        units = PER_LAYER
        steps = tr.counts["forward_steps"]
        report["channels"] = {
            "multi_channel_step_share": tr.counts["multi_channel_steps"] / steps if steps else None,
            "max_channels": tr.max_channels,
            "enumerations_failed": tr.counts["channel_enumerations_failed"],
        }
        report["layers_from_probe"] = from_probe
    else:
        reference = Reference(wl)
        records = measure(passes, plain_executor(wl, props), speed, args.seconds, interleave=reference.calls())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = end_to_end(records, reference.per_size(speed.scale), setups, rss_mb, speed.scale)
        report["unscaled"] = end_to_end(records, reference.per_size(unscaled), raw_setups, rss_mb, unscaled)
        wrong += reference.wrong
        units = END_TO_END
        seconds_by_kind: Counter = Counter()
        for r in records:
            seconds_by_kind[r.op.kind] += sum(r.seconds.values())
        report["seconds_by_kind"] = dict(seconds_by_kind)
        if args.workload == "random_roundtrip":
            report["seeded_per_size_ms"] = per_size_from_passes(records)
    if args.workload == "channel_rich":
        report["defect_probe"], reason = defect_probe(wl)
        wrong += [reason] if reason else []
        counts = sorted(r.op.args[1] for r in records)
        report["first_step_channels"] = {"min": counts[0], "median": statistics.median(counts), "max": counts[-1]}

    failed = [r for r in records if r.error]
    wrong = [r.wrong for r in records if r.wrong] + wrong
    report.update(
        calibration_ms={"median": statistics.median(speed.ms), "min": min(speed.ms), "max": max(speed.ms)},
        facts=facts(),
        ops_by_kind=dict(props.kinds),
        failed_frac=len(failed) / len(records),
        errors=[r.error for r in failed[:3]],
        wrong=len(wrong),
        wrong_examples=wrong[:3],
        input_properties=props.report(),
    )
    if set(values) != set(units) or any(v is None for v in values.values()):
        raise RuntimeError(f"metrics incomplete: {sorted(k for k, v in values.items() if v is None)}")

    print(f"bench {args.workload} seed={args.seed} trace={args.trace} ops={len(records)}")
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<36} {report['failed_frac']:>14.6g} ratio")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
