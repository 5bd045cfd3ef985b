"""
Memo audit: each memo of ``src/ambc`` timed with and without it, every run in
a fresh process, so every memo starts cold.

    python3 tools/memo_audit.py --rounds 3 --out memo_audit.json
    python3 tools/memo_audit.py --rounds 3 --parent OTHER_TREE --out memo_audit.json
    python3 tools/memo_audit.py --one cycle jring._coordinates   # one run, JSON on stdout

A run imports ``ambc`` from the ``src/`` of the tree holding this script,
switches one memo off (``none`` keeps all six) by putting ``lru_cache`` with
``maxsize=0`` of the function it wraps in its place, in every module global
and default argument that holds it, and runs one scenario:

- ``cycle``: the ``cell_tables`` ops of ``bench/workloads.py`` (seed 1), each
  through ``run_op``, once cold and once more as a replay in the same process;
- ``criterion3``: the criterion-3 chunk (5, (2, 1, 1, 1), 0, 20, 4) of
  ``tests/sweeps.py``, a third of the criterion's largest job;
- ``criterion9``: the criterion-9 chunk (6, (3, 2, 1), 0, 60, 10), 45,000 of
  the criterion's 566,826 bases;
- ``involutions``: ``ambc involutions --shape 4,3,2`` through ``cli.main``;
- ``involutions_all``: ``distinguished_involutions`` on every shape, n = 3-7;
- ``star6``: ``star_tabloid`` on every tabloid and residue at n = 6;
- ``sizes``: the cycle under ``tracemalloc``, then the bytes each memo frees
  when cleared, and ``jring._coordinates`` filled with 512 random windows at
  n = 16 and at n = 64 (``random_window`` of the benchmark, spreads 1-8).

A run reports the library seconds (``run_op``'s own timers, or the call), a
SHA-256 of the results' reprs and each memo's hits, misses and size after the
run.  ``--rounds`` alternates the configurations, in reverse order on odd
rounds, and keeps the medians; ``--parent`` adds the cycle and the involution
scenarios with every memo on, run on another tree that holds this script.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import random
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import FunctionType

ROOT = Path(__file__).resolve().parent.parent
MEMOS = (
    "matrixball._psi_step",
    "repring._lr_lowered",
    "jring._coordinates",
    "lusztig_vogan._theta_lowered",
    "cells._star_probe",
    "cells._probe_altitudes",
)
SCENARIOS = ("cycle", "criterion3", "criterion9", "involutions", "involutions_all", "star6")
CRITERION3 = (5, (2, 1, 1, 1), 0, 20, 4)
CRITERION9 = (6, (3, 2, 1), 0, 60, 10)


def memo(name: str):
    module, attr = name.split(".")
    return getattr(sys.modules[f"ambc.{module}"], attr)


def switch_off(name: str) -> None:
    on = memo(name)
    off = functools.lru_cache(maxsize=0)(on.__wrapped__)
    for module in [m for key, m in sys.modules.items() if key.startswith("ambc.")]:
        for key, value in list(vars(module).items()):
            if value is on:
                setattr(module, key, off)
            elif isinstance(value, FunctionType) and value.__defaults__:
                value.__defaults__ = tuple(off if d is on else d for d in value.__defaults__)


def run_cycle(workloads, sequence) -> dict:
    sha, seconds, per_kind = hashlib.sha256(), 0.0, {}
    for ops in sequence:
        for op in ops:
            result, times = workloads.run_op(op)
            spent = sum(times.values())
            seconds += spent
            per_kind[op.kind] = per_kind.get(op.kind, 0.0) + spent
            sha.update(repr(result).encode())
    return {"s": seconds, "per_kind_s": per_kind, "digest": sha.hexdigest()[:16]}


def timed(fn, *args) -> dict:
    t0 = perf_counter()
    result = fn(*args)
    seconds = perf_counter() - t0
    return {"s": seconds, "digest": hashlib.sha256(repr(result).encode()).hexdigest()[:16]}


def involutions_cli(cli):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["involutions", "--shape", "4,3,2"])
    return code, out.getvalue()


def involutions_all(cells, partitions):
    return [cells.distinguished_involutions(lam, n) for n in range(3, 8) for lam in partitions(n)]


def star6(cells, enumerate_tabloids, partitions):
    tabloids = [t for lam in partitions(6) for t in enumerate_tabloids(lam, 6)]
    return [cells.star_tabloid(t, i) for t in tabloids for i in range(1, 7)]


def memo_counts() -> dict:
    counts = {}
    for name in MEMOS:
        info = memo(name).cache_info()
        counts[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return counts


def freed_bytes(clear) -> int:
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    clear()
    gc.collect()
    return before - tracemalloc.get_traced_memory()[0]


def sizes(workloads, sequence) -> dict:
    run_cycle(workloads, sequence)
    counts = memo_counts()
    out = {}
    for name in MEMOS:
        size = counts[name]["size"]
        freed = freed_bytes(memo(name).cache_clear)
        out[name] = {"entries": size, "bytes": freed, "bytes_per_entry": round(freed / size) if size else None}
    coordinates = memo("jring._coordinates")
    rng = random.Random(7)
    for n in (16, 64):
        for k in range(512):
            coordinates(workloads.random_window(rng, n, (1, 2, 4, 8)[k % 4]))
        freed = freed_bytes(coordinates.cache_clear)
        out[f"jring._coordinates at n={n}"] = {"entries": 512, "bytes": freed, "bytes_per_entry": round(freed / 512)}
    return out


def one(scenario: str, off: str) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]
    if scenario == "sizes":
        tracemalloc.start()
    from ambc import cells, cli
    from ambc.affine import partitions
    from ambc.tabloids import enumerate_tabloids
    import sweeps
    import workloads

    sequence = workloads.cell_sequence(1) if scenario in ("cycle", "sizes") else None
    if off != "none":
        switch_off(off)
    gc.collect()
    gc.freeze()
    if scenario == "sizes":
        return sizes(workloads, sequence)
    if scenario == "cycle":
        out = {"first": run_cycle(workloads, sequence), "first_counts": memo_counts()}
        out["replay"] = run_cycle(workloads, sequence)
        out["digest"] = out["first"]["digest"] + out["replay"]["digest"]
    elif scenario.startswith("criterion"):
        # a chunk clears the step memo as it ends; read the counters first
        counts, clear = {}, sweeps.psi_cache_clear
        sweeps.psi_cache_clear = lambda: (counts.update(memo_counts()), clear())
        chunk = sweeps.transport_chunk if scenario == "criterion3" else sweeps.central_shift_chunk
        out = timed(chunk, CRITERION3 if scenario == "criterion3" else CRITERION9)
        out["counts"] = counts
    elif scenario == "involutions":
        out = timed(involutions_cli, cli)
    elif scenario == "involutions_all":
        out = timed(involutions_all, cells, partitions)
    else:
        out = timed(star6, cells, enumerate_tabloids, partitions)
    if "counts" not in out:
        out["counts"] = memo_counts()
    return out


def spawn(root: Path, scenario: str, off: str) -> dict:
    script = root / "tools" / "memo_audit.py"
    done = subprocess.run([sys.executable, str(script), "--one", scenario, off],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def median_of(runs: list, *keys) -> float:
    values = []
    for run in runs:
        for key in keys:
            run = run[key]
        values.append(run)
    return round(statistics.median(values), 4)


def audit(rounds: int, parent) -> dict:
    runs: dict = {}
    plan = []
    for scenario in SCENARIOS:
        probe = spawn(ROOT, scenario, "none")
        touched = [name for name, c in probe["counts"].items() if c["hits"] + c["misses"]]
        plan += [(ROOT, scenario, off) for off in ["none"] + (list(MEMOS) if scenario == "cycle" else touched)]
        if parent is not None and not scenario.startswith("criterion"):
            plan.append((parent, scenario, "none"))
    for r in range(rounds):
        for root, scenario, off in plan if r % 2 == 0 else reversed(plan):
            side = "parent" if root != ROOT else off
            runs.setdefault(scenario, {}).setdefault(side, []).append(spawn(root, scenario, off))
            print(r, scenario, side, file=sys.stderr)
    out = {}
    for scenario, sides in runs.items():
        out[scenario] = {}
        for side, results in sides.items():
            first = results[0]
            row = {}
            if scenario == "cycle":
                row["first_s_median"] = median_of(results, "first", "s")
                row["replay_s_median"] = median_of(results, "replay", "s")
                row["runs_first_replay_s"] = [[round(r["first"]["s"], 3), round(r["replay"]["s"], 3)] for r in results]
                for part in ("first", "replay"):
                    kinds = first[part]["per_kind_s"]
                    row[f"{part}_per_kind_s_median"] = {k: median_of(results, part, "per_kind_s", k) for k in kinds}
                row["first_counts"] = first["first_counts"]
            else:
                row["s_median"] = median_of(results, "s")
                row["runs_s"] = [round(r["s"], 4) for r in results]
            row["counts"] = first["counts"]
            row["digests"] = sorted({r["digest"] for r in results})
            out[scenario][side] = row
    out["sizes"] = spawn(ROOT, "sizes", "none")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", nargs=2, metavar=("SCENARIO", "MEMO"))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(one(*args.one)))
        return 0
    result = json.dumps(audit(args.rounds, args.parent), indent=1)
    if args.out:
        args.out.write_text(result + "\n")
    else:
        print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
