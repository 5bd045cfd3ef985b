"""
Command-line surface: stable text/JSON output for every public computation,
suitable for table generation and regression diffing.

Exit codes: 0 success, 2 input error, 3 internal invariant failure.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Iterable, Optional, Sequence

from .affine import (
    AffinePerm,
    InvariantError,
    _is_int,
    check_partition,
    format_window,
    parse_int,
    parse_window,
)
from .cells import distinguished_involutions
from .jring import JElement, t_multiply
from .lusztig_vogan import LVPair, theta1, theta1_inverse
from .matrixball import DomTriple, phi, psi_triple
from .oracles import self_check
from .repring import FWeight, tensor_gl
from .tabloids import Tabloid


# --- text formats ------------------------------------------------------------


def read_json(text: str, what: str, keys: Sequence[str] = ()):
    """Decode the JSON ``text`` of a ``what``; with ``keys``, the value must
    be an object with exactly those keys.  Any other text, nesting too deep
    for the decoder included, is a ValueError."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"bad {what} text: {e}") from None
    if keys and not (isinstance(data, dict) and set(data) == set(keys)):
        names = ", ".join(f'"{k}"' for k in keys)
        raise ValueError(f"{what} must be an object with keys {names}")
    return data


def compact_json(data) -> str:
    """JSON without spaces, the form of the triple, J-element and LV-pair
    formats; the ``involutions``, ``tensor`` and ``self-check`` commands print
    ``json.dumps``'s default ", " and ": " separators instead."""
    return json.dumps(data, separators=(",", ":"))


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Read a comma list of integers like "2,-1,0"."""
    try:
        return tuple(parse_int(p, what) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


def format_ints(xs: Iterable[int]) -> str:
    """Write integers as a comma list like "2,-1,0"."""
    return ",".join(map(str, xs))


def parse_shape(text: str) -> tuple[int, ...]:
    """Parse a comma list like "4,3,1" into a partition."""
    return check_partition(parse_ints(text, "shape"))


def tabloid_from_lists(data, n: Optional[int] = None) -> Tabloid:
    if not isinstance(data, list) or not all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in data
    ):
        raise ValueError(f"tabloid must be a list of integer rows: {data!r}")
    size = sum(len(row) for row in data)
    if n is not None and size != n:
        raise ValueError(f"tabloid holds {size} residues, expected {n}")
    return Tabloid(size, tuple(tuple(sorted(row)) for row in data))


def format_triple(t: DomTriple) -> str:
    return compact_json({"p": t.p.rows, "q": t.q.rows, "rho": t.rho})


def parse_triple(text: str, n: Optional[int] = None) -> DomTriple:
    """Parse the JSON triple format {"p": rows, "q": rows, "rho": [ints]}."""
    data = read_json(text, "triple", ("p", "q", "rho"))
    if not isinstance(data["rho"], list) or not all(_is_int(x) for x in data["rho"]):
        raise ValueError('"rho" must be a list of integers')
    return DomTriple(
        tabloid_from_lists(data["p"], n), tabloid_from_lists(data["q"], n), tuple(data["rho"])
    )


def fweight_from_json(shape, blocks) -> FWeight:
    """The FWeight of a decoded JSON ``shape`` (a list of parts) and
    ``blocks`` (a list of lists); any other form is a ValueError."""
    if not (isinstance(shape, list) and isinstance(blocks, list)
            and all(isinstance(b, list) for b in blocks)):
        raise ValueError(f"shape and weight blocks must be JSON lists: {shape!r}, {blocks!r}")
    return FWeight(tuple(shape), tuple(tuple(b) for b in blocks))


def format_jelement(a: JElement) -> str:
    """Deterministic formal sum, e.g. "1*[2,1,3] + -1*[1,3,2]"; zero is "0"."""
    if not a:
        return "0"
    terms = sorted(a.items(), key=lambda item: item[0].window)
    return " + ".join(f"{c}*{format_window(w)}" for w, c in terms)


def jelement_to_json(a: JElement) -> str:
    terms = sorted(a.items(), key=lambda item: item[0].window)
    return compact_json([{"coef": c, "window": w.window} for w, c in terms])


def format_lv_pair(p: LVPair) -> str:
    return compact_json({"shape": p.shape, "weight_blocks": p.weight.blocks})


# --- command line ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every token starting with a minus sign
    and a digit as an argument, not an option: argparse alone does so only for
    a single number, so it took a weight such as ``-1,-2`` for an unknown
    option.  No option of ``ambc`` starts that way.  The subcommand parsers
    are made from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="ambc", description=__doc__)
    top.add_argument("--format", choices=("text", "json"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ambc-forward", help="window -> (P, Q, rho) triple")
    p.add_argument("window")

    p = sub.add_parser("ambc-backward", help="(P, Q, rho) triple -> window")
    p.add_argument("triple")
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("involutions", help="distinguished involutions of a cell")
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("jmult", help="product of two t-basis elements")
    p.add_argument("u_window")
    p.add_argument("v_window")

    p = sub.add_parser("lv", help="dominant weight -> (shape, weight) pair")
    p.add_argument("mu")

    p = sub.add_parser("lv-inverse", help="(shape, weight) pair -> dominant weight")
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", required=True, help='blocks as JSON, e.g. "[[0,0],[1,0,-1]]"')
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("tensor", help="tensor product of two GL_m irreducibles")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("mu")
    p.add_argument("nu")

    p = sub.add_parser("self-check", help="run the brute-force differential corpus")
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument("--samples", type=int, default=60)

    return top


def _check_n(n: Optional[int], expected: int) -> int:
    if n is not None and n != expected:
        raise ValueError(f"--n {n} contradicts input of size {expected}")
    return expected


def _cmd_forward(args) -> int:
    triple = phi(parse_window(args.window, total=True))
    print(format_triple(triple))
    return 0


def _cmd_backward(args) -> int:
    triple = parse_triple(args.triple, args.n)
    print(format_window(psi_triple(triple)))
    return 0


def _cmd_involutions(args) -> int:
    lam = parse_shape(args.shape)
    n = _check_n(args.n, sum(lam))
    windows = sorted(w.window for w in distinguished_involutions(lam, n))
    if args.format == "json":
        print(json.dumps({"count": len(windows), "windows": [list(w) for w in windows]}))
    else:
        for w in windows:
            print(format_window(AffinePerm(n, w)))
        print(f"count {len(windows)}")
    return 0


def _cmd_jmult(args) -> int:
    u = parse_window(args.u_window, total=True)
    v = parse_window(args.v_window, total=True)
    prod = t_multiply(u, v)
    print(jelement_to_json(prod) if args.format == "json" else format_jelement(prod))
    return 0


def _cmd_lv(args) -> int:
    pair = theta1(parse_ints(args.mu, "weight"))
    if args.format == "json":
        print(format_lv_pair(pair))
    else:
        print(f"shape {format_ints(pair.shape)}")
        print(f"weight {format_ints(pair.weight.flatten())}")
    return 0


def _cmd_lv_inverse(args) -> int:
    lam = parse_shape(args.shape)
    _check_n(args.n, sum(lam))
    weight = fweight_from_json(list(lam), read_json(args.weight, "weight"))
    print(format_ints(theta1_inverse(lam, weight)))
    return 0


def _cmd_tensor(args) -> int:
    mu = parse_ints(args.mu, "weight")
    nu = parse_ints(args.nu, "weight")
    if len(mu) != args.m or len(nu) != args.m:
        raise ValueError(f"weights must have length m={args.m}")
    dec = sorted(tensor_gl(mu, nu).items(), reverse=True)
    if args.format == "json":
        print(json.dumps([{"mult": c, "weight": list(w)} for w, c in dec]))
    else:
        for w, c in dec:
            print(f"{c} {format_ints(w)}")
    return 0


def _cmd_self_check(args) -> int:
    reports = self_check(seed=args.seed, samples=args.samples)
    failed = [r for r in reports if not r.passed]
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(r.line())
        print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    if failed:
        raise InvariantError(f"{len(failed)} differential checks failed")
    return 0


_COMMANDS = {
    "ambc-forward": _cmd_forward,
    "ambc-backward": _cmd_backward,
    "involutions": _cmd_involutions,
    "jmult": _cmd_jmult,
    "lv": _cmd_lv,
    "lv-inverse": _cmd_lv_inverse,
    "tensor": _cmd_tensor,
    "self-check": _cmd_self_check,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvariantError as e:
        print(f"internal invariant failure: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
