import hashlib
import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambc import cli, matrixball, repring
from ambc.affine import parse_window, partitions
from ambc.cli import _COMMANDS, _build_parser, format_triple, main, parse_ints, parse_shape, parse_triple
from ambc.oracles import OracleReport, self_check
from ambc.matrixball import DomTriple, phi, psi_cache_clear
from ambc.repring import fweight_from_rows
from ambc.tabloids import equal_part_runs

from conftest import (
    one_column_triple,
    parse_fweight,
    parse_gl_weight,
    parse_jelement,
    parse_lv_pair,
    parse_tabloid,
    stack_headroom,
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


TRIPLE9 = '{"p":[[2,4,6],[3,7,8],[1,5,9]],"q":[[3,5,7],[1,2,8],[4,6,9]],"rho":[2,0,2]}'


class TestForwardBackward:
    def test_forward_golden(self, capsys):
        code, out, _ = run(capsys, "ambc-forward", "[3,7,14,2,18,4,19,8,6]")
        assert code == 0
        assert out.strip() == TRIPLE9

    def test_backward_roundtrip(self, capsys):
        code, out, _ = run(capsys, "ambc-backward", TRIPLE9)
        assert code == 0
        assert out.strip() == "[3,7,14,2,18,4,19,8,6]"

    def test_forward_backward_compose(self, capsys):
        code, out, _ = run(capsys, "ambc-forward", "[-28,-8,-2,4,10,16,36]")
        code2, out2, _ = run(capsys, "ambc-backward", out.strip())
        assert code == code2 == 0
        assert out2.strip() == "[-28,-8,-2,4,10,16,36]"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "ambc-forward", "[1,1,2]")
        assert code == 2 and "input error" in err

    def test_holes_rejected(self, capsys):
        code, _, err = run(capsys, "ambc-forward", "[1,_,3]")
        assert code == 2

    def test_backward_n_mismatch(self, capsys):
        code, _, err = run(capsys, "ambc-backward", TRIPLE9, "--n", "8")
        assert code == 2

    @pytest.mark.parametrize(
        "triple",
        [
            '{"p":[[true]],"q":[[true]],"rho":[false]}',
            '{"p":[[1]],"q":[[1]],"rho":[false]}',
            '{"p":[[true]],"q":[[1]],"rho":[0]}',
        ],
    )
    def test_backward_rejects_booleans(self, capsys, triple):
        # JSON true and false are Python bools, a subclass of int
        code, out, err = run(capsys, "ambc-backward", triple)
        assert code == 2 and out == "" and "input error" in err

    def test_backward_many_rows(self, capsys):
        # 80 rows, 40 frames of headroom: a frame per row would overflow
        triple = format_triple(DomTriple(*one_column_triple(80)))
        psi_cache_clear()
        with stack_headroom(40):
            code, out, err = run(capsys, "ambc-backward", triple)
        assert code == 0 and err == ""
        assert run(capsys, "ambc-forward", out.strip())[1].strip() == triple

    def test_json_stable(self, capsys):
        code, out, _ = run(capsys, "ambc-forward", "[3,7,14,2,18,4,19,8,6]")
        code2, out2, _ = run(
            capsys, "ambc-backward", out.strip()
        )
        code3, out3, _ = run(capsys, "ambc-forward", out2.strip())
        assert out == out3


class TestInvolutions:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "involutions", "--shape", "3,1")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[-1] == "count 4"
        assert len(lines) == 5

    def test_contains_golden(self, capsys):
        code, out, _ = run(capsys, "involutions", "--shape", "4,3,2")
        assert code == 0
        assert "[-3,5,3,7,2,10,4,8,9]" in out
        assert out.strip().splitlines()[-1] == "count 1260"

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "involutions", "--shape", "4")
        assert out.strip().splitlines() == ["[1,2,3,4]", "count 1"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "involutions", "--shape", "2,2")
        data = json.loads(out)
        assert code == 0 and data["count"] == 6 and len(data["windows"]) == 6
        # json.dumps's default separators, unlike the compact formats
        assert out == (
            '{"count": 6, "windows": [[-1, 0, 5, 6], [-1, 4, 5, 2], [0, 3, 2, 5], '
            '[2, 1, 4, 3], [3, 0, 1, 6], [3, 4, 1, 2]]}\n'
        )

    def test_bad_shape(self, capsys):
        code, _, err = run(capsys, "involutions", "--shape", "1,3")
        assert code == 2

    def test_n_mismatch(self, capsys):
        code, _, err = run(capsys, "involutions", "--shape", "3,1", "--n", "5")
        assert code == 2


class TestJMult:
    def test_worked_product(self, capsys):
        code, out, _ = run(
            capsys, "jmult", "[-1,3,10,-5,14,-3,18,7,2]", "[-6,2,-4,15,18,-2,8,22,10]"
        )
        assert code == 0
        assert out.strip() == (
            "1*[-7,3,-5,18,19,-3,7,23,8] + 1*[-7,7,-5,14,18,-3,8,19,12]"
            " + 1*[-5,3,-3,14,18,2,7,19,8] + 1*[-5,7,-3,10,14,2,8,18,12]"
        )

    def test_reversed_zero(self, capsys):
        code, out, _ = run(
            capsys, "jmult", "[-6,2,-4,15,18,-2,8,22,10]", "[-1,3,10,-5,14,-3,18,7,2]"
        )
        assert code == 0 and out.strip() == "0"

    def test_unit_echo(self, capsys):
        code, out, _ = run(capsys, "jmult", "[-3,5,3,7,2,10,4,8,9]", "[-3,5,3,7,2,10,4,8,9]")
        assert code == 0 and out.strip() == "1*[-3,5,3,7,2,10,4,8,9]"

    def test_period_mismatch(self, capsys):
        code, _, err = run(capsys, "jmult", "[1,2]", "[1,2,3]")
        assert code == 2 and "period mismatch: 2 != 3" in err

    def test_json_reparses(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "jmult",
            "[-1,3,10,-5,14,-3,18,7,2]", "[-6,2,-4,15,18,-2,8,22,10]",
        )
        data = json.loads(out)
        assert len(data) == 4 and all(set(d) == {"coef", "window"} for d in data)


class TestLV:
    def test_forward(self, capsys):
        code, out, _ = run(capsys, "lv", "5,1,1,1,-2,-2,-2")
        assert code == 0
        assert out.splitlines() == ["shape 3,3,1", "weight 1,-2,3"]

    def test_forward_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "lv", "5,1,1,1,-2,-2,-2")
        assert json.loads(out) == {"shape": [3, 3, 1], "weight_blocks": [[1, -2], [3]]}

    def test_inverse(self, capsys):
        code, out, _ = run(
            capsys, "lv-inverse", "--shape", "2,2,1,1,1", "--weight", "[[0,0],[1,0,-1]]"
        )
        assert code == 0 and out.strip() == "5,2,1,0,-1,-2,-5"

    def test_non_dominant_rejected(self, capsys):
        code, _, err = run(capsys, "lv", "1,2,0")
        assert code == 2

    def test_bad_weight_blocks(self, capsys):
        code, _, err = run(
            capsys, "lv-inverse", "--shape", "2,2,1,1,1", "--weight", "[[0,1],[0,0,0]]"
        )
        assert code == 2

    def test_boolean_weight_rejected(self, capsys):
        code, out, _ = run(capsys, "lv-inverse", "--shape", "1", "--weight", "[[true]]")
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_fweight, '{"shape":[true],"blocks":[[0]]}'),
            (parse_fweight, '{"shape":[1],"blocks":[[true]]}'),
            (parse_lv_pair, '{"shape":[true],"weight_blocks":[[0]]}'),
            (parse_lv_pair, '{"shape":[1],"weight_blocks":[[false]]}'),
        ],
    )
    def test_boolean_json_rejected(self, parse, text):
        with pytest.raises(ValueError):
            parse(text)

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_fweight, '{"shape":[1],"blocks":[0]}'),
            (parse_fweight, '{"shape":1,"blocks":[[0]]}'),
            (parse_lv_pair, '{"shape":[1],"weight_blocks":[0]}'),
        ],
    )
    def test_non_list_json_rejected(self, parse, text):
        with pytest.raises(ValueError):
            parse(text)

    @pytest.mark.parametrize("weight", ["[0]", "0", "[[0]", ""])
    def test_malformed_weight_rejected(self, capsys, weight):
        code, out, err = run(capsys, "lv-inverse", "--shape", "1", "--weight", weight)
        assert code == 2 and out == "" and "input error" in err


class TestTensor:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "tensor", "--m", "3", "2,1,0", "2,0,0")
        assert code == 0
        assert out.splitlines() == ["1 4,1,0", "1 3,2,0", "1 3,1,1", "1 2,2,1"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "tensor", "--m", "2", "1,0", "1,0")
        assert json.loads(out) == [
            {"mult": 1, "weight": [2, 0]},
            {"mult": 1, "weight": [1, 1]},
        ]
        assert out == '[{"mult": 1, "weight": [2, 0]}, {"mult": 1, "weight": [1, 1]}]\n'

    def test_length_mismatch(self, capsys):
        code, _, err = run(capsys, "tensor", "--m", "3", "1,0", "1,0")
        assert code == 2
        # the length is tested before the order, which tensor_gl checks
        code, _, err = run(capsys, "tensor", "--m", "2", "1,2,0", "2,0")
        assert code == 2 and "weights must have length m=2" in err

    def test_checks_each_weight_once(self, capsys, monkeypatch):
        calls = []
        real = repring.check_gl_weight

        def counted(mu, m=None):
            calls.append(mu)
            return real(mu, m)

        monkeypatch.setattr(repring, "check_gl_weight", counted)
        code, _, _ = run(capsys, "tensor", "--m", "3", "2,1,0", "2,0,0")
        assert code == 0
        assert calls == [(2, 1, 0), (2, 0, 0)]


class TestMinusLeadingArguments:
    """A positional argument that starts with a minus sign and a digit is an
    argument, not an option, in every subcommand."""

    @pytest.mark.parametrize(
        "head, args",
        [
            (("lv",), ("-1,-2",)),
            (("--format", "json", "lv"), ("-1,-2",)),
            (("lv",), ("-1,-1,-3",)),
            (("tensor", "--m", "2"), ("-1,-2", "0,0")),
            (("tensor", "--m", "2"), ("0,0", "-1,-2")),
            (("--format", "json", "tensor", "--m", "3"), ("-1,-2,-2", "1,0,-5")),
        ],
    )
    def test_same_as_separator_form(self, capsys, head, args):
        code, out, err = run(capsys, *head, *args)
        code2, out2, _ = run(capsys, *head, "--", *args)
        assert code == code2 == 0, err
        assert out == out2 and out

    def test_option_after_argument(self, capsys):
        code, out, _ = run(capsys, "tensor", "-1,-2", "0,0", "--m", "2")
        code2, out2, _ = run(capsys, "tensor", "--m", "2", "--", "-1,-2", "0,0")
        assert code == code2 == 0 and out == out2

    def test_help_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lv", "-h"])
        out, _ = capsys.readouterr()
        assert exc.value.code == 0 and out.startswith("usage: ambc lv")


class TestSelfCheck:
    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, "self-check", "--samples", "6")
        assert code == 0
        assert "checks passed" in out.strip().splitlines()[-1]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "self-check", "--samples", "4")
        data = json.loads(out)
        assert all(d["passed"] for d in data)
        # json.dumps's default separators, unlike the compact formats; the
        # 129 reports of --samples 0 are pinned by their digest
        code, out, _ = run(capsys, "--format", "json", "self-check", "--samples", "0")
        assert code == 0 and out.startswith(
            '[{"case": "epsilon[0] lam=(2,)", "expected": "(-2,)", "actual": "(-2,)", "passed": true}, {"case": '
        )
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "e0c9159190fbb10aea7889eb3db267ea1ae0c48ba90e9a6dd2baed3dbba73758"

    def test_negative_samples_rejected(self, capsys):
        code, out, err = run(capsys, "self-check", "--samples=-1")
        assert code == 2 and out == "" and "input error" in err

    def test_readme_count(self):
        # the README shows the summary line of `ambc self-check` at its defaults
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        shown = [line for line in readme.splitlines() if line.endswith(" checks passed")]
        args = _build_parser().parse_args(["self-check"])
        count = len(self_check(seed=args.seed, samples=args.samples))
        assert shown == [f"{count}/{count} checks passed"]


def readme_examples():
    """(argv, shown lines) of each "$ ambc ..." line in the README's
    "Command line" block; the shown lines run up to the next blank line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ ambc "), command
        examples.append((shlex.split(command[2:], comments=True)[1:], shown))
    return examples


README_EXAMPLES = readme_examples()


class TestInternalFailure:
    """Exit code 3: an internal invariant failed, whatever the input."""

    def test_forward_postcondition(self, capsys, monkeypatch):
        real = matrixball._phi_win

        def broken(win, n):
            p, q, rho = real(win, n)
            return p, q, rho[:-1]  # one altitude short of the rows

        monkeypatch.setattr(matrixball, "_phi_win", broken)
        code, out, err = run(capsys, "ambc-forward", "[3,7,14,2,18,4,19,8,6]")
        assert code == 3 and out == ""
        assert err.startswith("internal invariant failure")
        assert "window=(3, 7, 14, 2, 18, 4, 19, 8, 6)" in err

    def test_self_check_mismatch(self, capsys, monkeypatch):
        report = OracleReport("planted", "1", "2", False)
        monkeypatch.setattr(cli, "self_check", lambda seed, samples: [report])
        code, out, err = run(capsys, "self-check")
        assert code == 3
        assert "MISMATCH planted: expected 1, got 2" in out.splitlines()
        assert err.startswith("internal invariant failure")


class TestReadmeExamples:
    @pytest.mark.parametrize(
        "argv, shown", README_EXAMPLES, ids=[argv[0] for argv, _ in README_EXAMPLES]
    )
    def test_output_as_shown(self, capsys, argv, shown):
        # "| tail -1" keeps the last line; a "..." line elides output lines
        tail = argv[-3:] == ["|", "tail", "-1"]
        if tail:
            argv = argv[:-3]
        assert "|" not in argv, argv
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        lines = out.splitlines()[-1:] if tail else out.splitlines()
        if "..." in shown:
            k = shown.index("...")
            head, rest = shown[:k], shown[k + 1:]
            assert len(lines) >= len(head) + len(rest)
            assert lines[:len(head)] == head and lines[len(lines) - len(rest):] == rest
        else:
            assert lines == shown

    def test_every_command_shown(self):
        assert sorted(argv[0] for argv, _ in README_EXAMPLES) == sorted(_COMMANDS)


def cli_output(*argv):
    """The output of ``ambc argv``; its input error (exit 2) as a ValueError."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    if code == 2:
        raise ValueError(err.getvalue())
    return code, out.getvalue()


def lv_inverse_weight(text):
    """``ambc lv-inverse --weight text``: its input error as a ValueError."""
    return cli_output("lv-inverse", "--shape", "2,1", "--weight", text)


DEEP = "[" * 100_000  # nested too deep for the JSON decoder


class TestJsonReaders:
    @pytest.mark.parametrize(
        "reader, text, name",
        [
            (parse_triple, "{p:[[1]],q:[[1]],rho:[0]}", "triple"),
            (parse_triple, "[[[1]],[[1]],[0]]", "triple"),
            (parse_triple, DEEP, "triple"),
            (parse_tabloid, "[[1,2],[3]", "tabloid"),
            (parse_tabloid, '{"rows":[[1,2],[3]]}', "tabloid"),
            (parse_fweight, "shape=2,1 blocks=[[0,0],[1]]", "weight"),
            (parse_fweight, '{"shape":[2,1]}', "weight"),
            (parse_lv_pair, "", "pair"),
            (parse_lv_pair, '{"shape":[1],"weight_blocks":[[0]],"n":1}', "pair"),
            (lv_inverse_weight, "[[0],[1]", "weight"),
            (lv_inverse_weight, '{"blocks":[[0],[1]]}', "weight"),
            (lv_inverse_weight, DEEP, "weight"),
        ],
        ids=lambda v: "deep" if v is DEEP else None,
    )
    def test_bad_input_names_format(self, reader, text, name):
        # text that is not JSON, and JSON of the wrong type
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            reader(text)


def outcome(reader, text):
    try:
        return reader(text)
    except ValueError as e:
        return f"ValueError: {e}"


class TestIntegerReaders:
    @pytest.mark.parametrize(
        "reader, form, name",
        [
            pytest.param(parse_window, "[{},2]", "window", id="parse_window"),
            pytest.param(lambda t: parse_ints(t, "shape"), "2,{}", "shape", id="shape"),
            pytest.param(lambda t: parse_ints(t, "weight"), "{},0", "weight", id="weight"),
            pytest.param(parse_jelement, "{}*[2,1]", "coefficient", id="jelement-coef"),
            pytest.param(parse_jelement, "1*[{},2]", "window", id="jelement-window"),
            pytest.param(lambda t: cli_output("ambc-forward", t), "[{},2]", "window",
                         id="ambc-forward"),
            pytest.param(lambda t: cli_output("tensor", "--m", "2", t, "0,0"), "0,{}", "weight",
                         id="tensor"),
            pytest.param(lambda t: cli_output("lv", t), "0,{}", "weight", id="lv"),
            pytest.param(lambda t: cli_output("involutions", "--shape", t), "{}", "shape",
                         id="involutions"),
        ],
    )
    def test_ascii_digits_after_an_optional_minus(self, reader, form, name):
        # no format writes underscores, other digits or points, so no reader
        # takes them; "−" reads as "-" everywhere
        for token in ("1_0", "٢", "1.0"):
            with pytest.raises(ValueError, match=rf"\bbad {name}\b"):
                reader(form.format(token))
        assert outcome(reader, form.format("−1")) == outcome(reader, form.format("-1"))


# --- fuzz ---------------------------------------------------------------------

# Huge ints stay out of the arguments where a valid input would be huge work:
# shapes (a cell of size N has more than N elements), --samples, and one factor
# of jmult and tensor (a product of two huge weights has a huge number of terms).
SMALL = st.integers(-3, 6)
ANY_INT = st.one_of(SMALL, st.sampled_from((2**64, -(2**64), 10**30, -(10**30))))
SHAPE_INT = st.one_of(st.integers(-1, 1), st.just(-(10**30)))
SHAPES = [lam for n in range(1, 7) for lam in partitions(n)]
JSON_KEYS = ("p", "q", "rho", "shape", "blocks", "weight_blocks")


def commas(xs):
    return ",".join(map(str, xs))


def texts(ints):
    """Malformed or odd argument text: free text, comma lists, window lists
    with holes, and nested JSON, over ints, booleans, floats, null and short
    strings."""
    leaf = st.one_of(ints, st.booleans(), st.floats(), st.none(), st.text(max_size=2))
    items = st.lists(leaf, max_size=6)
    nested = st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4), st.dictionaries(st.sampled_from(JSON_KEYS), kids, max_size=3)
        ),
        max_leaves=10,
    )
    return st.one_of(
        st.text(max_size=8),
        items.map(commas),
        items.map(lambda xs: "[" + commas("_" if x is None else x for x in xs) + "]"),
        nested.map(json.dumps),
    )


def windows(ints, n):
    """Valid total windows of size n, shifted by ``ints`` periods."""
    return st.permutations(range(1, n + 1)).flatmap(
        lambda perm: st.lists(ints, min_size=n, max_size=n).map(
            lambda ks: "[" + commas(v + n * k for v, k in zip(perm, ks)) + "]"
        )
    )


def weights(ints, size):
    return st.lists(ints, min_size=size, max_size=size).map(lambda xs: sorted(xs, reverse=True))


@st.composite
def command_lines(draw):
    """(format, command, argv) with every argument valid but at most one,
    which is fuzz text.  Options are written --name=value and positionals
    follow --, so argument text starting with '-' is never read as an
    option."""
    fmt = draw(st.sampled_from(("text", "json")))
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    lam = draw(st.sampled_from(SHAPES))
    blocks = st.tuples(*(weights(ANY_INT, b - a) for a, b in equal_part_runs(lam)))
    bad_n = st.one_of(st.integers(-1, 7), ANY_INT, st.text(max_size=3)).map(str)
    shape_n = [("shape", st.just(commas(lam)), texts(SHAPE_INT)),
               ("n", st.sampled_from((None, str(sum(lam)))), bad_n)]
    # (option name or None for a positional, valid values, fuzz values)
    spec = {
        "ambc-forward": [(None, windows(ANY_INT, n), texts(ANY_INT))],
        "ambc-backward": [
            (None, windows(ANY_INT, n).map(lambda w: format_triple(phi(parse_window(w)))),
             texts(ANY_INT)),
            ("n", st.sampled_from((None, str(n))), bad_n),
        ],
        "involutions": shape_n,
        "jmult": [(None, windows(ANY_INT, n), texts(ANY_INT)),
                  (None, windows(SMALL, n), texts(SMALL))],
        "lv": [(None, weights(ANY_INT, n).map(commas), texts(ANY_INT))],
        "lv-inverse": shape_n + [("weight", blocks.map(json.dumps), texts(ANY_INT))],
        "tensor": [("m", st.just(str(m)), st.text(max_size=3)),
                   (None, weights(ANY_INT, m).map(commas), texts(ANY_INT)),
                   (None, weights(SMALL, m).map(commas), texts(SMALL))],
        "self-check": [("seed", ANY_INT.map(str), st.text(max_size=3)),
                       ("samples", st.integers(0, 2).map(str),
                        st.one_of(st.integers(-2, -1).map(str), st.text(max_size=3)))],
    }[cmd]
    bad = draw(st.integers(-1, len(spec) - 1))
    argv, args = ["--format", fmt, cmd], []
    for i, (name, valid, fuzz) in enumerate(spec):
        value = draw(fuzz if i == bad else valid)
        if name is None:
            args.append(value)
        elif value is not None:
            argv.append(f"--{name}={value}")
    return fmt, cmd, argv + (["--"] + args if args else [])


def reparse_involutions(out):
    *windows, count = out.splitlines()
    for w in windows:
        parse_window(w)
    assert count == f"count {len(windows)}"


def reparse_jmult(out):
    if out.strip() != "0":
        for term in out.strip().split(" + "):
            coef, w = term.split("*")
            int(coef), parse_window(w)


def reparse_lv(out):
    shape, weight = out.splitlines()
    lam = parse_shape(shape.removeprefix("shape "))
    fweight_from_rows(lam, tuple(int(x) for x in weight.removeprefix("weight ").split(",")))


def reparse_tensor(out):
    for line in out.splitlines():
        coef, w = line.split(" ")
        int(coef), parse_gl_weight(w)


def reparse_self_check(out):
    assert out.splitlines()[-1].endswith(" checks passed")


# How each command's output is read back: its text form, and its JSON form
# for the commands whose output --format json changes.
COMMANDS = {
    "ambc-forward": parse_triple,
    "ambc-backward": parse_window,
    "involutions": reparse_involutions,
    "jmult": reparse_jmult,
    "lv": reparse_lv,
    "lv-inverse": parse_gl_weight,
    "tensor": reparse_tensor,
    "self-check": reparse_self_check,
}
JSON_COMMANDS = {"involutions": json.loads, "jmult": json.loads, "lv": parse_lv_pair,
                 "tensor": json.loads, "self-check": json.loads}


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(command_lines())
    def test_exit_codes_and_reparse(self, line):
        # every command line exits 0 or 2 without a traceback, and what
        # exits 0 prints output its own format reads back
        fmt, cmd, argv = line
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejected the command line
                code = e.code
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 0:
            reader = JSON_COMMANDS.get(cmd, COMMANDS[cmd]) if fmt == "json" else COMMANDS[cmd]
            reader(out.getvalue())
