import json
from pathlib import Path

import pytest

from ambc.cli import _build_parser, main
from ambc.lusztig_vogan import parse_lv_pair
from ambc.oracles import self_check
from ambc.repring import parse_fweight


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
        assert code == 2

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

    def test_length_mismatch(self, capsys):
        code, _, err = run(capsys, "tensor", "--m", "3", "1,0", "1,0")
        assert code == 2


class TestSelfCheck:
    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, "self-check", "--samples", "6")
        assert code == 0
        assert "checks passed" in out.strip().splitlines()[-1]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "self-check", "--samples", "4")
        data = json.loads(out)
        assert all(d["passed"] for d in data)

    def test_readme_count(self):
        # the README shows the summary line of `ambc self-check` at its defaults
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        shown = [line for line in readme.splitlines() if line.endswith(" checks passed")]
        args = _build_parser().parse_args(["self-check"])
        count = len(self_check(seed=args.seed, samples=args.samples))
        assert shown == [f"{count}/{count} checks passed"]
