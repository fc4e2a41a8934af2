import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nodaltheta

from nodaltheta.cli import (
    EXIT_STDOUT_CLOSED,
    build_parser,
    canonical_json,
    dispatch,
    golden_suite,
    main,
)
from nodaltheta.multiplicity import DEFAULT_TMAX
from nodaltheta.series import DEFAULT_TRUNCATION

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "golden"

CURVE_G1 = '{"nodes":[[0,1]]}'
THETA_G2 = ["theta", "--curve", '{"nodes":[[0,1],[2,3]]}', "--sheaf"]
SHEAF_TRIVIAL = '{"nonfree":[],"dL":0,"glue":{"0":1}}'
FAMILY = ["family", "--curve", CURVE_G1, "--sheaf", SHEAF_TRIVIAL, "--family"]
# argv prefixes that end with a flag taking a JSON object
JSON_FLAGS = {
    "--curve": ["theta", "--sheaf", SHEAF_TRIVIAL, "--curve"],
    "--sheaf": ["theta", "--curve", CURVE_G1, "--sheaf"],
    "--family": FAMILY,
    "--images": ["arc", "--model", "n=1,m=1", "--f=w1", "--images"],
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def diagnostic(err):
    """The check named by stderr, which must be exactly one JSON line."""
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])["error"]


class TestReports:
    def test_branchsum_report_values(self, capsys):
        code, out, _ = run(
            capsys, ["mult", "--model", "n=1,m=1", "--f", "v1 - u1^2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ord"] == 1
        assert payload["mult_V"] == 2
        assert payload["mult_D"] == 3
        assert payload["per_branch"] == [2, 1]
        assert payload["eqnmat"] == {"holds": True, "equality": False}

    def test_oracle_report_values(self, capsys):
        code, out, _ = run(
            capsys,
            ["hs", "--vars", "x,y,z", "--rel", "y^2-x^3", "--f", "x-z^3", "--tmax", "10"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 1
        assert payload["multiplicity"] == 2

    def test_oracle_not_stabilized_below_generator_order(self, capsys):
        # x^12 is invisible up to t = 11, so tmax 10 sees only k[[x, y]].
        code, out, _ = run(capsys, ["hs", "--vars", "x,y", "--rel", "x^12", "--tmax", "10"])
        assert code == 0
        payload = json.loads(out)
        assert payload["stabilized"] is False
        assert (payload["dimension"], payload["multiplicity"]) == (None, None)
        code, out, _ = run(capsys, ["hs", "--vars", "x,y", "--rel", "x^12", "--tmax", "16"])
        assert code == 0
        payload = json.loads(out)
        assert payload["stabilized"] is True
        assert (payload["dimension"], payload["multiplicity"]) == (1, 12)

    def test_with_hs_reports_unstabilized_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            ["mult", "--model", "n=0,m=2", "--f=w1^12", "--with-hs", "--tmax", "10"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mult_D"] == 12
        assert payload["hs_table"]["stabilized"] is False
        assert payload["hs_table"]["multiplicity"] is None
        assert payload["hs_agrees"] is False

    def test_theta_report_values(self, capsys):
        code, out, _ = run(
            capsys, ["theta", "--curve", CURVE_G1, "--sheaf", SHEAF_TRIVIAL]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 0, "h0": 1, "h1": 1, "ord": 1, "multJ": 1, "multTheta": 1,
            "onTheta": True, "singular": False,
        }

    def test_ord_report(self, capsys):
        code, out, _ = run(capsys, ["ord", "--model", "n=1,m=0", "--f", "u1*v1"])
        assert code == 0
        assert json.loads(out)["ord"] == "Infinite"

    def test_alias_binding(self, capsys):
        code, out, _ = run(
            capsys,
            ["mult", "--model", "n=1,m=1", "--bind", "x=u1,y=v1,z=w1",
             "--f", "y - x^2"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mult_D"] == 3 and payload["per_branch"] == [2, 1]

    @pytest.mark.parametrize(
        "images, expected",
        [
            ('{"x":"t^2","y":"t^3","z":"0"}', '{"N":8,"contact":2}'),
            ('{"x":"0","y":"0","z":"0"}', '{"N":8,"atLeast":9,"contact":"ArcInsideDivisor"}'),
        ],
    )
    def test_arc_on_a_quotient_ring(self, capsys, images, expected):
        code, out, _ = run(
            capsys,
            ["arc", "--vars", "x,y,z", "--rel", "y^2-x^3", "--f", "x-z^3",
             "--images", images, "--N", "8"],
        )
        assert (code, out) == (0, expected + "\n")

    def test_through_z_arc_not_found(self, capsys):
        code, out, _ = run(
            capsys, ["arc", "--model", "n=1,m=1", "--f", "u1 + w1^2", "--through-z"]
        )
        assert (code, out) == (0, '{"N":16,"bestContact":2,"found":false,"seed":0}\n')

    def test_alias_binding_rejects_duplicates(self, capsys):
        code, _, err = run(
            capsys,
            ["mult", "--model", "n=1,m=1", "--bind", "x=u1,x=v1", "--f", "x"],
        )
        assert code == 2
        assert json.loads(err)["error"] == "bind"

    def test_seed_echoed(self, capsys):
        code, out, _ = run(
            capsys,
            ["arcs-sample", "--model", "n=1,m=1", "--f", "v1-u1^2",
             "--count", "10", "--seed", "42", "--N", "6"],
        )
        assert code == 0
        assert json.loads(out)["seed"] == 42


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = [
            "verify-A", "--curve", '{"nodes":[[0,1],[2,3]]}',
            "--sheaf", '{"nonfree":[0],"dL":0,"glue":{"1":1}}', "--seed", "3",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_canonical_key_order(self, capsys):
        _, out, _ = run(capsys, ["ord", "--model", "n=0,m=1", "--f", "w1^3"])
        assert out == canonical_json(json.loads(out)) + "\n"


class TestExitCodes:
    def test_parse_error_is_exit_2(self, capsys):
        code, out, err = run(capsys, ["ord", "--model", "n=1,m=0", "--f", "u1 +"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "parse"

    def test_precondition_named_in_diagnostic(self, capsys):
        code, _, err = run(capsys, ["mult", "--model", "n=1,m=0", "--f", "u1"])
        assert code == 2
        assert json.loads(err)["error"] == "divisor-contains-branch"

    def test_degree_mismatch_is_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            ["theta", "--curve", CURVE_G1, "--sheaf", '{"nonfree":[],"dL":3,"glue":{"0":1}}'],
        )
        assert code == 2
        assert json.loads(err)["error"] == "degree-mismatch"

    def test_malformed_json_is_exit_2(self, capsys):
        code, _, err = run(capsys, ["theta", "--curve", "{bad", "--sheaf", SHEAF_TRIVIAL])
        assert code == 2

    @pytest.mark.parametrize(
        "curve, sheaf, check",
        [
            ('{"nodes":[[0,"1/0"]]}', SHEAF_TRIVIAL, "json"),
            ('{"nodes":[[0,"1/x"]]}', SHEAF_TRIVIAL, "json"),
            (CURVE_G1, '{"nonfree":[],"dL":"x","glue":{"0":1}}', "sheaf"),
            (CURVE_G1, '{"nonfree":["a"],"dL":0,"glue":{}}', "sheaf"),
            (CURVE_G1, '{"nonfree":[],"dL":1.9,"glue":{"0":1}}', "sheaf"),
            ('{"nodes":5}', '{"nonfree":[],"dL":0,"glue":[]}', "curve"),
            ('{"nodes":[5]}', '{"nonfree":[],"dL":0,"glue":[]}', "curve"),
            ("{}", SHEAF_TRIVIAL, "curve"),
            (CURVE_G1, '{"nonfree":[],"glue":{"0":1}}', "sheaf"),
        ],
    )
    def test_bad_loader_input_is_exit_2(self, capsys, curve, sheaf, check):
        code, out, err = run(capsys, ["theta", "--curve", curve, "--sheaf", sheaf])
        assert code == 2
        assert out == ""
        assert diagnostic(err) == check

    @pytest.mark.parametrize(
        "argv, check",
        [
            (JSON_FLAGS["--sheaf"] + ['{"dL":0,"glue":[1]}'], "sheaf"),
            (JSON_FLAGS["--sheaf"] + ['{"nonfree":5,"dL":0,"glue":{"0":1}}'], "sheaf"),
            (FAMILY + ['{"glueSeries":{"x":"1+t"}}'], "family"),
            (FAMILY + ['{"glueSeries":[1]}'], "family"),
            (FAMILY + ['{"moving":5}'], "family"),
            (FAMILY + ['{"moving":[5]}'], "family"),
            (FAMILY + ['{"moving":[{"trajectory":"7+t"}]}'], "family"),
            (FAMILY + ['{"moving":[{"base":7}]}'], "family"),
            (FAMILY[:5] + ["--aux", "5"], "aux-divisor"),
            (FAMILY[:5] + ["--aux", '{"2":0}'], "aux-divisor"),
            (JSON_FLAGS["--images"] + ['{"images":[1]}'], "arc"),
            # a key that no loader reads, and a series not written as a string
            (["curve-h0", "--curve", CURVE_G1, "--sheaf",
              '{"nonfree":[],"dL":0,"glue":{"0":1},"nonFree":[0]}'], "sheaf"),
            (JSON_FLAGS["--curve"] + ['{"nodes":[[0,1]],"node":[]}'], "curve"),
            (FAMILY + ['{"glueseries":{"0":"1+t"}}', "--aux", "[2]"], "family"),
            (FAMILY + ['{"moving":[{"base":7,"trajectory":"7+t","speed":2}]}'], "family"),
            (FAMILY + ['{"glueSeries":{"0":1}}'], "family"),
            (FAMILY + ['{"moving":[{"base":7,"trajectory":7}]}'], "family"),
            (JSON_FLAGS["--images"] + ['{"images":{"u1":"0","v1":"t","w1":"0"}}'], "arc"),
            (JSON_FLAGS["--images"] + ['{"u1":0,"v1":"t","w1":"0"}'], "arc"),
        ],
    )
    def test_malformed_json_shape_is_exit_2(self, capsys, argv, check):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert diagnostic(err) == check

    @pytest.mark.parametrize("flag, check", [
        ("--curve", "curve"), ("--sheaf", "sheaf"), ("--family", "family"), ("--images", "arc"),
    ])
    @pytest.mark.parametrize("content", [b"[1]", b'"x"', b"\xff{}", None])
    def test_json_file_that_is_no_object_is_exit_2(self, capsys, tmp_path, flag, check, content):
        # an array or a string fails the flag's check; a directory or text
        # that is not UTF-8 cannot be read at all
        path = tmp_path / "argument.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, out, err = run(capsys, JSON_FLAGS[flag] + [str(path)])
        assert (code, out) == (2, "")
        assert diagnostic(err) == (check if content in (b"[1]", b'"x"') else "input")

    @pytest.mark.parametrize(
        "argv",
        [
            ["ord", "--model", "n=1,m=1", "--f", "w1", "--unknown"],
            ["arc", "--model", "n=1,m=1", "--f=w1", "--minimal", "--N", "q"],
            [],
            ["no-such-command"],
            ["arc", "--model", "n=1,m=1", "--vars", "x", "--f=x", "--images", '{"x":"t"}'],
            ["arc", "--model", "n=1,m=1", "--minimal"],
            ["arcs-sample", "--model", "n=1,m=1"],
            ["hs", "--rel", "x"],
            # a second truncation, no arc mode or two, a flag of the other ring
            ["hs", "--vars", "x", "--rel", "x^2", "--truncation", "20"],
            ["arc", "--model", "n=1,m=1", "--f=w1", "--minimal", "--truncation", "20"],
            ["arc", "--model", "n=1,m=1", "--f=w1"],
            ["arc", "--model", "n=1,m=1", "--f=w1", "--minimal", "--through-z"],
            ["arc", "--model", "n=1,m=1", "--f=v1-u1^2", "--minimal",
             "--images", '{"u1":"t","v1":"t","w1":"0"}'],
            ["arcs-sample", "--model", "n=1,m=1", "--f=v1-u1^2", "--rel", "u1-v1"],
            ["arcs-sample", "--model", "n=1,m=1", "--f=v1-u1^2", "--param", "u1:s"],
            ["arc", "--vars", "x,y", "--f=x", "--bind", "z=x", "--images", '{"x":"t","y":"0"}'],
            # a seed without a search, a depth without the oracle, a search off a model
            ["arc", "--model", "n=1,m=1", "--f=v1-u1^2",
             "--images", '{"u1":"0","v1":"t","w1":"0"}', "--seed", "7"],
            ["mult", "--model", "n=1,m=1", "--f=v1-u1^2", "--tmax", "3"],
            ["mult", "--model", "n=1,m=1", "--f=v1-u1^2", "--tmax", str(DEFAULT_TMAX)],
            ["arc", "--vars", "x", "--f", "x", "--minimal"],
            ["arc", "--vars", "x", "--f", "x", "--through-z", "--seed", "0"],
        ],
    )
    def test_bad_argv_is_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert diagnostic(err) == "argv"

    @pytest.mark.parametrize("argv", [["--help"], ["arc", "--help"]])
    def test_help_is_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: nodaltheta")
        assert captured.err == ""

    def test_verify_truncation_below_h0_is_exit_2(self, capsys):
        argv = ["verify-A", "--curve", '{"nodes":[[0,1],[2,3]]}',
                "--sheaf", '{"dL":1,"glue":{"0":1,"1":1}}', "--N"]
        code, out, err = run(capsys, argv + ["0"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "truncation"
        code, out, _ = run(capsys, argv + ["1"])
        assert code == 0
        assert json.loads(out)["familyOrder"] == 1

    def test_negative_arc_count_is_exit_2(self, capsys):
        code, out, err = run(
            capsys,
            ["arcs-sample", "--model", "n=1,m=1", "--f=v1-u1^2", "--count", "-5", "--N", "8"],
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "count"

    def test_negative_family_count_is_exit_2(self, capsys):
        code, out, err = run(
            capsys,
            ["verify-A", "--curve", CURVE_G1, "--sheaf", SHEAF_TRIVIAL, "--families", "-1"],
        )
        assert (code, out) == (2, "")
        assert diagnostic(err) == "families"

    def test_through_z_truncation_below_order_is_exit_2(self, capsys):
        argv = ["arc", "--model", "n=1,m=1", "--f=w1^3", "--N", "2"]
        code, out, minimal_err = run(capsys, argv + ["--minimal"])
        assert (code, out) == (2, "")
        code, out, err = run(capsys, argv + ["--through-z"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "truncation"
        assert err == minimal_err

    def test_zero_arc_count_is_valid(self, capsys):
        code, out, _ = run(
            capsys,
            ["arcs-sample", "--model", "n=1,m=1", "--f=v1-u1^2", "--count", "0", "--N", "8"],
        )
        assert code == 0
        report = json.loads(out)
        assert (report["requested"], report["used"], report["minContact"]) == (0, 0, None)

    @pytest.mark.parametrize("model", ["n=x"])
    def test_bad_model_integer_is_exit_2(self, capsys, model):
        code, out, err = run(capsys, ["ord", "--model", model, "--f", "w1"])
        assert code == 2
        assert json.loads(err)["error"] == "model"

    def test_model_as_json_is_exit_2(self, capsys):
        # "n=1,m=1" is the one model syntax
        code, out, err = run(capsys, ["ord", "--model", '{"n":1,"m":1}', "--f", "w1"])
        assert (code, out) == (2, "")
        assert diagnostic(err) == "model"

    def test_bad_family_truncation_is_exit_2(self, capsys):
        # a family's truncation comes from --N alone
        code, out, err = run(capsys, FAMILY + ['{"N":8,"glueSeries":{"0":"1+t"}}'])
        assert (code, out) == (2, "")
        assert diagnostic(err) == "family"

    @pytest.mark.parametrize(
        "expression", ["(" * 3000 + "w1" + ")" * 3000, "-" * 3000 + "w1"]
    )
    def test_deep_nesting_is_exit_2(self, capsys, expression):
        code, out, err = run(capsys, ["ord", "--model", "n=1,m=1", "--f=" + expression])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "parse"

    def test_golden_failure_is_exit_3(self, capsys, tmp_path):
        case = tmp_path / "broken"
        case.mkdir()
        (case / "input.json").write_text(
            json.dumps({"argv": ["ord", "--model", "n=0,m=1", "--f", "w1"]}),
            encoding="utf-8",
        )
        (case / "expected.json").write_text('{"ord": 99}', encoding="utf-8")
        code, _, err = run(capsys, ["golden", "--dir", str(tmp_path)])
        assert code == 3
        assert json.loads(err)["error"] == "verification"

    @pytest.mark.parametrize(
        "content",
        ['{"argv":5}', "[1]", '{"argv":[5]}', '{"args":[]}', None,
         '{"argv":["ord","--model","n=0,m=1","--f","w1"],"N":16}'],
    )
    def test_malformed_golden_case_is_exit_2(self, capsys, tmp_path, content):
        # None: a directory with no case, which must not pass vacuously
        if content is not None:
            case = tmp_path / "case"
            case.mkdir()
            (case / "input.json").write_text(content, encoding="utf-8")
            (case / "expected.json").write_text('{"ord":0}', encoding="utf-8")
        code, out, err = run(capsys, ["golden", "--dir", str(tmp_path)])
        assert (code, out) == (2, "")
        assert diagnostic(err) == "golden"

    @pytest.mark.parametrize(
        "argv, check",
        [
            (["golden", "--dir", "{suite}"], "golden"),
            (["theta", "--curve", "no\0such.json", "--sheaf", SHEAF_TRIVIAL], "input"),
        ],
    )
    def test_golden_case_that_cannot_run_is_exit_2(self, capsys, tmp_path, argv, check):
        # a case running the suite itself would recurse without bound
        case = tmp_path / "case"
        case.mkdir()
        argv = [arg.replace("{suite}", str(tmp_path)) for arg in argv]
        (case / "input.json").write_text(json.dumps({"argv": argv}), encoding="utf-8")
        (case / "expected.json").write_text("{}", encoding="utf-8")
        code, out, err = run(capsys, ["golden", "--dir", str(tmp_path)])
        assert (code, out) == (2, "")
        assert diagnostic(err) == check

    @pytest.mark.parametrize("help_argv", [["--help"], ["hs", "-h"]])
    def test_golden_case_asking_for_help_is_exit_2(self, capsys, tmp_path, help_argv):
        # cases run in name order; the help action used to end the suite with
        # exit 0 before the failing second case ran
        cases = {
            "a-help": (help_argv, "{}"),
            "b-failing": (["ord", "--model", "n=0,m=1", "--f", "w1"], '{"ord": 99}'),
        }
        for name, (argv, expected) in cases.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "input.json").write_text(
                json.dumps({"argv": argv}), encoding="utf-8"
            )
            (tmp_path / name / "expected.json").write_text(expected, encoding="utf-8")
        code, out, err = run(capsys, ["golden", "--dir", str(tmp_path)])
        assert (code, out) == (2, "")
        assert diagnostic(err) == "golden"

    @pytest.mark.parametrize(
        "argv",
        [
            ["hs", "--vars", "a,b,c,d,e,f", "--rel", "a*b", "--f", "c", "--tmax", "60"],
            ["mult", "--model", "n=0,m=12", "--f", "w1", "--with-hs", "--tmax", "12"],
        ],
    )
    def test_oracle_past_the_column_cap_is_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert diagnostic(err) == "t-max"

    @pytest.mark.parametrize(
        "argv",
        [
            ["mult", "--model", "n=30,m=0", "--f", "u1+v1"],
            ["mult", "--model", "n=17,m=1", "--f", "u1+v1+w1"],
        ],
    )
    def test_model_past_the_branch_budget_is_exit_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert diagnostic(err) == "model"

    def test_sampling_accepts_models_past_the_branch_budget(self, capsys):
        code, out, _ = run(
            capsys, ["arcs-sample", "--model", "n=30,m=0", "--f", "u1+v1", "--count", "5"]
        )
        assert code == 0
        assert json.loads(out)["minContact"] == 1

    def test_minimal_arc_accepts_models_past_the_branch_budget(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, ["arc", "--model", "n=17,m=0", "--f", "u1+v1", "--minimal"])
        assert time.perf_counter() - start < 1
        assert code == 0
        assert json.loads(out)["branch"] == "u" * 17

    def test_parametrization_off_the_relations_is_exit_2_at_count_0(self, capsys):
        code, out, err = run(
            capsys,
            ["arcs-sample", "--vars", "x,y,z", "--rel", "y^2-x^3", "--f", "x-z^3",
             "--param", "x:s^2,y:s^2", "--count", "0"],
        )
        assert (code, out) == (2, "")
        assert diagnostic(err) == "relation-violated"

    @pytest.mark.parametrize(
        "param, message",
        [("q:s^2", "unknown variable 'q'"), ("x", "bad parametrization component 'x'")],
    )
    def test_bad_parametrization_is_exit_2(self, capsys, param, message):
        code, out, err = run(
            capsys,
            ["arcs-sample", "--vars", "x,y,z", "--rel", "y^2-x^3", "--f", "x-z^3",
             "--param", param],
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "parametrize", "message": f"parametrize: {message}"}

    @pytest.mark.parametrize(
        "binding, message",
        [
            ("x", "bad binding component 'x'"),
            ("=u1", "bad binding component '=u1'"),
            ("x=q9", "unknown coordinate 'q9'"),
            ("x=u1,y=u1", "two aliases bound to one coordinate"),
        ],
    )
    def test_bad_binding_is_exit_2(self, capsys, binding, message):
        code, out, err = run(capsys, ["mult", "--model", "n=1,m=1", "--bind", binding, "--f", "u1"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "bind", "message": f"bind: {message}"}

    def test_node_at_infinity_is_exit_2(self, capsys):
        # rejected with the same check and message by every curve command
        expected = {
            "error": "normalize-infinity",
            "message": "normalize-infinity: node at infinity: "
            "change coordinates before sheaf operations",
        }
        for point in ("inf", " Infinity"):
            curve = json.dumps({"nodes": [[0, point]]})
            for command in ("curve-h0", "theta", "family", "verify-A"):
                code, out, err = run(
                    capsys, [command, "--curve", curve, "--sheaf", SHEAF_TRIVIAL]
                )
                assert (code, out) == (2, "")
                assert json.loads(err) == expected

    @pytest.mark.parametrize("flag", sorted(JSON_FLAGS))
    def test_json_nested_past_the_recursion_limit_is_exit_2(self, capsys, flag):
        deep = '{"nodes":' + "[" * 50000 + "]" * 50000 + "}"
        code, out, err = run(capsys, JSON_FLAGS[flag] + [deep])
        assert (code, out) == (2, "")
        assert diagnostic(err) == "input"

    def test_aux_nested_past_the_recursion_limit_is_exit_2(self, capsys):
        code, out, err = run(capsys, FAMILY[:5] + ["--aux", "[" * 100000])
        assert (code, out) == (2, "")
        assert diagnostic(err) == "input"

    @pytest.mark.parametrize(
        "argv, check",
        [
            (THETA_G2 + ['{"dL":1,"glue":{"0":1,"1":1,"01":2}}'], "sheaf"),
            (THETA_G2 + ['{"dL":1,"glue":{"0":1,"1":1,"1":2}}'], "sheaf"),
            (THETA_G2 + ['{"nonfree":[1,1],"dL":0,"glue":{"0":1}}'], "sheaf"),
            (THETA_G2 + ['{"nonfree":[1,"1"],"dL":0,"glue":{"0":1}}'], "sheaf"),
            (FAMILY + ['{"glueSeries":{"0":"1+t","00":"1"}}'], "family"),
            (FAMILY + ['{"glueSeries":{"0":"1+t","0":"1"}}'], "family"),
        ],
        ids=["glue-01", "glue-repeated", "nonfree-repeated", "nonfree-1-and-string",
             "glueSeries-00", "glueSeries-repeated"],
    )
    def test_two_keys_that_name_one_node_are_exit_2(self, capsys, argv, check):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert diagnostic(err) == check

    def test_one_key_per_node_is_read(self, capsys):
        # "01" alone names node 1: the sheaf with glue 1 at both nodes is on theta
        sheaf = '{"dL":1,"glue":{"0":1,"01":1}}'
        code, out, _ = run(capsys, THETA_G2 + [sheaf])
        assert (code, json.loads(out)["onTheta"]) == (0, True)

    @pytest.mark.parametrize("flag", sorted(JSON_FLAGS))
    def test_path_with_a_nul_byte_is_exit_2(self, capsys, flag):
        code, out, err = run(capsys, JSON_FLAGS[flag] + ["no\0such.json"])
        assert (code, out) == (2, "")
        assert diagnostic(err) == "input"

    def test_empty_vars_is_exit_2(self, capsys):
        for argv in (
            ["arcs-sample", "--vars", "", "--f", "x"],
            ["arc", "--vars", "", "--f", "x", "--images", '{"x":"t"}'],
        ):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert diagnostic(err) == "parse"

    @pytest.mark.parametrize(
        "argv, check",
        [
            (FAMILY + [""], "input"),
            (FAMILY + ['{"glueSeries":{"0":"1+t"}}', "--aux", ""], "input"),
            (["ord", "--model", "n=1,m=1", "--f", "u1+w1^2", "--bind", ""], "bind"),
            (["arcs-sample", "--vars", "x,y,z", "--rel", "y^2-x^3", "--f", "x-z^3",
              "--param", ""], "parametrize"),
            (["hs", "--vars", "x,,y", "--rel", "x*y", "--tmax", "4"], "variables"),
        ],
        ids=["family", "aux", "bind", "param", "vars"],
    )
    def test_empty_flag_value_is_not_read_as_absent(self, capsys, argv, check):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert diagnostic(err) == check

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "--curve", "", "--sheaf", "{}"],
            ["arc", "--model", "n=1,m=1", "--f", "u1", "--images", ""],
            ["arc", "--model", "n=1,m=1", "--f", "u1", "--images", "  "],
        ],
        ids=["curve", "images", "blank-images"],
    )
    def test_blank_json_argument_is_not_read_as_a_path(self, capsys, argv):
        # an empty path would name the working directory
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": "input: empty argument"}

    def test_trajectory_that_misses_its_base_is_exit_2(self, capsys):
        code, out, err = run(capsys, FAMILY + ['{"moving":[{"base":7,"trajectory":"8+2*t"}]}'])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "family",
            "message": "family: trajectory does not start at its base point",
        }

    def test_truncations_come_from_argv_alone(self, monkeypatch):
        # the parser is built once, its defaults are the documented ones, and
        # the environment changes no report
        monkeypatch.setenv("NODALTHETA_N", "8")
        monkeypatch.setenv("NODALTHETA_TMAX", "6")
        arc = ["arc", "--model", "n=1,m=1", "--f=w1", "--minimal"]
        assert dispatch(arc)["N"] == DEFAULT_TRUNCATION
        assert dispatch(arc + ["--N", "5"])["N"] == 5
        family = FAMILY + ['{"glueSeries":{"0":"1+t"}}']
        assert dispatch(family)["N"] == DEFAULT_TRUNCATION
        assert dispatch(family + ["--N", "12"])["N"] == 12
        assert dispatch(["hs", "--vars", "x", "--rel", "x^2"])["t_max"] == DEFAULT_TMAX
        assert dispatch(["ord", "--model", "n=0,m=1", "--f", "w1^10"]) == {"ord": 10}
        assert build_parser() is build_parser()


class TestLargePowers:
    """Powers cost O(log e) products and vanish early past the truncation."""

    @pytest.mark.parametrize("expression", ["w1^100000000", "(1+w1)^100000"])
    def test_large_exponent_finishes(self, expression):
        src = str(Path(nodaltheta.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["ord", "--model", "n=1,m=1", "--f", expression]
        done = subprocess.run(
            [sys.executable, "-m", "nodaltheta.cli", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["ord"] == ("Infinite" if expression.startswith("w1") else 0)

class TestClosedStdout:
    """A reader that closes the pipe early gets no traceback on stderr."""

    @staticmethod
    def spawn(argv, **streams):
        # Block-buffered stdout, so that a short report fails only at the flush.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(nodaltheta.__file__).resolve().parent.parent)
        return subprocess.Popen(
            [sys.executable, "-m", "nodaltheta.cli", *argv], stderr=subprocess.PIPE,
            env=env, **streams,
        )

    def test_pipe_closed_before_the_report(self):
        read, write = os.pipe()
        os.close(read)
        try:
            process = self.spawn(["ord", "--model", "n=1,m=1", "--f", "v1"], stdout=write)
        finally:
            os.close(write)
        _, err = process.communicate(timeout=30)
        assert (process.returncode, err) == (EXIT_STDOUT_CLOSED, b"")

    def test_pipe_closed_after_one_byte(self):
        # about 150 KB of report, more than a pipe buffers
        argv = ["mult", "--model", "n=13,m=0", "--f", "u1+v1"]
        with self.spawn(argv, stdout=subprocess.PIPE) as process:  # closes both pipes
            assert process.stdout.read(1) == b"{"
            process.stdout.close()
            err = process.stderr.read()
            assert (process.wait(timeout=30), err) == (EXIT_STDOUT_CLOSED, b"")


class TestGoldenSuite:
    def test_shipped_cases_pass(self):
        summary = golden_suite(str(GOLDEN))
        assert summary["cases"] >= 5
        assert summary["failed"] == 0

    def test_corrupted_pair_reports_diff(self, tmp_path):
        target = tmp_path / "suite"
        shutil.copytree(GOLDEN, target)
        case = sorted(target.iterdir())[0]
        expected = json.loads((case / "expected.json").read_text(encoding="utf-8"))
        first_key = sorted(expected)[0]
        expected[first_key] = "corrupted"
        (case / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
        summary = golden_suite(str(target))
        assert summary["failed"] == 1
        failing = [r for r in summary["results"] if not r["ok"]]
        assert failing[0]["case"] == case.name
        assert "expected" in failing[0] and "actual" in failing[0]


class TestInputForms:
    def test_curve_and_sheaf_from_files(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.json"
        sheaf_path = tmp_path / "sheaf.json"
        curve_path.write_text('{"nodes": [[0, 1], [2, 3]]}', encoding="utf-8")
        sheaf_path.write_text(
            '{"nonfree": [0], "dL": 0, "glue": {"1": "1"}}', encoding="utf-8"
        )
        code, out, _ = run(
            capsys, ["curve-h0", "--curve", str(curve_path), "--sheaf", str(sheaf_path)]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["h0"] == 1 and payload["h1"] == 1

    def test_rational_strings_in_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["curve-h0", "--curve", '{"nodes":[["1/2","3/2"]]}',
             "--sheaf", '{"nonfree":[],"dL":0,"glue":{"0":"2/2"}}'],
        )
        assert code == 0
        assert json.loads(out)["h0"] == 1

    def test_arc_images_inline(self, capsys):
        code, out, _ = run(
            capsys,
            ["arc", "--model", "n=1,m=1", "--f", "v1-u1^2",
             "--images", '{"u1":"0","v1":"t","w1":"0"}'],
        )
        assert code == 0
        assert json.loads(out)["contact"] == 1

    def test_dispatch_matches_main_output(self, capsys):
        argv = ["theta", "--curve", CURVE_G1, "--sheaf", SHEAF_TRIVIAL]
        payload = dispatch(argv)
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out) == payload


class TestReadme:
    def test_cli_examples_exit_0(self, capsys):
        # every `nodaltheta` line of the README's CLI block, continuations
        # joined, runs as written; together they cover every subcommand but
        # `golden`, which has its own section
        text = (REPO / "README.md").read_text(encoding="utf-8")
        block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("nodaltheta ")]
        for argv in commands:
            assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert capsys.readouterr().err == ""
        subcommands = build_parser()._subparsers._group_actions[0].choices
        assert {argv[0] for argv in commands} == set(subcommands) - {"golden"}
