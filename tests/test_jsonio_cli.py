import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import square
from wkstab import (
    Convention,
    Polynomial,
    check_fano_fiber,
    cli,
    condition_value_fano,
    extremal_affine,
    futaki,
    jsonio,
    measure,
    polytope,
    projective_bundle,
    stability,
    standard_fiber_polytope,
)
from wkstab.jsonio import InputError
from wkstab.polytope import Simplex, cone_decomposition, triangulate_facet
from _reference_fraction import condition_value_fano_fraction
from _frozen import (
    FANO_TOTAL_SUP,
    RANK_ONE_LEXT_CONST,
    RANK_ONE_LEXT_SLOPE,
)

RANK_ONE = (
    '{"fiber": {"standard_simplex": {"l": 1, "t": 1}},'
    ' "factors": [{"n": 3, "s": -6, "c": 15, "p": [1]}]}'
)
RANK_ONE_REFUTED = RANK_ONE.replace('"c": 15', '"c": "11/10"')
TRI_S24 = (
    '{"fiber": {"standard_simplex": {"l": 2, "t": 1}},'
    ' "factors": [{"n": 3, "s": 24, "c": 4, "p": [1, 2]}]}'
)
TRI_TEMPLATE = TRI_S24.replace('"c": 4', '"c": "var"')


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


# ------------------------------------------------------------------ jsonio


def test_float_literals_rejected():
    with pytest.raises(InputError):
        jsonio.loads('{"x": 1.5}')
    with pytest.raises(InputError):
        jsonio.loads('{"x": NaN}')
    with pytest.raises(InputError):
        jsonio.loads("not json")


def test_rational_json_round_trip():
    assert jsonio.rational_to_json(F(3, 2)) == "3/2"
    assert jsonio.rational_to_json(F(-4, 2)) == -2
    assert jsonio.rational_from_json("3/2", "x") == F(3, 2)
    assert jsonio.rational_from_json(-7, "x") == -7
    for bad in (True, [1], "2/x", "1/0"):
        with pytest.raises(InputError):
            jsonio.rational_from_json(bad, "x")


@pytest.mark.parametrize("text", ["1e3", "1E-2", "3e0", "-2/1e1"])
def test_rational_strings_with_an_exponent_are_rejected_at_their_path(text):
    with pytest.raises(InputError, match="exponent") as exc:
        jsonio.rational_from_json(text, "fibration.factors[0].c")
    assert exc.value.path == "fibration.factors[0].c"


def test_an_integer_past_the_digit_limit_is_an_input_error():
    with pytest.raises(InputError) as exc:
        jsonio.loads("[" + "7" * 5001 + "]")
    assert exc.value.path == "<input>"


def test_polytope_round_trip_and_unknown_keys():
    P = square()
    node = jsonio.polytope_to_json(P)
    Q = jsonio.polytope_from_json(node)
    assert Q.labels == P.labels
    assert set(Q.vertices) == set(P.vertices)
    with pytest.raises(InputError):
        jsonio.polytope_from_json({"dim": 2, "labels": [], "extra": 1})
    with pytest.raises(InputError):
        jsonio.polytope_from_json({"standard_simplex": {"l": 0, "t": 1}})


def test_standard_simplex_shorthand():
    node = {"standard_simplex": {"l": 2, "t": "1/2"}}
    P = jsonio.polytope_from_json(node)
    assert P.labels == standard_fiber_polytope(2, F(1, 2)).labels


def test_fibration_from_json_matches_builder():
    fib = jsonio.fibration_from_json(jsonio.loads(RANK_ONE), Convention.CANONICAL)
    built = projective_bundle([[1]], [(3, -6)], [15], t=1)
    assert fib.factors == built.factors
    assert fib.fiber.labels == built.fiber.labels
    assert fib.convention is Convention.CANONICAL


def test_fibration_preset_factor():
    node = jsonio.loads(
        '{"fiber": {"standard_simplex": {"l": 1, "t": 1}},'
        ' "factors": [{"preset": "P3", "p": [1]}]}'
    )
    fib = jsonio.fibration_from_json(node, Convention.CANONICAL)
    f = fib.factors[0]
    assert (f.n, f.s, f.c) == (3, 24, 4)
    with pytest.raises(InputError):
        bad = jsonio.loads(RANK_ONE.replace('"n": 3, ', '"preset": "nope", "n": 3, '))
        jsonio.fibration_from_json(bad, Convention.CANONICAL)


def test_var_marker_only_in_templates():
    node = jsonio.loads(TRI_TEMPLATE)
    with pytest.raises(InputError):
        jsonio.fibration_from_json(node, Convention.CANONICAL)
    make_fib, fiber = jsonio.fibration_template_from_json(node, Convention.CANONICAL)
    assert fiber.dim == 2
    fib = make_fib(F(4))
    assert fib.factors[0].c == 4
    # no var at all, or two vars, is a template error
    with pytest.raises(InputError):
        jsonio.fibration_template_from_json(
            jsonio.loads(TRI_S24), Convention.CANONICAL
        )


def test_report_json_round_trip_reverifies_witness():
    fib = projective_bundle([[1]], [(3, -6)], [F(11, 10)], t=1)
    report = check_fano_fiber(fib)
    data = jsonio.loads(jsonio.dumps(jsonio.report_to_json(report)))
    assert data["verdict"] == "ConditionFails"
    assert data["convention"] == "canonical"
    pt = jsonio.point_from_json(data["witness"]["point"], "w")
    val = jsonio.rational_from_json(data["witness"]["value"], "w")
    sol = extremal_affine(fib)
    assert condition_value_fano(fib, sol.l_ext, pt) == val


def test_dumps_deterministic():
    fib = projective_bundle([[1]], [(3, -6)], [15], t=1)
    a = jsonio.dumps(jsonio.report_to_json(check_fano_fiber(fib)))
    b = jsonio.dumps(jsonio.report_to_json(check_fano_fiber(fib)))
    assert a == b


# --------------------------------------------------------------------- cli


def test_cli_info_polytope(capsys, tmp_path):
    src = tmp_path / "square.json"
    src.write_text(jsonio.dumps(jsonio.polytope_to_json(square())))
    code, data, _ = run_json(capsys, "info", str(src))
    assert code == 0
    assert data["polytope"]["volume"] == 4
    assert data["polytope"]["simple"] is True
    assert data["convention"] == "canonical"


def test_cli_lext_frozen(capsys):
    code, data, _ = run_json(capsys, "lext", RANK_ONE)
    assert code == 0
    lext = data["l_ext"]
    assert jsonio.rational_from_json(lext["gradient"][0], "g") == RANK_ONE_LEXT_SLOPE
    assert jsonio.rational_from_json(lext["constant"], "c") == RANK_ONE_LEXT_CONST


def test_cli_futaki_matches_library(capsys):
    from wkstab import futaki_character

    code, data, _ = run_json(capsys, "futaki", RANK_ONE)
    assert code == 0
    fib = projective_bundle([[1]], [(3, -6)], [15], t=1)
    char = futaki_character(fib)
    assert [jsonio.rational_from_json(x, "f") for x in data["character"]] == list(char)
    assert data["vanishes"] is (char == (F(0),))


def test_cli_check_fano_exit_codes(capsys):
    code, data, _ = run_json(capsys, "check-fano", RANK_ONE)
    assert code == 0
    assert data["verdict"] == "CertifiedSufficient"
    code, data, _ = run_json(capsys, "check-fano", RANK_ONE_REFUTED)
    assert code == 2
    assert data["verdict"] == "ConditionFails"
    assert data["witness"] is not None


def test_cli_legacy_flag_sets_convention(capsys):
    code, data, _ = run_json(capsys, "check-fano", RANK_ONE, "--legacy-sign")
    assert data["convention"] == "legacy"
    code, data, _ = run_json(capsys, "check-fano", RANK_ONE)
    assert data["convention"] == "canonical"


def test_cli_check_and_x0_sweep(capsys):
    code, data, _ = run_json(capsys, "check", RANK_ONE)
    assert code == 0
    assert data["verdict"] == "CertifiedSufficient"
    code, data, _ = run_json(capsys, "check", RANK_ONE, "--x0-sweep")
    assert code == 0
    assert data["verdict"] == "CertifiedSufficient"
    assert len(data["x0_sweep"]) >= 1
    assert all(r["convention"] == "canonical" for r in data["x0_sweep"])


def test_cli_check_rejects_wrong_x0_arity(capsys):
    code, out, err = run(capsys, "check", RANK_ONE, "--x0", "0,0")
    assert code == 1
    assert "error" in err


def test_cli_check_prints_a_boundary_x0_as_reports_do(capsys):
    code, out, err = run(capsys, "check", RANK_ONE, "--x0", "-1")
    assert (code, out, err) == (1, "", "error: point (-1) is not strictly interior\n")


def test_cli_check_x0_and_x0_sweep_are_exclusive(capsys):
    # x0 = 5 is not interior: the pair must not run a sweep that ignores it
    with pytest.raises(SystemExit) as exc:
        run(capsys, "check", RANK_ONE, "--x0", "5", "--x0-sweep", "--max-depth", "1")
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--x0-sweep: not allowed with argument --x0" in captured.err


def test_cli_check_fano_total(capsys):
    code, data, _ = run_json(capsys, "check-fano-total", TRI_S24)
    assert code == 2
    assert data["notes"]["sup_l_ext"] == str(FANO_TOTAL_SUP)


def test_cli_threshold(capsys):
    code, data, _ = run_json(
        capsys, "threshold", TRI_TEMPLATE, "--lo", "4", "--hi", "9"
    )
    assert code == 0
    assert data["certified"] is True
    lo = jsonio.rational_from_json(data["low"], "t")
    hi = jsonio.rational_from_json(data["high"], "t")
    assert hi - lo <= F(1, 100)
    assert data["convention"] == "canonical"


def test_cli_threshold_rejects_other_vars(capsys):
    # only the template's "var" factor is swept; there is no --var option
    with pytest.raises(SystemExit) as exc:
        run(capsys, "threshold", TRI_TEMPLATE, "--var", "s", "--lo", "4", "--hi", "9")
    assert exc.value.code == 1
    assert "unrecognized arguments: --var" in capsys.readouterr().err


def test_cli_probe_exit_codes(capsys):
    code, data, _ = run_json(capsys, "probe", RANK_ONE, "--resolution", "2")
    assert code == 0
    assert data["found_destabilizer"] is False
    assert data["resolution"] == 2
    code, data, _ = run_json(
        capsys, "probe", RANK_ONE_REFUTED, "--resolution", "3"
    )
    assert code == 2
    assert data["found_destabilizer"] is True
    assert data["destabilizer"]["h"] is not None


def test_cli_sweep_rows_and_exit(capsys):
    src = json.dumps(
        {
            "template": json.loads(TRI_TEMPLATE.replace('"var"', '"$c"')),
            "rows": [{"c": 5}, {"c": 9}],
        }
    )
    code, data, _ = run_json(capsys, "sweep", src)
    assert code == 2  # c = 5 fails, c = 9 certifies
    assert data["n_rows"] == 2
    verdicts = [r["verdict"] for r in data["rows"]]
    assert verdicts == ["ConditionFails", "CertifiedSufficient"]


def test_cli_sweep_grid_cartesian(capsys):
    template = json.loads(TRI_TEMPLATE.replace('"var"', '"$c"'))
    template["factors"][0]["p"] = ["$p1", 2]
    src = json.dumps({"template": template, "grid": {"c": [8, 9], "p1": [1, 2]}})
    code, data, _ = run_json(capsys, "sweep", src)
    assert code == 0
    assert data["n_rows"] == 4
    assert all(r["verdict"] == "CertifiedSufficient" for r in data["rows"])


def test_cli_sweep_empty_grid(capsys):
    src = json.dumps(
        {"template": json.loads(TRI_TEMPLATE.replace('"var"', '"$c"')), "grid": {"c": []}}
    )
    code, data, _ = run_json(capsys, "sweep", src)
    assert code == 0
    assert data["n_rows"] == 0
    assert data["rows"] == []


def test_cli_sweep_rejects_unknown_keys(capsys):
    src = json.dumps(
        {
            "template": json.loads(TRI_TEMPLATE.replace('"var"', '"$c"')),
            "rows": [{"c": 9}],
            "bogus": 1,
        }
    )
    code, out, err = run(capsys, "sweep", src)
    assert code == 1
    src = json.dumps(
        {
            "template": json.loads(TRI_TEMPLATE.replace('"var"', '"$c"')),
            "rows": [{"c": 9}],
            "run": "explode",
        }
    )
    code, out, err = run(capsys, "sweep", src)
    assert code == 1
    # a run that is not a string (here a list, which no dict key can be)
    src = json.dumps({"template": json.loads(src)["template"], "grid": {"c": [9]}, "run": [1]})
    code, out, err = run(capsys, "sweep", src)
    assert (code, out) == (1, "")
    assert err.startswith("error: sweep.run: unknown command [1] ")


def test_cli_sweep_survives_bad_rows(capsys, tmp_path):
    # c = 1 makes p + c nonpositive on the fiber; c = 14 certifies
    src = json.dumps(
        {"template": json.loads(TRI_TEMPLATE.replace('"var"', '"$c"')), "grid": {"c": [1, 14]}}
    )
    dest = tmp_path / "sweep.csv"
    code, data, err = run_json(capsys, "sweep", src, "--csv", str(dest))
    assert code == 1 and err == ""
    assert data["n_rows"] == 2
    bad, good = data["rows"]
    assert bad["bindings"] == {"c": 1} and bad["verdict"] == "Error"
    assert "not positive" in bad["error"] and "vertex (-1, -1)" in bad["error"]
    assert bad["margin"] is None and bad["witness"] is None
    assert good["verdict"] == "CertifiedSufficient" and "error" not in good
    rows = dest.read_text().strip().splitlines()
    assert rows[0] == "c,verdict,margin,error"
    assert rows[1].startswith("1,Error,,") and "not positive" in rows[1]
    assert rows[2].startswith("14,CertifiedSufficient,") and rows[2].endswith(",")
    code, out, _ = run(capsys, "sweep", src, "--text")
    assert code == 1
    assert "  c=1: Error (" in out and "  c=14: CertifiedSufficient" in out


BERNSTEIN_BAND = str(Path(__file__).resolve().parents[1] / "demos" / "data" / "bernstein_band.json")


def test_cli_check_bernstein_band_golden(capsys):
    # near the positivity boundary the general route needs Bernstein
    # subdivision, four bisections deep: pinned bytes of the whole report
    code, out, err = run(capsys, "check", BERNSTEIN_BAND, "--max-depth", "3")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["method"] == "BernsteinSubdivision"
    assert data["verdict"] == "CertifiedSufficient"
    assert data["depth"] == 4
    assert data["margin"] == "726508112499/20561444306944"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9d55fe8d873230d002a6ae865b41fe7baa5efc619912afcb2ac87c761dbc5ef3"
    )
    code, out, _ = run(capsys, "check", BERNSTEIN_BAND, "--max-depth", "1")
    data = json.loads(out)
    assert code == 3 and data["verdict"] == "Inconclusive"
    assert data["method"] == "BernsteinSubdivision" and data["margin"] is None


def test_cli_check_tetrahedron_depth_two_golden(capsys):
    # the CLI's bisection of 3-simplex cells, three levels deep within the
    # --max-depth 2 budget: pinned bytes of the whole report
    src = json.dumps({
        "fiber": {"standard_simplex": {"l": 3, "t": 1}},
        "factors": [{"n": 3, "s": 48, "c": "15/8", "p": [0, 0, 1]}],
    })
    code, out, err = run(capsys, "check", src, "--max-depth", "2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["method"] == "BernsteinSubdivision" and data["depth"] == 3
    assert data["margin"] == "6342289281027/4030557653504"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ba0e42e3294e8fdea00b402101293e339cea9bf49a3fb6826c0f5663d4bde2fb"
    )


THRESHOLD_TEMPLATE = str(
    Path(__file__).resolve().parents[1] / "demos" / "data" / "threshold_template.json"
)


@pytest.mark.parametrize(
    "mode, digest",
    [
        ((), "d1604944fa6640a58657633120a746daf718e1ff58e0fbccb6a612cb1e1b0089"),
        (("--text",), "e67cc718ff1b20cff073b8ab866714255dba27a8b12bb5759193fe855f4ae2b8"),
        (("--legacy-sign",), "46cbe2b968648457e736e3c5d7ab80610119d9e71ef2f567500e79afde3b68f6"),
    ],
)
def test_cli_threshold_template_golden(capsys, mode, digest):
    # pinned bytes of the whole report, as the sampled reconstruction printed
    # them before the exact solve over Q[c]
    code, out, err = run(
        capsys, "threshold", THRESHOLD_TEMPLATE, "--lo", "4", "--hi", "9", "--tol", "1/100", *mode
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--lo", "37/8", "--hi", "9"),
         "bdcef25b8babf702103edf64c2994eceaf2faafe2d586918cb97ac8571fd79ab"),
        (("--lo", "41/7", "--hi", "12", "--tol", "1/1000"),
         "0ba953bca85a75eb0d92b1ddfd548fdd60c2d23fa2fe434bab6b3deebe681722"),
    ],
    ids=["37/8", "41/7"],
)
def test_cli_threshold_fractional_floor_golden(capsys, argv, digest):
    # a fractional c_lo: the moment systems are interpolated at c_lo + k, so
    # the fit is shifted by a non-integer; pinned as the Fraction
    # interpolation printed them
    code, out, err = run(capsys, "threshold", THRESHOLD_TEMPLATE, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_calls_share_one_parser_without_leaking_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, default, _ = run(capsys, "check-fano", RANK_ONE)
    assert code == 0 and json.loads(default)["convention"] == "canonical"
    code, data, _ = run_json(capsys, "check-fano", RANK_ONE, "--legacy-sign")
    assert data["convention"] == "legacy"
    assert run(capsys, "check-fano", RANK_ONE) == (0, default, "")
    code, out, _ = run(capsys, "check-fano", RANK_ONE, "--text")
    assert out.startswith("verdict:")
    assert run(capsys, "check-fano", RANK_ONE) == (0, default, "")
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-fano", RANK_ONE, "--max-depth", "x"])
    assert exc.value.code == 1
    assert "invalid int value" in capsys.readouterr().err
    assert run(capsys, "check-fano", RANK_ONE) == (0, default, "")


def test_cli_byte_determinism(capsys):
    _, first, _ = run(capsys, "check-fano", RANK_ONE)
    _, second, _ = run(capsys, "check-fano", RANK_ONE)
    assert first == second


def test_cli_out_file_and_text(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "check-fano", RANK_ONE, "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["verdict"] == "CertifiedSufficient"
    code, out, _ = run(capsys, "check-fano", RANK_ONE, "--text")
    assert code == 0
    assert "verdict:    CertifiedSufficient" in out
    assert "convention: canonical" in out


def test_cli_csv_samples(capsys, tmp_path):
    dest = tmp_path / "cond.csv"
    code, _, _ = run(
        capsys, "check-fano", RANK_ONE, "--csv", str(dest), "--csv-samples", "9"
    )
    assert code == 0
    rows = dest.read_text().strip().splitlines()
    assert rows[0] == "segment_vertex,step,x1,condition_value"
    assert len(rows) > 1


def test_cli_csv_rows_equal_the_condition_value_at_every_sample(capsys, tmp_path):
    # two factors with rational data; the rows are the points x0 + s (v - x0)
    # at which every p + c is positive, each with its Fraction value
    src = json.dumps({
        "fiber": {"standard_simplex": {"l": 2, "t": 1}},
        "factors": [
            {"n": 2, "s": 12, "c": "29/4", "p": [1, "1/2"]},
            {"n": 1, "s": 4, "c": "7/3", "p": [0, 1]},
        ],
    })
    dest = tmp_path / "cond.csv"
    code, _, _ = run(capsys, "check-fano", src, "--csv", str(dest), "--csv-samples", "4")
    assert code == 0
    fib = jsonio.fibration_from_json(jsonio.loads(src), Convention.CANONICAL)
    l_ext = extremal_affine(fib).l_ext
    x0 = fib.fano_fiber[0]
    want = []
    for vi, vtx in enumerate(fib.fiber.vertices):
        for k in range(5):
            s = F(k, 4)
            pt = tuple(a + s * (b - a) for a, b in zip(x0, vtx))
            want.append([str(vi), str(s), *map(str, pt), str(condition_value_fano_fraction(fib, l_ext, pt))])
    rows = [line.split(",") for line in dest.read_text().splitlines()]
    assert rows[0] == ["segment_vertex", "step", "x1", "x2", "condition_value"]
    assert rows[1:] == want


@pytest.mark.parametrize(
    "src, route",
    [
        (
            '{"fiber": {"standard_simplex": {"l": 2, "t": 1}}, "factors": ['
            '{"n": 2, "s": 12, "c": "29/4", "p": [1, "1/2"]}, '
            '{"n": 1, "s": 4, "c": "7/3", "p": [0, 1]}]}',
            None,
        ),
        (BERNSTEIN_BAND, "general-fallback"),
    ],
    ids=["vertex", "general-fallback"],
)
def test_cli_check_fano_csv_solves_once(monkeypatch, capsys, tmp_path, src, route):
    # the report and the CSV read one extremal solve
    calls = []
    real = futaki.solve_extremal

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(futaki, "solve_extremal", counting)
    code, data, _ = run_json(capsys, "check-fano", src, "--csv", str(tmp_path / "cond.csv"))
    assert code == 0 and data.get("notes", {}).get("route") == route
    assert len(calls) == 1


def test_cli_check_fano_without_factors(capsys):
    # no base factor: v = 1, w_base = 0, and the report bytes as before the
    # integer kernels
    src = '{"fiber": {"standard_simplex": {"l": 2, "t": 1}}, "factors": []}'
    fib = jsonio.fibration_from_json(jsonio.loads(src), Convention.CANONICAL)
    assert (fib.v, fib.w_base) == (Polynomial.constant(2, 1), Polynomial.zero(2))
    code, out, err = run(capsys, "check-fano", src, "--text")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "435e94d995cb55481870f946a8c30d83df1ccdd85115099e32b7bb50de3820f3"
    )


def test_cli_csv_samples_must_be_positive(capsys, tmp_path):
    dest = tmp_path / "cond.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-fano", RANK_ONE, "--csv", str(dest), "--csv-samples", "0"])
    assert exc.value.code == 1
    assert "--csv-samples must be >= 1" in capsys.readouterr().err
    assert not dest.exists()


def test_cli_negative_max_depth_rejected(capsys):
    # rejected while parsing, also on routes that never reach Bernstein
    for cmd in ("check", "check-fano"):
        with pytest.raises(SystemExit) as exc:
            cli.main([cmd, RANK_ONE, "--max-depth", "-1"])
        assert exc.value.code == 1
        assert "--max-depth must be >= 0" in capsys.readouterr().err
        code, _, _ = run(capsys, cmd, RANK_ONE, "--max-depth", "0")
        assert code == 0


def test_cli_threshold_rejects_bad_tol_and_degree_cap(capsys):
    # rejected while parsing, before any sample is reconstructed; the
    # --degree-cap option is gone
    for flag, value, message in (
        ("--degree-cap", "3", "unrecognized arguments: --degree-cap"),
        ("--tol", "0", "--tol must be > 0"),
        ("--tol", "-1/100", "--tol must be > 0"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["threshold", TRI_TEMPLATE, "--lo", "4", "--hi", "9", f"{flag}={value}"])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err


def _python_m_wkstab(cwd, *argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "wkstab", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def test_python_dash_m_wkstab_runs_the_cli(tmp_path):
    proc = _python_m_wkstab(tmp_path, "info", RANK_ONE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["convention"] == "canonical"


def test_cli_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(RANK_ONE))
    code, data, _ = run_json(capsys, "check-fano", "-")
    assert code == 0
    assert data["verdict"] == "CertifiedSufficient"


def test_cli_input_errors_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "check-fano", str(tmp_path / "missing.json"))
    assert code == 1 and "no such file" in err
    code, _, err = run(capsys, "check-fano", '{"fiber": 3}')
    assert code == 1
    code, _, err = run(capsys, "check-fano", RANK_ONE.replace("15", "1.5"))
    assert code == 1 and "decimal" in err


def test_cli_exponents_and_long_integers_exit_one_with_a_path(capsys):
    code, _, err = run(capsys, "lext", RANK_ONE.replace("15", '"1e3"'))
    assert code == 1 and err.startswith("error: fibration.factors[0].c: ")
    code, _, err = run(capsys, "lext", RANK_ONE.replace("15", "7" * 5001))
    assert code == 1 and err.startswith("error: <input>: ")
    for argv in (
        ["threshold", TRI_TEMPLATE, "--lo", "1e3", "--hi", "9"],
        ["threshold", TRI_TEMPLATE, "--lo", "4", "--hi", "9", "--tol", "1E-2"],
        ["check", RANK_ONE, "--x0", "1e-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "argument --" in capsys.readouterr().err


def test_cli_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["threshold", TRI_TEMPLATE, "--lo", "x", "--hi", "9"])
    assert exc.value.code == 1
    capsys.readouterr()


# ------------------------------------------------------------ fiber interning


TRIANGLE_LABELS = [
    {"gradient": [1, 0], "constant": 1},
    {"gradient": [0, 1], "constant": 1},
    {"gradient": [-1, -1], "constant": 1},
]


def _triangle_with_constant(constant):
    return {
        "dim": 2,
        "labels": [
            {"gradient": L["gradient"], "constant": constant} for L in TRIANGLE_LABELS
        ],
    }


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _bad_file_cases(tmp_path):
    (tmp_path / "latin1.json").write_bytes(b'{"fiber": "\xe9"}')
    sweep = json.dumps({"template": json.loads(TRI_TEMPLATE.replace('"var"', '"$c"')),
                        "rows": [{"c": 5}]})
    missing = str(tmp_path / "missing" / "out")
    return {
        "directory": ("<input>", ["info", str(tmp_path)]),
        "not-utf8": ("<input>", ["info", str(tmp_path / "latin1.json")]),
        "out": ("--out", ["lext", RANK_ONE, "--out", missing]),
        "check-fano-csv": ("--csv", ["check-fano", RANK_ONE, "--csv", missing]),
        "sweep-csv": ("--csv", ["sweep", sweep, "--csv", missing]),
    }


@pytest.mark.parametrize(
    "case", ["directory", "not-utf8", "out", "check-fano-csv", "sweep-csv"]
)
def test_unreadable_or_unwritable_files_exit_one(tmp_path, case):
    where, argv = _bad_file_cases(tmp_path)[case]
    proc = _python_m_wkstab(tmp_path, *argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {where}: "), proc.stderr
    assert "Traceback" not in proc.stderr


ZERO_N = TRI_S24.replace('"n": 3', '"n": 0')
ZERO_N_TEMPLATE = TRI_TEMPLATE.replace('"n": 3', '"n": 0')
ZERO_N_SWEEP = json.dumps({"template": json.loads(ZERO_N_TEMPLATE.replace('"var"', '"$c"')),
                           "rows": [{"c": 5}]})


@pytest.mark.parametrize(
    "argv, path",
    [
        (["check-fano", ZERO_N], "fibration.factors[0].n"),
        (["threshold", ZERO_N_TEMPLATE, "--lo", "4", "--hi", "9"], "fibration.factors[0].n"),
        (["sweep", ZERO_N_SWEEP], "sweep.template.factors[0].n"),
    ],
    ids=["check-fano", "threshold", "sweep"],
)
def test_factor_dimension_below_one_names_its_path(tmp_path, argv, path):
    proc = _python_m_wkstab(tmp_path, *argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    message = f"{path}: need n >= 1, got 0"
    if argv[0] == "sweep":
        assert proc.stderr == ""
        (row,) = json.loads(proc.stdout)["rows"]
        assert row["verdict"] == "Error" and row["error"] == message
    else:
        assert (proc.stdout, proc.stderr) == ("", f"error: {message}\n")


def test_equal_labels_share_one_polytope():
    P = jsonio.polytope_from_json(_triangle_with_constant("1/2"))
    assert jsonio.polytope_from_json(_triangle_with_constant("2/4")) is P
    # the shorthand is keyed by its labels too
    assert jsonio.polytope_from_json({"standard_simplex": {"l": 2, "t": "1/2"}}) is P
    Q = jsonio.polytope_from_json(_triangle_with_constant(1))
    assert Q is not P and Q.labels != P.labels
    assert jsonio.polytope_from_json({"standard_simplex": {"l": 2, "t": 1}}) is Q
    # the library's standard fiber reads the same table
    assert standard_fiber_polytope(2, 1) is Q
    # from_halfspaces stays uncached: a fresh polytope and an empty record
    R = polytope.from_halfspaces(Q.labels)
    assert R == Q and R is not Q and R.moments is None


@pytest.mark.parametrize(
    "node, cause",
    [
        ({"dim": 2, "labels": TRIANGLE_LABELS[:2]}, polytope.UnboundedPolytope),
        ({"dim": 2, "labels": TRIANGLE_LABELS + TRIANGLE_LABELS[:1]}, polytope.RedundantLabel),
        ({"dim": 2, "labels": [{"gradient": [1], "constant": 1}]}, None),
    ],
    ids=["unbounded", "redundant", "malformed"],
)
def test_bad_polytopes_raise_on_every_parse(node, cause):
    # a polytope error surfaces as a path-qualified InputError caused by it
    messages = set()
    for _ in range(3):
        with pytest.raises(InputError) as info:
            jsonio.polytope_from_json(node)
        assert cause is None or isinstance(info.value.__cause__, cause)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_repeat_check_fano_reuses_the_fiber(capsys, monkeypatch):
    fiber = {"dim": 2, "labels": TRIANGLE_LABELS}
    src = json.dumps({"fiber": fiber, "factors": [{"n": 3, "s": 24, "c": 9, "p": [1, 2]}]})
    jsonio._interned.cache_clear()
    first = run(capsys, "check-fano", src)
    assert first[0] == 0
    counts = {}
    for module, name in (
        (polytope, "triangulate"),
        (polytope, "triangulate_facet"),
        (polytope, "_facet_triangulation"),
        (measure, "_cell_moments"),
        (polytope, "from_halfspaces"),
    ):
        _count_calls(monkeypatch, module, name, counts)
    assert run(capsys, "check-fano", src) == first
    assert counts == {}
    # the same bytes as a cold parse
    jsonio._interned.cache_clear()
    assert run(capsys, "check-fano", src) == first
    assert counts["from_halfspaces"] == 1 and counts["_cell_moments"] > 0


def test_repeat_check_reuses_the_facet_cells(capsys, monkeypatch):
    # a second general-route check on an interned fiber neither triangulates
    # nor rank-checks: its cone cells are the fiber's facet cells with x0
    jsonio._interned.cache_clear()
    first = run(capsys, "check", BERNSTEIN_BAND, "--max-depth", "3")
    assert first[0] == 0 and '"BernsteinSubdivision"' in first[1]
    counts = {}
    for name in ("triangulate", "triangulate_facet", "_facet_triangulation", "affine_rank"):
        _count_calls(monkeypatch, polytope, name, counts)
    assert run(capsys, "check", BERNSTEIN_BAND, "--max-depth", "3") == first
    assert counts == {}
    monkeypatch.undo()
    P = jsonio.polytope_from_json(json.loads(Path(BERNSTEIN_BAND).read_text())["fiber"])
    x0 = tuple(F(c) for c in json.loads(first[1])["x0"])
    assert cone_decomposition(P, x0).cones == tuple(
        tuple(Simplex(base + (x0,)) for base in triangulate_facet(P, j))
        for j in range(P.n_facets)
    )


def test_sweep_builds_its_fiber_once(capsys, monkeypatch):
    jsonio._interned.cache_clear()
    counts = {}
    _count_calls(monkeypatch, polytope, "from_halfspaces", counts)
    src = json.dumps(
        {
            "template": json.loads(TRI_TEMPLATE.replace('"var"', '"$c"')),
            "rows": [{"c": 5}, {"c": 9}],
        }
    )
    code, data, _ = run_json(capsys, "sweep", src)
    assert code == 2 and data["n_rows"] == 2
    assert counts == {"from_halfspaces": 1}


def test_polytope_shape_errors_are_path_qualified(capsys):
    zero_dim = {"dim": 0, "labels": [{"gradient": [], "constant": 1}]}
    with pytest.raises(InputError) as info:
        jsonio.polytope_from_json(zero_dim)
    assert str(info.value) == "polytope.dim: need dim >= 1, got 0"
    with pytest.raises(InputError) as info:
        jsonio.polytope_from_json({"dim": 2, "labels": []})
    assert str(info.value) == "polytope.labels: at least one label is required"
    code, out, err = run(capsys, "info", json.dumps(zero_dim))
    assert (code, out, err) == (1, "", "error: polytope.dim: need dim >= 1, got 0\n")
    code, out, err = run(capsys, "info", '{"dim": 2, "labels": []}')
    assert (code, out) == (1, "")
    assert err == "error: polytope.labels: at least one label is required\n"
    fib = {"fiber": {"dim": 0, "labels": []}, "factors": []}
    code, _, err = run(capsys, "check-fano", json.dumps(fib))
    assert code == 1 and err.startswith("error: fibration.fiber.dim: ")


def test_cli_info_unbounded_names_the_ray(capsys):
    src = json.dumps({"dim": 2, "labels": TRIANGLE_LABELS[:2]})
    code, out, err = run(capsys, "info", src)
    assert (code, out) == (1, "")
    assert err == (
        "error: polytope.labels: halfspaces describe an unbounded set "
        "(recession ray (0, 1))\n"
    )


EMPTY_INTERIOR_LABELS = [{"gradient": [1], "constant": 0}, {"gradient": [-1], "constant": 0}]
EMPTY_INTERIOR = "the halfspace intersection has empty interior"
REDUNDANT = (
    "label 3 is redundant: it does not cut out a facet (its zero set on P has "
    "affine dimension < dim-1, or it repeats another label's facet)"
)


def test_cli_empty_interior_and_redundant_labels_are_path_qualified(capsys):
    for node, message in (
        ({"dim": 1, "labels": EMPTY_INTERIOR_LABELS}, EMPTY_INTERIOR),
        ({"dim": 2, "labels": TRIANGLE_LABELS + TRIANGLE_LABELS[:1]}, REDUNDANT),
    ):
        code, out, err = run(capsys, "info", json.dumps(node))
        assert (code, out, err) == (1, "", f"error: polytope.labels: {message}\n")
        fib = {"fiber": node, "factors": [{"n": 3, "s": 24, "c": 4, "p": [1] * node["dim"]}]}
        code, out, err = run(capsys, "check-fano", json.dumps(fib))
        assert (code, out, err) == (1, "", f"error: fibration.fiber.labels: {message}\n")


def test_sweep_row_with_a_bad_fiber_names_its_path(capsys):
    # k = -2 squeezes the triangle to the point (-1, -1)
    labels = TRIANGLE_LABELS[:2] + [{"gradient": [-1, -1], "constant": "$k"}]
    template = {"fiber": {"dim": 2, "labels": labels},
                "factors": [{"n": 3, "s": 24, "c": 4, "p": [1, 2]}]}
    src = json.dumps({"template": template, "rows": [{"k": 1}, {"k": -2}]})
    code, data, err = run_json(capsys, "sweep", src)
    assert code == 1 and err == ""
    good, bad = data["rows"]
    assert good["verdict"] != "Error"
    assert bad["verdict"] == "Error"
    assert bad["error"] == f"sweep.template.fiber.labels: {EMPTY_INTERIOR}"


@pytest.mark.parametrize(
    "bindings, path",
    [
        ({"grid": {"c": [7], "zz": [1]}}, "sweep.grid.zz"),
        ({"rows": [{"c": 7}, {"c": 8, "zz": 1}]}, "sweep.rows[1].zz"),
    ],
    ids=["grid", "rows"],
)
def test_sweep_rejects_a_variable_no_placeholder_uses(tmp_path, bindings, path):
    template = json.loads(TRI_TEMPLATE.replace('"var"', '"$c"'))
    proc = _python_m_wkstab(tmp_path, "sweep", json.dumps({"template": template, **bindings}))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {path}: "), proc.stderr
    assert "Traceback" not in proc.stderr


# ------------------------------------------------ verdict order and factor fields

CERTIFIED, FAILS, INCONCLUSIVE = "CertifiedSufficient", "ConditionFails", "Inconclusive"


def _report(verdict, x0=None):
    return stability.StabilityReport(verdict, "affine", 0, Convention.CANONICAL, x0, None, None)


@pytest.mark.parametrize(
    "verdicts, code",
    [
        ([], 0),
        ([CERTIFIED, INCONCLUSIVE], 3),
        ([INCONCLUSIVE, FAILS, CERTIFIED], 2),
        ([FAILS, INCONCLUSIVE, "raise"], 1),
    ],
    ids=["no-rows", "inconclusive", "refuted-beats-inconclusive", "error-beats-all"],
)
def test_sweep_exit_is_error_else_the_smallest_uncertified_code(capsys, monkeypatch,
                                                                 verdicts, code):
    by_c = {F(5 + i): v for i, v in enumerate(verdicts)}

    def runner(fib):
        verdict = by_c[fib.factors[0].c]
        if verdict == "raise":
            raise ValueError("this row raises")
        return _report(verdict)

    monkeypatch.setitem(cli._SWEEP_RUNNERS, "check", runner)
    template = json.loads(RANK_ONE.replace('"c": 15', '"c": "$c"'))
    src = json.dumps({"template": template, "rows": [{"c": int(c)} for c in by_c],
                      "run": "check"})
    got, data, err = run_json(capsys, "sweep", src)
    assert (got, err) == (code, "")
    assert [r["verdict"] for r in data["rows"]] == [
        "Error" if v == "raise" else v for v in verdicts
    ]


@pytest.mark.parametrize(
    "verdicts, best, code",
    [
        ([INCONCLUSIVE, FAILS, CERTIFIED], CERTIFIED, 0),
        ([FAILS, INCONCLUSIVE], FAILS, 2),
        ([INCONCLUSIVE, INCONCLUSIVE], INCONCLUSIVE, 3),
    ],
)
def test_x0_sweep_picks_and_exits_by_the_verdict_order(capsys, monkeypatch,
                                                       verdicts, best, code):
    points = [(F(i, 10),) for i in range(len(verdicts))]
    monkeypatch.setattr(cli, "base_point_candidates", lambda fiber: points)
    monkeypatch.setattr(
        cli, "check_fibration",
        lambda fib, x0, max_depth: _report(verdicts[points.index(x0)], x0),
    )
    got, data, err = run_json(capsys, "check", RANK_ONE, "--x0-sweep")
    assert (got, err) == (code, "")
    assert data["verdict"] == best
    assert [r["verdict"] for r in data["x0_sweep"]] == verdicts


@pytest.mark.parametrize(
    "factor, line",
    [
        ({}, "fibration.factors[0]: missing 'n' (or a 'preset' providing it)"),
        ({"n": 2, "c": 1}, "fibration.factors[0]: missing 's' (or a 'preset' providing it)"),
        ({"n": 2, "s": 1}, "fibration.factors[0]: missing 'c' (or a Fano 'preset' providing it)"),
        ({"preset": "neg-KE3"},
         "fibration.factors[0]: missing 'c' (or a Fano 'preset' providing it)"),
        ({"n": 0, "s": "x"}, "fibration.factors[0].n: need n >= 1, got 0"),
        ({"preset": "P1", "n": 0}, "fibration.factors[0].n: need n >= 1, got 0"),
        ({"n": "2", "s": 1, "c": 1}, "fibration.factors[0].n: expected an integer, got str"),
        ({"n": 2, "s": "x", "p": [1]},
         "fibration.factors[0].s: not a rational: 'x' (Invalid literal for Fraction: 'x')"),
        ({"n": 2, "s": 1, "p": [1], "c": "x"},
         "fibration.factors[0].p: expected 2 entries, got 1"),
        ({"n": 2, "s": 1, "c": "var"},
         'fibration.factors[0].c: "var" is only allowed in threshold templates'),
        ({"preset": "neg-KE3", "p": [1, 0], "c": "var"},
         'fibration.factors[0].c: "var" is only allowed in threshold templates'),
        ({"preset": 3}, "fibration.factors[0].preset: expected a string, got int"),
        ({"n": 2, "s": 1, "c": "var", "x": 1}, "fibration.factors[0]: unknown key 'x'"),
    ],
)
def test_malformed_factor_first_error_line(capsys, factor, line):
    doc = {"fiber": {"standard_simplex": {"l": 2, "t": 1}}, "factors": [factor]}
    code, out, err = run(capsys, "lext", json.dumps(doc))
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == f"error: {line}"


@pytest.mark.parametrize("command", ["info", "lext"])
def test_factors_without_fiber_is_read_as_a_fibration(capsys, command):
    code, out, err = run(capsys, command, '{"factors": [{"preset": "P1"}]}')
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "error: fibration: missing required key 'fiber'"


# ------------------------------------------------------------ report writer

_STRINGS = st.text(
    st.characters() | st.sampled_from("\ud800\udbff\udc00\udfff\x00\x01\x1f\x7f\"\\/\u00fc\u2028\U0001f600"),
    max_size=6,
)
_LEAVES = (
    st.none() | st.booleans() | st.integers() | _STRINGS
    | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_STRINGS, kids, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_dumps_writes_the_bytes_of_the_standard_library(tree):
    assert jsonio.dumps(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj", [1.5, float("nan"), [0.0], {"x": {"y": -1e300}}, {1: 2}, F(1, 2), (1, {2})]
)
def test_dumps_rejects_what_no_report_carries(obj):
    with pytest.raises(TypeError):
        jsonio.dumps(obj)


# ------------------------------------------------- fibers found before parsing


def test_a_parsed_fiber_is_found_before_its_labels_are_parsed(monkeypatch):
    for node in (_triangle_with_constant("3/7"), {"standard_simplex": {"l": 3, "t": "5/7"}}):
        P = jsonio.polytope_from_json(node)
        counts = {}
        _count_calls(monkeypatch, jsonio, "affine_from_json", counts)
        _count_calls(monkeypatch, jsonio, "_standard_labels", counts)
        assert jsonio.polytope_from_json(json.loads(json.dumps(node))) is P
        assert counts == {}
        monkeypatch.undo()
    # two spellings of one label tuple: two keys, one polytope
    P = jsonio.polytope_from_json(_triangle_with_constant("1/3"))
    for _ in range(2):
        assert jsonio.polytope_from_json(_triangle_with_constant("2/6")) is P
        assert jsonio.polytope_from_json(_triangle_with_constant("1/3")) is P


def _set(path, value):
    def change(node):
        *keys, last = path
        target = node
        for key in keys:
            target = target[key]
        target[last] = value
        return node

    return change


@pytest.mark.parametrize(
    "change",
    [
        _set(("labels", 0, "constant"), True),
        _set(("labels", 0, "constant"), 1.0),
        _set(("labels", 0, "gradient"), (1, 0)),
        _set(("labels", 0, "gradient", 1), False),
        _set(("labels", 0, "note"), 1),
        _set(("dim",), True),
        _set(("extra",), 1),
        lambda node: dict(node, labels=tuple(node["labels"])),
    ],
    ids=["bool", "float", "tuple-gradient", "bool-gradient", "extra-label-key", "bool-dim",
         "extra-key", "tuple-labels"],
)
def test_a_node_near_a_parsed_fiber_is_still_rejected(change):
    good = _triangle_with_constant(1)
    jsonio.polytope_from_json(good)
    bad = change(json.loads(json.dumps(good)))  # a deep copy: the labels are shared
    messages = set()
    for _ in range(3):
        with pytest.raises(InputError) as info:
            jsonio.polytope_from_json(bad)
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize("t", [True, 1.0, 0, "-1"])
def test_a_bad_shorthand_is_rejected_after_a_good_one(t):
    jsonio.polytope_from_json({"standard_simplex": {"l": 2, "t": 1}})
    for _ in range(2):
        with pytest.raises(InputError):
            jsonio.polytope_from_json({"standard_simplex": {"l": 2, "t": t}})


def test_a_cleared_intern_table_builds_a_fresh_fiber(monkeypatch):
    node = _triangle_with_constant("5/3")
    P = jsonio.polytope_from_json(node)
    jsonio._interned.cache_clear()
    counts = {}
    _count_calls(monkeypatch, polytope, "from_halfspaces", counts)
    Q = jsonio.polytope_from_json(node)
    assert Q is not P and Q == P and counts == {"from_halfspaces": 1}
    assert jsonio.polytope_from_json(node) is Q and counts == {"from_halfspaces": 1}


def test_the_parsed_fiber_memo_is_bounded_like_the_intern_table():
    for k in range(polytope._INTERNED_FIBERS + 5):
        jsonio.polytope_from_json({"standard_simplex": {"l": 1, "t": k + 1}})
    assert len(jsonio._PARSED_LABELS) == polytope._INTERNED_FIBERS


# ------------------------------------------------------------- deep nesting


def test_deeply_nested_input_exits_one_with_a_path(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "info", str(deep))
    assert (code, out) == (1, "") and err.startswith("error: <input>: ")
    assert err.count("\n") == 1


def test_no_sweep_template_overflows_a_row(capsys):
    # whatever the depth, the input or the template walk fails once with a
    # path, or every row runs: no RecursionError escapes
    seen = set()
    for depth in range(100, 1000, 9):
        src = (
            '{"template": {"fiber": {"standard_simplex": {"l": 1, "t": 1}}, '
            '"factors": [{"n": 1, "s": 4, "c": ' + "[" * depth + '"$c"' + "]" * depth
            + '}]}, "rows": [{"c": 3}]}'
        )
        code, out, err = run(capsys, "sweep", src)
        assert code == 1
        if err:
            where = err.split(": ")[1]
            assert out == "" and where in ("<input>", "sweep.template")
            assert err.endswith("nested too deeply\n")
        else:
            where = "row"
            assert json.loads(out)["rows"][0]["verdict"] == "Error"
        seen.add(where)
    assert {"row", "sweep.template"} <= seen


# ----------------------------------------------------------- text rendering


def test_json_runs_render_no_text(capsys, monkeypatch, request):
    # these runs fill the interned interval's moment record past the degree
    # that test_measure's fill test expects of a fresh one
    request.addfinalizer(jsonio._interned.cache_clear)

    def refuse(*args):
        raise AssertionError("text rendered on a JSON run")

    sweep = json.dumps(
        {"template": json.loads(TRI_TEMPLATE.replace('"var"', '"$c"')),
         "rows": [{"c": 9}, {"c": -5}]}
    )
    runs = [
        ["info", RANK_ONE], ["info", '{"standard_simplex": {"l": 2, "t": 1}}'],
        ["lext", RANK_ONE], ["futaki", RANK_ONE], ["check-fano", RANK_ONE_REFUTED],
        ["check", RANK_ONE, "--x0-sweep"], ["check-fano-total", TRI_S24],
        ["threshold", TRI_TEMPLATE, "--lo", "4", "--hi", "9"],
        ["probe", RANK_ONE_REFUTED], ["sweep", sweep],
    ]
    want = [run(capsys, *argv) for argv in runs]
    for name in ("_fmt", "format_point", "_report_lines", "_info_lines"):
        monkeypatch.setattr(cli, name, refuse)
    assert [run(capsys, *argv) for argv in runs] == want
    assert all(out.startswith("{") for _, out, _ in want)
