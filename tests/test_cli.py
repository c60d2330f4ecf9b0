"""End-to-end tests of the manifest-driven command line."""

import json
import math
import warnings
from fractions import Fraction

import pytest

from blowup import cli
from blowup.exact_field import eval_at, parse_taurat
from blowup.weinstein import CircleLoopSpec, ManifoldSpec, lift_value_circle


def write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_manifest():
    return {
        "manifold": {"n": 2, "volume": "1", "period": "1"},
        "loops": [
            {"name": "main", "weights": [1, 2], "C": "1/2"},
            {"name": "zero", "weights": [0, 0], "C": "0"},
        ],
        "local_model": {"rho": 0.4, "delta": 0.2, "r": 1.0},
        "seed": 0,
    }


# -- lift ---------------------------------------------------------------------

def test_lift_prints_canonical_value(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["lift", path, "--loop", "main"]) == 0
    out = capsys.readouterr().out
    assert "base:    1/2" in out
    assert "lifted:  (t^2 + t + 1)/(2*t + 2)" in out
    assert "lattice: Z<1> + Z<t>" in out
    # local_model present, so a numeric evaluation line follows
    assert "at rho = 0.4" in out


def test_lift_zero_loop(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["lift", path, "--loop", "zero"]) == 0
    assert "lifted:  0" in capsys.readouterr().out


def test_lift_unknown_loop_exits_2(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["lift", path, "--loop", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown loop" in err


def test_lift_round_trips_through_parser(tmp_path, capsys):
    payload = base_manifest()
    payload["loops"].append({"name": "odd", "weights": [3, -1], "C": "2/7"})
    path = write_manifest(tmp_path, payload)
    assert cli.main(["lift", path, "--loop", "odd"]) == 0
    out = capsys.readouterr().out
    printed = next(line.split(":", 1)[1].strip()
                   for line in out.splitlines()
                   if line.startswith("lifted:"))
    expected = lift_value_circle(
        CircleLoopSpec(weights=(3, -1), C="2/7"),
        ManifoldSpec(n=2, V=1, a=1),
    ).lifted_value
    assert parse_taurat(printed) == expected


def test_lift_skips_evaluation_without_local_model(tmp_path, capsys):
    payload = base_manifest()
    del payload["local_model"]
    path = write_manifest(tmp_path, payload)
    assert cli.main(["lift", path, "--loop", "main"]) == 0
    assert "at rho" not in capsys.readouterr().out


# -- order --------------------------------------------------------------------

def test_order_headline_infinite(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["order", path, "--loop", "main"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "base order 2, lifted order infinite"
    assert "certificate" in out


def test_order_trivial_loop(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["order", path, "--loop", "zero"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "base order 1, lifted order 1"


# -- rank ---------------------------------------------------------------------

def test_rank_trivial_kernel(tmp_path, capsys):
    payload = base_manifest()
    payload["loops"] = [
        {"name": "a", "weights": [1, 0], "C": "1/2"},
        {"name": "b", "weights": [0, 1], "C": "1/3"},
    ]
    path = write_manifest(tmp_path, payload)
    assert cli.main(["rank", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "rank 2, kernel trivial"


def test_rank_with_kernel_vector(tmp_path, capsys):
    # 2*(first) - 3*(second) cancels both the constants and the weights
    payload = base_manifest()
    payload["loops"] = [
        {"name": "a", "weights": [3, 3], "C": "1/2"},
        {"name": "b", "weights": [2, 2], "C": "1/3"},
    ]
    path = write_manifest(tmp_path, payload)
    assert cli.main(["rank", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "rank 1, kernel basis (2,-3)"


def test_rank_single_loop(tmp_path, capsys):
    payload = base_manifest()
    payload["loops"] = payload["loops"][:1]
    path = write_manifest(tmp_path, payload)
    assert cli.main(["rank", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "rank 1, kernel trivial"


def test_rank_empty_loops_exits_2(tmp_path, capsys):
    payload = base_manifest()
    payload["loops"] = []
    path = write_manifest(tmp_path, payload)
    assert cli.main(["rank", path]) == 2
    assert "at least one loop" in capsys.readouterr().err


# -- verify -------------------------------------------------------------------

def test_verify_all_green(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["verify", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = json.loads(lines[-1])
    assert len(rows) == len(lines) - 1
    for row in rows:
        assert set(row) == {"check", "samples", "max_deviation",
                            "tolerance", "pass"}
        assert row["pass"] is True
        assert row["max_deviation"] <= row["tolerance"]
    names = {row["check"] for row in rows}
    assert "beta-profile" in names
    assert "annulus-pushforward:main" in names
    assert "normalized-lemma:zero" in names


def test_verify_single_group(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["verify", path, "--check", "beta"]) == 0
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [row["check"] for row in rows] == ["beta-profile"]


def test_verify_group_choices_cover_contract(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    for which in ("s1", "pullback", "vector-field", "integrals"):
        assert cli.main(["verify", path, "--check", which]) == 0
        rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rows and all(row["pass"] for row in rows)


def test_verify_requires_local_model(tmp_path, capsys):
    payload = base_manifest()
    del payload["local_model"]
    path = write_manifest(tmp_path, payload)
    assert cli.main(["verify", path]) == 2
    assert "local_model" in capsys.readouterr().err


def test_verify_rejects_rho_at_least_r(tmp_path, capsys):
    payload = base_manifest()
    payload["local_model"]["rho"] = 1.5
    path = write_manifest(tmp_path, payload)
    assert cli.main(["verify", path]) == 2
    assert "rho" in capsys.readouterr().err


@pytest.mark.parametrize("literal", [
    "Infinity", "-Infinity", "NaN", "1e999",
    pytest.param("1" + "0" * 400, id="400-digit-integer"),
])
def test_verify_rejects_non_finite_local_model(tmp_path, capsys, literal):
    text = json.dumps(base_manifest()).replace('"r": 1.0', '"r": ' + literal)
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")


@pytest.mark.parametrize("field, value", [
    pytest.param("weights", [10 ** 400, 1], id="weight-10^400"),
    pytest.param("C", "1" + "0" * 400, id="C-10^400"),
])
def test_verify_rejects_loop_value_too_large_for_float(tmp_path, capsys, field, value):
    payload = base_manifest()
    payload["loops"][0][field] = value
    path = write_manifest(tmp_path, payload)
    assert cli.main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    # the exact commands keep the big integer
    assert cli.main(["order", path, "--loop", "main"]) == 0
    assert "lifted order infinite" in capsys.readouterr().out


def test_verify_rejects_ball_integral_too_large_for_float(tmp_path, capsys):
    # each weight fits in a float, the closed-form ball integral does not
    payload = base_manifest()
    payload["loops"][0]["weights"] = [10 ** 290, 1]
    payload["local_model"] = {"rho": 1e3, "delta": 1e4, "r": 1e5}
    path = write_manifest(tmp_path, payload)
    # refused before any quadrature overflows, so with one line and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", path, "--check", "integrals"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "ball integral does not fit in a float" in lines[0]


def test_verify_takes_weights_beyond_int64_as_floats(tmp_path, capsys):
    payload = base_manifest()
    payload["loops"][0]["weights"] = [10 ** 30, 1]
    path = write_manifest(tmp_path, payload)
    assert cli.main(["verify", path, "--check", "pullback"]) == 0
    assert capsys.readouterr().err == ""


# -- eval ---------------------------------------------------------------------

def test_eval_matches_exact_value(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["eval", path, "--loop", "main", "--rho", "0.3"]) == 0
    out = capsys.readouterr().out
    lifted_line = next(l for l in out.splitlines() if l.startswith("lifted"))
    got = float(lifted_line.split("=")[1])
    value = lift_value_circle(
        CircleLoopSpec(weights=(1, 2), C="1/2"),
        ManifoldSpec(n=2, V=1, a=1),
    ).lifted_value
    assert got == pytest.approx(eval_at(value, math.pi * 0.09), rel=1e-9)


def test_eval_falls_back_to_manifest_rho(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["eval", path, "--loop", "main"]) == 0
    assert "rho = 0.4" in capsys.readouterr().out


def test_eval_without_any_rho_exits_2(tmp_path, capsys):
    payload = base_manifest()
    del payload["local_model"]
    path = write_manifest(tmp_path, payload)
    assert cli.main(["eval", path, "--loop", "main"]) == 2
    assert "--rho" in capsys.readouterr().err


def test_eval_rejects_nonpositive_weight(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["eval", path, "--loop", "main", "--rho", "-1"]) == 2
    assert "weight must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_eval_rejects_non_finite_weight(tmp_path, capsys, rho):
    path = write_manifest(tmp_path, base_manifest())
    assert cli.main(["eval", path, "--loop", "main", "--rho", rho]) == 2
    assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["lift"], ["eval", "--rho", "0.3"]])
def test_value_too_large_for_float_exits_2(tmp_path, capsys, argv):
    payload = base_manifest()
    payload["loops"][0]["C"] = "1" + "0" * 400
    path = write_manifest(tmp_path, payload)
    assert cli.main([argv[0], path, "--loop", "main"] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fit in a float" in err
    assert err.count("\n") == 1
    assert cli.main(["order", path, "--loop", "main"]) == 0


def test_eval_exits_2_at_the_exact_pole(tmp_path, capsys):
    # V = t0^2 exactly at the float t0 = pi*rho^2, so V - t^2 vanishes there
    rho = 0.3
    volume = Fraction(math.pi * rho * rho) ** 2
    payload = base_manifest()
    payload["manifold"]["volume"] = "%d/%d" % (volume.numerator,
                                              volume.denominator)
    path = write_manifest(tmp_path, payload)
    assert cli.main(["eval", path, "--loop", "main", "--rho", repr(rho)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: evaluation at pole") and err.count("\n") == 1


# -- manifest schema ----------------------------------------------------------

@pytest.mark.parametrize("mutate, fragment", [
    (lambda p: p["manifold"].pop("volume"), "missing"),
    (lambda p: p["manifold"].update(extra=1), "unknown key"),
    (lambda p: p["manifold"].update(n=2.5), "integer"),
    (lambda p: p["manifold"].update(n=True), "integer"),
    (lambda p: p["manifold"].update(volume="x/y"), "volume"),
    (lambda p: p["loops"][0].update(C=0.5), "rational string"),
    (lambda p: p["loops"][0].update(C="1/0"), "zero denominator"),
    (lambda p: p["loops"][0].update(weights=[1]), "2 integers"),
    (lambda p: p["loops"][0].update(name="zero"), "duplicate"),
    (lambda p: p["loops"][0].update(name=""), "nonempty"),
    (lambda p: p["local_model"].pop("delta"), "missing"),
    (lambda p: p["local_model"].update(rho=True), "number"),
    (lambda p: p.update(seed=-1), "seed"),
    (lambda p: p.update(seed="abc"), "integer"),
])
def test_schema_violations_exit_2(tmp_path, capsys, mutate, fragment):
    payload = base_manifest()
    mutate(payload)
    path = write_manifest(tmp_path, payload)
    assert cli.main(["lift", path, "--loop", "main"]) == 2
    assert fragment in capsys.readouterr().err


def test_unreadable_manifest_exits_2(tmp_path, capsys):
    assert cli.main(["lift", str(tmp_path / "absent.json"),
                     "--loop", "x"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["lift", str(path), "--loop", "x"]) == 2
    assert "JSON" in capsys.readouterr().err


def test_width_bound_blocks_large_weight(tmp_path, capsys):
    payload = base_manifest()
    payload["manifold"]["gromov_width"] = 0.4
    path = write_manifest(tmp_path, payload)
    assert cli.main(["lift", path, "--loop", "main"]) == 2
    assert "Gromov" in capsys.readouterr().err


def test_width_bound_admits_small_weight(tmp_path, capsys):
    payload = base_manifest()
    payload["manifold"]["gromov_width"] = 3.2
    path = write_manifest(tmp_path, payload)
    assert cli.main(["lift", path, "--loop", "main"]) == 0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["lift"])
    assert excinfo.value.code == 2
