"""End-to-end tests of the manifest-driven command line."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from blowup import cli, local_model
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
    # the relation line comes first and is the only listing of the basis
    assert out == (
        "rank 1, kernel basis (2,-3)\n"
        "generators: 2\n"
        "base orders n_j: [2, 3]\n"
        "weight sums K_j: [6, 4]\n"
        "orders pairwise coprime: yes\n"
        "no generator lies in the subgroup generated by the others\n"
        "note: orders are pairwise coprime, yet relations with non-unit "
        "coefficients exist; the lifted values span a rational plane, so the "
        "rank cannot exceed two\n"
        "every generator has infinite lifted order\n"
    )
    assert out.count("2,-3") == 1
    assert "rank: " not in out


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


def test_beta_row_reads_the_profile_where_the_margin_is_taken(monkeypatch):
    # one profile call on 0, r, the band edges and the two critical points
    # of the slope quartic in the band: six radii, the row's sample count
    params = local_model.LocalModelParams(2, 0.4, 0.2, 1.0)
    calls = []
    profile = cli.beta_profile

    def counting_profile(s, p):
        calls.append(np.array(s))
        return profile(s, p)

    monkeypatch.setattr(cli, "beta_profile", counting_profile)
    row = cli._beta_invariants_check(params)
    assert len(calls) == 1
    radii = calls[0]
    band = local_model._slope_candidates(params.rho, params.width)
    assert len(band) == 4 and row.samples == len(radii) == 6
    assert radii.tolist() == [0.0, 1.0] + [0.2 + 0.6 * u for u in band]
    assert row.check == "beta-profile" and row.tolerance == 1e-12
    assert row.max_deviation == 0.0 and row.passed
    # past the band the quartic has no critical point: four radii
    wide = local_model.LocalModelParams(2, 0.1, 0.2, 1.0)
    assert len(local_model._slope_candidates(wide.rho, wide.width)) == 2
    assert cli._beta_invariants_check(wide).samples == 4


@pytest.mark.parametrize("index", range(6))
def test_beta_row_fails_closed_on_a_nan_radius(monkeypatch, index):
    profile = cli.beta_profile

    def nan_at_one_radius(s, p):
        value, slope = profile(s, p)
        value[index] = slope[index] = math.nan
        return value, slope

    monkeypatch.setattr(cli, "beta_profile", nan_at_one_radius)
    row = cli._beta_invariants_check(local_model.LocalModelParams(2, 0.4, 0.2,
                                                                  1.0))
    assert row.samples == 6
    assert math.isnan(row.max_deviation) and not row.passed


def test_beta_row_fails_on_a_slope_that_dips_below_zero(monkeypatch):
    # the band term of beta' three times too steep: at the quartic's
    # critical point u = 0.33 the slope is (0.8 - 3 * 0.39) / (2 beta) < 0
    params = local_model.LocalModelParams(2, 0.4, 0.2, 1.0)
    step = local_model._smoothstep_prime
    monkeypatch.setattr(local_model, "_smoothstep_prime",
                        lambda u: 3.0 * step(u))
    row = cli._beta_invariants_check(params)
    _, slope = local_model.beta_profile(np.linspace(0.0, 1.0, 1001), params)
    assert np.min(slope) < 0.0
    assert row.max_deviation > 0.1 and not row.passed


def test_beta_row_fails_on_a_profile_that_misses_rho_at_0(monkeypatch):
    params = local_model.LocalModelParams(2, 0.4, 0.2, 1.0)
    raw = local_model._profile_raw
    monkeypatch.setattr(
        local_model, "_profile_raw",
        lambda arr, p: np.where(arr == 0.0, p.rho + 1e-9, raw(arr, p)))
    row = cli._beta_invariants_check(params)
    assert row.max_deviation == pytest.approx(1e-9, rel=1e-6)
    assert not row.passed


def test_verify_group_choices_cover_contract(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    for which in ("s1", "pullback", "vector-field", "integrals"):
        assert cli.main(["verify", path, "--check", which]) == 0
        rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rows and all(row["pass"] for row in rows)


# a loop with every weight 0, one with C = 0 and one with a negative C
FRAME_LOOPS = [{"name": "still", "weights": [0, 0], "C": "1/3"},
               {"name": "flat", "weights": [1, 2], "C": "0"},
               {"name": "below", "weights": [3, -1], "C": "-5/7"}]


def verify_rows_with_fresh_frames(tmp_path, capsys, loops, name):
    for builder in (local_model._s1_frame, local_model._divisor_frame,
                    local_model._pullback_frame,
                    local_model._vector_field_frame):
        builder.cache_clear()
    payload = base_manifest()
    payload.update(loops=loops, seed=5)
    path = write_manifest(tmp_path, payload, name=name)
    assert cli.main(["verify", path, "--check", "all"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_verify_draws_and_charts_once_per_manifest(tmp_path, capsys,
                                                   monkeypatch):
    # every loop reads the chart at the same seeded samples: one draw for
    # each of the s1, pullback and vector-field frames, one chart call for
    # each frame but the s1 one (the divisor frame charts its 64 points),
    # then per loop one chart of the 150 moved pullback images and one of
    # the 2 x 120 bumped vector-field rows; no Jacobian at all
    draws, charts, jacobians = [], [], []
    shell_samples, chart = local_model._shell_samples, local_model._chart

    def counting_draw(*args, **kwargs):
        draws.append(args[1])
        return shell_samples(*args, **kwargs)

    def counting_chart(coords, params):
        charts.append(len(coords))
        return chart(coords, params)

    monkeypatch.setattr(local_model, "_shell_samples", counting_draw)
    monkeypatch.setattr(local_model, "_chart", counting_chart)
    monkeypatch.setattr(local_model, "_jacobian",
                        lambda *args: jacobians.append(args))
    rows = verify_rows_with_fresh_frames(tmp_path, capsys, FRAME_LOOPS,
                                         "three.json")
    assert len(rows) == 1 + 7 * len(FRAME_LOOPS)
    assert sorted(draws) == [120, 150, 500]
    assert jacobians == []
    assert sorted(charts) == sorted([64, 120, 150]
                                    + [150, 240] * len(FRAME_LOOPS))
    # each loop's rows are bit for bit those of a manifest of it alone
    for loop in FRAME_LOOPS:
        alone = verify_rows_with_fresh_frames(tmp_path, capsys, [loop],
                                              loop["name"] + ".json")
        assert alone[0] == rows[0]
        assert alone[1:] == [row for row in rows
                             if row["check"].endswith(":" + loop["name"])]


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


@pytest.mark.parametrize("n, weights, C, local_model, check", [
    # the ball integral overflows a float on the rho-ball already
    (2, [10 ** 290, 1], "1/2", {"rho": 1e3, "delta": 1e4, "r": 1e5},
     "integrals"),
    # it fits on the rho-ball, and overflows out to r
    (2, [10 ** 290, 1], "1/2", {"rho": 1.0, "delta": 1e4, "r": 1e5},
     "integrals"),
    # |C| t^n fits at r = 0.5, |C| times the sphere's area does not
    (3, [1, 1, 1], "1" + "0" * 307, {"rho": 0.1, "delta": 0.1, "r": 0.5},
     "integrals"),
    # pi*r^2 fits, pi*r^2 times the weight 10 does not
    (2, [1, 10], "1/2", {"rho": 5e150, "delta": 1e152, "r": 5e153}, "all"),
], ids=["rho-ball", "r-ball", "constant", "far-scale"])
def test_verify_passes_models_past_the_float_range(tmp_path, capsys, n,
                                                   weights, C, local_model,
                                                   check):
    # each was refused, or failed on absolute tolerances, while the checks
    # ran at the model's own scale; on the unit model every mean fits
    payload = base_manifest()
    payload["manifold"]["n"] = n
    payload["loops"] = [{"name": "main", "weights": weights, "C": C}]
    payload["local_model"] = local_model
    path = write_manifest(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", path, "--check", check]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out.splitlines()[-1])
    assert len(rows) == (3 if check == "integrals" else 8)
    assert all(math.isfinite(row["max_deviation"]) and row["pass"]
               for row in rows)


def test_verify_at_n_60_is_finite_and_passes(tmp_path, capsys):
    payload = base_manifest()
    payload["manifold"]["n"] = 60
    payload["loops"] = [{"name": "ones", "weights": [1] * 60, "C": "0"}]
    path = write_manifest(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out.splitlines()[-1])
    assert len(rows) == 8
    assert all(math.isfinite(row["max_deviation"]) and row["pass"]
               for row in rows)


def large_manifest(n):
    """Two loops on base_manifest's model: weights 1 with C = 0, and mixed
    weights with C = 2/3."""
    payload = base_manifest()
    payload["manifold"]["n"] = n
    payload["loops"] = [
        {"name": "ones", "weights": [1] * n, "C": "0"},
        {"name": "mixed", "weights": [(-1) ** j * (j % 3 + 1)
                                      for j in range(n)], "C": "2/3"},
    ]
    return payload


@pytest.mark.parametrize("n", [200, 400])
def test_verify_integrals_pass_at_large_n(tmp_path, capsys, n):
    # the 32-node Legendre rule that stood in for the exact ball and
    # annulus means missed the ball mean by 1.5e-5 at n = 200
    path = write_manifest(tmp_path, large_manifest(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", path, "--check", "integrals"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out.splitlines()[-1])
    assert len(rows) == 6
    assert all(math.isfinite(row["max_deviation"]) and row["pass"]
               for row in rows)


@pytest.mark.parametrize("n", [200, 1000, 5000])
def test_ball_closed_form_row_reads_roundoff_at_large_n(tmp_path, capsys, n):
    # the ball mean is exact at every n; from n = 900 or so the pullback
    # rows fail on their Legendre panels, so only the ball rows are read
    path = write_manifest(tmp_path, large_manifest(n))
    cli.main(["verify", path, "--check", "integrals"])
    rows = json.loads(capsys.readouterr().out.splitlines()[-1])
    ball = [row for row in rows if row["check"].startswith("ball-closed-form")]
    assert len(ball) == 2
    assert all(row["samples"] == 1 and row["max_deviation"] <= 1e-12
               for row in ball)


@pytest.mark.parametrize("n", [2, 30, 100])
@pytest.mark.parametrize("factor", [0.999, 1.001])
def test_verify_integrals_near_the_float_limit_end_cleanly(tmp_path, capsys,
                                                           n, factor):
    # r^(2n) is just below or just above the largest float; the rules
    # take means over the unit ball, where no power of r is formed, so
    # both sides of the limit pass
    r = factor * sys.float_info.max ** (1 / (2 * n))
    payload = base_manifest()
    payload["manifold"]["n"] = n
    payload["loops"] = [{"name": "ones", "weights": [1] * n, "C": "0"}]
    payload["local_model"] = {"rho": r / 40, "delta": r / 40, "r": r}
    path = write_manifest(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", path, "--check", "integrals"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out.splitlines()[-1])
    assert len(rows) == 3
    assert all(math.isfinite(row["max_deviation"]) and row["pass"]
               for row in rows)


def test_verify_refuses_a_constant_that_overflows_the_quadrature(tmp_path,
                                                                 capsys):
    # the rules run on the unit model, whose constant is C/r^2: C = 1e308
    # fits in a float, C/r^2 = 4e308 at r = 0.5 does not
    payload = base_manifest()
    payload["manifold"]["n"] = 3
    payload["loops"] = [{"name": "big", "weights": [1, 1, 1],
                         "C": "1" + "0" * 308}]
    payload["local_model"] = {"rho": 0.1, "delta": 0.1, "r": 0.5}
    path = write_manifest(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", path, "--check", "integrals"]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "C/r^2 must fit in a float" in captured.err


@pytest.mark.parametrize("k", [-40, -20, -10, 0, 10, 20, 40])
def test_verify_integrals_pass_at_every_dilation(tmp_path, capsys, k):
    # (rho, delta, r) -> 2^k (rho, delta, r) with C -> 4^k C is an exact
    # symmetry of the local model, and verify runs every check on the
    # unit model, so every row of --check all, not only the integral
    # rows, reads the same bits as at k = 0: a metamorphic test (Chen,
    # Cheung and Yiu 1998)
    def json_line(k):
        scale = Fraction(2) ** k
        payload = base_manifest()
        for loop in payload["loops"]:
            loop["C"] = str(Fraction(loop["C"]) * scale ** 2)
        payload["local_model"] = {key: value * float(scale) for key, value
                                  in payload["local_model"].items()}
        path = write_manifest(tmp_path, payload, "manifest%d.json" % k)
        assert cli.main(["verify", path, "--check", "all"]) == 0
        return capsys.readouterr().out.splitlines()[-1]

    line = json_line(k)
    assert line == json_line(0)
    rows = json.loads(line)
    assert len(rows) == 15
    assert all(math.isfinite(row["max_deviation"]) and row["pass"]
               for row in rows)


def test_ball_closed_form_row_sees_a_wrong_closed_form(tmp_path, capsys,
                                                       monkeypatch):
    # at n = 100 and rho = 0.025 the rho-ball integral, about 1e-430,
    # underflowed on both sides, so the row compared 0.0 with -0.0 and
    # passed whatever the closed form said; as means over the ball it sees
    # a closed form twice too large
    payload = base_manifest()
    payload["manifold"]["n"] = 100
    payload["loops"] = [{"name": "ones", "weights": [1] * 100, "C": "0"}]
    payload["local_model"] = {"rho": 0.025, "delta": 0.025, "r": 1.0}
    path = write_manifest(tmp_path, payload)
    assert cli.main(["verify", path, "--check", "integrals"]) == 0
    capsys.readouterr()
    closed_form = cli.ball_integral_closed_form
    monkeypatch.setattr(cli, "ball_integral_closed_form",
                        lambda loop, manifold: 2 * closed_form(loop, manifold))
    assert cli.main(["verify", path, "--check", "integrals"]) == 1
    rows = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert [row["pass"] for row in rows] == [True, True, False]
    assert rows[2]["check"] == "ball-closed-form:ones"


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
    out, err = capsys.readouterr()
    assert out == ""  # the value is evaluated before anything is printed
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


def assert_one_error_line(captured):
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")


@pytest.mark.parametrize("leaf", [
    pytest.param("7" * 5_000, id="5000-digit-integer"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
    pytest.param('"\xff"', id="byte-not-utf-8"),
])
@pytest.mark.parametrize("command", ["lift", "verify"])
def test_unparsable_json_leaf_exits_2(tmp_path, capsys, leaf, command):
    text = json.dumps(base_manifest()).replace('"seed": 0', '"seed": ' + leaf)
    path = tmp_path / "manifest.json"
    path.write_bytes(text.encode("latin-1"))
    argv = [command, str(path)] + (["--loop", "main"] if command == "lift"
                                   else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize("command", ["lift", "rank"])
def test_rational_past_the_digit_limit_exits_2(tmp_path, capsys, command):
    # a valid literal, but int() refuses strings of more than 4,300 digits
    payload = base_manifest()
    payload["loops"][0]["C"] = "7" * 5_000
    path = write_manifest(tmp_path, payload)
    argv = [command, path] + (["--loop", "main"] if command == "lift" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert captured.err.startswith("error: loops[0].C: ")


def digit_limit_manifest(command):
    """A valid manifest whose result holds an integer of over 4,300 digits,
    though every literal in it has fewer."""
    if command == "lift":
        # V = 10^4200 scaled by the 200-digit denominator of C
        return {"manifold": {"n": 2, "volume": "1" + "0" * 4200, "period": "1"},
                "loops": [{"name": "main", "weights": [1, 2],
                           "C": "1/" + "7" * 200}]}
    if command == "order":
        # C/a has a denominator of 8,599 digits, the base order
        return {"manifold": {"n": 2, "volume": "1", "period": "9" * 4299},
                "loops": [{"name": "main", "weights": [1, 2],
                           "C": "1/1" + "0" * 4298}]}
    # the orders 2^p - 1 are pairwise coprime, so the kernel entries carry
    # their lcm of about 11,700 digits
    return {"manifold": {"n": 2, "volume": "1", "period": "1"},
            "loops": [{"name": "l%d" % j, "weights": [1, j],
                       "C": "1/%d" % (2 ** p - 1)}
                      for j, p in enumerate((13001, 13003, 13007))]}


@pytest.mark.parametrize("command", ["lift", "order", "rank"])
def test_result_past_the_digit_limit_exits_2(tmp_path, capsys, command):
    path = write_manifest(tmp_path, digit_limit_manifest(command))
    argv = [command, path] + (["--loop", "main"] if command != "rank" else [])
    limit = sys.get_int_max_str_digits()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "more than %d digits" % limit in captured.err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("check", ("all",) + cli.VERIFY_GROUPS)
def test_verify_rejects_radius_whose_area_overflows(tmp_path, capsys, check):
    # a valid profile, but pi*r^2 is past the float range
    payload = base_manifest()
    payload["local_model"] = {"rho": 1e150, "delta": 1e152, "r": 1e155}
    path = write_manifest(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", path, "--check", check]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "pi*r^2" in captured.err


@pytest.mark.parametrize("check", ("all",) + cli.VERIFY_GROUPS)
def test_verify_rejects_hamiltonian_that_overflows_on_the_r_ball(
        tmp_path, capsys, check):
    # every check runs H(r z)/r^2 on the unit ball, whose bound is
    # pi*max|w| + |C|/r^2: each term fits in a float, 9.4e307 and 1.5e308,
    # their sum does not
    payload = base_manifest()
    payload["loops"] = [{"name": "heavy", "weights": [1, 3 * 10 ** 307],
                         "C": "375" + "0" * 613}]
    payload["local_model"] = {"rho": 5e150, "delta": 1e152, "r": 5e153}
    path = write_manifest(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", path, "--check", check]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "pi*max|w| + |C|/r^2" in captured.err


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


COMMANDS = {
    "lift": ["--loop", "main"],
    "order": ["--loop", "main"],
    "rank": [],
    "verify": [],
    "eval": ["--loop", "main"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_width_bound_at_overflowing_rho_exits_2(tmp_path, capsys, command):
    # rho ** 2 raised OverflowError here; pi*rho^2 = inf reaches the bound
    payload = base_manifest()
    payload["manifold"]["gromov_width"] = 3.2
    payload["local_model"]["rho"] = 1e200
    path = write_manifest(tmp_path, payload)
    assert cli.main([command, path] + COMMANDS[command]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "reaches the Gromov width bound" in captured.err


@pytest.mark.parametrize("local_model", [True, False])
def test_eval_rho_option_obeys_the_width_bound(tmp_path, capsys, local_model):
    # --rho took pi*rho^2 = 314.16 past the bound 3.2 and printed values
    payload = base_manifest()
    payload["manifold"]["gromov_width"] = 3.2
    if not local_model:
        del payload["local_model"]
    path = write_manifest(tmp_path, payload)
    assert cli.main(["eval", path, "--loop", "main", "--rho", "10"]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "reaches the Gromov width bound" in captured.err


@pytest.mark.parametrize("loops", [5, None, True, 1.5, "ab"])
def test_loops_that_are_not_a_list_exit_2(tmp_path, capsys, loops):
    # numbers and null died with a TypeError, a string was walked by character
    payload = base_manifest()
    payload["loops"] = loops
    path = write_manifest(tmp_path, payload)
    assert cli.main(["rank", path]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "loops must be a list" in captured.err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["lift"])
    assert excinfo.value.code == 2


def test_usage_errors_leave_the_shared_parser_intact(tmp_path, capsys):
    path = write_manifest(tmp_path, base_manifest())
    lift = ["lift", path, "--loop", "main"]
    assert cli.main(lift) == 0
    first = capsys.readouterr().out
    for argv in (["lift", path],
                 ["lifts", path],
                 ["verify", path, "--check", "nope"],
                 ["eval", path, "--loop", "main", "--rho", "abc"]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage: blowup" in err
        assert "error:" in err
    assert cli.main(lift) == 0
    assert capsys.readouterr().out == first


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = write_manifest(tmp_path, base_manifest())
    cli._build_parser.cache_clear()
    assert cli.main(["rank", path]) == 0
    assert len(built) == 1 + len(COMMANDS)  # the parser and its subparsers
    built.clear()
    assert cli.main(["lift", path, "--loop", "main"]) == 0
    assert built == []


# -- closed pipe --------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


# a child that fails every normalized-lemma row, then runs the command
FAILING_LEMMA = """import dataclasses, math, sys
from blowup import cli
check = cli.verify_normalized_lemma
cli.verify_normalized_lemma = lambda *args: dataclasses.replace(
    check(*args), max_deviation=math.inf)
sys.exit(cli.main())
"""


def dilated(payload, factor):
    """payload with its local model scaled by factor (C is left as is)."""
    payload["local_model"] = {key: value * factor for key, value
                              in payload["local_model"].items()}
    return payload


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv, factor, status", [
    (["verify", "--check", "all"], 1.0, 0),
    (["verify", "--check", "integrals"], 1e3, 1),
    (["lift", "--loop", "main"], 1.0, 0),
])
def test_closed_pipe_ends_quietly_with_the_command_status(
        tmp_path, monkeypatch, argv, factor, status, unbuffered):
    # a failing verify reports an infinite lemma deviation, as the child
    # of FAILING_LEMMA does, so it fails at every scale
    if status:
        check = cli.verify_normalized_lemma
        monkeypatch.setattr(cli, "verify_normalized_lemma",
                            lambda *args: dataclasses.replace(
                                check(*args), max_deviation=math.inf))
    path = write_manifest(tmp_path, dilated(base_manifest(), factor))
    assert cli.main(argv[:1] + [path] + argv[1:]) == status
    # an empty PYTHONUNBUFFERED leaves stdout block-buffered, so the pipe
    # error comes from the flush rather than from print
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    child = ["-c", FAILING_LEMMA] if status else ["-m", "blowup.cli"]
    proc = subprocess.Popen(
        [sys.executable] + child + [argv[0], path] + argv[1:],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # closed before the child is done importing, so its first write fails
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == status
