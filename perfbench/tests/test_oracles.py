"""The benchmark's output checks fail closed.

Each corrupted output must be counted as a failure by the same path the
benchmark uses (``workload.check``), and each matching correct output as
a pass, so a check that rejects everything cannot hide here either.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workload import check  # noqa: E402

# The README example: weights (1, 2), C = 1/2 on n = 2, V = 1, a = 1, whose
# lifted value loses the common factor (t - 1).
LIFT_MANIFEST = {"manifold": {"n": 2, "volume": "1", "period": "1"},
                 "loops": [{"name": "main", "weights": [1, 2], "C": "1/2"}]}
# Orders 2, 3, 5 with unit weight sums: 4*x1 - 9*x2 + 5*x3 = 0.
RANK_MANIFEST = {"manifold": {"n": 2, "volume": "1", "period": "1"},
                 "loops": [{"name": "a", "weights": [1, 0], "C": "1/2"},
                           {"name": "b", "weights": [0, 1], "C": "1/3"},
                           {"name": "c", "weights": [2, -1], "C": "1/5"}]}


def cli_result(text, code=0):
    return {"code": code, "out": text, "err": ""}


def lift_text(lifted):
    return ("loop main: weights [1, 2], C = 1/2\nbase:    1/2\nlifted:  %s\n"
            "lattice: Z<1> + Z<t>\n" % lifted)


def verdict(op, result, manifest=None):
    return check(op, result, {"m.json": manifest})


LIFT_OP = {"kind": "lift", "manifest": "m.json", "loop": "main"}
ORDER_OP = {"kind": "order", "manifest": "m.json", "loop": "main"}
RANK_OP = {"kind": "rank", "manifest": "m.json"}
VERIFY_OP = {"kind": "verify", "manifest": "m.json"}


def test_lift_accepts_the_closed_form():
    assert verdict(LIFT_OP, cli_result(lift_text("(t^2 + t + 1)/(2*t + 2)")), LIFT_MANIFEST)


@pytest.mark.parametrize("lifted", ["(t^2 + t + 2)/(2*t + 2)", "(t^2 + t + 1)/(2*t + 3)",
                                    "(t^2 + t + 1)/(2*t +", "", "nan"])
def test_lift_rejects_a_corrupted_value(lifted):
    assert not verdict(LIFT_OP, cli_result(lift_text(lifted)), LIFT_MANIFEST)


def test_lift_rejects_a_wrong_base_or_exit_code():
    text = lift_text("(t^2 + t + 1)/(2*t + 2)")
    assert not verdict(LIFT_OP, cli_result(text.replace("base:    1/2", "base:    1/3")),
                       LIFT_MANIFEST)
    assert not verdict(LIFT_OP, cli_result(text, code=2), LIFT_MANIFEST)


def test_order():
    good = "base order 2, lifted order infinite\ncertificate: ..."
    assert verdict(ORDER_OP, cli_result(good), LIFT_MANIFEST)
    assert not verdict(ORDER_OP, cli_result(good.replace("infinite", "2")), LIFT_MANIFEST)
    assert not verdict(ORDER_OP, cli_result(good.replace("base order 2", "base order 1")),
                       LIFT_MANIFEST)


def test_rank_accepts_a_true_relation():
    assert verdict(RANK_OP, cli_result("rank 2, kernel basis (4,-9,5)\n..."), RANK_MANIFEST)


@pytest.mark.parametrize("text", [
    "rank 2, kernel basis (4,-9,6)",         # not a relation
    "rank 2, kernel basis (0,0,0)",          # zero vector
    "rank 2, kernel basis (4,-9)",           # wrong length
    "rank 3, kernel basis (4,-9,5)",         # rank disagrees with the kernel
    "rank 3, kernel trivial",                # a relation exists
    "rank 1, kernel basis (4,-9,5); (8,-18,10)",  # one relation too many
    "rank two",
])
def test_rank_rejects_a_non_relation(text):
    assert not verdict(RANK_OP, cli_result(text), RANK_MANIFEST)


def verify_text(deviation=1e-15, drop=False):
    rows = [{"check": "beta-profile", "samples": 1, "max_deviation": 0.0,
             "tolerance": 1e-12, "pass": True}]
    for name in oracles.PER_LOOP_CHECKS:
        rows.append({"check": "%s:main" % name, "samples": 1, "max_deviation": 0.0,
                     "tolerance": 1.0, "pass": True})
    rows[3]["max_deviation"] = deviation
    if drop:
        rows.pop()
    return "text lines\n" + json.dumps(rows)


def test_verify_accepts_small_deviations():
    assert verdict(VERIFY_OP, cli_result(verify_text()), LIFT_MANIFEST)


@pytest.mark.parametrize("deviation", [math.nan, math.inf, 1e-3])
def test_verify_rejects_nan_inf_and_large_deviation(deviation):
    # The row claims tolerance 1.0 and pass; the benchmark's own ceiling
    # (1e-8 for the pullback check) and finiteness test decide.
    assert not verdict(VERIFY_OP, cli_result(verify_text(deviation)), LIFT_MANIFEST)


def test_verify_rejects_missing_rows_and_bad_exit():
    assert not verdict(VERIFY_OP, cli_result(verify_text(drop=True)), LIFT_MANIFEST)
    assert not verdict(VERIFY_OP, cli_result(verify_text(), code=1), LIFT_MANIFEST)
    assert not verdict(VERIFY_OP, cli_result("no json"), LIFT_MANIFEST)


def test_mc_pushforward_within_and_beyond_five_sigma():
    op = {"kind": "pushforward"}
    sigma = 0.03
    near = {"left": 1.0, "left_err": sigma, "right": 1.0 + sigma, "right_err": sigma}
    assert verdict(op, near)
    apart = dict(near, right=1.0 + 10 * math.hypot(sigma, sigma))
    assert not verdict(op, apart)
    assert not verdict(op, dict(near, left=math.nan))
    assert not verdict(op, dict(near, left_err=math.nan))


def test_mc_ball_against_the_lebesgue_closed_form():
    op = {"kind": "integrate", "n": 2, "weights": [1, 2], "c": 0.5, "rho": 0.4}
    exact = oracles.lebesgue_ball_integral(2, 3, 0.5, 0.4)
    t = math.pi * 0.4 ** 2
    assert math.isclose(exact, -3 * t ** 3 / 6 + 0.5 * t ** 2 / 2)
    assert verdict(op, {"value": exact + 0.001, "stderr": 0.001})
    assert not verdict(op, {"value": exact + 0.01, "stderr": 0.001})


def test_an_exception_is_a_failure():
    assert not verdict(LIFT_OP, {"exception": "ZeroDivisionError: boom"}, LIFT_MANIFEST)


def test_eval_against_exact_evaluation():
    rho = 0.3
    t = math.pi * rho * rho
    lifted = 0.5 + (-3 * t ** 3 / 6 + 0.5 * t ** 2) / (1 - t ** 2)
    text = "rho = 0.3, t = %.12g\nbase = 0.5\nlifted = %.12g\n" % (t, lifted)
    op = {"kind": "eval", "manifest": "m.json", "loop": "main", "rho": rho}
    assert verdict(op, cli_result(text), LIFT_MANIFEST)
    wrong = text.replace("lifted = %.12g" % lifted, "lifted = %.12g" % (lifted * 1.001))
    assert not verdict(op, cli_result(wrong), LIFT_MANIFEST)


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in bench["per_layer"]] == \
        [name for name, _, _ in tracing.per_layer_spec()]
    assert {m["name"] for m in bench["end_to_end"]} == set(run.UNITS)
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.UNITS.items())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_every_prediction_names_a_reported_metric():
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    names = [name for name, _, _ in tracing.per_layer_spec()]
    rules = predictions["moves"] + predictions["zero"]
    for prefix in (p for rule in rules for p in rule["metrics"]):
        assert any(name.startswith(prefix) for name in names), prefix
    for rule in predictions["zero"]:
        assert set(rule["workloads"]) <= set(run.WORKLOADS)


def test_tracer_counts_spans_and_restores_every_binding(tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    blowup = pytest.importorskip("blowup.cli")
    import blowup.rank
    original = blowup.cli.lift_value_circle
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(LIFT_MANIFEST), encoding="utf-8")
    with tracing.Tracer() as tracer:
        assert blowup.rank.lift_value_circle is blowup.cli.lift_value_circle is not original
        tracer.op(blowup.cli.main, ["order", str(manifest), "--loop", "main"])
    assert blowup.cli.lift_value_circle is blowup.rank.lift_value_circle is original
    layers = tracer.metrics()
    assert layers["cli.cmd_order.calls"] == 1
    assert layers["weinstein.lift_value_circle.calls"] == 1
    assert layers["period.class_order.calls"] == 1
    assert layers["exact_field.TauPoly.mul.calls"] > 0
    assert layers["local_model.f_rho.calls"] == 0
    # Self times are disjoint parts of the one root span.
    spans = tracer.arrays()
    root_ms = (spans["end_ns"] - spans["start_ns"])[spans["parent"] == -1].sum() / 1e6
    self_ms = [layers[name + ".self_ms"] for name in tracing.span_names()]
    assert min(self_ms) >= 0 and 0 < sum(self_ms) <= root_ms
