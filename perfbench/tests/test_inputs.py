"""The seeded inputs give every pass the same op shapes in the same order.

An op's latency is its mean over the passes, so op i must cost about the
same in every pass, yet no op may repeat another's inputs, or a cache in
the program would turn the repeat into a speed-up.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from blowup import LocalModelParams  # noqa: E402


def shape(op, manifests):
    if op["kind"] in ("integrate", "pushforward"):
        return op["kind"], op["n"]
    manifest = manifests[op["manifest"]]
    loops = len(manifest["loops"]) if op["kind"] in ("rank", "verify") else None
    return op["kind"], manifest["manifold"]["n"], loops


def identity(op, manifests):
    if op["kind"] in ("integrate", "pushforward"):
        return op["seed"]
    return repr(manifests[op["manifest"]])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_passes_share_shapes_but_not_inputs(workload):
    manifests, passes, warmup = inputs.generate(workload, 7, 1, LocalModelParams)
    assert len(passes) == inputs.MIN_PASSES
    assert all(len(ops) >= inputs.MIN_OPS for ops in passes)
    shapes = [[shape(op, manifests) for op in ops] for ops in passes]
    assert all(row == shapes[0] for row in shapes)
    seen = [identity(op, manifests) for ops in passes for op in ops]
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = inputs.generate(workload, 3, 1, LocalModelParams)
    assert first == inputs.generate(workload, 3, 1, LocalModelParams)
    assert first != inputs.generate(workload, 4, 1, LocalModelParams)
