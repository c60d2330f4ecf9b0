"""Seeded inputs for the three benchmark workloads.

Everything here is plain data: manifests (JSON-ready dicts) and ordered
lists of operations, one list per pass.  The same (workload, seed,
seconds) always gives the same inputs.  Each op-kind count is a fixed share
of a pass and every kind cycles through the same dimensions, so only the
numbers inside the inputs change with the seed; the mix that sets p50 and
p90 does not.  Every pass runs the same sequence of op shapes (kind,
dimension, loop count) in the same order, each with numbers of its own,
so op i of one pass costs about what op i of any other pass costs, and no
op repeats the inputs of another.

The only program code used here is ``LocalModelParams``, to redraw
(rho, delta, r) until the profile is admissible, as a user would have to.
Draws are never filtered on any check outcome.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("exact-cli", "verify-cli", "mc-pushforward")

# Ops per second, measured once on a 2-core Xeon at the commit that
# defined the benchmark.  They only size the fixed op lists; nothing is
# timed against them.
NOMINAL_OPS_PER_S = {"exact-cli": 20.0, "verify-cli": 6.0, "mc-pushforward": 16.0}
# Ops per pass: p90 needs at least ten samples beyond it.  An op's latency
# is its mean over the passes (workload.py); --seconds buys more passes,
# never longer ones, and every run makes at least two.
MIN_OPS = 100
MIN_PASSES = 2
# Op counts are whole multiples of the mix cycle, so every kind and
# dimension gets its exact share.
CYCLE = {"exact-cli": 20, "verify-cli": 4, "mc-pushforward": 9}

EXACT_MIX = (("lift", 35), ("order", 30), ("eval", 10),
             ("rank10", 5), ("rank50", 5), ("rank200", 15))
EXACT_DIMS = (2, 3, 4, 6, 8)
RANK_LOOPS = {"rank10": 10, "rank50": 50, "rank200": 200}
# (n, loops) per 4-op cycle, in cost order: about 100, 145, 155 and 230 ms
# on the 2-core Xeon.  p50 falls inside the mixed (3,1)/(4,1) block and p90
# inside the (2,2) block, away from the gaps between n = 2 and n = 3 and
# between one loop and two.  Three-loop manifests would double the cost of
# a pass and leave room for fewer passes; each loop runs the same seven
# checks, so they add no code path.
VERIFY_SHAPES = ((2, 1), (3, 1), (4, 1), (2, 2))
# integrate_ball is a third of the mc ops so that p50 and p90 both lie
# inside the pushforward mode, away from the edge between the two modes.
MC_MIX = (("integrate", 1), ("pushforward", 2))
MC_DIMS = (2, 3, 4)


def op_count(workload):
    """Ops per pass."""
    cycle = CYCLE[workload]
    return -(-MIN_OPS // cycle) * cycle


def pass_count(workload, seconds):
    wanted = round(seconds * NOMINAL_OPS_PER_S[workload] / op_count(workload))
    return max(MIN_PASSES, wanted)


def _split(total, mix):
    """Integer counts in proportion to the weights, summing to total."""
    weight = sum(w for _, w in mix)
    exact = [total * w / weight for _, w in mix]
    counts = [math.floor(x) for x in exact]
    order = sorted(range(len(mix)), key=lambda i: counts[i] - exact[i])
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return {name: c for (name, _), c in zip(mix, counts)}


def _rational(rng, max_num, max_den, positive=False):
    den = rng.randint(1, max_den)
    low = 1 if positive else -max_num * den
    return Fraction(rng.randint(low, max_num * den), den)


def _text(value):
    return "%d/%d" % (value.numerator, value.denominator)


def _weights(rng, n, zero_sum=False):
    weights = [rng.randint(-3, 3) for _ in range(n)]
    if zero_sum:
        weights[-1] = -sum(weights[:-1])
    return weights


def _exact_manifest(rng, n, loop_count, power_volume=False):
    """Manifold plus loops; some loops have K = 0, some cancel.

    With power_volume the volume is V = u^n for a rational u, and a third of
    the loops take C = u*K/(n+1)!, so (C/K')^n = V and the lifted value
    loses the common factor (t - u).  exact-cli sets it on 3 of every 10
    manifests, so about 10% of its loops cancel.
    """
    u = Fraction(rng.randint(1, 5), rng.randint(1, 4)) if power_volume else None
    volume = u ** n if u is not None else _rational(rng, 20, 6, positive=True)
    period = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    loops = []
    for j in range(loop_count):
        draw = rng.random()
        if draw < 0.03:
            weights, C = _weights(rng, n, zero_sum=True), Fraction(0)
        elif draw < 0.08:
            weights, C = _weights(rng, n, zero_sum=True), _rational(rng, 3, 12)
        elif u is not None and draw < 0.41:
            weights = _weights(rng, n)
            while sum(weights) == 0:
                weights = _weights(rng, n)
            C = u * sum(weights) / math.factorial(n + 1)
        else:
            weights, C = _weights(rng, n), _rational(rng, 3, 12)
        loops.append({"name": "l%d" % j, "weights": weights, "C": _text(C)})
    return {"manifold": {"n": n, "volume": _text(volume), "period": _text(period)},
            "loops": loops}


def _local_model(rng, n, params_cls):
    while True:
        r = rng.uniform(0.6, 1.5)
        values = {"rho": r * rng.uniform(0.1, 0.9),
                  "delta": r * rng.uniform(0.05, 0.45), "r": r}
        try:
            params_cls(n=n, **values)
        except ValueError:
            continue
        return values


def _cli_op(kind, name, manifest, rng):
    loop = rng.choice(manifest["loops"])["name"]
    op = {"kind": kind, "manifest": name, "loop": loop}
    if kind == "eval":
        # t^n / V in [0.1, 0.7] keeps the evaluation away from the pole.
        n = manifest["manifold"]["n"]
        volume = float(Fraction(manifest["manifold"]["volume"]))
        t = (volume * rng.uniform(0.1, 0.7)) ** (1.0 / n)
        op["rho"] = math.sqrt(t / math.pi)
    return op


def _exact_ops(rng, order, tag, total):
    manifests, ops = {}, []
    for kind, count in _split(total, EXACT_MIX).items():
        for i in range(count):
            # Each pass over the dimensions is one cycle; cycles 0, 3 and 6
            # of every ten use a power volume, so the share of these costlier
            # manifests is the same in every run and for every n.
            cycle, dim = divmod(i, len(EXACT_DIMS))
            n, power = EXACT_DIMS[dim], cycle % 10 in (0, 3, 6)
            name = "%s%s-%d.json" % (tag, kind, i)
            if kind in RANK_LOOPS:
                manifests[name] = _exact_manifest(rng, n, RANK_LOOPS[kind], power)
                ops.append({"kind": "rank", "manifest": name})
            else:
                manifests[name] = _exact_manifest(rng, n, rng.randint(1, 4), power)
                ops.append(_cli_op(kind, name, manifests[name], rng))
    return manifests, order(ops)


def _exact_warmup(rng):
    warm = _exact_manifest(rng, 2, 1)
    return {"warmup.json": warm}, _cli_op("lift", "warmup.json", warm, rng)


def _verify_manifest(rng, n, loop_count, params_cls):
    data = _exact_manifest(rng, n, loop_count)
    data["local_model"] = _local_model(rng, n, params_cls)
    data["seed"] = rng.randrange(2 ** 31)
    return data


def _verify_ops(rng, order, tag, total, params_cls):
    manifests, ops = {}, []
    for i in range(total):
        n, loops = VERIFY_SHAPES[i % len(VERIFY_SHAPES)]
        name = "%sverify-%d.json" % (tag, i)
        manifests[name] = _verify_manifest(rng, n, loops, params_cls)
        ops.append({"kind": "verify", "manifest": name})
    return manifests, order(ops)


def _verify_warmup(rng, params_cls):
    manifests = {"warmup.json": _verify_manifest(rng, 2, 1, params_cls)}
    return manifests, {"kind": "verify", "manifest": "warmup.json"}


def _mc_op(rng, kind, n, params_cls):
    op = {"kind": kind, "n": n, "weights": _weights(rng, n),
          "c": float(_rational(rng, 3, 12)), "seed": rng.randrange(2 ** 32)}
    op.update(_local_model(rng, n, params_cls))
    return op


def _mc_ops(rng, order, total, params_cls):
    ops = []
    for kind, count in _split(total, MC_MIX).items():
        ops += [_mc_op(rng, kind, MC_DIMS[i % len(MC_DIMS)], params_cls)
                for i in range(count)]
    return {}, order(ops)


def generate(workload, seed, seconds, params_cls):
    """(manifests by file name, op list per pass, warm-up op) for one run."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    total = op_count(workload)
    # Ops are built in a fixed order of shapes; one permutation per run
    # shuffles every pass alike.
    permutation = list(range(total))
    random.Random("%s:%d:order" % (workload, seed)).shuffle(permutation)

    def order(ops):
        return [ops[i] for i in permutation]

    manifests, passes = {}, []
    for index in range(pass_count(workload, seconds)):
        rng = random.Random("%s:%d:%d" % (workload, seed, index))
        tag = "p%d-" % index
        if workload == "exact-cli":
            found, ops = _exact_ops(rng, order, tag, total)
        elif workload == "verify-cli":
            found, ops = _verify_ops(rng, order, tag, total, params_cls)
        else:
            found, ops = _mc_ops(rng, order, total, params_cls)
        manifests.update(found)
        passes.append(ops)
    rng = random.Random("%s:%d:warmup" % (workload, seed))
    if workload == "exact-cli":
        found, warmup = _exact_warmup(rng)
    elif workload == "verify-cli":
        found, warmup = _verify_warmup(rng, params_cls)
    else:
        found, warmup = {}, _mc_op(rng, "pushforward", 4, params_cls)
    manifests.update(found)
    return manifests, passes, warmup
