"""freeconv benchmark: one workload, one process, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory, and nothing needs building.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``.  Progress goes to standard
error, and a full record of the run (raw and scaled times per op and pass,
and, when traced, every span) goes to ``perfbench/results/``.

A run goes:

1. set-up time: fresh interpreters import ``freeconv.cli`` and build the
   workload's inputs (untraced runs only);
2. a counted pass under the profiler hook, on the inputs of ``COUNT_SEED``
   whatever ``--seed`` is, so that the call counts do not depend on the
   seed; it also fills the library's caches, which are keyed by sizes, not
   by values;
3. timed passes on the seeded inputs, each running every op once in the same
   order, until ``--seconds`` have passed; with ``--trace 1``, untraced and
   traced passes alternate, at least ``MIN_TRACED_PASSES`` of each.

The outputs of the counted pass and of the first timed pass are checked
against ``reference``, and every later pass's outputs must equal the first
timed pass's.  A pass's outputs are dropped once compared, so memory does
not grow with the number of passes.

Times are scaled to a reference host speed.  The host this was built on
changed speed by a factor of up to 2.5 from one second to the next, and
most operations slowed alike.  So a fixed calibration kernel (plain ``Fraction`` arithmetic from
``reference``, no library code, about 2 ms) runs between ops, and each op's
time is multiplied by ``CAL_REF_S`` over the median of the kernel times
nearest to it (``speed_factors``).  The raw times are kept in the results
record.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import inspect
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_STARTS = 15
COUNT_SEED = 0
# A traced run takes at least this many pairs of passes, even past
# ``--seconds``: a catalog pair takes about 13 s, and with one pair the
# per-layer medians, ``trace.overhead_s`` and ``cache.first_pass_ratio``
# would rest on single passes.
MIN_TRACED_PASSES = 3

# Runs in a fresh interpreter: argv = src, bench dir, workload, seed.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import freeconv.cli
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""

# The calibration kernel and its time at the reference speed: the fastest
# steady state seen on the 2-core host the benchmark was set up on.
CAL_KAPPA = [Fraction(k % 5 - 2, k % 3 + 1) for k in range(1, 11)]
CAL_REF_S = 1.2e-3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def calibrate():
    start = perf_counter()
    reference.moments_from_cumulants(CAL_KAPPA)
    return perf_counter() - start


def speed_factors(cal):
    """Factors that scale a sequence of timed steps to the reference speed.

    ``cal[i]`` is the kernel run just before step i and ``cal[-1]`` the one
    after the last step.  Step i's factor is ``CAL_REF_S`` over the median
    of the kernel runs nearest to it: two before and two after, fewer at the
    ends of the sequence.
    """
    return [CAL_REF_S / statistics.median(cal[max(0, i - 1):i + 3])
            for i in range(len(cal) - 1)]


def setup_seconds(workload, seed):
    """Median over fresh interpreter starts, each scaled like an op.

    The first start, which may write bytecode caches, is not counted.
    Returns (scaled, raw) seconds.
    """
    argv = [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(BENCH),
            workload, str(seed)]
    times, cal = [], []
    for i in range(SETUP_STARTS + 1):
        if i:
            cal.append(calibrate())
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            times.append(float(done.stdout))
    cal.append(calibrate())
    scaled = [t * f for t, f in zip(times, speed_factors(cal))]
    return statistics.median(scaled), statistics.median(times)


@dataclass
class Pass:
    out: dict
    times: list   # raw seconds per op
    cal: list     # kernel seconds: cal[i] just before op i, cal[-1] after
    failed: int

    @property
    def scaled(self):
        return [t * f for t, f in zip(self.times, speed_factors(self.cal))]

    @property
    def wall(self):
        return sum(self.scaled)


def run_pass(ops, tracer=None, calibrated=True):
    """Run every op once, with the calibration kernel between ops."""
    gc.collect()
    p = Pass({}, [], [], 0)
    for op in ops:
        if calibrated:
            p.cal.append(calibrate())
        if tracer is not None:
            tracer.op = op.name
        start = perf_counter()
        try:
            p.out[op.name] = op.run(p.out)
        except Exception as e:  # an op that raises is counted as failed
            p.out[op.name] = None
            p.failed += 1
            log(f"op {op.name} raised {type(e).__name__}: {e}")
        p.times.append(perf_counter() - start)
    if calibrated:
        p.cal.append(calibrate())
    return p


def check_outputs(ops, out, workloads):
    ok = True
    for op in ops:
        if out[op.name] is None:
            continue
        try:
            op.check(out[op.name], out)
        except workloads.CheckFailed as e:
            log(f"check {op.name} failed: {e}")
            ok = False
    return ok


def same_outputs(ops, out, ref):
    bad = [op.name for op in ops
           if out[op.name] is not None and not out[op.name] == ref[op.name]]
    for name in bad:
        log(f"op {name} gave a different output than in the first timed pass")
    return not bad


def counted_pass(ops):
    """One pass under cProfile; returns (pass, {(file, name, flags): calls}).

    The call counts depend on the input values (a zero or an integer
    coefficient takes another path than a fraction), so the runner counts
    on the inputs of ``COUNT_SEED``, which makes them repeat exactly.

    Only Python functions are seen (``builtins=False``).  The calibration
    kernel does not run, since its ``Fraction`` calls would be counted.
    """
    prof = cProfile.Profile(builtins=False)
    prof.enable()
    try:
        p = run_pass(ops, calibrated=False)
    finally:
        prof.disable()
    counts = {}
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        key = (code.co_filename, code.co_name, code.co_flags)
        counts[key] = counts.get(key, 0) + entry.callcount
    return p, counts


NOT_CALLS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
FRACTION_OPS = {"_add", "_sub", "_mul", "_div"}


def fn_calls(counts, package_dir, fractions_file):
    return sum(n for (path, name, flags), n in counts.items()
               if (path.startswith(package_dir) or path == fractions_file)
               and name not in COMPREHENSIONS and not flags & NOT_CALLS)


def fraction_ops(counts, fractions_file):
    return sum(n for (path, name, _), n in counts.items()
               if path == fractions_file and name in FRACTION_OPS)


def order_exponent(points):
    """Least-squares slope of log(seconds) on log(order), one intercept per
    family.  ``points`` is [(family, order, seconds)]; families with fewer
    than two orders, and zero times, carry no information and are skipped.
    Returns 0.0 when nothing is left."""
    groups = {}
    for family, order, secs in points:
        if order > 0 and secs > 0:
            groups.setdefault(family, []).append(
                (math.log(order), math.log(secs)))
    num = den = 0.0
    for pts in groups.values():
        if len({x for x, _ in pts}) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        num += sum((x - mx) * (y - my) for x, y in pts)
        den += sum((x - mx) ** 2 for x, _ in pts)
    return num / den if den else 0.0


def coefficients(value):
    """Every exact coefficient inside an op's output."""
    from freeconv.coeffs import TPoly
    if isinstance(value, (Fraction, int, TPoly)):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from coefficients(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from coefficients(v)
    elif hasattr(value, "moments"):  # MomentFunctional
        yield from value.moments()
    elif hasattr(value, "tilde"):  # TwoStatePair, NCPair
        yield from coefficients(value.tilde)
        yield from coefficients(value.base)
    elif hasattr(value, "tail_order"):  # LaurentAtInfinity
        yield from (value.coeff(k) for k in range(-1, value.tail_order + 1))
    elif hasattr(value, "coeffs"):  # TruncSeries
        yield from value.coeffs()
    elif hasattr(value, "items"):  # NCFunctional
        yield from (c for _, c in value.items())


def coefficient_sizes(outputs):
    """(largest t-degree, largest numerator or denominator in bits)."""
    tdeg = bits = 0
    for value in outputs.values():
        for c in coefficients(value):
            parts = getattr(c, "coeffs", None)
            if parts is not None:
                tdeg = max(tdeg, len(parts) - 1)
            else:
                parts = (c,)
            for x in parts:
                bits = max(bits, abs(x.numerator).bit_length(),
                           x.denominator.bit_length())
    return tdeg, bits


def op_medians(ops, passes, scaled=True):
    return {op.name: statistics.median(
                (p.scaled if scaled else p.times)[i] for p in passes)
            for i, op in enumerate(ops)}


def pass_seconds(ops, passes):
    """The scaled time of one pass: the sum of each op's median.

    With two to four passes in a run, the median of the pass sums keeps a
    host slowdown that hit one pass; the medians per op drop it.
    """
    return sum(op_medians(ops, passes).values())


def end_to_end(ops, passes, counts, package_dir, fractions_file, setup):
    medians = op_medians(ops, passes)
    return {
        "setup_s": setup,
        "wall_s": sum(medians.values()),
        "op_geomean_ms": 1e3 * math.exp(statistics.fmean(
            math.log(t) for t in medians.values())),
        "order_exponent": order_exponent(
            [(op.family, op.order, medians[op.name]) for op in ops]),
        "fn_calls": fn_calls(counts, package_dir, fractions_file),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# Functions whose calls and self time are reported, by layer.
REPORTED = {
    "coeffs": ("tpoly_mul", "tpoly_truediv"),
    "series": ("mul", "reciprocal", "compose", "reversion",
               "compose_descending"),
    "transforms": ("r_from_moments", "moments_from_r", "eta_from_moments",
                   "two_state_r", "tilde_from_two_state_r",
                   "voiculescu_phi_by_reversion"),
    "functionals": ("jacobi_from_moments", "moments_from_jacobi"),
    "convolutions": ("free_power", "monotone_convolve", "two_state_power"),
    "evolution": ("strip", "phi_map", "subordination",
                  "subordination_inverse", "maassen_semigroup",
                  "two_state_semigroup", "belinschi_nica"),
    "multivariate": ("nc_r", "nc_moments_from_r", "nc_subordination",
                     "nc_subordination_inverse", "nc_two_state_r"),
    "oracle": ("free_cumulants_oracle",),
    "docs": (),
    "cli": ("run",),
}
EXPONENTS = ("series.reversion", "transforms.moments_from_r",
             "coeffs.tpoly_mul", "multivariate.nc_r")


def per_layer(ops, tracer, counts, fractions_file, outputs, untraced, traced):
    from freeconv.evolution import CATALOG
    m = {}
    for layer, names in REPORTED.items():
        for name in names:
            m[f"{layer}.{name}.calls"] = tracer.calls(f"{layer}.{name}")
            m[f"{layer}.{name}.self_s"] = tracer.self_s(f"{layer}.{name}")
        m[f"{layer}.self_s"] = tracer.self_s(layer)
    for entry in CATALOG:
        name = f"evolution.verify.{entry}"
        m[f"{name}.self_s"] = tracer.self_s(name)
        m[f"{name}.total_s"] = tracer.total_s(name)
    m["coeffs.fraction_ops"] = fraction_ops(counts, fractions_file)
    m["coeffs.max_tdeg"], m["coeffs.max_bits"] = coefficient_sizes(outputs)
    m["multivariate.words"] = tracer.calls("multivariate._apply_w_substitution")
    place = {op.name: op for op in ops}
    for name in EXPONENTS:
        m[f"{name}.order_exponent"] = order_exponent(
            [(place[op].family, place[op].order, secs)
             for op, secs in tracer.op_seconds(name).items()])
    m["trace.overhead_s"] = (pass_seconds(ops, traced)
                             - pass_seconds(ops, untraced))
    m["cache.first_pass_ratio"] = untraced[0].wall / pass_seconds(ops, untraced)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freeconv" / "__init__.py").is_file():
        log(f"error: no freeconv sources under {SRC}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"error: unknown workload {args.workload!r}")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import fractions
    import freeconv
    import workloads
    package_dir = str(Path(freeconv.__file__).resolve().parent)
    if not package_dir.startswith(str(SRC)):
        log(f"error: freeconv was imported from {package_dir}, not {SRC}")
        return 2
    fractions_file = fractions.__file__

    setup = raw_setup = None
    if not args.trace:
        setup, raw_setup = setup_seconds(args.workload, args.seed)
        log(f"setup {setup:.4f} s ({raw_setup:.4f} s raw)")
    count_ops = workloads.build(args.workload, COUNT_SEED)
    ops = workloads.build(args.workload, args.seed)

    counted, counts = counted_pass(count_ops)
    attempted, failed = len(ops), counted.failed
    log(f"counted pass {sum(counted.times):.3f} s, {len(ops)} ops")
    correct = check_outputs(count_ops, counted.out, workloads)
    del counted, count_ops

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    untraced, traced = [], []
    ref = None
    deadline = perf_counter() + args.seconds
    while True:
        untraced.append(run_pass(ops))
        if tracer is not None:
            tracer.begin_pass()
            tracer.install()
            try:
                traced.append(run_pass(ops, tracer))
            finally:
                tracer.remove()
            tracer.end_pass(dict(zip((op.name for op in ops),
                                     speed_factors(traced[-1].cal))))
        for p in untraced[-1:] + traced[-1:]:
            attempted += len(ops)
            failed += p.failed
            if ref is None:
                ref = p.out
                start = perf_counter()
                correct &= check_outputs(ops, ref, workloads)
                deadline += perf_counter() - start  # checking is not measuring
            else:
                correct &= same_outputs(ops, p.out, ref)
            p.out = None
        if perf_counter() >= deadline and (
                tracer is None or len(traced) >= MIN_TRACED_PASSES):
            break
    log(f"{len(untraced)} timed passes, "
        f"{pass_seconds(ops, untraced):.3f} s per pass, "
        f"first {untraced[0].wall:.3f} s")

    if args.trace:
        values = per_layer(ops, tracer, counts, fractions_file, ref,
                           untraced, traced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(ops, untraced, counts, package_dir,
                            fractions_file, setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "python": sys.version.split()[0],
              "metrics": values, "raw_setup_s": raw_setup,
              "op_median_s": op_medians(ops, untraced),
              "raw_op_median_s": op_medians(ops, untraced, scaled=False),
              "first_pass_op_s": dict(zip((op.name for op in ops),
                                          untraced[0].scaled)),
              "passes": [{"raw_op_s": p.times, "cal_s": p.cal,
                          "wall_s": p.wall}
                         for p in untraced],
              "traced_pass_s": [p.wall for p in traced]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "pass", "op"],
             "spans": tracer.spans}))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
