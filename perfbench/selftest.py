"""Show that every check of every workload rejects a perturbed output.

    python3 perfbench/selftest.py [--workload NAME ...]

For each op: run one pass on the inputs of ``run.COUNT_SEED``, confirm the
op's check accepts its output, then add 1 to the op's last coefficient (or
mark its last verify check as failed) and confirm the check raises
``CheckFailed``.  Exits 1 if any check
accepts a perturbed output or rejects a correct one.  This is the
benchmark's own test; it is not part of the library's test suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from freeconv import functionals, multivariate, series  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def _bump_last(values):
    values = list(values)
    values[-1] = values[-1] + 1
    return values


def perturb(value):
    """The same output with one coefficient changed."""
    if isinstance(value, functionals.MomentFunctional):
        return functionals.MomentFunctional(value.order,
                                            _bump_last(value.moments()))
    if isinstance(value, functionals.TwoStatePair):
        return functionals.TwoStatePair(perturb(value.tilde), value.base)
    if isinstance(value, series.TruncSeries):
        return series.TruncSeries(value.order, _bump_last(value.coeffs()))
    if isinstance(value, series.LaurentAtInfinity):
        tail = _bump_last(value.coeff(k)
                          for k in range(1, value.tail_order + 1))
        return series.LaurentAtInfinity(value.top, value.coeff(0), tail,
                                        value.tail_order)
    if isinstance(value, multivariate.NCFunctional):
        return multivariate.NCFunctional(value.d, value.order,
                                         perturb(dict(value.items())))
    if isinstance(value, dict):  # word -> coefficient; change a longest word
        word = max(value, key=lambda w: (len(w), w))
        return {**value, word: value[word] + 1}
    if isinstance(value, list):
        return _bump_last(value)
    if isinstance(value, tuple):  # (exit code, JSON text) from the CLI
        rc, text = value
        doc = json.loads(text)
        doc["reports"][-1]["checks"][-1]["ok"] = False
        return rc, json.dumps(doc)
    raise TypeError(f"no perturbation for {type(value).__name__}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    bad = 0
    for name in args.workload or workloads.WORKLOADS:
        ops = workloads.build(name, run.COUNT_SEED)
        first = run.run_pass(ops)
        out = first.out
        bad += first.failed
        for op in ops:
            value = out[op.name]
            try:
                op.check(value, out)
            except workloads.CheckFailed as e:
                print(f"FAIL {name} {op.name}: rejects its own output: {e}")
                bad += 1
                continue
            try:
                op.check(perturb(value), out)
            except workloads.CheckFailed:
                print(f"ok   {name} {op.name}")
            else:
                print(f"FAIL {name} {op.name}: accepts a perturbed output")
                bad += 1
    print(f"{bad} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
