"""Reproduce the scaling rows of ROADMAP.md's baseline.

    python3 perfbench/baseline.py

Rows: ``voiculescu_phi_by_reversion`` and ``free_power`` with formal t at
n = 10 / 20 / 40 (random moments drawn as in the workloads), ``verify
thm-b`` at n = 10 / 14 / 18 and ``nc verify final-prop`` at (d, n) = (2, 6),
(2, 8) and (3, 6), both through the CLI.  A round runs every row once, as
``run.py`` runs a pass, with the calibration kernel between rows; the median
over ``ROUNDS`` rounds is printed, raw and scaled to the reference host
speed as ``run.py`` scales its ops.
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from freeconv import coeffs, convolutions, transforms  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 3
SEED = 0


def rows(seed):
    """The baseline rows, as ops for ``run.run_pass``."""
    rng = random.Random(f"baseline/{seed}")
    mu = workloads._functional(rng, 40)
    t = coeffs.formal_t()
    out = []
    for n in (10, 20, 40):
        out.append((f"voiculescu_phi_by_reversion n={n}",
                    lambda m=mu.truncate(n):
                        transforms.voiculescu_phi_by_reversion(m)))
    for n in (10, 20, 40):
        out.append((f"free_power(formal t) n={n}",
                    lambda m=mu.truncate(n): convolutions.free_power(m, t)))
    for n in (10, 14, 18):
        argv = ["verify", "thm-b", "--order", str(n), "--seed", str(seed)]
        out.append((f"verify thm-b n={n}",
                    lambda argv=argv: workloads._cli(argv)))
    for d, n in ((2, 6), (2, 8), (3, 6)):
        argv = ["nc", "verify", "final-prop", "--d", str(d), "--order", str(n),
                "--seed", str(seed)]
        out.append((f"nc verify final-prop d={d} n={n}",
                    lambda argv=argv: workloads._cli(argv)))
    return [workloads.Op(label, lambda out, fn=fn: fn(), None)
            for label, fn in out]


def main():
    ops = rows(SEED)
    raw = {op.name: [] for op in ops}
    scaled = {op.name: [] for op in ops}
    for _ in range(ROUNDS):
        p = run.run_pass(ops)
        for op, took, took_scaled in zip(ops, p.times, p.scaled):
            result = p.out[op.name]
            if result is None or isinstance(result, tuple) and result[0] != 0:
                raise SystemExit(f"{op.name}: failed ({result!r:.80})")
            raw[op.name].append(took)
            scaled[op.name].append(took_scaled)
    for label in raw:
        print(f"{label:36} raw {statistics.median(raw[label]) * 1e3:9.1f} ms"
              f"  scaled {statistics.median(scaled[label]) * 1e3:9.1f} ms"
              f"  (scaled min {min(scaled[label]) * 1e3:.1f},"
              f" max {max(scaled[label]) * 1e3:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
