#!/usr/bin/env python3
"""Left support edges of convolution powers of the shifted semicircle.

The semicircle with mean 2 and variance 1 sits on [0, 4], but its free
convolution power with exponent t has left edge 2t - 2 sqrt(t), which is
negative for every t < 1: positivity of the support is not preserved
along the convolution semigroup. The scan recovers the edges as critical
values of the R-transform's inverse, z(w) = 1/w + tR(w), and reports the
largest deviation from the closed form.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field

from freeconv import idclass


@dataclass(frozen=True)
class Config:
    ts: tuple = field(default=(0.25, 0.5, 0.75, 1.0, 1.5, 2.0))


def run(cfg: Config) -> int:
    model = idclass.RModel.semicircle(2, 1)
    scan = idclass.positivity_scan(model, list(cfg.ts))
    print("t      edge        closed form  error")
    worst = 0.0
    for point in scan.points:
        exact = 2 * point.t - 2 * math.sqrt(point.t)
        err = abs(point.left_edge - exact)
        worst = max(worst, err)
        print(f"{point.t:<5g}  {point.left_edge:>10.6f}  {exact:>11.6f}  {err:.2e}")
    print(f"worst edge error: {worst:.2e}")
    print(f"regular evidence: {'yes' if scan.regular_evidence else 'no'}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--t", default="0.25,0.5,0.75,1,1.5,2",
        help="comma-separated exponents",
    )
    args = parser.parse_args()
    ts = tuple(float(v) for v in args.t.split(",") if v)
    return run(Config(ts))


if __name__ == "__main__":
    sys.exit(main())
