#!/usr/bin/env python3
"""Distribution scan of the cone-kernel comparison ratio.

Samples ordered tuples, reports min/max/quantiles of the through-point
ratio (which the comparison inequality pins to [1, 2 sqrt 2]) and the
empirical Cauchy 3P constants for a few dimensions.
"""
import argparse
import sys

import numpy as np

from kpert import spacetime as st


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    chk = st.sample_3g(np.random.Generator(np.random.Philox(key=args.seed)),
                       args.samples)
    qs = np.quantile(chk.ratio, [0.0, 0.25, 0.5, 0.75, 1.0])
    print("quantile,ratio")
    for q, v in zip((0.0, 0.25, 0.5, 0.75, 1.0), qs):
        print(f"{q},{v}")
    print(f"upper_limit,{st.TWO_SQRT2}")
    for d in (1, 2):
        c3, c5 = st.scan_3p_constant(d, 50_000, seed=args.seed)
        print(f"cauchy_3p_d{d},{c3}")
        print(f"cauchy_5p_d{d},{c5}")


if __name__ == "__main__":
    sys.exit(main())
