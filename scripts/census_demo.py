#!/usr/bin/env python3
"""Print the reachability-class census next to the predicted class counts,
and exit 1 when any count differs from its prediction.

The number of classes doubles with every payload bit of the invariant:
1 for p = 2 mod 4, 2 for p = 0 mod 4, 2^(n-1) for p = 3 mod 4 and 2^n for
p = 1 mod 4 (once n >= p + 2).
"""

import sys

from invlab.oracle import orbit_census


def main() -> int:
    grids = [(5, 2), (5, 3), (6, 3), (6, 4), (7, 5)]
    status = 0
    for n, p in grids:
        classes, size = orbit_census(n, p)
        width = {2: 0, 0: 1, 3: n - 1, 1: n}[p % 4]
        print(f"n={n} p={p}: {classes} classes (predicted {2 ** width}), size {size}")
        if classes != 2**width:
            print(f"n={n} p={p}: census differs from the prediction", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
