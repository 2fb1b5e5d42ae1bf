#!/usr/bin/env python3
"""Enumerate the indecomposable representations of the small Dynkin
quivers and cross-check the census against the positive root systems:
one indecomposable per positive root (n(n+1)/2 for A_n, n(n-1) for D_n),
each with a one-dimensional endomorphism algebra and a dimension vector of
norm 2. The exit status is 1 if any check fails:

    PYTHONPATH=src python scripts/gabriel_census.py
"""

import sys
import time

from reptheory.quiverrep import Quiver, enumerate_indecomposables, hom_dim
from reptheory.rootsys import bilinear, cartan_matrix

# name, quiver, number of positive roots of its diagram
QUIVERS = [
    ("A1", Quiver(1, []), 1),
    ("A2", Quiver(2, [(0, 1)]), 3),
    ("A3 linear", Quiver(3, [(0, 1), (1, 2)]), 6),
    ("A3 inward", Quiver(3, [(0, 1), (2, 1)]), 6),
    ("D4 inward", Quiver(4, [(0, 1), (2, 1), (3, 1)]), 12),
    ("D5", Quiver(5, [(0, 1), (1, 2), (4, 2), (2, 3)]), 20),
    ("A5", Quiver(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 15),
]


def main():
    failed = 0
    for name, quiver, roots in QUIVERS:
        t0 = time.time()
        objs = enumerate_indecomposables(quiver)
        a = cartan_matrix(quiver.underlying_graph())
        failures = [] if len(objs) == roots else [f"{len(objs)} indecomposables, not {roots}"]
        for root, rep in objs:
            if hom_dim(rep, rep) != 1:
                failures.append(f"End of the representation at {root} is not one-dimensional")
            if bilinear(a, root, root) != 2:
                failures.append(f"{root} has norm {bilinear(a, root, root)}, not 2")
        elapsed = time.time() - t0
        status = "ok" if not failures else "FAILED: " + "; ".join(failures)
        failed += bool(failures)
        print(f"{name}: {len(objs)} indecomposables ({elapsed:.2f}s): {status}")
        for root, rep in objs:
            print("   d = (" + ", ".join(str(c) for c in root) + ")")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
