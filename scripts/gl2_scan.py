#!/usr/bin/env python3
"""Build and fully verify the GL2(F_q) character tables for a range of
odd primes (by default q = 3 to 19), reporting degree profiles and
timings; the exit status is 1 if any table fails:

    PYTHONPATH=src python scripts/gl2_scan.py [q ...]
"""

import sys
import time

from reptheory.gl2fq import gl2_table, gl2_verify


DEFAULT_PRIMES = (3, 5, 7, 11, 13, 17, 19)


def main(primes=DEFAULT_PRIMES):
    failed = 0
    for q in primes:
        t0 = time.time()
        table = gl2_table(q)
        built = time.time() - t0
        t0 = time.time()
        report = gl2_verify(table)
        verified = time.time() - t0
        degrees = {}
        for row in table.rows:
            degrees[row.degree] = degrees.get(row.degree, 0) + 1
        profile = ", ".join(f"{v} of degree {k}" for k, v in sorted(degrees.items()))
        status = "ok" if report.ok else "FAILED"
        failed += not report.ok
        print(f"q={q}: |G|={table.group.order}, {len(table.rows)} rows ({profile}); "
              f"built {built:.2f}s, verified {verified:.2f}s: {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    primes = tuple(int(x) for x in sys.argv[1:]) or DEFAULT_PRIMES
    sys.exit(main(primes))
