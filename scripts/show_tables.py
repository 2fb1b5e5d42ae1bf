#!/usr/bin/env python3
"""Print and verify every built-in character table, the abelian duals of a
few cyclic groups, and the S_n tables up to n = 6; the exit status is 1 if
any table fails:

    PYTHONPATH=src python scripts/show_tables.py
"""

import sys
import time

from reptheory.chartab import (BUILTIN_TABLE_NAMES, abelian_dual_table,
                               builtin_table, render_table, verify_table)
from reptheory.permgroup import cyclic_group
from reptheory.symgrp import sn_table


def show(table):
    t0 = time.time()
    report = verify_table(table)
    status = "ok" if report.ok else "FAILED"
    print(render_table(table))
    print(f"verify: {status} ({len(report.entries)} checks, "
          f"{time.time() - t0:.3f}s)\n")
    return report.ok


def main():
    tables = [builtin_table(name) for name in BUILTIN_TABLE_NAMES]
    tables += [abelian_dual_table(cyclic_group(n)) for n in (4, 6)]
    tables += [sn_table(n) for n in range(2, 7)]
    failed = sum(not show(table) for table in tables)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
