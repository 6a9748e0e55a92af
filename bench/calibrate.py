"""Calibration child of the benchmark: a fixed amount of pure-Python work.

    python3 bench/calibrate.py

It imports numpy, as ``quiverdias.cli`` does, then builds and merges a
tuple-keyed dict of frozensets, sorts it and sums Fractions: the kinds of
work the verify checks do, in an amount that depends on nothing else in the
repository.  ``run.py`` times it from spawn to exit next to the verify
children, so its wall time tells how fast the machine runs just then.
"""

from fractions import Fraction

import numpy  # noqa: F401  (start-up cost the CLI pays too)


def main() -> int:
    table: dict = {}
    x = 12345
    for _ in range(40_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 61, (x >> 7) % 53, (x >> 14) % 47)
        members = frozenset(key)
        known = table.get(key)
        table[key] = members if known is None else known | members
    rows = sorted(table.items())
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(i % 17, i)
    # a fixed result: the work is done and done the same way on every run
    return 0 if len(rows) == len(table) and total.denominator > 1 else 1


if __name__ == "__main__":
    raise SystemExit(main())
