#!/usr/bin/env python3
"""Where the four-state monogamy combination breaks while every plain
data-processing gap stays nonnegative, and where the roles flip.

Sweeps the lambda family, then prints the sign pattern of DP1..DP4 and
M4 along the grid together with the region boundaries.
"""

from qmonogamy import GAP_TOLERANCE, lambda_grid, nonmarkov_witness_rows

FLOOR = -GAP_TOLERANCE
NAMES = ("DP1", "DP2", "DP3", "DP4", "M4")


def main() -> None:
    rows = nonmarkov_witness_rows(lambda_grid())
    m4_negative = [row["lambda"] for row in rows if row["M4"] < FLOOR]
    dp_negative = [row["lambda"] for row in rows
                   if any(row[n] < FLOOR for n in NAMES[:4])]
    print("M4 < 0 on        [%.2f, %.2f]" % (min(m4_negative), max(m4_negative)))
    print("some DP < 0 on   [%.2f, %.2f]" % (min(dp_negative), max(dp_negative)))
    print()
    print("lambda   " + "".join(f"{n:>12}" for n in NAMES))
    for row in rows[::10]:
        values = "".join(f"{row[n]:12.6f}" for n in NAMES)
        marks = " <- monogamy violated" if row["M4"] < FLOOR else ""
        print(f"{row['lambda']:6.2f} {values}{marks}")


if __name__ == "__main__":
    main()
