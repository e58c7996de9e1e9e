#!/usr/bin/env python3
"""The three interventional monogamy witnesses on the lambda family.

Only the q1 flavor (purify the first output, condition the rest of the
run on it) recovers a nonnegative window; q2 and q3 stay negative across
the whole interior, so the choice of multitime extension matters.
"""

from qmonogamy import GAP_TOLERANCE, lambda_grid, mqmmi_rows

FLOOR = -GAP_TOLERANCE


def main() -> None:
    rows = mqmmi_rows(lambda_grid())
    window = [row["lambda"] for row in rows if row["M4_q1"] >= FLOOR]
    print(f"q1 nonnegative window: [{min(window):.2f}, {max(window):.2f}]")
    print()
    print("lambda        M4_q1        M4_q2        M4_q3")
    for row in rows[::5]:
        tag = "  <- q1 window" if row["M4_q1"] >= FLOOR else ""
        print(f"{row['lambda']:6.2f} {row['M4_q1']:12.6f} {row['M4_q2']:12.6f}"
              f" {row['M4_q3']:12.6f}{tag}")


if __name__ == "__main__":
    main()
