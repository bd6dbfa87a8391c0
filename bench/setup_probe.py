"""Set-up of one fresh process: import lpqcycles and make the first dispatches.

Run as a script it prints the seconds this took, measured from before the
import; the benchmark starts it several times and reports the median.  It
imports nothing heavy before the clock starts, so numpy's import is part of
the measured set-up, as it is for a user.
"""

import time


def warm_up(lpq) -> None:
    """The first dispatch down each certificate path on the smallest tori
    the dichotomies accept: it computes the grid floors and the window
    lemmas that later calls find in the per-process caches."""

    lpq.lambda_cartesian(40, 40)  # constructed lift, validated
    lpq.lambda_cartesian(40, 41)  # cited upper bound, verified lower bound
    lpq.lambda_strong(49, 49)  # constructed lift of the length-7 block
    lpq.lambda_strong(48, 50)  # interval


if __name__ == "__main__":
    start = time.perf_counter()
    import lpqcycles

    warm_up(lpqcycles)
    print(time.perf_counter() - start)
