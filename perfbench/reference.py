"""Reference tasks: fixed work that times the host, not the program.

On a shared host the machine's speed drifts by 20-40% over minutes, more
than the bound a commit is judged by. So each run also times two fixed
tasks between its requests and scales every timed figure by the task's
nominal time over its median measured time: the figures read in seconds at
a nominal host speed. Neither task imports or runs anything from so5cg, so
a change to the program cannot move them.

- PROCESS_ARGV: a fresh interpreter importing a fixed set of standard
  library modules, the kind of work set-up and a CLI invocation do. It
  scales setup_s and the figures of cli_session.
- compute(): exact rational arithmetic and dict traffic in the running
  process, the kind of work table_sweep and coupling_gram do. It scales
  their figures.
"""

from __future__ import annotations

import statistics
import sys
from fractions import Fraction
from math import isqrt

PROCESS_ARGV = [sys.executable, "-c",
                "import argparse, csv, decimal, email.parser, fractions, "
                "http.client, json"]
PROCESS_NOMINAL_S = 0.15
COMPUTE_NOMINAL_S = 0.015


def compute() -> int:
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 1400):
        key = (i % 61, isqrt(i * 7919))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i * i + 1, i + 3)
    total = sum(acc.values(), Fraction(0))
    return total.numerator % 1000 + len(acc)


def scale(samples: list[float], nominal: float) -> float:
    """Factor that turns a time measured on this host into one at nominal
    speed: nominal time / median measured time of the reference task."""
    return nominal / statistics.median(samples) if samples else 1.0
