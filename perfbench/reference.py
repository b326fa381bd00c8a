"""A fixed reference task: the yardstick for the machine's speed at one moment.

    python3 perfbench/reference.py SCRATCH_FILE

The runner starts it as a child before every CLI command and after the last
one of a pass, and divides each command's wall time by the mean of the two
reference times around it (see run.py). It does the kinds of work the CLI
does, at a fixed size: interpreter start-up and `import numpy`, vector
arithmetic and sorting, float formatting, a file written and parsed back line
by line, and a dict updated in a Python loop. It never changes with kellybt,
so a ratio against it moves with the program and not with the speed of a
shared machine. It prints one checksum, which must be the same every time.
"""
from __future__ import annotations

import sys

import numpy as np


def main(path: str) -> None:
    rng = np.random.default_rng(12345)
    x = rng.normal(size=200_000)
    acc = 0.0
    for _ in range(3):
        y = np.sort(np.cumsum(x))
        acc += float(np.convolve(x[:20_000], x[:200], "same").sum())
    with open(path, "w") as fh:
        fh.writelines(f"{a:.6f},{b:.6f}\n" for a, b in zip(x[:60_000].tolist(),
                                                          y[:60_000].tolist()))
    totals: dict[int, float] = {}
    with open(path) as fh:
        for i, line in enumerate(fh):
            a, b = map(float, line.split(","))
            totals[i % 1000] = totals.get(i % 1000, 0.0) + a * b
    print(f"{acc + sum(totals.values()):.9e}")


if __name__ == "__main__":
    main(sys.argv[1])
