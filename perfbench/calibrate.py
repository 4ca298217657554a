"""Host-speed calibration for the end-to-end timings.

On a shared host the same call can take 30% longer from one minute to the
next, and the program's code slows by the same factor as any other
interpreter-bound code.  So the benchmark runs a fixed reference kernel
between blocks of timed calls and reports each duration in reference
seconds: the wall time times ``REFERENCE_S`` over the kernel's time around
that block.  A program change moves the reported number; a host slowdown
moves the kernel too and cancels out.

The kernel does not touch ``cmab``: small numpy calls (cumsum, diff,
searchsorted, unique, matrix-vector products), dict updates, sorting and
float formatting, the same kinds of work the program's rounds do.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's wall time on the 2-CPU Xeon host the benchmark was written
# on, so that reference seconds read close to that host's seconds.
REFERENCE_S = 0.033


def kernel(n: int = 300) -> float:
    rng = np.random.default_rng(12345)
    grid = np.linspace(0.0, 1.0, 9)
    counts: dict[float, int] = {}
    acc = 0.0
    lines = []
    for i in range(n):
        for _ in range(3):
            x = round(float(rng.random()), 1)
            counts[x] = counts.get(x, 0) + 1
        keys = sorted(counts)
        vals = np.asarray(keys)
        cum = np.cumsum([counts[k] for k in keys], dtype=float)
        low = np.maximum(cum / cum[-1] - 0.05, 0.0)
        low[-1] = 1.0
        probs = np.diff(low, prepend=0.0)
        V = np.unique(np.concatenate([vals, grid]))
        idx = np.searchsorted(vals, V + 1e-9, side="right")
        C = np.vstack([np.concatenate(([0.0], low))[idx]] * 9)
        w = np.empty(len(V))
        w[:-1] = V[:-1] - V[1:]
        w[-1] = V[-1]
        prod = np.ones(len(V))
        for _ in range(3):
            j = int(np.argmax((C * prod) @ w))
            prod = prod * C[j]
        acc += float(probs @ vals)
        lines.append(f"{i},{format(acc, '.12g')}")
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibrated:
    """Durations in reference seconds, calibrated block by block.

    ``add`` collects wall-clock durations; once a block holds ``block_s``
    seconds of them, the kernel runs again and the block is scaled by
    ``REFERENCE_S`` over the mean of the kernel times before and after it.
    """

    def __init__(self, block_s: float):
        self.block_s = block_s
        self.raw: list[float] = []
        self.values: list[float] = []
        self.kernel_s: list[float] = []
        self._pending: list[float] = []
        kernel_seconds()  # the first run pays one-off numpy start-up costs
        self._last = kernel_seconds()

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._pending.append(seconds)
        if sum(self._pending) >= self.block_s:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        k = kernel_seconds()
        self.kernel_s.append(k)
        scale = REFERENCE_S / ((self._last + k) / 2.0)
        self._last = k
        self.values.extend(d * scale for d in self._pending)
        self._pending.clear()
