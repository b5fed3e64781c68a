"""A fixed computation that measures how fast the host runs this process.

The benchmark is meant for shared virtual machines, whose speed drifts by up
to 1.7x within minutes as other tenants come and go.  The drift shows in user
time, not as steal time, so neither CPU time nor a longer run removes it.  The
benchmark therefore times this computation between solves and reports its
times in reference seconds: the measured seconds scaled by REF_S over the
computation's mean time in the same run.  On a machine where the computation
takes REF_S, a reference second is a wall-clock second.

The inputs come from a fixed seed, not from ``--seed``, and the computation
uses only numpy and scipy, so no change to mstpart can change its work.  It
mixes the two kinds of work that dominate a solve: sparse products with row
normalisation on small arrays, as in an APG iteration, and dict updates in a
pure-Python loop, as in an FM pass.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

REF_S = 0.010  # seconds the computation is scaled to
REPS = 3  # samples per call of sample()
N, DEGREE = 600, 6  # rows of the sparse matrix, entries per row
now = time.perf_counter


class Reference:
    def __init__(self):
        rng = np.random.default_rng(2509)
        rows = np.repeat(np.arange(N), DEGREE)
        cols = rng.integers(0, N, size=N * DEGREE)
        a = sp.csr_matrix((rng.random(N * DEGREE), (rows, cols)), shape=(N, N))
        self.a = (a + a.T).tocsr()
        self.x0 = rng.standard_normal((N, 2))
        self.adj = rng.integers(0, N, size=(N, DEGREE)).tolist()
        self.samples: list[float] = []

    def _work(self):
        x = self.x0
        for _ in range(80):
            y = self.a @ x - 0.1 * x
            x = y / np.maximum(np.linalg.norm(y, axis=1, keepdims=True), 1e-12)
        gains: dict[int, int] = {}
        for _ in range(8):
            for v, nbrs in enumerate(self.adj):
                g = gains.get(v, 0)
                for u in nbrs:
                    g += 1 if (u ^ v) & 1 else -1
                gains[v] = g
        return x, gains

    def sample(self) -> None:
        for _ in range(REPS):
            t0 = now()
            self._work()
            self.samples.append(now() - t0)

    def scale(self) -> float:
        """Reference seconds per measured second in this run."""
        return REF_S / statistics.fmean(self.samples)
