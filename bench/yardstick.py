"""A fixed piece of work that measures how fast the machine runs right now.

On a shared machine the speed available to one process drifts by tens of
percent within seconds to minutes, far more than the run-to-run noise of
a solve on a quiet machine. The end-to-end timings are therefore reported
in reference seconds: each solve's wall time scaled by REFERENCE_S over
the time of this yardstick measured just before and just after it.

The yardstick does the kinds of work the solver's time goes to (Python
set and dict bookkeeping, sparse assembly and products, dense Cholesky and
symmetric-indefinite factorizations) with numpy, scipy and the standard
library only, so that no change to the program under test can change it.
Its inputs come from a fixed seed, not from the benchmark seed, so every
run does the same work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg
import scipy.sparse

# median yardstick time on the 2-core machine the benchmark was defined
# on, so that reference seconds read close to wall seconds there
REFERENCE_S = 0.16


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.elems = rng.integers(0, 20000, (20000, 4)).tolist()
        self.rows = rng.integers(0, 50000, 400000)
        self.cols = rng.integers(0, 50000, 400000)
        self.vals = rng.standard_normal(400000)
        d = rng.standard_normal((300, 300))
        self.dense = d @ d.T + 300.0 * np.eye(300)
        b = rng.standard_normal((800, 800))
        self.indefinite = b + b.T
        self.sytrf = scipy.linalg.get_lapack_funcs("sytrf", (self.indefinite,))

    def run(self) -> float:
        """Do the work once; return its wall time in seconds."""
        t0 = time.perf_counter()
        sharers = [set() for _ in range(20000)]
        for e, nodes in enumerate(self.elems):
            for nd in nodes:
                sharers[nd].add(e % 64)
        groups: dict = {}
        for nd, s in enumerate(sharers):
            if len(s) >= 2:
                groups.setdefault(tuple(sorted(s)), []).append(nd)
        m = scipy.sparse.coo_matrix((self.vals, (self.rows, self.cols)),
                                    shape=(50000, 50000)).tocsr()
        x = np.ones(50000)
        for _ in range(20):
            x = m @ x
            x /= np.linalg.norm(x)
        for _ in range(5):
            scipy.linalg.cho_factor(self.dense, lower=True)
        self.sytrf(self.indefinite, lower=1)
        return time.perf_counter() - t0

    def median(self, reps: int) -> float:
        return statistics.median(self.run() for _ in range(reps))
