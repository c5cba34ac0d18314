"""Host-speed index that scales the benchmark's timings.

The benchmark host is shared: over minutes, the same clusterseg pass runs
up to 1.5x slower or faster as other tenants' load comes and goes, and
medians of raw times over ten runs moved by 20-40% between sets of runs.
HostSpeed times fixed numpy kernels, independent of clusterseg, between
the passes; the gated timings are scaled to a host that runs the kernels
in their nominal time, and the raw timings are printed beside them.

The scaling assumes the program slows down under host load as the kernels
do. The kernels mix the three kinds of work that dominate the workloads
(memory-bound writes, vectorized image arithmetic, small matmuls with
Python loops), the same mix for every workload, instead of imitating one
layer. A change that moves a workload's profile far from that mix is
scaled by a less fitting factor when the host is loaded, so a claimed
change should also be checked against the raw figures.
"""

import time

import numpy as np


def _gmm_kernel():
    """Memory-bound: small solves and column writes to a 36 MB array."""
    x = np.random.default_rng(0).normal(size=(2231, 9))

    def run():
        log_post = np.full((x.shape[0], 2020), -np.inf)
        for m in range(300):
            d = x - x[m]
            cov = d[:50].T @ d[:50] / 50 + np.eye(9)
            log_post[:, m] = np.einsum("nd,dn->n", d, np.linalg.solve(cov, d.T))
        return log_post.argmax(axis=1)
    return run


def _render_kernel():
    """Vectorized float64 arithmetic on 128x128 images."""
    rng = np.random.default_rng(0)
    u = (np.arange(128.0) - 64.0) / 128.0
    dirs = np.stack(np.broadcast_arrays(u[None, :], u[:, None], 1.0), axis=-1)
    centers = rng.uniform([-0.3, -0.3, 0.9], [0.3, 0.3, 1.8], size=(6, 3))

    def run():
        for _ in range(16):
            best = np.full((128, 128), np.inf)
            winner = np.zeros((128, 128), dtype=np.int32)
            normals = []
            for k, c in enumerate(centers):
                dd = np.einsum("hwc,hwc->hw", dirs, dirs)
                dc = np.einsum("hwc,c->hw", dirs, c)
                disc = dc * dc - dd * (c @ c - 0.01)
                t = np.where(disc >= 0.0, (dc - np.sqrt(np.maximum(disc, 0.0))) / dd, np.inf)
                normals.append((dirs * np.where(np.isfinite(t), t, 1.0)[..., None] - c) / 0.1)
                closer = t < best
                best = np.where(closer, t, best)
                winner = np.where(closer, k + 1, winner)
            rgb = np.zeros((128, 128, 3))
            for k, n in enumerate(normals):
                sel = winner == k + 1
                rgb[sel] = np.clip(-np.einsum("hwc,hwc->hw", n, dirs), 0.0, 1.0)[sel, None]
            rgb.astype(np.float32).tobytes()
    return run


def _mlp_kernel():
    """Small BLAS matmuls and small-array Python loops."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1024, 10))
    w1, w2, w3 = (rng.normal(size=s) for s in ((10, 64), (64, 64), (64, 14)))

    def run():
        for _ in range(80):
            h1 = np.maximum(x @ w1, 0.0)
            h2 = np.maximum(h1 @ w2, 0.0)
            dy = h2 @ w3 - 1.0
            dh2 = (dy @ w3.T) * (h2 > 0)
            _ = (h2.T @ dy, h1.T @ dh2, x.T @ ((dh2 @ w2.T) * (h1 > 0)))
        row = np.linspace(0.0, 1.0, 8)
        taken = np.zeros(8, dtype=bool)
        for _ in range(3000):
            j = int(np.argmax(np.where(taken, -1.0, row)))
            taken[j] = not taken[j]
    return run


# Kernel factory and its nominal seconds: about its median on a quiet host.
KERNELS = ((_gmm_kernel, 0.12), (_render_kernel, 0.09), (_mlp_kernel, 0.11))


class HostSpeed:
    """Runs the kernels in turn and keeps their measured and nominal seconds."""

    def __init__(self):
        self._kernels = [(factory(), nominal) for factory, nominal in KERNELS]
        self.runs = 0
        self.seconds = 0.0
        self.nominal_seconds = 0.0

    def run(self):
        fn, nominal = self._kernels[self.runs % len(self._kernels)]
        start = time.perf_counter()
        fn()
        self.seconds += time.perf_counter() - start
        self.nominal_seconds += nominal
        self.runs += 1

    def factor(self):
        """Nominal over measured kernel seconds: below 1 on a slow host."""
        return self.nominal_seconds / self.seconds
