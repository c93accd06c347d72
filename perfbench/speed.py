"""Machine-speed probe used to put every timing on one reference speed.

On a shared machine the CPU speed seen by one process drifts by 10-30% over
tens of seconds, as much as the bounds the benchmark sets.  The
probe below is a fixed mix of interpreter work, raised and caught
exceptions, small numpy linear algebra and array arithmetic, like the
package's own; it does not touch the package.  The benchmark runs it
between ops and reports each time scaled by ``REFERENCE_MS / probe time``
(the median probe near the op), i.e. as it would read on a machine where
the probe takes ``REFERENCE_MS``.  On a 2-CPU Xeon VM where the probe
takes 8 ms, scaled and raw times agree.  The raw times are printed as well.
"""

import statistics
from time import perf_counter

import numpy as np

REFERENCE_MS = 8.0
WINDOW = 10

_M2 = np.array([[1.0, 0.2], [0.3, 1.0]])
_M3 = np.eye(3) + 0.1
_M4 = np.eye(4) + 0.01
_M6 = np.eye(6, dtype=complex) + 0.1j
_X = np.linspace(0.0, 1.0, 4001)


def probe_ms() -> float:
    """Wall time of one fixed probe, in ms: about 8 ms on a 2-CPU Xeon VM."""
    start = perf_counter()
    total, table = 0, {}
    for i in range(19000):
        total += i * i
        table[i & 63] = total
    for i in range(2500):
        try:
            raise ValueError(i)
        except ValueError:
            total += 1
    for _ in range(70):
        np.linalg.solve(_M3, _M3)
        np.linalg.solve(_M6, _M6)
        np.linalg.svd(_M2, compute_uv=False)
        np.linalg.eigvalsh(_M4)
        float(np.max(np.abs(np.array([[1.0, 0.0], [0.0, 1.0]]) - _M2)))
    for _ in range(25):
        float(np.sqrt(_X * _X + 1.0).sum())
    return 1e3 * (perf_counter() - start)


def scale(raw, probes, window=WINDOW):
    """Scale raw op times; ``probes[i]`` ran just before op i and ``probes[-1]`` after the last.

    Each op uses the median of the ``window`` probes nearest to it, which
    follows drifts over a few seconds without carrying one probe's noise.
    """
    half = window // 2
    scaled = []
    for i, value in enumerate(raw):
        lo = max(0, min(i + 1 - half, len(probes) - window))
        scaled.append(value * REFERENCE_MS / statistics.median(probes[lo:lo + window]))
    return scaled
