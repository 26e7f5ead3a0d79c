"""A fixed reference loop that measures how fast the machine is right now.

The benchmark's hosts change speed by up to half in phases of a few
seconds, as other tenants load the shared cores.  run.py times this loop
just before and just after each workload process, divides the process's
timings by the loop's mean time and multiplies by ``REF_SECONDS``.
That gives each timing in reference seconds: the time it would take on a
machine where this loop takes ``REF_SECONDS``.

The loop depends on Python and numpy only, never on ``tensorproj``, so no
change to the library can move it.  Its mix follows the workloads.  About
three quarters of its time is compute on small data: Python string
formatting (the record and CSV layers), many tiny random draws and
contractions (factor sampling), and BLAS and LAPACK on matrices that fit
in cache.  The last quarter streams an 8 MB matrix, as the sketch and
apply layers do: a skinny ``Q (Qᵀ X)``, the norm of a difference and a
mode contraction.  Compute alone tracked ``mc-variance`` best and
``sketch-order3`` worst; an even split the other way round; this share
keeps all three within a few percent (README.md, *Reference seconds*).
"""

from time import perf_counter

import numpy as np

# A round figure near the loop's time on a 2-vCPU Sapphire Rapids KVM guest,
# so reference seconds read close to seconds there.
REF_SECONDS = 0.15
SMALL_DRAWS = 3000
SMALL_BLAS_REPS = 18
STREAM_REPS = 2


def reference_loop() -> float:
    """Seconds taken by one pass of the fixed mix."""
    rng = np.random.default_rng(20110217)
    square = rng.standard_normal((300, 300))
    tall = rng.standard_normal((1000, 25))
    big = rng.standard_normal((1000, 1000))
    basis = np.linalg.qr(tall)[0]
    factor = rng.standard_normal((10, 25))
    _mix(rng, square, tall, big, basis, factor, 1, 1, 1)  # first-call costs, untimed
    start = perf_counter()
    _mix(rng, square, tall, big, basis, factor, SMALL_DRAWS, SMALL_BLAS_REPS, STREAM_REPS)
    return perf_counter() - start


def _mix(rng, square, tall, big, basis, factor, draws, blas_reps, stream_reps) -> None:
    rows = []
    for _ in range(draws):
        block = rng.standard_normal((8, 2, 10))
        rows.append(",".join(f"{v:.17g}" for v in block[0, 0, :4]))
        float(np.einsum("mik,mik->", block, block))
    for _ in range(blas_reps):
        square @ square
        np.linalg.qr(tall)
    for _ in range(stream_reps):
        np.linalg.norm(big - basis @ (basis.T @ big))
        np.tensordot(big.reshape(1000, 10, 100), factor, axes=([1], [0]))
