"""Exact BLAS-backed integer GEMM: the shared fast-math core of the repo.

Every conv/FC execution path in this repository reduces to the contraction

    acc[..., o, p] = sum_r  w[..., o, r] * x[..., r, p]

over *integer* operands (int8 activations and weights, int64 reference
buffers).  numpy cannot route integer ``matmul``/``einsum`` through BLAS, so
the seed implementation paid for a slow generic int64 contraction loop on
every layer of every fault-injection trial.

This module exploits a classical exactness argument to run the contraction
on the float BLAS kernels **without losing a single bit**:

* every operand, every product and every partial sum along the way is an
  integer;
* IEEE-754 binary32 represents all integers with magnitude < 2**24 exactly;
* the magnitude of any partial sum of the contraction is bounded by
  ``depth * max|w| * max|x|`` (``depth`` = accumulation length), no matter
  in which order BLAS blocks and reorders the additions;
* therefore, when that bound is below 2**24, the float32 GEMM computes the
  mathematically exact result and the cast back to int64 is lossless.

For int8 x int8 operands the products are at most ``128 * 128 = 2**14``, so
one float32 SGEMM is exact up to an accumulation depth of 1023 (``IC * K**2``;
most layers of the case-study model).  Deeper contractions of two narrow
operands (8-bit, or bool with up to 16-bit) are **split along K**: the
contraction is cut into chunks no deeper than
``(2**24 - 1) // (max|w| * max|x|)`` (1023 for int8 x int8), each chunk runs
as one float32 SGEMM that the argument above certifies on its own, and the
chunk results are summed in int64, where nothing can round.  The deepest
3x3 ResNet-18 layers (depth 1152 in the case study, 4608 at full width)
therefore stay on float32.  Everything float32 cannot certify — operands
whose single products reach 2**24 (int16 x int16), 8-bit x 16-bit pairs
(whose 2-3 term chunks are not worth a split) and wide buffers (int64 with
a large data-dependent bound) — runs the original int64 contraction, so
:func:`exact_matmul` is *always* bit-exact.  No call site in ``src/``
produces such operands on the case-study platform: every one passes int8.
The int64 tier doubles as the differential oracle of the float32 one.

The backend can be forced (for benchmarking and differential testing) with
:func:`set_gemm_backend`, the :func:`gemm_backend` context manager or the
``REPRO_GEMM_BACKEND`` environment variable (``auto`` / ``float32`` /
``int64``).  A forced ``float32`` still respects the exactness bound: a
request that cannot be certified falls back to int64 rather than ever
returning a wrong result.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

#: Largest magnitude for which every integer is exactly representable in
#: IEEE-754 binary32.
FLOAT32_EXACT_BOUND = 1 << 24

#: Valid backend names accepted by :func:`set_gemm_backend`.
BACKENDS = ("auto", "float32", "int64")

#: Worst-case |value| per integer dtype (note: |int8 min| = 128, not 127).
_DTYPE_BOUNDS = {
    np.dtype(np.bool_): 1,
    np.dtype(np.int8): 1 << 7,
    np.dtype(np.uint8): (1 << 8) - 1,
    np.dtype(np.int16): 1 << 15,
    np.dtype(np.uint16): (1 << 16) - 1,
}

#: Shallowest K-chunk worth a split-K float32 GEMM.  Narrow pairs certify
#: chunks of either >= 256 terms (8-bit x 8-bit, bool x anything) or <= 3
#: (8-bit x 16-bit); the latter would split into hundreds of tiny SGEMMs,
#: so those pairs take the int64 contraction instead.
_MIN_CHUNK_DEPTH = 64


@dataclass
class GemmStats:
    """Counters of which kernel served each :func:`exact_matmul` call."""

    float32_calls: int = 0
    #: Always 0: the float64 tier is retired; the counter stays because
    #: trace readers still report it.
    float64_calls: int = 0
    int64_calls: int = 0
    #: ``auto``/``float32`` requests sent to int64 by the exactness bound.
    bound_fallbacks: int = 0

    @property
    def total_calls(self) -> int:
        return self.float32_calls + self.float64_calls + self.int64_calls

    def reset(self) -> None:
        for counter in fields(self):
            setattr(self, counter.name, 0)

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


#: Process-global counters (each campaign worker process has its own copy).
GEMM_STATS = GemmStats()

_backend: str = os.environ.get("REPRO_GEMM_BACKEND", "auto")
if _backend not in BACKENDS:  # pragma: no cover - env misconfiguration guard
    raise ValueError(
        f"REPRO_GEMM_BACKEND={_backend!r} is not one of {', '.join(BACKENDS)}"
    )


def get_gemm_backend() -> str:
    """The currently selected backend name."""
    return _backend


def set_gemm_backend(name: str) -> None:
    """Select the GEMM backend (``auto`` picks the fastest exact kernel)."""
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"unknown GEMM backend {name!r}; choose from {', '.join(BACKENDS)}")
    _backend = name


@contextmanager
def gemm_backend(name: str):
    """Temporarily force a GEMM backend (used by benchmarks and tests)."""
    previous = get_gemm_backend()
    set_gemm_backend(name)
    try:
        yield
    finally:
        set_gemm_backend(previous)


def operand_bound(array: np.ndarray) -> int:
    """An upper bound on ``max|array|``, cheap for narrow integer dtypes.

    For int8/int16-family operands the dtype's representable range is used
    (no data pass); for wider integers the actual extrema are inspected so
    that e.g. int64 buffers holding small values still qualify for BLAS.
    """
    dtype = array.dtype
    bound = _DTYPE_BOUNDS.get(dtype)
    if bound is not None:
        return bound
    if not np.issubdtype(dtype, np.integer):
        raise TypeError(f"exact integer GEMM needs integer operands, got {dtype}")
    if array.size == 0:
        return 0
    # abs() would overflow on int64 min; bound via the signed extrema instead.
    return max(abs(int(array.min())), abs(int(array.max())))


def accumulation_bound(a: np.ndarray, b: np.ndarray) -> int:
    """Worst-case |partial sum| of ``a @ b`` as an arbitrary-precision int."""
    depth = a.shape[-1]
    return depth * operand_bound(a) * operand_bound(b)


def _int64_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The seed implementation's exact (slow) int64 contraction."""
    a64 = a.astype(np.int64, copy=False)
    b64 = b.astype(np.int64, copy=False)
    if a64.ndim == 2 and b64.ndim == 3:
        # The layout used by every conv call site; einsum matches the
        # pre-BLAS code path instruction for instruction.
        return np.einsum("or,nrp->nop", a64, b64, optimize=True)
    return np.matmul(a64, b64)


def _float32_chunk_depth(a: np.ndarray, b: np.ndarray) -> int:
    """Deepest K-chunk one float32 GEMM certifies for narrow ``a`` and ``b``.

    Zero unless both dtypes are narrow, i.e. bounded without a data pass.
    """
    a_bound = _DTYPE_BOUNDS.get(a.dtype)
    b_bound = _DTYPE_BOUNDS.get(b.dtype)
    if a_bound is None or b_bound is None:
        return 0
    return (FLOAT32_EXACT_BOUND - 1) // (a_bound * b_bound)


def _split_k_matmul(a: np.ndarray, b: np.ndarray, chunk_depth: int) -> np.ndarray:
    """``a @ b`` as float32 GEMMs over K-chunks no deeper than ``chunk_depth``.

    Each chunk's partial sums stay below 2**24, so each SGEMM is exact on
    its own, and the chunks are summed in int64.  The conv layout
    ``(O, R) x (N, R, P)`` runs one flat ``(O, R) @ (R, N*P)`` GEMM per
    chunk instead of N batched ones.
    """
    depth = a.shape[-1]
    chunks = -(-depth // chunk_depth)
    step = -(-depth // chunks)  # balanced chunks, each <= chunk_depth
    conv = a.ndim == 2 and b.ndim == 3
    if conv:
        n, _, p = b.shape
        b32 = b.transpose(1, 0, 2).astype(np.float32, order="C").reshape(depth, n * p)
    else:
        b32 = b.astype(np.float32)
    a32 = a.astype(np.float32)
    acc = 0
    for k in range(0, depth, step):
        b_chunk = b32[k:k + step] if b32.ndim == 1 else b32[..., k:k + step, :]
        acc += np.matmul(a32[..., k:k + step], b_chunk).astype(np.int64)
    if conv:
        return np.ascontiguousarray(acc.reshape(-1, n, p).transpose(1, 0, 2))
    return acc


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-exact integer matmul of ``a @ b`` (numpy broadcasting rules).

    Both operands must have integer (or bool) dtype.  The result is always
    int64 and always equals the infinite-precision contraction saturated
    nowhere — when the exactness bound certifies a float kernel the BLAS
    path is taken, otherwise the original int64 contraction runs.

    Typical call sites::

        exact_matmul(w_mat, cols)      # (O, R) x (N, R, P) -> (N, O, P)
        exact_matmul(x, weight.T)      # (N, F) x (F, O)    -> (N, O)
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else -1]:
        raise ValueError(
            f"matmul contraction mismatch: {a.shape} x {b.shape}"
        )
    if _backend == "int64":
        # Forced reference path: skip the bound (wide dtypes would pay a
        # full min/max scan only to have the result discarded).
        GEMM_STATS.int64_calls += 1
        return _int64_matmul(a, b)
    bound = accumulation_bound(a, b)
    chunk_depth = _float32_chunk_depth(a, b)
    # float32 includes split-K: a contraction too deep for one certified
    # SGEMM stays on float32 when its narrow operands certify chunks of at
    # least _MIN_CHUNK_DEPTH.
    if bound < FLOAT32_EXACT_BOUND or chunk_depth >= _MIN_CHUNK_DEPTH:
        # One call, however many chunks: the tier counters count calls.
        GEMM_STATS.float32_calls += 1
        if bound >= FLOAT32_EXACT_BOUND:
            return _split_k_matmul(a, b, chunk_depth)
        # All products and partial sums are integers < 2**24, so SGEMM is
        # exact and the int64 cast truncates nothing.
        return np.matmul(a.astype(np.float32), b.astype(np.float32)).astype(np.int64)
    GEMM_STATS.bound_fallbacks += 1
    GEMM_STATS.int64_calls += 1
    return _int64_matmul(a, b)
