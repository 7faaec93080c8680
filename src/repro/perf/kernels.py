"""Single-node kernels: pointwise vector-multiply (paper eq. 4) and friends.

The paper observes that finite-difference code rarely maps onto BLAS
matrix-vector operations, but a large share of it reduces to what it
calls a *pointwise vector-multiply*::

    DO j = 1, N
      DO i = 1, M
        C(i, j) = A(i, j, s) * B(i)
      ENDDO
    ENDDO

i.e. eq. (4): ``a o b`` tiles the short vector ``b`` across the long
vector ``a``.  Several implementations are provided, from a deliberately
naive scalar loop (the "before" of the paper's optimisation study) to
fully vectorised forms (numpy standing in for the proposed hand-optimised
assembly routine); real timing comparisons live in
``benchmarks/bench_pointwise_multiply.py``.

Also here: thin wrappers for the BLAS-style copy/scale/saxpy operations
the paper substituted into hand-coded loops.
"""

from __future__ import annotations

import numpy as np

from repro.util.arraypool import ArrayPool


# ----------------------------------------------------------------------
# pointwise vector-multiply, eq. (4)
# ----------------------------------------------------------------------

def pointwise_multiply_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar-loop reference: ``out[k] = a[k] * b[k mod m]``.

    Mirrors the Fortran inner loops before optimisation; used as the
    baseline in the single-node benchmarks (and as the semantics oracle
    for the fast variants).
    """
    n, m = a.shape[0], b.shape[0]
    if n % m != 0:
        raise ValueError(f"len(a)={n} must be divisible by len(b)={m}")
    # Allocate in the promoted dtype of the operands, matching the
    # broadcast variants: a bare np.empty(n) defaults to float64, which
    # made this "oracle" disagree in dtype with the fast paths whenever
    # the inputs were float32.
    out = np.empty(n, dtype=np.result_type(a.dtype, b.dtype))
    for k in range(n):
        out[k] = a[k] * b[k % m]
    return out


def pointwise_multiply_reshaped(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorised form: reshape ``a`` to (n/m, m) and broadcast ``b``.

    The shape the paper's proposed library routine would exploit: unit
    stride on both operands, one pass over memory.
    """
    n, m = a.shape[0], b.shape[0]
    if n % m != 0:
        raise ValueError(f"len(a)={n} must be divisible by len(b)={m}")
    return (a.reshape(n // m, m) * b).reshape(n)


def pointwise_multiply_tiled(a: np.ndarray, b: np.ndarray,
                             out: np.ndarray | None = None) -> np.ndarray:
    """In-place-capable variant: preallocated output, no temporaries."""
    n, m = a.shape[0], b.shape[0]
    if n % m != 0:
        raise ValueError(f"len(a)={n} must be divisible by len(b)={m}")
    if out is None:
        out = np.empty(n, dtype=np.result_type(a.dtype, b.dtype))
    np.multiply(a.reshape(n // m, m), b, out=out.reshape(n // m, m))
    return out


def pointwise_multiply_2d(a: np.ndarray, b: np.ndarray, s) -> np.ndarray:
    """The 2-D nested-loop form of the paper: ``C[i,j] = A[i,j,s] * B[i]``.

    ``s`` may be an integer (constant third index) or the string ``"j"``
    (third index equal to j), the two cases the paper describes.
    """
    m_dim, n_dim = a.shape[0], a.shape[1]
    if b.shape[0] != m_dim:
        raise ValueError("B must match A's first dimension")
    if isinstance(s, int):
        return a[:, :, s] * b[:, None]
    if s == "j":
        j = np.arange(n_dim)
        return a[:, j, j] * b[:, None]
    raise ValueError(f"s must be an int or 'j', got {s!r}")


# ----------------------------------------------------------------------
# BLAS-style level-1 wrappers (the paper's loop replacements)
# ----------------------------------------------------------------------

def blas_copy(x: np.ndarray, y: np.ndarray) -> None:
    """dcopy: ``y[:] = x`` without allocating."""
    np.copyto(y, x)


def blas_scal(alpha: float, x: np.ndarray) -> None:
    """dscal: ``x *= alpha`` in place."""
    x *= alpha


def blas_axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> None:
    """daxpy: ``y += alpha * x`` without temporaries.

    Aliasing contract: ``y`` (or ``x``) may overlap the cached scratch
    buffer — e.g. an array obtained from a previous call's workspace.
    Writing ``alpha * x`` into the scratch would then clobber ``y``
    before the accumulate (the result silently came out as
    ``2 * alpha * x``); such calls are detected with
    :func:`numpy.shares_memory` and served by a safe temporary instead.
    """
    buf = _AXPY_POOL.scratch(x.shape, x.dtype)
    if np.shares_memory(y, buf) or (x is not buf and np.shares_memory(x, buf)):
        y += alpha * x
        return
    # Single fused pass; numpy's out= avoids the intermediate alpha*x.
    np.multiply(x, alpha, out=buf)
    y += buf


#: Scratch buffers keyed by (shape, dtype), LRU-bounded at
#: :data:`_AXPY_BUF_MAX` entries (an :class:`repro.util.ArrayPool`).
_AXPY_BUF_MAX = 8
_AXPY_POOL = ArrayPool(max_entries=_AXPY_BUF_MAX)


def pointwise_flops(n: int) -> float:
    """Arithmetic of one pointwise vector-multiply over n elements."""
    return float(n)
