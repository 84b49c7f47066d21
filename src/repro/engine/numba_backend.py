"""Optional numba provider for the coverage-plane entry points.

Registered by :mod:`repro.engine.dispatch` as the middle link of the
``auto`` chain (native → numba → numpy) when numba is importable; the
module imports cleanly without numba and reports ``available() ==
False``, so no install is ever required.  Entry-point shims mirror the
:mod:`repro._native` call contracts exactly — dispatch callers cannot
tell the providers apart except by speed.

The kernels are plain integer loops over the same CSR operands as the
C kernels: 0/1 membership indicators accumulated in int64, so every
provider computes the same exact small integers and results are
bit-identical (pinned by ``tests/test_dispatch.py``, which skips the
numba legs cleanly when numba is absent).

The RNG entry points (``seed_lanes`` / ``draw_masked`` /
``elect_batch`` / the ball walks) are *not* served here: they need
128-bit limb arithmetic and in-place stream state numba does not
express cleanly; under a forced ``numba`` backend they run their numpy
reference paths (see :func:`repro.engine.dispatch.provider`).
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover — exercised only where numba is installed
    from numba import njit as _njit
    _HAS_NUMBA = True
except ImportError:
    _HAS_NUMBA = False

    def _njit(*args, **kwargs):  # type: ignore[misc]
        def deco(fn):
            return fn
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]
        return deco

__all__ = ["available", "member_counts", "member_counts_batch",
           "deficit_vector"]


def available() -> bool:
    """True when numba is importable (compilation itself is lazy)."""
    return _HAS_NUMBA


@_njit(cache=True, nogil=True)
def _member_counts(n, R, indptr, indices, xT, open_conv, out):
    # xT is the flat (n * R) lane-interleaved uint8 plane; out the flat
    # (R * n) int64 result — same operands as repro_member_counts.
    for i in range(n):
        s = indptr[i]
        e = indptr[i + 1]
        for b in range(R):
            acc = np.int64(0)
            for j in range(s, e):
                acc += xT[np.int64(indices[j]) * R + b]
            if open_conv:
                acc -= xT[i * R + b]
            out[b * n + i] = acc


@_njit(cache=True, nogil=True)
def _deficit(counts, req, use_req_vec, req_scalar, members, use_members,
             lo, hi, out):
    for i in range(lo, hi):
        r = req[i] if use_req_vec else req_scalar
        d = r - counts[i]
        if d < 0 or (use_members and members[i]):
            d = 0
        out[i] = d


def member_counts(n: int, R: int, indptr, idx32, xT, open_conv: int,
                  out) -> None:
    """Coverage matvec; same contract as ``_native.member_counts``."""
    _member_counts(n, R, indptr, idx32, xT.reshape(-1),
                   1 if open_conv else 0, out.reshape(-1))


member_counts_batch = member_counts

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_U8 = np.zeros(0, dtype=np.uint8)


def deficit_vector(counts, req_vec, req_scalar: int, members, out) -> None:
    """Elementwise deficit; same contract as ``_native.deficit_vector``."""
    _deficit(counts,
             _EMPTY_I64 if req_vec is None else req_vec,
             req_vec is not None, np.int64(req_scalar),
             _EMPTY_U8 if members is None else members,
             members is not None, 0, counts.size, out)
