"""Independent correctness checks for the product benchmark.

Every check here recomputes what the program under test reports, from
the raw nonzeros and the returned arrays, in the benchmark's own NumPy
code: the fit is not taken from ``KruskalTensor.fit``, and the MTTKRP
reference is a plain ``np.add.at`` accumulation, not any repro kernel.
A check raises :class:`CheckFailed` naming what disagreed; the tests in
``test_checks.py`` feed each one a corrupted output to prove it bites.

Tolerances are fixed per dtype before any run: float32 work is checked
against float64 references at a bound far above float32 rounding and
far below the corruptions the tests inject (a 1e-3 fit error, one
perturbed MTTKRP entry).
"""

from __future__ import annotations

import hashlib
import sys
from typing import Any, Callable, Sequence

import numpy as np

#: |fit(program) - fit(independent)| allowed, per working dtype.
FIT_TOL = {np.dtype(np.float64): 1e-8, np.dtype(np.float32): 2e-4}
#: Allowed drop of the fit from one ALS iteration to the next.
FIT_DROP_TOL = {np.dtype(np.float64): 1e-9, np.dtype(np.float32): 2e-4}
#: Per-entry MTTKRP error allowed, relative to the accumulation of
#: absolute terms into that entry (a rounding-error bound, so rows with
#: cancelling terms are not held to an impossible relative tolerance).
MTTKRP_RTOL = {np.dtype(np.float64): 1e-11, np.dtype(np.float32): 1e-4}


class CheckFailed(AssertionError):
    """An output of the program disagreed with the independent check."""


def report(check: Callable[..., None], *args: Any) -> bool:
    """Run one check; on failure say why on stderr and return False."""
    try:
        check(*args)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return False
    return True


def _dtype_key(dtype: "np.dtype | type") -> np.dtype:
    dt = np.dtype(dtype)
    if dt not in FIT_TOL:
        raise CheckFailed(f"unsupported working dtype {dt}")
    return dt


def reference_mttkrp(
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    n_rows: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """MTTKRP by direct accumulation over the nonzeros, in float64.

    Returns ``(reference, magnitude)``: the result and the same
    accumulation over absolute values, which bounds rounding error.
    """
    rank = int(factors[0].shape[1])
    prod = np.repeat(
        np.asarray(values, dtype=np.float64)[:, None], rank, axis=1
    )
    for m, f in enumerate(factors):
        if m != mode:
            prod *= np.asarray(f, dtype=np.float64)[indices[:, m]]
    ref = np.zeros((n_rows, rank), dtype=np.float64)
    mag = np.zeros((n_rows, rank), dtype=np.float64)
    np.add.at(ref, indices[:, mode], prod)
    np.add.at(mag, indices[:, mode], np.abs(prod))
    return ref, mag


def check_mttkrp(
    result: np.ndarray, reference: np.ndarray, magnitude: np.ndarray
) -> None:
    """``result`` must match the ``np.add.at`` reference entry-wise."""
    if result.shape != reference.shape:
        raise CheckFailed(
            f"MTTKRP shape {result.shape} != reference {reference.shape}"
        )
    rtol = MTTKRP_RTOL[_dtype_key(result.dtype)]
    err = np.abs(np.asarray(result, dtype=np.float64) - reference)
    # The absolute floor covers rows whose terms are all ~0.
    allowed = rtol * magnitude + rtol * 1e-6 * float(magnitude.max(initial=0.0))
    bad = np.argwhere(err > allowed)
    if len(bad):
        i, r = (int(x) for x in bad[0])
        raise CheckFailed(
            f"MTTKRP entry ({i}, {r}) = {result[i, r]!r} differs from the "
            f"np.add.at reference {reference[i, r]!r} by {err[i, r]:.3e} "
            f"(allowed {allowed[i, r]:.3e}; {len(bad)} entries bad)"
        )


def independent_fit(
    indices: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
    factors: Sequence[np.ndarray],
) -> float:
    """CP fit ``1 - ||X - M|| / ||X||`` evaluated in float64.

    ``||M||^2`` is the sum over column pairs of ``w_r w_s`` times the
    product of the factors' inner products; ``<X, M>`` is evaluated at
    the stored nonzeros only.
    """
    w = np.asarray(weights, dtype=np.float64)
    fs = [np.asarray(f, dtype=np.float64) for f in factors]
    gram = np.outer(w, w)
    for f in fs:
        gram = gram * np.einsum("ir,is->rs", f, f)
    model_sq = float(gram.sum())
    rows = np.repeat(w[None, :], len(values), axis=0)
    for m, f in enumerate(fs):
        rows *= f[indices[:, m]]
    v = np.asarray(values, dtype=np.float64)
    inner = float(np.dot(v, rows.sum(axis=1)))
    x_sq = float(np.dot(v, v))
    residual_sq = max(x_sq + model_sq - 2.0 * inner, 0.0)
    return 1.0 - np.sqrt(residual_sq) / np.sqrt(x_sq)


def check_fit(reported: float, recomputed: float, dtype: "np.dtype | type") -> None:
    """The program's reported fit must equal the recomputed one."""
    tol = FIT_TOL[_dtype_key(dtype)]
    if not abs(float(reported) - float(recomputed)) <= tol:
        raise CheckFailed(
            f"reported fit {float(reported)!r} differs from the independent "
            f"fit {float(recomputed)!r} by more than {tol:g}"
        )


def check_fits_nondecreasing(fits: Sequence[float], dtype: "np.dtype | type") -> None:
    """ALS never lowers the fit from one iteration to the next."""
    tol = FIT_DROP_TOL[_dtype_key(dtype)]
    for k in range(1, len(fits)):
        if not float(fits[k]) >= float(fits[k - 1]) - tol:
            raise CheckFailed(
                f"fit fell from {float(fits[k - 1])!r} at iteration {k} to "
                f"{float(fits[k])!r} at iteration {k + 1}"
            )


def sha256_of(array: np.ndarray) -> str:
    """SHA-256 of an array's exact C-order bytes."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def check_response_shape(response: dict, expected_shape: "tuple[int, int]") -> None:
    """A served MTTKRP must have completed with the job's own output
    shape ``(dims[mode], rank)``."""
    if not response.get("ok") or response.get("state") != "completed":
        err = response.get("error") or {}
        raise CheckFailed(
            f"job did not complete: {err.get('code')}: {err.get('message')}"
        )
    shape = tuple(response.get("shape") or ())
    if shape != tuple(expected_shape):
        raise CheckFailed(
            f"response shape {shape} != (dims[mode], rank) {tuple(expected_shape)}"
        )


def check_response_sha(response: dict, expected_sha: str) -> None:
    """A served MTTKRP must carry the checksum of the benchmark's serial
    re-execution on the job's own tensor."""
    if response.get("sha256") != expected_sha:
        raise CheckFailed(
            "response sha256 differs from the serial run on the job's own tensor"
        )
