"""The benchmark's checks must catch corrupted outputs.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q

Each check is fed a genuine output of the program first (it must pass)
and then a corrupted copy (it must raise ``CheckFailed``).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.cpd import cp_als  # noqa: E402
from repro.kernels import get_kernel  # noqa: E402
from repro.serve import SocketClient, factors_for_spec, start_in_thread  # noqa: E402
from repro.tensor import COOTensor, uniform_random_tensor  # noqa: E402

from perfbench import checks, serve_mix  # noqa: E402
from perfbench.harness import LeakGuard  # noqa: E402

DTYPES = (np.float64, np.float32)


def _tensor(dtype, seed=0, dims=(30, 25, 20)) -> COOTensor:
    t = uniform_random_tensor(dims, 2_000, seed=seed)
    return COOTensor(t.shape, t.indices, t.values.astype(dtype))


def _factors(tensor, rank, dtype, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, rank)).astype(dtype) for n in tensor.shape]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mode", (0, 1, 2))
def test_mttkrp_check_accepts_kernel_and_catches_perturbed_entry(dtype, mode):
    tensor = _tensor(dtype)
    factors = _factors(tensor, 8, dtype)
    out = get_kernel("splatt").mttkrp(tensor, factors, mode)
    ref, mag = checks.reference_mttkrp(
        tensor.indices, tensor.values, factors, mode, tensor.shape[mode]
    )
    checks.check_mttkrp(out, ref, mag)
    bad = out.copy()
    bad[3, 5] += dtype(1e-3) * np.abs(out).max()
    with pytest.raises(checks.CheckFailed, match=r"entry \(3, 5\)"):
        checks.check_mttkrp(bad, ref, mag)
    with pytest.raises(checks.CheckFailed, match="shape"):
        checks.check_mttkrp(out[:-1], ref, mag)


@pytest.mark.parametrize("dtype", DTYPES)
def test_fit_check_accepts_cp_als_and_catches_fit_off_by_1e_3(dtype):
    tensor = _tensor(dtype)
    res = cp_als(tensor, 6, n_iters=4, tol=0.0, seed=0)
    model = res.model
    fit = checks.independent_fit(
        tensor.indices, tensor.values, model.weights, model.factors
    )
    checks.check_fit(res.final_fit, fit, dtype)
    checks.check_fits_nondecreasing(res.fits, dtype)
    for off in (1e-3, -1e-3):
        with pytest.raises(checks.CheckFailed, match="independent fit"):
            checks.check_fit(res.final_fit + off, fit, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_fit_trajectory_check_catches_a_drop(dtype):
    with pytest.raises(checks.CheckFailed, match="fell"):
        checks.check_fits_nondecreasing([0.3, 0.5, 0.499], dtype)


def _small_template(label, seed, dims=(30, 25, 20), fault=None):
    return serve_mix.Template(
        label,
        {
            "tensor": {"synthetic": "uniform", "dims": list(dims), "nnz": 2_000,
                       "seed": seed, "dtype": "float64"},
            "mode": 0, "rank": 8, "kernel": "splatt", "tune": False, "params": {},
        },
        fault,
    )


def _served_response(template, job, tensor_seed=None):
    """A well-formed response as the server would send it, computed
    serially — from another tensor when ``tensor_seed`` is given."""
    payload = dict(job["tensor"])
    if tensor_seed is not None:
        payload["seed"] = tensor_seed
    tensor = serve_mix._Verifier().tensor(payload)
    factors = factors_for_spec(tensor.shape, job["rank"], job["factors_seed"], "float64")
    out = get_kernel(job["kernel"]).mttkrp(tensor, factors, job["mode"])
    return {
        "ok": True, "state": "completed", "shape": list(out.shape),
        "sha256": checks.sha256_of(out), "applied_params": {},
    }


def test_response_checks_catch_wrong_shape_and_foreign_hash():
    tpl = _small_template("t", seed=3)
    job = tpl.request(7)
    good = _served_response(tpl, job)
    verifier = serve_mix._Verifier()
    verifier.check(tpl, job, good)

    wrong_shape = dict(good, shape=[good["shape"][0] - 1, good["shape"][1]])
    with pytest.raises(checks.CheckFailed, match="shape"):
        verifier.check(tpl, job, wrong_shape)

    foreign = _served_response(tpl, job, tensor_seed=4)
    assert foreign["shape"] == good["shape"]
    with pytest.raises(checks.CheckFailed, match="sha256"):
        verifier.check(tpl, job, foreign)

    failed = {"ok": False, "error": {"code": "invalid_job", "message": "x"}}
    with pytest.raises(checks.CheckFailed, match="invalid_job"):
        verifier.check(tpl, job, failed)


def test_verifier_catches_the_served_dims_collision():
    """Two templates that differ only in dims: the server answers the
    second from the first's tensor, and the verifier must notice."""
    a = _small_template("a", seed=9)
    b = _small_template("b", seed=9, dims=(20, 25, 30))
    guard = LeakGuard()
    handle = start_in_thread(serve_mix.CONFIG)
    client = SocketClient(serve_mix.CONFIG.host, handle.port)
    try:
        resp_a = client.submit(a.request(1))
        resp_b = client.submit(b.request(2))
    finally:
        client.close()
        handle.drain_and_stop()
    guard.check()
    verifier = serve_mix._Verifier()
    verifier.check(a, a.request(1), resp_a)
    with pytest.raises(checks.CheckFailed):
        verifier.check(b, b.request(2), resp_b)


def test_leak_guard_catches_thread_process_and_segment():
    import subprocess
    import threading
    from multiprocessing import shared_memory

    from perfbench.harness import LeakError

    guard = LeakGuard()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name="leaky-thread")
    thread.start()
    try:
        with pytest.raises(LeakError, match="leaky-thread"):
            guard.check(timeout_s=0.2)
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()

    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        with pytest.raises(LeakError, match=str(child.pid)):
            guard.check(timeout_s=0.2)
    finally:
        child.kill()
        child.wait(timeout=5)

    seg = shared_memory.SharedMemory(create=True, size=64)
    try:
        with pytest.raises(LeakError, match=seg.name.lstrip("/")):
            guard.check(timeout_s=0.2)
    finally:
        seg.close()
        seg.unlink()
    guard.check(timeout_s=5)


def test_result_must_match_the_manifest():
    import json

    from perfbench.run import _manifest_mismatch

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in manifest[key]}
        assert _manifest_mismatch(metrics, trace) == []
        first = manifest[key][0]["name"]
        for broken in (
            {k: v for k, v in metrics.items() if k != first},
            {**metrics, "extra": {"value": 1.0, "unit": "s"}},
            {**metrics, first: {"value": 1.0, "unit": "furlongs"}},
            {**metrics, first: {"value": float("nan"), "unit": metrics[first]["unit"]}},
        ):
            assert _manifest_mismatch(broken, trace)
