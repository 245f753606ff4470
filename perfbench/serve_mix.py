"""The ``serve-mix`` workload: an in-process ``ServeServer`` on a loopback
socket, driven in a closed loop by two client connections.

A run attempts whole rounds.  A round submits every template once, with
a fresh ``factors_seed`` per request derived from ``--seed``; the two
clients take templates from one shared cursor and each waits for its
reply before sending the next.  The run ends at the first round boundary
after ``--seconds`` (and after enough rounds for 100 checked
completions), so every run attempts the same operations in the same
proportions.

Two templates exercise known faults of ``repro.serve`` and fail on every
round; they are counted in ``failed``:

* ``uniform-dims-b`` differs from ``uniform-dims-a`` only in ``dims``.
  ``TensorRef.key()`` leaves ``dims`` and ``nnz`` out of a synthetic
  tensor's key, so the server answers it from ``uniform-dims-a``'s
  cached tensor: ``ok``, with the wrong shape.
* ``mb+rankb-tuned-r8`` is a tuned ``mb+rankb`` job at rank 8.  The
  tuner returns no rank blocking there and the server does not map that
  answer to one full-width strip, so plan preparation fails with
  ``invalid_job``.

Every response is checked against the benchmark's own serial run (see
:func:`_Verifier.check`).  A failure of any other template makes the
run incorrect.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.exec import ParallelExecutor, WorkerPool
from repro.kernels import get_kernel
from repro.machine import power8
from repro.obs import Tracer, use_tracer
from repro.serve import (
    ServeConfig,
    SocketClient,
    TensorRef,
    WarmConfigCache,
    factors_for_spec,
    start_in_thread,
)
from repro.tensor import (
    COOTensor,
    clustered_tensor,
    power_law_tensor,
    uniform_random_tensor,
)
from repro.tune import Tuner

from perfbench import checks
from perfbench.harness import LeakGuard, median, peak_rss_mb, span_seconds, timed

N_CLIENTS = 2
SETUP_REPS = 3
MIN_CHECKED = 100
LAYER_REPS = 3
#: Two cores: one batch runner driving a two-thread pool.  The tensor
#: cache holds every template's tensor, so no entry is evicted mid-run
#: (eviction would make which of the two dims-colliding templates gets
#: the wrong tensor depend on arrival order).
CONFIG = ServeConfig(
    host="127.0.0.1",
    port=0,
    n_workers=2,
    n_runners=1,
    queue_limit=64,
    tensor_cache_entries=16,
)

UNIFORM = ("uniform", (120, 110, 100), 104_000)
CLUSTERED = ("clustered", (160, 150, 140), 400_000)
POWER_LAW = ("power_law", (300, 200, 150), 220_000)
GENERATORS = {
    "uniform": uniform_random_tensor,
    "clustered": clustered_tensor,
    "power_law": power_law_tensor,
}


@dataclass(frozen=True)
class Template:
    label: str
    job: dict
    #: Name of the known serve fault this template exercises, if any.
    fault: "str | None" = None

    def request(self, factors_seed: int) -> dict:
        return {**self.job, "factors_seed": int(factors_seed)}

    @property
    def expected_shape(self) -> "tuple[int, int]":
        return (self.job["tensor"]["dims"][self.job["mode"]], self.job["rank"])


def _template(label, source, seed, dtype, kernel, rank, mode, tune, params=None,
              dims=None, fault=None) -> Template:
    gen, default_dims, nnz = source
    job = {
        "tensor": {
            "synthetic": gen,
            "dims": list(dims or default_dims),
            "nnz": nnz,
            "seed": seed,
            "dtype": dtype,
        },
        "mode": mode,
        "rank": rank,
        "kernel": kernel,
        "tune": tune,
        "params": dict(params or {}),
    }
    return Template(label, job, fault)


#: The fixed mix.  Tensor seeds are part of the templates, not of
#: ``--seed``: every (generator, seed, dtype) is distinct except for the
#: deliberate dims collision, and the tuner's answers do not vary by run.
TEMPLATES = (
    _template("splatt-f64-r32", UNIFORM, 101, "float64", "splatt", 32, 0, False),
    _template("csf-f32-r16", CLUSTERED, 102, "float32", "csf", 16, 2, False),
    _template("mb-tuned-f64-r32", POWER_LAW, 103, "float64", "mb", 32, 1, True),
    _template("mb-f32-r64", UNIFORM, 104, "float32", "mb", 64, 0, False,
              params={"block_counts": [2, 2, 2]}),
    _template("rankb-tuned-f64-r64", CLUSTERED, 105, "float64", "rankb", 64, 2, True),
    _template("rankb-f32-r16", POWER_LAW, 106, "float32", "rankb", 16, 1, False,
              params={"block_cols": 8}),
    _template("mb+rankb-tuned-f64-r48", UNIFORM, 107, "float64", "mb+rankb", 48, 0, True),
    _template("mb+rankb-tuned-r8", POWER_LAW, 108, "float32", "mb+rankb", 8, 1, True,
              fault="tuned rankb-family job at rank <= 16 fails plan preparation"),
    _template("uniform-dims-a", UNIFORM, 109, "float64", "splatt", 16, 0, False),
    _template("uniform-dims-b", UNIFORM, 109, "float64", "splatt", 16, 0, False,
              dims=(100, 110, 120),
              fault="TensorRef.key() omits dims: answered from uniform-dims-a's tensor"),
)
N_PASSING = sum(t.fault is None for t in TEMPLATES)
MIN_ROUNDS = -(-MIN_CHECKED // N_PASSING)


def _prepare_kwargs(params: dict) -> dict:
    """Response ``applied_params`` as ``Kernel.prepare`` keyword arguments
    (the server reports a tuned rank blocking by its strip width)."""
    out = {}
    for key, value in params.items():
        if key == "rank_blocking":
            key = "block_cols"
        out[key] = tuple(value) if isinstance(value, list) else value
    return out


class _Verifier:
    """Serial re-execution of served jobs on tensors the benchmark builds
    itself from each job's own payload.

    Results are memoized by the full request payload plus the applied
    parameters — never by the server's batch key, which is what let the
    dims collision through ``repro.serve.loadgen``'s verifier.
    """

    def __init__(self) -> None:
        self._tensors: "dict[str, COOTensor]" = {}
        self._plans: "dict[str, object]" = {}
        self._shas: "dict[str, str]" = {}
        self._referenced: "set[str]" = set()

    def tensor(self, payload: dict) -> COOTensor:
        key = json.dumps(payload, sort_keys=True)
        if key not in self._tensors:
            t = GENERATORS[payload["synthetic"]](
                tuple(payload["dims"]), payload["nnz"], seed=payload["seed"]
            )
            self._tensors[key] = COOTensor(
                t.shape, t.indices, t.values.astype(payload["dtype"])
            )
        return self._tensors[key]

    def check(self, template: Template, job: dict, response: dict) -> None:
        """Raise :class:`checks.CheckFailed` unless ``response`` is exactly
        the serial result for ``job``."""
        checks.check_response_shape(response, template.expected_shape)
        applied = response.get("applied_params") or {}
        key = json.dumps([job, applied], sort_keys=True)
        if key not in self._shas:
            self._shas[key] = self._serial_sha(template, job, applied)
        checks.check_response_sha(response, self._shas[key])

    def _serial_sha(self, template: Template, job: dict, applied: dict) -> str:
        tensor = self.tensor(job["tensor"])
        kernel = get_kernel(job["kernel"])
        plan_key = json.dumps([job["tensor"], job["kernel"], job["mode"], applied],
                              sort_keys=True)
        try:
            if plan_key not in self._plans:
                self._plans[plan_key] = kernel.prepare(
                    tensor, job["mode"], **_prepare_kwargs(applied)
                )
            factors = factors_for_spec(
                tensor.shape, job["rank"], job["factors_seed"], job["tensor"]["dtype"]
            )
            result = kernel.execute(self._plans[plan_key], factors)
        except Exception as exc:  # the applied parameters do not reproduce
            raise checks.CheckFailed(f"serial re-execution failed: {exc}") from exc
        if template.label not in self._referenced:
            self._referenced.add(template.label)
            ref, mag = checks.reference_mttkrp(
                tensor.indices, tensor.values, factors, job["mode"], tensor.shape[job["mode"]]
            )
            checks.check_mttkrp(result, ref, mag)
        return checks.sha256_of(result)


# ----------------------------------------------------------------------
# driving the server
def _warm_pass(client: SocketClient) -> None:
    """Submit every template once, in order (so ``uniform-dims-a`` always
    populates the shared cache entry)."""
    for i, tpl in enumerate(TEMPLATES):
        client.submit(tpl.request(i))


def _setup() -> "tuple[object, SocketClient]":
    handle = start_in_thread(CONFIG)
    client = SocketClient(CONFIG.host, handle.port)
    _warm_pass(client)
    return handle, client


def _stop(handle, clients) -> dict:
    for c in clients:
        c.close()
    return handle.drain_and_stop()


@dataclass
class _Sample:
    template: Template
    job: dict
    response: dict
    latency_s: float
    traced: bool


def _round(clients, seed: int, index: int, traced: bool) -> "list[_Sample]":
    """One round: every template once, two closed-loop clients."""
    base = (seed * 1_000_003 + index * len(TEMPLATES)) % (2**31)
    cursor = iter(range(len(TEMPLATES)))
    lock = threading.Lock()
    samples: "list[_Sample]" = []
    errors: "list[Exception]" = []

    def client_loop(client: SocketClient) -> None:
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                tpl = TEMPLATES[i]
                job = tpl.request(base + i)
                resp, secs = timed("submit", client.submit, job)
                with lock:
                    samples.append(_Sample(tpl, job, resp, secs, traced))
        except Exception as exc:  # re-raised by the round
            errors.append(exc)

    threads = [
        threading.Thread(target=client_loop, args=(c,), name=f"perfbench-client-{k}")
        for k, c in enumerate(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return samples


def _check_drained(report: dict) -> None:
    counters = report.get("counters", {})
    resolved = sum(
        counters.get(k, 0)
        for k in ("completed", "failed", "cancelled", "deadline_expired")
    )
    if not (
        report.get("drained")
        and report.get("state") == "stopped"
        and report.get("queue_depth") == 0
        and counters.get("accepted", 0) == resolved
    ):
        raise RuntimeError(f"server did not drain cleanly: {report}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    guard = LeakGuard()
    (handle, client), secs = timed("serve.setup", _setup)
    setup_times = [secs]
    clients = [client] + [
        SocketClient(CONFIG.host, handle.port) for _ in range(N_CLIENTS - 1)
    ]

    tracer = Tracer() if trace else None
    stats_before = clients[0].stats()
    samples: "list[_Sample]" = []
    wall = {False: 0.0, True: 0.0}
    t_end = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS * (2 if trace else 1) or time.perf_counter() < t_end or (
        trace and rounds % 2
    ):
        # A traced run alternates untraced and traced rounds.
        traced = trace and rounds % 2 == 1
        t0 = time.perf_counter()
        with use_tracer(tracer) if traced else nullcontext():
            samples.extend(_round(clients, seed, rounds, traced))
        wall[traced] += time.perf_counter() - t0
        rounds += 1
    stats_after = clients[0].stats()
    _check_drained(_stop(handle, clients))
    peak = peak_rss_mb()
    # The other set-ups come after the peak is read: memory a stopped
    # server leaves in the allocator would otherwise count as this one's.
    for _ in range(SETUP_REPS - 1):
        (handle, client), secs = timed("serve.setup", _setup)
        setup_times.append(secs)
        _check_drained(_stop(handle, [client]))

    verifier = _Verifier()
    correct = True
    failed = 0
    passed: "list[_Sample]" = []
    for s in samples:
        try:
            verifier.check(s.template, s.job, s.response)
        except checks.CheckFailed as exc:
            failed += 1
            if s.template.fault is None:
                correct = False
                print(f"perfbench: {s.template.label}: {exc}", file=sys.stderr)
            continue
        passed.append(s)

    if trace:
        metrics, detail = _layer_metrics(
            passed, verifier, stats_before, stats_after, wall
        )
    else:
        lat_ms = np.array([s.latency_s for s in passed]) * 1e3
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "latency_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
            "ops_per_s": (len(passed) / wall[False], "1/s"),
            "peak_rss_mb": (peak, "MB"),
        }
        detail = {"latency_samples": (len(passed), "count")}
    guard.check()
    return {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


# ----------------------------------------------------------------------
# per-layer figures from a traced run
def _layer_metrics(passed, verifier, before, after, wall) -> "tuple[dict, dict]":
    """The per-layer metrics every workload reports, and the figures of
    the layers only this workload runs."""
    traced = [s for s in passed if s.traced]
    rate = {
        flag: sum(s.traced == flag for s in passed) / wall[flag] for flag in (False, True)
    }
    queue_ms = [s.response["queue_ms"] for s in traced]
    exec_ms = [s.response["exec_ms"] for s in traced]
    latency_ms = [s.latency_s * 1e3 for s in traced]
    other_ms = [
        lat - q - e for lat, q, e in zip(latency_ms, queue_ms, exec_ms)
    ]
    nnz = [verifier.tensor(s.job["tensor"]).nnz for s in traced]

    def delta(section: str, key: str) -> float:
        return float(after[section][key] - before[section][key])

    hits = delta("warm_cache", "hits")
    lookups = hits + delta("warm_cache", "misses")
    replay = _replay(passed)
    metrics = {
        "tensor.build_s": replay.pop("tensor.build_s"),
        "kernels.mttkrp_ms": (median(exec_ms), "ms"),
        "kernels.mttkrp_nnz_per_s": (sum(nnz) / (sum(exec_ms) / 1e3), "nnz/s"),
        "kernels.per_op_ms": (median(exec_ms), "ms"),
        "op.outside_kernels_ms": (
            median([lat - e for lat, e in zip(latency_ms, exec_ms)]), "ms"
        ),
        # Time per job, traced over untraced.
        "obs.trace_overhead": (rate[False] / rate[True], "ratio"),
    }
    detail = {
        "serve.pre_exec_ms": (median(queue_ms), "ms"),
        "serve.exec_ms": (median(exec_ms), "ms"),
        "serve.other_ms": (median(other_ms), "ms"),
        "serve.jobs_per_batch": (
            delta("counters", "accepted") / delta("counters", "batches"), "jobs/batch"
        ),
        "tune.hit_ratio": (hits / lookups, "1"),
        **replay,
    }
    return metrics, detail


def _tune(tensor, job: dict, machine, cache):
    """What a server batch does: a fresh tuner, then a cache lookup."""
    return Tuner(tensor, job["mode"], machine, cache=cache).get_or_tune(job["rank"])


def _replay(passed) -> dict:
    """The server's per-batch pipeline — tensor build, warm-cache tuning,
    parallel plan preparation, execution — replayed through the public
    calls on every template that completed, with the parameters the
    server applied."""
    applied = {}
    for s in passed:
        applied.setdefault(s.template.label, (s.template, s.response["applied_params"]))
    layer = Tracer()
    cache = WarmConfigCache(admit_after=1)
    machine = power8()
    pool = WorkerPool(CONFIG.n_workers, name="perfbench-replay")
    try:
        with use_tracer(layer), ParallelExecutor(
            n_threads=CONFIG.n_workers, backend="thread", pool=pool
        ) as executor:
            for tpl, params in applied.values():
                job = tpl.request(0)
                ref = TensorRef.from_payload(job["tensor"])
                kwargs = _prepare_kwargs(params)
                factors = factors_for_spec(
                    tuple(job["tensor"]["dims"]), job["rank"], 0, job["tensor"]["dtype"]
                )
                for rep in range(LAYER_REPS):
                    tensor, _ = timed("tensor.build", ref.build)
                    if job["tune"]:
                        if rep == 0:  # fill the cache
                            _tune(tensor, job, machine, cache)
                        timed("tune.get_or_tune", _tune, tensor, job, machine, cache)
                    timed("kernel.prepare", get_kernel(job["kernel"]).prepare,
                          tensor, job["mode"], **kwargs)
                    pplan, _ = timed("exec.prepare", executor.prepare,
                                     tensor, job["mode"], job["kernel"], **kwargs)
                    timed("exec.execute", executor.execute, pplan, factors)
    finally:
        pool.shutdown(wait=True)

    def med(name: str, scale: float = 1.0) -> float:
        return median(span_seconds(layer, "bench." + name)) * scale

    return {
        "tensor.build_s": (med("tensor.build"), "s"),
        "kernels.prepare_s": (med("kernel.prepare"), "s"),
        "tune.get_or_tune_ms": (med("tune.get_or_tune", 1e3), "ms"),
        "exec.prepare_ms": (med("exec.prepare", 1e3), "ms"),
        "exec.execute_ms": (med("exec.execute", 1e3), "ms"),
    }
