"""The two CP-ALS workloads: serial ``cp_als`` and process-backend
``distributed_cp_als``, both rank 32 on the nell2 stand-in.

A run builds the input a few times (``setup_s`` is the median build),
runs untimed warm-up decompositions, then repeats whole decompositions
with a fixed iteration count until the run length is used up.  One
decomposition is one operation: the latency metrics are taken over
them.  Every fit trajectory and the last model are checked
independently (see :mod:`perfbench.checks`).

The traced run alternates untraced and traced decompositions: the
untraced ones size the tracing overhead, the traced ones (one fresh
``repro.obs.Tracer`` each) give the per-layer split.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.cpd import cp_als
from repro.dist import (
    ProcessGrid,
    attained_fraction,
    distributed_cp_als,
    distributed_mttkrp,
    medium_grain_decompose,
)
from repro.kernels import get_kernel
from repro.machine import estimate_traffic, power8
from repro.obs import Tracer, use_tracer
from repro.tensor import COOTensor, load_dataset

from perfbench import checks
from perfbench.harness import LeakGuard, median, peak_rss_mb, span_seconds, timed

RANK = 32
N_ITERS = 3
#: Seed of the nell2 stand-in, of the initial factors and of the
#: medium-grained decomposition.  These stay fixed: across seeds the fit
#: after N_ITERS iterations varies by 10% (stand-in) and 3.5%
#: (initialisation), and the decomposition's random mode permutation
#: moves the communicated bytes between 453 kB and 812 kB — far more
#: than any useful bound.  ``--seed`` picks the mode of the checked
#: MTTKRP.
INPUT_SEED = 0
SETUP_REPS = 5
MIN_SOLVES = 3
#: Replays of the per-call layer measurements in a traced run.
LAYER_REPS = 3
DIST_GRID = (2, 1, 1)
DIST_RANKS = 2


@dataclass(frozen=True)
class ALSWorkload:
    dtype: type
    distributed: bool
    #: Untimed decompositions before the timed ones.  The first calls in
    #: a process pay for cold caches; in dist the first two also pay for
    #: the rank processes' first imports and segments (measured: 2.1-2.2 s
    #: and 1.7 s, against 1.4-1.6 s after).
    warmup: int


WORKLOADS = {
    "als-nell2-f64": ALSWorkload(np.float64, False, warmup=1),
    "dist-nell2-f32": ALSWorkload(np.float32, True, warmup=2),
}


def build_input(dtype: type) -> COOTensor:
    tensor = load_dataset("nell2", seed=INPUT_SEED)
    if tensor.values.dtype != np.dtype(dtype):
        tensor = COOTensor(tensor.shape, tensor.indices, tensor.values.astype(dtype))
    return tensor


def _solve(wl: ALSWorkload, tensor: COOTensor):
    if wl.distributed:
        return timed(
            "distributed_cp_als",
            distributed_cp_als,
            tensor,
            RANK,
            ProcessGrid(DIST_GRID),
            power8(),
            n_iters=N_ITERS,
            tol=0.0,
            seed=INPUT_SEED,
            backend="process",
        )
    return timed(
        "cp_als", cp_als, tensor, RANK, n_iters=N_ITERS, tol=0.0, seed=INPUT_SEED
    )


def _mttkrp_once(wl: ALSWorkload, tensor: COOTensor, factors, mode: int):
    """One MTTKRP of the final factors through the workload's own path."""
    if wl.distributed:
        decomp = medium_grain_decompose(
            tensor, ProcessGrid(DIST_GRID), seed=INPUT_SEED
        )
        res, _ = timed(
            "distributed_mttkrp",
            distributed_mttkrp,
            decomp,
            factors,
            mode,
            power8(),
            backend="process",
        )
        return res.output
    out, _ = timed("mttkrp", get_kernel("splatt").mttkrp, tensor, factors, mode)
    return out


def check_result(wl: ALSWorkload, tensor: COOTensor, results, seed: int) -> None:
    """Independent checks of the returned decompositions: every fit
    trajectory, and the last model in full."""
    dtype = np.dtype(wl.dtype)
    for res in results:
        checks.check_fits_nondecreasing(res.fits, dtype)
    result = results[-1]
    model = result.model
    if model.factors[0].dtype != dtype:
        raise checks.CheckFailed(
            f"model dtype {model.factors[0].dtype} != input dtype {dtype}"
        )
    if len(result.fits) != N_ITERS:
        raise checks.CheckFailed(f"{len(result.fits)} fits for {N_ITERS} iterations")
    fit = checks.independent_fit(
        tensor.indices, tensor.values, model.weights, model.factors
    )
    checks.check_fit(result.final_fit, fit, dtype)
    mode = seed % 3
    out = _mttkrp_once(wl, tensor, model.factors, mode)
    ref, mag = checks.reference_mttkrp(
        tensor.indices, tensor.values, model.factors, mode, tensor.shape[mode]
    )
    checks.check_mttkrp(out, ref, mag)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    guard = LeakGuard()
    tracer = Tracer() if trace else None
    setup_times = []
    with use_tracer(tracer) if tracer is not None else nullcontext():
        for _ in range(SETUP_REPS):
            tensor, secs = timed("tensor.build", build_input, wl.dtype)
            setup_times.append(secs)

    untraced: "list[float]" = []
    traced: "list[tuple[float, Tracer]]" = []
    results = [_solve(wl, tensor)[0] for _ in range(wl.warmup)]
    t_end = time.perf_counter() + seconds
    while True:
        # Traced runs alternate: untraced, traced, untraced, ...
        solve_tracer = Tracer() if trace and len(untraced) > len(traced) else None
        if solve_tracer is not None:
            with use_tracer(solve_tracer):
                res, secs = _solve(wl, tensor)
            traced.append((secs, solve_tracer))
        else:
            res, secs = _solve(wl, tensor)
            untraced.append(secs)
        results.append(res)
        done = len(untraced) + len(traced)
        if done >= MIN_SOLVES * (2 if trace else 1) and time.perf_counter() >= t_end:
            if not trace or len(traced) == len(untraced):
                break

    peak = peak_rss_mb(DIST_RANKS if wl.distributed else 0)
    correct = checks.report(check_result, wl, tensor, results, seed)

    if not trace:
        lat_ms = np.array(untraced) * 1e3
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "latency_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
            "ops_per_s": (len(untraced) / sum(untraced), "1/s"),
            "peak_rss_mb": (peak, "MB"),
        }
        detail = {
            "latency_samples": (len(untraced), "count"),
            "fit": (float(results[-1].final_fit), "1"),
        }
    else:
        assert tracer is not None
        metrics, detail = _layer_metrics(wl, tensor, tracer, traced, untraced)
        if wl.distributed:
            correct = checks.report(_check_comm_bytes, traced) and correct
    guard.check()
    return {
        "correct": correct,
        "attempted": len(results),
        "failed": 0,
        "metrics": metrics,
        "detail": detail,
    }


# ----------------------------------------------------------------------
# per-layer figures from a traced run
def _prepare_all_modes(tensor: COOTensor):
    kernel = get_kernel("splatt")
    return [kernel.prepare(tensor, mode) for mode in range(tensor.order)]


def _layer_metrics(wl, tensor, build_tracer, traced, untraced) -> "tuple[dict, dict]":
    """The per-layer metrics every workload reports, and the figures of
    the layers only this workload runs."""
    if wl.distributed:
        common, detail = _dist_layers(tensor, traced)
    else:
        common, detail = _serial_layers(wl, tensor, traced)
    mttkrp_ms, nnz_per_s, per_op_ms, outside_ms = common
    metrics = {
        "tensor.build_s": (median(span_seconds(build_tracer, "bench.tensor.build")), "s"),
        "kernels.mttkrp_ms": (mttkrp_ms, "ms"),
        "kernels.mttkrp_nnz_per_s": (nnz_per_s, "nnz/s"),
        "kernels.per_op_ms": (per_op_ms, "ms"),
        "op.outside_kernels_ms": (outside_ms, "ms"),
        "obs.trace_overhead": (
            median([s for s, _ in traced]) / median(untraced), "ratio"
        ),
    }
    return metrics, detail


def _serial_layers(wl, tensor, traced) -> "tuple[tuple, dict]":
    layer = Tracer()
    with use_tracer(layer):
        for _ in range(LAYER_REPS):
            plans, _ = timed("kernel.prepare", _prepare_all_modes, tensor)
    itemsize = np.dtype(wl.dtype).itemsize
    machine = power8()
    computed_bytes = N_ITERS * sum(
        estimate_traffic(p, RANK, machine, itemsize=itemsize).total_bytes
        for p in plans
    )
    call_ms, mttkrp_iter, step_iter, fit_iter = [], [], [], []
    shares, per_op_ms, outside_ms, nnz_rates, byte_rates = [], [], [], [], []
    for secs, tr in traced:
        iters = tr.spans_named("als.iteration")
        calls = sorted(tr.spans_named("mttkrp"), key=lambda c: c.start_ns)
        total_mttkrp = sum(c.dur_s for c in calls)
        call_ms.extend(c.dur_s * 1e3 for c in calls)
        for it in iters:
            end = it.start_ns + it.dur_ns
            inside = [c for c in calls if it.start_ns <= c.start_ns <= end]
            # An iteration runs MTTKRP, step, MTTKRP, step, MTTKRP, step,
            # fit.  The gaps between MTTKRPs are steps; the tail after the
            # last one is a step (taken as the mean gap) plus the fit.
            gaps = [
                (b.start_ns - a.start_ns - a.dur_ns) / 1e9
                for a, b in zip(inside, inside[1:])
            ]
            head = (inside[0].start_ns - it.start_ns) / 1e9
            tail = (end - inside[-1].start_ns - inside[-1].dur_ns) / 1e9
            last_step = sum(gaps) / len(gaps)
            mttkrp_iter.append(sum(c.dur_s for c in inside))
            step_iter.append(head + sum(gaps) + last_step)
            fit_iter.append(tail - last_step)
        shares.append(total_mttkrp / sum(it.dur_s for it in iters))
        per_op_ms.append(total_mttkrp * 1e3)
        outside_ms.append((secs - total_mttkrp) * 1e3)
        nnz_rates.append(tr.counters["kernel.nonzeros"] / total_mttkrp)
        byte_rates.append(computed_bytes / total_mttkrp / 1e9)
    detail = {
        "kernels.prepare_s": (median(span_seconds(layer, "bench.kernel.prepare")), "s"),
        "kernels.mttkrp_s": (median(mttkrp_iter), "s"),
        "kernels.mttkrp_gb_per_s": (median(byte_rates), "computed_GB/s"),
        "cpd.step_s": (median(step_iter), "s"),
        "cpd.fit_eval_s": (median(fit_iter), "s"),
        "cpd.mttkrp_share": (median(shares), "1"),
    }
    common = (
        median(call_ms), median(nnz_rates), median(per_op_ms), median(outside_ms)
    )
    return common, detail


def _check_comm_bytes(traced) -> None:
    """Identical solves must move exactly the same bytes."""
    counts = {tr.counters.get("dist.comm_bytes", 0.0) for _, tr in traced}
    if len(counts) != 1:
        raise checks.CheckFailed(
            f"dist.comm_bytes differs between identical solves: {sorted(counts)}"
        )


def _dist_layers(tensor: COOTensor, traced) -> "tuple[tuple, dict]":
    total_bytes = traced[-1][1].counters.get("dist.comm_bytes", 0.0)
    per_mttkrp = total_bytes / (tensor.order * N_ITERS)
    comm_s, compute_s, mean_compute_s, step_s = [], [], [], []
    call_ms, per_op_ms, outside_ms, nnz_rates = [], [], [], []
    for secs, tr in traced:
        per_rank_comm: "dict[str, float]" = {}
        per_rank_compute: "dict[str, float]" = {}
        calls: "list[dict[str, float]]" = []
        for s in tr.spans:
            if s.name not in ("dist.comm", "dist.compute"):
                continue
            acc = per_rank_comm if s.name == "dist.comm" else per_rank_compute
            acc[s.thread_name] = acc.get(s.thread_name, 0.0) + s.dur_s
            # One call records compute then comm for each rank in turn.
            if s.name == "dist.compute":
                if not calls or s.thread_name in calls[-1]:
                    calls.append({})
                calls[-1][s.thread_name] = s.dur_s
        comm_s.append(max(per_rank_comm.values()) / N_ITERS)
        compute_s.append(max(per_rank_compute.values()) / N_ITERS)
        total_compute = sum(per_rank_compute.values())
        mean_compute_s.append(total_compute / len(per_rank_compute) / N_ITERS)
        call_ms.extend(sum(c.values()) / len(c) * 1e3 for c in calls)
        # Every call spreads the whole tensor's nonzeros over the ranks.
        nnz_rates.append(tensor.nnz * len(calls) / total_compute)
        makespan = sum(max(call.values()) for call in calls)
        per_op_ms.append(makespan * 1e3)
        outside_ms.append((secs - makespan) * 1e3)
        step_s.append((secs - makespan) / N_ITERS)
    detail = {
        "kernels.mttkrp_s": (median(mean_compute_s), "s"),
        "cpd.step_s": (median(step_s), "s"),
        "dist.comm_bytes": (total_bytes, "bytes"),
        "dist.comm_s": (median(comm_s), "s"),
        "dist.compute_s": (median(compute_s), "s"),
        "dist.lb_fraction": (
            attained_fraction(
                tensor.shape, tensor.nnz, RANK, DIST_RANKS,
                np.dtype(tensor.values.dtype).itemsize, per_mttkrp,
            ),
            "1",
        ),
    }
    common = (
        median(call_ms), median(nnz_rates), median(per_op_ms), median(outside_ms)
    )
    return common, detail
