"""Product benchmark: CP-ALS, distributed CP-ALS and a serving mix.

Usage, from the root of a source checkout (no install step)::

    python3 perfbench/run.py --workload als-nell2-f64 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with the
``repro.obs`` tracer on and prints the per-layer metrics instead.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

The program under test is imported from ``src/`` next to this
directory; without it the command exits with status 2 and prints no
result.  A result whose metrics are not exactly those that
``BENCHMARK.json`` lists for the mode, in their units, is not printed
either: the command exits with status 3.  A line before the result
carries the figures of layers only the chosen workload runs.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("als-nell2-f64", "dist-nell2-f32", "serve-mix")


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]

    if args.workload == "serve-mix":
        from perfbench import serve_mix as workload_module
    else:
        from perfbench import als as workload_module
    out = workload_module.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if out.get("detail"):
        # Figures of the layers only this workload runs: printed for the
        # reader, ahead of the result line the manifest describes.
        print(json.dumps({
            "workload": args.workload,
            "detail": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in out["detail"].items()
            },
        }))
    result = {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in out["metrics"].items()
        },
    }
    missing = _manifest_mismatch(result["metrics"], bool(args.trace))
    if missing:
        print(f"perfbench: result does not match BENCHMARK.json: {missing}",
              file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


def _manifest_mismatch(metrics: dict, trace: bool) -> "list[str]":
    """Every workload must print exactly the manifest's metrics of its
    mode, each in its unit and as a finite number."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    wanted = {
        m["name"]: m["unit"]
        for m in manifest["per_layer" if trace else "end_to_end"]
    }
    problems = [f"{name} missing" for name in wanted if name not in metrics]
    problems += [f"{name} not in the manifest" for name in metrics if name not in wanted]
    problems += [
        f"{name} in {m['unit']}, not {wanted[name]}"
        for name, m in metrics.items()
        if name in wanted and m["unit"] != wanted[name]
    ]
    problems += [
        f"{name} = {m['value']}" for name, m in metrics.items()
        if not math.isfinite(m["value"])
    ]
    return problems


if __name__ == "__main__":
    sys.exit(main())
