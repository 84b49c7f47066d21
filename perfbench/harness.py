"""One workload in one fresh process; ``run.py`` starts it.

    python perfbench/harness.py --workload udg --seed 1 --seconds 20 \
        --trace 0 [--setup-only]

Prints one JSON object as its last stdout line: the time set-up ended
(``ready_t``, on the system-wide monotonic clock, so the parent can
measure set-up from the moment it started this process), the op
samples and checks, and the provenance record.  ``--setup-only`` stops
after the warm-up.  ``--trace 1`` runs every cycle untraced and then
traced, asserts equal outputs, and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

from measure import GCMonitor, OpRecorder, Tracer, host_probe_ms, p50
from workloads import WORKLOADS


def _native_so_exists(native) -> bool:
    digest = native.build_digest()
    so = Path(native.__file__).parent / "_build" / f"kernels-{digest}.so"
    return digest is not None and so.exists()


def same(a, b) -> bool:
    """Structural equality over the op outputs (numpy-aware)."""
    import numpy as np
    from repro.service.snapshot import EpochSnapshot

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, EpochSnapshot):
        return all(np.array_equal(getattr(a, f), getattr(b, f))
                   for f in ("nodes", "indptr", "indices", "member_mask",
                             "coverage", "deficit")) and a.epoch == b.epoch
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    probes = [host_probe_ms()]

    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro import _native
    from repro.engine.dispatch import provider_status
    import_ms = (time.perf_counter() - t0) * 1e3

    so_at_start = _native_so_exists(_native)
    providers = provider_status()

    workload = WORKLOADS[args.workload]()
    traced = bool(args.trace)
    workload.setup(abs(args.seed), traced=traced)
    gcmon = GCMonitor()
    rec = OpRecorder(gcmon)
    workload.cycle(rec, 0)          # the untimed warm-up cycle
    if traced:
        workload.traced_cycle(Tracer(), 0)
    ready_t = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready_t": ready_t}))
        return 0

    estimate = workload.cycle_estimate_s * (2 if traced else 1)
    cycles = max(2, math.ceil(args.seconds / estimate))
    tracer = Tracer()
    mismatches = 0
    untraced_s = traced_s = 0.0
    rec.measuring = True
    loop_t = time.perf_counter()
    for c in range(1, cycles + 1):
        op_s = rec.op_s
        outs = workload.cycle(rec, c)
        if traced:
            untraced_s += rec.op_s - op_s
            spans_before = len(tracer.spans)
            touts = workload.traced_cycle(tracer, c)
            mismatches += sum(not same(a, b) for a, b in zip(outs, touts))
            mismatches += len(outs) != len(touts)
            traced_s += sum((t1 - t0) / 1e9 for name, t0, t1, _, parent
                            in tracer.spans[spans_before:]
                            if parent is None and name.startswith("op."))
    rec.measuring = False
    loop_s = time.perf_counter() - loop_t
    probes.append(host_probe_ms())

    if provider_status() != providers:
        raise SystemExit("provenance: the kernel provider map changed "
                         "during the run")
    compiled = not so_at_start and _native_so_exists(_native)
    if compiled:
        raise SystemExit("provenance: a native compile landed inside the "
                         "run; build the kernels before the first run")

    # The end-to-end op slots are the report's p50 rows named in the
    # workload's SLOTS, in order.
    report = workload.report(rec.samples)
    by_name = {row["name"]: row for row in report}
    for i, name in enumerate(workload.SLOTS, start=1):
        by_name[name]["slot"] = f"op{i}_ms"
    result = {
        "ready_t": ready_t,
        "cycles": cycles,
        "loop_s": loop_s,
        "attempted": rec.attempted,
        "ok": rec.ok,
        "errors": rec.errors,
        "samples": dict(rec.samples),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "providers": providers,
        "digest": _native.build_digest(),
        "host_probe_ms": probes,
        "report": report,
        "slots": {row["slot"]: row["value"] for row in report
                  if "slot" in row},
    }
    ops = max(1, rec.attempted)
    layers = {
        "python.import_repro_ms": import_ms,
        "python.gc_ms": gcmon.pause_s * 1e3 / ops,
        "python.gc_gen2": gcmon.gen2,
        "native.compile_s": 0.0,
        "host.probe_ms": p50(probes),
    }
    if traced:
        per_call = tracer.per_call_ms()
        layers.update(per_call)
        layers.update(tracer.counts)
        if "core.udg.part_one_leaders_ms" in per_call:
            # Derived: Part II is what solve_kmds_udg spends after
            # seeding and Part I (part_one_leaders does both).
            layers["core.udg.part_two_derived_ms"] = (
                per_call["core.udg.solve_kmds_udg_ms"]
                - per_call["core.udg.part_one_leaders_ms"])
        layers["trace.uncovered_frac"] = tracer.uncovered_frac()
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        result["trace_mismatches"] = mismatches
        result["trace_ops_ms"] = {k: p50(v)
                                  for k, v in tracer.op_ms().items()}
    result["layers"] = layers
    gcmon.close()
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
