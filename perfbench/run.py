"""End-to-end benchmark of the udg, message and serve pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload udg --seed 1 --seconds 28 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` runs the workload's ops untraced and traced and prints
every per-layer metric instead.  Either way the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``, preceded
by a human-readable report.  GLOSSARY.md defines every name.

run.py never imports the package.  It builds the native kernels
and byte-compiles the sources in a subprocess first, so no compile
lands in a timed region; then it starts the workload in fresh
processes (``harness.py``) with one native thread and single-threaded
BLAS.  ``setup_s`` is the median over three fresh processes of the
time from process start to the first timed op.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

_BUILD = """
import compileall, json, sys, time
for d in ("src/repro", "benchmarks", "perfbench"):
    compileall.compile_dir(d, quiet=1)
t0 = time.perf_counter()
from repro import _native
ok = _native.available()
print(json.dumps({"native": ok, "digest": _native.build_digest(),
                  "seconds": time.perf_counter() - t0}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("REPRO_KERNEL_BACKEND", "REPRO_NATIVE"):
        env.pop(var, None)  # the defaults are what a user runs
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "PYTHONHASHSEED": "0",
        "REPRO_NATIVE_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(argv, timeout: float):
    """Run a Python child to completion; returns (spawn_t, last JSON)."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"child {argv[:2]} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"child {argv[:2]} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"child {argv[:2]} printed no result")
    return t_spawn, json.loads(lines[-1])


def fmt(v) -> str:
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit("src/repro not found: run from the repository "
                         "root")

    _, build = run_child(["-c", _BUILD], timeout=850)
    harness = [str(HERE / "harness.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            t_spawn, res = run_child([*harness, "--setup-only"], timeout=60)
            setups.append(res["ready_t"] - t_spawn)
    t_spawn, res = run_child(harness, timeout=CHILD_TIMEOUT_S)
    setups.append(res["ready_t"] - t_spawn)

    attempted, ok = res["attempted"], res["ok"]
    layers = res["layers"]
    correct = ok == attempted and not res["errors"]

    print(f"workload={args.workload} seed={args.seed} "
          f"cycles={res['cycles']} ({res['loop_s']:.1f} s) ops={attempted} "
          f"ok={ok} "
          f"trace={args.trace}")
    prov = res["providers"]
    print(f"provenance: native={prov['native']['available']} "
          f"digest={res['digest']} threads={prov['native']['threads']} "
          f"backend={prov['backend']} pre-run build "
          f"{build['seconds']:.3f} s (native.compile_s=0 in this run)")
    print("host.probe_ms start/end: "
          + " / ".join(f"{v:.1f}" for v in res["host_probe_ms"]))
    for err in res["errors"]:
        print(f"FAILED {err}")
    for row in res["report"]:
        extra = ""
        if "tail" in row:
            extra += f"  {row['tail'][0]}={row['tail'][1]:.4g}"
        if "q1_p50" in row:
            extra += (f"  first/last-quarter p50="
                      f"{row['q1_p50']:.4g}/{row['q4_p50']:.4g}")
        if "slot" in row:
            extra += f"  (= {row['slot']})"
        print(f"  {row['name']:<22} {row['value']:>12.4g} {row['unit']:<4}"
              f" n={row['n']}{extra}")

    if args.trace:
        names = spec["per_layer"]
        correct = correct and res["trace_mismatches"] == 0
        print(f"traced outputs equal untraced: "
              f"{res['trace_mismatches'] == 0}; tracing overhead "
              f"{layers['trace.overhead_frac']:+.2%}; median uncovered "
              f"share of an op {layers['trace.uncovered_frac']:.2%}")
        for op, ms in sorted(res["trace_ops_ms"].items()):
            print(f"  traced op {op:<16} p50 {ms:.4g} ms")
        missing = [m["name"] for m in names if m["name"] not in layers]
        if missing:
            print(f"not exercised by {args.workload} (reported as 0): "
                  + ", ".join(missing))
        metrics = {m["name"]: {"value": layers.get(m["name"], 0),
                               "unit": m["unit"]} for m in names}
    else:
        setup_s = statistics.median(setups)
        values = {"setup_s": setup_s, "peak_rss_mb": res["rss_mb"],
                  "ok_frac": ok / max(1, attempted), **res["slots"]}
        print("  setup_s samples: "
              + ", ".join(f"{v:.3f}" for v in setups))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print(f"{name} = {fmt(m['value'])} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - ok, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
