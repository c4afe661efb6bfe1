"""Repository benchmark: host time and memory of the simulator's workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve_overload --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both runs
    python3 perfbench/run.py --self-test             # reused-fleet rejection

One fresh interpreter (``worker.py``) per measurement, started one after
another, never in parallel.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` (tracing off); ``--trace 1`` reports its per-layer metrics
from a separate traced process.  The last line of standard output is one
JSON object; the exit code is 1 when a correctness check fails and 2 when
the source tree is missing.  ``README.md`` beside this file documents every
metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = (
    "paper_figures", "flash_event", "serve_overload",
    "cluster_faulted", "cluster_attributed",
)
#: Every run ends inside this many host seconds, children included.
DEADLINE_S = 170.0
#: Set-up-only interpreters per run; ``setup_s`` is the median of these and
#: the measuring process.
SETUP_PROBES = 4


class BenchError(Exception):
    """A worker failed to produce a result."""


def spawn(mode: str, workload: str, seed: int, deadline: float,
          *extra: str) -> Dict[str, object]:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ)
    # No bytecode cache is written, so every set-up compiles the package from
    # source and setup_s does not depend on which run came first; a fixed
    # hash seed gives every process the same dict and set layouts; one BLAS
    # thread keeps the process single-threaded, so its CPU time is the
    # simulator's own.
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seed", str(seed), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{mode} {workload}: no time left before the deadline")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} {workload}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} {workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _metrics(specs: List[Dict[str, str]], values: Dict[str, float]) -> Dict[str, object]:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def end_to_end(workload: str, seed: int, seconds: float, spec, deadline: float):
    """Set-up probes, then the measuring process; tracing off."""
    probes = [spawn("probe", workload, seed, deadline) for _ in range(SETUP_PROBES)]
    main = spawn("measure", workload, seed, deadline, "--seconds", str(seconds))
    walls, cpus = main["walls"], main["cpus"]
    setups = [p["setup_s"] for p in probes] + [main["setup_s"]]
    failures, failed, attempted = main["failures"], main["failed"], main["attempted"]
    values = {
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    print(f"cpu_s           {values['cpu_s']:.4f} s   CPU, median of {len(cpus)} timed "
          f"repetitions after 1 warm-up (min {min(cpus):.4f}, max {max(cpus):.4f})")
    print(f"wall            {statistics.median(walls):.4f} s   wall-clock median of the "
          f"same repetitions (not a metric: it also counts time the host gave away)")
    print(f"setup_s         {values['setup_s']:.4f} s   CPU, median of {len(setups)} fresh "
          f"interpreters ({', '.join(f'{s:.3f}' for s in setups)})")
    print(f"peak_rss_mb     {values['peak_rss_mb']:.2f} MB  fresh interpreter after "
          f"set-up + the warm-up repetition")
    print(f"error_rate      {failed}/{attempted} repetitions failed")
    print(f"sim_digest      {main['sim_digest']}")
    if main["attribution_digest"]:
        print(f"attribution     {main['attribution_digest']}")
    if main["paper_rel_error"] is not None:
        print(f"paper_rel_error {main['paper_rel_error']:.6f} mean |ours/paper - 1|")
    print(f"host_ref_s      {main['host_ref_s']:.4f} s   reference loop (not a metric)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(spec["end_to_end"], values),
    }, failures


def per_layer(workload: str, seed: int, seconds: float, spec, deadline: float):
    """One traced process: per-layer counters of set-up plus one repetition."""
    run = spawn("traced", workload, seed, deadline, "--seconds", str(seconds))
    layer = dict(run["per_layer"])
    layer.update({
        "cli.import_s": run["phases"].get("cli_import_s", 0.0),
        "setup.import_s": run["phases"]["import_s"],
        "trace.overhead_ratio": run["traced_wall_s"] / run["untraced_wall_s"],
        "sim.requests": run["sim_requests"],
        "sim.tiles": layer["core.pipeline.tile_timing.calls"]
        + layer["core.event_backend.time_tile.calls"],
        "sim.flash_commands": layer["ssd.controller.submit.commands"],
        "model.paper_rel_error": run["paper_rel_error"] or 0.0,
    })
    print_layers(layer)
    print(f"trace.overhead_ratio {layer['trace.overhead_ratio']:.3f} "
          f"(traced {run['traced_wall_s']:.4f} s over {run['traced_reps']} rep(s) / "
          f"untraced {run['untraced_wall_s']:.4f} s)")
    print(f"sim_digest      {run['sim_digest']} (traced and untraced repetitions)")
    print(f"host_ref_s      {run['host_ref_s']:.4f} s   reference loop (not a metric)")
    return {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": _metrics(spec["per_layer"], layer),
    }, run["failures"]


def print_layers(layer: Dict[str, float]) -> None:
    """Layers by self time; a leaf's self time is its host time."""
    names = sorted({k.rsplit(".", 1)[0] for k in layer if k.endswith(".calls")})
    total = layer["bench.execute.host_s"]
    rows = []
    for name in names:
        calls = layer[f"{name}.calls"]
        if not calls or name == "bench.execute":
            continue
        host = layer[f"{name}.host_s"]
        rows.append((layer.get(f"{name}.self_s", host), host, calls, name))
    rows.sort(reverse=True)
    print(f"{'layer':34} {'calls':>9} {'host_s':>9} {'self_s':>9} {'self/exec':>9}")
    print(f"{'bench.execute (one repetition)':34} {1:>9} {total:>9.4f} "
          f"{layer['bench.execute.self_s']:>9.4f} {'':>9}")
    for self_s, host, calls, name in rows:
        print(f"{name:34} {calls:>9.0f} {host:>9.4f} {self_s:>9.4f} "
              f"{self_s / total:>9.1%}")


def run_one(workload: str, seed: int, seconds: float, trace: int, spec):
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={trace}")
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if trace else end_to_end
    return measure(workload, seed, seconds, spec, deadline)


def self_test(seed: int) -> int:
    result = spawn("selftest", "cluster_faulted", seed, time.monotonic() + DEADLINE_S)
    ok = not result["first"] and result["reused_rejected"] and result["fresh_accepted"]
    print(f"reused fleet, second run: {result['reused'] or 'accepted'}")
    print(f"fresh fleet: {result['fresh'] or 'accepted'}")
    print(json.dumps({"self_test": "pass" if ok else "fail", **result}, sort_keys=True))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a reused cluster fleet is rejected")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.self_test:
            return self_test(args.seed)
        if args.workload != "all":
            result, failures = run_one(args.workload, args.seed, args.seconds,
                                       args.trace, spec)
            for msg in failures:
                print(f"FAILED: {msg}")
            print(json.dumps(result, sort_keys=True))
            return 0 if result["correct"] else 1
        results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, failures = run_one(workload, args.seed, args.seconds, trace, spec)
                for msg in failures:
                    print(f"FAILED: {msg}")
                results[f"{workload}/trace{trace}"] = result
                print()
        print(json.dumps(results, sort_keys=True))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
