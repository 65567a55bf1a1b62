"""Benchmark of the hypfield chain, end to end and per layer.

    python3 perfbench/run.py --workload decay --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 60 --trace 0

Run from the repository root.  Workloads and metrics are declared in
BENCHMARK.json.  Each workload runs in its own processes
(perfbench/worker.py), single-threaded BLAS, on the package in src/:

  * with --trace 0, two processes that only set up, then the process
    that sets up and repeats the timed part for --seconds.  Prints the
    end-to-end metrics: wall_s (median timed part), setup_s (median of
    the three interpreter-start-to-inputs-built times) and peak_rss_mb;
  * with --trace 1, one process that does the same, then one traced
    iteration.  Prints the per-layer metrics, the self time per layer,
    the share of the timed part the spans cover and the tracing
    overhead.

Every check is printed.  Checks that fail today because of a ROADMAP
item are counted in error_rate as known failures; they do not make the
run incorrect.  The last line of stdout is one JSON object with the keys
correct, attempted, failed (the checks that must pass) and metrics.
The full record, spans included, goes to .perfbench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 2
DEADLINE_S = 170.0  # per workload; the command must end within 180 s
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _spawn(args, name, setup_only, deadline):
    """Run one worker; return (seconds from spawn to READY, its result)."""
    argv = [sys.executable, WORKER, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, **dict.fromkeys(SINGLE_THREAD, "1"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{name}: out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if ready is None and line == "READY\n":
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None or (result is None and not setup_only):
        how = f"exited with code {rc}" if rc >= 0 else f"was stopped by signal {-rc} (time limit {timeout:.0f} s)"
        raise BenchError(f"{name}: worker {how}")
    return ready, result


def run_workload(args, name):
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append(_spawn(args, name, True, deadline)[0])
    ready, result = _spawn(args, name, False, deadline)
    result["setup_s"] = setup + [ready]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def summarize(spec, name, result, trace):
    """Print the workload's report; return (metrics, gate checks, failed gate checks)."""
    env = result["env"]
    print(f"== {name}  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    checks = result["checks"]
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        known = f"  [known defect, {c['known_defect']}]" if c["known_defect"] else ""
        print(f"   check {status}: {c['name']}{known}")
    gate = [c for c in checks if not c["known_defect"]]
    gate_failed = sum(not c["passed"] for c in gate)
    known_failed = sum(not c["passed"] for c in checks if c["known_defect"])
    print(f"   {'error_rate':<32} {(gate_failed + known_failed) / len(checks)!r} ratio   "
          f"({gate_failed + known_failed} of {len(checks)} checks failed; "
          f"{known_failed} of them known defects)")
    if result.get("eps_hat") is not None:
        print(f"   eps_hat = {result['eps_hat']!r} (recorded, not gated)")

    if trace:
        values = result["layers"]
        declared = spec["per_layer"]
    else:
        samples = {"wall_s": result["wall_s"], "setup_s": result["setup_s"],
                   "peak_rss_mb": [result["peak_rss_mb"]]}
        values = {k: statistics.median(v) for k, v in samples.items()}
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"{name}: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        line = f"   {m['name']:<32} {values[m['name']]!r} {m['unit']}"
        if not trace:
            q1, med, q3 = _quartiles(samples[m["name"]])
            line += f"   (median; q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[m['name']])})"
        elif m["name"].endswith(".self_s"):
            line += f"   ({values[m['name']] / result['traced_wall_s']:.1%} of traced wall_s)"
        print(line)
    if trace:
        print(f"   traced wall_s {result['traced_wall_s']!r} s; untraced wall_s {result['wall_s']!r}")
    return metrics, len(gate), gate_failed


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    selected = names if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in selected:
            result = run_workload(args, name)
            m, a, f = summarize(spec, name, result, args.trace)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
