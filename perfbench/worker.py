"""One workload in one process; started by run.py, not by hand.

Protocol on stdout: the line `READY` once the workload's inputs are
built (run.py times interpreter start to this line as set-up), then one
line `RESULT <json>`.  Everything the package prints goes to stderr.

With --setup-only the process stops after READY.  With --trace 1 the
process runs the untraced loop, then one traced iteration of the same
timed part, and derives the per-layer metrics from the spans.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

from spans import Tracer, coverage, duration, self_times, total_s

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# The parent and the change must run the same Green's-function kernel.
# A package without backend selection has only the numpy kernel.
EXPECTED_BACKEND = "python"

GPLUS_POINTS = 1_000_000


class SetupError(Exception):
    pass


def _import_package():
    sys.path.insert(0, SRC)
    import hypfield

    here = os.path.dirname(os.path.abspath(hypfield.__file__))
    if os.path.dirname(here) != SRC:
        raise SetupError(f"imported hypfield from {here}, not from this checkout")
    backend = getattr(hypfield, "kernel_backend", "python")
    if backend != EXPECTED_BACKEND:
        raise SetupError(f"kernel backend {backend!r}; the benchmark records {EXPECTED_BACKEND!r}")
    return hypfield


def _git_revision():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(hypfield):
    import numpy
    import scipy

    return {
        "git_revision": _git_revision(),
        "kernel_backend": getattr(hypfield, "kernel_backend", "python"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(workload, state):
    t0 = time.perf_counter()
    out = workload.run(state)
    return time.perf_counter() - t0, out


def run_loop(workload, state, seconds):
    """Iterations of the timed part, with their checks, within `seconds`.

    After the first, another iteration starts only if, at the median pace
    so far, it ends within `seconds`; so a run measures for about
    `seconds` however long one iteration takes.
    """
    walls, checks = [], []
    t_start = time.perf_counter()
    while True:
        wall, out = _timed(workload, state)
        walls.append(wall)
        checks += workload.check(state, out)
        if time.perf_counter() - t_start + statistics.median(walls) > seconds:
            return walls, checks, out


def _gplus_ns():
    """g_plus time per evaluation on a fixed array of distances."""
    import numpy as np
    from hypfield import greens

    mp = greens.ModelParams(2.0)
    rho = np.linspace(0.01, 12.0, GPLUS_POINTS)
    t0 = time.perf_counter()
    greens.g_plus(mp, rho)
    return (time.perf_counter() - t0) / GPLUS_POINTS * 1e9


def layer_metrics(spans, traced_wall, untraced_median, out, extra):
    """The per-layer metrics, from the spans of set-up and the traced iteration."""
    timed = [s for s in spans if s["phase"] == "timed"]
    gen = [s for s in spans if s["name"] == "generate"]
    tiles = [s["counts"]["tiles"] or 0 for s in gen]
    generate_s = sum(duration(s) for s in gen)
    cov = [s for s in spans if s["name"] == "build_covariance"]
    sector = [s for s in spans if s["name"] == "sector_lower_bound_audit"]
    domination_s = total_s(spans, "domination_audit")
    images = extra.get("images_used", 0)

    m = {
        "tessellation.generate_s": generate_s,
        "tessellation.us_per_tile": generate_s / sum(tiles) * 1e6 if sum(tiles) else 0.0,
        "tessellation.tiles": max(tiles, default=0),
        "tessellation.rss_mb": sum(s["rss1_mb"] - s["rss0_mb"] for s in gen),
        "tessellation.conical_s": total_s(spans, "conical_sequence"),
        "greens.truncation_s": total_s(spans, "NeumannTruncation"),
        "greens.gplus_ns": extra["gplus_ns"],
        "greens.symmetry_s": total_s(spans, "neumann_symmetry_audit"),
        "greens.domination_s": domination_s,
        "greens.images_used": images,
        "greens.ns_per_image": domination_s / images * 1e9 if images else 0.0,
        "fieldmc.covariance_s": total_s(spans, "build_covariance"),
    }
    for res in range(2, 7):
        m[f"fieldmc.covariance_s.res{res}"] = sum(
            duration(s) for s in cov if s["counts"]["resolution"] == res
        )
    ridges = [s["counts"]["ridge"] for s in cov if s["counts"]["ridge"] is not None]
    m.update({
        "fieldmc.cells": sum(s["counts"]["cells"] for s in cov),
        "fieldmc.ridge": max(ridges, default=0.0),
        "fieldmc.sample_s": total_s(spans, "sample_fields"),
        "fieldmc.wick_s": total_s(spans, "wick_exp", "wick_power_estimate", "shift_audit"),
        "fieldmc.laplace_s": total_s(spans, "log_laplace_stable"),
        "fieldmc.z_ratio_s": total_s(spans, "z_ratio"),
        "fieldmc.saturated_terms": out.get("saturated_terms", 0),
        "fieldmc.z_ratio_ess": out.get("z_ratio_ess", 0.0),
        "boundary.k_constant_s": total_s(spans, "k_constant_log"),
        "boundary.h_plus_us": sum(duration(s) / s["counts"]["samples"] for s in sector) * 1e6,
        "boundary.forms_s": total_s(spans, "h_plus_forms"),
    })
    for layer, secs in self_times(timed).items():
        m[f"{layer}.self_s"] = secs
    m["trace.coverage"] = coverage(timed, traced_wall)
    m["trace.overhead_s"] = traced_wall - untraced_median
    m["trace.spans"] = len(spans)
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    try:
        hypfield = _import_package()
    except (ImportError, SetupError) as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return 3
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        state = workload.setup(args.seed, OUT_DIR)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    walls, checks, out = run_loop(workload, state, args.seconds)
    checks = state["setup_checks"] + checks
    result = {
        "env": environment(hypfield),
        "wall_s": walls,
        "peak_rss_mb": _peak_rss_mb(),
        "eps_hat": out.get("eps_hat"),
    }
    if tracer is not None:
        tracer.phase = "timed"
        with tracer:
            traced_wall, out = _timed(workload, state)
        checks += workload.check(state, out)
        extra = {"gplus_ns": _gplus_ns()}
        if args.workload == "library":
            extra["images_used"] = workloads.domination_images_used(state)
        if args.workload == "decay":
            tiles = max(s["counts"]["tiles"] or 0 for s in tracer.spans if s["name"] == "generate")
            checks.append(workloads.Check(f"tiles == {workloads.DECAY_TILES}", tiles == workloads.DECAY_TILES))
        result["layers"] = layer_metrics(tracer.spans, traced_wall, statistics.median(walls), out, extra)
        result["traced_wall_s"] = traced_wall
        result["spans"] = tracer.spans
    result["checks"] = [vars(c) for c in checks]
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
