"""Spans around calls into the public functions of the hypfield modules.

The tracer wraps module attributes from the outside (nothing inside the
package changes): each call records a span with its name, layer, start,
end and parent span, plus optional work counts taken from the call's
arguments and result.  Spans stay in memory until the run writes them
out.  The package runs single-threaded here, so one call stack suffices.
"""

import importlib
import os
import time


def _covariance_counts(args, kwargs, result):
    quad = args[2] if len(args) > 2 else kwargs["quad"]
    return {
        "cells": len(quad),
        "resolution": int(quad.resolution),
        "ridge": None if result is None else float(result.ridge),
    }


def _generate_counts(args, kwargs, result):
    return {"tiles": None if result is None else len(result)}


def _sector_counts(args, kwargs, result):
    return {"samples": int(args[3] if len(args) > 3 else kwargs["n"])}


# (layer, module, attributes).  Layers are named after the package
# modules.  A function imported into another module by name is wrapped
# under that alias too, because the importer looks it up there.
TARGETS = (
    ("tessellation", "hypfield.tessellation", ("generate", "conical_sequence")),
    ("tessellation", "hypfield.fieldmc", ("generate", "conical_sequence")),
    ("tessellation", "hypfield.greens", ("orbital_count",)),
    ("greens", "hypfield.greens", (
        "NeumannTruncation.__init__", "g_plus", "g_neumann_block", "delta_g_many",
        "neumann_symmetry_audit", "domination_audit",
    )),
    ("greens._kernels", "hypfield._kernels", ("gplus_array", "image_sum_block", "image_sum_self")),
    ("fieldmc", "hypfield.fieldmc", (
        "build_quadrature", "build_covariance", "sample_fields", "wick_exp", "wick_power_estimate",
        "shift_audit", "log_laplace_stable", "z_ratio", "triviality_run",
    )),
    ("boundary", "hypfield.boundary", ("k_constant_log", "k_table", "h_plus_forms", "sector_lower_bound_audit")),
    ("cli", "hypfield.cli", ("main",)),
    ("render", "hypfield.render", ("decay_svg",)),
)

# Work counts recorded with the span, by span name.
COUNTERS = {
    "generate": _generate_counts,
    "build_covariance": _covariance_counts,
    "sector_lower_bound_audit": _sector_counts,
}

LAYERS = ("tessellation", "greens", "greens._kernels", "fieldmc", "boundary", "cli", "render")


_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb():
    """Current resident set size (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class Tracer:
    """Install wrappers with `with tracer:`; spans accumulate in `spans`."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._saved = []

    def __enter__(self):
        for layer, module, attrs in TARGETS:
            for dotted in attrs:
                owner = importlib.import_module(module)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)  # a missing target is an error
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, dotted.removesuffix(".__init__")))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, layer, name):
        tracer = self
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = {
                "id": len(tracer.spans),
                "name": name,
                "layer": layer,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "phase": tracer.phase,
                "rss0_mb": _rss_mb(),
            }
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            result = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                span["rss1_mb"] = _rss_mb()
                if counter is not None:
                    span["counts"] = counter(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced


def duration(span):
    return span["end"] - span["start"]


def outermost(spans, names):
    """Spans named in `names` with no ancestor named in `names`."""
    by_id = {s["id"]: s for s in spans}

    def covered(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] in names:
                return True
            p = by_id[p]["parent"]
        return False

    return [s for s in spans if s["name"] in names and not covered(s)]


def total_s(spans, *names):
    """Wall time inside the named calls, nested repeats counted once."""
    return sum(duration(s) for s in outermost(spans, set(names)))


def self_times(spans):
    """Seconds per layer spent in its own spans, children excluded."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s["layer"]] += duration(s) - child_time.get(s["id"], 0.0)
    return out


def coverage(spans, wall):
    """Share of `wall` covered by top-level spans."""
    return sum(duration(s) for s in spans if s["parent"] is None) / wall
