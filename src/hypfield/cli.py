"""Command-line front end.

Subcommands: tessellate, green, neumann-audit, propagator, sample-audit,
triviality.  Every run writes a JSON manifest beside its outputs listing
inputs, seed, package versions, wall time, and a sha256 per output file.
Audit subcommands exit 1 when an inequality check fails so CI pipelines
can gate on them; usage errors exit 2.

CSV dialect: comma separated, '.' decimal point, one header row, reals at
17 significant digits.  JSON reports are UTF-8 with sorted keys and strict:
a NaN or infinite value is written as null.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, boundary as bd, fieldmc as fm, greens, render
from .errors import ConfigurationError, HypfieldError
from .geometry import Sector
from .tessellation import DEFAULT_TILE_CAP, TriangleParams, ball_radius, generate

# required keys of a triviality config; the other TrivialityConfig fields
# keep their dataclass defaults when absent
_CONFIG_KEYS = (
    "m2 alpha lambda p q r beta0 beta1 amplitude p_angle cone_c q_max n_mc "
    "resolution orbit_radius seed"
).split()


class RunConfig:
    """Flat key=value run configuration; echoes back byte-identically."""

    def __init__(self, text):
        self.text = text
        self.values = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise HypfieldError(f"config line {lineno}: expected key=value, got {line!r}")
            key, _, raw = stripped.partition("=")
            self.values[key.strip()] = raw.strip()

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls(fh.read())

    def dumps(self):
        return self.text

    def to_triviality(self):
        """The TrivialityConfig whose fields the keys name (`lambda` for `lam`).

        Each value is cast to its field's type; an unknown or missing
        required key raises ConfigurationError.
        """
        fields = {
            "lambda" if f.name == "lam" else f.name: f
            for f in dataclasses.fields(fm.TrivialityConfig)
        }
        unknown = [key for key in self.values if key not in fields]
        if unknown:
            raise ConfigurationError(f"unknown config key: {', '.join(unknown)}")
        missing = [key for key in _CONFIG_KEYS if key not in self.values]
        if missing:
            raise ConfigurationError(f"missing config key: {', '.join(missing)}")
        kwargs = {}
        for key, raw in self.values.items():
            f = fields[key]
            try:
                kwargs[f.name] = f.type(raw)
            except ValueError:
                raise ConfigurationError(
                    f"config key {key}: {raw!r} is not a valid {f.type.__name__}"
                ) from None
        return fm.TrivialityConfig(**kwargs)


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None, which JSON writes
    as null: NaN and Infinity are not JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path, command, args_dict, seed, outputs, t_start):
    # scipy's version from the loaded module, null when the run loaded none:
    # importing scipy, or reading its installed metadata (20-29 ms and
    # 2.5 MB a process), would cost a run that uses none of it
    scipy = sys.modules.get("scipy")
    manifest = {
        "command": command,
        "inputs": {
            k: v
            for k, v in args_dict.items()
            if v is not None and isinstance(v, (str, int, float, bool))
        },
        "seed": seed,
        "versions": {
            "hypfield": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": None if scipy is None else scipy.__version__,
        },
        # an unset BLAS thread count lets OpenBLAS start its own threads
        # inside each worker's matrix products (see the --threads help)
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpus": len(os.sched_getaffinity(0)),
        "wall_time_s": time.time() - t_start,
        "outputs": [
            {"path": p, "sha256": _sha256(p), "bytes": os.path.getsize(p)}
            for p in outputs
            if os.path.exists(p)
        ],
    }
    _write_json(path, manifest)


def _cmd_tessellate(args):
    t0 = time.time()
    tess = generate(TriangleParams(args.p, args.q, args.r), args.radius, cap=args.cap)
    outputs = []
    if args.csv:
        tess.export_csv(args.csv)
        outputs.append(args.csv)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render.tessellation_svg(tess))
        outputs.append(args.svg)
    print(f"tiles: {len(tess)}")
    _write_manifest(
        args.manifest or (outputs[0] if outputs else "tessellate") + ".manifest.json",
        "tessellate", vars(args), None, outputs, t0,
    )
    return 0


def _cmd_green(args):
    t0 = time.time()
    mp = greens.ModelParams(args.m2)
    rhos = np.linspace(args.rho_min, args.rho_max, args.steps)
    kernel = greens.g_plus(mp, rhos)
    rows = []
    max_dev = 0.0
    for rho, gp in zip(rhos, kernel):
        g2, g3 = greens.g_plus_forms(mp, float(rho))
        if g2 == 0.0 or gp == 0.0:
            raise ValueError(
                f"G_plus underflows to 0 at rho = {rho:.6g} for m2 = {args.m2:g}; lower --rho-max"
            )
        dev = max(abs(g3 - g2), abs(gp - g2)) / abs(g2)
        max_dev = max(max_dev, dev)
        rows.append((float(rho), g2, g3, float(gp), dev))
    _write_csv(args.csv, ["rho", "g_plus_G2", "g_plus_G3", "g_plus", "rel_dev"], rows)
    print(f"max rel_dev: {max_dev:.3e}")
    _write_manifest(args.manifest or args.csv + ".manifest.json", "green", vars(args), None, [args.csv], t0)
    return 0 if max_dev < 1e-9 else 1


def _cmd_neumann_audit(args):
    t0 = time.time()
    mp = greens.ModelParams(args.m2)
    tp = TriangleParams(args.p, args.q, args.r)
    tess = generate(tp, args.radius or ball_radius(tp, args.orbit_radius))
    nt = greens.NeumannTruncation(tess, args.orbit_radius, tail_tol=args.tail_tol)
    reports = [
        greens.neumann_symmetry_audit(mp, nt, side_index=0),
        greens.domination_audit(mp, nt, n_pairs=args.pairs, seed=args.seed, threads=args.threads),
    ]
    _write_json(args.json, reports)
    ok = all(r["passed"] for r in reports)
    for r in reports:
        print(f"{r['audit_name']}: {'PASS' if r['passed'] else 'FAIL'} (max violation {r['max_violation']:.3e})")
    _write_manifest(args.manifest or args.json + ".manifest.json", "neumann-audit", vars(args), args.seed, [args.json], t0)
    return 0 if ok else 1


def _cmd_propagator(args):
    t0 = time.time()
    mp = greens.ModelParams(args.m2)
    h = bd.BoundarySource.bump(args.beta0, args.beta1, amplitude=args.amplitude, smoothness=args.smoothness)
    zs = np.geomspace(args.z_min, args.z_max, args.grid)
    zetas = np.linspace(args.zeta_min, args.zeta_max, args.grid)
    rows = []
    max_dev = 0.0
    for z in zs:
        for zeta in zetas:
            direct, subst = bd.h_plus_forms(mp, h, float(z), float(zeta))
            dev = abs(direct - subst) / max(abs(direct), 1e-300)
            max_dev = max(max_dev, dev)
            rows.append((float(z), float(zeta), direct, subst, dev))
    _write_csv(args.csv, ["z", "zeta", "h_plus_direct", "h_plus_substituted", "rel_dev"], rows)
    outputs = [args.csv]
    sector_report = None
    if args.sector_r0 is not None:
        # middle third of the bump support: the bump is flat-zero at its
        # endpoints, so the lower-bound product only stabilizes strictly inside
        span = args.beta1 - args.beta0
        sector = Sector(args.sector_r0, args.beta0 + span / 3.0, args.beta1 - span / 3.0)
        sector_report = bd.sector_lower_bound_audit(mp, h, sector, args.sector_samples, seed=args.seed)
        _write_json(args.json, sector_report)
        outputs.append(args.json)
        print(f"sector lower bound: min product {sector_report['min_product']:.6g}")
    print(f"max rel_dev: {max_dev:.3e}")
    _write_manifest(args.manifest or args.csv + ".manifest.json", "propagator", vars(args), args.seed, outputs, t0)
    ok = max_dev < 1e-8 and (sector_report is None or sector_report["passed"])
    return 0 if ok else 1


def _cmd_sample_audit(args):
    t0 = time.time()
    mp = greens.ModelParams(args.m2)
    # tile 0 alone: the Neumann covariance is the Galerkin solve on it
    tess = generate(TriangleParams(args.p, args.q, args.r), 0.0)
    quad = fm.build_quadrature(tess, [0], args.resolution)
    cov = fm.build_covariance(mp, None, quad, "neumann")
    samples = fm.sample_fields(cov, args.n, args.seed, threads=args.threads)
    x = fm.wick_exp(samples, cov, quad, args.alpha, threads=args.threads)
    n = len(x)

    area = quad.total_weight
    mean_se = x.std(ddof=1) / math.sqrt(n)
    mean_ok = abs(x.mean() - area) <= 5.0 * mean_se

    oracle2 = float(quad.weights @ np.exp(args.alpha**2 * cov.matrix) @ quad.weights)
    m2 = float((x**2).mean())
    m2_se = float((x**2).std(ddof=1) / math.sqrt(n))
    second_ok = abs(m2 - oracle2) <= 5.0 * m2_se

    wick_checks = []
    for k in range(1, 5):
        est = fm.wick_power_estimate(samples, cov, quad, k, threads=args.threads)
        oracle = float(
            math.factorial(k) * quad.weights @ (cov.matrix**k) @ quad.weights
        )
        ok = abs(est.second_moment - oracle) <= 5.0 * est.second_moment_stderr
        wick_checks.append(
            {"k": k, "mc": est.second_moment, "oracle": oracle,
             "stderr": est.second_moment_stderr, "passed": bool(ok)}
        )

    rng = np.random.default_rng(args.seed)
    f = rng.normal(scale=0.5, size=len(quad))
    lhs, rhs = fm.shift_audit(samples, cov, quad, args.alpha, f, threads=args.threads)
    shift_gap = float(np.abs(lhs - rhs).max() / np.abs(lhs).max())
    positive = bool((x >= 0.0).all())

    report = {
        "audit_name": "sample_audit",
        "params": {"m2": args.m2, "alpha": args.alpha, "n": args.n,
                   "resolution": args.resolution, "seed": args.seed},
        "n_samples": int(n),
        "mean": float(x.mean()),
        "mean_expected": float(area),
        "mean_passed": bool(mean_ok),
        "second_moment": m2,
        "second_moment_oracle": oracle2,
        "second_moment_passed": bool(second_ok),
        "wick_powers": wick_checks,
        "shift_identity_gap": shift_gap,
        "shift_identity_passed": bool(shift_gap < 1e-12),
        "positivity_passed": positive,
        "max_violation": max(shift_gap, 0.0),
        "passed": bool(
            mean_ok and second_ok and positive and shift_gap < 1e-12
            and all(w["passed"] for w in wick_checks)
        ),
    }
    _write_json(args.json, report)
    print(f"sample-audit: {'PASS' if report['passed'] else 'FAIL'}")
    _write_manifest(args.manifest or args.json + ".manifest.json", "sample-audit", vars(args), args.seed, [args.json], t0)
    return 0 if report["passed"] else 1


def _cmd_triviality(args):
    t0 = time.time()
    cfg_file = RunConfig.load(args.config)
    cfg = cfg_file.to_triviality()
    if args.threads:
        cfg.threads = args.threads
    run = fm.triviality_run(cfg)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "decay.csv")
    json_path = os.path.join(args.out, "report.json")
    svg_path = os.path.join(args.out, "decay.svg")
    cfg_echo = os.path.join(args.out, "config.echo")
    rows = [
        (r.q, len(r.tile_ids), math.exp(min(r.log_k[0], 700.0)),
         math.exp(min(r.log_k[-1], 700.0)), r.u, r.u_stderr)
        for r in run.records
    ]
    _write_csv(csv_path, ["q", "n_tiles", "min_k", "max_k", "U_q", "U_q_stderr"], rows)
    _write_json(json_path, run.to_json_dict())
    fit = fm.fit_records(run.records)
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render.decay_svg([r.q for r in fit], [r.u for r in fit], run.eps_hat, run.ci95_low))
    with open(cfg_echo, "w", encoding="utf-8") as fh:
        fh.write(cfg_file.dumps())
    print(run.summary())
    _write_manifest(
        os.path.join(args.out, "manifest.json"), "triviality", vars(args), cfg.seed,
        [csv_path, json_path, svg_path, cfg_echo], t0,
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="hypfield", description=__doc__)
    parser.add_argument("--threads", type=int, default=0,
                        help="worker threads of the image-sum blocks and of the Monte Carlo sampling "
                             "and reductions (neumann-audit, sample-audit: 0 or 1 serial; "
                             "triviality: 0 keeps the config's threads, default 1); results are "
                             "byte-identical for any count.  Set OPENBLAS_NUM_THREADS=1 (or "
                             "OMP_NUM_THREADS=1) with more than one: otherwise BLAS starts its own "
                             "threads inside each worker, and on 2 cores 2 workers sampled 1e6 "
                             "fields in 0.25 s instead of 0.13 s")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tessellate", help="generate a (p,q,r) tessellation, export CSV/SVG")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_TILE_CAP)
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_tessellate)

    p = sub.add_parser(
        "green",
        help="tabulate the H^2 kernel G_plus in both closed forms and the production "
        "kernel; rel_dev is the larger relative deviation of G3 and g_plus from G2",
    )
    p.add_argument("--m2", type=float, required=True)
    p.add_argument("--rho-min", type=float, default=0.05)
    p.add_argument("--rho-max", type=float, default=20.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--csv", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("neumann-audit", help="Neumann symmetry and domination audits")
    p.add_argument("--m2", type=float, default=2.0)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--orbit-radius", type=float, default=6.0)
    p.add_argument("--radius", type=float, default=None, help="tessellation radius (default: the ball the orbit radius needs)")
    p.add_argument("--tail-tol", type=float, default=1e-2)
    p.add_argument("--pairs", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_neumann_audit)

    p = sub.add_parser("propagator", help="bulk-to-boundary propagator tables and audits")
    p.add_argument("--m2", type=float, default=2.0)
    p.add_argument("--beta0", type=float, default=math.pi / 6)
    p.add_argument("--beta1", type=float, default=math.pi / 3)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--smoothness", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--z-min", type=float, default=0.02)
    p.add_argument("--z-max", type=float, default=1.0)
    p.add_argument("--zeta-min", type=float, default=0.0)
    p.add_argument("--zeta-max", type=float, default=1.0)
    p.add_argument("--sector-r0", type=float, default=None)
    p.add_argument("--sector-samples", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", required=True)
    p.add_argument("--json", default="sector.json")
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_propagator)

    p = sub.add_parser("sample-audit", help="Monte Carlo invariants on the fundamental tile")
    p.add_argument("--m2", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--resolution", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_sample_audit)

    p = sub.add_parser("triviality", help="the decay experiment from a key=value config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_triviality)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypfieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # an argument out of range: a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
