"""Run every workload over several seeds; report spreads; record the baseline.

    python3 perfbench/baseline.py --seeds 10            # report only
    python3 perfbench/baseline.py --seeds 10 --write    # also write baseline.json
    python3 perfbench/baseline.py --seeds 5 --workload decay

Run from the repository root.  For each workload, runs
`perfbench/run.py --trace 0` once per seed (seeds 0..N-1), then, with
--write, one `--trace 1` run at seed 0.  For each end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, beside the metric's bound in
BENCHMARK.json.  With --write the figures go to perfbench/baseline.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BASELINE = os.path.join(ROOT, "perfbench", "baseline.json")


def run(workload, seed, trace):
    """One run.py run; returns (its result line, the worker's full record)."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return line, record


def summary(values, unit):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    p.add_argument("--write", action="store_true", help="also trace seed 0 and write baseline.json")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    untraced, traced, env, steady = {}, {}, None, True
    for name in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        error_rates, eps = [], {}
        for seed in range(args.seeds):
            line, record = run(name, seed, 0)
            if not line["correct"]:
                raise SystemExit(f"{name} seed {seed}: a check failed")
            for k, v in line["metrics"].items():
                values[k].append(v["value"])
            checks = record["checks"]
            error_rates.append(sum(not c["passed"] for c in checks) / len(checks))
            if record["eps_hat"] is not None:
                eps[str(seed)] = record["eps_hat"]
            env = record["env"]
            print(f"{name} seed {seed}: " + "  ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        out = {}
        for m in spec["end_to_end"]:
            s = out[m["name"]] = summary(values[m["name"]], m["unit"])
            spread = (s["q3"] - s["q1"]) / s["median"]
            gated = m["name"] != "setup_s"
            ok = spread <= m["bound"] / 3 or not gated
            steady &= ok
            print(f"  {name} {m['name']:<12} median {s['median']:.6g} {m['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread:.3f}  bound {m['bound']}"
                  f"{'' if gated else ' (spread not gated)'}{'' if ok else '  ABOVE A THIRD OF THE BOUND'}")
        out["error_rate"] = {
            "median": statistics.median(error_rates), "n": len(error_rates), "unit": "ratio",
            "note": "failed checks / attempted checks, known-defect failures included",
        }
        if eps:
            out["eps_hat_by_seed"] = eps
        untraced[name] = out
        if args.write:
            line, record = run(name, 0, 1)
            traced[name] = {
                "seed": 0,
                "traced_wall_s": record["traced_wall_s"],
                "untraced_wall_s": record["wall_s"],
                "metrics": line["metrics"],
            }
    print("every gated spread is below a third of its bound" if steady else "NOT STEADY")

    if args.write:
        baseline = {
            "about": (
                f"Baseline at git revision {env['git_revision']}: per workload, the median and "
                f"quartiles over seeds 0-{args.seeds - 1} of each run's value from "
                "`python3 perfbench/run.py --workload W --seed S --trace 0`, and the per-layer "
                "metrics of one `--trace 1` run at seed 0, with "
                f"run_seconds {spec['run_seconds']}. Written by perfbench/baseline.py --write."
            ),
            "env": env,
            "untraced": untraced,
            "traced": traced,
        }
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
