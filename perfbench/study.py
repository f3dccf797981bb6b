"""Run-to-run spread of the benchmark, and agreement between two sets of runs.

    python3 perfbench/study.py run --runs 10 --first-seed 1 --out perfbench/out/set-a.json
    python3 perfbench/study.py report perfbench/out/set-a.json
    python3 perfbench/study.py compare perfbench/out/set-a.json perfbench/out/set-b.json

``run`` starts one fresh process per run, cycling through the workloads so
that each workload's runs are spread over the whole study, each run with its
own seed.  ``report`` prints each end-to-end metric's median, quartiles and
interquartile distance as a share of the median, beside the metric's bound
in BENCHMARK.json.  ``compare`` exits 0 when the two sets agree: every
spread within its bound in both sets, no median more than its bound away
from the other set's, in either direction, and the same share of failed
operations.  Runs last BENCHMARK.json's run_seconds.  Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from benchstats import spread

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_set(args) -> int:
    spec = load_spec()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    for i in range(args.runs):
        seed = args.first_seed + i
        for name in names:
            argv = [*spec["command"], "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["elapsed_s"] = time.perf_counter() - t0
            runs[name].append(result)
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{name} seed {seed} ({result['elapsed_s']:.0f} s): {values}", flush=True)
            with open(args.out, "w") as fh:  # rewritten after every run
                json.dump(runs, fh, indent=1)
    return 0


def summarize(runs: dict) -> dict:
    """{workload: {metric: spread}} over the runs of one set."""
    return {
        name: {
            metric: spread([r["metrics"][metric]["value"] for r in results])
            for metric in results[0]["metrics"]
        }
        for name, results in runs.items()
    }


def failed_share(results) -> tuple[int, int]:
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def report(args) -> int:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(args.set) as fh:
        runs = json.load(fh)
    print(f"{'workload':24} {'metric':12} {'q1':>10} {'median':>10} {'q3':>10} {'iqr/med':>8} {'bound':>6}")
    for name, metrics in summarize(runs).items():
        for metric, s in metrics.items():
            print(
                f"{name:24} {metric:12} {s['q1']:10.4g} {s['median']:10.4g} {s['q3']:10.4g}"
                f" {s['iqr_share']:8.3f} {bounds[metric]:6.2f}"
            )
        failed, attempted = failed_share(runs[name])
        print(f"{name:24} runs {len(runs[name])}, operations failed {failed} of {attempted}")
    return 0


def compare(args) -> int:
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.first) as fh:
        first = json.load(fh)
    with open(args.second) as fh:
        second = json.load(fh)
    a, b = summarize(first), summarize(second)
    ok = True
    for name in a:
        fa, fb = failed_share(first[name]), failed_share(second[name])
        if fa[0] * fb[1] != fb[0] * fa[1]:
            print(f"DIFF {name}: failed {fa[0]}/{fa[1]} vs {fb[0]}/{fb[1]}")
            ok = False
        for metric, m in metrics.items():
            bound = m["bound"]
            sa, sb = a[name][metric], b[name][metric]
            # Both sets run the same code, so a median that moved either way
            # by more than the bound is a disagreement.
            change = (sb["median"] - sa["median"]) / sa["median"]
            verdicts = []
            if abs(change) > bound:
                verdicts.append(f"median moved by {change:+.3f}")
            for label, s in (("first", sa), ("second", sb)):
                if s["iqr_share"] > bound:
                    verdicts.append(f"{label} spread {s['iqr_share']:.3f}")
            ok = ok and not verdicts
            print(
                f"{'FAIL' if verdicts else 'ok  '} {name:24} {metric:12} median {sa['median']:.4g} -> "
                f"{sb['median']:.4g} ({change:+.3f}), spread {sa['iqr_share']:.3f} / "
                f"{sb['iqr_share']:.3f}, bound {bound} {'; '.join(verdicts)}"
            )
    print("sets agree" if ok else "sets disagree")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run every workload --runs times, one seed per round")
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--first-seed", type=int, default=1)
    p_run.add_argument("--workloads", nargs="*", default=None)
    p_run.add_argument("--out", required=True)
    p_report = sub.add_parser("report", help="quartiles of one set")
    p_report.add_argument("set")
    p_compare = sub.add_parser("compare", help="do two sets agree within the bounds?")
    p_compare.add_argument("first")
    p_compare.add_argument("second")
    args = parser.parse_args(argv)
    return {"run": run_set, "report": report, "compare": compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
