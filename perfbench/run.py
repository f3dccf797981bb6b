"""fockforge benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src of the
checkout the script lives in.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines before
it name each metric with its unit.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run alternates untraced and traced passes,
reports the per-layer metrics of the traced passes and the tracing overhead,
and writes its spans to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchstats import blocked_tail
from benchtrace import (
    DIM,
    END,
    NAME,
    START,
    Operations,
    Patches,
    Tracer,
    self_times,
    spanned,
)
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
FIDELITY_FLOOR = 1 - 1e-6
OCCUPATION_TOL = 1e-6
SQUEEZED_VACUUM_TOL = 1e-10
VACUUM_INVARIANCE_TOL = 1e-12

# Checks in fockforge.formulas that exponentiate two-mode generators through
# the bare-array _expm_array; the other checks exponentiate single-mode ones.
TWO_MODE_CHECKS = frozenset(
    {"check_J_rotation", "check_K_rotation", "check_UJ_squeeze_invariance"}
)

# Spans counted as calls and inclusive seconds.
COUNTED_LAYERS = (
    "fock.expm_1mode",
    "fock.expm_2mode",
    "fock.apply",
    "formulas.conjugation",
    "protocols.beamsplitter",
    "states.coherent",
    "states.squeeze",
    "lie.generators",
    "report",
)
# Metrics that are the self time of one kind of span.
SELF_TIME_LAYERS = {
    "formulas.build.s": "formulas.check",
    "protocols.build.s": "protocols.beamsplitter",
    "protocols.body.s": "protocols.protocol",
    "cli.serialize.s": "cli.command",
    "cli.suite.s": "cli.suite",
    "cli.parse.s": "cli.main",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# set-up time


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter until fockforge.cli is imported.

    The first spawn is not counted: it may compile bytecode into the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import time, fockforge.cli; print(time.monotonic()); print(fockforge.cli.__file__)"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"a fresh interpreter cannot import fockforge.cli: {proc.stderr[-400:]}")
        stamp, path = proc.stdout.split("\n")[:2]
        if Path(path).resolve().parent != SRC / "fockforge":
            raise BenchError(f"fresh interpreter imported fockforge from {path}, not {SRC}")
        if i:
            samples.append(float(stamp) - t0)
    return samples


def load_units() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and the per-layer metrics in BENCHMARK.json."""
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def import_fockforge():
    if not (SRC / "fockforge" / "cli.py").is_file():
        raise BenchError(f"no fockforge source at {SRC}")
    sys.path.insert(0, str(SRC))
    import fockforge.cli

    if Path(fockforge.cli.__file__).resolve().parent != SRC / "fockforge":
        raise BenchError(f"imported fockforge from {fockforge.cli.__file__}, not {SRC}")
    return fockforge


# ---------------------------------------------------------------------------
# instrumentation


def install_operations(ff, ops: Operations, patches: Patches):
    """Wrap every public check and protocol: one call is one operation."""
    for name in dir(ff.formulas):
        fn = getattr(ff.formulas, name)
        if name.startswith("check_") and callable(fn):
            patches.everywhere(fn, ops.wrap("formulas.check", fn))
    for fn in (
        ff.protocols.full_swap,
        ff.protocols.imperfect_clone,
        ff.protocols.apply_beamsplitter,
        ff.protocols.squeezed_swap_obstruction,
    ):
        patches.everywhere(fn, ops.wrap("protocols.protocol", fn))
    fn = ff.universal_swap.no_cloning_witness
    patches.everywhere(fn, ops.wrap("universal_swap.witness", fn))


def install_layers(ff, tracer: Tracer, patches: Patches):
    """Wrap the functions at each layer boundary in spans."""

    def expm_name(args):
        op = args[0]
        return ("fock.expm_2mode" if op.modes == 2 else "fock.expm_1mode"), op.dim

    def expm_array_name(args):
        # formulas passes bare arrays; the calling check says how many modes.
        two = tracer.op_name in TWO_MODE_CHECKS
        return ("fock.expm_2mode" if two else "fock.expm_1mode"), args[0].shape[0]

    cli, lie = ff.cli, ff.lie
    table = [
        (ff.fock.expm, expm_name),
        (ff.formulas._restricted_conjugation, "formulas.conjugation"),
        (ff.protocols.beamsplitter_UJ, "protocols.beamsplitter"),
        (ff.states.coherent_with_deficit, "states.coherent"),
        (ff.states.squeeze, "states.squeeze"),
        (ff.report.make_report, "report"),
        (cli.main, "cli.main"),
    ]
    table += [
        (fn, "lie.generators")
        for fn in (
            lie.su2_generators,
            lie.su11_generators,
            lie.schwinger_su2,
            lie.schwinger_su11,
            lie.single_mode_su11,
        )
    ]
    table += [
        (fn, "cli.command")
        for fn in (cli.cmd_verify_all, cli.cmd_sweep, cli.cmd_swap, cli.cmd_clone)
    ]
    table += [
        (fn, "cli.suite")
        for fn in (
            cli._formulas_reports,
            cli._protocol_reports,
            cli._lie_reports,
            cli._universal_swap_reports,
        )
    ]
    for fn, name in table:
        patches.everywhere(fn, spanned(tracer, name, fn))
    # fock.expm calls _expm_array itself; only the direct callers are wrapped.
    fn = ff.fock._expm_array
    patches.everywhere(fn, spanned(tracer, expm_array_name, fn), skip=("fockforge.fock",))
    patches.replace(ff.fock.Operator, "apply", spanned(tracer, "fock.apply", ff.fock.Operator.apply))
    patches.replace(
        ff.report.Report, "to_json_dict", spanned(tracer, "report", ff.report.Report.to_json_dict)
    )


def layer_totals(spans, own_times) -> dict:
    """Per-layer counts and seconds over spans and their self times."""
    out: dict[str, float] = {}
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.s"] = 0.0
    for metric in SELF_TIME_LAYERS:
        out[metric] = 0.0
    out["fock.expm_2mode.dim_max"] = 0
    by_span = {span: metric for metric, span in SELF_TIME_LAYERS.items()}
    for span, own in zip(spans, own_times):
        name = span[NAME]
        if name in COUNTED_LAYERS:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += span[END] - span[START]
        if name in by_span:
            out[by_span[name]] += own
        if name == "fock.expm_2mode":
            out["fock.expm_2mode.dim_max"] = max(out["fock.expm_2mode.dim_max"], span[DIM])
    return out


# ---------------------------------------------------------------------------
# workloads


def call_cli(ff, argv: list[str]) -> dict:
    """Run fockforge.cli.main in-process, capturing its body and diagnostics."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ff.cli.main(argv)
    return {"argv": argv, "rc": rc, "body": out.getvalue(), "stderr": err.getvalue()}


WARMUP_CALLS = (
    ["swap", "--a1=0.5@0", "--a2=0.5@1", "--nmax=12"],
    ["sweep", "--check=check_J_rotation", "--values=0.3", "--nmax=8"],
    ["sweep", "--check=check_squeeze_conjugation", "--values=0.3", "--format=csv"],
)


def stratified(rng, low: float, high: float, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [low, high).

    scipy's expm takes more squarings for larger generators, so plain uniform
    draws would let the seed move a run's cost; one value per slice keeps the
    spread of parameters, and the cost, nearly the same for every seed.
    """
    width = (high - low) / count
    return [float(low + width * (k + rng.uniform())) for k in range(count)]


def _polar(modulus: float, phase: float) -> str:
    return f"{modulus!r}@{phase!r}"


class VerifyAll:
    """The default verify-all suite, as users run it."""

    # Passes per block of op_tail_s: 68 samples, the 11th slowest of them.
    TAIL_PASSES = 2

    def __init__(self, ff, seed: int):
        self.ff = ff
        self.cli_seed = int(np.random.default_rng(seed).integers(1, 2**31 - 1))
        self.description = f"verify-all --seed {self.cli_seed}"

    def run_pass(self) -> list[dict]:
        return [call_cli(self.ff, ["verify-all", f"--seed={self.cli_seed}"])]

    def check(self, passes) -> list[str]:
        problems = []
        bodies = set()
        for p in passes:
            (call,) = p["calls"]
            if call["rc"] != 0:
                problems.append(f"verify-all exited {call['rc']}: {call['stderr'][-300:]}")
                continue
            failing = [r["name"] for r in json.loads(call["body"])["reports"] if not r["passed"]]
            if failing:
                problems.append(f"verify-all reports not passed: {failing}")
            bodies.add(call["body"])
        if len(bodies) != 1:
            problems.append(f"verify-all bodies differ across {len(passes)} passes")
        return problems


class ProtocolsLargeAlpha:
    """swap and clone through the CLI plus apply_beamsplitter on a fixed ladder
    of combined input amplitudes, each call's cutoff from the Poisson tail rule.

    One call per ladder step, cycling through the three protocols, so each
    protocol spans the whole ladder; phases, mode splits and beamsplitter
    angles come from the seed.  The ladder's shape keeps the median and the
    tail percentile of call times on flat stretches of the cost curve, so
    they do not jump between runs:

    - 17 steps, the middle one at 3.0 (n_max 37).  Between n_max 39 and 41 a
      call's cost doubles; a median there moved by 17 % from run to run.
    - The last five steps all at 4.5 (n_max 59).  A tail block of three
      passes gives 51 calls, and the tail percentile, the 11th slowest, is
      then the fifth fastest of the fifteen calls at 4.5, not a call on the
      steep part of the curve.
    """

    LADDER = (
        tuple(2.0 + k / 8 for k in range(9))  # 2.0 to 3.0, the median step last
        + (3.25, 3.5, 3.75)
        + (4.5,) * 5
    )
    PROTOCOLS = ("swap", "clone", "beamsplitter")
    TAIL_PASSES = 3

    def __init__(self, ff, seed: int):
        self.ff = ff
        rng = np.random.default_rng(seed)

        def phase():
            return float(rng.uniform(-math.pi, math.pi))

        self.cases = []
        for k, amp in enumerate(self.LADDER):
            kind = self.PROTOCOLS[k % len(self.PROTOCOLS)]
            theta = float(rng.uniform(0.15, math.pi / 2 - 0.15))
            if kind == "clone":
                inputs = ((amp, phase()),)
            else:
                inputs = ((amp * math.cos(theta), phase()), (amp * math.sin(theta), phase()))
            # swap and clone take a beamsplitter phase; the beamsplitter a polar kappa
            angle = (float(rng.uniform(0.1, math.pi / 2)), phase()) if kind == "beamsplitter" else phase()
            self.cases.append(
                {"kind": kind, "amplitude": amp, "n_max": ff.fock.adequate_cutoff(amp),
                 "inputs": inputs, "angle": angle}
            )
        self.description = "ladder of amplitude/n_max: " + ", ".join(
            f"{c['amplitude']:.3g}/{c['n_max']}" for c in self.cases
        )

    def run_pass(self) -> list[dict]:
        ff = self.ff
        calls = []
        for case in self.cases:
            n_max, inputs, angle = case["n_max"], case["inputs"], case["angle"]
            if case["kind"] == "swap":
                (a1, a2) = inputs
                calls.append(call_cli(ff, ["swap", f"--a1={_polar(*a1)}", f"--a2={_polar(*a2)}",
                                           f"--delta={angle!r}", f"--nmax={n_max}"]))
            elif case["kind"] == "clone":
                (alpha,) = inputs
                calls.append(call_cli(ff, ["clone", f"--alpha={_polar(*alpha)}",
                                           f"--delta={angle!r}", f"--nmax={n_max}"]))
            else:
                polar = ff.fock.PolarParam.from_polar
                ff.protocols.apply_beamsplitter(
                    polar(*inputs[0]), polar(*inputs[1]), polar(*angle), ff.fock.Cutoff(n_max)
                )
        return calls

    def expected_outputs(self):
        """(operation, n_max, closed-form output amplitudes) in call order."""
        names = {"swap": "full_swap", "clone": "imperfect_clone", "beamsplitter": "apply_beamsplitter"}
        for case in self.cases:
            zs = [cmath.rect(*z) for z in case["inputs"]]
            if case["kind"] == "swap":
                out = (zs[1], zs[0])
            elif case["kind"] == "clone":
                out = (zs[0] / math.sqrt(2), zs[0] / math.sqrt(2))
            else:
                m, delta = case["angle"]
                ks = cmath.rect(math.sin(m), delta)  # e^{i delta} sin|kappa|
                out = (math.cos(m) * zs[0] + ks * zs[1], math.cos(m) * zs[1] - ks.conjugate() * zs[0])
            yield names[case["kind"]], case["n_max"], out

    def check(self, passes) -> list[str]:
        problems = []
        expected = list(self.expected_outputs())
        for p in passes:
            for call in p["calls"]:
                if call["rc"] != 0:
                    problems.append(f"{' '.join(call['argv'])} exited {call['rc']}")
                elif not json.loads(call["body"])["report"]["passed"]:
                    problems.append(f"{' '.join(call['argv'])} reported a failure")
            if len(p["ops"]) != len(expected):
                problems.append(f"{len(p['ops'])} operations in a pass, expected {len(expected)}")
                continue
            for rec, (name, n_max, (z1, z2)) in zip(p["ops"], expected):
                dim = n_max + 1
                if rec["name"] != name or rec["output"] is None or rec["output"].size != dim * dim:
                    problems.append(f"{rec['name']} output does not match {name} at n_max {n_max}")
                    continue
                f = oracles.fidelity(rec["output"], oracles.coherent_pair(z1, z2, dim))
                if not f >= FIDELITY_FLOOR:
                    problems.append(f"{name} at n_max {n_max}: fidelity {f!r} to the closed form")
                n1, n2 = oracles.mean_occupations(rec["output"], dim)
                for got, z in ((n1, z1), (n2, z2)):
                    want = abs(z) ** 2
                    if not abs(got - want) <= OCCUPATION_TOL * max(1.0, want):
                        problems.append(f"{name} at n_max {n_max}: occupation {got!r}, expected {want!r}")
        return problems


class SweepSingleMode:
    """Seeded sweeps over the single-mode checks: hundreds of small calls."""

    VALUES_PER_CHECK = 10
    # With one pass the 11th slowest of 40 calls falls between the ten
    # check_SDS calls and the rest, and moved by 15-19 % from run to run;
    # with two it is one of the twenty check_SDS calls.
    TAIL_PASSES = 2
    GRIDS = (
        ("check_squeeze_conjugation", 0.05, 0.8),
        ("check_SDS", 0.05, 0.8),
        ("check_phase_formula", -math.pi, math.pi),
        ("check_SSS_commute", 0.05, 0.8),
    )
    # Checks whose swept value is a squeeze modulus at phase 0.
    SQUEEZE_SWEPT = ("check_squeeze_conjugation", "check_SDS", "check_SSS_commute")

    def __init__(self, ff, seed: int):
        self.ff = ff
        rng = np.random.default_rng(seed)
        self.grids = {
            check: stratified(rng, low, high, self.VALUES_PER_CHECK) for check, low, high in self.GRIDS
        }
        self.description = f"{self.VALUES_PER_CHECK} values each for " + ", ".join(self.grids)

    def run_pass(self) -> list[dict]:
        return [
            call_cli(
                self.ff,
                ["sweep", f"--check={check}", "--values=" + ",".join(map(repr, values)),
                 "--format=csv"],
            )
            for check, values in self.grids.items()
        ]

    def check(self, passes) -> list[str]:
        ff = self.ff
        problems = []
        first_bodies = [c["body"] for c in passes[0]["calls"]]
        for p in passes:
            if [c["body"] for c in p["calls"]] != first_bodies:
                problems.append("sweep bodies differ across passes")
            for (check, values), call in zip(self.grids.items(), p["calls"]):
                if call["rc"] != 0:
                    problems.append(f"sweep {check} exited {call['rc']}: {call['stderr'][-300:]}")
                    continue
                _, residual_keys, fidelity_keys = ff.cli.SWEEP_REGISTRY[check]
                rows = list(csv.reader(io.StringIO(call["body"])))
                header = ["check", "value", *residual_keys, *fidelity_keys, "passed"]
                if rows[0] != header:
                    problems.append(f"sweep {check} header {rows[0]} != {header}")
                    continue
                table = [dict(zip(header, row)) for row in rows[1:]]
                if [float(r["value"]) for r in table] != values:
                    problems.append(f"sweep {check} rows do not follow its grid")
                if any(r["passed"] != "True" for r in table):
                    problems.append(f"sweep {check} has rows not passed")
                if check == "check_phase_formula" and not all(
                    float(r["vacuum_invariance"]) <= VACUUM_INVARIANCE_TOL for r in table
                ):
                    problems.append("check_phase_formula vacuum_invariance above 1e-12")
        cutoff = ff.formulas.SQUEEZE_CONJUGATION_CUTOFF
        vacuum = ff.states.vacuum(cutoff)
        for r in sorted({v for c in self.SQUEEZE_SWEPT for v in self.grids[c]}):
            got = ff.states.squeeze(ff.fock.PolarParam.from_polar(r, 0.0), cutoff).apply(vacuum)
            gap = float(np.linalg.norm(got.amplitudes - oracles.squeezed_vacuum(r, cutoff.dim)))
            if not gap <= SQUEEZED_VACUUM_TOL:
                problems.append(f"squeeze({r!r})|0> is {gap:.3g} from the closed form")
        return problems


WORKLOADS = {
    "verify_all": VerifyAll,
    "protocols_large_alpha": ProtocolsLargeAlpha,
    "sweep_single_mode": SweepSingleMode,
}


# ---------------------------------------------------------------------------
# running a workload


def run_pass(workload, ops: Operations, tracer: Tracer | None = None) -> dict:
    first = len(ops.records)
    root = tracer.begin("pass") if tracer else None
    cpu0, t0 = time.process_time(), time.perf_counter()
    calls = workload.run_pass()
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if root is not None:
        tracer.end(root)
    return {"wall": wall, "cpu": cpu, "calls": calls, "ops": ops.records[first:]}


def run(args) -> tuple[dict, list[str]]:
    end_to_end_units, per_layer_units = load_units()
    ff = import_fockforge()
    setup = [] if args.trace else measure_setup()
    tracer = Tracer()
    ops = Operations(tracer, ff.fock.CutoffWarning)
    op_patches, layer_patches = Patches(), Patches()
    install_operations(ff, ops, op_patches)
    try:
        workload = WORKLOADS[args.workload](ff, args.seed)
        print(f"workload {args.workload} seed {args.seed}: {workload.description}")
        for argv in WARMUP_CALLS:
            call_cli(ff, argv)
        ops.records.clear()

        plain, traced = [], []
        start = time.perf_counter()
        while True:
            plain.append(run_pass(workload, ops))
            if args.trace:
                install_layers(ff, tracer, layer_patches)
                tracer.active = True
                first_span = len(tracer.spans)
                try:
                    traced.append(run_pass(workload, ops, tracer))
                finally:
                    tracer.active = False
                    layer_patches.restore()
                traced[-1]["spans"] = (first_span, len(tracer.spans))
            whole_blocks = len(plain) % workload.TAIL_PASSES == 0
            if time.perf_counter() - start >= args.seconds and (args.trace or whole_blocks):
                break
    finally:
        layer_patches.restore()
        op_patches.restore()

    passes = plain + traced
    records = [r for p in passes for r in p["ops"]]
    problems = workload.check(passes)
    problems += [f"operation {r['name']} failed" for r in records if r["failed"]]
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
    }
    if args.trace:
        metrics = trace_metrics(plain, traced, tracer)
        units = per_layer_units
    else:
        samples = [r["seconds"] for r in records]
        percentile, tail = blocked_tail(
            [[r["seconds"] for r in p["ops"]] for p in plain], workload.TAIL_PASSES
        )
        print(
            f"{len(plain)} passes, {len(samples)} operation samples; op_tail_s is p{percentile}"
            f" of each block of {workload.TAIL_PASSES} passes, median over blocks"
        )
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall"] for p in plain),
            "op_p50_s": statistics.median(samples),
            "op_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = end_to_end_units
    result["metrics"] = {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
    write_out(args, result, passes, tracer, traced)
    return result, problems


def trace_metrics(plain, traced, tracer: Tracer) -> dict:
    """Per-layer figures per traced pass, with the untraced passes as the base."""
    own_times = self_times(tracer.spans)
    per_pass = [
        layer_totals(tracer.spans[slice(*p["spans"])], own_times[slice(*p["spans"])])
        for p in traced
    ]
    metrics = {k: statistics.mean(t[k] for t in per_pass) for k in per_pass[0]}
    metrics["cli.body_bytes"] = statistics.mean(
        sum(len(c["body"].encode()) for c in p["calls"]) for p in traced
    )
    metrics["process.cpu_s"] = statistics.median(p["cpu"] for p in plain)
    metrics["process.wall_s"] = statistics.median(p["wall"] for p in plain)
    metrics["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["process.wall_s"]
    metrics["trace.spans"] = statistics.mean(p["spans"][1] - p["spans"][0] for p in traced)
    return metrics


def write_out(args, result: dict, passes, tracer: Tracer, traced):
    """Keep the run's result, pass times and operation samples, and any spans."""
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "result": result,
        "passes": [
            {"wall_s": p["wall"], "cpu_s": p["cpu"], "ops": [[r["name"], r["seconds"]] for r in p["ops"]]}
            for p in passes
        ],
    }
    if traced:
        first, last = traced[0]["spans"][0], traced[-1]["spans"][1]
        origin = tracer.spans[first][START]
        record["span_fields"] = ["name", "start_s", "end_s", "parent", "op", "dim"]

        def rebase(i):
            return None if i is None else i - first

        record["spans"] = [
            [s[0], s[1] - origin, s[2] - origin, rebase(s[3]), rebase(s[4]), s[5]]
            for s in tracer.spans[first:last]
        ]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(f"result written to {path.relative_to(ROOT)}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fockforge benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, problems = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in problems:
        print(f"incorrect: {line}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
