"""Benchmark of the branchproofs command line, end to end and layer by layer.

    python3 bench/run.py --workload tseitin-cp --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop with one client, in one process on one thread:
an op is one in-process ``branchproofs.cli.main([...])`` call on files made
from the seed, with stdout captured; its result is the exit code plus the
final ``RESULT`` line, checked against a known answer.  The run times the
workload's round of chains in passes until ``--seconds`` have passed (at
least MIN_PASSES); every pass runs a fresh copy of each input that costs the
program the same work, on a freshly imported package, so no module-level
state carries over from pass to pass, as none would between CLI processes.
An op's latency is the median over the passes of its position in the round;
the timings are taken over these per-op medians, and ``artifact_bits`` over
the first pass.  Every op is checked.  Times are given in seconds at a
reference speed: see ``Speedometer``.

``--trace 0`` prints the end-to-end metrics; the program is not patched.
``--trace 1`` runs the first pass untraced, then again with every layer
function wrapped (see ``spans.py``) for the per-layer metrics and
``trace.overhead_share``, and replays the leading chains to require that
their exact counts repeat.  The last line of stdout is always one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Metric names
and units come from ``BENCHMARK.json``.  See ``README.md`` for why each
workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
SPEED_PROBE_STEPS = (100_000, 600, 20)  # integer additions, Fraction sums, file reads
REFERENCE_PROBE_S = 0.011  # time of the speed probe at the reference speed
SPEED_EVERY_S = 0.25  # least time between speed samples
SPEED_NEAREST = 5  # samples that give the speed at a moment
SETUP_REPEATS = (3, 25)  # at least, at most; more while they total under SETUP_BUDGET_S
SETUP_BUDGET_S = 1.0
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail latency
REPLAY_SHARE = 0.25  # of --seconds, spent replaying chains for the determinism check
CALIBRATION_STEPS = 5_000_000
CHILD_TIMEOUT_S = 510  # per workload under --workload all

from workloads import WORKLOADS, Chain, Op  # noqa: E402  (sibling module)


@dataclass
class Record:
    number: int  # pass
    chain: int  # position of the chain in the round
    step: int  # position of the op in the chain
    op: Op
    latency: float
    problem: str | None  # None when the op met its known answer
    at: float  # perf_counter() at the op's midpoint


def fail(message: str) -> None:
    """Exit non-zero without printing a result."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def check_checkout() -> None:
    if not (ROOT / "src" / "branchproofs" / "cli.py").is_file():
        fail(f"no branchproofs sources under {ROOT / 'src'}")
    if not (ROOT / "instances").is_dir():
        fail(f"no bundled instances under {ROOT / 'instances'}")


def import_program() -> None:
    """(Re-)import the package from the checkout's src/."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules if m.split(".")[0] == "branchproofs"]:
        del sys.modules[name]
    importlib.import_module("branchproofs.cli")


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def judge(op: Op, code: int, stdout: str) -> str | None:
    lines = [line for line in stdout.splitlines() if line.strip()]
    results = [line for line in lines if line.startswith("RESULT")]
    if len(results) != 1 or not lines[-1].startswith("RESULT"):
        return f"expected one final RESULT line, got {len(results)}"
    words = lines[-1].split()
    verdict = words[1].rstrip(":") if len(words) > 1 else ""
    if code != op.exit_code or verdict != op.verdict:
        return (f"exit {code} 'RESULT {verdict}', expected exit {op.exit_code}"
                f" 'RESULT {op.verdict}'")
    if op.check is not None:
        try:
            return op.check(stdout)
        except (OSError, ValueError) as exc:
            return f"check failed: {exc}"
    return None


def run_op(op: Op) -> tuple[float, str | None]:
    """(latency, problem) of one op."""
    cli = sys.modules["branchproofs.cli"]  # looked up per op: tracing patches main
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    return latency, judge(op, code, out.getvalue())


def speed_probe(path: Path) -> float:
    """Time of a fixed piece of work of the kinds the program does: integer
    additions, Fraction sums with dict and str churn, and small-file reads."""
    additions, sums, reads = SPEED_PROBE_STEPS
    start = perf_counter()
    total = 0
    for i in range(additions):
        total += i
    acc, seen = Fraction(0), {}
    for i in range(1, sums):
        acc += Fraction(i, i + 7)
        seen[i] = (acc.numerator % 97, str(i))
    for _ in range(reads):
        total += sum(int(t) for t in path.read_text().split())
    return perf_counter() - start


class Speedometer:
    """Times of a fixed probe (``speed_probe``), run between ops.

    The shared host's speed drifts by 20-30 % between runs and within one,
    and the probe slows with it.  ``scale_at(t)`` turns a time measured at
    ``t`` into seconds at the reference speed (the probe taking
    REFERENCE_PROBE_S), from the median of the SPEED_NEAREST samples taken
    nearest to ``t``.  The probe is harness code: no change to the program
    moves it.
    """

    def __init__(self, directory: Path):
        self.samples: list[tuple[float, float]] = []  # (midpoint, probe time)
        self.last = -math.inf
        self.path = directory / "speed-probe.txt"
        self.path.write_text(" ".join(map(str, range(300))) + "\n")

    def sample(self) -> None:
        start = perf_counter()
        took = speed_probe(self.path)
        self.samples.append((start + took / 2, took))
        self.last = perf_counter()

    def sample_if_due(self) -> None:
        if perf_counter() - self.last >= SPEED_EVERY_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - t))[:SPEED_NEAREST]
        return REFERENCE_PROBE_S / statistics.median(took for _, took in nearest)


class Timer:
    """Time of a stretch of work that pauses while the speed is sampled."""

    def __init__(self, speed: Speedometer):
        self.speed = speed
        self.parts: list[tuple[float, float]] = []
        self.start = perf_counter()

    def pause(self) -> None:
        self.parts.append((self.start, perf_counter()))
        self.speed.sample()
        self.start = perf_counter()

    def stop(self) -> None:
        self.parts.append((self.start, perf_counter()))

    def raw(self) -> float:
        return sum(end - start for start, end in self.parts)

    def scaled(self) -> float:
        """At the reference speed; call once every sample has been taken."""
        return sum((end - start) * self.speed.scale_at((start + end) / 2)
                   for start, end in self.parts)


def run_pass(number: int, chains: list[Chain], records: list[Record], speed: Speedometer,
             recorder=None) -> None:
    """Write the chains' inputs, then run their ops in order, sampling the
    speed between ops."""
    for chain in chains:
        chain.write()
    gc.collect()
    for chain in chains:
        for step, op in enumerate(chain.ops):
            speed.sample_if_due()
            if recorder is not None:
                recorder.begin_op(len(records))
            start = perf_counter()
            latency, problem = run_op(op)
            records.append(Record(number, chain.index, step, op, latency, problem,
                                  start + latency / 2))
    speed.sample()


def run_passes(workload, first: list[Chain], workdir: Path, seconds: float,
               speed: Speedometer) -> tuple[list[Record], int]:
    """Passes over the round until ``seconds`` have passed, at least MIN_PASSES.

    A further pass starts only if one more as long as the last fits in the
    time left, and only while some chain has a fresh copy left.  Returns the
    records and the number of passes.
    """
    records: list[Record] = []
    deadline = perf_counter() + seconds
    number, chains = 0, first
    while chains:
        began = perf_counter()
        run_pass(number, chains, records, speed)
        last = perf_counter() - began
        number += 1
        if number >= MIN_PASSES and perf_counter() + last > deadline:
            break
        directory = workdir / f"pass{number}"
        directory.mkdir(parents=True)
        chains = workload.pass_chains(number, directory)
        import_program()
    return records, number


def artifact_bits(text: str, kind: str) -> int:
    from branchproofs.geometry import cuts_from_text
    from branchproofs.prooftree import (
        detect_proof_kind, parse_branching, parse_enumerative, proof_stats)
    from branchproofs.vectors import bit_size

    if kind == "cuts":
        return bit_size(cuts_from_text(text))
    parse = parse_branching if detect_proof_kind(text) == "branching" else parse_enumerative
    return proof_stats(parse(text)).bit_size


def op_artifact_bits(op: Op) -> int:
    return sum(artifact_bits(Path(path).read_text(), kind) for path, kind in op.outputs
               if Path(path).is_file())


# ---------------------------------------------------------------------------
# set-up, metrics, report
# ---------------------------------------------------------------------------


def set_up(name: str, seed: int, directory: Path, traced: bool, speed: Speedometer):
    """Import the package and build the workload and its first pass.

    For the end-to-end run, set-up runs SETUP_REPEATS times (more while
    their total is under SETUP_BUDGET_S).  Returns the last workload, its
    first-pass chains (inputs in memory, to be written under
    ``directory``), and each set-up's time, raw and at the reference speed.
    """
    directory.mkdir(parents=True)
    timers: list[Timer] = []
    speed.sample()
    least, most = (1, 1) if traced else SETUP_REPEATS
    while len(timers) < least or (
            len(timers) < most and sum(t.raw() for t in timers) < SETUP_BUDGET_S):
        timer = Timer(speed)
        import_program()
        workload = WORKLOADS[name](seed, traced)
        workload.setup(timer.pause)
        chains = workload.pass_chains(0, directory)
        timer.stop()
        timers.append(timer)
        speed.sample()
    # Keep the program's garbage collections from walking the harness's
    # objects: a CLI process would not hold them.
    gc.collect()
    gc.freeze()
    return workload, chains, [t.raw() for t in timers], [t.scaled() for t in timers]


def op_medians(records: list[Record], speed: Speedometer | None) -> tuple[list[float], int]:
    """Median latency of each op position over the passes (at the reference
    speed, unless ``speed`` is None), and how many positions met their known
    answer in every pass."""
    samples: dict[tuple, list[float]] = defaultdict(list)
    good: dict[tuple, bool] = defaultdict(lambda: True)
    for r in records:
        samples[r.chain, r.step].append(r.latency * (speed.scale_at(r.at) if speed else 1.0))
        good[r.chain, r.step] &= r.problem is None
    return [statistics.median(v) for v in samples.values()], sum(good.values())


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics weighted by the Beta(q(n+1), (1-q)(n+1))
    mass of each rank interval, so the estimate moves smoothly when ops near
    the quantile swap places; a single order statistic jumps across the gaps
    between op kinds of very different cost.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 32  # trapezoid rule per rank interval
    grid = [density(k / (steps * n)) for k in range(steps * n + 1)]
    weights = [sum(grid[i * steps:(i + 1) * steps + 1]) - (grid[i * steps] + grid[(i + 1) * steps]) / 2
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with 10 samples beyond it."""
    beyond = min(TAIL_SAMPLES, len(latencies) - 1)
    q = (len(latencies) - beyond) / len(latencies)
    return quantile(latencies, q), 100.0 * q


def calibration_s() -> float:
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i
    return perf_counter() - start


def machine(load_at_start, speed: Speedometer) -> dict:
    cpu = platform.processor()
    probes = [took for _, took in speed.samples]
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "loadavg_start": load_at_start,
            f"calibration_s_{CALIBRATION_STEPS}_steps": round(calibration_s(), 4),
            "speed_probe_s": {
                "samples": len(probes), "min": round(min(probes), 5),
                "median": round(statistics.median(probes), 5), "max": round(max(probes), 5)},
            "reference_probe_s": REFERENCE_PROBE_S}


def emit(spec_metrics: list[dict], values: dict, correct: bool, records: list[Record],
         notes: dict, load_at_start, speed: Speedometer) -> None:
    units = {m["name"]: m["unit"] for m in spec_metrics}
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {sorted(missing)}")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {values[name]:>16.6g} {units[name]}{note}")
    for record in records:
        if record.problem is not None:
            print(f"  FAILED pass {record.number} chain {record.chain} {record.op.kind}"
                  f" {record.op.label}:"
                  f" {record.problem}")
    print("machine " + json.dumps(machine(load_at_start, speed)))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.problem is not None for r in records),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


def end_to_end(args, spec: dict, load_at_start) -> None:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        speed = Speedometer(workdir)
        workload, first, setup_raw, setup_times = set_up(
            args.workload, args.seed, workdir / "pass0", False, speed)
        records, passes = run_passes(workload, first, workdir, args.seconds, speed)
        bits = sum(op_artifact_bits(r.op) for r in records if r.number == 0)
        bits += sum(artifact_bits(text, kind) for text, kind in workload.setup_artifacts())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Timings over per-op medians: the same ops in every run and on every
    # commit, each sampled once per pass, so a burst of load on the shared
    # machine during one pass moves none of them much.  Every time is in
    # seconds at the reference speed; the raw figures are printed beside.
    medians, good = op_medians(records, speed)
    raw_medians, _ = op_medians(records, None)
    passed = sum(r.problem is None for r in records)
    tail_s, tail_pct = tail(medians)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": good / sum(medians),
        "op_p50_s": quantile(medians, 0.5),
        "op_tail_s": tail_s,
        "pass_share": passed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "artifact_bits": bits,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups (import + inputs);"
                   f" raw {statistics.median(setup_raw):.4g} s",
        "ops_per_s": f"{len(medians)} ops / sum of their median latencies over {passes}"
                     f" passes; raw {good / sum(raw_medians):.4g} ops/s",
        "op_p50_s": f"Harrell-Davis, over the {len(medians)} per-op medians;"
                    f" raw {quantile(raw_medians, 0.5):.4g} s",
        "op_tail_s": f"Harrell-Davis p{tail_pct:.1f} of the {len(medians)} per-op medians;"
                     f" raw {tail(raw_medians)[0]:.4g} s",
        "pass_share": f"{passed} of {len(records)} ops",
        "artifact_bits": f"first pass, {len({r.chain for r in records if r.number == 0})}"
                         " chains",
    }
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace 0")
    emit(spec["end_to_end"], values, passed == len(records), records, notes, load_at_start,
         speed)


def per_layer(args, spec: dict, load_at_start) -> None:
    import spans

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    recorder = spans.Recorder()
    records: list[Record] = []
    workdir.mkdir(parents=True)
    try:
        speed = Speedometer(workdir)
        workload, first, _, _ = set_up(args.workload, args.seed, workdir / "untraced", True,
                                       speed)
        run_pass(0, first, records, speed)
        untraced = op_rate(records, speed)
        directory = workdir / "traced"
        directory.mkdir()
        import_program()
        records = []
        undo = spans.install(recorder)
        try:
            run_pass(0, workload.pass_chains(0, directory), records, speed, recorder)
            traced_spans = len(recorder.spans)
            replayed = replay(workload, records, workdir / "replay", recorder,
                              REPLAY_SHARE * args.seconds)
        finally:
            spans.uninstall(undo)
        counts = spans.op_counts(recorder.spans)
        mismatches = compare_counts(records, replayed, counts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    recorder.write(ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.jsonl")
    passed = sum(r.problem is None for r in records)
    traced = op_rate(records, speed)
    values = spans.layer_metrics(recorder.spans[:traced_spans], 1 - traced / untraced)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace 1")
    print("  slowest traced ops:")
    for i in sorted(range(len(records)), key=lambda i: -records[i].latency)[:5]:
        counted = " ".join(f"{k}={v}" for k, v in counts.get(i, spans.NO_COUNTS).items())
        print(f"    op {i} {records[i].op.kind} {records[i].op.label}:"
              f" {records[i].latency:.3f} s, {counted}")
    print(f"  determinism: {len(replayed)} ops replayed, {len(mismatches)} mismatches")
    for line in mismatches:
        print(f"    {line}")
    notes = {"trace.overhead_share": f"untraced {untraced:.4g} vs traced {traced:.4g} ops/s"
                                     " over the first pass, at the reference speed"}
    emit(spec["per_layer"], values, passed == len(records) and not mismatches,
         records, notes, load_at_start, speed)


def op_rate(records: list[Record], speed: Speedometer) -> float:
    """Ops per second of op time, at the reference speed."""
    return len(records) / sum(r.latency * speed.scale_at(r.at) for r in records)


def replay(workload, records: list[Record], directory: Path, recorder, budget: float):
    """Re-run leading chains of the first pass (within ``budget`` seconds of
    their traced latency) on freshly written copies of the same inputs.

    Returns (original op index, replay op index, op, problem) tuples; the
    replayed ops' spans are appended to the recorder under op indices past
    the traced pass.
    """
    directory.mkdir(parents=True)
    by_chain: dict[int, list[int]] = {}
    for i, r in enumerate(records):
        by_chain.setdefault(r.chain, []).append(i)
    chains = {c.index: c for c in workload.pass_chains(0, directory)}
    pairs = []
    spent = 0.0
    next_op = len(records)
    for chain_index, ops in by_chain.items():
        cost = sum(records[i].latency for i in ops)
        if pairs and spent + cost > budget:
            continue
        spent += cost
        chain = chains[chain_index]
        chain.write()
        for original, op in zip(ops, chain.ops):
            recorder.begin_op(next_op)
            _, problem = run_op(op)
            pairs.append((original, next_op, op, problem))
            next_op += 1
    return pairs


def compare_counts(records: list[Record], pairs, counts: dict) -> list[str]:
    """Replayed ops whose exact counts or known-answer check differ."""
    import spans

    mismatches = []
    for original, again, op, problem in pairs:
        first = dict(counts.get(original, spans.NO_COUNTS),
                     artifact_bits=op_artifact_bits(records[original].op))
        second = dict(counts.get(again, spans.NO_COUNTS), artifact_bits=op_artifact_bits(op))
        if first != second or problem is not None:
            mismatches.append(f"op {original} {op.kind} {op.label}: {first} then {second}"
                              + (f", replay {problem}" if problem else ""))
    return mismatches


def all_workloads(args) -> None:
    """Run every workload in its own child process and print one summary."""
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            fail(f"workload {name} failed: {child.stderr.strip()[-500:]}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_checkout()
    if args.workload == "all":
        all_workloads(args)
        return
    load_at_start = [round(v, 2) for v in os.getloadavg()]
    spec = load_spec()
    if args.trace:
        per_layer(args, spec, load_at_start)
    else:
        end_to_end(args, spec, load_at_start)


if __name__ == "__main__":
    main()
