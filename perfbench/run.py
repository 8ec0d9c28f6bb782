#!/usr/bin/env python3
"""rootlink benchmark: certified-report and self-test throughput.

Run from the repository root:

    python3 perfbench/run.py --workload random-strict --seed 1 --seconds 25 --trace 0

The workload runs in this process on a closed loop, one document or one
self-test case at a time, with no threads.  Its first round of inputs is
timed; the run then repeats whole rounds (new inputs, same sizes) until
about ``--seconds`` of timed work is done.  Every item's wall time is also
expressed in *refs*, units of a fixed reference computation timed beside
the items (``reference.py``), so that the host's changing speed cancels
out.  Throughput and latency percentiles in refs are computed per round and
reported as the median over rounds, so a faster commit that fits in more
rounds is measured on the same per-round mix.  The report digest covers
round 0.  Every output passes a correctness gate outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the first
round untraced and then traced, and prints the per-layer metrics (the
metric names and units are read from ``BENCHMARK.json``).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans from a traced run are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import ReferenceClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))

# The pure-Python kernels; a run on another backend is not comparable.
REFERENCE_BACKEND = "python"
SAMPLE_SPEC = "specs/six_leaf.json"
SETUP_REPEATS = 9
# Seconds of timed work between two runs of the reference computation.
REFERENCE_SPACING = 0.1
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import rootlink.cli; "
    f"sys.exit(rootlink.cli.main(['report', '{SAMPLE_SPEC}']))"
)
TAIL_BEYOND = 10


@dataclass
class PassStats:
    """Timings and outcomes of one pass over a list of items."""

    seconds: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # the same times in refs, when measured
    failed: int = 0
    skipped: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.seconds)


def run_pass(workload, items, workdir: Path, tracer=None, gate: bool = True,
             between=None) -> PassStats:
    """Run ``items`` one at a time; ``between(stats)`` runs untimed after each."""
    stats = PassStats()
    digest = hashlib.sha256()
    for item in items:
        if tracer is not None:
            tracer.start_request(item.index)
        result = workload.run(item, workdir)
        stats.seconds.append(result.seconds)
        stats.skipped += result.skipped
        digest.update(result.output)
        problems = list(result.problems)
        if gate and not problems:
            problems = workload.check(item, result)
        if problems:
            stats.failed += 1
            stats.problems.extend(problems)
        if between is not None:
            between(stats)
    stats.digest = digest.hexdigest()
    return stats


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class SetupTimer:
    """Wall time of fresh interpreters that import rootlink and report once.

    Samples are taken at spread-out points of the run, so that their median
    is not decided by one slow spell of the machine.
    """

    def __init__(self, check_report):
        self.check_report = check_report
        self.sample = (ROOT / SAMPLE_SPEC).read_text(encoding="utf-8")
        self.times: list[float] = []
        self.problems: list[str] = []

    def measure(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            self.problems.append(
                f"set-up report exited {proc.returncode}: {proc.stderr.strip()[:300]}"
            )
        else:
            self.problems.extend(
                f"set-up report: {p}" for p in self.check_report(proc.stdout, self.sample)
            )


def load_rootlink():
    """The rootlink package under ``src/`` of this checkout, or an error text."""
    try:
        import rootlink
    except ImportError as exc:
        return None, f"cannot import rootlink from {SRC}: {exc}"
    where = Path(rootlink.__file__).resolve()
    if SRC not in where.parents:
        return None, f"imported rootlink from {where}, not from {SRC}"
    return rootlink, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rootlink, error = load_rootlink()
    if rootlink is None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    # These import rootlink, so they load only after the check above.
    from checks import check_report
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    backend = getattr(rootlink, "BACKEND", REFERENCE_BACKEND)
    problems: list[str] = []
    if backend != REFERENCE_BACKEND:
        problems.append(f"kernel backend {backend!r} is not {REFERENCE_BACKEND!r}; run invalid")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        if args.trace:
            metrics, passes = traced_run(workload, args.seed, workdir, Tracer, problems)
            wanted = manifest["per_layer"]
        else:
            metrics, passes = untraced_run(workload, args, workdir, check_report, problems)
            wanted = manifest["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if hasattr(workload, "check_corpus"):
        problems.extend(workload.check_corpus())

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems.extend(p.problems)
    print(f"backend: {backend}")
    print(f"failed_frac: {failed / attempted} ({failed} of {attempted}, "
          f"{sum(p.skipped for p in passes)} singular lax draws skipped)")
    for problem in problems[:20]:
        print(f"PROBLEM: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


def round_metrics(samples: list[float]) -> tuple[float, float, float]:
    """(items per unit of time, p50, tail) of one round's item times."""
    return len(samples) / sum(samples), statistics.median(samples), tail_latency(samples)[0]


def over_rounds(rounds: list[list[float]]) -> tuple[float, float, float]:
    """``round_metrics``, each the median over ``rounds``.

    Every round has the same size mix, so each one estimates every metric;
    the median over rounds is not moved by one slow round.
    """
    per_round = [round_metrics(samples) for samples in rounds]
    return tuple(statistics.median(column) for column in zip(*per_round))


def untraced_run(workload, args, workdir: Path, check_report, problems: list[str]):
    setup = SetupTimer(check_report)
    setup_spacing = args.seconds / SETUP_REPEATS
    clock = ReferenceClock(REFERENCE_SPACING)
    timed = 0.0

    def between(stats: PassStats) -> None:
        nonlocal timed
        clock.add(stats.refs, stats.seconds[-1])
        timed += stats.seconds[-1]
        # One set-up sample each time another 1/SETUP_REPEATS of the run's
        # timed work is done.
        if len(setup.times) < SETUP_REPEATS and timed >= len(setup.times) * setup_spacing:
            setup.measure()

    setup.measure()
    passes: list[PassStats] = []
    # Whole rounds until about --seconds of timed work is done, however the
    # host's speed changes during the run.
    while not passes or timed + timed / len(passes) / 2 < args.seconds:
        passes.append(
            run_pass(workload, workload.items(args.seed, len(passes)), workdir, between=between)
        )
    clock.sample()
    first, rounds = passes[0], len(passes)
    while len(setup.times) < SETUP_REPEATS:
        setup.measure()
    problems.extend(setup.problems)
    setup_s = statistics.median(setup.times)
    per_ref, p50_ref, tail_ref = over_rounds([p.refs for p in passes])
    per_s, p50_s, tail_s = over_rounds([p.seconds for p in passes])
    metrics = {
        "throughput_per_ref": per_ref,
        "latency_p50_ref": p50_ref,
        "latency_tail_ref": tail_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    unit = workload.unit
    total_items = sum(p.attempted for p in passes)
    total_seconds = sum(sum(p.seconds) for p in passes)
    percentile = tail_latency(first.seconds)[1]
    print(f"workload: {workload.name}  seed: {args.seed}  rounds: {rounds} of "
          f"{first.attempted}  {unit}: {total_items} in {total_seconds:.3f} s timed")
    print(f"ref: {statistics.median(clock.samples) * 1000} ms (median of "
          f"{len(clock.samples)} reference runs, from {min(clock.samples) * 1000} "
          f"to {max(clock.samples) * 1000} ms)")
    print(f"{unit}_per_ref: {per_ref} 1/ref ({per_s} 1/s)")
    print(f"{unit}_p50_ref: {p50_ref} ref ({p50_s * 1000} ms)")
    print(f"{unit}_tail_ref: {tail_ref} ref ({tail_s * 1000} ms; p{percentile:.1f} of each "
          f"round's {first.attempted} samples, {TAIL_BEYOND} beyond)")
    print("  (each the median over rounds)")
    print(f"peak_rss_mb: {metrics['peak_rss_mb']} MiB")
    print(f"setup_s: {setup_s} s (median of {SETUP_REPEATS} fresh interpreters)")
    print(f"report_digest: {first.digest} (round 0)")
    return metrics, passes


def traced_run(workload, seed: int, workdir: Path, tracer_class, problems: list[str]):
    items = workload.items(seed, 0)
    plain = run_pass(workload, items, workdir)
    tracer = tracer_class()
    with tracer:
        traced = run_pass(workload, items, workdir, tracer, gate=False)
    if traced.digest != plain.digest:
        problems.append(f"traced digest {traced.digest} != untraced digest {plain.digest}")
    metrics = tracer.metrics()
    plain_rate = plain.attempted / sum(plain.seconds)
    traced_rate = traced.attempted / sum(traced.seconds)
    metrics["trace.overhead_per_s"] = traced_rate - plain_rate
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    print(f"workload: {workload.name}  seed: {seed}  traced: {traced.attempted} {workload.unit}")
    print(f"untraced {plain_rate} 1/s, traced {traced_rate} 1/s, "
          f"overhead {metrics['trace.overhead_per_s']} 1/s")
    print(f"report_digest: {plain.digest} (untraced) {traced.digest} (traced)")
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    return metrics, [plain, traced]


if __name__ == "__main__":
    sys.exit(main())
