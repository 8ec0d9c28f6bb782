"""Tests of the benchmark itself: tracing, counters, gate, failure modes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the checkout's src/ on sys.path
import rootlink
from checks import check_report
from reference import MATRIX, ReferenceClock, invert
from spans import Tracer
from workloads import (
    CATERPILLAR_SIZES,
    RANDOM_STRICT_SIZES,
    DocumentWorkload,
    SelftestWorkload,
    balanced_tree,
    caterpillar_tree,
)

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = [m["name"] for m in MANIFEST["per_layer"]]
# Computed by run.py from two passes, not by the tracer.
RUN_LEVEL = {"trace.overhead_per_s"}
# Only the self-test multiplies matrices and checks Neumann sums.
SELFTEST_ONLY = {
    "kernels.matmul_int.calls",
    "kernels.matmul_int.order3_sum",
    "inverse.neumann_check.calls",
}
COUNTER_SUFFIXES = (".calls", "dup_calls", "order3_sum", "max_bits", "misses", "order_max")

TINY = {
    "random-strict": DocumentWorkload("random-strict", balanced_tree, (8, 12, 16)),
    "caterpillar": DocumentWorkload("caterpillar", caterpillar_tree, (5, 9)),
    "selftest-mixed": SelftestWorkload("selftest-mixed", 12, 10),
}


def traced(name: str, seed: int, tmp: Path) -> tuple[dict, run.PassStats]:
    workload = TINY[name]
    with Tracer() as tracer:
        stats = run.run_pass(workload, workload.items(seed, 0), tmp, tracer)
    return tracer.metrics(), stats


def traced_counters(seed: int, tmp: Path) -> dict:
    """Every counter of every tiny workload, keyed ``workload/metric``."""
    out = {}
    for name in TINY:
        metrics, _ = traced(name, seed, tmp)
        for metric, value in metrics.items():
            if metric.endswith(COUNTER_SUFFIXES):
                out[f"{name}/{metric}"] = value
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_is_nonzero_where_exercised(name, tmp_path):
    metrics, stats = traced(name, 3, tmp_path)
    assert stats.failed == 0, stats.problems
    assert [m for m in PER_LAYER if m not in RUN_LEVEL and m not in metrics] == []
    skip = RUN_LEVEL | (set() if name == "selftest-mixed" else SELFTEST_ONLY)
    zero = [m for m in PER_LAYER if m not in skip and not metrics[m]]
    assert zero == []


def test_full_matrix_is_inverted_twice_per_report(tmp_path):
    metrics, stats = traced("random-strict", 1, tmp_path)
    assert metrics["kernels.inverse_scaled.dup_calls"] >= stats.attempted


def test_wrappers_reach_every_import_site_and_are_removed():
    original = rootlink.roots.roots_structural
    with Tracer():
        for module in (rootlink.roots, rootlink.report, rootlink.links, rootlink.selftest):
            assert module.roots_structural is not original
        assert rootlink.kernels.inverse_scaled.__wrapped__ is not None
    for module in (rootlink.roots, rootlink.report, rootlink.links, rootlink.selftest):
        assert module.roots_structural is original
    assert not hasattr(rootlink.kernels.inverse_scaled, "__wrapped__")


def test_counters_repeat_exactly_across_processes(tmp_path):
    code = (
        "import json, sys; from pathlib import Path; "
        f"sys.path.insert(0, {str(HERE)!r}); import test_perfbench as t; "
        "print(json.dumps(t.traced_counters(5, Path(sys.argv[1]))))"
    )
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    assert results[0] == results[1]
    assert results[0] == traced_counters(5, tmp_path)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_output_matches_untraced(name, tmp_path):
    workload = TINY[name]
    items = workload.items(7, 0)
    plain = run.run_pass(workload, items, tmp_path)
    _, stats = traced(name, 7, tmp_path)
    assert plain.failed == 0 and stats.failed == 0
    assert plain.digest == stats.digest


def test_gate_accepts_a_report_and_rejects_corruptions(tmp_path):
    workload = TINY["random-strict"]
    item = workload.items(2, 0)[1]
    result = workload.run(item, tmp_path)
    text = result.output.decode()
    assert check_report(text, item.document) == []

    doc = json.loads(text)
    bad = json.loads(text)
    bad["inverse"][0][1] = "1/7" if doc["inverse"][0][1] != "1/7" else "1/8"
    assert any("identity" in p for p in check_report(json.dumps(bad), item.document))

    bad = json.loads(text)
    bad["roots"] = bad["roots"][1:] if bad["roots"] else bad["leaves"][:1]
    assert any("roots differ" in p for p in check_report(json.dumps(bad), item.document))

    bad = json.loads(text)
    bad["mu"][0] = str(-1 - int(bad["mu"][0].split("/")[0]))
    assert any("mu is not" in p for p in check_report(json.dumps(bad), item.document))

    assert check_report("not json", item.document)


def test_caterpillar_shape():
    tree = caterpillar_tree(9)
    assert tree.leaf_order == tuple(str(i) for i in range(1, 10))
    assert tree.fixed_leaf == "9"
    assert max(tree.depth(leaf) for leaf in tree.leaf_order) == 8


def test_seed_draws_values_and_round_draws_shapes():
    workload = TINY["random-strict"]
    a, b = workload.items(1, 0), workload.items(2, 0)
    assert [x.document for x in a] == [x.document for x in workload.items(1, 0)]
    for x, y in zip(a, b):
        assert x.document != y.document
        assert [n["id"] for n in json.loads(x.document)["nodes"]] == [
            n["id"] for n in json.loads(y.document)["nodes"]
        ]


@pytest.mark.parametrize("sizes", [RANDOM_STRICT_SIZES, CATERPILLAR_SIZES])
def test_percentiles_fall_inside_one_size(sizes):
    ordered = sorted(sizes)
    n = len(ordered)
    assert list(sizes) != ordered
    assert ordered[n // 2 - 5] == ordered[n // 2 - 1] == ordered[n // 2] == ordered[n // 2 + 4]
    tail = n - 11
    assert ordered[tail - 4] == ordered[tail] == ordered[tail + 4]
    assert ordered[tail] > ordered[n // 2]


def test_tail_latency_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(24)]
    value, percentile = run.tail_latency(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100 * 14 / 24)


def test_reference_computes_the_inverse():
    inverse = invert(MATRIX)
    n = len(MATRIX)
    product = [[sum(MATRIX[i][k] * inverse[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_reference_clock_divides_by_the_bracketing_samples(monkeypatch):
    samples = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr("reference.reference_seconds", lambda: next(samples))
    clock = ReferenceClock(spacing=5.0)
    refs: list = []
    clock.add(refs, 3.0)
    assert refs == [None]
    clock.add(refs, 6.0)  # 9 s of work since the first sample: sample (4.0)
    clock.add(refs, 2.5)
    clock.sample()  # 1.0
    assert refs == [1.0, 2.0, 1.0]
    assert clock.pending == []


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selftest-mixed",
         "--seed", "4", "--seconds", "0.5", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_manifest_matches_the_code():
    assert MANIFEST["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in MANIFEST["workloads"]} == set(TINY)
    assert any(m["name"] == "setup_s" for m in MANIFEST["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-strict",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
