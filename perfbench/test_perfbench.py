"""Tests of the benchmark's own arithmetic, gates and sampler.

Run with ``python -m pytest perfbench``; they take a few seconds.
"""
from __future__ import annotations

import hashlib
import json

import pytest

import run
from spans import TARGETS, SpanLog, Tracer, span_name
from workloads import ROOT, import_arcalg, sample_pairs, table_gate, witness_gate

arc_algebra, cli, cohomology, diagrams, ktheory = import_arcalg()


def test_self_times_of_nested_spans():
    log = SpanLog()
    a, b, c = (log.name_id(n) for n in "abc")
    root = log.record(a, 0.0, 10.0, -1)       # a: 10 s, children cover 3 + 4
    log.record(b, 1.0, 4.0, root)             # b: 3 s, leaf
    mid = log.record(c, 5.0, 9.0, root)       # c: 4 s, child covers 1
    inner = log.record(a, 6.0, 7.0, mid)      # a again (recursion): 1 s, child 0.5
    log.record(b, 6.25, 6.75, inner)          # b: 0.5 s, leaf
    times = log.self_times()
    assert times["a"] == (2, pytest.approx(3.0 + 0.5))
    assert times["b"] == (2, pytest.approx(3.0 + 0.5))
    assert times["c"] == (1, pytest.approx(3.0))
    total = sum(s for _, s in times.values())
    assert total == pytest.approx(10.0)  # self times partition the root span


def test_tracer_sees_calls_inside_the_package_and_restores_names():
    w, v = diagrams.Weight("v^v^"), diagrams.Weight("vv^^")
    want = cohomology.poincare(w, v, shifted=True)
    originals = (cohomology.poincare, cohomology.weight_to_m, diagrams.weight_to_m)
    tracer = Tracer()
    tracer.install()
    try:
        got = cohomology.poincare(w, v, shifted=True)
    finally:
        tracer.uninstall()
    assert got == want
    assert (cohomology.poincare, cohomology.weight_to_m, diagrams.weight_to_m) == originals
    times = tracer.log.self_times()
    assert times["cohomology.poincare"][0] == 1
    assert times["diagrams.weight_to_m"][0] == 2  # called via cohomology's own binding
    assert times["diagrams.glue"][0] == 1


def test_table_gate_rejects_a_tampered_table(tmp_path):
    text = arc_algebra.structure_table(diagrams.Shape(4, 2), 1).to_json()
    digest = hashlib.sha256(text.encode()).hexdigest()
    path = tmp_path / "table.json"
    path.write_text(text + "\n")
    assert table_gate(path, digest) is None
    path.write_text(text.replace('"alpha": 1', '"alpha": -1') + "\n")
    assert "sha256" in table_gate(path, digest)
    path.write_text(text)
    assert "newline" in table_gate(path, digest)


def test_witness_gate_accepts_a_real_witness_only():
    res = arc_algebra.check_associativity(diagrams.Shape(4, 2), -1)
    assert not res.ok
    assert witness_gate(arc_algebra, diagrams, res.witness) is None
    x = diagrams.Weight("v^v^")
    e = f"[{x}|{x}|{x}]"
    associating = f"a={e} b={e} c={e}: (ab)c=1 != a(bc)=-1"
    assert "associates" in witness_gate(arc_algebra, diagrams, associating)
    bad_orient = f"a=[{x}|{x}|vv^^] b={e} c={e}: (ab)c=1 != a(bc)=-1"
    assert "not a basis element" in witness_gate(arc_algebra, diagrams, bad_orient)
    assert "unparsable" in witness_gate(arc_algebra, diagrams, None)
    assert "unparsable" in witness_gate(arc_algebra, diagrams, "a=1 b=2 c=3")


def test_sampler_depends_on_the_seed_only():
    weights = diagrams.enumerate_weights(diagrams.Shape(10, 5))
    first = sample_pairs(weights, 7, 200)
    assert first == sample_pairs(weights, 7, 200)
    assert first != sample_pairs(weights, 8, 200)
    assert len(set(first)) == 200
    assert all(w.shape() == v.shape() == diagrams.Shape(10, 5) for w, v in first)


def test_reported_metrics_are_the_ones_benchmark_json_declares():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    process = {"setup_s": 0.1, "run_s": 2.0, "ops": 10, "ops_s": 1.0, "peak_rss_mb": 40.0}
    e2e = run.end_to_end_metrics([process])
    assert {k: u for k, (_, u) in e2e.items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    traced = {"layers": {"diagrams.glue": [3, 0.5]}, "run_s": 2.5, "ops": 1, "nonempty": 0,
              "cache_entries": {"basis": 4, "diagram_of": 4}}
    layers = run.layer_metrics({"run_s": 2.0}, traced)
    assert {k: u for k, (_, u) in layers.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers["diagrams.glue.calls"][0] == 3
    assert layers["trace.overhead_s"][0] == pytest.approx(0.5)
    traced_names = {span_name(m, a) for m, a in TARGETS}
    assert set(run.LAYER_CALLS) | set(run.LAYER_SELF) <= traced_names
