"""Tests of the benchmark's own code: generator, correctness gate, span arithmetic.

    PYTHONPATH=src python -m pytest -q bench/tests
"""
import copy
import dataclasses
import json
import os

import pytest

from conftest import ROOT
from gate import check_report
from run import SPAN_METRICS, _gate_all, _unit, layer_metrics, tail_percentile
from spans import Tracer, aggregate, install, layer_seconds
from workloads import WORKLOADS, _draw, generate


# ---------------------------------------------------------------------------
# generator

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert generate(name, 7) == generate(name, 7)
    assert generate(name, 7) != generate(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_draws_manifold_parameters_only(name):
    w = WORKLOADS[name]
    fixed = []
    for seed in range(20):
        for key, value in _draw(w, seed).items():
            lo, hi = w.params[key]
            assert lo <= value <= hi
        doc = generate(name, seed)[0]
        fixed.append({k: v for k, v in doc.items() if k not in ("manifold", "seed")})
    assert all(f == fixed[0] for f in fixed)
    assert (fixed[0]["launches"], fixed[0]["mesh_size"], fixed[0]["strategy"],
            tuple(fixed[0]["analyses"])) == (w.launches, w.mesh_size, "uniform", w.analyses)


def test_inline_cap_manifest_builds_with_annotations():
    from zollab.manifest import RunManifest, load_manifold

    manifest, expected = generate("inline-cap-sweep", 3)
    m = RunManifest.from_dict(json.loads(json.dumps(manifest)))
    spec = load_manifold(m.manifold)
    assert spec.annotations == {"zoll": True, "half_length": expected["half_length"],
                                "components": 1}
    rim = spec.boundary_patches[0].points([[0.0], [0.25]])
    assert all(abs(spec.boundary.value(p)) < 1e-12 for p in rim)


# ---------------------------------------------------------------------------
# correctness gate, on a real report of a reduced ball workload

SMALL_BALL = dataclasses.replace(WORKLOADS["ball3-index"], launches=36, mesh_size=64)


@pytest.fixture(scope="module")
def ball_report(tmp_path_factory):
    import zollab.cli
    from zollab.manifest import RunManifest

    manifest, expected = generate("ball3-index", 0)
    manifest.update(launches=SMALL_BALL.launches, mesh_size=SMALL_BALL.mesh_size)
    out = tmp_path_factory.mktemp("ball")
    code, _ = zollab.cli.run(RunManifest.from_dict(manifest), out_dir=str(out), quiet=True)
    raw = (out / "report.json").read_bytes()
    return code, json.loads(raw), expected, RunManifest.from_dict(manifest)


def test_gate_accepts_the_real_report(ball_report):
    code, doc, expected, _ = ball_report
    assert check_report(SMALL_BALL, doc, code, expected) == []


def test_gate_rejects_a_flipped_verdict(ball_report):
    code, doc, expected, _ = ball_report
    bad = copy.deepcopy(doc)
    bad["verdict"] = "refuted"
    breaches = check_report(SMALL_BALL, bad, code, expected)
    assert any("verdict" in b for b in breaches)
    assert any("constant_length" in b for b in breaches)


def test_gate_rejects_a_failing_slice_row(ball_report):
    code, doc, expected, _ = ball_report
    bad = copy.deepcopy(doc)
    bad["slices"][1]["passed"] = False
    breaches = check_report(SMALL_BALL, bad, code, expected)
    assert breaches and all("slice_symmetry" in b for b in breaches)


def test_gate_rejects_a_short_launch_count(ball_report):
    code, doc, expected, _ = ball_report
    bad = copy.deepcopy(doc)
    bad["n_launches"] = SMALL_BALL.launches - 6
    assert any("n_launches" in b for b in check_report(SMALL_BALL, bad, code, expected))


def test_gate_rejects_exit_code_and_ground_truth(ball_report):
    code, doc, expected, _ = ball_report
    bad = copy.deepcopy(doc)
    bad["ground_truth"]["all_match"] = False
    del bad["ground_truth"]["checks"]["soul_dim"]
    breaches = check_report(SMALL_BALL, bad, 1, expected)
    assert "exit code 1" in breaches
    assert "ground_truth.all_match is not true" in breaches
    assert any("'soul_dim'" in b for b in breaches)


def test_gate_rejects_a_missing_analysis(ball_report):
    code, doc, expected, _ = ball_report
    bad = copy.deepcopy(doc)
    bad["splitting"] = None
    assert any("metric_splitting" in b and "missing" in b
               for b in check_report(SMALL_BALL, bad, code, expected))


def test_report_identity_across_repetitions():
    def reps(*digests):
        return [{"report_sha256": d, "breaches": []} for d in digests]
    assert _gate_all(reps("a", "a", "a")) == 0
    assert _gate_all(reps("a", "b", "a")) == 1
    assert _gate_all(reps(None, None)) == 2      # no report written at all


# ---------------------------------------------------------------------------
# spans and self times

def _span(i, name, start, end, parent):
    return [i, name, start, end, parent, 0]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(0, "cli.run", 0.0, 10.0, None),
        _span(1, "verifier.certify", 1.0, 4.0, 0),
        _span(2, "engine.first_return_map", 5.0, 9.0, 0),
        _span(3, "engine.sample_boundary", 6.0, 7.0, 2),
        _span(4, "verifier.certify", 4.5, 5.0, 0),
        _span(5, "jacobi.focal_instants", 1.5, 2.0, 1),
        _span(6, "jacobi.focal_instants", 1.6, 1.8, 5),   # nested in itself
    ]
    agg = aggregate(spans)
    assert agg["cli.run"] == {"s": 10.0, "self_s": pytest.approx(2.5), "calls": 1}
    assert agg["verifier.certify"] == {"s": 3.5, "self_s": pytest.approx(3.0), "calls": 2}
    assert agg["engine.first_return_map"]["self_s"] == pytest.approx(3.0)
    assert agg["engine.sample_boundary"]["self_s"] == pytest.approx(1.0)
    # inclusive time counts the outermost span only; self times still add up
    assert agg["jacobi.focal_instants"] == {"s": pytest.approx(0.5),
                                            "self_s": pytest.approx(0.5), "calls": 2}
    total_self = sum(e["self_s"] for e in agg.values())
    assert total_self == pytest.approx(10.0)
    assert layer_seconds(spans, "engine") == pytest.approx(4.0)
    assert layer_seconds(spans, "jacobi", within="verifier.certify") == pytest.approx(0.5)
    assert layer_seconds(spans, "jacobi", within="engine.first_return_map") == 0.0


def test_tracer_records_nesting_and_counters():
    ticks = iter(range(100))
    tracer = Tracer(rep_id=3, clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    counted = tracer.counter("leaf", leaf, timed=True)
    outer = tracer.span("outer", lambda: counted(1) + tracer.span("inner", counted)(2))
    assert outer() == 5
    names = [(s[1], s[4], s[5]) for s in tracer.records()]
    assert names == [("outer", None, 3), ("inner", 0, 3)]
    assert tracer.counts["leaf.calls"] == 2
    assert tracer.counts["leaf.s"] == 2.0


def test_install_traces_names_where_they_are_looked_up(ball_report, tmp_path):
    import zollab.cli

    _, _, _, manifest = ball_report
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        code, _ = zollab.cli.run(manifest, out_dir=str(tmp_path), quiet=True)
    finally:
        uninstall()
    assert code == 0
    agg = aggregate(tracer.records())
    by_id = {s[0]: s for s in tracer.records()}
    parents = {(s[1], by_id[s[4]][1]) for s in tracer.records() if s[4] is not None}
    assert ("verifier.certify", "cli.run") in parents
    assert ("engine.first_return_map", "cli.run") in parents
    assert ("jacobi.morse_index_quadratic", "verifier.certify") in parents
    assert ("jacobi.index_form_spectrum", "cli.recompute") in parents
    assert ("verifier.build_soul", "cli.recompute") in parents
    assert agg["jacobi.morse_index_quadratic"]["calls"] == 3
    assert agg["engine.first_return_map"]["calls"] == 2      # CLI sweep + splitting sweep
    assert tracer.counts["geometry.christoffel_raw.calls"] > 0
    assert tracer.counts["engine.launches"] == tracer.counts["engine.returned"] > 0
    assert tracer.counts["jacobi.index_dof"] == 3 * (SMALL_BALL.mesh_size + 1) - 2
    assert zollab.cli.certify.__module__ == "zollab.verifier"
    assert zollab.cli.certify is zollab.verifier.certify     # uninstall restored the names


# ---------------------------------------------------------------------------
# reporting

def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(11))) == (100.0 / 11, 0)
    assert tail_percentile(list(range(100))) == (90.0, 89)


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}
    rep = {"cpu_s": 1.0, "run_s": 2.0, "artifact_bytes": 10, "spans": [], "counts": {}}
    values = layer_metrics(rep, dict(rep, run_s=2.5))
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: _unit(name) for name in values}
    assert all(name + ".s" in values for name in SPAN_METRICS)
