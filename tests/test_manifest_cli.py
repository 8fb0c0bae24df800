import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import zollab.cli
import zollab.engine
import zollab.jacobi
from zollab.cli import main, run, theorem_matrix, theorem_rows
from zollab.engine import (
    first_return_map,
    launch_count,
    nearest_exact_launch_counts,
    sample_boundary,
    shoot,
)
from zollab.jacobi import assemble_index_form, index_form_spectrum, integrate_jacobi_frame
from zollab.manifest import (
    ManifestError,
    RunManifest,
    expression_metric,
    load_manifold,
)
from zollab.verifier import Tolerances, ZollReport, build_soul, certify

INLINE_ELLIPSE = {
    "inline": {
        "name": "inline-ellipse",
        "dimension": 2,
        "metric": {"kind": "expression", "entries": [["1", "0"], ["0", "1"]]},
        "boundary": {"expression": "(1 - x0**2/4 - x1**2)/2"},
        "domain": {"lo": [-4.0, -2.0], "hi": [4.0, 2.0]},
        "boundary_patches": [
            {"name": "rim", "dim": 1, "point": ["2*cos(2*pi*u0)", "sin(2*pi*u0)"],
             "periodic": [True]},
        ],
        "scale_hint": 2.0,
        "annotations": {"zoll": False},
    }
}

INLINE_CYLINDER = {
    "inline": {
        "name": "inline-cylinder",
        "dimension": 2,
        "metric": {"kind": "expression", "entries": [["1", "0"], ["0", "1"]]},
        "boundary": {"expression": "x0*(2 - x0)/2"},
        "domain": {"lo": [-1.0, -0.5], "hi": [3.0, 1.5]},
        "deck_maps": [{"kind": "translation", "axis": 1, "period": 1.0}],
        "boundary_patches": [
            {"name": "bottom", "dim": 1, "point": ["0", "u0"], "periodic": [True]},
            {"name": "top", "dim": 1, "point": ["2", "u0"], "periodic": [True]},
        ],
        "scale_hint": 2.0,
        "annotations": {"zoll": True, "half_length": 1.0, "index": 0, "components": 2},
    }
}


def tilted_strip(case):
    """A strip 0 < x0 < 2 with a constant metric whose orthogonal geodesics
    are straight lines tilted along the x1 faces, with the deck map of
    ``case``: "crossings", a translation of period 0.02 along them, or
    "flip", a flip that sends them out of M, where b has a negative minimum."""
    if case == "crossings":
        boundary, period = "x0*(2 - x0)/2", 0.02
        deck = {"kind": "translation", "axis": 1, "period": period}
    else:
        boundary, period = "x0*(2 - x0)*(x0 + 1)/2", 0.5
        deck = {"kind": "flip_translation", "axis": 1, "period": period, "flip_axis": 0}
    return {"inline": {
        "name": "tilted-strip", "dimension": 2,
        "metric": {"kind": "expression", "entries": [["1", "0.5"], ["0.5", "1"]]},
        "boundary": {"expression": boundary},
        "domain": {"lo": [-3.0, -1.0], "hi": [3.0, 1.0]},
        "deck_maps": [deck],
        "boundary_patches": [
            {"name": side, "dim": 1, "point": [x0, f"{period}*u0"], "periodic": [True]}
            for side, x0 in (("bottom", "0"), ("top", "2"))],
        "scale_hint": 2.0}}


class TestExpressionManifolds:
    def test_inline_ellipse_matches_catalog(self):
        spec = load_manifold(INLINE_ELLIPSE)
        p = np.array([2 * np.cos(0.9), np.sin(0.9)])
        path = shoot(spec, p)
        from zollab.catalog import make_example
        ref = shoot(make_example("ellipse"), p)
        assert path.return_time == pytest.approx(ref.return_time, abs=1e-9)
        assert np.allclose(path.arrival_point, ref.arrival_point, atol=1e-9)

    def test_inline_ellipse_refuted(self):
        spec = load_manifold(INLINE_ELLIPSE)
        rep = certify(spec, 64)
        assert rep.verdict == "refuted"
        assert rep.ground_truth["all_match"]

    def test_inline_cylinder_certifies(self):
        spec = load_manifold(INLINE_CYLINDER)
        rep = certify(spec, 64, analyses=("certify", "jacobi"))
        assert rep.verdict == "certified"
        assert rep.component_count == 2
        assert rep.index_focal == 0
        assert rep.ground_truth["all_match"]
        # straight chart segments measure the distance only on built-in charts;
        # the component bound then rests on the component count
        assert rep.intercomponent_distance is None
        assert any("intercomponent distance not applicable" in d for d in rep.diagnostics)
        rows = {r["check"]: r for r in theorem_rows(rep, spec, Tolerances())}
        assert rows["component_bound"]["passed"]

    def test_expression_metric_derivative(self):
        met = expression_metric([["1 + x1**2", "0"], ["0", "1"]], 2)
        x = np.array([0.3, 0.7])
        dg = met.derivative(x)
        assert dg[1, 0, 0] == pytest.approx(2 * 0.7, abs=1e-12)
        assert np.allclose(dg[0], 0.0)

    def test_catalog_fragment(self):
        spec = load_manifold({"catalog": "flat_disk", "params": {"radius": 2.0}})
        assert spec.annotations["half_length"] == 2.0

    def test_bad_fragment(self):
        with pytest.raises(ManifestError):
            load_manifold({"neither": 1})


class TestRunManifest:
    def test_from_dict_defaults(self):
        m = RunManifest.from_dict({"manifold": {"catalog": "flat_disk", "params": {}}})
        assert m.launches == 64 and m.seed == 0 and m.analyses == ("certify",)

    def test_validation(self):
        base = {"manifold": {"catalog": "flat_disk", "params": {}}}
        with pytest.raises(ManifestError, match="unknown analyses"):
            RunManifest.from_dict(dict(base, analyses=["bogus"]))
        with pytest.raises(ManifestError, match="positive"):
            RunManifest.from_dict(dict(base, tolerances={"length_rel": -1.0}))
        with pytest.raises(ManifestError, match="strategy"):
            RunManifest.from_dict(dict(base, strategy="sobol?"))

    def test_roundtrip(self, tmp_path):
        m = RunManifest(manifold={"catalog": "ellipse", "params": {}}, launches=48,
                        seed=3, analyses=("certify",), out_dir="x")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(m.to_dict()))
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == m.to_dict()


class TestCLI:
    def test_catalog_verb(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "flat_disk" in out and "ellipse" in out

    def test_emit_manifests(self, tmp_path, capsys):
        assert main(["catalog", "--emit-manifests", str(tmp_path)]) == 0
        files = sorted(os.listdir(tmp_path))
        assert "flat_disk.json" in files
        m = RunManifest.load(tmp_path / "flat_disk.json")
        assert m.manifold["catalog"] == "flat_disk"

    def test_certify_example_writes_artifacts(self, tmp_path):
        code = main(["certify", "--example", "flat_disk", "--out", str(tmp_path),
                     "--launches", "64"])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["verdict"] == "certified"
        assert (tmp_path / "geodesics.csv").exists()
        assert (tmp_path / "sweep.json").exists()

    def test_analyze_writes_soul_and_spectrum(self, tmp_path):
        code = main(["analyze", "--example", "flat_moebius", "--out", str(tmp_path),
                     "--launches", "64"])
        assert code == 0
        assert (tmp_path / "soul.csv").exists()
        assert (tmp_path / "spectrum.csv").exists()
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["soul"]["dimension"] == 1

    def test_artifacts_hold_what_a_fresh_computation_gives(self, tmp_path):
        manifest = RunManifest(manifold={"catalog": "flat_disk", "params": {}},
                               launches=64, analyses=("all",))
        code, _ = run(manifest, out_dir=str(tmp_path), quiet=True)
        assert code == 0
        spec = load_manifold(manifest.manifold)
        tol = Tolerances()
        launches = sample_boundary(spec, manifest.launches, strategy=manifest.strategy,
                                   seed=manifest.seed)
        sweep = first_return_map(spec, launches, rtol=tol.rtol, atol=tol.atol)
        path = sweep.paths[0]
        frame = integrate_jacobi_frame(spec, path, rtol=tol.rtol, atol=tol.atol)
        mat = assemble_index_form(spec, frame, manifest.mesh_size)
        dof = mat.stiffness.shape[0]

        rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
        assert rows.shape == (dof, 2)
        assert np.array_equal(rows[:, 0], np.arange(dof))
        assert np.all(np.diff(rows[:, 1]) >= 0.0)
        assert np.array_equal(rows[:, 1], index_form_spectrum(mat, n_lowest=dof))
        soul = np.loadtxt(tmp_path / "soul.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(soul, build_soul(spec, sweep, tol).points)

    def test_expected_refutation_exits_zero(self, tmp_path):
        assert main(["certify", "--example", "ellipse", "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["verdict"] == "refuted"

    def test_contradiction_exits_one(self, tmp_path):
        # inline ellipse annotated as Zoll: refutation contradicts the annotation
        doc = json.loads(json.dumps(INLINE_ELLIPSE))
        doc["inline"]["annotations"] = {"zoll": True}
        manifest = {"manifold": doc, "launches": 64, "out_dir": str(tmp_path)}
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        assert main(["certify", "--manifest", str(mpath)]) == 1

    def test_low_launch_count_usage_error(self):
        assert main(["certify", "--example", "flat_disk", "--launches", "8"]) == 2

    def test_inexact_launch_count_usage_error(self, capsys):
        # a uniform grid on the 3-ball's sphere holds 30 of 32 launches
        manifest = RunManifest(manifold={"catalog": "euclidean_ball", "params": {"n": 3}},
                               launches=32)
        code, report = run(manifest, out_dir="", quiet=True)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert "gives 30 launches when asked for 32" in err
        assert "nearest counts it gives exactly: 36" in err
        assert main(["certify", "--example", "euclidean_ball", "--launches", "130"]) == 2
        assert "121, 132" in capsys.readouterr().err
        # an inline chart without boundary patches has no launches to give
        doc = json.loads(json.dumps(INLINE_ELLIPSE))
        del doc["inline"]["boundary_patches"]
        assert run(RunManifest(manifold=doc), out_dir="", quiet=True) == (2, None)
        assert "gives 0 launches when asked for 64" in capsys.readouterr().err

    def test_unknown_example_usage_error(self, capsys):
        assert main(["certify", "--example", "wormhole"]) == 2
        # the message itself, not the repr a KeyError's str() gives
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown catalog example 'wormhole'; known: ellipse, euclidean_ball, "
            "flat_band, flat_disk, flat_moebius, index_ladder, solid_torus, spherical_band, "
            "spherical_cap"]

    @pytest.mark.parametrize("g11,message", [
        # indefinite on part of the rim: the launch normals name the metric
        ("1 - x0**2/2", "error: metric of 'radius-2-disk' is not positive definite at "
                        "[1.99759091 0.09813535]"),
        # definite near the rim, indefinite at the centre: the flows cannot step on
        ("1 - 3*exp(-4*(x0**2 + x1**2))/2", "error: integration failed on 'radius-2-disk'"),
    ])
    def test_chart_and_integration_failures_exit_run_failed(self, g11, message, tmp_path,
                                                            capsys):
        # a disk of radius 2 whose metric is not positive definite everywhere
        # the geodesics go: one error line, exit 3 (not CHECK_FAILED), no report
        doc = {"inline": {
            "name": "radius-2-disk", "dimension": 2,
            "metric": {"kind": "expression", "entries": [[g11, "0"], ["0", "1"]]},
            "boundary": {"expression": "(4 - x0**2 - x1**2)/4"},
            "domain": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0]},
            "boundary_patches": [{"name": "rim", "dim": 1, "periodic": [True],
                                  "point": ["2*cos(2*pi*u0)", "2*sin(2*pi*u0)"]}],
            "scale_hint": 2.0}}
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"manifold": doc, "launches": 64,
                                     "out_dir": str(tmp_path / "out")}))
        assert main(["certify", "--manifest", str(mpath)]) == zollab.cli.RUN_FAILED == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("boundary,rim,message", [
        # b = 0 on the unit circle, where grad b vanishes too
        ("(1 - x0**2 - x1**2)**3", "", "error: boundary gradient vanishes at "
         "[0.99879546 0.04906767] (not a regular value of b on 'unit-disk')"),
        # a rim of radius 2 around the unit circle: the Newton steps stop short
        ("(1 - x0**2 - x1**2)/2", "2*", "error: launch point [0.99909997 0.04908263] "
                                        "not on the boundary of 'unit-disk'"),
    ])
    def test_irregular_or_missed_boundary_exits_run_failed(self, boundary, rim, message,
                                                           tmp_path, capsys):
        # one error line, exit 3, no report; a warning would fail the test
        doc = {"inline": {
            "name": "unit-disk", "dimension": 2,
            "metric": {"kind": "expression", "entries": [["1", "0"], ["0", "1"]]},
            "boundary": {"expression": boundary},
            "domain": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0]},
            "boundary_patches": [{"name": "rim", "dim": 1, "periodic": [True],
                                  "point": [f"{rim}cos(2*pi*u0)", f"{rim}sin(2*pi*u0)"]}],
            "scale_hint": 2.0}}
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"manifold": doc, "launches": 64,
                                     "out_dir": str(tmp_path / "out")}))
        assert main(["certify", "--manifest", str(mpath)]) == zollab.cli.RUN_FAILED
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("case,message", [
        # a translation of period 0.02 along the tilted geodesics, which cross
        # it about 100 times between the two sides
        ("crossings", "error: too many deck crossings on 'tilted-strip' (runaway trajectory?)"),
        # a flip that sends the geodesics out of M, where b has a negative
        # minimum: named at the crossing, not where the flow is next cut
        ("flip", "error: deck map 'ft1-' of 'tilted-strip' sends a flow out of M, "
                 "to [-0.03125  0.5    ] where b = -0.0307"),
    ])
    def test_runaway_and_stray_flows_exit_run_failed(self, case, message, tmp_path, capsys,
                                                     monkeypatch):
        if case == "crossings":
            monkeypatch.setattr(zollab.engine, "MAX_CHUNKS", 10)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"manifold": tilted_strip(case), "launches": 32,
                                     "out_dir": str(tmp_path / "out")}))
        assert main(["certify", "--manifest", str(mpath)]) == zollab.cli.RUN_FAILED
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("params,message", [
        ({"radius": -1.0}, "radius must be > 0"),
        ({"diameter": 2.0}, "unknown parameters ['diameter']"),
    ])
    def test_bad_example_parameters_usage_error(self, params, message, tmp_path, capsys):
        manifold = {"catalog": "flat_disk", "params": params}
        assert run(RunManifest(manifold=manifold), out_dir="", quiet=True) == (2, None)
        assert message in capsys.readouterr().err
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"manifold": manifold, "out_dir": ""}))
        assert main(["certify", "--manifest", str(mpath)]) == 2
        assert message in capsys.readouterr().err

    def test_tolerance_names_are_fields(self, tmp_path, capsys):
        # a method of Tolerances is not a tolerance
        doc = {"manifold": {"catalog": "flat_disk", "params": {}},
               "tolerances": {"to_dict": 1.0}, "out_dir": ""}
        with pytest.raises(ManifestError, match="unknown tolerance 'to_dict'"):
            run(RunManifest.from_dict(doc), quiet=True)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        assert main(["certify", "--manifest", str(mpath)]) == 2
        assert "unknown tolerance 'to_dict'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        ({"mesh_size": 8, "analyses": ["jacobi"]}, "mesh_size must be at least 16"),
        ({"mesh_size": "abc"}, "mesh_size must be an integer, not 'abc'"),
        ({"launches": 32.7}, "launches must be an integer, not 32.7"),
        ({"seed": True}, "seed must be an integer, not True"),
        ({"boundary": "(1 - x0**2 - "}, "cannot parse expression '(1 - x0**2 - '"),
        ({"boundary": "x0*(2 - x2)/2"}, "'x0*(2 - x2)/2' is not an expression in x0, x1"),
        ({"point": "u0(2)"}, "cannot parse expression 'u0(2)'"),
        ({"point": "f(u0)"}, "'f(u0)' is not an expression in u0"),
        ({"entries": [["1", "0"]]}, "metric entries must be a 2 x 2 nested list"),
        ({"inline": {"dimension": "abc"}}, "dimension must be an integer >= 2, not 'abc'"),
        ({"inline": {"dimension": 2.5}}, "dimension must be an integer >= 2, not 2.5"),
        ({"inline": {"domain": {"lo": [-1.0], "hi": [3.0, 1.5]}}},
         "domain lo must be a list of 2 numbers"),
        ({"inline": {"deck_maps": [{"kind": "translation", "axis": 5, "period": 1.0}]}},
         "deck map axis must be an integer in 0..1, not 5"),
        ({"inline": {"deck_maps": [{"kind": "flip_translation", "axis": 1, "period": 1.0,
                                    "flip_axis": -1}]}},
         "deck map flip_axis must be an integer in 0..1, not -1"),
        ({"inline": {"deck_maps": [{"kind": "translation", "axis": 1, "period": "one"}]}},
         "deck map period must be a positive number, not 'one'"),
        ({"seed": -1, "strategy": "low-discrepancy"}, "seed must be non-negative, not -1"),
        ({"inline": {"scale_hint": "abc"}}, "scale_hint must be a positive number, not 'abc'"),
        ({"inline": {"boundary_patches": [{"dim": "abc", "point": ["0", "u0"]}]}},
         "patch dim must be an integer in 1..1, not 'abc'"),
        ({"inline": {"boundary_patches": [{"dim": 1, "point": ["u0"]}]}},
         "patch point must be a list of 2 expressions"),
        ({"tolerances": {"length_rel": True}},
         "tolerance 'length_rel' must be a positive number, not True"),
        ({"tolerances": {"orthogonality": float("inf")}},
         "tolerance 'orthogonality' must be finite, not inf"),
        ({"text": "manifold: flat_disk"},
         "run manifest is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ({"text": "[1]"}, "run manifest must be a JSON object, not list"),
        ({"tolerances": [1]}, "tolerances must be a JSON object, not [1]"),
        ({"manifold": {"catalog": "flat_disk", "params": []}},
         "params must be a JSON object, not []"),
        ({"manifold": {"inline": 5}}, "inline must be a JSON object, not 5"),
        ({"manifold": 5}, "manifold must be a JSON object, not 5"),
        ({"out_dir": 5}, "out_dir must be a string, not 5"),
        ({"text": '{"launches": 32}'}, "run manifest needs a 'manifold' object"),
        ({"analyses": "certify"}, "analyses must be a list of names, not 'certify'"),
        ({"text": json.dumps({"manifold": {"inline": {
            k: v for k, v in INLINE_CYLINDER["inline"].items() if k != "metric"}}})},
         "inline needs a 'metric' entry"),
        ({"text": json.dumps({"manifold": {"inline": {
            k: v for k, v in INLINE_CYLINDER["inline"].items() if k != "domain"}}})},
         "inline needs a 'domain' entry"),
        ({"inline": {"boundary": "x0*(2 - x0)/2"}},
         "boundary must be a JSON object, not 'x0*(2 - x0)/2'"),
        ({"inline": {"boundary_patches": [{"dim": 1}]}}, "boundary patch needs a 'point' entry"),
        # a misspelled or misplaced key would otherwise be ignored, and the run
        # would differ from the one asked for
        ({"launch": 128, "analysis": ["all"]},
         "run manifest has unknown keys ['analysis', 'launch']"),
        ({"manifold": {"catalog": "flat_disk", "params": {}, "inline": INLINE_CYLINDER["inline"]}},
         "catalog manifold has unknown keys ['inline']"),
        ({"manifold": {"inline": INLINE_CYLINDER["inline"], "params": {}}},
         "inline manifold has unknown keys ['params']"),
        ({"manifold": {"catalg": "flat_disk"}},
         "manifold manifest needs a 'catalog' or 'inline' key, not ['catalg']"),
        ({"inline": {"deck_map": [{"kind": "translation", "axis": 1, "period": 1.0}]}},
         "inline chart has unknown keys ['deck_map']"),
        ({"inline": {"deck_maps": [{"kind": "translation", "axis": 1, "period": 1.0,
                                    "flip_axis": 0}]}},
         "deck map has unknown keys ['flip_axis']"),
        ({"inline": {"deck_maps": [{"knd": "translation", "axis": 1, "period": 1.0}]}},
         "deck map has unknown keys ['knd']"),
        ({"inline": {"boundary_patches": [{"dim": 1, "point": ["0", "u0"], "periodc": [True]}]}},
         "boundary patch has unknown keys ['periodc']"),
        ({"inline": {"metric": {"kind": "builtin", "name": "euclidean", "entries": []}}},
         "metric has unknown keys ['entries']"),
        ({"inline": {"boundary": {"expression": "x0*(2 - x0)/2", "eps": 1e-9}}},
         "boundary has unknown keys ['eps']"),
        ({"inline": {"domain": {"lo": [-1.0, -0.5], "hi": [3.0, 1.5], "periodic": [1]}}},
         "domain has unknown keys ['periodic']"),
        # a field of the wrong type would otherwise end in a traceback, or run
        # under a name, a set of flags or notes the manifest did not give
        ({"inline": {"deck_maps": 5}}, "inline chart deck_maps must be a list, not 5"),
        ({"inline": {"boundary_patches": 5}},
         "inline chart boundary_patches must be a list, not 5"),
        ({"inline": {"annotations": 5}}, "annotations must be a JSON object, not 5"),
        ({"inline": {"name": 5}}, "inline chart name must be a string, not 5"),
        ({"inline": {"chart_notes": ["flat"]}},
         "inline chart chart_notes must be a string, not ['flat']"),
        ({"inline": {"boundary_patches": [{"dim": 1, "point": ["0", "u0"], "periodic": "yes"}]}},
         "patch periodic must be a list of 1 booleans, not 'yes'"),
        ({"inline": {"boundary_patches": [{"dim": 1, "point": ["0", "u0"],
                                           "periodic": [True, False]}]}},
         "patch periodic must be a list of 1 booleans, not [True, False]"),
        ({"inline": {"boundary_patches": [{"dim": 1, "point": ["0", "u0"], "name": 5}]}},
         "boundary patch name must be a string, not 5"),
        ({"inline": {"deck_maps": [{"kind": "translation", "axis": 1, "period": 1.0,
                                    "name": None}]}},
         "deck map name must be a string, not None"),
        # an annotation of the wrong type would end in a traceback from the
        # comparison with the report, or be read as another value
        ({"inline": {"annotations": {"zoll": "no"}}},
         "annotation 'zoll' must be a boolean, not 'no'"),
        ({"inline": {"annotations": {"zoll": 1}}}, "annotation 'zoll' must be a boolean, not 1"),
        ({"inline": {"annotations": {"half_length": "1.0"}}},
         "annotation 'half_length' must be a positive number, not '1.0'"),
        ({"inline": {"annotations": {"half_length": 0}}},
         "annotation 'half_length' must be a positive number, not 0"),
        ({"inline": {"annotations": {"half_length": float("inf")}}},
         "annotation 'half_length' must be a positive number, not inf"),
        ({"inline": {"annotations": {"half_length": True}}},
         "annotation 'half_length' must be a positive number, not True"),
        ({"inline": {"annotations": {"index": 1.0}}},
         "annotation 'index' must be a non-negative integer, not 1.0"),
        ({"inline": {"annotations": {"components": -1}}},
         "annotation 'components' must be a non-negative integer, not -1"),
        ({"inline": {"annotations": {"soul_dim": None}}},
         "annotation 'soul_dim' must be a non-negative integer, not None"),
        ({"inline": {"annotations": {"components": True}}},
         "annotation 'components' must be a non-negative integer, not True"),
        # a number JSON reads back as inf would run on NaN arithmetic
        ({"inline": {"scale_hint": float("inf")}}, "scale_hint must be a positive number, not inf"),
        ({"inline": {"deck_maps": [{"kind": "translation", "axis": 1, "period": float("inf")}]}},
         "deck map period must be a positive number, not inf"),
        # a flip of the translated axis would send a face point past the other face
        ({"inline": {"deck_maps": [{"kind": "flip_translation", "axis": 1, "period": 1.0,
                                    "flip_axis": 1}]}},
         "deck map flip_axis must differ from its axis 1"),
        # a catalog parameter of another type than its default's would run
        # another example (n 2.5 as 2, true as 1), a NaN rotation certified
        ({"manifold": {"catalog": "solid_torus", "params": {"rotation": float("nan")}}},
         "parameter 'rotation' of 'solid_torus' must be a finite number, not nan"),
        ({"manifold": {"catalog": "euclidean_ball", "params": {"n": 2.5}}},
         "parameter 'n' of 'euclidean_ball' must be an integer, not 2.5"),
        ({"manifold": {"catalog": "euclidean_ball", "params": {"n": True}}},
         "parameter 'n' of 'euclidean_ball' must be an integer, not True"),
        ({"manifold": {"catalog": "flat_disk", "params": {"radius": "1"}}},
         "parameter 'radius' of 'flat_disk' must be a finite number, not '1'"),
        ({"manifold": {"catalog": "flat_disk", "params": {"radius": True}}},
         "parameter 'radius' of 'flat_disk' must be a finite number, not True"),
        # a chart of dimension 1 or a point patch: no launch count is exact
        ({"inline": {"dimension": 1}}, "dimension must be an integer >= 2, not 1"),
        ({"inline": {"boundary_patches": [{"dim": 0, "point": ["0", "u0"]}]}},
         "patch dim must be an integer in 1..1, not 0"),
        ({"manifold": {"catalog": "euclidean_ball", "params": {"n": 1}}},
         "parameter violates example validity: need n >= 2, radius > 0"),
        # an expression, or a derivative of one, that has no numpy code, calls
        # a name numpy does not define or a math function, which takes no
        # stack of points: refused at load, not at the first call of its code
        ({"boundary": "x0*(2 - x0)/2 + LambertW(x1)/100"}, "boundary entry "
         "x0*(2 - x0)/2 + LambertW(x1)/100 needs 'LambertW', which numpy does not define"),
        ({"point": "besselj(1, u0)"}, "patch 'bottom' point entry besselj(1, u0) needs "
                                      "'besselj', which numpy does not define"),
        ({"entries": [["1 + gamma(x0 + 3)/100", "0"], ["0", "1"]]},
         "metric jet entry gamma(x0 + 3)/100 + 1 needs math.gamma, which takes no arrays"),
        ({"entries": [["1 + loggamma(x0 + 3)/100", "0"], ["0", "1"]]},
         "metric jet entry loggamma(x0 + 3)/100 + 1 needs math.lgamma, which takes no arrays"),
        ({"boundary": "x0*(2 - x0)/2 + sign(x1)/100"}, "boundary gradient entry "
         "DiracDelta(x1)/50 needs 'DiracDelta', which numpy does not define"),
        ({"boundary": "x0*(2 - x0)/2 + Heaviside(x1)/100"}, "boundary gradient entry "
         "DiracDelta(x1)/100 needs 'DiracDelta', which numpy does not define"),
        ({"boundary": "x0*(2 - x0)/2 + floor(x1)/100"},
         "boundary gradient entry Derivative(floor(x1), x1)/100 has no numpy code"),
        ({"entries": [["1 + zeta(x0 + 3)/100", "0"], ["0", "1"]]}, "metric jet entry "
         "Subs(Derivative(zeta(_xi_1), _xi_1), _xi_1, x0 + 3)/100 has no numpy code"),
        ({"boundary": "x0*(2 - x0)/2 + erf(x1)/100"}, "boundary entry "
         "x0*(2 - x0)/2 + erf(x1)/100 needs math.erf, which takes no arrays"),
    ])
    def test_malformed_manifest_usage_error(self, edit, message, tmp_path, capsys):
        inline = json.loads(json.dumps(INLINE_CYLINDER["inline"]))
        inline.update(edit.pop("inline", {}))
        if "boundary" in edit:
            inline["boundary"]["expression"] = edit.pop("boundary")
        if "point" in edit:
            inline["boundary_patches"][0]["point"][0] = edit.pop("point")
        if "entries" in edit:
            inline["metric"]["entries"] = edit.pop("entries")
        text = edit.pop("text", None)
        doc = dict({"manifold": {"inline": inline}, "launches": 32, "out_dir": ""}, **edit)
        mpath = tmp_path / "m.json"
        # json writes an infinite float as Infinity, which json reads back
        mpath.write_text(json.dumps(doc) if text is None else text)
        assert main(["analyze", "--manifest", str(mpath)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unusable_hessian_is_refused_on_certify(self, tmp_path, capsys):
        # certify never reads the boundary Hessian, but every compiled entry
        # is checked at load: |x1|'s second derivative is a DiracDelta
        inline = json.loads(json.dumps(INLINE_CYLINDER["inline"]))
        inline["boundary"]["expression"] = "x0*(2 - x0)/2 + Abs(x1)/100"
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"manifold": {"inline": inline}, "launches": 32,
                                     "out_dir": str(tmp_path / "out")}))
        assert main(["certify", "--manifest", str(mpath)]) == zollab.cli.USAGE_ERROR
        assert capsys.readouterr().err == ("error: boundary Hessian entry DiracDelta(x1)/50 "
                                           "needs 'DiracDelta', which numpy does not define\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "seed must be non-negative, not -1"),
        (["--tol-len", "0", "--tol-orth", "0"],
         "tolerance 'length_rel' must be a positive number, not 0.0"),
        (["--tol-len", "-1", "--tol-orth", "-1"],
         "tolerance 'length_rel' must be a positive number, not -1.0"),
        (["--tol-orth", "nan"], "tolerance 'orthogonality' must be a positive number, not nan"),
        (["--tol-len", "inf"], "tolerance 'length_rel' must be finite, not inf"),
    ])
    def test_flags_pass_the_manifest_checks(self, flags, message, tmp_path, capsys):
        doc = {"manifold": {"catalog": "flat_disk", "params": {}},
               "strategy": "low-discrepancy", "out_dir": ""}
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        assert main(["certify", "--manifest", str(mpath)] + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_no_arguments_usage_error(self, capsys):
        assert main([]) == 2
        assert main(["certify"]) == 2

    def test_empty_matrix_usage_error(self):
        assert main(["matrix"]) == 2

    def test_matrix_unknown_catalog_usage_error(self, capsys):
        manifests = [RunManifest(manifold={"catalog": "wormhole", "params": {}})]
        assert theorem_matrix(manifests, quiet=True) == (2, [])
        assert "wormhole" in capsys.readouterr().err

    def test_matrix_builds_each_manifold_once(self, monkeypatch):
        calls = []
        load = zollab.cli.load_manifold
        monkeypatch.setattr(zollab.cli, "load_manifold", lambda doc: calls.append(doc) or load(doc))
        manifests = [RunManifest(manifold={"catalog": "flat_disk", "params": {}}, launches=32,
                                 analyses=("certify",))]
        _, rows = theorem_matrix(manifests, quiet=True)
        assert rows and len(calls) == 1

    def test_matrix_takes_the_tolerance_flags(self, capsys):
        # loose enough to certify the non-Zoll ellipse, which its control row refuses
        assert main(["matrix", "--example", "ellipse", "--launches", "32",
                     "--tol-len", "10", "--tol-orth", "10"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL")]
        assert len(fails) == 1 and "refutation_control" in fails[0]

    def test_catalog_defaults_take_the_flags(self, tmp_path, capsys):
        # the built-in matrix goes through the flags as --manifest does: at
        # their default values they change nothing, a length tolerance no
        # spread meets fails constant_length, and 32 launches are no count the
        # 3-ball's sampling gives exactly
        runs = []
        for flags in ([], ["--seed", "0", "--tol-len", "1e-8", "--tol-orth", "1e-7"]):
            out = tmp_path / f"run{len(runs)}"
            assert main(["matrix", "--catalog-defaults", "--out", str(out)] + flags) == 0
            runs.append((capsys.readouterr().out, (out / "matrix.json").read_text()))
        assert runs[0] == runs[1]
        assert runs[0][0].endswith("\n69/69 checks passed\n")

        assert main(["matrix", "--catalog-defaults", "--tol-len", "1e-30"]) == 1
        fails = [line.split()[2] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL")]
        assert fails and set(fails) == {"constant_length"}

        assert main(["matrix", "--catalog-defaults", "--launches", "32"]) == 2
        ball = load_manifold(zollab.cli.DEFAULT_MATRIX[5]["manifold"])
        below, above = nearest_exact_launch_counts(ball, 32)
        assert below < 32
        assert capsys.readouterr().err == (
            f"error: uniform sampling of {ball.name} gives {launch_count(ball, 32)} launches "
            f"when asked for 32; nearest counts it gives exactly: {above}\n")

    def test_matrix_rows_and_exit(self, tmp_path):
        manifest = {"manifold": {"catalog": "flat_moebius", "params": {}},
                    "launches": 64, "analyses": ["all"], "mesh_size": 256}
        mpath = tmp_path / "mo.json"
        mpath.write_text(json.dumps(manifest))
        code = main(["matrix", "--manifest", str(mpath), "--out", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "matrix.json").read_text())
        checks = {r["check"] for r in rows}
        assert {"constant_length", "orthogonal_arrival", "component_bound",
                "index_two_ways", "soul_dimension", "fiber_structure",
                "metric_splitting", "slice_symmetry"} <= checks
        assert all(r["passed"] for r in rows)

    @pytest.mark.parametrize("example", ["flat_moebius", "ellipse"])
    def test_theorem_rows_from_the_written_report(self, example, tmp_path):
        # a reader of report.json (the benchmark gate) gets the rows of the live
        # run back with a spec that has only a name, annotations and a dimension
        manifest = RunManifest(manifold={"catalog": example, "params": {}}, analyses=("all",))
        spec = load_manifold(manifest.manifold)
        _, report = run(manifest, out_dir=str(tmp_path), quiet=True)
        live = theorem_rows(report, spec, Tolerances())
        doc = json.loads((tmp_path / "report.json").read_text())
        bare = SimpleNamespace(name=doc["name"], annotations=spec.annotations,
                               dimension=spec.dimension)
        assert theorem_rows(ZollReport(**doc), bare, Tolerances(**doc["tolerances"])) == live
        assert len(live) == (10 if example == "flat_moebius" else 1)


class TestDeterminism:
    def test_report_bytes_reproducible(self, tmp_path):
        manifest = RunManifest(manifold={"catalog": "flat_moebius", "params": {}},
                               launches=64, seed=11, analyses=("all",))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(manifest, out_dir=str(d1), quiet=True)
        run(manifest, out_dir=str(d2), quiet=True)
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()

    def test_seed_changes_low_discrepancy_report(self):
        m = RunManifest(manifold={"catalog": "ellipse", "params": {}}, launches=48,
                        strategy="low-discrepancy", analyses=("certify",))
        _, rep5 = run(RunManifest(**{**m.__dict__, "seed": 5}), out_dir="", quiet=True)
        _, rep5b = run(RunManifest(**{**m.__dict__, "seed": 5}), out_dir="", quiet=True)
        _, rep9 = run(RunManifest(**{**m.__dict__, "seed": 9}), out_dir="", quiet=True)
        assert rep5.to_dict() == rep5b.to_dict()
        assert rep5.orthogonality_max != rep9.orthogonality_max


class TestBuiltinMetricKinds:
    def test_builtin_sphere_metric_inline(self):
        # a cap described inline with the builtin round-sphere chart metric
        L = np.pi / 6
        rc = float(np.tan(L / 2))
        doc = {"inline": {
            "name": "inline-cap", "dimension": 2,
            "metric": {"kind": "builtin", "name": "stereographic_sphere"},
            "boundary": {"expression": f"({rc**2} - x0**2 - x1**2)/{2*rc}"},
            "domain": {"lo": [-3 * rc, -3 * rc], "hi": [3 * rc, 3 * rc]},
            "boundary_patches": [{"name": "rim", "dim": 1,
                                  "point": [f"{rc}*cos(2*pi*u0)", f"{rc}*sin(2*pi*u0)"],
                                  "periodic": [True]}],
            "scale_hint": 2 * L,
            "annotations": {"zoll": True, "half_length": L, "index": 1},
        }}
        spec = load_manifold(doc)
        rep = certify(spec, 64, analyses=("certify", "jacobi"), n_index_spots=2)
        assert rep.verdict == "certified"
        assert rep.half_length == pytest.approx(L, abs=1e-9)
        assert rep.index_focal == 1

    def test_unknown_builtin_rejected(self):
        doc = {"inline": {"name": "x", "dimension": 2,
                          "metric": {"kind": "builtin", "name": "hyperbolic"},
                          "boundary": {"expression": "1 - x0**2 - x1**2"},
                          "domain": {"lo": [-2, -2], "hi": [2, 2]}}}
        with pytest.raises(ManifestError, match="unknown builtin metric"):
            load_manifold(doc)


def test_catalog_run_loads_neither_sympy_nor_scipy_stats():
    # sympy is needed only for inline charts, scipy.stats only for
    # low-discrepancy sampling; both are slow to import
    code = ("import sys, zollab.cli\n"
            "from zollab.manifest import load_manifold\n"
            "load_manifold({'catalog': 'solid_torus', 'params': {}})\n"
            "print([m for m in ('sympy', 'scipy.stats') if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(zollab.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "[]\n"


def test_runs_load_no_scipy(tmp_path):
    # a catalog analyze with every analysis and an inline certify, artifacts
    # written, take nothing from scipy: the RK45 tableau is zollab.rk45's,
    # the components are numpy's and LAPACK is numpy's OpenBLAS. Only
    # low-discrepancy sampling imports scipy (scipy.stats.qmc.Halton), and
    # LAPACK from scipy where numpy's wheel has none (zollab.jacobi._bind_lapack)
    if zollab.jacobi._numpy_openblas() is None:
        pytest.skip("numpy bundles no OpenBLAS here; LAPACK comes from scipy")
    code = ("import sys, zollab.cli\n"
            "from zollab.manifest import RunManifest\n"
            f"out = {str(tmp_path)!r}\n"
            "for name, doc, analyses in [\n"
            "        ('catalog', {'catalog': 'euclidean_ball', 'params': {'n': 3}}, ('all',)),\n"
            f"        ('inline', {INLINE_ELLIPSE!r}, ('certify',))]:\n"
            "    zollab.cli.run(RunManifest(doc, launches=64, analyses=analyses),\n"
            "                   out_dir=out + '/' + name, quiet=True)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(zollab.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout == "[]\n"
    for name, artifacts in (("catalog", {"report.json", "geodesics.csv", "sweep.json",
                                         "soul.csv", "spectrum.csv"}),
                            ("inline", {"report.json", "geodesics.csv", "sweep.json"})):
        assert set(os.listdir(tmp_path / name)) == artifacts


def test_workload_runs_load_no_unused_numpy_module(tmp_path):
    # np.unique, np.setdiff1d and np.median look numpy.ma up, which imports
    # it; np.random draws the mapping torus's isometry points; lambdify's
    # numpy namespace star-imports numpy, whose __all__ names numpy.ma,
    # numpy.f2py, numpy.testing (and through it unittest) and numpy.random.
    # The package does none of them, so seed 1 of each benchmark workload,
    # set up and run with artifacts written, leaves all of them unloaded
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    code = ("import sys, zollab.cli\n"
            f"sys.path.insert(0, {bench!r})\n"
            "from workloads import WORKLOADS, generate\n"
            "from zollab.manifest import RunManifest\n"
            "for name in WORKLOADS:\n"
            "    manifest = RunManifest.from_dict(generate(name, 1)[0])\n"
            f"    code, _ = zollab.cli.run(manifest, out_dir={str(tmp_path)!r} + '/' + name,\n"
            "                             quiet=True)\n"
            "    assert code == 0, name\n"
            "print(sorted(set(sys.modules) & {'numpy.ma', 'numpy.f2py', 'numpy.testing',\n"
            "                                 'numpy.random', 'unittest'}))\n")
    src = os.path.dirname(os.path.dirname(zollab.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout == "[]\n"
    assert sorted(os.listdir(tmp_path)) == ["ball3-index", "inline-cap-sweep", "torus-quotient"]
