"""The benchmark's traced mode against the library: ``bench/spans.py`` rebinds
zollab functions by name, so a renamed or removed function breaks tracing
without failing anything in ``src/``."""
import os
import sys

import zollab.cli
import zollab.engine
import zollab.geometry
from zollab.manifest import RunManifest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
from spans import CLI_RECOMPUTE, SPAN_FUNCTIONS, Tracer, install  # noqa: E402

# the names install() wraps besides the spans of SPAN_FUNCTIONS
COUNTED = {
    zollab.engine: ("solve_ivp", "integrate_flow", "shoot"),
    zollab.geometry: ("christoffel_raw", "curvature_operator_raw"),
    zollab.geometry.MetricField: ("matrix",),
    zollab.geometry.ManifoldSpec: ("deck_images",),
}


def test_traced_certify_finds_every_name(tmp_path):
    for owner, names in COUNTED.items():
        for name in names:
            assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
    for layer, names in SPAN_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(sys.modules[f"zollab.{layer}"], name, None)), \
                f"zollab.{layer}.{name}"
    for name in CLI_RECOMPUTE:
        assert callable(getattr(zollab.cli, name, None)), f"zollab.cli.{name}"

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        code, _ = zollab.cli.run(
            RunManifest(manifold={"catalog": "flat_disk", "params": {}}, launches=32),
            out_dir=str(tmp_path), quiet=True)
    finally:
        uninstall()
    assert code == 0
    assert tracer.counts["geometry.christoffel_raw.calls"] > 0
    assert zollab.engine.christoffel_raw is zollab.geometry.christoffel_raw


def test_traced_jacobi_reads_the_index_form(tmp_path):
    # spans.py reads the dof of each assembled form from its dense view
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        code, _ = zollab.cli.run(
            RunManifest(manifold={"catalog": "flat_disk", "params": {}},
                        analyses=("certify", "jacobi")),
            out_dir=str(tmp_path), quiet=True)
    finally:
        uninstall()
    assert code == 0
    assert tracer.counts["jacobi.index_dof"] == 512          # 2 (256 + 1) - 2
    assert tracer.counts["jacobi.assembled.calls"] == 3
