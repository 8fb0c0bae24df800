"""Seeded workload generator for the zollab benchmark.

Each workload turns a seed into one run manifest. The seed draws manifold
parameters only: launch count, mesh size, analyses and launch strategy are
fixed per workload, so the amount of work does not depend on the seed. The
program under test receives only the manifest; the expectations returned
next to it are the benchmark's own ground truth and are never passed on.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verb: str                       # "certify" or "analyze", as on the command line
    launches: int
    mesh_size: int
    analyses: tuple
    rows: tuple                     # theorem_rows checks that must be present and pass
    skipped_rows: tuple = ()        # rows the requested analyses cannot decide
    truth_checks: tuple = ()        # ground_truth.checks keys that must be present
    params: dict = field(default_factory=dict)   # name -> (lo, hi) drawn from the seed


BASE_ROWS = ("constant_length", "orthogonal_arrival", "component_bound")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ball3-index",
            why="3-ball with all analyses: dense index-form assembly and eigensolves "
                "dominate, no deck maps, and the CLI re-solves the index form for "
                "spectrum.csv",
            verb="analyze", launches=64, mesh_size=512, analyses=("all",),
            rows=BASE_ROWS + ("index_two_ways", "midpoint_focal", "max_degeneracy",
                              "soul_dimension", "fiber_structure", "metric_splitting",
                              "slice_symmetry"),
            truth_checks=("verdict", "half_length", "index", "components", "soul_dim"),
            params={"radius": (0.8, 1.25)}),
        Workload(
            name="torus-quotient",
            why="twisted solid torus with soul and slices: deck-image point clouds "
                "(arrival pairing, slice Hausdorff) dominate and Jacobi work is absent",
            verb="analyze", launches=156, mesh_size=256,
            analyses=("certify", "soul", "slices"),
            rows=BASE_ROWS + ("slice_symmetry",),
            # the soul dimension check needs the index from the jacobi analysis;
            # the soul dimension is checked through ground_truth.checks instead
            skipped_rows=("soul_dimension",),
            truth_checks=("verdict", "half_length", "components", "soul_dim"),
            params={"rotation": (math.pi / 8.0, 7.0 * math.pi / 8.0)}),
        Workload(
            name="inline-cap-sweep",
            why="inline sympy spherical cap, certify only: the geodesic sweep through "
                "lambdified metric callables dominates and sympy is needed at set-up",
            verb="certify", launches=512, mesh_size=256, analyses=("certify",),
            rows=BASE_ROWS,
            truth_checks=("verdict", "half_length", "components"),
            params={"half_length": (0.50, 0.55)}),
    )
}


def _draw(workload: Workload, seed: int):
    rng = random.Random(f"{workload.name}:{seed}")
    return {k: rng.uniform(lo, hi) for k, (lo, hi) in sorted(workload.params.items())}


def _inline_cap(L):
    """Stereographic chart of the unit 2-sphere cut to a cap of geodesic radius L."""
    rc = math.tan(L / 2.0)
    conformal = "4/(1 + x0**2 + x1**2)**2"
    return {"inline": {
        "name": f"inline_cap(L={L!r})",
        "dimension": 2,
        "metric": {"kind": "expression",
                   "entries": [[conformal, "0"], ["0", conformal]]},
        "boundary": {"expression": f"({rc!r}**2 - x0**2 - x1**2)/(2*{rc!r})"},
        "domain": {"lo": [-3.0 * rc, -3.0 * rc], "hi": [3.0 * rc, 3.0 * rc]},
        "deck_maps": [],
        "boundary_patches": [{"name": "rim", "dim": 1,
                              "point": [f"{rc!r}*cos(2*pi*u0)", f"{rc!r}*sin(2*pi*u0)"],
                              "periodic": [True]}],
        "scale_hint": 2.0 * L,
        "annotations": {"zoll": True, "half_length": L, "components": 1},
    }}


def generate(name: str, seed: int):
    """Return (manifest dict, expected annotations) for one workload and seed.

    The annotations are the closed-form ground truth the correctness gate
    compares the report against.
    """
    w = WORKLOADS[name]
    p = _draw(w, seed)
    if name == "ball3-index":
        r = p["radius"]
        manifold = {"catalog": "euclidean_ball", "params": {"n": 3, "radius": r}}
        expected = {"zoll": True, "half_length": r, "index": 2, "components": 1,
                    "soul_dim": 0, "dimension": 3}
    elif name == "torus-quotient":
        # rotation 0 would take the identity-isometry path, which the range excludes
        manifold = {"catalog": "solid_torus",
                    "params": {"radius": 1.0, "rotation": p["rotation"]}}
        expected = {"zoll": True, "half_length": 1.0, "index": 1, "components": 1,
                    "soul_dim": 1, "dimension": 3}
    else:
        L = p["half_length"]
        manifold = _inline_cap(L)
        expected = dict(manifold["inline"]["annotations"], dimension=2)
    manifest = {
        "manifold": manifold,
        "launches": w.launches,
        "seed": int(seed),
        "strategy": "uniform",
        "analyses": list(w.analyses),
        "mesh_size": w.mesh_size,
        "tolerances": {},
        "out_dir": "out",
    }
    return manifest, expected
