"""Command-line interface: certify manifolds, run analyses, emit reports.

Verbs:
  certify   run the certification sweep for one manifest
  analyze   run the manifest's requested analyses (default: all)
  catalog   list built-in examples, optionally emitting their manifests
  matrix    one row per (example, theorem check); nonzero exit on any failure

Exit codes: 0 = verdict matches the example's ground truth (certified, or
refuted where the annotation says non-Zoll); 1 = contradiction with the
ground truth, a failed check or an inconclusive verdict; 2 = usage error,
an unusable path among them; 3 = the run failed (the chart is not a
Riemannian chart where the run reached, or the integration failed), with no
verdict.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .catalog import CATALOG, ExampleParameterError, catalog_names, example_manifest
from .engine import IntegrationError, sweep_to_csv, sweep_to_json
from .geometry import ChartError
from .manifest import ManifestError, RunManifest, load_manifold
from .verifier import LaunchCountError, Tolerances, annotation_checks, certify

# Not called here: bench/spans.py looks these names up on this module to time
# any recomputation the CLI does after certify (it does none; spectrum.csv is
# the report form's spectrum, whose solve certify started).
from .jacobi import assemble_index_form, index_form_spectrum, integrate_jacobi_frame  # noqa: F401
from .verifier import build_soul  # noqa: F401

RUN_FAILED = 3
USAGE_ERROR = 2
CHECK_FAILED = 1


def _load_spec(manifest: RunManifest):
    """The manifest's manifold, or None after printing why it cannot be built."""
    try:
        return load_manifold(manifest.manifold)
    except (KeyError, ManifestError, ExampleParameterError) as exc:
        # a KeyError's str() is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return None


def run(manifest: RunManifest, analyses=None, out_dir=None, quiet=False):
    """Execute one manifest; writes report.json and CSV artifacts.

    Returns (exit_code, report).
    """
    spec = _load_spec(manifest)
    if spec is None:
        return USAGE_ERROR, None
    return _run_spec(spec, manifest, analyses, out_dir, quiet)


def _run_spec(spec, manifest: RunManifest, analyses, out_dir, quiet):
    tol = Tolerances(**{key: float(val) for key, val in manifest.tolerances.items()})
    analyses = tuple(analyses or manifest.analyses)
    try:
        report = certify(spec, manifest.launches, tol, seed=manifest.seed,
                         strategy=manifest.strategy, analyses=analyses,
                         mesh_size=manifest.mesh_size)
    except LaunchCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR, None
    except (ChartError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUN_FAILED, None

    # None defers to the manifest; an empty string suppresses artifacts
    out = manifest.out_dir if out_dir is None else out_dir
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, indent=2)
            f.write("\n")
        with open(os.path.join(out, "geodesics.csv"), "w", encoding="utf-8", newline="") as f:
            sweep_to_csv(report.sweep, f)
        with open(os.path.join(out, "sweep.json"), "w", encoding="utf-8") as f:
            json.dump(sweep_to_json(report.sweep), f, indent=2)
            f.write("\n")
        if report.soul_cloud is not None:
            with open(os.path.join(out, "soul.csv"), "w", encoding="utf-8") as f:
                f.write(",".join(f"x{i + 1}" for i in range(spec.dimension)) + "\n")
                for p in report.soul_cloud.points:
                    f.write(",".join(f"{c:.17g}" for c in p) + "\n")
        if report.index_form is not None:
            # the one full spectrum of the run: certify started its solve on a
            # worker thread when it assembled the form; this read waits for it
            with open(os.path.join(out, "spectrum.csv"), "w", encoding="utf-8") as f:
                f.write("index,eigenvalue\n")
                for i, ev in enumerate(report.index_form.eigenvalues):
                    f.write(f"{i},{ev:.17g}\n")

    if not quiet:
        print(f"{spec.name}: verdict={report.verdict}"
              + (f" (reason: {report.reason})" if report.reason else ""))

    # an inconclusive verdict matches no ground truth, though no check applies to it
    matches = (report.ground_truth["all_match"] if report.ground_truth is not None
               else report.verdict == "certified")
    return (0 if matches and report.verdict != "inconclusive" else CHECK_FAILED), report


# ---------------------------------------------------------------------------
# theorem matrix

def theorem_rows(report, spec, tol: Tolerances):
    """Per-theorem pass/fail rows derived from one report."""
    rows = []
    name = spec.name
    ann = spec.annotations
    expected_zoll = bool(ann.get("zoll", True))

    def add(check, passed, detail=""):
        rows.append({"example": name, "check": check, "passed": bool(passed),
                     "detail": detail})

    if not expected_zoll:
        evidence = (report.orthogonality_max or 0.0) >= 1e-3 or \
                   (report.length_spread_rel or 0.0) >= 1e-2
        add("refutation_control", report.verdict == "refuted" and evidence,
            f"verdict={report.verdict}, max_orth={report.orthogonality_max}")
        return rows

    L = report.half_length
    truth = annotation_checks(report, ann)
    add("constant_length",
        report.verdict == "certified"
        and report.length_spread_rel is not None
        and report.length_spread_rel <= tol.length_rel
        and truth.get("half_length", True),
        f"spread_rel={report.length_spread_rel}")
    add("orthogonal_arrival",
        report.orthogonality_max is not None and report.orthogonality_max <= tol.orthogonality,
        f"max={report.orthogonality_max}")

    comp_ok = (report.component_count is not None and report.component_count <= 2
               and report.component_pairing_ok
               and truth.get("components", True))
    if report.component_count == 2:
        comp_ok = comp_ok and report.index_focal in (0, None)
        if report.intercomponent_distance is not None and L is not None:
            comp_ok = comp_ok and abs(report.intercomponent_distance - 2.0 * L) <= 1e-6 * 2.0 * L
    add("component_bound", comp_ok,
        f"count={report.component_count}, intercomp={report.intercomponent_distance}")

    if report.index_focal is not None:
        add("index_two_ways",
            report.index_agreement and truth.get("index", True),
            f"focal={report.index_focal}, quadratic={report.index_quadratic}")

        k = report.index_focal
        if report.component_count == 2 or k == 0:
            add("midpoint_focal", not report.focal_multiplicities,
                f"instants={report.focal_multiplicities}")
        else:
            add("midpoint_focal",
                report.focal_midpoint_residual is not None
                and report.focal_midpoint_residual <= 1e-6 * L
                and report.focal_multiplicities
                and all(m == k for m in report.focal_multiplicities)
                and report.endpoint_focal_warnings == 0,
                f"residual={report.focal_midpoint_residual}, mult={report.focal_multiplicities}")

        add("max_degeneracy",
            report.nullity_estimate is not None
            and report.nullity_estimate >= spec.dimension - 1
            and report.arrival_form_norm is not None
            and report.arrival_form_norm <= 1e-6,
            f"nullity={report.nullity_estimate}, arrival_form={report.arrival_form_norm}")

    if report.soul is not None and report.component_count == 1:
        check = report.soul.get("dimension_check")
        add("soul_dimension", check is not None and check["passed"],
            f"soul={report.soul.get('dimension')}")

    if report.fibers is not None:
        fib = report.fibers
        if report.index_focal == 0:
            lo, hi = fib["cluster_sizes_minmax"]
            ok = (lo == 2 and hi == 2
                  and fib["partner_residual"] is not None
                  and L is not None
                  and fib["partner_residual"] <= tol.partner_rel * L
                  and fib["nontrivial_cover"] == (report.component_count == 1))
            add("fiber_structure", ok,
                f"sizes=[{lo},{hi}], partner={fib['partner_residual']}, "
                f"nontrivial={fib['nontrivial_cover']}")
        elif report.index_focal is not None:
            add("fiber_structure", fib["fiber_dimension"] == report.index_focal,
                f"fiber_dim={fib['fiber_dimension']}")

    if report.splitting is not None:
        add("metric_splitting",
            report.splitting["max_unit_residual"] <= 1e-6
            and report.splitting["max_cross_residual"] <= 1e-6,
            f"unit={report.splitting['max_unit_residual']:.2e}, "
            f"cross={report.splitting['max_cross_residual']:.2e}")

    if report.slices is not None:
        add("slice_symmetry", all(s["passed"] for s in report.slices),
            "; ".join(f"t={s['t_over_L']}L h={s['hausdorff']:.2e}" for s in report.slices))
    return rows


DEFAULT_MATRIX = [
    {"manifold": {"catalog": "flat_disk", "params": {}}, "launches": 128},
    {"manifold": {"catalog": "flat_band", "params": {}}, "launches": 64},
    {"manifold": {"catalog": "flat_moebius", "params": {}}, "launches": 128},
    {"manifold": {"catalog": "spherical_cap", "params": {}}, "launches": 64},
    {"manifold": {"catalog": "spherical_band", "params": {}}, "launches": 64},
    {"manifold": {"catalog": "euclidean_ball", "params": {"n": 3}}, "launches": 64},
    {"manifold": {"catalog": "solid_torus",
                  "params": {"rotation": 2.0 * np.pi / 5.0}}, "launches": 256},
    {"manifold": {"catalog": "ellipse", "params": {}}, "launches": 64},
]


def theorem_matrix(manifests, out_dir=None, quiet=False):
    """Run every manifest with all analyses and tabulate the theorem checks."""
    if not manifests:
        print("error: theorem matrix needs at least one manifest", file=sys.stderr)
        return USAGE_ERROR, []
    all_rows = []
    for m in manifests:
        spec = _load_spec(m)
        if spec is None:
            return USAGE_ERROR, []
        code, report = _run_spec(spec, m, ("all",), "", True)
        if report is None:
            return code, []
        rows = theorem_rows(report, spec, Tolerances(**report.tolerances))
        all_rows.extend(rows)
        if not quiet:
            for row in rows:
                status = "pass" if row["passed"] else "FAIL"
                print(f"{status}  {row['example']:40s} {row['check']:20s} {row['detail']}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "matrix.json"), "w", encoding="utf-8") as f:
            json.dump(all_rows, f, indent=2)
            f.write("\n")
    failed = [r for r in all_rows if not r["passed"]]
    if not quiet:
        print(f"{len(all_rows) - len(failed)}/{len(all_rows)} checks passed")
    return (CHECK_FAILED if failed else 0), all_rows


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p):
    p.add_argument("--manifest", nargs="+", help="path(s) to run-manifest JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--launches", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol-len", type=float, default=None, dest="tol_len")
    p.add_argument("--tol-orth", type=float, default=None, dest="tol_orth")
    p.add_argument("--example", default=None,
                   help="catalog example name (instead of --manifest)")


def _manifests_from_args(args, default_analyses):
    manifests = [RunManifest.from_dict(dict(d, mesh_size=512, analyses=["all"]))
                 for d in DEFAULT_MATRIX if getattr(args, "catalog_defaults", False)]
    if args.example:
        manifests.append(RunManifest(manifold={"catalog": args.example, "params": {}},
                                     analyses=default_analyses))
    for path in args.manifest or []:
        manifests.append(RunManifest.load(path))
    # replace() builds each manifest anew, so the flags pass its checks
    flags = {key: val for key, val in (("launches", args.launches), ("seed", args.seed),
                                       ("out_dir", args.out)) if val is not None}
    tols = {key: val for key, val in (("length_rel", args.tol_len),
                                      ("orthogonality", args.tol_orth)) if val is not None}
    return [replace(m, tolerances={**m.tolerances, **tols}, **flags) for m in manifests]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="zollab",
        description="Certify the boundary-orthogonal geodesic return property "
                    "and verify its structure theorems on chart-based manifolds.")
    sub = parser.add_subparsers(dest="verb")

    p_cert = sub.add_parser("certify", help="run the certification sweep")
    _add_common(p_cert)
    p_an = sub.add_parser("analyze", help="run the manifest's requested analyses")
    _add_common(p_an)
    p_cat = sub.add_parser("catalog", help="list built-in examples")
    p_cat.add_argument("--emit-manifests", default=None,
                       help="directory to write one run-manifest JSON per example")
    p_mat = sub.add_parser("matrix", help="theorem-check matrix over manifests")
    _add_common(p_mat)
    p_mat.add_argument("--catalog-defaults", action="store_true",
                       help="run the built-in example matrix, with the other flags applied")

    args = parser.parse_args(argv)
    if args.verb is None:
        parser.print_help()
        return USAGE_ERROR

    try:
        if args.verb == "catalog":
            for name in catalog_names():
                _, defaults = CATALOG[name]
                params = ", ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in defaults.items())
                print(f"{name}({params})")
            if args.emit_manifests:
                os.makedirs(args.emit_manifests, exist_ok=True)
                for name in catalog_names():
                    doc = RunManifest(manifold=example_manifest(name),
                                      analyses=("all",)).to_dict()
                    path = os.path.join(args.emit_manifests, f"{name}.json")
                    with open(path, "w", encoding="utf-8") as f:
                        json.dump(doc, f, indent=2)
                        f.write("\n")
                print(f"wrote {len(catalog_names())} manifests to {args.emit_manifests}")
            return 0

        if args.verb == "matrix":
            code, _ = theorem_matrix(_manifests_from_args(args, ("all",)), out_dir=args.out)
            return code

        default_analyses = ("certify",) if args.verb == "certify" else ("all",)
        manifests = _manifests_from_args(args, default_analyses)
        if not manifests:
            print("error: provide --manifest or --example", file=sys.stderr)
            return USAGE_ERROR
        worst = 0
        for m in manifests:
            analyses = default_analyses if args.verb == "certify" else m.analyses
            code, _ = run(m, analyses=analyses, out_dir=m.out_dir)
            worst = max(worst, code)
        return worst
    except (ManifestError, OSError, KeyError) as exc:   # OSError: an unusable path
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
