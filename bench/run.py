"""zollab benchmark: time to verdict and full analysis, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/zollab`` is put on the path of
every child process, and nothing installed elsewhere is used. Each
repetition is a fresh process with BLAS pinned to one thread; the load is a
closed loop with one client and one run at a time.

With ``--trace 0`` repetitions run until ``--seconds`` have passed, and at
least three, and the end-to-end metrics are printed. With ``--trace 1`` one
untraced and one traced repetition run and the per-layer metrics are printed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Artifacts go under
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_REPS = 3            # so one slow repetition cannot move the median
SETUP_SAMPLES = 5       # fresh-process set-ups per run, for a median
HARD_LIMIT_S = 170.0    # a run must end within 180 s
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, or a child process broke)."""


def _child_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _repetition(workload, paths, tag, deadline, trace=False, setup_only=False):
    out = os.path.join(paths["dir"], f"out-{tag}")
    result = os.path.join(paths["dir"], f"rep-{tag}.json")
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--manifest", paths["manifest"], "--expected", paths["expected"],
           "--out", out, "--result", result]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {tag} did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"repetition {tag} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result, encoding="utf-8") as f:
        rep = json.load(f)
    shutil.rmtree(out, ignore_errors=True)
    os.remove(result)
    if not os.path.realpath(rep["zollab_file"]).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"imported zollab from {rep['zollab_file']}, not from {SRC}")
    return rep


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, as (percent, value)."""
    n = len(samples)
    k = n - 10
    if k < 1:
        return None
    return 100.0 * k / n, sorted(samples)[k - 1]


def _describe(name, unit, samples):
    tail = tail_percentile(samples)
    tail_txt = (f"p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail
                else "no percentile has 10 samples beyond it")
    return (f"{name}: median {statistics.median(samples):.6g} {unit} over n={len(samples)} "
            f"[min {min(samples):.6g}, max {max(samples):.6g}; {tail_txt}]")


def _gate_all(reps):
    """Failed repetitions: gate breaches, or report.json differing from the first."""
    first = next((r.get("report_sha256") for r in reps if r.get("report_sha256")), None)
    failed = 0
    for i, r in enumerate(reps):
        if r.get("report_sha256") is None:
            r["breaches"].append("no report.json written")
        elif r["report_sha256"] != first:
            r["breaches"].append("report.json differs from the first repetition of this seed")
        for b in r["breaches"]:
            print(f"breach in repetition {i}: {b}")
        failed += bool(r["breaches"])
    return failed


def _unit(name):
    for suffix, unit in (("_ms", "ms"), (".s", "s"), ("_s", "s"), ("_bytes", "bytes"),
                         ("_ratio", "ratio"), ("_per_launch", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, paths, seconds, deadline):
    t0 = time.monotonic()
    reps = []
    while True:
        reps.append(_repetition(workload, paths, len(reps), deadline))
        elapsed = time.monotonic() - t0
        if len(reps) >= MIN_REPS and elapsed >= seconds:
            break
        # stop early rather than overrun the hard limit with the next repetition
        if time.monotonic() + elapsed / len(reps) * 1.5 > deadline - 20.0:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_repetition(workload, paths, f"setup{len(setups)}", deadline,
                                  setup_only=True)["setup_s"])
    runs = [r["run_s"] for r in reps]
    rss = [r["peak_rss_mb"] for r in reps]
    print(_describe("run_s", "s", runs))
    print(_describe("setup_s", "s", setups))
    print(_describe("peak_rss_mb", "MB", rss))
    failed = _gate_all(reps)
    print(f"fail_rate: {failed}/{len(reps)} repetitions failed the correctness gate")
    metrics = {
        "run_s": _metric(statistics.median(runs), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MB"),
    }
    return len(reps), failed, metrics


SPAN_METRICS = ("jacobi.integrate_jacobi_frame", "jacobi.focal_instants",
                "jacobi.arrival_degeneracy_form", "jacobi.assemble_index_form",
                "jacobi.morse_index_quadratic", "jacobi.index_form_spectrum",
                "verifier.certify", "verifier.boundary_components",
                "verifier.slice_distance_check", "verifier.nearest_boundary_distance",
                "verifier.build_soul", "verifier.fiber_analysis",
                "verifier.splitting_residual")


def layer_metrics(plain, traced):
    """Per-layer metric values from an untraced and a traced repetition."""
    from spans import aggregate, layer_seconds

    spans, counts = traced["spans"], traced["counts"]
    agg = aggregate(spans)

    def s(name, key="s"):
        return agg.get(name, {}).get(key, 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def count(name):
        return counts.get(name, 0.0)

    def per_launch(value):
        launches = count("engine.launches")
        return value / launches if launches else 0.0

    values = {
        "cli.import.s": s("cli.import"),
        "cli.run.s": s("cli.run"),
        "cli.run.self_s": s("cli.run", "self_s"),
        "cli.run.cpu_s": plain["cpu_s"],
        "cli.artifact_bytes": plain.get("artifact_bytes", 0),
        "cli.recompute.s": s("cli.recompute"),
        "manifest.load_manifold.s": s("manifest.load_manifold"),
        "manifest.load_manifold.calls": calls("manifest.load_manifold"),
        "catalog.make_example.s": s("catalog.make_example"),
        "engine.s": layer_seconds(spans, "engine", within="cli.run"),
        "engine.sample_boundary.s": s("engine.sample_boundary"),
        "engine.first_return_map.s": s("engine.first_return_map"),
        "engine.first_return_map.calls": calls("engine.first_return_map"),
        "engine.launches": count("engine.launches"),
        "engine.returned_ratio": per_launch(count("engine.returned")),
        "engine.shoot_ms": per_launch(1e3 * count("engine.shoot.s")),
        "engine.solve_ivp.calls": count("engine.solve_ivp.calls"),
        "engine.rhs_evals": count("engine.rhs_evals"),
        "engine.ode_steps": count("engine.ode_steps"),
        "engine.deck_crossings": count("engine.deck_crossings"),
        "geometry.christoffel_raw.calls": count("geometry.christoffel_raw.calls"),
        "geometry.curvature_operator_raw.calls": count("geometry.curvature_operator_raw.calls"),
        "geometry.metric_matrix.calls": count("geometry.metric_matrix.calls"),
        "geometry.deck_images.s": count("geometry.deck_images.s"),
        "geometry.deck_images.calls": count("geometry.deck_images.calls"),
        "geometry.deck_images_per_launch": per_launch(count("geometry.deck_images.calls")),
        "jacobi.s": layer_seconds(spans, "jacobi", within="cli.run"),
        "jacobi.index_dof": count("jacobi.index_dof"),
        "verifier.s": layer_seconds(spans, "verifier", within="cli.run"),
        "verifier.certify.self_s": s("verifier.certify", "self_s"),
        "trace.run_s": traced["run_s"],
        "trace.overhead_s": traced["run_s"] - plain["run_s"],
    }
    for name in SPAN_METRICS:
        values[name + ".s"] = s(name)
        values[name + ".calls"] = calls(name)
    return values


def per_layer(workload, paths, deadline):
    plain = _repetition(workload, paths, "plain", deadline)
    traced = _repetition(workload, paths, "traced", deadline, trace=True)
    failed = _gate_all([plain, traced])
    values = layer_metrics(plain, traced)
    run_total = traced["run_s"]
    for label, parts in (("engine", ("engine.s",)), ("jacobi", ("jacobi.s",)),
                         ("verifier", ("verifier.s",)),
                         ("first_return_map", ("engine.first_return_map.s",)),
                         ("slices + pairing", ("verifier.slice_distance_check.s",
                                               "verifier.boundary_components.s"))):
        part = sum(values[p] for p in parts)
        print(f"share of traced run_s {run_total:.3f} s: {label} {part:.3f} s "
              f"({100.0 * part / run_total:.1f}%)")
    for name in sorted(values):
        print(f"{name}: {values[name]:.6g} {_unit(name)}")
    metrics = {name: _metric(value, _unit(name)) for name, value in values.items()}
    return 2, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "zollab", "__init__.py")):
        print(f"error: no zollab sources at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}")
    os.makedirs(run_dir, exist_ok=True)
    manifest, expected = generate(args.workload, args.seed)
    paths = {"dir": run_dir,
             "manifest": os.path.join(run_dir, "manifest.json"),
             "expected": os.path.join(run_dir, "expected.json")}
    for key, doc in (("manifest", manifest), ("expected", expected)):
        with open(paths[key], "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
    print("manifest: " + json.dumps(manifest, sort_keys=True))

    try:
        if args.trace:
            attempted, failed, metrics = per_layer(args.workload, paths, deadline)
        else:
            attempted, failed, metrics = end_to_end(args.workload, paths, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
