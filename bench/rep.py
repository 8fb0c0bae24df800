"""One benchmark repetition, run in a fresh process by ``run.py``.

Sets up exactly as ``zollab certify`` / ``zollab analyze`` do (import the
CLI, load the manifest, build the manifold), calls ``zollab.cli.run`` with
artifacts written, applies the correctness gate to the written
``report.json`` and stores timings, counters and breaches as JSON.

    python3 bench/rep.py --workload NAME --manifest M.json --expected E.json \
        --out DIR --result R.json [--trace] [--setup-only]
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _artifact_bytes(out):
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--expected", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    t_import = time.perf_counter()
    import zollab.cli
    from zollab.manifest import RunManifest, load_manifold
    import_s = time.perf_counter() - t_import

    result = {"breaches": []}
    tracer = None
    if args.trace:
        from spans import Tracer, install
        tracer = Tracer()
        tracer.spans.append([0, "cli.import", t_import, t_import + import_s, None, 0])
        install(tracer)
        load_manifold = zollab.manifest.load_manifold
    manifest = RunManifest.load(args.manifest)
    load_manifold(manifest.manifold)
    result["setup_s"] = time.perf_counter() - T_START
    result["zollab_file"] = zollab.cli.__file__

    if not args.setup_only:
        from gate import check_report
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        with open(args.expected, encoding="utf-8") as f:
            expected = json.load(f)
        analyses = ("certify",) if workload.verb == "certify" else manifest.analyses
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            code, _ = zollab.cli.run(manifest, analyses=analyses, out_dir=args.out, quiet=True)
        except Exception:  # a crash is a failed repetition, reported with its traceback
            code = None
            result["breaches"].append("cli.run raised:\n" + traceback.format_exc())
        result["run_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
        report_path = os.path.join(args.out, "report.json")
        if os.path.exists(report_path):
            with open(report_path, "rb") as f:
                raw = f.read()
            result["report_sha256"] = hashlib.sha256(raw).hexdigest()
            result["breaches"] += check_report(workload, json.loads(raw), code, expected)
            result["artifact_bytes"] = _artifact_bytes(args.out)
        elif code is not None:
            result["breaches"].append(f"exit code {code} and no report.json")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["spans"] = tracer.records()
        result["counts"] = dict(tracer.counts)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    sys.exit(main())
