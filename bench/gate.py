"""Correctness gate applied to every benchmark repetition.

The exit code of ``zollab.cli.run`` alone is not trusted: a repetition
passes only when its report certifies the manifold, agrees with the
benchmark's own ground truth, passes every theorem row the requested
analyses can decide, and was certified on the requested number of launches.
Byte identity of ``report.json`` across the repetitions of one seed is
checked in ``run.py``, which sees all of them.
"""
from __future__ import annotations

from types import SimpleNamespace


def check_report(workload, report_doc, exit_code, expected):
    """List the breaches of one repetition's report (empty when it passes).

    ``report_doc`` is the parsed ``report.json``; ``expected`` holds the
    generator's annotations for the manifest that produced it.
    """
    from zollab.cli import theorem_rows
    from zollab.verifier import Tolerances, ZollReport

    breaches = []
    if exit_code != 0:
        breaches.append(f"exit code {exit_code}")
    if report_doc.get("verdict") != "certified":
        breaches.append(f"verdict {report_doc.get('verdict')!r}, expected 'certified'")
    if report_doc.get("n_launches") != workload.launches:
        breaches.append(f"n_launches {report_doc.get('n_launches')} "
                        f"!= requested {workload.launches}")

    truth = report_doc.get("ground_truth") or {}
    if truth.get("all_match") is not True:
        breaches.append("ground_truth.all_match is not true")
    checks = truth.get("checks") or {}
    for key in workload.truth_checks:
        if checks.get(key) is not True:
            breaches.append(f"ground_truth check {key!r}: {checks.get(key)!r}")

    spec = SimpleNamespace(name=report_doc.get("name"), annotations=expected,
                           dimension=expected["dimension"])
    try:
        report = ZollReport(**report_doc)
        tol = Tolerances(**report_doc["tolerances"])
        rows = theorem_rows(report, spec, tol)
    except (TypeError, KeyError, ValueError) as exc:
        return breaches + [f"report does not parse: {exc}"]
    by_check = {r["check"]: r for r in rows if r["check"] not in workload.skipped_rows}
    for check in workload.rows:
        row = by_check.get(check)
        if row is None:
            breaches.append(f"theorem row {check!r} missing")
        elif not row["passed"]:
            breaches.append(f"theorem row {check!r} failed: {row['detail']}")
    for check, row in by_check.items():
        if check not in workload.rows and not row["passed"]:
            breaches.append(f"theorem row {check!r} failed: {row['detail']}")
    return breaches

