"""Correctness gate for benchmark requests, independent of the flow code.

Every verdict is checked against what the workload expects, every witness
cut is re-checked with plain graph search (delete the faults and the cut,
then `components` must separate the pair), and report digests are compared
with the ones recorded for the default seed.
"""

from __future__ import annotations

import hashlib
import json

from hlmenger import VerificationReport, components, remove_edges


def digest(report: VerificationReport) -> str:
    return hashlib.sha256(report.canonical_json().encode()).hexdigest()


def recheck_cuts(g, fault_edges, certificates) -> list[str]:
    """Errors in cut certificates sharing one fault set; empty when each
    proves its violation."""
    faults = {tuple(e) for e in fault_edges}
    errors = []
    if not faults <= set(g.edges):
        return ["fault edge not in the line graph"]
    survivor = remove_edges(g, faults)
    live = set(survivor.edges)
    for cert in certificates:
        cut = {tuple(e) for e in cert["cut"]}
        u, v = cert["pair"]
        paths, required = cert["path_count"], cert["required"]
        where = f"pair ({u}, {v})"
        if not cut <= live:
            errors.append(f"{where}: cut edge not in G-F")
            continue
        if len(cut) != paths:
            errors.append(f"{where}: |cut|={len(cut)} differs from "
                          f"path_count={paths}")
        if not paths < required:
            errors.append(f"{where}: path_count={paths} is not below "
                          f"required={required}")
        degree = min(survivor.degree(u), survivor.degree(v))
        if required != degree:
            errors.append(f"{where}: required={required} is not the min "
                          f"degree {degree} in G-F")
        side = next(c for c in components(remove_edges(survivor, cut))
                    if u in c)
        if v in side:
            errors.append(f"{where}: cut does not separate the pair")
    return errors


def check_report(check, code: int, text: str, g) -> tuple[object, list[str]]:
    """(report or None, errors) for one CLI invocation's output."""
    if code != check.expect_exit:
        return None, [f"exit {code}, expected {check.expect_exit}"]
    try:
        report = VerificationReport.from_dict(json.loads(text))
    except (ValueError, KeyError) as exc:
        return None, [f"unreadable report: {exc}"]
    counts = report.counts
    visited, failures = counts["visited"], counts["failures"]
    errors = []
    if check.expect == "pass" and (failures or report.witness is not None):
        errors.append(f"{failures} failures where none are expected")
    if check.expect == "all-fail" and failures != visited:
        errors.append(f"failures={failures} differ from visited={visited}")
    if check.expect == "majority-fail" and not 2 * failures > visited:
        errors.append(f"only {failures} of {visited} sets violate")
    if failures and report.witness is None:
        errors.append("failures without a witness")
    witness = report.witness
    certificates = list(report.details)
    if witness is not None and "cut" in witness:
        certificates.append(witness)
    if witness is not None and certificates:
        errors += recheck_cuts(g, witness["fault_edges"], certificates)
    return report, errors
