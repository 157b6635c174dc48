"""Command-line front end for the offload-safety analyzer.

Usage::

    python -m repro.compiler.analyze prog.c [prog2.c ...] [--json]
    python -m repro.compiler.analyze prog.c --sarif > report.sarif
    python -m repro.compiler.analyze prog.c --rewrite [--json]

Each file is parsed, recognized, and run through the full rule battery
(:mod:`repro.compiler.analysis`). Findings print one per line in the
classic ``file:line:col: severity: CODE title: message`` shape, as one
JSON report per file with ``--json`` (schema ``mea-analysis/v1``,
unchanged), or as a single SARIF 2.1.0 log with ``--sarif`` for code
scanners and CI annotation. Both machine formats also carry the
rewrite-safety certificates of every step that stayed offloaded
(``certificates`` key / SARIF run ``properties.certificates``). With
``--rewrite`` the verified schedule rewrite engine
(:mod:`repro.compiler.rewrite`) runs over the certified schedule and
its decision log (MEA018 applied / MEA019 rejected) joins the
diagnostics, the JSON payload (``rewrites`` key — only when the flag
is given, so the ``mea-analysis/v1`` schema is unchanged without it)
and the SARIF run's ``properties.rewrites`` bag. The exit status is 1
when any file produced an error-severity finding (or failed to
compile at all), 0 otherwise — so the analyzer can gate CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.compiler.analysis.certificates import SafetyCertificate
from repro.compiler.analysis.rules import analyze_source
from repro.compiler.diagnostics import (CODE_TITLES, Diagnostic,
                                        DiagnosticReport, Severity)
from repro.compiler.errors import CompilerError

#: SARIF levels per diagnostic severity.
_SARIF_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning",
                 Severity.INFO: "note"}


def _report_for(source: str, rewrite: bool = False
                ) -> Tuple[DiagnosticReport,
                           Tuple[SafetyCertificate, ...], Tuple]:
    """Analyze one source text, folding front-end failures into the
    report as diagnostics instead of tracebacks. Returns the sorted
    report, the safety certificates of every offloaded step, and the
    rewrite decision log (empty without ``--rewrite``)."""
    try:
        result = analyze_source(source, rewrite=rewrite)
        return (result.report.sort(), result.certificates,
                result.rewrites)
    except CompilerError as exc:
        report = DiagnosticReport()
        report.add(exc.diagnostic)
        return report, (), ()


def _sarif_result(path: str, diag: Diagnostic) -> Dict[str, object]:
    region: Dict[str, object] = {}
    if diag.loc is not None:
        region["startLine"] = diag.loc.line
        if diag.loc.col:
            region["startColumn"] = diag.loc.col
    message = diag.message
    if diag.chain:
        message += " (via " + " -> ".join(("main",) + diag.chain) + ")"
    result: Dict[str, object] = {
        "ruleId": diag.code,
        "level": _SARIF_LEVELS[diag.severity],
        "message": {"text": message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": path},
                **({"region": region} if region else {}),
            },
        }],
    }
    if diag.buffers:
        result["properties"] = {"buffers": list(diag.buffers)}
    return result


def _sarif_log(per_file: List) -> Dict[str, object]:
    """One SARIF 2.1.0 run covering every analyzed file.

    Per-file rewrite-safety certificates ride in the run's
    ``properties.certificates`` bag (SARIF has no first-class slot for
    proofs of *absence* of problems); with ``--rewrite`` the engine's
    decision log joins it as ``properties.rewrites``.
    """
    rules = [{"id": code,
              "shortDescription": {"text": title}}
             for code, title in sorted(CODE_TITLES.items())]
    results: List[Dict[str, object]] = []
    certificates: Dict[str, List[Dict[str, object]]] = {}
    rewrites: Dict[str, List[Dict[str, object]]] = {}
    any_rewrites = False
    for path, report, certs, decisions in per_file:
        results.extend(_sarif_result(path, d) for d in report)
        if certs:
            certificates[path] = [c.to_dict() for c in certs]
        if decisions:
            any_rewrites = True
            rewrites[path] = [d.to_dict() for d in decisions]
    properties: Dict[str, object] = {"certificates": certificates}
    if any_rewrites:
        properties["rewrites"] = rewrites
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "mea-analyze",
                "informationUri": "https://example.invalid/mealib",
                "rules": rules,
            }},
            "results": results,
            "properties": properties,
        }],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.compiler.analyze",
        description="Prove offload safety of C-subset programs.")
    parser.add_argument("files", nargs="+",
                        help="C-subset source files to analyze")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON report per file")
    parser.add_argument("--sarif", action="store_true",
                        help="emit a single SARIF 2.1.0 log for all "
                             "files")
    parser.add_argument("--rewrite", default=False,
                        action=argparse.BooleanOptionalAction,
                        help="run the verified schedule rewrite "
                             "engine (fuse/reorder/split) and report "
                             "its decisions (MEA018/MEA019)")
    args = parser.parse_args(argv)
    if args.json and args.sarif:
        parser.error("--json and --sarif are mutually exclusive")

    failed = False
    json_out = []
    sarif_in: List = []
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            failed = True
            continue
        report, certs, decisions = _report_for(source,
                                               rewrite=args.rewrite)
        if report.has_errors:
            failed = True
        if args.json:
            payload = report.to_dict()
            payload["file"] = path
            payload["certificates"] = [c.to_dict() for c in certs]
            if args.rewrite:
                payload["rewrites"] = [d.to_dict() for d in decisions]
            json_out.append(payload)
        elif args.sarif:
            sarif_in.append((path, report, certs, decisions))
        else:
            for diag in report:
                print(f"{path}:{diag.format()}")
            if not len(report):
                print(f"{path}: clean (0 diagnostics)")
    if args.json:
        print(json.dumps(json_out, indent=2, sort_keys=True))
    elif args.sarif:
        print(json.dumps(_sarif_log(sarif_in), indent=2,
                         sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
