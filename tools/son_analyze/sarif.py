"""Minimal SARIF 2.1.0 writer for son-analyze findings.

Emits the subset GitHub code scanning and most SARIF viewers consume: one
run, one tool.driver with the rule catalog, one result per finding with a
physical location and (for reachability rules) the call path rendered into
the message and as related locations on the sink file.
"""

from __future__ import annotations

import json

SARIF_SCHEMA = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

_LEVELS = {
    "wall-clock": "error",
    "raw-rand": "error",
    "std-rng": "error",
    "env-read": "error",
    "unordered-iter": "error",
    "ptr-key-order": "error",
    "float-accum": "warning",
    "cross-shard": "error",
    "bad-suppression": "error",
    "shard-confinement": "error",
    "timer-lifecycle": "error",
    "hot-path-alloc": "warning",
    "mutable-static": "warning",
}


def to_sarif(findings, rules: dict[str, str], *, tool_version: str,
             engine: str) -> dict:
    rule_ids = sorted(rules)
    rule_index = {r: i for i, r in enumerate(rule_ids)}
    results = []
    for f in findings:
        message = f.message
        if f.path:
            message += "  [call path: " + " -> ".join(f.path) + "]"
        results.append({
            "ruleId": f.rule,
            "ruleIndex": rule_index[f.rule],
            "level": _LEVELS.get(f.rule, "warning"),
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.file, "uriBaseId": "SRCROOT"},
                    "region": {"startLine": max(1, f.line),
                               "snippet": {"text": f.snippet}},
                }
            }],
            "partialFingerprints": {
                "sonAnalyze/v1": f"{f.rule}:{f.file}:{f.snippet[:80]}",
            },
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "son-analyze",
                    "version": tool_version,
                    "informationUri": "https://example.invalid/son-analyze",
                    "properties": {"engine": engine},
                    "rules": [{
                        "id": r,
                        "shortDescription": {"text": rules[r].split(";")[0][:200]},
                        "fullDescription": {"text": rules[r]},
                        "defaultConfiguration": {"level": _LEVELS.get(r, "warning")},
                    } for r in rule_ids],
                }
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }


def write_sarif(path, findings, rules, *, tool_version, engine):
    doc = to_sarif(findings, rules, tool_version=tool_version, engine=engine)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
