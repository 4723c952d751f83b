#!/usr/bin/env python3
"""Self-test for son-analyze: every rule fires on its positive fixture and
stays silent on its negative twin, the suppression grammar rejects bare
suppressions, the baseline loader rejects entries without justifications,
and the JSON/SARIF reports round-trip. Run directly or via ctest
(registered as `son_analyze_selftest`).

Two narrower modes run under ctest as well:
  test_son_analyze.py construct    only the construct-rule fixture pairs
  test_son_analyze.py tree ROOT    with no baseline, the construct rules fire
                                   over ROOT's src and bench only as
                                   wall-clock in bench/ (the one construct-rule
                                   allowance in baseline.json)

Runs with --engine structural so the result is identical on machines with
and without libclang; CI runs an additional advisory clang-engine pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOOL = HERE / "son_analyze.py"
FIX = HERE / "fixtures"
NUM_RULES = 13
# Per-line construct rules exercised by the determinism fixture pair.
DETERMINISM_RULES = {"wall-clock", "raw-rand", "std-rng", "env-read",
                     "unordered-iter", "ptr-key-order", "float-accum"}
CONSTRUCT_RULES = DETERMINISM_RULES | {"cross-shard"}


def run(*args: str):
    return subprocess.run(
        [sys.executable, str(TOOL), "--engine", "structural", "--root", str(HERE), *args],
        capture_output=True, text=True, check=False)


def fail(msg: str):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def findings_of(report: Path) -> list[dict]:
    return json.loads(report.read_text())["findings"]


def expect_findings(name: str, extra: list[str]) -> list[dict]:
    """Runs `name` with no baseline; requires exit 1 and well-located
    findings, and returns them."""
    with tempfile.TemporaryDirectory() as td:
        report = Path(td) / "report.json"
        r = run("--baseline", "none", "--json", str(report),
                *extra, str(FIX / name))
        if r.returncode != 1:
            fail(f"{name}: expected exit 1, got {r.returncode}\n{r.stdout}{r.stderr}")
        fs = findings_of(report)
    for f in fs:
        if f["line"] <= 0 or not f["file"].endswith(".cpp"):
            fail(f"{name}: finding with bad location: {f}")
    return fs


def expect_rule(name: str, extra: list[str], rule: str, min_count: int,
                forbid_other_rules: bool = False):
    fs = expect_findings(name, extra)
    hits = [f for f in fs if f["rule"] == rule]
    if len(hits) < min_count:
        fail(f"{name}: expected >= {min_count} {rule} findings, got {len(hits)}: {fs}")
    if forbid_other_rules and len(hits) != len(fs):
        others = sorted({f['rule'] for f in fs} - {rule})
        fail(f"{name}: unexpected extra rules fired: {others}")
    return fs


def expect_clean(name: str, extra: list[str]):
    r = run("--baseline", "none", *extra, str(FIX / name))
    if r.returncode != 0:
        fail(f"{name}: expected exit 0, got {r.returncode}\n{r.stdout}{r.stderr}")


def check_construct_rules():
    """The eight construct rules fire on their positive fixtures and stay
    silent on the negative twins."""
    det = expect_findings("determinism_bad.cpp", [])
    fired = {f["rule"] for f in det}
    if fired != DETERMINISM_RULES | {"bad-suppression"}:
        fail(f"determinism_bad.cpp: expected exactly {sorted(DETERMINISM_RULES)} "
             f"plus bad-suppression, got {sorted(fired)}")
    loops = " ".join(f["message"] for f in det if f["rule"] == "unordered-iter")
    for needle in ("range-for over 'pending'", "iterator loop over 'pending'"):
        if needle not in loops:
            fail(f"determinism_bad.cpp: no unordered-iter finding for the {needle}")
    expect_clean("determinism_ok.cpp", [])

    # cross-shard: both receiver spellings fire, and a bare suppression both
    # fails and leaves its site firing; its negative twin holds a justified
    # suppression, a same-partition schedule and a channel push.
    cross = expect_findings("cross_shard_bad.cpp", [])
    by_rule: dict[str, list[int]] = {}
    for f in cross:
        by_rule.setdefault(f["rule"], []).append(f["line"])
    if set(by_rule) != {"cross-shard", "bad-suppression"}:
        fail(f"cross_shard_bad.cpp: unexpected rule set {sorted(by_rule)}")
    text = (FIX / "cross_shard_bad.cpp").read_text().splitlines()
    fired_fns = {next(ln for ln in range(hit, 0, -1) if "void " in text[ln - 1])
                 for hit in by_rule["cross-shard"]}
    names = {text[ln - 1].split("void ")[1].split("(")[0] for ln in fired_fns}
    if names != {"dot_receiver", "arrow_receiver", "unjustified_setup"}:
        fail(f"cross_shard_bad.cpp: cross-shard fired in wrong functions: {sorted(names)}")
    if len(by_rule["bad-suppression"]) != 1:
        fail(f"cross_shard_bad.cpp: expected 1 bad-suppression, got {by_rule}")
    expect_clean("cross_shard_ok.cpp", [])


def check_tree_construct_rules(root: Path):
    """Runs the analyzer over root's src and bench with no baseline; the only
    construct-rule findings allowed are wall-clock in bench/, and no inline
    suppression may lack its reason."""
    with tempfile.TemporaryDirectory() as td:
        report = Path(td) / "report.json"
        r = subprocess.run(
            [sys.executable, str(TOOL), "--engine", "structural", "--root", str(root),
             "--baseline", "none", "--json", str(report), "src", "bench"],
            capture_output=True, text=True, check=False)
        if r.returncode not in (0, 1):
            fail(f"tree run: expected exit 0 or 1, got {r.returncode}\n{r.stderr}")
        fs = findings_of(report)
    stray = [f for f in fs if f["rule"] in CONSTRUCT_RULES | {"bad-suppression"}
             and not (f["rule"] == "wall-clock" and f["file"].startswith("bench/"))]
    if stray:
        fail("construct-rule findings outside the wall-clock bench/ allowance:\n"
             + "\n".join(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}"
                          for f in stray))


def main(argv: list[str]):
    if argv[:1] == ["construct"] and len(argv) == 1:
        check_construct_rules()
        print("son-analyze construct rules: all checks passed")
        return
    if argv[:1] == ["tree"] and len(argv) == 2:
        check_tree_construct_rules(Path(argv[1]).resolve())
        print("son-analyze construct rules: tree clean")
        return
    if argv:
        fail(f"usage: {Path(__file__).name} [construct | tree ROOT]")

    # --- per-rule positive/negative pairs ---------------------------------
    # Every schedule in timer_bad.cpp is flagged, the destructor-cancelled
    # ids (HalfCancelled::a_, CancelledInDtor, IdList) included.
    timer = expect_rule("timer_bad.cpp", [], "timer-lifecycle", 7,
                        forbid_other_rules=True)
    msgs = " ".join(f["message"] for f in timer)
    for needle in ("`LeakyTimer::arm` schedules a callback that keeps its EventId in "
                   "member `tick_`",
                   "keeps its EventId in member `a_`", "keeps its EventId in member `b_`",
                   "`FireAndForget::go` schedules a callback that captures `this`",
                   "`CancelledInDtor::arm`", "keeps its EventId in member `ids_`",
                   "`Guarded::go` schedules a callback that captures `this` on "
                   "`ctx_.simulator()`"):
        if needle not in msgs:
            fail(f"timer_bad.cpp: no finding mentions {needle}\n{msgs}")
    expect_clean("timer_ok.cpp", [])

    hot = expect_rule("hot_bad.cpp", [], "hot-path-alloc", 3,
                      forbid_other_rules=True)
    kinds = " ".join(f["message"] for f in hot)
    for needle in ("new-expression", "to_string", "push_back"):
        if needle not in kinds:
            fail(f"hot_bad.cpp: no finding mentions {needle}\n{kinds}")
    transitive = [f for f in hot if len(f.get("path", [])) >= 3]
    if not transitive:
        fail("hot_bad.cpp: expected a transitive finding with a call path "
             "of depth >= 3 (tick -> middle -> deep_allocates)")
    expect_clean("hot_ok.cpp", [])

    glob_bad = ["--partition-glob", "*confinement_bad.cpp",
                str(FIX / "confinement_helper.cpp")]
    conf = expect_rule("confinement_bad.cpp", glob_bad, "shard-confinement", 4)
    msgs = " ".join(f["message"] for f in conf)
    for needle in ("schedule_global", "control_sim", "shard simulator",
                   "g_shared_hits"):
        if needle not in msgs:
            fail(f"confinement_bad.cpp: no finding mentions {needle}\n{msgs}")
    via_helper = [f for f in conf if "handler_via_helper" in " ".join(f.get("path", []))]
    if not via_helper or not via_helper[0]["file"].endswith("confinement_helper.cpp"):
        fail("confinement_bad.cpp: cross-file transitive control_sim reach "
             "(handler_via_helper -> helper_touches_control) not reported "
             f"in confinement_helper.cpp: {via_helper}")
    expect_clean("confinement_ok.cpp", ["--partition-glob", "*confinement_ok.cpp"])

    stat = expect_rule("statics_bad.cpp", [], "mutable-static", 4,
                       forbid_other_rules=True)
    kinds = {f["message"].split("mutable ")[1].split(" ")[0] for f in stat}
    if kinds != {"global", "thread-local", "static-local"}:
        fail(f"statics_bad.cpp: expected all three kinds, got {sorted(kinds)}")
    expect_clean("statics_ok.cpp", [])

    sup = expect_rule("suppression_bad.cpp", [], "bad-suppression", 3)

    expect_clean("clean.cpp", [])

    check_construct_rules()

    # --- baseline contract ------------------------------------------------
    with tempfile.TemporaryDirectory() as td:
        bad_bl = Path(td) / "bl.json"
        bad_bl.write_text(json.dumps({
            "version": 1,
            "suppressions": [{"rule": "mutable-static", "path": "*"}],
        }))
        r = run("--baseline", str(bad_bl), str(FIX / "statics_bad.cpp"))
        if r.returncode != 2:
            fail(f"baseline without justification: expected exit 2, got "
                 f"{r.returncode}\n{r.stdout}{r.stderr}")

        good_bl = Path(td) / "bl2.json"
        good_bl.write_text(json.dumps({
            "version": 1,
            "suppressions": [{
                "rule": "mutable-static", "path": "*statics_bad.cpp",
                "justification": "fixture: accepted for the suppression test",
            }],
        }))
        r = run("--baseline", str(good_bl), str(FIX / "statics_bad.cpp"))
        if r.returncode != 0:
            fail(f"justified baseline: expected exit 0, got {r.returncode}\n"
                 f"{r.stdout}{r.stderr}")

        unknown_rule_bl = Path(td) / "bl3.json"
        unknown_rule_bl.write_text(json.dumps({
            "version": 1,
            "suppressions": [{
                "rule": "not-a-rule", "path": "*",
                "justification": "long enough but names an unknown rule",
            }],
        }))
        r = run("--baseline", str(unknown_rule_bl), str(FIX / "clean.cpp"))
        if r.returncode != 2:
            fail(f"baseline with unknown rule: expected exit 2, got {r.returncode}")

    # --- control-plane entries narrow the confinement entry set -----------
    with tempfile.TemporaryDirectory() as td:
        cp_bl = Path(td) / "bl.json"
        cp_bl.write_text(json.dumps({
            "version": 1,
            "suppressions": [
                {"rule": "mutable-static", "path": "*confinement_bad.cpp",
                 "justification": "fixture: static census not under test here"},
                {"rule": "cross-shard", "path": "*confinement_bad.cpp",
                 "justification": "fixture: the per-line form is not under test here"},
            ],
            "control_plane": [
                {"path": "*confinement_bad.cpp", "symbol": "handler_schedules_global",
                 "justification": "fixture: reclassified as a control-plane root"},
                {"path": "*confinement_bad.cpp", "symbol": "handler_cross_shard",
                 "justification": "fixture: reclassified as a control-plane root"},
                {"path": "*confinement_bad.cpp", "symbol": "handler_touches_static",
                 "justification": "fixture: reclassified as a control-plane root"},
            ],
        }))
        # With three of the four roots reclassified as control-plane, only
        # handler_via_helper remains an entry point — so exactly one finding
        # survives: the helper's control_sim call, reached cross-file.
        report = Path(td) / "r.json"
        r = run("--baseline", str(cp_bl), "--json", str(report),
                "--partition-glob", "*confinement_bad.cpp",
                str(FIX / "confinement_bad.cpp"),
                str(FIX / "confinement_helper.cpp"))
        if r.returncode != 1:
            fail(f"control-plane narrowing: expected exit 1, got {r.returncode}\n"
                 f"{r.stdout}{r.stderr}")
        fs = findings_of(report)
        if len(fs) != 1 or "helper_touches_control" not in fs[0]["message"] \
                or fs[0].get("path") != ["handler_via_helper", "helper_touches_control"]:
            fail(f"control-plane narrowing: expected exactly the helper's "
                 f"control_sim finding via handler_via_helper, got {fs}")

    # --- compile_commands.json drives the file set (incl. header closure) --
    with tempfile.TemporaryDirectory() as td:
        compdb = Path(td) / "compile_commands.json"
        compdb.write_text(json.dumps([{
            "directory": str(FIX),
            "file": str(FIX / "clean.cpp"),
            "command": "c++ -c clean.cpp",
        }]))
        report = Path(td) / "r.json"
        r = run("--baseline", "none", "--compdb", str(compdb),
                "--json", str(report))
        if r.returncode != 1:
            fail(f"compdb run: expected exit 1 (header static), got "
                 f"{r.returncode}\n{r.stdout}{r.stderr}")
        fs = findings_of(report)
        if not any(f["file"].endswith("include_helper.hpp")
                   and f["rule"] == "mutable-static" for f in fs):
            fail(f"compdb run: include_helper.hpp static not found via the "
                 f"header closure: {fs}")

    # --- SARIF shape -------------------------------------------------------
    with tempfile.TemporaryDirectory() as td:
        sarif = Path(td) / "out.sarif"
        r = run("--baseline", "none", "--sarif", str(sarif),
                str(FIX / "hot_bad.cpp"))
        if r.returncode != 1:
            fail(f"sarif run: expected exit 1, got {r.returncode}")
        doc = json.loads(sarif.read_text())
        if doc["version"] != "2.1.0":
            fail("sarif: wrong version")
        run0 = doc["runs"][0]
        rule_ids = {rr["id"] for rr in run0["tool"]["driver"]["rules"]}
        if "hot-path-alloc" not in rule_ids or len(rule_ids) != NUM_RULES:
            fail(f"sarif: rule catalog wrong: {sorted(rule_ids)}")
        if not run0["results"]:
            fail("sarif: no results emitted")
        res = run0["results"][0]
        for key in ("ruleId", "level", "message", "locations", "partialFingerprints"):
            if key not in res:
                fail(f"sarif: result missing {key}")
        loc = res["locations"][0]["physicalLocation"]
        if loc["region"]["startLine"] <= 0 or not loc["artifactLocation"]["uri"]:
            fail(f"sarif: bad physical location: {loc}")

    # --- seeded regressions: what the CI gate demonstrates -----------------
    with tempfile.TemporaryDirectory() as td:
        seeded = Path(td) / "seeded.cpp"
        seeded.write_text((FIX / "clean.cpp").read_text()
                          + "\nint g_seeded_regression = 1;\n"
                          + 'bool seeded_env() { return std::getenv("SON_SEEDED"); }\n')
        r = run("--baseline", "none", str(seeded))
        if r.returncode != 1:
            fail(f"seeded regression: expected exit 1, got {r.returncode}\n"
                 f"{r.stdout}{r.stderr}")
        if "g_seeded_regression" not in r.stdout:
            fail(f"seeded regression: finding does not name the seed\n{r.stdout}")
        if "[env-read]" not in r.stdout:
            fail(f"seeded regression: the getenv seed is not an env-read finding\n{r.stdout}")

    # --- misc CLI ----------------------------------------------------------
    r = run("--list-rules")
    if r.returncode != 0 or len([ln for ln in r.stdout.splitlines() if ln.strip()]) != NUM_RULES:
        fail(f"--list-rules: expected {NUM_RULES} rules, got:\n{r.stdout}")
    r = run("--baseline", "none", str(FIX / "no_such_file.cpp"))
    if r.returncode != 2:
        fail(f"missing input: expected exit 2, got {r.returncode}")

    print("son-analyze self-test: all checks passed")


if __name__ == "__main__":
    main(sys.argv[1:])
