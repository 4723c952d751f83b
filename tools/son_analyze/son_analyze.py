#!/usr/bin/env python3
"""son-analyze — the static analyzer for the son tree's determinism and
shard contracts.

Construct rules (per line, over comment- and string-stripped code):

  wall-clock, raw-rand, std-rng, env-read
                      no real time, unseeded randomness, std RNG engines or
                      environment reads — results are a pure function of
                      (topology, seeds, schedule order)
  unordered-iter      no effectful loop over an unordered container
  ptr-key-order       no container ordered by raw pointer keys
  float-accum         no ad-hoc float accumulation over trial results
  cross-shard         no inline `shard_sim(p).schedule(...)`

Flow rules (whole program):

  shard-confinement   nothing reachable from partition code schedules onto
                      the control plane or another shard, or touches mutable
                      global state (the call-graph form of cross-shard)
  timer-lifecycle     a schedule whose callback captures `this`, or whose
                      id is kept in a member, is made on the owner's
                      sim::Timers, whose destruction cancels it
  hot-path-alloc      SON_HOT functions reach no allocating construct on any
                      call path (static complement of sim::alloc_probe)
  mutable-static      census of mutable statics, every one justified

See rules.py for each rule's full contract.

Engines:
  * libclang (`clang.cindex`), when importable — AST-accurate call edges.
  * structural (default everywhere the binding is missing, including CI boxes
    without clang headers): a dependency-free scope/function parser; see
    cpp_model.py. Over-approximate by design. The construct rules read the
    same stripped code under both engines; gates pass --engine structural so
    their verdict never depends on what is installed.

File set: `--compdb build/compile_commands.json` analyzes every listed TU
plus the project headers it includes; positional paths name files or
directories to walk (default: src bench).

Suppressions — BOTH require a justification (enforced; a bare suppression is
itself a finding / config error):
  * inline:    // son-analyze: allow(rule-id) "why this is sound"
               (applies to its own line and the next)
  * baseline:  tools/son_analyze/baseline.json — entries
               {"rule", "path" glob, optional "symbol" substring,
                "justification"}. The control_plane section marks
               coordinator-context code excluded from the partition entry
               set (construction-time builders etc.), also justified.

Exit codes: 0 clean, 1 findings, 2 usage/config/internal error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cpp_model  # noqa: E402
import rules as rules_mod  # noqa: E402
import sarif as sarif_mod  # noqa: E402

TOOL_VERSION = "1.0.0"

# Partition entry set: every function defined in these trees is assumed
# runnable inside a shard round (timer callbacks, delivery handlers, and
# everything they construct), unless the baseline marks it control-plane.
DEFAULT_PARTITION_GLOBS = ["src/overlay/*", "src/client/*", "src/net/*"]


class Baseline:
    def __init__(self):
        self.suppressions: list[dict] = []
        self.control_plane: list[dict] = []

    @staticmethod
    def load(path: Path) -> "Baseline":
        b = Baseline()
        doc = json.loads(path.read_text())
        if doc.get("version") != 1:
            raise ValueError(f"{path}: unsupported baseline version {doc.get('version')!r}")
        for section, target in (("suppressions", b.suppressions),
                                ("control_plane", b.control_plane)):
            for i, entry in enumerate(doc.get(section, [])):
                just = entry.get("justification", "")
                if not isinstance(just, str) or len(just.strip()) < 10:
                    raise ValueError(
                        f"{path}: {section}[{i}] needs a real justification "
                        f"(>= 10 chars), got {just!r}")
                if section == "suppressions" and entry.get("rule") not in rules_mod.RULES:
                    raise ValueError(
                        f"{path}: {section}[{i}] names unknown rule {entry.get('rule')!r}")
                if not entry.get("path"):
                    raise ValueError(f"{path}: {section}[{i}] needs a 'path' glob")
                target.append(entry)
        return b

    def allows(self, rule: str, file: str, symbol: str) -> bool:
        for e in self.suppressions:
            if e["rule"] != rule or not fnmatch.fnmatch(file, e["path"]):
                continue
            sym = e.get("symbol")
            if sym and sym not in (symbol or ""):
                continue
            return True
        return False

    def is_control_plane(self, file: str, qname: str) -> bool:
        for e in self.control_plane:
            if not fnmatch.fnmatch(file, e["path"]):
                continue
            sym = e.get("symbol")
            if sym and sym not in qname:
                continue
            return True
        return False


# ---------------------------------------------------------------------------
# File collection
# ---------------------------------------------------------------------------

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def files_from_compdb(compdb: Path, root: Path) -> list[Path]:
    """TUs listed in compile_commands.json plus the project headers they
    (transitively) include via #include "..." resolved against the repo.

    Only TUs inside the gated subtrees (src/, bench/) are kept when those
    exist under the root — test and generated TUs compile against the same
    headers but are not governed by the analyzer baseline.  For fixture
    roots without a src/ layout, every in-root TU qualifies."""
    entries = json.loads(compdb.read_text())
    gated = [d for d in (root / "src", root / "bench") if d.is_dir()]

    def in_scope(f: Path) -> bool:
        if root not in f.parents:
            return False
        return not gated or any(d == f or d in f.parents for d in gated)

    files: set[Path] = set()
    for e in entries:
        f = Path(e["file"])
        if not f.is_absolute():
            f = Path(e.get("directory", ".")) / f
        f = f.resolve()
        if f.suffix in cpp_model.SOURCE_EXTS and in_scope(f):
            files.add(f)
    # Transitive project-header closure. Quoted includes in this tree are
    # repo-relative ("sim/event_queue.hpp") or sibling-relative.
    work = list(files)
    while work:
        f = work.pop()
        try:
            text = f.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        for inc in _INCLUDE_RE.findall(text):
            for base in (root / "src", root / "bench", root, f.parent):
                cand = (base / inc).resolve()
                if cand.exists() and root in cand.parents and cand not in files:
                    files.add(cand)
                    work.append(cand)
                    break
    return sorted(files)


def collect_files(paths, root: Path) -> list[Path]:
    files: set[Path] = set()
    for p in paths:
        pp = Path(p)
        if not pp.is_absolute():
            pp = root / pp
        if pp.is_dir():
            files.update(f for f in pp.rglob("*") if f.suffix in cpp_model.SOURCE_EXTS)
        elif pp.is_file():
            files.add(pp)
        else:
            print(f"son-analyze: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return sorted(files)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def build_model(files: list[Path], root: Path, engine: str):
    """Returns (model, engine_used)."""
    rel_files = []
    for f in files:
        try:
            rel = f.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = f.as_posix()
        rel_files.append((f, rel))

    known = set(rules_mod.RULES)
    if engine in ("auto", "clang"):
        try:
            import engine_clang  # noqa: F401
            model = engine_clang.build_model_clang(rel_files, known)
            if model is not None:
                return model, "clang+structural"
            if engine == "clang":
                print("son-analyze: clang.cindex unavailable; falling back to "
                      "the structural engine", file=sys.stderr)
        except Exception as e:  # pragma: no cover - defensive per-run fallback
            if engine == "clang":
                print(f"son-analyze: clang engine failed ({e}); falling back to "
                      "the structural engine", file=sys.stderr)
    return cpp_model.build_model(rel_files, known), "structural"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="son-analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: src bench, or --compdb)")
    ap.add_argument("--root", default=None, help="repo root (default: this script's repo)")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json driving the TU + header file set")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON (default: baseline.json next to the script; "
                         "'none' disables)")
    ap.add_argument("--engine", choices=["auto", "clang", "structural"], default="auto")
    ap.add_argument("--json", dest="json_out", default=None)
    ap.add_argument("--sarif", dest="sarif_out", default=None)
    ap.add_argument("--partition-glob", action="append", default=None,
                    help="glob(s) defining the partition entry set "
                         f"(default: {' '.join(DEFAULT_PARTITION_GLOBS)})")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(rules_mod.RULES.items()):
            print(f"{rule:18} {desc}")
        return 0

    script_dir = Path(__file__).resolve().parent
    root = Path(args.root).resolve() if args.root else script_dir.parents[1]

    baseline = None
    bl_path = None
    if args.baseline != "none":
        bl_path = Path(args.baseline) if args.baseline else script_dir / "baseline.json"
        if bl_path.exists():
            try:
                baseline = Baseline.load(bl_path)
            except (ValueError, json.JSONDecodeError) as e:
                print(f"son-analyze: bad baseline: {e}", file=sys.stderr)
                return 2
        elif args.baseline:
            print(f"son-analyze: baseline not found: {bl_path}", file=sys.stderr)
            return 2

    if args.compdb:
        compdb = Path(args.compdb)
        if not compdb.exists():
            print(f"son-analyze: no such compile_commands: {compdb}", file=sys.stderr)
            return 2
        files = files_from_compdb(compdb, root)
        if args.paths:  # restrict the compdb closure to the requested subtrees
            pats = [(root / p).resolve() for p in args.paths]
            files = [f for f in files
                     if any(pp == f or pp in f.parents for pp in pats)]
    else:
        files = collect_files(args.paths or ["src", "bench"], root)
    if not files:
        print("son-analyze: no input files", file=sys.stderr)
        return 2

    model, engine_used = build_model(files, root, args.engine)

    partition_globs = args.partition_glob or DEFAULT_PARTITION_GLOBS
    # The baseline's control_plane section narrows the shard-confinement
    # entry set: coordinator-context functions (scenario builders, sharding
    # setup) stay in the graph as callees but are not roots.
    roots_filter = None
    if baseline is not None and baseline.control_plane:
        roots_filter = lambda f: not baseline.is_control_plane(f.file, f.qname)

    findings, suppressed = rules_mod.run_all(model, baseline, partition_globs,
                                             roots_filter)

    for fd in findings:
        print(fd)
        if fd.snippet:
            print(f"    | {fd.snippet}")

    if args.json_out:
        report = {
            "version": 1,
            "engine": engine_used,
            "files_scanned": len(files),
            "suppressed": suppressed,
            "findings": [fd.to_json() for fd in findings],
        }
        Path(args.json_out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.sarif_out:
        sarif_mod.write_sarif(args.sarif_out, findings, rules_mod.RULES,
                              tool_version=TOOL_VERSION, engine=engine_used)

    if findings:
        print(f"son-analyze: {len(findings)} finding(s) in {len(files)} files "
              f"({suppressed} suppressed with justification, engine={engine_used})",
              file=sys.stderr)
        return 1
    print(f"son-analyze: clean ({len(files)} files, {suppressed} suppression(s) "
          f"in effect, engine={engine_used})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
