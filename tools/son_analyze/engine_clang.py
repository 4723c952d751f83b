"""Optional libclang engine for son-analyze.

When `clang.cindex` is importable (CI installs python3-clang + libclang; dev
boxes may not have it), this module sharpens the structural model with
AST-accurate information:

  * call edges: CALL_EXPR referenced-decl spelling replaces the name-based
    over-approximation for every function the AST can attribute, shrinking
    false paths in the reachability rules;
  * new-expressions: CXX_NEW_EXPR cursors confirm/extend the textual
    new-expression facts (placement new is already excluded structurally;
    the AST pass re-adds any new-expr hidden behind macros).

The structural model remains the substrate — stripped code, suppressions,
statics, members, and file bookkeeping all come from cpp_model, so the
per-line construct rules see the same input under both engines; only
per-function `calls` and `facts` are refined. Any TU that fails to parse
keeps its structural facts (per-TU fallback), so a partially-broken compile
never loses coverage, it only loses precision.

Returns None from build_model_clang when the binding or a usable libclang
shared object is missing — the caller falls back to the pure structural
engine.
"""

from __future__ import annotations

import cpp_model


def _try_index():
    try:
        from clang import cindex
    except ImportError:
        return None
    try:
        return cindex, cindex.Index.create()
    except Exception:
        # Binding importable but no libclang.so resolvable.
        for name in ("libclang-14.so.1", "libclang.so.14", "libclang-15.so.1",
                     "libclang.so.15", "libclang.so.1", "libclang.so"):
            try:
                cindex.Config.set_library_file(name)
                return cindex, cindex.Index.create()
            except Exception:
                cindex.Config.loaded = False
                continue
        return None


_ARGS = ["-std=c++20", "-xc++", "-Isrc", "-I."]


def build_model_clang(rel_files, known_rules):
    """rel_files: list of (abs Path, repo-relative str). Returns a Model or
    None when libclang is unusable."""
    found = _try_index()
    if found is None:
        return None
    cindex, index = found

    model = cpp_model.build_model(rel_files, known_rules)

    # Index structural functions by (rel file, body start line) so AST
    # cursors can be attributed to them.
    fn_by_file: dict[str, list] = {}
    for fm in model.files.values():
        for fn in fm.functions:
            if not fn.is_decl:
                fn_by_file.setdefault(fn.file, []).append(fn)
    for fns in fn_by_file.values():
        fns.sort(key=lambda f: f.line)

    abs_to_rel = {str(p.resolve()): rel for p, rel in rel_files}

    def owner_of(rel: str, line: int):
        best = None
        for fn in fn_by_file.get(rel, ()):
            if fn.line <= line:
                best = fn
            else:
                break
        return best

    tus = [p for p, rel in rel_files if p.suffix in {".cpp", ".cc", ".cxx"}]
    parsed_any = False
    refined: dict[int, tuple[list, list]] = {}  # id(fn) -> (calls, facts)

    for src in tus:
        try:
            tu = index.parse(str(src), args=_ARGS)
        except Exception:
            continue
        fatal = any(d.severity >= cindex.Diagnostic.Fatal for d in tu.diagnostics)
        if fatal:
            continue  # per-TU fallback: keep structural facts
        parsed_any = True
        for cur in tu.cursor.walk_preorder():
            loc = cur.location
            if loc.file is None:
                continue
            rel = abs_to_rel.get(str(loc.file))
            if rel is None:
                continue
            fn = owner_of(rel, loc.line)
            if fn is None:
                continue
            calls, facts = refined.setdefault(id(fn), ([], []))
            if cur.kind == cindex.CursorKind.CALL_EXPR:
                ref = cur.referenced
                name = (ref.spelling if ref is not None else cur.spelling) or ""
                if not name:
                    continue
                cls = ""
                if ref is not None and ref.semantic_parent is not None and \
                        ref.semantic_parent.kind in (
                            cindex.CursorKind.CLASS_DECL,
                            cindex.CursorKind.STRUCT_DECL,
                            cindex.CursorKind.CLASS_TEMPLATE):
                    cls = ref.semantic_parent.spelling
                calls.append(cpp_model.CallSite(
                    name=name, qualifier=cls, is_method=bool(cls), line=loc.line))
            elif cur.kind == cindex.CursorKind.CXX_NEW_EXPR:
                facts.append(cpp_model.Fact("new-expr", loc.line, "CXX_NEW_EXPR"))

    if not parsed_any:
        return None  # nothing usable came out of libclang; stay structural

    for fm in model.files.values():
        for fn in fm.functions:
            got = refined.get(id(fn))
            if got is None:
                continue
            calls, facts = got
            if calls:
                fn.calls = calls
            # Keep structural non-new facts (shard-sched pattern), merge
            # AST-confirmed new-exprs.
            keep = [f for f in fn.facts if f.kind != "new-expr"]
            seen_lines = {f.line for f in facts}
            keep += facts
            keep += [f for f in fn.facts
                     if f.kind == "new-expr" and f.line not in seen_lines]
            fn.facts = keep
    return model
