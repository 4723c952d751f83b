"""cpp_model — a pragmatic structural C++ model for son-analyze.

Every file gets two views. Its stripped code — comments and string literals
blanked by a real tokenizer, line structure kept — is what the per-line
construct rules (wall-clock, raw-rand, ...) match. Its whole-program facts
are what the flow rules need and no single line shows: who calls whom
(reachability from SON_HOT roots and partition entry points), which members
are `sim::Timers` or hold `sim::EventId`s, and where mutable namespace-scope
state lives.

The facts come from a dependency-free structural parser: each file's
stripped code is scanned with an explicit scope stack that recognizes
namespaces, classes, enums and function definitions — including
out-of-line `Class::method` definitions, constructor member-init lists,
`operator()`, and `= default/delete` declarations. Function bodies are kept
as opaque text from which call sites and per-body facts (new-expressions,
container-growth calls, schedule patterns) are extracted.

The model is deliberately an over-approximation: call edges are resolved by
name (method calls resolve to any class method of that name; bare calls to
free functions and same-class methods). That is the right trade for a
linter — a spurious edge costs a justified suppression, a missed edge costs
a shipped bug. The optional libclang engine (engine_clang.py) builds the
same Model shape with AST-accurate edges when `clang.cindex` is importable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

SOURCE_EXTS = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".ipp"}

# ---------------------------------------------------------------------------
# Tokenizer: blank comments / string literals, collect suppression comments
# of the one grammar:  // son-analyze: allow(rule) "reason"
# ---------------------------------------------------------------------------

_SUPPRESS_RE = re.compile(r"son-analyze:\s*allow\(([\w\-, ]+)\)\s*(\"([^\"]*)\")?")


def strip_code(text: str, known_rules: set[str] | None = None):
    """Returns (code, suppressions, bad_suppression_lines).

    `code` mirrors `text` with comment and string-literal contents replaced
    by spaces. `suppressions` maps line -> set of allowed rule ids (a comment
    suppresses its own line and the next). A suppression without a reason
    string, or naming an unknown rule, lands in bad_suppression_lines.
    """
    out = []
    suppressions: dict[int, set[str]] = {}
    bad_lines: list[int] = []
    i, n = 0, len(text)
    line = 1
    state = "code"
    comment_start_line = 0
    comment_buf: list[str] = []
    raw_delim = ""

    def register_comment(comment: str, at_line: int):
        m = _SUPPRESS_RE.search(comment)
        if not m:
            return
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        reason = m.group(3)
        if not reason or not reason.strip():
            bad_lines.append(at_line)
            return
        if known_rules is not None and rules - known_rules:
            bad_lines.append(at_line)
        for ln in (at_line, at_line + 1):
            suppressions.setdefault(ln, set()).update(rules)

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_start_line = line
                comment_buf = []
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                comment_start_line = line
                comment_buf = []
                out.append("  ")
                i += 2
                continue
            if c == '"':
                if i >= 1 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'"([^ ()\\\t\n]*)\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw_string"
                        out.append('"')
                        i += 1
                        continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            if c == "\n":
                line += 1
            i += 1
        elif state == "line_comment":
            if c == "\n":
                register_comment("".join(comment_buf), comment_start_line)
                state = "code"
                out.append("\n")
                line += 1
            else:
                comment_buf.append(c)
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                register_comment("".join(comment_buf), comment_start_line)
                state = "code"
                out.append("  ")
                i += 2
                continue
            comment_buf.append(c)
            if c == "\n":
                out.append("\n")
                line += 1
            else:
                out.append(" ")
            i += 1
        elif state == "string":
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            elif c == "\n":
                state = "code"
                out.append("\n")
                line += 1
            else:
                out.append(" ")
            i += 1
        elif state == "char":
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            elif c == "\n":
                state = "code"
                out.append("\n")
                line += 1
            else:
                out.append(" ")
            i += 1
        elif state == "raw_string":
            if text.startswith(raw_delim, i):
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
                state = "code"
                continue
            out.append("\n" if c == "\n" else " ")
            if c == "\n":
                line += 1
            i += 1
    if state == "line_comment":
        register_comment("".join(comment_buf), comment_start_line)
    return "".join(out), suppressions, bad_lines


# ---------------------------------------------------------------------------
# Matching helpers
# ---------------------------------------------------------------------------


def match_paren(code: str, i: int, open_ch: str = "(", close_ch: str = ")") -> int:
    """`i` points at open_ch; returns index of the matching close (or len)."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n


def match_brace(code: str, i: int) -> int:
    return match_paren(code, i, "{", "}")


def line_of(code: str, idx: int) -> int:
    return code.count("\n", 0, idx) + 1


def _skip_ws(code: str, i: int) -> int:
    n = len(code)
    while i < n and code[i] in " \t\n\r":
        i += 1
    return i


# ---------------------------------------------------------------------------
# Model dataclasses
# ---------------------------------------------------------------------------


@dataclass
class CallSite:
    name: str
    qualifier: str | None  # "Class" / "ns::Class" when written qualified
    is_method: bool  # written as obj.name(...) / obj->name(...)
    line: int


@dataclass
class Fact:
    """A per-body observation a rule can turn into a finding."""

    kind: str  # new-expr | alloc-call | growth-call | shard-sched | global-sched
    line: int
    detail: str = ""


@dataclass
class FunctionDef:
    qname: str  # Ns::Class::name as written (best effort)
    name: str
    cls: str | None
    file: str
    line: int
    body: str = ""
    body_line: int = 0
    hot: bool = False
    is_decl: bool = False  # declaration only (no body)
    calls: list[CallSite] = field(default_factory=list)
    facts: list[Fact] = field(default_factory=list)


@dataclass
class MemberVar:
    cls: str
    name: str
    type_text: str
    file: str
    line: int


@dataclass
class StaticVar:
    name: str
    file: str
    line: int
    kind: str  # global | thread-local | static-local
    decl: str


@dataclass
class ClassInfo:
    name: str
    file: str
    line: int
    members: list[MemberVar] = field(default_factory=list)


@dataclass
class FileModel:
    rel: str
    raw_lines: list[str]
    code: str  # raw text with comments and string literals blanked
    suppressions: dict[int, set[str]]
    bad_suppression_lines: list[int]
    functions: list[FunctionDef] = field(default_factory=list)
    classes: list[ClassInfo] = field(default_factory=list)
    statics: list[StaticVar] = field(default_factory=list)


@dataclass
class Model:
    files: dict[str, FileModel] = field(default_factory=dict)

    def functions(self):
        for fm in self.files.values():
            yield from fm.functions

    def classes(self):
        for fm in self.files.values():
            yield from fm.classes


# ---------------------------------------------------------------------------
# Structural parser
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "alignas",
    "decltype", "noexcept", "static_assert", "catch", "new", "delete", "throw",
    "case", "do", "else", "goto", "co_await", "co_return", "co_yield",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast", "assert",
    "defined", "requires", "typeid", "and", "or", "not",
}

_NAME_BEFORE_PAREN_RE = re.compile(
    r"(~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*|operator\s*(?:\(\s*\)|\[\s*\]|[^\s(]{1,3}))\s*$"
)
_CLASS_HEAD_RE = re.compile(r"\b(class|struct|union)\b(?!.*\benum\b)")
_CLASS_NAME_RE = re.compile(
    r"\b(?:class|struct|union)\b(?:\s*(?:alignas\s*\([^)]*\)|\[\[[^\]]*\]\]))*\s*"
    r"([A-Za-z_]\w*)?"
)
_NS_RE = re.compile(r"\bnamespace\s+((?:[A-Za-z_]\w*)(?:\s*::\s*[A-Za-z_]\w*)*)?\s*$")

_CALL_RE = re.compile(
    r"(?:\b((?:[A-Za-z_]\w*\s*::\s*)+))?([A-Za-z_]\w*)\s*\("
)

_GROWTH_METHODS = {
    "push_back", "emplace_back", "emplace", "insert", "resize", "reserve",
    "append", "assign", "try_emplace", "emplace_hint", "push", "push_front",
    "emplace_front",
}
_ALLOC_CALLS = {
    "make_shared", "make_unique", "to_string", "malloc", "calloc", "realloc",
    "strdup", "aligned_alloc",
}

_SHARD_SCHED_RE = re.compile(r"\bshard_sim\s*\([^)]*\)\s*(?:\.|->)\s*schedule")
_STATIC_LOCAL_RE = re.compile(
    r"\bstatic\s+(?!constexpr\b|const\b|_assert\b|assert\b|cast\b)"
    r"((?:[\w:<>,*&\s]|\[\[[^\]]*\]\])+?)\b([A-Za-z_]\w*)\s*(?:[;={]|\()"
)


def _last_toplevel_paren_group(head: str) -> tuple[int, int] | None:
    """Finds the parameter-list paren group of a plausible function signature
    in `head`: the last top-level `(...)` group whose preceding token is a
    valid function name (not a keyword / control construct)."""
    groups = []
    depth = 0
    start = -1
    angle = 0
    for i, c in enumerate(head):
        if c == "(":
            if depth == 0:
                start = i
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0 and start >= 0:
                groups.append((start, i))
        elif depth == 0:
            if c == "<":
                angle += 1
            elif c == ">":
                angle = max(0, angle - 1)
    for s, e in reversed(groups):
        m = _NAME_BEFORE_PAREN_RE.search(head[:s])
        if not m:
            continue
        name = re.sub(r"\s+", "", m.group(1))
        last = name.split("::")[-1]
        if last in _KEYWORDS or last.lstrip("~") in _KEYWORDS:
            continue
        # `requires(...)` / `noexcept(...)` / `alignas(...)` clauses.
        if last in ("requires", "noexcept", "alignas", "decltype", "__attribute__"):
            continue
        return s, e
    return None


def _sig_name(head: str, paren_start: int) -> str | None:
    m = _NAME_BEFORE_PAREN_RE.search(head[:paren_start])
    if not m:
        return None
    name = re.sub(r"\s+", "", m.group(1))
    if name.startswith("operator") and head[paren_start] == "(" and name == "operator":
        name = "operator()"
    return name


def _qualifier_tail_ok(tail: str) -> bool:
    """True if `tail` (text between the param-list ')' and the body '{')
    contains only function qualifiers / trailing-return tokens."""
    t = tail.strip()
    t = re.sub(r"noexcept\s*\([^)]*\)", "", t)
    t = re.sub(r"->\s*[\w:<>,*&\s()\[\]]+$", "", t)
    for tok in t.split():
        if tok not in ("const", "noexcept", "override", "final", "mutable",
                       "volatile", "&", "&&", "try", "->"):
            return False
    return True


def _extract_calls(body: str, body_line: int) -> list[CallSite]:
    calls = []
    for m in _CALL_RE.finditer(body):
        name = m.group(2)
        if name in _KEYWORDS:
            continue
        qual = m.group(1)
        if qual:
            qual = re.sub(r"\s*::\s*$", "", qual).replace(" ", "")
        j = m.start() - 1 if not qual else body.rfind(qual, 0, m.start()) - 1
        while j >= 0 and body[j] in " \t\n":
            j -= 1
        is_method = j >= 0 and (body[j] == "." or (body[j] == ">" and j >= 1 and body[j - 1] == "-"))
        calls.append(CallSite(name, qual, is_method, body_line + line_of(body, m.start()) - 1))
    return calls


def _extract_facts(body: str, body_line: int) -> list[Fact]:
    facts = []
    for m in re.finditer(r"\bnew\b", body):
        before = body[max(0, m.start() - 12):m.start()]
        if re.search(r"operator\s*$", before):
            continue  # operator-new declaration/definition, not a new-expression
        j = _skip_ws(body, m.end())
        if j < len(body) and body[j] == "(":
            continue  # placement-new syntax (non-allocating in this codebase)
        facts.append(Fact("new-expr", body_line + line_of(body, m.start()) - 1, "new-expression"))
    for m in _SHARD_SCHED_RE.finditer(body):
        facts.append(Fact("shard-sched", body_line + line_of(body, m.start()) - 1,
                          "schedules directly onto shard_sim()"))
    return facts


@dataclass
class _Scope:
    kind: str  # ns | class | enum
    name: str


def parse_file(path: Path, rel: str, known_rules: set[str] | None = None) -> FileModel:
    text = path.read_text(encoding="utf-8", errors="replace")
    code, suppressions, bad_lines = strip_code(text, known_rules)
    fm = FileModel(rel=rel, raw_lines=text.splitlines(), code=code,
                   suppressions=suppressions, bad_suppression_lines=list(bad_lines))

    scopes: list[_Scope] = []
    class_by_name: dict[str, ClassInfo] = {}
    i, n = 0, len(code)
    stmt_start = 0  # start of the current element (after last ; } {)

    def cur_class() -> str | None:
        for sc in reversed(scopes):
            if sc.kind == "class":
                return sc.name
        return None

    def ns_path() -> str:
        return "::".join(sc.name for sc in scopes if sc.kind == "ns" and sc.name)

    def register_function(name: str, head: str, body: str, head_idx: int,
                          body_idx: int, is_decl: bool):
        cls = cur_class()
        short = name.split("::")[-1]
        if "::" in name:
            cls = name.split("::")[-2]
        qparts = [p for p in (ns_path(), cls, short) if p]
        fn = FunctionDef(
            qname="::".join(dict.fromkeys(qparts)), name=short, cls=cls,
            file=rel, line=line_of(code, _skip_ws(code, head_idx)),
            hot="SON_HOT" in head, is_decl=is_decl)
        if not is_decl:
            fn.body = body
            fn.body_line = line_of(code, body_idx)
            fn.calls = _extract_calls(body, fn.body_line)
            fn.facts = _extract_facts(body, fn.body_line)
            for sm in _STATIC_LOCAL_RE.finditer(body):
                if "constexpr" in sm.group(1) or sm.group(1).strip().startswith("const "):
                    continue
                fm.statics.append(StaticVar(
                    name=sm.group(2), file=rel,
                    line=fn.body_line + line_of(body, sm.start()) - 1,
                    kind="static-local",
                    decl=(sm.group(1).strip() + " " + sm.group(2))[:120]))
        fm.functions.append(fn)

    def register_variable(head: str, head_idx: int):
        """Namespace-scope variable (global) or class member."""
        h = head
        # Drop default-member-initializer / initializer tail.
        eq = -1
        depth = 0
        for k, c in enumerate(h):
            if c in "(<[{":
                depth += 1
            elif c in ")>]}":
                depth -= 1
            elif c == "=" and depth == 0 and (k == 0 or h[k - 1] not in "=<>!+-*/&|%^") \
                    and (k + 1 >= len(h) or h[k + 1] != "="):
                eq = k
                break
        if eq >= 0:
            h = h[:eq]
        h = h.strip().rstrip("{").strip()
        if not h or h.endswith((")", ">", "]")):
            return
        m = re.search(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$", h)
        if not m:
            return
        name = m.group(1)
        type_text = h[:m.start()].strip()
        if not type_text or type_text in ("return", "using", "typedef", "goto"):
            return
        # `class Foo;` / `struct Bar;` / `enum class Baz;` are forward
        # declarations, not variables.
        if type_text in ("class", "struct", "union", "enum", "enum class",
                         "enum struct"):
            return
        first_tok = type_text.split()[0] if type_text.split() else ""
        if first_tok in ("using", "typedef", "friend", "extern", "template"):
            return
        line = line_of(code, _skip_ws(code, head_idx))
        cls = cur_class()
        if cls is not None:
            class_by_name[cls].members.append(MemberVar(cls, name, type_text, rel, line))
            return
        # Top-level const only: `const T* p` is a MUTABLE pointer to const.
        immutable = ("constexpr" in type_text
                     or type_text.rstrip().endswith("const")
                     or (re.search(r"\bconst\b", type_text)
                         and "*" not in type_text and "&" not in type_text))
        if not immutable:
            kind = "thread-local" if "thread_local" in type_text else "global"
            if "static_assert" in type_text:
                return
            fm.statics.append(StaticVar(name, rel, line, kind,
                                        (type_text + " " + name)[:120]))

    while i < n:
        c = code[i]
        if c in " \t\n\r":
            i += 1
            continue
        if c == "}":
            if scopes:
                scopes.pop()
            i += 1
            stmt_start = i
            # swallow a trailing ';' after a class/enum body
            j = _skip_ws(code, i)
            if j < n and code[j] == ";":
                i = j + 1
                stmt_start = i
            continue
        if c == "#":  # preprocessor line (handles simple line continuation)
            j = code.find("\n", i)
            while j > 0 and code[j - 1] == "\\":
                j = code.find("\n", j + 1)
            i = n if j < 0 else j + 1
            stmt_start = i
            continue
        if c == ";":
            head = code[stmt_start:i]
            sig = _last_toplevel_paren_group(head)
            if sig is not None:
                name = _sig_name(head, sig[0])
                if name:
                    register_function(name, head, "", stmt_start, 0, is_decl=True)
            elif "=" in head or re.search(r"[A-Za-z_]\w*\s*$", head):
                register_variable(head, stmt_start)
            i += 1
            stmt_start = i
            continue
        if c != "{":
            i += 1
            continue

        # --- classify this '{' --------------------------------------------
        head = code[stmt_start:i]
        nsm = _NS_RE.search(head)
        if nsm is not None or head.strip() == "namespace":
            names = (nsm.group(1) if nsm and nsm.group(1) else "(anon)").replace(" ", "")
            for part in names.split("::"):
                scopes.append(_Scope("ns", part))
                break  # nested-namespace shorthand: one brace closes all; keep 1 scope
            i += 1
            stmt_start = i
            continue
        if re.search(r"\benum\b", head):
            i = match_brace(code, i) + 1
            j = _skip_ws(code, i)
            if j < n and code[j] == ";":
                i = j + 1
            stmt_start = i
            continue
        if _CLASS_HEAD_RE.search(head) and not _last_toplevel_paren_group(
                head.split(":")[0] if ":" in head and "::" not in head.split(":")[0][-1:] else head):
            cm = _CLASS_NAME_RE.search(head)
            cname = cm.group(1) if cm and cm.group(1) else "(anon-class)"
            scopes.append(_Scope("class", cname))
            if cname not in class_by_name:
                ci = ClassInfo(cname, rel, line_of(code, stmt_start))
                class_by_name[cname] = ci
                fm.classes.append(ci)
            i += 1
            stmt_start = i
            continue

        sig = _last_toplevel_paren_group(head)
        if sig is not None:
            pstart, pend = sig
            name = _sig_name(head, pstart)
            tail = head[pend + 1:]
            body_open = i
            t = tail.strip()
            if name and (t.startswith(":") and not t.startswith("::")):
                # Constructor member-init list: consume `ident{...}`/`ident(...)`
                # items until the body '{'.
                j = i
                while True:
                    j = match_paren(code, j, "{", "}") + 1 if code[j] == "{" else \
                        match_paren(code, j) + 1
                    j = _skip_ws(code, j)
                    if j >= n or code[j] != ",":
                        break
                    j = _skip_ws(code, j + 1)
                    m2 = re.match(r"[A-Za-z_]\w*(?:\s*<)?", code[j:])
                    if not m2:
                        break
                    j += m2.end()
                    if code[j - 1] == "<":
                        j = match_paren(code, j - 1, "<", ">") + 1
                    j = _skip_ws(code, j)
                    if j >= n or code[j] not in "({":
                        break
                if j < n and code[j] == "{":
                    body_open = j
                    body_close = match_brace(code, body_open)
                    register_function(name, head, code[body_open + 1:body_close],
                                      stmt_start, body_open, is_decl=False)
                    i = body_close + 1
                    stmt_start = i
                    continue
                # init list ended unexpectedly; treat as opaque
                i = match_brace(code, i) + 1
                stmt_start = i
                continue
            if name and _qualifier_tail_ok(tail):
                body_close = match_brace(code, body_open)
                register_function(name, head, code[body_open + 1:body_close],
                                  stmt_start, body_open, is_decl=False)
                i = body_close + 1
                stmt_start = i
                continue

        # Brace initializer (`Foo x{...}` / array init / lambda init):
        # consume the group, then scan on to the terminating ';'.
        close = match_brace(code, i)
        head_idx = stmt_start
        j = _skip_ws(code, close + 1)
        if j < n and code[j] == ";":
            register_variable(head + "{", head_idx)
            i = j + 1
        else:
            i = close + 1
        stmt_start = i

    return fm


def build_model(files: list[tuple[Path, str]],
                known_rules: set[str] | None = None) -> Model:
    model = Model()
    for path, rel in files:
        model.files[rel] = parse_file(path, rel, known_rules)
    return model
