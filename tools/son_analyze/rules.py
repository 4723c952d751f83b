"""son-analyze rules over the cpp_model.Model, in two groups.

Construct rules match each file's stripped code line by line. Each rejects a
construct that breaks the simulator's determinism contract (results are a
pure function of topology, seeds and schedule order):

  wall-clock          reading real time (system_clock/steady_clock/time()/...)
  raw-rand            std::rand, srand, drand48, arc4random, std::random_device
  std-rng             std library RNG engines (use sim::Rng, seeded + forkable)
  env-read            getenv/setenv — results must not depend on the environment
  unordered-iter      iterating an unordered container with an effectful body
                      (emits events, sends packets, accumulates, prints, ...)
  ptr-key-order       containers ordered by raw pointer keys (address-dependent)
  float-accum         ad-hoc float/double accumulation over trial results
                      outside the established merge() path
  cross-shard         `shard_sim(p).schedule(...)` written inline; the
                      call-graph form of this check is shard-confinement

Flow rules walk the whole program, each the static complement of a runtime
contract:

  shard-confinement   code reachable from partition entry points must not
                      schedule onto the control plane (schedule_global /
                      control_sim), schedule directly onto another shard's
                      simulator, or touch mutable namespace-scope state.
                      ShardChannel::push is the only legal cross-partition
                      carrier. Complements the SON_DCHECKs in ShardedKernel /
                      Internet::enable_sharding. (Per-object cross-partition
                      writes stay runtime-checked: name-based analysis cannot
                      see object ownership.)

  timer-lifecycle     a schedule()/schedule_at() whose callback captures
                      `this`, or whose EventId is kept in a member, must be
                      called on a sim::Timers member, so destroying the owner
                      cancels the timer. Catches statically the dangling-timer
                      use-after-free class.

  hot-path-alloc      functions annotated SON_HOT must not reach a known
                      allocating construct (new-expressions, make_shared/
                      make_unique/to_string/malloc, or amortized container
                      growth like push_back/resize) on any call path. The
                      static complement of the runtime alloc_probe: the probe
                      proves a measured window allocation-free, this proves
                      the property over every path the call graph admits.
                      Reserve-backed growth is sound — suppress with the
                      justification saying why the capacity is pre-reserved.

  mutable-static      census of mutable namespace-scope / thread_local /
                      function-local-static state, enforced against justified
                      suppressions. Mutable statics are shared across shard
                      workers and across trial replications: each one is a
                      determinism hazard unless single-writer or inert.

Plus `bad-suppression` (a suppression without a justification or naming an
unknown rule).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

from cpp_model import (Fact, FunctionDef, Model, _ALLOC_CALLS, _GROWTH_METHODS,
                       _SHARD_SCHED_RE, line_of, match_brace, match_paren)

RULES = {
    "wall-clock": "reads real (wall/monotonic) time; sim code must derive time from sim::Simulator::now()",
    "raw-rand": "non-deterministic randomness source; use a seeded sim::Rng (fork() per component)",
    "std-rng": "std library RNG engine; use sim::Rng so streams are seeded and forkable per component",
    "env-read": "environment read; results must be a pure function of (topology, seeds, schedule)",
    "unordered-iter": "iterates an unordered container with an effectful body; iteration order is "
    "hash/layout-dependent — use sorted iteration, std::map, or a stable vector",
    "ptr-key-order": "container ordered or keyed by a raw pointer; ordering depends on allocation "
    "addresses, which vary run to run",
    "float-accum": "ad-hoc floating-point accumulation over trial results; fold through "
    "sim::OnlineStats/SampleSet/Histogram merge() in trial-index order instead",
    "cross-shard": "schedules directly onto a shard simulator fetched inline; cross-partition "
    "events must go through a ShardChannel (flushed at round boundaries) so lookahead holds",
    "shard-confinement": "partition-reachable code schedules onto the control plane, another "
    "shard's simulator, or touches mutable global state; cross-partition effects must ride a "
    "ShardChannel so the conservative lookahead bound holds",
    "timer-lifecycle": "a scheduled timer can outlive its owner: a this-capturing callback, or "
    "one whose EventId is kept in a member, must be scheduled through the owner's sim::Timers "
    "member, whose destruction cancels it — a fire after destruction is a use-after-free",
    "hot-path-alloc": "a SON_HOT function reaches an allocating construct; hot paths promise "
    "zero steady-state heap allocation (runtime-pinned by alloc_probe, statically by this rule)",
    "mutable-static": "mutable namespace-scope/static state; shared across shard workers and "
    "trial replications, so every instance needs a written single-writer/inertness argument",
    "bad-suppression": "son-analyze suppression without a justification string",
}


@dataclass
class Finding:
    file: str
    line: int
    rule: str
    message: str
    snippet: str = ""
    path: list[str] = field(default_factory=list)  # call chain, for reach rules

    def sort_key(self):
        return (self.file, self.line, self.rule, self.message)

    def to_json(self):
        d = {"file": self.file, "line": self.line, "rule": self.rule,
             "message": self.message, "snippet": self.snippet}
        if self.path:
            d["path"] = self.path
        return d

    def __str__(self):
        s = f"{self.file}:{self.line}: [{self.rule}] {self.message}"
        if self.path:
            s += f"\n    path: {' -> '.join(self.path)}"
        return s


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


class CallGraph:
    """Name-resolved call graph over every FunctionDef with a body.

    Resolution is deliberately over-approximate (see cpp_model docstring):
      obj.m(...) / p->m(...)   -> every class method named m
      Cls::m(...) / ns::f(...) -> functions named m whose class/qname matches
      f(...)                   -> free functions named f, plus methods named f
                                  of the *caller's own* class (implicit this->)
    """

    def __init__(self, model: Model):
        self.defs: list[FunctionDef] = [f for f in model.functions() if not f.is_decl]
        self.by_name: dict[str, list[FunctionDef]] = {}
        self.methods_by_name: dict[str, list[FunctionDef]] = {}
        self.free_by_name: dict[str, list[FunctionDef]] = {}
        for f in self.defs:
            self.by_name.setdefault(f.name, []).append(f)
            (self.methods_by_name if f.cls else self.free_by_name).setdefault(
                f.name, []).append(f)
        # SON_HOT can live on the declaration (header) or the definition:
        # merge by (cls, name).
        hot_keys = {(f.cls, f.name) for f in model.functions() if f.hot}
        for f in self.defs:
            if (f.cls, f.name) in hot_keys:
                f.hot = True
        self._succ: dict[int, list[FunctionDef]] = {}

    def successors(self, fn: FunctionDef) -> list[FunctionDef]:
        cached = self._succ.get(id(fn))
        if cached is not None:
            return cached
        out: list[FunctionDef] = []
        seen: set[int] = set()
        for call in fn.calls:
            if call.is_method and call.name in _GROWTH_METHODS:
                # Growth-named method calls (push_back, insert, ...) are
                # overwhelmingly std-container calls; resolving them to
                # same-named project methods cascades false paths. They are
                # terminal sinks for hot-path-alloc instead of edges.
                continue
            if call.qualifier:
                qlast = call.qualifier.split("::")[-1]
                cands = [g for g in self.by_name.get(call.name, ())
                         if g.cls == qlast or qlast in g.qname.split("::")]
            elif call.is_method:
                cands = self.methods_by_name.get(call.name, ())
            else:
                cands = list(self.free_by_name.get(call.name, ()))
                if fn.cls:
                    cands += [g for g in self.methods_by_name.get(call.name, ())
                              if g.cls == fn.cls]
            for g in cands:
                if id(g) not in seen:
                    seen.add(id(g))
                    out.append(g)
        self._succ[id(fn)] = out
        return out

    def reach(self, roots: list[FunctionDef]):
        """BFS yielding (fn, path_of_qnames) in deterministic order."""
        seen: set[int] = set()
        q: deque[tuple[FunctionDef, tuple[str, ...]]] = deque()
        for r in sorted(roots, key=lambda f: (f.file, f.line)):
            if id(r) not in seen:
                seen.add(id(r))
                q.append((r, (r.qname,)))
        while q:
            fn, path = q.popleft()
            yield fn, path
            if len(path) >= 24:  # depth bound; over-approx graphs can cycle wide
                continue
            for g in self.successors(fn):
                if id(g) not in seen:
                    seen.add(id(g))
                    q.append((g, path + (g.qname,)))


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


class Emitter:
    def __init__(self, model: Model, baseline):
        self.model = model
        self.baseline = baseline
        self.findings: list[Finding] = []
        self.suppressed_count = 0

    def snippet(self, file: str, line: int) -> str:
        fm = self.model.files.get(file)
        if fm and 0 < line <= len(fm.raw_lines):
            return fm.raw_lines[line - 1].strip()[:160]
        return ""

    def emit(self, file: str, line: int, rule: str, message: str,
             path: list[str] | None = None, symbol: str = ""):
        fm = self.model.files.get(file)
        if fm and rule in fm.suppressions.get(line, ()):
            self.suppressed_count += 1
            return False
        if self.baseline is not None and self.baseline.allows(rule, file, symbol):
            self.suppressed_count += 1
            return False
        self.findings.append(Finding(file, line, rule, message,
                                     self.snippet(file, line), path or []))
        return True

    def is_suppressed_at(self, file: str, line: int, rule: str) -> bool:
        fm = self.model.files.get(file)
        if fm and rule in fm.suppressions.get(line, ()):
            return True
        return self.baseline is not None and self.baseline.allows(rule, file, "")


# ---------------------------------------------------------------------------
# Construct rules: per-line patterns over each file's stripped code
# ---------------------------------------------------------------------------

_SIMPLE_RULES = [
    (
        "wall-clock",
        re.compile(
            r"\b(?:std::)?chrono::(?:system_clock|steady_clock|high_resolution_clock)\b"
            r"|\bclock_gettime\b|\bgettimeofday\b|\bstd::time\s*\("
            r"|(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL|0)?\s*\)"
        ),
    ),
    (
        "raw-rand",
        re.compile(
            r"\bstd::rand\b|(?<![\w:.>])s?rand\s*\(|\bdrand48\b|\barc4random\w*\b"
            r"|\brandom_device\b"
        ),
    ),
    (
        "std-rng",
        re.compile(
            r"\b(?:std::)?(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
            r"|ranlux24(?:_base)?|ranlux48(?:_base)?|knuth_b)\b"
        ),
    ),
    (
        "env-read",
        re.compile(r"\b(?:std::)?(?:getenv|secure_getenv|setenv|putenv|unsetenv)\s*\("),
    ),
    (
        "ptr-key-order",
        re.compile(
            r"\b(?:std::)?(?:map|set|multimap|multiset|priority_queue)\s*<\s*"
            r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*"
        ),
    ),
    ("cross-shard", _SHARD_SCHED_RE),
]

_UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
_USING_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*[^;]*\bunordered_(?:map|set|multimap|multiset)\s*<"
)
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")

# Statements inside an unordered-container loop body that make iteration order
# observable: scheduling events, sending packets, tracing/printing, appending
# to ordered output, or floating/stat accumulation.
_EFFECT_RE = re.compile(
    r"\bschedule(?:_at)?\s*\(|\bsend\s*\(|\bemit\s*\(|\btrace\s*\(|\bprintf\s*\(|"
    r"\bfprintf\s*\(|\bcout\b|\bcerr\b|<<|\bpush_back\s*\(|\bemplace_back\s*\(|"
    r"\babsorb\s*\(|\brecord\s*\(|\bmix\s*\(|\+=|\bhash\b|\bwrite\s*\(|\bappend\s*\("
)

_FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*[;=({]")
_RESULTS_NAME_RE = re.compile(r"\b(?:results|metrics|trials|samples|reports)\b")
_FLOATISH_ACCUM_RE = re.compile(
    r"([\w.\[\]()->]+)\s*\+=\s*[^;]*(?:\.mean\(\)|\.sum\b|\.count\b|latency|seconds|"
    r"_s\b|\.to_seconds)"
)


def _skip_angle(code: str, i: int) -> int:
    """`i` points just past a '<'; returns index just past the matching '>'."""
    depth = 1
    n = len(code)
    while i < n and depth:
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c in ";{}":  # not a template argument list after all
            return i
        i += 1
    return i


def _unordered_names(code: str) -> set[str]:
    """Identifiers declared with an unordered container type (incl. aliases)."""
    names: set[str] = set()
    alias_names = {m.group(1) for m in _USING_ALIAS_RE.finditer(code)}
    decl_res = [_UNORDERED_DECL_RE]
    if alias_names:
        decl_res.append(re.compile(r"\b(?:" + "|".join(map(re.escape, sorted(alias_names))) + r")\s+"))
    for decl_re in decl_res:
        for m in decl_re.finditer(code):
            i = m.end()
            if m.re is _UNORDERED_DECL_RE:
                i = _skip_angle(code, i)
            tail = code[i : i + 120]
            dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:[;={(,)]|$)", tail)
            if dm:
                names.add(dm.group(1))
    return names


def _loop_body(code: str, k: int) -> str:
    """The loop body starting at or after `k`: a braced block or one statement."""
    while k < len(code) and code[k] in " \t\n":
        k += 1
    if k < len(code) and code[k] == "{":
        return code[k : match_brace(code, k) + 1]
    end = code.find(";", k)
    return code[k : end + 1 if end >= 0 else len(code)]


def _iter_range_fors(code: str):
    """Yields (line, range_expr, body) for every range-based for loop."""
    for m in re.finditer(r"\bfor\s*\(", code):
        open_paren = m.end() - 1
        close = match_paren(code, open_paren)
        header = code[open_paren + 1 : close]
        # Top-level ':' that is not part of '::' marks a range-for.
        depth = 0
        colon = -1
        j = 0
        while j < len(header):
            c = header[j]
            if c in "([{<":
                depth += 1
            elif c in ")]}>":
                depth -= 1
            elif c == ":" and depth == 0:
                if j + 1 < len(header) and header[j + 1] == ":":
                    j += 2
                    continue
                if j > 0 and header[j - 1] == ":":
                    j += 1
                    continue
                colon = j
                break
            j += 1
        if colon < 0:
            continue
        yield line_of(code, m.start()), header[colon + 1 :], _loop_body(code, close + 1)


def check_constructs(model: Model, em: Emitter):
    for fm in model.files.values():
        code = fm.code

        def emit(line: int, rule: str, extra: str = ""):
            em.emit(fm.rel, line, rule, RULES[rule] + (f" ({extra})" if extra else ""))

        for ln, line_text in enumerate(code.splitlines(), start=1):
            for rule, rx in _SIMPLE_RULES:
                if rx.search(line_text):
                    emit(ln, rule)

        range_fors = list(_iter_range_fors(code))

        # Unordered-container iteration with an effectful body.
        unames = _unordered_names(code)
        for line, range_expr, body in range_fors:
            over_unordered = "unordered_" in range_expr or any(
                ident in unames for ident in _IDENT_RE.findall(range_expr))
            if over_unordered and _EFFECT_RE.search(body):
                emit(line, "unordered-iter", f"range-for over '{range_expr.strip()}'")

        # Iterator-style loops: for (auto it = x.begin(); ...
        if unames:
            it_re = re.compile(
                r"\bfor\s*\(\s*auto\s+\w+\s*=\s*("
                + "|".join(map(re.escape, sorted(unames))) + r")\s*\.\s*(?:c?begin)\s*\(")
            for m in it_re.finditer(code):
                close = match_paren(code, code.index("(", m.start()))
                body = _loop_body(code, close + 1)
                if body.startswith("{") and _EFFECT_RE.search(body):
                    emit(line_of(code, m.start()), "unordered-iter",
                         f"iterator loop over '{m.group(1)}'")

        # Ad-hoc float accumulation over trial results.
        float_vars = {m.group(1) for m in _FLOAT_DECL_RE.finditer(code)}
        for line, range_expr, body in range_fors:
            if not _RESULTS_NAME_RE.search(range_expr):
                continue
            for am in re.finditer(r"([\w.\[\]]+)\s*\+=", body):
                lhs_tail = am.group(1).split(".")[-1].split("[")[0]
                if lhs_tail in float_vars or \
                        _FLOATISH_ACCUM_RE.search(body[am.start() : am.start() + 160]):
                    emit(line + line_of(body, am.start()) - 1, "float-accum",
                         f"'{am.group(1)} +=' over '{range_expr.strip()}'")
                    break


# ---------------------------------------------------------------------------
# Rule: mutable-static (census first: confinement consumes the survivors)
# ---------------------------------------------------------------------------


def check_mutable_statics(model: Model, em: Emitter) -> list:
    """Emits findings; returns the unsuppressed file-local referenceable
    statics (globals / thread-locals) for the confinement rule's sink set."""
    live = []
    for fm in model.files.values():
        for sv in fm.statics:
            kept = em.emit(
                sv.file, sv.line, "mutable-static",
                f"mutable {sv.kind} `{sv.decl}` — "
                + RULES["mutable-static"].split("; ", 1)[1],
                symbol=sv.name)
            if sv.kind != "static-local":
                if kept or not em.is_suppressed_at(sv.file, sv.line, "shard-confinement"):
                    # A static whose definition carries a shard-confinement
                    # suppression is also dropped from the confinement sink
                    # set: one justification covers both views of the hazard.
                    if not em.is_suppressed_at(sv.file, sv.line, "shard-confinement"):
                        live.append(sv)
    return live


# ---------------------------------------------------------------------------
# Rule: shard-confinement
# ---------------------------------------------------------------------------

_CONTROL_CALLS = {"schedule_global", "control_sim"}


def check_shard_confinement(model: Model, graph: CallGraph, em: Emitter,
                            partition_globs: list[str], live_statics: list,
                            roots_filter=None):
    import fnmatch

    roots = [f for f in graph.defs
             if any(fnmatch.fnmatch(f.file, g) for g in partition_globs)
             and (roots_filter is None or roots_filter(f))]
    # Pre-index static references per function (file-local identifier match:
    # the census statics in this tree live in anonymous namespaces).
    statics_by_file: dict[str, list] = {}
    for sv in live_statics:
        statics_by_file.setdefault(sv.file, []).append(sv)

    reported: set[tuple] = set()

    def report(file, line, key, msg, path, symbol):
        if key in reported:
            return
        em.emit(file, line, "shard-confinement", msg, list(path), symbol=symbol)
        reported.add(key)  # even if suppressed: don't re-litigate via other paths

    for fn, path in graph.reach(roots):
        for call in fn.calls:
            if call.name in _CONTROL_CALLS:
                report(fn.file, call.line, ("ctl", fn.qname, call.name),
                       f"`{fn.qname}` (partition-reachable) calls `{call.name}` — "
                       "control-plane scheduling from partition context breaks the "
                       "lookahead contract (runtime: SON_DCHECK in ShardedKernel)",
                       path, fn.qname)
        for fact in fn.facts:
            if fact.kind == "shard-sched":
                report(fn.file, fact.line, ("ss", fn.file, fact.line),
                       f"`{fn.qname}` (partition-reachable) schedules directly onto a "
                       "shard simulator; cross-partition events must ride a "
                       "ShardChannel (the cross-shard rule, here transitively enforced)",
                       path, fn.qname)
        for sv in statics_by_file.get(fn.file, ()):
            if fn.body and re.search(r"\b" + re.escape(sv.name) + r"\b", fn.body):
                report(fn.file, sv.line, ("st", fn.qname, sv.name),
                       f"`{fn.qname}` (partition-reachable) touches mutable "
                       f"{sv.kind} `{sv.name}` — shared across shard workers",
                       path, fn.qname)


# ---------------------------------------------------------------------------
# Rule: timer-lifecycle
# ---------------------------------------------------------------------------

_EVENTID_TYPE_RE = re.compile(r"(?:^|[^\w])(?:sim\s*::\s*)?EventId\s*$")
_EVENTID_CONTAINER_RE = re.compile(
    r"(?:vector|array|deque)\s*<\s*(?:sim\s*::\s*)?EventId\s*(?:,[^>]*)?>")
_TIMERS_TYPE_RE = re.compile(r"(?:^|[^\w:])(?:sim\s*::\s*)?Timers\s*$")
_SCHED_CALL_RE = re.compile(r"\bschedule(?:_at)?\s*\(")
_CAPTURES_THIS_RE = re.compile(r"\[\s*(?:this\b|=|&[\s,\]])")
_RECEIVER_RE = re.compile(r"([A-Za-z_]\w*(?:\s*\(\s*\))?(?:\s*(?:\.|->)\s*[A-Za-z_]\w*"
                          r"(?:\s*\(\s*\))?)*)\s*(?:\.|->)\s*$")


def _statement_around(body: str, idx: int) -> str:
    start = max(body.rfind(";", 0, idx), body.rfind("{", 0, idx), body.rfind("}", 0, idx))
    return body[start + 1 if start >= 0 else 0:idx]


def _names_re(names: set[str]) -> str:
    return "|".join(map(re.escape, sorted(names))) if names else r"(?!)"


def check_timer_lifecycle(model: Model, graph: CallGraph, em: Emitter):
    """Every schedule call in a method whose callback captures `this`, or
    whose id is kept in a member, must be made on a sim::Timers member.
    Members are matched by name over the whole model, so a Timers or EventId
    member a class inherits counts as its own."""
    timers_names: set[str] = set()
    id_names: set[str] = set()
    for ci in model.classes():
        for mv in ci.members:
            if _TIMERS_TYPE_RE.search(mv.type_text):
                timers_names.add(mv.name)
            elif _EVENTID_TYPE_RE.search(mv.type_text) or \
                    _EVENTID_CONTAINER_RE.search(mv.type_text):
                id_names.add(mv.name)
    on_timers_re = re.compile(
        r"(?:\bthis\s*->\s*)?\b(?:" + _names_re(timers_names) + r")\s*\.\s*$")
    keeps_id_re = re.compile(
        r"\b(" + _names_re(id_names) + r")\s*(?:=(?!=)|\.\s*(?:push_back|emplace_back|"
        r"insert|emplace)\s*\()")

    for m in graph.defs:
        if not m.cls or not m.body:
            continue
        for sm in _SCHED_CALL_RE.finditer(m.body):
            open_paren = m.body.index("(", sm.start())
            args = m.body[open_paren:match_paren(m.body, open_paren) + 1]
            stmt = _statement_around(m.body, sm.start())
            kept = keeps_id_re.search(stmt)
            if not kept and not _CAPTURES_THIS_RE.search(args):
                continue
            if on_timers_re.search(stmt):
                continue
            why = (f"keeps its EventId in member `{kept.group(1)}`" if kept
                   else "captures `this`")
            recv = _RECEIVER_RE.search(stmt)
            where = f"`{recv.group(1)}`" if recv else "an unqualified call"
            line = m.body_line + m.body.count("\n", 0, sm.start())
            em.emit(m.file, line, "timer-lifecycle",
                    f"`{m.qname}` schedules a callback that {why} on {where}, not on a "
                    "sim::Timers member; schedule it through the owner's Timers so the "
                    "owner's destruction cancels it",
                    symbol=m.qname)


# ---------------------------------------------------------------------------
# Rule: hot-path-alloc
# ---------------------------------------------------------------------------


def check_hot_path_alloc(model: Model, graph: CallGraph, em: Emitter):
    roots = [f for f in graph.defs if f.hot]
    reported: set[tuple] = set()

    def report(file, line, key, msg, path, symbol):
        if key in reported:
            return
        em.emit(file, line, "hot-path-alloc", msg, list(path), symbol=symbol)
        reported.add(key)

    for fn, path in graph.reach(roots):
        root = path[0]
        for fact in fn.facts:
            if fact.kind == "new-expr":
                report(fn.file, fact.line, (fn.file, fact.line),
                       f"new-expression reachable from SON_HOT `{root}` "
                       f"(in `{fn.qname}`)", path, fn.qname)
        for call in fn.calls:
            if call.name in _ALLOC_CALLS:
                report(fn.file, call.line, (fn.file, call.line),
                       f"allocating call `{call.name}` reachable from SON_HOT "
                       f"`{root}` (in `{fn.qname}`)", path, fn.qname)
            elif call.is_method and call.name in _GROWTH_METHODS:
                report(fn.file, call.line, (fn.file, call.line),
                       f"container growth `{call.name}` reachable from SON_HOT "
                       f"`{root}` (in `{fn.qname}`); sound only if capacity is "
                       "pre-reserved — suppress with the reservation argument",
                       path, fn.qname)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_all(model: Model, baseline, partition_globs: list[str],
            roots_filter=None) -> tuple[list[Finding], int]:
    """roots_filter(fn) -> bool narrows the shard-confinement entry set
    (the baseline's control_plane section routes through it)."""
    em = Emitter(model, baseline)
    for fm in model.files.values():
        for ln in fm.bad_suppression_lines:
            em.findings.append(Finding(fm.rel, ln, "bad-suppression",
                                       RULES["bad-suppression"],
                                       em.snippet(fm.rel, ln)))
    check_constructs(model, em)
    graph = CallGraph(model)
    live_statics = check_mutable_statics(model, em)
    check_shard_confinement(model, graph, em, partition_globs, live_statics,
                            roots_filter)
    check_timer_lifecycle(model, graph, em)
    check_hot_path_alloc(model, graph, em)
    em.findings.sort(key=Finding.sort_key)
    return em.findings, em.suppressed_count
