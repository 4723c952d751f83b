#!/usr/bin/env bash
# One-shot static-analysis runner: son-analyze (always), clang-tidy and
# cppcheck (when installed). Invoked by `cmake --build <build> --target lint`
# with BUILD_DIR set, or directly: scripts/lint.sh [build-dir].
#
# Exit code is non-zero if ANY enabled leg reports findings; legs whose tool
# is missing are skipped with a notice so the son-analyze determinism and
# shard rules stay enforceable on boxes without clang tooling.
set -u -o pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${1:-$ROOT/build}}"
JOBS="$(nproc 2>/dev/null || echo 4)"
status=0

echo "== son-analyze (determinism constructs, shard confinement, timers, hot paths) =="
if command -v python3 >/dev/null 2>&1; then
  mkdir -p "$BUILD_DIR"
  # The structural engine keeps the verdict independent of whether the
  # libclang binding is installed.
  analyze_args=(--root "$ROOT" --engine structural
                --json "$BUILD_DIR/son_analyze_report.json"
                --sarif "$BUILD_DIR/son_analyze.sarif")
  # A configured build narrows the file set to what actually compiles (and
  # pulls in headers via the include closure); without one, fall back to the
  # src/ + bench/ tree walk.
  if [ -f "$BUILD_DIR/compile_commands.json" ]; then
    analyze_args+=(--compdb "$BUILD_DIR/compile_commands.json")
  else
    analyze_args+=(src bench)
  fi
  python3 "$ROOT/tools/son_analyze/son_analyze.py" "${analyze_args[@]}" || status=1
else
  echo "python3 not found — cannot run son-analyze" >&2
  status=1
fi

echo "== clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "no $BUILD_DIR/compile_commands.json — configure with CMake first" >&2
    status=1
  else
    # Lint our sources only (src/ + bench/), not generated/test scaffolding.
    mapfile -t files < <(cd "$ROOT" && find src bench -name '*.cpp' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
      (cd "$ROOT" && run-clang-tidy -quiet -p "$BUILD_DIR" -j "$JOBS" "${files[@]}") || status=1
    else
      (cd "$ROOT" && printf '%s\n' "${files[@]}" \
        | xargs -P "$JOBS" -n 8 clang-tidy -quiet -p "$BUILD_DIR") || status=1
    fi
  fi
else
  echo "clang-tidy not installed — skipping (CI runs it)"
fi

echo "== cppcheck =="
if command -v cppcheck >/dev/null 2>&1; then
  cppcheck --std=c++20 --language=c++ --enable=warning,performance,portability \
    --inline-suppr --suppressions-list="$ROOT/tools/cppcheck-suppressions.txt" \
    --error-exitcode=1 --quiet -j "$JOBS" \
    -I "$ROOT/src" -I "$ROOT/bench" "$ROOT/src" "$ROOT/bench" || status=1
else
  echo "cppcheck not installed — skipping (CI runs it)"
fi

if [ "$status" -ne 0 ]; then
  echo "lint: FAILED" >&2
else
  echo "lint: OK"
fi
exit "$status"
