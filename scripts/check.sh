#!/usr/bin/env bash
# One-shot developer entrypoint: configure + build + tests + lint + quick
# benches — everything CI gates on, minus the sanitizer matrix. Run it before
# pushing:
#
#   scripts/check.sh [build-dir]     (default: build)
#
# Fails fast on the first broken stage.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure + build ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S "$ROOT"
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== lint (son-analyze + clang-tidy/cppcheck when installed) =="
BUILD_DIR="$BUILD_DIR" bash "$ROOT/scripts/lint.sh"

echo "== quick benches =="
"$BUILD_DIR/bench/bench_simcore" --quick --json-out "$BUILD_DIR/BENCH_simcore.json"
"$BUILD_DIR/bench/bench_fig3_hopbyhop" --quick --jobs 1 --json-out "$BUILD_DIR/j1.json" > /dev/null
"$BUILD_DIR/bench/bench_fig3_hopbyhop" --quick --jobs 8 --json-out "$BUILD_DIR/j8.json" > /dev/null
python3 - "$BUILD_DIR/j1.json" "$BUILD_DIR/j8.json" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["results"] == b["results"] and a["options"] == b["options"], \
    "aggregate results differ between --jobs 1 and --jobs 8"
print("deterministic across thread counts")
EOF

echo "check.sh: all stages OK"
