#!/usr/bin/env bash
# Build and run the tier-1 test suite under ThreadSanitizer.
#
# The obs hot paths (Counter/Gauge/Histogram updates, SpanCollector::record)
# are exercised from test threads and from reader threads sharing one
# composite's single-flight collection over the wire, whose reused
# collection job passes between those threads under the composite's
# collection mutex; historian reader threads race an appender on the store.
# This is the standing proof they stay race-free. Usage:
#
#   scripts/run_tsan.sh [build-dir]    # default build-tsan
#
# Pass SENSORCER_SANITIZE=address via the environment to run ASan instead:
#   SENSORCER_SANITIZE=address scripts/run_tsan.sh build-asan
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
SANITIZER="${SENSORCER_SANITIZE:-thread}"

cmake -B "$BUILD_DIR" -S . -DSENSORCER_SANITIZE="$SANITIZER" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
