#!/usr/bin/env bash
# Builds the tree under sanitizers (the CALLIOPE_SANITIZE cmake option), with
# warnings as errors (CALLIOPE_WERROR), and runs the full tier-1 ctest suite
# under them. Usage:
#
#   scripts/check_sanitize.sh [--tsan] [build-dir] [extra ctest args...]
#
# Default is ASan+UBSan in build-asan; --tsan switches to ThreadSanitizer in
# build-tsan (the simulator is single-threaded by design — TSan documents
# that and guards the few std::thread touchpoints in the harness).
# e.g. `scripts/check_sanitize.sh build-asan -R chaos` to sweep only the
# seeded chaos tests under the sanitizers.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="address;undefined"
DEFAULT_DIR="build-asan"
if [[ "${1:-}" == "--tsan" ]]; then
  SANITIZERS="thread"
  DEFAULT_DIR="build-tsan"
  shift
fi
BUILD_DIR="${1:-${DEFAULT_DIR}}"
shift || true

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCALLIOPE_SANITIZE="${SANITIZERS}" \
  -DCALLIOPE_WERROR=ON
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# halt_on_error so ctest fails loudly instead of logging and limping on.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" "$@"

# The hybrid-fidelity suite gets an explicit pass: the flow<->packet
# promotion machinery hands page buffers between two delivery loops, which
# is exactly where a lifetime bug would hide from the default-mode tests.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L '^fidelity$'

# The stream-sharing suite too: shared fan-out iterates member lists that VCR
# splits mutate across suspension points, and the page cache hands out
# borrowed DataPage pointers — both prime use-after-free territory.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L '^sharing$'

# The continuous-telemetry suite: the sampler's self-rescheduling tick holds
# raw instrument pointers and the QoS accumulator is fed from the delivery
# hot paths — the places a dangling-pointer bug would live.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L '^slo$'

# The rebalancing suite: background copy ops are cancelled from three sides
# (preemption, MSU crash, primary flip) while a pull coroutine is suspended
# mid-transfer — exactly where a use-after-free or double-release of duty
# slots / ledger holds would hide.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L '^rebalance$'

# The overload-control suite: the shed governor erases pending requests and
# aborts replication ops while retry/expiry coroutines may be suspended over
# the same deque, and the workload driver runs hundreds of short-lived
# session coroutines against it — prime iterator-invalidation and
# use-after-free territory under all three sanitizers.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L '^load$'

# The warm-standby coordinator suite gets an explicit pass under TSan: the
# takeover path is where cross-coroutine state handoff concentrates. (The
# label regex is anchored because "chaos" contains "ha".)
if [[ "${SANITIZERS}" == "thread" ]]; then
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -L '^ha$'
fi
