#!/usr/bin/env bash
# Checks that the working tree behaves exactly like <base-rev>: builds the
# benchmark (perfbench/) at both, runs every perfbench workload on its
# default and held-out seeds, and compares the ClusterReport hashes. The
# check for refactors that must not change behaviour. Usage:
#
#   scripts/same_reports.sh <base-rev> [seconds]
#
# <base-rev> is checked out into a temporary git worktree (removed on exit);
# [seconds] is the measured window per run (default 20). Exits non-zero if
# any report_hash differs or a run fails. Takes a few minutes: two cold
# builds plus six runs per tree.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <base-rev> [seconds]" >&2
  exit 2
fi
BASE_REV="$1"
SECONDS_PER_RUN="${2:-20}"

cd "$(dirname "$0")/.."
REPO="$(pwd)"
BASE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/calliope-base.XXXXXX")"
cleanup() {
  git -C "${REPO}" worktree remove --force "${BASE_DIR}" >/dev/null 2>&1 || true
  rm -rf "${BASE_DIR}"
  git -C "${REPO}" worktree prune
}
trap cleanup EXIT
git worktree add --detach "${BASE_DIR}" "${BASE_REV}" >/dev/null

# Prints one "<workload> <seed> <report_hash>" line per run of the tree in $1.
report_hashes() {
  local tree="$1" workload seed line
  for workload in fleet-flow graph1-packet zipf-churn; do
    for seed in default held-out; do
      line="$(cd "${tree}" && python3 perfbench/run.py --workload "${workload}" \
                --seed "${seed}" --seconds "${SECONDS_PER_RUN}" --trace 0 2>/dev/null |
              grep -o 'report_hash [0-9a-f]*' || true)"
      echo "${workload} ${seed} ${line:-report_hash run-failed}"
    done
  done
}

echo "== ${BASE_REV}" >&2
BASE_HASHES="$(report_hashes "${BASE_DIR}")"
echo "${BASE_HASHES}" >&2
echo "== working tree" >&2
WORK_HASHES="$(report_hashes "${REPO}")"
echo "${WORK_HASHES}" >&2

if grep -q run-failed <<<"${BASE_HASHES}${WORK_HASHES}"; then
  echo "same_reports: a run failed" >&2
  exit 1
fi
if [[ "${BASE_HASHES}" != "${WORK_HASHES}" ]]; then
  diff <(echo "${BASE_HASHES}") <(echo "${WORK_HASHES}") >&2 || true
  echo "same_reports: report hashes differ from ${BASE_REV}" >&2
  exit 1
fi
echo "same_reports: all report hashes match ${BASE_REV}"
