// The benchmark's three workloads, each run as one repetition: set up an
// installation, drive it through its measured phase, then collect every
// end-to-end and per-layer figure plus the correctness gate.
#ifndef CALLIOPE_PERFBENCH_WORKLOADS_H_
#define CALLIOPE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {

enum class WorkloadKind { kFleetFlow, kGraph1Packet, kZipfChurn };

// Parses "fleet-flow" / "graph1-packet" / "zipf-churn"; false if unknown.
bool ParseWorkload(const std::string& name, WorkloadKind* out);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string note;  // how it was measured, when the name alone does not say
};

struct RepResult {
  // [host] figures of this repetition.
  double setup_s = 0;
  double measured_cpu_s = 0;
  // Stream-seconds delivered to clients in the measured phase: media bytes
  // received / the MPEG-1 nominal 1.5 Mbit/s.
  double stream_s = 0;
  // [sim] figures; identical across repetitions of one seed.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string report_hash;
  int64_t sessions = 0;
  int64_t gate_failures = 0;             // sessions that broke the gate
  std::vector<std::string> gate_errors;  // first few reasons, human-readable
};

// One full repetition. `spans` records the calls made into each layer when
// enabled.
RepResult RunRepetition(WorkloadKind kind, uint64_t seed, SpanLog& spans);

// Set-up only (construction, boot, content, client connects); returns its
// host CPU seconds. Used to take several set-up samples per run.
double RunSetupOnly(WorkloadKind kind, uint64_t seed);

}  // namespace perfbench

#endif  // CALLIOPE_PERFBENCH_WORKLOADS_H_
