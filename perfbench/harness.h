// Measurement plumbing for the benchmark binary: host clocks, an in-memory
// span log, quantile helpers and a small ordered JSON writer. Nothing here
// reaches into the simulator; the workloads time their own calls into it.
#ifndef CALLIOPE_PERFBENCH_HARNESS_H_
#define CALLIOPE_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/units.h"

namespace perfbench {

// CPU time of the calling thread. The simulator is single-threaded, so this
// is its wall time minus the time the scheduler took the core away.
double ThreadCpuSeconds();

// Host time of one interval, started at construction: the thread's CPU
// seconds, checked against the monotonic wall clock. One thread cannot use
// more CPU than wall time, so an interval outside [0, wall] (a jump of the
// thread clock) is reported as its wall time instead.
class HostTimer {
 public:
  HostTimer();
  double Seconds() const;

 private:
  double cpu_start_;
  double wall_start_;
};

// Peak resident set of this process, in MiB.
double PeakRssMib();

// FNV-1a, 64 bit: the determinism fingerprint of a ClusterReport's JSON.
uint64_t Fnv1a64(const std::string& bytes);

// One traced call into a layer. Host times are thread-CPU seconds from the
// start of the process; sim times are the simulated clock at the span's
// boundaries. `session` groups the spans of one client session (-1: none).
struct Span {
  std::string name;
  int parent = -1;
  int64_t session = -1;
  double host_start = 0;
  double host_end = 0;
  int64_t sim_start_us = 0;
  int64_t sim_end_us = 0;
  int64_t events = 0;  // simulator events fired inside the span
};

// Spans kept in memory and written out once, at exit. Disabled, every call
// is a no-op returning -1, so untraced runs pay only the branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(std::string name, int parent, int64_t session, calliope::SimTime sim_now,
            int64_t events_now);
  void End(int id, calliope::SimTime sim_now, int64_t events_now);
  // Per-layer counts recorded at a span boundary ("at the same boundaries").
  void Count(int span, std::string name, double value);

  // A span's self time is its duration minus the part of it that its
  // children cover; the written file keeps the parent links for that.
  const std::vector<Span>& spans() const { return spans_; }
  bool WriteJson(const std::string& path) const;

 private:
  struct Mark {
    int span;
    std::string name;
    double value;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<Mark> marks_;
};

// Nearest-rank quantile of raw samples (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Quantile of a LatenessHistogram in milliseconds, linearly interpolated
// inside the 1 ms bin that holds it (the histogram's own Quantile returns the
// bin edge). Early samples count as on time, as in the histogram; the
// overflow bin beyond 1 s spans up to the largest lateness recorded.
double HistogramQuantileMs(const calliope::LatenessHistogram& histogram, double q);

// Ordered JSON object builder (keys in insertion order).
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, int64_t value);
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonObject& AddRaw(const std::string& key, std::string json);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonQuote(const std::string& text);

}  // namespace perfbench

#endif  // CALLIOPE_PERFBENCH_HARNESS_H_
