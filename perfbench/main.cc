// Benchmark binary: runs one workload for one seed and prints a single JSON
// object (see run.py, which builds this binary and formats the result).
//
//   calliope_perfbench --workload fleet-flow|graph1-packet|zipf-churn
//                      --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// Untraced (--trace 0): repeats the workload, each time on a fresh
// installation with the same seed, while the next repetition still fits in
// S host seconds (at least once), and takes at least eleven set-up samples.
// Host figures are medians over repetitions; simulated figures must be
// identical across them, which is checked.
//
// Traced (--trace 1): one untraced repetition, then one with spans recorded
// around every call into a layer; per-layer figures come from the traced
// one, and the difference in host time is the tracing overhead. Spans are
// written to DIR/<workload>-seed<N>.json at exit.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace {

using perfbench::JsonObject;
using perfbench::Metric;
using perfbench::RepResult;

constexpr int kSetupSamples = 11;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::string MetricList(const std::vector<Metric>& metrics) {
  std::string out = "[";
  for (size_t i = 0; i < metrics.size(); ++i) {
    JsonObject m;
    m.Add("name", metrics[i].name).Add("unit", metrics[i].unit).Add("value", metrics[i].value);
    if (!metrics[i].note.empty()) {
      m.Add("note", metrics[i].note);
    }
    out += (i > 0 ? ", " : "") + m.str();
  }
  return out + "]";
}

std::string NumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i > 0 ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string StringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + perfbench::JsonQuote(items[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  perfbench::WorkloadKind kind;
  if (!ParseArgs(argc, argv, &args) || !perfbench::ParseWorkload(args.workload, &kind)) {
    std::fprintf(stderr,
                 "usage: %s --workload fleet-flow|graph1-packet|zipf-churn --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n",
                 argv[0]);
    return 2;
  }

  std::vector<RepResult> reps;
  std::vector<std::string> errors;
  const perfbench::HostTimer run_timer;
  perfbench::SpanLog untraced(false);
  reps.push_back(perfbench::RunRepetition(kind, args.seed, untraced));
  perfbench::SpanLog spans(true);
  if (args.trace) {
    reps.push_back(perfbench::RunRepetition(kind, args.seed, spans));
  } else {
    while (true) {
      const double elapsed = run_timer.Seconds();
      const double per_rep = elapsed / static_cast<double>(reps.size());
      if (elapsed + per_rep > args.seconds) {
        break;
      }
      reps.push_back(perfbench::RunRepetition(kind, args.seed, untraced));
    }
  }

  // Correctness: every repetition passes the gate and reproduces the first
  // one's ClusterReport byte for byte (so the first one's errors stand for
  // all of them).
  int64_t failed = 0;
  errors = reps.front().gate_errors;
  for (const RepResult& rep : reps) {
    failed = std::max(failed, rep.gate_failures);
    if (rep.report_hash != reps.front().report_hash) {
      errors.push_back("report hash differs between repetitions of one seed: " +
                       reps.front().report_hash + " vs " + rep.report_hash);
      failed = std::max<int64_t>(failed, 1);
    }
    if (rep.end_to_end.size() != reps.front().end_to_end.size()) {
      errors.push_back("repetitions disagree on the metric set");
      failed = std::max<int64_t>(failed, 1);
    } else {
      for (size_t i = 0; i < rep.end_to_end.size(); ++i) {
        if (rep.end_to_end[i].value != reps.front().end_to_end[i].value) {
          errors.push_back("simulated metric " + rep.end_to_end[i].name +
                           " differs between repetitions of one seed");
          failed = std::max<int64_t>(failed, 1);
        }
      }
    }
  }

  JsonObject out;
  out.Add("workload", args.workload)
      .Add("seed", static_cast<int64_t>(args.seed))
      .Add("trace", args.trace)
      .Add("report_hash", reps.front().report_hash)
      .Add("repetitions", static_cast<int64_t>(reps.size()))
      .Add("attempted", reps.front().sessions)
      .Add("failed", failed)
      .AddRaw("errors", StringList(errors));

  if (!args.trace) {
    std::vector<double> setups;
    std::vector<double> speeds;
    for (const RepResult& rep : reps) {
      setups.push_back(rep.setup_s);
      speeds.push_back(rep.measured_cpu_s > 0 ? rep.stream_s / rep.measured_cpu_s : 0);
    }
    while (setups.size() < kSetupSamples) {
      setups.push_back(perfbench::RunSetupOnly(kind, args.seed));
    }
    out.AddRaw("setup_samples_s", NumberList(setups));
    out.AddRaw("stream_s_per_cpu_s_samples", NumberList(speeds));
    std::vector<double> stream_s, measured_s;
    for (const RepResult& rep : reps) {
      stream_s.push_back(rep.stream_s);
      measured_s.push_back(rep.measured_cpu_s);
    }
    out.AddRaw("stream_s", NumberList(stream_s));
    out.AddRaw("measured_cpu_s", NumberList(measured_s));
    std::vector<Metric> e2e;
    e2e.push_back({"setup_s", "s", perfbench::Median(setups),
                   "median of " + std::to_string(setups.size()) + " set-ups"});
    e2e.push_back({"stream_s_per_cpu_s", "stream_s/s", perfbench::Median(speeds),
                   "median of " + std::to_string(speeds.size()) + " measured phases"});
    e2e.push_back({"peak_rss_mib", "MiB", perfbench::PeakRssMib(), "ru_maxrss of the whole run"});
    for (const Metric& m : reps.front().end_to_end) {
      e2e.push_back(m);
    }
    out.AddRaw("end_to_end", MetricList(e2e));
  } else {
    const RepResult& plain = reps.front();
    const RepResult& traced = reps.back();
    const double plain_s = plain.setup_s + plain.measured_cpu_s;
    const double traced_s = traced.setup_s + traced.measured_cpu_s;
    std::vector<Metric> layer = traced.per_layer;
    layer.push_back({"trace.overhead_s", "s", traced_s - plain_s,
                     "traced minus untraced host time of one repetition"});
    layer.push_back({"trace.overhead_pct", "%",
                     plain_s > 0 ? 100.0 * (traced_s - plain_s) / plain_s : 0, ""});
    layer.push_back({"trace.spans", "count", static_cast<double>(spans.spans().size()), ""});
    out.AddRaw("per_layer", MetricList(layer));
    const std::string path =
        args.trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
    if (!spans.WriteJson(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out.Add("trace_file", path);
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
