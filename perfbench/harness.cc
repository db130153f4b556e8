#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double WallSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

HostTimer::HostTimer() : cpu_start_(ThreadCpuSeconds()), wall_start_(WallSeconds()) {}

double HostTimer::Seconds() const {
  const double cpu = ThreadCpuSeconds() - cpu_start_;
  const double wall = WallSeconds() - wall_start_;
  return cpu >= 0 && cpu <= wall + 1e-3 ? cpu : wall;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

int SpanLog::Begin(std::string name, int parent, int64_t session, calliope::SimTime sim_now,
                   int64_t events_now) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.session = session;
  span.sim_start_us = sim_now.micros();
  span.events = events_now;
  span.host_start = ThreadCpuSeconds();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id, calliope::SimTime sim_now, int64_t events_now) {
  if (id < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(id)];
  span.host_end = ThreadCpuSeconds();
  span.sim_end_us = sim_now.micros();
  span.events = events_now - span.events;
}

void SpanLog::Count(int span, std::string name, double value) {
  if (enabled_) {
    marks_.push_back({span, std::move(name), value});
  }
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "  {\"id\": %zu, \"name\": %s, \"parent\": %d, \"session\": %lld, "
                 "\"host_start_s\": %.9f, \"host_end_s\": %.9f, \"sim_start_us\": %lld, "
                 "\"sim_end_us\": %lld, \"events\": %lld}%s\n",
                 i, JsonQuote(s.name).c_str(), s.parent, static_cast<long long>(s.session),
                 s.host_start, s.host_end, static_cast<long long>(s.sim_start_us),
                 static_cast<long long>(s.sim_end_us), static_cast<long long>(s.events),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "], \"counts\": [\n");
  for (size_t i = 0; i < marks_.size(); ++i) {
    std::fprintf(file, "  {\"span\": %d, \"name\": %s, \"value\": %.17g}%s\n", marks_[i].span,
                 JsonQuote(marks_[i].name).c_str(), marks_[i].value,
                 i + 1 < marks_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double HistogramQuantileMs(const calliope::LatenessHistogram& histogram, double q) {
  const int64_t total = histogram.total_count();
  if (total == 0) {
    return 0;
  }
  constexpr int kBins = 1000;  // LatenessHistogram's default: 1000 bins of 1 ms
  const double target = q * static_cast<double>(total);
  double below = static_cast<double>(histogram.underflow_count());
  if (below >= target) {
    return 0;
  }
  for (int bin = 0; bin < kBins; ++bin) {
    // Samples in bins <= `bin`, i.e. lateness < (bin + 1) ms.
    const double through = static_cast<double>(
        total - histogram.CountAbove(calliope::SimTime::Millis(bin)));
    if (through >= target) {
      const double in_bin = through - below;
      return static_cast<double>(bin) + (in_bin > 0 ? (target - below) / in_bin : 1.0);
    }
    below = through;
  }
  // The overflow bin is open-ended; its samples are taken to spread evenly
  // up to the largest lateness recorded, which the histogram keeps exactly.
  const double overflow = static_cast<double>(histogram.overflow_count());
  const double max_ms = histogram.MaxRecorded().seconds() * 1e3;
  return kBins + (overflow > 0 ? (target - below) / overflow : 1.0) * (max_ms - kBins);
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  return AddRaw(key, buf);
}

JsonObject& JsonObject::Add(const std::string& key, int64_t value) {
  return AddRaw(key, std::to_string(value));
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  return AddRaw(key, JsonQuote(value));
}

JsonObject& JsonObject::AddRaw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
