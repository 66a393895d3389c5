// Metric bookkeeping and the in-memory span log of the traced run.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "tcbench.h"
#include "util/string_util.h"

namespace tcbench {

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (const auto& [name, vu] : values_) {
    if (out.size() > 1) out += ", ";
    // %.17g keeps every digit of the measured double.
    out += tcf::StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          name.c_str(),
                          std::isfinite(vu.first) ? vu.first : 0.0,
                          vu.second.c_str());
  }
  return out + "}";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double TailPercentile(std::vector<double> v, std::string* label) {
  *label = "none";
  if (v.size() < 40) return 0;
  std::sort(v.begin(), v.end());
  double result = 0;
  for (const auto& [p, name] : {std::pair{0.9, "p90"}, std::pair{0.99, "p99"},
                                std::pair{0.999, "p99.9"}}) {
    const size_t idx = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size()))) - 1;
    if (v.size() - 1 - idx < 10) break;
    result = v[idx];
    *label = name;
  }
  return result;
}

double ProcessCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t SpanLog::Begin(const char* name, int64_t parent, uint64_t request) {
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, parent, request, now, now, 0.0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end = Clock::now();
  if (s.parent != kNoParent) {
    spans_[static_cast<size_t>(s.parent)].child_us += DurationUs(id);
  }
}

void SpanLog::Add(const char* name, int64_t parent, uint64_t request,
                  Clock::time_point start, double micros) {
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::micro>(micros));
  spans_.push_back({name, parent, request, start, end, 0.0});
  if (parent != kNoParent) {
    spans_[static_cast<size_t>(parent)].child_us += micros;
  }
}

double SpanLog::DurationUs(int64_t id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return std::chrono::duration<double, std::micro>(s.end - s.start).count();
}

double SpanLog::SelfUs(int64_t id) const {
  return DurationUs(id) - spans_[static_cast<size_t>(id)].child_us;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                 "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, s.name, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), us(s.start),
                 us(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace tcbench
