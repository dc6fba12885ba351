#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "obs/export.h"
#include "obs/metrics.h"

namespace suite {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(rank, v.size()) - 1];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Result::set(const std::string& name, double value) {
  for (auto& [k, v] : values)
    if (k == name) {
      v = value;
      return;
    }
  values.emplace_back(name, value);
}

bool Result::has(const std::string& name) const {
  for (const auto& kv : values)
    if (kv.first == name) return true;
  return false;
}

double Result::get(const std::string& name) const {
  for (const auto& [k, v] : values)
    if (k == name) return v;
  return 0;
}

void Result::check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }

bool Result::all_checks_pass() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const auto& c) { return c.second; });
}

std::string hex_bits(const std::vector<double>& values) {
  std::string out;
  char buf[24];
  for (double d : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
    if (!out.empty()) out += ' ';
    out += buf;
  }
  return out;
}

namespace {
const Clock::time_point kTraceEpoch = Clock::now();
std::int64_t trace_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kTraceEpoch).count();
}
}  // namespace

SpanLog::SpanLog(std::uint32_t tid, std::size_t capacity) : tid_(tid), capacity_(capacity) {
  records_.reserve(capacity);
}

void SpanLog::add(taser::obs::SpanName name, Clock::time_point t0, Clock::time_point t1,
                  std::uint64_t tag, bool async) {
  if (records_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  taser::obs::SpanRecord r;
  r.span_id = (static_cast<std::uint64_t>(tid_) << 40) | (records_.size() + 1);
  r.name_id = name.id;
  r.tid = tid_;
  r.t0_ns = trace_ns(t0);
  r.t1_ns = trace_ns(t1);
  r.tag = tag;
  r.async = async;
  records_.push_back(r);
}

bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::vector<taser::obs::SpanRecord> all;
  for (const SpanLog* log : logs)
    all.insert(all.end(), log->records().begin(), log->records().end());
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.t0_ns < b.t0_ns; });
  return ensure_parent_dir(path) &&
         taser::obs::write_file(path, taser::obs::chrome_trace_json(all));
}

namespace {
std::uint64_t counter_in(const taser::obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

taser::obs::LocalHistogram histograms_in(const taser::obs::MetricsSnapshot& snap,
                                         const std::string& prefix) {
  taser::obs::LocalHistogram merged;
  for (const auto& h : snap.histograms)
    if (h.name.rfind(prefix, 0) == 0) merged.merge(h.hist);
  return merged;
}
}  // namespace

std::uint64_t RegistryWindow::counter(const std::string& name) const {
  return counter_in(taser::obs::snapshot(), name) - counter_in(before_, name);
}

taser::obs::LocalHistogram RegistryWindow::histogram(const std::string& prefix) const {
  taser::obs::LocalHistogram delta = histograms_in(taser::obs::snapshot(), prefix);
  const taser::obs::LocalHistogram before = histograms_in(before_, prefix);
  for (std::size_t i = 0; i < delta.buckets.size(); ++i) delta.buckets[i] -= before.buckets[i];
  delta.count -= before.count;
  delta.sum -= before.sum;
  return delta;
}

bool ensure_parent_dir(const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  return !ec;
}

}  // namespace suite
