#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "base/check.h"
#include "obs/metrics.h"

namespace benchtemp::perfbench {

Timing Summarize(std::vector<double> samples) {
  Timing t;
  t.n = static_cast<int64_t>(samples.size());
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.median = Median(samples);
  if (t.n > 10) t.tail = samples[static_cast<size_t>(t.n - 11)];
  return t;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::string MetricList::Json() const {
  std::string out = "{";
  char buf[96];
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    out += (i > 0 ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

Tracer::Tracer() : origin_(obs::NowSeconds()) {}

int Tracer::Begin(const std::string& name, int64_t batch) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.batch = batch;
  const int id = static_cast<int>(spans_.size());
  if (span.parent >= 0) {
    children_[static_cast<size_t>(span.parent)].push_back(id);
  }
  spans_.push_back(std::move(span));
  children_.emplace_back();
  open_.push_back(id);
  // Read the clock last, so the bookkeeping above is not charged to the
  // span.
  spans_.back().start = obs::NowSeconds() - origin_;
  return id;
}

void Tracer::End(int id) {
  const double now = obs::NowSeconds() - origin_;
  base::CheckOrDie(!open_.empty() && open_.back() == id,
                   "Tracer::End: spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end = now;
}

double Tracer::Duration(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return s.end - s.start;
}

double Tracer::SelfSeconds(int id) const {
  // Children of one span are closed in order and never overlap (spans
  // nest strictly on the one recording thread), so their union is their
  // sum.
  double covered = 0.0;
  for (int child : children_[static_cast<size_t>(id)]) {
    covered += Duration(child);
  }
  return Duration(id) - covered;
}

std::vector<double> Tracer::Durations(const std::string& name,
                                      int first) const {
  std::vector<double> out;
  for (size_t i = static_cast<size_t>(first); i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(Duration(static_cast<int>(i)));
  }
  return out;
}

double Tracer::Total(const std::string& name, int first) const {
  double total = 0.0;
  for (double d : Durations(name, first)) total += d;
  return total;
}

std::vector<Tracer::LayerTime> Tracer::LayerTimes() const {
  std::map<std::string, LayerTime> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    LayerTime& t = by_name[spans_[i].name];
    t.name = spans_[i].name;
    t.total_s += Duration(static_cast<int>(i));
    t.self_s += SelfSeconds(static_cast<int>(i));
    ++t.count;
  }
  std::vector<LayerTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int id = static_cast<int>(i);
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                 "\"parent\":%d,\"batch\":%lld,\"self_us\":%.3f}}%s\n",
                 s.name.c_str(), s.start * 1e6, Duration(id) * 1e6, id,
                 s.parent, static_cast<long long>(s.batch),
                 SelfSeconds(id) * 1e6, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace benchtemp::perfbench
