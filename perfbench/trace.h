#ifndef BENCHTEMP_PERFBENCH_TRACE_H_
#define BENCHTEMP_PERFBENCH_TRACE_H_

// Benchmark-side span recorder of the traced run. Spans are opened and
// closed by the benchmark's own code around calls into the library's
// public API (nothing inside src/ is instrumented), buffered in memory,
// and written once at exit as Chrome trace-event JSON.

#include <cstdint>
#include <string>
#include <vector>

namespace benchtemp::perfbench {

/// Order statistics of one per-call timing series.
struct Timing {
  double median = 0.0;
  /// The highest order statistic with at least 10 samples above it
  /// (x_(n-10) of the sorted series); 0 when n <= 10.
  double tail = 0.0;
  int64_t n = 0;
};

/// Median / tail / count of `samples` (unsorted; copied).
Timing Summarize(std::vector<double> samples);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Named metrics in insertion order, as printed in the result JSON.
struct MetricList {
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries;

  void Add(const std::string& name, double value, const std::string& unit) {
    entries.push_back({name, value, unit});
  }
  /// `name` (median), `name.tail` and `name.n` of one timing series,
  /// scaled from seconds by `scale` into `unit`.
  void AddTiming(const std::string& name, const Timing& t, double scale,
                 const std::string& unit) {
    Add(name, t.median * scale, unit);
    Add(name + ".tail", t.tail * scale, unit);
    Add(name + ".n", static_cast<double>(t.n), "count");
  }
  /// The "metrics" object of the result JSON (full precision).
  std::string Json() const;
};

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     // index into spans(), -1 for a root span
    int64_t batch = -1;  // batch index, -1 when not per-batch
  };

  Tracer();

  /// Opens a span as a child of the innermost open span; returns its id.
  int Begin(const std::string& name, int64_t batch = -1);
  /// Closes span `id` (must be the innermost open span).
  void End(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name, int64_t batch = -1)
        : tracer_(tracer), id_(tracer->Begin(name, batch)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  double Duration(int id) const;
  /// Span duration minus the part of it covered by its child spans.
  double SelfSeconds(int id) const;
  /// Durations (seconds) of every span called `name` with id >= `first`.
  std::vector<double> Durations(const std::string& name, int first = 0) const;
  /// Sum of Durations(name, first).
  double Total(const std::string& name, int first = 0) const;

  /// Per span name: total and self seconds, sorted by name.
  struct LayerTime {
    std::string name;
    double total_s = 0.0;
    double self_s = 0.0;
    int64_t count = 0;
  };
  std::vector<LayerTime> LayerTimes() const;

  /// Writes every span as a Chrome trace-event ("ph":"X") JSON file.
  bool WriteChromeJson(const std::string& path) const;

 private:
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::vector<int>> children_;
};

}  // namespace benchtemp::perfbench

#endif  // BENCHTEMP_PERFBENCH_TRACE_H_
