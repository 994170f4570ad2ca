#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measurement primitives of the benchmark: the clock, per-cycle metric
// series with the fast-decile rule, the failure ledger, and the span tracer.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; sorts a copy.
double Quantile(std::vector<double> v, double q);

/// (Q3 - Q1) / median across `v`; 0 for fewer than two values.
double Spread(const std::vector<double>& v);

/// How a metric's per-cycle values fold into the run's reported value, unless
/// the metric is reported best-of-cycles (Cycles::SetBestOf).
enum class Fold : uint8_t {
  kDuration,  ///< Lower is better: 10th percentile across cycles.
  kMedian,    ///< Median across cycles (shares and ratios).
  kExact,     ///< A count: must be identical in every cycle.
};

/// One metric's per-cycle values.
struct Series {
  std::string unit;
  Fold fold = Fold::kExact;
  std::vector<double> values;
  size_t samples_per_cycle = 1;  ///< Observations behind each cycle's value.
  bool best_of = false;          ///< Reported from best-of-cycles items.
  double best_value = 0.0;       ///< Scaled to the reference clock.
  double best_raw = 0.0;         ///< As timed, before scaling.
};

/// Per-cycle metric values of one run, keyed by metric name.
class Cycles {
 public:
  void Add(const std::string& name, const char* unit, Fold fold, double value,
           size_t samples_per_cycle = 1);

  /// The reported value: the best-of-cycles figure when one was set, else
  /// the folded per-cycle values (10th percentile, median or the exact count).
  double Value(const std::string& name) const;

  /// Keeps, per item, the minimum of `values` over every cycle. Every cycle
  /// replays the same input on a fresh engine, so item i (a record, a
  /// registration, a burst) does the same work in every cycle, and its
  /// fastest replay is its cost with the least host interference. Throws
  /// std::logic_error when a cycle brings a different number of items.
  void KeepBest(const std::string& name, const std::vector<double>& values);
  /// The per-item minima kept under `name` (empty when none).
  const std::vector<double>& Best(const std::string& name) const;
  /// Reports `value`, derived from best-of items and scaled to the
  /// reference clock, for the series `name`; `raw` is the unscaled figure.
  void SetBestOf(const std::string& name, double value, double raw);
  bool Has(const std::string& name) const { return series_.count(name) != 0; }

  /// Names of kExact series whose value changed between cycles.
  std::vector<std::string> UnstableCounts() const;

  const std::map<std::string, Series>& series() const { return series_; }

 private:
  std::map<std::string, Series> series_;
  std::map<std::string, std::vector<double>> best_;
};

/// Attempted operations and failures, with a reason per failure kind.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> reasons;

  void Fail(const std::string& reason, uint64_t n = 1) {
    if (n == 0) return;
    failed += n;
    reasons[reason] += n;
  }
};

/// Span recorder used by traced cycles. Spans nest: Begin pushes, End pops,
/// and a span's parent is the span open when it began. Aggregates (count,
/// total, self time per name) cover every span; the first `kKeep` spans are
/// also kept in memory and written out by Write() when the run ends.
class Tracer {
 public:
  static constexpr size_t kKeep = 200'000;

  /// Opens a span; the name must be a string literal (stored by pointer).
  void Begin(const char* name);
  /// Closes the innermost open span; returns its duration in ns.
  int64_t End();
  /// A zero-length child of the open span, marking an event (an ack).
  void Mark(const char* name);

  struct Aggregate {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  const std::map<std::string, Aggregate>& aggregates() const { return agg_; }

  /// Writes kept spans as TSV (id, parent, name, start_ns, end_ns); false on
  /// an I/O error.
  bool Write(const std::string& path) const;
  uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    const char* name;
    int64_t start;
    int64_t child_ns;
    int64_t id;  ///< Index in kept_, or -1 when not kept.
  };
  struct Kept {
    const char* name;
    int64_t parent;
    int64_t start;
    int64_t end;
  };
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::map<std::string, Aggregate> agg_;
  uint64_t dropped_ = 0;
};

/// 64-bit FNV-1a step, used for input and notification digests.
inline uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/// Digest of one record's notification: (record index, (query, new
/// embeddings)...). 0 when the record notified nothing.
uint64_t NotificationHash(uint64_t record,
                          const std::vector<std::pair<uint32_t, uint64_t>>& counts);

/// The clock probe: a fixed chain of dependent 64-bit multiply-adds. It
/// touches no memory, so its time is set by the core's clock speed alone.
/// Milliseconds for one run of the chain.
double ClockProbeMs();

/// The clock probe's time at the reference clock: its fastest reading on the
/// host this benchmark was tuned on (a 4-vCPU KVM guest whose clock moved
/// between about 2.4 and 3 GHz). A run scales its CPU-bound timings by
/// kClockReferenceMs / (its fastest clock probe), README.md "Clock".
constexpr double kClockReferenceMs = 5.6;

/// The host-contention probe: a fixed DRAM random-access kernel, a pointer
/// chase through one 32 MiB random cycle. Its time tracks the host's memory
/// latency, which swings with a memory-hungry neighbour.
class MemProbe {
 public:
  MemProbe();
  /// Milliseconds for a fixed number of dependent random loads.
  double RunMs() const;

 private:
  std::vector<uint32_t> next_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
