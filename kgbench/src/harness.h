// Shared pieces of the KGRec benchmark program: clocks and order
// statistics, the in-memory span tracer, per-phase operation accounting
// and the metric report every workload fills in.
#ifndef KGBENCH_HARNESS_H_
#define KGBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/recommender.h"
#include "core/serialize.h"

namespace kgbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock — the same clock the Router stamps
/// `submitted_ns` / `completed_ns` with, so request spans built from
/// response stamps line up with spans the benchmark times itself.
uint64_t NowNs();

inline double NsToMs(double ns) { return ns / 1e6; }
inline double NsToUs(double ns) { return ns / 1e3; }
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 for an empty
/// sample. +inf entries (requests that never completed) sort last, so a
/// rejection counts as missing every latency limit.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Run options, parsed from the command line by main.cc.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  /// Private directory for checkpoints (created by the caller).
  std::string work_dir;
  /// Where the span trace is written at the end of a traced run.
  std::string trace_path;
};

/// One recorded span. Spans of one request share `request`; `parent` is
/// the id of the span that caused it (0 for a root).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Spans and boundary counts, kept in memory and written out once at
/// the end. A disabled tracer records nothing (Record returns 0), so the
/// untraced run pays only a branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a span and returns its id (0 when disabled). `name` must
  /// be a string literal. Thread-safe.
  uint64_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                  uint64_t parent = 0, uint64_t request = 0);

  /// Moves the end of span `id` (recorded earlier, with a provisional
  /// end) to `end_ns`; a no-op when disabled. Thread-safe.
  void End(uint64_t id, uint64_t end_ns);

  /// Adds `amount` to the boundary counter `name`. Thread-safe.
  void Count(const std::string& name, double amount);

  /// Durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Self time (ms) of every span named `name` that has at least one
  /// child: its duration minus the part of its interval covered by the
  /// union of its children's intervals.
  std::vector<double> SelfTimesMs(const std::string& name) const;

  /// Writes one tab-separated line per span (id, parent, request, name,
  /// start_ns, end_ns) followed by the counters as "# count" lines.
  bool Write(const std::string& path) const;

  size_t num_spans() const;

  /// Distinct span names, sorted.
  std::vector<std::string> Names() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::deque<Span> spans_;  // grows without moving recorded spans
  std::map<std::string, double> counts_;
};

/// Operations attempted / succeeded / failed in one phase of a run. A
/// rejected request, a non-OK status and a result that fails its check
/// all count as failed.
struct Phase {
  std::string name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Everything a workload reports: metrics by name, phase accounting and
/// the outcome of every correctness check.
class Report {
 public:
  void Set(const std::string& name, double value);

  Phase& AddPhase(const std::string& name);

  /// Records a correctness check. A failed check is one failed
  /// operation and makes the run incorrect.
  void Check(const std::string& name, bool pass, const std::string& detail);

  /// Records one sampled comparison of a served result against a direct
  /// call. A mismatch is a wrong result: one failed operation (the
  /// request itself is already counted as attempted in its phase).
  void Compare(bool equal, const std::string& what);

  const std::map<std::string, double>& metrics() const { return metrics_; }
  uint64_t attempted() const;
  uint64_t failed() const;
  bool correct() const { return wrong_ == 0 && failed_checks_ == 0; }

  /// Human-readable phase and check tables (stdout).
  void PrintTables() const;

 private:
  std::map<std::string, double> metrics_;
  std::deque<Phase> phases_;  // AddPhase hands out stable references
  std::vector<std::string> check_lines_;
  uint64_t checks_ = 0;
  uint64_t failed_checks_ = 0;
  uint64_t compared_ = 0;
  uint64_t wrong_ = 0;
};

/// Writes the trace to options.trace_path and prints, per span name, the
/// span count and the median duration and self time derived from the
/// span tree.
void FinishTrace(const Tracer& tracer, const Options& options,
                 Report* report);

/// Set-ups per run. setup_s is their median, so work moved into set-up
/// shows against a steady figure.
inline constexpr int kSetupReps = 3;

/// Wall time of one set-up, split by layer.
struct SetupTimes {
  double world_s = 0.0;
  double fit_s = 0.0;
  double adopt_ms = 0.0;
  double total_s = 0.0;
};

/// Median of each field over the set-up repetitions, reported as
/// setup_s, data.world_s, model.fit_s and handle.adopt_ms.
void ReportSetup(const std::vector<SetupTimes>& reps, Report* report);

inline bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}
bool BitwiseEqual(std::span<const float> a, std::span<const float> b);
bool BitwiseEqual(std::span<const std::pair<int32_t, float>> a,
                  std::span<const std::pair<int32_t, float>> b);

/// Saves `model` to `path`, reads the stored tensors back and removes
/// the file.
kgrec::Status StoredTensors(const kgrec::Recommender& model,
                            const std::string& path,
                            std::vector<kgrec::NamedTensor>* tensors);

/// Bitwise equality of two stored models (names, shapes and floats).
bool SameTensors(const std::vector<kgrec::NamedTensor>& a,
                 const std::vector<kgrec::NamedTensor>& b);

/// Saves `model` and restores the checkpoint into a fresh
/// `make_prototype()`, three times each, timing both ends
/// (serialize.save_ms_p50 / load_ms_p50 / checkpoint_bytes). Reads the
/// stored tensors once more to count parameters (trainer.param_floats)
/// and checks that every one is finite. Returns the last restored copy,
/// or nullptr after recording the failure.
std::unique_ptr<kgrec::Recommender> CheckpointRoundTrip(
    const kgrec::Recommender& model, const kgrec::RecContext& context,
    const std::function<std::unique_ptr<kgrec::Recommender>()>& make_prototype,
    const Options& options, Report* report);

/// Workload entry points (one per workload file). Each fills `report`
/// with every end-to-end metric and, when `options.trace` is set, every
/// per-layer metric of its layers; returns false on a setup failure that
/// leaves no meaningful measurement.
bool RunRecommendScan(const Options& options, Report* report);
bool RunScoreCoalesce(const Options& options, Report* report);
bool RunStreamUpdate(const Options& options, Report* report);
bool RunTrainCfkg(const Options& options, Report* report);

}  // namespace kgbench

#endif  // KGBENCH_HARNESS_H_
