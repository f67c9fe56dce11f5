#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_map>


namespace kgbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at
  // or below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                        uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  spans_.push_back(span);
  return span.id;
}

void Tracer::End(uint64_t id, uint64_t end_ns) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[id - 1];
  span.end_ns = std::max(span.start_ns, end_ns);
}

void Tracer::Count(const std::string& name, double amount) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[name] += amount;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(NsToMs(static_cast<double>(s.end_ns - s.start_ns)));
    }
  }
  return out;
}

std::vector<double> Tracer::SelfTimesMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    auto it = children.find(s.id);
    if (it == children.end()) continue;
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<uint64_t, uint64_t>> parts = it->second;
    std::sort(parts.begin(), parts.end());
    uint64_t covered = 0;
    uint64_t cursor = s.start_ns;
    for (auto [begin, end] : parts) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    out.push_back(
        NsToMs(static_cast<double>(s.end_ns - s.start_ns - covered)));
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok =
      std::fprintf(f, "# id\tparent\trequest\tname\tstart_ns\tend_ns\n") > 0;
  for (const Span& s : spans_) {
    ok = ok && std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%llu\t%llu\n",
                            static_cast<unsigned long long>(s.id),
                            static_cast<unsigned long long>(s.parent),
                            static_cast<unsigned long long>(s.request),
                            s.name,
                            static_cast<unsigned long long>(s.start_ns),
                            static_cast<unsigned long long>(s.end_ns)) > 0;
  }
  for (const auto& [name, amount] : counts_) {
    ok = ok &&
         std::fprintf(f, "# count\t%s\t%.17g\n", name.c_str(), amount) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<std::string> Tracer::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  for (const Span& s : spans_) names.emplace_back(s.name);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void FinishTrace(const Tracer& tracer, const Options& options,
                 Report* report) {
  std::printf("%-24s %10s %14s %14s\n", "span", "count", "p50_ms",
              "self_p50_ms");
  for (const std::string& name : tracer.Names()) {
    const std::vector<double> durations = tracer.DurationsMs(name);
    const std::vector<double> self = tracer.SelfTimesMs(name);
    std::printf("%-24s %10zu %14.6f %14s\n", name.c_str(), durations.size(),
                Median(durations),
                self.empty() ? "-" : std::to_string(Median(self)).c_str());
  }
  const bool written = tracer.Write(options.trace_path);
  report->Check("trace written", written,
                std::to_string(tracer.num_spans()) + " spans to " +
                    options.trace_path);
}

void Report::Set(const std::string& name, double value) {
  metrics_[name] = value;
}

Phase& Report::AddPhase(const std::string& name) {
  phases_.push_back(Phase{name, 0, 0});
  return phases_.back();
}

void Report::Check(const std::string& name, bool pass,
                   const std::string& detail) {
  ++checks_;
  if (!pass) ++failed_checks_;
  check_lines_.push_back(std::string(pass ? "PASS  " : "FAIL  ") + name +
                         (detail.empty() ? "" : "  (" + detail + ")"));
}

void Report::Compare(bool equal, const std::string& what) {
  ++compared_;
  if (equal) return;
  if (wrong_ < 5) std::fprintf(stderr, "wrong result: %s\n", what.c_str());
  ++wrong_;
}

uint64_t Report::attempted() const {
  uint64_t total = checks_;
  for (const Phase& p : phases_) total += p.attempted;
  return total;
}

uint64_t Report::failed() const {
  uint64_t total = failed_checks_ + wrong_;
  for (const Phase& p : phases_) total += p.failed;
  return total;
}

void Report::PrintTables() const {
  std::printf("%-24s %10s %10s %10s\n", "phase", "attempted", "succeeded",
              "failed");
  for (const Phase& p : phases_) {
    std::printf("%-24s %10llu %10llu %10llu\n", p.name.c_str(),
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.attempted - p.failed),
                static_cast<unsigned long long>(p.failed));
  }
  std::printf("sampled results compared to direct calls: %llu, wrong: %llu\n",
              static_cast<unsigned long long>(compared_),
              static_cast<unsigned long long>(wrong_));
  for (const std::string& line : check_lines_) {
    std::printf("check %s\n", line.c_str());
  }
}

void ReportSetup(const std::vector<SetupTimes>& reps, Report* report) {
  std::vector<double> world, fit, adopt, total;
  for (const SetupTimes& t : reps) {
    world.push_back(t.world_s);
    fit.push_back(t.fit_s);
    adopt.push_back(t.adopt_ms);
    total.push_back(t.total_s);
  }
  report->Set("setup_s", Median(total));
  report->Set("data.world_s", Median(world));
  // A set-up without a fit or a handle leaves those layers unreported.
  if (Median(fit) > 0.0) report->Set("model.fit_s", Median(fit));
  if (Median(adopt) > 0.0) report->Set("handle.adopt_ms", Median(adopt));
}

bool BitwiseEqual(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool BitwiseEqual(std::span<const std::pair<int32_t, float>> a,
                  std::span<const std::pair<int32_t, float>> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

kgrec::Status StoredTensors(const kgrec::Recommender& model,
                            const std::string& path,
                            std::vector<kgrec::NamedTensor>* tensors) {
  kgrec::Status status = model.Save(path);
  kgrec::CheckpointHeader header;
  if (status.ok()) status = kgrec::LoadCheckpoint(path, &header, tensors);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return status;
}

bool SameTensors(const std::vector<kgrec::NamedTensor>& a,
                 const std::vector<kgrec::NamedTensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].rows != b[i].rows ||
        a[i].cols != b[i].cols || !BitwiseEqual(a[i].data, b[i].data)) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<kgrec::Recommender> CheckpointRoundTrip(
    const kgrec::Recommender& model, const kgrec::RecContext& context,
    const std::function<std::unique_ptr<kgrec::Recommender>()>& make_prototype,
    const Options& options, Report* report) {
  const std::string path = options.work_dir + "/model.kgrc";
  std::vector<double> save_ms, load_ms;
  std::unique_ptr<kgrec::Recommender> restored;
  kgrec::Status status;
  for (int rep = 0; rep < 3 && status.ok(); ++rep) {
    uint64_t t0 = NowNs();
    status = model.Save(path);
    save_ms.push_back(NsToMs(static_cast<double>(NowNs() - t0)));
    if (!status.ok()) break;
    restored = make_prototype();
    t0 = NowNs();
    status = restored->Load(context, path);
    load_ms.push_back(NsToMs(static_cast<double>(NowNs() - t0)));
  }
  kgrec::CheckpointHeader header;
  std::vector<kgrec::NamedTensor> tensors;
  if (status.ok()) status = kgrec::LoadCheckpoint(path, &header, &tensors);
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  std::filesystem::remove(path, ec);
  report->Check("checkpoint save + load", status.ok(),
                status.ok() ? "" : status.ToString());
  if (!status.ok()) return nullptr;
  size_t floats = 0;
  bool finite = true;
  for (const kgrec::NamedTensor& t : tensors) {
    floats += t.data.size();
    for (float v : t.data) finite = finite && std::isfinite(v);
  }
  report->Check("every stored parameter is finite", finite,
                std::to_string(floats) + " floats");
  report->Set("serialize.save_ms_p50", Median(save_ms));
  report->Set("serialize.load_ms_p50", Median(load_ms));
  report->Set("serialize.checkpoint_bytes", static_cast<double>(bytes));
  report->Set("trainer.param_floats", static_cast<double>(floats));
  return restored;
}

}  // namespace kgbench
