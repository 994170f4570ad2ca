#include "measure.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Spread(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double med = Quantile(v, 0.5);
  if (med == 0.0) return 0.0;
  return (Quantile(v, 0.75) - Quantile(v, 0.25)) / med;
}

void Cycles::Add(const std::string& name, const char* unit, Fold fold,
                 double value, size_t samples_per_cycle) {
  Series& s = series_[name];
  s.unit = unit;
  s.fold = fold;
  s.samples_per_cycle = samples_per_cycle;
  s.values.push_back(value);
}

double Cycles::Value(const std::string& name) const {
  auto it = series_.find(name);
  if (it == series_.end()) return 0.0;
  const Series& s = it->second;
  if (s.best_of) return s.best_value;
  switch (s.fold) {
    case Fold::kDuration: return Quantile(s.values, 0.1);
    case Fold::kMedian: return Quantile(s.values, 0.5);
    case Fold::kExact: return s.values.empty() ? 0.0 : s.values.front();
  }
  return 0.0;
}

void Cycles::KeepBest(const std::string& name, const std::vector<double>& values) {
  auto [it, fresh] = best_.try_emplace(name, values);
  if (fresh) return;
  std::vector<double>& best = it->second;
  if (best.size() != values.size())
    throw std::logic_error("item count of " + name + " changed between cycles");
  for (size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], values[i]);
}

const std::vector<double>& Cycles::Best(const std::string& name) const {
  static const std::vector<double> kNone;
  auto it = best_.find(name);
  return it == best_.end() ? kNone : it->second;
}

void Cycles::SetBestOf(const std::string& name, double value, double raw) {
  Series& s = series_.at(name);
  s.best_of = true;
  s.best_value = value;
  s.best_raw = raw;
}

std::vector<std::string> Cycles::UnstableCounts() const {
  std::vector<std::string> out;
  for (const auto& [name, s] : series_) {
    if (s.fold != Fold::kExact) continue;
    for (double v : s.values) {
      if (v != s.values.front()) {
        out.push_back(name);
        break;
      }
    }
  }
  return out;
}

void Tracer::Begin(const char* name) {
  int64_t id = -1;
  if (kept_.size() < kKeep) {
    id = static_cast<int64_t>(kept_.size());
    kept_.push_back(Kept{name, stack_.empty() ? -1 : stack_.back().id, 0, 0});
  } else {
    ++dropped_;
  }
  const int64_t start = NowNs();
  if (id >= 0) kept_[id].start = start;
  stack_.push_back(Open{name, start, 0, id});
}

int64_t Tracer::End() {
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - open.start;
  if (open.id >= 0) kept_[open.id].end = end;
  Aggregate& a = agg_[open.name];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  return dur;
}

void Tracer::Mark(const char* name) {
  Begin(name);
  End();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    std::fprintf(f, "%zu\t%lld\t%s\t%lld\t%lld\n", i,
                 static_cast<long long>(k.parent), k.name,
                 static_cast<long long>(k.start), static_cast<long long>(k.end));
  }
  return std::fclose(f) == 0;
}

uint64_t NotificationHash(
    uint64_t record, const std::vector<std::pair<uint32_t, uint64_t>>& counts) {
  if (counts.empty()) return 0;
  uint64_t h = Fnv(kFnvBasis, record);
  for (const auto& [qid, n] : counts) h = Fnv(Fnv(h, qid), n);
  return h == 0 ? 1 : h;
}

double ClockProbeMs() {
  constexpr uint32_t kSteps = 1u << 22;
  // The seed comes through a volatile so the chain cannot be folded away.
  static volatile uint64_t seed = 1;
  uint64_t x = seed;
  const int64_t t0 = NowNs();
  for (uint32_t i = 0; i < kSteps; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  const int64_t t1 = NowNs();
  if (x == 0) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(t1 - t0) / 1e6;
}

namespace {
constexpr uint32_t kProbeSlots = 8u << 20;  // 32 MiB of uint32_t
constexpr uint32_t kProbeSteps = 1u << 19;
}  // namespace

MemProbe::MemProbe() : next_(kProbeSlots) {
  std::iota(next_.begin(), next_.end(), 0u);
  // Sattolo's algorithm with a fixed LCG: a single cycle through every slot,
  // so the chase touches a new cache line almost every step.
  uint64_t x = 88172645463325252ull;
  for (uint32_t i = kProbeSlots - 1; i > 0; --i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t j = static_cast<uint32_t>((x >> 33) % i);
    std::swap(next_[i], next_[j]);
  }
}

double MemProbe::RunMs() const {
  const int64_t t0 = NowNs();
  uint32_t p = 0;
  for (uint32_t s = 0; s < kProbeSteps; ++s) p = next_[p];
  const int64_t t1 = NowNs();
  // Keep the chase observable so it cannot be optimized away.
  if (p == kProbeSlots) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(t1 - t0) / 1e6;
}

}  // namespace perfbench
