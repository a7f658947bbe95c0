// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a layer of lsens, named "<layer>.<call>"
// ("storage.clone_snapshot", "sensitivity.tsens.q1", ...), plus the
// benchmark's own root spans ("setup", "op", "check"). Spans nest through a
// per-tracer stack, so a tracer belongs to one thread; multi-threaded
// workloads give each thread its own tracer and merge them at the end.
//
// Self time is a span's duration minus the time its direct children
// cover. Children of one single-threaded span never overlap, so the
// covered time is the sum of the children's durations.
//
// Every span is folded into per-name totals as it ends. The first
// kMaxKeptSpans spans are also kept verbatim (name, start, end, parent, run id
// and the counter deltas attached to them) and written out by WriteJson.

#ifndef LSENS_PERFBENCH_TRACE_H_
#define LSENS_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanTotals {
  uint64_t count = 0;
  double incl_ns = 0.0;
  double self_ns = 0.0;
};

class Tracer {
 public:
  // Bounds the memory of a traced run; serve-mixed traces millions of reads.
  static constexpr size_t kMaxKeptSpans = 100000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void Begin(std::string_view name, uint64_t run_id) {
    if (!enabled_) return;
    int kept = -1;
    if (kept_.size() < kMaxKeptSpans) {
      kept = static_cast<int>(kept_.size());
      Kept k;
      k.name = std::string(name);
      k.parent = stack_.empty() ? -1 : stack_.back().kept;
      k.run_id = run_id;
      kept_.push_back(std::move(k));
    } else {
      ++dropped_;
    }
    stack_.push_back(Open{kept, std::string(name), NowNs(), 0, {}});
  }

  // Attaches a counter delta to the innermost open span.
  void Counter(std::string_view key, uint64_t value) {
    if (!enabled_ || stack_.empty()) return;
    stack_.back().counters.emplace_back(std::string(key), value);
  }

  void End() {
    if (!enabled_ || stack_.empty()) return;
    const int64_t end = NowNs();
    Open open = std::move(stack_.back());
    stack_.pop_back();
    const int64_t dur = end - open.start;
    const int64_t self = dur - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    SpanTotals& t = totals_[open.name];
    ++t.count;
    t.incl_ns += static_cast<double>(dur);
    t.self_ns += static_cast<double>(self);
    if (open.kept >= 0) {
      Kept& k = kept_[static_cast<size_t>(open.kept)];
      k.start = open.start;
      k.end = end;
      k.self = self;
      k.counters = std::move(open.counters);
    }
  }

  const std::map<std::string, SpanTotals>& totals() const { return totals_; }

  // Folds another (finished) tracer's totals and kept spans into this one.
  void MergeFrom(const Tracer& other) {
    for (const auto& [name, t] : other.totals_) {
      SpanTotals& mine = totals_[name];
      mine.count += t.count;
      mine.incl_ns += t.incl_ns;
      mine.self_ns += t.self_ns;
    }
    const int offset = static_cast<int>(kept_.size());
    for (const Kept& k : other.kept_) {
      if (kept_.size() >= kMaxKeptSpans) {
        ++dropped_;
        continue;
      }
      Kept copy = k;
      if (copy.parent >= 0) copy.parent += offset;
      kept_.push_back(std::move(copy));
    }
    dropped_ += other.dropped_;
  }

  // {"spans": [...], "dropped": n, "totals": {...}}; times in ns relative
  // to the earliest kept span.
  void WriteJson(std::FILE* f) const {
    int64_t t0 = 0;
    for (size_t i = 0; i < kept_.size(); ++i) {
      if (i == 0 || kept_[i].start < t0) t0 = kept_[i].start;
    }
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Kept& k = kept_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"run\": %llu, \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"self_ns\": %lld, \"counters\": {",
                   i, k.name.c_str(), k.parent,
                   static_cast<unsigned long long>(k.run_id),
                   static_cast<long long>(k.start - t0),
                   static_cast<long long>(k.end - t0),
                   static_cast<long long>(k.self));
      for (size_t c = 0; c < k.counters.size(); ++c) {
        std::fprintf(f, "%s\"%s\": %llu", c == 0 ? "" : ", ",
                     k.counters[c].first.c_str(),
                     static_cast<unsigned long long>(k.counters[c].second));
      }
      std::fprintf(f, "}}%s\n", i + 1 == kept_.size() ? "" : ",");
    }
    std::fprintf(f, "],\n\"dropped\": %zu,\n\"totals\": {\n", dropped_);
    size_t i = 0;
    for (const auto& [name, t] : totals_) {
      std::fprintf(f,
                   "  \"%s\": {\"count\": %llu, \"incl_ns\": %.0f, "
                   "\"self_ns\": %.0f}%s\n",
                   name.c_str(), static_cast<unsigned long long>(t.count),
                   t.incl_ns, t.self_ns,
                   ++i == totals_.size() ? "" : ",");
    }
    std::fprintf(f, "}}\n");
  }

 private:
  struct Open {
    int kept;
    std::string name;
    int64_t start;
    int64_t child_ns;
    std::vector<std::pair<std::string, uint64_t>> counters;
  };
  struct Kept {
    std::string name;
    int parent = -1;
    uint64_t run_id = 0;
    int64_t start = 0;
    int64_t end = 0;
    int64_t self = 0;
    std::vector<std::pair<std::string, uint64_t>> counters;
  };

  bool enabled_;
  size_t dropped_ = 0;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::map<std::string, SpanTotals> totals_;
};

// RAII span; free when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, uint64_t run_id = 0)
      : tracer_(tracer) {
    tracer_.Begin(name, run_id);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_.End(); }

 private:
  Tracer& tracer_;
};

}  // namespace perfbench

#endif  // LSENS_PERFBENCH_TRACE_H_
