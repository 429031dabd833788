// Span recorder for the benchmark's traced run. Spans are recorded around
// the calls the benchmark makes into each layer's public functions, kept in
// memory, and aggregated (or written out) when the run ends. A span's self
// time is its duration minus the durations of its direct children; spans
// nest strictly (one driver thread), so the children of a span are exactly
// the spans opened while it was the innermost open span.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every call site the benchmark traces, named `<layer>.<call>`.
enum class SpanName : uint8_t {
  kHistLoad,          // hist::LoadHistory
  kChronosCheck,      // Chronos::Check
  kArrival,           // one monolith arrival (parent of the three below)
  kIngressAdmit,      // TxnIngress::AdmitTxn (finalize spans nest inside)
  kIngressClassify,   // ClassifyOps
  kEngineProcess,     // KeyEngine::ProcessTxn
  kEngineFinalize,    // KeyEngine::FinalizeTxn
  kEngineCollect,     // KeyEngine::CollectUpTo
  kGcToLiveTarget,    // OnlineChecker::GcToLiveTarget
  kCheckerFinish,     // OnlineChecker::Finish on the monolith
  kPipelineDrain,     // DurableRunner::Finish (drains the ShardedAion)
  kPipelineHealth,    // ShardedAion::pipeline_health
  kDurableFeed,       // DurableRunner::Feed
  kCount
};

inline const char* SpanNameStr(SpanName n) {
  static const char* kNames[] = {
      "hist.load",       "chronos.check",    "arrival",
      "ingress.admit",   "ingress.classify", "engine.process",
      "engine.finalize", "engine.collect",   "gc.gc_to_live_target",
      "checker.finish",  "pipeline.drain",   "pipeline.health",
      "durable.feed"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                    static_cast<size_t>(SpanName::kCount),
                "one name per span");
  return kNames[static_cast<size_t>(n)];
}

class Tracer {
 public:
  struct Span {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
    uint64_t tid = 0;     ///< the arrival (transaction id) that caused it
    SpanName name = SpanName::kArrival;
  };

  /// Per-name aggregate over every recorded span.
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;  ///< inclusive
    int64_t self_ns = 0;   ///< minus direct children
    int64_t max_ns = 0;    ///< longest single span (inclusive)
  };

  size_t Begin(SpanName name, uint64_t tid) {
    Span s;
    s.parent = open_;
    s.tid = tid;
    s.name = name;
    spans_.push_back(s);
    open_ = static_cast<int64_t>(spans_.size() - 1);
    spans_.back().start_ns = NowNs();  // last, so the push is not timed
    return spans_.size() - 1;
  }

  void End(size_t index) {
    spans_[index].end_ns = NowNs();
    open_ = spans_[index].parent;
  }

  const Span& span(size_t index) const { return spans_[index]; }
  size_t size() const { return spans_.size(); }

  std::array<Totals, static_cast<size_t>(SpanName::kCount)> Aggregate()
      const {
    std::array<Totals, static_cast<size_t>(SpanName::kCount)> out{};
    for (const Span& s : spans_) {
      const int64_t d = s.end_ns - s.start_ns;
      Totals& t = out[static_cast<size_t>(s.name)];
      ++t.count;
      t.total_ns += d;
      t.self_ns += d;
      if (d > t.max_ns) t.max_ns = d;
      if (s.parent >= 0) {
        out[static_cast<size_t>(spans_[static_cast<size_t>(s.parent)].name)]
            .self_ns -= d;
      }
    }
    return out;
  }

  /// Writes one tab-separated line per span:
  /// index, parent, tid, name, start_ns (relative to the first span), dur_ns.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "index\tparent\ttid\tname\tstart_ns\tdur_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%lld\t%lld\n", i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.tid), SpanNameStr(s.name),
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - s.start_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  int64_t open_ = -1;
};

/// RAII span; a null tracer records nothing (the untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name, uint64_t tid) : tracer_(tracer) {
    if (tracer_) index_ = tracer_->Begin(name, tid);
  }
  ~Scope() {
    if (tracer_) tracer_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Index of the recorded span (valid only with a tracer).
  size_t index() const { return index_; }

 private:
  Tracer* tracer_;
  size_t index_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
