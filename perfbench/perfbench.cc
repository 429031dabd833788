// The repository benchmark: generates one workload from a seed, drives the
// checker through its public API from a single load-generating thread,
// gates the verdicts against an independent offline reference, and prints
// one JSON object with every metric (run.py selects and formats them).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--txns <n>] [--trace-out <file.tsv>]
//   perfbench --selftest
//
// Untraced runs (--trace 0) produce the end-to-end numbers. A traced run
// (--trace 1) adds traced passes over the same input (alternating with
// untraced ones offline, one after the untraced pass on the paced
// workloads), requires their verdicts, CheckerStats and flip-flop totals to
// equal the untraced ones,
// and reports per-layer self time and counts from the spans (trace.h) plus
// the tracing overhead. See README.md for the workloads and metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aion.h"
#include "core/chronos.h"
#include "core/flipflop_stats.h"
#include "core/key_engine.h"
#include "core/online_checker.h"
#include "core/txn_ingress.h"
#include "core/violation.h"
#include "hist/codec.h"
#include "hist/collector.h"
#include "online/checkpoint.h"
#include "online/metrics.h"
#include "online/sharded_aion.h"
#include "open_loop.h"
#include "trace.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using chronos::CheckerFootprint;
using chronos::CheckerOptions;
using chronos::CheckerStats;
using chronos::CheckMode;
using chronos::ClassifiedOps;
using chronos::CountingSink;
using chronos::FlipFlopStats;
using chronos::History;
using chronos::KeyEngine;
using chronos::OnlineChecker;
using chronos::Timestamp;
using chronos::Transaction;
using chronos::TxnId;
using chronos::TxnIngress;
using chronos::ViolationType;
using chronos::hist::CollectedTxn;
using chronos::online::DurableRunner;
using chronos::online::ShardedAion;

// ------------------------------------------------------------ constants
// Fixed on every host, so a workload is the same everywhere (never derived
// from the core count).
constexpr uint32_t kSessions = 24;
constexpr uint32_t kOpsPerTxn = 8;
constexpr double kStaleReadProb = 0.0005;  // injected EXT faults per read
constexpr size_t kShards = 4;
constexpr size_t kPreStageWorkers = 2;
// The paper's collector (Fig. 12 methodology): 500-txn batches every 40 ms,
// per-transaction delays N(2, 1) ms, a 50 ms EXT timeout.
constexpr uint32_t kBatch = 500;
constexpr uint64_t kBatchIntervalMs = 40;
constexpr double kDelayMeanMs = 2;
constexpr double kDelayStddevMs = 1;
constexpr uint64_t kExtTimeoutMs = 50;
// GcPolicy::Threshold(20000, 10000) with the pipeline driver's cadence
// (online/pipeline.cc: a threshold policy checks every 1024 arrivals).
constexpr size_t kGcMaxLive = 20000;
constexpr size_t kGcTargetLive = 10000;
constexpr size_t kGcCheckEvery = 1024;
// Durable runner cadences.
constexpr uint64_t kCheckpointEvery = 20000;
constexpr size_t kDurableGcEvery = 1000;
// Set-up repetitions per run (setup_s is their median).
constexpr int kSetupReps = 3;

// ------------------------------------------------------------ workloads
enum class Kind { kOffline, kMonolith, kDurablePaced };

struct Spec {
  const char* name;
  Kind kind;
  uint64_t txns;  // 0: paced, sized from --seconds at the paced rate
  uint64_t keys;
  chronos::workload::WorkloadParams::KeyDist dist;
  double read_ratio;
};

using KeyDist = chronos::workload::WorkloadParams::KeyDist;

// Every workload runs an SI database and SI checking. The max-rate online
// workloads (monolith and SER sharded) and the si/rc/ra-tagged paced
// workload were measured and left out (perfbench/README.md says why).
const Spec kSpecs[] = {
    {"offline-si", Kind::kOffline, 200000, 5000, KeyDist::kZipf, 0.5},
    {"online-si-gc", Kind::kMonolith, 0, 10000, KeyDist::kUniform, 0.5},
    {"online-durable-paced", Kind::kDurablePaced, 0, 10000, KeyDist::kUniform,
     0.5},
};

History Generate(const Spec& spec, uint64_t txns, uint64_t seed) {
  chronos::workload::WorkloadParams p;
  p.sessions = kSessions;
  p.txns = txns;
  p.ops_per_txn = kOpsPerTxn;
  p.read_ratio = spec.read_ratio;
  p.keys = spec.keys;
  p.dist = spec.dist;
  p.zipf_theta = 0.99;
  p.seed = seed;
  chronos::db::DbConfig cfg;
  cfg.faults.stale_read_prob = kStaleReadProb;
  cfg.fault_seed = seed;
  return chronos::workload::GenerateDefaultHistory(p, cfg);
}

std::vector<CollectedTxn> Schedule(const History& h, uint64_t seed) {
  chronos::hist::CollectorParams cp;
  cp.batch_size = kBatch;
  cp.batch_interval_ms = kBatchIntervalMs;
  cp.delay_mean_ms = kDelayMeanMs;
  cp.delay_stddev_ms = kDelayStddevMs;
  cp.seed = seed;
  return chronos::hist::ScheduleDelivery(h, cp);
}

/// Order-sensitive digest of a history (the determinism check on repeated
/// set-ups from one seed).
uint64_t Digest(const History& h) {
  uint64_t x = 1469598103934665603ull;
  auto mix = [&x](uint64_t v) { x = (x ^ v) * 1099511628211ull; };
  for (const Transaction& t : h.txns) {
    mix(t.tid);
    mix(t.sid);
    mix(t.sno);
    mix(t.start_ts);
    mix(t.commit_ts);
    mix(static_cast<uint64_t>(t.iso));
    for (const chronos::Op& op : t.ops) {
      mix(static_cast<uint64_t>(op.type));
      mix(op.key);
      mix(static_cast<uint64_t>(op.value));
    }
  }
  return x;
}

// -------------------------------------------------------------- helpers
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Transactions per second over every measured pass together: all the
/// passes' transactions over their summed wall time, so each second of the
/// run counts once, whichever pass it fell in.
double Throughput(uint64_t txns_per_pass, const std::vector<double>& pass_s) {
  double total_s = 0;
  for (double s : pass_s) total_s += s;
  return total_s > 0 ? static_cast<double>(txns_per_pass) *
                           static_cast<double>(pass_s.size()) / total_s
                     : 0;
}

/// The slowest sample with at least ten samples slower than it: the highest
/// percentile a run's sample count supports (p80 of 55 passes, p98.7 of 750
/// batches). With ten samples or fewer, the fastest.
double Tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end(), std::greater<double>());
  return v[std::min<size_t>(10, v.size() - 1)];
}

/// Nearest-rank percentile (p in (0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank < 1) rank = 1;
  return v[rank - 1];
}

/// Returns freed heap to the OS and restarts the kernel's peak-RSS
/// counter, so the peak covers only what follows (one workload's checker,
/// not its generator). False when the counter cannot be reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      unsigned long long kb = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

volatile uint64_t g_probe_sink = 0;

/// Wall time of a fixed dependent-integer-chain kernel: how fast the host
/// runs instructions right now. The program is not involved, so drift in
/// this number between runs is drift of the host, not of the checker.
double HostProbeMs() {
  const int64_t t0 = NowNs();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_probe_sink = x;
  return static_cast<double>(NowNs() - t0) / 1e6;
}

// -------------------------------------------------------------- verdicts
constexpr size_t kNumTypes = 6;

/// Everything a checker pass decides, compared exactly across passes and
/// between the traced and untraced runs.
struct Verdicts {
  std::array<uint64_t, kNumTypes> by_type{};
  CheckerStats stats;
  uint64_t flips = 0;
  uint64_t txns_with_flips = 0;
  std::array<uint64_t, 4> pair_flip_hist{};
  std::array<uint64_t, 4> txn_flip_hist{};
  std::array<uint64_t, FlipFlopStats::kNumLatencyBuckets> flip_latency_hist{};

  bool operator==(const Verdicts& o) const {
    return by_type == o.by_type && stats == o.stats && flips == o.flips &&
           txns_with_flips == o.txns_with_flips &&
           pair_flip_hist == o.pair_flip_hist &&
           txn_flip_hist == o.txn_flip_hist &&
           flip_latency_hist == o.flip_latency_hist;
  }
};

std::array<uint64_t, kNumTypes> CountsOf(const CountingSink& sink) {
  std::array<uint64_t, kNumTypes> c{};
  for (size_t i = 0; i < kNumTypes; ++i) {
    c[i] = sink.count(static_cast<ViolationType>(i));
  }
  return c;
}

Verdicts MakeVerdicts(const CountingSink& sink, const CheckerStats& stats,
                      const FlipFlopStats& flips) {
  Verdicts v;
  v.by_type = CountsOf(sink);
  v.stats = stats;
  v.flips = flips.total_flips();
  v.txns_with_flips = flips.txns_with_flips();
  v.pair_flip_hist = flips.pair_flip_histogram();
  v.txn_flip_hist = flips.txn_flip_histogram();
  v.flip_latency_hist = flips.latency_histogram();
  return v;
}

std::string TimesStr(const std::vector<double>& v) {
  std::string s;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.3f", s.empty() ? "" : " ", x);
    s += buf;
  }
  return s;
}

std::string CountsStr(const std::array<uint64_t, kNumTypes>& c) {
  std::string s;
  for (size_t i = 0; i < kNumTypes; ++i) {
    if (i) s += ' ';
    s += chronos::ViolationTypeName(static_cast<ViolationType>(i));
    s += '=' + std::to_string(c[i]);
  }
  return s;
}

// -------------------------------------------------------------- report
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string timing;  // "wall", "count", "ratio" or "memory"
};

struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // verdict-gate and I/O failures
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& timing) {
    metrics.push_back({name, value, unit, timing});
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// ------------------------------------------------- traced monolith glue
/// The monolithic `Aion`, composed from its two layers in the benchmark so
/// each gets its own span: AdmitTxn, then ClassifyOps, then ProcessTxn per
/// the admission verdict (core/txn_ingress.cc OnTransaction), with
/// finalize and GC dispatched inline (core/aion.cc). Its verdicts, stats
/// and flip totals must equal Aion's; the traced run checks that.
class TracedAion : public OnlineChecker, private TxnIngress::Dispatch {
 public:
  TracedAion(const CheckerOptions& options, chronos::ViolationSink* sink,
             Tracer* tracer)
      : report_([sink](Timestamp, const chronos::Violation& v) {
          sink->Report(v);
        }),
        engine_(EngineOptions(options), &stats_, &flips_, report_),
        ingress_(options, &stats_, report_, this),
        tracer_(tracer) {}

  void OnTransaction(const Transaction& t, uint64_t now_ms) override {
    arrival_ = t.tid;
    TxnIngress::Admission adm;
    {
      Scope s(tracer_, SpanName::kIngressAdmit, t.tid);
      adm = ingress_.AdmitTxn(t, now_ms);
    }
    using K = TxnIngress::Admission::Kind;
    if (adm.kind == K::kDrop) {
      ++drops_;
      return;
    }
    ClassifiedOps ops;
    {
      Scope s(tracer_, SpanName::kIngressClassify, t.tid);
      chronos::ClassifyOps(t, report_, adm.kind == K::kDispatch ? &ops
                                                                : nullptr);
    }
    if (adm.kind == K::kIntOnly) {
      ++int_only_;
      return;
    }
    KeyEngine::OpsView view;
    view.reads = ops.ext_reads.data();
    view.num_reads = ops.ext_reads.size();
    view.writes = ops.writes.data();
    view.num_writes = ops.writes.size();
    view.list_reads = ops.list_reads.data();
    view.num_list_reads = ops.list_reads.size();
    view.appends = ops.appends.data();
    view.num_appends = ops.appends.size();
    Scope s(tracer_, SpanName::kEngineProcess, t.tid);
    engine_.ProcessTxn(adm.ctx, view, adm.register_reads, adm.now_ms);
  }
  void AdvanceTime(uint64_t now_ms) override { ingress_.AdvanceTime(now_ms); }
  Timestamp Gc(Timestamp up_to) override { return ingress_.Gc(up_to); }
  void GcToLiveTarget(size_t target) override {
    ingress_.GcToLiveTarget(target);
  }
  void Finish() override { ingress_.Finish(); }
  CheckerFootprint GetFootprint() const override {  // as Aion::GetFootprint
    CheckerFootprint f;
    f.live_txns = ingress_.live_txns();
    f.versions = engine_.TotalVersions();
    f.intervals = engine_.TotalIntervals();
    f.approx_bytes = engine_.ApproxBytes() + f.live_txns * 160 +
                     f.intervals * 64 + ingress_.used_ts_count() * 48;
    return f;
  }

  const CheckerStats& stats() const { return stats_; }
  const FlipFlopStats& flip_stats() const { return flips_; }
  uint64_t drops() const { return drops_; }
  uint64_t int_only() const { return int_only_; }

 private:
  static KeyEngine::Options EngineOptions(const CheckerOptions& o) {
    KeyEngine::Options eo;
    eo.mode = o.mode;
    eo.spill_dir = o.spill_dir;
    return eo;
  }
  // AdmitTxn is the entry point, so the ingress never dispatches a txn.
  void DispatchTxn(const KeyEngine::TxnCtx&, ClassifiedOps&&, bool,
                   uint64_t) override {
    std::fprintf(stderr, "perfbench: unexpected DispatchTxn\n");
    std::abort();
  }
  void DispatchFinalize(TxnId tid) override {
    Scope s(tracer_, SpanName::kEngineFinalize, arrival_);
    engine_.FinalizeTxn(tid);
  }
  void DispatchGc(Timestamp watermark) override {
    Scope s(tracer_, SpanName::kEngineCollect, arrival_);
    engine_.CollectUpTo(watermark);
  }

  CheckerStats stats_;
  FlipFlopStats flips_;
  KeyEngine::ReportFn report_;
  KeyEngine engine_;
  TxnIngress ingress_;
  Tracer* tracer_;
  TxnId arrival_ = 0;
  uint64_t drops_ = 0;
  uint64_t int_only_ = 0;
};

// -------------------------------------------------- paced monolith driver
struct MonolithPass {
  OpenLoopResult loop;
  uint64_t gc_attempts = 0;
  CheckerFootprint peak;  // field-wise maxima at the GC-policy checks
};

/// One open-loop pass of `stream` into `checker` under the threshold GC
/// policy: collector batch b (stream indices [b*kBatch, (b+1)*kBatch)) is
/// due at `due[b]`, and its latency runs from that due time to the return
/// of its last OnTransaction. The pass ends at the return of Finish.
MonolithPass RunMonolithPass(OnlineChecker* checker,
                             const std::vector<CollectedTxn>& stream,
                             const std::vector<int64_t>& due, Tracer* tr) {
  MonolithPass p;
  p.loop = RunOpenLoop(due, [&](size_t b) {
    const size_t end = std::min(stream.size(), (b + 1) * kBatch);
    for (size_t i = b * kBatch; i < end; ++i) {
      const CollectedTxn& ct = stream[i];
      {
        Scope s(tr, SpanName::kArrival, ct.txn.tid);
        checker->OnTransaction(ct.txn, ct.deliver_at_ms);
      }
      if ((i + 1) % kGcCheckEvery != 0) continue;
      const CheckerFootprint f = checker->GetFootprint();
      p.peak.versions = std::max(p.peak.versions, f.versions);
      p.peak.intervals = std::max(p.peak.intervals, f.intervals);
      p.peak.approx_bytes = std::max(p.peak.approx_bytes, f.approx_bytes);
      if (f.live_txns >= kGcMaxLive) {
        ++p.gc_attempts;
        Scope s(tr, SpanName::kGcToLiveTarget, ct.txn.tid);
        checker->GcToLiveTarget(kGcTargetLive);
      }
    }
  });
  {
    Scope s(tr, SpanName::kCheckerFinish, 0);
    checker->Finish();
  }
  p.loop.end_ns = NowNs();
  return p;
}

// ------------------------------------------------------------ arguments
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  uint64_t txns = 0;  // 0: the workload's own size
  std::string trace_out;
};

/// Accumulates per-layer numbers over the traced passes.
struct LayerTotals {
  int passes = 0;
  std::array<Tracer::Totals, static_cast<size_t>(SpanName::kCount)> span{};

  void Add(const Tracer& t) {
    ++passes;
    const auto agg = t.Aggregate();
    for (size_t i = 0; i < agg.size(); ++i) {
      span[i].count += agg[i].count;
      span[i].total_ns += agg[i].total_ns;
      span[i].self_ns += agg[i].self_ns;
      span[i].max_ns = std::max(span[i].max_ns, agg[i].max_ns);
    }
  }
  // Seconds per pass.
  double Total(SpanName n) const {
    return passes ? static_cast<double>(span[static_cast<size_t>(n)].total_ns) /
                        1e9 / passes
                  : 0;
  }
  double Self(SpanName n) const {
    return passes ? static_cast<double>(span[static_cast<size_t>(n)].self_ns) /
                        1e9 / passes
                  : 0;
  }
  double MaxMs(SpanName n) const {
    return static_cast<double>(span[static_cast<size_t>(n)].max_ns) / 1e6;
  }
};

/// Every per-layer metric, zero where the workload bypasses the layer.
struct Layers {
  double hist_load_s = 0, hist_parse_mb_per_s = 0;
  double chronos_sort_s = 0, chronos_check_s = 0;
  double ingress_admit_self_s = 0, ingress_classify_s = 0;
  double ingress_drops = 0, ingress_int_only = 0;
  double engine_process_s = 0, engine_finalize_s = 0, engine_collect_s = 0;
  double engine_ext_rechecks = 0, engine_noconflict_checks = 0;
  double engine_flips = 0, engine_versions_peak = 0;
  double engine_intervals_peak = 0, engine_bytes_peak = 0;
  double gc_attempts = 0, gc_passes = 0, gc_useful_ratio = 0;
  double gc_pause_s = 0, gc_pause_max_ms = 0;
  double pipeline_drain_s = 0;
  double pipeline_coordinator_idle_ratio = 0;
  double pipeline_seq_producer_stalls = 0, pipeline_shard_consumer_stalls = 0;
  double pipeline_shard_ring_hwm_max = 0;
  double durable_feed_s = 0, durable_checkpoint_s = 0;
  double durable_checkpoints = 0, durable_wal_bytes_per_txn = 0;
  double durable_ckpt_bytes = 0;
  double loadgen_late_p99_ms = 0;
  double trace_overhead_ratio = 0;
  double trace_spans = 0;

  void Emit(Report* r) const {
    r->Set("hist.load_s", hist_load_s, "s", "wall");
    r->Set("hist.parse_mb_per_s", hist_parse_mb_per_s, "MB/s", "wall");
    r->Set("chronos.sort_s", chronos_sort_s, "s", "wall");
    r->Set("chronos.check_s", chronos_check_s, "s", "wall");
    r->Set("ingress.admit_self_s", ingress_admit_self_s, "s", "wall");
    r->Set("ingress.classify_s", ingress_classify_s, "s", "wall");
    r->Set("ingress.drops", ingress_drops, "count", "count");
    r->Set("ingress.int_only", ingress_int_only, "count", "count");
    r->Set("engine.process_s", engine_process_s, "s", "wall");
    r->Set("engine.finalize_s", engine_finalize_s, "s", "wall");
    r->Set("engine.ext_rechecks", engine_ext_rechecks, "count", "count");
    r->Set("engine.noconflict_checks", engine_noconflict_checks, "count",
           "count");
    r->Set("engine.flips", engine_flips, "count", "count");
    r->Set("engine.versions_peak", engine_versions_peak, "count", "count");
    r->Set("engine.intervals_peak", engine_intervals_peak, "count", "count");
    r->Set("engine.bytes_peak", engine_bytes_peak, "bytes", "memory");
    r->Set("engine.collect_s", engine_collect_s, "s", "wall");
    r->Set("gc.attempts", gc_attempts, "count", "count");
    r->Set("gc.passes", gc_passes, "count", "count");
    r->Set("gc.useful_ratio", gc_useful_ratio, "ratio", "ratio");
    r->Set("gc.pause_s", gc_pause_s, "s", "wall");
    r->Set("gc.pause_max_ms", gc_pause_max_ms, "ms", "wall");
    r->Set("pipeline.drain_s", pipeline_drain_s, "s", "wall");
    r->Set("pipeline.coordinator_idle_ratio", pipeline_coordinator_idle_ratio,
           "ratio", "ratio");
    r->Set("pipeline.seq_producer_stalls", pipeline_seq_producer_stalls,
           "count", "count");
    r->Set("pipeline.shard_consumer_stalls", pipeline_shard_consumer_stalls,
           "count", "count");
    r->Set("pipeline.shard_ring_hwm_max", pipeline_shard_ring_hwm_max,
           "count", "count");
    r->Set("durable.feed_s", durable_feed_s, "s", "wall");
    r->Set("durable.checkpoint_s", durable_checkpoint_s, "s", "wall");
    r->Set("durable.checkpoints", durable_checkpoints, "count", "count");
    r->Set("durable.wal_bytes_per_txn", durable_wal_bytes_per_txn, "bytes",
           "count");
    r->Set("durable.ckpt_bytes", durable_ckpt_bytes, "bytes", "count");
    r->Set("loadgen.late_p99_ms", loadgen_late_p99_ms, "ms", "wall");
    r->Set("trace.overhead_ratio", trace_overhead_ratio, "ratio", "wall");
    r->Set("trace.spans", trace_spans, "count", "count");
  }
};

void SetPipelineHealth(const chronos::online::PipelineHealth& h, Layers* l) {
  l->pipeline_coordinator_idle_ratio = h.CoordinatorIdleRatio();
  l->pipeline_seq_producer_stalls = static_cast<double>(
      h.seq_ring.producer_stalls);
  double consumer = 0, hwm = 0;
  for (const auto& r : h.shard_rings) {
    consumer += static_cast<double>(r.consumer_stalls);
    hwm = std::max(hwm, static_cast<double>(r.depth_hwm));
  }
  l->pipeline_shard_consumer_stalls = consumer;
  l->pipeline_shard_ring_hwm_max = hwm;
}

void SetCheckerCounts(const Verdicts& v, Layers* l) {
  l->engine_ext_rechecks = static_cast<double>(v.stats.ext_rechecks);
  l->engine_noconflict_checks =
      static_cast<double>(v.stats.noconflict_checks);
  l->engine_flips = static_cast<double>(v.flips);
  l->gc_passes = static_cast<double>(v.stats.gc_passes);
}

void EmitEndToEnd(Report* r, double setup_s, double txns_per_s,
                  const std::vector<double>& latencies, double peak_rss_mb) {
  r->Set("setup_s", setup_s, "s", "wall");
  r->Set("txns_per_s", txns_per_s, "1/s", "wall");
  r->Set("latency_p50_ms", Percentile(latencies, 50), "ms", "wall");
  r->Set("latency_p99_ms", Percentile(latencies, 99), "ms", "wall");
  r->Set("latency_tail_ms", Tail(latencies), "ms", "wall");
  r->Set("latency_samples", static_cast<double>(latencies.size()), "count",
         "count");
  r->Set("peak_rss_mb", peak_rss_mb, "MB", "memory");
}

/// Schedules a run's passes: one untimed warm-up pass (heap growth, page
/// faults, clock ramp-up), then measured passes while the budget lasts, at
/// least one untraced and, in a traced run, one traced.
class PassClock {
 public:
  PassClock(double seconds, bool trace)
      : budget_ns_(seconds * 1e9), trace_(trace) {}
  bool More() const {
    if (warmup_) return true;
    if (untraced_ == 0 || (trace_ && traced_ == 0)) return true;
    return static_cast<double>(NowNs() - start_) < budget_ns_;
  }
  bool warmup() const { return warmup_; }
  /// Traced and untraced passes alternate, untraced first.
  bool tracing() const { return !warmup_ && trace_ && traced_ < untraced_; }
  void Done() {
    // Every pass starts from a trimmed heap, so the run's peak RSS does not
    // depend on how many passes fragmented it before.
    malloc_trim(0);
    if (warmup_) {
      warmup_ = false;
      start_ = NowNs();
    } else if (tracing()) {
      ++traced_;
    } else {
      ++untraced_;
    }
  }

 private:
  double budget_ns_;
  bool trace_;
  bool warmup_ = true;
  int untraced_ = 0;
  int traced_ = 0;
  int64_t start_ = 0;
};

/// Runs `setup` kSetupReps times; returns the median seconds and requires
/// every repetition to produce the same digest.
template <typename Setup>
double TimedSetup(Setup&& setup, Report* rep) {
  std::vector<double> times;
  uint64_t first = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    const int64_t t0 = NowNs();
    const uint64_t digest = setup();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (i == 0) first = digest;
    rep->Check(digest == first, "set-up is not deterministic for the seed");
  }
  return Median(times);
}

/// Per-type violation counts of an independent offline checker: CHRONOS for
/// the online workloads, and the mixed-level mirror for the offline
/// workload, whose measured checker is CHRONOS itself.
std::array<uint64_t, kNumTypes> ReferenceCounts(const Spec& spec,
                                                const History& history,
                                                Report* rep) {
  CountingSink sink(0);
  if (spec.kind == Kind::kOffline) {
    chronos::ChronosMixed::CheckHistory(history, CheckMode::kSi, &sink);
  } else {
    chronos::Chronos::CheckHistory(history, &sink);
  }
  const auto counts = CountsOf(sink);
  rep->Check(counts[static_cast<size_t>(ViolationType::kExt)] > 0,
             "no injected EXT violation in the reference");
  return counts;
}

void GateCounts(const std::array<uint64_t, kNumTypes>& got,
                const std::array<uint64_t, kNumTypes>& want,
                const std::string& who, Report* rep) {
  rep->Check(got == want, who + " verdicts {" + CountsStr(got) +
                              "} differ from the reference {" +
                              CountsStr(want) + "}");
}

void GateStats(const CheckerStats& s, Report* rep) {
  rep->Check(s.unsafe_below_watermark == 0,
             "unsafe_below_watermark = " +
                 std::to_string(s.unsafe_below_watermark));
  rep->Check(s.corrupt_spill_epochs == 0,
             "corrupt_spill_epochs = " +
                 std::to_string(s.corrupt_spill_epochs));
}

void WriteSpans(const Tracer& tracer, const Args& a, Report* rep) {
  if (!a.trace_out.empty()) {
    rep->Check(tracer.WriteTsv(a.trace_out), "cannot write " + a.trace_out);
  }
}

// ------------------------------------------------------------- offline-si
void RunOffline(const Spec& spec, const Args& a, Report* rep) {
  const uint64_t txns = a.txns ? a.txns : spec.txns;
  const std::string path = a.work_dir + "/history.hist";
  History history;
  const double setup_s = TimedSetup(
      [&] {
        history = Generate(spec, txns, a.seed);
        const chronos::hist::CodecStatus st =
            chronos::hist::SaveHistory(history, path);
        rep->Check(st.ok, "save: " + st.message);
        return Digest(history);
      },
      rep);
  const auto want = ReferenceCounts(spec, history, rep);  // untimed
  History().txns.swap(history.txns);
  const double file_mb = static_cast<double>(fs::file_size(path)) / 1e6;
  const bool rss_reset = ResetPeakRss();

  std::vector<double> untraced_s, traced_s, sort_s, check_s;
  LayerTotals layers;
  for (PassClock clock(a.seconds, a.trace); clock.More(); clock.Done()) {
    const bool tracing = clock.tracing();
    Tracer tracer;
    Tracer* tr = tracing ? &tracer : nullptr;
    const int64_t t0 = NowNs();
    History h;
    chronos::hist::CodecStatus st;
    {
      Scope s(tr, SpanName::kHistLoad, 0);
      st = chronos::hist::LoadHistory(path, &h);
    }
    rep->Check(st.ok, "load: " + st.message);
    if (!st.ok) break;
    CountingSink sink(0);
    chronos::CheckStats cs;
    {
      Scope s(tr, SpanName::kChronosCheck, 0);
      cs = chronos::Chronos(chronos::ChronosOptions{}, &sink)
               .Check(std::move(h));
    }
    const double pass_s = static_cast<double>(NowNs() - t0) / 1e9;
    GateCounts(CountsOf(sink), want, tracing ? "traced Chronos" : "Chronos",
               rep);
    if (clock.warmup()) continue;
    if (tracing) {
      traced_s.push_back(pass_s);
      layers.Add(tracer);
      WriteSpans(tracer, a, rep);
    } else {
      untraced_s.push_back(pass_s);
      sort_s.push_back(cs.sort_seconds);
      check_s.push_back(cs.check_seconds);
    }
  }
  std::vector<double> latencies;
  for (double s : untraced_s) latencies.push_back(s * 1e3);
  const double med = Median(untraced_s);
  EmitEndToEnd(rep, setup_s, Throughput(txns, untraced_s), latencies,
               PeakRssMb());
  if (!rss_reset) rep->notes.push_back("peak RSS counter not reset");
  if (a.trace) {
    Layers l;
    l.hist_load_s = layers.Total(SpanName::kHistLoad);
    l.hist_parse_mb_per_s = l.hist_load_s > 0 ? file_mb / l.hist_load_s : 0;
    l.chronos_sort_s = Median(sort_s);
    l.chronos_check_s = Median(check_s);
    l.trace_overhead_ratio = Median(traced_s) / med - 1;
    l.trace_spans = 2;  // one load and one check span per pass
    l.Emit(rep);
  }
  rep->notes.push_back("history file " + std::to_string(file_mb) + " MB");
  rep->notes.push_back("untraced pass seconds: " + TimesStr(untraced_s));
  if (a.trace) {
    rep->notes.push_back("traced pass seconds: " + TimesStr(traced_s));
  }
}

// ------------------------------------------------------------ online-si-gc
/// A paced workload's size: one pass lasts `--seconds` at the collector's
/// rate, unless --txns overrides it.
uint64_t PacedTxns(const Args& a) {
  const double rate = 1000.0 * kBatch / kBatchIntervalMs;
  return a.txns ? a.txns
                : static_cast<uint64_t>(std::llround(rate * a.seconds));
}

/// Due offsets of the collector batches of an `n`-txn stream: batch b is
/// due b * kBatchIntervalMs after the pass starts.
std::vector<int64_t> BatchDue(size_t n) {
  std::vector<int64_t> due;
  for (size_t b = 0; b * kBatch < n; ++b) {
    due.push_back(static_cast<int64_t>(b * kBatchIntervalMs) * 1000000);
  }
  return due;
}

CheckerOptions OnlineOptions(const std::string& spill) {
  CheckerOptions o;
  o.mode = CheckMode::kSi;
  o.ext_timeout_ms = kExtTimeoutMs;
  o.spill_dir = spill;
  o.pre_stage_workers = kPreStageWorkers;
  return o;
}

void RunMonolith(const Spec& spec, const Args& a, Report* rep) {
  const uint64_t txns = PacedTxns(a);
  History history;
  std::vector<CollectedTxn> stream;
  std::vector<int64_t> due;
  const double setup_s = TimedSetup(
      [&] {
        history = Generate(spec, txns, a.seed);
        stream = Schedule(history, a.seed);
        due = BatchDue(stream.size());
        return Digest(history);
      },
      rep);
  const auto want = ReferenceCounts(spec, history, rep);  // untimed
  History().txns.swap(history.txns);
  const bool rss_reset = ResetPeakRss();

  // One open-loop pass fills the budget; a traced run adds a traced pass.
  const CheckerOptions opts = OnlineOptions("");
  MonolithPass p0;
  Verdicts v0;
  {
    CountingSink sink(0);
    chronos::Aion checker(opts, &sink);
    p0 = RunMonolithPass(&checker, stream, due, nullptr);
    v0 = MakeVerdicts(sink, checker.stats(), checker.flip_stats());
  }
  const double peak_rss = PeakRssMb();
  rep->attempted += stream.size();
  GateCounts(v0.by_type, want, "pass", rep);
  GateStats(v0.stats, rep);
  const double wall_s =
      static_cast<double>(p0.loop.end_ns - p0.loop.start_ns) / 1e9;
  EmitEndToEnd(rep, setup_s, static_cast<double>(txns) / wall_s,
               p0.loop.latency_ms, peak_rss);
  rep->Set("late_p99_ms", Percentile(p0.loop.late_ms, 99), "ms", "wall");
  if (!rss_reset) rep->notes.push_back("peak RSS counter not reset");
  if (a.trace) {
    Tracer tracer;
    CountingSink sink(0);
    TracedAion checker(opts, &sink, &tracer);
    const MonolithPass pt = RunMonolithPass(&checker, stream, due, &tracer);
    const Verdicts vt =
        MakeVerdicts(sink, checker.stats(), checker.flip_stats());
    rep->attempted += stream.size();
    GateCounts(vt.by_type, want, "traced pass", rep);
    GateStats(vt.stats, rep);
    rep->Check(vt == v0,
               "traced pass differs from the untraced pass (verdicts, "
               "CheckerStats or flip-flops)");
    LayerTotals layers;
    layers.Add(tracer);
    WriteSpans(tracer, a, rep);
    Layers l;
    SetCheckerCounts(vt, &l);
    l.ingress_drops = static_cast<double>(checker.drops());
    l.ingress_int_only = static_cast<double>(checker.int_only());
    l.ingress_admit_self_s = layers.Self(SpanName::kIngressAdmit);
    l.ingress_classify_s = layers.Total(SpanName::kIngressClassify);
    l.engine_process_s = layers.Total(SpanName::kEngineProcess);
    l.engine_finalize_s = layers.Total(SpanName::kEngineFinalize);
    l.engine_collect_s = layers.Total(SpanName::kEngineCollect);
    l.engine_versions_peak = static_cast<double>(pt.peak.versions);
    l.engine_intervals_peak = static_cast<double>(pt.peak.intervals);
    l.engine_bytes_peak = static_cast<double>(pt.peak.approx_bytes);
    l.gc_attempts = static_cast<double>(pt.gc_attempts);
    l.gc_useful_ratio = l.gc_attempts > 0 ? l.gc_passes / l.gc_attempts : 0;
    l.gc_pause_s = layers.Total(SpanName::kGcToLiveTarget);
    l.gc_pause_max_ms = layers.MaxMs(SpanName::kGcToLiveTarget);
    l.loadgen_late_p99_ms = Percentile(pt.loop.late_ms, 99);
    // A paced pass lasts as long as its schedule, so the tracing overhead
    // shows in latency rather than in wall time.
    l.trace_overhead_ratio = Percentile(pt.loop.latency_ms, 50) /
                                 Percentile(p0.loop.latency_ms, 50) -
                             1;
    l.trace_spans = static_cast<double>(tracer.size());
    l.Emit(rep);
  }
  rep->notes.push_back(std::to_string(txns) + " txns in " +
                       std::to_string(kBatch) + "-txn batches every " +
                       std::to_string(kBatchIntervalMs) + " ms; verdicts " +
                       CountsStr(v0.by_type));
}

// --------------------------------------------------- online-durable-paced
struct PacedPass {
  OpenLoopResult loop;
  Verdicts verdicts;
  uint64_t feed_failures = 0;
  uint64_t checkpoints = 0;
  double wal_bytes = 0;
  double ckpt_bytes = 0;
  chronos::online::PipelineHealth health;
  // Span indices (traced passes only).
  std::vector<size_t> ckpt_spans, gc_spans;
};

/// One open-loop pass: collector batch b (stream indices [b*kBatch,
/// (b+1)*kBatch), in delivery order) is due at `due[b]`; its latency runs
/// from that due time to the return of the Feed of its last transaction.
PacedPass RunPacedPass(const std::vector<CollectedTxn>& stream,
                       const std::vector<int64_t>& due,
                       const std::string& dir, Tracer* tr) {
  PacedPass p;
  fs::remove_all(dir);
  CountingSink sink(0);
  ShardedAion checker(OnlineOptions(dir + "/spill"), kShards, &sink);
  DurableRunner::Options dopts;
  dopts.dir = dir + "/durable";
  dopts.checkpoint_every_events = kCheckpointEvery;
  dopts.gc_every_events = kDurableGcEvery;
  dopts.gc_target = kGcTargetLive;
  {
    DurableRunner runner(&checker, dopts);
    p.loop = RunOpenLoop(due, [&](size_t b) {
      const size_t end = std::min(stream.size(), (b + 1) * kBatch);
      for (size_t i = b * kBatch; i < end; ++i) {
        const uint64_t before = runner.checkpoints_written();
        Scope s(tr, SpanName::kDurableFeed, stream[i].txn.tid);
        if (!runner.Feed(stream[i].txn, stream[i].deliver_at_ms)) {
          ++p.feed_failures;
        }
        if (!tr) continue;
        if (runner.checkpoints_written() != before) {
          p.ckpt_spans.push_back(s.index());
        } else if ((i + 1) % kDurableGcEvery == 0) {
          p.gc_spans.push_back(s.index());
        }
      }
    });
    {
      Scope s(tr, SpanName::kPipelineDrain, 0);
      runner.Finish();
    }
    p.loop.end_ns = NowNs();
    p.checkpoints = runner.checkpoints_written();
  }
  {
    Scope s(tr, SpanName::kPipelineHealth, 0);
    p.health = checker.pipeline_health();
  }
  p.verdicts = MakeVerdicts(sink, checker.stats(), checker.flip_stats());
  std::error_code ec;
  p.wal_bytes = static_cast<double>(
      fs::file_size(dopts.dir + "/wal.log", ec));
  const auto ckpts = chronos::online::CheckpointManager::List(dopts.dir);
  if (!ckpts.empty()) {
    p.ckpt_bytes =
        static_cast<double>(fs::file_size(ckpts.back().second, ec));
  }
  return p;
}

void RunPaced(const Spec& spec, const Args& a, Report* rep) {
  const uint64_t txns = PacedTxns(a);
  History history;
  std::vector<CollectedTxn> stream;
  std::vector<int64_t> due;
  const double setup_s = TimedSetup(
      [&] {
        history = Generate(spec, txns, a.seed);
        stream = Schedule(history, a.seed);
        due = BatchDue(stream.size());
        return Digest(history);
      },
      rep);
  const auto want = ReferenceCounts(spec, history, rep);  // untimed
  History().txns.swap(history.txns);
  const bool rss_reset = ResetPeakRss();

  // One open-loop pass fills the budget; a traced run adds a traced pass.
  Tracer tracer;
  std::vector<PacedPass> passes;
  passes.push_back(RunPacedPass(stream, due, a.work_dir + "/pass0",
                                nullptr));
  const double peak_rss = PeakRssMb();
  if (a.trace) {
    passes.push_back(RunPacedPass(stream, due, a.work_dir + "/pass1",
                                  &tracer));
  }
  for (size_t i = 0; i < passes.size(); ++i) {
    const PacedPass& p = passes[i];
    rep->attempted += stream.size();
    rep->failed += p.feed_failures;
    if (p.feed_failures) {
      rep->failures.push_back(std::to_string(p.feed_failures) +
                              " Feed calls failed");
    }
    GateCounts(p.verdicts.by_type, want, i ? "traced pass" : "pass", rep);
    GateStats(p.verdicts.stats, rep);
    if (i) {
      rep->Check(p.verdicts == passes[0].verdicts,
                 "traced pass differs from the untraced pass (verdicts, "
                 "CheckerStats or flip-flops)");
    }
  }
  const PacedPass& p0 = passes[0];
  const double wall_s =
      static_cast<double>(p0.loop.end_ns - p0.loop.start_ns) / 1e9;
  EmitEndToEnd(rep, setup_s, static_cast<double>(txns) / wall_s,
               p0.loop.latency_ms, peak_rss);
  rep->Set("late_p99_ms", Percentile(p0.loop.late_ms, 99), "ms", "wall");
  if (!rss_reset) rep->notes.push_back("peak RSS counter not reset");
  if (a.trace) {
    const PacedPass& pt = passes[1];
    LayerTotals layers;
    layers.Add(tracer);
    WriteSpans(tracer, a, rep);
    Layers l;
    SetCheckerCounts(pt.verdicts, &l);
    SetPipelineHealth(pt.health, &l);
    l.pipeline_drain_s = layers.Total(SpanName::kPipelineDrain);
    l.durable_feed_s = layers.Total(SpanName::kDurableFeed);
    auto span_s = [&](size_t i) {
      const Tracer::Span& s = tracer.span(i);
      return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    };
    for (size_t i : pt.ckpt_spans) l.durable_checkpoint_s += span_s(i);
    for (size_t i : pt.gc_spans) {
      l.gc_pause_s += span_s(i);
      l.gc_pause_max_ms = std::max(l.gc_pause_max_ms, span_s(i) * 1e3);
    }
    l.durable_checkpoints = static_cast<double>(pt.checkpoints);
    l.durable_wal_bytes_per_txn = pt.wal_bytes / static_cast<double>(txns);
    l.durable_ckpt_bytes = pt.ckpt_bytes;
    l.gc_attempts = static_cast<double>(txns / kDurableGcEvery);
    l.gc_useful_ratio = l.gc_attempts > 0 ? l.gc_passes / l.gc_attempts : 0;
    l.loadgen_late_p99_ms = Percentile(pt.loop.late_ms, 99);
    // A paced pass lasts as long as its schedule, so the tracing overhead
    // shows in latency rather than in wall time.
    l.trace_overhead_ratio = Percentile(pt.loop.latency_ms, 50) /
                                 Percentile(p0.loop.latency_ms, 50) -
                             1;
    l.trace_spans = static_cast<double>(tracer.size());
    l.Emit(rep);
  }
  rep->notes.push_back(std::to_string(txns) + " txns in " +
                       std::to_string(kBatch) + "-txn batches every " +
                       std::to_string(kBatchIntervalMs) + " ms; verdicts " +
                       CountsStr(p0.verdicts.by_type));
  fs::remove_all(a.work_dir + "/pass0");
  fs::remove_all(a.work_dir + "/pass1");
}

// ------------------------------------------------------------- output
std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintReport(const Args& a, const Report& r) {
  std::string out = "{\"workload\": " + JsonStr(a.workload);
  out += ", \"seed\": " + std::to_string(a.seed);
  out += ", \"trace\": " + std::to_string(a.trace ? 1 : 0);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": " + JsonStr(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + JsonStr(PERFBENCH_COMPILER);
  out += ", \"correct\": ";
  out += r.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"failures\": [";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    out += (i ? ", " : "") + JsonStr(r.failures[i]);
  }
  out += "], \"notes\": [";
  for (size_t i = 0; i < r.notes.size(); ++i) {
    out += (i ? ", " : "") + JsonStr(r.notes[i]);
  }
  out += "], \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", " : "") + JsonStr(m.name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonStr(m.unit) +
           ", \"timing\": " + JsonStr(m.timing) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ------------------------------------------------------------ self-test
/// Open-loop accounting: a stall injected into one arrival must raise the
/// latency of every later arrival that was due before the stall ended,
/// measured from its due time (not from when the generator got to it).
int SelfTest() {
  constexpr size_t kN = 80;
  constexpr size_t kStallAt = 20;
  constexpr int64_t kGapNs = 1000000;      // one arrival per ms
  constexpr int64_t kStallNs = 30000000;   // 30 ms
  std::vector<int64_t> due(kN);
  for (size_t i = 0; i < kN; ++i) due[i] = static_cast<int64_t>(i) * kGapNs;
  const OpenLoopResult r = RunOpenLoop(due, [&](size_t i) {
    if (i == kStallAt) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kStallNs));
    }
  });
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    }
  };
  const double stall_end_ms =
      static_cast<double>(due[kStallAt]) / 1e6 + r.latency_ms[kStallAt];
  expect(r.latency_ms[kStallAt] >= kStallNs / 1e6,
         "the stalled arrival's latency covers the stall");
  size_t queued = 0;
  for (size_t i = kStallAt + 1; i < kN; ++i) {
    const double due_ms = static_cast<double>(due[i]) / 1e6;
    if (due_ms >= stall_end_ms) break;
    ++queued;
    const double owed = stall_end_ms - due_ms;
    expect(r.latency_ms[i] >= owed,
           "arrival " + std::to_string(i) + " latency " +
               std::to_string(r.latency_ms[i]) + " ms < " +
               std::to_string(owed) + " ms owed to the stall");
    expect(r.late_ms[i] >= owed, "arrival " + std::to_string(i) +
                                     " issued before the stall ended");
  }
  expect(queued >= 20, "at least 20 arrivals queued behind the stall");
  for (size_t i = 0; i < kStallAt; ++i) {
    expect(r.latency_ms[i] < kStallNs / 1e6,
           "arrival " + std::to_string(i) + " before the stall is unaffected");
  }
  std::printf("selftest: %zu arrivals queued behind a %.0f ms stall; %s\n",
              queued, kStallNs / 1e6, failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}

// ---------------------------------------------------------------- main
bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--txns") {
      a->txns = std::strtoull(v, nullptr, 10);
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->work_dir.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) return SelfTest();
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --work-dir <dir> [--txns <n>] "
                 "[--trace-out <file>]\n       perfbench --selftest\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (a.workload == s.name) spec = &s;
  }
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(a.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", a.work_dir.c_str());
    return 2;
  }
  Report rep;
  std::vector<double> probe_ms;
  for (int i = 0; i < 3; ++i) probe_ms.push_back(HostProbeMs());
  switch (spec->kind) {
    case Kind::kOffline:
      RunOffline(*spec, a, &rep);
      break;
    case Kind::kMonolith:
      RunMonolith(*spec, a, &rep);
      break;
    case Kind::kDurablePaced:
      RunPaced(*spec, a, &rep);
      break;
  }
  for (int i = 0; i < 3; ++i) probe_ms.push_back(HostProbeMs());
  rep.Set("host.probe_ms", Median(probe_ms), "ms", "wall");
  rep.Set("error_ratio",
          rep.attempted ? static_cast<double>(rep.failed) / rep.attempted : 0,
          "ratio", "count");
  PrintReport(a, rep);
  for (const std::string& f : rep.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  }
  return rep.failures.empty() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
