/// \file replay_bench.cc
/// \brief Closed-loop replay benchmark over the §6 workloads (README.md).
///
/// One process runs one workload. It sets up several times (trace
/// generation, query compile, the §4 advisor, optimize, Build) and keeps the
/// median, computes a centralized reference, then replays the trace through
/// fresh single-threaded 4-host runtimes for --seconds, timing every
/// PushSourceBatch from outside. Every window's output multiset is checked
/// against the reference and every ledger against the first one. The last
/// stdout line is one JSON object: the end-to-end metrics, or with
/// --trace 1 the per-layer metrics, which come from spans recorded around
/// every call into a layer plus the route/serde/engine component replays.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "dist/cluster_runtime.h"
#include "dist/fault.h"
#include "dist/partitioner.h"
#include "exec/local_engine.h"
#include "metrics/cpu_model.h"
#include "metrics/report.h"
#include "optimizer/optimizer.h"
#include "partition/cost_model.h"
#include "partition/search.h"
#include "plan/query_graph.h"
#include "trace/trace_gen.h"
#include "types/serde.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace streampart;

constexpr const char* kSource = "TCP";
constexpr int kHosts = 4;
constexpr int kPartitionsPerHost = 2;
/// Trace prefix the advisor calibrates selectivities on (as fig10 does).
constexpr size_t kCalibrationPrefix = 50000;
/// Trace prefix the optimizer re-costs predicates on (as RunCell does).
constexpr size_t kPredicateSample = 1024;
/// Full set-ups per run; setup_s is their median.
constexpr int kSetupSamples = 5;
/// A run holds at least this many closes, so >= 10 lie beyond p90.
constexpr size_t kMinCloses = 100;
/// Passes of each traced-run component replay (median reported).
constexpr int kComponentPasses = 3;
/// Armed/unarmed repetition pairs behind the traced run's controller ratio.
constexpr int kTwinPairs = 3;

/// Keeps the component replays' results observable.
volatile uint64_t g_sink = 0;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "replay_bench: %s\n", what.c_str());
  std::exit(2);
}

void Must(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

/// Nanoseconds on the steady clock since the first call.
int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double CurrentRssMb() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / 1048576.0;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Spans of the traced run

/// In-memory span log. A span is one call into a layer, timed from the
/// benchmark; its name is "<layer>.<call>", its parent the span open around
/// it, and `epoch` the source window of a push (-1 for every other span).
/// Disabled, it records nothing and Open returns -1.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
    int64_t epoch = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }

  int Open(const char* name, int64_t start_ns) {
    if (!enabled_) return -1;
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, start_ns, -1, parent, -1});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void Close(int id, int64_t end_ns) {
    if (id < 0) return;
    spans_[id].end_ns = end_ns;
    open_.erase(std::find(open_.begin(), open_.end(), id));
  }

  /// Records an already-timed leaf span under \p parent.
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
           int64_t epoch) {
    if (enabled_) spans_.push_back({name, start_ns, end_ns, parent, epoch});
  }

  /// Self time per layer (span duration minus its children's), in ns.
  std::map<std::string, std::pair<size_t, double>> SelfTimeByLayer() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, std::pair<size_t, double>> layers;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& [count, self_ns] = layers[s.name.substr(0, s.name.find('.'))];
      ++count;
      self_ns += static_cast<double>(s.end_ns - s.start_ns) - child[i];
    }
    return layers;
  }

  bool WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"epoch\":%lld}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.epoch));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one call from outside; the same clock reads feed the end-to-end
/// numbers and, when the log is enabled, the span.
class Timed {
 public:
  Timed(SpanLog* log, const char* name)
      : log_(log), start_(NowNs()), id_(log->Open(name, start_)) {}
  /// Ends the span; returns its duration in seconds.
  double Stop() {
    int64_t end = NowNs();
    log_->Close(id_, end);
    id_ = -1;
    return static_cast<double>(end - start_) * 1e-9;
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t start_;
  int id_;
};

// ---------------------------------------------------------------------------
// Set-up

/// Everything a replay needs, built by one timed set-up.
struct Prepared {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryGraph> graph;
  TraceConfig trace_config;
  TupleBatch trace;
  PartitionSet ps;  // empty = round-robin
  ClusterConfig cluster;
  std::unique_ptr<DistPlan> plan;
  FaultPlan faults;
};

struct SetupTimes {
  double total_s = 0, gen_s = 0, compile_s = 0, calibrate_s = 0,
         search_s = 0, optimize_s = 0;
  double rss_after_gen_mb = 0;
  size_t candidates = 0;
};

std::unique_ptr<ClusterRuntime> NewRuntime(const Prepared& p) {
  auto rt = std::make_unique<ClusterRuntime>(p.graph.get(), p.plan.get(),
                                             p.cluster);
  rt->set_cost_params(CpuCostParams());
  if (p.faults.armed()) rt->set_fault_plan(p.faults);
  Must(rt->Build(p.ps), "ClusterRuntime::Build");
  return rt;
}

/// The §4 advisor: calibrate the cost model on a trace prefix, then search.
PartitionSet Advise(const Prepared& p, SpanLog* log, SetupTimes* t) {
  CostModel::Options opts;
  opts.source_tuples_per_epoch = p.trace_config.packets_per_sec;
  Timed calibrate(log, "partition.calibrate");
  CostModel model = Must(CostModel::Make(p.graph.get(), opts), "cost model");
  TupleBatch sample(p.trace.begin(),
                    p.trace.begin() + std::min(kCalibrationPrefix,
                                               p.trace.size()));
  Must(model.CalibrateFromTrace(kSource, sample), "CalibrateFromTrace");
  t->calibrate_s = calibrate.Stop();
  Timed search(log, "partition.search");
  SearchResult found =
      Must(PartitionSearch(p.graph.get(), &model).FindOptimal(), "search");
  t->search_s = search.Stop();
  t->candidates = found.candidates_explored;
  return found.best;
}

std::unique_ptr<Prepared> Setup(const Workload& w, uint64_t seed,
                                SpanLog* log, SetupTimes* t) {
  auto p = std::make_unique<Prepared>();
  std::unique_ptr<ClusterRuntime> built;  // destroyed after the timing
  Timed all(log, "bench.setup");
  {
    Timed gen(log, "trace.generate");
    p->trace_config = FigureTrace(seed);
    p->trace = PacketTraceGenerator(p->trace_config).GenerateAll();
    t->gen_s = gen.Stop();
  }
  t->rss_after_gen_mb = CurrentRssMb();
  {
    Timed compile(log, "plan.compile");
    p->catalog = std::make_unique<Catalog>(MakeDefaultCatalog());
    p->graph = std::make_unique<QueryGraph>(p->catalog.get());
    Must(p->graph->AddQuery(kQueryName, kQueryGsql), "AddQuery");
    t->compile_s = compile.Stop();
  }
  if (!w.expected_set.empty()) p->ps = Advise(*p, log, t);
  {
    Timed optimize(log, "optimizer.plan");
    p->cluster.num_hosts = kHosts;
    p->cluster.partitions_per_host = kPartitionsPerHost;
    OptimizerOptions opts = w.optimizer;
    opts.predicate_sample = TupleSpan(p->trace).subspan(
        0, std::min(kPredicateSample, p->trace.size()));
    p->plan = std::make_unique<DistPlan>(Must(
        OptimizeForPartitioning(*p->graph, p->cluster, p->ps, opts),
        "OptimizeForPartitioning"));
    t->optimize_s = optimize.Stop();
  }
  {
    Timed build(log, "dist.build");
    if (!w.fault_plan.empty()) {
      p->faults = Must(FaultPlan::Parse(w.fault_plan), "fault plan");
    }
    built = NewRuntime(*p);
    build.Stop();
  }
  t->total_s = all.Stop();
  return p;
}

// ---------------------------------------------------------------------------
// Reference and per-window checking

/// Sink rows grouped by window (column 0 of every sink is its window), each
/// group sorted so that equal multisets compare element-wise.
using WindowRows = std::map<uint64_t, std::vector<const Tuple*>>;

WindowRows GroupByWindow(const TupleBatch& rows) {
  WindowRows out;
  for (const Tuple& t : rows) out[t.at(0).AsUint64()].push_back(&t);
  for (auto& [w, v] : out) {
    std::sort(v.begin(), v.end(),
              [](const Tuple* a, const Tuple* b) { return *a < *b; });
  }
  return out;
}

bool SameRows(const std::vector<const Tuple*>& a,
              const std::vector<const Tuple*>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Tuple* x, const Tuple* y) { return *x == *y; });
}

struct Reference {
  std::map<std::string, TupleBatch> outputs;  // owns the rows
  std::map<std::string, WindowRows> by_window;  // per query
};

/// One source window: its time value and the push carrying its first tuple.
struct Window {
  uint64_t epoch;
  size_t first_push;
};

std::vector<Window> TraceWindows(const Prepared& p) {
  SchemaPtr schema = Must(p.graph->GetStreamSchema(kSource), "schema");
  size_t time_idx = Must(schema->RequireFieldIndex("time"), "time column");
  std::vector<Window> windows;
  for (size_t i = 0; i < p.trace.size(); ++i) {
    uint64_t e = p.trace[i].at(time_idx).AsUint64();
    if (windows.empty() || windows.back().epoch != e) {
      windows.push_back({e, i / kDefaultSourceBatch});
    }
  }
  return windows;
}

// ---------------------------------------------------------------------------
// One repetition

struct RepOutcome {
  double replay_s = 0, build_s = 0, finish_s = 0, ledger_s = 0;
  std::vector<double> close_ms;       // one per window closed mid-stream
  std::vector<double> quiet_push_us;  // pushes that close no window
  uint64_t epochs = 0, failed_epochs = 0;
  RunLedger ledger;
  std::string jsonl;
  std::vector<HostMetrics> hosts;
};

/// Windows whose sink rows differ from the reference, as multisets.
std::set<uint64_t> FailedWindows(
    const std::vector<std::pair<std::string, const TupleBatch*>>& sinks,
    const Reference& ref) {
  static const std::vector<const Tuple*> kNoRows;
  auto rows_of = [](const WindowRows& m, uint64_t e) -> const auto& {
    auto it = m.find(e);
    return it == m.end() ? kNoRows : it->second;
  };
  std::set<uint64_t> failed;
  for (const auto& [name, batch] : sinks) {
    auto it = ref.by_window.find(name);
    if (it == ref.by_window.end()) Die("no reference output for " + name);
    const WindowRows& want = it->second;
    const WindowRows got = GroupByWindow(*batch);
    for (const WindowRows* m : {&got, &want}) {
      for (const auto& [e, rows] : *m) {
        if (!SameRows(rows_of(got, e), rows_of(want, e))) failed.insert(e);
      }
    }
  }
  return failed;
}

/// Replays the whole trace through a fresh runtime. The replay interval runs
/// from the first PushSourceBatch until the RunLedger is in hand; between
/// pushes it only reads the sinks' sizes. Close attribution and the check
/// against \p ref (skipped when null) run afterwards.
RepOutcome ReplayOnce(const Prepared& p, const Reference* ref,
                      const std::vector<Window>& windows, SpanLog* log) {
  RepOutcome out;
  Timed rep(log, "bench.rep");
  std::unique_ptr<ClusterRuntime> rt;
  {
    Timed build(log, "dist.build");
    rt = NewRuntime(p);
    out.build_s = build.Stop();
  }
  // Sink batches exist from Build on and are appended to live.
  std::vector<std::pair<std::string, const TupleBatch*>> sinks;
  for (const auto& [name, batch] : rt->result().outputs) {
    sinks.emplace_back(name, &batch);
  }
  const size_t n = p.trace.size();
  const size_t pushes = (n + kDefaultSourceBatch - 1) / kDefaultSourceBatch;
  std::vector<int64_t> push_start(pushes), push_end(pushes);
  std::vector<size_t> sizes(pushes * sinks.size());
  TupleSpan all(p.trace);

  Timed replay(log, "bench.replay");
  for (size_t i = 0; i < pushes; ++i) {
    size_t off = i * kDefaultSourceBatch;
    push_start[i] = NowNs();
    rt->PushSourceBatch(
        kSource, all.subspan(off, std::min(kDefaultSourceBatch, n - off)));
    push_end[i] = NowNs();
    for (size_t k = 0; k < sinks.size(); ++k) {
      sizes[i * sinks.size() + k] = sinks[k].second->size();
    }
  }
  {
    Timed finish(log, "dist.finish");
    rt->FinishSources();
    out.finish_s = finish.Stop();
  }
  {
    Timed ledger(log, "metrics.ledger");
    out.ledger =
        rt->MakeLedger(CpuCostParams(), p.trace_config.duration_sec);
    out.ledger_s = ledger.Stop();
  }
  const int replay_id = replay.id();
  out.replay_s = replay.Stop();
  for (size_t i = 0, w = 0; i < pushes; ++i) {
    while (w + 1 < windows.size() && windows[w + 1].first_push <= i) ++w;
    log->Add("dist.push", push_start[i], push_end[i], replay_id,
             static_cast<int64_t>(windows[w].epoch));
  }

  Timed check(log, "bench.check");
  // The push after which each window's last row was present. Rows past the
  // last push's sizes arrived in FinishSources: an end-of-stream close.
  std::map<uint64_t, size_t> done_push;
  std::set<uint64_t> at_finish;
  for (size_t k = 0; k < sinks.size(); ++k) {
    const TupleBatch& rows = *sinks[k].second;
    size_t from = 0;
    for (size_t i = 0; i < pushes; ++i) {
      size_t to = sizes[i * sinks.size() + k];
      for (size_t r = from; r < to; ++r) {
        size_t& done = done_push[rows[r].at(0).AsUint64()];
        done = std::max(done, i);
      }
      from = to;
    }
    for (size_t r = from; r < rows.size(); ++r) {
      at_finish.insert(rows[r].at(0).AsUint64());
    }
  }
  std::vector<char> closing(pushes, 0);
  for (size_t i = 0; i + 1 < windows.size(); ++i) {
    uint64_t e = windows[i].epoch;
    if (at_finish.count(e) != 0) continue;
    size_t open = windows[i + 1].first_push;
    size_t done = open;
    auto it = done_push.find(e);
    if (it != done_push.end()) done = std::max(done, it->second);
    out.close_ms.push_back(
        static_cast<double>(push_end[done] - push_start[open]) * 1e-6);
    closing[open] = closing[done] = 1;
  }
  for (size_t i = 0; i < pushes; ++i) {
    if (!closing[i]) {
      out.quiet_push_us.push_back(
          static_cast<double>(push_end[i] - push_start[i]) * 1e-3);
    }
  }
  if (ref != nullptr) {
    std::set<uint64_t> epochs = FailedWindows(sinks, *ref);
    out.failed_epochs = epochs.size();
    for (const Window& win : windows) epochs.insert(win.epoch);
    out.epochs = epochs.size();
  }
  out.jsonl = out.ledger.ToJsonl();
  out.hosts = rt->result().hosts;
  check.Stop();
  rep.Stop();
  return out;
}

/// The run ledger of the figure trace (kFigureSeed), replayed once untimed,
/// for the paper anchors.
RunLedger FigureLedger(const Workload& w) {
  SpanLog off;
  SetupTimes unused;
  std::unique_ptr<Prepared> p = Setup(w, kFigureSeed, &off, &unused);
  return ReplayOnce(*p, nullptr, TraceWindows(*p), &off).ledger;
}

// ---------------------------------------------------------------------------
// Component replays of the traced run

/// Median over kComponentPasses of \p pass's wall time, in ns per tuple.
template <typename F>
double NsPerTuple(SpanLog* log, const char* name, size_t tuples, F pass) {
  std::vector<double> ns;
  for (int i = 0; i < kComponentPasses; ++i) {
    Timed t(log, name);
    pass();
    ns.push_back(t.Stop() * 1e9 / static_cast<double>(tuples));
  }
  return Median(ns);
}

struct Components {
  double route_ns = 0, rt_batch_ns = 0, rt_tuple_ns = 0, engine_ns = 0;
  uint64_t wire_bytes = 0;
};

/// Replays the trace through single layers: the partitioner, the serde round
/// trips and the centralized engine.
Components ReplayComponents(const Prepared& p, SpanLog* log) {
  Components c;
  const TupleBatch& trace = p.trace;
  const size_t n = trace.size();
  TupleSpan all(trace);
  SchemaPtr schema = Must(p.graph->GetStreamSchema(kSource), "schema");
  c.route_ns = NsPerTuple(log, "dist.route", n, [&] {
    auto part = Must(MakePartitioner(p.ps, schema, kHosts * kPartitionsPerHost),
                     "MakePartitioner");
    uint64_t sum = 0;
    for (const Tuple& t : trace) sum += part->PartitionOf(t);
    g_sink = sum;
  });
  c.rt_batch_ns = NsPerTuple(log, "types.roundtrip_batch", n, [&] {
    c.wire_bytes = 0;
    for (size_t off = 0; off < n; off += kDefaultSourceBatch) {
      size_t bytes = 0;
      TupleBatch back = Must(
          RoundTripBatch(
              all.subspan(off, std::min(kDefaultSourceBatch, n - off)),
              &bytes),
          "RoundTripBatch");
      c.wire_bytes += bytes;
    }
  });
  c.rt_tuple_ns = NsPerTuple(log, "types.roundtrip_tuple", n, [&] {
    uint64_t sum = 0;
    for (const Tuple& t : trace) {
      sum += Must(RoundTripTuple(t), "RoundTripTuple").size();
    }
    g_sink = sum;
  });
  c.engine_ns = NsPerTuple(log, "exec.engine", n, [&] {
    LocalEngine engine(p.graph.get());
    Must(engine.Build(), "LocalEngine::Build");
    for (size_t off = 0; off < n; off += kDefaultSourceBatch) {
      engine.PushSourceBatch(
          kSource, all.subspan(off, std::min(kDefaultSourceBatch, n - off)));
    }
    engine.FinishSources();
  });
  return c;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = kFigureSeed;
  double seconds = 50;
  bool trace = false;
  std::string spans_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Die("--seed must be an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    Die("--workload must be one of:" + names);
  }
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

/// Prints one named check; returns \p ok.
bool Check(bool ok, const std::string& what) {
  std::printf("check %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  return ok;
}

std::string Fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

int Run(const Args& args) {
  const Workload& w = *FindWorkload(args.workload);
  SpanLog log;
  log.set_enabled(args.trace);
  std::printf("workload %s  seed %llu  %s run  %d hosts x %d partitions\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced", kHosts, kPartitionsPerHost);

  // Set-up, several times; the last one is kept for the replays. Each starts
  // from a trimmed heap, so each pays the page faults a fresh process pays.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Prepared> p;
  for (int i = 0; i < kSetupSamples; ++i) {
    p.reset();
    malloc_trim(0);
    setups.emplace_back();
    p = Setup(w, args.seed, &log, &setups.back());
  }
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  const size_t n = p->trace.size();

  bool correct = true;
  if (!w.expected_set.empty()) {
    PartitionSet want = Must(PartitionSet::Parse(w.expected_set), "set");
    correct &= Check(p->ps.Equals(want), "advisor picks " + want.ToString() +
                                             " (got " + p->ps.ToString() +
                                             ")");
  }

  Reference ref;
  {
    Timed t(&log, "bench.reference");
    ref.outputs = Must(RunCentralized(*p->graph, kSource, p->trace),
                       "RunCentralized");
    for (const auto& [name, rows] : ref.outputs) {
      ref.by_window[name] = GroupByWindow(rows);
    }
    t.Stop();
  }
  const std::vector<Window> windows = TraceWindows(*p);

  // Warm-up repetition: untimed, but checked; every later repetition must
  // reproduce its ledger byte for byte.
  RepOutcome first = ReplayOnce(*p, &ref, windows, &log);
  uint64_t epochs = first.epochs, failed_epochs = first.failed_epochs;

  // Timed repetitions. The traced run alternates span recording on and off
  // to measure the tracing overhead.
  std::vector<RepOutcome> reps;
  std::vector<double> traced_s, untraced_s;
  size_t closes = 0;
  bool ledgers_identical = true;
  const int64_t t0 = NowNs();
  while (static_cast<double>(NowNs() - t0) * 1e-9 < args.seconds ||
         closes < kMinCloses) {
    bool span_this = args.trace && reps.size() % 2 == 0;
    log.set_enabled(span_this);
    RepOutcome r = ReplayOnce(*p, &ref, windows, &log);
    log.set_enabled(args.trace);
    (span_this ? traced_s : untraced_s).push_back(r.replay_s);
    epochs += r.epochs;
    failed_epochs += r.failed_epochs;
    closes += r.close_ms.size();
    ledgers_identical &= r.jsonl == first.jsonl;
    r.jsonl.clear();
    reps.push_back(std::move(r));
  }
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> replay_s, close_ms, quiet_us, build_ms, finish_ms,
      ledger_ms;
  for (const RepOutcome& r : reps) {
    replay_s.push_back(r.replay_s);
    close_ms.insert(close_ms.end(), r.close_ms.begin(), r.close_ms.end());
    quiet_us.insert(quiet_us.end(), r.quiet_push_us.begin(),
                    r.quiet_push_us.end());
    build_ms.push_back(r.build_s * 1e3);
    finish_ms.push_back(r.finish_s * 1e3);
    ledger_ms.push_back(r.ledger_s * 1e3);
  }
  const RunLedger& ledger = reps.back().ledger;
  const LedgerHostRow& agg = ledger.hosts()[0];
  const RecoverySection& rec = ledger.recovery();
  const double replay_median_s = Median(replay_s);
  std::printf("trace %zu tuples, %zu windows; %zu timed repetitions, "
              "%zu closes\n",
              n, windows.size(), reps.size(), close_ms.size());
  std::printf("replay_s per repetition: min %.4f  p25 %.4f  median %.4f  "
              "p75 %.4f  max %.4f\n",
              Quantile(replay_s, 0), Quantile(replay_s, 0.25),
              replay_median_s, Quantile(replay_s, 0.75),
              Quantile(replay_s, 1));
  std::printf("setup_s per set-up:");
  for (const SetupTimes& s : setups) std::printf(" %.4f", s.total_s);
  std::printf("\nrun ledger at this seed: agg_cpu_pct %.4f %%, agg_net_tps "
              "%.4f tuples/s\n",
              agg.cpu_load_pct, agg.net_tuples_in_per_sec);

  correct &= Check(failed_epochs == 0,
                   "every window's output multiset equals the reference");
  correct &= Check(ledgers_identical,
                   "RunLedger::ToJsonl identical across repetitions");
  correct &= Check(close_ms.size() >= kMinCloses,
                   "at least " + std::to_string(kMinCloses) + " closes");
  if (p->faults.armed()) {
    correct &= Check(rec.active && rec.reliable_sent == rec.reliable_applied,
                     "recovery books close (reliable_sent == applied)");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"replay_tps", static_cast<double>(n) / replay_median_s, "tuples/s"},
        {"close_p50_ms", Quantile(close_ms, 0.5), "ms"},
        {"close_p90_ms", Quantile(close_ms, 0.9), "ms"},
        {"setup_s", setup_median(&SetupTimes::total_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    Components comp = ReplayComponents(*p, &log);
    // Replay time over that of the same plan with every controller unarmed
    // (ROADMAP item 5's armed-but-idle ratio), from alternating pairs so
    // that both sides see the same machine. Both sides are checked like any
    // other repetition.
    double controller_x = 1;
    if (p->faults.armed()) {
      const FaultPlan armed = p->faults;
      std::vector<double> armed_s, unarmed_s;
      uint64_t twin_failed = 0;
      for (int i = 0; i < 2 * kTwinPairs; ++i) {
        p->faults = i % 2 == 0 ? armed : FaultPlan();
        RepOutcome r = ReplayOnce(*p, &ref, windows, &log);
        (i % 2 == 0 ? armed_s : unarmed_s).push_back(r.replay_s);
        epochs += r.epochs;
        twin_failed += r.failed_epochs;
      }
      p->faults = armed;
      failed_epochs += twin_failed;
      correct &= Check(twin_failed == 0,
                       "unarmed twin's outputs equal the reference too");
      controller_x = Median(armed_s) / Median(unarmed_s);
    }
    // Round-robin workloads skip the advisor in set-up; its cost on their
    // trace is measured here instead.
    SetupTimes advisor = setups.back();
    if (w.expected_set.empty()) Advise(*p, &log, &advisor);

    OpStats ops;
    uint64_t net_tuples = 0, net_bytes = 0, max_src = 0, sum_src = 0;
    for (const HostMetrics& h : reps.back().hosts) {
      ops += h.ops;
      ops += h.merge_ops;
      net_tuples += h.net_tuples_in;
      net_bytes += h.net_bytes_in;
      max_src = std::max(max_src, h.source_tuples);
      sum_src += h.source_tuples;
    }
    const double skip_den =
        static_cast<double>(rec.ops_serialized + rec.ops_skipped);
    const double overhead_pct =
        100.0 * (Median(traced_s) / Median(untraced_s) - 1);

    std::printf("\nself time by layer (traced spans, all phases):\n");
    auto layers = log.SelfTimeByLayer();
    double all_ns = 0;
    for (const auto& [layer, cs] : layers) all_ns += cs.second;
    for (const auto& [layer, cs] : layers) {
      std::printf("  %-10s %8zu spans %12.3f ms self %6.2f%%\n",
                  layer.c_str(), cs.first, cs.second * 1e-6,
                  100.0 * cs.second / all_ns);
    }
    std::printf("tracing overhead: median replay %.6f s traced vs %.6f s "
                "untraced, %+.2f%%\n",
                Median(traced_s), Median(untraced_s), overhead_pct);
    if (!args.spans_out.empty() && !log.WriteJsonl(args.spans_out)) {
      Die("cannot write " + args.spans_out);
    }

    metrics = {
        {"trace.gen_ms", setup_median(&SetupTimes::gen_s) * 1e3, "ms"},
        {"trace.tuples", static_cast<double>(n), "count"},
        {"trace.rss_mb", setup_median(&SetupTimes::rss_after_gen_mb), "MB"},
        {"plan.compile_ms", setup_median(&SetupTimes::compile_s) * 1e3, "ms"},
        {"partition.calibrate_ms",
         (w.expected_set.empty() ? advisor.calibrate_s
                                 : setup_median(&SetupTimes::calibrate_s)) *
             1e3,
         "ms"},
        {"partition.search_ms",
         (w.expected_set.empty() ? advisor.search_s
                                 : setup_median(&SetupTimes::search_s)) *
             1e3,
         "ms"},
        {"partition.candidates", static_cast<double>(advisor.candidates),
         "count"},
        {"optimizer.plan_ms", setup_median(&SetupTimes::optimize_s) * 1e3,
         "ms"},
        {"optimizer.plan_ops",
         static_cast<double>(p->plan->TopoOrder().size()), "count"},
        {"dist.build_ms", Median(build_ms), "ms"},
        {"dist.push_p50_us", Quantile(quiet_us, 0.5), "us"},
        {"dist.push_p99_us", Quantile(quiet_us, 0.99), "us"},
        {"dist.finish_ms", Median(finish_ms), "ms"},
        {"dist.route_ns", comp.route_ns, "ns"},
        {"dist.net_tuples", static_cast<double>(net_tuples), "count"},
        {"dist.net_bytes", static_cast<double>(net_bytes), "B"},
        {"dist.host_skew",
         static_cast<double>(max_src) * kHosts / static_cast<double>(sum_src),
         "x"},
        {"dist.overhead_x",
         replay_median_s * 1e9 / static_cast<double>(n) / comp.engine_ns,
         "x"},
        {"dist.controller_x", controller_x, "x"},
        {"dist.reliable_sent", static_cast<double>(rec.reliable_sent),
         "count"},
        {"dist.ckpt_bytes", static_cast<double>(rec.checkpoint_bytes), "B"},
        {"dist.ckpt_ops", static_cast<double>(rec.ops_serialized), "count"},
        {"dist.ckpt_skip_ratio",
         skip_den == 0 ? 0 : static_cast<double>(rec.ops_skipped) / skip_den,
         "ratio"},
        {"dist.retx_sent", static_cast<double>(rec.retx_sent), "count"},
        {"types.rt_batch_ns", comp.rt_batch_ns, "ns"},
        {"types.rt_tuple_ns", comp.rt_tuple_ns, "ns"},
        {"types.wire_bytes", static_cast<double>(comp.wire_bytes), "B"},
        {"exec.engine_ns", comp.engine_ns, "ns"},
        {"exec.tuples_in", static_cast<double>(ops.tuples_in), "count"},
        {"exec.group_probes", static_cast<double>(ops.group_probes), "count"},
        {"exec.group_inserts", static_cast<double>(ops.group_inserts),
         "count"},
        {"exec.predicate_evals", static_cast<double>(ops.predicate_evals),
         "count"},
        {"exec.output_tuples", static_cast<double>(ops.tuples_out), "count"},
        {"metrics.ledger_ms", Median(ledger_ms), "ms"},
        {"metrics.agg_cpu_pct", agg.cpu_load_pct, "%"},
        {"metrics.agg_net_tps", agg.net_tuples_in_per_sec, "tuples/s"},
        {"bench.trace_overhead_pct", overhead_pct, "%"},
    };
  }

  // Paper anchors, on the figure trace whatever the seed.
  const bool at_figure_seed = args.seed == kFigureSeed;
  p.reset();
  const RunLedger figure = at_figure_seed ? first.ledger : FigureLedger(w);
  const LedgerHostRow& fig = figure.hosts()[0];
  if (w.anchor_cpu_pct > 0) {
    std::string want = Fixed(w.anchor_cpu_pct, 1);
    std::string got = Fixed(fig.cpu_load_pct, 1);
    correct &= Check(got == want, "paper anchor agg_cpu_pct " + want +
                                      " % (got " + got + ")");
  }
  std::string want = Fixed(w.anchor_net_tps, 0);
  std::string got = Fixed(fig.net_tuples_in_per_sec, 0);
  correct &= Check(got == want, "paper anchor agg_net_tps " + want +
                                    " tuples/s (got " + got + ")");

  std::printf("epochs %llu  failed_epochs %llu\n",
              static_cast<unsigned long long>(epochs),
              static_cast<unsigned long long>(failed_epochs));
  PrintResult(correct, epochs, failed_epochs, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
