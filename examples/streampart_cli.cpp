/// \file streampart_cli.cpp
/// \brief Command-line front end: load a workload file, print the analysis,
/// the distributed plan, and optionally run it over a synthetic trace.
///
/// Workload file format (';'-terminated statements, '--' comments):
///
///   CREATE STREAM PKT (time increasing, srcIP ip, destIP ip, len);
///   QUERY flows AS SELECT tb, srcIP, COUNT(*) as c FROM PKT
///                  GROUP BY time/60 as tb, srcIP;
///
/// Usage:
///   streampart_cli <workload-file> [--hosts N] [--ps "srcIP, destIP"]
///                  [--run SECONDS] [--exec-mode MODE]
///                  [--tcp-splitter]
///                  [--stats[=PATH]] [--trace-events[=PATH]]
///                  [--fault-plan FILE] [--recover]
///                  [--checkpoint-interval N] [--epoch-width N]
///                  [--sketch-eps E] [--sketch-confidence P] [--no-sketch]
///
/// Without --ps the advisor picks the partitioning; --tcp-splitter restricts
/// it to what TCP-header splitter hardware can realize. --run replays a
/// synthetic trace through the simulated cluster and reports per-host load
/// (only meaningful for workloads over the built-in TCP/PKT schema).
/// --stats prints the run's summary ledger JSON after a --run, or writes
/// the full JSONL run ledger to PATH; --trace-events additionally records
/// per-window trace events (docs/METRICS.md describes both formats).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "dist/experiment.h"
#include "metrics/report.h"
#include "parser/stream_def.h"
#include "partition/advisor.h"
#include "plan/printer.h"

using namespace streampart;

namespace {

/// Splits file text into ';'-terminated statements, dropping '--' comments.
std::vector<std::string> SplitStatements(const std::string& text) {
  std::string cleaned;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    size_t comment = line.find("--");
    if (comment != std::string::npos) line = line.substr(0, comment);
    cleaned += line + "\n";
  }
  std::vector<std::string> out;
  for (const std::string& stmt : Split(cleaned, ';')) {
    std::string trimmed(StripWhitespace(stmt));
    if (!trimmed.empty()) out.push_back(trimmed);
  }
  return out;
}

/// "QUERY name AS SELECT ..." -> (name, select text). Returns false if the
/// statement is not a QUERY.
bool ParseQueryStatement(const std::string& stmt, std::string* name,
                         std::string* body) {
  std::istringstream in(stmt);
  std::string kw, n, as;
  in >> kw >> n >> as;
  if (!EqualsIgnoreCase(kw, "QUERY") || !EqualsIgnoreCase(as, "AS")) {
    return false;
  }
  *name = n;
  std::getline(in, *body, '\0');
  return true;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

/// Strict positive-integer flag value: rejects empty strings, trailing
/// garbage, signs, and zero.
bool ParsePositiveInt(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-' || *text == '+') {
    return false;
  }
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || v == 0) return false;
  *out = v;
  return true;
}

/// Strict open-unit-interval flag value: a double in (0, 1), no trailing
/// garbage (the domain of both sketch error budgets and confidences).
bool ParseUnitFraction(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0) || !(v < 1)) return false;
  *out = v;
  return true;
}

void PrintUsage(FILE* out, const char* prog) {
  std::fprintf(
      out,
      "usage: %s <workload-file> [flags]\n"
      "\n"
      "Loads a ';'-terminated workload file (CREATE STREAM / QUERY "
      "statements),\n"
      "prints the query DAG, the partitioning advice, and the distributed "
      "plan.\n"
      "\n"
      "planning flags:\n"
      "  --hosts N             cluster size (default 4)\n"
      "  --ps SPEC             force a partitioning set, e.g. \"srcIP, "
      "destIP\"\n"
      "                        (default: the advisor's recommendation)\n"
      "  --tcp-splitter        restrict advice to TCP-header splitter "
      "hardware\n"
      "\n"
      "simulated-run flags (all require --run):\n"
      "  --run SECONDS         replay a synthetic trace through the "
      "simulated\n"
      "                        cluster and report per-host load (built-in\n"
      "                        TCP/PKT schema only)\n"
      "  --exec-mode MODE      delivery path of the batched route: tuple, "
      "batch\n"
      "                        (default), or columnar "
      "(docs/ARCHITECTURE.md);\n"
      "                        outputs and the run ledger are byte-identical\n"
      "                        across all three modes\n"
      "  --stats[=PATH]        print the summary ledger JSON, or write the "
      "full\n"
      "                        JSONL run ledger to PATH\n"
      "  --trace-events[=PATH] like --stats, additionally recording "
      "per-window\n"
      "                        trace events in the JSONL ledger\n"
      "\n"
      "fault injection and overload control (docs/FAULTS.md):\n"
      "  --fault-plan FILE     inject the fault scenario described by FILE:\n"
      "                        membership lifecycle (`partition "
      "groups=0,1|2,3\n"
      "                        at=E`, `heal at=E`, `rejoin host=H at=E`),\n"
      "                        host kills (`kill host=H epoch=E`), lossy/\n"
      "                        reordering channels (`channel ... drop= dup=\n"
      "                        reorder= queue=`), per-host cycle budgets\n"
      "                        (`budget host=* cycles=...`), and load "
      "shedding\n"
      "                        (`shed m=...`); the run reports degradation "
      "and\n"
      "                        overload accounting; adaptive placement\n"
      "                        (`adapt warmup= hysteresis= cooldown= ...`)\n"
      "                        re-plans operator placement under workload\n"
      "                        drift (docs/ADAPTIVE.md)\n"
      "\n"
      "lossless recovery (docs/FAULTS.md, \"Lossless recovery\"):\n"
      "  --recover             enable epoch-aligned checkpoints, acked\n"
      "                        retransmission, and state migration on kills\n"
      "  --checkpoint-interval N\n"
      "                        checkpoint every N epochs (implies --recover;\n"
      "                        overrides the fault plan's `ckpt` directive)\n"
      "  --epoch-width N       timestamp stride per epoch (overrides the "
      "fault\n"
      "                        plan's `epoch_width` directive)\n"
      "\n"
      "approximate answers (docs/SKETCHES.md):\n"
      "  --sketch-eps E        session-wide relative error budget in (0,1):\n"
      "                        lets the optimizer degrade ANY incompatible\n"
      "                        COUNT/SUM aggregate to per-host sketch\n"
      "                        summaries; without it only queries carrying\n"
      "                        their own APPROX clause are eligible\n"
      "  --sketch-confidence P bound confidence in (0,1) for queries whose\n"
      "                        APPROX clause omits CONFIDENCE (default "
      "0.99)\n"
      "  --no-sketch           disable the sketch leg entirely; incompatible\n"
      "                        aggregates fall back to partial aggregation\n"
      "                        or raw-tuple shipping\n"
      "\n"
      "  --help, -h            show this help and exit\n"
      "\n"
      "The ledger formats are documented in docs/METRICS.md.\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout, argv[0]);
      return 0;
    }
  }
  if (argc < 2) {
    PrintUsage(stderr, argv[0]);
    return 2;
  }
  std::string path = argv[1];
  int hosts = 4;
  std::string ps_spec;
  int run_seconds = 0;
  bool tcp_splitter = false;
  bool stats = false;
  bool trace_events = false;
  std::string stats_path;
  std::string fault_plan_path;
  bool recover = false;
  uint64_t checkpoint_interval = 0;
  uint64_t epoch_width = 0;
  ExecMode exec_mode = ExecMode::kBatch;
  double sketch_eps = 0;
  double sketch_confidence = 0;
  bool no_sketch = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hosts") == 0 && i + 1 < argc) {
      hosts = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--exec-mode") == 0 ||
               std::strncmp(argv[i], "--exec-mode=", 12) == 0) {
      const char* value = argv[i][11] == '=' ? argv[i] + 12
                          : i + 1 < argc     ? argv[++i]
                                             : nullptr;
      if (value == nullptr || !ParseExecMode(value, &exec_mode)) {
        std::fprintf(stderr,
                     "--exec-mode expects tuple, batch, or columnar, got "
                     "'%s'\n",
                     value == nullptr ? "" : value);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--ps") == 0 && i + 1 < argc) {
      ps_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--run") == 0 && i + 1 < argc) {
      run_seconds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--tcp-splitter") == 0) {
      tcp_splitter = true;
    } else if (std::strncmp(argv[i], "--stats", 7) == 0 &&
               (argv[i][7] == '\0' || argv[i][7] == '=')) {
      stats = true;
      if (argv[i][7] == '=') stats_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--trace-events", 14) == 0 &&
               (argv[i][14] == '\0' || argv[i][14] == '=')) {
      stats = true;
      trace_events = true;
      if (argv[i][14] == '=') stats_path = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--fault-plan") == 0 && i + 1 < argc) {
      fault_plan_path = argv[++i];
    } else if (std::strncmp(argv[i], "--fault-plan=", 13) == 0) {
      fault_plan_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      recover = true;
    } else if (std::strcmp(argv[i], "--checkpoint-interval") == 0 ||
               std::strncmp(argv[i], "--checkpoint-interval=", 22) == 0) {
      const char* value = argv[i][21] == '=' ? argv[i] + 22
                          : i + 1 < argc    ? argv[++i]
                                            : nullptr;
      if (!ParsePositiveInt(value, &checkpoint_interval)) {
        std::fprintf(stderr,
                     "--checkpoint-interval expects a positive integer "
                     "(epochs), got '%s'\n",
                     value == nullptr ? "" : value);
        return 2;
      }
      recover = true;
    } else if (std::strcmp(argv[i], "--epoch-width") == 0 ||
               std::strncmp(argv[i], "--epoch-width=", 14) == 0) {
      const char* value = argv[i][13] == '=' ? argv[i] + 14
                          : i + 1 < argc    ? argv[++i]
                                            : nullptr;
      if (!ParsePositiveInt(value, &epoch_width)) {
        std::fprintf(stderr,
                     "--epoch-width expects a positive integer (timestamp "
                     "units per epoch), got '%s'\n",
                     value == nullptr ? "" : value);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sketch-eps") == 0 ||
               std::strncmp(argv[i], "--sketch-eps=", 13) == 0) {
      const char* value = argv[i][12] == '=' ? argv[i] + 13
                          : i + 1 < argc    ? argv[++i]
                                            : nullptr;
      if (!ParseUnitFraction(value, &sketch_eps)) {
        std::fprintf(stderr,
                     "--sketch-eps expects a relative error in (0,1), "
                     "got '%s'\n",
                     value == nullptr ? "" : value);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sketch-confidence") == 0 ||
               std::strncmp(argv[i], "--sketch-confidence=", 20) == 0) {
      const char* value = argv[i][19] == '=' ? argv[i] + 20
                          : i + 1 < argc    ? argv[++i]
                                            : nullptr;
      if (!ParseUnitFraction(value, &sketch_confidence)) {
        std::fprintf(stderr,
                     "--sketch-confidence expects a probability in (0,1), "
                     "got '%s'\n",
                     value == nullptr ? "" : value);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-sketch") == 0) {
      no_sketch = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  // Fail fast on a bad --fault-plan: a missing, unreadable, or unparseable
  // plan file is a usage error, diagnosed (file name + reason) before any
  // workload parsing or planning runs — and even when --run is absent, so a
  // dry planning invocation still validates the scenario it names.
  FaultPlan fault_plan;
  if (!fault_plan_path.empty()) {
    auto loaded = FaultPlan::Load(fault_plan_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: --fault-plan %s: %s\n",
                   fault_plan_path.c_str(),
                   loaded.status().ToString().c_str());
      return 2;
    }
    fault_plan = std::move(*loaded);
  }

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  // Build the catalog + graph from the workload file. The default packet
  // streams (TCP/PKT) are always available.
  Catalog catalog = MakeDefaultCatalog();
  std::vector<std::pair<std::string, std::string>> queries;
  for (const std::string& stmt : SplitStatements(buffer.str())) {
    std::string name, body;
    if (ParseQueryStatement(stmt, &name, &body)) {
      queries.emplace_back(name, body);
      continue;
    }
    auto def = ParseStreamDef(stmt);
    if (!def.ok()) {
      return Fail(def.status().WithContext("in statement '" + stmt + "'"));
    }
    Status st = catalog.RegisterStream(def->name, def->schema);
    if (!st.ok() && !st.IsAlreadyExists()) return Fail(st);
  }
  QueryGraph graph(&catalog);
  for (const auto& [name, body] : queries) {
    Status st = graph.AddQuery(name, body);
    if (!st.ok()) return Fail(st);
  }
  if (graph.num_queries() == 0) {
    std::fprintf(stderr, "workload contains no queries\n");
    return 2;
  }

  std::printf("Query DAG:\n%s\n", PrintQueryDag(graph).c_str());

  // Advice.
  AdvisorOptions aopts;
  if (tcp_splitter) aopts.hardware = HardwareCapability::TcpHeaderSplitter();
  auto advice = AdviseWorkload(graph, aopts);
  if (!advice.ok()) return Fail(advice.status());
  std::printf("%s\n", advice->ToString().c_str());

  // Chosen partitioning.
  PartitionSet ps = advice->recommended;
  if (!ps_spec.empty()) {
    auto parsed = PartitionSet::Parse(ps_spec);
    if (!parsed.ok()) return Fail(parsed.status());
    ps = *parsed;
    std::printf("Using operator-specified partitioning %s\n\n",
                ps.ToString().c_str());
  }

  // Distributed plan.
  ClusterConfig cluster;
  cluster.num_hosts = hosts;
  OptimizerOptions oopts;
  oopts.enable_sketch = !no_sketch;
  oopts.sketch_eps = sketch_eps;
  if (sketch_confidence > 0) oopts.sketch_confidence = sketch_confidence;
  auto plan = OptimizeForPartitioning(graph, cluster, ps, oopts);
  if (!plan.ok()) return Fail(plan.status());
  std::printf("Distributed plan (%d hosts x %d partitions):\n%s\n", hosts,
              cluster.partitions_per_host, plan->ToString().c_str());

  // Optional simulated run (built-in packet schema only).
  if (run_seconds > 0) {
    TraceConfig tc;
    tc.duration_sec = static_cast<uint32_t>(run_seconds);
    tc.packets_per_sec = 10000;
    PacketTraceGenerator gen(tc);
    ClusterRuntime runtime(&graph, &*plan, cluster);
    runtime.set_exec_mode(exec_mode);
    if (trace_events) runtime.set_trace_events_enabled(true);
    if (!fault_plan_path.empty()) {
      // Loaded and validated up front, right after flag parsing.
      std::printf("Fault plan (%s):\n%s\n", fault_plan_path.c_str(),
                  fault_plan.ToString().c_str());
    }
    // CLI recovery flags override the plan's directives; --recover alone
    // enables recovery at the default interval.
    if (recover && checkpoint_interval == 0 &&
        fault_plan.checkpoint_interval == 0) {
      checkpoint_interval = RecoveryConfig().checkpoint_interval;
    }
    if (checkpoint_interval > 0) {
      fault_plan.checkpoint_interval = checkpoint_interval;
    }
    if (epoch_width > 0) fault_plan.epoch_width = epoch_width;
    if (fault_plan.armed()) {
      runtime.set_fault_plan(std::move(fault_plan));
    }
    Status st = runtime.Build(ps);
    if (!st.ok()) return Fail(st);
    // The batched route degenerates per the selected exec mode (and to
    // per-tuple delivery while any controller is armed); all accounted
    // metrics are identical across modes.
    Tuple t;
    TupleBatch pending;
    pending.reserve(kDefaultSourceBatch);
    while (gen.Next(&t)) {
      pending.push_back(t);
      if (pending.size() >= kDefaultSourceBatch) {
        runtime.PushSourceBatch("TCP", pending);
        runtime.PushSourceBatch("PKT", pending);
        pending.clear();
      }
    }
    if (!pending.empty()) {
      runtime.PushSourceBatch("TCP", pending);
      runtime.PushSourceBatch("PKT", pending);
    }
    runtime.FinishSources();
    CpuCostParams cpu;
    SeriesTable table("Simulated run (" + std::to_string(run_seconds) +
                          "s @ 10k pkts/s)",
                      {"Host", "CPU %", "net tuples in/s"});
    for (size_t h = 0; h < runtime.result().hosts.size(); ++h) {
      table.AddRow("host " + std::to_string(h),
                   {HostCpuLoadPercent(runtime.result().hosts[h], cpu,
                                       run_seconds),
                    HostNetworkTuplesPerSec(runtime.result().hosts[h],
                                            run_seconds)});
    }
    table.Print();
    std::printf("Output rows per sink:\n");
    for (const auto& [name, batch] : runtime.result().outputs) {
      std::printf("  %-20s %zu\n", name.c_str(), batch.size());
    }
    if (const FaultController* faults = runtime.fault_controller()) {
      FaultSection section = faults->section(cpu.cycles_per_remote_tuple);
      std::printf("\nFault accounting:\n");
      std::printf("  hosts killed:            %zu\n",
                  section.hosts_killed.size());
      std::printf("  source tuples lost:      %llu\n",
                  static_cast<unsigned long long>(section.source_tuples_lost));
      std::printf("  net tuples lost:         %llu\n",
                  static_cast<unsigned long long>(section.net_tuples_lost));
      std::printf("  flush tuples suppressed: %llu\n",
                  static_cast<unsigned long long>(
                      section.flush_tuples_suppressed));
      std::printf("  panes invalidated:       %llu\n",
                  static_cast<unsigned long long>(section.panes_invalidated));
      std::printf("  repartitions:            %llu (cost %.3g model cycles)\n",
                  static_cast<unsigned long long>(section.repartitions),
                  section.repartition_cost_cycles);
      for (const FaultChannelRow& ch : section.channels) {
        std::printf(
            "  channel %d->%d: sent %llu delivered %llu dropped %llu "
            "dup_extras %llu reordered %llu queue_dropped %llu "
            "retransmitted %llu\n",
            ch.from_host, ch.to_host,
            static_cast<unsigned long long>(ch.sent),
            static_cast<unsigned long long>(ch.delivered),
            static_cast<unsigned long long>(ch.dropped),
            static_cast<unsigned long long>(ch.dup_extras),
            static_cast<unsigned long long>(ch.reordered),
            static_cast<unsigned long long>(ch.queue_dropped),
            static_cast<unsigned long long>(ch.retransmitted));
      }
    }
    if (const OverloadController* overload = runtime.overload_controller()) {
      OverloadSection ov = overload->section();
      std::printf("\nOverload accounting (%s):\n",
                  ov.engaged ? "engaged" : "armed, never intervened");
      std::printf(
          "  intake:            %llu offered, %llu processed, %llu deferred\n",
          static_cast<unsigned long long>(ov.intake_offered),
          static_cast<unsigned long long>(ov.intake_processed),
          static_cast<unsigned long long>(ov.intake_deferred));
      std::printf(
          "  shed:              %llu tuples over %llu epochs (max m=%llu), "
          "%llu queue-dropped\n",
          static_cast<unsigned long long>(ov.shed_tuples),
          static_cast<unsigned long long>(ov.shed_epochs),
          static_cast<unsigned long long>(ov.max_shed_m),
          static_cast<unsigned long long>(ov.bp_queue_dropped));
      if (ov.shed_tuples > 0) {
        std::printf(
            "  error bound:       %.4g relative (3-sigma, COUNT-style; "
            "est. %.0f source tuples)\n",
            ov.shed_rel_error_bound, ov.estimated_source_tuples);
      }
      std::printf("  exact:             %s\n", ov.exact ? "yes" : "no");
      for (const std::string& reason : ov.inexact_reasons) {
        std::printf("    reason: %s\n", reason.c_str());
      }
      std::printf(
          "  skew moves:        %llu executed (%.3g state bytes), "
          "%llu advice-only\n",
          static_cast<unsigned long long>(ov.skew_repartitions),
          ov.skew_move_cost_bytes,
          static_cast<unsigned long long>(ov.skew_advice_only));
      for (const OverloadHostRow& h : ov.hosts) {
        std::printf(
            "  host %d: budget %.3g cycles/epoch (reserve %.2g), "
            "%llu deferrals, %llu queue-dropped, %llu over-budget epochs, "
            "peak %.3g cycles\n",
            h.host, h.budget_cycles, h.reserve,
            static_cast<unsigned long long>(h.guard_deferrals),
            static_cast<unsigned long long>(h.queue_dropped),
            static_cast<unsigned long long>(h.over_budget_epochs),
            h.max_epoch_cycles);
      }
    }
    if (const AdaptiveController* adaptive = runtime.adaptive_controller()) {
      AdaptiveSection ad = adaptive->section();
      std::printf("\nAdaptive placement (%s):\n",
                  ad.engaged ? "engaged" : "armed, never intervened");
      std::printf(
          "  epochs:            %llu observed, %llu drift events\n",
          static_cast<unsigned long long>(ad.epochs),
          static_cast<unsigned long long>(ad.drift_events));
      std::printf(
          "  moves:             %llu taken (%llu probes, %llu state bytes "
          "migrated), %llu suppressed, %llu rolled back\n",
          static_cast<unsigned long long>(ad.moves_taken),
          static_cast<unsigned long long>(ad.probes),
          static_cast<unsigned long long>(ad.moved_state_bytes),
          static_cast<unsigned long long>(ad.moves_suppressed),
          static_cast<unsigned long long>(ad.rollbacks));
      std::printf("  candidates:        %llu projected\n",
                  static_cast<unsigned long long>(ad.candidates_considered));
      for (const AdaptiveDecisionRow& d : ad.decisions) {
        std::printf(
            "  epoch %llu: %s stage %d host %d->%d (gain %.1f%%): %s\n",
            static_cast<unsigned long long>(d.epoch), d.action.c_str(),
            d.stage, d.from_host, d.to_host, d.gain_pct, d.reason.c_str());
      }
    }
    if (const RecoveryCoordinator* rec = runtime.recovery_coordinator()) {
      RecoverySection r = rec->section(cpu.cycles_per_checkpoint_byte);
      std::printf("\nRecovery accounting (interval %llu epochs, width %llu):\n",
                  static_cast<unsigned long long>(r.checkpoint_interval),
                  static_cast<unsigned long long>(r.epoch_width));
      std::printf(
          "  checkpoints:       %llu rounds, %llu bytes (%llu ops "
          "serialized, %llu skipped)\n",
          static_cast<unsigned long long>(r.checkpoints),
          static_cast<unsigned long long>(r.checkpoint_bytes),
          static_cast<unsigned long long>(r.ops_serialized),
          static_cast<unsigned long long>(r.ops_skipped));
      std::printf(
          "  migrations:        %llu ops (%llu restores, %llu bytes "
          "restored)\n",
          static_cast<unsigned long long>(r.ops_migrated),
          static_cast<unsigned long long>(r.restores),
          static_cast<unsigned long long>(r.restored_bytes));
      std::printf(
          "  replay:            %llu tuples replayed, %llu re-emissions "
          "suppressed\n",
          static_cast<unsigned long long>(r.replayed_tuples),
          static_cast<unsigned long long>(r.replay_suppressed));
      std::printf(
          "  retransmissions:   %llu sent, %llu duplicates discarded, "
          "%llu escalated\n",
          static_cast<unsigned long long>(r.retx_sent),
          static_cast<unsigned long long>(r.retx_dup_discarded),
          static_cast<unsigned long long>(r.retx_escalated));
      std::printf(
          "  reliable delivery: %llu sent, %llu applied, quiesced: %s\n",
          static_cast<unsigned long long>(r.reliable_sent),
          static_cast<unsigned long long>(r.reliable_applied),
          rec->Quiesced() ? "yes" : "no");
      std::printf("  checkpoint cost:   %.3g model cycles\n",
                  r.checkpoint_cost_cycles);
    }
    if (const FaultController* faults = runtime.fault_controller()) {
      MembershipSection ms =
          faults->membership_section(cpu.cycles_per_checkpoint_byte);
      if (ms.engaged) {
        std::printf("\nMembership accounting:\n");
        std::printf(
            "  events:            %llu partitions, %llu heals, %llu rejoins "
            "(%llu suppressed)\n",
            static_cast<unsigned long long>(ms.partitions),
            static_cast<unsigned long long>(ms.heals),
            static_cast<unsigned long long>(ms.rejoins),
            static_cast<unsigned long long>(ms.rejoins_suppressed));
        std::printf("  sends refused:     %llu\n",
                    static_cast<unsigned long long>(ms.sends_refused));
        std::printf("  state moved back:  %llu bytes (%.3g model cycles)\n",
                    static_cast<unsigned long long>(ms.moved_bytes),
                    ms.rejoin_cost_cycles);
        for (const MembershipEventRow& row : ms.events) {
          std::printf("  epoch %llu: %s",
                      static_cast<unsigned long long>(row.epoch),
                      row.kind.c_str());
          if (!row.hosts.empty()) {
            std::printf(" hosts");
            for (int h : row.hosts) std::printf(" %d", h);
          }
          if (row.refused > 0) {
            std::printf(", %llu sends refused",
                        static_cast<unsigned long long>(row.refused));
          }
          if (row.moved_bytes > 0) {
            std::printf(", %llu bytes restored",
                        static_cast<unsigned long long>(row.moved_bytes));
          }
          std::printf("\n");
        }
      }
    }
    if (SketchSection sk = runtime.MakeSketchSection(); sk.active) {
      std::printf("\nSketch accounting (eps %.4g, confidence %.4g, grid %llux"
                  "%llu):\n",
                  sk.eps, sk.confidence,
                  static_cast<unsigned long long>(sk.width),
                  static_cast<unsigned long long>(sk.depth));
      std::printf(
          "  merged:            %llu summaries, %llu bytes over %llu epochs\n",
          static_cast<unsigned long long>(sk.merged_summaries),
          static_cast<unsigned long long>(sk.merged_bytes),
          static_cast<unsigned long long>(sk.epochs));
      std::printf(
          "  estimates:         %llu (abs error bound %.4g = eps * heaviest "
          "epoch mass %llu)\n",
          static_cast<unsigned long long>(sk.estimates), sk.abs_error_bound,
          static_cast<unsigned long long>(sk.max_epoch_mass));
      std::printf("  exact:             %s\n", sk.exact ? "yes" : "no");
      for (const std::string& reason : sk.inexact_reasons) {
        std::printf("    reason: %s\n", reason.c_str());
      }
      for (const SketchHostRow& h : sk.hosts) {
        std::printf(
            "  host %d: %llu updates folded into %llu summaries "
            "(%llu bytes, %llu epochs)\n",
            h.host, static_cast<unsigned long long>(h.updates),
            static_cast<unsigned long long>(h.summaries),
            static_cast<unsigned long long>(h.summary_bytes),
            static_cast<unsigned long long>(h.epochs));
      }
    }
    if (stats) {
      RunLedgerOptions lopts;
      lopts.include_events = trace_events;
      RunLedger ledger = runtime.MakeLedger(cpu, run_seconds, lopts);
      ledger.SetMeta("workload", path);
      ledger.SetMeta("epoch_unix",
                     static_cast<uint64_t>(std::time(nullptr)));
      if (stats_path.empty()) {
        std::printf("\nRun ledger summary:\n%s", ledger.ToSummaryJson().c_str());
      } else {
        std::ofstream out(stats_path);
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", stats_path.c_str());
          return 1;
        }
        out << ledger.ToJsonl();
        std::printf("\nwrote run ledger to %s\n", stats_path.c_str());
      }
    }
  } else if (stats || recover || epoch_width > 0) {
    std::fprintf(stderr,
                 "--stats/--trace-events/--recover/--checkpoint-interval/"
                 "--epoch-width require --run\n");
    return 2;
  }
  return 0;
}
