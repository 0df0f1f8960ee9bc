// End-to-end Data Triage benchmark program (README.md in this directory).
//
//   triagebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--strategy <name>] [--corrupt <inflate|drop-window>]
//
// Replays a generated feed closed-loop through a StreamServer in rounds
// until --seconds have passed, checks round 1 against references worked
// out from the feed, and prints one JSON object as the last stdout line.
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics and writes a Chrome trace-event file of the spans.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/io/csv.h"
#include "src/server/stream_server.h"
#include "triagebench/feed.h"
#include "triagebench/reference.h"
#include "triagebench/replay.h"
#include "triagebench/spans.h"

namespace triagebench {
namespace {

using dt::Status;
using dt::engine::WindowResult;
using dt::server::SessionId;
using dt::server::StreamServer;

/// Where traced runs write their trace file, relative to the working
/// directory (the repository root when started by run.py).
constexpr const char* kOutDir = ".bench_out";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string strategy;
  std::string corrupt;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--strategy") {
      args->strategy = value;
    } else if (flag == "--corrupt") {
      args->corrupt = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// A push, lifecycle or Finish call, for timing window latencies.
struct CallMark {
  int64_t start_ns = 0;
  /// Pushes: timestamp of the push's last event; NaN for other calls.
  double last_ts = std::numeric_limits<double>::quiet_NaN();
};

/// Counters read from the program after Finish (traced runs).
struct LayerCounts {
  int64_t ingested = 0;
  int64_t kept = 0;
  int64_t force_shed = 0;
  int64_t policy_evicted = 0;
  int64_t memory_shed = 0;
  int64_t utility_shed = 0;
  double queue_depth_hwm = 0.0;
  int64_t folded = 0;
  double synopsis_peak_bytes = 0.0;
  int64_t shadow_work = 0;
  int64_t exec_scanned = 0;
  int64_t exec_probes = 0;
  int64_t exec_build_inserts = 0;
  int64_t exec_output = 0;
  int64_t trace_records = 0;
  int64_t mem_peak_bytes = 0;
};

/// One closed-loop replay of the feed through a fresh server.
struct Round {
  std::vector<std::unique_ptr<SessionOut>> outs;
  std::vector<CallMark> calls;   // every call, in call order
  std::vector<CallMark> pushes;  // push calls only
  int64_t first_push_ns = 0;
  int64_t finish_start_ns = 0;
  int64_t finish_end_ns = 0;
  int64_t events_pushed = 0;
  int64_t events_failed = 0;
  std::string error;
  // Per-layer timings (traced runs).
  double push_ns = 0.0;
  double parse_ns = 0.0;
  int64_t parsed_events = 0;
  double register_ns = 0.0;
  int64_t registrations = 0;
  double worker_busy_s = 0.0;
  int64_t worker_tasks = 0;
  double worker_busy_max_over_mean = 0.0;
  LayerCounts counts;

  double WallSeconds() const {
    return static_cast<double>(finish_end_ns - first_push_ns) / 1e9;
  }
};

size_t PushStart(const Feed& feed, size_t push) {
  return push == 0 ? 0 : feed.push_ends[push - 1];
}

/// First push whose first event lies at or past `share` of the feed.
size_t PushAtShare(const Feed& feed, double share) {
  const double target = share * static_cast<double>(feed.events.size());
  for (size_t p = 0; p < feed.push_ends.size(); ++p) {
    if (static_cast<double>(PushStart(feed, p)) >= target) return p;
  }
  return feed.push_ends.size();
}

/// Owns one server: the constructor is the set-up (construction plus the
/// up-front registrations); Run pushes the feed and finishes.
class RoundRunner {
 public:
  RoundRunner(const WorkloadShape& shape,
              const dt::engine::StreamServerOptions& options, bool traced,
              SpanLog* spans)
      : shape_(shape), traced_(traced), spans_(spans),
        ids_(shape.sessions.size(), kUnregistered) {
    round_.outs.resize(shape.sessions.size());
    for (auto& out : round_.outs) out = std::make_unique<SessionOut>();
    setup_start_ns_ = NowNs();
    server_ = std::make_unique<StreamServer>(shape.catalog, options);
    for (size_t s = 0; s < shape.sessions.size(); ++s) {
      if (shape.sessions[s].register_at == 0.0) Register(s, nullptr, 0);
    }
    setup_end_ns_ = NowNs();
  }

  RoundRunner(const RoundRunner&) = delete;
  RoundRunner& operator=(const RoundRunner&) = delete;

  /// Server construction to the return of the last up-front registration.
  double SetupSeconds() const {
    return static_cast<double>(setup_end_ns_ - setup_start_ns_) / 1e9;
  }

  Round Run(const Feed& feed) {
    const size_t n_pushes = feed.push_ends.size();
    std::vector<size_t> register_push(shape_.sessions.size(), 0);
    std::vector<size_t> unregister_push(shape_.sessions.size(), n_pushes);
    for (size_t s = 0; s < shape_.sessions.size(); ++s) {
      const SessionSpec& spec = shape_.sessions[s];
      if (spec.register_at > 0.0) {
        register_push[s] = PushAtShare(feed, spec.register_at);
      }
      if (spec.unregister_at >= 0.0) {
        unregister_push[s] = PushAtShare(feed, spec.unregister_at);
      }
      round_.outs[s]->feed_end = feed.events.size();
    }
    const std::span<const dt::engine::StreamEvent> events(feed.events);
    const std::string_view csv(feed.csv.text);
    for (size_t p = 0; p < n_pushes; ++p) {
      const size_t begin = PushStart(feed, p);
      const size_t end = feed.push_ends[p];
      for (size_t s = 0; s < shape_.sessions.size(); ++s) {
        if (p > 0 && register_push[s] == p) Register(s, &feed, begin);
        if (unregister_push[s] == p) Unregister(s, begin);
      }
      const int64_t start = NowNs();
      if (p == 0) round_.first_push_ns = start;
      const CallMark mark{start, feed.events[end - 1].tuple.timestamp()};
      round_.calls.push_back(mark);
      round_.pushes.push_back(mark);
      Status status;
      int64_t push_start = start;
      if (shape_.csv_ingest) {
        const auto [lo, hi] = feed.csv.push_ranges[p];
        dt::Result<std::vector<dt::engine::StreamEvent>> parsed =
            dt::io::ParseEventsCsv(csv.substr(lo, hi - lo), shape_.catalog);
        push_start = NowNs();
        if (parsed.ok()) {
          if (traced_) {
            round_.parse_ns += static_cast<double>(push_start - start);
            round_.parsed_events += static_cast<int64_t>(parsed->size());
            spans_->Add("io.parse", "io", start, push_start,
                        static_cast<int64_t>(parsed->size()));
          }
          status = server_->PushBatch(*parsed);
        } else {
          status = parsed.status();
        }
      } else {
        status = server_->PushBatch(events.subspan(begin, end - begin));
      }
      if (traced_) {
        const int64_t stop = NowNs();
        round_.push_ns += static_cast<double>(stop - push_start);
        spans_->Add("server.push", "server", push_start, stop,
                    static_cast<int64_t>(end - begin));
      }
      round_.events_pushed += static_cast<int64_t>(end - begin);
      if (!status.ok()) {
        round_.events_failed += static_cast<int64_t>(end - begin);
        Fail(status);
      }
    }
    round_.finish_start_ns = NowNs();
    round_.calls.push_back({round_.finish_start_ns});
    const Status finished = server_->Finish();
    round_.finish_end_ns = NowNs();
    if (!finished.ok()) Fail(finished);
    spans_->Add("server.finish", "server", round_.finish_start_ns,
                round_.finish_end_ns);
    if (traced_) ReadLayerCounts();
    return std::move(round_);
  }

 private:
  static constexpr SessionId kUnregistered =
      std::numeric_limits<SessionId>::max();

  void Fail(const Status& status) {
    if (round_.error.empty()) round_.error = status.ToString();
  }

  void Register(size_t s, const Feed* feed, size_t feed_begin) {
    const SessionSpec& spec = shape_.sessions[s];
    SessionOut* out = round_.outs[s].get();
    const int64_t start = NowNs();
    round_.calls.push_back({start});
    dt::Result<SessionId> id = server_->RegisterQuery(spec.sql, spec.config);
    const int64_t stop = NowNs();
    spans_->Add("server.register", "server", start, stop);
    round_.register_ns += static_cast<double>(stop - start);
    ++round_.registrations;
    if (!id.ok()) {
      Fail(id.status());
      return;
    }
    ids_[s] = *id;
    out->feed_begin = feed_begin;
    if (feed != nullptr && feed_begin > 0) {
      // Mid-stream admission: the next window boundary of the session's
      // slide after the arrival clock (the last pushed timestamp).
      const double clock = feed->events[feed_begin - 1].tuple.timestamp();
      out->admit_from = (std::floor(clock / spec.slide) + 1.0) * spec.slide;
    }
    const bool render = shape_.csv_ingest;
    const std::vector<std::string>* columns = &spec.columns;
    SpanLog* spans = spans_;
    server_->session(*id).SetWindowSink(
        [out, render, columns, spans](WindowResult&& result) {
          const int64_t received = NowNs();
          if (render) {
            std::vector<WindowResult> one;
            one.push_back(std::move(result));
            const std::string text = dt::io::FormatResultsCsv(one, *columns);
            const int64_t rows = static_cast<int64_t>(
                one[0].exact_rows.size() + one[0].merged_rows.size());
            const int64_t rendered = NowNs();
            spans->Add("io.format", "io", received, rendered, rows);
            result = std::move(one[0]);
            std::lock_guard<std::mutex> lock(out->mutex);
            out->format_ns += static_cast<double>(rendered - received);
            out->formatted_rows += rows;
          }
          spans->Add("sink", "engine", received, NowNs(), result.window);
          std::lock_guard<std::mutex> lock(out->mutex);
          out->windows.push_back({std::move(result), received});
        });
  }

  void Unregister(size_t s, size_t feed_end) {
    if (ids_[s] == kUnregistered) return;
    const int64_t start = NowNs();
    round_.calls.push_back({start});
    const Status status = server_->UnregisterQuery(ids_[s]);
    spans_->Add("server.unregister", "server", start, NowNs());
    if (!status.ok()) Fail(status);
    round_.outs[s]->feed_end = feed_end;
  }

  void ReadLayerCounts() {
    LayerCounts& c = round_.counts;
    auto ends_with = [](const std::string& name, std::string_view suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    for (SessionId id : ids_) {
      if (id == kUnregistered) continue;
      const dt::server::QuerySession& session = server_->session(id);
      const dt::engine::EngineStatsSnapshot snapshot =
          session.StatsSnapshot();
      c.ingested += snapshot.core.tuples_ingested;
      c.kept += snapshot.core.tuples_kept;
      for (const auto& [name, value] : snapshot.counters) {
        if (ends_with(name, ".dropped.force_shed")) c.force_shed += value;
        if (ends_with(name, ".dropped.policy_evicted")) {
          c.policy_evicted += value;
        }
        if (ends_with(name, ".dropped.memory_shed")) c.memory_shed += value;
        if (ends_with(name, ".dropped.utility_shed")) c.utility_shed += value;
        if (ends_with(name, "_folded")) c.folded += value;
        if (name == "shadow.work_units") c.shadow_work += value;
        if (name == "exec.tuples_scanned") c.exec_scanned += value;
        if (name == "exec.join_probes") c.exec_probes += value;
        if (name == "exec.join_build_inserts") {
          c.exec_build_inserts += value;
        }
        if (name == "exec.tuples_output") c.exec_output += value;
      }
      for (const auto& [name, value] : snapshot.gauge_maxima) {
        if (ends_with(name, ".queue_depth")) {
          c.queue_depth_hwm = std::max(c.queue_depth_hwm, value);
        }
        if (name == "mem.synopses.bytes") c.synopsis_peak_bytes += value;
      }
      c.trace_records += static_cast<int64_t>(session.trace().records().size());
    }
    c.mem_peak_bytes =
        static_cast<int64_t>(server_->memory_accountant().PeakBytes());

    // Worker pool accounting; with no worker threads the pushing thread
    // is the only worker and its busy time is the time inside the server.
    std::vector<double> busy;
    server_->server_metrics().ForEachGauge(
        [&](const std::string& name, const dt::obs::Gauge& gauge) {
          if (ends_with(name, ".busy_seconds")) busy.push_back(gauge.value());
        });
    server_->server_metrics().ForEachCounter(
        [&](const std::string& name, const dt::obs::Counter& counter) {
          if (name.rfind("server.worker.", 0) == 0 &&
              ends_with(name, ".tasks")) {
            round_.worker_tasks += counter.value();
          }
        });
    if (busy.empty()) {
      busy.push_back((round_.push_ns + static_cast<double>(
                                           round_.finish_end_ns -
                                           round_.finish_start_ns)) /
                     1e9);
      round_.worker_tasks = static_cast<int64_t>(round_.pushes.size()) + 1;
    }
    double total = 0.0;
    double most = 0.0;
    for (double b : busy) {
      total += b;
      most = std::max(most, b);
    }
    round_.worker_busy_s = total;
    const double mean = total / static_cast<double>(busy.size());
    round_.worker_busy_max_over_mean = mean > 0 ? most / mean : 0.0;
  }

  const WorkloadShape& shape_;
  const bool traced_;
  SpanLog* spans_;
  std::vector<SessionId> ids_;
  Round round_;
  std::unique_ptr<StreamServer> server_;
  int64_t setup_start_ns_ = 0;
  int64_t setup_end_ns_ = 0;
};

/// Per-window latency (ms) from the start of the push call carrying the
/// first event at or past the window's emission deadline (or of Finish)
/// to the sink. A window emitted before that call started — the
/// session's processing clock ran ahead — is timed from the start of the
/// call in flight when it was emitted.
void CollectLatencies(const WorkloadShape& shape, const Round& round,
                      std::vector<double>* latencies_ms) {
  for (size_t s = 0; s < shape.sessions.size(); ++s) {
    const SessionSpec& spec = shape.sessions[s];
    const double delay = spec.config.cost_model.delay_factor;
    for (const WindowOut& window : round.outs[s]->windows) {
      const double deadline =
          static_cast<double>(window.result.window) * spec.slide +
          spec.range + delay * spec.range;
      auto push = std::lower_bound(
          round.pushes.begin(), round.pushes.end(), deadline,
          [](const CallMark& mark, double t) { return mark.last_ts < t; });
      int64_t reference =
          push == round.pushes.end() ? round.finish_start_ns : push->start_ns;
      if (window.sink_ns < reference) {
        auto call = std::upper_bound(
            round.calls.begin(), round.calls.end(), window.sink_ns,
            [](int64_t t, const CallMark& mark) { return t < mark.start_ns; });
        if (call != round.calls.begin()) reference = std::prev(call)->start_ns;
      }
      latencies_ms->push_back(
          static_cast<double>(window.sink_ns - reference) / 1e6);
    }
  }
}

/// FNV-1a over everything a session delivered, for round-to-round and
/// pooled-vs-serial comparison.
uint64_t Digest(const SessionOut& out) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  auto mix_rows = [&](const dt::exec::Relation& rows) {
    mix(rows.size());
    for (const dt::Tuple& row : rows) {
      for (const dt::Value& v : row.values()) {
        const double d = v.AsDouble();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
      }
    }
  };
  for (const WindowOut& window : out.windows) {
    mix(static_cast<uint64_t>(window.result.window));
    mix(static_cast<uint64_t>(window.result.kept_tuples));
    mix(static_cast<uint64_t>(window.result.dropped_tuples));
    mix_rows(window.result.exact_rows);
    mix_rows(window.result.merged_rows);
  }
  return h;
}

/// The CPUs this process may run on. A serial workload's pushing thread
/// does all of its work, and the kernel leaves it on one CPU for most of
/// a run; on a shared host the CPUs' speeds differ by up to a quarter
/// over minutes, so such a run reads whichever CPU it landed on. Serial
/// workloads therefore move the pushing thread to the next CPU each
/// round, so every run samples every CPU alike (README.md, "Placement",
/// has the paired runs with and without). Pooled workloads are left to
/// the kernel's placement.
std::vector<int> AllowedCpus(cpu_set_t* original) {
  std::vector<int> cpus;
  CPU_ZERO(original);
  if (pthread_getaffinity_np(pthread_self(), sizeof(*original), original) !=
      0) {
    return cpus;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, original)) cpus.push_back(cpu);
  }
  return cpus;
}

void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank.
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

/// Interquartile mean: the mean of the middle half of the values (all
/// of them when there are fewer than four); 0 when empty.
double MiddleHalfMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t quarter = values.size() / 4;
  double sum = 0.0;
  for (size_t i = quarter; i < values.size() - quarter; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * quarter);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;
  int64_t vol_switches = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.minor_faults = ru.ru_minflt;
  u.vol_switches = ru.ru_nvcsw;
  return u;
}

/// Ordered name -> (value, unit) list for the result line.
class MetricList {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string json = "{";
    char buf[96];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      json += (i == 0 ? "\"" : ", \"") + items_[i].name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + items_[i].unit +
              "\"}";
    }
    return json + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

void Corrupt(const std::string& how, Round* round) {
  for (auto& out : round->outs) {
    if (out->windows.empty()) continue;
    if (how == "drop-window") {
      out->windows.erase(out->windows.begin() +
                         static_cast<ptrdiff_t>(out->windows.size() / 2));
      return;
    }
    for (WindowOut& window : out->windows) {
      for (dt::Tuple& row : window.result.exact_rows) {
        if (row.size() == 2) {  // a grouped COUNT row
          row.value(1) = dt::Value::Int64(
              std::llround(row.value(1).AsDouble()) + 1000000);
          return;
        }
      }
    }
  }
}

int Main(int argc, char** argv) {
  const int64_t main_ns = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: triagebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--strategy <name>] "
                 "[--corrupt <inflate|drop-window>]\n");
    return 2;
  }
  WorkloadShape shape;
  if (!MakeShape(args.workload, &shape)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!args.strategy.empty()) {
    // Reference figures only: run every session under another strategy.
    auto strategy = dt::triage::SheddingStrategyFromString(args.strategy);
    if (!strategy.ok()) {
      std::fprintf(stderr, "%s\n", strategy.status().ToString().c_str());
      return 2;
    }
    for (SessionSpec& spec : shape.sessions) spec.config.strategy = *strategy;
  }
  const bool data_triage =
      shape.sessions[0].config.strategy ==
      dt::triage::SheddingStrategy::kDataTriage;

  SpanLog spans;
  spans.set_enabled(args.trace);

  // Round 1's set-up is the cold one: the process's first server, built
  // before the feed exists. Later rounds' set-ups are warm and untimed.
  auto first_runner = std::make_unique<RoundRunner>(
      shape, shape.server_options, args.trace, &spans);
  const double setup_s = first_runner->SetupSeconds();
  const Feed feed = MakeFeed(shape, args.seed);

  std::vector<Round> kept_rounds;  // round 1 only
  // Every round repeats the same work, so each timing is the mean over
  // the middle half of the run's rounds: a stretch of slow host time
  // slows only the rounds it hits, and those fall in the top quarter.
  std::vector<double> events_per_s;  // per round
  std::vector<double> latency_p50_ms, latency_p90_ms;  // per round
  std::vector<double> push_ns_per_event, finish_ms, register_us,
      parse_ns_per_event, format_ns_per_row, worker_busy, worker_ratio;
  std::vector<uint64_t> first_digests;
  std::vector<std::vector<std::vector<int64_t>>> window_ids;  // per round
  std::vector<int64_t> round_failed_events;
  int64_t events_pushed = 0;
  bool deterministic = true;
  std::string program_error;

  cpu_set_t original_cpus;
  const std::vector<int> cpus =
      shape.server_options.scheduler.worker_threads == 0
          ? AllowedCpus(&original_cpus)
          : std::vector<int>{};
  const Usage usage_start = ReadUsage();
  const int64_t measure_start = NowNs();
  int rounds = 0;
  while (true) {
    if (!cpus.empty()) PinTo(cpus[static_cast<size_t>(rounds) % cpus.size()]);
    std::unique_ptr<RoundRunner> runner =
        rounds == 0 ? std::move(first_runner)
                    : std::make_unique<RoundRunner>(shape, shape.server_options,
                                                    args.trace, &spans);
    Round round = runner->Run(feed);
    runner.reset();
    ++rounds;
    if (rounds == 1) spans.set_enabled(false);  // trace file: round 1
    if (!round.error.empty() && program_error.empty()) {
      program_error = round.error;
    }
    events_pushed += round.events_pushed;
    round_failed_events.push_back(round.events_failed);
    events_per_s.push_back(static_cast<double>(round.events_pushed) /
                           round.WallSeconds());
    std::vector<double> latencies_ms;
    CollectLatencies(shape, round, &latencies_ms);
    latency_p50_ms.push_back(Percentile(latencies_ms, 0.5));
    latency_p90_ms.push_back(Percentile(latencies_ms, 0.9));
    if (args.trace) {
      push_ns_per_event.push_back(round.push_ns /
                                  static_cast<double>(round.events_pushed));
      finish_ms.push_back(
          static_cast<double>(round.finish_end_ns - round.finish_start_ns) /
          1e6);
      register_us.push_back(round.register_ns / 1e3 /
                            static_cast<double>(round.registrations));
      worker_busy.push_back(round.worker_busy_s);
      worker_ratio.push_back(round.worker_busy_max_over_mean);
      if (shape.csv_ingest) {
        parse_ns_per_event.push_back(
            round.parse_ns / static_cast<double>(round.parsed_events));
        double format_ns = 0.0;
        int64_t rows = 0;
        for (const auto& out : round.outs) {
          format_ns += out->format_ns;
          rows += out->formatted_rows;
        }
        format_ns_per_row.push_back(format_ns / static_cast<double>(rows));
      }
    }
    std::vector<std::vector<int64_t>> ids;
    for (size_t s = 0; s < round.outs.size(); ++s) {
      std::vector<int64_t>& session_ids = ids.emplace_back();
      for (const WindowOut& w : round.outs[s]->windows) {
        session_ids.push_back(w.result.window);
      }
      const uint64_t digest = Digest(*round.outs[s]);
      if (rounds == 1) {
        first_digests.push_back(digest);
      } else if (digest != first_digests[s]) {
        deterministic = false;
      }
    }
    window_ids.push_back(std::move(ids));
    if (rounds == 1) kept_rounds.push_back(std::move(round));
    if (static_cast<double>(NowNs() - measure_start) / 1e9 >= args.seconds) {
      break;
    }
  }
  if (!cpus.empty()) {
    pthread_setaffinity_np(pthread_self(), sizeof(original_cpus),
                           &original_cpus);
  }
  const Usage usage_end = ReadUsage();
  const double peak_rss_mib = PeakRssMiB();

  // --- Reference checks on round 1 ---------------------------------------
  Round& first = kept_rounds.front();
  if (!args.corrupt.empty()) {
    Corrupt(args.corrupt, &first);
    for (size_t s = 0; s < first.outs.size(); ++s) {
      window_ids[0][s].clear();
      for (const WindowOut& w : first.outs[s]->windows) {
        window_ids[0][s].push_back(w.result.window);
      }
    }
  }
  std::vector<std::string> problems;
  std::vector<WindowIndex> indexes;
  RmsTotals rms;
  int64_t expected_per_round = 0;
  int64_t failed = 0;
  int64_t early_windows = 0;
  for (size_t s = 0; s < shape.sessions.size(); ++s) {
    const SessionSpec& spec = shape.sessions[s];
    indexes.push_back(IndexWindows(spec, feed, *first.outs[s]));
    const SessionCheck check =
        CheckSession(spec, feed, *first.outs[s], indexes[s], &rms);
    problems.insert(problems.end(), check.problems.begin(),
                    check.problems.end());
    const int64_t first_admitted = FirstAdmittedWindow(spec, *first.outs[s]);
    const WindowRange expected = ExpectedWindows(indexes[s], first_admitted);
    expected_per_round += expected.size();
    // Round by round: an expected window that never reached the sink, or
    // one delivered before the admission boundary, is a failed operation.
    for (const auto& round_ids : window_ids) {
      for (int64_t w : round_ids[s]) early_windows += w < first_admitted;
      for (int64_t w = expected.first; w <= expected.last; ++w) {
        failed += std::find(round_ids[s].begin(), round_ids[s].end(), w) ==
                  round_ids[s].end();
      }
    }
  }
  failed += early_windows;
  for (int64_t f : round_failed_events) failed += f;
  if (data_triage && shape.name == "paper_overload" &&
      !(rms.Merged() < rms.Exact())) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "triage does not beat drop-only: merged RMS %.6g vs exact "
                  "RMS %.6g",
                  rms.Merged(), rms.Exact());
    problems.push_back(buf);
  }
  if (!deterministic) {
    problems.push_back("a later round's results differ from round 1's");
  }
  const int64_t attempted = events_pushed + early_windows +
                            expected_per_round * static_cast<int64_t>(rounds);

  std::printf("# workload %s seed %" PRIu64 ": %d rounds of %zu events, "
              "%zu sessions, %" PRId64 " windows per round\n",
              shape.name.c_str(), args.seed, rounds, feed.events.size(),
              shape.sessions.size(), expected_per_round);
  std::printf("# rms merged %.6g exact %.6g over %" PRId64 " ideal cells\n",
              rms.Merged(), rms.Exact(), rms.ideal_cells);
  if (!program_error.empty()) {
    std::printf("# first program error: %s\n", program_error.c_str());
  }

  MetricList metrics;
  const double run_events_per_s = MiddleHalfMean(events_per_s);
  if (!args.trace) {
    metrics.Add("events_per_s", run_events_per_s, "events/s");
    metrics.Add("emit_latency_p50_ms", MiddleHalfMean(latency_p50_ms), "ms");
    metrics.Add("emit_latency_p90_ms", MiddleHalfMean(latency_p90_ms), "ms");
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("peak_rss_mb", peak_rss_mib, "MiB");
    metrics.Add("merged_rms_error", rms.Merged(), "result");
    std::printf("# timings over the middle half of %d rounds; "
                "events_per_s by round: min %.6g max %.6g\n",
                rounds,
                *std::min_element(events_per_s.begin(), events_per_s.end()),
                *std::max_element(events_per_s.begin(), events_per_s.end()));
  } else {
    std::printf("# traced_events_per_s %.6g\n", run_events_per_s);
    LayerTimes times;
    spans.set_enabled(true);
    Status status = TimePrepare(shape, 20, &spans, &times);
    if (status.ok()) {
      status = ReplayLayers(shape, feed, first.outs, indexes, &spans, &times);
    }
    if (!status.ok()) problems.push_back("replay: " + status.ToString());
    if (shape.server_options.scheduler.worker_threads > 0) {
      // Single-threaded baseline: the same feed with no worker threads
      // must give every session the same results as the pooled run.
      RoundRunner serial(shape, dt::engine::StreamServerOptions{}, false,
                         &spans);
      Round baseline = serial.Run(feed);
      for (size_t s = 0; s < baseline.outs.size(); ++s) {
        if (Digest(*baseline.outs[s]) != first_digests[s]) {
          problems.push_back("session " + shape.sessions[s].label +
                             ": serial baseline differs from the pooled run");
        }
      }
      std::printf("# serial_events_per_s %.6g\n",
                  static_cast<double>(baseline.events_pushed) /
                      baseline.WallSeconds());
    }
    auto per = [](double total, int64_t n) {
      return n > 0 ? total / static_cast<double>(n) : 0.0;
    };
    const LayerCounts& c = first.counts;
    const double r = static_cast<double>(rounds);
    // A layer the workload does not use reads 0: io outside CSV ingest,
    // synopsis and shadow where every session is drop-only.
    metrics.Add("io.parse_ns_per_event", MiddleHalfMean(parse_ns_per_event), "ns");
    metrics.Add("io.format_ns_per_row", MiddleHalfMean(format_ns_per_row), "ns");
    metrics.Add("rewrite.prepare_us", per(times.prepare_ns, times.prepares) / 1e3,
                "us");
    metrics.Add("server.register_us", MiddleHalfMean(register_us), "us");
    metrics.Add("server.push_ns_per_event", MiddleHalfMean(push_ns_per_event), "ns");
    metrics.Add("server.finish_ms", MiddleHalfMean(finish_ms), "ms");
    metrics.Add("server.worker_busy_s", MiddleHalfMean(worker_busy), "s");
    metrics.Add("server.worker_tasks", static_cast<double>(first.worker_tasks),
                "count");
    metrics.Add("server.worker_busy_max_over_mean", MiddleHalfMean(worker_ratio),
                "ratio");
    metrics.Add("triage.kept_per_ingested",
                per(static_cast<double>(c.kept), c.ingested), "ratio");
    metrics.Add("triage.force_shed", static_cast<double>(c.force_shed), "count");
    metrics.Add("triage.policy_evicted", static_cast<double>(c.policy_evicted),
                "count");
    metrics.Add("triage.memory_shed", static_cast<double>(c.memory_shed),
                "count");
    metrics.Add("triage.utility_shed", static_cast<double>(c.utility_shed),
                "count");
    metrics.Add("triage.queue_depth_hwm", c.queue_depth_hwm, "count");
    metrics.Add("synopsis.insert_ns_per_tuple",
                per(times.synopsis_ns, times.synopsis_tuples), "ns");
    metrics.Add("synopsis.folded", static_cast<double>(c.folded), "count");
    metrics.Add("synopsis.peak_model_bytes", c.synopsis_peak_bytes, "bytes");
    metrics.Add("shadow.eval_us_per_window",
                per(times.shadow_ns, times.shadow_windows) / 1e3, "us");
    metrics.Add("shadow.work_units", static_cast<double>(c.shadow_work),
                "count");
    metrics.Add("exec.eval_us_per_window",
                per(times.exec_ns, times.exec_windows) / 1e3, "us");
    metrics.Add("exec.tuples_scanned", static_cast<double>(c.exec_scanned),
                "count");
    metrics.Add("exec.join_probes", static_cast<double>(c.exec_probes),
                "count");
    metrics.Add("exec.join_build_inserts",
                static_cast<double>(c.exec_build_inserts), "count");
    metrics.Add("exec.tuples_output", static_cast<double>(c.exec_output),
                "count");
    metrics.Add("merge.us_per_window",
                per(times.merge_ns, times.merge_windows) / 1e3, "us");
    metrics.Add("obs.trace_records", static_cast<double>(c.trace_records),
                "count");
    metrics.Add("mem.peak_model_bytes", static_cast<double>(c.mem_peak_bytes),
                "bytes");
    metrics.Add("process.user_cpu_s", (usage_end.user_s - usage_start.user_s) / r,
                "s");
    metrics.Add("process.sys_cpu_s", (usage_end.sys_s - usage_start.sys_s) / r,
                "s");
    metrics.Add("process.minor_faults",
                static_cast<double>(usage_end.minor_faults -
                                    usage_start.minor_faults) / r,
                "count");
    metrics.Add("process.vol_ctx_switches",
                static_cast<double>(usage_end.vol_switches -
                                    usage_start.vol_switches) / r,
                "count");
    const std::string path = std::string(kOutDir) + "/trace_" + shape.name +
                             "_seed" + std::to_string(args.seed) + ".json";
    std::error_code ignored;
    std::filesystem::create_directories(kOutDir, ignored);
    if (spans.WriteChromeJson(path, main_ns)) {
      std::printf("# trace %s (%zu spans)\n", path.c_str(), spans.size());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }

  for (const std::string& problem : problems) {
    std::printf("# check failed: %s\n", problem.c_str());
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              problems.empty() ? "true" : "false", attempted, failed,
              metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace triagebench

int main(int argc, char** argv) { return triagebench::Main(argc, argv); }
