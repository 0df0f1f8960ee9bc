#include "triagebench/feed.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

namespace triagebench {

namespace {

using dt::FieldType;
using dt::Schema;
using dt::Tuple;
using dt::Value;

/// splitmix64: small, seedable and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double Unit() {
    return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
  }
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(
                                                  hi - lo + 1));
  }
  double Gaussian(double mean, double stddev) {
    const double r = std::sqrt(-2.0 * std::log(Unit()));
    return mean + stddev * r * std::cos(2.0 * M_PI * Unit());
  }

 private:
  uint64_t state_;
};

/// One generated column: a clamped, rounded Gaussian (the paper's
/// Sec. 6.2.1 integer data) or a uniform integer.
struct ColumnGen {
  bool gaussian = true;
  double mean = 50.0;
  double stddev = 15.0;
  int64_t lo = 1;
  int64_t hi = 100;

  int64_t Draw(Rng& rng) const {
    if (!gaussian) return rng.UniformInt(lo, hi);
    const double v = std::round(rng.Gaussian(mean, stddev));
    return static_cast<int64_t>(
        std::clamp(v, static_cast<double>(lo), static_cast<double>(hi)));
  }
};

struct StreamGen {
  std::string name;
  double rate = 100.0;  // tuples per virtual second
  std::vector<ColumnGen> columns;
};

constexpr ColumnGen kPaperColumn{true, 50.0, 15.0, 1, 100};

/// Per-workload feed recipe.
struct FeedRecipe {
  double duration = 10.0;  // virtual seconds
  std::vector<StreamGen> streams;
};

FeedRecipe RecipeFor(const std::string& workload) {
  FeedRecipe recipe;
  if (workload == "paper_overload") {
    // 1600 tuples/s aggregate: about 4x the engine's virtual capacity.
    recipe.duration = 20.0;
    const double rate = 1600.0 / 3.0;
    recipe.streams = {{"r", rate, {kPaperColumn}},
                      {"s", rate, {kPaperColumn, kPaperColumn}},
                      {"t", rate, {kPaperColumn}}};
  } else if (workload == "giant_join") {
    // Join keys from a wide Gaussian: windows of 2600 tuples per stream
    // (above the 2 x 1024-row morsel threshold even after shedding)
    // whose three-way join stays near 2k rows per window.
    recipe.duration = 40.0;
    const ColumnGen wide{true, 5000.0, 800.0, 1, 10000};
    const ColumnGen tenant_key{false, 0.0, 0.0, 1, 8};
    recipe.streams = {{"r", 2600.0, {wide}},
                      {"s", 2600.0, {wide, wide, tenant_key}},
                      {"t", 2600.0, {wide}}};
  } else {
    // session_fleet: the paper streams at 720 tuples/s aggregate (1.8x
    // one session's capacity) plus a MATCH stream at 600 tuples/s.
    recipe.duration = 30.0;
    const ColumnGen key{false, 0.0, 0.0, 0, 7};
    const ColumnGen step{false, 0.0, 0.0, 0, 4};
    recipe.streams = {{"r", 240.0, {kPaperColumn}},
                      {"s", 240.0, {kPaperColumn, kPaperColumn}},
                      {"t", 240.0, {kPaperColumn}},
                      {"e", 600.0, {key, step}}};
  }
  return recipe;
}

Schema IntSchema(const std::vector<std::string>& names) {
  std::vector<dt::Field> fields;
  for (const std::string& name : names) {
    fields.push_back({name, FieldType::kInt64});
  }
  return Schema(std::move(fields));
}

void Register(dt::Catalog* catalog, const std::string& name,
              const std::vector<std::string>& columns) {
  const dt::Status status =
      catalog->RegisterStream({name, IntSchema(columns)});
  if (!status.ok()) {
    std::fprintf(stderr, "catalog: %s\n", status.ToString().c_str());
    std::abort();
  }
}

std::string Seconds(double s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "'%g seconds'", s);
  return buf;
}

SessionSpec ChainCount(const std::string& label, double window,
                       dt::engine::EngineConfig config) {
  SessionSpec spec;
  spec.label = label;
  const std::string w = Seconds(window);
  spec.sql =
      "SELECT a, COUNT(*) AS count FROM R, S, T "
      "WHERE R.a = S.b AND S.c = T.d GROUP BY a "
      "WINDOW R[" + w + "], S[" + w + "], T[" + w + "]";
  spec.config = std::move(config);
  spec.columns = {"a", "count"};
  spec.kind = QueryKind::kChainCount;
  spec.streams = {"r", "s", "t"};
  spec.range = spec.slide = window;
  return spec;
}

SessionSpec StreamCount(const std::string& label, const std::string& stream,
                        const std::string& column, size_t column_index,
                        double range, double slide,
                        dt::engine::EngineConfig config) {
  SessionSpec spec;
  spec.label = label;
  std::string upper = stream;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  std::string window = Seconds(range);
  if (slide != range) window += ", " + Seconds(slide);
  spec.sql = "SELECT " + column + ", COUNT(*) AS count FROM " + upper +
             " GROUP BY " + column + " WINDOW " + upper + "[" + window +
             "]";
  spec.config = std::move(config);
  spec.columns = {column, "count"};
  spec.kind = QueryKind::kStreamCount;
  spec.streams = {stream};
  spec.group_column = column_index;
  spec.range = range;
  spec.slide = slide;
  return spec;
}

dt::engine::EngineConfig Triage(dt::synopsis::SynopsisType type,
                                uint64_t seed) {
  dt::engine::EngineConfig config;
  config.strategy = dt::triage::SheddingStrategy::kDataTriage;
  config.synopsis.type = type;
  config.synopsis.grid.cell_width = 4.0;
  config.queue_capacity = 100;
  config.seed = seed;
  return config;
}

dt::engine::EngineConfig DropOnly(size_t queue_capacity, uint64_t seed) {
  dt::engine::EngineConfig config;
  config.strategy = dt::triage::SheddingStrategy::kDropOnly;
  config.queue_capacity = queue_capacity;
  config.seed = seed;
  return config;
}

size_t Cores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void PaperOverload(WorkloadShape* shape) {
  Register(&shape->catalog, "r", {"a"});
  Register(&shape->catalog, "s", {"b", "c"});
  Register(&shape->catalog, "t", {"d"});
  shape->sessions.push_back(ChainCount(
      "paper", 0.125, Triage(dt::synopsis::SynopsisType::kGridHistogram, 1)));
  shape->push_size = 16;
  shape->csv_ingest = true;
}

void GiantJoin(WorkloadShape* shape) {
  Register(&shape->catalog, "r", {"a"});
  Register(&shape->catalog, "s", {"b", "c", "k"});
  Register(&shape->catalog, "t", {"d"});
  // The giant keeps whole windows queued and is charged just above the
  // feed's rate, so it sheds a small share at the deadlines.
  dt::engine::EngineConfig giant = DropOnly(8192, 11);
  giant.drop_policy = dt::triage::DropPolicyKind::kDropNewest;
  giant.cost_model.exact_tuple_cost = 1.0 / 7800.0;
  shape->sessions.push_back(ChainCount("giant", 1.0, giant));
  for (size_t i = 0; i < 3; ++i) {
    shape->sessions.push_back(
        StreamCount("tenant" + std::to_string(i), "s", "k", 2, 1.0, 1.0,
                    DropOnly(16 + 4 * i, 100 + i)));
  }
  // Workers + morsel helpers + the pushing thread fit the host's cores.
  const size_t cores = std::min<size_t>(Cores(), 4);
  const size_t workers = std::max<size_t>(1, cores / 2);
  const size_t intra = std::max<size_t>(1, cores - workers);
  shape->server_options.scheduler.worker_threads = workers;
  shape->server_options.scheduler.dispatch =
      dt::engine::DispatchMode::kStealing;
  shape->server_options.scheduler.intra_session_threads = intra;
  shape->push_size = 256;
}

void SessionFleet(WorkloadShape* shape) {
  Register(&shape->catalog, "r", {"a"});
  Register(&shape->catalog, "s", {"b", "c"});
  Register(&shape->catalog, "t", {"d"});
  Register(&shape->catalog, "e", {"key", "v"});
  using dt::synopsis::SynopsisType;
  constexpr double kWindow = 0.25;
  shape->sessions.push_back(
      ChainCount("grid", kWindow, Triage(SynopsisType::kGridHistogram, 21)));
  shape->sessions.push_back(ChainCount(
      "aligned_mhist", kWindow, Triage(SynopsisType::kAlignedMHist, 22)));
  shape->sessions.push_back(
      ChainCount("mhist", kWindow, Triage(SynopsisType::kMHist, 23)));
  shape->sessions.push_back(ChainCount(
      "reservoir", kWindow, Triage(SynopsisType::kReservoirSample, 24)));

  SessionSpec sliding =
      StreamCount("sliding", "r", "a", 0, 2 * kWindow, kWindow,
                  Triage(SynopsisType::kGridHistogram, 25));
  sliding.config.queue_capacity = 20;
  sliding.register_at = 0.25;
  sliding.unregister_at = 0.75;
  shape->sessions.push_back(std::move(sliding));

  SessionSpec match;
  match.label = "match";
  match.within = 0.2;
  match.sql =
      "SELECT * FROM E MATCH (v = 1 THEN v = 2 THEN v = 3) "
      "PARTITION BY key WITHIN '0.2 seconds' WINDOW E['1 seconds']";
  match.config = DropOnly(8, 26);
  match.config.drop_policy = dt::triage::DropPolicyKind::kUtility;
  match.columns = {"key", "t1", "t2", "t3"};
  match.kind = QueryKind::kMatch;
  match.streams = {"e"};
  match.range = match.slide = 1.0;
  shape->sessions.push_back(std::move(match));

  // Longer windows buffer more kept state than the 64 KiB budget holds,
  // so memory pressure folds windows into synopses.
  dt::engine::EngineConfig budget =
      Triage(SynopsisType::kGridHistogram, 27);
  budget.memory_budget_bytes =
      dt::engine::EngineConfig::kMinMemoryBudgetBytes;
  shape->sessions.push_back(ChainCount("budget", 4 * kWindow, budget));

  SessionSpec tiny = StreamCount("tiny", "t", "d", 0, kWindow, kWindow,
                                 DropOnly(16, 28));
  tiny.register_at = 0.5;
  shape->sessions.push_back(std::move(tiny));

  shape->server_options.scheduler.worker_threads =
      std::clamp<size_t>(Cores() - 1, 1, 8);
  shape->push_size = 32;
}

}  // namespace

bool MakeShape(const std::string& name, WorkloadShape* shape) {
  shape->name = name;
  if (name == "paper_overload") {
    PaperOverload(shape);
  } else if (name == "giant_join") {
    GiantJoin(shape);
  } else if (name == "session_fleet") {
    SessionFleet(shape);
  } else {
    return false;
  }
  return true;
}

Feed MakeFeed(const WorkloadShape& shape, uint64_t seed) {
  const FeedRecipe recipe = RecipeFor(shape.name);
  Feed feed;
  const double n_streams = static_cast<double>(recipe.streams.size());
  for (size_t s = 0; s < recipe.streams.size(); ++s) {
    const StreamGen& gen = recipe.streams[s];
    Rng rng(seed * 0x100000001b3ULL + 977 * (s + 1));
    const size_t count = static_cast<size_t>(gen.rate * recipe.duration);
    // Constant-rate arrivals, phase-shifted so the streams interleave.
    const double phase = static_cast<double>(s) / n_streams;
    for (size_t i = 0; i < count; ++i) {
      std::vector<Value> values;
      values.reserve(gen.columns.size());
      for (const ColumnGen& column : gen.columns) {
        values.push_back(Value::Int64(column.Draw(rng)));
      }
      const double t = (static_cast<double>(i) + phase) / gen.rate;
      feed.events.push_back({gen.name, Tuple(std::move(values), t)});
    }
  }
  std::stable_sort(feed.events.begin(), feed.events.end(),
                   [](const dt::engine::StreamEvent& x,
                      const dt::engine::StreamEvent& y) {
                     return x.tuple.timestamp() < y.tuple.timestamp();
                   });
  for (size_t end = shape.push_size; ; end += shape.push_size) {
    feed.push_ends.push_back(std::min(end, feed.events.size()));
    if (end >= feed.events.size()) break;
  }
  if (shape.csv_ingest) feed.csv = RenderCsv(feed);
  return feed;
}

CsvText RenderCsv(const Feed& feed) {
  CsvText csv;
  char buf[64];
  size_t next = 0;
  for (size_t end : feed.push_ends) {
    const size_t begin_byte = csv.text.size();
    for (; next < end; ++next) {
      const dt::engine::StreamEvent& event = feed.events[next];
      csv.text += event.stream;
      std::snprintf(buf, sizeof(buf), ",%.17g", event.tuple.timestamp());
      csv.text += buf;
      for (const Value& v : event.tuple.values()) {
        std::snprintf(buf, sizeof(buf), ",%" PRId64, v.int64());
        csv.text += buf;
      }
      csv.text += '\n';
    }
    csv.push_ranges.emplace_back(begin_byte, csv.text.size());
  }
  return csv;
}

Covering CoveringWindowIds(double t, double range, double slide) {
  Covering span;
  span.last = static_cast<int64_t>(t / slide);
  // Windows whose span [w * slide, w * slide + range) holds t: w * slide
  // > t - range, so w is strictly greater than (t - range) / slide.
  const double lower = (t - range) / slide;
  int64_t first = static_cast<int64_t>(lower);
  if (static_cast<double>(first) <= lower) ++first;
  span.first = std::max<int64_t>(first, 0);
  return span;
}

}  // namespace triagebench
