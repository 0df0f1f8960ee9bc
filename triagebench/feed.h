// Workload definitions and the seeded feed generator of the end-to-end
// benchmark. The generator lives here, not in the library, so a change
// to the program can never change the benchmark's inputs.
#ifndef TRIAGEBENCH_FEED_H_
#define TRIAGEBENCH_FEED_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/engine/config.h"

namespace triagebench {

namespace dt = datatriage;

/// What a session's query computes, as far as the reference checks care.
enum class QueryKind {
  /// R(a) ⋈ S(b,c) ⋈ T(d) on a = b and c = d, grouped COUNT by a (the
  /// paper's Fig. 7 query).
  kChainCount,
  /// Single-stream grouped COUNT of the session's one stream, grouped by
  /// `group_column`.
  kStreamCount,
  /// MATCH (v = 1 THEN v = 2 THEN v = 3) PARTITION BY key WITHIN
  /// `within` over stream e(key, v).
  kMatch,
};

/// One registered query of a workload.
struct SessionSpec {
  std::string label;
  std::string sql;
  dt::engine::EngineConfig config;
  std::vector<std::string> columns;  // result column names (CSV header)
  QueryKind kind = QueryKind::kChainCount;
  /// Streams the query reads (catalog names).
  std::vector<std::string> streams;
  double range = 1.0;  // window range, seconds
  double slide = 1.0;  // window slide, seconds (== range when tumbling)
  /// kStreamCount: the grouped column's index in the counted stream.
  size_t group_column = 0;
  /// kMatch: the WITHIN span, seconds.
  double within = 0.0;
  /// Lifecycle, as a share of the feed's pushes: 0 registers up front;
  /// otherwise the session registers before the first push at or past
  /// this share. A negative `unregister_at` keeps it to the end.
  double register_at = 0.0;
  double unregister_at = -1.0;
};

/// The seed-independent part of a workload: catalog, sessions, threads
/// and push geometry.
struct WorkloadShape {
  std::string name;
  dt::Catalog catalog;
  std::vector<SessionSpec> sessions;
  dt::engine::StreamServerOptions server_options;
  /// Events per push call.
  size_t push_size = 16;
  /// True when the feed goes in as CSV text through io::ParseEventsCsv.
  bool csv_ingest = false;
};

/// Events rendered as `stream,timestamp,v1,...` lines (timestamps with
/// round-trip precision), with each push's [begin, end) byte range.
struct CsvText {
  std::string text;
  std::vector<std::pair<size_t, size_t>> push_ranges;
};

/// One generated feed: time-ordered events, cut into push chunks.
struct Feed {
  std::vector<dt::engine::StreamEvent> events;
  /// push_ends[i] is one past the last event of push i.
  std::vector<size_t> push_ends;
  /// csv_ingest workloads: the feed as CSV text.
  CsvText csv;
};

/// Builds the workload's shape; false when `name` is unknown.
bool MakeShape(const std::string& name, WorkloadShape* shape);

/// Generates the workload's feed from `seed`: the same seed always gives
/// the same events.
Feed MakeFeed(const WorkloadShape& shape, uint64_t seed);

/// Renders the feed's events as CSV, cut at its pushes.
CsvText RenderCsv(const Feed& feed);

/// Window ids covering timestamp `t` under (range, slide): the window
/// semantics of the paper's sliding windows, written out here so the
/// reference does not call into the program.
struct Covering {
  int64_t first = 0;
  int64_t last = -1;
};
Covering CoveringWindowIds(double t, double range, double slide);

}  // namespace triagebench

#endif  // TRIAGEBENCH_FEED_H_
