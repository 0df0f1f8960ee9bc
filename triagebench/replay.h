// Per-layer replay: feeds each emitted window's own feed tuples through
// the public function of one layer at a time (synopsis build, shadow
// plan, exact plan, merge) and times each call from outside.
#ifndef TRIAGEBENCH_REPLAY_H_
#define TRIAGEBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/rewrite/data_triage_rewrite.h"
#include "triagebench/feed.h"
#include "triagebench/reference.h"
#include "triagebench/spans.h"

namespace triagebench {

/// Accumulated wall time (ns) and operation counts per replayed layer.
struct LayerTimes {
  double prepare_ns = 0.0;
  int64_t prepares = 0;
  double synopsis_ns = 0.0;
  int64_t synopsis_tuples = 0;
  double shadow_ns = 0.0;
  int64_t shadow_windows = 0;
  double exec_ns = 0.0;
  int64_t exec_windows = 0;
  double merge_ns = 0.0;
  int64_t merge_windows = 0;
};

/// sql::ParseStatement + plan::BindStatement +
/// rewrite::RewriteForDataTriage, the path RegisterQuery takes.
dt::Result<dt::rewrite::TriagedQuery> Prepare(const WorkloadShape& shape,
                                              const SessionSpec& spec);

/// Times Prepare over every session of the workload, `repeats` times.
dt::Status TimePrepare(const WorkloadShape& shape, int repeats,
                       SpanLog* spans, LayerTimes* times);

/// Replays every window the sessions emitted. `outs` and `indexes` are
/// per session, as the round delivered them.
dt::Status ReplayLayers(const WorkloadShape& shape, const Feed& feed,
                        const std::vector<std::unique_ptr<SessionOut>>& outs,
                        const std::vector<WindowIndex>& indexes,
                        SpanLog* spans, LayerTimes* times);

}  // namespace triagebench

#endif  // TRIAGEBENCH_REPLAY_H_
