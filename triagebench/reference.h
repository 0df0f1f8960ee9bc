// Reference checks computed apart from the program: window membership,
// ideal grouped counts (hash counting of the join), RMS error, MATCH
// genuineness and admission boundaries are all worked out here from the
// generated feed, never by calling the library's metrics or executors.
#ifndef TRIAGEBENCH_REFERENCE_H_
#define TRIAGEBENCH_REFERENCE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/window_result.h"
#include "triagebench/feed.h"

namespace triagebench {

/// One window as the session's sink received it.
struct WindowOut {
  dt::engine::WindowResult result;
  int64_t sink_ns = 0;
};

/// Everything one session delivered in one round, plus the part of the
/// feed it was attached for.
struct SessionOut {
  std::mutex mutex;  // the sink may run on scheduler workers
  std::vector<WindowOut> windows;
  /// Feed events [feed_begin, feed_end) were pushed while the session
  /// was registered; of those it admits the ones at or after admit_from.
  size_t feed_begin = 0;
  size_t feed_end = 0;
  double admit_from = -std::numeric_limits<double>::infinity();
  /// CSV workloads render each window in the sink: time spent and rows.
  double format_ns = 0.0;
  int64_t formatted_rows = 0;
};

/// A session's admitted feed events grouped by window id, each window's
/// events in arrival order (indices into Feed::events).
using WindowIndex = std::map<int64_t, std::vector<size_t>>;

WindowIndex IndexWindows(const SessionSpec& spec, const Feed& feed,
                         const SessionOut& out);

/// The first window a session may emit: the one starting at its
/// admission boundary (0 for sessions registered up front). A window
/// before it holds only part of its span's events.
int64_t FirstAdmittedWindow(const SessionSpec& spec, const SessionOut& out);

/// The window ids the session must emit, [first, last]: from the first
/// admitted window (or the first admitted event's first window, if
/// later) to the last admitted event's last window. first > last when
/// there are none.
struct WindowRange {
  int64_t first = 0;
  int64_t last = -1;
  int64_t size() const { return last >= first ? last - first + 1 : 0; }
};
WindowRange ExpectedWindows(const WindowIndex& index, int64_t first_admitted);

/// Pooled Sec. 6.3 RMS error: squared differences over the union of
/// (window, group) cells, averaged over the ideal's cells.
struct RmsTotals {
  double merged_squares = 0.0;
  double exact_squares = 0.0;
  int64_t ideal_cells = 0;

  double Merged() const;
  double Exact() const;
};

struct SessionCheck {
  std::vector<std::string> problems;  // empty when every check passed
};

/// Runs every reference check that applies to the session's kind on the
/// windows of the expected range: delivered once and in order,
/// conservation and exact <= ideal (COUNT sessions, which also feed
/// `rms`) and genuine matches (MATCH). Windows before the admission
/// boundary get the same checks against the admitted events they cover
/// but stay out of `rms`. Missing windows and windows before the
/// boundary are counted by the caller as failed operations.
SessionCheck CheckSession(const SessionSpec& spec, const Feed& feed,
                          const SessionOut& out, const WindowIndex& index,
                          RmsTotals* rms);

}  // namespace triagebench

#endif  // TRIAGEBENCH_REFERENCE_H_
