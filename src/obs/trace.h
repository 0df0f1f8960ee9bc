#ifndef DATATRIAGE_OBS_TRACE_H_
#define DATATRIAGE_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "src/common/virtual_time.h"

namespace datatriage::obs {

/// One window emission, as seen from the engine's virtual clock. Together
/// the records of a run form the queue/drop/latency timeseries that an
/// adaptive controller (or a BENCH_*.json diff) consumes.
struct WindowTraceRecord {
  WindowId window = 0;
  /// The window's emission deadline (span end + latency budget).
  VirtualTime deadline = 0.0;
  /// Virtual time at which the result left the engine.
  VirtualTime emit_time = 0.0;
  /// emit_time - deadline: how far past its budget the window emitted.
  double latency = 0.0;

  int64_t kept_tuples = 0;
  int64_t dropped_tuples = 0;
  /// Queued window tuples the deadline force-shed, per stream (a subset
  /// of dropped_tuples; the rest were policy evictions or summarize-only
  /// bypass).
  std::map<std::string, int64_t> force_shed_by_stream;

  int64_t exact_rows = 0;
  int64_t merged_rows = 0;
  /// ExecStats::TotalWork of the exact plan for this window.
  int64_t exact_work_units = 0;
  /// OpStats::work of the shadow plan for this window (0 under drop-only).
  int64_t shadow_work_units = 0;
};

/// Most recent window records a WindowTraceRecorder keeps (DESIGN.md
/// §9.3): enough for the trace of any bench run, and a fixed bound on a
/// long-running session's trace memory.
inline constexpr size_t kWindowTraceCapacity = 4096;

/// Log of the most recent kWindowTraceCapacity per-window trace records,
/// in emission order. Recording is O(1): once the log is full, each new
/// record discards the oldest (the counters in MetricsRegistry and
/// total_recorded() keep whole-run totals regardless).
class WindowTraceRecorder {
 public:
  void Record(WindowTraceRecord record);

  const std::deque<WindowTraceRecord>& records() const { return records_; }
  /// Total records ever recorded (>= records().size() once full).
  int64_t total_recorded() const { return total_recorded_; }

  /// Overwrites the log wholesale; `records` holds at most
  /// kWindowTraceCapacity entries. Snapshot restore only (DESIGN.md §14).
  void Restore(std::deque<WindowTraceRecord> records,
               int64_t total_recorded) {
    records_ = std::move(records);
    total_recorded_ = total_recorded;
  }

 private:
  std::deque<WindowTraceRecord> records_;
  int64_t total_recorded_ = 0;
};

}  // namespace datatriage::obs

#endif  // DATATRIAGE_OBS_TRACE_H_
