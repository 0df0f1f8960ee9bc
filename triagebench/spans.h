// Spans recorded by the benchmark around its own calls into the library,
// written out as Chrome trace-event JSON (loads in Perfetto and
// chrome://tracing). Nothing here reaches inside the program.
#ifndef TRIAGEBENCH_SPANS_H_
#define TRIAGEBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace triagebench {

/// steady_clock reading in nanoseconds (CLOCK_MONOTONIC on Linux).
int64_t NowNs();

/// A small dense id for the calling thread (0 = the first thread that
/// asked, normally the pushing thread).
uint32_t ThreadTag();

class SpanLog {
 public:
  /// Spans are kept only while enabled; Add is a no-op otherwise.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Records [start_ns, end_ns) on the calling thread. `name` and
  /// `category` must be string literals. `arg` (when >= 0) is written as
  /// args.n: events pushed, window id, rows rendered, ...
  void Add(const char* name, const char* category, int64_t start_ns,
           int64_t end_ns, int64_t arg = -1);

  size_t size() const;

  /// Writes {"traceEvents": [...]} with timestamps relative to
  /// `origin_ns`. Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path, int64_t origin_ns) const;

 private:
  struct Span {
    const char* name;
    const char* category;
    int64_t start_ns;
    int64_t end_ns;
    int64_t arg;
    uint32_t tid;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // guards spans_ (sinks run on workers)
  std::vector<Span> spans_;
};

}  // namespace triagebench

#endif  // TRIAGEBENCH_SPANS_H_
