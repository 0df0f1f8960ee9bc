#include "triagebench/spans.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace triagebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tag = next.fetch_add(1);
  return tag;
}

void SpanLog::Add(const char* name, const char* category, int64_t start_ns,
                  int64_t end_ns, int64_t arg) {
  if (!enabled_) return;
  const uint32_t tid = ThreadTag();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, category, start_ns, end_ns, arg, tid});
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::WriteChromeJson(const std::string& path,
                              int64_t origin_ns) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", file);
  std::fputs(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"triagebench\"}}",
      file);
  for (const Span& span : spans_) {
    // Complete ("X") events; ts and dur are microseconds.
    std::fprintf(file,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%" PRIu32 ",\"ts\":%.3f,\"dur\":%.3f",
                 span.name, span.category, span.tid,
                 static_cast<double>(span.start_ns - origin_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    if (span.arg >= 0) {
      std::fprintf(file, ",\"args\":{\"n\":%" PRId64 "}", span.arg);
    }
    std::fputs("}", file);
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace triagebench
