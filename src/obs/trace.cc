#include "src/obs/trace.h"

namespace datatriage::obs {

void WindowTraceRecorder::Record(WindowTraceRecord record) {
  ++total_recorded_;
  if (records_.size() >= kWindowTraceCapacity) records_.pop_front();
  records_.push_back(std::move(record));
}

}  // namespace datatriage::obs
