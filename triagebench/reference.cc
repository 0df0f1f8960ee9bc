#include "triagebench/reference.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>

namespace triagebench {

namespace {

using Counts = std::unordered_map<int64_t, int64_t>;

constexpr size_t kMaxProblems = 8;

void Problem(SessionCheck* check, const SessionSpec& spec, int64_t window,
             const char* what, double got, double want) {
  if (check->problems.size() >= kMaxProblems) return;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s window %lld: %s (got %.6g, want %.6g)",
                spec.label.c_str(), static_cast<long long>(window), what,
                got, want);
  check->problems.push_back(buf);
}

int64_t IntAt(const dt::Tuple& tuple, size_t i) {
  return std::llround(tuple.value(i).AsDouble());
}

/// The ideal (shed-nothing) grouped COUNT of one window, by hash
/// counting: for the chain query, count(a) = |R=a| * sum_c |S=(a,c)| *
/// |T=c|.
Counts IdealCounts(const SessionSpec& spec, const Feed& feed,
                   const std::vector<size_t>& events) {
  Counts ideal;
  if (spec.kind == QueryKind::kStreamCount) {
    for (size_t i : events) {
      ++ideal[IntAt(feed.events[i].tuple, spec.group_column)];
    }
    return ideal;
  }
  Counts r, t;
  std::map<std::pair<int64_t, int64_t>, int64_t> s;
  for (size_t i : events) {
    const dt::engine::StreamEvent& event = feed.events[i];
    if (event.stream == "r") {
      ++r[IntAt(event.tuple, 0)];
    } else if (event.stream == "s") {
      ++s[{IntAt(event.tuple, 0), IntAt(event.tuple, 1)}];
    } else {
      ++t[IntAt(event.tuple, 0)];
    }
  }
  Counts s_then_t;  // b -> sum over c of |S=(b,c)| * |T=c|
  for (const auto& [bc, n] : s) {
    auto it = t.find(bc.second);
    if (it != t.end()) s_then_t[bc.first] += n * it->second;
  }
  for (const auto& [a, n] : r) {
    auto it = s_then_t.find(a);
    if (it != s_then_t.end()) ideal[a] = n * it->second;
  }
  return ideal;
}

std::unordered_map<int64_t, double> GroupValues(
    const dt::exec::Relation& rows) {
  std::unordered_map<int64_t, double> values;
  for (const dt::Tuple& row : rows) {
    values[IntAt(row, 0)] += row.value(1).AsDouble();
  }
  return values;
}

double SquaredError(const Counts& ideal,
                    const std::unordered_map<int64_t, double>& actual) {
  double sum = 0.0;
  for (const auto& [group, want] : ideal) {
    auto it = actual.find(group);
    const double diff =
        static_cast<double>(want) - (it == actual.end() ? 0.0 : it->second);
    sum += diff * diff;
  }
  // Spurious groups add error but not cells (paper Sec. 6.3 as used by
  // the figure benches: the mean is over the ideal result's cells).
  for (const auto& [group, got] : actual) {
    if (ideal.count(group) == 0) sum += got * got;
  }
  return sum;
}

void CheckCountWindow(const SessionSpec& spec, const Feed& feed,
                      const WindowIndex& index, const WindowOut& window,
                      SessionCheck* check, RmsTotals* rms) {
  const dt::engine::WindowResult& result = window.result;
  auto it = index.find(result.window);
  static const std::vector<size_t> kNone;
  const std::vector<size_t>& events = it == index.end() ? kNone : it->second;
  const int64_t accounted = result.kept_tuples + result.dropped_tuples;
  if (accounted != static_cast<int64_t>(events.size())) {
    Problem(check, spec, result.window,
            "kept + dropped differs from the feed's window count",
            static_cast<double>(accounted),
            static_cast<double>(events.size()));
  }
  const Counts ideal = IdealCounts(spec, feed, events);
  for (const dt::Tuple& row : result.exact_rows) {
    auto found = ideal.find(IntAt(row, 0));
    const double want =
        found == ideal.end() ? 0.0 : static_cast<double>(found->second);
    if (row.value(1).AsDouble() > want) {
      Problem(check, spec, result.window,
              "exact count exceeds the ideal count", row.value(1).AsDouble(),
              want);
    }
  }
  if (rms == nullptr) return;
  rms->merged_squares += SquaredError(ideal, GroupValues(result.merged_rows));
  rms->exact_squares += SquaredError(ideal, GroupValues(result.exact_rows));
  rms->ideal_cells += static_cast<int64_t>(ideal.size());
}

void CheckMatchWindow(const SessionSpec& spec, const Feed& feed,
                      const std::unordered_map<double, size_t>& by_time,
                      const WindowOut& window, SessionCheck* check) {
  const dt::engine::WindowResult& result = window.result;
  for (const dt::Tuple& row : result.exact_rows) {
    const int64_t key = IntAt(row, 0);
    const size_t steps = row.size() - 1;
    double previous = -std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < steps; ++j) {
      const double t = row.value(1 + j).AsDouble();
      auto it = by_time.find(t);
      if (it == by_time.end()) {
        Problem(check, spec, result.window,
                "match step has no admitted feed event", t, 0.0);
        continue;
      }
      const dt::Tuple& event = feed.events[it->second].tuple;
      if (IntAt(event, 0) != key) {
        Problem(check, spec, result.window, "match step has the wrong key",
                static_cast<double>(IntAt(event, 0)),
                static_cast<double>(key));
      }
      if (IntAt(event, 1) != static_cast<int64_t>(j + 1)) {
        Problem(check, spec, result.window,
                "match step fails its predicate v = step",
                static_cast<double>(IntAt(event, 1)),
                static_cast<double>(j + 1));
      }
      if (!(t > previous)) {
        Problem(check, spec, result.window,
                "match timestamps do not increase", t, previous);
      }
      const Covering covering = CoveringWindowIds(t, spec.range, spec.slide);
      if (result.window < covering.first || result.window > covering.last) {
        Problem(check, spec, result.window,
                "match step lies outside its window", t,
                static_cast<double>(result.window) * spec.slide);
      }
      previous = t;
    }
    const double span =
        row.value(steps).AsDouble() - row.value(1).AsDouble();
    if (span > spec.within) {
      Problem(check, spec, result.window, "match exceeds its WITHIN span",
              span, spec.within);
    }
  }
}

}  // namespace

WindowIndex IndexWindows(const SessionSpec& spec, const Feed& feed,
                         const SessionOut& out) {
  WindowIndex index;
  for (size_t i = out.feed_begin; i < out.feed_end; ++i) {
    const dt::engine::StreamEvent& event = feed.events[i];
    bool read = false;
    for (const std::string& stream : spec.streams) {
      read = read || stream == event.stream;
    }
    const double t = event.tuple.timestamp();
    if (!read || t < out.admit_from) continue;
    const Covering covering = CoveringWindowIds(t, spec.range, spec.slide);
    for (int64_t w = covering.first; w <= covering.last; ++w) {
      index[w].push_back(i);
    }
  }
  return index;
}

int64_t FirstAdmittedWindow(const SessionSpec& spec, const SessionOut& out) {
  if (!std::isfinite(out.admit_from)) return 0;
  // admit_from is a whole number of slides by construction.
  return std::llround(out.admit_from / spec.slide);
}

WindowRange ExpectedWindows(const WindowIndex& index,
                            int64_t first_admitted) {
  WindowRange range;
  if (index.empty()) return range;
  range.first = std::max(index.begin()->first, first_admitted);
  range.last = index.rbegin()->first;
  return range;
}

double RmsTotals::Merged() const {
  return ideal_cells > 0
             ? std::sqrt(merged_squares / static_cast<double>(ideal_cells))
             : 0.0;
}

double RmsTotals::Exact() const {
  return ideal_cells > 0
             ? std::sqrt(exact_squares / static_cast<double>(ideal_cells))
             : 0.0;
}

SessionCheck CheckSession(const SessionSpec& spec, const Feed& feed,
                          const SessionOut& out, const WindowIndex& index,
                          RmsTotals* rms) {
  SessionCheck check;
  const int64_t first_admitted = FirstAdmittedWindow(spec, out);
  const WindowRange expected = ExpectedWindows(index, first_admitted);
  std::vector<const WindowOut*> checked;
  // Windows before the admission boundary: the caller counts them as
  // failed, and they are still checked against the admitted events they
  // cover, but kept out of the RMS error.
  std::vector<const WindowOut*> early;
  std::set<int64_t> seen;
  int64_t previous = -1;
  for (const WindowOut& window : out.windows) {
    const int64_t w = window.result.window;
    if (w <= previous) {
      Problem(&check, spec, w, "window delivered out of order or twice",
              static_cast<double>(w), static_cast<double>(previous + 1));
    }
    previous = w;
    if (w < first_admitted) {
      early.push_back(&window);
      continue;
    }
    if (w < expected.first || w > expected.last) {
      Problem(&check, spec, w, "window outside the expected range",
              static_cast<double>(w), static_cast<double>(expected.first));
      continue;
    }
    seen.insert(w);
    checked.push_back(&window);
  }

  if (spec.kind == QueryKind::kMatch) {
    std::unordered_map<double, size_t> by_time;
    for (const auto& [w, events] : index) {
      for (size_t i : events) {
        by_time.emplace(feed.events[i].tuple.timestamp(), i);
      }
    }
    for (const auto* list : {&checked, &early}) {
      for (const WindowOut* window : *list) {
        CheckMatchWindow(spec, feed, by_time, *window, &check);
      }
    }
    return check;
  }
  for (const WindowOut* window : checked) {
    CheckCountWindow(spec, feed, index, *window, &check, rms);
  }
  for (const WindowOut* window : early) {
    CheckCountWindow(spec, feed, index, *window, &check, nullptr);
  }
  // Windows that never arrived lose their whole ideal answer.
  for (int64_t w = expected.first; w <= expected.last; ++w) {
    auto it = index.find(w);
    if (seen.count(w) > 0 || it == index.end()) continue;
    const Counts ideal = IdealCounts(spec, feed, it->second);
    const double squares = SquaredError(ideal, {});
    rms->merged_squares += squares;
    rms->exact_squares += squares;
    rms->ideal_cells += static_cast<int64_t>(ideal.size());
  }
  return check;
}

}  // namespace triagebench
