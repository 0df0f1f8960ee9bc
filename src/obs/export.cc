#include "src/obs/export.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>

#include "src/common/string_util.h"

namespace datatriage::obs {
namespace {

/// Shortest round-trip double formatting: deterministic and compact
/// ("2.0002", not "2.0002000000000000446"). Metrics values are finite by
/// construction; non-finite values would not be valid JSON.
void AppendDouble(std::string* out, double value) {
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

void AppendInt(std::string* out, int64_t value) {
  out->append(StringPrintf("%" PRId64, value));
}

/// Metric and stream names are engine-generated identifiers
/// ([a-z0-9._]); escape the JSON specials anyway so arbitrary stream
/// names cannot corrupt the document.
void AppendQuoted(std::string* out, const std::string& text) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StringPrintf("\\u%04x", c));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendHistogram(std::string* out, const Histogram& histogram) {
  out->append("{\"count\": ");
  AppendInt(out, histogram.count());
  out->append(", \"sum\": ");
  AppendDouble(out, histogram.sum());
  out->append(", \"min\": ");
  AppendDouble(out, histogram.min());
  out->append(", \"max\": ");
  AppendDouble(out, histogram.max());
  out->append(", \"buckets\": [");
  const std::vector<double>& bounds = histogram.upper_bounds();
  const std::vector<int64_t>& counts = histogram.bucket_counts();
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append("{\"le\": ");
    if (i < bounds.size()) {
      AppendDouble(out, bounds[i]);
    } else {
      out->append("\"+inf\"");
    }
    out->append(", \"count\": ");
    AppendInt(out, counts[i]);
    out->push_back('}');
  }
  out->append("]}");
}

void AppendWindowRecord(std::string* out,
                        const WindowTraceRecord& record) {
  out->append("    {\"window\": ");
  AppendInt(out, record.window);
  out->append(", \"deadline\": ");
  AppendDouble(out, record.deadline);
  out->append(", \"emit_time\": ");
  AppendDouble(out, record.emit_time);
  out->append(", \"latency\": ");
  AppendDouble(out, record.latency);
  out->append(", \"kept\": ");
  AppendInt(out, record.kept_tuples);
  out->append(", \"dropped\": ");
  AppendInt(out, record.dropped_tuples);
  out->append(", \"force_shed\": {");
  bool first = true;
  for (const auto& [stream, count] : record.force_shed_by_stream) {
    if (!first) out->append(", ");
    first = false;
    AppendQuoted(out, stream);
    out->append(": ");
    AppendInt(out, count);
  }
  out->append("}, \"exact_rows\": ");
  AppendInt(out, record.exact_rows);
  out->append(", \"merged_rows\": ");
  AppendInt(out, record.merged_rows);
  out->append(", \"exact_work_units\": ");
  AppendInt(out, record.exact_work_units);
  out->append(", \"shadow_work_units\": ");
  AppendInt(out, record.shadow_work_units);
  out->push_back('}');
}

}  // namespace

std::string MetricsJson(const MetricsRegistry& registry,
                        const WindowTraceRecorder* trace) {
  std::string out;
  out.append("{\n  \"schema_version\": 1,\n  \"counters\": {");
  bool first = true;
  registry.ForEachCounter([&](const std::string& name,
                              const Counter& counter) {
    if (!first) out.append(",");
    first = false;
    out.append("\n    ");
    AppendQuoted(&out, name);
    out.append(": ");
    AppendInt(&out, counter.value());
  });
  out.append(first ? "},\n" : "\n  },\n");

  out.append("  \"gauges\": {");
  first = true;
  registry.ForEachGauge([&](const std::string& name, const Gauge& gauge) {
    if (!first) out.append(",");
    first = false;
    out.append("\n    ");
    AppendQuoted(&out, name);
    out.append(": {\"value\": ");
    AppendDouble(&out, gauge.value());
    out.append(", \"max\": ");
    AppendDouble(&out, gauge.max());
    out.push_back('}');
  });
  out.append(first ? "},\n" : "\n  },\n");

  out.append("  \"histograms\": {");
  first = true;
  registry.ForEachHistogram([&](const std::string& name,
                                const Histogram& histogram) {
    if (!first) out.append(",");
    first = false;
    out.append("\n    ");
    AppendQuoted(&out, name);
    out.append(": ");
    AppendHistogram(&out, histogram);
  });
  out.append(first ? "}" : "\n  }");

  if (trace != nullptr) {
    out.append(",\n  \"windows\": [");
    const std::deque<WindowTraceRecord>& records = trace->records();
    for (size_t i = 0; i < records.size(); ++i) {
      out.append(i > 0 ? ",\n" : "\n");
      AppendWindowRecord(&out, records[i]);
    }
    out.append(records.empty() ? "]" : "\n  ]");
  }
  out.append("\n}\n");
  return out;
}

Status WriteMetricsJson(const MetricsRegistry& registry,
                        const WindowTraceRecorder* trace,
                        const std::string& path) {
  const std::string json = MetricsJson(registry, trace);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "' for writing");
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace datatriage::obs
