#include "triagebench/replay.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/engine/merge.h"
#include "src/exec/evaluator.h"
#include "src/exec/task_pool.h"
#include "src/plan/binder.h"
#include "src/rewrite/shadow_plan.h"
#include "src/sql/parser.h"
#include "src/synopsis/factory.h"

namespace triagebench {

namespace {

using dt::Status;

/// One window's feed tuples split into the kept and dropped channels at
/// the kept/dropped counts the run reported. The split is spread evenly
/// over the window's arrivals (every stream keeps about the same share).
struct SplitWindow {
  std::map<std::string, dt::exec::Relation> kept;
  std::map<std::string, dt::exec::Relation> dropped;
};

SplitWindow Split(const Feed& feed, const std::vector<size_t>& events,
                  const dt::engine::WindowResult& result) {
  SplitWindow split;
  const double total = static_cast<double>(events.size());
  const double kept_share =
      total > 0 ? static_cast<double>(result.kept_tuples) / total : 0.0;
  for (size_t j = 0; j < events.size(); ++j) {
    const dt::engine::StreamEvent& event = feed.events[events[j]];
    const bool kept = static_cast<int64_t>((j + 1) * kept_share) >
                      static_cast<int64_t>(j * kept_share);
    (kept ? split.kept : split.dropped)[event.stream].push_back(event.tuple);
  }
  return split;
}

double Since(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns);
}

}  // namespace

dt::Result<dt::rewrite::TriagedQuery> Prepare(const WorkloadShape& shape,
                                              const SessionSpec& spec) {
  DT_ASSIGN_OR_RETURN(dt::sql::Statement statement,
                      dt::sql::ParseStatement(spec.sql));
  DT_ASSIGN_OR_RETURN(dt::plan::BoundQuery bound,
                      dt::plan::BindStatement(statement, shape.catalog));
  return dt::rewrite::RewriteForDataTriage(std::move(bound));
}

Status TimePrepare(const WorkloadShape& shape, int repeats, SpanLog* spans,
                   LayerTimes* times) {
  for (int r = 0; r < repeats; ++r) {
    for (const SessionSpec& spec : shape.sessions) {
      const int64_t start = NowNs();
      dt::Result<dt::rewrite::TriagedQuery> prepared = Prepare(shape, spec);
      const int64_t end = NowNs();
      if (!prepared.ok()) return prepared.status();
      spans->Add("prepare", "rewrite", start, end);
      times->prepare_ns += static_cast<double>(end - start);
      ++times->prepares;
    }
  }
  return Status::OK();
}

Status ReplayLayers(const WorkloadShape& shape, const Feed& feed,
                    const std::vector<std::unique_ptr<SessionOut>>& outs,
                    const std::vector<WindowIndex>& indexes, SpanLog* spans,
                    LayerTimes* times) {
  // The workload's own morsel pool, so the exact plan replays with the
  // same kernels the sessions ran.
  std::unique_ptr<dt::exec::TaskPool> pool;
  const size_t intra = shape.server_options.scheduler.intra_session_threads;
  if (intra > 1) pool = std::make_unique<dt::exec::TaskPool>(intra - 1);
  for (size_t s = 0; s < shape.sessions.size(); ++s) {
    const SessionSpec& spec = shape.sessions[s];
    DT_ASSIGN_OR_RETURN(dt::rewrite::TriagedQuery triaged,
                        Prepare(shape, spec));
    const dt::plan::BoundQuery& query = triaged.query;
    // Drop-only sessions build no synopses and evaluate no shadow plan
    // (nor do pattern queries), so neither is replayed for them.
    const bool shadow_side =
        !query.is_pattern() &&
        spec.config.strategy != dt::triage::SheddingStrategy::kDropOnly;
    const dt::synopsis::SynopsisConfig& synopsis_config =
        spec.config.synopsis;
    const dt::plan::LogicalPlan& exact_plan =
        query.has_aggregate ? *triaged.kept_plan : *triaged.kept_output_plan;
    dt::exec::EvalOptions options;
    options.vectorized = spec.config.vectorized_exec;
    options.min_rows = spec.config.vectorized_min_rows;
    options.pool = pool.get();
    options.parallel_min_rows =
        shape.server_options.scheduler.parallel_min_rows;
    dt::engine::AggregationSpec aggregation;
    if (query.has_aggregate) {
      DT_ASSIGN_OR_RETURN(aggregation,
                          dt::engine::MakeAggregationSpec(query));
    }
    std::set<std::string> streams(spec.streams.begin(), spec.streams.end());

    for (const WindowOut& window : outs[s]->windows) {
      const dt::engine::WindowResult& result = window.result;
      auto found = indexes[s].find(result.window);
      if (found == indexes[s].end()) continue;
      SplitWindow split = Split(feed, found->second, result);

      // synopsis: MakeSynopsis + Insert, both channels of every stream.
      dt::rewrite::SynopsisProvider provider;
      std::vector<dt::synopsis::SynopsisPtr> owned;
      dt::synopsis::GroupedEstimate estimate;
      if (shadow_side) {
        const int64_t start = NowNs();
        int64_t inserted = 0;
        for (const std::string& stream : streams) {
          DT_ASSIGN_OR_RETURN(dt::StreamDef def,
                              shape.catalog.GetStream(stream));
          for (dt::plan::Channel channel :
               {dt::plan::Channel::kKept, dt::plan::Channel::kDropped}) {
            DT_ASSIGN_OR_RETURN(
                dt::synopsis::SynopsisPtr synopsis,
                dt::synopsis::MakeSynopsis(synopsis_config, def.schema));
            const dt::exec::Relation& rows =
                (channel == dt::plan::Channel::kKept ? split.kept
                                                     : split.dropped)[stream];
            for (const dt::Tuple& tuple : rows) synopsis->Insert(tuple);
            inserted += static_cast<int64_t>(rows.size());
            provider[dt::exec::ChannelKey{stream, channel}] = synopsis.get();
            owned.push_back(std::move(synopsis));
          }
        }
        const int64_t end = NowNs();
        spans->Add("synopsis.build", "synopsis", start, end, inserted);
        times->synopsis_ns += static_cast<double>(end - start);
        times->synopsis_tuples += inserted;

        // shadow: the dropped plan over the synopses, then the grouped
        // estimate the merge consumes.
        const int64_t shadow_start = NowNs();
        DT_ASSIGN_OR_RETURN(
            dt::synopsis::SynopsisPtr shadow,
            dt::rewrite::EvaluateShadowPlan(*triaged.dropped_plan, provider,
                                            synopsis_config));
        if (query.has_aggregate) {
          DT_ASSIGN_OR_RETURN(estimate,
                              shadow->EstimateGroups(aggregation.group_columns,
                                                     aggregation.agg_columns));
        }
        spans->Add("shadow.eval", "rewrite", shadow_start, NowNs(),
                   result.window);
        times->shadow_ns += Since(shadow_start);
        ++times->shadow_windows;
      }

      // exec: the kept plan over the kept channel.
      dt::exec::RelationProvider kept_inputs;
      for (auto& [stream, rows] : split.kept) {
        kept_inputs[dt::exec::ChannelKey{stream, dt::plan::Channel::kKept}] =
            std::move(rows);
      }
      const int64_t exec_start = NowNs();
      DT_ASSIGN_OR_RETURN(
          dt::exec::Relation kept_rows,
          dt::exec::EvaluatePlan(exact_plan, kept_inputs, nullptr, options));
      spans->Add("exec.eval", "exec", exec_start, NowNs(), result.window);
      times->exec_ns += Since(exec_start);
      ++times->exec_windows;

      // merge: exact accumulators + shadow estimate -> output rows.
      if (query.has_aggregate) {
        const int64_t merge_start = NowNs();
        dt::synopsis::GroupedEstimate merged = dt::engine::AccumulateExact(
            kept_rows, aggregation, options.vectorized);
        DT_ASSIGN_OR_RETURN(dt::exec::Relation exact_out,
                            dt::engine::BuildAggregateRows(
                                merged, query, aggregation, true));
        if (shadow_side) dt::engine::MergeGroupedEstimates(&merged, estimate);
        DT_ASSIGN_OR_RETURN(dt::exec::Relation merged_out,
                            dt::engine::BuildAggregateRows(
                                merged, query, aggregation, false));
        spans->Add("merge", "engine", merge_start, NowNs(), result.window);
        times->merge_ns += Since(merge_start);
        ++times->merge_windows;
      }
    }
  }
  return Status::OK();
}

}  // namespace triagebench
