// replace_scale — one re-placement decision per op at 256 threads on 8
// nodes, cycling through the Table 1 apps that run at that size.  An op
// builds a ClusterRuntime on a seeded balanced-random start placement,
// runs init and one tracked iteration (every page read-protected,
// threads run atomically), builds the correlation view the runtime
// selects above the dense ceiling (sparse), places hierarchically and
// migrates.  Correlation and placement do most of the work here and
// none inside a paper_sweep op.
#include <optional>

#include "apps/workload.hpp"
#include "common/rng.hpp"
#include "correlation/sparse.hpp"
#include "correlation/view.hpp"
#include "harness.hpp"
#include "placement/heuristics.hpp"
#include "placement/hierarchical.hpp"
#include "runtime/cluster_runtime.hpp"
#include "trace/trace_utils.hpp"

namespace perfbench {
namespace {

constexpr std::int32_t kThreads = 256;
constexpr actrack::NodeId kNodes = 8;
constexpr std::int32_t kStarts = 16;  // start placements per app

class ReplaceScale final : public BenchWorkload {
 public:
  void setup(std::uint64_t seed) override {
    static_assert(actrack::use_sparse_correlation(kThreads));
    workloads_.clear();
    // Every Table 1 app runs at 256 threads.
    for (const std::string& app : actrack::all_workload_names()) {
      workloads_.push_back(actrack::make_workload(app, kThreads));
    }
    actrack::Rng rng(seed);
    starts_.clear();
    for (std::int32_t c = 0; c < kStarts; ++c) {
      for (std::size_t a = 0; a < workloads_.size(); ++a) {
        starts_.push_back(
            actrack::balanced_random_placement(rng, kThreads, kNodes));
      }
    }
  }

  [[nodiscard]] std::int64_t warmup_ops() const override { return round_ops(); }
  [[nodiscard]] std::int64_t round_ops() const override {
    return static_cast<std::int64_t>(workloads_.size());
  }
  [[nodiscard]] std::int64_t op_class(std::int64_t index) const override {
    return index % round_ops();
  }
  [[nodiscard]] std::int64_t digest_period() const override {
    return static_cast<std::int64_t>(starts_.size());
  }

  void run_op(std::int64_t index, Tracer* tracer) override {
    const std::size_t k = slot(index);
    const actrack::Workload& workload =
        *workloads_[k % workloads_.size()];
    // Each op also frees the previous op's runtime, view and placement.
    const auto rebuild = [&] {
      view_.reset();
      target_.reset();
      runtime_.reset();
      runtime_.emplace(workload, starts_[k]);
    };
    if (tracer == nullptr) {
      rebuild();
      runtime_->run_init();
      tracking_ = runtime_->run_tracked_iteration().tracking;
      view_.emplace(
          actrack::SparseCorrelation::from_bitmaps(tracking_.access_bitmaps));
      target_.emplace(actrack::hierarchical_min_cost_placement(*view_, kNodes));
      migration_ = runtime_->migrate_to(*target_);
      return;
    }
    // The same decision, with the iterations decomposed into the layer
    // calls ClusterRuntime makes.
    {
      const LayerSpan span(tracer, "runtime.build");
      rebuild();
    }
    const auto traced_trace = [&](std::int32_t iter) {
      actrack::IterationTrace trace;
      {
        const LayerSpan span(tracer, "apps.gen");
        trace = workload.iteration(iter);
      }
      {
        const LayerSpan span(tracer, "trace.validate");
        actrack::validate_trace(trace, workload.num_pages());
      }
      tracer->count("apps.accesses", static_cast<double>(count_accesses(trace)));
      return trace;
    };
    const actrack::IterationTrace init = traced_trace(0);
    actrack::IterationResult result;
    {
      const LayerSpan span(tracer, "sched.run");
      result = runtime_->scheduler().run_iteration(init, runtime_->placement());
    }
    tracer->count("sched.accesses", static_cast<double>(count_accesses(init)));
    tracer->count("sched.context_switches",
                  static_cast<double>(result.context_switches));
    tracer->count("sched.lock_acquires",
                  static_cast<double>(result.lock_acquires));
    const actrack::IterationTrace tracked = traced_trace(1);
    {
      const LayerSpan span(tracer, "sched.tracked");
      tracking_ = runtime_->scheduler().run_tracked_iteration(
          tracked, runtime_->placement());
    }
    {
      const LayerSpan span(tracer, "correlation.build");
      view_.emplace(
          actrack::SparseCorrelation::from_bitmaps(tracking_.access_bitmaps));
    }
    {
      const LayerSpan span(tracer, "placement");
      target_.emplace(actrack::hierarchical_min_cost_placement(*view_, kNodes));
    }
    {
      const LayerSpan span(tracer, "sched.migrate");
      migration_ = runtime_->migrate_to(*target_);
    }
  }

  [[nodiscard]] OpResult finish_op(std::int64_t index,
                                   Tracer* tracer) override {
    const actrack::Placement& start = starts_[slot(index)];
    const actrack::Placement& target = *target_;
    const std::int64_t chosen = view_->cut_cost(target.node_of_thread());
    const std::int64_t stretch = view_->cut_cost(
        actrack::Placement::stretch(kThreads, kNodes).node_of_thread());
    const std::int64_t start_cut = view_->cut_cost(start.node_of_thread());
    const std::int32_t moved = start.migration_distance(target);

    OpResult out;
    out.work = {runtime_->dsm().stats(), runtime_->network().totals()};
    Digest digest;
    digest.add(tracking_.tracking_faults);
    digest.add(tracking_.coherence_faults);
    digest.add(tracking_.elapsed_us);
    digest.add(view_->nonzero_pairs());
    digest.add(chosen);
    digest.add(stretch);
    for (const actrack::NodeId node : target.node_of_thread()) digest.add(node);
    digest.add(migration_.elapsed_us);
    digest.add(out.work);
    out.digest = digest.value();

    const std::vector<std::int32_t> sizes =
        actrack::balanced_node_sizes(kThreads, kNodes);
    bool balanced = target.num_threads() == kThreads &&
                    target.num_nodes() == kNodes;
    for (actrack::NodeId n = 0; balanced && n < kNodes; ++n) {
      balanced = target.threads_on(n) == sizes[static_cast<std::size_t>(n)];
    }
    require(out.error, balanced, "placement incomplete or unbalanced");
    require(out.error, chosen <= start_cut,
            "chosen cut above the start placement's cut");
    require(out.error, tracking_.tracking_faults > 0,
            "tracked iteration saw no correlation faults");
    require(out.error,
            out.work.net.stack_bytes > 0 || moved == 0,
            "threads moved without stack traffic");
    check_counters(out.error, out.work, /*link=*/false);

    if (tracer != nullptr) {
      count_work(*tracer, out.work, nullptr);
      tracer->count("correlation.nnz",
                    static_cast<double>(view_->nonzero_pairs()));
      tracer->count("placement.cut_ratio",
                    stretch > 0 ? static_cast<double>(chosen) /
                                      static_cast<double>(stretch)
                                : 1.0);
      tracer->count("placement.moved_threads", moved);
      // Hierarchical placement does not promise to beat stretch; count
      // the decisions where it does not.
      tracer->count("placement.over_stretch_frac", chosen > stretch ? 1.0 : 0.0);
    }
    return out;
  }

 private:
  [[nodiscard]] std::size_t slot(std::int64_t index) const {
    return static_cast<std::size_t>(index % digest_period());
  }

  std::vector<std::unique_ptr<actrack::Workload>> workloads_;
  std::vector<actrack::Placement> starts_;

  std::optional<actrack::ClusterRuntime> runtime_;
  actrack::TrackingResult tracking_;
  std::optional<actrack::SparseCorrelation> view_;
  std::optional<actrack::Placement> target_;
  actrack::IterationMetrics migration_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_replace_scale() {
  return std::make_unique<ReplaceScale>();
}

}  // namespace perfbench
