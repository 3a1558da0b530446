// paper_sweep — the Table 2 shape: the eight Table 2 apps at 64 threads
// on 8 nodes (LRC), each op one exp::TrialRunner::run_trial over a
// seeded random configuration with >= 2 threads per node: init, one
// settle iteration, two measured iterations.  Trace generation and the
// scheduler/DSM hot path do almost all the work; correlation and
// placement run only in set-up, for the cut-cost series.
#include <optional>

#include "apps/workload.hpp"
#include "common/rng.hpp"
#include "exp/paper_ref.hpp"
#include "exp/presets.hpp"
#include "exp/runner.hpp"
#include "harness.hpp"
#include "placement/heuristics.hpp"
#include "runtime/cluster_runtime.hpp"
#include "trace/trace_utils.hpp"

namespace perfbench {
namespace {

constexpr std::int32_t kConfigs = 300;  // per app, as in Table 2
constexpr std::int32_t kSettle = 1;
constexpr std::int32_t kMeasured = 2;
constexpr std::int32_t kMinPerNode = 2;

class PaperSweep final : public BenchWorkload {
 public:
  void setup(std::uint64_t seed) override {
    apps_.clear();
    for (const actrack::exp::Table2Row& row : actrack::exp::kTable2) {
      apps_.emplace_back(row.name);
    }
    // The cut-cost series: one tracked collection pass per app.
    std::vector<actrack::CorrelationMatrix> maps;
    for (const std::string& app : apps_) {
      const auto workload = actrack::make_workload(app, actrack::exp::kThreads);
      maps.push_back(
          actrack::collect_correlations(*workload, actrack::exp::kNodes));
    }
    actrack::Rng rng(seed);
    specs_.clear();
    placements_.clear();
    cuts_.clear();
    for (std::int32_t c = 0; c < kConfigs; ++c) {
      for (std::size_t a = 0; a < apps_.size(); ++a) {
        actrack::Placement placement = actrack::random_placement(
            rng, actrack::exp::kThreads, actrack::exp::kNodes, kMinPerNode);
        cuts_.push_back(maps[a].cut_cost(placement.node_of_thread()));
        placements_.push_back(placement);
        specs_.push_back(actrack::exp::measured_spec(
            "paper_sweep", apps_[a] + "#" + std::to_string(c), apps_[a],
            std::move(placement), kMeasured, kSettle));
      }
    }
  }

  [[nodiscard]] std::int64_t warmup_ops() const override { return round_ops(); }
  [[nodiscard]] std::int64_t round_ops() const override {
    return static_cast<std::int64_t>(apps_.size());
  }
  [[nodiscard]] std::int64_t op_class(std::int64_t index) const override {
    return index % round_ops();
  }
  [[nodiscard]] std::int64_t digest_period() const override {
    return static_cast<std::int64_t>(specs_.size());
  }

  void run_op(std::int64_t index, Tracer* tracer) override {
    const std::size_t k = slot(index);
    if (tracer == nullptr) {
      const actrack::exp::TrialRecord record = actrack::exp::TrialRunner::run_trial(
          {&specs_[k], static_cast<std::int32_t>(index)});
      measured_us_ = record.metrics.elapsed_us;
      total_us_ = record.totals.elapsed_us;
      work_ = {record.dsm, record.net};
      threads_ = record.threads;
      return;
    }
    // The same trial, decomposed into the layer calls run_trial makes.
    const actrack::exp::ExperimentSpec& spec = specs_[k];
    std::unique_ptr<actrack::Workload> workload;
    {
      const LayerSpan span(tracer, "apps.build");
      workload = actrack::make_workload(spec.workload, spec.threads);
    }
    std::optional<actrack::ClusterRuntime> runtime;
    {
      const LayerSpan span(tracer, "runtime.build");
      runtime.emplace(*workload, placements_[k], spec.config);
    }
    measured_us_ = 0;
    total_us_ = 0;
    for (std::int32_t it = 0; it <= kSettle + kMeasured; ++it) {
      actrack::IterationTrace trace;
      {
        const LayerSpan span(tracer, "apps.gen");
        trace = workload->iteration(it);
      }
      {
        const LayerSpan span(tracer, "trace.validate");
        actrack::validate_trace(trace, workload->num_pages());
      }
      actrack::IterationResult result;
      {
        const LayerSpan span(tracer, "sched.run");
        result = runtime->scheduler().run_iteration(trace, runtime->placement());
      }
      total_us_ += result.elapsed_us;
      if (it > kSettle) measured_us_ += result.elapsed_us;
      const auto accesses = static_cast<double>(count_accesses(trace));
      tracer->count("apps.accesses", accesses);
      tracer->count("sched.accesses", accesses);
      tracer->count("sched.context_switches",
                    static_cast<double>(result.context_switches));
      tracer->count("sched.lock_acquires",
                    static_cast<double>(result.lock_acquires));
    }
    work_ = {runtime->dsm().stats(), runtime->network().totals()};
    threads_ = workload->num_threads();
  }

  [[nodiscard]] OpResult finish_op(std::int64_t index,
                                   Tracer* tracer) override {
    const std::size_t k = slot(index);
    OpResult out;
    out.work = work_;
    Digest digest;
    digest.add(cuts_[k]);
    digest.add(measured_us_);
    digest.add(total_us_);
    digest.add(work_);
    out.digest = digest.value();

    const actrack::Placement& placement = placements_[k];
    bool complete = placement.num_threads() == actrack::exp::kThreads &&
                    placement.num_nodes() == actrack::exp::kNodes;
    for (actrack::NodeId n = 0; complete && n < placement.num_nodes(); ++n) {
      complete = placement.threads_on(n) >= kMinPerNode;
    }
    require(out.error, complete, "configuration incomplete or under-filled");
    require(out.error, threads_ == actrack::exp::kThreads,
            "trial ran the wrong thread count");
    require(out.error, measured_us_ > 0 && total_us_ > measured_us_,
            "measured window not inside the trial");
    check_counters(out.error, work_, /*link=*/false);
    if (tracer != nullptr) count_work(*tracer, work_, nullptr);
    return out;
  }

 private:
  [[nodiscard]] std::size_t slot(std::int64_t index) const {
    return static_cast<std::size_t>(index % digest_period());
  }

  std::vector<std::string> apps_;
  std::vector<actrack::exp::ExperimentSpec> specs_;
  std::vector<actrack::Placement> placements_;
  std::vector<std::int64_t> cuts_;

  actrack::SimTime measured_us_ = 0;
  actrack::SimTime total_us_ = 0;
  SimWork work_;
  std::int32_t threads_ = 0;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_paper_sweep() {
  return std::make_unique<PaperSweep>();
}

}  // namespace perfbench
