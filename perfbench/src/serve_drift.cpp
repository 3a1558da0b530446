// serve_drift — the Graph service with a drifting Zipf hot set (its
// maintenance ingest writes sit beside the walks' reads): 64 threads on
// 8 nodes, ServeMode::kTracked, link layer on, default traffic.  Each op
// is one ServingRuntime::run_window.  Ops run in episodes of whole
// drift periods; each episode is a fresh service whose traffic seed is
// derived from the workload seed.  Every window's trace is used once,
// and link frames, the dense incremental/aged correlation and the
// budgeted placement run on every op.
//
// run_window hides the scheduler call, so the traced pass measures it
// with a shadow ClusterRuntime that replays each window's trace under
// the service's placement, outside the op.  The shadow's DsmStats and
// NetCounters must stay equal to the service's, which proves it repeats
// the same simulated work.
#include <optional>

#include "harness.hpp"
#include "runtime/cluster_runtime.hpp"
#include "serve/graph_service.hpp"
#include "serve/reqgen.hpp"
#include "serve/serving_runtime.hpp"
#include "trace/trace_utils.hpp"

namespace perfbench {
namespace {

constexpr std::int32_t kThreads = 64;
constexpr actrack::NodeId kNodes = 8;
constexpr std::int32_t kDriftPeriods = 16;  // per episode
constexpr std::int32_t kEpisodes = 8;       // distinct traffic seeds

class ServeDrift final : public BenchWorkload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    serving_.reset();
    shadow_.reset();
    workload_.reset();
  }

  [[nodiscard]] std::int64_t warmup_ops() const override {
    return episode_windows();
  }
  [[nodiscard]] std::int64_t round_ops() const override {
    return episode_windows();
  }
  [[nodiscard]] std::int64_t digest_period() const override {
    return episode_windows() * kEpisodes;
  }

  void before_op(std::int64_t index, Tracer* tracer) override {
    if (index % episode_windows() == 0) {
      start_episode((index / episode_windows()) % kEpisodes, tracer != nullptr);
    }
    before_.emplace(serving_->placement());
    actrack::ClusterRuntime& cluster = serving_->cluster();
    work_before_ = {cluster.dsm().stats(), cluster.network().totals()};
  }

  void run_op(std::int64_t /*index*/, Tracer* tracer) override {
    const LayerSpan span(tracer, "serve.window");
    window_ = serving_->run_window();
  }

  [[nodiscard]] OpResult finish_op(std::int64_t /*index*/,
                                   Tracer* tracer) override {
    const std::int32_t iter = window_.window + 1;
    const actrack::serve::GraphConfig& config = workload_->config();
    const std::int64_t per_partition =
        static_cast<std::int64_t>(config.pages_per_partition) *
        config.vertices_per_page;
    const auto generated = static_cast<std::int64_t>(
        generator_
            ->window(window_.window,
                     workload_->drift().rotation_of(window_.window) *
                         per_partition)
            .size());

    OpResult out;
    actrack::ClusterRuntime& cluster = serving_->cluster();
    out.work = {cluster.dsm().stats(), cluster.network().totals()};
    Digest digest;
    digest.add(window_.served);
    digest.add(window_.p50_us);
    digest.add(window_.p95_us);
    digest.add(window_.p99_us);
    digest.add(window_.moved_threads);
    digest.add(window_.moved_bytes);
    digest.add(window_.migration_us);
    digest.add(window_.tracked_pages);
    digest.add(window_.metrics.elapsed_us);
    for (const actrack::NodeId node : serving_->placement().node_of_thread()) {
      digest.add(node);
    }
    digest.add(out.work);
    out.digest = digest.value();

    require(out.error, window_.served == generated,
            "served != requests generated");
    require(out.error,
            window_.moved_bytes <= serving_->config().budget_bytes,
            "window moved more bytes than its budget");
    require(out.error,
            before_->migration_distance(serving_->placement()) ==
                window_.moved_threads,
            "placement change != threads reported moved");
    check_counters(out.error, out.work, /*link=*/true);

    if (tracer != nullptr) {
      count_work(*tracer, out.work, &work_before_);
      tracer->count("serve.requests", static_cast<double>(window_.served));
      tracer->count("serve.moved_bytes",
                    static_cast<double>(window_.moved_bytes));
      tracer->count("serve.sim_p99_us", static_cast<double>(window_.p99_us));
      replay_on_shadow(iter, tracer, out.error);
    }
    return out;
  }

 private:
  [[nodiscard]] std::int64_t episode_windows() const {
    return static_cast<std::int64_t>(kDriftPeriods) *
           actrack::serve::TrafficConfig{}.drift_period;
  }

  void start_episode(std::int64_t episode, bool with_shadow) {
    serving_.reset();
    shadow_.reset();
    actrack::serve::GraphConfig config;
    config.traffic.seed =
        seed_ * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(episode);
    workload_ = std::make_unique<actrack::serve::GraphServiceWorkload>(
        kThreads, config);
    generator_.emplace(config.traffic, workload_->num_vertices());
    actrack::RuntimeConfig runtime;
    runtime.cost.link.enabled = true;
    const actrack::serve::ServeConfig serve;
    const actrack::Placement start =
        actrack::Placement::stretch(kThreads, kNodes);
    serving_.emplace(*workload_, start, runtime, serve);
    serving_->run_init();
    if (with_shadow) {
      runtime.sched.record_segment_ends = true;
      shadow_.emplace(*workload_, start, runtime);
      shadow_->run_init();
      tracker_.per_page_us = serve.track_per_page_us;
      tracker_.bitmaps.assign(
          static_cast<std::size_t>(kThreads),
          actrack::DynamicBitset(workload_->num_pages()));
      shadow_->scheduler().set_inline_tracker(&tracker_);
    }
  }

  /// Re-runs the window just served on the shadow runtime, timing trace
  /// generation, validation and the scheduler as side spans.
  void replay_on_shadow(std::int32_t iter, Tracer* tracer,
                        std::string& error) {
    actrack::IterationTrace trace;
    {
      const LayerSpan span(tracer, "apps.gen", /*side=*/true);
      trace = workload_->iteration(iter);
    }
    {
      const LayerSpan span(tracer, "trace.validate", /*side=*/true);
      actrack::validate_trace(trace, workload_->num_pages());
    }
    actrack::IterationResult result;
    {
      const LayerSpan span(tracer, "sched.run", /*side=*/true);
      result = shadow_->scheduler().run_iteration(trace, shadow_->placement());
    }
    // The service clears its first-touch bitmaps after every evaluated
    // window (ServeConfig::track_every == 1).
    for (actrack::DynamicBitset& bitmap : tracker_.bitmaps) bitmap.clear();
    if (!(serving_->placement() == shadow_->placement())) {
      (void)shadow_->migrate_to(serving_->placement());
    }
    const auto accesses = static_cast<double>(count_accesses(trace));
    tracer->count("apps.accesses", accesses);
    tracer->count("sched.accesses", accesses);
    tracer->count("sched.context_switches",
                  static_cast<double>(result.context_switches));
    tracer->count("sched.lock_acquires",
                  static_cast<double>(result.lock_acquires));
    actrack::ClusterRuntime& cluster = serving_->cluster();
    require(error,
            same_work({shadow_->dsm().stats(), shadow_->network().totals()},
                      {cluster.dsm().stats(), cluster.network().totals()}),
            "shadow replay diverged from the service");
  }

  std::uint64_t seed_ = 0;
  std::unique_ptr<actrack::serve::GraphServiceWorkload> workload_;
  std::optional<actrack::serve::RequestGenerator> generator_;
  std::optional<actrack::serve::ServingRuntime> serving_;
  /// The service's placement when the current op started.
  std::optional<actrack::Placement> before_;
  SimWork work_before_;
  actrack::serve::WindowStats window_;

  std::optional<actrack::ClusterRuntime> shadow_;
  actrack::InlineTracker tracker_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_serve_drift() {
  return std::make_unique<ServeDrift>();
}

}  // namespace perfbench
