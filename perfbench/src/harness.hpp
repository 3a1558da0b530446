// Closed-loop benchmark harness shared by the three workloads.
//
// A workload is a sequence of ops indexed from 0.  Set-up builds fresh
// objects and runs the first warmup_ops() ops; the timed phase then
// runs ops one after another on this thread (the next op starts when
// the previous one returns) and stops at a multiple of round_ops(), so
// every run measures the same mix.  Op outputs are checked between
// ops, outside the timed interval.
//
// The traced pass replays the same op indices with a Tracer attached:
// spans around the calls into each layer and counters read from the
// simulator.  Its simulated work (DsmStats and NetCounters) must equal
// the untraced pass's, op by op.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dsm/protocol.hpp"
#include "net/network.hpp"
#include "trace/access.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer;

[[nodiscard]] inline std::int64_t elapsed_ns(Clock::time_point from,
                                             Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// The simulated work of one op: what a host-only change must leave
/// exactly equal.
struct SimWork {
  actrack::DsmStats dsm;
  actrack::NetCounters net;
};

[[nodiscard]] bool same_work(const SimWork& a, const SimWork& b);

/// FNV-1a over 64-bit words, folded to 32 bits for the digest files.
class Digest {
 public:
  void add(std::int64_t value);
  void add(const SimWork& work);
  [[nodiscard]] std::uint32_t value() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What a finished op produced, computed after its timed interval.
struct OpResult {
  std::uint32_t digest = 0;
  SimWork work;
  /// First violated invariant; empty when the op is correct.
  std::string error;
};

/// Records `what` in `error` unless `ok` or an earlier check failed.
void require(std::string& error, bool ok, const std::string& what);

/// Checks that DSM and network counters describe the same traffic on a
/// fault-free run.
void check_counters(std::string& error, const SimWork& work, bool link);

/// Counts one op's DSM, network and link work on the tracer: `after`
/// minus `before` (null when the op started from zero).
void count_work(Tracer& tracer, const SimWork& after, const SimWork* before);

/// Page accesses in a trace (the unit of scheduler work).
[[nodiscard]] std::int64_t count_accesses(const actrack::IterationTrace& trace);

/// Span and counter recorder for the traced pass.  Spans of one op
/// share the op's index; spans outside an op (side calls that measure
/// a layer the op hides) are marked as such and excluded from the
/// op-coverage ratio.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::int64_t op = -1;
    bool side = false;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  void begin_op(std::int64_t index) { op_ = index; }
  void end_op() { op_ = -1; }

  void record(const char* name, bool side, Clock::time_point start,
              Clock::time_point end);

  /// Adds `value` to the named counter (summed over ops).
  void count(const std::string& name, double value) { counters_[name] += value; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::map<std::string, double>& counters() const noexcept {
    return counters_;
  }
  /// Summed duration of the spans with this name.
  [[nodiscard]] std::int64_t total_ns(const std::string& name) const;
  /// Summed duration of all in-op spans.
  [[nodiscard]] std::int64_t in_op_ns() const;

 private:
  Clock::time_point epoch_;
  std::int64_t op_ = -1;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// Records a span around its own lifetime; does nothing when `tracer`
/// is null, which is the untraced path.
class LayerSpan {
 public:
  LayerSpan(Tracer* tracer, const char* name, bool side = false)
      : tracer_(tracer), name_(name), side_(side) {
    if (tracer_ != nullptr) start_ = Clock::now();
  }
  ~LayerSpan() {
    if (tracer_ != nullptr) tracer_->record(name_, side_, start_, Clock::now());
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  bool side_;
  Clock::time_point start_;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Builds every object the ops need from `seed` (fresh each call).
  /// The harness times this together with the warm-up ops.
  virtual void setup(std::uint64_t seed) = 0;
  [[nodiscard]] virtual std::int64_t warmup_ops() const = 0;
  /// The timed phase ends at a multiple of this many ops.
  [[nodiscard]] virtual std::int64_t round_ops() const = 0;
  /// Op outputs repeat with this period in the op index; the digest
  /// file of the default seed holds one entry per index in a period.
  [[nodiscard]] virtual std::int64_t digest_period() const = 0;

  /// Ops of one class do comparable work (one app of a cycle); the
  /// latency percentiles are taken per class and averaged, because the
  /// classes' op times differ by up to 10x and a pooled percentile would
  /// fall in the gap between two classes.
  [[nodiscard]] virtual std::int64_t op_class(std::int64_t /*index*/) const {
    return 0;
  }

  /// Untimed preparation before op `index` (e.g. a new serving episode).
  virtual void before_op(std::int64_t /*index*/, Tracer* /*tracer*/) {}
  /// The timed op.  A non-null tracer selects the traced path, which
  /// must do the same simulated work.
  virtual void run_op(std::int64_t index, Tracer* tracer) = 0;
  /// Untimed: digest, simulated work and invariant check of the op
  /// that just ran; on the traced path also its counters and any side
  /// calls that measure a layer the op hides.
  [[nodiscard]] virtual OpResult finish_op(std::int64_t index,
                                           Tracer* tracer) = 0;
};

[[nodiscard]] std::unique_ptr<BenchWorkload> make_paper_sweep();
[[nodiscard]] std::unique_ptr<BenchWorkload> make_replace_scale();
[[nodiscard]] std::unique_ptr<BenchWorkload> make_serve_drift();

}  // namespace perfbench
