// perfbench — the repository benchmark.  One workload per process, a
// closed loop on one host thread, inputs generated from --seed.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--digests DIR] [--spans-out FILE] [--write-digests]
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs
// an untraced pass and a traced replay of the same ops and prints the
// per-layer metrics.  The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "speed.hpp"

namespace perfbench {
namespace {

/// Digests are checked exactly for this seed; any seed gets the
/// invariant checks.
constexpr std::uint64_t kDefaultSeed = 1;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// The traced run fails unless its spans cover at least this share of
/// op wall time (the rest is harness code between the layer calls).
constexpr double kMinCover = 0.95;
/// Wall time between speed-gauge samples in the timed phase.
constexpr auto kGaugeInterval = std::chrono::milliseconds(50);

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string digests = "perfbench/digests";
  std::string spans_out;
  bool write_digests = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the self-test checks it).
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},   {"op_ms_p50", "ms"},   {"op_ms_p90", "ms"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"apps.build_ms", "ms"},
    {"apps.gen_ms", "ms"},
    {"apps.accesses", "count"},
    {"trace.validate_ms", "ms"},
    {"runtime.build_ms", "ms"},
    {"sched.run_ms", "ms"},
    {"sched.ns_per_access", "ns"},
    {"sched.context_switches", "count"},
    {"sched.lock_acquires", "count"},
    {"sched.tracked_ms", "ms"},
    {"sched.migrate_ms", "ms"},
    {"dsm.remote_misses", "count"},
    {"dsm.faults", "count"},
    {"dsm.gc_runs", "count"},
    {"dsm.diff_bytes", "bytes"},
    {"net.messages", "count"},
    {"net.bytes", "bytes"},
    {"link.frames", "count"},
    {"link.retransmits", "count"},
    {"correlation.build_ms", "ms"},
    {"correlation.nnz", "count"},
    {"placement.ms", "ms"},
    {"placement.cut_ratio", "ratio"},
    {"placement.moved_threads", "count"},
    {"placement.over_stretch_frac", "frac"},
    {"serve.window_ms", "ms"},
    {"serve.requests", "count"},
    {"serve.moved_bytes", "bytes"},
    {"serve.sim_p99_us", "us"},
    {"spans.cover_frac", "frac"},
    {"spans.overhead_frac", "frac"},
};

// Span name -> per-op mean metric, in ms.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"apps.build", "apps.build_ms"},
    {"apps.gen", "apps.gen_ms"},
    {"trace.validate", "trace.validate_ms"},
    {"runtime.build", "runtime.build_ms"},
    {"sched.run", "sched.run_ms"},
    {"sched.tracked", "sched.tracked_ms"},
    {"sched.migrate", "sched.migrate_ms"},
    {"correlation.build", "correlation.build_ms"},
    {"placement", "placement.ms"},
    {"serve.window", "serve.window_ms"},
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_sweep|replace_scale|serve_drift --seed N --seconds S "
               "--trace 0|1 [--digests DIR] [--spans-out FILE] "
               "[--write-digests]\n",
               error.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-digests") {
      o.write_digests = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--digests") {
        o.digests = value;
      } else if (flag == "--spans-out") {
        o.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::unique_ptr<BenchWorkload> make_workload(const std::string& name) {
  if (name == "paper_sweep") return make_paper_sweep();
  if (name == "replace_scale") return make_replace_scale();
  if (name == "serve_drift") return make_serve_drift();
  usage("unknown workload " + name);
}

std::string digest_path(const Options& o) {
  return o.digests + "/" + o.workload + ".txt";
}

std::vector<std::uint32_t> load_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  std::vector<std::uint32_t> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out.push_back(static_cast<std::uint32_t>(std::stoul(line, nullptr, 16)));
  }
  return out;
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// Linear-interpolated quantile (numpy's default).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Runs ops and checks each one.  Owns the digest comparison and the
/// failure count; exceptions from an op count as failures.
class Runner {
 public:
  Runner(const Options& options, std::vector<std::uint32_t> digests)
      : options_(options), digests_(std::move(digests)) {}

  /// Kept per timed op; small, since the records count in peak RSS.
  struct Op {
    std::int64_t index = 0;
    std::int64_t ns = 0;
    /// Speed-gauge samples taken before the op ran.
    std::ptrdiff_t gauge = 0;
    bool ok = false;
  };

  /// Runs and checks op `index`; copies its simulated work to `work`
  /// when non-null.
  Op run(BenchWorkload& workload, std::int64_t index, Tracer* tracer,
         SimWork* work = nullptr) {
    Op op;
    op.index = index;
    try {
      workload.before_op(index, tracer);
      if (tracer != nullptr) tracer->begin_op(index);
      op.gauge = static_cast<std::ptrdiff_t>(gauge_.samples());
      const Clock::time_point start = Clock::now();
      workload.run_op(index, tracer);
      op.ns = elapsed_ns(start, Clock::now());
      if (tracer != nullptr) tracer->end_op();
      const OpResult result = workload.finish_op(index, tracer);
      if (work != nullptr) *work = result.work;
      std::string error = result.error;
      if (!digests_.empty()) {
        const auto slot = static_cast<std::size_t>(index % workload.digest_period());
        require(error, slot < digests_.size() && digests_[slot] == result.digest,
                "digest mismatch (" + hex(result.digest) + ")");
      }
      op.ok = error.empty();
      if (!op.ok) report(index, error);
    } catch (const std::exception& e) {
      if (tracer != nullptr) tracer->end_op();
      report(index, std::string("threw: ") + e.what());
    }
    return op;
  }

  /// Builds fresh state and runs the warm-up ops; returns the gauge
  /// sample count before it and its wall time in ns.
  std::pair<std::ptrdiff_t, double> setup(BenchWorkload& workload) {
    const auto gauge = static_cast<std::ptrdiff_t>(gauge_.samples());
    const Clock::time_point start = Clock::now();
    workload.setup(options_.seed);
    for (std::int64_t i = 0; i < workload.warmup_ops(); ++i) {
      if (!run(workload, i, nullptr).ok) warmup_failed_ = true;
    }
    const auto ns = static_cast<double>(elapsed_ns(start, Clock::now()));
    gauge_.sample();
    return {gauge, ns};
  }

  /// A wall time taken after `gauge` samples, at the reference speed:
  /// scaled by the two gauge samples on each side of it.
  [[nodiscard]] double scaled(std::ptrdiff_t gauge, double ns) const {
    return ns * gauge_.factor(gauge - 2, gauge + 2);
  }

  /// Timed ops from the first index after warm-up, stopping at the
  /// first round boundary after `seconds`.  Each op runs on `a`, then on
  /// `b` (an identical instance), and its time is the faster of the two:
  /// a burst of host interference rarely hits both, so the percentiles
  /// describe the program rather than its neighbours.  The gauge is
  /// sampled every kGaugeInterval of wall time, between ops.
  std::vector<Op> timed(BenchWorkload& a, BenchWorkload& b, double seconds) {
    std::vector<Op> ops;
    // Reserved up front so the record buffer is never copied while it
    // grows; untouched capacity adds nothing to the resident set.
    ops.reserve(std::size_t{1} << 18);
    const Clock::time_point start = Clock::now();
    Clock::time_point sampled = start;
    std::int64_t index = a.warmup_ops();
    do {
      for (std::int64_t j = 0; j < a.round_ops(); ++j, ++index) {
        Op op = run(a, index, nullptr);
        const Op again = run(b, index, nullptr);
        op.ns = std::min(op.ns, again.ns);
        op.ok = op.ok && again.ok;
        ops.push_back(op);
        if (Clock::now() - sampled >= kGaugeInterval) {
          gauge_.sample();
          sampled = Clock::now();
        }
      }
    } while (static_cast<double>(elapsed_ns(start, Clock::now())) * 1e-9 <
             seconds);
    return ops;
  }

  [[nodiscard]] bool warmup_failed() const noexcept { return warmup_failed_; }
  [[nodiscard]] const SpeedGauge& gauge() const noexcept { return gauge_; }

 private:
  void report(std::int64_t index, const std::string& error) {
    if (++reported_ <= 5) {
      std::fprintf(stderr, "perfbench: %s op %lld failed: %s\n",
                   options_.workload.c_str(), static_cast<long long>(index),
                   error.c_str());
    }
  }

  const Options& options_;
  std::vector<std::uint32_t> digests_;
  SpeedGauge gauge_;
  bool warmup_failed_ = false;
  int reported_ = 0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t count_failed(const std::vector<Runner::Op>& ops) {
  return std::count_if(ops.begin(), ops.end(),
                       [](const Runner::Op& op) { return !op.ok; });
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<std::pair<std::string, double>>& values,
                  const MetricDef* defs, std::size_t count) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    double value = 0.0;
    for (const auto& [name, v] : values) {
      if (name == defs[i].name) value = v;
    }
    out << (i ? ", " : "") << '"' << defs[i].name << "\": {\"value\": "
        << number(value) << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

void print_header(const Options& o) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%s trace=%d "
              "hw_threads=%u build_type=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              number(o.seconds).c_str(), o.trace ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
}

int run_end_to_end(const Options& o, Runner& runner) {
  std::vector<std::pair<std::ptrdiff_t, double>> setups;
  std::unique_ptr<BenchWorkload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    workload = make_workload(o.workload);
    setups.push_back(runner.setup(*workload));
  }
  // The twin each op also runs on; its set-up is not measured.
  const std::unique_ptr<BenchWorkload> twin = make_workload(o.workload);
  runner.setup(*twin);
  const std::vector<Runner::Op> ops = runner.timed(*workload, *twin, o.seconds);

  std::vector<double> setup_s;
  for (const auto& [gauge, ns] : setups) {
    setup_s.push_back(runner.scaled(gauge, ns) * 1e-9);
  }
  std::map<std::int64_t, std::vector<double>> ms_by_class;
  double total_ns = 0.0;
  double raw_ns = 0.0;
  for (const Runner::Op& op : ops) {
    const double ns = runner.scaled(op.gauge, static_cast<double>(op.ns));
    ms_by_class[workload->op_class(op.index)].push_back(ns * 1e-6);
    total_ns += ns;
    raw_ns += static_cast<double>(op.ns);
  }
  const auto class_mean = [&](double q) {
    double sum = 0.0;
    for (const auto& [cls, ms] : ms_by_class) sum += quantile(ms, q);
    return sum / static_cast<double>(ms_by_class.size());
  };
  const auto attempted = static_cast<std::int64_t>(ops.size());
  const std::int64_t failed = count_failed(ops);
  const SpeedGauge& gauge = runner.gauge();
  std::printf("# ops=%lld failed=%lld fail_frac=%s speed=%s (raw ops_per_s=%s)\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              number(static_cast<double>(failed) / static_cast<double>(attempted))
                  .c_str(),
              number(1.0 / gauge.factor(0, static_cast<std::ptrdiff_t>(gauge.samples())))
                  .c_str(),
              number(static_cast<double>(attempted) / (raw_ns * 1e-9)).c_str());
  print_result(!runner.warmup_failed() && failed == 0, attempted, failed,
               {{"ops_per_s", static_cast<double>(attempted) / (total_ns * 1e-9)},
                {"op_ms_p50", class_mean(0.50)},
                {"op_ms_p90", class_mean(0.90)},
                {"setup_s", quantile(setup_s, 0.50)},
                {"peak_rss_mb", peak_rss_mb()}},
               kEndToEnd, std::size(kEndToEnd));
  return 0;
}

void write_spans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "[\n";
  bool first = true;
  for (const Tracer::Span& s : tracer.spans()) {
    out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"ts\": " << number(static_cast<double>(s.start_ns) * 1e-3)
        << ", \"dur\": " << number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ", \"pid\": 1, \"tid\": " << (s.side ? 2 : 1)
        << ", \"args\": {\"op\": " << s.op << "}}";
    first = false;
  }
  out << "\n]\n";
}

int run_traced(const Options& o, Runner& runner) {
  // Two fresh instances run the same op indices, interleaved op by op:
  // one untraced, one traced, so drift in machine speed hits both
  // alike.  Their difference is the tracing overhead; the untraced one
  // also supplies the simulated work the traced one must repeat.
  std::unique_ptr<BenchWorkload> plain_workload = make_workload(o.workload);
  runner.setup(*plain_workload);
  std::unique_ptr<BenchWorkload> traced_workload = make_workload(o.workload);
  runner.setup(*traced_workload);

  const Clock::time_point start = Clock::now();
  Tracer tracer(start);
  std::vector<Runner::Op> plain;
  std::vector<Runner::Op> traced;
  std::int64_t mismatched = 0;
  std::int64_t index = plain_workload->warmup_ops();
  do {
    for (std::int64_t j = 0; j < plain_workload->round_ops(); ++j, ++index) {
      // Alternate which instance goes first: the second run of an op
      // finds warmer caches.
      SimWork ref_work;
      SimWork op_work;
      Runner::Op ref;
      Runner::Op op;
      if (index % 2 == 0) {
        ref = runner.run(*plain_workload, index, nullptr, &ref_work);
        op = runner.run(*traced_workload, index, &tracer, &op_work);
      } else {
        op = runner.run(*traced_workload, index, &tracer, &op_work);
        ref = runner.run(*plain_workload, index, nullptr, &ref_work);
      }
      if (op.ok && ref.ok && !same_work(op_work, ref_work)) {
        op.ok = false;
        ++mismatched;
        std::fprintf(stderr,
                     "perfbench: op %lld simulated different work traced\n",
                     static_cast<long long>(index));
      }
      plain.push_back(ref);
      traced.push_back(op);
    }
  } while (static_cast<double>(elapsed_ns(start, Clock::now())) * 1e-9 <
           o.seconds);

  const auto n = static_cast<double>(plain.size());
  double plain_ns = 0.0;
  double traced_ns = 0.0;
  for (const Runner::Op& op : plain) plain_ns += static_cast<double>(op.ns);
  for (const Runner::Op& op : traced) traced_ns += static_cast<double>(op.ns);

  std::vector<std::pair<std::string, double>> values;
  for (const auto& [span, metric] : kSpanMetrics) {
    values.emplace_back(metric,
                        static_cast<double>(tracer.total_ns(span)) * 1e-6 / n);
  }
  const std::map<std::string, double>& counters = tracer.counters();
  const auto counter = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  for (const auto& [name, total] : counters) values.emplace_back(name, total / n);
  const double sched_accesses = counter("sched.accesses");
  values.emplace_back("sched.ns_per_access",
                      sched_accesses > 0
                          ? static_cast<double>(tracer.total_ns("sched.run")) /
                                sched_accesses
                          : 0.0);
  const double cover = static_cast<double>(tracer.in_op_ns()) / traced_ns;
  values.emplace_back("spans.cover_frac", cover);
  values.emplace_back("spans.overhead_frac", traced_ns / plain_ns - 1.0);

  if (!o.spans_out.empty()) write_spans(o.spans_out, tracer);

  const std::int64_t failed = count_failed(plain) + count_failed(traced);
  const auto attempted = static_cast<std::int64_t>(plain.size() + traced.size());
  std::printf("# ops=%lld per pass, failed=%lld, traced work mismatches=%lld, "
              "span cover %s (min %s)\n",
              static_cast<long long>(plain.size()),
              static_cast<long long>(failed),
              static_cast<long long>(mismatched), number(cover).c_str(),
              number(kMinCover).c_str());
  print_result(!runner.warmup_failed() && failed == 0 && cover >= kMinCover,
               attempted, failed,
               values, kPerLayer, std::size(kPerLayer));
  return 0;
}

/// Runs one digest period of ops on the default seed and writes their
/// digests (used when a change is meant to alter simulated results).
int write_digest_file(const Options& o) {
  std::unique_ptr<BenchWorkload> workload = make_workload(o.workload);
  workload->setup(o.seed);
  std::string lines;
  for (std::int64_t i = 0; i < workload->digest_period(); ++i) {
    workload->before_op(i, nullptr);
    workload->run_op(i, nullptr);
    const OpResult r = workload->finish_op(i, nullptr);
    if (!r.error.empty()) {
      throw std::runtime_error("op " + std::to_string(i) + ": " + r.error);
    }
    lines += hex(r.digest) + '\n';
  }
  std::ofstream out(digest_path(o));
  out << lines;
  if (!out) throw std::runtime_error("cannot write " + digest_path(o));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  try {
    if (o.write_digests) {
      if (o.seed != kDefaultSeed) usage("--write-digests needs the default seed");
      return write_digest_file(o);
    }
    print_header(o);
    Runner runner(o, o.seed == kDefaultSeed ? load_digests(digest_path(o))
                                            : std::vector<std::uint32_t>{});
    return o.trace ? run_traced(o, runner) : run_end_to_end(o, runner);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
