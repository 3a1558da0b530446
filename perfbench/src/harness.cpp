#include "harness.hpp"

#include "common/types.hpp"

namespace perfbench {

bool same_work(const SimWork& a, const SimWork& b) {
  const actrack::DsmStats& x = a.dsm;
  const actrack::DsmStats& y = b.dsm;
  const actrack::NetCounters& m = a.net;
  const actrack::NetCounters& n = b.net;
  return x.read_faults == y.read_faults && x.write_faults == y.write_faults &&
         x.remote_misses == y.remote_misses &&
         x.diff_fetches == y.diff_fetches &&
         x.full_page_fetches == y.full_page_fetches &&
         x.diffs_created == y.diffs_created &&
         x.invalidations == y.invalidations && x.gc_runs == y.gc_runs &&
         x.gc_invalidations == y.gc_invalidations &&
         x.ownership_transfers == y.ownership_transfers &&
         x.delta_stalls == y.delta_stalls &&
         x.fetch_retries == y.fetch_retries &&
         x.notices_recovered == y.notices_recovered &&
         m.messages == n.messages && m.total_bytes == n.total_bytes &&
         m.diff_bytes == n.diff_bytes && m.page_bytes == n.page_bytes &&
         m.control_bytes == n.control_bytes &&
         m.stack_bytes == n.stack_bytes && m.frames == n.frames &&
         m.frame_retransmits == n.frame_retransmits && m.acks == n.acks &&
         m.link_bytes == n.link_bytes && m.link_stall_us == n.link_stall_us;
}

void Digest::add(std::int64_t value) {
  auto v = static_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    h_ ^= v & 0xffU;
    h_ *= 0x100000001b3ULL;
    v >>= 8;
  }
}

void Digest::add(const SimWork& work) {
  const actrack::DsmStats& d = work.dsm;
  for (const std::int64_t v :
       {d.read_faults, d.write_faults, d.remote_misses, d.diff_fetches,
        d.full_page_fetches, d.diffs_created, d.invalidations, d.gc_runs,
        d.gc_invalidations, d.ownership_transfers, d.delta_stalls,
        d.fetch_retries, d.notices_recovered}) {
    add(v);
  }
  const actrack::NetCounters& n = work.net;
  for (const std::int64_t v :
       {n.messages, n.total_bytes, n.diff_bytes, n.page_bytes,
        n.control_bytes, n.stack_bytes, n.frames, n.frame_retransmits, n.acks,
        n.link_bytes, n.link_stall_us}) {
    add(v);
  }
}

std::uint32_t Digest::value() const {
  return static_cast<std::uint32_t>(h_ ^ (h_ >> 32));
}

void require(std::string& error, bool ok, const std::string& what) {
  if (!ok && error.empty()) error = what;
}

void check_counters(std::string& error, const SimWork& work, bool link) {
  const actrack::DsmStats& d = work.dsm;
  const actrack::NetCounters& n = work.net;
  require(error, d.fetch_retries == 0 && d.notices_recovered == 0,
          "fault recovery counters moved on a fault-free run");
  require(error, n.page_bytes == d.full_page_fetches * actrack::kPageSize,
          "page bytes != full-page fetches x page size");
  require(error, d.remote_misses <= d.full_page_fetches + d.diff_fetches,
          "more remote misses than fetches");
  require(error, n.messages >= 2 * (d.full_page_fetches + d.diff_fetches),
          "fewer messages than fetch request/reply pairs");
  require(error,
          n.total_bytes >=
              n.diff_bytes + n.page_bytes + n.control_bytes + n.stack_bytes,
          "wire bytes below the payload classes' sum");
  if (link) {
    require(error, n.frames >= n.messages && n.link_bytes >= n.total_bytes,
            "link layer carried less than the messages sent");
  } else {
    require(error, n.frames == 0 && n.acks == 0 && n.link_bytes == 0,
            "link counters moved with the link layer off");
  }
}

void count_work(Tracer& tracer, const SimWork& after, const SimWork* before) {
  const SimWork zero;
  const SimWork& b = before != nullptr ? *before : zero;
  const auto delta = [](std::int64_t x, std::int64_t y) {
    return static_cast<double>(x - y);
  };
  const actrack::DsmStats& d = after.dsm;
  const actrack::NetCounters& n = after.net;
  tracer.count("dsm.remote_misses", delta(d.remote_misses, b.dsm.remote_misses));
  tracer.count("dsm.faults", delta(d.coherence_faults(), b.dsm.coherence_faults()));
  tracer.count("dsm.gc_runs", delta(d.gc_runs, b.dsm.gc_runs));
  tracer.count("dsm.diff_bytes", delta(n.diff_bytes, b.net.diff_bytes));
  tracer.count("net.messages", delta(n.messages, b.net.messages));
  tracer.count("net.bytes", delta(n.total_bytes, b.net.total_bytes));
  tracer.count("link.frames", delta(n.frames, b.net.frames));
  tracer.count("link.retransmits",
               delta(n.frame_retransmits, b.net.frame_retransmits));
}

std::int64_t count_accesses(const actrack::IterationTrace& trace) {
  std::int64_t total = 0;
  for (const actrack::Phase& phase : trace.phases) {
    for (const actrack::ThreadPhase& thread : phase.threads) {
      for (const actrack::Segment& segment : thread.segments) {
        total += static_cast<std::int64_t>(segment.accesses.size());
      }
    }
  }
  return total;
}

void Tracer::record(const char* name, bool side, Clock::time_point start,
                    Clock::time_point end) {
  spans_.push_back(
      {name, op_, side, elapsed_ns(epoch_, start), elapsed_ns(epoch_, end)});
}

std::int64_t Tracer::total_ns(const std::string& name) const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_ns - s.start_ns;
  }
  return total;
}

std::int64_t Tracer::in_op_ns() const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (!s.side && s.op >= 0) total += s.end_ns - s.start_ns;
  }
  return total;
}

}  // namespace perfbench
