// Measurement harness of the host-cost benchmark: options, host clocks,
// timing spans, per-round accounting and the output checks.
//
// A run repeats one workload's *round* (every cell of the workload once)
// until the requested seconds are spent. Round 0 warms caches up and is not
// reported. Each later round yields one sample of wall time (timed sections
// only, summed over cells), set-up time and simulated accesses, and is
// followed by one run of the host-speed reference kernel; the printed
// end-to-end times are medians over rounds of the round's times calibrated
// by that reference (Round::calibrated).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/counters.hpp"
#include "ooh/testbed.hpp"

namespace perfbench {

using ooh::u64;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook for the self-tests: drop one collected page in the first
  /// access cell so the output checks must fail it.
  bool mutate_drop_page = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_out;
};

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host worker threads available to a workload: the hardware concurrency.
[[nodiscard]] unsigned nproc();

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder. Disabled, every call is a branch on a bool and
/// records nothing; enabled, each span keeps name, start, end, parent and
/// host thread, and the whole set is written out once at the end.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = -1;
    unsigned tid = 0;
  };

  class Span {
   public:
    Span(Tracer* tracer, std::string_view name, std::int64_t parent);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    [[nodiscard]] std::int64_t id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    std::string name_;
    double start_s_ = 0.0;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span whose parent is the innermost open span of this thread.
  [[nodiscard]] Span span(std::string_view name) { return Span(this, name, -2); }
  /// Open a span under an explicit parent (a span opened on another thread).
  [[nodiscard]] Span span_under(std::string_view name, std::int64_t parent) {
    return Span(this, name, parent);
  }
  /// The innermost open span of the calling thread, or -1.
  [[nodiscard]] std::int64_t current() const;

  /// Sum of the durations of every recorded span called `name`.
  [[nodiscard]] double total_s(std::string_view name) const;
  [[nodiscard]] std::size_t size() const;

  /// Chrome trace-event JSON ("X" events, microseconds); Perfetto and
  /// chrome://tracing open it.
  void write_chrome(const std::string& path) const;

 private:
  friend class Span;
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::int64_t next_id_ = 0;
  double origin_s_ = now_s();
};

// ---- per-round accounting ----------------------------------------------------

/// Event counters summed over every vCPU of every tenant VM of `bed`.
[[nodiscard]] ooh::EventCounters bed_counters(ooh::lib::TestBed& bed);

/// FNV-1a digest of every vCPU clock and counter of `bed`. Events listed in
/// `skip` are left out (counts that depend on host thread timing).
[[nodiscard]] u64 bed_digest(ooh::lib::TestBed& bed,
                             std::initializer_list<ooh::Event> skip = {});

/// Fold `v` into an FNV-1a digest.
void fnv(u64& h, u64 v);

/// Host seconds one enabled span costs to open, close and record.
[[nodiscard]] double span_cost_s();

// ---- host-speed reference ----------------------------------------------------

/// Worker-seconds of the host-speed reference: a fixed memory-bound kernel
/// that shares no code with the simulator. Each of `threads` threads fills a
/// private 32 MiB array, makes kReferenceUpdates random read-modify-writes
/// and then follows a pseudo-random cycle through it for kReferenceChase
/// dependent loads; each thread times its own loops and the result is the
/// sum. The arrays are freed before it returns.
[[nodiscard]] double reference_s(unsigned threads);

/// What reference_s(nproc()) takes on a quiet 4-vCPU Xeon host. The
/// calibrated times are host times scaled to a host this fast.
inline constexpr double kReferenceNominalS = 1.2;

/// Reset the process's peak-RSS mark (VmHWM) to its current RSS, so memory
/// the reference kernel used does not count as the workload's. False when
/// the kernel does not allow it.
bool reset_peak_rss();

/// The process's peak RSS (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();

/// One cell's measurements and check results. A cell builds its own
/// TestBed and runs on one pool worker; it touches no other cell's state.
class Cell {
 public:
  Cell() = default;
  explicit Cell(Tracer& tracer) : tracer_(&tracer) {}

  [[nodiscard]] Tracer& tracer() noexcept { return *tracer_; }
  void set_name(std::string name) { name_ = std::move(name); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Run `fn` as set-up work: its host seconds go to setup_s.
  void setup(const std::function<void()>& fn);
  /// Run `fn` as measured work: its host seconds go to wall_s.
  void timed(const std::function<void()>& fn);
  /// Run `fn` as measured work spread over worker threads that time
  /// themselves: `fn` returns their summed seconds, which go to wall_s.
  void timed_workers(const std::function<double()>& fn);

  /// A failed check fails the cell.
  void check(bool ok, std::string_view what);
  /// Clock + counter digest of the cell's bed at its end; a later round must
  /// reproduce it (same seed, same cell).
  void set_digest(u64 digest) noexcept { digest_ = digest; }
  /// Fold a value of the seeded input plan into the cell's plan digest, so
  /// the self-tests can see that another seed changed the generated input.
  void note_plan(u64 v) noexcept;

  /// Accumulate event deltas of timed sections (accesses, per-layer counts).
  void add_events(const ooh::EventCounters& delta) { events_.merge(delta); }
  /// Accumulate a named per-layer quantity (count or seconds).
  void add(const std::string& name, double v) { extra_[name] += v; }

 private:
  friend class Round;
  Tracer* tracer_ = nullptr;
  std::string name_;
  double wall_s_ = 0.0;
  double setup_s_ = 0.0;
  ooh::EventCounters events_;
  std::map<std::string, double> extra_;
  u64 plan_ = 0xCBF29CE484222325ULL;
  u64 digest_ = 0;
  std::vector<std::string> failures_;
};

/// Everything one round (every cell of the workload once) measured and
/// checked. Times are sums over cells: cells may run concurrently, each
/// timed on its own worker.
class Round {
 public:
  explicit Round(unsigned index) : index_(index) {}

  /// Fold `cell` in. Cells must be merged in cell order. `digests` holds the
  /// first digest seen per cell name in this process.
  void merge(const Cell& cell, std::map<std::string, u64>& digests);

  [[nodiscard]] unsigned index() const noexcept { return index_; }
  [[nodiscard]] double wall_s() const noexcept { return wall_s_; }
  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }
  /// The reference kernel's worker-seconds, run right after this round.
  void set_reference_s(double s) noexcept { reference_s_ = s; }
  [[nodiscard]] double reference_s() const noexcept { return reference_s_; }
  /// Host seconds scaled to the nominal host speed: the round's times times
  /// kReferenceNominalS / reference_s().
  [[nodiscard]] double calibrated(double host_s) const noexcept {
    return host_s * kReferenceNominalS / reference_s_;
  }
  [[nodiscard]] u64 accesses() const noexcept;
  [[nodiscard]] u64 plan_digest() const noexcept { return plan_; }
  [[nodiscard]] const ooh::EventCounters& events() const noexcept { return events_; }
  [[nodiscard]] const std::map<std::string, double>& extra() const noexcept {
    return extra_;
  }
  [[nodiscard]] u64 attempted() const noexcept { return attempted_; }
  [[nodiscard]] u64 failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  unsigned index_;
  double wall_s_ = 0.0;
  double setup_s_ = 0.0;
  double reference_s_ = kReferenceNominalS;
  ooh::EventCounters events_;
  std::map<std::string, double> extra_;
  u64 plan_ = 0xCBF29CE484222325ULL;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
