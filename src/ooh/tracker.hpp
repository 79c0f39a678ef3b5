// The OoH userspace library: a unified dirty-page tracker API over the four
// techniques the paper compares (/proc, userfaultfd, SPML, EPML), a
// KVM-page_track-style write-protection backend (wp), and an oracle
// (zero-cost ground truth, the hypothetical technique of §VI-B).
//
// Tracker lifecycle:
//     init()            one-time setup (ufd registration, OoH PML init)
//     begin_interval()  arm tracking for a new interval (clear_refs, re-WP)
//     ... tracked process runs ...
//     collect()         harvest dirty GVAs for the interval
//     shutdown()        teardown
//
// Per-phase virtual time is attributed to Phases so benches can report the
// paper's Tracker-side costs (Fig. 3, Table I "On Tracker").
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "base/types.hpp"
#include "base/vtime.hpp"
#include "guest/kernel.hpp"
#include "guest/process.hpp"

namespace ooh::lib {

enum class Technique { kProc, kUfd, kSpml, kEpml, kWp, kSeg, kOracle };

[[nodiscard]] std::string_view technique_name(Technique t) noexcept;

/// Tracker-side time split by lifecycle phase.
struct Phases {
  VirtDuration init{0};
  VirtDuration arm{0};       ///< begin_interval total (clear_refs / re-protect).
  VirtDuration collect{0};   ///< address-collection total (incl. reverse map).
  VirtDuration monitor{0};   ///< tracker work during monitoring (ufd fault service).
  u64 intervals = 0;
  u64 collected_pages = 0;   ///< sum over intervals (after per-interval dedup).

  [[nodiscard]] VirtDuration tracker_total() const noexcept {
    return init + arm + collect + monitor;
  }
};

class DirtyTracker {
 public:
  DirtyTracker(guest::GuestKernel& kernel, guest::Process& proc)
      : kernel_(kernel), proc_(proc) {}
  virtual ~DirtyTracker() = default;

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  [[nodiscard]] virtual Technique technique() const noexcept = 0;
  [[nodiscard]] std::string_view name() const noexcept {
    return technique_name(technique());
  }

  /// One-time setup. If the backend's resources cannot be allocated
  /// (bad_alloc — real or injected), the tracker degrades gracefully: it
  /// constructs its fallback_technique() tracker and delegates the whole
  /// lifecycle to it, counting Event::kTrackerDegraded. The failed
  /// attempt's virtual time counts in the fallback's reported init.
  /// Techniques with no weaker sibling rethrow.
  void init();
  void begin_interval();
  /// Dirty page GVAs (page-aligned, deduplicated, sorted) for the interval.
  [[nodiscard]] std::vector<Gva> collect();
  void shutdown();

  /// Pages known to have been lost (ring overflow). 0 for exact techniques.
  [[nodiscard]] u64 dropped() const {
    return fallback_ ? fallback_->dropped() : do_dropped();
  }

  /// True when init() fell back to a weaker technique.
  [[nodiscard]] bool degraded() const noexcept { return fallback_ != nullptr; }
  /// The technique actually doing the tracking (the fallback's when degraded).
  [[nodiscard]] Technique effective_technique() const noexcept {
    return fallback_ ? fallback_->effective_technique() : technique();
  }

  [[nodiscard]] const Phases& phases() const noexcept {
    return fallback_ ? fallback_->phases() : phases_;
  }
  [[nodiscard]] guest::Process& process() noexcept { return proc_; }

 protected:
  virtual void do_init() = 0;
  virtual void do_begin_interval() = 0;
  [[nodiscard]] virtual std::vector<Gva> do_collect() = 0;
  virtual void do_shutdown() = 0;
  [[nodiscard]] virtual u64 do_dropped() const { return 0; }
  /// The weaker technique to degrade to when do_init() hits bad_alloc.
  /// Returning the tracker's own technique means "no fallback: rethrow".
  [[nodiscard]] virtual Technique fallback_technique() const noexcept {
    return technique();
  }

  guest::GuestKernel& kernel_;
  guest::Process& proc_;
  Phases phases_;
  std::unique_ptr<DirtyTracker> fallback_;  ///< set when init() degraded.
};

/// Factory over the technique enum; SPML/EPML load the OoH kernel module on
/// init() if it is not already loaded in the right mode.
[[nodiscard]] std::unique_ptr<DirtyTracker> make_tracker(Technique t,
                                                         guest::GuestKernel& kernel,
                                                         guest::Process& proc);

}  // namespace ooh::lib
