#include "ooh/tracker.hpp"

#include <algorithm>
#include <new>

#include "base/clock.hpp"

namespace ooh::lib {

std::string_view technique_name(Technique t) noexcept {
  switch (t) {
    case Technique::kProc: return "/proc";
    case Technique::kUfd: return "ufd";
    case Technique::kSpml: return "SPML";
    case Technique::kEpml: return "EPML";
    case Technique::kWp: return "wp";
    case Technique::kSeg: return "seg";
    case Technique::kOracle: return "oracle";
  }
  return "?";
}

void DirtyTracker::init() {
  {
    VirtualClock::Scope s(kernel_.ctx().clock, phases_.init);
    try {
      do_init();
      return;
    } catch (const std::bad_alloc&) {
      const Technique fb = fallback_technique();
      if (fb == technique()) throw;  // nothing weaker to degrade to
      // Graceful degradation (visible, audited): the preferred backend's
      // resources could not be allocated, so the session continues on the
      // weaker sibling instead of dying — EPML falls back to SPML, wp to
      // /proc soft-dirty.
      sim::ExecContext& ctx = kernel_.ctx();
      ctx.count(Event::kTrackerDegraded);
      if (ctx.faults != nullptr) ctx.faults->note_degradation();
      ctx.fault_audit();
      fallback_ = make_tracker(fb, kernel_, proc_);
    }
  }
  // phases() reports the fallback's accounts: seed its init with the failed
  // attempt so the reported init covers all the time init() took. A chained
  // degradation passes the sum on the same way.
  fallback_->phases_.init = phases_.init;
  fallback_->init();
}

void DirtyTracker::begin_interval() {
  if (fallback_) {
    fallback_->begin_interval();
    return;
  }
  VirtualClock::Scope s(kernel_.ctx().clock, phases_.arm);
  do_begin_interval();
}

std::vector<Gva> DirtyTracker::collect() {
  if (fallback_) return fallback_->collect();
  kernel_.ctx().count(Event::kTrackerCollect);
  VirtualClock::Scope s(kernel_.ctx().clock, phases_.collect);
  std::vector<Gva> pages = do_collect();
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  ++phases_.intervals;
  phases_.collected_pages += pages.size();
  return pages;
}

void DirtyTracker::shutdown() {
  if (fallback_) {
    fallback_->shutdown();
    return;
  }
  do_shutdown();
}

}  // namespace ooh::lib
