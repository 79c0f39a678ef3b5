// The MMU write path: TLB -> guest page-table walk -> EPT walk.
//
// Every dirty-producing transition the walk observes is dispatched through
// the vCPU's page-track notifier chain (sim/page_track.hpp) at the layer
// where it originates:
//   * a guest-PTE dirty-flag transition -> kGuestPtDirty (the EPML circuit
//     logs the GVA if armed);
//   * an EPT accessed-flag transition  -> kEptAccessed (read-logging);
//   * an EPT dirty-flag transition     -> kEptDirty (the Intel PML circuit
//     logs the GPA if armed);
//   * a write to a write-protected EPT entry -> kEptWpFault (KVM
//     page_track-style write interception; must be handled).
//
// Guest-level faults are *returned*, not handled: the guest kernel owns
// fault policy (demand paging, soft-dirty, userfaultfd) and retries.
#pragma once

#include "base/types.hpp"
#include "sim/ept.hpp"
#include "sim/exec_context.hpp"
#include "sim/page_table.hpp"
#include "sim/spp.hpp"

namespace ooh::sim {

class Vcpu;

class Mmu {
 public:
  /// All time and events the walk circuit charges go to `vcpu`'s own
  /// execution context. `spp` is the sub-page permission table the hardware
  /// consults for EPT entries with the spp flag (nullptr = SPP absent from
  /// this machine).
  Mmu(Vcpu& vcpu, Ept& ept, SppTable* spp = nullptr);

  enum class Status {
    kOk,
    kFaultNotPresent,   ///< PTE absent: demand paging or ufd `miss` territory.
    kFaultNotWritable,  ///< write to a present RO/uffd-wp PTE: tracking territory.
    kFaultSubPage,      ///< write blocked by an SPP sub-page mask (guard hit).
  };

  struct Result {
    Status status = Status::kOk;
    Hpa hpa = 0;  ///< translated host physical address (valid when kOk).
  };

  /// Perform one access at `gva` for guest process `pid` through `pt`:
  /// try_hit(), then walk() when the TLB cannot serve it.
  [[nodiscard]] Result access(u32 pid, GuestPageTable& pt, Gva gva, bool is_write) {
    if (Hpa hpa = 0; try_hit(pid, gva, is_write, hpa)) return {Status::kOk, hpa};
    return walk(pid, pt, gva, is_write);
  }

  /// The miss arm of access(): guest page-table walk, EPT walk, flag
  /// transitions and TLB fill. Valid only straight after a try_hit() for
  /// the same access returned false (it reads try_hit's memo to tell a
  /// plain miss from a write through a clean entry).
  [[nodiscard]] Result walk(u32 pid, GuestPageTable& pt, Gva gva, bool is_write);

  /// The TLB-hit arm of access(), inline for the per-store hot path: when a
  /// cached translation serves the access (any read; a write only through
  /// an entry whose dirty state is already established), charge exactly
  /// what access() charges on a hit — count(kTlbHit), then
  /// charge_ns(tlb_hit_ns) — set `hpa` and return true. Otherwise charge
  /// nothing and return false; the caller then runs walk().
  ///
  /// A one-entry (pid, page, Tlb::generation()) memo lets repeated accesses
  /// to one page skip the probe. Every insert of a new key, eviction,
  /// invalidation and flush bumps the generation; an in-place refresh of a
  /// key keeps the slot, and the memoised pointer re-reads its bits.
  [[nodiscard]] bool try_hit(u32 pid, Gva gva, bool is_write, Hpa& hpa) {
    const Gva page = page_floor(gva);
    if (!memo_holds(pid, page)) {
      const TlbEntry* te = tlb_.lookup(pid, page);
      if (te == nullptr) return false;
      memo_te_ = te;
      memo_page_ = page;
      memo_pid_ = pid;
      memo_gen_ = tlb_.generation();
    }
    const TlbEntry& te = *memo_te_;
    if (is_write && !(te.writable && te.dirty)) return false;
    ctx_.count(Event::kTlbHit);
    ctx_.charge_ns(ctx_.cost.tlb_hit_ns);
    // For a huge entry the cached bases are region bases; the in-region
    // offset reduces to page_offset(gva) in the k4K case.
    hpa = te.hpa_page + gran_offset(gva, te.gran);
    return true;
  }

  [[nodiscard]] Ept& ept() noexcept { return ept_; }

 private:
  ExecContext& ctx_;
  Vcpu& vcpu_;
  Tlb& tlb_;
  Ept& ept_;
  SppTable* spp_;

  /// True while the memo names the TLB entry caching (pid, page). After a
  /// failed try_hit it is true exactly when an entry exists but cannot
  /// serve the write.
  [[nodiscard]] bool memo_holds(u32 pid, Gva page) const noexcept {
    return page == memo_page_ && pid == memo_pid_ && tlb_.generation() == memo_gen_;
  }

  // try_hit's memo; memo_page_ starts at a never-page-aligned value.
  const TlbEntry* memo_te_ = nullptr;
  Gva memo_page_ = ~u64{0};
  u32 memo_pid_ = 0;
  u64 memo_gen_ = 0;
};

}  // namespace ooh::sim
