// The machine state walk: one fixed serialization order over every
// subsystem (see machine_image.hpp for the fingerprint contract and the
// quiescence rules).
//
// Determinism notes, per container kind:
//   * unordered_map state (SPP masks, phys-mem shard maps) is emitted in
//     sorted key order;
//   * insertion-ordered containers (FlatPageMap truth ledgers, VMA lists,
//     segment tables, free lists) are emitted in their own order, which IS
//     their semantic state;
//   * derived caches (radix MRU walk caches, VMA/segment MRU memos, the
//     TLB's heap layout beyond the live slots) are NOT serialized — no
//     virtual-time result can observe them;
//   * VMCS kVmcsLinkPointer holds a raw host pointer and is canonicalized
//     to shadow-VMCS *presence*.
#include "sim/snapshot/machine_image.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/clock.hpp"
#include "base/counters.hpp"
#include "base/ring_buffer.hpp"
#include "guest/kernel.hpp"
#include "guest/process.hpp"
#include "guest/scheduler.hpp"
#include "guest/swap.hpp"
#include "guest/uffd.hpp"
#include "hypervisor/dirty_ring.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/vm.hpp"
#include "sim/ept.hpp"
#include "sim/machine.hpp"
#include "sim/page_table.hpp"
#include "sim/page_table_entry.hpp"
#include "sim/page_track.hpp"
#include "sim/segment_table.hpp"
#include "sim/spp.hpp"
#include "sim/tlb.hpp"
#include "sim/vcpu.hpp"
#include "sim/vmcs.hpp"

namespace ooh::snapshot {
namespace {

// The format is deliberately dumb: a magic + version header, then tagged
// sections, then fixed-width little-endian scalars in a fixed order per
// subsystem. Bitfield structs travel through explicit pack helpers, never a
// memcpy of padding, so equal states give equal bytes.
constexpr u32 kStreamMagic = 0x4F4F4853;  // "OOHS"
constexpr u32 kStreamVersion = 1;

// Section tags ("MACH", "PMEM", "CTX\0", "VM\0\0", "KERN").
constexpr u32 kSecMachine = 0x4D414348;
constexpr u32 kSecPmem = 0x504D454D;
constexpr u32 kSecCtx = 0x43545800;
constexpr u32 kSecVm = 0x564D0000;
constexpr u32 kSecKernel = 0x4B45524E;

class Writer {
 public:
  Writer() {
    u32(kStreamMagic);
    u32(kStreamVersion);
  }

  void u8(ooh::u8 v) { bytes_.push_back(v); }
  void u32(ooh::u32 v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<ooh::u8>(v >> (8 * i)));
  }
  void u64(ooh::u64 v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<ooh::u8>(v >> (8 * i)));
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Doubles travel as their IEEE-754 bit pattern: bit-identity is the
  /// contract (virtual time is a double), not approximate equality.
  void f64(double v) {
    ooh::u64 bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// Open a tagged section; returns a token for end_section. Sections do
  /// not nest (the machine image is a flat sequence of subsystems).
  [[nodiscard]] std::size_t begin_section(ooh::u32 tag) {
    u32(tag);
    const std::size_t patch = bytes_.size();
    u64(0);  // length placeholder, patched by end_section
    return patch;
  }
  void end_section(std::size_t patch) {
    const ooh::u64 len = bytes_.size() - (patch + 8);
    for (int i = 0; i < 8; ++i) bytes_[patch + i] = static_cast<ooh::u8>(len >> (8 * i));
  }

  [[nodiscard]] std::vector<ooh::u8> take() && noexcept { return std::move(bytes_); }

 private:
  std::vector<ooh::u8> bytes_;
};

/// FNV-1a over a frame's bytes — the content witness the stream carries in
/// place of the contents themselves.
[[nodiscard]] u64 fnv1a(const ooh::u8* data, std::size_t n) noexcept {
  u64 h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[noreturn]] void busy(const std::string& what) {
  throw std::logic_error("snapshot: machine not quiescent: " + what);
}

[[nodiscard]] u8 pack_pte_flags(const sim::Pte& e) noexcept {
  return static_cast<u8>((e.present ? 1u : 0u) | (e.writable ? 2u : 0u) |
                         (e.user ? 4u : 0u) | (e.accessed ? 8u : 0u) |
                         (e.dirty ? 16u : 0u) | (e.soft_dirty ? 32u : 0u) |
                         (e.uffd_wp ? 64u : 0u));
}

[[nodiscard]] u8 pack_ept_flags(const sim::EptEntry& e) noexcept {
  return static_cast<u8>((e.present ? 1u : 0u) | (e.writable ? 2u : 0u) |
                         (e.accessed ? 4u : 0u) | (e.dirty ? 8u : 0u) |
                         (e.spp ? 16u : 0u));
}

[[nodiscard]] u8 pack_field_set(const sim::VmcsFieldSet& s) noexcept {
  u8 bits = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(sim::VmcsField::kCount); ++i) {
    if (s.contains(static_cast<sim::VmcsField>(i))) bits |= static_cast<u8>(1u << i);
  }
  return bits;
}

}  // namespace

// All per-subsystem walkers live on a nested type so they share Access's
// friendship with every serializable class while staying out of the header.
struct Access::Impl {
  // ---- physical memory (allocator state + frame digests) -------------------

  static void save_pmem(Writer& w, sim::PhysicalMemory& pm) {
    const auto sec = w.begin_section(kSecPmem);
    w.u64(pm.total_frames_);
    // relaxed-ok: quiescent by contract — no concurrent allocator users.
    w.u64(pm.next_frame_.load(std::memory_order_relaxed));
    // relaxed-ok: quiescent by contract, as above.
    w.u64(pm.used_frames_.load(std::memory_order_relaxed));
    // relaxed-ok: quiescent by contract, as above.
    w.u64(pm.alloc_rotor_.load(std::memory_order_relaxed));
    for (const auto& s : pm.shards_) {
      w.u64(s.free_list.size());
      for (const u64 fn : s.free_list) w.u64(fn);
    }
    const std::vector<u64> backed = pm.backed_frame_table();
    w.u64(backed.size());
    for (const u64 fn : backed) {
      w.u64(fn);
      w.u64(fnv1a(pm.frame_data_if_present(fn << kPageShift), kPageSize));
    }
    w.end_section(sec);
  }

  // ---- per-vCPU execution context (clock, counters, TLB) --------------------

  static void save_tlb(Writer& w, const sim::Tlb& t) {
    w.u64(t.capacity_);
    w.u64(t.size_);
    w.u64(t.huge_entries_);
    w.u64(t.generation_);
    w.u64(t.rand_state_);
    for (std::size_t i = 0; i < t.size_; ++i) {
      const auto& s = t.slots_[i];
      w.u32(s.pid);
      w.u32(s.bucket);
      w.u64(s.gva_page);
      w.u64(s.entry.gpa_page);
      w.u64(s.entry.hpa_page);
      w.u8(static_cast<u8>((s.entry.writable ? 1u : 0u) | (s.entry.dirty ? 2u : 0u)));
      w.u8(static_cast<u8>(s.entry.gran));
    }
  }

  static void save_ctx(Writer& w, sim::ExecContext& ctx) {
    const auto sec = w.begin_section(kSecCtx);
    if (!ctx.clock.open_buckets_.empty()) busy("open clock attribution scope");
    w.f64(ctx.clock.now_.count());
    for (std::size_t i = 0; i < kEventCount; ++i) {
      w.u64(ctx.counters.get(static_cast<Event>(i)));
    }
    save_tlb(w, ctx.tlb);
    w.end_section(sec);
  }

  // ---- EPT / SPP ------------------------------------------------------------

  static void save_ept(Writer& w, sim::Ept& ept) {
    w.u64(ept.present_pages_);
    w.u64(ept.huge_present_);
    std::vector<std::tuple<u64, sim::EptEntry, PageGran>> leaves;
    ept.table_.for_each_leaf([&](u64 addr, sim::EptEntry& e, PageGran g) {
      if (e.present) leaves.emplace_back(addr, e, g);
    });
    w.u64(leaves.size());
    for (const auto& [addr, e, g] : leaves) {
      w.u64(addr);
      w.u64(e.hpa_page);
      w.u8(pack_ept_flags(e));
      w.u8(static_cast<u8>(g));
    }
  }

  static void save_spp(Writer& w, sim::SppTable& spp) {
    std::vector<std::pair<Gpa, u32>> masks(spp.masks_.begin(), spp.masks_.end());
    std::sort(masks.begin(), masks.end());
    w.u64(masks.size());
    for (const auto& [gpa, mask] : masks) {
      w.u64(gpa);
      w.u32(mask);
    }
  }

  // ---- notifier registry ----------------------------------------------------
  // Chains hold raw notifier pointers, so only *state* (enable flags and
  // counters) travels; chain membership must already match — which the
  // quiescence rules guarantee (no session consumers, no flush registrants).

  static void save_registry(Writer& w, sim::WriteTrackRegistry& reg) {
    if (!reg.chain(sim::TrackLayer::kPmlDrain).empty()) busy("active PML session");
    if (!reg.flush_chain_.empty()) busy("registered flush notifiers");
    for (std::size_t l = 0; l < sim::kTrackLayerCount; ++l) {
      const auto& chain = reg.chains_[l];
      w.u32(static_cast<u32>(chain.regs.size()));
      w.u64(chain.dispatched);
      for (const auto& entry : chain.regs) {
        w.boolean(entry.enabled);
        w.u64(entry.delivered);
      }
    }
  }

  // ---- rings ---------------------------------------------------------------

  static void save_dirty_ring(Writer& w, const hv::DirtyRing& ring) {
    w.u64(ring.capacity_);
    const u64 head = ring.head_.load(std::memory_order_acquire);
    const u64 tail = ring.tail_.load(std::memory_order_acquire);
    w.u64(head);
    w.u64(tail);
    for (u64 i = head; i != tail; ++i) w.u64(ring.slots_[i & ring.mask_]);
    w.u64(ring.spill_.size());
    for (const u64 v : ring.spill_) w.u64(v);
  }

  static void save_ring_buffer(Writer& w, const RingBuffer& rb) {
    w.u64(rb.buf_.size());
    w.u64(rb.head_);
    w.u64(rb.size_);
    w.u64(rb.dropped_);
    for (std::size_t i = 0; i < rb.size_; ++i) {
      w.u64(rb.buf_[(rb.head_ + i) % rb.buf_.size()]);
    }
  }

  static void save_u64_vec(Writer& w, const std::vector<u64>& v) {
    w.u64(v.size());
    for (const u64 x : v) w.u64(x);
  }

  // ---- per-vCPU hypervisor session state ------------------------------------

  static void save_cpu(Writer& w, hv::Vm::CpuState& cs) {
    sim::Vcpu& v = *cs.vcpu;
    w.u8(static_cast<u8>(v.mode_));
    w.boolean(v.shadow_ != nullptr);
    for (std::size_t f = 0; f < static_cast<std::size_t>(sim::VmcsField::kCount); ++f) {
      // The link pointer is a raw host pointer; presence above canonicalizes it.
      if (static_cast<sim::VmcsField>(f) == sim::VmcsField::kVmcsLinkPointer) continue;
      w.u64(v.vmcs_.read(static_cast<sim::VmcsField>(f)));
    }
    if (v.shadow_ != nullptr) {
      for (std::size_t f = 0; f < static_cast<std::size_t>(sim::VmcsField::kCount); ++f) {
        w.u64(v.shadow_->read(static_cast<sim::VmcsField>(f)));
      }
    }
    w.u8(pack_field_set(v.shadow_readable_));
    w.u8(pack_field_set(v.shadow_writable_));
    save_registry(w, v.track_);
    save_dirty_ring(w, cs.dirty_ring);
    save_ring_buffer(w, cs.spml_ring);
    save_u64_vec(w, cs.spml_interval_log);
    save_u64_vec(w, cs.drained_log);
    w.u64(cs.pml_buffer);
    w.u64(cs.spml_tracked_mem_bytes);
    w.boolean(cs.ring_fault_pending);
  }

  // ---- one VM ---------------------------------------------------------------

  static void save_vm(Writer& w, hv::Vm& vm) {
    const auto sec = w.begin_section(kSecVm);
    w.u32(vm.id_);
    w.u64(vm.mem_bytes_);
    w.boolean(vm.ept_huge_);
    w.boolean(vm.eager_split_);
    w.boolean(vm.eager_split_active_);
    save_ept(w, vm.ept_);
    save_spp(w, vm.spp_table_);
    w.u32(static_cast<u32>(vm.cpus_.size()));
    for (auto& cs : vm.cpus_) save_cpu(w, *cs);
    w.end_section(sec);
  }

  // ---- guest page tables ----------------------------------------------------

  static void save_gpt(Writer& w, sim::GuestPageTable& pt) {
    w.u8(static_cast<u8>(pt.backend_));
    if (pt.backend_ == sim::TranslationBackend::kSegment) {
      const sim::SegmentTable& st = *pt.segs_;
      w.u64(st.present_pages_);
      w.u64(st.segs_.size());
      for (const sim::Segment& s : st.segs_) {
        w.u64(s.gva_base);
        w.u64(s.gpa_base);
        w.u64(s.pages);
        w.u64(s.pte.gpa_page);
        w.u8(pack_pte_flags(s.pte));
      }
      return;
    }
    w.u64(pt.present_pages_);
    std::vector<std::tuple<u64, sim::Pte, PageGran>> leaves;
    pt.table_.for_each_leaf([&](u64 addr, sim::Pte& e, PageGran g) {
      if (e.present) leaves.emplace_back(addr, e, g);
    });
    w.u64(leaves.size());
    for (const auto& [addr, e, g] : leaves) {
      w.u64(addr);
      w.u64(e.gpa_page);
      w.u8(pack_pte_flags(e));
      w.u8(static_cast<u8>(g));
    }
  }

  // ---- guest processes ------------------------------------------------------

  static void save_process(Writer& w, guest::Process& p, sim::GuestPageTable& pt) {
    w.u32(p.pid_);
    w.u32(static_cast<u32>(p.cpu_));
    w.u64(p.cpu_mask_);
    w.u64(p.next_mmap_);
    w.u64(p.mapped_bytes_);
    w.u64(p.truth_seq_);
    w.u64(p.vmas_.size());
    for (const guest::Vma& v : p.vmas_) {
      w.u64(v.start);
      w.u64(v.end);
      w.boolean(v.writable);
      w.boolean(v.data_backed);
      w.u8(static_cast<u8>(v.uffd));
    }
    w.u64(p.truth_.size());
    for (const auto& item : p.truth_) {
      w.u64(item.first);
      w.u64(item.second);
    }
    save_gpt(w, pt);
  }

  // ---- one guest kernel -----------------------------------------------------

  static void check_kernel_quiescent(guest::GuestKernel& k) {
    if (k.ooh_module_ != nullptr) busy("OoH module loaded");
    if (!k.spp_handlers_.empty()) busy("installed SPP handlers");
    if (!k.uffd_->regs_.empty()) busy("active userfaultfd registrations");
    if (!k.swap_->slots_.empty() || !k.swap_->clock_hand_.empty()) {
      busy("swapped-out pages");
    }
    for (const auto& s : k.scheds_) {
      if (s->in_service_) busy("scheduler mid-service");
      if (s->periodic_) busy("armed periodic scheduler service");
      if (!s->hooks_.empty()) busy("registered scheduler hooks");
    }
  }

  static void save_kernel(Writer& w, guest::GuestKernel& k) {
    const auto sec = w.begin_section(kSecKernel);
    check_kernel_quiescent(k);
    w.u32(k.vm_.id());
    w.u32(k.next_pid_);
    w.u32(static_cast<u32>(k.next_place_cpu_));
    w.u64(k.next_gpa_frame_);
    w.u64(k.spp_violations_);
    save_u64_vec(w, k.gpa_free_list_);
    w.u32(static_cast<u32>(k.scheds_.size()));
    for (const auto& s : k.scheds_) {
      w.f64(s->quantum_.count());
      w.f64(s->next_quantum_.count());
      w.f64(s->period_.count());
      w.f64(s->next_periodic_.count());
      w.u64(s->quantum_switches_);
    }
    w.u32(static_cast<u32>(k.procs_.size()));
    for (auto& e : k.procs_) save_process(w, *e.proc, *e.pt);
    w.end_section(sec);
  }

};

std::vector<u8> Access::state_bytes(sim::Machine& machine, hv::Hypervisor& hypervisor,
                                    const std::vector<guest::GuestKernel*>& kernels) {
  Writer w;
  {
    const auto sec = w.begin_section(kSecMachine);
    w.u32(static_cast<u32>(machine.context_count()));
    w.u32(static_cast<u32>(hypervisor.vm_count()));
    w.u32(static_cast<u32>(kernels.size()));
    w.end_section(sec);
  }
  Impl::save_pmem(w, machine.pmem);
  for (std::size_t i = 0; i < machine.context_count(); ++i) {
    Impl::save_ctx(w, machine.context(i));
  }
  for (std::size_t i = 0; i < hypervisor.vm_count(); ++i) {
    Impl::save_vm(w, hypervisor.vm(i));
  }
  for (guest::GuestKernel* k : kernels) Impl::save_kernel(w, *k);
  return std::move(w).take();
}

}  // namespace ooh::snapshot
