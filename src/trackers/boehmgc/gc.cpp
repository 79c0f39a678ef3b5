#include "trackers/boehmgc/gc.hpp"

#include <new>
#include <stdexcept>

#include "base/clock.hpp"

namespace ooh::gc {
namespace {

constexpr u64 kHeaderBytes = 16;
constexpr u64 kAlign = 16;  ///< also the granule of the live and mark bitmaps.
constexpr u64 kChunkShift = 16;  ///< 64 KiB of heap per records_ chunk.
constexpr u64 kChunkBytes = u64{1} << kChunkShift;
/// Host records (GcHeap::records_) keep the guest layout: the size at the object
/// start, the ref count in the header's second word, refs after the header.
constexpr u64 kRefCountOffset = 8;

[[nodiscard]] constexpr u64 align_up(u64 v) noexcept { return (v + kAlign - 1) & ~(kAlign - 1); }

[[nodiscard]] bool test_bit(const std::vector<u64>& bits, u64 i) noexcept {
  return ((bits[i / 64] >> (i % 64)) & 1) != 0;
}

}  // namespace

GcHeap::GcHeap(guest::GuestKernel& kernel, guest::Process& proc, u64 heap_bytes,
               u64 gc_threshold_bytes)
    : kernel_(kernel), proc_(proc), gc_threshold_(gc_threshold_bytes) {
  heap_base_ = proc_.mmap(heap_bytes);
  heap_end_ = heap_base_ + page_ceil(heap_bytes);
  bump_ = heap_base_;
}

GcHeap::~GcHeap() {
  if (tracker_) tracker_->shutdown();
}

void GcHeap::prepare_tracker() {
  if (!tracker_) {
    tracker_ = lib::make_tracker(technique_, kernel_, proc_);
    tracker_->init();
    tracker_->begin_interval();
  }
}

u64 GcHeap::granule(Gva addr) const noexcept { return (addr - heap_base_) / kAlign; }

u64 GcHeap::page(Gva addr) const noexcept { return (addr - heap_base_) >> kPageShift; }

u64& GcHeap::word(Gva addr) noexcept {
  const u64 off = addr - heap_base_;
  return records_[off >> kChunkShift][(off & (kChunkBytes - 1)) / 8];
}

bool GcHeap::is_object(Gva addr) const noexcept {
  // An address below the heap wraps past the used extent.
  return addr - heap_base_ < bump_ - heap_base_ && addr % kAlign == 0 &&
         test_bit(live_, granule(addr));
}

void GcHeap::check_live(Gva addr) const {
  if (!is_object(addr)) throw std::invalid_argument("not a live GC object");
}

u64 GcHeap::metadata_bytes() const noexcept {
  u64 bytes = records_.capacity() * sizeof(records_[0]) +
              page_objects_.capacity() * sizeof(u32) + live_.capacity() * sizeof(u64) +
              marked_.capacity() * sizeof(u64);
  for (const auto& chunk : records_) {
    if (chunk) bytes += kChunkBytes;
  }
  return bytes;
}

void GcHeap::grow_tables() {
  const u64 used = bump_ - heap_base_;
  records_.resize((used + kChunkBytes - 1) >> kChunkShift);
  page_objects_.resize(pages_for_bytes(used));
  live_.resize((used / kAlign + 63) / 64);
}

Gva GcHeap::alloc(unsigned ref_slots, u64 data_bytes) {
  maybe_collect();
  const u64 size = align_up(kHeaderBytes + 8 * ref_slots + data_bytes);

  Gva addr = 0;
  if (auto it = free_lists_.find(size); it != free_lists_.end() && !it->second.empty()) {
    addr = it->second.back();
    it->second.pop_back();
  } else {
    if (bump_ + size > heap_end_) {
      collect();  // emergency full attempt before giving up
      if (auto it2 = free_lists_.find(size);
          it2 != free_lists_.end() && !it2->second.empty()) {
        addr = it2->second.back();
        it2->second.pop_back();
      } else {
        throw std::bad_alloc{};
      }
    } else {
      addr = bump_;
      bump_ += size;
      grow_tables();
    }
  }

  // Header store: makes allocation itself dirty the page, which is how new
  // objects become visible to the incremental marker.
  proc_.write_u64(addr, size);

  const Gva refs_end = addr + kHeaderBytes + 8 * u64{ref_slots};
  for (u64 c = (addr - heap_base_) >> kChunkShift; c <= (refs_end - 1 - heap_base_) >> kChunkShift;
       ++c) {
    if (!records_[c]) records_[c] = std::make_unique_for_overwrite<u64[]>(kChunkBytes / 8);
  }
  word(addr) = size;
  word(addr + kRefCountOffset) = ref_slots;
  for (Gva slot = addr + kHeaderBytes; slot < refs_end; slot += 8) {
    word(slot) = 0;  // a reused block's old refs
  }
  const u64 g = granule(addr);
  live_[g / 64] |= u64{1} << (g % 64);
  objects_.insert(addr);
  for (u64 p = page(addr); p <= page(addr + size - 1); ++p) ++page_objects_[p];
  allocated_since_gc_ += size;
  live_bytes_ += size;
  stats_.total_allocated_bytes += size;
  return addr;
}

void GcHeap::add_root(Gva o) {
  check_live(o);
  roots_.insert(o);
}

void GcHeap::remove_root(Gva o) {
  roots_.erase(o);
}

void GcHeap::write_ref(Gva o, unsigned slot, Gva target) {
  check_live(o);
  if (slot >= word(o + kRefCountOffset)) throw std::out_of_range("ref slot");
  if (target != 0) check_live(target);
  word(o + kHeaderBytes + 8 * slot) = target;
  // The pointer store is what the dirty-page techniques must observe.
  proc_.write_u64(o + kHeaderBytes + 8 * slot, target);
}

Gva GcHeap::read_ref(Gva o, unsigned slot) {
  check_live(o);
  if (slot >= word(o + kRefCountOffset)) throw std::out_of_range("ref slot");
  proc_.touch_read(o + kHeaderBytes + 8 * slot);
  return word(o + kHeaderBytes + 8 * slot);
}

void GcHeap::write_data(Gva o, u64 offset, u64 value) {
  check_live(o);
  const u64 base = kHeaderBytes + 8 * word(o + kRefCountOffset);
  if (base + offset + 8 > word(o)) throw std::out_of_range("data offset");
  proc_.write_u64(o + base + offset, value);
}

void GcHeap::maybe_collect() {
  if (allocated_since_gc_ >= gc_threshold_) collect();
}

std::vector<Gva> GcHeap::acquire_dirty_pages(GcCycleStats& st) {
  sim::ExecContext& m = kernel_.ctx();
  VirtualClock::Scope s(m.clock, st.dirty_query);
  std::vector<Gva> dirty = tracker_->collect();
  tracker_->begin_interval();
  return dirty;
}

GcCycleStats GcHeap::collect() {
  sim::ExecContext& m = kernel_.ctx();
  GcCycleStats st;
  st.cycle = static_cast<unsigned>(stats_.cycles.size()) + 1;
  const VirtDuration start = m.clock.now();
  m.count(Event::kGcCycle);

  prepare_tracker();

  // ---- mark ------------------------------------------------------------------
  // Reachability is exact (host-side traversal of the current reference
  // graph). The technique determines the *cost*: a full cycle scans every
  // reachable object; an incremental cycle pays the dirty-page query plus a
  // re-scan of only the objects on dirtied pages (Boehm's mark phase).
  u64 objects_scanned = 0;
  if (!first_cycle_done_) {
    st.full = true;
    // Flush this cycle's dirty info so the next cycle starts a fresh interval.
    (void)acquire_dirty_pages(st);
  } else {
    const std::vector<Gva> dirty = acquire_dirty_pages(st);
    for (const Gva dirty_page : dirty) {
      // A page below the heap wraps past the table.
      const u64 p = page(dirty_page);
      if (p < page_objects_.size() && page_objects_[p] != 0) {
        ++st.pages_rescanned;
        objects_scanned += page_objects_[p];
      }
    }
    objects_scanned += roots_.size();
  }

  marked_.assign(live_.size(), 0);
  frontier_.clear();
  const auto mark = [this](Gva o) {
    if (!is_object(o)) throw std::out_of_range("not a live GC object");
    const u64 g = granule(o);
    u64& bits = marked_[g / 64];
    const u64 bit = u64{1} << (g % 64);
    if ((bits & bit) == 0) {
      bits |= bit;
      frontier_.push_back(o);
    }
  };
  for (const Gva root : roots_) mark(root);
  for (const Gva local : locals_) {
    if (local != 0) mark(local);
  }
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const Gva o = frontier_[head];
    const Gva refs_end = o + kHeaderBytes + 8 * word(o + kRefCountOffset);
    for (Gva slot = o + kHeaderBytes; slot < refs_end; slot += 8) {
      if (const Gva ref = word(slot); ref != 0) mark(ref);
    }
  }
  if (st.full) objects_scanned = frontier_.size();  // each marked object once
  st.objects_marked = objects_scanned;
  m.charge_ns(scan_ns_per_object_ * static_cast<double>(objects_scanned));

  // ---- sweep -----------------------------------------------------------------
  m.charge_ns(10.0 * static_cast<double>(objects_.size()));  // block sweep
  for (auto it = objects_.begin(); it != objects_.end();) {
    const Gva addr = *it;
    const u64 g = granule(addr);
    if (test_bit(marked_, g)) {
      ++it;
      continue;
    }
    const u64 size = word(addr);
    for (u64 p = page(addr); p <= page(addr + size - 1); ++p) --page_objects_[p];
    live_[g / 64] &= ~(u64{1} << (g % 64));
    free_lists_[size].push_back(addr);
    live_bytes_ -= size;
    ++st.objects_freed;
    st.bytes_freed += size;
    it = objects_.erase(it);
  }

  first_cycle_done_ = true;
  allocated_since_gc_ = 0;
  st.duration = m.clock.now() - start;
  stats_.total_gc_time += st.duration;
  stats_.cycles.push_back(st);
  return st;
}

}  // namespace ooh::gc
