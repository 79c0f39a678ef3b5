// Machine state fingerprint: one canonical, versioned byte stream over the
// full simulated machine — allocator state and per-frame content digests,
// guest page tables (radix + segment + huge leaves), EPT, VMCS (+ shadow),
// TLB, PML session state, dirty rings, registries, clocks and counters.
//
// The same machine state always produces the same bytes, so determinism
// tests byte-compare the streams of two runs (same seed => same bytes).
// Frame *contents* appear only as per-frame FNV-1a digests, computed
// straight from the frame table.
//
// Quiescence contract — the walk only accepts a machine between sessions:
//   * no OoH module loaded, no uffd registrations, empty swap slots;
//   * no PML session (the kPmlDrain chains and flush chains are empty);
//   * no scheduler mid-service, no periodic service armed, no sched hooks;
//   * no open clock attribution scopes; no installed SPP handlers.
// These are the points between run_tracked collection intervals / workload
// runs where a TestBed sits between figure cells. A non-quiescent machine
// throws std::logic_error naming the live session it found: the stream
// serializes state, not the raw pointers a live session holds.
#pragma once

#include <vector>

#include "base/types.hpp"

namespace ooh::sim {
class Machine;
}
namespace ooh::hv {
class Hypervisor;
}
namespace ooh::guest {
class GuestKernel;
}

namespace ooh::snapshot {

/// The one friend every serialized class grants. The walk lives behind it
/// (machine_image.cpp), so the intrusion per class is a single
/// `friend struct ooh::snapshot::Access;` line.
struct Access {
  [[nodiscard]] static std::vector<u8> state_bytes(
      sim::Machine& machine, hv::Hypervisor& hypervisor,
      const std::vector<guest::GuestKernel*>& kernels);

 private:
  /// Per-subsystem walkers (machine_image.cpp). A nested type shares the
  /// enclosing class's friendships, so every walker reaches the privates
  /// without each class having to befriend a dozen helper functions.
  struct Impl;
};

}  // namespace ooh::snapshot
