// Epoch-parallel engine determinism pins (invariant EPOCH-1): virtual-time
// outputs are a pure function of the epoch bodies — worker count, real-time
// completion order (shuffled via the seeded stagger knob) and OS scheduling
// cannot leak one bit into them. TestBed::run_tenants runs on the same pool,
// so its error reporting is pinned here too.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hpp"
#include "ooh/epoch_run.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "sim/epoch/epoch_pool.hpp"

namespace ooh::lib {
namespace {

TestBedOptions small_bed() {
  TestBedOptions opts;
  opts.host_mem_bytes = 2 * kGiB;
  opts.vm_mem_bytes = 256 * kMiB;
  return opts;
}

/// One self-contained figure cell: its own bed, a tracked run, and the
/// cell's virtual-time results rendered to the bytes a figure would emit.
std::string run_cell(std::size_t i) {
  TestBed bed(small_bed());
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 48 + (i % 3) * 16;
  const Gva base = proc.mmap(pages * kPageSize);
  const Technique tech = i % 2 == 0 ? Technique::kEpml : Technique::kProc;
  auto tracker = make_tracker(tech, k, proc);
  const RunResult r = run_tracked(
      k, proc,
      [=](guest::Process& p) {
        Rng rng(1000 + i);
        for (u64 n = 0; n < pages * 2; ++n) {
          p.touch_write(base + rng.below(pages) * kPageSize);
        }
      },
      tracker.get());
  tracker->shutdown();
  return std::to_string(r.tracked_time.count()) + "," +
         std::to_string(r.tracker_time().count()) + "," +
         std::to_string(r.unique_pages) + "," + std::to_string(r.dropped);
}

TEST(EpochPool, ParallelCellResultsBitIdenticalToSerial) {
  constexpr std::size_t kCells = 9;
  epoch::Options serial;
  serial.threads = 1;
  const std::vector<std::string> expect =
      epoch::EpochPool::map<std::string>(kCells, run_cell, serial);
  for (const unsigned threads : {2u, 4u, 8u}) {
    epoch::Options opt;
    opt.threads = threads;
    const auto got = epoch::EpochPool::map<std::string>(kCells, run_cell, opt);
    EXPECT_EQ(expect, got) << threads << " epoch workers diverged from serial";
  }
}

TEST(EpochPool, CompletionOrderShuffleCannotLeakIntoResults) {
  constexpr std::size_t kCells = 6;
  epoch::Options serial;
  serial.threads = 1;
  const auto expect = epoch::EpochPool::map<std::string>(kCells, run_cell, serial);
  for (const u64 seed : {u64{1}, u64{0xdead}, u64{0x5eed5eed}}) {
    epoch::Options opt;
    opt.threads = 4;
    opt.stagger_seed = seed;  // seeded yield storms permute real-time finish order
    const auto got = epoch::EpochPool::map<std::string>(kCells, run_cell, opt);
    EXPECT_EQ(expect, got) << "stagger seed " << seed << " leaked into results";
  }
}

TEST(EpochPool, FirstErrorByEpochIndexWinsDeterministically) {
  for (const unsigned threads : {1u, 4u}) {
    epoch::Options opt;
    opt.threads = threads;
    try {
      epoch::EpochPool::run_indexed(
          8,
          [](std::size_t i) {
            if (i % 3 == 2) throw std::runtime_error("epoch " + std::to_string(i));
          },
          opt);
      FAIL() << "no exception surfaced";
    } catch (const std::runtime_error& e) {
      // Epochs 2, 5 (and 8, out of range) throw; the serial loop hits 2
      // first, so the pool must rethrow 2 regardless of worker count.
      EXPECT_STREQ(e.what(), "epoch 2");
    }
  }
}

TEST(EpochPool, WorkerCountCapsAtEpochCount) {
  epoch::Options opt;
  opt.threads = 16;
  EXPECT_EQ(epoch::EpochPool::workers_for(3, opt), 3u);
  EXPECT_EQ(epoch::EpochPool::workers_for(0, opt), 0u);
  opt.threads = 1;
  EXPECT_EQ(epoch::EpochPool::workers_for(8, opt), 1u);
}

// ---- TestBed::run_tenants on the pool ----------------------------------------

TestBedOptions fleet_bed(unsigned tenants) {
  TestBedOptions opts = small_bed();
  opts.tenant_vms = tenants;
  return opts;
}

TEST(RunTenants, LowestThrowingTenantIsRethrownAtAnyTiming) {
  TestBed bed(fleet_bed(5));
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      bed.run_tenants(
          [](unsigned i) {
            if (i == 1) {
              // Tenant 1 throws late, so tenant 3's exception is usually the
              // first one raised in real time; it must still lose.
              for (int y = 0; y < 2000; ++y) std::this_thread::yield();
              throw std::runtime_error("tenant 1");
            }
            if (i == 3) throw std::runtime_error("tenant 3");
          },
          4);
      FAIL() << "no exception surfaced";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "tenant 1") << "repeat " << repeat;
    }
  }
}

// threads == 0 auto-sizes through EpochPool::workers_for, whose cap at the
// epoch count EpochPool.WorkerCountCapsAtEpochCount pins; here the fleet
// must actually get that many workers, one per tenant.
TEST(RunTenants, AutoSizedPoolGivesEachTenantItsOwnWorker) {
  constexpr unsigned kTenants = 2;
  if (epoch::EpochPool::workers_for(kTenants, {}) < kTenants) {
    GTEST_SKIP() << "single-core host: the pool runs tenants serially";
  }
  TestBed bed(fleet_bed(kTenants));
  for (int repeat = 0; repeat < 20; ++repeat) {
    std::array<std::thread::id, kTenants> ran_on{};
    std::atomic<unsigned> arrived{0};
    std::atomic<bool> timed_out{false};
    bed.run_tenants(
        [&](unsigned i) {
          ran_on[i] = std::this_thread::get_id();
          // Rendezvous: both tenants must be in flight at once, which only
          // a pool of at least kTenants workers allows.
          arrived.fetch_add(1);
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (arrived.load() < kTenants) {
            if (std::chrono::steady_clock::now() > deadline) {
              timed_out = true;
              return;
            }
            std::this_thread::yield();
          }
        },
        0);
    ASSERT_FALSE(timed_out) << "repeat " << repeat << ": tenants never ran concurrently";
    // Every tenant ran on its own pool thread, none on the caller.
    const std::set<std::thread::id> workers(ran_on.begin(), ran_on.end());
    EXPECT_EQ(workers.size(), kTenants) << "repeat " << repeat;
    EXPECT_FALSE(workers.contains(std::this_thread::get_id()));
  }
}

TEST(EpochRun, EnvThreadKnobParses) {
  // Not set in the test environment: auto-size sentinel.
  EXPECT_EQ(epoch_threads_from_env(), 0u);
}

}  // namespace
}  // namespace ooh::lib
