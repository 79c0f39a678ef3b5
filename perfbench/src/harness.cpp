#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "hypervisor/vm.hpp"

namespace perfbench {
namespace {

thread_local std::vector<std::int64_t> t_open_spans;

std::atomic<u64> g_reference_sink{0};

[[nodiscard]] unsigned thread_tag() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned tag = next.fetch_add(1);
  return tag;
}

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void fnv(u64& h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

unsigned nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Span::Span(Tracer* tracer, std::string_view name, std::int64_t parent)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  name_ = name;
  parent_ = parent == -2 ? tracer_->current() : parent;
  {
    const std::lock_guard<std::mutex> lock(tracer_->mu_);
    id_ = tracer_->next_id_++;
  }
  t_open_spans.push_back(id_);
  start_s_ = now_s();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const double end = now_s();
  t_open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->records_.push_back(
      {std::move(name_), start_s_, end, id_, parent_, thread_tag()});
}

std::int64_t Tracer::current() const {
  return t_open_spans.empty() ? -1 : t_open_spans.back();
}

double Tracer::total_s(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const Record& r : records_) {
    if (r.name == name) sum += r.end_s - r.start_s;
  }
  return sum;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Record*> sorted;
  sorted.reserve(records_.size());
  for (const Record& r : records_) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const Record* a, const Record* b) { return a->id < b->id; });
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char buf[160];
  for (const Record* r : sorted) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":";
    json_string(os, r->name);
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld}}",
                  r->tid, (r->start_s - origin_s_) * 1e6, (r->end_s - r->start_s) * 1e6,
                  static_cast<long long>(r->id), static_cast<long long>(r->parent));
    os << buf;
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("short write to trace file " + path);
}

double span_cost_s() {
  constexpr int kSpans = 20000;
  Tracer probe;
  probe.set_enabled(true);
  const double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) auto s = probe.span("ooh.tracker.collect.epml");
  return (now_s() - t0) / kSpans;
}

// ---- host-speed reference --------------------------------------------------------

double reference_s(unsigned threads) {
  constexpr std::size_t kWords = std::size_t{1} << 22;  // 32 MiB of u64
  constexpr std::size_t kReferenceUpdates = std::size_t{8} << 20;
  constexpr std::size_t kReferenceChase = std::size_t{1} << 20;
  std::vector<double> took(threads, 0.0);
  std::vector<u64> sink(threads, 0);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<u64> a(kWords);
      u64 x = t + 1;
      const double t0 = now_s();
      for (std::size_t i = 0; i < kReferenceUpdates; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        a[(x >> 17) % kWords] += x;
      }
      const double t1 = now_s();
      // A full-period LCG over the indices: one cycle through every word,
      // in an order no prefetcher follows.
      for (std::size_t i = 0; i < kWords; ++i) {
        a[i] = (i * 0x5851F42D4C957F2DULL + 0x14057B7EF767814FULL) % kWords;
      }
      const double t2 = now_s();
      u64 p = x % kWords;
      for (std::size_t i = 0; i < kReferenceChase; ++i) p = a[p];
      took[t] = (t1 - t0) + (now_s() - t2);
      sink[t] = p;
    });
  }
  for (std::thread& th : pool) th.join();
  double sum = 0.0;
  u64 keep = 0;
  for (unsigned t = 0; t < threads; ++t) {
    sum += took[t];
    keep ^= sink[t];
  }
  // Keep the chase result observable so the loop cannot be dropped.
  g_reference_sink.store(keep, std::memory_order_relaxed);
  return sum;
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---- bed helpers ---------------------------------------------------------------

ooh::EventCounters bed_counters(ooh::lib::TestBed& bed) {
  ooh::EventCounters sum;
  for (unsigned t = 0; t < bed.tenant_count(); ++t) {
    ooh::hv::Vm& vm = bed.vm(t);
    for (unsigned c = 0; c < vm.vcpu_count(); ++c) sum.merge(vm.vcpu(c).ctx().counters);
  }
  return sum;
}

u64 bed_digest(ooh::lib::TestBed& bed, std::initializer_list<ooh::Event> skip) {
  u64 h = 0xCBF29CE484222325ULL;
  for (unsigned t = 0; t < bed.tenant_count(); ++t) {
    ooh::hv::Vm& vm = bed.vm(t);
    for (unsigned c = 0; c < vm.vcpu_count(); ++c) {
      const ooh::sim::ExecContext& ctx = vm.vcpu(c).ctx();
      const double us = ctx.clock.now().count();
      u64 bits = 0;
      std::memcpy(&bits, &us, sizeof bits);
      fnv(h, bits);
      for (std::size_t e = 0; e < ooh::kEventCount; ++e) {
        const auto ev = static_cast<ooh::Event>(e);
        if (std::find(skip.begin(), skip.end(), ev) != skip.end()) continue;
        fnv(h, ctx.counters.get(ev));
      }
    }
  }
  return h;
}

// ---- Cell / Round -----------------------------------------------------------------

void Cell::setup(const std::function<void()>& fn) {
  auto span = tracer_->span("setup");
  const double t0 = now_s();
  fn();
  setup_s_ += now_s() - t0;
}

void Cell::timed(const std::function<void()>& fn) {
  auto span = tracer_->span("timed");
  const double t0 = now_s();
  fn();
  wall_s_ += now_s() - t0;
}

void Cell::timed_workers(const std::function<double()>& fn) {
  auto span = tracer_->span("timed");
  wall_s_ += fn();
}

void Cell::check(bool ok, std::string_view what) {
  if (!ok) failures_.emplace_back(what);
}

void Cell::note_plan(u64 v) noexcept { fnv(plan_, v); }

void Round::merge(const Cell& cell, std::map<std::string, u64>& digests) {
  wall_s_ += cell.wall_s_;
  setup_s_ += cell.setup_s_;
  events_.merge(cell.events_);
  for (const auto& [k, v] : cell.extra_) extra_[k] += v;
  fnv(plan_, cell.plan_);
  std::vector<std::string> why = cell.failures_;
  const auto [it, inserted] = digests.emplace(cell.name_, cell.digest_);
  if (!inserted && it->second != cell.digest_) {
    why.emplace_back("clock+counter digest differs from an earlier round with the same seed");
  }
  ++attempted_;
  if (!why.empty()) ++failed_;
  for (const std::string& w : why) {
    failures_.push_back("round " + std::to_string(index_) + " cell " + cell.name_ + ": " + w);
  }
}

u64 Round::accesses() const noexcept {
  return events_.get(ooh::Event::kTlbHit) + events_.get(ooh::Event::kTlbMiss);
}

}  // namespace perfbench
