// The TATP benchmark on the real engine: one workload per invocation,
// driven from one generator thread against engine::Database +
// engine::PartitionedExecutor (and server::Server for the wire workload),
// with the adaptive manager off. Every per-layer number comes from timing
// this file's own calls into the engine's public functions, or from
// counters the engine already exposes (Database::StatsSnapshot,
// mem::AllocStats, log::LogManager).
//
//   tatp_bench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//              [--spans_out=<csv>]
//
// Workloads (2 islands x 1 core = 2 partition workers; depth 32 and batch
// 32 for the closed loops; the standard TATP mix):
//   tatp-cached        20k subscribers, local placement, K=1, no logging,
//                      closed loop, in-process.
//   tatp-1m-remote     1M subscribers, remote placement, K=16, no logging,
//                      closed loop, in-process.
//   tatp-wire-durable  20k subscribers over loopback (server::Server, one
//                      server::Client with 4 connections), group commit, a
//                      fixed number of transactions, then FlushAll,
//                      SnapshotDurable and a timed log::Recover.
//   tatp-shift         200k subscribers, local placement, open loop at a
//                      fixed rate; the hot spot moves four times and the
//                      benchmark repartitions to a scheme fixed for each
//                      hot-spot phase.
//
// The last line of stdout is one JSON object: config, checks, correct,
// attempted, failed and every metric with its unit. The exit code is 1
// when an output check failed, 2 on a usage or set-up error.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cost_model.h"
#include "core/monitor.h"
#include "core/search.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "log/recovery.h"
#include "server/client.h"
#include "server/server.h"
#include "stats.h"
#include "trace.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

namespace {

using namespace atrapos;
using perfbench::LatencyHistogram;
using perfbench::SpanLog;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- fixed load shape ------------------------------------------------------

constexpr int kIslands = 2;
constexpr int kCoresPerIsland = 1;
constexpr int kPartitions = kIslands * kCoresPerIsland;
constexpr size_t kDepth = 32;  ///< closed loop: transactions in flight
constexpr size_t kBatch = 32;  ///< transactions per SubmitBatch / TXN_BATCH
/// The timed window is cut into this many equal segments; closed-loop
/// throughput and latency are the median over segments, so a burst of
/// outside noise in one segment does not move them.
constexpr int kSegments = 10;
/// Untimed closed-loop transactions before timing starts (caches warm,
/// lazy allocation done).
constexpr uint64_t kWarmupTxns = 100'000;
/// tatp-shift: offered rate, hot-spot shape and number of moves.
/// The rate stays far enough below capacity that the backlog behind each
/// repartition drains quickly, even when the host runs slow.
constexpr double kShiftRate = 50'000;
constexpr double kHotShare = 0.6;
constexpr double kHotKeys = 0.1;
constexpr int kShifts = 4;
/// tatp-wire-durable: connections, per-connection window, and the fixed
/// number of transactions per second of --seconds (the recovered log is
/// the same size on every run).
constexpr int kWireConnections = 4;
constexpr uint32_t kWireWindow = 32;
constexpr uint64_t kWireTxnsPerSecond = 250'000;
constexpr uint64_t kWireWarmupTxns = 20'000;

enum class Kind { kClosed, kWire, kShift };

struct Workload {
  const char* name;
  uint64_t subscribers;
  mem::PlacementPolicy placement;
  int interleave;
  engine::DurabilityMode durability;
  Kind kind;
  int setup_reps;  ///< set-ups per run; setup_s is their median
};

constexpr Workload kWorkloads[] = {
    {"tatp-cached", 20'000, mem::PlacementPolicy::kLocal, 1,
     engine::DurabilityMode::kOff, Kind::kClosed, 9},
    {"tatp-1m-remote", 1'000'000, mem::PlacementPolicy::kRemote, 16,
     engine::DurabilityMode::kOff, Kind::kClosed, 3},
    {"tatp-wire-durable", 20'000, mem::PlacementPolicy::kLocal, 1,
     engine::DurabilityMode::kGroup, Kind::kWire, 9},
    {"tatp-shift", 200'000, mem::PlacementPolicy::kLocal, 1,
     engine::DurabilityMode::kOff, Kind::kShift, 5},
};

const char* ToString(engine::DurabilityMode m) {
  switch (m) {
    case engine::DurabilityMode::kOff: return "off";
    case engine::DurabilityMode::kAsync: return "async";
    case engine::DurabilityMode::kGroup: return "group";
  }
  return "?";
}

/// Two partitions per table, placed on cores 0 and 1; partition 1 starts
/// at subscriber `split_sid` (the other tables' keys scale with their
/// factor, as in workload::BuildTatpTables).
core::Scheme TatpScheme(uint64_t split_sid) {
  core::Scheme scheme;
  for (int t = 0; t < 4; ++t) {
    uint64_t factor = t == 0 ? 1 : (t == 3 ? 32 : 4);
    core::TableScheme ts;
    ts.boundaries = {0, split_sid * factor};
    ts.placement = {0, 1};
    scheme.tables.push_back(ts);
  }
  return scheme;
}

/// tatp-shift: where the hot spot starts in each phase, and the split that
/// gives each partition half of that phase's load (hot keys carry
/// kHotShare / kHotKeys + (1 - kHotShare) load per unit of key space).
double HotStart(int phase) { return phase % 2 == 0 ? 0.0 : 0.5; }
double BalancedSplit(int phase) {
  const double hot_density = kHotShare / kHotKeys + (1 - kHotShare);
  const double cold_density = 1 - kHotShare;
  const double before_hot = HotStart(phase) * cold_density;
  return HotStart(phase) + (0.5 - before_hot) / hot_density;
}

// ---- completion tally ------------------------------------------------------

enum Outcome { kOk, kNotFound, kAlreadyExists, kOther, kNumOutcomes };
constexpr const char* kOutcomeNames[kNumOutcomes] = {"ok", "not_found",
                                                     "already_exists", "other"};

Outcome FromStatus(const Status& s) {
  if (s.ok()) return kOk;
  if (s.code() == StatusCode::kNotFound) return kNotFound;
  if (s.code() == StatusCode::kAlreadyExists) return kAlreadyExists;
  return kOther;
}

Outcome FromWire(server::WireStatus s) {
  switch (s) {
    case server::WireStatus::kOk: return kOk;
    case server::WireStatus::kNotFound: return kNotFound;
    case server::WireStatus::kAlreadyExists: return kAlreadyExists;
    default: return kOther;
  }
}

/// What completion callbacks record, per recording thread.
struct alignas(64) TallySlot {
  LatencyHistogram latency;
  /// Per segment: latency by origin time, completions by settle time.
  std::array<LatencyHistogram, kSegments> seg_latency;
  std::array<uint64_t, kSegments> seg_done{};
  uint64_t settled = 0;
  std::array<uint64_t, kNumOutcomes> outcomes{};
  uint64_t cf_inserted = 0;
  uint64_t cf_deleted = 0;

  void Merge(const TallySlot& o) {
    latency.Merge(o.latency);
    for (int i = 0; i < kSegments; ++i) {
      seg_latency[i].Merge(o.seg_latency[i]);
      seg_done[i] += o.seg_done[i];
    }
    settled += o.settled;
    for (int i = 0; i < kNumOutcomes; ++i) outcomes[i] += o.outcomes[i];
    cf_inserted += o.cf_inserted;
    cf_deleted += o.cf_deleted;
  }
};

/// Completion-side accounting. Callbacks run on engine workers (and on the
/// client thread when a transaction completed before its callback was
/// attached); each thread writes its own slot, merged after the run.
/// A callback carries one 64-bit tag: the latency origin (ns after the
/// tally's base) and the transaction class. With `segment_ns` > 0 the
/// window from `segment_origin_ns` is cut into kSegments segments.
class Tally {
 public:
  explicit Tally(uint64_t segment_origin_ns = 0, uint64_t segment_ns = 0)
      : base_(NowNs()),
        id_(next_id_.fetch_add(1) + 1),
        seg_origin_(segment_origin_ns),
        seg_ns_(segment_ns) {}
  ~Tally() {
    for (auto& s : slots_) delete s.load();
  }
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;

  uint64_t Tag(uint64_t origin_ns, int txn_class) const {
    return ((origin_ns - base_) << 3) | static_cast<uint64_t>(txn_class & 7);
  }

  void Settle(uint64_t tag, Outcome o) {
    uint64_t now = NowNs();
    TallySlot* s = Local();
    uint64_t origin = base_ + (tag >> 3);
    uint64_t latency = now > origin ? now - origin : 0;
    s->latency.Add(latency);
    if (seg_ns_ > 0) {
      if (origin >= seg_origin_ && (origin - seg_origin_) / seg_ns_ < kSegments)
        s->seg_latency[(origin - seg_origin_) / seg_ns_].Add(latency);
      if (now >= seg_origin_ && (now - seg_origin_) / seg_ns_ < kSegments)
        ++s->seg_done[(now - seg_origin_) / seg_ns_];
    }
    ++s->settled;
    ++s->outcomes[o];
    int cls = static_cast<int>(tag & 7);
    if (o == kOk && cls == workload::kInsCallFwd) ++s->cf_inserted;
    if (o == kOk && cls == workload::kDelCallFwd) ++s->cf_deleted;
  }

  /// Call once every callback has run.
  TallySlot Merged() const {
    TallySlot out;
    int n = std::min(used_.load(), kMaxSlots);
    for (int i = 0; i < n; ++i)
      if (const TallySlot* s = slots_[i].load()) out.Merge(*s);
    return out;
  }

 private:
  /// Recording threads per run: the client plus the partition workers,
  /// which Repartition replaces on every call.
  static constexpr int kMaxSlots = 256;

  TallySlot* Local() {
    thread_local uint64_t owner = 0;
    thread_local TallySlot* slot = nullptr;
    if (owner != id_) {
      int i = used_.fetch_add(1);
      if (i >= kMaxSlots) {
        std::fprintf(stderr, "tally: more than %d recording threads\n",
                     kMaxSlots);
        std::abort();
      }
      owner = id_;
      slot = new TallySlot();
      slots_[i].store(slot);
    }
    return slot;
  }

  static inline std::atomic<uint64_t> next_id_{0};
  const uint64_t base_;
  const uint64_t id_;
  const uint64_t seg_origin_;
  const uint64_t seg_ns_;
  std::array<std::atomic<TallySlot*>, kMaxSlots> slots_{};
  std::atomic<int> used_{0};
};

/// What the generator thread measures about its own calls.
struct ClientStats {
  uint64_t submitted = 0;  ///< transactions handed over (futures / requests)
  uint64_t refused = 0;    ///< transactions whose submit call failed
  uint64_t waves = 0;
  uint64_t sheds = 0;      ///< wire requests answered OVERLOADED (resent)
  uint64_t build_ns = 0;   ///< building graphs / drawing requests
  uint64_t submit_ns = 0;  ///< inside SubmitBatch / Client::Submit
  uint64_t submit_max_ns = 0;
  uint64_t wait_ns = 0;    ///< blocked in TxnFuture::Wait / Client::Poll
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  LatencyHistogram lateness;  ///< open loop: issue time - due time
  std::array<std::atomic<uint64_t>, 8> class_submitted{};
};

// ---- service ---------------------------------------------------------------

struct Service {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<engine::PartitionedExecutor> exec;
  std::unique_ptr<server::Server> server;

  ~Service() {
    if (server) server->Stop();
    server.reset();
    if (exec) exec->Drain();
    exec.reset();
    db.reset();
  }
};

hw::Topology Topo() { return hw::Topology::Cube(1, kCoresPerIsland); }

/// Subscriber where partition 1 starts: the middle, except on
/// tatp-shift, where it balances the load of hot-spot phase `phase`.
uint64_t SplitSid(const Workload& w, int phase = 0) {
  double split = w.kind == Kind::kShift ? BalancedSplit(phase) : 0.5;
  return static_cast<uint64_t>(static_cast<double>(w.subscribers) * split);
}

/// Builds tables, database, executor (and server); spans go under one
/// "setup" root. Returns nullptr (with a message) when the server fails
/// to start.
std::unique_ptr<Service> Setup(const Workload& w, uint64_t seed,
                               SpanLog* spans) {
  auto svc = std::make_unique<Service>();
  uint64_t t0 = NowNs();
  int32_t root =
      spans ? spans->Open(perfbench::kClient, "setup", 0, -1, t0) : -1;
  engine::Database::Options dopt;
  dopt.topo = Topo();
  dopt.mem.policy = w.placement;
  svc->db = std::make_unique<engine::Database>(dopt);
  uint64_t t1 = NowNs();
  auto tables =
      workload::BuildTatpTables(w.subscribers, {0, SplitSid(w)}, seed);
  uint64_t t2 = NowNs();
  for (auto& t : tables) svc->db->AddTable(std::move(t));
  engine::PartitionedExecutor::Options eopt;
  eopt.durability = w.durability;
  eopt.interleave_depth = w.interleave;
  eopt.hw_counters = false;
  svc->exec = std::make_unique<engine::PartitionedExecutor>(
      svc->db.get(), dopt.topo, TatpScheme(SplitSid(w)), eopt);
  uint64_t t3 = NowNs();
  uint64_t t4 = t3;
  if (w.kind == Kind::kWire) {
    server::Server::Options sopt;
    sopt.max_window = kWireWindow;
    sopt.bind_listeners = false;
    svc->server = std::make_unique<server::Server>(
        svc->db.get(), svc->exec.get(), w.subscribers, sopt);
    Status st = svc->server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
      return nullptr;
    }
    t4 = NowNs();
  }
  if (spans) {
    spans->Add(perfbench::kEngine, "engine.database", 0, root, t0, t1);
    spans->Add(perfbench::kWorkload, "workload.build_tables", 0, root, t1, t2);
    spans->Add(perfbench::kEngine, "engine.add_tables+executor", 0, root, t2,
               t3);
    if (t4 > t3)
      spans->Add(perfbench::kServer, "server.start", 0, root, t3, t4);
    spans->Close(root, NowNs());
  }
  return svc;
}

// ---- closed loop (in-process) ----------------------------------------------

/// Depth-32 / batch-32 closed loop: builds a wave of graphs, submits it
/// with SubmitBatch, and waits for the oldest futures while more than
/// kDepth are in flight. Latency runs from just before SubmitBatch to the
/// completion callback. Stops at `deadline_ns` or after `max_txns`.
void RunClosedLoop(Service& svc, uint64_t subscribers, Rng& rng,
                   uint64_t deadline_ns, uint64_t max_txns, Tally* tally,
                   ClientStats* cs, SpanLog* spans) {
  workload::TatpActionGraphs graphs(subscribers);
  std::deque<engine::TxnFuture> window;
  std::vector<engine::ActionGraph> wave;
  wave.reserve(kBatch);
  std::array<int, kBatch> classes{};
  cs->start_ns = NowNs();
  while (cs->submitted + cs->refused < max_txns) {
    uint64_t t0 = NowNs();
    if (t0 >= deadline_ns) break;
    uint64_t wave_id = cs->waves++;
    wave.clear();
    for (size_t i = 0; i < kBatch; ++i) {
      wave.push_back(graphs.Mix(rng));
      classes[i] = wave.back().txn_class();
    }
    uint64_t t1 = NowNs();
    auto fs = svc.exec->SubmitBatch(wave);
    uint64_t t2 = NowNs();
    cs->build_ns += t1 - t0;
    cs->submit_ns += t2 - t1;
    cs->submit_max_ns = std::max(cs->submit_max_ns, t2 - t1);
    if (!fs.ok()) {
      cs->refused += kBatch;
      continue;
    }
    for (size_t i = 0; i < kBatch; ++i) {
      uint64_t tag = tally->Tag(t1, classes[i]);
      fs.value()[i].OnComplete(
          [tally, tag](const Status& s) { tally->Settle(tag, FromStatus(s)); });
      window.push_back(std::move(fs.value()[i]));
    }
    cs->submitted += kBatch;
    uint64_t t3 = NowNs();
    while (window.size() >= kDepth) {
      (void)window.front().Wait();
      window.pop_front();
    }
    uint64_t t4 = NowNs();
    cs->wait_ns += t4 - t3;
    if (spans) {
      spans->Add(perfbench::kWorkload, "workload.mix", wave_id, -1, t0, t1);
      spans->Add(perfbench::kEngine, "engine.submit_batch", wave_id, -1, t1,
                 t2);
      spans->Add(perfbench::kEngine, "engine.on_complete", wave_id, -1, t2,
                 t3);
      spans->Add(perfbench::kEngine, "engine.wait", wave_id, -1, t3, t4);
    }
  }
  uint64_t t = NowNs();
  while (!window.empty()) {
    (void)window.front().Wait();
    window.pop_front();
  }
  cs->end_ns = NowNs();
  cs->wait_ns += cs->end_ns - t;
  if (spans)
    spans->Add(perfbench::kEngine, "engine.wait", cs->waves, -1, t, cs->end_ns);
}

// ---- open loop with hot-spot moves (tatp-shift) ----------------------------

struct ShiftResult {
  std::vector<double> repartition_ms;
  std::vector<double> choose_ms;
  std::vector<double> actions;
  std::vector<double> migrated_mb;
  bool repartition_ok = true;
};

struct SpinClock {
  uint64_t Now() const { return NowNs(); }
  void WaitUntil(uint64_t t) const {
    while (NowNs() < t) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
};

/// Open loop at kShiftRate for `seconds`: transaction i is due at
/// start + i / rate and is timed from then. kHotShare of the traffic goes
/// to kHotKeys of the subscribers, starting at HotStart(phase); the phase
/// advances at kShifts evenly spaced instants, and at each one a control
/// thread times HarvestStats + ChooseScheme (result not applied) and then
/// Repartition to the scheme balanced for the new phase.
void RunShift(Service& svc, const Workload& w, Rng& rng, double seconds,
              Tally* tally, ClientStats* cs, SpanLog* gen_spans,
              SpanLog* ctl_spans, ShiftResult* out) {
  const uint64_t subscribers = w.subscribers;
  workload::TatpActionGraphs graphs(subscribers);
  perfbench::OpenLoopSchedule sched;
  sched.start_ns = NowNs() + 1'000'000;
  sched.gap_ns = 1e9 / kShiftRate;
  sched.count = static_cast<uint64_t>(kShiftRate * seconds);
  std::array<uint64_t, kShifts> shift_at{};
  for (int k = 0; k < kShifts; ++k)
    shift_at[k] =
        sched.start_ns +
        static_cast<uint64_t>(seconds * 1e9 * (k + 1) / (kShifts + 1));
  auto phase_of = [&](uint64_t due) {
    int p = 0;
    while (p < kShifts && shift_at[p] <= due) ++p;
    return p;
  };
  const uint64_t hot_n =
      static_cast<uint64_t>(static_cast<double>(subscribers) * kHotKeys);

  std::thread control([&] {
    std::array<uint64_t, 8> last{};
    uint64_t last_ns = sched.start_ns;
    for (int k = 0; k < kShifts; ++k) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(shift_at[k])));
      uint64_t t0 = NowNs();
      std::vector<double> counts(7);
      for (size_t c = 0; c < counts.size(); ++c) {
        uint64_t v = cs->class_submitted[c].load(std::memory_order_relaxed);
        counts[c] = static_cast<double>(v - last[c]);
        last[c] = v;
      }
      core::WorkloadStats stats = svc.exec->HarvestStats(
          counts, static_cast<double>(t0 - last_ns) / 1e9);
      core::MonitorAggregator::Coarsen(&stats);
      core::WorkloadSpec spec = workload::TatpSpec(subscribers);
      hw::Topology topo = Topo();
      core::CostModel model(&topo, &spec);
      core::Scheme chosen = core::ChooseScheme(model, stats);
      (void)chosen;
      uint64_t t1 = NowNs();
      last_ns = t1;
      uint64_t migrated0 = svc.db->memory().stats().migrated_bytes();
      auto applied = svc.exec->Repartition(TatpScheme(SplitSid(w, k + 1)));
      uint64_t t2 = NowNs();
      uint64_t migrated1 = svc.db->memory().stats().migrated_bytes();
      out->choose_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      out->repartition_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
      out->actions.push_back(
          applied.ok() ? static_cast<double>(applied.value()) : 0.0);
      out->migrated_mb.push_back(static_cast<double>(migrated1 - migrated0) /
                                 1e6);
      if (!applied.ok() || applied.value() == 0) {
        std::fprintf(stderr, "repartition %d: %s\n", k,
                     applied.ok() ? "no action applied"
                                  : applied.status().ToString().c_str());
        out->repartition_ok = false;
      }
      if (ctl_spans) {
        int32_t root = ctl_spans->Open(perfbench::kClient, "control.shift",
                                       static_cast<uint64_t>(k), -1, t0);
        ctl_spans->Add(perfbench::kCore, "core.harvest+choose_scheme",
                       static_cast<uint64_t>(k), root, t0, t1);
        ctl_spans->Add(perfbench::kEngine, "engine.repartition",
                       static_cast<uint64_t>(k), root, t1, t2);
        ctl_spans->Close(root, t2);
      }
    }
  });

  std::vector<engine::ActionGraph> wave;
  wave.reserve(kBatch);
  std::array<int, kBatch> classes{};
  std::array<uint64_t, kBatch> dues{};
  SpinClock clock;
  cs->start_ns = sched.start_ns;
  perfbench::RunOpenLoop(sched, clock, kBatch, [&](uint64_t first, uint64_t n,
                                                   uint64_t now) {
    uint64_t wave_id = cs->waves++;
    wave.clear();
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t due = sched.DueNs(first + i);
      dues[i] = due;
      uint64_t lo = static_cast<uint64_t>(
          HotStart(phase_of(due)) * static_cast<double>(subscribers));
      uint64_t sid = rng.Chance(kHotShare) ? lo + rng.Uniform(hot_n)
                                           : rng.Uniform(subscribers);
      wave.push_back(graphs.Mix(rng, sid));
      classes[i] = wave.back().txn_class();
      cs->lateness.Add(now - due);
    }
    uint64_t t1 = NowNs();
    auto fs = svc.exec->SubmitBatch(wave);
    uint64_t t2 = NowNs();
    cs->build_ns += t1 - now;
    cs->submit_ns += t2 - t1;
    cs->submit_max_ns = std::max(cs->submit_max_ns, t2 - t1);
    for (uint64_t i = 0; i < n; ++i)
      cs->class_submitted[static_cast<size_t>(classes[i])].fetch_add(
          1, std::memory_order_relaxed);
    if (!fs.ok()) {
      cs->refused += n;
    } else {
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t tag = tally->Tag(dues[i], classes[i]);
        fs.value()[i].OnComplete([tally, tag](const Status& s) {
          tally->Settle(tag, FromStatus(s));
        });
      }
      cs->submitted += n;
    }
    if (gen_spans) {
      gen_spans->Add(perfbench::kWorkload, "workload.mix", wave_id, -1, now,
                     t1);
      gen_spans->Add(perfbench::kEngine, "engine.submit_batch", wave_id, -1,
                     t1, t2);
    }
  });
  control.join();
  uint64_t t = NowNs();
  svc.exec->Drain();
  cs->end_ns = NowNs();
  cs->wait_ns += cs->end_ns - t;
  if (gen_spans)
    gen_spans->Add(perfbench::kEngine, "engine.drain", cs->waves, -1, t,
                   cs->end_ns);
}

// ---- wire loop (tatp-wire-durable) -----------------------------------------

/// Closed loop over the wire: one server::Client, kWireConnections
/// connections, each wave of kBatch requests on one connection (one
/// TXN_BATCH frame). Client::Submit blocks in its window gate, so at most
/// kWireWindow requests are outstanding per connection. A request the
/// server sheds (OVERLOADED) is counted in `sheds` and submitted again
/// before the next wave, keeping its original latency origin. Latency runs
/// from just before the first Client::Submit to the final ack callback.
/// Runs exactly `txns` transactions.
struct WireRetry {
  server::TxnRequest req;
  uint64_t tag;
};

bool RunWireLoop(server::Client& client, uint64_t subscribers, Rng& rng,
                 uint64_t txns, Tally* tally, ClientStats* cs,
                 SpanLog* spans) {
  std::array<server::TxnRequest, kBatch> reqs{};
  std::vector<WireRetry> retries;
  auto submit = [&](int conn, const server::TxnRequest& req, uint64_t tag) {
    return client.Submit(conn, req, [tally, cs, &retries, req,
                                     tag](server::WireStatus s) {
      if (s == server::WireStatus::kOverloaded) {
        ++cs->sheds;
        retries.push_back({req, tag});
      } else {
        tally->Settle(tag, FromWire(s));
      }
    });
  };
  auto resubmit_sheds = [&](int conn) {
    std::vector<WireRetry> again;
    again.swap(retries);
    for (const WireRetry& r : again)
      if (!submit(conn, r.req, r.tag).ok()) ++cs->refused;
  };
  cs->start_ns = NowNs();
  while (cs->submitted + cs->refused < txns) {
    uint64_t wave_id = cs->waves++;
    int conn = static_cast<int>(wave_id % kWireConnections);
    uint64_t t0 = NowNs();
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(kBatch, txns - cs->submitted - cs->refused));
    for (size_t i = 0; i < n; ++i)
      reqs[i] = server::DrawTatpMix(rng, subscribers);
    uint64_t t1 = NowNs();
    resubmit_sheds(conn);
    for (size_t i = 0; i < n; ++i) {
      if (submit(conn, reqs[i], tally->Tag(NowNs(), reqs[i].txn_class)).ok())
        ++cs->submitted;
      else
        ++cs->refused;
    }
    uint64_t t2 = NowNs();
    cs->build_ns += t1 - t0;
    cs->submit_ns += t2 - t1;
    cs->submit_max_ns = std::max(cs->submit_max_ns, t2 - t1);
    if (spans) {
      spans->Add(perfbench::kWorkload, "workload.draw_requests", wave_id, -1,
                 t0, t1);
      spans->Add(perfbench::kServer, "server.client_submit", wave_id, -1, t1,
                 t2);
    }
  }
  uint64_t t = NowNs();
  const uint64_t give_up = t + 30'000'000'000ULL;
  while ((client.outstanding() > 0 || !retries.empty()) && NowNs() < give_up) {
    resubmit_sheds(0);
    client.FlushAll();
    client.Poll(5);
  }
  cs->end_ns = NowNs();
  cs->wait_ns += cs->end_ns - t;
  if (spans)
    spans->Add(perfbench::kServer, "server.client_poll", cs->waves, -1, t,
               cs->end_ns);
  return client.outstanding() == 0 && retries.empty();
}

// ---- report ----------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Report {
  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> config;  // key, JSON value
  std::vector<std::pair<std::string, bool>> checks;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, unit, value});
  }
  void Config(const std::string& key, const std::string& v) {
    config.push_back({key, JsonString(v)});
  }
  void Config(const std::string& key, double v) {
    config.push_back({key, JsonNumber(v)});
  }
  void Check(const std::string& what, bool ok) {
    checks.push_back({what, ok});
    if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  bool correct() const {
    for (auto& c : checks)
      if (!c.second) return false;
    return true;
  }

  std::string Json(uint64_t attempted, uint64_t failed) const {
    std::string s = "{\"config\":{";
    for (size_t i = 0; i < config.size(); ++i)
      s += (i ? "," : "") + JsonString(config[i].first) + ":" +
           config[i].second;
    s += "},\"checks\":[";
    for (size_t i = 0; i < checks.size(); ++i)
      s += std::string(i ? "," : "") + "{\"check\":" +
           JsonString(checks[i].first) +
           ",\"ok\":" + (checks[i].second ? "true" : "false") + "}";
    s += "],\"correct\":";
    s += correct() ? "true" : "false";
    s += ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i)
      s += (i ? "," : "") + JsonString(metrics[i].name) +
           ":{\"value\":" + JsonNumber(metrics[i].value) +
           ",\"unit\":" + JsonString(metrics[i].unit) + "}";
    return s + "}}";
  }
};

/// Keeps the benchmark's threads off the CPUs the partition workers pin
/// themselves to (cores 0..kPartitions-1, see hw::BindCurrentThread):
/// restricts the calling thread to the remaining CPUs before any engine
/// thread exists, so the server I/O threads, the log flusher and the
/// control thread inherit the same mask. Returns the CPUs used.
std::string PinClientThreads(int nproc) {
  if (nproc <= kPartitions) return "any";
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = kPartitions; c < nproc; ++c) CPU_SET(c, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0)
    return "any";
  return std::to_string(kPartitions) + "-" + std::to_string(nproc - 1);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double PerTxn(uint64_t ns, uint64_t txns, double unit_ns) {
  return txns ? static_cast<double>(ns) / static_cast<double>(txns) / unit_ns
              : 0.0;
}

double MedianOrZero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : perfbench::Median(v);
}

double MaxOrZero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Cost of recording one finished span, measured on this thread, for the
/// tracing-overhead estimate.
double SpanCostNs() {
  constexpr int kSpans = 1 << 20;
  SpanLog scratch;
  uint64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i)
    scratch.Add(perfbench::kEngine, "calibrate", static_cast<uint64_t>(i), -1,
                t0, t0 + static_cast<uint64_t>(i));
  return static_cast<double>(NowNs() - t0) / kSpans;
}

/// Single-threaded Table::Read of every Subscriber key (after the run,
/// with the executor drained), in a scattered order — key i * kStride mod
/// n visits each key once, and is not cache-friendly the way a sequential
/// scan is, so the time per read grows with the working set. Returns ns
/// per read; counts rows found and sums vlr_location.
double ScanSubscribers(storage::Table* t, uint64_t subscribers,
                       uint64_t* found, long long* vlr_sum) {
  constexpr uint64_t kStride = 1'000'003;  // prime, larger than any n here
  *found = 0;
  *vlr_sum = 0;
  uint64_t t0 = NowNs();
  storage::Tuple row;
  for (uint64_t i = 0; i < subscribers; ++i) {
    if (t->Read(i * kStride % subscribers, &row).ok()) {
      ++*found;
      *vlr_sum += row.GetInt(workload::kVlrLoc);
    }
  }
  return static_cast<double>(NowNs() - t0) /
         static_cast<double>(std::max<uint64_t>(subscribers, 1));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const bool traced = flags.GetInt("trace", 0) != 0;
  const std::string spans_out = flags.GetString("spans_out", "");
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (name == w.name) wl = &w;
  if (wl == nullptr || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: tatp_bench --workload=<tatp-cached|tatp-1m-remote|"
                 "tatp-wire-durable|tatp-shift> --seed=<n> --seconds=<s> "
                 "--trace=<0|1> [--spans_out=<csv>]\n");
    return 2;
  }
  const Workload& w = *wl;
  const uint64_t origin_ns = NowNs();
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const std::string client_cpus = PinClientThreads(nproc);
  Report rep;

  // Span buffers: generator thread, control thread, set-up and post-run.
  SpanLog gen_spans(traced ? 1 << 20 : 0), ctl_spans, side_spans;
  SpanLog* gen = traced ? &gen_spans : nullptr;
  SpanLog* ctl = traced ? &ctl_spans : nullptr;
  SpanLog* side = traced ? &side_spans : nullptr;

  // ---- set-up, w.setup_reps times; the last one is used -------------------
  std::vector<double> setup_s;
  std::unique_ptr<Service> svc;
  for (int r = 0; r < w.setup_reps; ++r) {
    svc.reset();
    uint64_t t0 = NowNs();
    svc = Setup(w, seed, r + 1 == w.setup_reps ? side : nullptr);
    if (!svc) return 2;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  engine::Database& db = *svc->db;
  engine::PartitionedExecutor& exec = *svc->exec;
  const uint64_t cf_rows_before =
      db.table(workload::kCallForwarding)->num_rows();

  // ---- warm-up (untimed, same client path) --------------------------------
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  Tally warm_tally;
  ClientStats warm;
  std::unique_ptr<server::Client> client;
  if (w.kind == Kind::kWire) {
    server::Client::Options copt;
    copt.port = svc->server->port();
    copt.connections = kWireConnections;
    copt.window = kWireWindow;
    copt.batch = kBatch;
    copt.deadline_ms = 30'000;
    client = std::make_unique<server::Client>(copt);
    Status st = client->Connect();
    if (!st.ok()) {
      std::fprintf(stderr, "client connect failed: %s\n",
                   st.ToString().c_str());
      return 2;
    }
    // Unsettled requests would keep callbacks into the warm-up's state.
    if (!RunWireLoop(*client, w.subscribers, rng, kWireWarmupTxns,
                     &warm_tally, &warm, nullptr)) {
      std::fprintf(stderr, "warm-up requests never settled\n");
      return 1;
    }
  } else {
    RunClosedLoop(*svc, w.subscribers, rng, UINT64_MAX, kWarmupTxns,
                  &warm_tally, &warm, nullptr);
  }
  db.memory().stats().Reset();
  const obs::StatsSnapshot snap0 = db.StatsSnapshot();
  const uint64_t executed0 = exec.executed_actions();
  const uint64_t log_records0 =
      exec.log_manager() ? exec.log_manager()->num_records() : 0;
  const uint64_t log_bytes0 =
      exec.log_manager() ? exec.log_manager()->bytes_logged() : 0;

  // ---- timed run -----------------------------------------------------------
  const uint64_t t_start = NowNs();
  const uint64_t seg_ns = static_cast<uint64_t>(seconds * 1e9 / kSegments);
  Tally tally(t_start, seg_ns);
  ClientStats cs;
  ShiftResult shift;
  bool wire_settled = true;
  switch (w.kind) {
    case Kind::kClosed:
      RunClosedLoop(*svc, w.subscribers, rng,
                    t_start + static_cast<uint64_t>(seconds * 1e9), UINT64_MAX,
                    &tally, &cs, gen);
      exec.Drain();
      break;
    case Kind::kShift:
      RunShift(*svc, w, rng, seconds, &tally, &cs, gen, ctl, &shift);
      break;
    case Kind::kWire:
      wire_settled =
          RunWireLoop(*client, w.subscribers, rng,
                      static_cast<uint64_t>(kWireTxnsPerSecond * seconds),
                      &tally, &cs, gen);
      break;
  }
  const double run_s = static_cast<double>(cs.end_ns - cs.start_ns) / 1e9;
  const obs::StatsSnapshot snap1 = db.StatsSnapshot();
  const mem::AllocStats& alloc = db.memory().stats();
  const double remote_bytes = static_cast<double>(alloc.RemoteAccessBytes());
  const double access_bytes =
      remote_bytes + static_cast<double>(alloc.LocalAccessBytes());
  const TallySlot timed = tally.Merged();
  const TallySlot warmed = warm_tally.Merged();

  // ---- post-run: log flush + recovery, storage scan, checks ---------------
  double flush_ms = 0, recover_s = 0;
  uint64_t log_records = 0, log_bytes = 0;
  uint64_t recovered_found = 0;
  long long recovered_vlr = 0;
  uint64_t recovered_cf = 0;
  log::RecoveryReport recovery;
  if (w.kind == Kind::kWire) {
    uint64_t t0 = NowNs();
    client->CloseAll();
    svc->server->Stop();
    exec.Drain();
    uint64_t t1 = NowNs();
    log::LogManager* lm = exec.log_manager();
    lm->FlushAll();
    uint64_t t2 = NowNs();
    std::vector<log::ShardSnapshot> cut = lm->SnapshotDurable();
    uint64_t t3 = NowNs();
    log_records = lm->num_records();
    log_bytes = lm->bytes_logged();
    auto fresh =
        workload::BuildTatpTables(w.subscribers, {0, SplitSid(w)}, seed);
    std::vector<storage::Table*> raw;
    for (auto& t : fresh) raw.push_back(t.get());
    uint64_t t4 = NowNs();
    recovery = log::Recover(cut, raw);
    uint64_t t5 = NowNs();
    flush_ms = static_cast<double>(t2 - t1) / 1e6;
    recover_s = static_cast<double>(t5 - t4) / 1e9;
    ScanSubscribers(raw[workload::kSubscriber], w.subscribers,
                    &recovered_found, &recovered_vlr);
    recovered_cf = raw[workload::kCallForwarding]->num_rows();
    if (side) {
      side->Add(perfbench::kServer, "server.stop+engine.drain", 1, -1, t0, t1);
      side->Add(perfbench::kLog, "log.flush_all", 1, -1, t1, t2);
      side->Add(perfbench::kLog, "log.snapshot_durable", 1, -1, t2, t3);
      side->Add(perfbench::kWorkload, "workload.build_tables", 1, -1, t3, t4);
      side->Add(perfbench::kLog, "log.recover", 1, -1, t4, t5);
    }
  }
  uint64_t live_found = 0;
  long long live_vlr = 0;
  uint64_t t_scan = NowNs();
  const double read_ns = ScanSubscribers(db.table(workload::kSubscriber),
                                         w.subscribers, &live_found, &live_vlr);
  if (side)
    side->Add(perfbench::kStorage, "storage.scan_subscriber", 2, -1, t_scan,
              NowNs());
  const uint64_t cf_rows_after =
      db.table(workload::kCallForwarding)->num_rows();

  // Output checks.
  const uint64_t submitted = warm.submitted + cs.submitted;
  const uint64_t settled = warmed.settled + timed.settled;
  rep.Check("every submitted transaction settled exactly once (" +
                std::to_string(settled) + " callbacks for " +
                std::to_string(submitted) + " submitted)",
            settled == submitted && wire_settled);
  uint64_t other = warmed.outcomes[kOther] + timed.outcomes[kOther];
  rep.Check("only spec statuses (OK, NotFound, AlreadyExists) occurred (" +
                std::to_string(other) + " others)",
            other == 0);
  const int64_t cf_delta = static_cast<int64_t>(cf_rows_after) -
                           static_cast<int64_t>(cf_rows_before);
  const int64_t cf_expect =
      static_cast<int64_t>(warmed.cf_inserted + timed.cf_inserted) -
      static_cast<int64_t>(warmed.cf_deleted + timed.cf_deleted);
  rep.Check("CallForwarding rows changed by successful inserts - deletes (" +
                std::to_string(cf_delta) + " vs " + std::to_string(cf_expect) +
                ")",
            cf_delta == cf_expect);
  rep.Check("every Subscriber row is readable after the run",
            live_found == w.subscribers);
  if (w.kind == Kind::kWire) {
    rep.Check("recovered Subscriber vlr_location sum equals the live one",
              recovered_found == w.subscribers && recovered_vlr == live_vlr);
    rep.Check("recovered CallForwarding row count equals the live one",
              recovered_cf == cf_rows_after);
    rep.Check("recovery replayed every record and decided every transaction",
              recovery.records_without_image == 0 &&
                  recovery.records_diff_missed == 0 &&
                  recovery.txns_undecided == 0 && recovery.txns_poisoned == 0);
  }
  if (w.kind == Kind::kShift)
    rep.Check("every repartition applied at least one action",
              shift.repartition_ok &&
                  shift.repartition_ms.size() == static_cast<size_t>(kShifts));
  const uint64_t n_lat = timed.latency.count();
  rep.Check("at least 1000 latency samples (p99 has 10 beyond it)",
            n_lat >= 1000);

  // ---- metrics -------------------------------------------------------------
  const uint64_t txns = timed.settled;
  const uint64_t failed = cs.refused + timed.outcomes[kOther];
  const uint64_t attempted = cs.submitted + cs.refused;
  // Closed loops: median over the segments that ended before the last
  // completion. tatp-shift: the whole run, since its stalls are the point.
  std::vector<double> seg_tps, seg_p50, seg_p99;
  for (int i = 0; i < kSegments && t_start + (i + 1) * seg_ns <= cs.end_ns;
       ++i) {
    seg_tps.push_back(static_cast<double>(timed.seg_done[i]) /
                      (static_cast<double>(seg_ns) / 1e9));
    seg_p50.push_back(timed.seg_latency[i].Quantile(0.50) / 1e3);
    seg_p99.push_back(timed.seg_latency[i].Quantile(0.99) / 1e3);
  }
  const bool by_segment = w.kind != Kind::kShift && !seg_tps.empty();
  const double tps =
      by_segment ? perfbench::Median(seg_tps)
                 : (run_s > 0 ? static_cast<double>(txns) / run_s : 0);
  rep.Add("tps", tps, "1/s");
  rep.Add("p50_us",
          by_segment ? perfbench::Median(seg_p50)
                     : timed.latency.Quantile(0.50) / 1e3,
          "us");
  rep.Add("p99_us",
          by_segment ? perfbench::Median(seg_p99)
                     : timed.latency.Quantile(0.99) / 1e3,
          "us");
  rep.Add("setup_s", perfbench::Median(setup_s), "s");
  rep.Add("peak_rss_mb", PeakRssMb(), "MB");
  rep.Add("fail_frac",
          attempted
              ? static_cast<double>(failed) / static_cast<double>(attempted)
              : 0.0,
          "1");
  const double tail_p = perfbench::TailPercentile(n_lat);
  rep.Add("latency.samples", static_cast<double>(n_lat), "count");
  rep.Add("latency.tail_percentile", tail_p, "%");
  rep.Add("latency.tail_us", timed.latency.Quantile(tail_p / 100.0) / 1e3,
          "us");

  const bool in_process = w.kind != Kind::kWire;
  rep.Add("workload.build_us_per_txn", PerTxn(cs.build_ns, attempted, 1e3),
          "us");
  rep.Add("workload.gen_late_p99_ms",
          w.kind == Kind::kShift ? cs.lateness.Quantile(0.99) / 1e6 : 0.0,
          "ms");
  rep.Add("engine.submit_us_per_txn",
          in_process ? PerTxn(cs.submit_ns, attempted, 1e3) : 0.0, "us");
  rep.Add("engine.submit_max_ms",
          in_process ? static_cast<double>(cs.submit_max_ns) / 1e6 : 0.0, "ms");
  rep.Add("engine.wait_us_per_txn",
          w.kind == Kind::kClosed ? PerTxn(cs.wait_ns, txns, 1e3) : 0.0, "us");
  rep.Add("engine.actions_per_txn",
          txns ? static_cast<double>(exec.executed_actions() - executed0) /
                     static_cast<double>(txns)
               : 0.0,
          "count");
  rep.Add("engine.drain_batch_p50",
          static_cast<double>(
              snap1.hist(obs::HistId::kDrainBatchSize).Quantile(0.5)),
          "count");
  rep.Add("engine.internal_commit_p99_us",
          static_cast<double>(
              snap1.hist(obs::HistId::kCommitLatencyUs).Quantile(0.99)),
          "us");
  rep.Add("engine.repartition_ms", MedianOrZero(shift.repartition_ms), "ms");
  rep.Add("engine.repartition_max_ms", MaxOrZero(shift.repartition_ms), "ms");
  rep.Add("engine.repartition_actions", MedianOrZero(shift.actions), "count");
  rep.Add("core.choose_scheme_ms", MedianOrZero(shift.choose_ms), "ms");
  rep.Add("storage.read_ns", read_ns, "ns");
  rep.Add("storage.suspensions_per_txn",
          txns ? static_cast<double>(
                     snap1.counter(obs::CounterId::kInterleaveSuspensions) -
                     snap0.counter(obs::CounterId::kInterleaveSuspensions)) /
                     static_cast<double>(txns)
               : 0.0,
          "count");
  rep.Add("mem.remote_access_frac",
          access_bytes > 0 ? remote_bytes / access_bytes : 0.0, "1");
  rep.Add("mem.migrated_mb_per_repartition", MedianOrZero(shift.migrated_mb),
          "MB");
  const uint64_t commits = timed.outcomes[kOk];
  const bool durable = w.durability != engine::DurabilityMode::kOff;
  rep.Add("log.bytes_per_commit",
          durable && commits ? static_cast<double>(log_bytes - log_bytes0) /
                                   static_cast<double>(commits)
                             : 0.0,
          "B");
  rep.Add("log.records_per_commit",
          durable && commits ? static_cast<double>(log_records - log_records0) /
                                   static_cast<double>(commits)
                             : 0.0,
          "count");
  rep.Add("log.flush_all_ms", flush_ms, "ms");
  rep.Add("log.recover_s", recover_s, "s");
  rep.Add("log.recover_mb_per_s",
          recover_s > 0 ? static_cast<double>(log_bytes) / 1e6 / recover_s
                        : 0.0,
          "MB/s");
  rep.Add("server.client_submit_us_per_txn",
          w.kind == Kind::kWire ? PerTxn(cs.submit_ns, attempted, 1e3) : 0.0,
          "us");
  rep.Add("server.bytes_per_txn",
          w.kind == Kind::kWire && txns
              ? static_cast<double>(
                    snap1.counter(obs::CounterId::kNetBytesIn) +
                    snap1.counter(obs::CounterId::kNetBytesOut) -
                    snap0.counter(obs::CounterId::kNetBytesIn) -
                    snap0.counter(obs::CounterId::kNetBytesOut)) /
                    static_cast<double>(txns)
              : 0.0,
          "B");
  rep.Add("server.shed_frac",
          attempted ? static_cast<double>(cs.sheds) /
                          static_cast<double>(attempted)
                    : 0.0,
          "1");

  // Traced run: self time per layer, and the estimated tracing overhead
  // on the generator thread (spans it recorded x measured cost per span,
  // over its wall time).
  std::array<uint64_t, perfbench::kNumLayers> self{};
  for (const SpanLog* log : {&gen_spans, &ctl_spans, &side_spans}) {
    auto s = perfbench::SelfTimeNs(log->spans());
    for (int l = 0; l < perfbench::kNumLayers; ++l) self[l] += s[l];
  }
  for (int l = 0; l < perfbench::kNumLayers; ++l)
    rep.Add(std::string("self.") + perfbench::LayerName(l) + "_ms",
            static_cast<double>(self[l]) / 1e6, "ms");
  // Share of the generator's time inside SubmitBatch that fell while a
  // Repartition held the scheme gate (tatp-shift): how much of the stall
  // clients feel is the repartition.
  uint64_t submit_ns = 0, blocked_ns = 0;
  for (const perfbench::Span& s : gen_spans.spans()) {
    if (std::strcmp(s.name, "engine.submit_batch") != 0) continue;
    submit_ns += s.end_ns - s.start_ns;
    for (const perfbench::Span& r : ctl_spans.spans()) {
      if (std::strcmp(r.name, "engine.repartition") != 0) continue;
      uint64_t lo = std::max(s.start_ns, r.start_ns);
      uint64_t hi = std::min(s.end_ns, r.end_ns);
      if (hi > lo) blocked_ns += hi - lo;
    }
  }
  rep.Add("trace.repartition_block_frac",
          submit_ns ? static_cast<double>(blocked_ns) /
                          static_cast<double>(submit_ns)
                    : 0.0,
          "1");
  const double span_ns = traced ? SpanCostNs() : 0.0;
  rep.Add("trace.spans", static_cast<double>(gen_spans.size() +
                                             ctl_spans.size() +
                                             side_spans.size()),
          "count");
  rep.Add("trace.overhead_frac",
          run_s > 0 ? span_ns * static_cast<double>(gen_spans.size()) /
                          (run_s * 1e9)
                    : 0.0,
          "1");
  rep.Add("trace.tps", traced ? tps : 0.0, "1/s");

  // ---- config stamp --------------------------------------------------------
  int busy = kPartitions + 1;  // partition workers + the generator
  if (w.kind == Kind::kWire) busy += kIslands;  // server I/O threads
  if (durable) busy += 1;                       // group-commit flusher
  rep.Config("workload", w.name);
  rep.Config("seed", static_cast<double>(seed));
  rep.Config("seconds", seconds);
  rep.Config("traced", traced ? 1.0 : 0.0);
  rep.Config("nproc", nproc);
  rep.Config("islands_x_cores", std::to_string(kIslands) + "x" +
                                    std::to_string(kCoresPerIsland));
  rep.Config("busy_threads", busy);
  rep.Config("client_cpus", client_cpus);
  rep.Config("subscribers", static_cast<double>(w.subscribers));
  rep.Config("placement", mem::ToString(w.placement));
  rep.Config("interleave_depth", w.interleave);
  rep.Config("durability", ToString(w.durability));
  rep.Config("adaptivity", "off");
  rep.Config("repartitions", static_cast<double>(shift.repartition_ms.size()));
  rep.Config("loop", w.kind == Kind::kShift ? "open" : "closed");
  if (w.kind == Kind::kShift) {
    rep.Config("offered_rate_tps", kShiftRate);
    rep.Config("hot_spot", "60% of traffic on 10% of subscribers, moved " +
                               std::to_string(kShifts) + " times");
  } else {
    rep.Config("depth", static_cast<double>(kDepth));
  }
  rep.Config("batch", static_cast<double>(kBatch));
  if (w.kind == Kind::kWire) {
    rep.Config("connections", kWireConnections);
    rep.Config("window", kWireWindow);
    rep.Config("fixed_txns", static_cast<double>(attempted));
  }
  rep.Config("setup_reps", w.setup_reps);
  rep.Config("warmup_txns", static_cast<double>(warm.submitted));
  rep.Config("latency_samples", static_cast<double>(n_lat));
  rep.Config("refused", static_cast<double>(cs.refused));
  rep.Config("sheds_resent", static_cast<double>(cs.sheds));
  for (int o = 0; o < kNumOutcomes; ++o)
    rep.Config(std::string("outcome.") + kOutcomeNames[o],
               static_cast<double>(timed.outcomes[o]));
  rep.Config("run_s", run_s);
  rep.Config("segments_used", by_segment ? seg_tps.size() : 0.0);
  if (busy > nproc)
    std::fprintf(stderr,
                 "warning: %d busy threads (workers, generator, server I/O, "
                 "log flusher) on %d CPUs; the run measures the scheduler "
                 "too\n",
                 busy, nproc);

  if (traced && !spans_out.empty()) {
    if (!perfbench::WriteSpansCsv(spans_out,
                                  {&gen_spans, &ctl_spans, &side_spans},
                                  origin_ns))
      std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
  }
  svc.reset();
  std::printf("%s\n", rep.Json(attempted, failed).c_str());
  return rep.correct() ? 0 : 1;
}
