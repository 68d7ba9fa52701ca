/**
 * @file
 * Repository benchmark: one workload, one seed, one process,
 * one thread.
 *
 * Each run builds a 4-memory-node pulse rack (one client, every
 * optional plane off) from a ClusterConfig written out here, loads the
 * workload's data structure, and drives it open loop with
 * serve::Fleet. Latency runs from each request's scheduled arrival in
 * simulated time and is taken from exact per-completion samples. Every
 * completion is checked against a host-side expectation. All layers
 * are read from outside through public accessors; host time is taken
 * with steady_clock around public calls. See README.md for why each
 * workload exists and which end-to-end metric each layer metric
 * should move.
 *
 * Usage: pulse_perfbench --workload <name> --seed <n> --seconds <s>
 *                        --trace <0|1>
 * The last stdout line is the JSON result. The exit code is non-zero
 * on any wrong result, determinism mismatch or dropped trace span.
 */
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/apps.h"
#include "common/logging.h"
#include "core/cluster.h"
#include "ds/ds_common.h"
#include "energy/energy_model.h"
#include "isa/analysis.h"
#include "serve/fleet.h"
#include "trace/trace.h"
#include "workloads/workloads.h"

namespace {

using namespace pulse;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kMemNodes = 4;

/** Cold set-ups per run; setup_s is their median. */
constexpr int kSetups = 11;

/** Arrivals in one capacity probe: p99.9 has ten samples beyond. */
constexpr double kProbeArrivals = 10500.0;

/** Capacity search: bisection steps inside the workload's bracket. */
constexpr int kSearchSteps = 6;

/** A run's arrival window is cut into equal simulated-time slices of
 *  about kArrivalsPerSlice arrivals (at least kMinSlices slices): host
 *  speed and in-flight requests are sampled per slice, and the trace
 *  ring is drained after every slice. A slice of the spans-heaviest
 *  workload (tc_scan, ~1000 spans per op) fits the default 2^20-span
 *  ring about twice over. */
constexpr int kMinSlices = 64;
constexpr double kArrivalsPerSlice = 400.0;

/** Longest YCSB-E scan (lengths are uniform in [1, kMaxScan]). */
constexpr std::uint64_t kMaxScan = 127;

/** Paper reference values (Table 2, Fig. 9). Absolute latencies are
 *  not validated against the paper; these rows are. */
constexpr double kPaperUpcIters = 100.0;
constexpr double kPaperUpcEta = 0.06;
constexpr double kPaperTcIters = 75.0;
constexpr double kPaperTcEta = 0.79;
constexpr double kPaperNetStackNs = 430.0;
constexpr double kPaperSchedulerNs = 4.0;
constexpr double kPaperMemNs = 120.0;
constexpr double kPaperLogicNs = 7.0;

enum class App { kUpc, kTc };

struct Workload
{
    const char* name;
    App app;
    double nominal_ops_per_s;
    double p999_limit_us;
    /** Half the traffic is a second tenant issuing updates. */
    bool writes;
    double zipf_theta;
    /** Capacity-search bracket (ops/s): the low end is probed first;
     *  the high end is assumed to miss the limit. */
    double search_lo;
    double search_hi;
    /** Nominal-run arrivals per --seconds: the run's length follows
     *  --seconds, but the simulated work depends on nothing else. */
    double arrivals_per_second;
};

const Workload kWorkloads[] = {
    {"upc_read", App::kUpc, 3.0e6, 100.0, false, 0.0, 2.4e6, 4.8e6, 10000},
    {"tc_scan", App::kTc, 0.5e6, 1000.0, false, 0.0, 1.6e6, 4.0e6, 2500},
    {"upc_rw_skew", App::kUpc, 2.0e6, 100.0, true, 0.99, 1.2e6, 3.6e6,
     20000},
};

/** Environment knobs that would silently change the simulated rack. */
const char* const kForbiddenEnv[] = {
    "PULSE_CHECK", "PULSE_PLACEMENT", "PULSE_REPLICATION",
    "PULSE_SERVING", "PULSE_POOLING",
};

std::uint64_t
split_mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Relative error of @p measured against the paper's @p reference. */
double
rel_err(double measured, double reference)
{
    return std::abs(measured / reference - 1.0);
}

/** Nearest-rank quantile @p q of non-empty @p values. */
template <typename T>
T
quantile(std::vector<T> values, double q)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
    std::nth_element(values.begin(), values.begin() + index, values.end());
    return values[index];
}

/** Nearest-rank percentile of exact latency samples, in microseconds
 *  (0 without samples). */
double
percentile_us(const std::vector<Time>& samples, double q)
{
    return samples.empty() ? 0.0 : to_micros(quantile(samples, q));
}

// ------------------------------------------------------------ the rig

/** A built rack plus its loaded data structure. */
struct Rig
{
    std::unique_ptr<core::Cluster> cluster;
    std::unique_ptr<apps::UpcApp> upc;
    std::unique_ptr<apps::TcApp> tc;
    std::uint64_t num_keys = 0;
};

/** Host seconds one set-up took, split by layer. */
struct SetupTime
{
    double cluster_build_s = 0.0;
    double load_s = 0.0;
};

core::ClusterConfig
cluster_config(const Workload& workload, std::uint64_t seed, bool traced)
{
    core::ClusterConfig config;
    config.num_mem_nodes = kMemNodes;
    config.num_clients = 1;
    // UPC is key-partitioned (Table 2: partitionable); TC uses the
    // glibc-like uniform allocation, so most hops cross nodes.
    config.alloc_policy = workload.app == App::kUpc
                              ? mem::AllocPolicy::kPartitioned
                              : mem::AllocPolicy::kUniform;
    config.seed = seed;
    // Enough in-flight loads per core to cover the 120 ns access
    // latency at full channel bandwidth (same as the figure benches).
    config.accel.workspaces_per_logic = 16;
    config.trace.enabled = traced;
    return config;
}

Rig
build_rig(const Workload& workload, std::uint64_t seed, bool traced,
          SetupTime* times = nullptr)
{
    Rig rig;
    const Clock::time_point t0 = Clock::now();
    rig.cluster = std::make_unique<core::Cluster>(
        cluster_config(workload, seed, traced));
    const Clock::time_point t1 = Clock::now();
    const apps::AppScale scale;
    if (workload.app == App::kUpc) {
        rig.upc = std::make_unique<apps::UpcApp>(*rig.cluster, scale,
                                                 split_mix(seed, 1));
        rig.num_keys = rig.upc->num_keys();
    } else {
        rig.tc = std::make_unique<apps::TcApp>(*rig.cluster, scale,
                                               true, split_mix(seed, 2));
        rig.num_keys = rig.tc->tree().size();
    }
    if (times != nullptr) {
        times->cluster_build_s =
            std::chrono::duration<double>(t1 - t0).count();
        times->load_s = seconds_since(t1);
    }
    return rig;
}

/**
 * Time one set-up in a forked child, so every sample starts from the
 * same fresh heap a user's process starts from (in-process repeats
 * would reuse the freed pages of the previous rack and read faster
 * the more often they ran). Call before the parent allocates much.
 */
SetupTime
time_cold_setup(const Workload& workload, std::uint64_t seed)
{
    int fds[2];
    PULSE_ASSERT(pipe(fds) == 0, "pipe failed");
    const pid_t pid = fork();
    PULSE_ASSERT(pid >= 0, "fork failed");
    if (pid == 0) {
        close(fds[0]);
        SetupTime t;
        // Held to _exit(), which skips the teardown.
        const Rig rig = build_rig(workload, seed, false, &t);
        const bool sent = write(fds[1], &t, sizeof(t)) == sizeof(t);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    SetupTime t;
    const bool received = read(fds[0], &t, sizeof(t)) == sizeof(t);
    close(fds[0]);
    int status = 0;
    PULSE_ASSERT(waitpid(pid, &status, 0) == pid && received &&
                     WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "set-up child failed");
    return t;
}

// ---------------------------------------------------------- the oracle

enum class OpKind : std::uint8_t { kFind, kUpdate, kScan };

/** What one issued operation must return. */
struct Expect
{
    OpKind kind = OpKind::kFind;
    std::uint64_t index = 0;    ///< record index (key_of(index))
    std::uint64_t version = 0;  ///< update: version written
    std::uint64_t length = 0;   ///< scan: requested length
    Time submitted = 0;
    /** find: latest submit time among this key's updates that had
     *  completed when the find was submitted (-1: none). */
    Time read_floor = -1;
};

/**
 * Host-side expectations for every operation. UPC values start as the
 * builder's deterministic pattern; an update writes a value tagged
 * with a fresh version. A find may return the initial value only if no
 * update of its key had completed before it was submitted, or the
 * value of an update U that was not overtaken: no other update of the
 * key both started after U completed and completed before the find
 * was submitted. Scans are checked for count, last key (order) and the
 * fold of every visited record's value head word.
 */
class Oracle
{
  public:
    Oracle(const Workload& workload, Rig& rig, std::uint64_t seed)
        : workload_(workload), rig_(rig), mix_rng_(split_mix(seed, 3))
    {
    }

    /** Fleet MakeOpFn: build the operation and stage its expectation. */
    offload::Operation
    make_op(serve::TenantId tenant, std::uint64_t rank, Time now)
    {
        PULSE_ASSERT(!staged_, "expectation staged twice");
        staged_ = true;
        staged_expect_ = Expect{};
        Expect& expect = staged_expect_;
        expect.submitted = now;
        if (workload_.app == App::kTc) {
            expect.kind = OpKind::kScan;
            expect.index = rank;
            expect.length = mix_rng_.next_range(1, kMaxScan);
            return rig_.tc->tree().make_scan(
                workloads::key_of(expect.index), expect.length, nullptr);
        }
        // Scatter Zipf ranks over the key space so hot keys are not
        // physically adjacent (hashed-popularity model).
        expect.index = workload_.zipf_theta > 0.0
                           ? ds::mix64(rank) % rig_.num_keys
                           : rank;
        const std::uint64_t key = workloads::key_of(expect.index);
        ds::HashTable& table = rig_.upc->table();
        if (tenant == kWriter) {
            expect.kind = OpKind::kUpdate;
            expect.version = versions_.size() + 1;
            versions_.push_back({expect.index, now, -1});
            written_.push_back(expect.index);
            return table.make_update(key, written_value(expect.version),
                                     nullptr);
        }
        expect.kind = OpKind::kFind;
        const auto it = floor_.find(expect.index);
        expect.read_floor = it == floor_.end() ? -1 : it->second;
        return table.make_find(key, nullptr);
    }

    /** Hand the expectation staged by the matching make_op() over. */
    Expect
    take_staged()
    {
        PULSE_ASSERT(staged_, "submit without a staged expectation");
        staged_ = false;
        return staged_expect_;
    }

    /** Check one completion; returns false on a wrong result. */
    bool
    check(const Expect& expect, const offload::Completion& completion,
          Time now)
    {
        switch (expect.kind) {
          case OpKind::kScan: return check_scan(expect, completion);
          case OpKind::kFind: return check_find(expect, completion);
          case OpKind::kUpdate: {
            UpdateRecord& record = versions_.at(expect.version - 1);
            record.completed = now;
            Time& floor = floor_[expect.index];
            floor = std::max(floor, record.submitted);
            return ds::HashTable::parse_update(completion);
          }
        }
        return false;
    }

    /**
     * After the event queue drained: every written key must hold the
     * value of an update that no later update overtook.
     */
    std::uint64_t
    read_back_mismatches()
    {
        std::sort(written_.begin(), written_.end());
        written_.erase(std::unique(written_.begin(), written_.end()),
                       written_.end());
        std::uint64_t bad = 0;
        for (const std::uint64_t index : written_) {
            const std::optional<std::uint64_t> word =
                rig_.upc->table().find_reference(
                    workloads::key_of(index));
            if (!word || !update_visible(index, version_of(*word, index),
                                         floor_.at(index))) {
                bad++;
            }
        }
        return bad;
    }

    /** Tenant 0 reads; with writes on, tenant 1 updates. */
    static constexpr serve::TenantId kWriter = 1;

  private:
    struct UpdateRecord
    {
        std::uint64_t index = 0;
        Time submitted = 0;
        Time completed = -1;  ///< -1 while in flight
    };

    static constexpr std::uint64_t kVersionTag = 0xA5ull << 56;
    static constexpr std::uint64_t kNoVersion = ~0ull;

    /** 240-byte value for @p version: tagged head word, then a mix64
     *  chain (the builder's pattern generator, seeded differently). */
    static std::vector<std::uint8_t>
    written_value(std::uint64_t version)
    {
        std::vector<std::uint8_t> value(240);
        std::uint64_t word = kVersionTag | version;
        for (std::size_t off = 0; off < value.size(); off += 8) {
            std::memcpy(value.data() + off, &word, 8);
            word = ds::mix64(word);
        }
        return value;
    }

    /** Version held by a value head word: 0 = the initial pattern. */
    std::uint64_t
    version_of(std::uint64_t word, std::uint64_t index) const
    {
        if (word == ds::value_pattern_word(workloads::key_of(index))) {
            return 0;
        }
        if ((word & (0xFFull << 56)) != kVersionTag) {
            return kNoVersion;
        }
        const std::uint64_t version = word & ~(0xFFull << 56);
        if (version == 0 || version > versions_.size() ||
            versions_[version - 1].index != index) {
            return kNoVersion;
        }
        return version;
    }

    bool
    update_visible(std::uint64_t index, std::uint64_t version,
                   Time floor) const
    {
        if (version == kNoVersion) {
            return false;
        }
        if (version == 0) {
            return floor < 0;
        }
        const Time completed = versions_[version - 1].completed;
        return versions_[version - 1].index == index &&
               (completed < 0 || completed >= floor);
    }

    bool
    check_find(const Expect& expect, const offload::Completion& completion)
    {
        const ds::HashTable::FindResult result =
            rig_.upc->table().parse_find(completion);
        if (!result.found || result.value.size() != 240) {
            return false;
        }
        const std::uint64_t version =
            version_of(result.value_word, expect.index);
        if (!update_visible(expect.index, version, expect.read_floor)) {
            return false;
        }
        std::vector<std::uint8_t> want(240);
        if (version == 0) {
            ds::fill_value_pattern(workloads::key_of(expect.index),
                                   want.data(), want.size());
        } else {
            want = written_value(version);
        }
        return want == result.value;
    }

    bool
    check_scan(const Expect& expect, const offload::Completion& completion)
    {
        const ds::BPTree::ScanResult result =
            ds::BPTree::parse_scan(completion);
        const std::uint64_t count =
            std::min(expect.length, rig_.num_keys - expect.index);
        std::uint64_t fold = 0;
        for (std::uint64_t i = 0; i < count; i++) {
            fold += ds::value_pattern_word(
                workloads::key_of(expect.index + i));
        }
        return result.complete && result.count == count &&
               result.last_key ==
                   workloads::key_of(expect.index + count - 1) &&
               result.fold == fold;
    }

    const Workload& workload_;
    Rig& rig_;
    Rng mix_rng_;
    bool staged_ = false;
    Expect staged_expect_;
    std::vector<UpdateRecord> versions_;  ///< by version - 1
    std::vector<std::uint64_t> written_;
    /** index -> latest submit time among completed updates. */
    std::unordered_map<std::uint64_t, Time> floor_;
};

// ------------------------------------------------------ one open loop

/** Trace spans folded slice by slice, so the ring never wraps. */
struct TraceTotals
{
    trace::Breakdown breakdown;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;

    void
    absorb(trace::Tracer& tracer)
    {
        const trace::Breakdown slice =
            trace::aggregate_breakdown(tracer.events());
        for (std::size_t k = 0; k < trace::kNumSpanKinds; k++) {
            breakdown.per_kind[k].count += slice.per_kind[k].count;
            breakdown.per_kind[k].total_ps += slice.per_kind[k].total_ps;
        }
        breakdown.dram_loads += slice.dram_loads;
        recorded += tracer.recorded();
        dropped += tracer.dropped();
        tracer.clear();
    }
};

/** Everything one open-loop run measured. */
struct LoopResult
{
    double rate = 0.0;
    std::vector<Time> read_latency;   ///< finds and scans, exact
    std::vector<Time> write_latency;  ///< updates, exact
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t gave_up = 0;     ///< engine timeouts
    std::uint64_t shed = 0;        ///< kRejected responses
    std::uint64_t mismatches = 0;  ///< wrong results
    /** Mean requests in flight at the slice boundaries of the second
     *  and of the last quarter of the arrival window. */
    double backlog_mid = 0;
    double backlog_end = 0;
    std::uint64_t peak_outstanding = 0;
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    Time sim_start = 0;
    Time sim_end = 0;  ///< last completion
    /** Simulated events per host second in each arrival slice. */
    std::vector<double> slice_events_per_s;

    std::uint64_t failed() const { return gave_up + shed + mismatches; }

    std::vector<Time>
    all_latency() const
    {
        std::vector<Time> all = read_latency;
        all.insert(all.end(), write_latency.begin(), write_latency.end());
        return all;
    }

    double p50_us() const { return percentile_us(all_latency(), 0.5); }
    double p999_us() const { return percentile_us(all_latency(), 0.999); }

    /** Backlog grew over the run (more than half again, plus slack). */
    bool
    backlog_growing() const
    {
        return backlog_end > 1.5 * backlog_mid + 16.0;
    }

    /** The run meets the latency limit: p99.9 within it, no failed
     *  operation, no growing backlog. */
    bool
    meets(double p999_limit_us) const
    {
        return failed() == 0 && !backlog_growing() &&
               p999_us() <= p999_limit_us;
    }

    /**
     * Simulated events per host second: the 90th percentile over the
     * arrival slices. Other processes on a shared host slow whole
     * stretches of slices and never speed one up, so a high quantile
     * tracks the simulator rather than its neighbours.
     */
    double
    host_events_per_s() const
    {
        return quantile(slice_events_per_s, 0.9);
    }

    /** Simulated operations per host second (see host_events_per_s). */
    double
    host_ops_per_s() const
    {
        return host_events_per_s() * static_cast<double>(completed) /
               static_cast<double>(events);
    }
};

/** The fleet's client window; far above any backlog a run reaches. */
constexpr std::uint32_t kFleetWindow = 1u << 30;

/**
 * One open-loop run on a rig, advanced one simulated-time slice per
 * step() so that runs on different rigs can be interleaved in one
 * thread (each rig's simulation stays independent and deterministic).
 * Callbacks hold `this`: not copyable or movable.
 */
class OpenLoop
{
  public:
    OpenLoop(const Workload& workload, Rig& rig, Oracle& oracle,
             double rate, double arrivals, std::uint64_t fleet_seed,
             TraceTotals* trace_totals)
        : cluster_(*rig.cluster),
          queue_(cluster_.queue()),
          oracle_(oracle),
          trace_totals_(trace_totals),
          submit_(cluster_.submitter(core::SystemKind::kPulse, 0))
    {
        result_.rate = rate;
        serve::FleetConfig config;
        config.seed = fleet_seed;
        const int tenants = workload.writes ? 2 : 1;
        for (int t = 0; t < tenants; t++) {
            serve::TenantLoad load;
            load.id = static_cast<serve::TenantId>(t);
            load.arrivals = serve::ArrivalKind::kPoisson;
            load.rate_ops_per_s = rate / tenants;
            load.keyspace = rig.num_keys;
            load.zipf_theta = workload.zipf_theta;
            load.window = kFleetWindow;
            load.coalesce = false;
            load.max_retries = 0;  // a give-up is a failure, not a retry
            config.tenants.push_back(load);
        }
        fleet_ = std::make_unique<serve::Fleet>(
            queue_, config,
            [this](serve::TenantId tenant, std::uint64_t rank) {
                return oracle_.make_op(tenant, rank, queue_.now());
            },
            [this](serve::TenantId, offload::Operation&& op) {
                submit(std::move(op));
            });
        events_before_ = queue_.events_executed();
        start_ = queue_.now();
        horizon_ = start_ + static_cast<Time>(arrivals / rate * kSecond);
        // A multiple of 4, for the quarter-window backlog means.
        slices_ = 4 * std::max(kMinSlices / 4,
                               static_cast<int>(std::ceil(
                                   arrivals / kArrivalsPerSlice / 4)));
        slice_ = std::max<Time>((horizon_ - start_) / slices_, 1);
        result_.sim_start = start_;
        fleet_->start(horizon_);
    }

    OpenLoop(const OpenLoop&) = delete;
    OpenLoop& operator=(const OpenLoop&) = delete;

    /** Run the next arrival slice, or one drain slice after the last;
     *  returns false (and finalizes the result) once drained. */
    bool
    step()
    {
        if (done_) {
            return false;
        }
        if (slices_run_ < slices_) {
            run_arrival_slice();
        } else if (!queue_.empty()) {
            queue_.run_until(queue_.now() + slice_);
            absorb_trace();
        } else {
            finish();
        }
        return !done_;
    }

    /** Share of the arrival window simulated so far. */
    double
    progress() const
    {
        return static_cast<double>(slices_run_) / slices_;
    }

    const LoopResult& result() const { return result_; }
    LoopResult& result() { return result_; }

  private:
    /** The fleet owns Operation::done; wrap it to check the result and
     *  keep the exact latency sample. */
    void
    submit(offload::Operation&& op)
    {
        const Expect expect = oracle_.take_staged();
        outstanding_++;
        result_.peak_outstanding =
            std::max(result_.peak_outstanding, outstanding_);
        op.done = [this, expect, inner = std::move(op.done)](
                      offload::Completion&& completion) mutable {
            complete(expect, completion);
            inner(std::move(completion));
        };
        submit_(std::move(op));
    }

    void
    complete(const Expect& expect, const offload::Completion& completion)
    {
        outstanding_--;
        if (completion.timed_out) {
            (completion.rejected ? result_.shed : result_.gave_up)++;
            return;
        }
        const Time now = queue_.now();
        if (!oracle_.check(expect, completion, now) &&
            result_.mismatches++ < 5) {
            std::fprintf(stderr,
                         "wrong result: op %d index %" PRIu64
                         " submitted at %.3f us\n",
                         static_cast<int>(expect.kind), expect.index,
                         to_micros(expect.submitted));
        }
        result_.completed++;
        result_.sim_end = now;
        (expect.kind == OpKind::kUpdate ? result_.write_latency
                                        : result_.read_latency)
            .push_back(now - expect.submitted);
    }

    void
    run_arrival_slice()
    {
        const int s = ++slices_run_;
        const Clock::time_point slice_start = Clock::now();
        const std::uint64_t events =
            queue_.run_until(s == slices_ ? horizon_ : start_ + s * slice_);
        result_.slice_events_per_s.push_back(
            static_cast<double>(events) / seconds_since(slice_start));
        absorb_trace();
        const double quarter = slices_ / 4;
        if (s > slices_ / 4 && s <= slices_ / 2) {
            result_.backlog_mid += fleet_->outstanding() / quarter;
        } else if (s > slices_ * 3 / 4) {
            result_.backlog_end += fleet_->outstanding() / quarter;
        }
    }

    void
    absorb_trace()
    {
        if (trace_totals_ != nullptr) {
            trace_totals_->absorb(cluster_.tracer());
        }
    }

    void
    finish()
    {
        done_ = true;
        result_.events = queue_.events_executed() - events_before_;
        result_.digest = fleet_->completion_digest();
        for (const auto& [tenant, stats] : fleet_->stats()) {
            result_.arrivals += stats.arrivals;
            // The window never binds and nothing coalesces or retries,
            // so every arrival is issued the instant it arrives.
            PULSE_ASSERT(stats.issued == stats.arrivals,
                         "fleet queued arrivals client-side");
        }
        PULSE_ASSERT(outstanding_ == 0 && fleet_->outstanding() == 0,
                     "run ended with traversals in flight");
        PULSE_ASSERT(result_.completed + result_.gave_up + result_.shed ==
                         result_.arrivals,
                     "completions do not account for every arrival");
    }

    core::Cluster& cluster_;
    sim::EventQueue& queue_;
    Oracle& oracle_;
    TraceTotals* trace_totals_;
    workloads::SubmitFn submit_;
    std::unique_ptr<serve::Fleet> fleet_;
    LoopResult result_;
    std::uint64_t outstanding_ = 0;
    std::uint64_t events_before_ = 0;
    Time start_ = 0;
    Time horizon_ = 0;
    Time slice_ = 1;
    int slices_ = kMinSlices;
    int slices_run_ = 0;
    bool done_ = false;
};

/**
 * Capacity search: bisect the offered rate inside the workload's
 * bracket for the highest one that meets the limit (LoopResult::meets).
 * The low end is probed first; if it misses, the search moves to
 * [0, low end]. Advanced one probe slice per step().
 */
class CapacitySearch
{
  public:
    CapacitySearch(const Workload& workload, Rig& rig, Oracle& oracle,
                   std::uint64_t seed)
        : workload_(workload), rig_(rig), oracle_(oracle), seed_(seed),
          lo_(workload.search_lo), hi_(workload.search_hi)
    {
    }

    /** Advance the current probe by one slice; false once done. */
    bool
    step()
    {
        if (probe_step_ > kSearchSteps) {
            return false;
        }
        if (!probe_) {
            const double rate =
                probe_step_ == 0 ? lo_ : 0.5 * (lo_ + hi_);
            probe_ = std::make_unique<OpenLoop>(
                workload_, rig_, oracle_, rate, kProbeArrivals,
                split_mix(seed_, 200 + probe_step_), nullptr);
        }
        if (probe_->step()) {
            return true;
        }
        const LoopResult& probe = probe_->result();
        const bool pass = probe.meets(workload_.p999_limit_us);
        if (probe_step_ == 0 && !pass) {
            hi_ = lo_;
            lo_ = 0.0;
        } else if (probe_step_ > 0) {
            (pass ? lo_ : hi_) = probe.rate;
        }
        probes_.push_back(std::move(probe_->result()));
        probe_.reset();
        probe_step_++;
        return probe_step_ <= kSearchSteps;
    }

    /** Share of the search's arrival windows simulated so far. */
    double
    progress() const
    {
        const double current = probe_ ? probe_->progress() : 0.0;
        return (probe_step_ + current) / (kSearchSteps + 1);
    }

    /** Highest rate that met the limit, in K ops/s. */
    double slo_kops() const { return lo_ / 1e3; }

    std::vector<LoopResult>& probes() { return probes_; }

  private:
    const Workload& workload_;
    Rig& rig_;
    Oracle& oracle_;
    std::uint64_t seed_;
    double lo_;
    double hi_;
    int probe_step_ = 0;
    std::unique_ptr<OpenLoop> probe_;
    std::vector<LoopResult> probes_;
};

// ------------------------------------------------- layer observations

/** Counters read from every layer after a nominal run on a fresh rig. */
struct LayerSnapshot
{
    double events_per_op = 0, host_ns_per_event = 0, coalesced_frac = 0;
    double peak_pending = 0;
    double continuations_per_op = 0, client_bounces_per_op = 0;
    double retransmits_per_op = 0;
    double packets_per_op = 0, client_bytes_per_op = 0, net_dropped = 0;
    double forwards_per_op = 0, iterations_per_op = 0, loads_per_op = 0;
    double stores_per_op = 0, workspace_wait_ns = 0, logic_busy_frac = 0;
    double queue_drops = 0, node_imbalance = 0;
    double dram_bytes_per_op = 0, bw_util = 0;
    double energy_uj_per_op = 0, dynamic_frac = 0;
    double allocated_mib = 0;
};

LayerSnapshot
observe_layers(Rig& rig, const LoopResult& run)
{
    core::Cluster& cluster = *rig.cluster;
    const sim::EventQueue& queue = cluster.queue();
    const double ops = static_cast<double>(run.completed);
    const Time window = run.sim_end - run.sim_start;
    LayerSnapshot s;
    s.events_per_op = static_cast<double>(run.events) / ops;
    s.host_ns_per_event = 1e9 / run.host_events_per_s();
    s.coalesced_frac = static_cast<double>(queue.events_coalesced()) /
                       static_cast<double>(queue.events_scheduled());
    s.peak_pending = static_cast<double>(queue.peak_pending());

    const offload::OffloadStats& off = cluster.offload_engine(0).stats();
    s.continuations_per_op =
        static_cast<double>(off.continuations.value()) / ops;
    s.client_bounces_per_op =
        static_cast<double>(off.client_bounces.value()) / ops;
    s.retransmits_per_op = static_cast<double>(off.retransmits.value()) / ops;

    s.packets_per_op =
        static_cast<double>(cluster.network().packets_routed()) / ops;
    s.client_bytes_per_op =
        static_cast<double>(cluster.client_network_bytes()) / ops;
    s.net_dropped = static_cast<double>(cluster.network().packets_dropped());

    const accel::AccelConfig& accel = cluster.config().accel;
    energy::AcceleratorPower power;
    double requests = 0, forwards = 0, iterations = 0, loads = 0;
    double stores = 0, wait_ps = 0, logic_busy_ps = 0, drops = 0;
    double dram_bytes = 0, bw_capacity = 0, joules = 0, static_j = 0;
    for (NodeId node = 0; node < kMemNodes; node++) {
        const accel::AccelStats& st = cluster.accelerator(node).stats();
        const mem::ChannelSet& channels = cluster.channels(node);
        requests += static_cast<double>(st.requests_received.value());
        forwards += static_cast<double>(st.forwards_sent.value());
        iterations += static_cast<double>(st.iterations.value());
        loads += static_cast<double>(st.loads.value());
        stores += static_cast<double>(st.stores.value());
        wait_ps += st.workspace_wait_time.sum();
        logic_busy_ps += st.logic_busy_time.sum();
        drops += static_cast<double>(st.queue_drops.value());
        const double bytes =
            static_cast<double>(channels.bytes_transferred());
        dram_bytes += bytes;
        bw_capacity += channels.total_effective_bandwidth();

        energy::AcceleratorActivity activity;
        activity.run_time = window;
        activity.net_stack_busy_ps = st.net_stack_time.sum();
        // Physical DRAM busy time and logic occupancy (the Fig. 7
        // energy accounting of bench_util.h).
        activity.mem_pipeline_busy_ps =
            bytes / channels.total_effective_bandwidth() *
            static_cast<double>(kSecond);
        activity.logic_pipeline_busy_ps = st.logic_busy_time.sum();
        joules += energy::accelerator_energy(power, activity);
        static_j += power.static_w * to_seconds(window);
    }
    s.forwards_per_op = forwards / ops;
    s.iterations_per_op = iterations / ops;
    s.loads_per_op = loads / ops;
    s.stores_per_op = stores / ops;
    s.workspace_wait_ns = requests > 0 ? wait_ps / requests / 1e3 : 0.0;
    s.logic_busy_frac =
        logic_busy_ps / (static_cast<double>(window) * kMemNodes *
                         accel.num_cores * accel.eta_pipelines);
    s.queue_drops = drops;
    s.node_imbalance = cluster.node_load_imbalance();
    s.dram_bytes_per_op = dram_bytes / ops;
    s.bw_util = dram_bytes / (bw_capacity * to_seconds(window));
    s.energy_uj_per_op = joules / ops * 1e6;
    s.dynamic_frac = (joules - static_j) / joules;
    s.allocated_mib =
        static_cast<double>(cluster.allocator().total_allocated()) /
        static_cast<double>(kMiB);
    return s;
}

/** Worst offload eta over the workload's programs (the offload test
 *  must hold for each), and the paper's Table 2 reference row. */
struct IsaRow
{
    double eta = 0;
    double paper_eta = 0;
    double paper_iters = 0;
};

IsaRow
isa_row(const Workload& workload, Rig& rig)
{
    offload::OffloadEngine& engine = rig.cluster->offload_engine(0);
    std::vector<std::shared_ptr<const isa::Program>> programs;
    IsaRow row;
    if (workload.app == App::kUpc) {
        programs.push_back(rig.upc->table().find_program());
        if (workload.writes) {
            programs.push_back(rig.upc->table().update_program());
        }
        row.paper_eta = kPaperUpcEta;
        row.paper_iters = kPaperUpcIters;
    } else {
        programs.push_back(rig.tc->tree().scan_fold_program());
        row.paper_eta = kPaperTcEta;
        row.paper_iters = kPaperTcIters;
    }
    for (const auto& program : programs) {
        const isa::ProgramAnalysis& analysis = engine.analysis_for(program);
        row.eta = std::max(row.eta,
                           isa::compute_eta(analysis, engine.config().t_i,
                                            engine.config().t_d));
    }
    return row;
}

// -------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

void
print_table(const char* title, const std::vector<Metric>& metrics)
{
    std::printf("\n%s\n", title);
    for (const Metric& m : metrics) {
        std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
}

std::string
json_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buffer[160];
    for (std::size_t i = 0; i < metrics.size(); i++) {
        std::snprintf(buffer, sizeof(buffer),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      // JSON has no NaN; main() fails the run on one.
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0,
                      metrics[i].unit);
        out += buffer;
    }
    out += "}}";
    return out;
}

double
peak_rss_mib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Args
{
    const Workload* workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

bool
parse_args(int argc, char** argv, Args& args)
{
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            for (const Workload& w : kWorkloads) {
                if (value == w.name) {
                    args.workload = &w;
                }
            }
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != value.c_str() && *end == '\0' &&
                           args.seconds > 0;
        } else if (flag == "--trace") {
            have_trace = value == "0" || value == "1";
            args.trace = value == "1";
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && args.workload != nullptr && have_seed &&
           have_seconds && have_trace;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload upc_read|tc_scan|upc_rw_skew "
                     "--seed N --seconds S --trace 0|1\n",
                     argv[0]);
        return 2;
    }
    for (const char* name : kForbiddenEnv) {
        if (std::getenv(name) != nullptr) {
            std::fprintf(stderr,
                         "refusing to run: %s is set and would change "
                         "the simulated rack; unset it\n",
                         name);
            return 2;
        }
    }
    const Workload& workload = *args.workload;
    const std::uint64_t seed = args.seed;
    const Clock::time_point run_start = Clock::now();
    const core::ClusterConfig shown = cluster_config(workload, seed, false);
    const double nominal_arrivals =
        workload.arrivals_per_second * args.seconds;
    std::printf("workload %s seed %" PRIu64 " seconds %.0f trace %d\n",
                workload.name, seed, args.seconds, args.trace ? 1 : 0);
    std::printf("rack: %u mem nodes, %u client, alloc %s, %u cores x %u "
                "workspaces/node, planes off (check/placement/"
                "replication/serving/faults), cluster seed %" PRIu64 "\n",
                shown.num_mem_nodes, shown.num_clients,
                workload.app == App::kUpc ? "partitioned" : "uniform",
                shown.accel.num_cores,
                shown.accel.workspaces_per_core(), shown.seed);
    std::printf("load: open-loop Poisson %.2f M ops/s nominal, %s, "
                "zipf theta %.2f, p999 limit %.0f us, %.0f arrivals per "
                "nominal run\n",
                workload.nominal_ops_per_s / 1e6,
                workload.app == App::kTc
                    ? "YCSB-E scans of 1-127 records on the B+tree"
                    : workload.writes
                          ? "50/50 find/update tenants on the hash table"
                          : "YCSB-C find on the hash table",
                workload.zipf_theta, workload.p999_limit_us,
                nominal_arrivals);
    std::fflush(stdout);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const std::uint64_t nominal_seed = split_mix(seed, 100);

    // setup_s is the median of kSetups cold set-ups.
    std::vector<double> setup_s, cluster_build_s, load_s;
    for (int i = 0; i < kSetups; i++) {
        const SetupTime t = time_cold_setup(workload, seed);
        cluster_build_s.push_back(t.cluster_build_s);
        load_s.push_back(t.load_s);
        setup_s.push_back(t.cluster_build_s + t.load_s);
    }
    std::printf("\nset-ups (s):");
    for (const double t : setup_s) {
        std::printf(" %.4f", t);
    }
    std::printf("\n");
    std::fflush(stdout);

    // The nominal run shares the thread with a second activity on its
    // own rig: the capacity search (--trace 0) or the traced replay of
    // the nominal run (--trace 1). The two advance in alternating
    // slices, in step by progress, so the nominal run's host-speed
    // samples spread over the whole measurement and a slow stretch of
    // a shared host cannot cover all of them.
    Rig rig = build_rig(workload, seed, false);
    Oracle oracle(workload, rig, seed);
    Rig side_rig = build_rig(workload, seed, args.trace);
    Oracle side_oracle(workload, side_rig, seed);
    TraceTotals totals;
    OpenLoop nominal_loop(workload, rig, oracle, workload.nominal_ops_per_s,
                          nominal_arrivals, nominal_seed, nullptr);
    std::optional<OpenLoop> traced_loop;
    std::optional<CapacitySearch> search;
    if (args.trace) {
        traced_loop.emplace(workload, side_rig, side_oracle,
                            workload.nominal_ops_per_s, nominal_arrivals,
                            nominal_seed, &totals);
    } else {
        search.emplace(workload, side_rig, side_oracle, seed);
    }
    const auto side_progress = [&] {
        return args.trace ? traced_loop->progress() : search->progress();
    };
    const auto side_step = [&] {
        return args.trace ? traced_loop->step() : search->step();
    };
    bool side_running = true;
    while (nominal_loop.step()) {
        while (side_running && side_progress() <= nominal_loop.progress()) {
            side_running = side_step();
        }
    }
    while (side_running) {
        side_running = side_step();
    }

    LoopResult& nominal = nominal_loop.result();
    if (workload.writes) {
        nominal.mismatches += oracle.read_back_mismatches();
    }
    attempted += nominal.arrivals;
    failed += nominal.failed();
    const LayerSnapshot layers = observe_layers(rig, nominal);
    const IsaRow isa = isa_row(workload, rig);
    bool correct = nominal.mismatches == 0;

    // Only wrong results count as failures in the search; give-ups
    // under deliberate overload just miss the limit.
    std::vector<LoopResult> probes;
    if (search) {
        probes = std::move(search->probes());
        if (workload.writes) {
            probes.back().mismatches += side_oracle.read_back_mismatches();
        }
        for (const LoopResult& probe : probes) {
            attempted += probe.arrivals;
            failed += probe.mismatches;
            correct = correct && probe.mismatches == 0;
        }
    }

    // The traced run must reproduce the untraced run exactly, and the
    // slice-by-slice drain must lose no span.
    if (traced_loop) {
        LoopResult& traced = traced_loop->result();
        if (workload.writes) {
            traced.mismatches += side_oracle.read_back_mismatches();
        }
        attempted += traced.arrivals;
        failed += traced.failed();
        const bool same =
            traced.digest == nominal.digest &&
            traced.events == nominal.events &&
            traced.p50_us() == nominal.p50_us() &&
            traced.p999_us() == nominal.p999_us() &&
            traced.sim_end == nominal.sim_end &&
            observe_layers(side_rig, traced).energy_uj_per_op ==
                layers.energy_uj_per_op;
        std::printf("\ntraced run: digest %016" PRIx64 " (%s untraced), "
                    "%" PRIu64 " spans, %" PRIu64 " dropped\n",
                    traced.digest, same ? "matches" : "DIFFERS FROM",
                    totals.recorded, totals.dropped);
        correct = correct && same && totals.dropped == 0 &&
                  traced.mismatches == 0;
    }

    std::printf("\nnominal run: %" PRIu64 " arrivals, %" PRIu64
                " completed, %" PRIu64 " failed (%" PRIu64
                " wrong), digest %016" PRIx64 ", %.3f M events/host s\n",
                nominal.arrivals, nominal.completed, nominal.failed(),
                nominal.mismatches, nominal.digest,
                nominal.host_events_per_s() / 1e6);
    if (!probes.empty()) {
        std::printf("\ncapacity search (p99.9 limit %.0f us):\n"
                    "  %10s %10s %10s %8s %8s %6s %9s %s\n",
                    workload.p999_limit_us, "rate_kops", "p50_us",
                    "p999_us", "bl_mid", "bl_end", "fail", "host_Mev/s",
                    "verdict");
        for (const LoopResult& p : probes) {
            std::printf("  %10.1f %10.3f %10.3f %8.1f %8.1f %6" PRIu64
                        " %9.3f %s\n",
                        p.rate / 1e3, p.p50_us(), p.p999_us(),
                        p.backlog_mid, p.backlog_end, p.failed(),
                        p.host_events_per_s() / 1e6,
                        p.meets(workload.p999_limit_us) ? "meets"
                                                        : "misses");
        }
    }

    std::vector<Metric> end_to_end = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"sim_p50_us", nominal.p50_us(), "us"},
        {"sim_p999_us", nominal.p999_us(), "us"},
        {"slo_kops", search ? search->slo_kops() : 0.0, "kops"},
        {"energy_uj_per_op", layers.energy_uj_per_op, "uJ"},
        {"host_ops_per_s", nominal.host_ops_per_s(), "1/s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };

    std::vector<Metric> per_layer;
    if (args.trace) {
        const LoopResult& traced = traced_loop->result();
        const double ops = static_cast<double>(traced.completed);
        const trace::Breakdown& b = totals.breakdown;
        const double net_ns = b.net_stack_ns_per_pkt();
        const double sched_ns = b.scheduler_ns();
        const double mem_ns = b.mem_pipeline_ns_per_load();
        const double logic_ns = b.logic_ns_per_iter();
        per_layer = {
            {"core.cluster_build_s", quantile(cluster_build_s, 0.5), "s"},
            {"ds.load_s", quantile(load_s, 0.5), "s"},
            {"mem.allocated_mib", layers.allocated_mib, "MiB"},
            {"sim.events_per_op", layers.events_per_op, "count"},
            {"sim.host_ns_per_event", layers.host_ns_per_event, "ns"},
            {"sim.coalesced_frac", layers.coalesced_frac, "frac"},
            {"sim.peak_pending", layers.peak_pending, "count"},
            {"offload.continuations_per_op", layers.continuations_per_op,
             "count"},
            {"offload.client_bounces_per_op", layers.client_bounces_per_op,
             "count"},
            {"offload.retransmits_per_op", layers.retransmits_per_op, "count"},
            {"net.packets_per_op", layers.packets_per_op, "count"},
            {"net.client_bytes_per_op", layers.client_bytes_per_op, "B"},
            {"net.dropped", layers.net_dropped, "count"},
            {"accel.forwards_per_op", layers.forwards_per_op, "count"},
            {"accel.iterations_per_op", layers.iterations_per_op, "count"},
            {"accel.loads_per_op", layers.loads_per_op, "count"},
            {"accel.stores_per_op", layers.stores_per_op, "count"},
            {"accel.workspace_wait_ns", layers.workspace_wait_ns, "ns"},
            {"accel.logic_busy_frac", layers.logic_busy_frac, "frac"},
            {"accel.queue_drops", layers.queue_drops, "count"},
            {"accel.node_imbalance", layers.node_imbalance, "ratio"},
            {"mem.dram_bytes_per_op", layers.dram_bytes_per_op, "B"},
            {"mem.bw_util", layers.bw_util, "frac"},
            {"energy.dynamic_frac", layers.dynamic_frac, "frac"},
            {"serve.read_p999_us",
             percentile_us(nominal.read_latency, 0.999), "us"},
            {"serve.write_p999_us",
             percentile_us(nominal.write_latency, 0.999), "us"},
            {"serve.latency_samples",
             static_cast<double>(nominal.completed), "count"},
            {"serve.failed_frac",
             static_cast<double>(nominal.failed()) /
                 static_cast<double>(nominal.arrivals),
             "frac"},
            {"serve.backlog_mid", nominal.backlog_mid, "count"},
            {"serve.backlog_end", nominal.backlog_end, "count"},
            {"serve.peak_outstanding",
             static_cast<double>(nominal.peak_outstanding), "count"},
            {"isa.eta", isa.eta, "ratio"},
            {"ref.iters_err_frac",
             rel_err(layers.iterations_per_op, isa.paper_iters), "frac"},
            {"ref.eta_err", std::abs(isa.eta - isa.paper_eta), "ratio"},
        };
        for (const trace::SpanKind kind :
             {trace::SpanKind::kClientSubmit,
              trace::SpanKind::kClientResponse,
              trace::SpanKind::kNicUplink, trace::SpanKind::kSwitchRoute,
              trace::SpanKind::kNicDownlink,
              trace::SpanKind::kAccelNetStackRx,
              trace::SpanKind::kAccelScheduler,
              trace::SpanKind::kAccelWorkspaceWait,
              trace::SpanKind::kAccelMemPipeline,
              trace::SpanKind::kAccelLogicPipeline,
              trace::SpanKind::kAccelNetStackTx,
              trace::SpanKind::kMemChannel}) {
            per_layer.push_back({std::string("trace.") +
                                     trace::span_name(kind) + "_ns_per_op",
                                 b.of(kind).total_ps / ops / 1e3, "ns"});
        }
        per_layer.push_back({"trace.fig9_net_stack_ns", net_ns, "ns"});
        per_layer.push_back({"trace.fig9_scheduler_ns", sched_ns, "ns"});
        per_layer.push_back({"trace.fig9_mem_ns_per_load", mem_ns, "ns"});
        per_layer.push_back({"trace.fig9_logic_ns_per_iter", logic_ns, "ns"});
        per_layer.push_back({"ref.fig9_net_stack_err_frac",
                             rel_err(net_ns, kPaperNetStackNs), "frac"});
        per_layer.push_back({"ref.fig9_scheduler_err_frac",
                             rel_err(sched_ns, kPaperSchedulerNs), "frac"});
        per_layer.push_back({"ref.fig9_mem_err_frac",
                             rel_err(mem_ns, kPaperMemNs), "frac"});
        per_layer.push_back({"ref.fig9_logic_err_frac",
                             rel_err(logic_ns, kPaperLogicNs), "frac"});
        per_layer.push_back({"trace.dropped",
                             static_cast<double>(totals.dropped), "count"});
        per_layer.push_back({"trace.host_overhead_frac",
                             nominal.host_events_per_s() /
                                     traced.host_events_per_s() -
                                 1.0,
                             "frac"});

        std::printf("\npaper reference (accuracy only; absolute latencies "
                    "are not validated):\n"
                    "  iterations/op %10.2f  paper %6.0f\n"
                    "  offload eta   %10.3f  paper %6.2f\n"
                    "  net stack ns  %10.1f  paper %6.0f\n"
                    "  scheduler ns  %10.1f  paper %6.0f\n"
                    "  mem ns/load   %10.1f  paper %6.0f\n"
                    "  logic ns/iter %10.1f  paper %6.0f\n",
                    layers.iterations_per_op, isa.paper_iters, isa.eta,
                    isa.paper_eta, net_ns, kPaperNetStackNs, sched_ns,
                    kPaperSchedulerNs, mem_ns, kPaperMemNs, logic_ns,
                    kPaperLogicNs);
    }
    const std::vector<Metric>& metrics = args.trace ? per_layer : end_to_end;
    for (const Metric& m : metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
            correct = false;
        }
    }
    print_table(args.trace ? "per-layer metrics:" : "end-to-end metrics:",
                metrics);
    std::printf("(latency percentiles over %" PRIu64 " exact samples; "
                "setup_s over %zu set-ups; %.1f s total)\n",
                nominal.completed, setup_s.size(),
                seconds_since(run_start));
    std::printf("%s\n",
                json_result(correct, attempted, failed, metrics).c_str());
    return correct ? 0 : 1;
}
