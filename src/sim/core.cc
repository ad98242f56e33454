#include "sim/core.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "obs/phase.hh"
#include "obs/stats.hh"

namespace psca {

namespace {

/**
 * Registry hooks for the simulator hot path. References are resolved
 * once (registry objects are never deallocated) so the per-interval
 * cost is a handful of plain uint64_t adds.
 */
struct SimObs
{
    obs::Counter &intervals;
    obs::Counter &warmups;
    obs::Counter &instructions;
    obs::Counter &cycles;
    obs::Counter &replayNs;
    obs::Counter &l1dHits;
    obs::Counter &l1dMisses;
    obs::Counter &l2Misses;
    obs::Counter &llcMisses;
    obs::Counter &bpredHits;
    obs::Counter &bpredMisses;
    obs::Counter &modeSwitches;
    obs::Counter &ringClamps;

    static SimObs &
    get()
    {
        auto &reg = obs::StatRegistry::instance();
        static SimObs hooks{
            reg.counter("sim.intervals"),
            reg.counter("sim.warmups"),
            reg.counter("sim.instructions_retired"),
            reg.counter("sim.cycles"),
            reg.counter("sim.replay_ns"),
            reg.counter("sim.l1d_hits"),
            reg.counter("sim.l1d_misses"),
            reg.counter("sim.l2_misses"),
            reg.counter("sim.llc_misses"),
            reg.counter("sim.bpred_hits"),
            reg.counter("sim.bpred_misses"),
            reg.counter("sim.mode_switches"),
            reg.counter("sim.ring_clamps"),
        };
        return hooks;
    }
};

/** Bucket a residency/latency value into a 16-bucket histogram. */
uint16_t
residencyBucket(uint64_t v)
{
    // Buckets: 0,1,2,3,4-7,8-15,...; log-ish spacing.
    if (v < 4)
        return static_cast<uint16_t>(v);
    return static_cast<uint16_t>(
        std::min(15, 65 - std::countl_zero(v)));
}

} // namespace

void
noteRingClamp()
{
    SimObs::get().ringClamps.add();
}

void
HotCtrs::flush(Counters &out)
{
    // Every uop is fetched, dispatched, issued and retired exactly
    // once, so the stream counters follow from the per-class issue
    // counts of both clusters.
    uint64_t opc_retired[kNumOpClasses];
    uint64_t uops = 0;
    for (size_t k = 0; k < kNumOpClasses; ++k) {
        opc_retired[k] = opcIssued[0][k] + opcIssued[1][k];
        uops += opc_retired[k];
    }
    const auto of = [&](OpClass k) {
        return opc_retired[static_cast<size_t>(k)];
    };
    for (Ctr c : {Ctr::DecodeUops, Ctr::UopsDispatched,
                  Ctr::UopsIssuedTotal, Ctr::InstRetired,
                  Ctr::UopsRetired})
        inc(c, uops);
    inc(Ctr::LoadsRetired, of(OpClass::Load));
    inc(Ctr::StoresRetired, of(OpClass::Store));
    inc(Ctr::BranchesRetired, of(OpClass::Branch));
    inc(Ctr::FpOpsRetired, of(OpClass::FpAdd) + of(OpClass::FpMul) +
                               of(OpClass::FpDiv) + of(OpClass::FpFma));
    inc(Ctr::IntOpsRetired, of(OpClass::IntAlu) + of(OpClass::IntMul) +
                                of(OpClass::IntDiv));

    const auto &reg = CounterRegistry::instance();
    for (size_t i = 0; i < kNumScalarCtrs; ++i)
        if (scalar[i])
            out.inc(static_cast<uint16_t>(i), scalar[i]);
    for (int c = 0; c < kNumClusters; ++c)
        for (size_t e = 0; e < kNumClusterCtrs; ++e)
            if (cluster[c][e])
                out.inc(reg.index(static_cast<ClusterCtr>(e), c),
                        cluster[c][e]);

    const auto family = [&](CtrFamily f, const uint64_t *vals,
                            size_t n) {
        const uint16_t base = reg.familyBase(f);
        for (size_t i = 0; i < n; ++i)
            if (vals[i])
                out.inc(static_cast<uint16_t>(base + i), vals[i]);
    };
    family(CtrFamily::RobOccHist, robOccHist, 16);
    family(CtrFamily::RsOccHistC0, rsOccHist[0], 16);
    family(CtrFamily::RsOccHistC1, rsOccHist[1], 16);
    family(CtrFamily::SqOccHist, sqOccHist, 16);
    family(CtrFamily::LoadLatHist, loadLatHist, 16);
    family(CtrFamily::FetchBundleHist, fetchBundleHist, 9);
    family(CtrFamily::IssueBundleHistC0, issueBundleHist[0], 5);
    family(CtrFamily::IssueBundleHistC1, issueBundleHist[1], 5);
    family(CtrFamily::DepWaitHist, depWaitHist, 16);
    family(CtrFamily::UopsPcRegion, uopsPcRegion, 64);
    family(CtrFamily::BrMispredPcRegion, brMispredPcRegion, 64);
    family(CtrFamily::OpcIssuedC0, opcIssued[0], kNumOpClasses);
    family(CtrFamily::OpcIssuedC1, opcIssued[1], kNumOpClasses);
    family(CtrFamily::OpcRetired, opc_retired, kNumOpClasses);

    *this = HotCtrs{};
}

ClusteredCore::ClusteredCore(const CoreConfig &cfg)
    : cfg_(cfg),
      mem_(cfg),
      retireSlots_(static_cast<uint8_t>(cfg.retireWidth)),
      issueRing_{
          BandwidthRing(static_cast<uint8_t>(cfg.issueWidthPerCluster)),
          BandwidthRing(static_cast<uint8_t>(cfg.issueWidthPerCluster))},
      loadPorts_{
          BandwidthRing(static_cast<uint8_t>(cfg.loadPortsPerCluster)),
          BandwidthRing(static_cast<uint8_t>(cfg.loadPortsPerCluster))},
      mshrs_{MshrPool(cfg.mshrsPerCluster),
             MshrPool(cfg.mshrsPerCluster)}
{
    robRetire_.assign(static_cast<size_t>(cfg.robSize), 0);
    for (int c = 0; c < kNumClusters; ++c)
        rsIssueTime_[c].assign(static_cast<size_t>(cfg.rsSizePerCluster),
                               0);
    sqFreeTime_.assign(static_cast<size_t>(cfg.sqSize), 0);
    fwdTable_.assign(64, FwdEntry{});
}

void
ClusteredCore::reset()
{
    mode_ = CoreMode::HighPerf;
    counters_.reset();
    hot_ = HotCtrs{};
    mem_.reset();
    bpred_.reset();
    std::fill(std::begin(regReady_), std::end(regReady_), 0);
    // "Written long ago": forces the first touch of each register to
    // re-latch its strand round-robin (unsigned distance wraps huge).
    std::fill(std::begin(regLastWriter_), std::end(regLastWriter_),
              ~0ULL - (1ULL << 32));
    std::fill(std::begin(regCluster_), std::end(regCluster_), 0);
    seq_ = 0;
    robSlot_ = 0;
    std::fill(robRetire_.begin(), robRetire_.end(), 0);
    retireSlots_.reset();
    lastRetireTime_ = 0;
    fetchCycle_ = 0;
    fetchedThisCycle_ = 0;
    lastFetchLine_ = ~0ULL;
    for (int c = 0; c < kNumClusters; ++c) {
        issueRing_[c].reset();
        loadPorts_[c].reset();
        mshrs_[c].reset();
        std::fill(rsIssueTime_[c].begin(), rsIssueTime_[c].end(), 0);
        rsSlot_[c] = 0;
        busyIssueCycles_[c] = 0;
    }
    steerBalance_ = 0;
    std::fill(sqFreeTime_.begin(), sqFreeTime_.end(), 0);
    sqSlot_ = 0;
    std::fill(fwdTable_.begin(), fwdTable_.end(), FwdEntry{});
    minDispatchTime_ = 0;
    intervalIssued_ = 0;
}

void
ClusteredCore::setMode(CoreMode mode)
{
    if (mode == mode_)
        return;
    counters_.inc(Ctr::ModeSwitches);
    SimObs::get().modeSwitches.add();
    if (mode == CoreMode::LowPower) {
        // Count registers live on cluster 1; each needs a microcoded
        // transfer uop on cluster 0 (Sec. 3: up to 32, low tens of
        // cycles, execution continues on cluster 0).
        int live = 0;
        for (int r = 0; r < kNumArchRegs; ++r)
            live += regCluster_[r] == 1 ? 1 : 0;
        live = std::min(live, cfg_.gateMicrocodeUops);
        const uint64_t penalty =
            static_cast<uint64_t>(cfg_.gateOverheadCycles) +
            static_cast<uint64_t>(
                (live + cfg_.issueWidthPerCluster - 1) /
                cfg_.issueWidthPerCluster);
        minDispatchTime_ =
            std::max(minDispatchTime_, lastRetireTime_ + penalty);
        for (int r = 0; r < kNumArchRegs; ++r) {
            if (regCluster_[r] == 1) {
                regCluster_[r] = 0;
                regReady_[r] =
                    std::max(regReady_[r], minDispatchTime_);
            }
        }
    } else {
        minDispatchTime_ = std::max(
            minDispatchTime_,
            lastRetireTime_ +
                static_cast<uint64_t>(cfg_.ungateOverheadCycles));
    }
    mode_ = mode;
}

int
ClusteredCore::execLatency(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu: return cfg_.latIntAlu;
      case OpClass::IntMul: return cfg_.latIntMul;
      case OpClass::IntDiv: return cfg_.latIntDiv;
      case OpClass::FpAdd: return cfg_.latFpAdd;
      case OpClass::FpMul: return cfg_.latFpMul;
      case OpClass::FpDiv: return cfg_.latFpDiv;
      case OpClass::FpFma: return cfg_.latFpFma;
      case OpClass::Store: return cfg_.latStore;
      case OpClass::Branch: return cfg_.latBranch;
      default: return 1;
    }
}

int
ClusteredCore::steer(const MicroOp &op)
{
    if (mode_ == CoreMode::LowPower)
        return 0;

    // Dependence-aware steering:
    //  1. read-modify-write uops extend a dependency chain; keep the
    //     chain on its cluster (the inter-cluster forwarding penalty
    //     would otherwise serialize into the chain's critical path);
    //  2. uops reading a value that was produced very recently and is
    //     still in flight follow the producer;
    //  3. everything else starts a new strand and is placed
    //     round-robin, spreading independent work (and its load-port
    //     and MSHR demand) across both clusters.
    int cluster = -1;
    if (op.dst != kNoReg &&
        (op.dst == op.src0 || op.dst == op.src1) &&
        seq_ - regLastWriter_[op.dst] <= 64) {
        // Live chain extension; stale chains re-latch round-robin so
        // phase changes redistribute work.
        cluster = regCluster_[op.dst];
    } else {
        for (int8_t src : {op.src0, op.src1}) {
            if (src == kNoReg)
                continue;
            if (seq_ - regLastWriter_[src] <= 8) {
                cluster = regCluster_[src];
                break;
            }
        }
    }

    if (cluster < 0) {
        cluster = steerBalance_ >= 0 ? 1 : 0;
        steerBalance_ += cluster == 0 ? 1 : -1;
    }
    return cluster;
}

void
ClusteredCore::processUop(const MicroOp &op)
{
    // ---- Fetch -------------------------------------------------------
    if (fetchedThisCycle_ >= cfg_.fetchWidth) {
        ++hot_.fetchBundleHist[std::min(fetchedThisCycle_, 8)];
        ++fetchCycle_;
        fetchedThisCycle_ = 0;
    }
    const uint64_t line = op.pc >> 6;
    if (line != lastFetchLine_) {
        const uint32_t miss_lat = mem_.instAccess(op.pc, counters_);
        if (miss_lat > 0) {
            fetchCycle_ += miss_lat;
            fetchedThisCycle_ = 0;
            hot_.inc(Ctr::FetchStallCycles, miss_lat);
        }
        lastFetchLine_ = line;
    }
    const uint64_t fetch_time = fetchCycle_;
    ++fetchedThisCycle_;
    ++hot_.uopsPcRegion[(op.pc >> 12) & 63];

    // ---- Dispatch ----------------------------------------------------
    const int cluster = steer(op);
    uint64_t dispatch = fetch_time +
        static_cast<uint64_t>(cfg_.frontendDepth);
    dispatch = std::max(dispatch, minDispatchTime_);

    // Stall checks are branchless (flag-add + max): the conditions
    // are data-dependent and mispredict heavily; the counted totals
    // are identical.
    const uint64_t rob_free = robRetire_[robSlot_];
    hot_.scalar[static_cast<size_t>(Ctr::RobFullStalls)] +=
        rob_free > dispatch;
    dispatch = std::max(dispatch, rob_free);
    const size_t rs_slot = rsSlot_[cluster];
    const uint64_t rs_free = rsIssueTime_[cluster][rs_slot];
    hot_.cluster[cluster][static_cast<size_t>(
        ClusterCtr::RsFullStalls)] += rs_free > dispatch;
    dispatch = std::max(dispatch, rs_free);
    size_t sq_slot = 0;
    if (op.isStore()) {
        sq_slot = sqSlot_;
        if (sqFreeTime_[sq_slot] > dispatch) {
            dispatch = sqFreeTime_[sq_slot];
            hot_.inc(Ctr::SqFullStalls);
        }
    }

    // ---- Operand readiness --------------------------------------------
    // Branchless readiness: invalid sources read slot 0 and
    // contribute t = 0, which never raises `ready`.
    uint64_t ready = dispatch + 1;
    int num_srcs = 0;
    const bool hp = mode_ == CoreMode::HighPerf;
    const uint64_t fwd_delay =
        static_cast<uint64_t>(cfg_.interClusterFwdDelay);
    for (int8_t src : {op.src0, op.src1}) {
        const bool valid = src != kNoReg;
        const size_t idx = valid ? static_cast<size_t>(src) : 0;
        const bool cross = valid && hp && regCluster_[idx] != cluster;
        const uint64_t t =
            (valid ? regReady_[idx] : 0) + (cross ? fwd_delay : 0);
        num_srcs += valid;
        hot_.scalar[static_cast<size_t>(Ctr::InterClusterFwd)] += cross;
        ready = std::max(ready, t);
    }
    hot_.inc(Ctr::PhysRegRefs, static_cast<uint64_t>(num_srcs));
    const bool dep_stall = ready > dispatch + 1;
    hot_.scalar[static_cast<size_t>(Ctr::UopsReady)] += !dep_stall;
    hot_.scalar[static_cast<size_t>(Ctr::UopsStalledOnDep)] +=
        dep_stall;
    const uint64_t wait = dep_stall ? ready - (dispatch + 1) : 0;
    hot_.inc(Ctr::DepWaitSum, wait);
    hot_.depWaitHist[residencyBucket(wait)] += dep_stall;

    // ---- Issue --------------------------------------------------------
    bool first_in_cycle = false;
    uint64_t issue = issueRing_[cluster].reserve(ready, &first_in_cycle);
    busyIssueCycles_[cluster] += first_in_cycle;
    // The bundle histogram reads the issue cycle's usage: what the
    // reservation just wrote, unless a load port moved the issue later.
    uint8_t used = issueRing_[cluster].lastUsage();
    if (op.isLoad()) {
        const uint64_t port = loadPorts_[cluster].reserve(issue);
        if (port > issue) {
            issue = port;
            used = issueRing_[cluster].usageAt(issue);
        }
    }

    ++intervalIssued_;
    hot_.inc(ClusterCtr::UopsIssued, cluster);
    ++hot_.opcIssued[cluster][static_cast<size_t>(op.cls)];
    ++hot_.issueBundleHist[cluster][std::min<uint8_t>(used, 4)];

    // ---- Execute ------------------------------------------------------
    uint64_t completion;
    if (op.isLoad()) {
        hot_.inc(ClusterCtr::LoadsIssued, cluster);
        const FwdEntry &fwd = fwdTable_[(op.addr >> 3) & 63];
        if (fwd.addr == op.addr && fwd.readyTime + 256 > issue) {
            // Store-to-load forwarding from the store queue.
            hot_.inc(Ctr::StoreForwards);
            hot_.inc(Ctr::L1dRead);
            hot_.inc(Ctr::L1dHit);
            completion = std::max(issue, fwd.readyTime) +
                static_cast<uint64_t>(cfg_.storeForwardLatency);
        } else {
            completion = mem_.dataAccess(op.addr, false, op.pc, issue,
                                         mshrs_[cluster], counters_);
        }
        const uint64_t lat = completion - issue;
        hot_.inc(Ctr::LoadLatSum, lat);
        ++hot_.loadLatHist[residencyBucket(lat)];
        hot_.inc(Ctr::MshrOccSum, static_cast<uint64_t>(
            mshrs_[cluster].occupancyAt(issue)));
    } else if (op.isStore()) {
        hot_.inc(ClusterCtr::StoresIssued, cluster);
        completion = issue + static_cast<uint64_t>(cfg_.latStore);
        // The cache write happens post-retirement; model its state
        // effects now and free the SQ entry when it completes.
        const uint64_t write_done = mem_.dataAccess(
            op.addr, true, op.pc, completion, mshrs_[cluster],
            counters_);
        sqFreeTime_[sq_slot] = write_done + 1;
        if (++sqSlot_ == sqFreeTime_.size())
            sqSlot_ = 0;
        hot_.inc(Ctr::SqOccSum, write_done - dispatch);
        ++hot_.sqOccHist[residencyBucket(write_done - dispatch)];
        FwdEntry &slot = fwdTable_[(op.addr >> 3) & 63];
        slot.addr = op.addr;
        slot.readyTime = completion;
    } else {
        completion = issue +
            static_cast<uint64_t>(execLatency(op.cls));
    }
    hot_.inc(ClusterCtr::EuBusySum, cluster, completion - issue);

    if (op.dst != kNoReg) {
        regReady_[op.dst] = completion;
        regCluster_[op.dst] = static_cast<uint8_t>(cluster);
        regLastWriter_[op.dst] = seq_;
    }

    // ---- Branch resolution ---------------------------------------------
    if (op.isBranch()) {
        hot_.scalar[static_cast<size_t>(Ctr::BranchTakenRetired)] +=
            op.branchTaken;
        const bool correct =
            bpred_.predictAndUpdate(op.pc, op.branchTaken);
        if (!correct) {
            hot_.inc(Ctr::BranchMispred);
            ++hot_.brMispredPcRegion[(op.pc >> 6) & 63];
            const uint64_t resolve = completion;
            const uint64_t redirect = resolve +
                static_cast<uint64_t>(cfg_.mispredictPenalty);
            if (redirect > fetchCycle_) {
                const uint64_t flushed = std::min<uint64_t>(
                    static_cast<uint64_t>(robRetire_.size()),
                    (redirect - fetch_time) *
                        static_cast<uint64_t>(cfg_.fetchWidth) / 2);
                hot_.inc(Ctr::WrongPathUopsFlushed, flushed);
                hot_.inc(Ctr::FetchStallCycles,
                         redirect - fetchCycle_);
                fetchCycle_ = redirect;
                fetchedThisCycle_ = 0;
            }
        }
    }

    // ---- Retire ---------------------------------------------------------
    // The max() keeps reservations monotone, which is InOrderSlots'
    // precondition: retire never goes back in time.
    uint64_t retire = std::max(completion + 1, lastRetireTime_);
    retire = retireSlots_.reserve(retire);
    lastRetireTime_ = std::max(lastRetireTime_, retire);
    robRetire_[robSlot_] = retire + 1;
    if (++robSlot_ == robRetire_.size())
        robSlot_ = 0;
    rsIssueTime_[cluster][rs_slot] = issue + 1;
    if (++rsSlot_[cluster] == rsIssueTime_[cluster].size())
        rsSlot_[cluster] = 0;
    ++seq_;

    const uint64_t rob_res = retire - dispatch;
    hot_.inc(Ctr::RobOccSum, rob_res);
    ++hot_.robOccHist[residencyBucket(rob_res)];
    const uint64_t rs_res = issue - dispatch;
    hot_.inc(ClusterCtr::RsOccSum, cluster, rs_res);
    ++hot_.rsOccHist[cluster][residencyBucket(rs_res)];
}

ClusteredCore::IntervalSnapshot
ClusteredCore::beginInterval()
{
    // hot_ is always empty here (flushed at the end of the previous
    // interval), so counters_ alone is the complete state.
    IntervalSnapshot s;
    s.startCycle = lastRetireTime_;
    s.busy0 = busyIssueCycles_[0];
    s.busy1 = busyIssueCycles_[1];
    s.l1dHit = counters_.value(Ctr::L1dHit);
    s.l1dMiss = counters_.value(Ctr::L1dMiss);
    s.l2Miss = counters_.value(Ctr::L2Miss);
    s.llcMiss = counters_.value(Ctr::LlcMiss);
    s.branches = counters_.value(Ctr::BranchesRetired);
    s.branchMiss = counters_.value(Ctr::BranchMispred);
    intervalIssued_ = 0;
    return s;
}

IntervalStats
ClusteredCore::endInterval(const IntervalSnapshot &snap, uint64_t n,
                           uint64_t elapsed_ns, bool warmup)
{
    IntervalStats stats;
    stats.instructions = n;
    stats.cycles =
        std::max<uint64_t>(1, lastRetireTime_ - snap.startCycle);
    stats.mode = mode_;

    // The per-uop accumulator lands in the counter vector exactly
    // once per interval, before anything below reads counters_.
    hot_.flush(counters_);

    counters_.inc(Ctr::Cycles, stats.cycles);
    if (mode_ == CoreMode::LowPower)
        counters_.inc(Ctr::GatedCycles, stats.cycles);

    // Whole-interval derived counters.
    const uint64_t busy = std::max(busyIssueCycles_[0] - snap.busy0,
                                   busyIssueCycles_[1] - snap.busy1);
    counters_.inc(Ctr::StallCount,
                  stats.cycles > busy ? stats.cycles - busy : 0);
    const int active_clusters = mode_ == CoreMode::HighPerf ? 2 : 1;
    const uint64_t slots = stats.cycles *
        static_cast<uint64_t>(cfg_.issueWidthPerCluster) *
        static_cast<uint64_t>(active_clusters);
    counters_.inc(Ctr::IssueSlotsUnused,
                  slots > intervalIssued_ ? slots - intervalIssued_ : 0);
    counters_.syncMirrors();

    SimObs &so = SimObs::get();
    (warmup ? so.warmups : so.intervals).add();
    so.instructions.add(n);
    so.cycles.add(stats.cycles);
    so.replayNs.add(elapsed_ns);
    so.l1dHits.add(counters_.value(Ctr::L1dHit) - snap.l1dHit);
    so.l1dMisses.add(counters_.value(Ctr::L1dMiss) - snap.l1dMiss);
    so.l2Misses.add(counters_.value(Ctr::L2Miss) - snap.l2Miss);
    so.llcMisses.add(counters_.value(Ctr::LlcMiss) - snap.llcMiss);
    const uint64_t br =
        counters_.value(Ctr::BranchesRetired) - snap.branches;
    const uint64_t br_miss =
        counters_.value(Ctr::BranchMispred) - snap.branchMiss;
    so.bpredMisses.add(br_miss);
    so.bpredHits.add(br > br_miss ? br - br_miss : 0);
    return stats;
}

IntervalStats
ClusteredCore::run(TraceGenerator &gen, uint64_t n)
{
    return runStream(gen, n, false);
}

void
ClusteredCore::warmUp(TraceGenerator &gen, uint64_t n)
{
    runStream(gen, n, true);
}

IntervalStats
ClusteredCore::runStream(TraceGenerator &gen, uint64_t n, bool warmup)
{
    const auto t0 = std::chrono::steady_clock::now();
    const IntervalSnapshot snap = beginInterval();

    const MicroOp *ops = nullptr;
    for (uint64_t remaining = n; remaining > 0;) {
        const size_t take = gen.next(ops, static_cast<size_t>(remaining));
        for (size_t i = 0; i < take; ++i)
            processUop(ops[i]);
        remaining -= take;
    }
    return endInterval(snap, n, obs::elapsedNs(t0), warmup);
}

IntervalStats
ClusteredCore::run(const MicroOp *ops, uint64_t n)
{
    const auto t0 = std::chrono::steady_clock::now();
    const IntervalSnapshot snap = beginInterval();
    for (uint64_t i = 0; i < n; ++i)
        processUop(ops[i]);
    return endInterval(snap, n, obs::elapsedNs(t0), false);
}

} // namespace psca
