#include "core/builder.hh"

#include <atomic>
#include <cstdio>

#include "common/fault.hh"
#include "common/journal.hh"
#include "common/parallel.hh"
#include "common/serialize.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "sim/core.hh"
#include "sim/memo.hh"
#include "trace/decoded.hh"
#include "trace/generator.hh"

namespace psca {

namespace {

/** Bump when record semantics change, to invalidate stale caches. */
constexpr uint32_t kCacheVersion = 4; // 4: file header + checksum
constexpr uint64_t kCacheMagic = 0x50534341435253ULL; // "PSCACRS"

void
writeRecord(BinaryWriter &out, const TraceRecord &r)
{
    out.putString(r.name);
    out.put(r.appId);
    out.put(r.traceId);
    out.put(r.numCounters);
    out.putVector(r.deltaHigh);
    out.putVector(r.deltaLow);
    out.putVector(r.cyclesHigh);
    out.putVector(r.cyclesLow);
    out.putVector(r.energyHighNj);
    out.putVector(r.energyLowNj);
}

TraceRecord
readRecord(BinaryReader &in)
{
    TraceRecord r;
    r.name = in.getString();
    r.appId = in.get<uint32_t>();
    r.traceId = in.get<uint32_t>();
    r.numCounters = in.get<uint16_t>();
    r.deltaHigh = in.getVector<float>();
    r.deltaLow = in.getVector<float>();
    r.cyclesHigh = in.getVector<float>();
    r.cyclesLow = in.getVector<float>();
    r.energyHighNj = in.getVector<float>();
    r.energyLowNj = in.getVector<float>();
    return r;
}

} // namespace

IntervalReplay::IntervalReplay(const Workload &workload,
                               const BuildConfig &cfg, CoreMode mode)
    : intervalInstr_(cfg.intervalInstr), core_(cfg.core), gen_(workload)
{
    core_.reset();
    core_.setMode(mode);
    if (cfg.warmupInstr > 0)
        core_.warmUp(gen_, cfg.warmupInstr);
    prev_ = core_.counters().raw();
    delta_.resize(prev_.size());
}

IntervalStats
IntervalReplay::step()
{
    const IntervalStats stats = core_.run(gen_, intervalInstr_);
    const std::vector<uint64_t> &now = core_.counters().raw();
    for (size_t i = 0; i < now.size(); ++i)
        delta_[i] = now[i] - prev_[i];
    prev_ = now;
    return stats;
}

IntervalAdd
projectInterval(const std::vector<uint64_t> &delta, const BuildConfig &cfg,
                CoreMode mode, float *row, const std::vector<uint64_t> *view)
{
    if (row != nullptr) {
        const std::vector<uint64_t> &src = view ? *view : delta;
        for (size_t j = 0; j < cfg.counterIds.size(); ++j)
            row[j] = static_cast<float>(src[cfg.counterIds[j]]);
    }
    const uint64_t cycles = delta[CounterRegistry::index(Ctr::Cycles)];
    const PowerModel power(cfg.power, cfg.core.clockGhz);
    return {cycles, power.intervalEnergyNj(delta, cycles, mode)};
}

uint64_t
memoTraceHash(const Workload &workload, const BuildConfig &cfg)
{
    // Hash pass: stream the generator once, folding the content hash
    // span by span, so the trace is never held whole. The key mixes
    // the content hash with the warmup/interval split because those
    // boundaries determine how the deltas are sliced.
    obs::StatRegistry::instance().counter("record.trace_hash_passes").add();
    const uint64_t n_intervals = workload.lengthInstr / cfg.intervalInstr;
    TraceGenerator gen(workload);
    const uint64_t content_hash = streamContentHash(
        gen, cfg.warmupInstr + n_intervals * cfg.intervalInstr);
    return mixSeeds(mixSeeds(content_hash, cfg.warmupInstr),
                    cfg.intervalInstr);
}

TraceRecording::TraceRecording(const Workload &workload,
                               const BuildConfig &cfg, uint32_t app_id,
                               uint32_t trace_id)
    : workload_(workload), cfg_(cfg),
      // Only the memo key reads the hash, so a disabled memo skips the
      // generator pass that computes it.
      hash_([this]() -> std::optional<uint64_t> {
          if (!SimMemo::instance().enabled())
              return std::nullopt;
          return memoTraceHash(workload_, cfg_);
      }),
      hashed_(hash_.get_future().share())
{
    PSCA_ASSERT(!cfg.counterIds.empty(),
                "recording requires a counter list");
    obs::StatRegistry::instance().counter("record.traces").add();
    record_.name = workload.name;
    record_.appId = app_id;
    record_.traceId = trace_id;
    record_.numCounters = static_cast<uint16_t>(cfg.counterIds.size());
}

void
TraceRecording::runTask(size_t task)
{
    PSCA_ASSERT(task < kTasks, "a recording has no task ", task);
    if (task == 0)
        hash_();
    // Task 1 waits here for task 0's hash: the class comment says why
    // that cannot deadlock.
    recordPass(task == 0 ? CoreMode::HighPerf : CoreMode::LowPower,
               hashed_.get());
}

void
TraceRecording::run()
{
    // Inside a recordCorpus fan-out this region runs inline, as the
    // serial pair.
    obs::ScopedPhase phase("record_trace");
    ThreadPool::instance().parallelFor(kTasks,
                                       [&](size_t t) { runTask(t); });
}

TraceRecord
TraceRecording::take()
{
    PSCA_ASSERT(record_.cyclesHigh.size() == record_.cyclesLow.size(),
                "mode runs disagree on interval count");
    return std::move(record_);
}

void
TraceRecording::recordPass(CoreMode mode,
                           std::optional<uint64_t> trace_hash)
{
    const bool high = mode == CoreMode::HighPerf;
    std::vector<float> &rows = high ? record_.deltaHigh : record_.deltaLow;
    std::vector<float> &cycles =
        high ? record_.cyclesHigh : record_.cyclesLow;
    std::vector<float> &energy =
        high ? record_.energyHighNj : record_.energyLowNj;
    const size_t n_intervals = workload_.lengthInstr / cfg_.intervalInstr;
    const size_t n_ctr = cfg_.counterIds.size();
    rows.resize(n_intervals * n_ctr);
    cycles.resize(n_intervals);
    energy.resize(n_intervals);
    auto project = [&](size_t t, const std::vector<uint64_t> &delta) {
        const IntervalAdd add = projectInterval(delta, cfg_, mode,
                                                rows.data() + t * n_ctr);
        cycles[t] = static_cast<float>(add.cycles);
        energy[t] = static_cast<float>(add.energyNj);
    };

    const MemoKey key{trace_hash.value_or(0), coreConfigHash(cfg_.core),
                      mode};
    auto &memo = SimMemo::instance();
    MemoIntervals intervals;
    if (memo.lookup(key, intervals) && intervals.size() == n_intervals) {
        std::vector<uint64_t> delta;
        for (size_t t = 0; t < n_intervals; ++t) {
            intervals.expand(t, delta);
            project(t, delta);
        }
        return;
    }

    // Sparse deltas are kept only for the memo store.
    intervals = MemoIntervals();
    IntervalReplay replay(workload_, cfg_, mode);
    for (size_t t = 0; t < n_intervals; ++t) {
        replay.step();
        project(t, replay.delta());
        if (memo.enabled())
            intervals.append(replay.delta());
    }
    memo.store(key, intervals);
}

TraceRecord
recordTrace(const Workload &workload, const BuildConfig &cfg,
            uint32_t app_id, uint32_t trace_id)
{
    TraceRecording recording(workload, cfg, app_id, trace_id);
    recording.run();
    return recording.take();
}

std::string
cacheFilePath(const std::string &stem, uint64_t key)
{
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key));
    return cacheDirectory() + "/" + stem + "_" + hex + ".bin";
}

bool
loadCacheFile(const std::string &path, uint64_t magic, uint32_t version,
              uint64_t key, const std::string &stats,
              const std::function<const char *(BinaryReader &)> &parse)
{
    // Any integrity failure — wrong magic or version (stale/foreign
    // file), another key, truncation, checksum mismatch, or an
    // injected persist.cache_corrupt fault — quarantines the file
    // with a named reason, and the caller rebuilds.
    const SealedRead read = readSealedFile(
        path, magic, version, [&](BinaryReader &in) -> const char * {
            const FaultSite &fault = FAULT_SITE("persist.cache_corrupt");
            if (fault.enabled() && fault.fires(key))
                return "injected checksum fault";
            if (in.get<uint64_t>() != key)
                return "config-hash mismatch";
            return parse(in);
        });
    auto &reg = obs::StatRegistry::instance();
    if (read.status == SealedStatus::Ok) {
        reg.counter(stats + "_hits").add();
        return true;
    }
    if (read.status == SealedStatus::Corrupt) {
        reg.counter(stats + "_quarantined").add();
        if (quarantineFile(path, read.reason).collided)
            reg.counter(stats + "_quarantine_collisions").add();
    }
    return false;
}

bool
storeCacheFile(const std::string &path, uint64_t magic, uint32_t version,
               uint64_t key, const std::string &stats,
               const std::function<void(BinaryWriter &)> &fill)
{
    const bool stored = writeArtifactFile(path, [&](BinaryWriter &out) {
        writeSealed(out, magic, version, [&] {
            out.put(key);
            fill(out);
        });
    });
    if (!stored) {
        // Surface the short write: the transactional store already
        // dropped the partial temp, so the next run rebuilds rather
        // than deserializing a truncation.
        warn("cache file '", path, "': write failed");
        obs::StatRegistry::instance()
            .counter(stats + "_write_failures")
            .add();
    }
    return stored;
}

uint64_t
corpusConfigHash(const std::vector<Workload> &workloads,
                 const BuildConfig &cfg)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ kCacheVersion;
    auto mix = [&h](uint64_t v) { h = mixSeeds(h, v); };
    for (const auto &w : workloads) {
        for (char c : w.name)
            mix(static_cast<uint64_t>(c));
        mix(w.genome.seed);
        mix(w.inputSeed);
        mix(w.traceIndex);
        mix(w.lengthInstr);
        for (const auto &p : w.genome.phases) {
            mix(static_cast<uint64_t>(p.kernel.kind));
            mix(p.kernel.workingSetBytes);
            mix(static_cast<uint64_t>(p.kernel.chains));
            mix(static_cast<uint64_t>(p.weight * 1e6));
            mix(static_cast<uint64_t>(p.meanLenInstr));
        }
    }
    mix(cfg.intervalInstr);
    mix(cfg.warmupInstr);
    for (uint16_t id : cfg.counterIds)
        mix(id);
    mix(static_cast<uint64_t>(cfg.core.robSize));
    mix(static_cast<uint64_t>(cfg.core.dramSlotCycles));
    mix(static_cast<uint64_t>(cfg.core.mshrsPerCluster));
    return h;
}

std::vector<TraceRecord>
recordCorpus(const std::vector<Workload> &workloads,
             const std::vector<uint32_t> &app_ids,
             const BuildConfig &cfg, const std::string &cache_tag)
{
    PSCA_ASSERT(workloads.size() == app_ids.size(),
                "workload/app-id list mismatch");
    obs::ScopedPhase phase("record_corpus." + cache_tag);

    const uint64_t hash = corpusConfigHash(workloads, cfg);
    const std::string path = cacheFilePath(cache_tag, hash);

    std::vector<TraceRecord> cached;
    if (loadCacheFile(path, kCacheMagic, kCacheVersion, hash,
                      "record.cache",
                      [&](BinaryReader &in) -> const char * {
                          const auto n = in.get<uint64_t>();
                          for (uint64_t i = 0; i < n && in.good(); ++i)
                              cached.push_back(readRecord(in));
                          return nullptr;
                      }))
    {
        inform("loaded ", cached.size(), " cached records from ", path);
        return cached;
    }

    inform("recording ", workloads.size(), " traces (tag=", cache_tag,
           ", dual-mode simulation, ",
           ThreadPool::instance().numThreads(),
           " threads; cached to ", path, ")");
    // Each trace records independently (fresh core, fresh generator,
    // no RNG shared across tasks), so the fan-out maps into index
    // slots: the cache file and every consumer see records in
    // workload order regardless of thread count. The map is
    // checkpointed — every completed record is journaled under
    // (tag, config hash), so a killed run resumes with only the
    // remaining workloads and still produces byte-identical records.
    const std::string scope = "corpus." + cache_tag;
    std::atomic<size_t> progress{0};
    std::vector<TraceRecord> records = checkpointedMap<TraceRecord>(
        scope, hash, workloads.size(),
        [](BinaryWriter &w, const TraceRecord &r) {
            writeRecord(w, r);
        },
        [](BinaryReader &in) { return readRecord(in); },
        [&](size_t i) {
            TraceRecord r = recordTrace(workloads[i], cfg,
                                        app_ids[i],
                                        static_cast<uint32_t>(i));
            const size_t done =
                progress.fetch_add(1, std::memory_order_relaxed) + 1;
            if (done % 200 == 0)
                inform("  ", done, "/", workloads.size(), " traces");
            return r;
        });

    if (storeCacheFile(path, kCacheMagic, kCacheVersion, hash,
                       "record.cache", [&](BinaryWriter &out) {
                           out.put<uint64_t>(records.size());
                           for (const auto &r : records)
                               writeRecord(out, r);
                       }))
    {
        // The whole-corpus cache now supersedes the per-record
        // checkpoints; retiring the scope deletes them and compacts
        // the journal on the next replay.
        Journal::instance().retireScope(scope, hash);
    }
    return records;
}

std::vector<uint8_t>
blockLabels(const TraceRecord &record, size_t k, double p_sla)
{
    PSCA_ASSERT(k >= 1, "granularity must cover >= 1 interval");
    const size_t blocks = record.numIntervals() / k;
    std::vector<uint8_t> labels(blocks);
    for (size_t b = 0; b < blocks; ++b) {
        double ch = 0.0, cl = 0.0;
        for (size_t t = b * k; t < (b + 1) * k; ++t) {
            ch += record.cyclesHigh[t];
            cl += record.cyclesLow[t];
        }
        // IPC_low / IPC_high == cyclesHigh / cyclesLow.
        labels[b] = cl > 0.0 && ch / cl >= p_sla ? 1 : 0;
    }
    return labels;
}

Dataset
assembleDataset(const std::vector<TraceRecord> &records,
                const AssemblyOptions &opts, uint64_t interval_instr)
{
    obs::ScopedPhase phase("assemble_dataset");
    PSCA_ASSERT(opts.granularityInstr % interval_instr == 0,
                "granularity must be a multiple of the interval");
    const size_t k = opts.granularityInstr / interval_instr;

    Dataset out;
    if (records.empty())
        return out;

    std::vector<size_t> columns = opts.columns;
    if (columns.empty()) {
        columns.resize(records.front().numCounters);
        for (size_t j = 0; j < columns.size(); ++j)
            columns[j] = j;
    }
    out.numFeatures = columns.size();

    // Assemble each record's samples independently, then concatenate
    // the partial datasets in record order — bit-identical to the
    // serial per-record loop at any thread count.
    std::vector<Dataset> parts =
        ThreadPool::instance().parallelMap<Dataset>(
            records.size(), [&](size_t r) {
                const auto &record = records[r];
                Dataset part;
                part.numFeatures = out.numFeatures;
                std::vector<float> features(part.numFeatures);
                const auto labels = blockLabels(record, k, opts.pSla);
                const size_t blocks = labels.size();
                const bool low =
                    opts.telemetryMode == CoreMode::LowPower;
                for (size_t b = 0; b + 2 < blocks; ++b) {
                    double cyc = 0.0;
                    std::vector<double> agg(part.numFeatures, 0.0);
                    for (size_t t = b * k; t < (b + 1) * k; ++t) {
                        const float *row =
                            low ? record.rowLow(t) : record.rowHigh(t);
                        for (size_t j = 0; j < columns.size(); ++j)
                            agg[j] += row[columns[j]];
                        cyc += low ? record.cyclesLow[t]
                                   : record.cyclesHigh[t];
                    }
                    const double inv = cyc > 0.0 ? 1.0 / cyc : 0.0;
                    for (size_t j = 0; j < part.numFeatures; ++j)
                        features[j] = static_cast<float>(agg[j] * inv);
                    part.addSample(features.data(), labels[b + 2],
                                   record.appId, record.traceId);
                }
                return part;
            });
    for (const auto &part : parts) {
        out.x.insert(out.x.end(), part.x.begin(), part.x.end());
        out.y.insert(out.y.end(), part.y.begin(), part.y.end());
        out.appId.insert(out.appId.end(), part.appId.begin(),
                         part.appId.end());
        out.traceId.insert(out.traceId.end(), part.traceId.begin(),
                           part.traceId.end());
    }
    return out;
}

double
idealLowPowerResidency(const std::vector<TraceRecord> &records,
                       double p_sla)
{
    uint64_t gate = 0, total = 0;
    for (const auto &record : records) {
        const auto labels = blockLabels(record, 1, p_sla);
        for (uint8_t y : labels)
            gate += y;
        total += labels.size();
    }
    return total ? static_cast<double>(gate) /
            static_cast<double>(total)
                 : 0.0;
}

} // namespace psca
