#include "trace/generator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace psca {

namespace {

/** Seed stream for one (app, input, trace) triple. */
uint64_t
traceSeed(const Workload &w)
{
    return mixSeeds(mixSeeds(w.genome.seed, w.inputSeed),
                    0xace0fba5eULL + w.traceIndex);
}

/**
 * Apply the input perturbation: a different input shifts phase
 * weights, footprints, and branch behaviour without changing the
 * application's identity.
 */
std::vector<PhaseSpec>
perturbPhases(const AppGenome &genome, uint64_t input_seed)
{
    Rng rng(mixSeeds(genome.seed, mixSeeds(input_seed, 0x1297f17eULL)));
    std::vector<PhaseSpec> phases = genome.phases;
    for (auto &phase : phases) {
        phase.weight *= rng.logNormal(0.0, 0.30);
        phase.meanLenInstr *= rng.logNormal(0.0, 0.25);
        phase.meanLenInstr = std::max(phase.meanLenInstr, 8e3);
        auto &k = phase.kernel;
        k.workingSetBytes = static_cast<uint64_t>(
            std::max(4096.0, static_cast<double>(k.workingSetBytes) *
                                 rng.logNormal(0.0, 0.35)));
        if (k.kind == KernelKind::Branchy) {
            k.predictability = std::clamp(
                k.predictability + rng.gaussian(0.0, 0.02), 0.5, 0.995);
        }
    }
    return phases;
}

} // namespace

TraceGenerator::TraceGenerator(const Workload &workload)
    : workload_(workload),
      phases_(perturbPhases(workload.genome, workload.inputSeed)),
      rng_(traceSeed(workload))
{
    PSCA_ASSERT(!phases_.empty(), "workload has no phases");
    // A kernel finishes its last loop iteration before trimming an
    // emit back to size; the slack absorbs that overshoot, so the
    // buffer keeps this capacity instead of doubling.
    buffer_.reserve(kEmitChunk + kEmitSlack);
    reset();
}

void
TraceGenerator::reset()
{
    rng_ = Rng(traceSeed(workload_));
    kernels_.clear();
    kernels_.resize(phases_.size());
    produced_ = 0;
    buffer_.clear();
    buffer_pos_ = 0;
    current_phase_ = phases_.size(); // force phase entry
    phase_remaining_ = 0;
    // Skip traceIndex phase transitions so different trace indices
    // start at different points of the app's execution.
    for (uint64_t i = 0; i < workload_.traceIndex + 1; ++i)
        enterNextPhase();
}

void
TraceGenerator::enterNextPhase()
{
    // Reused member buffer: phase entry is on the trace hot path and
    // must not allocate once the buffer reaches phases_.size().
    weights_.clear();
    weights_.reserve(phases_.size());
    std::vector<double> &weights = weights_;
    for (const auto &phase : phases_)
        weights.push_back(phase.weight);
    // Independent weighted draws: a self-transition just extends the
    // current phase, so steady-state occupancy is proportional to
    // weight x mean length.
    current_phase_ = rng_.weightedIndex(weights);

    const PhaseSpec &phase = phases_[current_phase_];
    phase_remaining_ = static_cast<uint64_t>(std::max(
        4000.0, phase.meanLenInstr * rng_.logNormal(0.0, 0.45)));

    if (!kernels_[current_phase_]) {
        const uint32_t instance_id = static_cast<uint32_t>(
            (workload_.genome.seed & 0x3f) * 64 + current_phase_);
        kernels_[current_phase_] =
            makeKernel(phase.kernel, instance_id);
    }
}

size_t
TraceGenerator::next(const MicroOp *&ops, size_t max)
{
    if (max == 0)
        return 0;
    if (buffer_pos_ >= buffer_.size()) {
        buffer_.clear();
        buffer_pos_ = 0;
        if (phase_remaining_ == 0)
            enterNextPhase();
        const size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(phase_remaining_, kEmitChunk));
        kernels_[current_phase_]->emit(buffer_, chunk, rng_);
        phase_remaining_ -= chunk;
    }
    const size_t take = std::min(max, buffer_.size() - buffer_pos_);
    ops = buffer_.data() + buffer_pos_;
    buffer_pos_ += take;
    produced_ += take;
    return take;
}

void
TraceGenerator::fill(std::vector<MicroOp> &out, size_t n)
{
    const MicroOp *ops = nullptr;
    while (n > 0) {
        const size_t take = next(ops, n);
        out.insert(out.end(), ops, ops + take);
        n -= take;
    }
}

} // namespace psca
