#include "core/guardrail.hh"

#include "common/logging.hh"
#include "obs/stats.hh"

namespace psca {

GuardrailedPredictor::GuardrailedPredictor(GatePredictor &inner,
                                           const GuardrailConfig &cfg)
    : inner_(&inner), cfg_(cfg)
{}

GuardrailedPredictor::GuardrailedPredictor(
    std::unique_ptr<GatePredictor> inner, const GuardrailConfig &cfg)
    : owned_(std::move(inner)), inner_(owned_.get()), cfg_(cfg)
{}

std::unique_ptr<GatePredictor>
GuardrailedPredictor::clone() const
{
    return std::make_unique<GuardrailedPredictor>(inner_->clone(), cfg_);
}

uint64_t
GuardrailedPredictor::granularity() const
{
    return inner_->granularity();
}

uint32_t
GuardrailedPredictor::opsPerInference() const
{
    // The guardrail adds a handful of compares to the firmware loop.
    return inner_->opsPerInference() + 8;
}

std::string
GuardrailedPredictor::name() const
{
    return inner_->name() + "+guardrail";
}

bool
GuardrailedPredictor::decide(
    const std::vector<const float *> &sub_rows,
    const std::vector<float> &sub_cycles, CoreMode mode)
{
    // Block IPC from the sub-interval cycles (equal instructions per
    // sub-interval, so IPC ~ 1 / mean cycles).
    double cycles = 0.0;
    for (float c : sub_cycles)
        cycles += c;
    const double block_ipc = cycles > 0.0
        ? static_cast<double>(sub_cycles.size()) * 10000.0 / cycles
        : 0.0;

    if (mode == CoreMode::HighPerf) {
        // Refresh the reactive reference whenever we can observe the
        // wide configuration directly.
        highIpcRef_ = block_ipc;
        violationStreak_ = 0;
    } else {
        highIpcRef_ *= cfg_.referenceDecay;
        if (highIpcRef_ > 0.0 &&
            block_ipc < cfg_.tripRatio * highIpcRef_) {
            ++violationStreak_;
        } else {
            violationStreak_ = 0;
        }
        if (violationStreak_ >= cfg_.patience &&
            holdoffRemaining_ == 0) {
            ++trips_;
            holdoffRemaining_ = cfg_.holdoffBlocks;
            violationStreak_ = 0;
            obs::StatRegistry::instance()
                .counter("controller.guardrail_trips")
                .add();
            emitEvent("guardrail", LogLevel::Warn,
                      "guardrail trip #" + std::to_string(trips_) +
                          ": IPC below " +
                          std::to_string(cfg_.tripRatio) +
                          " of reference; forcing high-perf for " +
                          std::to_string(cfg_.holdoffBlocks) +
                          " blocks");
        }
    }

    const bool inner_gate = inner_->decide(sub_rows, sub_cycles, mode);
    lastInner_ = inner_gate;
    if (holdoffRemaining_ > 0) {
        --holdoffRemaining_;
        return false; // veto: force high-performance mode
    }
    return inner_gate;
}

} // namespace psca
