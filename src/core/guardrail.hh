/**
 * @file
 * Fail-safe guardrail (Sec. 3.1 mentions that the production design
 * carries one; the paper evaluates without it so that model quality
 * is visible — we implement it as an optional wrapper so both
 * configurations can be measured).
 *
 * The guardrail is deliberately model-free: it compares the IPC
 * observed while gated against a reactive estimate of what
 * high-performance mode would deliver (the IPC last seen in high
 * mode, decayed), and when the shortfall persists it forces
 * high-performance mode for a hold-off period regardless of the
 * model's predictions. This bounds the damage of any blindspot at
 * the cost of some PPW (the reactive estimate is itself imperfect).
 */

#ifndef PSCA_CORE_GUARDRAIL_HH
#define PSCA_CORE_GUARDRAIL_HH

#include <memory>

#include "core/controller.hh"

namespace psca {

/** Guardrail tuning. */
struct GuardrailConfig
{
    /** Trip when gated IPC falls below this fraction of the
     *  high-mode reference estimate. */
    double tripRatio = 0.88;
    /** Consecutive violating blocks before tripping. */
    int patience = 1;
    /** Blocks to force high-performance mode after a trip. */
    int holdoffBlocks = 6;
    /** Decay of the high-mode IPC reference per gated block. */
    double referenceDecay = 0.995;
};

/**
 * Wraps any GatePredictor with the fail-safe. The wrapper observes
 * per-block IPC through the sub-interval cycles the controller
 * already forwards, maintains the reactive high-mode reference, and
 * vetoes gate decisions while tripped.
 */
class GuardrailedPredictor : public GatePredictor
{
  public:
    /** Wrap @p inner, which must outlive the wrapper. */
    GuardrailedPredictor(GatePredictor &inner,
                         const GuardrailConfig &cfg = GuardrailConfig{});

    /** Wrap and own @p inner. */
    GuardrailedPredictor(std::unique_ptr<GatePredictor> inner,
                         const GuardrailConfig &cfg = GuardrailConfig{});

    uint64_t granularity() const override;
    bool decide(const std::vector<const float *> &sub_rows,
                const std::vector<float> &sub_cycles,
                CoreMode mode) override;
    uint32_t opsPerInference() const override;
    std::string name() const override;

    /** A fresh guardrail (no reference, streak or hold-off) that owns
     *  a clone of the inner predictor. */
    std::unique_ptr<GatePredictor> clone() const override;

    /** Times the guardrail forced high-performance mode. */
    uint64_t trips() const { return trips_; }

    /**
     * The wrapped model's raw decision from the most recent decide()
     * call, before any guardrail veto. The serve loop's A/B scorer
     * compares model quality (active raw vs shadow raw) without
     * re-implementing the guardrail outside this class.
     */
    bool lastInnerDecision() const { return lastInner_; }

  private:
    std::unique_ptr<GatePredictor> owned_; //!< set when inner_ is owned
    GatePredictor *inner_;
    GuardrailConfig cfg_;
    double highIpcRef_ = 0.0;
    int violationStreak_ = 0;
    int holdoffRemaining_ = 0;
    uint64_t trips_ = 0;
    bool lastInner_ = false;
};

} // namespace psca

#endif // PSCA_CORE_GUARDRAIL_HH
