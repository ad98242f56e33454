/**
 * @file
 * The deployable firmware package: what a post-silicon update ships
 * (Sec. 3.2 — adaptation behaviour changes with "the ease of a
 * firmware update", pushed through ordinary datacenter infrastructure
 * management). A package carries, per telemetry mode, the compiled
 * branch-free program, the feature scaler, the record-column map, the
 * decision threshold, and the prediction granularity.
 *
 * VmPredictor executes a loaded package through the firmware VM, so
 * the controller's decisions come from exactly the bytes that would
 * be flashed — closing the loop from training to deployment.
 */

#ifndef PSCA_CORE_FIRMWARE_IMAGE_HH
#define PSCA_CORE_FIRMWARE_IMAGE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/controller.hh"
#include "ml/model.hh"
#include "uc/vm.hh"

namespace psca {

class BinaryWriter;

/** One mode's firmware slot. */
struct FirmwareSlot
{
    UcProgram program;
    FeatureScaler scaler;
    float threshold = 0.5f;
    /**
     * Int8 forest tables (quant::packPayload), present when a forest
     * package was built with `fixed_point` set (packageFromDual).
     * Empty in float-only packages.
     */
    std::string quantPayload;
    /** Ops per inference under the int8 cost model (quant.hh). */
    uint32_t quantOps = 0;
};

/** A complete deployable adaptation firmware package. */
struct FirmwarePackage
{
    std::string name;
    uint64_t granularityInstr = 40000;
    /** Record columns feeding the model, in input order. */
    std::vector<uint32_t> columns;
    /** True when the uc runs the int8 tables instead of the VM. */
    bool fixedPoint = false;
    FirmwareSlot high;
    FirmwareSlot low;

    /** Serialize to a flashable file. */
    void save(const std::string &path) const;

    /**
     * Serialize the image (header through checksum trailer) into an
     * open writer. Used by save() and by multi-image transactional
     * publishes (ArtifactTxn), where several packages must appear
     * under their final names together or not at all.
     */
    void write(BinaryWriter &out) const;

    /**
     * Load a package; fatal on a malformed image (DESIGN.md §10,
     * "Sealed files"). The image is left in place: it is flashed,
     * not rebuilt.
     */
    static FirmwarePackage load(const std::string &path);

    /**
     * Non-fatal load: false on a missing, truncated, or corrupt
     * image, or a fixed-point one whose tables do not unpack, @p out
     * untouched on failure. With @p expect_sum the
     * image must also carry that checksum (the ring manifest's). The
     * serve rollback ring uses this to walk back to the newest
     * verifiable version instead of aborting the process.
     */
    static bool tryLoad(const std::string &path, FirmwarePackage &out,
                        std::optional<uint64_t> expect_sum = std::nullopt);
};

/**
 * Build a package from a trained dual predictor by compiling both
 * models (supported model classes: MLP, random forest, logistic
 * regression). With @p fixed_point a forest package also carries the
 * int8 tables and the uc scores them under the int8 ops budget
 * (quant.hh); any other model class has no int8 form, so its package
 * stays float, byte for byte.
 */
FirmwarePackage packageFromDual(const DualModelPredictor &predictor,
                                const std::vector<size_t> &columns,
                                bool fixed_point = false);

/** Runs a loaded firmware package through the VM. */
class VmPredictor : public GatePredictor
{
  public:
    explicit VmPredictor(FirmwarePackage package);

    uint64_t granularity() const override
    {
        return package_.granularityInstr;
    }
    bool decide(const std::vector<const float *> &sub_rows,
                const std::vector<float> &sub_cycles,
                CoreMode mode) override;
    uint32_t opsPerInference() const override;
    std::string name() const override { return package_.name; }

    /** The same package on a fresh UcVm (run index 0, no ops). */
    std::unique_ptr<GatePredictor> clone() const override;

    /** Cumulative microcontroller ops actually executed. */
    uint64_t vmOpsExecuted() const { return vm_.totalOps(); }

  private:
    FirmwarePackage package_;
    UcVm vm_;
    /** Deserialized int8 scorers when the package is fixed-point. */
    std::shared_ptr<const Model> quantHigh_;
    std::shared_ptr<const Model> quantLow_;
};

} // namespace psca

#endif // PSCA_CORE_FIRMWARE_IMAGE_HH
