#include "core/firmware_image.hh"

#include <algorithm>
#include <utility>

#include "common/journal.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "ml/linear.hh"
#include "ml/mlp.hh"
#include "ml/quant.hh"
#include "ml/tree.hh"
#include "obs/stats.hh"
#include "uc/compilers.hh"

namespace psca {

namespace {

constexpr uint64_t kMagic = 0x50534341465731ULL; // "PSCAFW1"
constexpr uint32_t kFwVersion = 4; // 4: fixed-point slot payloads
                                   //    (int8 tables); 3: padding-
                                   //    free instruction encoding
                                   //    (byte-reproducible images);
                                   //    2: checksum trailer

// UcInst carries an alignment hole after its uint8_t opcode, so a
// raw putVector would serialize uninitialized padding and two images
// compiled from the same model would differ byte-for-byte. Encode
// each field instead: images must be reproducible so the resume and
// fleet-publish paths can compare them with cmp.
void
writeCode(BinaryWriter &out, const std::vector<UcInst> &code)
{
    out.put<uint64_t>(code.size());
    for (const UcInst &inst : code) {
        out.put(inst.op);
        out.put(inst.dst);
        out.put(inst.a);
        out.put(inst.b);
        out.put(inst.imm);
        out.put(inst.ia);
        out.put(inst.ib);
    }
}

/** Bytes writeCode() lays down per instruction. */
constexpr uint64_t kInstBytes = sizeof(UcOpcode) + 3 * sizeof(uint16_t) +
    sizeof(float) + 2 * sizeof(int32_t);

/** False when the length prefix claims more than the file holds. */
bool
readCode(BinaryReader &in, std::vector<UcInst> &code)
{
    const auto n = in.get<uint64_t>();
    if (n > in.remaining() / kInstBytes)
        return false;
    code.resize(n);
    for (UcInst &inst : code) {
        inst.op = in.get<UcOpcode>();
        inst.dst = in.get<uint16_t>();
        inst.a = in.get<uint16_t>();
        inst.b = in.get<uint16_t>();
        inst.imm = in.get<float>();
        inst.ia = in.get<int32_t>();
        inst.ib = in.get<int32_t>();
    }
    return true;
}

void
writeSlot(BinaryWriter &out, const FirmwareSlot &slot)
{
    writeCode(out, slot.program.code);
    out.putVector(slot.program.mem);
    out.put(slot.program.numInputs);
    out.putVector(slot.scaler.mean);
    out.putVector(slot.scaler.invStd);
    out.put(slot.threshold);
    out.putString(slot.quantPayload);
    out.put(slot.quantOps);
}

bool
readSlot(BinaryReader &in, FirmwareSlot &slot)
{
    if (!readCode(in, slot.program.code))
        return false;
    slot.program.mem = in.getVector<float>();
    slot.program.numInputs = in.get<uint16_t>();
    slot.scaler.mean = in.getVector<float>();
    slot.scaler.invStd = in.getVector<float>();
    slot.threshold = in.get<float>();
    slot.quantPayload = in.getString();
    slot.quantOps = in.get<uint32_t>();
    return true;
}

/** One sealed read of an image into @p pkg (DESIGN.md §10). */
SealedRead
readPackage(const std::string &path, FirmwarePackage &pkg,
            std::optional<uint64_t> expect_sum)
{
    SealedRead read = readSealedFile(
        path, kMagic, kFwVersion,
        [&](BinaryReader &in) -> const char * {
            pkg.name = in.getString();
            pkg.granularityInstr = in.get<uint64_t>();
            pkg.columns = in.getVector<uint32_t>();
            pkg.fixedPoint = in.get<uint8_t>() != 0;
            if (!readSlot(in, pkg.high) || !readSlot(in, pkg.low))
                return "code longer than the file";
            return nullptr;
        },
        expect_sum);
    // A sealed fixed-point image can still carry tables this build
    // cannot score (an int8-MLP image from an older build): reject it
    // here, so the ring walks back instead of VmPredictor aborting.
    if (read.status == SealedStatus::Ok && pkg.fixedPoint &&
        (!quant::unpackPayload(pkg.high.quantPayload) ||
         !quant::unpackPayload(pkg.low.quantPayload))) {
        read.status = SealedStatus::Corrupt;
        read.reason = "fixed-point payload does not unpack";
    }
    return read;
}

/** Compile whichever supported model class the slot holds. */
UcProgram
compileAny(const Model &model)
{
    if (const auto *mlp = dynamic_cast<const MlpModel *>(&model))
        return compileMlp(*mlp);
    if (const auto *rf = dynamic_cast<const RandomForest *>(&model))
        return compileForest(*rf);
    if (const auto *lr =
            dynamic_cast<const LogisticRegression *>(&model))
        return compileLogistic(*lr);
    fatal("no firmware compiler for model class '", model.describe(),
          "'");
}

} // namespace

void
FirmwarePackage::write(BinaryWriter &out) const
{
    writeSealed(out, kMagic, kFwVersion, [&] {
        out.putString(name);
        out.put(granularityInstr);
        out.putVector(columns);
        out.put<uint8_t>(fixedPoint ? 1 : 0);
        writeSlot(out, high);
        writeSlot(out, low);
    });
}

void
FirmwarePackage::save(const std::string &path) const
{
    // Transactional publish: a crash mid-save must never leave a
    // torn image under the final name — load() treats corruption as
    // fatal (an image is flashed, not rebuilt), so the rename is the
    // commit point.
    const bool ok = writeArtifactFile(
        path, [this](BinaryWriter &out) { write(out); });
    PSCA_ASSERT(ok, "firmware image write failed");
}

bool
FirmwarePackage::tryLoad(const std::string &path, FirmwarePackage &out,
                         std::optional<uint64_t> expect_sum)
{
    FirmwarePackage pkg;
    if (readPackage(path, pkg, expect_sum).status != SealedStatus::Ok)
        return false;
    out = std::move(pkg);
    return true;
}

FirmwarePackage
FirmwarePackage::load(const std::string &path)
{
    // A firmware image is flashed, not rebuilt: unlike the caches
    // there is no fallback here, so any corruption is fatal. The
    // serve layer's rollback ring uses tryLoad() instead — it can
    // fall back to an earlier version.
    FirmwarePackage pkg;
    const SealedRead read = readPackage(path, pkg, std::nullopt);
    if (read.header == HeaderCheck::BadVersion)
        fatal("firmware image '", path,
              "': version mismatch (stale or future format)");
    if (read.status == SealedStatus::Missing ||
        read.header != HeaderCheck::Ok)
        fatal("'", path, "' is not a psca firmware image");
    if (read.status != SealedStatus::Ok)
        fatal("firmware image '", path, "' is corrupt: ", read.reason);
    return pkg;
}

FirmwarePackage
packageFromDual(const DualModelPredictor &predictor,
                const std::vector<size_t> &columns, bool fixed_point)
{
    FirmwarePackage pkg;
    pkg.name = predictor.name() + ".fw";
    pkg.granularityInstr = predictor.granularity();
    for (size_t c : columns)
        pkg.columns.push_back(static_cast<uint32_t>(c));

    pkg.high.program = compileAny(*predictor.highSlot().model);
    pkg.high.scaler = predictor.highSlot().scaler;
    pkg.high.threshold =
        static_cast<float>(predictor.highSlot().model->threshold());
    pkg.low.program = compileAny(*predictor.lowSlot().model);
    pkg.low.scaler = predictor.lowSlot().scaler;
    pkg.low.threshold =
        static_cast<float>(predictor.lowSlot().model->threshold());

    // Fixed point: also carry the int8 tables; the package then
    // declares itself fixed-point and VmPredictor scores with the
    // quantized path under the int8 ops budget (quant.hh).
    if (fixed_point) {
        pkg.high.quantPayload =
            quant::packPayload(*predictor.highSlot().model);
        pkg.low.quantPayload =
            quant::packPayload(*predictor.lowSlot().model);
        if (!pkg.high.quantPayload.empty() &&
            !pkg.low.quantPayload.empty()) {
            pkg.fixedPoint = true;
            pkg.high.quantOps =
                quant::payloadOps(pkg.high.quantPayload);
            pkg.low.quantOps = quant::payloadOps(pkg.low.quantPayload);
        } else {
            warn("fixed-point package requested but model class has "
                 "no quantized form; packaging the float path only");
            pkg.high.quantPayload.clear();
            pkg.low.quantPayload.clear();
        }
    }
    return pkg;
}

VmPredictor::VmPredictor(FirmwarePackage package)
    : package_(std::move(package))
{
    if (package_.fixedPoint) {
        quantHigh_ = quant::unpackPayload(package_.high.quantPayload);
        quantLow_ = quant::unpackPayload(package_.low.quantPayload);
        PSCA_ASSERT(quantHigh_ && quantLow_,
                    "fixed-point package lacks quantized payloads");
    }
}

std::unique_ptr<GatePredictor>
VmPredictor::clone() const
{
    auto copy = std::make_unique<VmPredictor>(*this);
    copy->vm_ = UcVm{};
    return copy;
}

uint32_t
VmPredictor::opsPerInference() const
{
    // Fixed-point packages run the int8 tables, so the ops budget is
    // charged at the int8 cost model (1 op per MAC, quant.hh).
    if (package_.fixedPoint)
        return std::max(package_.high.quantOps,
                        package_.low.quantOps);
    return static_cast<uint32_t>(
        std::max(package_.high.program.staticOpCount(),
                 package_.low.program.staticOpCount()));
}

bool
VmPredictor::decide(const std::vector<const float *> &sub_rows,
                    const std::vector<float> &sub_cycles,
                    CoreMode mode)
{
    // The same front end as DualModelPredictor: the firmware path
    // sees the identical (possibly faulted) telemetry view.
    const FirmwareSlot &slot =
        mode == CoreMode::HighPerf ? package_.high : package_.low;
    const std::vector<float> agg =
        blockFeatures(sub_rows, sub_cycles, package_.columns);
    std::vector<float> scaled(agg.size());
    slot.scaler.applyRow(agg.data(), scaled.data());
    if (!sanitizeScaled(scaled))
        return false;

    if (package_.fixedPoint) {
        // The uc runs the int8 tables; the sanitized features snap to
        // the int8 grid inside the quantized scorer.
        const Model &model = mode == CoreMode::HighPerf ? *quantHigh_
                                                        : *quantLow_;
        return model.score(scaled.data()) >= slot.threshold;
    }

    const double score =
        vm_.run(slot.program, scaled.data(), scaled.size());
    if (vm_.trapped()) {
        // The inference aborted mid-program; its score is garbage.
        // Fail safe to the high-performance configuration.
        obs::StatRegistry::instance()
            .counter("controller.vm_trap_failsafes")
            .add();
        emitEvent("vm", LogLevel::Warn,
                  "vm trap during inference; failing safe to the "
                  "high-performance configuration");
        return false;
    }
    return score >= slot.threshold;
}

} // namespace psca
