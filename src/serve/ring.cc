#include "serve/ring.hh"

#include <cstdio>
#include <filesystem>

#include "common/fault.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "obs/stats.hh"

namespace psca {
namespace serve {

namespace {

constexpr uint64_t kRingMagic = 0x50534341524E4731ULL; // "PSCARNG1"
constexpr uint32_t kRingVersion = 1;

using ManifestEntries = std::vector<std::pair<uint32_t, uint64_t>>;

void
writeManifest(BinaryWriter &out, uint32_t active,
              const ManifestEntries &entries)
{
    writeSealed(out, kRingMagic, kRingVersion, [&] {
        out.put<uint32_t>(active);
        out.put<uint64_t>(entries.size());
        for (const auto &[v, sum] : entries) {
            out.put<uint32_t>(v);
            out.put<uint64_t>(sum);
        }
    });
}

} // namespace

FirmwareRing::FirmwareRing(std::string dir, int keep)
    : dir_(std::move(dir)), keep_(keep < 2 ? 2 : keep)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    readManifest();
}

uint32_t
FirmwareRing::latestVersion() const
{
    return entries_.empty() ? 0 : entries_.back().first;
}

std::string
FirmwareRing::imagePath(uint32_t version) const
{
    return dir_ + "/fw.v" + std::to_string(version) + ".bin";
}

std::string
FirmwareRing::manifestPath() const
{
    return dir_ + "/ring.manifest";
}

uint64_t
FirmwareRing::imageChecksum(uint32_t version) const
{
    for (const auto &[v, sum] : entries_)
        if (v == version)
            return sum;
    return 0;
}

uint32_t
FirmwareRing::previousVersion(uint32_t version) const
{
    uint32_t prev = 0;
    for (const auto &[v, sum] : entries_) {
        if (v == version)
            return prev;
        prev = v;
    }
    return 0;
}

void
FirmwareRing::readManifest()
{
    uint32_t active = 0;
    ManifestEntries entries;
    const SealedRead read = readSealedFile(
        manifestPath(), kRingMagic, kRingVersion,
        [&](BinaryReader &in) -> const char * {
            active = in.get<uint32_t>();
            const auto count = in.get<uint64_t>();
            for (uint64_t i = 0; i < count && in.good(); ++i) {
                const auto v = in.get<uint32_t>();
                const auto sum = in.get<uint64_t>();
                entries.emplace_back(v, sum);
            }
            return nullptr;
        });
    // Missing is an empty ring; a corrupt manifest is quarantined
    // and the ring restarts empty.
    if (read.status == SealedStatus::Ok) {
        active_ = active;
        entries_ = std::move(entries);
    } else if (read.status == SealedStatus::Corrupt) {
        quarantineFile(manifestPath(), read.reason);
    }
}

void
FirmwareRing::setPromoteHook(std::function<void()> hook)
{
    promoteHook_ = std::move(hook);
}

uint32_t
FirmwareRing::promote(const FirmwarePackage &pkg)
{
    const uint32_t v = latestVersion() + 1;

    ArtifactTxn txn;
    // Stage order is commit (rename) order: image first, manifest
    // second, so a crash between the renames leaves the old manifest
    // pointing at the old image — never a manifest that references
    // missing or partial bytes.
    BinaryWriter &iw = txn.stage(imagePath(v));
    pkg.write(iw);
    const uint64_t sum = iw.checksum();

    // Mid-swap crash injection: the transaction dies after staging,
    // before anything is published. The ring (and the service's
    // active firmware) are untouched.
    const FaultSite &crash = FAULT_SITE("serve.swap_crash");
    if (crash.enabled() && crash.fires(v)) {
        txn.abort();
        warn("serve: injected swap crash mid-transaction promoting "
             "fw v", v, "; ring unchanged");
        return 0;
    }

    auto entries = entries_;
    entries.emplace_back(v, sum);
    std::vector<uint32_t> pruned;
    while (entries.size() > static_cast<size_t>(keep_)) {
        pruned.push_back(entries.front().first);
        entries.erase(entries.begin());
    }

    writeManifest(txn.stage(manifestPath()), v, entries);

    if (promoteHook_)
        promoteHook_();

    if (!txn.commit()) {
        warn("serve: promotion of fw v", v,
             " failed to commit; ring unchanged");
        return 0;
    }

    for (const uint32_t old : pruned)
        std::remove(imagePath(old).c_str());
    entries_ = std::move(entries);
    active_ = v;
    return v;
}

bool
FirmwareRing::rollbackTo(uint32_t version)
{
    if (imageChecksum(version) == 0) {
        warn("serve: rollback target fw v", version,
             " is not retained in the ring");
        return false;
    }
    // Manifest-only transaction: image files are immutable, so the
    // restored firmware is byte-identical to what was promoted.
    const bool ok = writeArtifactFile(
        manifestPath(), [&](BinaryWriter &out) {
            writeManifest(out, version, entries_);
        });
    if (!ok)
        return false;
    active_ = version;
    return true;
}

bool
FirmwareRing::verifyImage(uint32_t version) const
{
    const uint64_t expect = imageChecksum(version);
    FirmwarePackage pkg;
    return expect != 0 &&
        FirmwarePackage::tryLoad(imagePath(version), pkg, expect);
}

bool
FirmwareRing::verifyAll() const
{
    for (const auto &[v, sum] : entries_)
        if (!verifyImage(v))
            return false;
    return true;
}

bool
FirmwareRing::loadActive(FirmwarePackage &pkg, uint32_t &version)
{
    if (entries_.empty())
        return false;
    // The active version first, then every older retained version in
    // descending order: the newest verifiable image wins.
    std::vector<uint32_t> order{active_};
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it)
        if (it->first != active_)
            order.push_back(it->first);
    for (const uint32_t v : order) {
        FirmwarePackage loaded;
        if (!FirmwarePackage::tryLoad(imagePath(v), loaded,
                                      imageChecksum(v))) {
            warn("serve: fw v", v, " failed ring verification; "
                 "walking back");
            continue;
        }
        if (v != active_) {
            obs::StatRegistry::instance()
                .counter("serve.ring_recoveries")
                .add();
            emitEvent("serve", LogLevel::Warn,
                      "active fw v" + std::to_string(active_) +
                          " unusable; recovered to verified v" +
                          std::to_string(v));
            if (!rollbackTo(v))
                return false;
        }
        pkg = std::move(loaded);
        version = v;
        return true;
    }
    return false;
}

} // namespace serve
} // namespace psca
