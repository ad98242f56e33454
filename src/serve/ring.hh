/**
 * @file
 * Versioned firmware rollback ring (DESIGN.md §15): the on-disk store
 * the adaptive service promotes retrained firmware into and rolls
 * back from. A ring directory holds immutable image files fw.v<N>.bin
 * plus one manifest naming the active version and the content
 * checksum of every retained image.
 *
 * Crash-safety: promote() publishes the new image and the updated
 * manifest through a single ArtifactTxn, staging the image BEFORE the
 * manifest — ArtifactTxn commits renames in stage order, so a crash
 * between the two renames leaves the old manifest pointing at the old
 * (complete, verified) image, with the new image present but
 * unreferenced. A reader can never observe a manifest that references
 * bytes that are not fully on disk. rollbackTo() rewrites only the
 * manifest (one atomic rename); image files are immutable once
 * published, which is what makes a post-probation rollback
 * byte-identical to the pre-swap state.
 *
 * Verification: images and the manifest are sealed files (DESIGN.md
 * §10, "Sealed files"), and the manifest records each image's
 * checksum. loadActive() reads an image once, bound to that recorded
 * checksum, and walks back version by version on any failure, so the
 * service always converges to the newest verifiable image.
 */

#ifndef PSCA_SERVE_RING_HH
#define PSCA_SERVE_RING_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/firmware_image.hh"

namespace psca {
namespace serve {

class FirmwareRing
{
  public:
    /**
     * Open (creating if needed) a ring rooted at @p dir, replaying
     * the manifest. A missing manifest yields an empty ring; a
     * corrupt one is quarantined and the ring restarts empty (images
     * already on disk stay behind for inspection but are unreachable
     * without their recorded checksums).
     *
     * @param keep Retained versions; pruning never drops the active
     *             version or the one promoted immediately before it.
     */
    explicit FirmwareRing(std::string dir, int keep = 4);

    bool empty() const { return entries_.empty(); }
    uint32_t activeVersion() const { return active_; }
    uint32_t latestVersion() const;
    size_t size() const { return entries_.size(); }

    std::string imagePath(uint32_t version) const;
    std::string manifestPath() const;

    /** Manifest checksum of @p version (0 when not retained). */
    uint64_t imageChecksum(uint32_t version) const;

    /** The version promoted immediately before @p version (0 if none). */
    uint32_t previousVersion(uint32_t version) const;

    /**
     * Publish @p pkg as version latest+1 and atomically make it
     * active (one transaction: image staged first, then manifest).
     * Returns the new version number, or 0 on failure — injected
     * serve.swap_crash, staging IO errors, or a failed commit — with
     * the ring unchanged either way.
     */
    uint32_t promote(const FirmwarePackage &pkg);

    /**
     * Atomically repoint the manifest's active version to @p version
     * (must be retained). The image bytes are untouched — rollback
     * restores exactly the bytes promoted earlier.
     */
    bool rollbackTo(uint32_t version);

    /**
     * Load and verify the newest usable image: try the active
     * version, and on checksum/deserialize failure walk back through
     * retained versions (repointing the manifest at the survivor).
     * False only when no retained image verifies.
     *
     * @param version Out: the version actually loaded.
     */
    bool loadActive(FirmwarePackage &pkg, uint32_t &version);

    /**
     * Verify @p version's image file: a sealed read bound to the
     * manifest checksum. Read-only: a failing image stays in place,
     * as an image is never rebuilt.
     */
    bool verifyImage(uint32_t version) const;

    /** verifyImage() over every retained version. */
    bool verifyAll() const;

    /**
     * Test seam: called between staging both files and committing
     * the promotion transaction. Crash-window tests use it to
     * SIGKILL the process with files staged but unpublished.
     */
    void setPromoteHook(std::function<void()> hook);

  private:
    void readManifest();

    std::string dir_;
    int keep_;
    uint32_t active_ = 0;
    /** (version, content checksum), oldest first. */
    std::vector<std::pair<uint32_t, uint64_t>> entries_;
    std::function<void()> promoteHook_;
};

} // namespace serve
} // namespace psca

#endif // PSCA_SERVE_RING_HH
