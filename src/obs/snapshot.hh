/**
 * @file
 * Mergeable stat snapshots (DESIGN.md §12): a plain-data copy of a
 * StatRegistry that can be serialized to a compact binary payload,
 * shipped across a process boundary, and folded into another
 * snapshot. The merge rules are commutative and associative —
 * counters sum, gauges take the max (order-invariant; shards that
 * agree on a configuration gauge reproduce it exactly), histograms
 * add buckets/counts and exact integer moment sums — so N shards
 * merged in ANY order reproduce the single-registry report byte for
 * byte. This is the aggregation primitive the distributed
 * coordinator (ROADMAP 1) and the fleet scenario (ROADMAP 2) build
 * on, and the /stats.json endpoint serves from.
 */

#ifndef PSCA_OBS_SNAPSHOT_HH
#define PSCA_OBS_SNAPSHOT_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/stats.hh"

namespace psca {

class BinaryReader;
class BinaryWriter;

namespace obs {

/** One registry's stats, detached from the live atomic objects. */
struct StatSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /** Copy every stat out of @p reg (values read at call time). */
    void capture(const StatRegistry &reg);

    /**
     * Fold another shard in: counters sum, gauges max, histograms
     * merge exactly. Commutative and associative.
     */
    void merge(const StatSnapshot &other);

    /**
     * Payload codec, no header or trailer: the fleet carries it inside
     * checksummed ScopeLeave frames. deserialize() is false on a
     * truncated or malformed payload.
     */
    void serialize(BinaryWriter &out) const;
    bool deserialize(BinaryReader &in);

    /**
     * The "counters"/"gauges"/"histograms" report sections, exactly
     * as StatRegistry::writeJson() emits them (two-space indent,
     * sorted names). With @p trailing_comma the last section is
     * followed by ",\n" for embedding before further sections.
     */
    void writeSections(std::ostream &os, bool trailing_comma) const;

    /** A standalone report object (no phases/events sections). */
    void writeJson(std::ostream &os,
                   const std::string &report_name) const;
};

/**
 * Hook applied to the snapshot served by /stats.json, letting a
 * subsystem that holds remote shards (the fleet coordinator merges
 * every worker's latest ScopeLeave snapshot) fold them into the live
 * view. Deliberately NOT applied to end-of-run report files — those
 * must stay byte-identical across fleet shapes. Function pointer, not
 * std::function: obs/ cannot link dist/.
 */
using LiveSnapshotAugmenter = void (*)(StatSnapshot &snap);

/** Install (or clear, with nullptr) the /stats.json augmenter. */
void setLiveSnapshotAugmenter(LiveSnapshotAugmenter fn);

/** The installed augmenter, or nullptr. */
LiveSnapshotAugmenter liveSnapshotAugmenter();

} // namespace obs
} // namespace psca

#endif // PSCA_OBS_SNAPSHOT_HH
