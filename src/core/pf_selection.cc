#include "core/pf_selection.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/journal.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "math/stats.hh"

namespace psca {

namespace {

/**
 * Everything screen 1's per-record flag rows depend on: the selected
 * mode's delta matrix of every record plus the screening threshold.
 */
uint64_t
screenConfigHash(const std::vector<TraceRecord> &records,
                 const PfConfig &cfg, CoreMode mode)
{
    uint64_t h = kFnv1aBasis;
    const uint64_t thresh =
        static_cast<uint64_t>(cfg.zeroFractionPerTrace * 1e9);
    h = fnv1aUpdate(h, &thresh, sizeof(thresh));
    const uint8_t m = static_cast<uint8_t>(mode);
    h = fnv1aUpdate(h, &m, sizeof(m));
    for (const auto &r : records) {
        const auto &deltas =
            mode == CoreMode::LowPower ? r.deltaLow : r.deltaHigh;
        h = fnv1aUpdate(h, &r.numCounters, sizeof(r.numCounters));
        h = fnv1aUpdate(h, deltas.data(),
                        deltas.size() * sizeof(float));
    }
    return h;
}

} // namespace

Matrix
leadingEigenvectors(const Matrix &sym, size_t count, int iterations)
{
    const size_t n = sym.rows();
    Matrix work = sym;
    Matrix vecs(count, n);
    Rng rng(0x91e17ULL);

    for (size_t k = 0; k < count; ++k) {
        std::vector<double> v(n);
        for (auto &x : v)
            x = rng.gaussian();
        double eigenvalue = 0.0;
        for (int it = 0; it < iterations; ++it) {
            std::vector<double> next = work.multiply(v);
            double norm = 0.0;
            for (double x : next)
                norm += x * x;
            norm = std::sqrt(norm);
            if (norm < 1e-300)
                break;
            for (auto &x : next)
                x /= norm;
            eigenvalue = norm;
            v.swap(next);
        }
        for (size_t j = 0; j < n; ++j)
            vecs(k, j) = v[j];
        // Deflate: work -= lambda * v v^T.
        for (size_t i = 0; i < n; ++i) {
            const double vi = eigenvalue * v[i];
            for (size_t j = 0; j < n; ++j)
                work(i, j) -= vi * v[j];
        }
    }
    return vecs;
}

PfResult
pfCounterSelection(const std::vector<TraceRecord> &records,
                   const PfConfig &cfg, CoreMode mode)
{
    PfResult result;
    PSCA_ASSERT(!records.empty(), "PF selection needs records");
    const size_t width = records.front().numCounters;
    const bool low = mode == CoreMode::LowPower;

    // ---- Screen 1: low-activity counters ------------------------------
    // Scan each record independently (a 0/1 flag per counter), then
    // sum the per-record flag rows in record order; integer sums make
    // the merge exact at any thread count. Each record's flag row is
    // checkpointed, so an interrupted PF selection resumes mid-screen.
    result.screenConfigHash = screenConfigHash(records, cfg, mode);
    std::vector<std::vector<uint32_t>> flags_per_record =
        checkpointedMap<std::vector<uint32_t>>(
            kPfScreenScope, result.screenConfigHash,
            records.size(),
            [](BinaryWriter &w, const std::vector<uint32_t> &flags) {
                w.putVector(flags);
            },
            [](BinaryReader &in) {
                return in.getVector<uint32_t>();
            },
            [&](size_t r) {
                const auto &record = records[r];
                std::vector<uint32_t> flags(width, 0);
                const size_t n = record.numIntervals();
                if (n == 0)
                    return flags;
                std::vector<uint32_t> zeros(width, 0);
                for (size_t t = 0; t < n; ++t) {
                    const float *row = low ? record.rowLow(t)
                                           : record.rowHigh(t);
                    for (size_t j = 0; j < width; ++j)
                        zeros[j] += row[j] == 0.0f ? 1 : 0;
                }
                for (size_t j = 0; j < width; ++j) {
                    if (static_cast<double>(zeros[j]) >
                        cfg.zeroFractionPerTrace *
                            static_cast<double>(n))
                        flags[j] = 1;
                }
                return flags;
            });
    std::vector<uint32_t> flagged(width, 0);
    for (const auto &flags : flags_per_record)
        for (size_t j = 0; j < width; ++j)
            flagged[j] += flags[j];
    std::vector<uint16_t> active;
    for (size_t j = 0; j < width; ++j) {
        if (static_cast<double>(flagged[j]) <=
            cfg.flaggedTraceFraction *
                static_cast<double>(records.size()))
            active.push_back(static_cast<uint16_t>(j));
    }
    result.afterActivityScreen = active.size();

    // ---- Build the cycle-normalized sample matrix ----------------------
    size_t total_intervals = 0;
    for (const auto &record : records)
        total_intervals += record.numIntervals();
    const size_t stride = std::max<size_t>(
        1, total_intervals / cfg.maxSamples);

    std::vector<std::vector<double>> samples; // per active counter
    samples.resize(active.size());
    size_t global_t = 0;
    for (const auto &record : records) {
        for (size_t t = 0; t < record.numIntervals();
             ++t, ++global_t) {
            if (global_t % stride != 0)
                continue;
            const float *row = low ? record.rowLow(t)
                                   : record.rowHigh(t);
            const double cyc = low ? record.cyclesLow[t]
                                   : record.cyclesHigh[t];
            const double inv = cyc > 0.0 ? 1.0 / cyc : 0.0;
            for (size_t j = 0; j < active.size(); ++j)
                samples[j].push_back(row[active[j]] * inv);
        }
    }

    // ---- Screen 2: cull the bottom half by standard deviation ----------
    std::vector<double> sigma(active.size());
    for (size_t j = 0; j < active.size(); ++j)
        sigma[j] = stddev(samples[j]);
    std::vector<size_t> order(active.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return sigma[a] > sigma[b]; });
    const size_t keep = std::max<size_t>(
        cfg.numToSelect,
        static_cast<size_t>(static_cast<double>(active.size()) *
                            (1.0 - cfg.stdDevCullFraction)));
    order.resize(std::min(keep, order.size()));

    std::vector<uint16_t> survivors;
    std::vector<std::vector<double>> kept;
    for (size_t idx : order) {
        survivors.push_back(active[idx]);
        kept.push_back(std::move(samples[idx]));
    }
    result.survivors = survivors;

    // ---- Standardize rows (covariance -> correlation scale) ------------
    const size_t t_count = kept.empty() ? 0 : kept.front().size();
    for (size_t j = 0; j < kept.size(); ++j) {
        const double m = mean(kept[j]);
        const double s = stddev(kept[j]);
        const double inv = s > 1e-18 ? 1.0 / s : 0.0;
        for (auto &v : kept[j])
            v = (v - m) * inv;
    }

    // ---- Alg. 1: iterative second-eigenvector group extraction ---------
    std::vector<size_t> remaining(kept.size());
    std::iota(remaining.begin(), remaining.end(), 0);

    // A covariance entry depends only on its two rows, so each round
    // copies its submatrix out of one covariance over all survivors,
    // bit for bit what a covariance of the remaining rows would hold.
    Matrix all_cov;
    if (cfg.numToSelect > 0 && kept.size() > 1) {
        Matrix data(kept.size(), t_count);
        for (size_t i = 0; i < kept.size(); ++i)
            std::copy(kept[i].begin(), kept[i].end(), data.row(i));
        all_cov = rowCovariance(data);
    }

    while (result.selected.size() < cfg.numToSelect &&
           remaining.size() > 1) {
        const size_t n = remaining.size();
        Matrix cov(n, n);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                cov(i, j) = all_cov(remaining[i], remaining[j]);
        const Matrix vecs = leadingEigenvectors(cov, 2);

        // Pick the strongest coefficient of the second eigenvector.
        size_t best = 0;
        double best_mag = -1.0;
        for (size_t i = 0; i < n; ++i) {
            const double mag = std::abs(vecs(1, i));
            if (mag > best_mag) {
                best_mag = mag;
                best = i;
            }
        }
        result.selected.push_back(survivors[remaining[best]]);

        // Remove the whole interchangeable group: large second-
        // eigenvector coefficients relative to the pick (Alg. 1), or
        // near-perfect direct correlation with the pick (duplicate
        // event encodings create degenerate eigenspaces that mix
        // groups, so the spectral test alone can miss exact twins;
        // rows are standardized, so cov == correlation here).
        const double var_best = std::max(cov(best, best), 1e-300);
        std::vector<size_t> next;
        for (size_t i = 0; i < n; ++i) {
            if (i == best)
                continue;
            const double rel = best_mag > 1e-300
                ? std::abs(vecs(1, i)) / best_mag
                : 0.0;
            const double corr = std::abs(cov(best, i)) /
                std::sqrt(var_best * std::max(cov(i, i), 1e-300));
            if (rel <= cfg.similarityThreshold && corr < 0.98)
                next.push_back(remaining[i]);
        }
        remaining.swap(next);
    }
    // Top up with any ungrouped leftovers (these were never judged
    // redundant to a pick), never with removed group members.
    for (size_t i : remaining) {
        if (result.selected.size() >= cfg.numToSelect)
            break;
        result.selected.push_back(survivors[i]);
    }
    return result;
}

} // namespace psca
