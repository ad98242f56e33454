#include "trace/corpus.hh"

#include <algorithm>

#include "common/logging.hh"

namespace psca {

std::vector<AppGenome>
buildHdtrApps(int count, uint64_t corpus_seed)
{
    const HdtrCategorySizes sizes;
    struct CatCount { AppCategory cat; int n; };
    const CatCount plan[] = {
        {AppCategory::HpcPerf, sizes.hpcPerf},
        {AppCategory::CloudSecurity, sizes.cloudSecurity},
        {AppCategory::AiAnalytics, sizes.aiAnalytics},
        {AppCategory::WebProductivity, sizes.webProductivity},
        {AppCategory::Multimedia, sizes.multimedia},
        {AppCategory::GamesRendering, sizes.gamesRendering},
    };

    const int total = sizes.total();
    count = std::clamp(count, 1, total);

    // Interleave categories so any prefix stays category-diverse.
    std::vector<AppGenome> apps;
    apps.reserve(static_cast<size_t>(count));
    int emitted_per_cat[6] = {};
    uint64_t serial = 0;
    while (static_cast<int>(apps.size()) < count) {
        for (int c = 0; c < 6 && static_cast<int>(apps.size()) < count;
             ++c) {
            // Emit from category c proportionally to its share.
            const double share = static_cast<double>(plan[c].n) /
                static_cast<double>(total);
            const double want = share *
                static_cast<double>(apps.size() + 1);
            if (emitted_per_cat[c] < plan[c].n &&
                static_cast<double>(emitted_per_cat[c]) < want) {
                apps.push_back(sampleGenome(
                    plan[c].cat, mixSeeds(corpus_seed, ++serial)));
                ++emitted_per_cat[c];
            }
        }
        ++serial;
    }
    return apps;
}

int
hdtrTraceCount(const AppGenome &app)
{
    // Deterministic 3..6, averaging ~4.47 (2648 traces / 593 apps).
    uint64_t h = app.seed;
    const uint64_t draw = splitMix64(h) % 100;
    if (draw < 18)
        return 3;
    if (draw < 43)
        return 4;
    if (draw < 78)
        return 5;
    return 6;
}

namespace {

PhaseSpec
ph(const KernelParams &kernel, double weight, double mean_len)
{
    PhaseSpec p;
    p.kernel = kernel;
    p.weight = weight;
    p.meanLenInstr = mean_len;
    return p;
}

SpecApp
makeSpec(const char *name, bool is_fp, int inputs, uint64_t seed,
         std::vector<PhaseSpec> phases)
{
    SpecApp app;
    app.genome.name = name;
    app.genome.category =
        is_fp ? AppCategory::SpecFp : AppCategory::SpecInt;
    app.genome.seed = seed;
    app.genome.phases = std::move(phases);
    app.numInputs = inputs;
    app.isFp = is_fp;
    return app;
}

} // namespace

std::vector<SpecApp>
buildSpecApps()
{
    using KK = KernelKind;
    std::vector<SpecApp> suite;

    // Phase weights approximate each benchmark's ideal low-power
    // residency (Fig. 7: suite average ~46%, x264/imagick near zero,
    // bwaves/nab near 90%), with kernel kinds reflecting the real
    // benchmark's dominant behaviour. roms_s carries the MlpRich
    // blindspot signature (Sec. 7.1 / Fig. 9).

    // ---- SPECint stand-ins ------------------------------------------
    suite.push_back(makeSpec("600.perlbench_s", false, 4, 0x600, {
        ph({.kind = KK::Branchy, .workingSetBytes = 512 << 10,
            .predictability = 0.93}, 0.30, 280e3),
        ph({.kind = KK::PointerChase, .workingSetBytes = 8 << 20},
           0.20, 240e3),
        ph({.kind = KK::Ilp, .chains = 12}, 0.50, 280e3),
    }));
    suite.push_back(makeSpec("602.gcc_s", false, 7, 0x602, {
        ph({.kind = KK::Branchy, .workingSetBytes = 2 << 20,
            .predictability = 0.90}, 0.35, 280e3),
        ph({.kind = KK::PointerChase, .workingSetBytes = 16 << 20},
           0.20, 240e3),
        ph({.kind = KK::Ilp, .chains = 11}, 0.35, 280e3),
        ph({.kind = KK::MlpRich, .workingSetBytes = 32 << 20,
            .computePerElem = 2, .mlpDegree = 8}, 0.10, 200e3),
    }));
    suite.push_back(makeSpec("605.mcf_s", false, 7, 0x605, {
        ph({.kind = KK::PointerChase, .workingSetBytes = 64 << 20},
           0.45, 320e3),
        ph({.kind = KK::Branchy, .workingSetBytes = 1 << 20,
            .predictability = 0.92}, 0.20, 240e3),
        ph({.kind = KK::Ilp, .chains = 10}, 0.35, 280e3),
    }));
    suite.push_back(makeSpec("620.omnetpp_s", false, 9, 0x620, {
        ph({.kind = KK::PointerChase, .workingSetBytes = 32 << 20},
           0.55, 320e3),
        ph({.kind = KK::Branchy, .workingSetBytes = 4 << 20,
            .predictability = 0.88}, 0.25, 240e3),
        ph({.kind = KK::Ilp, .chains = 10}, 0.20, 240e3),
    }));
    suite.push_back(makeSpec("623.xalancbmk_s", false, 2, 0x623, {
        ph({.kind = KK::Branchy, .workingSetBytes = 2 << 20,
            .predictability = 0.90}, 0.35, 280e3),
        ph({.kind = KK::PointerChase, .workingSetBytes = 8 << 20},
           0.15, 240e3),
        ph({.kind = KK::Ilp, .chains = 12}, 0.50, 280e3),
    }));
    suite.push_back(makeSpec("625.x264_s", false, 12, 0x625, {
        ph({.kind = KK::Ilp, .chains = 14}, 0.70, 400e3),
        ph({.kind = KK::Stream, .workingSetBytes = 64 << 10,
            .computePerElem = 5}, 0.25, 320e3),
        ph({.kind = KK::Branchy, .workingSetBytes = 128 << 10,
            .predictability = 0.97}, 0.05, 160e3),
    }));
    suite.push_back(makeSpec("631.deepsjeng_s", false, 12, 0x631, {
        ph({.kind = KK::Branchy, .workingSetBytes = 1 << 20,
            .predictability = 0.90}, 0.30, 280e3),
        ph({.kind = KK::PointerChase, .workingSetBytes = 4 << 20},
           0.10, 240e3),
        ph({.kind = KK::Ilp, .chains = 12}, 0.60, 280e3),
    }));
    suite.push_back(makeSpec("641.leela_s", false, 10, 0x641, {
        ph({.kind = KK::Branchy, .workingSetBytes = 512 << 10,
            .predictability = 0.85}, 0.30, 280e3),
        ph({.kind = KK::PointerChase, .workingSetBytes = 2 << 20},
           0.15, 240e3),
        ph({.kind = KK::Ilp, .chains = 11}, 0.55, 280e3),
    }));
    suite.push_back(makeSpec("648.exchange2_s", false, 5, 0x648, {
        ph({.kind = KK::Ilp, .chains = 10}, 0.85, 320e3),
        ph({.kind = KK::Branchy, .workingSetBytes = 64 << 10,
            .predictability = 0.97}, 0.15, 240e3),
    }));
    suite.push_back(makeSpec("657.xz_s", false, 5, 0x657, {
        ph({.kind = KK::Branchy, .workingSetBytes = 16 << 20,
            .predictability = 0.80}, 0.25, 280e3),
        ph({.kind = KK::PointerChase, .workingSetBytes = 16 << 20},
           0.15, 240e3),
        ph({.kind = KK::Stream, .workingSetBytes = 4 << 20,
            .computePerElem = 3}, 0.10, 280e3),
        ph({.kind = KK::Ilp, .chains = 12}, 0.50, 280e3),
    }));

    // ---- SPECfp stand-ins -------------------------------------------
    suite.push_back(makeSpec("603.bwaves_s", true, 5, 0x603, {
        ph({.kind = KK::Stream, .workingSetBytes = 128 << 20,
            .computePerElem = 2, .fp = true}, 0.55, 400e3),
        ph({.kind = KK::FpSerial}, 0.35, 320e3),
        ph({.kind = KK::Ilp, .chains = 10, .fp = true}, 0.10, 240e3),
    }));
    suite.push_back(makeSpec("607.cactuBSSN_s", true, 6, 0x607, {
        ph({.kind = KK::Stencil, .workingSetBytes = 32 << 20,
            .strideBytes = 64}, 0.50, 360e3),
        ph({.kind = KK::FpSerial}, 0.25, 240e3),
        ph({.kind = KK::Ilp, .chains = 12, .fp = true}, 0.25, 280e3),
    }));
    suite.push_back(makeSpec("619.lbm_s", true, 3, 0x619, {
        ph({.kind = KK::Stream, .workingSetBytes = 256 << 20,
            .computePerElem = 3, .fp = true}, 0.55, 480e3),
        ph({.kind = KK::Stencil, .workingSetBytes = 128 << 20,
            .strideBytes = 64}, 0.15, 280e3),
        ph({.kind = KK::Ilp, .chains = 12, .fp = true}, 0.30, 280e3),
    }));
    suite.push_back(makeSpec("621.wrf_s", true, 1, 0x621, {
        ph({.kind = KK::Stencil, .workingSetBytes = 8 << 20,
            .strideBytes = 32}, 0.35, 320e3),
        ph({.kind = KK::FpSerial}, 0.15, 240e3),
        ph({.kind = KK::Ilp, .chains = 12, .fp = true}, 0.45, 280e3),
        ph({.kind = KK::Branchy, .workingSetBytes = 1 << 20,
            .predictability = 0.92}, 0.05, 160e3),
    }));
    suite.push_back(makeSpec("627.cam4_s", true, 1, 0x627, {
        ph({.kind = KK::Stencil, .workingSetBytes = 4 << 20,
            .strideBytes = 16}, 0.30, 280e3),
        ph({.kind = KK::Branchy, .workingSetBytes = 2 << 20,
            .predictability = 0.90}, 0.15, 240e3),
        ph({.kind = KK::Ilp, .chains = 10, .fp = true}, 0.55, 280e3),
    }));
    suite.push_back(makeSpec("628.pop2_s", true, 1, 0x628, {
        ph({.kind = KK::Stencil, .workingSetBytes = 16 << 20,
            .strideBytes = 32}, 0.35, 320e3),
        ph({.kind = KK::Stream, .workingSetBytes = 32 << 20,
            .computePerElem = 2, .fp = true}, 0.15, 280e3),
        ph({.kind = KK::FpSerial}, 0.05, 200e3),
        ph({.kind = KK::Ilp, .chains = 12, .fp = true}, 0.45, 280e3),
    }));
    suite.push_back(makeSpec("638.imagick_s", true, 12, 0x638, {
        ph({.kind = KK::Ilp, .chains = 12, .fp = true}, 0.80, 400e3),
        ph({.kind = KK::Ilp, .chains = 6, .fp = true}, 0.15, 280e3),
        ph({.kind = KK::FpSerial}, 0.05, 200e3),
    }));
    suite.push_back(makeSpec("644.nab_s", true, 5, 0x644, {
        ph({.kind = KK::FpSerial}, 0.70, 360e3),
        ph({.kind = KK::Ilp, .chains = 3, .fp = true}, 0.15, 240e3),
        ph({.kind = KK::Ilp, .chains = 12, .fp = true}, 0.15, 240e3),
    }));
    suite.push_back(makeSpec("649.fotonik3d_s", true, 5, 0x649, {
        ph({.kind = KK::Stencil, .workingSetBytes = 64 << 20,
            .strideBytes = 128}, 0.30, 320e3),
        ph({.kind = KK::Ilp, .chains = 12, .fp = true}, 0.45, 280e3),
        ph({.kind = KK::Stream, .workingSetBytes = 2 << 20,
            .computePerElem = 4, .fp = true}, 0.25, 240e3),
    }));
    suite.push_back(makeSpec("654.roms_s", true, 5, 0x654, {
        // The blindspot profile: in expert-counter space these
        // MlpRich phases mimic a gate-friendly L2-resident pointer
        // chase (moderate IPC, moderate miss rate, high stall count)
        // while the second memory unit still buys ~1.7x throughput.
        ph({.kind = KK::MlpRich, .workingSetBytes = 64 << 20,
            .computePerElem = 1, .mlpDegree = 12}, 0.45, 320e3),
        ph({.kind = KK::Stencil, .workingSetBytes = 16 << 20,
            .strideBytes = 64}, 0.33, 280e3),
        ph({.kind = KK::FpSerial}, 0.22, 240e3),
    }));

    return suite;
}

std::vector<Workload>
specWorkloads(const SpecApp &app, uint64_t trace_len_instr,
              int traces_per_workload)
{
    std::vector<Workload> traces;
    for (int input = 0; input < app.numInputs; ++input) {
        for (int t = 0; t < traces_per_workload; ++t) {
            Workload w;
            w.genome = app.genome;
            w.inputSeed = static_cast<uint64_t>(input) + 1;
            w.traceIndex = static_cast<uint64_t>(t);
            w.lengthInstr = trace_len_instr;
            w.name = app.genome.name + ".in" + std::to_string(input) +
                ".sp" + std::to_string(t);
            traces.push_back(std::move(w));
        }
    }
    return traces;
}

std::vector<Workload>
allSpecWorkloads(const std::vector<SpecApp> &apps,
                 uint64_t trace_len_instr, int traces_per_workload)
{
    std::vector<Workload> traces;
    for (const auto &app : apps) {
        auto t = specWorkloads(app, trace_len_instr,
                               traces_per_workload);
        traces.insert(traces.end(), t.begin(), t.end());
    }
    return traces;
}

} // namespace psca
