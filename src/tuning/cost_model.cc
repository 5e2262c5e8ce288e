#include "tuning/cost_model.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace tamres {

MachineModel
MachineModel::host()
{
    return MachineModel{};
}

namespace {

/**
 * Efficiency of an (mr x nr) register micro-kernel: per reduction
 * step it performs mr*nr FMAs against mr+nr loads. Normalized so the
 * best supported tile (8x16) approaches 1.
 */
double
microEfficiency(int mr, int nr)
{
    const double work = static_cast<double>(mr) * nr;
    const double loads = static_cast<double>(mr) + nr;
    const double ratio = work / loads;            // FMAs per load
    const double best = (8.0 * 16.0) / (8.0 + 16.0);
    return 0.35 + 0.65 * std::min(1.0, ratio / best);
}

/** Multiplicative penalty when a working set exceeds a cache level. */
double
cachePenalty(double bytes, double capacity)
{
    if (bytes <= capacity)
        return 1.0;
    // Smooth degradation: each doubling past capacity costs ~25%.
    return 1.0 + 0.25 * std::log2(bytes / capacity);
}

double
predictGemm(int64_t m, int64_t n, int64_t k, const ConvConfig &cfg,
            const MachineModel &mm)
{
    const double macs = static_cast<double>(m) * n * k;
    double eff = microEfficiency(cfg.mr, cfg.nr);

    // GotoBLAS panel residency: the B panel (kc x nr) should fit L1,
    // the A block (mc x kc) should fit L2.
    eff /= cachePenalty(4.0 * cfg.kc * cfg.nr, mm.l1_bytes);
    eff /= cachePenalty(4.0 * cfg.mc * cfg.kc, mm.l2_bytes);

    // Edge waste: partial micro-tiles at the M/N fringes do full
    // register work for partial results.
    const double m_waste =
        static_cast<double>((m + cfg.mr - 1) / cfg.mr * cfg.mr) /
        static_cast<double>(m);
    const double n_waste =
        static_cast<double>((n + cfg.nr - 1) / cfg.nr * cfg.nr) /
        static_cast<double>(n);
    // Oversized nc relative to N wastes no work but loses L3 reuse
    // granularity; undersized nc repacks A more often.
    const double repacks =
        std::max(1.0, static_cast<double>(n) / cfg.nc);
    const double pack_bytes =
        repacks * 4.0 * static_cast<double>(m) * k; // A repacking
    const double pack_s = pack_bytes / mm.mem_bw;

    const double compute_s =
        macs * m_waste * n_waste / (mm.peak_flops * eff);
    return compute_s + pack_s;
}

} // namespace

double
predictConvSeconds(const ConvProblem &p, const ConvConfig &cfg,
                   const MachineModel &mm)
{
    tamres_assert(convConfigValid(p, cfg),
                  "cost model requires a valid config");
    const int64_t oh = p.oh();
    const int64_t ow = p.ow();
    const int64_t icg = p.ic / p.groups;
    const int64_t ocg = p.oc / p.groups;
    const double macs = static_cast<double>(p.macs());

    switch (cfg.algo) {
      case ConvAlgo::Reference:
        // Unblocked scalar nest with bounds checks everywhere.
        return macs / (0.08 * mm.peak_flops);

      case ConvAlgo::Direct: {
        // Register block of oc_tile x ow_tile accumulators; efficiency
        // from FMAs per weight load, with stride-induced gather cost.
        const double work =
            static_cast<double>(cfg.oc_tile) * cfg.ow_tile;
        const double loads =
            static_cast<double>(cfg.oc_tile) + cfg.ow_tile;
        const double best = (8.0 * 28.0) / (8.0 + 28.0);
        double eff = 0.25 + 0.55 * std::min(1.0, (work / loads) / best);
        if (p.stride > 1)
            eff *= 0.8; // strided input rows defeat contiguous loads
        // Fringe waste along ow.
        const double waste =
            static_cast<double>((ow + cfg.ow_tile - 1) / cfg.ow_tile *
                                cfg.ow_tile) /
            static_cast<double>(ow);
        return macs * waste / (mm.peak_flops * eff);
      }

      case ConvAlgo::Depthwise: {
        // One-channel reduction: arithmetic intensity is intrinsically
        // low; runtime is bandwidth-leaning.
        const double waste =
            static_cast<double>((ow + cfg.ow_tile - 1) / cfg.ow_tile *
                                cfg.ow_tile) /
            static_cast<double>(ow);
        const double compute_s =
            macs * waste / (0.35 * mm.peak_flops);
        const double bytes = 4.0 * static_cast<double>(p.n) * p.ic *
                             (p.ih * p.iw + oh * ow);
        return compute_s + bytes / mm.mem_bw;
      }

      case ConvAlgo::Im2col: {
        // B panels are packed straight from the input, so a conv costs
        // what its (ocg x oh*ow x icg*kh*kw) GEMM costs.
        const int64_t K = icg * p.kh * p.kw;
        return p.n * p.groups * predictGemm(ocg, oh * ow, K, cfg, mm);
      }

      case ConvAlgo::Winograd: {
        const int64_t tiles = ((oh + 1) / 2) * ((ow + 1) / 2);
        // Transforms: ~32 adds per 4x4 input tile per channel, 24 per
        // output tile; weight transform amortized over tiles.
        const double xform_flops =
            static_cast<double>(p.n) * tiles *
            (32.0 * icg + 24.0 * p.oc);
        const double xform_s = xform_flops / (0.30 * mm.peak_flops);
        // 16 GEMMs of (oc x icg x tile_block) each; multiply count is
        // macs / 2.25.
        double gemm_s = 0.0;
        const int64_t blocks =
            (tiles + cfg.wino_tile_block - 1) / cfg.wino_tile_block;
        const int64_t tb =
            std::min<int64_t>(cfg.wino_tile_block, tiles);
        gemm_s = static_cast<double>(p.n) * blocks * 16.0 *
                 predictGemm(p.oc, tb, icg, cfg, mm);
        // Scratch traffic for V/M buffers.
        const double scratch_bytes =
            static_cast<double>(p.n) * blocks * 16.0 * 4.0 * tb *
            (icg + p.oc);
        return xform_s + gemm_s + scratch_bytes / mm.mem_bw;
      }
    }
    panic("unhandled algo in cost model");
}

std::vector<int>
rankByPredictedCost(const ConvProblem &p,
                    const std::vector<ConvConfig> &configs,
                    const MachineModel &mm)
{
    std::vector<std::pair<double, int>> scored;
    scored.reserve(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        const double s =
            convConfigValid(p, configs[i])
                ? predictConvSeconds(p, configs[i], mm)
                : 1e30;
        scored.emplace_back(s, static_cast<int>(i));
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<int> order;
    order.reserve(scored.size());
    for (const auto &[s, i] : scored)
        order.push_back(i);
    return order;
}

} // namespace tamres
