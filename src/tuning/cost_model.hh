/**
 * @file
 * Analytic cost model for conv configurations.
 *
 * Measurement-driven search (Section VI) spends most of its budget
 * timing configurations that an experienced performance engineer could
 * reject on paper: micro-kernels with poor compute/load ratios, cache
 * blocks that overflow L1/L2. This model encodes those first-order
 * effects — arithmetic intensity of the (mr x nr) register tile,
 * cache-fit penalties for the GotoBLAS panels, packing/transform
 * overhead bytes, Winograd's 2.25x multiply reduction less its
 * transform cost — and returns predicted seconds.
 *
 * It is a *pre-ranking* model in the spirit of AutoTVM's learned cost
 * model [3]: the tuner still measures, but only the top-K predicted
 * candidates (TuneOptions::cost_model_top_k), cutting tuning time
 * several-fold at equal achieved throughput
 * (bench/ablation_cost_model).
 */

#ifndef TAMRES_TUNING_COST_MODEL_HH
#define TAMRES_TUNING_COST_MODEL_HH

#include <vector>

#include "nn/conv_kernels.hh"

namespace tamres {

/** Host parameters the model is conditioned on. */
struct MachineModel
{
    double peak_flops = 8e9;      //!< sustained scalar+SIMD FLOP/s
    double l1_bytes = 32 * 1024;  //!< per-core L1D
    double l2_bytes = 512 * 1024; //!< per-core L2
    double mem_bw = 8e9;          //!< streaming bandwidth, bytes/s

    /** A conservative default for the benchmarking host. */
    static MachineModel host();
};

/**
 * Predicted wall-clock seconds for running @p cfg on @p p. The
 * absolute scale is rough; only the *ordering* across configs matters
 * for pre-ranking. Config must be valid for the problem.
 */
double predictConvSeconds(const ConvProblem &p, const ConvConfig &cfg,
                          const MachineModel &machine =
                              MachineModel::host());

/**
 * Indices of @p configs ordered by ascending predicted time (best
 * first). Invalid configs sort last.
 */
std::vector<int> rankByPredictedCost(
    const ConvProblem &p, const std::vector<ConvConfig> &configs,
    const MachineModel &machine = MachineModel::host());

} // namespace tamres

#endif // TAMRES_TUNING_COST_MODEL_HH
