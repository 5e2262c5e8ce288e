/**
 * @file
 * The benchmark's two workloads and the set-up each one measures:
 * stored progressive objects, the QualityTable scan-depth policy, a
 * trained scale model, ResNet-18 fp32 and int8 graphs, and a staged
 * engine with warmed plans.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/quality_table.hh"
#include "core/scale_model.hh"
#include "core/staged_engine.hh"
#include "nn/graph.hh"
#include "phase.hh"
#include "sim/accuracy_model.hh"
#include "sim/dataset.hh"
#include "storage/decode_cache.hh"
#include "storage/fault_injection.hh"

namespace perfbench {

/** Decision grid of the scale model and the backbone. */
inline const std::vector<int> kGrid = {96, 128, 160, 224};
constexpr double kCropArea = 0.75;   //!< centre crop before resizing
constexpr int kPreviewScans = 2;     //!< stage-1 preview depth
constexpr double kSsimTarget = 0.95; //!< scan-depth policy threshold
constexpr int kMaxBatch = 4;         //!< backbone dynamic-batch cap

/**
 * One traffic mix. Rates are fixed per workload (never derived from
 * the host at run time), so two runs of one commit offer the same
 * load; they were sized against the capacity of the parent build on
 * the reference host (see README.md).
 */
struct Workload
{
    std::string name;
    int objects = 0;          //!< distinct stored objects
    double zipf_alpha = 0.0;  //!< popularity skew; 0 = uniform
    double rate_rps = 0.0;    //!< offered Poisson rate
    double limit_s = 0.0;     //!< latency limit for slo_attainment
    bool backbone = false;    //!< false = decision-only engine
    bool remote = false;      //!< remote-store faults, retries, hedges
    int decode_workers = 1;
    int backbone_workers = 0;
    /** Cache capacity, in full-depth entries of the largest object. */
    int cache_entries = 0;
};

/** The named workload, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Everything set-up builds; outlives every engine built over it. */
struct World
{
    explicit World(const Workload &wl);

    const Workload &wl;
    tamres::DatasetSpec spec;
    tamres::SyntheticDataset ds;
    tamres::ProgressiveConfig codec;
    tamres::ObjectStore store;
    std::vector<uint64_t> ids;                //!< popularity rank -> id
    std::unordered_map<uint64_t, int> index;  //!< id -> dataset record
    std::unique_ptr<tamres::QualityTable> quality;
    std::unique_ptr<tamres::ScaleModel> scale;
    std::unique_ptr<tamres::Graph> fp32;      //!< optimized backbone
    std::unique_ptr<tamres::Graph> int8;      //!< calibrated quantized twin
    tamres::BackboneAccuracyModel accuracy;
    size_t cache_bytes = 0;                   //!< DecodeCache capacity

    /** Scan-depth policy: fewest scans reaching kSsimTarget. */
    int scanDepth(uint64_t id, int res_idx) const;
};

/**
 * The store stack and engine one measured phase serves through:
 * base store -> [FaultyObjectStore] -> [TracingStore] -> engine.
 */
struct Stack
{
    /** @p traced puts a TracingStore on top of the stack. */
    Stack(World &w, uint64_t seed, bool traced);
    ~Stack();
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** The store the engine reads from (top of the decorator stack). */
    tamres::ObjectStore &front();

    World &world;
    std::unique_ptr<tamres::FaultyObjectStore> faulty;
    std::unique_ptr<TracingStore> tracing;
    tamres::DecodeCache cache;
    std::unique_ptr<tamres::StagedServingEngine> engine;
};

/** Construct the engine of @p s (plans are warmed for the grid). */
void startEngine(Stack &s, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
