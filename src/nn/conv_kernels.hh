/**
 * @file
 * Convolution problem/config definitions and kernel implementations.
 *
 * This is the substrate for the paper's Section VI: the performance of
 * a convolution depends jointly on the input shape (resolution) and the
 * implementation's blocking parameters. A library that fixes its
 * blocking for the most common resolution (224) loses utilization at
 * other resolutions; an autotuner that searches ConvConfig per shape
 * recovers it. Three algorithm families are provided:
 *
 *  - Reference: textbook 7-deep loop nest; slow, used as ground truth.
 *  - Direct:    register-tiled direct convolution (oc x ow register
 *               blocks, unrolled reduction).
 *  - Im2col:    implicit-im2col GEMM: cache-blocked packed GEMM with an
 *               (mr x nr) micro-kernel (GotoBLAS-style mc/kc/nc
 *               blocking) whose B panels are packed straight from the
 *               NCHW input through the conv geometry, so the im2col
 *               matrix itself is never built.
 */

#ifndef TAMRES_NN_CONV_KERNELS_HH
#define TAMRES_NN_CONV_KERNELS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tamres {

/** Shape of a 2-D convolution (NCHW, square kernel assumed not). */
struct ConvProblem
{
    int n = 1;       //!< batch
    int ic = 1;      //!< input channels
    int ih = 1;      //!< input height
    int iw = 1;      //!< input width
    int oc = 1;      //!< output channels
    int kh = 1;      //!< kernel height
    int kw = 1;      //!< kernel width
    int stride = 1;  //!< stride (both axes)
    int pad = 0;     //!< zero padding (both axes)
    int groups = 1;  //!< channel groups (ic and oc divisible)

    int oh() const { return (ih + 2 * pad - kh) / stride + 1; }
    int ow() const { return (iw + 2 * pad - kw) / stride + 1; }

    /** Multiply-accumulate count (the paper's "FLOPs" convention). */
    int64_t
    macs() const
    {
        return static_cast<int64_t>(n) * oc * oh() * ow() *
               (ic / groups) * kh * kw;
    }

    /** A short key such as "1x64x56x56_oc64_k3s1p1_g1". */
    std::string key() const;

    bool operator==(const ConvProblem &) const = default;
};

/** Algorithm family for a convolution implementation. */
enum class ConvAlgo
{
    Reference, //!< naive loop nest (correctness oracle)
    Direct,    //!< register-tiled direct convolution
    Im2col,    //!< implicit-im2col blocked GEMM (B packed from input)
    /**
     * Winograd F(2x2, 3x3): 2.25x fewer multiplies for 3x3/stride-1/
     * ungrouped convolutions via 4x4 tile transforms and 16 batched
     * GEMMs (reusing the blocked-GEMM knobs). The relative win grows
     * with channel depth, so whether it beats im2col depends on the
     * layer's position in the network and the resolution — exactly
     * the shape-dependence the tuner is there to resolve.
     */
    Winograd,
    /**
     * Depthwise direct kernel for groups == ic == oc convolutions
     * (MobileNetV2's dominant layer type); skips the degenerate
     * 1-channel GEMM the generic paths would issue.
     */
    Depthwise,
};

/** "reference" / "direct" / "im2col" / "winograd" / "depthwise". */
const char *convAlgoName(ConvAlgo algo);

/** Tunable implementation parameters. */
struct ConvConfig
{
    ConvAlgo algo = ConvAlgo::Im2col;

    // --- Direct algorithm knobs ---
    int oc_tile = 4;  //!< output channels per register block
    int ow_tile = 8;  //!< output columns per register block

    // --- Im2col/GEMM knobs (also used by Winograd's 16 GEMMs) ---
    int mc = 64;      //!< rows of A (output channels) per L2 panel
    int kc = 128;     //!< reduction block per L1 panel
    int nc = 512;     //!< columns of B (pixels) per L3 panel
    int mr = 4;       //!< micro-kernel rows (one of 1,2,4,6,8)
    int nr = 8;       //!< micro-kernel cols (one of 4,8,16)

    // --- Winograd knobs ---
    int wino_tile_block = 256; //!< input tiles transformed per batch

    // --- Parallelism (all algorithms except Reference) ---
    /**
     * Worker-thread cap for this convolution: 0 = the process default
     * (TAMRES_THREADS, falling back to the hardware concurrency),
     * 1 = serial, N = at most N workers. TAMRES_THREADS remains the
     * process-wide ceiling: a positive knob is clamped to it, so
     * pinning the process serial pins every config. Output is
     * bit-identical for every value — parallel variants partition
     * work so each output element is produced by exactly one worker
     * with the serial accumulation order.
     */
    int threads = 0;

    /** Human-readable description for logs and cache files. */
    std::string toString() const;

    bool operator==(const ConvConfig &) const = default;
};

/**
 * Run a convolution.
 *
 * @param p    problem shape
 * @param in   input,  NCHW, n*ic*ih*iw floats
 * @param w    weights, [oc, ic/groups, kh, kw]
 * @param bias per-output-channel bias, may be nullptr
 * @param out  output, n*oc*oh*ow floats (overwritten)
 * @param cfg  implementation choice and blocking parameters
 */
void convForward(const ConvProblem &p, const float *in, const float *w,
                 const float *bias, float *out, const ConvConfig &cfg);

/** Reference implementation shortcut (ground truth for tests). */
void convReference(const ConvProblem &p, const float *in, const float *w,
                   const float *bias, float *out);

/**
 * Validity check: some (config, problem) pairs are rejected (e.g.
 * micro-kernel sizes not in the supported set). Invalid configs are
 * skipped by the tuner. Validity never depends on the runtime SIMD
 * level: every supported (mr, nr) pair has a scalar micro-kernel, so a
 * tuned config stays runnable when dispatch is forced to scalar.
 */
bool convConfigValid(const ConvProblem &p, const ConvConfig &cfg);

// ---------------------------------------------------------------------
// Plan-time weight prepacking
// ---------------------------------------------------------------------

/**
 * One GEMM A-matrix packed into micro-kernel panels (mr-row, k-major)
 * for a specific blocking — the exact layout blockedGemm's on-the-fly
 * packer produces, materialized once so steady-state calls skip the
 * per-request repack. Blocks are addressed by (kc-block, mc-block)
 * index; the panel layout is ISA-independent, so a pack survives
 * runtime SIMD level changes.
 */
struct PackedGemmA
{
    int M = 0;  //!< rows of the packed matrix
    int K = 0;  //!< reduction extent
    int mc = 0; //!< effective row-block size it was packed with
    int kc = 0; //!< effective k-block size it was packed with
    int mr = 0; //!< micro-kernel row count (panel height)

    std::vector<float> data;     //!< all panels, contiguous
    std::vector<size_t> offsets; //!< (pcb * nBlocksM() + icb) -> data
                                 //!< offset of that block's panels

    int nBlocksM() const { return (M + mc - 1) / mc; }
    int nBlocksK() const { return (K + kc - 1) / kc; }

    /** Panels of A[icb-block] x [pcb-block] (packed, padded to mr). */
    const float *
    block(int pcb, int icb) const
    {
        return data.data() +
               offsets[static_cast<size_t>(pcb) * nBlocksM() + icb];
    }
};

/**
 * Pack A[M x K] (row stride @p lda) into panels for @p cfg's effective
 * GEMM blocking. Counts toward convWeightPackCount().
 */
void packGemmA(int M, int K, const float *a, int lda,
               const ConvConfig &cfg, PackedGemmA &out);

/**
 * One int8 GEMM A-matrix packed into micro-kernel panels for the
 * quantized path. Layout is quad-K interleaved: within each mr-row
 * panel, element (k, row) lives at [(k/4)*mr*4 + row*4 + (k%4)], with
 * k zero-padded per kc-block to a multiple of 4 — the 4-byte groups
 * every int8 microkernel (scalar quads, vpmaddwd pairs, vpdpbusd
 * lanes, NEON smull/padal) consumes. Each block additionally carries
 * per-row int32 weight sums (comp) so the VNNI kernel's unsigned-
 * offset trick (b + 128) can subtract 128 * comp exactly. Like
 * PackedGemmA, the layout is ISA-independent and the panels survive
 * runtime SIMD level (and VNNI switch) changes.
 */
struct PackedGemmAInt8
{
    int M = 0;  //!< rows of the packed matrix
    int K = 0;  //!< reduction extent (unpadded)
    int mc = 0; //!< effective row-block size it was packed with
    int kc = 0; //!< effective k-block size it was packed with
    int mr = 0; //!< micro-kernel row count (panel height)

    std::vector<int8_t> data;     //!< all panels, contiguous
    std::vector<size_t> offsets;  //!< (pcb * nBlocksM() + icb) -> data
    std::vector<int32_t> comp;    //!< per-block per-row weight sums
    std::vector<size_t> comp_offsets; //!< same indexing into comp

    int nBlocksM() const { return (M + mc - 1) / mc; }
    int nBlocksK() const { return (K + kc - 1) / kc; }

    const int8_t *
    block(int pcb, int icb) const
    {
        return data.data() +
               offsets[static_cast<size_t>(pcb) * nBlocksM() + icb];
    }

    const int32_t *
    compBlock(int pcb, int icb) const
    {
        return comp.data() +
               comp_offsets[static_cast<size_t>(pcb) * nBlocksM() +
                            icb];
    }
};

/**
 * Pack int8 A[M x K] (row stride @p lda) into quad-K panels for
 * @p cfg's effective GEMM blocking. Counts toward
 * convWeightPackCount().
 */
void packGemmAInt8(int M, int K, const int8_t *a, int lda,
                   const ConvConfig &cfg, PackedGemmAInt8 &out);

/**
 * A convolution's weights packed for a specific (problem, config):
 * B-panel-layout GEMM panels per group for im2col (and the pointwise
 * fast path), or the 16 transformed-and-packed frequency matrices for
 * winograd — or, for the quantized path, quad-K int8 panels in qmats
 * (quantized == true). Owned by whoever resolves configs ahead of
 * time — in practice the Graph execution plan, which packs at
 * plan-compile time and re-packs when the KernelSelector generation
 * moves; the pack is invalidated with the plan. Algorithms that read
 * weights directly (reference, direct, depthwise) have nothing to
 * pack (valid stays false) and run the ordinary path.
 */
struct PackedConvWeights
{
    ConvProblem problem; //!< shape the pack was built for
    ConvConfig cfg;      //!< config the pack was built for
    bool valid = false;  //!< packed data present and usable
    bool quantized = false; //!< int8 pack: qmats holds the panels
    std::vector<PackedGemmA> mats; //!< per group (im2col) or per
                                   //!< winograd frequency (16)
    std::vector<PackedGemmAInt8> qmats; //!< int8 panels (quantized)
};

/** True when @p algo has a prepackable weight matrix. */
bool convAlgoPrepacks(ConvAlgo algo);

/**
 * True when a pack built for problem @p a is byte-for-byte the pack
 * that would be built for problem @p b (under the same config): the
 * packed panels depend only on the weight tensor's geometry (channel
 * counts, kernel size, groups), never on the batch size or the
 * spatial extent. This is what lets one prepack serve every batch
 * size of a resolution — and every resolution whose resolved config
 * coincides — instead of being rebuilt per (shape, batch) plan.
 */
bool convWeightShapeCompatible(const ConvProblem &a,
                               const ConvProblem &b);

/**
 * Build the packed-weight form of @p w for (@p p, @p cfg). Leaves
 * @p out invalid when the algorithm has nothing to prepack or the
 * config is invalid for the problem.
 */
void packConvWeights(const ConvProblem &p, const ConvConfig &cfg,
                     const float *w, PackedConvWeights &out);

/**
 * convForward with plan-prepacked weights: identical output to
 * convForward(p, in, w, bias, out, packed.cfg) — the packed panels
 * hold the same values the on-the-fly packer would produce — but the
 * steady-state call performs no weight packing (only B-panel
 * activation packing, straight from the input). @p packed must be valid, built for the config
 * being run, and weight-shape-compatible with this problem (see
 * convWeightShapeCompatible — batch size and spatial extent may
 * differ from the shape the pack was built at).
 */
void convForwardPrepacked(const ConvProblem &p, const float *in,
                          const PackedConvWeights &packed,
                          const float *bias, float *out);

/**
 * Process-wide count of weight-side pack operations (A-panel blocks
 * packed, winograd weight transforms). Tests assert this does not move
 * across steady-state planned runs; monotonic, relaxed ordering.
 */
uint64_t convWeightPackCount();

// ---------------------------------------------------------------------
// Int8 quantized convolution (planned path)
// ---------------------------------------------------------------------

/**
 * The fp32 epilogue applied to the int32 GEMM accumulators of the
 * quantized path. Each output element (oc, image, pixel) becomes
 *
 *     v = float(acc32) * (act_scales[image] * w_scales[oc]) + bias[oc]
 *     if (relu && v < 0) v = 0
 *
 * written exactly as that expression so the planned path is *bitwise*
 * identical to the naive reference kernel (integer accumulation is
 * exact and order-independent; the float expression is evaluated
 * identically). act_scales has one entry per image in the batch:
 * static (calibrated) scales repeat the same value, dynamic scales are
 * computed per image — never per batch — so batch-N output equals N
 * concatenated batch-1 outputs bit-for-bit.
 */
struct QuantConvEpilogue
{
    const float *w_scales;   //!< per-output-channel weight scales [oc]
    const float *bias;       //!< fp32 bias [oc], or nullptr
    const float *act_scales; //!< per-image activation scales [n]
    bool relu = false;       //!< fused max(0, v)
};

/**
 * True when (@p p, @p cfg) can run the blocked int8 GEMM path:
 * ungrouped, Im2col algorithm, and an (mr, nr) shape the int8
 * microkernel table supports. The int8 path has no winograd/direct
 * variants — quantized convs that fail this run nothing (QuantConv2d
 * only emits valid configs).
 */
bool convConfigValidInt8(const ConvProblem &p, const ConvConfig &cfg);

/**
 * Build the quantized packed-weight form of int8 weights @p wq
 * ([oc x ic*kh*kw], row-major) for (@p p, @p cfg): quad-K A panels
 * plus per-row compensation sums in out.qmats[0], out.quantized set.
 * Leaves @p out invalid when convConfigValidInt8 fails.
 */
void packConvWeightsInt8(const ConvProblem &p, const ConvConfig &cfg,
                         const int8_t *wq, PackedConvWeights &out);

/**
 * Quantized convolution over an already-quantized int8 input
 * (@p qin, NCHW, quantized per image with @p epi.act_scales), run as
 * one implicit-im2col GEMM over the merged columns of the whole batch:
 * its quad-K B panels are packed straight from @p qin through the conv
 * geometry (a padding tap packs q(0) = 0), so no int8 im2col matrix is
 * built and the batch is never chunked. Weights come from @p packed
 * when non-null (must be valid, quantized, built for @p cfg and
 * weight-shape-compatible — the steady-state call then performs no
 * weight packing), else packed on the fly from @p wq. int32
 * accumulation throughout; the fp32 epilogue writes @p out
 * (overwrites, never accumulates). Output is bitwise identical across
 * SIMD levels (scalar / AVX2 / VNNI / NEON), thread counts, batch
 * sizes, and prepacked vs on-the-fly weights.
 */
void convForwardInt8Gemm(const ConvProblem &p, const int8_t *qin,
                         const QuantConvEpilogue &epi, const int8_t *wq,
                         const PackedConvWeights *packed, float *out,
                         const ConvConfig &cfg);

} // namespace tamres

#endif // TAMRES_NN_CONV_KERNELS_HH
