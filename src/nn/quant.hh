/**
 * @file
 * Post-training int8 quantization as a first-class serving path.
 *
 * The paper's related work (Section II-a) lists quantization among the
 * compute-efficiency techniques orthogonal to resolution tuning; this
 * module makes the two composable in one engine: quantized graphs run
 * the same planned / prepacked / batched execution machinery as fp32
 * (Graph plans resolve a config and a shared weight pack per
 * QuantConv2d at plan-compile time; steady-state runs allocate nothing
 * and pack nothing), and the serving engines can shed load to an int8
 * backbone tier under overload. See docs/quantization.md for the full
 * numeric contract.
 *
 * Scheme: symmetric linear quantization, real = scale * q with q in
 * [-127, 127]. Weights are quantized per output channel (each output
 * channel's filter gets its own scale — standard practice, it removes
 * the cross-channel dynamic-range coupling that per-tensor scales
 * suffer from). Activations are quantized per *image*, either with a
 * static scale obtained from a calibration run over sample inputs, or
 * dynamically from each image's own max when no calibration is
 * supplied — never from the batch's max, so batch-N output is
 * bit-identical to N concatenated batch-1 outputs and the engines may
 * batch quantized requests freely.
 *
 * Execution: the planned path (convForwardInt8Gemm in conv_kernels)
 * is a blocked int8 GEMM over quad-K packed panels with int32
 * accumulation and a fused per-output-channel fp32 epilogue
 * (scale * w_scale, bias, optional relu), dispatched per SIMD level
 * (scalar / AVX2 vpmaddwd / AVX512-VNNI vpdpbusd / NEON). Integer
 * accumulation is exact and order-independent, so its output is
 * bitwise identical to the naive reference kernel below across SIMD
 * levels, thread counts and batch sizes; convForwardInt8 stays as the
 * correctness oracle the tests and the ablation bench compare
 * against. int32 accumulation is overflow-free for every shape the
 * backbones pose (the deepest reduction, 512 channels x 3x3, peaks at
 * ~7.4e7 << 2^31). Only ungrouped convolutions are rewritten;
 * depthwise layers keep fp32, which is also standard practice (they
 * are cheap and range-sensitive).
 */

#ifndef TAMRES_NN_QUANT_HH
#define TAMRES_NN_QUANT_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nn/ops.hh"

namespace tamres {

class Graph;

/** Largest |x| over @p n values (0 for empty input). */
float maxAbsValue(const float *p, size_t n);

/**
 * Symmetric scale mapping [-max_abs, max_abs] onto [-127, 127]; never
 * returns zero so a degenerate all-zero tensor stays decodable.
 */
float symmetricScale(float max_abs);

/** q = clamp(round(x / scale), -127, 127). */
void quantizeSymmetric(const float *src, size_t n, float scale,
                       int8_t *dst);

/** x = q * scale. */
void dequantizeSymmetric(const int8_t *src, size_t n, float scale,
                         float *dst);

/**
 * Naive integer convolution — the correctness oracle for the planned
 * path: quantizes @p in per image and runs a simple int8 im2col GEMM
 * with int32 accumulation. The planned path (convForwardInt8Gemm) is
 * bitwise identical to this kernel by construction; tests and the
 * quantization ablation bench compare against it. Not used by the
 * serving path.
 *
 * @param p          problem shape; p.groups must be 1
 * @param in         fp32 input, NCHW
 * @param act_scale  static activation scale, or <= 0 to derive it
 *                   per image from that image's max (dynamic
 *                   quantization; per image, never per batch)
 * @param wq         int8 weights, [oc, ic*kh*kw]
 * @param w_scales   per-output-channel weight scales, [oc]
 * @param bias       fp32 bias, may be nullptr
 * @param fused_relu clamp negative outputs in the epilogue
 * @param out        fp32 output, NCHW (overwritten)
 */
void convForwardInt8(const ConvProblem &p, const float *in,
                     float act_scale, const int8_t *wq,
                     const float *w_scales, const float *bias,
                     bool fused_relu, float *out);

/**
 * Int8 replacement for an ungrouped Conv2d. Weights are quantized
 * per output channel at construction; the activation scale is either
 * fixed (static quantization) or derived per call (dynamic).
 */
class QuantConv2d : public Op
{
  public:
    /**
     * Build from a trained convolution. @p src must have groups == 1.
     *
     * @param act_scale static activation scale, or <= 0 for dynamic
     */
    explicit QuantConv2d(const Conv2d &src, float act_scale = 0.0f);

    std::string type() const override { return "QuantConv2d"; }
    Shape outputShape(const std::vector<Shape> &inputs) const override;
    void forward(const std::vector<const Tensor *> &inputs,
                 Tensor &out) override;
    int64_t flops(const std::vector<Shape> &inputs) const override;

    float actScale() const { return act_scale_; }
    void setActScale(float scale) { act_scale_ = scale; }
    bool fusedRelu() const { return fused_relu_; }
    const std::vector<float> &weightScales() const { return w_scales_; }

    /** The conv problem this op poses for a given input shape. */
    ConvProblem problemFor(const Shape &input) const;

    /**
     * The int8 GEMM config this op runs for a given input shape —
     * always valid under convConfigValidInt8 (the quantized path has
     * one fixed blocking; it does not consult the KernelSelector).
     * Mirrors Conv2d::configFor so Graph plans treat both uniformly.
     */
    ConvConfig configFor(const Shape &input) const;

    /**
     * Forward with a pre-resolved config and (optionally) the
     * plan-prepacked weights — the planned path. When @p packed is
     * valid, quantized, built for @p cfg and weight-shape-compatible,
     * the steady-state call performs no weight packing and no heap
     * allocation; otherwise weights are packed on the fly. Output is
     * bitwise identical either way (and identical to forward()).
     */
    void forwardWith(const ConvConfig &cfg,
                     const PackedConvWeights *packed,
                     const std::vector<const Tensor *> &inputs,
                     Tensor &out);

    /**
     * Build the quantized packed-weight form for (@p input, @p cfg).
     * Called by the Graph plan compiler; shared across plans via the
     * per-graph pack cache like Conv2d packs.
     */
    void packWeights(const Shape &input, const ConvConfig &cfg,
                     PackedConvWeights &out) const;

  private:
    int ic_, oc_, kernel_, stride_, pad_;
    bool has_bias_;
    bool fused_relu_;
    float act_scale_;
    std::vector<int8_t> wq_;       //!< [oc, ic*k*k]
    std::vector<float> w_scales_;  //!< [oc]
    std::vector<float> bias_;      //!< [oc] (empty when !has_bias_)
};

/** Per-layer activation ranges observed during calibration. */
struct QuantCalibration
{
    /** Conv name -> max |input| seen across the calibration set. */
    std::unordered_map<std::string, float> act_max;
};

/**
 * Run the fp32 graph over @p samples recording, for every Conv2d, the
 * largest |input| it sees. The graph is left unmodified (the run
 * observer is restored to empty).
 */
QuantCalibration calibrateActivations(Graph &graph,
                                      const std::vector<Tensor> &samples);

/**
 * Rewrite every eligible Conv2d (groups == 1) into a QuantConv2d.
 * Layers found in @p cal get static activation scales; the rest (or
 * all, when @p cal is null) quantize dynamically. Run after
 * foldBatchNorms/fuseConvRelu so the fused epilogues carry over.
 *
 * Plan interplay: the rewrites run under one PlanInvalidationDefer, so
 * the graph's plan version bumps exactly once per effective call — and
 * not at all when nothing was rewritten, making the pass idempotent
 * (a second call finds no Conv2d left and leaves plan versions
 * untouched).
 *
 * @return the number of convolutions rewritten.
 */
int quantizeConvs(Graph &graph, const QuantCalibration *cal = nullptr);

/**
 * The full quantization pipeline: optimizeForInference (fold
 * batchnorms, fuse relus, fold scale/shift — so the fused epilogues
 * carry into the int8 layers) followed by quantizeConvs. Idempotent;
 * each pass bumps plan versions at most once. Returns the number of
 * convolutions rewritten. Build the engine's int8 serving tier by
 * running this on a copy of the fp32 graph, with @p cal from
 * calibrateActivations when static (batch-invariant *and*
 * input-independent) activation scales are wanted.
 */
int quantizeGraph(Graph &graph, const QuantCalibration *cal = nullptr);

} // namespace tamres

#endif // TAMRES_NN_QUANT_HH
