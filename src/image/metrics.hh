/**
 * @file
 * Full-reference image quality metrics: PSNR and SSIM.
 *
 * SSIM follows Wang et al. (2004) — an 11x11 Gaussian window with
 * sigma 1.5, stabilizers C1 = (0.01 L)^2 and C2 = (0.03 L)^2 with
 * dynamic range L = 1 (images are float in [0, 1]) — the metric the
 * paper's storage calibration uses (Section V).
 */

#ifndef TAMRES_IMAGE_METRICS_HH
#define TAMRES_IMAGE_METRICS_HH

#include "image/image.hh"

namespace tamres {

/** Mean squared error between same-shaped images. */
double mse(const Image &a, const Image &b);

/** Peak signal-to-noise ratio in dB (peak = 1.0); inf for identical. */
double psnr(const Image &a, const Image &b);

/**
 * Mean SSIM over all channels using an 11x11 Gaussian window
 * (sigma = 1.5, edge-clamped). Images must have identical dimensions.
 *
 * The blur streams rows: each source row is blurred horizontally into
 * an 11-row ring and each output row vertically, then folded straight
 * into the running mean, so only O(width) scratch is live. In builds
 * without FMA code generation (the default portable build, not
 * TAMRES_NATIVE=ON) every value is bitwise equal to the two-pass
 * definition (full-plane horizontal blur, full-plane vertical blur,
 * one row-major sum) at every SIMD level: the vector taps keep the
 * scalar multiplies and adds separate and in tap order.
 */
double ssim(const Image &a, const Image &b);

/**
 * Multi-scale SSIM (Wang et al. 2003): contrast/structure terms are
 * combined across @p levels dyadic scales (standard per-level weights,
 * renormalized when fewer levels fit), with the luminance term applied
 * at the coarsest scale only. Tracks perceived quality better than
 * single-scale SSIM when the viewing resolution differs from the
 * stored resolution — exactly the regime the paper's storage
 * calibration operates in (Section VIII-c). Levels are clamped so the
 * coarsest scale keeps the 11-tap window; images must be >= 11 px.
 * Each scale runs ssim()'s streamed blur, bit-identical likewise.
 */
double msSsim(const Image &a, const Image &b, int levels = 5);

} // namespace tamres

#endif // TAMRES_IMAGE_METRICS_HH
