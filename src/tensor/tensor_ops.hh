/**
 * @file
 * Elementwise and reduction helpers on Tensor used by the nn engine and
 * the training code.
 */

#ifndef TAMRES_TENSOR_TENSOR_OPS_HH
#define TAMRES_TENSOR_TENSOR_OPS_HH

#include "tensor/tensor.hh"

namespace tamres {

/** out = a + b (same shape). */
void addInto(const Tensor &a, const Tensor &b, Tensor &out);

/** a += alpha * b (same shape). */
void axpy(float alpha, const Tensor &b, Tensor &a);

/** Scale every element: a *= alpha. */
void scale(Tensor &a, float alpha);

/** Elementwise ReLU into @p out (may alias @p a). */
void reluInto(const Tensor &a, Tensor &out);

/** Fill with uniform values in [lo, hi) from an explicit generator. */
void fillUniform(Tensor &t, class Rng &rng, float lo, float hi);

/**
 * Fill with N(0, sd) values: element i is rng.normal(0, sd) of the
 * i-th pair of draws, so the fill consumes exactly two draws per
 * element and leaves @p rng in the same state at any thread count.
 * The uniforms are drawn in order on the calling thread, 64 Ki
 * elements at a time, and the Box–Muller transform runs on the pool.
 */
void fillNormal(Tensor &t, class Rng &rng, float sd);

/**
 * Kaiming/He fan-in initialization for conv/linear weights:
 * N(0, sqrt(2 / fan_in)).
 */
void fillKaiming(Tensor &t, class Rng &rng, int64_t fan_in);

/** Arg-max over the last dimension of a 2-D [n, k] tensor, per row. */
std::vector<int> argmaxRows(const Tensor &t);

/** Max absolute difference between two same-shaped tensors. */
float maxAbsDiff(const Tensor &a, const Tensor &b);

} // namespace tamres

#endif // TAMRES_TENSOR_TENSOR_OPS_HH
