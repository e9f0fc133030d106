/**
 * @file
 * Dense compute kernels for the operator graph: GEMM-backed fully-connected
 * layers, activations, concatenation, and the DLRM dot-product feature
 * interaction. Reference implementations — clarity over speed; the DES cost
 * model, not wall-clock, provides timing.
 */
#pragma once

#include <vector>

#include "oracle/tensor.h"

namespace dri::tensor {

/**
 * Fully-connected layer: out = in * weight^T + bias.
 *
 * @param in     [batch, in_dim]
 * @param weight [out_dim, in_dim]
 * @param bias   [out_dim]
 * @param out    resized to [batch, out_dim]
 */
void fullyConnected(const Tensor &in, const Tensor &weight,
                    const Tensor &bias, Tensor &out);

/** Elementwise max(0, x), in place. */
void reluInPlace(Tensor &t);

/** Elementwise logistic sigmoid, in place. */
void sigmoidInPlace(Tensor &t);

/**
 * Concatenate rank-2 tensors along the column (feature) dimension. All
 * inputs must share the same row count.
 */
void concatColumns(const std::vector<const Tensor *> &inputs, Tensor &out);

/**
 * DLRM-style dot-product feature interaction.
 *
 * Treats each input as a [batch, dim] feature block; for every batch row,
 * emits the upper triangle (i < j) of pairwise dot products between blocks,
 * concatenated after the first block's raw features (as in DLRM's
 * interaction with skip connection).
 *
 * @param blocks  feature blocks, each [batch, dim] with a common dim
 * @param out     resized to [batch, dim + nC2] where n = blocks.size()
 */
void dotInteraction(const std::vector<const Tensor *> &blocks, Tensor &out);

/** Elementwise sum of equally shaped tensors into out. */
void sumTensors(const std::vector<const Tensor *> &inputs, Tensor &out);

/** Total absolute difference between two same-shaped tensors. */
double l1Distance(const Tensor &a, const Tensor &b);

} // namespace dri::tensor
