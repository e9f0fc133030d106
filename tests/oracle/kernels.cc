#include "oracle/kernels.h"

#include <cassert>
#include <cmath>
#include <cstdlib>

namespace dri::tensor {

void
fullyConnected(const Tensor &in, const Tensor &weight, const Tensor &bias,
               Tensor &out)
{
    assert(in.rank() == 2 && weight.rank() == 2);
    const std::int64_t batch = in.dim(0);
    const std::int64_t in_dim = in.dim(1);
    const std::int64_t out_dim = weight.dim(0);
    assert(weight.dim(1) == in_dim);
    assert(bias.numel() == out_dim);

    out = Tensor(batch, out_dim);
    for (std::int64_t b = 0; b < batch; ++b) {
        const float *x = in.row(b);
        float *y = out.row(b);
        for (std::int64_t o = 0; o < out_dim; ++o) {
            const float *w = weight.row(o);
            float acc = bias.at(o);
            for (std::int64_t i = 0; i < in_dim; ++i)
                acc += x[i] * w[i];
            y[o] = acc;
        }
    }
}

void
reluInPlace(Tensor &t)
{
    float *p = t.data();
    const std::int64_t n = t.numel();
    for (std::int64_t i = 0; i < n; ++i)
        p[i] = p[i] > 0.0f ? p[i] : 0.0f;
}

void
sigmoidInPlace(Tensor &t)
{
    float *p = t.data();
    const std::int64_t n = t.numel();
    for (std::int64_t i = 0; i < n; ++i)
        p[i] = 1.0f / (1.0f + std::exp(-p[i]));
}

void
concatColumns(const std::vector<const Tensor *> &inputs, Tensor &out)
{
    assert(!inputs.empty());
    const std::int64_t batch = inputs.front()->rows();
    std::int64_t total_cols = 0;
    for (const auto *t : inputs) {
        assert(t->rank() == 2);
        assert(t->rows() == batch);
        total_cols += t->cols();
    }
    out = Tensor(batch, total_cols);
    for (std::int64_t b = 0; b < batch; ++b) {
        float *dst = out.row(b);
        for (const auto *t : inputs) {
            const float *src = t->row(b);
            for (std::int64_t c = 0; c < t->cols(); ++c)
                *dst++ = src[c];
        }
    }
}

void
dotInteraction(const std::vector<const Tensor *> &blocks, Tensor &out)
{
    assert(!blocks.empty());
    const std::int64_t batch = blocks.front()->rows();
    const std::int64_t dim = blocks.front()->cols();
    for (const auto *b : blocks) {
        assert(b->rows() == batch && b->cols() == dim);
        (void)b;
    }
    const std::int64_t n = static_cast<std::int64_t>(blocks.size());
    const std::int64_t pairs = n * (n - 1) / 2;
    out = Tensor(batch, dim + pairs);
    for (std::int64_t b = 0; b < batch; ++b) {
        float *dst = out.row(b);
        // Skip connection: first block's raw features pass through.
        const float *first = blocks[0]->row(b);
        for (std::int64_t c = 0; c < dim; ++c)
            dst[c] = first[c];
        std::int64_t k = dim;
        for (std::int64_t i = 0; i < n; ++i) {
            const float *xi = blocks[static_cast<std::size_t>(i)]->row(b);
            for (std::int64_t j = i + 1; j < n; ++j) {
                const float *xj = blocks[static_cast<std::size_t>(j)]->row(b);
                float acc = 0.0f;
                for (std::int64_t c = 0; c < dim; ++c)
                    acc += xi[c] * xj[c];
                dst[k++] = acc;
            }
        }
    }
}

void
sumTensors(const std::vector<const Tensor *> &inputs, Tensor &out)
{
    assert(!inputs.empty());
    out = *inputs.front();
    for (std::size_t i = 1; i < inputs.size(); ++i) {
        assert(inputs[i]->sameShape(out));
        const float *src = inputs[i]->data();
        float *dst = out.data();
        const std::int64_t n = out.numel();
        for (std::int64_t j = 0; j < n; ++j)
            dst[j] += src[j];
    }
}

double
l1Distance(const Tensor &a, const Tensor &b)
{
    assert(a.sameShape(b));
    double acc = 0.0;
    const std::int64_t n = a.numel();
    for (std::int64_t i = 0; i < n; ++i)
        acc += std::abs(static_cast<double>(a.at(i)) -
                        static_cast<double>(b.at(i)));
    return acc;
}

} // namespace dri::tensor
