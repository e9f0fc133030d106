#include "oracle/tensor.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>

namespace dri::tensor {

Tensor::Tensor(std::int64_t n)
    : shape_{n}, data_(static_cast<std::size_t>(n), 0.0f)
{
    assert(n >= 0);
}

Tensor::Tensor(std::int64_t rows, std::int64_t cols)
    : shape_{rows, cols},
      data_(static_cast<std::size_t>(rows * cols), 0.0f)
{
    assert(rows >= 0 && cols >= 0);
}

Tensor
Tensor::fromVector(std::vector<float> values)
{
    Tensor t;
    t.shape_ = {static_cast<std::int64_t>(values.size())};
    t.data_ = std::move(values);
    return t;
}

Tensor
Tensor::fromMatrix(std::int64_t rows, std::int64_t cols,
                   std::vector<float> values)
{
    assert(static_cast<std::int64_t>(values.size()) == rows * cols);
    Tensor t;
    t.shape_ = {rows, cols};
    t.data_ = std::move(values);
    return t;
}

std::int64_t
Tensor::numel() const
{
    return std::accumulate(shape_.begin(), shape_.end(),
                           static_cast<std::int64_t>(1),
                           std::multiplies<std::int64_t>());
}

std::int64_t
Tensor::rows() const
{
    return rank() == 2 ? shape_[0] : numel();
}

std::int64_t
Tensor::cols() const
{
    return rank() == 2 ? shape_[1] : 1;
}

float &
Tensor::at(std::int64_t r, std::int64_t c)
{
    assert(rank() == 2);
    return data_.at(static_cast<std::size_t>(r * shape_[1] + c));
}

float
Tensor::at(std::int64_t r, std::int64_t c) const
{
    assert(rank() == 2);
    return data_.at(static_cast<std::size_t>(r * shape_[1] + c));
}

float *
Tensor::row(std::int64_t r)
{
    assert(rank() == 2);
    assert(r >= 0 && r < shape_[0]);
    return data_.data() + r * shape_[1];
}

const float *
Tensor::row(std::int64_t r) const
{
    assert(rank() == 2);
    assert(r >= 0 && r < shape_[0]);
    return data_.data() + r * shape_[1];
}

void
Tensor::fill(float v)
{
    std::fill(data_.begin(), data_.end(), v);
}

} // namespace dri::tensor
