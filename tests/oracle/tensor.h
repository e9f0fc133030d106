/**
 * @file
 * A small dense float tensor. The operator graph computes real values on
 * these tensors; only *timing* is simulated. Supporting rank <= 2 keeps the
 * implementation honest and auditable — recommendation inference needs
 * nothing higher for the dense path.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace dri::tensor {

/** Dense row-major float tensor of rank 1 or 2. */
class Tensor
{
  public:
    Tensor() = default;

    /** Rank-1 tensor of the given length, zero-filled. */
    explicit Tensor(std::int64_t n);

    /** Rank-2 tensor (rows x cols), zero-filled. */
    Tensor(std::int64_t rows, std::int64_t cols);

    static Tensor fromVector(std::vector<float> values);
    static Tensor fromMatrix(std::int64_t rows, std::int64_t cols,
                             std::vector<float> values);

    std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
    std::int64_t numel() const;
    std::int64_t dim(std::size_t i) const { return shape_.at(i); }
    const std::vector<std::int64_t> &shape() const { return shape_; }

    /** Rows for rank-2, numel for rank-1. */
    std::int64_t rows() const;
    /** Cols for rank-2, 1 for rank-1. */
    std::int64_t cols() const;

    float &at(std::int64_t i) { return data_.at(static_cast<std::size_t>(i)); }
    float at(std::int64_t i) const
    {
        return data_.at(static_cast<std::size_t>(i));
    }
    float &at(std::int64_t r, std::int64_t c);
    float at(std::int64_t r, std::int64_t c) const;

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Pointer to the start of row r (rank-2 only). */
    float *row(std::int64_t r);
    const float *row(std::int64_t r) const;

    /** Fill with a constant. */
    void fill(float v);

    /** Logical size in bytes (FP32). */
    std::int64_t bytes() const { return numel() * 4; }

    bool sameShape(const Tensor &other) const { return shape_ == other.shape_; }

  private:
    std::vector<std::int64_t> shape_;
    std::vector<float> data_;
};

} // namespace dri::tensor
