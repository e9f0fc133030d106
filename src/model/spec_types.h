/**
 * @file
 * The two vocabularies a ModelSpec is written in: the operator classes of
 * Fig. 4's compute attribution and an embedding table's storage precision
 * (Table III's quantization), with their report label and row size.
 */
#pragma once

#include <cstdint>
#include <string>

namespace dri::model {

/** Operator compute group, matching the attribution buckets of Fig. 4. */
enum class OpClass {
    Dense,           //!< FC / GEMM compute
    Sparse,          //!< embedding lookup + pooling (SLS family)
    Activations,     //!< ReLU / sigmoid
    FeatureTransform,//!< feature interaction and friends
    MemoryTransform, //!< concat / split / reshape
    ScaleClip,       //!< normalization-style elementwise work
    Hash,            //!< sparse-id hashing
    Fill,            //!< constant fills
    Rpc,             //!< distributed-inference RPC ops
};

/** Human-readable label for an OpClass (used in reports). */
inline std::string
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::Dense:
        return "Dense";
      case OpClass::Sparse:
        return "Sparse";
      case OpClass::Activations:
        return "Activations";
      case OpClass::FeatureTransform:
        return "Feature Transforms";
      case OpClass::MemoryTransform:
        return "Memory Transformations";
      case OpClass::ScaleClip:
        return "Scale/Clip";
      case OpClass::Hash:
        return "Hash";
      case OpClass::Fill:
        return "Fill";
      case OpClass::Rpc:
        return "RPC";
    }
    return "Unknown";
}

/** Numeric storage precision of an embedding table. */
enum class Precision { Fp32, Int8, Int4 };

/** Bytes per embedding row for a given precision and dimension. */
inline std::int64_t
rowBytes(Precision precision, std::int64_t dim)
{
    switch (precision) {
      case Precision::Fp32:
        return dim * 4;
      case Precision::Int8:
        // 1 byte/element + fp32 scale and bias per row.
        return dim + 8;
      case Precision::Int4:
        return (dim + 1) / 2 + 8;
    }
    return dim * 4;
}

} // namespace dri::model
