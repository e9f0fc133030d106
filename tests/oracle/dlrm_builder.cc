#include "oracle/dlrm_builder.h"

#include <cassert>
#include <cmath>

#include "stats/rng.h"

namespace dri::model {

std::string
idsBlobName(const TableSpec &table)
{
    return "ids_" + table.name;
}

std::string
embBlobName(const TableSpec &table)
{
    return "emb_" + table.name;
}

std::string
netOutputBlobName(int net_id)
{
    return "output_net" + std::to_string(net_id);
}

void
BuiltModel::prepareWorkspace(graph::Workspace &ws) const
{
    assert(spec);
    for (std::size_t i = 0; i < tables.size(); ++i)
        ws.addTable(spec->tables[i].name, tables[i]);
    for (const auto &kv : params_)
        ws.createTensor(kv.first) = kv.second;
}

std::string
BuiltModel::outputBlob() const
{
    assert(spec && !spec->nets.empty());
    return netOutputBlobName(spec->nets.back().id);
}

DlrmBuilder::DlrmBuilder(const ModelSpec &spec, int dense_input_dim,
                         int embedding_dim, int hidden_dim,
                         std::uint64_t seed)
    : spec_(spec), dense_input_dim_(dense_input_dim),
      embedding_dim_(embedding_dim), hidden_dim_(hidden_dim), seed_(seed)
{
    assert(dense_input_dim > 0 && embedding_dim > 0 && hidden_dim > 0);
}

namespace {

tensor::Tensor
randomMatrix(std::int64_t rows, std::int64_t cols, stats::Rng &rng)
{
    tensor::Tensor t(rows, cols);
    const double scale = 1.0 / std::sqrt(static_cast<double>(cols));
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = static_cast<float>(rng.gaussian(0.0, scale));
    return t;
}

tensor::Tensor
zeroVector(std::int64_t n)
{
    return tensor::Tensor(n);
}

} // namespace

BuiltModel
DlrmBuilder::build() const
{
    BuiltModel built;
    built.spec = &spec_;
    built.dense_input_dim = dense_input_dim_;
    built.embedding_dim = embedding_dim_;

    stats::Rng rng(seed_);

    // Materialize tables at physical scale: the logical geometry stays in
    // the spec; here every table gets the common embedding dimension.
    built.tables.reserve(spec_.tables.size());
    for (const auto &t : spec_.tables) {
        const std::int64_t physical_rows = 256;
        built.tables.push_back(
            std::make_shared<tensor::VirtualEmbeddingTable>(
                t.rows, embedding_dim_,
                seed_ ^ static_cast<std::uint64_t>(t.id) * 0x9e37ULL,
                physical_rows));
    }

    std::string prev_output; // previous net's output blob, if any
    for (std::size_t ni = 0; ni < spec_.nets.size(); ++ni) {
        const NetSpec &net_spec = spec_.nets[ni];
        graph::NetDef net("net" + std::to_string(net_spec.id));
        const std::string prefix = "n" + std::to_string(net_spec.id) + "_";

        // -- Bottom dense stack -------------------------------------------
        // Input: dense features, concatenated with the previous net's
        // output for chained nets (user net feeds content net).
        std::string bottom_in = "dense_input";
        net.declareInput("dense_input");
        if (!prev_output.empty()) {
            net.emplace<graph::ConcatOp>(
                std::vector<std::string>{"dense_input", prev_output},
                prefix + "bottom_in");
            bottom_in = prefix + "bottom_in";
            net.declareInput(prev_output);
        }
        const std::int64_t bottom_in_dim =
            dense_input_dim_ + (prev_output.empty() ? 0 : 1);

        const std::string w0 = prefix + "w_bottom0";
        const std::string b0 = prefix + "b_bottom0";
        built.params_.emplace_back(
            w0, randomMatrix(hidden_dim_, bottom_in_dim, rng));
        built.params_.emplace_back(b0, zeroVector(hidden_dim_));
        net.emplace<graph::FullyConnectedOp>(bottom_in, w0, b0,
                                             prefix + "h0");
        net.emplace<graph::ReluOp>(prefix + "h0");

        const std::string w1 = prefix + "w_bottom1";
        const std::string b1 = prefix + "b_bottom1";
        built.params_.emplace_back(
            w1, randomMatrix(embedding_dim_, hidden_dim_, rng));
        built.params_.emplace_back(b1, zeroVector(embedding_dim_));
        net.emplace<graph::FullyConnectedOp>(prefix + "h0", w1, b1,
                                             prefix + "dense_block");
        net.emplace<graph::ReluOp>(prefix + "dense_block");

        // -- Sparse lookups -----------------------------------------------
        std::vector<std::string> blocks{prefix + "dense_block"};
        for (const auto &t : spec_.tables) {
            if (t.net_id != net_spec.id)
                continue;
            net.declareInput(idsBlobName(t));
            net.emplace<graph::SparseLengthsSumOp>(t.name, idsBlobName(t),
                                                   embBlobName(t));
            blocks.push_back(embBlobName(t));
        }

        // -- Feature interaction + top dense stack ------------------------
        net.emplace<graph::DotInteractionOp>(blocks, prefix + "interact");
        const std::int64_t n_blocks = static_cast<std::int64_t>(blocks.size());
        const std::int64_t interact_dim =
            embedding_dim_ + n_blocks * (n_blocks - 1) / 2;

        const std::string wt = prefix + "w_top0";
        const std::string bt = prefix + "b_top0";
        built.params_.emplace_back(
            wt, randomMatrix(hidden_dim_, interact_dim, rng));
        built.params_.emplace_back(bt, zeroVector(hidden_dim_));
        net.emplace<graph::FullyConnectedOp>(prefix + "interact", wt, bt,
                                             prefix + "top0");
        net.emplace<graph::ReluOp>(prefix + "top0");

        const std::string wo = prefix + "w_out";
        const std::string bo = prefix + "b_out";
        built.params_.emplace_back(wo, randomMatrix(1, hidden_dim_, rng));
        built.params_.emplace_back(bo, zeroVector(1));
        const std::string out = netOutputBlobName(net_spec.id);
        net.emplace<graph::FullyConnectedOp>(prefix + "top0", wo, bo, out);
        net.emplace<graph::SigmoidOp>(out);
        net.declareOutput(out);

        prev_output = out;
        built.nets.push_back(std::move(net));
    }
    return built;
}

} // namespace dri::model
