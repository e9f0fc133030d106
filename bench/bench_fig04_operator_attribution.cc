/**
 * @file
 * Fig. 4 reproduction: normalized operator compute attribution for DRM1,
 * DRM2, DRM3 (non-distributed). Sparse operators contribute 9.7%, 9.6%, and
 * 3.1% of operator time respectively, despite holding >97% of capacity.
 * The attribution table is cross-checked against the serving cost model's
 * realized sparse share on a replayed request stream.
 */
#include <iostream>

#include "bench_common.h"
#include "stats/table_printer.h"

int
main()
{
    using namespace dri;
    using stats::TablePrinter;
    using model::OpClass;

    std::cout << stats::banner(
        "Fig. 4: operator compute attribution (normalized)");

    const std::vector<OpClass> order{
        OpClass::Hash,          OpClass::Fill,
        OpClass::ScaleClip,     OpClass::Activations,
        OpClass::Sparse,        OpClass::FeatureTransform,
        OpClass::MemoryTransform, OpClass::Dense,
    };

    std::vector<std::string> headers{"op group"};
    const auto specs = model::makeAllModels();
    for (const auto &spec : specs)
        headers.push_back(spec.name);
    TablePrinter table(headers);
    for (const auto cls : order) {
        std::vector<std::string> row{model::opClassName(cls)};
        for (const auto &spec : specs) {
            const auto it = spec.compute_attribution.find(cls);
            const double f =
                it == spec.compute_attribution.end() ? 0.0 : it->second;
            row.push_back(TablePrinter::num(f, 3));
        }
        table.addRow(row);
    }
    std::cout << table.render() << "\n";

    // Cross-check: realized sparse share of operator CPU in the serving
    // model at the mean request size.
    TablePrinter check({"model", "spec sparse share", "realized sparse share",
                        "sparse capacity share"});
    for (const auto &spec : specs) {
        const double pooling = spec.expectedPoolingPerRequest();
        const double sparse_ns = pooling * model::kNsPerLookup;
        double dense_ns = 0.0;
        for (const auto &net : spec.nets)
            dense_ns += net.dense_ns_per_item * spec.mean_items;
        const double realized = sparse_ns / (sparse_ns + dense_ns);
        // Embedding tables vs total model size: dense parameters are a few
        // hundred MB against 138-200 GB of tables.
        const double dense_param_bytes = 256.0 * 1024 * 1024;
        const double cap_share =
            static_cast<double>(spec.totalCapacityBytes()) /
            (static_cast<double>(spec.totalCapacityBytes()) +
             dense_param_bytes);
        check.addRow({spec.name,
                      TablePrinter::num(spec.sparseComputeShare(), 3),
                      TablePrinter::num(realized, 3),
                      TablePrinter::num(cap_share, 4)});
    }
    std::cout << check.render();
    std::cout << "\nSparse ops are <10% of compute but >99% of capacity — "
                 "the capacity/compute\nasymmetry that motivates "
                 "capacity-driven sharding.\n";
    return 0;
}
