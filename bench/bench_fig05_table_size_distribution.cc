/**
 * @file
 * Fig. 5 reproduction: embedding-table size distribution per model. DRM1
 * and DRM2 show a long tail of table sizes; DRM3 is dominated by one huge
 * table. Also prints the headline size attributes from Section V-A.
 *
 * Exits nonzero unless each model's histogram buckets add up to its
 * table count.
 */
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "model/generators.h"
#include "obs/metrics.h"
#include "stats/table_printer.h"

int
main()
{
    using namespace dri;
    using stats::TablePrinter;

    std::cout << stats::banner("Fig. 5: embedding-table size distribution");

    TablePrinter attrs({"model", "tables", "total (GiB)", "largest (GiB)",
                        "largest share", "top-10 share"});
    for (const auto &spec : model::makeAllModels()) {
        std::vector<double> sizes;
        for (const auto &t : spec.tables)
            sizes.push_back(static_cast<double>(t.logicalBytes()));
        std::sort(sizes.rbegin(), sizes.rend());
        const double total =
            static_cast<double>(spec.totalCapacityBytes());
        double top10 = 0.0;
        for (std::size_t i = 0; i < std::min<std::size_t>(10, sizes.size());
             ++i)
            top10 += sizes[i];
        attrs.addRow({spec.name, std::to_string(spec.tableCount()),
                      TablePrinter::num(total / model::kGiB, 2),
                      TablePrinter::num(sizes.front() / model::kGiB, 2),
                      TablePrinter::pct(sizes.front() / total),
                      TablePrinter::pct(top10 / total)});
    }
    std::cout << attrs.render() << "\n";

    // Octave bins over whole MiB: with sub_bucket_bits = 0, bucket k >= 1
    // holds [2^(k-1), 2^k) MiB. Every edge is a whole MiB, so binning the
    // floor of a table's size in MiB loses nothing.
    bool binned_all = true;
    for (const auto &spec : model::makeAllModels()) {
        std::cout << "--- " << spec.name
                  << " table-size histogram (log2 bins, MiB) ---\n";
        obs::Histogram h(/*sub_bucket_bits=*/0);
        for (const auto &t : spec.tables)
            h.observe(t.logicalBytes() >> 20);
        const std::size_t lo = h.bucketIndex(h.min());
        const std::size_t hi = h.bucketIndex(h.max());
        std::uint64_t peak = 0;
        for (std::size_t b = lo; b <= hi; ++b)
            peak = std::max(peak, h.bucketCount(b));
        std::uint64_t binned = 0;
        for (std::size_t b = lo; b <= hi; ++b) {
            const std::uint64_t n = h.bucketCount(b);
            binned += n;
            std::cout << "[" << h.bucketLowerBound(b) << ", "
                      << h.bucketLowerBound(b + 1) << ") "
                      << std::string(n * 50 / peak, '#') << " " << n << "\n";
        }
        std::cout << "\n";
        if (binned != spec.tableCount()) {
            std::cerr << spec.name << ": histogram bins hold " << binned
                      << " tables, expected " << spec.tableCount() << "\n";
            binned_all = false;
        }
    }
    std::cout << "DRM1/DRM2: heavy tail of mid-size tables. DRM3: one table "
                 "holds ~89% of capacity.\n";
    return binned_all ? 0 : 1;
}
