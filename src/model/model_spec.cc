#include "model/model_spec.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dri::model {

std::int64_t
ModelSpec::totalCapacityBytes() const
{
    std::int64_t total = 0;
    for (const auto &t : tables)
        total += t.logicalBytes();
    return total;
}

std::int64_t
ModelSpec::largestTableBytes() const
{
    std::int64_t largest = 0;
    for (const auto &t : tables)
        largest = std::max(largest, t.logicalBytes());
    return largest;
}

std::vector<const TableSpec *>
ModelSpec::tablesForNet(int net_id) const
{
    std::vector<const TableSpec *> out;
    for (const auto &t : tables)
        if (t.net_id == net_id)
            out.push_back(&t);
    return out;
}

double
ModelSpec::expectedPoolingPerRequest() const
{
    double total = 0.0;
    for (const auto &t : tables)
        total += t.expectedLookups(mean_items);
    return total;
}

double
ModelSpec::expectedPoolingPerRequest(int net_id) const
{
    double total = 0.0;
    for (const auto &t : tables)
        if (t.net_id == net_id)
            total += t.expectedLookups(mean_items);
    return total;
}

double
ModelSpec::sparseComputeShare() const
{
    auto it = compute_attribution.find(OpClass::Sparse);
    return it == compute_attribution.end() ? 0.0 : it->second;
}

bool
ModelSpec::validate(std::string *error) const
{
    std::ostringstream err;
    bool ok = true;
    if (nets.empty() || tables.empty()) {
        err << "model must have nets and tables; ";
        ok = false;
    }
    for (const auto &t : tables) {
        bool net_found = false;
        for (const auto &n : nets)
            net_found = net_found || n.id == t.net_id;
        if (!net_found) {
            err << "table " << t.name << " references unknown net "
                << t.net_id << "; ";
            ok = false;
        }
        if (t.rows <= 0 || t.dim <= 0) {
            err << "table " << t.name << " has non-positive geometry; ";
            ok = false;
        }
        if (t.pooling_per_item < 0.0) {
            err << "table " << t.name << " has negative pooling; ";
            ok = false;
        }
    }
    if (!compute_attribution.empty()) {
        double sum = 0.0;
        for (const auto &kv : compute_attribution)
            sum += kv.second;
        if (std::abs(sum - 1.0) > 1e-6) {
            err << "compute attribution sums to " << sum << ", not 1; ";
            ok = false;
        }
    }
    if (mean_items <= 0.0 || items_min <= 0.0 || items_max < items_min) {
        err << "bad request-size distribution; ";
        ok = false;
    }
    if (default_batch_size <= 0) {
        err << "bad batch size; ";
        ok = false;
    }
    if (error)
        *error = err.str();
    return ok;
}

} // namespace dri::model
