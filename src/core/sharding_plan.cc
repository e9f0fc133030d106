#include "core/sharding_plan.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace dri::core {

ShardingPlan::ShardingPlan(std::string strategy, int num_shards,
                           std::vector<TableAssignment> assignments)
    : strategy_(std::move(strategy)), num_shards_(num_shards),
      assignments_(std::move(assignments))
{
    std::sort(assignments_.begin(), assignments_.end(),
              [](const TableAssignment &a, const TableAssignment &b) {
                  return a.table_id < b.table_id;
              });
}

std::string
ShardingPlan::label() const
{
    if (isSingular())
        return "singular";
    if (strategy_ == "1-shard")
        return "1 shard";
    std::ostringstream os;
    os << strategy_ << " " << num_shards_ << " shards";
    return os.str();
}

const TableAssignment &
ShardingPlan::assignmentFor(int table_id) const
{
    if (table_id >= 0 &&
        static_cast<std::size_t>(table_id) < assignments_.size()) {
        const auto &a = assignments_[static_cast<std::size_t>(table_id)];
        if (a.table_id == table_id)
            return a;
    }
    throw std::out_of_range("ShardingPlan::assignmentFor: table " +
                            std::to_string(table_id) + " is not placed");
}

std::vector<int>
ShardingPlan::tablesOnShard(int shard_id) const
{
    std::vector<int> out;
    for (const auto &a : assignments_)
        for (int s : a.shards)
            if (s == shard_id) {
                out.push_back(a.table_id);
                break;
            }
    return out;
}

double
ShardingPlan::capacityBytes(const model::ModelSpec &spec, int shard_id) const
{
    double bytes = 0.0;
    for (const auto &a : assignments_) {
        const auto &table = spec.tables.at(static_cast<std::size_t>(a.table_id));
        for (int s : a.shards)
            if (s == shard_id)
                bytes += static_cast<double>(table.logicalBytes()) /
                         static_cast<double>(a.ways());
    }
    return bytes;
}

double
ShardingPlan::estimatedPooling(const std::vector<double> &per_table_pooling,
                               int shard_id) const
{
    double pooling = 0.0;
    for (const auto &a : assignments_) {
        const double table_pooling =
            per_table_pooling.at(static_cast<std::size_t>(a.table_id));
        for (int s : a.shards)
            if (s == shard_id)
                pooling += table_pooling / static_cast<double>(a.ways());
    }
    return pooling;
}

std::vector<ShardSummary>
ShardingPlan::summarize(const model::ModelSpec &spec,
                        const std::vector<double> &per_table_pooling) const
{
    std::vector<ShardSummary> out;
    for (int s = 0; s < num_shards_; ++s) {
        ShardSummary sum;
        sum.shard_id = s;
        sum.capacity_gib = capacityBytes(spec, s) / model::kGiB;
        sum.table_count = static_cast<int>(tablesOnShard(s).size());
        sum.estimated_pooling = estimatedPooling(per_table_pooling, s);
        for (int t : tablesOnShard(s))
            sum.nets.insert(spec.tables.at(static_cast<std::size_t>(t)).net_id);
        out.push_back(sum);
    }
    return out;
}

bool
ShardingPlan::validate(const model::ModelSpec &spec, std::string *error,
                       std::int64_t shard_memory_limit) const
{
    std::ostringstream err;
    bool ok = true;

    if (isSingular()) {
        if (!assignments_.empty()) {
            err << "singular plan must have no assignments; ";
            ok = false;
        }
        if (error)
            *error = err.str();
        return ok;
    }

    if (assignments_.size() != spec.tables.size()) {
        err << "plan covers " << assignments_.size() << " tables, model has "
            << spec.tables.size() << "; ";
        ok = false;
    }
    std::vector<bool> seen(spec.tables.size(), false);
    for (const auto &a : assignments_) {
        if (a.table_id < 0 ||
            a.table_id >= static_cast<int>(spec.tables.size())) {
            err << "bad table id " << a.table_id << "; ";
            ok = false;
            continue;
        }
        if (seen[static_cast<std::size_t>(a.table_id)]) {
            err << "table " << a.table_id << " assigned twice; ";
            ok = false;
        }
        seen[static_cast<std::size_t>(a.table_id)] = true;
        if (a.shards.empty()) {
            err << "table " << a.table_id << " has no shard; ";
            ok = false;
        }
        std::set<int> distinct(a.shards.begin(), a.shards.end());
        if (distinct.size() != a.shards.size()) {
            err << "table " << a.table_id << " split uses repeated shards; ";
            ok = false;
        }
        for (int s : a.shards)
            if (s < 0 || s >= num_shards_) {
                err << "table " << a.table_id << " on out-of-range shard "
                    << s << "; ";
                ok = false;
            }
    }
    for (std::size_t t = 0; t < seen.size(); ++t)
        if (!seen[t]) {
            err << "table " << t << " unassigned; ";
            ok = false;
        }
    if (shard_memory_limit > 0) {
        for (int s = 0; s < num_shards_; ++s) {
            const double bytes = capacityBytes(spec, s);
            if (bytes > static_cast<double>(shard_memory_limit)) {
                err << "shard " << s << " exceeds memory limit; ";
                ok = false;
            }
        }
    }
    if (error)
        *error = err.str();
    return ok;
}

std::vector<std::vector<FanoutGroup>>
fanoutGroups(const model::ModelSpec &spec, const ShardingPlan &plan)
{
    std::vector<std::vector<FanoutGroup>> out(spec.nets.size());
    for (std::size_t n = 0; n < out.size() && !plan.isSingular(); ++n) {
        std::vector<FanoutGroup> by_shard(
            static_cast<std::size_t>(plan.numShards()));
        for (const auto &t : spec.tables) {
            if (t.net_id != spec.nets[n].id)
                continue;
            const auto &asg = plan.assignmentFor(t.id);
            const auto ways = static_cast<int>(asg.ways());
            for (int p = 0; p < ways; ++p) {
                const int shard = asg.shards[static_cast<std::size_t>(p)];
                FanoutGroup &g = by_shard[static_cast<std::size_t>(shard)];
                g.shard = shard;
                if (asg.isSplit())
                    g.pieces.push_back(TablePiece{t.id, p, ways});
                else
                    g.whole_tables.push_back(t.id);
            }
        }
        for (auto &g : by_shard)
            if (g.tableCount() > 0)
                out[n].push_back(std::move(g));
    }
    return out;
}

} // namespace dri::core
