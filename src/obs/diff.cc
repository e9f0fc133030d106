#include "obs/diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace dri::obs {

namespace {

/** Finalize rows -> sorted table + blamed stage + share. */
void
finishReport(AttributionReport &report)
{
    std::sort(report.rows.begin(), report.rows.end(),
              [](const StageDelta &a, const StageDelta &b) {
                  const double da = std::abs(a.delta());
                  const double db = std::abs(b.delta());
                  if (da != db)
                      return da > db;
                  return a.bucket < b.bucket;
              });
    // Blame the largest positive per-stage delta; ties go to the
    // earlier bucket.
    double bucket_delta[kPathBucketCount] = {};
    for (const StageDelta &row : report.rows)
        bucket_delta[static_cast<std::size_t>(row.bucket)] += row.delta();
    double worst = 0.0;
    double positive_total = 0.0;
    for (std::size_t b = 0; b < kPathBucketCount; ++b) {
        if (bucket_delta[b] > 0.0)
            positive_total += bucket_delta[b];
        if (bucket_delta[b] > worst) {
            worst = bucket_delta[b];
            report.blamed = static_cast<PathBucket>(b);
        }
    }
    report.blamed_share =
        positive_total > 0.0 ? worst / positive_total : 0.0;
}

std::string
formatNs(double ns)
{
    char buf[64];
    const double a = std::abs(ns);
    if (a >= 1e6)
        std::snprintf(buf, sizeof buf, "%+.2fms", ns * 1e-6);
    else if (a >= 1e3)
        std::snprintf(buf, sizeof buf, "%+.1fus", ns * 1e-3);
    else
        std::snprintf(buf, sizeof buf, "%+.0fns", ns);
    return buf;
}

} // namespace

std::string
AttributionReport::headline() const
{
    if (!has_attribution)
        return "no attribution data in inputs";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s %s/req (%d%% of %s e2e shift)",
                  pathBucketName(blamed),
                  formatNs([&] {
                      double d = 0.0;
                      for (const StageDelta &row : rows)
                          if (row.bucket == blamed)
                              d += row.delta();
                      return d;
                  }())
                      .c_str(),
                  static_cast<int>(blamed_share * 100.0 + 0.5),
                  formatNs(cur_e2e_ns - base_e2e_ns).c_str());
    return buf;
}

AttributionReport
explainArtifacts(const ArtifactRow &base, const ArtifactRow &current)
{
    AttributionReport report;
    bool any = false;
    for (std::size_t b = 0; b < kPathBucketCount; ++b) {
        const auto bucket = static_cast<PathBucket>(b);
        const std::string key =
            std::string("path_") + pathBucketName(bucket) + "_ns";
        const std::string *bv = base.find(key);
        const std::string *cv = current.find(key);
        if (bv == nullptr && cv == nullptr)
            continue;
        any = true;
        StageDelta row;
        row.bucket = bucket;
        row.base_ns = bv != nullptr ? std::atof(bv->c_str()) : 0.0;
        row.cur_ns = cv != nullptr ? std::atof(cv->c_str()) : 0.0;
        report.rows.push_back(row);
    }
    if (!any)
        return report;
    report.has_attribution = true;
    for (const StageDelta &row : report.rows) {
        report.base_e2e_ns += row.base_ns;
        report.cur_e2e_ns += row.cur_ns;
    }
    finishReport(report);
    if (const std::string *v = base.find("tail_exemplar_request"))
        report.base_exemplar_request =
            static_cast<std::uint64_t>(std::atof(v->c_str()));
    if (const std::string *v = current.find("tail_exemplar_request"))
        report.cur_exemplar_request =
            static_cast<std::uint64_t>(std::atof(v->c_str()));
    return report;
}

void
writeAttributionReport(std::ostream &os, const AttributionReport &report)
{
    os << "attribution: " << report.headline() << "\n";
    if (!report.has_attribution)
        return;
    os << "  e2e/req: " << report.base_e2e_ns * 1e-3 << "us -> "
       << report.cur_e2e_ns * 1e-3 << "us\n";
    os << "  stage deltas (largest movers first):\n";
    for (const StageDelta &row : report.rows)
        os << "    " << pathBucketName(row.bucket) << ": "
           << row.base_ns * 1e-3 << "us -> " << row.cur_ns * 1e-3
           << "us (" << formatNs(row.delta()) << "/req)\n";
    if (report.base_exemplar_request != 0 ||
        report.cur_exemplar_request != 0)
        os << "  exemplar trace pair: baseline request "
           << report.base_exemplar_request << " vs current request "
           << report.cur_exemplar_request << "\n";
}

} // namespace dri::obs
