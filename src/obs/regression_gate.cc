#include "obs/regression_gate.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace dri::obs {

namespace {

/** Absolute floor for near-zero deterministic metrics. */
constexpr double kValueAbsFloor = 1e-9;

bool
parseNumber(const std::string &token, double &out)
{
    if (token.empty() || token == "true" || token == "false")
        return false;
    char *end = nullptr;
    out = std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0' && end != token.c_str();
}

[[noreturn]] void
malformed(std::size_t line_no, const std::string &what)
{
    throw std::runtime_error("artifact line " + std::to_string(line_no) +
                             ": " + what);
}

} // namespace

MetricClass
classifyMetric(const std::string &name, bool numeric)
{
    // Fingerprints outrank the numeric check: a quoted fingerprint is
    // still an exact-equality determinism contract.
    if (name.find("fingerprint") != std::string::npos)
        return MetricClass::Fingerprint;
    return numeric ? MetricClass::Value : MetricClass::Label;
}

const std::string *
ArtifactRow::find(const std::string &key) const
{
    for (const auto &[k, v] : fields)
        if (k == key)
            return &v;
    return nullptr;
}

std::vector<ArtifactRow>
parseArtifact(std::istream &in)
{
    std::vector<ArtifactRow> rows;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] != '{')
            continue; // narrative output, not part of the artifact
        ArtifactRow row;
        std::size_t i = 1;
        const auto skipWs = [&] {
            while (i < line.size() &&
                   (line[i] == ' ' || line[i] == '\t'))
                ++i;
        };
        skipWs();
        if (i < line.size() && line[i] == '}') {
            rows.push_back(std::move(row));
            continue;
        }
        while (i < line.size()) {
            skipWs();
            if (line[i] != '"')
                malformed(line_no, "expected quoted key");
            const std::size_t kend = line.find('"', i + 1);
            if (kend == std::string::npos)
                malformed(line_no, "unterminated key");
            std::string key = line.substr(i + 1, kend - i - 1);
            i = kend + 1;
            skipWs();
            if (i >= line.size() || line[i] != ':')
                malformed(line_no, "expected ':' after key");
            ++i;
            skipWs();
            std::string value;
            if (i < line.size() && line[i] == '"') {
                // Quoted string; the writers never emit escaped quotes,
                // but honor backslash escapes defensively.
                ++i;
                while (i < line.size() && line[i] != '"') {
                    if (line[i] == '\\' && i + 1 < line.size())
                        ++i;
                    value += line[i++];
                }
                if (i >= line.size())
                    malformed(line_no, "unterminated string value");
                ++i;
            } else {
                // Bare token: number / true / false.
                while (i < line.size() && line[i] != ',' &&
                       line[i] != '}')
                    value += line[i++];
                while (!value.empty() && value.back() == ' ')
                    value.pop_back();
                if (value.empty())
                    malformed(line_no, "empty value for key " + key);
            }
            row.fields.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (i >= line.size())
                malformed(line_no, "unterminated object");
            if (line[i] == ',') {
                ++i;
                continue;
            }
            if (line[i] == '}')
                break;
            malformed(line_no, "expected ',' or '}'");
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

std::vector<ArtifactRow>
parseArtifactFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open artifact: " + path);
    return parseArtifact(in);
}

namespace {

void
compareRow(const ArtifactRow &base, const ArtifactRow &cur,
           std::size_t row_idx, GateReport &rep)
{
    for (const auto &[key, base_raw] : base.fields) {
        const std::string *cur_raw = cur.find(key);
        if (cur_raw == nullptr) {
            rep.violations.push_back({row_idx, key, "missing", base_raw,
                                      "", "metric absent from current"});
            continue;
        }
        double base_num = 0.0, cur_num = 0.0;
        const bool base_is_num = parseNumber(base_raw, base_num);
        const bool cur_is_num = parseNumber(*cur_raw, cur_num);
        switch (classifyMetric(key, base_is_num && cur_is_num)) {
        case MetricClass::Fingerprint:
            ++rep.metrics_compared;
            if (base_raw != *cur_raw)
                rep.violations.push_back(
                    {row_idx, key, "fingerprint", base_raw, *cur_raw,
                     "determinism fingerprint changed"});
            break;
        case MetricClass::Value: {
            ++rep.metrics_compared;
            const double band =
                kValueTolerance * std::abs(base_num) +
                kValueAbsFloor;
            if (std::abs(cur_num - base_num) > band) {
                std::ostringstream d;
                d << "outside +/-" << kValueTolerance
                  << " relative band";
                rep.violations.push_back({row_idx, key, "value",
                                          base_raw, *cur_raw, d.str()});
            }
            break;
        }
        case MetricClass::Label:
            ++rep.metrics_compared;
            if (base_raw != *cur_raw)
                rep.violations.push_back({row_idx, key, "label",
                                          base_raw, *cur_raw,
                                          "label/flag changed"});
            break;
        }
    }
}

} // namespace

GateReport
compareArtifacts(const std::vector<ArtifactRow> &baseline,
                 const std::vector<ArtifactRow> &current)
{
    GateReport rep;
    if (baseline.size() != current.size()) {
        rep.violations.push_back(
            {0, "", "rows", std::to_string(baseline.size()),
             std::to_string(current.size()),
             "artifact row count changed"});
        // Index-matched comparison past the divergence would only
        // cascade noise; report the structural break alone.
        return rep;
    }
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        compareRow(baseline[i], current[i], i, rep);
        ++rep.rows_compared;
    }
    return rep;
}

void
writeReport(std::ostream &os, const GateReport &report,
            const std::string &baseline_name,
            const std::string &current_name)
{
    os << "regression gate: " << current_name << " vs " << baseline_name
       << "\n  rows=" << report.rows_compared
       << " metrics=" << report.metrics_compared
       << " violations=" << report.violations.size() << "\n";
    for (const GateViolation &v : report.violations)
        os << "  FAIL row " << v.row << " [" << v.kind << "] "
           << (v.key.empty() ? "<structure>" : v.key)
           << ": baseline=" << v.baseline << " current=" << v.current
           << " (" << v.detail << ")\n";
    os << (report.pass() ? "GATE PASS" : "GATE FAIL") << "\n";
}

} // namespace dri::obs
