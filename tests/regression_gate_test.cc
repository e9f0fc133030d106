/**
 * @file
 * Regression-gate unit tests: metric-name classification, JSONL
 * artifact parsing (including rejection of malformed rows), and the
 * per-class comparisons: exact fingerprints and labels, and the
 * printing-round-trip band for deterministic values.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/regression_gate.h"

namespace {

using namespace dri;
using obs::MetricClass;

std::vector<obs::ArtifactRow>
rows(const std::string &text)
{
    std::istringstream in(text);
    return obs::parseArtifact(in);
}

// ---------------------------------------------------------------------------
// Classification.
// ---------------------------------------------------------------------------

TEST(RegressionGate, ClassifiesMetricsByName)
{
    EXPECT_EQ(obs::classifyMetric("fingerprint", true),
              MetricClass::Fingerprint);
    EXPECT_EQ(obs::classifyMetric("fingerprint", false),
              MetricClass::Fingerprint);
    EXPECT_EQ(obs::classifyMetric("p99_ms", true), MetricClass::Value);
    EXPECT_EQ(obs::classifyMetric("machine_hours", true),
              MetricClass::Value);
    // No name is exempt: every gated artifact is a pure function of
    // its seed, so even a wall- or rate-like name compares as a value.
    EXPECT_EQ(obs::classifyMetric("wall_ms", true), MetricClass::Value);
    EXPECT_EQ(obs::classifyMetric("policy", false), MetricClass::Label);
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

TEST(RegressionGate, ParsesFlatRowsAndIgnoresChatter)
{
    const auto parsed = rows("bench: warming up\n"
                             "{\"bench\":\"x\",\"p99_ms\":1.5}\n"
                             "All self-checks passed\n"
                             "{\"bench\":\"y\",\"p99_ms\":2.5}\n");
    ASSERT_EQ(parsed.size(), 2u);
    ASSERT_NE(parsed[0].find("bench"), nullptr);
    EXPECT_EQ(*parsed[0].find("bench"), "x");
    EXPECT_EQ(*parsed[1].find("p99_ms"), "2.5");
    EXPECT_EQ(parsed[0].find("absent"), nullptr);
}

TEST(RegressionGate, MalformedObjectLineThrows)
{
    std::istringstream in("{\"bench\":\"x\",\"broken\n");
    EXPECT_THROW(obs::parseArtifact(in), std::runtime_error);
}

TEST(RegressionGate, MissingBaselineFileThrows)
{
    EXPECT_THROW(
        obs::parseArtifactFile("/nonexistent/baseline.jsonl"),
        std::runtime_error);
}

// ---------------------------------------------------------------------------
// Comparison bands.
// ---------------------------------------------------------------------------

TEST(RegressionGate, IdenticalArtifactsPass)
{
    const std::string art =
        "{\"bench\":\"fleet\",\"machine_hours\":524.0,"
        "\"p99_ms\":12.5,\"fingerprint\":1234567890123456789}\n";
    const auto report = obs::compareArtifacts(rows(art), rows(art));
    EXPECT_TRUE(report.pass());
    EXPECT_EQ(report.rows_compared, 1u);
    // The bench label, both values and the fingerprint all compare.
    EXPECT_EQ(report.metrics_compared, 4u);
}

TEST(RegressionGate, DeterministicValueDriftFailsTightBand)
{
    const auto baseline =
        rows("{\"bench\":\"sim\",\"machine_hours\":524.0}\n");
    // A 0.5% drift in a deterministic output is a real change.
    const auto drifted =
        rows("{\"bench\":\"sim\",\"machine_hours\":526.6}\n");
    const auto report = obs::compareArtifacts(baseline, drifted);
    ASSERT_FALSE(report.pass());
    EXPECT_EQ(report.violations[0].kind, "value");
    // Printing round-trip wobble passes.
    const auto wobble =
        rows("{\"bench\":\"sim\",\"machine_hours\":524.000001}\n");
    EXPECT_TRUE(obs::compareArtifacts(baseline, wobble).pass());
}

TEST(RegressionGate, FingerprintMustMatchExactly)
{
    // 64-bit fingerprints exceed double precision: the gate must
    // compare raw tokens, so a low-bit flip that rounds to the same
    // double still fails.
    const auto baseline =
        rows("{\"fingerprint\":12345678901234567890}\n");
    const auto flipped =
        rows("{\"fingerprint\":12345678901234567891}\n");
    const auto report = obs::compareArtifacts(baseline, flipped);
    ASSERT_FALSE(report.pass());
    EXPECT_EQ(report.violations[0].kind, "fingerprint");
}

TEST(RegressionGate, LabelAndShapeMismatchesFail)
{
    const auto baseline =
        rows("{\"policy\":\"reactive\",\"p99_ms\":10.0}\n");
    const auto relabeled =
        rows("{\"policy\":\"predictive\",\"p99_ms\":10.0}\n");
    auto report = obs::compareArtifacts(baseline, relabeled);
    ASSERT_FALSE(report.pass());
    EXPECT_EQ(report.violations[0].kind, "label");

    const auto missing = rows("{\"policy\":\"reactive\"}\n");
    report = obs::compareArtifacts(baseline, missing);
    ASSERT_FALSE(report.pass());
    EXPECT_EQ(report.violations[0].kind, "missing");

    const auto extra_row =
        rows("{\"policy\":\"reactive\",\"p99_ms\":10.0}\n"
             "{\"policy\":\"reactive\",\"p99_ms\":11.0}\n");
    report = obs::compareArtifacts(baseline, extra_row);
    ASSERT_FALSE(report.pass());
    EXPECT_EQ(report.violations[0].kind, "rows");
}

TEST(RegressionGate, ReportNamesTheVerdict)
{
    const auto baseline = rows("{\"p99_ms\":10.0}\n");
    std::ostringstream pass_out;
    obs::writeReport(pass_out,
                     obs::compareArtifacts(baseline, baseline),
                     "base.jsonl", "cur.jsonl");
    EXPECT_NE(pass_out.str().find("GATE PASS"), std::string::npos);

    const auto bad = rows("{\"p99_ms\":20.0}\n");
    std::ostringstream fail_out;
    obs::writeReport(fail_out,
                     obs::compareArtifacts(baseline, bad),
                     "base.jsonl", "cur.jsonl");
    EXPECT_NE(fail_out.str().find("GATE FAIL"), std::string::npos);
    EXPECT_NE(fail_out.str().find("p99_ms"), std::string::npos);
}

} // namespace
