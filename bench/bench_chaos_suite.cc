/**
 * @file
 * Chaos scenario sweep: the canonical diurnal fleet (fleet/study.h,
 * hedging enabled) under each FaultSchedule scenario, with per-scenario
 * scorecards emitted as JSONL (grep "^{") — one row per scenario plus
 * its ledger fingerprints — so blast radius, recovery time, and the
 * fault layer's purity contract are diffable across commits.
 *
 * The "none" row doubles as the purity pin: its fingerprints are the
 * fault-free fleet's, so any commit that perturbs fault-free behavior
 * through the chaos plumbing fails this bench's golden even before
 * the main fleet bench notices.
 *
 * `--smoke` runs the one-day reduced study (the golden lane's run).
 */
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fleet/fleet_sim.h"
#include "fleet/study.h"
#include "stats/table_printer.h"

int
main(int argc, char **argv)
{
    using namespace dri;
    using stats::TablePrinter;
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    std::cout << stats::banner(
        "Chaos suite: fault scenarios x the hedged diurnal fleet");

    auto study = fleet::makeFleetStudy(smoke);
    study.serving.hedge.enabled = true;
    study.serving.hedge.quantile = 0.95;
    study.serving.hedge.min_samples = 64;
    study.serving.hedge.max_hedge_fraction = 0.10;
    const workload::DiurnalLoadModel load(study.spec, study.load);
    const auto inputs = fleet::studyAutoscalerInputs(study, load);

    // Fault windows sit mid-trace in the smoke study; the full study is
    // longer, so the same windows simply land earlier in the day.
    struct Scenario
    {
        std::string name;
        fleet::FaultSchedule faults;
    };
    std::vector<Scenario> scenarios;
    scenarios.push_back({"none", {}});
    {
        fleet::FaultSchedule f;
        f.crashReplica(0, 1, 4, 5, 0.10);
        scenarios.push_back({"replica-crash", f});
    }
    {
        fleet::FaultSchedule f;
        f.slowReplica(1, 0, 8.0, 4, 6, 0.25);
        scenarios.push_back({"slow-replica", f});
    }
    {
        fleet::FaultSchedule f;
        f.partition(0, 6, 7, 1.0);
        scenarios.push_back({"partition", f});
    }
    {
        fleet::FaultSchedule f;
        f.snapshotStorm(5, 0.3, 0.5);
        scenarios.push_back({"snapshot-storm", f});
    }
    {
        fleet::FaultSchedule f;
        f.flashCrowd(1.5, 0.5, 8, 9, 0.5);
        scenarios.push_back({"flash-crowd", f});
    }

    TablePrinter table({"scenario", "blast", "min att", "recovery",
                        "shed", "steady viol", "fingerprint"});
    bool ok = true;
    std::uint64_t none_sim_fp = 0, none_tele_fp = 0;
    for (const auto &sc : scenarios) {
        auto cfg = study.fleet;
        cfg.faults = sc.faults;
        fleet::FleetSim sim(study.spec, study.plan, study.serving, load,
                            cfg);
        const auto policy = fleet::makeAutoscaler("reactive", inputs);
        const auto s = sim.run(*policy);

        auto row = bench::JsonRow("chaos_suite")
                       .field("scenario", sc.name)
                       .field("schedule_fingerprint",
                              sc.faults.fingerprint())
                       .field("steady_slo_violation_epochs",
                              static_cast<std::int64_t>(
                                  s.steadySloViolationEpochs()))
                       .field("shed_requests", s.totalShedRequests())
                       .field("reconfigurations",
                              static_cast<std::int64_t>(
                                  s.reconfigurations()))
                       .field("machine_hours", s.totalMachineHours())
                       .field("fingerprint", s.fingerprint())
                       .field("telemetry_fingerprint",
                              s.telemetryFingerprint());
        std::string blast = "-", att = "-", rec = "-", shed = "0";
        if (!s.telemetry.scenarios.empty()) {
            const auto &o = s.telemetry.scenarios.front();
            row.field("blast_radius", o.blast_radius)
                .field("min_attainment", o.min_attainment)
                .field("within_declared_bound",
                       static_cast<int>(o.within_declared_bound))
                .field("recovery_epochs",
                       static_cast<std::int64_t>(o.recovery_epochs))
                .field("scenario_shed", o.shed_requests);
            blast = TablePrinter::pct(o.blast_radius);
            att = TablePrinter::pct(o.min_attainment);
            rec = o.recovery_epochs < 0
                      ? std::string("never")
                      : std::to_string(o.recovery_epochs) + " ep";
            shed = std::to_string(o.shed_requests);
            if (!o.within_declared_bound) {
                std::cout << "SELF-CHECK FAIL: " << sc.name
                          << " exceeds its declared blast radius\n";
                ok = false;
            }
        }
        std::cout << row;
        table.addRow({sc.name, blast, att, rec, shed,
                      std::to_string(s.steadySloViolationEpochs()),
                      std::to_string(s.fingerprint() % 100000)});

        if (sc.name == "none") {
            none_sim_fp = s.fingerprint();
            none_tele_fp = s.telemetryFingerprint();
            if (!s.telemetry.scenarios.empty()) {
                std::cout << "SELF-CHECK FAIL: fault-free run graded "
                             "scenario scorecards\n";
                ok = false;
            }
        } else if (s.fingerprint() == none_sim_fp) {
            std::cout << "SELF-CHECK FAIL: " << sc.name
                      << " left the simulation ledger untouched\n";
            ok = false;
        }
    }
    std::cout << table.render() << "\n";

    // Purity: a second fault-free run must reproduce both fingerprints
    // byte-identically (the committed golden then pins them across
    // commits).
    {
        fleet::FleetSim sim(study.spec, study.plan, study.serving, load,
                            study.fleet);
        const auto policy = fleet::makeAutoscaler("reactive", inputs);
        const auto s = sim.run(*policy);
        if (s.fingerprint() != none_sim_fp ||
            s.telemetryFingerprint() != none_tele_fp) {
            std::cout << "SELF-CHECK FAIL: fault-free rerun is not "
                         "byte-identical\n";
            ok = false;
        }
    }

    if (!ok)
        return 1;
    std::cout << "Every scenario stays within its declared blast radius "
                 "and the fault layer\nis byte-invisible when no "
                 "schedule is armed; JSON rows above pin each\n"
                 "scenario's scorecard and fingerprints.\n";
    return 0;
}
