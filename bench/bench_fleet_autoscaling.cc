/**
 * @file
 * Fleet autoscaling sweep: the canonical diurnal study (fleet/study.h)
 * under every autoscaling policy, with the full ledger emitted as JSONL
 * (grep "^{") — one row per (policy, epoch) plus one summary row per
 * policy — so machine-hour / watt-hour / SLO trajectories are diffable
 * across commits.
 *
 * Self-checking (exit 1 on violation): predictive spends strictly fewer
 * machine-hours and watt-hours than static-peak without losing SLO
 * attainment (steady violation epochs), and reactive never exceeds
 * static-peak. `--smoke` runs the one-day reduced study (the golden
 * lane's run).
 */
#include <cstring>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "fleet/fleet_sim.h"
#include "fleet/study.h"
#include "stats/table_printer.h"

namespace {

using namespace dri;

int
totalReplicas(const std::vector<int> &v)
{
    int n = 0;
    for (const int r : v)
        n += r;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    using stats::TablePrinter;
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    std::cout << stats::banner(
        "Fleet autoscaling: diurnal epochs x provisioning policy");

    const auto study = fleet::makeFleetStudy(smoke);
    const workload::DiurnalLoadModel load(study.spec, study.load);
    fleet::FleetSim sim(study.spec, study.plan, study.serving, load,
                        study.fleet);

    const auto inputs = fleet::studyAutoscalerInputs(study, load);

    std::vector<fleet::FleetStats> ledgers;
    for (const char *name : {"static-peak", "reactive", "predictive"}) {
        const auto policy = fleet::makeAutoscaler(name, inputs);
        ledgers.push_back(sim.run(*policy));
    }

    TablePrinter table({"policy", "machine-h", "watt-h", "steady viol",
                        "shed", "reconfigs", "rcache hit"});
    for (const auto &s : ledgers) {
        double mean_hit = 0.0;
        for (const auto &r : s.epochs) {
            mean_hit += r.result_cache_hit_rate;
            std::cout
                << bench::JsonRow("fleet_autoscaling")
                       .field("policy", s.policy)
                       .field("epoch", r.epoch)
                       .field("forecast_qps", r.forecast_qps)
                       .field("offered_qps", r.offered_qps)
                       .field("replicas",
                              static_cast<std::int64_t>(
                                  totalReplicas(r.replicas)))
                       .field("reconfigured",
                              static_cast<int>(r.reconfigured))
                       .field("scaled_up", static_cast<int>(r.scaled_up))
                       .field("scaled_down",
                              static_cast<int>(r.scaled_down))
                       .field("p99_ms", r.p99_ms)
                       .field("steady_p99_ms", r.steady_p99_ms)
                       .field("shed_rate", r.shed_rate)
                       .field("machine_hours", r.machine_hours)
                       .field("watt_hours", r.watt_hours)
                       .field("mean_util", r.mean_sparse_utilization)
                       .field("result_cache_hit_rate",
                              r.result_cache_hit_rate)
                       .field("plan_power_watts", r.planPowerWatts())
                       .field("plan_memory_bytes", r.planMemoryBytes());
        }
        mean_hit /= static_cast<double>(s.epochs.size());
        std::cout << bench::JsonRow("fleet_autoscaling_summary")
                         .field("policy", s.policy)
                         .field("machine_hours", s.totalMachineHours())
                         .field("watt_hours", s.totalWattHours())
                         .field("slo_violation_epochs",
                                static_cast<std::int64_t>(
                                    s.sloViolationEpochs()))
                         .field("steady_slo_violation_epochs",
                                static_cast<std::int64_t>(
                                    s.steadySloViolationEpochs()))
                         .field("shed_requests", s.totalShedRequests())
                         .field("reconfigurations",
                                static_cast<std::int64_t>(
                                    s.reconfigurations()))
                         .field("fingerprint", s.fingerprint());
        table.addRow({s.policy, TablePrinter::num(s.totalMachineHours()),
                      TablePrinter::num(s.totalWattHours(), 0),
                      std::to_string(s.steadySloViolationEpochs()),
                      std::to_string(s.totalShedRequests()),
                      std::to_string(s.reconfigurations()),
                      TablePrinter::pct(mean_hit)});
    }
    std::cout << table.render() << "\n";

    const auto &s_static = ledgers[0];
    const auto &s_react = ledgers[1];
    const auto &s_pred = ledgers[2];
    bool ok = true;
    if (!(s_pred.totalMachineHours() < s_static.totalMachineHours() &&
          s_pred.totalWattHours() < s_static.totalWattHours())) {
        std::cout << "SELF-CHECK FAIL: predictive does not beat "
                     "static-peak on both ledgers\n";
        ok = false;
    }
    if (s_pred.steadySloViolationEpochs() >
        s_static.steadySloViolationEpochs()) {
        std::cout << "SELF-CHECK FAIL: predictive loses SLO attainment "
                     "vs static-peak\n";
        ok = false;
    }
    if (s_react.totalMachineHours() > s_static.totalMachineHours()) {
        std::cout << "SELF-CHECK FAIL: reactive spends more machine-hours "
                     "than static-peak\n";
        ok = false;
    }

    if (!ok)
        return 1;
    std::cout << "Elastic provisioning reclaims the machine-hours static "
                 "peak sizing parks;\nJSON rows above carry the full "
                 "per-epoch ledger for every policy.\n";
    return 0;
}
