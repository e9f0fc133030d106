/**
 * @file
 * Time-varying fleet load: the diurnal request-rate model the autoscaling
 * control plane provisions against.
 *
 * The paper sizes capacity at a single operating point; production
 * recommendation traffic is famously diurnal (daily peak/trough swings of
 * 2x or more) with bursty overlays on top. DiurnalLoadModel captures both
 * as an epoch-indexed target QPS:
 *
 *   forecast(e)  = base * (1 + amplitude * sin(2*pi*e / epochs_per_day))
 *   realized(e)  = forecast(e) * (1 + bursts(e) * (burst_multiplier - 1)
 *                                      * burst_fraction)
 *
 * where bursts(e) is a per-epoch Poisson draw from a seeded stream. The
 * *forecast* is what a predictive autoscaler is allowed to see before the
 * epoch runs; the *realized* rate (bursts included) is what the fleet
 * simulator actually offers. The gap between them is exactly the headroom
 * question autoscaling policies trade off.
 *
 * Per-epoch request streams come from the existing RequestGenerator with
 * an epoch-salted seed, so every policy replays the identical stream for
 * a given epoch (paired comparisons) and reruns are bit-identical. With a
 * context pool, the pool's requests are generated once, at construction,
 * and each epoch only samples from them; either way epochRequests() is a
 * pure const read, safe to call from several threads sharing one model.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "model/model_spec.h"
#include "workload/request_generator.h"

namespace dri::workload {

/** Diurnal profile + burst overlay parameters. */
struct DiurnalLoadConfig
{
    /** Mean offered rate (the sinusoid's midline), requests/second. */
    double base_qps = 300.0;
    /** Peak = base*(1+amplitude), trough = base*(1-amplitude). */
    double amplitude = 0.5;
    /** Epochs per synthetic day (the sinusoid's period). */
    int epochs_per_day = 24;

    /** Expected Poisson burst arrivals per epoch (0 = no bursts). */
    double bursts_per_epoch = 0.0;
    /** Rate multiplier while a burst is active. */
    double burst_multiplier = 2.0;
    /** Fraction of an epoch one burst occupies (caps realized uplift). */
    double burst_fraction = 0.25;

    /**
     * Recurring ranking contexts: when > 0, every request's feature
     * vector is drawn (uniformly, per-epoch stream) from a fixed pool of
     * this many distinct vectors, under a fresh user id. The pool is
     * generated once, when the model is constructed. Production
     * traffic repeats contexts within short horizons — the regime the
     * pooled-result cache exists for — and with content-addressed cache
     * keys only *recurring vectors* (not coincidentally equal shapes)
     * hit. 0 keeps the classic all-distinct stream.
     */
    std::size_t context_pool = 0;

    /** Seed for burst draws and per-epoch request streams. */
    std::uint64_t seed = 0xd1a1;
};

/** Epoch-indexed target-QPS model with deterministic request streams. */
class DiurnalLoadModel
{
  public:
    /**
     * Throws std::invalid_argument unless base_qps > 0, amplitude lies
     * in [0, 1), epochs_per_day > 0 and burst_fraction lies in [0, 1].
     * Generates the context pool.
     */
    DiurnalLoadModel(const model::ModelSpec &spec, DiurnalLoadConfig config);

    /**
     * The smooth profile rate — all a predictive policy may see. Epoch 0
     * sits at the sinusoid's rising midline.
     */
    double forecastQps(int epoch) const;

    /** Highest forecast across a day (what StaticPeak provisions for). */
    double peakForecastQps() const;

    /** Burst arrivals drawn for this epoch (deterministic per seed). */
    int burstCount(int epoch) const;

    /** The rate the fleet simulator actually offers: forecast + bursts. */
    double realizedQps(int epoch) const;

    /**
     * The epoch's request stream: `n` requests from a generator seeded
     * by (seed, epoch) — or, with a context pool, `n` pool entries picked
     * by that seed. Identical calls return identical streams.
     */
    std::vector<Request> epochRequests(int epoch, std::size_t n) const;

    const DiurnalLoadConfig &config() const { return config_; }

  private:
    /** Copied, like CapacityPlanner and FleetSim: a model constructed
     *  from a temporary spec must not dangle. */
    model::ModelSpec spec_;
    DiurnalLoadConfig config_;
    /**
     * config_.context_pool requests, seeded by the model seed ONLY: the
     * contexts persist day over day, which gives the pooled-result cache
     * cross-epoch continuity to lose at a reconfiguration.
     */
    const std::vector<Request> context_pool_;
};

} // namespace dri::workload
