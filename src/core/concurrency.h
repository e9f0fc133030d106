/**
 * @file
 * The fan-out behind the library's byte-identical parallel work
 * (sched::CapacitySearch::run's probe rounds, core::buildShardCacheModels'
 * shard-group workers, fleet::ParallelSweep's pool): run n independent
 * jobs at once, each writing only its own positional slots, and report
 * failures as a serial loop would.
 */
#pragma once

#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace dri::core {

/**
 * CPUs this process may run on: the size of its affinity mask, else
 * std::thread::hardware_concurrency(), and never less than 1.
 */
int usableCpus();

/**
 * Run work(0) .. work(n - 1) at once, one std::thread each except
 * work(0), which runs on the calling thread (so n == 1 starts no
 * thread). Every started thread is joined, also when starting a later
 * one fails; then the exception of the lowest k that threw is rethrown.
 */
template <class Work>
void
runConcurrently(std::size_t n, const Work &work)
{
    std::vector<std::exception_ptr> errors(n);
    const auto guarded = [&](std::size_t k) {
        try {
            work(k);
        } catch (...) {
            errors[k] = std::current_exception();
        }
    };
    std::vector<std::thread> helpers;
    const auto joinAll = [&] {
        for (std::thread &t : helpers)
            t.join();
    };
    try {
        for (std::size_t k = 1; k < n; ++k)
            helpers.emplace_back(guarded, k);
    } catch (...) {
        joinAll(); // destroying a joinable std::thread ends the program
        throw;
    }
    if (n > 0)
        guarded(0);
    joinAll();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace dri::core
