/**
 * @file
 * Host-time span recorder for bench_e2e.
 *
 * The benchmark wraps every call it makes into a simulator module in a
 * span named `<layer>.<operation>` (the layer is the module, e.g.
 * `core.replay`, `cache.build_models`). Spans carry name, start, end and
 * parent, stay in memory, and yield each span's self time: its duration
 * minus the time its direct children cover. Summing self time by layer
 * attributes a run's wall time to modules; whatever the `bench` layer
 * keeps for itself is the unattributed remainder.
 *
 * Some children are only known as totals — the engine sums callback
 * time per event tag but not the intervals. addAggregate() records such
 * a child with its total duration, laid end to end from the parent's
 * start, so self times still add up and the Chrome trace still nests.
 *
 * Header-only: bench_e2e is one translation unit built by its own
 * CMakeLists, and this keeps it that way.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dri::bench {

class HostSpans
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        std::string name;
        std::int64_t begin_ns = 0; //!< since the recorder's origin
        std::int64_t end_ns = -1;  //!< -1 while open
        int parent = -1;
        bool aggregate = false; //!< duration known, position synthetic
        std::int64_t children_ns = 0;
        std::int64_t aggregate_cursor_ns = 0;

        std::int64_t duration() const { return end_ns - begin_ns; }
        std::int64_t self() const { return duration() - children_ns; }
        /** The layer: the name up to its first '.'. */
        std::string layer() const { return name.substr(0, name.find('.')); }
    };

    HostSpans() : origin_(Clock::now()) {}

    /** Open a span as a child of the innermost open span. */
    int
    begin(std::string name)
    {
        Span s;
        s.name = std::move(name);
        s.begin_ns = now();
        s.parent = open_;
        s.aggregate_cursor_ns = s.begin_ns;
        spans_.push_back(std::move(s));
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    /** Close the innermost open span (must be `id`); returns its duration. */
    std::int64_t
    end(int id)
    {
        if (id != open_)
            throw std::logic_error("HostSpans: spans must close innermost "
                                   "first");
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.end_ns = now();
        if (s.parent >= 0)
            spans_[static_cast<std::size_t>(s.parent)].children_ns +=
                s.duration();
        open_ = s.parent;
        return s.duration();
    }

    /**
     * Record a closed child of `parent` whose total is known but whose
     * intervals are not. Children are laid end to end from the parent's
     * start; call after the parent has closed.
     */
    void
    addAggregate(int parent, std::string name, std::int64_t ns)
    {
        if (ns <= 0)
            return;
        Span &p = spans_.at(static_cast<std::size_t>(parent));
        Span s;
        s.name = std::move(name);
        s.begin_ns = p.aggregate_cursor_ns;
        s.end_ns = s.begin_ns + ns;
        s.parent = parent;
        s.aggregate = true;
        p.aggregate_cursor_ns = s.end_ns;
        p.children_ns += ns;
        spans_.push_back(std::move(s));
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time summed per layer over every closed span. */
    std::map<std::string, std::int64_t>
    selfByLayer() const
    {
        std::map<std::string, std::int64_t> out;
        for (const Span &s : spans_)
            if (s.end_ns >= 0)
                out[s.layer()] += s.self();
        return out;
    }

    /** Full duration summed per span name (children included). */
    std::map<std::string, std::int64_t>
    totalByName() const
    {
        std::map<std::string, std::int64_t> out;
        for (const Span &s : spans_)
            if (s.end_ns >= 0)
                out[s.name] += s.duration();
        return out;
    }

    /**
     * Chrome trace_event "X" events for every closed span, comma-led so
     * they can follow other events in one array. Timestamps are host
     * microseconds since the recorder's origin.
     */
    void
    writeChromeEvents(std::ostream &os, int pid, const char *process) const
    {
        os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
           << ",\"tid\":0,\"args\":{\"name\":\"" << process << "\"}}";
        for (const Span &s : spans_) {
            if (s.end_ns < 0)
                continue;
            os << ",\n{\"ph\":\"X\",\"name\":\"" << s.name << "\",\"cat\":\""
               << s.layer() << "\",\"pid\":" << pid
               << ",\"tid\":0,\"ts\":" << static_cast<double>(s.begin_ns) / 1e3
               << ",\"dur\":" << static_cast<double>(s.duration()) / 1e3
               << ",\"args\":{\"self_us\":"
               << static_cast<double>(s.self()) / 1e3
               << ",\"aggregate\":" << (s.aggregate ? "true" : "false")
               << "}}";
        }
    }

  private:
    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    std::vector<Span> spans_;
    int open_ = -1;
    Clock::time_point origin_;
};

} // namespace dri::bench
