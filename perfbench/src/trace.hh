/**
 * @file
 * In-memory span recorder for the traced run. Every span carries both
 * clocks — host steady-clock nanoseconds and the simulator's modelled
 * vcycles — and the id of the span that caused it. Spans are recorded
 * from the benchmark's own code around calls into the library's public
 * functions and written out once, when the run ends.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Host monotonic clock in nanoseconds. */
inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span. Ids start at 1; parent 0 is the root. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string_view name; ///< always a string literal
    std::int64_t hostBegin = 0;
    std::int64_t hostEnd = 0;
    std::uint64_t vcBegin = 0;
    std::uint64_t vcEnd = 0;
};

/** Ended-span totals per span name. */
struct SpanTotal
{
    std::uint64_t count = 0;
    double hostNs = 0;
    double vcycles = 0;
};

class Tracer
{
  public:
    /** Open a span; the name must outlive the tracer (a literal). */
    std::uint32_t
    begin(std::string_view name, std::uint32_t parent, std::uint64_t vc)
    {
        auto id = static_cast<std::uint32_t>(spans.size() + 1);
        spans.push_back({id, parent, name, hostNs(), 0, vc, vc});
        return id;
    }

    /** Close a span opened by begin() and add it to its name's total. */
    void
    end(std::uint32_t id, std::uint64_t vc)
    {
        Span &s = spans[id - 1];
        s.hostEnd = hostNs();
        s.vcEnd = vc;
        SpanTotal &t = totals_[s.name];
        ++t.count;
        t.hostNs += static_cast<double>(s.hostEnd - s.hostBegin);
        t.vcycles += static_cast<double>(s.vcEnd - s.vcBegin);
    }

    /** Number of spans recorded so far (a rollback mark). */
    std::size_t size() const { return spans.size(); }

    /**
     * Drop the spans recorded after a mark, keeping their totals: later
     * traced repetitions pay the full recording cost but only the
     * first one's spans are written out.
     */
    void rollback(std::size_t mark) { spans.resize(mark); }

    /** Mean of one span name's durations (zeros when never ended). */
    SpanTotal
    mean(std::string_view name) const
    {
        auto it = totals_.find(name);
        if (it == totals_.end() || it->second.count == 0)
            return {};
        const SpanTotal &t = it->second;
        double n = static_cast<double>(t.count);
        return {t.count, t.hostNs / n, t.vcycles / n};
    }

    /** Write every kept span as JSON; false when the file fails. */
    bool writeJson(const std::string &path, const std::string &workload,
                   std::uint64_t seed) const;

  private:
    std::vector<Span> spans;
    std::map<std::string_view, SpanTotal> totals_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
