/**
 * @file
 * In-memory spans for the traced run.
 *
 * The benchmark records a span around each call it makes into a
 * public function of the program (nothing inside the program is
 * instrumented). Spans carry name, layer, start, end, thread, parent
 * span, and the id of the verdict they belong to; they stay in
 * memory until the run ends and are then reduced to per-name self
 * times and written as Chrome trace-event JSON, which Perfetto and
 * chrome://tracing open offline.
 *
 * Each recording thread owns one TraceLane; lanes are never shared,
 * so recording takes no lock. A lane's spans nest strictly: a span
 * opened while another is open on the same lane is its child.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;  ///< the called function, e.g. "core::prepareTest"
    std::string layer; ///< the module it belongs to, e.g. "rtlcheck"
    double startUs = 0.0;
    double endUs = 0.0;
    std::uint32_t thread = 0;
    /** Index of the parent span in the same vector; -1 at the root. */
    std::int64_t parent = -1;
    std::uint64_t verdict = 0;
};

class TraceLane
{
  public:
    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(TraceLane *lane, std::size_t index)
            : _lane(lane), _index(index)
        {
        }
        ~Scope()
        {
            if (_lane)
                _lane->close(_index);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        TraceLane *_lane;
        std::size_t _index;
    };

    TraceLane(std::uint32_t thread,
              std::chrono::steady_clock::time_point origin)
        : _thread(thread), _origin(origin)
    {
    }

    /** Open a span; it closes when the returned Scope is destroyed. */
    [[nodiscard]] Scope open(const char *layer, const char *name,
                             std::uint64_t verdict);

    /** Add an already finished span as a child of the innermost open
     *  one, for an interval a call reports rather than one the
     *  benchmark can bracket. */
    void record(const char *layer, const char *name, double startUs,
                double endUs, std::uint64_t verdict);

    /** Microseconds since the tracer's origin. */
    double nowUs() const;

    const std::vector<Span> &spans() const { return _spans; }

  private:
    void close(std::size_t index);

    std::uint32_t _thread;
    std::chrono::steady_clock::time_point _origin;
    std::vector<Span> _spans;
    std::vector<std::size_t> _open;
};

/** A lane pointer that may be null (tracing off): spans opened on a
 *  null lane cost one branch and record nothing. */
inline TraceLane::Scope
traceSpan(TraceLane *lane, const char *layer, const char *name,
          std::uint64_t verdict)
{
    if (!lane)
        return TraceLane::Scope(nullptr, 0);
    return lane->open(layer, name, verdict);
}

class Tracer
{
  public:
    /** One lane per recording thread, sharing one time origin. */
    explicit Tracer(std::size_t lanes);

    TraceLane *lane(std::size_t i) { return _lanes[i].get(); }

    /** Every lane's spans in one vector, parents re-indexed. */
    std::vector<Span> merged() const;

  private:
    std::vector<std::unique_ptr<TraceLane>> _lanes;
};

/** Self time per span name, in microseconds: each span's duration
 *  minus the part of its interval that its children cover. */
std::map<std::string, double> selfTimeUs(const std::vector<Span> &spans);

/** Inclusive time per span name, in microseconds. */
std::map<std::string, double> totalTimeUs(const std::vector<Span> &spans);

/** Chrome trace-event JSON ("X" complete events). */
std::string chromeTraceJson(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
