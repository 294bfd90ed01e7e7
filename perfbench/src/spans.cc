#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

TraceLane::Scope
TraceLane::open(const char *layer, const char *name,
                std::uint64_t verdict)
{
    const double now = nowUs();
    record(layer, name, now, now, verdict);
    _open.push_back(_spans.size() - 1);
    return Scope(this, _spans.size() - 1);
}

void
TraceLane::record(const char *layer, const char *name, double startUs,
                  double endUs, std::uint64_t verdict)
{
    Span span;
    span.name = name;
    span.layer = layer;
    span.thread = _thread;
    span.verdict = verdict;
    span.parent = _open.empty() ? -1 : static_cast<std::int64_t>(_open.back());
    span.startUs = startUs;
    span.endUs = endUs;
    _spans.push_back(std::move(span));
}

void
TraceLane::close(std::size_t index)
{
    _spans[index].endUs = nowUs();
    // Scopes are destroyed in reverse order of creation.
    if (!_open.empty() && _open.back() == index)
        _open.pop_back();
}

double
TraceLane::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - _origin)
        .count();
}

Tracer::Tracer(std::size_t lanes)
{
    auto origin = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < lanes; ++i)
        _lanes.push_back(std::make_unique<TraceLane>(
            static_cast<std::uint32_t>(i), origin));
}

std::vector<Span>
Tracer::merged() const
{
    std::vector<Span> all;
    for (const auto &lane : _lanes) {
        const std::int64_t offset = static_cast<std::int64_t>(all.size());
        for (Span span : lane->spans()) {
            if (span.parent >= 0)
                span.parent += offset;
            all.push_back(std::move(span));
        }
    }
    return all;
}

std::map<std::string, double>
selfTimeUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.startUs, s.endUs});

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Length of the union of the children's intervals, clipped to
        // the parent's.
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0, reach = s.startUs;
        for (auto [begin, end] : kids) {
            begin = std::max(begin, reach);
            end = std::min(end, s.endUs);
            if (end > begin) {
                covered += end - begin;
                reach = end;
            }
        }
        self[s.name] += (s.endUs - s.startUs) - covered;
    }
    return self;
}

std::map<std::string, double>
totalTimeUs(const std::vector<Span> &spans)
{
    std::map<std::string, double> total;
    for (const Span &s : spans)
        total[s.name] += s.endUs - s.startUs;
    return total;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                      "\"ts\":%.3f,\"dur\":%.3f,",
                      i ? "," : "", s.thread, s.startUs,
                      s.endUs - s.startUs);
        out += buf;
        out += "\"name\":\"" + jsonEscape(s.name) + "\",\"cat\":\"" +
               jsonEscape(s.layer) + "\",";
        std::snprintf(buf, sizeof buf,
                      "\"args\":{\"span\":%zu,\"parent\":%lld,"
                      "\"verdict\":%llu}}",
                      i, static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.verdict));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench
