#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "workloads.hh"

namespace perfbench {

std::size_t
segmentsFor(double seconds, double segmentSeconds)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(seconds / segmentSeconds)));
}

Segment
totalOf(const std::vector<Segment> &segments)
{
    Segment total;
    for (const Segment &s : segments) {
        total.wallS += s.wallS;
        total.cpuMs += s.cpuMs;
        total.minflt += s.minflt;
        total.verdicts += s.verdicts;
        total.latMs.insert(total.latMs.end(), s.latMs.begin(), s.latMs.end());
    }
    return total;
}

void
reportEndToEnd(const std::vector<Segment> &segments, std::size_t failed,
               double peakRssMiB, const std::vector<double> &setupsS,
               WorkloadResult &out)
{
    std::vector<double> walls;
    for (const Segment &s : segments)
        walls.push_back(s.wallS);
    std::map<std::size_t, std::vector<Segment>> groups;
    for (const Segment &s : segments)
        groups[s.group].push_back(s);
    std::vector<Segment> fastest;
    for (auto &[group, members] : groups) {
        std::sort(members.begin(), members.end(),
                  [](const Segment &a, const Segment &b) {
                      return a.wallS < b.wallS;
                  });
        members.resize(std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(
                   kFastShare * static_cast<double>(members.size())))));
        fastest.insert(fastest.end(), members.begin(), members.end());
    }
    const Segment f = totalOf(fastest);
    const Tail tail = tailOf(f.latMs, failed);
    out.metrics.push_back({"verdicts_per_s", f.verdicts / f.wallS, "1/s"});
    out.metrics.push_back({"p50_ms", median(f.latMs), "ms"});
    out.metrics.push_back({"tail_ms", tail.value, "ms"});
    out.metrics.push_back(
        {"cpu_ms_per_verdict", f.cpuMs / f.verdicts, "ms"});
    out.metrics.push_back({"peak_rss_mib", peakRssMiB, "MiB"});
    out.metrics.push_back({"setup_s", median(setupsS), "s"});

    char note[160];
    std::snprintf(note, sizeof note,
                  "metrics over the fastest %zu of %zu segments (segment "
                  "wall min %.3f / median %.3f / max %.3f s)",
                  fastest.size(), segments.size(), quantile(walls, 0.0),
                  median(walls), quantile(walls, 1.0));
    out.notes.push_back(note);
    out.notes.push_back("tail_ms is p" + std::to_string(tail.percentile) +
                        " over " + std::to_string(tail.samples) +
                        " samples");
}

std::size_t
setupsBefore(std::size_t s, std::size_t segments)
{
    std::size_t n = 0;
    for (int i = 1; i < kSetups; ++i)
        n += segments * i / kSetups == s;
    return n;
}

void
reportLayers(const Layers &l, WorkloadResult &out)
{
    auto add = [&](const char *name, double value, const char *unit) {
        out.metrics.push_back({name, value, unit});
    };
    auto count = [&](const char *name, std::uint64_t value) {
        add(name, static_cast<double>(value), "count");
    };
    add("rtlcheck.prepare_ms", l.prepareMs, "ms");
    add("vscale.build_ms", l.vscaleBuildMs, "ms");
    add("rtl.elaborate_ms", l.elaborateMs, "ms");
    count("rtl.nodes", l.rtlNodes);
    add("formal.explore_ms", l.exploreMs, "ms");
    count("formal.states", l.states);
    add("formal.explore_ns_per_eval", l.exploreNsPerEval, "ns");
    add("formal.check_ms", l.checkMs, "ms");
    count("formal.product_states", l.productStates);
    add("formal.cache_hit_ratio", l.cacheHitRatio, "ratio");
    add("formal.cache_mib", l.cacheMiB, "MiB");
    add("runner.minflt_per_verdict", l.minfltPerVerdict, "count");
    add("runner.lane_busy_share", l.laneBusyShare, "ratio");
    add("runner.test_ms_inflation", l.testMsInflation, "ratio");
    add("runner.rss_growth_mib", l.rssGrowthMiB, "MiB");
    add("formal.bmc_ms", l.bmcMs, "ms");
    count("sat.solves", l.satSolves);
    count("sat.conflicts", l.satConflicts);
    count("sat.learned_reuse", l.satLearnedReuse);
    count("sat.clauses", l.satClauses);
    add("sat.conflicts_per_s", l.satConflictsPerS, "1/s");
    add("service.keys_ms", l.keysMs, "ms");
    add("store.get_us", l.storeGetUs, "us");
    add("verdict.decode_us", l.decodeUs, "us");
    add("store.hit_ratio", l.storeHitRatio, "ratio");
    add("store.put_us", l.storePutUs, "us");
    add("verdict.encode_us", l.encodeUs, "us");
    count("store.bytes_written", l.storeBytesWritten);
    add("daemon.service_ms", l.daemonServiceMs, "ms");
    add("daemon.wait_ms", l.daemonWaitMs, "ms");
    count("daemon.pool_stolen", l.poolStolen);
    add("trace.overhead_pct", l.traceOverheadPct, "%");
}

double
overheadPct(double untracedPerS, double tracedPerS)
{
    if (tracedPerS <= 0.0)
        return 0.0;
    return (untracedPerS / tracedPerS - 1.0) * 100.0;
}

void
writeTrace(const std::string &path, const std::string &json,
           WorkloadResult &out)
{
    std::ofstream file(path);
    file << json;
    out.notes.push_back(file ? "trace written to " + path
                             : "could not write trace " + path);
}

} // namespace perfbench
