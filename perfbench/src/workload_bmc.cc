/**
 * @file
 * The `bmc` workload: the paper's 56 tests on the fixed and the buggy
 * in-order SoC, in seeded order, through the SAT back end
 * (Backend::Bmc, depth 6, no induction), one core::runTest per
 * (test, design), jobs=1. SAT and formal/bmc do nearly all the work;
 * exploration, the product check and the service do none.
 */

#include <map>
#include <numeric>

#include "probe.hh"
#include "runner_calls.hh"
#include "uspec/multivscale.hh"
#include "workloads.hh"

namespace perfbench {

using namespace rtlcheck;

namespace {

/** Pass length on the reference machine (see workloads.hh). A run
 *  takes at least kMinPasses, so that it has a faster one to report. */
constexpr double kPassSeconds = 9.0;
constexpr std::size_t kMinPasses = 2;
/** Untimed warm-up of every set-up: a fixed, seed-independent set
 *  of paper tests on both designs. */
constexpr const char *kWarmupTests[] = {"mp", "sb"};

constexpr vscale::MemoryVariant kVariants[] = {
    vscale::MemoryVariant::Fixed, vscale::MemoryVariant::Buggy};

struct Item
{
    const litmus::Test *test;
    vscale::MemoryVariant variant;
};

/** A pass is cut into kChunks fixed chunks of (test, design) items;
 *  every pass runs the same chunks, each as one segment, in an order
 *  the seed shuffles anew per pass. */
constexpr std::size_t kChunks = 8;

struct Loop
{
    std::vector<Segment> segments;
    double busyS = 0.0;
    /** Digest per test/design; equal in every pass. */
    std::map<std::string, std::uint64_t> digests;
    Layers layers; ///< counts read from the results
};

void
record(Loop &loop, Segment &seg, VerdictChecker &checker, Ledger &ledger,
       const Item &item, const formal::VerifyResult &r, double seconds)
{
    seg.latMs.push_back(seconds * 1e3);
    ++seg.verdicts;
    loop.busyS += seconds;
    checker.check(*item.test, item.variant, kBmcConfigName, r);
    const std::string key = item.test->name + '/' + designName(item.variant);
    auto [it, fresh] = loop.digests.emplace(key, digestOf(r));
    if (!fresh && it->second != digestOf(r)) {
        ledger.attempt();
        ledger.fail(key + ": verdict changed between passes");
    }
    Layers &l = loop.layers;
    l.satSolves += r.satSolves;
    l.satConflicts += r.satConflicts;
    l.satLearnedReuse += r.satLearnedReuse;
    l.satClauses += r.satClauses;
    l.states += r.graphNodes;
    for (const formal::PropertyResult &p : r.properties)
        l.productStates += p.productStates;
}

/** Verify `items` into segment `seg` of `loop`. Untraced: the
 *  program's core::runTest. Traced (non-null lane): the calls runTest
 *  makes, one span each. */
void
runItems(const std::vector<Item> &items, VerdictChecker &checker,
         Ledger &ledger, TraceLane *lane, Loop &loop, Segment &seg)
{
    const uspec::Model &model = uspec::multiVscaleModel();
    core::RunOptions o;
    o.config = bmcConfig();
    const ProcSample before = sampleSelf();
    auto t0 = Clock::now();
    for (const Item &item : items) {
        o.variant = item.variant;
        auto tc = Clock::now();
        formal::VerifyResult r;
        if (!lane) {
            r = core::runTest(*item.test, model, o).verify;
        } else {
            const std::uint64_t id = lane->spans().size() + 1;
            auto root = traceSpan(lane, "benchmark", "verdict", id);
            core::PreparedTest prep =
                tracedPrepare(*item.test, model, o, lane, id);
            auto netlist = tracedElaborate(prep, lane, id);
            auto resolved = tracedResolve(prep, *netlist, lane, id);
            loop.layers.rtlNodes += netlist->optStats().nodesAfter;
            auto span = traceSpan(lane, "formal", "formal::verify", id);
            r = formal::verify(*netlist, prep.preds, resolved,
                               prep.properties, o.config, nullptr);
        }
        record(loop, seg, checker, ledger, item, r, secondsSince(tc));
    }
    seg.wallS += secondsSince(t0);
    const ProcSample after = sampleSelf();
    seg.cpuMs += after.cpuMs - before.cpuMs;
    seg.minflt += after.minflt - before.minflt;
}

struct Setup
{
    Inputs inputs;
    std::unique_ptr<VerdictChecker> checker;
    std::vector<std::vector<Item>> chunks;
    /** Per pass, the order its chunks run in. */
    std::vector<std::vector<std::size_t>> passes;
};

/** Inputs, oracle, SC classification, the seeded passes, and an
 *  untimed warm-up on a fixed set of tests. */
std::unique_ptr<Setup>
makeSetup(const RunConfig &cfg, Ledger &ledger, std::size_t passes)
{
    auto setup = std::make_unique<Setup>();
    std::string error;
    if (!loadInputs(cfg.dataDir, &setup->inputs, &error)) {
        ledger.attempt();
        ledger.fail(error);
        return nullptr;
    }
    const Inputs &in = setup->inputs;
    setup->checker = std::make_unique<VerdictChecker>(in.oracle, ledger);
    setup->checker->registerTests(in.paper);
    Rng rng(cfg.seed);
    std::vector<Item> items;
    for (const litmus::Test &t : in.paper)
        for (vscale::MemoryVariant v : kVariants)
            items.push_back({&t, v});
    rng.shuffle(items);
    for (std::size_t c = 0; c < kChunks; ++c)
        setup->chunks.emplace_back(
            items.begin() + c * items.size() / kChunks,
            items.begin() + (c + 1) * items.size() / kChunks);
    for (std::size_t p = 0; p < passes; ++p) {
        std::vector<std::size_t> order(kChunks);
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);
        setup->passes.push_back(std::move(order));
    }
    std::vector<Item> warm;
    for (const litmus::Test &t : in.paper)
        for (const char *name : kWarmupTests)
            if (t.name == name)
                for (vscale::MemoryVariant v : kVariants)
                    warm.push_back({&t, v});
    Loop loop;
    Segment seg;
    runItems(warm, *setup->checker, ledger, nullptr, loop, seg);
    setup->checker->replayPending();
    return setup;
}

} // namespace

formal::EngineConfig
bmcConfig()
{
    formal::EngineConfig c = formal::fullProofConfig();
    c.name = "BMC";
    c.backend = formal::Backend::Bmc;
    c.bmcDepth = 6;
    c.inductionDepth = 0;
    return c;
}

WorkloadResult
runBmc(const RunConfig &cfg, Ledger &ledger)
{
    WorkloadResult out;
    const std::size_t passes =
        std::max(kMinPasses, segmentsFor(cfg.seconds, kPassSeconds));

    std::vector<double> setups;
    auto t0 = Clock::now();
    std::unique_ptr<Setup> setup = makeSetup(cfg, ledger, passes);
    if (!setup)
        return out;
    setups.push_back(secondsSince(t0));
    VerdictChecker &checker = *setup->checker;
    const std::vector<std::vector<Item>> &chunks = setup->chunks;
    const std::vector<std::vector<std::size_t>> &plan = setup->passes;
    out.notes.push_back(std::to_string(passes) + " timed passes of " +
                        std::to_string(kChunks) + " chunks, " +
                        std::to_string(chunks[0].size() * kChunks) +
                        " verdicts, jobs=1");

    // The timed part: one segment per chunk. A traced run pairs each
    // untraced pass with a traced one and alternates their chunks, so
    // both see the same machine state.
    Tracer tracer(1);
    TraceLane *lane = cfg.trace ? tracer.lane(0) : nullptr;
    Loop base, traced;
    const std::size_t segments = passes * kChunks;
    auto runChunk = [&](std::size_t p, std::size_t i, TraceLane *l,
                        Loop &loop) {
        Segment seg;
        seg.group = plan[p][i];
        runItems(chunks[seg.group], checker, ledger, l, loop, seg);
        loop.segments.push_back(std::move(seg));
    };
    const ProcSample start = sampleSelf();
    for (std::size_t p = 0; p < plan.size(); p += lane ? 2 : 1) {
        const bool paired = lane && p + 1 < plan.size();
        for (std::size_t i = 0; i < kChunks; ++i) {
            for (std::size_t q = p; q < p + (paired ? 2 : 1); ++q)
                for (std::size_t n = setupsBefore(q * kChunks + i, segments);
                     n > 0; --n) {
                    auto ts = Clock::now();
                    if (!makeSetup(cfg, ledger, 0))
                        return out;
                    setups.push_back(secondsSince(ts));
                }
            if (paired && i % 2 == 1)
                runChunk(p + 1, i, lane, traced);
            runChunk(p, i, nullptr, base);
            if (paired && i % 2 == 0)
                runChunk(p + 1, i, lane, traced);
        }
    }
    const ProcSample end = sampleSelf();
    checker.replayPending();

    if (!cfg.trace) {
        reportEndToEnd(base.segments, 0, end.peakRssMiB, setups, out);
        return out;
    }

    ledger.attempt();
    if (traced.digests != base.digests)
        ledger.fail("traced verdicts differ from the untraced run's");

    const Segment b = totalOf(base.segments), t = totalOf(traced.segments);
    const double n = static_cast<double>(t.verdicts);
    const std::vector<Span> spans = tracer.merged();
    auto self = selfTimeUs(spans);
    auto total = totalTimeUs(spans);
    Layers l = traced.layers;
    l.prepareMs = total["core::prepareTest"] / 1e3 / n;
    l.vscaleBuildMs = total["vscale::lower+buildSoc"] / 1e3 / n;
    l.elaborateMs = total["rtl::Netlist"] / 1e3 / n;
    l.bmcMs = self["formal::verify"] / 1e3 / n;
    l.satConflictsPerS = l.satConflicts / (total["formal::verify"] / 1e6);
    l.minfltPerVerdict = static_cast<double>(b.minflt) / b.verdicts;
    l.laneBusyShare = base.busyS / b.wallS;
    l.testMsInflation = 1.0;
    l.rssGrowthMiB = end.rssMiB - start.rssMiB;
    l.traceOverheadPct = overheadPct(b.verdicts / b.wallS, n / t.wallS);
    reportLayers(l, out);
    writeTrace(cfg.traceOut, chromeTraceJson(spans), out);
    return out;
}

} // namespace perfbench
