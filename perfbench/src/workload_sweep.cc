/**
 * @file
 * The `sweep` and `sweep-par` workloads: the paper's Figure 13 /
 * Table 1 run. Every timed pass verifies the paper's 56 tests plus
 * the kCorpusDraw corpus tests the seed drew for the run, each on the
 * fixed and the buggy in-order SoC, under Full_Proof then Hybrid with
 * the explicit engine and a fresh GraphCache per pass, in an order
 * the seed shuffles anew per pass.
 *
 *  - sweep: one core::runSuiteSweep call per (test, design), jobs=1;
 *    one closed-loop caller.
 *  - sweep-par: one runSuiteSweep call per design over the whole
 *    pass, jobs = nproc.
 */

#include <algorithm>
#include <map>
#include <numeric>

#include "probe.hh"
#include "runner_calls.hh"
#include "uspec/multivscale.hh"
#include "workloads.hh"

namespace perfbench {

using namespace rtlcheck;

namespace {

/** Pass lengths on the reference machine (see workloads.hh). */
constexpr double kSerialPassSeconds = 0.45;
constexpr double kParallelPassSeconds = 0.19;
/** Corpus tests the seed draws into every pass of a run. */
constexpr std::size_t kCorpusDraw = 8;
/** jobs=1 passes the traced sweep-par run times as the base of
 *  runner.test_ms_inflation. */
constexpr std::size_t kReferencePasses = 2;

constexpr vscale::MemoryVariant kVariants[] = {
    vscale::MemoryVariant::Fixed, vscale::MemoryVariant::Buggy};
constexpr const char *kConfigNames[] = {"full", "hybrid"};

const std::vector<formal::EngineConfig> &
sweepConfigs()
{
    // The most generous config first: its graph serves Hybrid.
    static const std::vector<formal::EngineConfig> configs = {
        formal::fullProofConfig(), formal::hybridConfig()};
    return configs;
}

core::RunOptions
optionsFor(vscale::MemoryVariant variant, formal::GraphCache *cache)
{
    core::RunOptions o;
    o.variant = variant;
    o.graphCache = cache;
    return o;
}

/** One pass: every (test, design) verdict in call order, and the same
 *  verdicts as one batch per design for sweep-par. */
struct Pass
{
    struct Item
    {
        std::vector<litmus::Test> batch; ///< the one test, as a batch
        vscale::MemoryVariant variant;
    };
    std::vector<Item> items;
    std::vector<litmus::Test> byDesign[2];
};

Pass
passOver(const std::vector<const litmus::Test *> &tests)
{
    Pass pass;
    for (const litmus::Test *t : tests)
        for (vscale::MemoryVariant v : kVariants) {
            pass.items.push_back({{*t}, v});
            pass.byDesign[v == vscale::MemoryVariant::Buggy].push_back(*t);
        }
    return pass;
}

/** The warm-up pass: the paper's tests in Figure 13 order, fixed then
 *  buggy. It is the same for every seed, so the memory it leaves
 *  behind is too (see peak_rss_mib in README.md). */
Pass
warmupPass(const Inputs &in)
{
    std::vector<const litmus::Test *> tests;
    for (const litmus::Test &t : in.paper)
        tests.push_back(&t);
    return passOver(tests);
}

/** `count` timed passes: the paper's tests plus the corpus tests the
 *  seed draws for the run, in an order the seed shuffles per pass. */
std::vector<Pass>
timedPasses(const Inputs &in, Rng &rng, std::size_t count)
{
    std::vector<const litmus::Test *> tests;
    for (const litmus::Test &t : in.paper)
        tests.push_back(&t);
    std::vector<std::size_t> draw(in.corpus.size());
    std::iota(draw.begin(), draw.end(), 0);
    rng.shuffle(draw);
    draw.resize(std::min(kCorpusDraw, draw.size()));
    for (std::size_t i : draw)
        tests.push_back(&in.corpus[i]);

    std::vector<Pass> passes;
    for (std::size_t p = 0; p < count; ++p) {
        rng.shuffle(tests);
        passes.push_back(passOver(tests));
    }
    return passes;
}

/** What the passes run into one loop measured. */
struct Loop
{
    std::vector<Segment> passes;
    double busyS = 0.0; ///< sum of per-verdict times
    std::size_t cacheHits = 0, cacheLookups = 0;
    std::vector<double> cacheMiB; ///< GraphCache bytes at pass end
    /** Digest per test/design/config; equal in every pass. */
    std::map<std::string, std::uint64_t> digests;
    std::uint64_t evals = 0; ///< (state, input combo) evaluations
    Layers layers;           ///< counts read from the results
};

/** Check both configs' verdicts and fold in their counts. */
void
checkBoth(VerdictChecker &checker, Ledger &ledger, Loop &loop,
          const litmus::Test &test, vscale::MemoryVariant variant,
          const formal::VerifyResult &fp, const formal::VerifyResult &hy)
{
    const formal::VerifyResult *results[] = {&fp, &hy};
    for (int c = 0; c < 2; ++c) {
        const formal::VerifyResult &r = *results[c];
        checker.check(test, variant, kConfigNames[c], r);
        const std::string key =
            test.name + '/' + designName(variant) + '/' + kConfigNames[c];
        auto [it, fresh] = loop.digests.emplace(key, digestOf(r));
        if (!fresh && it->second != digestOf(r)) {
            ledger.attempt();
            ledger.fail(key + ": verdict changed between passes");
        }
        for (const formal::PropertyResult &p : r.properties)
            loop.layers.productStates += p.productStates;
        loop.layers.satSolves += r.satSolves;
    }
}

void
addLatency(Loop &loop, Segment &seg, double seconds)
{
    seg.latMs.push_back(seconds * 1e3);
    ++seg.verdicts;
    loop.busyS += seconds;
}

/** sweep, untraced: the program's own runSuiteSweep per verdict. */
void
serialPass(const Pass &pass, formal::GraphCache &cache,
           VerdictChecker &checker, Ledger &ledger, Loop &loop,
           Segment &seg)
{
    const uspec::Model &model = uspec::multiVscaleModel();
    for (const Pass::Item &item : pass.items) {
        auto tc = Clock::now();
        core::SweepRun run =
            core::runSuiteSweep(item.batch, model,
                                optionsFor(item.variant, &cache),
                                sweepConfigs(), 1);
        addLatency(loop, seg, secondsSince(tc));
        checkBoth(checker, ledger, loop, item.batch[0], item.variant,
                  run.configs[0].runs[0].verify,
                  run.configs[1].runs[0].verify);
    }
}

/** sweep, traced: the calls runSuiteSweep makes, one span each. */
void
serialTracedPass(const Pass &pass, formal::GraphCache &cache,
                 VerdictChecker &checker, Ledger &ledger, TraceLane *lane,
                 Loop &loop, Segment &seg)
{
    const uspec::Model &model = uspec::multiVscaleModel();
    const formal::EngineConfig &first = sweepConfigs()[0];
    formal::ExploreLimits limits;
    limits.maxNodes = first.exploreMaxNodes;
    limits.jobs = first.exploreJobs;
    for (const Pass::Item &item : pass.items) {
        const std::uint64_t id = lane->spans().size() + 1;
        const litmus::Test &test = item.batch[0];
        auto tc = Clock::now();
        formal::VerifyResult results[2];
        {
            auto root = traceSpan(lane, "benchmark", "verdict", id);
            core::RunOptions o = optionsFor(item.variant, &cache);
            core::PreparedTest prep = tracedPrepare(test, model, o, lane, id);
            auto netlist = tracedElaborate(prep, lane, id);
            auto resolved = tracedResolve(prep, *netlist, lane, id);
            loop.layers.rtlNodes += netlist->optStats().nodesAfter;
            bool hit = false;
            std::shared_ptr<const formal::StateGraph> graph;
            {
                auto span =
                    traceSpan(lane, "formal", "GraphCache::obtain", id);
                graph = cache.obtain(*netlist, prep.preds, resolved, limits,
                                     &hit);
            }
            if (!hit) {
                loop.layers.states += graph->numNodes();
                loop.evals += static_cast<std::uint64_t>(
                                  graph->expandedNodes()) *
                              graph->numInputCombos();
            }
            for (int c = 0; c < 2; ++c) {
                auto span = traceSpan(lane, "formal", "formal::verify", id);
                results[c] =
                    formal::verify(*netlist, prep.preds, resolved,
                                   prep.properties, sweepConfigs()[c], &cache);
            }
        }
        addLatency(loop, seg, secondsSince(tc));
        checkBoth(checker, ledger, loop, test, item.variant, results[0],
                  results[1]);
    }
}

/** sweep-par: one runSuiteSweep per design at `jobs`. The per-verdict
 *  latency, and the layer numbers, are the per-test times the runner
 *  returns; a lane gets one span per call. */
void
parallelPass(const Pass &pass, formal::GraphCache &cache,
             VerdictChecker &checker, Ledger &ledger, std::size_t jobs,
             TraceLane *lane, Loop &loop, Segment &seg)
{
    const uspec::Model &model = uspec::multiVscaleModel();
    for (int d = 0; d < 2; ++d) {
        const std::vector<litmus::Test> &batch = pass.byDesign[d];
        core::SweepRun run;
        {
            auto span = traceSpan(lane, "rtlcheck", "core::runSuiteSweep",
                                  loop.passes.size() + 1);
            run = core::runSuiteSweep(batch, model,
                                      optionsFor(kVariants[d], &cache),
                                      sweepConfigs(), jobs);
        }
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const core::TestRun &fp = run.configs[0].runs[i];
            const core::TestRun &hy = run.configs[1].runs[i];
            addLatency(loop, seg, fp.totalSeconds + hy.totalSeconds);
            checkBoth(checker, ledger, loop, batch[i], kVariants[d],
                      fp.verify, hy.verify);
            Layers &l = loop.layers;
            l.rtlNodes += fp.netlistStats.nodesAfter;
            if (!fp.verify.graphFromCache)
                l.states += fp.verify.graphNodes;
            l.exploreMs += fp.verify.exploreSeconds * 1e3;
            l.checkMs += (fp.verify.checkSeconds + hy.verify.exploreSeconds +
                          hy.verify.checkSeconds) *
                         1e3;
            // The runner reports prepare + elaborate + resolve as one
            // build time, charged to the first config.
            l.prepareMs +=
                (fp.totalSeconds - fp.verify.exploreSeconds -
                 fp.verify.checkSeconds) *
                1e3;
        }
    }
}

/** One pass with a fresh GraphCache, as one segment of `loop`. A lane
 *  selects the traced calls. */
void
runPass(const Pass &pass, VerdictChecker &checker, Ledger &ledger,
        bool parallel, std::size_t jobs, TraceLane *lane, Loop &loop)
{
    Segment seg;
    const ProcSample before = sampleSelf();
    auto t0 = Clock::now();
    {
        formal::GraphCache cache;
        if (parallel)
            parallelPass(pass, cache, checker, ledger, jobs, lane, loop, seg);
        else if (lane)
            serialTracedPass(pass, cache, checker, ledger, lane, loop, seg);
        else
            serialPass(pass, cache, checker, ledger, loop, seg);
        formal::GraphCache::Stats s = cache.stats();
        loop.cacheHits += s.hits;
        loop.cacheLookups += s.hits + s.misses;
        loop.cacheMiB.push_back(s.bytesCached / 1048576.0);
    }
    seg.wallS = secondsSince(t0);
    const ProcSample after = sampleSelf();
    seg.cpuMs = after.cpuMs - before.cpuMs;
    seg.minflt = after.minflt - before.minflt;
    loop.passes.push_back(std::move(seg));
}

/** Everything one set-up builds and the timed part uses. */
struct Setup
{
    Inputs inputs;
    std::unique_ptr<VerdictChecker> checker;
    Pass warm;
    /** VmHWM once the warm-up pass is done: peak_rss_mib. */
    double peakRssMiB = 0.0;
    std::vector<Pass> timed;
};

/** Inputs, oracle, SC classification, the seeded passes, and the
 *  untimed warm-up pass. Null (failure counted) when the inputs cannot
 *  be read. */
std::unique_ptr<Setup>
makeSetup(const RunConfig &cfg, Ledger &ledger, bool parallel,
          std::size_t jobs, std::size_t passes)
{
    auto setup = std::make_unique<Setup>();
    std::string error;
    if (!loadInputs(cfg.dataDir, &setup->inputs, &error)) {
        ledger.attempt();
        ledger.fail(error);
        return nullptr;
    }
    setup->checker =
        std::make_unique<VerdictChecker>(setup->inputs.oracle, ledger);
    setup->checker->registerTests(setup->inputs.paper);
    setup->checker->registerTests(setup->inputs.corpus);
    setup->warm = warmupPass(setup->inputs);
    Loop warm;
    runPass(setup->warm, *setup->checker, ledger, parallel, jobs, nullptr,
            warm);
    setup->checker->replayPending();
    setup->peakRssMiB = sampleSelf().peakRssMiB;
    // Drawn after the warm-up, so that everything up to here is the
    // same for every seed.
    Rng rng(cfg.seed);
    setup->timed = timedPasses(setup->inputs, rng, passes);
    return setup;
}

} // namespace

WorkloadResult
runSweep(const RunConfig &cfg, Ledger &ledger, bool parallel)
{
    WorkloadResult out;
    const std::size_t jobs = parallel ? cfg.nproc : 1;
    // A traced run needs a pass for each half.
    const std::size_t passes = std::max<std::size_t>(
        cfg.trace ? 2 : 1,
        segmentsFor(cfg.seconds,
                    parallel ? kParallelPassSeconds : kSerialPassSeconds));

    std::vector<double> setups;
    auto t0 = Clock::now();
    std::unique_ptr<Setup> setup =
        makeSetup(cfg, ledger, parallel, jobs, passes);
    if (!setup)
        return out;
    setups.push_back(secondsSince(t0));
    VerdictChecker &checker = *setup->checker;
    const std::vector<Pass> &plan = setup->timed;
    out.notes.push_back(std::to_string(passes) + " timed passes of " +
                        std::to_string(plan[0].items.size()) +
                        " verdicts, jobs=" + std::to_string(jobs));

    // The timed part. A traced run gives every other pass to the
    // traced calls, alternating which of a pair goes first, so both
    // halves see the same warm-up and machine state and the run takes
    // as long as an untraced one.
    Tracer tracer(1);
    TraceLane *lane = cfg.trace ? tracer.lane(0) : nullptr;
    Loop base, traced;
    const ProcSample start = sampleSelf();
    for (std::size_t p = 0; p < passes; ++p) {
        for (std::size_t n = setupsBefore(p, passes); n > 0; --n) {
            auto ts = Clock::now();
            if (!makeSetup(cfg, ledger, parallel, jobs, 0))
                return out;
            setups.push_back(secondsSince(ts));
        }
        const bool tracedPass = lane && (p % 2 == (p / 2) % 2);
        runPass(plan[p], checker, ledger, parallel, jobs,
                tracedPass ? lane : nullptr, tracedPass ? traced : base);
    }
    const ProcSample end = sampleSelf();
    checker.replayPending();

    if (!cfg.trace) {
        reportEndToEnd(base.passes, 0, setup->peakRssMiB, setups, out);
        return out;
    }

    ledger.attempt();
    if (traced.digests != base.digests)
        ledger.fail("traced verdicts differ from the untraced run's");

    const Segment b = totalOf(base.passes), t = totalOf(traced.passes);
    const double n = static_cast<double>(t.verdicts);
    Layers l = traced.layers;
    const std::vector<Span> spans = tracer.merged();
    if (!parallel) {
        auto self = selfTimeUs(spans);
        auto total = totalTimeUs(spans);
        l.prepareMs = total["core::prepareTest"] / 1e3 / n;
        l.vscaleBuildMs = total["vscale::lower+buildSoc"] / 1e3 / n;
        l.elaborateMs = total["rtl::Netlist"] / 1e3 / n;
        l.exploreMs = total["GraphCache::obtain"] / 1e3 / n;
        l.exploreNsPerEval =
            traced.evals ? total["GraphCache::obtain"] * 1e3 / traced.evals
                         : 0.0;
        l.checkMs = self["formal::verify"] / 1e3 / n;
        l.testMsInflation = 1.0;
    } else {
        l.exploreMs /= n;
        l.checkMs /= n;
        l.prepareMs /= n;
        // Base of the inflation ratio: the same tests at jobs=1.
        Loop one;
        for (std::size_t p = 0; p < std::min(kReferencePasses, passes); ++p)
            runPass(plan[p], checker, ledger, true, 1, nullptr, one);
        l.testMsInflation =
            median(b.latMs) / median(totalOf(one.passes).latMs);
    }
    l.cacheHitRatio = base.cacheLookups
                          ? static_cast<double>(base.cacheHits) /
                                base.cacheLookups
                          : 0.0;
    l.cacheMiB = median(base.cacheMiB);
    l.minfltPerVerdict = static_cast<double>(b.minflt) / b.verdicts;
    l.laneBusyShare = base.busyS / (jobs * b.wallS);
    l.rssGrowthMiB = end.rssMiB - start.rssMiB;
    l.traceOverheadPct = overheadPct(b.verdicts / b.wallS, n / t.wallS);
    reportLayers(l, out);
    writeTrace(cfg.traceOut, chromeTraceJson(spans), out);
    return out;
}

} // namespace perfbench
