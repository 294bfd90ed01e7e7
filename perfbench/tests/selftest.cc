/**
 * @file
 * The benchmark's own tests: the tail-percentile rule, failure
 * counting against the oracle, self-time arithmetic on a hand-built
 * span tree, and the checked-in corpus and oracle. Run them with
 * `python3 perfbench/run.py --selftest` (PERFBENCH_DATA names the
 * data directory).
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "corpus.hh"
#include "litmus/parser.hh"
#include "litmus/sc_ref.hh"
#include "litmus/suite.hh"
#include "litmus/synth.hh"
#include "oracle.hh"
#include "rtlcheck/runner.hh"
#include "spans.hh"
#include "stats.hh"
#include "uspec/multivscale.hh"
#include "workloads.hh"

using namespace perfbench;
using namespace rtlcheck;

namespace {

std::string
dataDir()
{
    const char *dir = std::getenv("PERFBENCH_DATA");
    return dir ? dir : "perfbench/data";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

} // namespace

TEST(TailRule, P99FromAThousandSamples)
{
    EXPECT_EQ(tailPercentile(1000), 99);
    EXPECT_EQ(tailPercentile(100000), 99);
}

TEST(TailRule, HighestPercentileWithTenSamplesBeyond)
{
    // Nearest rank of p over n is ceil(p n / 100); n - rank >= 10.
    EXPECT_EQ(tailPercentile(999), 98);
    EXPECT_EQ(tailPercentile(112), 91);
    EXPECT_EQ(tailPercentile(100), 90);
    EXPECT_EQ(tailPercentile(20), 50);
    // Never below the median.
    EXPECT_EQ(tailPercentile(12), 50);
}

TEST(TailRule, NearestRankValueAndSampleCount)
{
    Tail t = tailOf(oneTo(100), 0);
    EXPECT_EQ(t.percentile, 90);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_DOUBLE_EQ(t.value, 90.0);
    t = tailOf(oneTo(2000), 0);
    EXPECT_EQ(t.percentile, 99);
    EXPECT_DOUBLE_EQ(t.value, 1980.0);
}

TEST(TailRule, FailuresCountAsSlowerThanAnyLimit)
{
    // Two failures among 100 samples shift the tail up a rank...
    Tail t = tailOf(oneTo(100), 2);
    EXPECT_EQ(t.samples, 102u);
    EXPECT_EQ(t.percentile, 90);
    EXPECT_DOUBLE_EQ(t.value, 92.0);
    // ...and enough of them put it on a failure.
    t = tailOf(oneTo(100), 20);
    EXPECT_TRUE(std::isinf(t.value));
}

TEST(Stats, MedianInterpolates)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

namespace {

Span
span(const char *name, double start, double end, std::int64_t parent)
{
    Span s;
    s.name = name;
    s.layer = "test";
    s.startUs = start;
    s.endUs = end;
    s.parent = parent;
    return s;
}

} // namespace

TEST(SelfTime, DurationMinusTheUnionOfChildren)
{
    // root [0,100]: children A [10,40] and B [30,60] overlap on
    // [30,40]; A has a child [15,20]; C [90,120] sticks out of root
    // and is clipped to [90,100].
    std::vector<Span> spans = {
        span("root", 0, 100, -1), span("A", 10, 40, 0),
        span("B", 30, 60, 0),     span("A.child", 15, 20, 1),
        span("C", 90, 120, 0),
    };
    auto self = selfTimeUs(spans);
    EXPECT_DOUBLE_EQ(self["root"], 100 - 50 - 10);
    EXPECT_DOUBLE_EQ(self["A"], 30 - 5);
    EXPECT_DOUBLE_EQ(self["B"], 30);
    EXPECT_DOUBLE_EQ(self["A.child"], 5);
    EXPECT_DOUBLE_EQ(self["C"], 30);
    auto total = totalTimeUs(spans);
    EXPECT_DOUBLE_EQ(total["A"], 30);
}

TEST(SelfTime, SameNameSpansAddUp)
{
    std::vector<Span> spans = {span("verify", 0, 10, -1),
                               span("verify", 20, 25, -1),
                               span("inner", 2, 4, 0)};
    EXPECT_DOUBLE_EQ(selfTimeUs(spans)["verify"], 8 + 5);
}

TEST(SelfTime, LanesNestAndMerge)
{
    Tracer tracer(2);
    {
        auto outer = traceSpan(tracer.lane(1), "l", "outer", 7);
        auto inner = traceSpan(tracer.lane(1), "l", "inner", 7);
    }
    { auto other = traceSpan(tracer.lane(0), "l", "other", 8); }
    { auto off = traceSpan(nullptr, "l", "off", 9); }
    std::vector<Span> spans = tracer.merged();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "other");
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_EQ(spans[2].parent, 1);
    EXPECT_EQ(spans[2].thread, 1u);
    EXPECT_EQ(spans[2].verdict, 7u);
    EXPECT_LE(spans[1].startUs, spans[2].startUs);
    EXPECT_GE(spans[1].endUs, spans[2].endUs);
    EXPECT_NE(chromeTraceJson(spans).find("\"name\":\"inner\""),
              std::string::npos);
}

TEST(Oracle, SignatureCountsRoundTrip)
{
    ReplyCounts c = replyCountsOf("cover=reached:9 props=P*12,B5,F7*2");
    EXPECT_EQ(c.cover, "reached");
    EXPECT_EQ(c.proven, 12);
    EXPECT_EQ(c.bounded, 1);
    EXPECT_EQ(c.falsified, 2);
    EXPECT_FALSE(c.verified);
    c = replyCountsOf("cover=unreachable:0 props=P*3");
    EXPECT_TRUE(c.verified);
}

TEST(FailureCounting, AWrongExpectedVerdictFails)
{
    const litmus::Test &mp = litmus::suiteTest("mp");
    core::RunOptions o;
    o.variant = vscale::MemoryVariant::Buggy;
    formal::VerifyResult r =
        core::runTest(mp, uspec::multiVscaleModel(), o).verify;
    ASSERT_TRUE(r.coverReached);

    Oracle oracle;
    oracle.set("mp", "buggy", "full", signatureOf(r));
    Ledger ledger;
    VerdictChecker checker(oracle, ledger);
    checker.registerTests({mp});
    EXPECT_TRUE(checker.check(mp, o.variant, "full", r));
    EXPECT_EQ(ledger.failed(), 0u);

    // The witness is queued once and replays in the simulator.
    checker.check(mp, o.variant, "full", r);
    checker.replayPending();
    EXPECT_EQ(ledger.attempted(), 3u);
    EXPECT_EQ(ledger.failed(), 0u);

    // One deliberately wrong entry: that verdict, and only it, fails.
    oracle.set("mp", "buggy", "full", "cover=unreachable:0 props=P*9");
    EXPECT_FALSE(checker.check(mp, o.variant, "full", r));
    EXPECT_EQ(ledger.failed(), 1u);
    EXPECT_FALSE(checker.check(mp, o.variant, "hybrid", r));
    EXPECT_EQ(ledger.failed(), 2u); // no entry at all
    EXPECT_EQ(ledger.attempted(), 5u);
}

TEST(FailureCounting, ScForbiddenMustVerifyOnTheFixedDesign)
{
    const litmus::Test &mp = litmus::suiteTest("mp");
    core::RunOptions o;
    o.variant = vscale::MemoryVariant::Buggy;
    formal::VerifyResult buggy =
        core::runTest(mp, uspec::multiVscaleModel(), o).verify;
    // An oracle that (wrongly) expects the buggy verdict on the fixed
    // design still cannot make an SC-forbidden outcome pass there.
    Oracle oracle;
    oracle.set("mp", "fixed", "full", signatureOf(buggy));
    Ledger ledger;
    VerdictChecker checker(oracle, ledger);
    checker.registerTests({mp});
    EXPECT_FALSE(
        checker.check(mp, vscale::MemoryVariant::Fixed, "full", buggy));
    EXPECT_EQ(ledger.failed(), 1u);
}

TEST(Corpus, EveryTestReRendersToItsCheckedInText)
{
    const std::string text = readFile(dataDir() + "/corpus.litmus");
    std::vector<std::string> blocks = splitCorpus(text);
    ASSERT_FALSE(blocks.empty());
    std::string joined;
    for (const std::string &block : blocks) {
        EXPECT_EQ(litmus::renderTest(litmus::parseTest(block)), block);
        joined += block;
    }
    EXPECT_EQ(joined, text);
}

TEST(Corpus, FreshScForbiddenShapes)
{
    Inputs in;
    std::string error;
    ASSERT_TRUE(loadTests(dataDir(), &in, &error)) << error;
    std::set<std::string> paperShapes;
    for (const litmus::Test &t : in.paper)
        paperShapes.insert(litmus::synth::canonicalKey(t));
    std::set<std::string> names;
    for (const litmus::Test &t : in.corpus) {
        EXPECT_FALSE(litmus::ScExecutor(t).outcomeObservable()) << t.name;
        EXPECT_FALSE(paperShapes.count(litmus::synth::canonicalKey(t)))
            << t.name;
        EXPECT_TRUE(names.insert(t.name).second) << t.name;
    }
}

TEST(Corpus, SeededDrawsAreReproducible)
{
    std::vector<int> a = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> b = a, c = a;
    Rng(7).shuffle(a);
    Rng(7).shuffle(b);
    Rng(8).shuffle(c);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Oracle, CoversEveryVerdictTheWorkloadsRun)
{
    Inputs in;
    std::string error;
    ASSERT_TRUE(loadInputs(dataDir(), &in, &error)) << error;
    for (const char *design : {"fixed", "buggy"}) {
        for (const auto *tests : {&in.paper, &in.corpus, &in.fences})
            for (const litmus::Test &t : *tests)
                for (const char *config : {"full", "hybrid"})
                    EXPECT_TRUE(in.oracle.find(t.name, design, config))
                        << t.name << '/' << design << '/' << config;
        for (const litmus::Test &t : in.paper)
            EXPECT_TRUE(in.oracle.find(t.name, design, kBmcConfigName))
                << t.name << '/' << design;
    }
    // Re-rendering the parsed file reproduces it byte for byte.
    EXPECT_EQ(in.oracle.render(), readFile(dataDir() + "/expected.tsv"));
}
