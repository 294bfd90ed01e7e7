/**
 * @file
 * The verification service: artifact store, serialization, content
 * keys, cone-incremental reuse, the work-stealing pool, and the
 * daemon.
 *
 * Serialization is held to the byte: a StateGraph must survive
 * serialize → deserialize → serialize with memcmp-identical bytes
 * over every graph the litmus suite explores, and truncated,
 * corrupted, or version-bumped payloads must be refused (null /
 * nullopt), never misread. Verdicts round-trip with every
 * verdict-bearing field intact.
 *
 * The incremental-reverification contract is tested end to end: an
 * RTL edit outside a test's predicate cone leaves the cone key
 * unchanged and is answered from the store without re-verification,
 * while an in-cone edit misses and re-verifies. One service instance
 * answering repeats serves them under remembered request keys, with
 * the bytes and cone keys a fresh prepare would give. The daemon is driven
 * in-process over a real AF_UNIX socket, including a stop with queued
 * jobs that must fail clients explicitly and leave zero torn store
 * entries.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "formal/graph_cache.hh"
#include "formal/graph_serial.hh"
#include "litmus/suite.hh"
#include "rtl/fingerprint.hh"
#include "rtl/mutate.hh"
#include "rtlcheck/report.hh"
#include "rtlcheck/runner.hh"
#include "service/artifact_store.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "service/verdict_serial.hh"
#include "service/work_pool.hh"
#include "uspec/multivscale.hh"
#include "uspec/tso.hh"

namespace rtlcheck {
namespace {

/** Fresh temp directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/rtlcheck_test_XXXXXX";
        const char *p = ::mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path = p ? p : "";
    }

    ~TempDir()
    {
        if (!path.empty())
            std::system(("rm -rf " + path).c_str());
    }
};

core::RunOptions
explicitOptions()
{
    core::RunOptions o;
    o.config = formal::fullProofConfig();
    return o;
}

/** The cone-eligible configuration (no budgets at all): the only one
 *  whose verdicts are functions of the predicate cone alone, so the
 *  cone-key incremental tests must run under it. */
core::RunOptions
unboundedOptions()
{
    core::RunOptions o;
    o.config = formal::unboundedConfig();
    return o;
}

std::string
artifactPath(const TempDir &dir, const std::string &kind,
             std::uint64_t key)
{
    return dir.path + "/" +
           service::ArtifactStore::fileNameOf(kind, key);
}

/** Semantic equality of two runs at the bit-identity contract level:
 *  statuses, bounds, counterexample bytes, cover outcomes, witness
 *  bytes. Timing and graph statistics are excluded (cone-key hits
 *  may legitimately differ there; full-key hits are checked for them
 *  separately). */
void
expectSameVerdict(const core::TestRun &a, const core::TestRun &b)
{
    EXPECT_EQ(a.testName, b.testName);
    EXPECT_EQ(a.numProperties, b.numProperties);
    const formal::VerifyResult &va = a.verify, &vb = b.verify;
    EXPECT_EQ(va.coverUnreachable, vb.coverUnreachable);
    EXPECT_EQ(va.coverReached, vb.coverReached);
    EXPECT_EQ(va.coverWitness.has_value(),
              vb.coverWitness.has_value());
    if (va.coverWitness && vb.coverWitness) {
        EXPECT_EQ(va.coverWitness->inputs, vb.coverWitness->inputs);
    }
    ASSERT_EQ(va.properties.size(), vb.properties.size());
    for (std::size_t i = 0; i < va.properties.size(); ++i) {
        const formal::PropertyResult &pa = va.properties[i];
        const formal::PropertyResult &pb = vb.properties[i];
        EXPECT_EQ(pa.name, pb.name);
        EXPECT_EQ(pa.status, pb.status);
        EXPECT_EQ(pa.boundCycles, pb.boundCycles);
        EXPECT_EQ(pa.counterexample.has_value(),
                  pb.counterexample.has_value());
        if (pa.counterexample && pb.counterexample) {
            EXPECT_EQ(pa.counterexample->inputs,
                      pb.counterexample->inputs);
        }
    }
}

// ---------------------------------------------------------------
// ArtifactStore
// ---------------------------------------------------------------

TEST(ArtifactStore, PutGetRoundTrip)
{
    TempDir dir;
    service::ArtifactStore store(dir.path);
    const std::vector<std::uint8_t> payload{1, 2, 3, 250, 0, 42};

    EXPECT_FALSE(store.get("verdict", 7));
    EXPECT_TRUE(store.put("verdict", 7, payload));
    EXPECT_TRUE(store.contains("verdict", 7));
    auto back = store.get("verdict", 7);
    ASSERT_TRUE(back);
    EXPECT_EQ(*back, payload);

    // Kinds are separate namespaces under the same key.
    EXPECT_FALSE(store.get("graph", 7));
    EXPECT_EQ(store.count(), 1u);
}

TEST(ArtifactStore, SurvivesProcessBoundary)
{
    TempDir dir;
    const std::vector<std::uint8_t> payload(1000, 0xab);
    {
        service::ArtifactStore store(dir.path);
        EXPECT_TRUE(store.put("graph", 99, payload));
    }
    service::ArtifactStore reopened(dir.path);
    auto back = reopened.get("graph", 99);
    ASSERT_TRUE(back);
    EXPECT_EQ(*back, payload);
}

TEST(ArtifactStore, CorruptedArtifactIsAMissNeverAWrongAnswer)
{
    TempDir dir;
    service::ArtifactStore store(dir.path);
    std::vector<std::uint8_t> payload(256);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);
    ASSERT_TRUE(store.put("verdict", 5, payload));

    // Flip one payload byte on disk: the checksum must catch it.
    {
        std::fstream f(artifactPath(dir, "verdict", 5),
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(60);
        char b = 0x7f;
        f.write(&b, 1);
    }
    EXPECT_FALSE(store.get("verdict", 5));
    EXPECT_GE(store.stats().corrupt, 1u);

    service::ArtifactStore::Audit audit = store.validateAll(false);
    EXPECT_EQ(audit.checked, 1u);
    EXPECT_EQ(audit.corrupt, 1u);
    EXPECT_EQ(audit.removed, 0u);
    ASSERT_EQ(audit.corruptFiles.size(), 1u);

    audit = store.validateAll(true);
    EXPECT_EQ(audit.corrupt, 1u);
    EXPECT_EQ(audit.removed, 1u);
    EXPECT_EQ(store.count(), 0u);
}

TEST(ArtifactStore, TruncatedArtifactIsRejected)
{
    TempDir dir;
    service::ArtifactStore store(dir.path);
    ASSERT_TRUE(
        store.put("verdict", 11, std::vector<std::uint8_t>(500, 3)));
    ASSERT_EQ(
        ::truncate(artifactPath(dir, "verdict", 11).c_str(), 100), 0);
    EXPECT_FALSE(store.get("verdict", 11));
    EXPECT_EQ(store.validateAll(false).corrupt, 1u);
}

TEST(ArtifactStore, StaleTempFilesAreSweptNotServed)
{
    TempDir dir;
    service::ArtifactStore store(dir.path);
    ASSERT_TRUE(
        store.put("verdict", 1, std::vector<std::uint8_t>(8, 1)));

    // Plant what a killed writer leaves behind: a temp file next to
    // the real artifact.
    const std::string stale =
        artifactPath(dir, "verdict", 1) + ".tmp.9999.0";
    {
        std::ofstream f(stale, std::ios::binary);
        f << "half-written garbage";
    }

    // The temp file is invisible to reads and audits...
    EXPECT_TRUE(store.get("verdict", 1));
    EXPECT_EQ(store.validateAll(false).corrupt, 0u);
    EXPECT_EQ(store.count(), 1u);

    // ...and removeStale (run at daemon startup) deletes it.
    EXPECT_EQ(store.removeStale(), 1u);
    EXPECT_EQ(::access(stale.c_str(), F_OK), -1);
    EXPECT_TRUE(store.get("verdict", 1));
}

// ---------------------------------------------------------------
// StateGraph serialization
// ---------------------------------------------------------------

/** Explore every graph of the standard suite and hand each one to
 *  `fn` under a lock. */
template <typename Fn>
void
forEachSuiteGraph(Fn fn)
{
    formal::GraphCache cache;
    std::mutex mutex;
    formal::GraphCache::SpillHooks hooks;
    hooks.save = [&](std::uint64_t key,
                     const formal::StateGraph &graph) {
        std::lock_guard<std::mutex> lock(mutex);
        fn(key, graph);
    };
    cache.setSpillHooks(std::move(hooks));

    core::RunOptions o = explicitOptions();
    o.graphCache = &cache;
    core::runSuite(litmus::standardSuite(),
                   uspec::multiVscaleModel(), o, 4);
}

TEST(GraphSerial, RoundTripIsByteIdenticalAcrossTheSuite)
{
    std::size_t graphs = 0;
    forEachSuiteGraph([&](std::uint64_t,
                          const formal::StateGraph &graph) {
        const std::vector<std::uint8_t> bytes =
            formal::serializeGraph(graph);
        std::string error;
        std::shared_ptr<formal::StateGraph> back =
            formal::deserializeGraph(bytes, &error);
        ASSERT_NE(back, nullptr) << error;

        // Bytes: serialize(deserialize(bytes)) == bytes, memcmp-level.
        const std::vector<std::uint8_t> again =
            formal::serializeGraph(*back);
        ASSERT_EQ(bytes.size(), again.size());
        ASSERT_EQ(
            std::memcmp(bytes.data(), again.data(), bytes.size()), 0);

        // Structure: the reloaded graph answers like the original.
        EXPECT_EQ(back->numNodes(), graph.numNodes());
        EXPECT_EQ(back->numEdges(), graph.numEdges());
        EXPECT_EQ(back->expandedNodes(), graph.expandedNodes());
        EXPECT_EQ(back->complete(), graph.complete());
        EXPECT_EQ(back->exploredDepth(), graph.exploredDepth());
        ++graphs;
    });
    // The suite explores dozens of distinct (design, assumptions)
    // graphs; near-zero means the hook wiring is broken.
    EXPECT_GE(graphs, 10u);
}

/** One serialized suite graph, for the malformed-input tests. */
std::vector<std::uint8_t>
oneSuiteGraphBytes()
{
    std::vector<std::uint8_t> bytes;
    core::RunOptions o = explicitOptions();
    formal::GraphCache cache;
    o.graphCache = &cache;
    std::mutex mutex;
    formal::GraphCache::SpillHooks hooks;
    hooks.save = [&](std::uint64_t, const formal::StateGraph &g) {
        std::lock_guard<std::mutex> lock(mutex);
        if (bytes.empty())
            bytes = formal::serializeGraph(g);
    };
    cache.setSpillHooks(std::move(hooks));
    (void)core::runTest(litmus::suiteTest("mp"),
                        uspec::multiVscaleModel(), o);
    return bytes;
}

TEST(GraphSerial, TruncationIsAlwaysRejected)
{
    const std::vector<std::uint8_t> bytes = oneSuiteGraphBytes();
    ASSERT_FALSE(bytes.empty());
    ASSERT_NE(formal::deserializeGraph(bytes), nullptr);

    // Every proper prefix must be refused — no length is "close
    // enough".
    const std::size_t step =
        std::max<std::size_t>(1, bytes.size() / 257);
    for (std::size_t len = 0; len < bytes.size(); len += step) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + len);
        EXPECT_EQ(formal::deserializeGraph(cut), nullptr)
            << "accepted a truncation at " << len << " of "
            << bytes.size();
    }
}

TEST(GraphSerial, VersionMismatchAndTrailingGarbageAreRefused)
{
    const std::vector<std::uint8_t> bytes = oneSuiteGraphBytes();
    ASSERT_GE(bytes.size(), 4u);

    std::vector<std::uint8_t> bumped = bytes;
    bumped[0] += 1; // format version is the leading u32
    EXPECT_EQ(formal::deserializeGraph(bumped), nullptr);

    // Trailing garbage is an error too, not silently ignored.
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_EQ(formal::deserializeGraph(padded), nullptr);
}

// ---------------------------------------------------------------
// Verdict serialization and content keys
// ---------------------------------------------------------------

TEST(VerdictSerial, RoundTripPreservesEveryVerdictField)
{
    const core::RunOptions o = explicitOptions();
    core::TestRun run = core::runTest(litmus::suiteTest("mp"),
                                      uspec::multiVscaleModel(), o);

    service::StoredVerdict sv;
    sv.run = run;
    sv.coneReusable = true;
    const std::vector<std::uint8_t> bytes =
        service::serializeVerdict(sv);
    std::optional<service::StoredVerdict> back =
        service::deserializeVerdict(bytes);
    ASSERT_TRUE(back);
    EXPECT_TRUE(back->coneReusable);
    expectSameVerdict(run, back->run);
    EXPECT_EQ(run.verify.graphNodes, back->run.verify.graphNodes);
    EXPECT_EQ(run.verify.graphComplete,
              back->run.verify.graphComplete);
    EXPECT_EQ(run.verify.engineUsed, back->run.verify.engineUsed);
    EXPECT_EQ(run.svaAssumptions, back->run.svaAssumptions);
    EXPECT_EQ(run.svaAssertions, back->run.svaAssertions);
    EXPECT_EQ(run.netlistStats.nodesAfter,
              back->run.netlistStats.nodesAfter);

    // And byte-stable under re-serialization.
    service::StoredVerdict sv2;
    sv2.run = back->run;
    sv2.coneReusable = back->coneReusable;
    EXPECT_EQ(service::serializeVerdict(sv2), bytes);
}

TEST(VerdictSerial, WitnessBearingRunRoundTrips)
{
    // The buggy design falsifies properties and reaches covers: the
    // round trip must carry counterexample traces byte-exactly.
    core::RunOptions o = explicitOptions();
    o.variant = vscale::MemoryVariant::Buggy;
    core::TestRun run = core::runTest(litmus::suiteTest("mp"),
                                      uspec::multiVscaleModel(), o);
    ASSERT_FALSE(run.verified());

    service::StoredVerdict sv;
    sv.run = run;
    std::optional<service::StoredVerdict> back =
        service::deserializeVerdict(service::serializeVerdict(sv));
    ASSERT_TRUE(back);
    EXPECT_FALSE(back->coneReusable);
    expectSameVerdict(run, back->run);
}

TEST(VerdictSerial, TruncationAndVersionBumpAreRejected)
{
    const core::RunOptions o = explicitOptions();
    service::StoredVerdict sv;
    sv.run = core::runTest(litmus::suiteTest("sb"),
                           uspec::multiVscaleModel(), o);
    const std::vector<std::uint8_t> bytes =
        service::serializeVerdict(sv);

    const std::size_t step =
        std::max<std::size_t>(1, bytes.size() / 129);
    for (std::size_t len = 0; len < bytes.size(); len += step) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + len);
        EXPECT_FALSE(service::deserializeVerdict(cut))
            << "accepted a truncation at " << len;
    }

    std::vector<std::uint8_t> bumped = bytes;
    bumped[0] += 1;
    std::string error;
    EXPECT_FALSE(service::deserializeVerdict(bumped, &error));
    EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(VerdictKeys, DistinguishDesignConfigAndTest)
{
    const litmus::Test &mp = litmus::suiteTest("mp");
    const uspec::Model &model = uspec::multiVscaleModel();

    const core::RunOptions base = unboundedOptions();
    core::PreparedTest prep = core::prepareTest(mp, model, base);
    service::VerdictKeys k0 = service::verdictKeysOf(prep, base);
    EXPECT_TRUE(k0.coneEligible);

    // Budgeted configurations are never cone-eligible: a bounded
    // fallback depends on whole-design product sizes.
    service::VerdictKeys kBudget = service::verdictKeysOf(
        core::prepareTest(mp, model, explicitOptions()),
        explicitOptions());
    EXPECT_FALSE(kBudget.coneEligible);
    EXPECT_NE(k0.full, 0u);
    EXPECT_NE(k0.cone, 0u);
    EXPECT_NE(k0.full, k0.cone);

    // Same inputs → same keys; key stability across independent
    // prepares is what makes the store warm at all.
    service::VerdictKeys k0b = service::verdictKeysOf(
        core::prepareTest(mp, model, base), base);
    EXPECT_EQ(k0.full, k0b.full);
    EXPECT_EQ(k0.cone, k0b.cone);
    EXPECT_EQ(k0.designFp, k0b.designFp);
    EXPECT_EQ(k0.coneFp, k0b.coneFp);

    // A different design variant changes the fingerprints and keys.
    core::RunOptions buggy = base;
    buggy.variant = vscale::MemoryVariant::Buggy;
    service::VerdictKeys k1 = service::verdictKeysOf(
        core::prepareTest(mp, model, buggy), buggy);
    EXPECT_NE(k1.designFp, k0.designFp);
    EXPECT_NE(k1.full, k0.full);

    // A different engine config changes the keys but not the
    // fingerprints.
    core::RunOptions hybrid = base;
    hybrid.config = formal::hybridConfig();
    service::VerdictKeys k2 = service::verdictKeysOf(
        core::prepareTest(mp, model, hybrid), hybrid);
    EXPECT_EQ(k2.designFp, k0.designFp);
    EXPECT_NE(k2.full, k0.full);

    // A SAT backend is never cone-eligible (witness bytes and bounds
    // depend on the whole design).
    core::RunOptions bmc = base;
    bmc.config.backend = formal::Backend::Bmc;
    service::VerdictKeys k3 = service::verdictKeysOf(
        core::prepareTest(mp, model, bmc), bmc);
    EXPECT_FALSE(k3.coneEligible);

    // A different test on the same design differs in every key.
    service::VerdictKeys k4 = service::verdictKeysOf(
        core::prepareTest(litmus::suiteTest("sb"), model, base),
        base);
    EXPECT_NE(k4.full, k0.full);
    EXPECT_NE(k4.cone, k0.cone);
}

TEST(VerdictKeys, MemoryInitImageEntersTheFingerprint)
{
    // Satellite check: fingerprints must cover memory init images,
    // not just structure — two designs differing only in one
    // initialized data word must never alias.
    const litmus::Test &mp = litmus::suiteTest("mp");
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions base = explicitOptions();
    service::VerdictKeys k0 = service::verdictKeysOf(
        core::prepareTest(mp, model, base), base);

    core::RunOptions patched = base;
    patched.designPatch = [](rtl::Design &d) {
        d.memInit(d.memByName("mem.dmem"), 7, 0xdeadbeef);
    };
    service::VerdictKeys k1 = service::verdictKeysOf(
        core::prepareTest(mp, model, patched), patched);
    EXPECT_NE(k1.designFp, k0.designFp);
    EXPECT_NE(k1.full, k0.full);
}

TEST(VerdictKeys, RequestKeysCoverEveryPrepareInput)
{
    const litmus::Test &mp = litmus::suiteTest("mp");
    const uspec::Model &sc = uspec::multiVscaleModel();
    const core::RunOptions o = explicitOptions();
    const std::optional<service::RequestKey> k0 =
        service::requestKeyOf(mp, sc, o);
    ASSERT_TRUE(k0);
    EXPECT_EQ(*k0, *service::requestKeyOf(mp, sc, o));
    const service::RequestKeyHash hash;

    // The test is compared whole, not by name.
    litmus::Test moved = mp;
    moved.initialMem[0] = 5;
    const service::RequestKey kTest =
        *service::requestKeyOf(moved, sc, o);
    EXPECT_NE(kTest, *k0);
    EXPECT_EQ(hash(kTest), hash(*k0)); // same bucket, still no match

    // The model is digested structurally.
    uspec::Model fewer = sc;
    fewer.axioms.pop_back();
    EXPECT_NE(service::requestKeyOf(mp, fewer, o)->model, k0->model);
    EXPECT_NE(service::requestKeyOf(mp, uspec::tsoVscaleModel(), o)
                  ->model,
              k0->model);

    core::RunOptions hybrid = o;
    hybrid.config = formal::hybridConfig();
    EXPECT_NE(service::requestKeyOf(mp, sc, hybrid)->config,
              k0->config);
    core::RunOptions buggy = o;
    buggy.variant = vscale::MemoryVariant::Buggy;
    EXPECT_NE(service::requestKeyOf(mp, sc, buggy)->options,
              k0->options);

    // Lane counts never change a verdict, so they share an entry.
    core::RunOptions wide = o;
    wide.config.jobs = 4;
    EXPECT_EQ(*service::requestKeyOf(mp, sc, wide), *k0);

    // A designPatch cannot be keyed.
    core::RunOptions patched = o;
    patched.designPatch = [](rtl::Design &) {};
    EXPECT_FALSE(service::requestKeyOf(mp, sc, patched));
}

// ---------------------------------------------------------------
// VerificationService: warm hits and cone-incremental reuse
// ---------------------------------------------------------------

TEST(VerificationService, WarmHitsAreBitIdenticalAndSkipExploration)
{
    TempDir dir;
    service::ServiceConfig config;
    config.storeDir = dir.path;

    const std::vector<std::string> names{"mp", "sb", "lb"};
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions o = explicitOptions();

    std::vector<core::TestRun> cold;
    {
        service::VerificationService svc(config);
        for (const std::string &n : names)
            cold.push_back(
                svc.runTest(litmus::suiteTest(n), model, o));
        EXPECT_EQ(svc.stats().misses, names.size());
        EXPECT_EQ(svc.stats().fullHits, 0u);
        EXPECT_EQ(svc.stats().stored, names.size());
        for (const core::TestRun &run : cold)
            EXPECT_FALSE(run.servedFromStore);
    }

    // A new service (a new process, conceptually) on the same store.
    service::VerificationService warm(config);
    for (std::size_t i = 0; i < names.size(); ++i) {
        core::TestRun run =
            warm.runTest(litmus::suiteTest(names[i]), model, o);
        EXPECT_TRUE(run.servedFromStore);
        expectSameVerdict(cold[i], run);
        // Even the graph statistics match: this is the same verdict
        // record, not a re-exploration.
        EXPECT_EQ(cold[i].verify.graphNodes, run.verify.graphNodes);
    }
    EXPECT_EQ(warm.stats().fullHits, names.size());
    EXPECT_EQ(warm.stats().misses, 0u);
    // Nothing was explored on the warm path.
    EXPECT_EQ(warm.graphCache().stats().explores, 0u);
}

/** Find a node-site mutation inside/outside the predicate cone of
 *  `mp` — the test's stand-in for "an RTL edit". Node-site operators
 *  rewrite in place without renumbering, so design-space node ids
 *  line up with ConeInfo membership. */
std::optional<rtl::Mutation>
findNodeMutation(bool inside_cone)
{
    const litmus::Test &mp = litmus::suiteTest("mp");
    const core::RunOptions o = unboundedOptions();
    core::PreparedTest prep =
        core::prepareTest(mp, uspec::multiVscaleModel(), o);

    std::vector<rtl::Signal> roots;
    for (int i = 0; i < prep.preds.size(); ++i)
        roots.push_back(prep.preds.signalOf(i));
    rtl::ConeInfo cone = rtl::coneFingerprint(prep.design, roots);

    rtl::MutateOptions mc;
    mc.ops = {rtl::MutationOp::StuckAt0, rtl::MutationOp::StuckAt1,
              rtl::MutationOp::CondInvert,
              rtl::MutationOp::ConstOffByOne};
    for (const rtl::Mutation &m :
         rtl::enumerateMutations(prep.design, mc)) {
        if (m.nodeId == rtl::Mutation::invalidIndex)
            continue; // node sites only
        if (cone.containsNode(m.nodeId) == inside_cone)
            return m;
    }
    return std::nullopt;
}

TEST(VerificationService, OutOfConeEditIsServedWithoutReVerification)
{
    std::optional<rtl::Mutation> edit = findNodeMutation(false);
    ASSERT_TRUE(edit) << "no out-of-cone mutation site found";

    TempDir dir;
    service::ServiceConfig config;
    config.storeDir = dir.path;
    const litmus::Test &mp = litmus::suiteTest("mp");
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions o = unboundedOptions();

    core::TestRun cold;
    {
        service::VerificationService svc(config);
        cold = svc.runTest(mp, model, o);
        ASSERT_TRUE(cold.verified());
    }

    // "Edit the RTL" outside every predicate cone: the design
    // fingerprint moves, the cone fingerprint does not.
    core::RunOptions edited = o;
    edited.designPatch = [&](rtl::Design &d) {
        d = rtl::applyMutation(d, *edit);
    };
    service::VerdictKeys k0 = service::verdictKeysOf(
        core::prepareTest(mp, model, o), o);
    service::VerdictKeys k1 = service::verdictKeysOf(
        core::prepareTest(mp, model, edited), edited);
    ASSERT_NE(k0.designFp, k1.designFp);
    ASSERT_EQ(k0.coneFp, k1.coneFp);
    ASSERT_NE(k0.full, k1.full);
    ASSERT_EQ(k0.cone, k1.cone);

    service::VerificationService warm(config);
    core::TestRun run = warm.runTest(mp, model, edited);
    EXPECT_TRUE(run.servedFromStore);
    EXPECT_EQ(run.coneKey, k1.cone);
    EXPECT_EQ(warm.stats().coneHits, 1u);
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(warm.graphCache().stats().explores, 0u);
    expectSameVerdict(cold, run);
}

TEST(VerificationService, InConeEditMissesAndReVerifies)
{
    std::optional<rtl::Mutation> edit = findNodeMutation(true);
    ASSERT_TRUE(edit) << "no in-cone mutation site found";

    TempDir dir;
    service::ServiceConfig config;
    config.storeDir = dir.path;
    const litmus::Test &mp = litmus::suiteTest("mp");
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions o = unboundedOptions();

    {
        service::VerificationService svc(config);
        (void)svc.runTest(mp, model, o);
    }

    core::RunOptions edited = o;
    edited.designPatch = [&](rtl::Design &d) {
        d = rtl::applyMutation(d, *edit);
    };

    service::VerificationService warm(config);
    core::TestRun run = warm.runTest(mp, model, edited);
    EXPECT_FALSE(run.servedFromStore);
    EXPECT_EQ(warm.stats().coneHits, 0u);
    EXPECT_EQ(warm.stats().misses, 1u);

    // And the re-verification matches a from-scratch run of the
    // edited design.
    core::TestRun scratch = core::runTest(mp, model, edited);
    expectSameVerdict(scratch, run);
}

TEST(VerificationService, ConeReuseCanBeDisabled)
{
    std::optional<rtl::Mutation> edit = findNodeMutation(false);
    ASSERT_TRUE(edit);

    TempDir dir;
    service::ServiceConfig config;
    config.storeDir = dir.path;
    const litmus::Test &mp = litmus::suiteTest("mp");
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions o = unboundedOptions();
    {
        service::VerificationService svc(config);
        (void)svc.runTest(mp, model, o);
    }

    core::RunOptions edited = o;
    edited.designPatch = [&](rtl::Design &d) {
        d = rtl::applyMutation(d, *edit);
    };
    config.coneReuse = false;
    service::VerificationService strict(config);
    core::TestRun run = strict.runTest(mp, model, edited);
    EXPECT_FALSE(run.servedFromStore);
    EXPECT_EQ(strict.stats().coneHits, 0u);
    EXPECT_EQ(strict.stats().misses, 1u);
}

TEST(VerificationService, SuiteWarmRunServesEverythingIdentically)
{
    TempDir dir;
    service::ServiceConfig config;
    config.storeDir = dir.path;
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions o = explicitOptions();

    // A slice of the suite keeps this test fast; the benchmark
    // sweeps all 56.
    const std::vector<litmus::Test> &all = litmus::standardSuite();
    std::vector<litmus::Test> tests(all.begin(), all.begin() + 12);

    core::SuiteRun coldRun;
    {
        service::VerificationService svc(config);
        coldRun = svc.runSuite(tests, model, o, 4);
    }
    service::VerificationService warm(config);
    core::SuiteRun warmRun = warm.runSuite(tests, model, o, 4);

    EXPECT_EQ(warm.stats().fullHits, tests.size());
    ASSERT_EQ(warmRun.runs.size(), tests.size());
    for (std::size_t i = 0; i < tests.size(); ++i) {
        EXPECT_TRUE(warmRun.runs[i].servedFromStore);
        expectSameVerdict(coldRun.runs[i], warmRun.runs[i]);
    }
}

// ---------------------------------------------------------------
// One service answering repeats: the request-key table
// ---------------------------------------------------------------

/** serializeVerdict bytes of a run with every timing field zeroed:
 *  what two answers to one request must agree on byte for byte. */
std::vector<std::uint8_t>
verdictBytesWithoutTimings(core::TestRun run)
{
    run.generationSeconds = 0.0;
    run.totalSeconds = 0.0;
    run.verify.exploreSeconds = 0.0;
    run.verify.checkSeconds = 0.0;
    for (formal::PropertyResult &p : run.verify.properties) {
        p.checkSeconds = 0.0;
        p.earlyFalsifySeconds = 0.0;
    }
    service::StoredVerdict sv;
    sv.run = std::move(run);
    return service::serializeVerdict(sv);
}

TEST(ServiceReuse, AllDaemonKeysRepeatFromTheKeyTable)
{
    TempDir dir;
    service::ServiceConfig config;
    config.storeDir = dir.path;
    const uspec::Model &model = uspec::multiVscaleModel();

    // rtlcheckd's explicit-engine request space on the SC model:
    // paper + fence tests x {fixed, buggy} x {Full_Proof, Hybrid},
    // each decoded as the daemon decodes it (single-lane jobs).
    struct Request
    {
        const litmus::Test *test;
        core::RunOptions options;
    };
    std::vector<Request> requests;
    for (const auto *suite :
         {&litmus::standardSuite(), &litmus::fenceSuite()})
        for (const litmus::Test &t : *suite)
            for (vscale::MemoryVariant v :
                 {vscale::MemoryVariant::Fixed,
                  vscale::MemoryVariant::Buggy})
                for (bool hybrid : {false, true}) {
                    core::RunOptions o;
                    o.variant = v;
                    o.config = hybrid ? formal::hybridConfig()
                                      : formal::fullProofConfig();
                    o.config.jobs = 1;
                    requests.push_back({&t, o});
                }
    ASSERT_EQ(requests.size(), 244u);

    service::VerificationService svc(config);
    for (const Request &r : requests)
        (void)svc.runTest(*r.test, model, r.options);
    const service::VerificationService::Stats cold = svc.stats();
    EXPECT_EQ(cold.misses, requests.size());
    EXPECT_EQ(cold.keyMemoHits, 0u);
    const std::size_t explores = svc.graphCache().stats().explores;

    std::vector<core::TestRun> repeat;
    for (const Request &r : requests)
        repeat.push_back(svc.runTest(*r.test, model, r.options));
    const service::VerificationService::Stats warm = svc.stats();
    EXPECT_EQ(warm.keyMemoHits, requests.size());
    EXPECT_EQ(warm.fullHits, requests.size());
    EXPECT_EQ(warm.misses, cold.misses);
    EXPECT_EQ(svc.graphCache().stats().explores, explores);

    // A fresh service on the same store answers through prepare and
    // recomputed keys; the table must have led to the same bytes,
    // and to the cone key a prepare derives today.
    service::VerificationService fresh(config);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request &r = requests[i];
        const core::TestRun &run = repeat[i];
        EXPECT_TRUE(run.servedFromStore) << r.test->name;
        EXPECT_EQ(run.generationSeconds, 0.0);
        EXPECT_EQ(verdictBytesWithoutTimings(run),
                  verdictBytesWithoutTimings(
                      fresh.runTest(*r.test, model, r.options)))
            << r.test->name;
        EXPECT_EQ(run.coneKey,
                  service::verdictKeysOf(
                      core::prepareTest(*r.test, model, r.options),
                      r.options)
                      .cone)
            << r.test->name;
    }
    EXPECT_EQ(fresh.stats().keyMemoHits, 0u);
    EXPECT_EQ(fresh.stats().misses, 0u);
}

TEST(ServiceReuse, PatchedRequestsBypassTheKeyTable)
{
    std::optional<rtl::Mutation> outside = findNodeMutation(false);
    std::optional<rtl::Mutation> inside = findNodeMutation(true);
    ASSERT_TRUE(outside && inside) << "no mutation sites found";

    TempDir dir;
    service::ServiceConfig config;
    config.storeDir = dir.path;
    const litmus::Test &mp = litmus::suiteTest("mp");
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions o = unboundedOptions();
    auto edited = [&](const rtl::Mutation &m) {
        core::RunOptions e = o;
        e.designPatch = [m](rtl::Design &d) {
            d = rtl::applyMutation(d, m);
        };
        return e;
    };

    service::VerificationService svc(config);
    const core::TestRun cold = svc.runTest(mp, model, o);
    ASSERT_TRUE(cold.verified());

    // An out-of-cone edit is a cone hit under the edited design's
    // own keys, not a table hit under the unpatched request's.
    const core::RunOptions out = edited(*outside);
    const service::VerdictKeys kOut = service::verdictKeysOf(
        core::prepareTest(mp, model, out), out);
    core::TestRun run = svc.runTest(mp, model, out);
    EXPECT_TRUE(run.servedFromStore);
    EXPECT_EQ(run.coneKey, kOut.cone);
    EXPECT_EQ(svc.stats().coneHits, 1u);
    EXPECT_EQ(svc.stats().fullHits, 0u);
    EXPECT_EQ(svc.stats().keyMemoHits, 0u);
    expectSameVerdict(cold, run);

    // An in-cone edit on the same instance misses and re-verifies.
    const core::RunOptions in = edited(*inside);
    run = svc.runTest(mp, model, in);
    EXPECT_FALSE(run.servedFromStore);
    EXPECT_EQ(svc.stats().misses, 2u);
    EXPECT_EQ(svc.stats().keyMemoHits, 0u);
    expectSameVerdict(core::runTest(mp, model, in), run);

    // The unpatched request still repeats from its own entry.
    run = svc.runTest(mp, model, o);
    EXPECT_TRUE(run.servedFromStore);
    EXPECT_EQ(svc.stats().fullHits, 1u);
    EXPECT_EQ(svc.stats().keyMemoHits, 1u);
    expectSameVerdict(cold, run);
}

TEST(ServiceReuse, DeletedVerdictFallsThroughAndReVerifies)
{
    TempDir dir;
    service::ServiceConfig config;
    config.storeDir = dir.path;
    const litmus::Test &mp = litmus::suiteTest("mp");
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions o = explicitOptions();

    service::VerificationService svc(config);
    const core::TestRun cold = svc.runTest(mp, model, o);
    ASSERT_TRUE(svc.runTest(mp, model, o).servedFromStore);
    ASSERT_EQ(svc.stats().keyMemoHits, 1u);

    // Full_Proof is not cone-eligible: the full key is the only copy.
    const service::VerdictKeys keys =
        service::verdictKeysOf(core::prepareTest(mp, model, o), o);
    ASSERT_FALSE(keys.coneEligible);
    ASSERT_EQ(::unlink(artifactPath(dir, "verdict", keys.full).c_str()),
              0);

    const core::TestRun again = svc.runTest(mp, model, o);
    EXPECT_FALSE(again.servedFromStore);
    EXPECT_EQ(svc.stats().misses, 2u);
    EXPECT_EQ(svc.stats().keyMemoHits, 1u);
    expectSameVerdict(cold, again);
    EXPECT_EQ(cold.verify.graphNodes, again.verify.graphNodes);

    // The re-verified verdict was published again.
    EXPECT_TRUE(svc.runTest(mp, model, o).servedFromStore);
    EXPECT_EQ(svc.stats().keyMemoHits, 2u);
}

TEST(ServiceReuse, ParallelSuitePassesShareTheKeyTable)
{
    TempDir dir;
    service::ServiceConfig config;
    config.storeDir = dir.path;
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions o = explicitOptions();
    const std::vector<litmus::Test> &tests = litmus::standardSuite();

    service::VerificationService svc(config);
    const core::SuiteRun first = svc.runSuite(tests, model, o, 4);
    const core::SuiteRun second = svc.runSuite(tests, model, o, 4);
    EXPECT_EQ(svc.stats().misses, tests.size());
    EXPECT_EQ(svc.stats().fullHits, tests.size());
    EXPECT_EQ(svc.stats().keyMemoHits, tests.size());
    ASSERT_EQ(second.runs.size(), tests.size());
    for (std::size_t i = 0; i < tests.size(); ++i) {
        EXPECT_TRUE(second.runs[i].servedFromStore);
        EXPECT_EQ(second.runs[i].coneKey, first.runs[i].coneKey);
        expectSameVerdict(first.runs[i], second.runs[i]);
    }
}

TEST(VerificationService, GraphsSpillToTheStoreAndReload)
{
    TempDir dir;
    service::ServiceConfig config;
    config.storeDir = dir.path;
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions o = explicitOptions();

    {
        service::VerificationService svc(config);
        (void)svc.runTest(litmus::suiteTest("mp"), model, o);
        EXPECT_GE(svc.graphCache().stats().diskStores, 1u);
    }

    // Force re-verification with a *different config* (the verdict
    // key misses) against the same design: the explored graph comes
    // back from disk instead of being re-explored.
    core::RunOptions hybrid = o;
    hybrid.config = formal::hybridConfig();
    service::VerificationService svc2(config);
    (void)svc2.runTest(litmus::suiteTest("mp"), model, hybrid);
    EXPECT_GE(svc2.graphCache().stats().diskHits, 1u);
    EXPECT_EQ(svc2.graphCache().stats().explores, 0u);
}

TEST(SuiteJson, ReportCarriesVerdictsAndCounters)
{
    const uspec::Model &model = uspec::multiVscaleModel();
    const core::RunOptions o = explicitOptions();
    std::vector<litmus::Test> tests{litmus::suiteTest("mp"),
                                    litmus::suiteTest("sb")};
    core::SuiteRun sr = core::runSuite(tests, model, o, 1);

    core::SuiteJsonInfo info;
    info.model = "sc";
    info.design = "fixed";
    info.config = "full";
    info.engine = "explicit";
    const std::string json = core::renderSuiteJson(tests, sr, info);

    EXPECT_NE(json.find("\"tests\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"test\": \"mp\""), std::string::npos);
    EXPECT_NE(json.find("\"test\": \"sb\""), std::string::npos);
    EXPECT_NE(json.find("\"verified\": true"), std::string::npos);
    EXPECT_NE(json.find("\"failures\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"graphCache\""), std::string::npos);
    EXPECT_NE(json.find("\"sat\""), std::string::npos);
    EXPECT_NE(json.find("\"servedFromStore\""), std::string::npos);
}

// ---------------------------------------------------------------
// WorkPool
// ---------------------------------------------------------------

TEST(WorkPool, EverySubmittedTaskRunsExactlyOnce)
{
    service::WorkPool pool(4);
    constexpr int n = 500;
    std::vector<std::atomic<int>> hits(n);
    for (int i = 0; i < n; ++i)
        EXPECT_TRUE(pool.submit([&hits, i] { ++hits[i]; }));
    pool.waitIdle();
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    service::WorkPool::Stats s = pool.stats();
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(n));
    EXPECT_EQ(s.executed, static_cast<std::uint64_t>(n));
    EXPECT_EQ(s.discarded, 0u);
}

TEST(WorkPool, UnevenTasksAreStolen)
{
    // Round-robin puts every slow task (i % 4 == 0) in worker 0's
    // deque; the other workers drain their fast tasks and must steal
    // worker 0's backlog.
    service::WorkPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 64; ++i)
        pool.submit([&done, i] {
            if (i % 4 == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            ++done;
        });
    pool.waitIdle();
    EXPECT_EQ(done.load(), 64);
    EXPECT_GT(pool.stats().stolen, 0u);
}

TEST(WorkPool, ShutdownWithoutDrainDiscardsQueuedTasks)
{
    service::WorkPool pool(1);
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    pool.submit([&] {
        started = true;
        while (!release.load())
            std::this_thread::yield();
        ++ran;
    });
    // Wait until the worker holds the blocker in flight, so the ten
    // tasks below are the only ones in the queue at shutdown.
    while (!started.load())
        std::this_thread::yield();
    // These queue behind the blocker on a 1-worker pool.
    for (int i = 0; i < 10; ++i)
        pool.submit([&ran] { ++ran; });

    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        release = true;
    });
    pool.shutdown(false);
    releaser.join();

    // The in-flight task finished; the queued ones were dropped.
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(pool.stats().discarded, 10u);
    EXPECT_FALSE(pool.submit([] {}));
}

TEST(WorkPool, ShutdownWithDrainRunsEverything)
{
    service::WorkPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ++ran; });
    pool.shutdown(true);
    EXPECT_EQ(ran.load(), 100);
    EXPECT_EQ(pool.stats().discarded, 0u);
}

TEST(WorkPool, WaitIdleSeesThroughSubmissionBursts)
{
    service::WorkPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
        pool.waitIdle();
        EXPECT_EQ(count.load(), (round + 1) * 100);
    }
}

// ---------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------

TEST(Protocol, MessageCodecRoundTrips)
{
    service::Message m{{"cmd", "verify"},
                       {"test", "mp"},
                       {"odd", "a=b=c"},
                       {"empty", ""}};
    EXPECT_EQ(service::decodeMessage(service::encodeMessage(m)), m);
}

TEST(Protocol, DecodeToleratesJunkLines)
{
    service::Message m =
        service::decodeMessage("cmd=ping\n\ngarbage\n=novalue\nx=1");
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m["cmd"], "ping");
    EXPECT_EQ(m["x"], "1");
}

TEST(Protocol, FramesRoundTripOverAPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_TRUE(service::sendMessage(
        fds[1], {{"cmd", "ping"}, {"proto", "1"}}));
    auto m = service::recvMessage(fds[0]);
    ASSERT_TRUE(m);
    EXPECT_EQ((*m)["cmd"], "ping");
    ::close(fds[1]);
    // EOF is a clean nullopt, not an error or a hang.
    EXPECT_FALSE(service::recvMessage(fds[0]));
    ::close(fds[0]);
}

TEST(Protocol, OversizedFrameIsRefusedOnWrite)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string huge(service::kMaxFrameBytes + 1, 'x');
    EXPECT_FALSE(service::writeFrame(fds[1], huge));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Protocol, OversizedLengthPrefixIsRefusedOnRead)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::uint32_t bogus = service::kMaxFrameBytes + 1;
    ASSERT_EQ(::write(fds[1], &bogus, sizeof bogus),
              static_cast<ssize_t>(sizeof bogus));
    ::close(fds[1]);
    EXPECT_FALSE(service::readFrame(fds[0]));
    ::close(fds[0]);
}

// ---------------------------------------------------------------
// Daemon (in-process, over a real socket)
// ---------------------------------------------------------------

/** Dial an AF_UNIX path directly, below the Client abstraction. */
int
rawDial(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

struct DaemonFixture
{
    TempDir dir;
    service::DaemonConfig config;
    std::unique_ptr<service::Daemon> daemon;
    std::thread runner;

    explicit DaemonFixture(std::size_t workers = 2)
    {
        config.socketPath = dir.path + "/d.sock";
        config.service.storeDir = dir.path + "/store";
        config.workers = workers;
        daemon = std::make_unique<service::Daemon>(config);
        std::string error;
        EXPECT_TRUE(daemon->start(&error)) << error;
        runner = std::thread([this] { daemon->run(); });
    }

    ~DaemonFixture() { stop(); }

    void
    stop()
    {
        if (runner.joinable()) {
            daemon->requestStop();
            runner.join();
        }
    }

    std::unique_ptr<service::Client>
    client()
    {
        auto c = std::make_unique<service::Client>();
        std::string error;
        EXPECT_TRUE(c->connect(config.socketPath, &error)) << error;
        return c;
    }
};

TEST(Daemon, PingVerifyAndWarmSecondVerify)
{
    DaemonFixture fx;
    auto c = fx.client();

    auto pong = c->request({{"cmd", "ping"}});
    ASSERT_TRUE(pong);
    EXPECT_EQ((*pong)["status"], "ok");
    EXPECT_EQ((*pong)["pong"], "1");

    auto first = c->request({{"cmd", "verify"}, {"test", "mp"}});
    ASSERT_TRUE(first);
    EXPECT_EQ((*first)["status"], "ok");
    EXPECT_EQ((*first)["test"], "mp");
    EXPECT_EQ((*first)["verified"], "1");
    EXPECT_EQ((*first)["served"], "0");

    auto second = c->request({{"cmd", "verify"}, {"test", "mp"}});
    ASSERT_TRUE(second);
    EXPECT_EQ((*second)["status"], "ok");
    EXPECT_EQ((*second)["served"], "1");
    // The stable verdict fields agree between cold and warm.
    for (const char *k : {"verified", "proven", "bounded",
                          "falsified", "cover", "props", "cone_key"})
        EXPECT_EQ((*first)[k], (*second)[k]) << k;

    // The repeat skipped prepare; the stats reply splits job time
    // into the pool hop and the run itself.
    auto stats = c->request({{"cmd", "stats"}});
    ASSERT_TRUE(stats);
    EXPECT_EQ((*stats)["key_memo_hits"], "1");
    ASSERT_EQ(stats->count("queue_wait_us"), 1u);
    ASSERT_EQ(stats->count("run_us"), 1u);
    EXPECT_GT(std::stoull((*stats)["run_us"]), 0u);

    service::Daemon::Stats ds = fx.daemon->stats();
    EXPECT_GE(ds.requests, 3u);
    EXPECT_GE(ds.jobs, 2u);
    EXPECT_GT(ds.runUs, 0u);
}

TEST(Daemon, BadRequestsGetErrorsAndTheDaemonSurvives)
{
    DaemonFixture fx;
    auto c = fx.client();

    auto r = c->request({{"cmd", "verify"}, {"test", "nope"}});
    ASSERT_TRUE(r);
    EXPECT_EQ((*r)["status"], "error");

    r = c->request({{"cmd", "frobnicate"}});
    ASSERT_TRUE(r);
    EXPECT_EQ((*r)["status"], "error");

    r = c->request(
        {{"cmd", "verify"}, {"test", "mp"}, {"model", "armv9"}});
    ASSERT_TRUE(r);
    EXPECT_EQ((*r)["status"], "error");

    // A protocol-version mismatch (below Client, which would stamp
    // the right one) is refused, not guessed at.
    int fd = rawDial(fx.config.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(service::sendMessage(
        fd, {{"cmd", "ping"}, {"proto", "999"}}));
    auto raw = service::recvMessage(fd);
    ::close(fd);
    ASSERT_TRUE(raw);
    EXPECT_EQ((*raw)["status"], "error");

    // After all of that, the daemon still answers.
    auto pong = c->request({{"cmd", "ping"}});
    ASSERT_TRUE(pong);
    EXPECT_EQ((*pong)["status"], "ok");
    EXPECT_GE(fx.daemon->stats().badRequests, 2u);
}

TEST(Daemon, ConcurrentIdenticalRequestsShareOneExecution)
{
    DaemonFixture fx(2);
    constexpr int kClients = 6;
    std::vector<service::Message> responses(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            service::Client c;
            std::string error;
            ASSERT_TRUE(c.connect(fx.config.socketPath, &error))
                << error;
            auto r =
                c.request({{"cmd", "verify"}, {"test", "iriw"}});
            ASSERT_TRUE(r);
            responses[i] = *r;
        });
    for (std::thread &t : threads)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        EXPECT_EQ(responses[i]["status"], "ok");
        for (const char *k : {"verified", "proven", "falsified",
                              "cover", "props", "cone_key"})
            EXPECT_EQ(responses[i][k], responses[0][k]) << k;
    }
    // Exactly one execution went cold; everyone else joined it
    // in-flight or was served from the store.
    EXPECT_EQ(fx.daemon->service().stats().misses, 1u);
}

TEST(Daemon, ClientDisconnectMidJobLeavesTheDaemonHealthy)
{
    DaemonFixture fx;
    // Fire a verification request and vanish without reading the
    // response.
    int fd = rawDial(fx.config.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(service::sendMessage(
        fd, {{"cmd", "verify"},
             {"test", "wrc"},
             {"proto", std::to_string(service::kProtocolVersion)}}));
    ::close(fd);

    // The daemon must still answer a fresh client, and the
    // abandoned job must not wedge shutdown (the fixture destructor
    // enforces that by joining run()).
    auto c = fx.client();
    auto pong = c->request({{"cmd", "ping"}});
    ASSERT_TRUE(pong);
    EXPECT_EQ((*pong)["status"], "ok");
}

TEST(Daemon, StopWithQueuedJobsFailsThemExplicitlyAndLeavesNoTornStore)
{
    DaemonFixture fx(1); // one worker: verify_all queues deeply
    std::atomic<bool> clientReturned{false};
    std::thread clientThread([&] {
        service::Client c;
        std::string error;
        if (!c.connect(fx.config.socketPath, &error))
            return;
        // Either an explicit (error) response or a hang-up is
        // acceptable — a silent infinite wait is not; the join
        // below enforces that.
        (void)c.request({{"cmd", "verify_all"}});
        clientReturned = true;
    });

    // Let a few jobs start, then pull the plug mid-batch.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fx.stop();
    clientThread.join();
    EXPECT_TRUE(clientReturned.load());

    // Whatever was interrupted, the store contains zero torn
    // entries: every artifact present is complete and checksummed.
    service::ArtifactStore store(fx.config.service.storeDir);
    EXPECT_EQ(store.validateAll(false).corrupt, 0u);
}

TEST(Daemon, ShutdownCommandStopsTheDaemon)
{
    DaemonFixture fx;
    auto c = fx.client();
    auto r = c->request({{"cmd", "shutdown"}});
    ASSERT_TRUE(r);
    EXPECT_EQ((*r)["status"], "ok");
    fx.runner.join(); // run() returns without requestStop()
    EXPECT_EQ(::access(fx.config.socketPath.c_str(), F_OK), -1)
        << "socket not unlinked on shutdown";
}

TEST(Daemon, StaleSocketIsReclaimedLiveSocketIsRefused)
{
    TempDir dir;
    const std::string path = dir.path + "/d.sock";

    // A crashed daemon leaves a socket file nobody listens on.
    {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof addr.sun_path - 1);
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr),
                  0);
        ::close(fd); // no unlink: the stale path stays behind
    }
    ASSERT_EQ(::access(path.c_str(), F_OK), 0);

    // A new daemon reclaims the stale path...
    service::DaemonConfig config;
    config.socketPath = path;
    service::Daemon d(config);
    std::string error;
    ASSERT_TRUE(d.start(&error)) << error;
    std::thread runner([&] { d.run(); });

    // ...but a second daemon on the now-live path is refused.
    service::Daemon d2(config);
    EXPECT_FALSE(d2.start(&error));
    EXPECT_NE(error.find("already running"), std::string::npos);

    service::Client c;
    ASSERT_TRUE(c.connect(path, &error)) << error;
    auto pong = c.request({{"cmd", "ping"}});
    ASSERT_TRUE(pong);
    EXPECT_EQ((*pong)["status"], "ok");

    d.requestStop();
    runner.join();
}

} // namespace
} // namespace rtlcheck
