#include "verdict_serial.hh"

#include "common/hashing.hh"
#include "common/serialize.hh"
#include "rtl/fingerprint.hh"

namespace rtlcheck::service {

namespace {

std::uint64_t
hashString(std::uint64_t h, const std::string &s)
{
    return hashCombine(
        h, hashBytes(reinterpret_cast<const std::uint8_t *>(s.data()),
                     s.size()));
}

/** Engine-config fields that can change the stored result. Display
 *  name and parallelism knobs are excluded — results are identical
 *  at every jobs setting (see EngineConfig). */
std::uint64_t
configDigest(const formal::EngineConfig &c)
{
    std::uint64_t h = 0x656e6763666764ull; // "engcfgd"
    h = hashCombine(h, c.exploreMaxNodes);
    h = hashCombine(h, c.productMaxStates);
    h = hashCombine(h, static_cast<std::uint64_t>(c.backend));
    h = hashCombine(h, c.bmcDepth);
    h = hashCombine(h, c.inductionDepth);
    h = hashCombine(h, (c.earlyFalsify ? 2 : 0) |
                           (c.satIncremental ? 1 : 0));
    return h;
}

std::uint64_t
optionsDigest(const core::RunOptions &o)
{
    std::uint64_t h = 0x72756e6f707464ull; // "runoptd"
    h = hashCombine(h, static_cast<std::uint64_t>(o.pipeline));
    h = hashCombine(h, static_cast<std::uint64_t>(o.variant));
    h = hashCombine(h, static_cast<std::uint64_t>(o.encoding));
    h = hashCombine(h, (o.useValueAssumptions ? 4 : 0) |
                           (o.useFinalValueCover ? 2 : 0) |
                           (o.optimizeNetlist ? 1 : 0));
    return h;
}

/** Pins (InitialPin values included), cycle assumptions, and the
 *  generated properties — everything the engine consumes beyond the
 *  design itself. */
std::uint64_t
artifactDigest(const core::PreparedTest &prep)
{
    std::uint64_t h = 0x707265706467ull; // "prepdg"
    h = hashCombine(h, prep.assumptions.pins.size());
    for (const core::PinSpec &p : prep.assumptions.pins) {
        h = hashString(h, p.mem);
        h = hashCombine(h, (std::uint64_t(p.word) << 32) | p.value);
    }
    h = hashCombine(h, prep.assumptions.cycleAssumptions.size());
    for (const formal::Assumption &a :
         prep.assumptions.cycleAssumptions) {
        h = hashCombine(h, static_cast<std::uint64_t>(a.kind));
        h = hashCombine(h, (std::uint64_t(a.stateSlot) << 32) |
                               a.value);
        h = hashCombine(h,
                        (std::uint64_t(std::uint32_t(a.antecedent))
                         << 32) |
                            std::uint32_t(a.consequent));
    }
    h = hashCombine(h, static_cast<std::uint64_t>(prep.preds.size()));
    for (int i = 0; i < prep.preds.size(); ++i)
        h = hashCombine(h, prep.preds.signalOf(i).id);
    h = hashCombine(h, prep.properties.size());
    for (const sva::Property &p : prep.properties)
        h = hashString(h, p.svaText);
    return h;
}

std::uint64_t
exprDigest(std::uint64_t h, const uspec::ExprPtr &e)
{
    if (!e)
        return hashCombine(h, 0);
    h = hashCombine(h, (static_cast<std::uint64_t>(e->kind) << 8 |
                        static_cast<std::uint64_t>(e->domain)) +
                           1);
    h = hashString(h, e->name);
    h = hashCombine(h, e->vars.size());
    for (const std::string &v : e->vars)
        h = hashString(h, v);
    h = hashCombine(h, e->edges.size());
    for (const uspec::EdgeSpec &edge : e->edges) {
        h = hashString(h, edge.src.var);
        h = hashString(h, edge.dst.var);
        h = hashCombine(
            h, (static_cast<std::uint64_t>(edge.src.stage) << 32) |
                   static_cast<std::uint32_t>(edge.dst.stage));
        h = hashString(h, edge.label);
    }
    h = hashCombine(h, e->children.size());
    for (const uspec::ExprPtr &child : e->children)
        h = exprDigest(h, child);
    return h;
}

/** The model's axioms and macros, structurally: everything
 *  generateAssertions reads from it. */
std::uint64_t
modelDigest(const uspec::Model &m)
{
    std::uint64_t h = 0x75737065636d64ull; // "uspecmd"
    h = hashCombine(h, m.axioms.size());
    for (const uspec::Axiom &a : m.axioms) {
        h = hashString(h, a.name);
        h = exprDigest(h, a.body);
    }
    h = hashCombine(h, m.macros.size());
    for (const auto &[name, body] : m.macros) {
        h = hashString(h, name);
        h = exprDigest(h, body);
    }
    return h;
}

} // namespace

std::size_t
RequestKeyHash::operator()(const RequestKey &k) const
{
    std::uint64_t h = hashString(0x72657171ull, k.test.name); // "reqq"
    h = hashCombine(h, k.model);
    h = hashCombine(h, k.config);
    return static_cast<std::size_t>(hashCombine(h, k.options));
}

std::optional<RequestKey>
requestKeyOf(const litmus::Test &test, const uspec::Model &model,
             const core::RunOptions &options)
{
    if (options.designPatch)
        return std::nullopt;
    return RequestKey{test, modelDigest(model),
                      configDigest(options.config),
                      optionsDigest(options)};
}

VerdictKeys
verdictKeysOf(const core::PreparedTest &prep,
              const core::RunOptions &options)
{
    VerdictKeys keys;
    keys.designFp = rtl::designFingerprint(prep.design);
    std::vector<rtl::Signal> roots;
    roots.reserve(static_cast<std::size_t>(prep.preds.size()));
    for (int i = 0; i < prep.preds.size(); ++i)
        roots.push_back(prep.preds.signalOf(i));
    keys.coneFp = rtl::coneFingerprint(prep.design, roots).fingerprint;

    std::uint64_t base = 0x766b65795e7632ull; // "vkey^v2"
    base = hashString(base, prep.proto.testName);
    base = hashCombine(base, configDigest(options.config));
    base = hashCombine(base, optionsDigest(options));
    base = hashCombine(base, artifactDigest(prep));

    keys.full = hashCombine(hashCombine(base, 1), keys.designFp);
    keys.cone = hashCombine(hashCombine(base, 2), keys.coneFp);
    keys.coneEligible =
        options.config.backend == formal::Backend::Explicit &&
        options.config.exploreMaxNodes == 0 &&
        options.config.productMaxStates == 0;
    return keys;
}

bool
coneReusable(const core::TestRun &run, const VerdictKeys &keys)
{
    return keys.coneEligible && run.verify.graphComplete &&
           run.verify.clean() && !run.verify.cancelled;
}

namespace {

void
writeStrings(ByteWriter &w, const std::vector<std::string> &v)
{
    w.u64(v.size());
    for (const std::string &s : v)
        w.str(s);
}

std::vector<std::string>
readStrings(ByteReader &r)
{
    const std::uint64_t n = r.u64();
    if (!r.checkedElems(n, 8))
        return {};
    std::vector<std::string> v(static_cast<std::size_t>(n));
    for (std::string &s : v)
        s = r.str();
    return v;
}

void
writeWitness(ByteWriter &w,
             const std::optional<formal::WitnessTrace> &t)
{
    w.boolean(t.has_value());
    if (t)
        w.u8vec(t->inputs);
}

std::optional<formal::WitnessTrace>
readWitness(ByteReader &r)
{
    if (!r.boolean())
        return std::nullopt;
    formal::WitnessTrace t;
    t.inputs = r.u8vec();
    return t;
}

} // namespace

std::vector<std::uint8_t>
serializeVerdict(const StoredVerdict &v)
{
    const core::TestRun &run = v.run;
    const formal::VerifyResult &vr = run.verify;
    ByteWriter w;
    w.u32(kVerdictFormatVersion);
    w.boolean(v.coneReusable);

    w.str(run.testName);
    w.f64(run.generationSeconds);
    w.f64(run.totalSeconds);
    w.u32(static_cast<std::uint32_t>(run.numProperties));
    w.u64(run.netlistStats.nodesBefore);
    w.u64(run.netlistStats.nodesAfter);
    w.u64(run.netlistStats.constFolded);
    w.u64(run.netlistStats.memReadsFolded);
    w.u64(run.netlistStats.copyPropagated);
    w.u64(run.netlistStats.cseMerged);
    w.u64(run.netlistStats.coiDropped);
    writeStrings(w, run.svaAssumptions);
    writeStrings(w, run.svaAssertions);

    w.boolean(vr.coverUnreachable);
    w.boolean(vr.coverReached);
    writeWitness(w, vr.coverWitness);
    w.u64(vr.properties.size());
    for (const formal::PropertyResult &p : vr.properties) {
        w.str(p.name);
        w.u8(static_cast<std::uint8_t>(p.status));
        w.u32(p.boundCycles);
        writeWitness(w, p.counterexample);
        w.u64(p.productStates);
        w.f64(p.checkSeconds);
        w.boolean(p.earlyFalsified);
        w.f64(p.earlyFalsifySeconds);
        w.u32(p.inductionK);
    }
    w.u64(vr.graphNodes);
    w.u64(vr.graphEdges);
    w.boolean(vr.graphComplete);
    w.u32(vr.graphDepth);
    w.boolean(vr.graphFromCache);
    w.u64(vr.arenaBytes);
    w.u64(vr.arenaBytesUnpacked);
    w.f64(vr.exploreSeconds);
    w.f64(vr.checkSeconds);
    w.u64(vr.checkJobs);
    w.str(vr.engineUsed);
    w.boolean(vr.cancelled);
    w.u64(vr.satVars);
    w.u64(vr.satClauses);
    w.u64(vr.satConflicts);
    w.u64(vr.satSolves);
    w.u64(vr.satLearnedReuse);
    w.u64(vr.satFramesPushed);
    w.u64(vr.satFramesPopped);
    return w.take();
}

std::optional<StoredVerdict>
deserializeVerdict(const std::vector<std::uint8_t> &bytes,
                   std::string *error)
{
    auto fail = [&](const char *why) -> std::optional<StoredVerdict> {
        if (error)
            *error = why;
        return std::nullopt;
    };

    ByteReader r(bytes);
    const std::uint32_t version = r.u32();
    if (!r.ok())
        return fail("truncated header");
    if (version != kVerdictFormatVersion)
        return fail("verdict format version mismatch");

    StoredVerdict v;
    v.coneReusable = r.boolean();
    core::TestRun &run = v.run;
    formal::VerifyResult &vr = run.verify;

    run.testName = r.str();
    run.generationSeconds = r.f64();
    run.totalSeconds = r.f64();
    run.numProperties = static_cast<int>(r.u32());
    run.netlistStats.nodesBefore = r.u64();
    run.netlistStats.nodesAfter = r.u64();
    run.netlistStats.constFolded = r.u64();
    run.netlistStats.memReadsFolded = r.u64();
    run.netlistStats.copyPropagated = r.u64();
    run.netlistStats.cseMerged = r.u64();
    run.netlistStats.coiDropped = r.u64();
    run.svaAssumptions = readStrings(r);
    run.svaAssertions = readStrings(r);

    vr.coverUnreachable = r.boolean();
    vr.coverReached = r.boolean();
    vr.coverWitness = readWitness(r);
    const std::uint64_t num_props = r.u64();
    if (!r.checkedElems(num_props, 8))
        return fail("truncated property table");
    vr.properties.resize(static_cast<std::size_t>(num_props));
    for (formal::PropertyResult &p : vr.properties) {
        p.name = r.str();
        p.status = static_cast<formal::ProofStatus>(r.u8());
        p.boundCycles = r.u32();
        p.counterexample = readWitness(r);
        p.productStates = r.u64();
        p.checkSeconds = r.f64();
        p.earlyFalsified = r.boolean();
        p.earlyFalsifySeconds = r.f64();
        p.inductionK = r.u32();
    }
    vr.graphNodes = r.u64();
    vr.graphEdges = r.u64();
    vr.graphComplete = r.boolean();
    vr.graphDepth = r.u32();
    vr.graphFromCache = r.boolean();
    vr.arenaBytes = r.u64();
    vr.arenaBytesUnpacked = r.u64();
    vr.exploreSeconds = r.f64();
    vr.checkSeconds = r.f64();
    vr.checkJobs = r.u64();
    vr.engineUsed = r.str();
    vr.cancelled = r.boolean();
    vr.satVars = r.u64();
    vr.satClauses = r.u64();
    vr.satConflicts = r.u64();
    vr.satSolves = r.u64();
    vr.satLearnedReuse = r.u64();
    vr.satFramesPushed = r.u64();
    vr.satFramesPopped = r.u64();

    if (!r.atEnd())
        return fail("truncated or oversized payload");
    for (const formal::PropertyResult &p : vr.properties)
        if (static_cast<unsigned>(p.status) > 2)
            return fail("bad proof status");
    return v;
}

} // namespace rtlcheck::service
