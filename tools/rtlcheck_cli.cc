/**
 * @file
 * Command-line driver for the RTLCheck flow.
 *
 * Usage:
 *   rtlcheck_cli [options] <suite-test-name>
 *   rtlcheck_cli [options] --file <litmus-file>
 *   rtlcheck_cli --list
 *   rtlcheck_cli --all [options]
 *
 * Options:
 *   --model sc|tso        µspec model to verify against (default sc)
 *   --design fixed|buggy|tso
 *                         RTL design variant (default fixed)
 *   --config hybrid|full|unbounded  engine config (default full)
 *   --naive               use the §3.3 naive edge encoding (unsound;
 *                         for demonstration)
 *   --emit-sva <path>     write the generated SystemVerilog file
 *   --uhb                 also run the Check-style µhb analysis and
 *                         print the result (plus a dot witness graph
 *                         when the outcome is observable)
 *   --wave                print the witness waveform when the
 *                         forbidden outcome is reachable
 *   --vcd <path>          write the witness waveform as a VCD file
 *   --jobs N              parallel lanes for --all (whole tests run
 *                         concurrently) and for the engine's
 *                         per-property checks on single tests.
 *                         Default: $RTLCHECK_JOBS, else the
 *                         machine's hardware concurrency. Verdicts
 *                         are identical at every setting.
 *   --no-netlist-opt      skip the netlist compilation pipeline
 *                         (constant folding, copy propagation, CSE,
 *                         cone-of-influence reduction). Slower;
 *                         verdicts are identical. Single-test runs
 *                         print an opt-stats line showing what the
 *                         pipeline did.
 *   --explore-jobs N      parallel lanes for state-graph exploration
 *                         (level-synchronized frontier expansion;
 *                         see state_graph.hh). Graphs and verdicts
 *                         are bit-identical at every setting.
 *                         Default 1: under --all the suite runner
 *                         already fans whole tests out.
 *   --no-early-falsify    do not step assertion monitors during
 *                         exploration; counterexamples are then only
 *                         found by the post-exploration check phase.
 *                         Verdicts and witnesses are identical.
 *   --cache-mb N          bound the --all state-graph cache to N MiB
 *                         (LRU eviction; 0 = unlimited, the default)
 *   --engine explicit|bmc|portfolio
 *                         verification back-end: the explicit
 *                         state-graph engine (default), the SAT-based
 *                         BMC + k-induction engine, or a portfolio
 *                         race of both that takes the first
 *                         conclusive verdict
 *   --bmc-depth N         BMC unroll bound in cycles (default 16)
 *   --induction-depth N   largest k-induction window tried after the
 *                         BMC sweep (default 6; 0 disables induction
 *                         — much faster on designs whose state is too
 *                         wide for small-K windows to close)
 *   --sat-incremental / --no-sat-incremental
 *                         keep (default) or disable the incremental
 *                         SAT pipeline: depth-incremental BMC sweeps
 *                         that deepen one solver instead of
 *                         rebuilding per depth, and shared miter
 *                         sessions in --mutate that carry learned
 *                         clauses across a test's mutants. Verdict
 *                         classes, witness depths, and the kill
 *                         matrix are identical either way.
 *   --mutate              run a mutation-testing campaign instead of
 *                         a verification run: derive faulty designs
 *                         from the selected variant, prune
 *                         SAT-provably-equivalent mutants, verify the
 *                         rest against the litmus suite, and print
 *                         the kill matrix + mutation score. Defaults
 *                         to the portfolio backend with early
 *                         falsification unless --engine is given.
 *   --mutate-ops a,b,...  restrict the operator catalog (names like
 *                         write-enable-drop, stuck-at-0; default all)
 *   --mutate-budget N     cap the number of mutants (deterministic
 *                         seeded sampling; 0 = all sites)
 *   --mutate-seed N       sampling seed for --mutate-budget
 *   --mutate-tests N      run only the first N suite tests (smoke)
 *   --mutate-full-matrix  keep verifying past the first kill, filling
 *                         each mutant's whole kill-matrix row
 *   --mutate-json <path>  write the machine-readable campaign report
 *   --json                print the machine-readable suite report to
 *                         stdout instead of the human tables (--all;
 *                         see src/rtlcheck/report.hh for the format)
 *   --store <dir>         run through the verification service with a
 *                         persistent artifact store rooted at <dir>:
 *                         verdicts and state graphs are reused across
 *                         processes, and unchanged-cone tests are
 *                         answered without re-verification
 *   --store-verify        audit every artifact under --store <dir>
 *                         (checksums, headers) and exit nonzero if
 *                         any is corrupt; nothing is verified
 *   --serve               run as a verification daemon on --socket
 *                         (blocks until SIGTERM/SIGINT or a client
 *                         `--client --shutdown`); --store, --cache-mb
 *                         and --jobs (workers) apply
 *   --client              send the request to a running daemon
 *                         instead of verifying in-process: works with
 *                         <test-name>, --all, --ping, or --shutdown;
 *                         job options (--model, --design, --config,
 *                         --engine) are forwarded
 *   --socket <path>       daemon rendezvous for --serve/--client
 *                         (default /tmp/rtlcheckd.sock)
 *   --ping, --shutdown    client commands: liveness probe / ask the
 *                         daemon to stop gracefully
 *
 * Unknown flags and malformed option values (e.g. --engine jasper or
 * --jobs abc) exit with usage instead of silently defaulting.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "litmus/parser.hh"
#include "litmus/suite.hh"
#include "rtl/mutate.hh"
#include "rtlcheck/mutation_campaign.hh"
#include "rtlcheck/report.hh"
#include "rtlcheck/runner.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/service.hh"
#include "uhb/solver.hh"
#include "uspec/multivscale.hh"
#include "uspec/tso.hh"

using namespace rtlcheck;

namespace {

struct CliOptions
{
    std::string testName;
    std::string litmusFile;
    std::string model = "sc";
    std::string design = "fixed";
    std::string config = "full";
    std::string emitSva;
    std::string vcdPath;
    std::size_t jobs = 0; ///< 0 = ThreadPool::defaultJobs()
    std::size_t exploreJobs = 1;
    std::size_t cacheMb = 0; ///< 0 = unlimited
    formal::Backend engine = formal::Backend::Explicit;
    bool engineSet = false; ///< --engine given (overrides --mutate's
                            ///< portfolio default)
    std::size_t bmcDepth = 0; ///< 0 = EngineConfig default
    std::optional<std::size_t> inductionDepth; ///< unset = default
    std::vector<rtl::MutationOp> mutateOps;
    std::size_t mutateBudget = 0;
    std::uint32_t mutateSeed = 1;
    std::size_t mutateTests = 0; ///< 0 = the whole suite
    std::string mutateJson;
    bool mutate = false;
    bool mutateFullMatrix = false;
    bool synth = false;
    bool synthRun = false;
    bool synthKillLoop = false;
    bool synthFences = false;
    std::size_t synthThreads = 4;
    std::size_t synthInsns = 4;
    std::size_t synthAddrs = 4;
    std::size_t synthEdges = 6;
    std::size_t synthBudget = 0;
    std::uint32_t synthSeed = 1;
    std::size_t synthBatch = 6;
    std::size_t synthRounds = 8;
    std::string synthKeep = "sc-forbidden";
    bool satIncremental = true;
    bool earlyFalsify = true;
    bool naive = false;
    bool noNetlistOpt = false;
    bool uhb = false;
    bool wave = false;
    bool list = false;
    bool all = false;
    bool json = false;
    std::string storeDir;
    std::string socketPath = "/tmp/rtlcheckd.sock";
    bool storeVerify = false;
    bool serve = false;
    bool client = false;
    bool ping = false;
    bool shutdownDaemon = false;
};

void
usage()
{
    std::printf(
        "usage: rtlcheck_cli [options] <suite-test-name>\n"
        "       rtlcheck_cli [options] --file <litmus-file>\n"
        "       rtlcheck_cli --list | --all\n"
        "options: --model sc|tso  --design fixed|buggy|tso\n"
        "         --config hybrid|full|unbounded  --naive  --uhb\n"
        "         --wave\n"
        "         --emit-sva <path>  --jobs N  --no-netlist-opt\n"
        "         --explore-jobs N  --no-early-falsify  --cache-mb N\n"
        "         --engine explicit|bmc|portfolio  --bmc-depth N\n"
        "         --induction-depth N\n"
        "         --sat-incremental | --no-sat-incremental\n"
        "         --mutate  --mutate-ops <op,...>  --mutate-budget N\n"
        "         --mutate-seed N  --mutate-tests N\n"
        "         --mutate-full-matrix  --mutate-json <path>\n"
        "         --synth  --synth-threads N  --synth-insns N\n"
        "         --synth-addrs N  --synth-edges N  --synth-budget N\n"
        "         --synth-seed N  --synth-fences  --synth-run\n"
        "         --synth-keep all|sc-forbidden|tso-relaxed|"
        "tso-forbidden\n"
        "         --synth-kill-loop  --synth-batch N  --synth-rounds N\n"
        "         --json  --store <dir>  --store-verify\n"
        "         --serve  --client  --socket <path>  --ping\n"
        "         --shutdown\n"
        "--jobs (or $RTLCHECK_JOBS) sets the parallel lanes used to\n"
        "run tests under --all and to check properties on a single\n"
        "test; --explore-jobs parallelizes each state-graph\n"
        "exploration itself. Verdicts (and explored graphs) are\n"
        "identical at every setting. --no-early-falsify disables the\n"
        "exploration-time counterexample monitors; --cache-mb bounds\n"
        "the --all graph cache with LRU eviction.\n");
}

const uspec::Model &
modelFor(const CliOptions &opts)
{
    if (opts.model == "tso")
        return uspec::tsoVscaleModel();
    if (opts.model == "sc")
        return uspec::multiVscaleModel();
    RC_FATAL("unknown model '", opts.model, "' (sc or tso)");
}

core::RunOptions
runOptionsFor(const CliOptions &opts)
{
    core::RunOptions o;
    if (opts.design == "buggy") {
        o.variant = vscale::MemoryVariant::Buggy;
    } else if (opts.design == "tso") {
        o.pipeline = core::Pipeline::StoreBuffer;
    } else if (opts.design != "fixed") {
        RC_FATAL("unknown design '", opts.design,
                 "' (fixed, buggy, or tso)");
    }
    o.config = opts.config == "hybrid"
                   ? formal::hybridConfig()
                   : (opts.config == "unbounded"
                          ? formal::unboundedConfig()
                          : formal::fullProofConfig());
    o.encoding = opts.naive ? core::EdgeEncoding::Naive
                            : core::EdgeEncoding::Strict;
    o.optimizeNetlist = !opts.noNetlistOpt;
    o.config.exploreJobs = opts.exploreJobs;
    o.config.earlyFalsify = opts.earlyFalsify;
    o.config.backend = opts.engine;
    if (opts.bmcDepth)
        o.config.bmcDepth = opts.bmcDepth;
    if (opts.inductionDepth)
        o.config.inductionDepth = *opts.inductionDepth;
    o.config.satIncremental = opts.satIncremental;
    return o;
}

/** Print one test's result and write any requested artifacts. */
int
report(const litmus::Test &test, const core::TestRun &run,
       const core::RunOptions &o, const CliOptions &opts,
       bool verbose)
{
    const char *verdict;
    if (run.verify.numFalsified() > 0)
        verdict = "AXIOM VIOLATION";
    else if (run.verify.coverReached)
        verdict = "OUTCOME OBSERVABLE (axioms upheld)";
    else
        verdict = "VERIFIED";
    std::printf("%-14s %3d props: %3d proven %3d bounded %3d "
                "falsified | cover %-11s | %7.2f ms %s\n",
                test.name.c_str(), run.numProperties,
                run.verify.numProven(), run.verify.numBounded(),
                run.verify.numFalsified(),
                run.verify.coverUnreachable
                    ? "unreachable"
                    : (run.verify.coverReached ? "REACHED"
                                               : "bounded"),
                run.totalSeconds * 1e3, verdict);

    if (verbose) {
        const rtl::OptStats &os = run.netlistStats;
        std::printf("  netlist opt: %zu -> %zu nodes (%zu folded, "
                    "%zu mem-reads, %zu copied, %zu cse, %zu coi)\n",
                    os.nodesBefore, os.nodesAfter, os.constFolded,
                    os.memReadsFolded, os.copyPropagated, os.cseMerged,
                    os.coiDropped);
        std::printf("  engine: %s", run.verify.engineUsed.c_str());
        if (run.verify.satVars)
            std::printf(" | cnf %zu vars %zu clauses, %llu "
                        "conflicts",
                        run.verify.satVars, run.verify.satClauses,
                        static_cast<unsigned long long>(
                            run.verify.satConflicts));
        std::printf("\n");
        for (const auto &p : run.verify.properties)
            if (p.inductionK)
                std::printf("  proven by %u-induction: %s\n",
                            p.inductionK, p.name.c_str());
        for (const auto &p : run.verify.properties) {
            if (p.status == formal::ProofStatus::Falsified) {
                std::printf("  counterexample: %s (%zu cycles)%s\n",
                            p.name.c_str(),
                            p.counterexample->inputs.size(),
                            p.earlyFalsified ? " [early]" : "");
                if (p.earlyFalsified)
                    std::printf("  early falsify: %.2f ms into a "
                                "%.2f ms exploration\n",
                                p.earlyFalsifySeconds * 1e3,
                                run.verify.exploreSeconds * 1e3);
            }
        }
    }

    if (opts.wave && run.verify.coverWitness) {
        std::printf("\nWitness waveform:\n%s\n",
                    core::renderWitness(
                        test, o, *run.verify.coverWitness,
                        core::defaultWaveSignals(
                            static_cast<int>(test.threads.size())))
                        .c_str());
    }

    if (!opts.vcdPath.empty() && run.verify.coverWitness) {
        std::ofstream out(opts.vcdPath);
        if (!out)
            RC_FATAL("cannot write '", opts.vcdPath, "'");
        out << core::renderWitnessVcd(
            test, o, *run.verify.coverWitness,
            core::defaultWaveSignals(
                static_cast<int>(test.threads.size())));
        std::printf("wrote %s\n", opts.vcdPath.c_str());
    }

    if (!opts.emitSva.empty()) {
        std::ofstream out(opts.emitSva);
        if (!out)
            RC_FATAL("cannot write '", opts.emitSva, "'");
        out << core::renderSvaFile(run);
        std::printf("wrote %s\n", opts.emitSva.c_str());
    }
    return run.verified() ? 0 : 1;
}

/** Report the µhb analysis for one test (the --uhb flag). */
void
reportUhb(const litmus::Test &test, const uspec::Model &model,
          bool verbose)
{
    auto r = uhb::checkOutcome(model, test);
    std::printf("µhb analysis: outcome %s (%llu scenarios, %d "
                "axiom instances)\n",
                r.observable ? "OBSERVABLE" : "forbidden",
                static_cast<unsigned long long>(r.scenariosExplored),
                r.numInstances);
    if (r.observable && r.witness && verbose)
        std::printf("%s\n", r.witness->toDot(test).c_str());
}

/** The service configuration implied by --store/--cache-mb. */
service::ServiceConfig
serviceConfigFor(const CliOptions &opts)
{
    service::ServiceConfig sc;
    sc.storeDir = opts.storeDir;
    sc.cacheBytes = opts.cacheMb << 20;
    return sc;
}

int
runOne(const litmus::Test &test, const CliOptions &opts,
       bool verbose)
{
    const uspec::Model &model = modelFor(opts);
    core::RunOptions o = runOptionsFor(opts);
    // A single test parallelizes at the finer grain: the engine's
    // per-property product checks.
    o.config.jobs = opts.jobs;

    if (opts.uhb)
        reportUhb(test, model, verbose);

    core::TestRun run;
    if (!opts.storeDir.empty()) {
        service::VerificationService svc(serviceConfigFor(opts));
        run = svc.runTest(test, model, o);
        if (run.servedFromStore)
            std::printf("(served from store %s)\n",
                        opts.storeDir.c_str());
    } else {
        run = core::runTest(test, model, o);
    }
    return report(test, run, o, opts, verbose);
}

/** The --all mode: the whole suite, `jobs` tests at a time. */
int
runAll(const CliOptions &opts)
{
    const uspec::Model &model = modelFor(opts);
    core::RunOptions o = runOptionsFor(opts);
    const std::vector<litmus::Test> &suite = litmus::standardSuite();

    // Share one state-graph cache across the whole batch: tests with
    // identical (design, assumptions) pairs explore once. With
    // --store the service owns the (spilling) cache instead.
    formal::GraphCache cache;
    std::unique_ptr<service::VerificationService> svc;
    core::SuiteRun sr;
    if (!opts.storeDir.empty()) {
        svc = std::make_unique<service::VerificationService>(
            serviceConfigFor(opts));
        sr = svc->runSuite(suite, model, o, opts.jobs);
    } else {
        if (opts.cacheMb)
            cache.setBudget(opts.cacheMb << 20);
        o.graphCache = &cache;
        sr = core::runSuite(suite, model, o, opts.jobs);
    }
    formal::GraphCache::Stats cs =
        svc ? svc->graphCache().stats() : cache.stats();

    if (opts.json) {
        core::SuiteJsonInfo info;
        info.model = opts.model;
        info.design = opts.design;
        info.config = opts.config;
        info.engine = formal::backendName(opts.engine);
        info.cacheStats = cs;
        std::printf("%s",
                    core::renderSuiteJson(suite, sr, info).c_str());
        int failures = 0;
        for (const core::TestRun &run : sr.runs)
            failures += !run.verified();
        return failures ? 1 : 0;
    }

    int failures = 0;
    double cpu = 0.0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        if (opts.uhb)
            reportUhb(suite[i], model, false);
        failures += report(suite[i], sr.runs[i], o, opts, false) != 0;
        cpu += sr.runs[i].totalSeconds;
    }
    std::printf("%d of %zu tests with violations\n", failures,
                suite.size());
    std::printf("jobs %zu | wall %.3f s | cpu %.3f s | utilization "
                "%.2fx\n",
                sr.jobs, sr.wallSeconds, cpu,
                sr.wallSeconds > 0 ? cpu / sr.wallSeconds : 1.0);
    std::printf("graph cache: %zu explores, %zu hits, %zu evictions "
                "| %zu graphs resident (%.1f MiB)\n",
                cs.explores, cs.hits, cs.evictions, cs.entries,
                static_cast<double>(cs.bytesCached) / (1 << 20));
    if (svc) {
        service::VerificationService::Stats ss = svc->stats();
        std::printf("store: %zu full hits, %zu cone hits, %zu "
                    "key_memo_hits, %zu misses, %zu artifacts "
                    "written\n",
                    ss.fullHits, ss.coneHits, ss.keyMemoHits,
                    ss.misses, ss.stored);
    }
    core::SatTotals st = sr.satTotals();
    if (st.solves)
        std::printf("sat core: %llu solves, %llu conflicts, %llu "
                    "learned-clause reuse hits | %llu frames pushed, "
                    "%llu popped\n",
                    static_cast<unsigned long long>(st.solves),
                    static_cast<unsigned long long>(st.conflicts),
                    static_cast<unsigned long long>(st.learnedReuse),
                    static_cast<unsigned long long>(st.framesPushed),
                    static_cast<unsigned long long>(st.framesPopped));
    return failures ? 1 : 0;
}

/** The --mutate mode: a mutation-testing campaign over the suite. */
int
runMutate(const CliOptions &opts)
{
    const uspec::Model &model = modelFor(opts);
    core::MutationCampaignOptions mo;
    mo.run = runOptionsFor(opts);
    if (!opts.engineSet) {
        // Campaign default per the mutation-testing design: race the
        // engines and take the first falsification.
        mo.run.config.backend = formal::Backend::Portfolio;
        mo.run.config.earlyFalsify = true;
    }
    formal::GraphCache cache;
    if (opts.cacheMb)
        cache.setBudget(opts.cacheMb << 20);
    mo.run.graphCache = &cache;
    mo.mutate.ops = opts.mutateOps;
    mo.mutate.budget = opts.mutateBudget;
    mo.mutate.seed = opts.mutateSeed;
    mo.fullMatrix = opts.mutateFullMatrix;
    mo.satIncremental = opts.satIncremental;
    mo.jobs = opts.jobs;

    std::vector<litmus::Test> tests = litmus::standardSuite();
    if (opts.mutateTests && opts.mutateTests < tests.size())
        tests.resize(opts.mutateTests);

    core::CampaignReport report =
        core::runMutationCampaign(model, tests, mo);

    std::printf("mutation campaign: design %s, %zu tests, "
                "backend %s, %zu mutants\n\n",
                opts.design.c_str(), report.testNames.size(),
                formal::backendName(mo.run.config.backend).c_str(),
                report.mutants.size());
    std::printf("%s", report.renderTable().c_str());
    for (const core::MutantReport &m : report.mutants) {
        if (m.fate == core::MutantFate::Survived)
            std::printf("  SURVIVOR: %s (differs at %s) — no litmus "
                        "test distinguishes it\n",
                        m.mutation.describe().c_str(),
                        m.firstDiff.empty() ? "?"
                                            : m.firstDiff.c_str());
    }
    std::printf("  wall %.3f s | jobs %zu\n", report.wallSeconds,
                report.jobs);
    if (report.miterSolves)
        std::printf("  miter: %llu solves, %llu conflicts, %llu "
                    "learned-clause reuse hits | cone reuse %.1f%%\n",
                    static_cast<unsigned long long>(
                        report.miterSolves),
                    static_cast<unsigned long long>(
                        report.miterConflicts),
                    static_cast<unsigned long long>(
                        report.miterLearnedReuse),
                    report.miterReuseRate() * 100.0);

    if (!opts.mutateJson.empty()) {
        std::ofstream out(opts.mutateJson);
        if (!out)
            RC_FATAL("cannot write '", opts.mutateJson, "'");
        out << report.renderJson();
        std::printf("wrote %s\n", opts.mutateJson.c_str());
    }
    return 0;
}

litmus::synth::SynthOptions
synthOptionsFor(const CliOptions &opts)
{
    litmus::synth::SynthOptions so;
    so.maxThreads = static_cast<int>(opts.synthThreads);
    so.maxInstrsPerThread = static_cast<int>(opts.synthInsns);
    so.maxAddresses = static_cast<int>(opts.synthAddrs);
    so.maxEdges = static_cast<int>(opts.synthEdges);
    so.withFences = opts.synthFences;
    so.budget = opts.synthBudget;
    so.seed = opts.synthSeed;
    // Validated at parse time; default to the suite invariant.
    if (opts.synthKeep == "all")
        so.keep = litmus::synth::KeepFilter::All;
    else if (opts.synthKeep == "tso-relaxed")
        so.keep = litmus::synth::KeepFilter::TsoRelaxed;
    else if (opts.synthKeep == "tso-forbidden")
        so.keep = litmus::synth::KeepFilter::TsoForbidden;
    else
        so.keep = litmus::synth::KeepFilter::ScForbidden;
    return so;
}

/** The --synth mode: cycle-based litmus generation; with
 *  --synth-run the tests also verify on the SoC, and with
 *  --synth-kill-loop they re-target the campaign's survivors. */
int
runSynth(const CliOptions &opts)
{
    litmus::synth::SynthOptions so = synthOptionsFor(opts);

    if (opts.synthKillLoop) {
        core::KillLoopOptions ko;
        ko.campaign.run = runOptionsFor(opts);
        if (!opts.engineSet) {
            ko.campaign.run.config.backend =
                formal::Backend::Portfolio;
            ko.campaign.run.config.earlyFalsify = true;
        }
        formal::GraphCache cache;
        if (opts.cacheMb)
            cache.setBudget(opts.cacheMb << 20);
        ko.campaign.run.graphCache = &cache;
        ko.campaign.mutate.ops = opts.mutateOps;
        ko.campaign.mutate.budget = opts.mutateBudget;
        ko.campaign.mutate.seed = opts.mutateSeed;
        ko.campaign.satIncremental = opts.satIncremental;
        ko.campaign.jobs = opts.jobs;
        ko.synth = so;
        ko.batchSize = opts.synthBatch;
        ko.maxRounds = opts.synthRounds;

        std::vector<litmus::Test> tests = litmus::standardSuite();
        if (opts.mutateTests && opts.mutateTests < tests.size())
            tests.resize(opts.mutateTests);

        core::KillLoopReport rep = core::runCoverageKillLoop(
            modelFor(opts), tests, ko);
        std::printf("coverage-directed kill loop: design %s, %zu "
                    "base tests\n\n%s",
                    opts.design.c_str(), tests.size(),
                    rep.renderSummary().c_str());
        return 0;
    }

    litmus::synth::SynthResult result = litmus::synth::synthesize(so);
    std::printf("litmus synthesis: %zu cycles -> %zu shapes "
                "(%zu duplicate lowerings) | filtered %zu, "
                "sampled out %zu, emitted %zu\n\n",
                result.cyclesEnumerated, result.distinctShapes,
                result.duplicateShapes, result.filteredOut,
                result.sampledOut, result.tests.size());
    for (const litmus::synth::SynthesizedTest &st : result.tests) {
        std::printf("  %-36s sc:%s tso:%s %-9s %s\n",
                    st.cycle.c_str(),
                    st.scObservable ? "obs" : "FORBID",
                    st.tsoObservable ? "obs" : "FORBID",
                    st.classic.empty() ? "-" : st.classic.c_str(),
                    st.test.summary().c_str());
    }

    if (!opts.synthRun)
        return 0;

    // End-to-end plumbing: verify every synthesized test on the SoC
    // exactly like a suite test. On the fixed design each
    // SC-forbidden outcome must be unreachable and every assertion
    // must hold.
    core::RunOptions run = runOptionsFor(opts);
    formal::GraphCache cache;
    if (opts.cacheMb)
        cache.setBudget(opts.cacheMb << 20);
    run.graphCache = &cache;
    std::vector<litmus::Test> tests;
    for (const auto &st : result.tests)
        tests.push_back(st.test);
    core::SuiteRun suite =
        core::runSuite(tests, modelFor(opts), run, opts.jobs);
    int failures = 0;
    std::printf("\n");
    for (const core::TestRun &r : suite.runs) {
        failures += !r.verified();
        std::printf("  %-36s %s  (%d props, %.3fs)\n",
                    r.testName.c_str(),
                    r.verified() ? "verified" : "FAILED",
                    r.numProperties, r.totalSeconds);
    }
    std::printf("\n  %zu tests, %d failures, wall %.3fs\n",
                suite.runs.size(), failures, suite.wallSeconds);
    return failures ? 1 : 0;
}

/** The --store-verify mode: audit the artifact store and report. */
int
runStoreVerify(const CliOptions &opts)
{
    if (opts.storeDir.empty()) {
        std::fprintf(stderr,
                     "rtlcheck_cli: --store-verify needs --store "
                     "<dir>\n");
        return 2;
    }
    service::ArtifactStore store(opts.storeDir);
    std::size_t stale = store.removeStale();
    service::ArtifactStore::Audit audit = store.validateAll(false);
    std::printf("store %s: %zu artifacts checked, %zu corrupt, "
                "%zu stale temp files removed\n",
                opts.storeDir.c_str(), audit.checked, audit.corrupt,
                stale);
    for (const std::string &f : audit.corruptFiles)
        std::printf("  corrupt: %s\n", f.c_str());
    return audit.corrupt ? 1 : 0;
}

/** The --serve mode: run the daemon in-process until a signal. */
service::Daemon *g_daemon = nullptr;

void
onServeSignal(int)
{
    if (g_daemon)
        g_daemon->requestStop();
}

int
runServe(const CliOptions &opts)
{
    service::DaemonConfig config;
    config.socketPath = opts.socketPath;
    config.service = serviceConfigFor(opts);
    config.workers = opts.jobs;

    service::Daemon daemon(config);
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "rtlcheck_cli: %s\n", error.c_str());
        return 1;
    }
    g_daemon = &daemon;
    std::signal(SIGTERM, onServeSignal);
    std::signal(SIGINT, onServeSignal);
    std::printf("serving on %s (store %s)\n", opts.socketPath.c_str(),
                opts.storeDir.empty() ? "(none)"
                                      : opts.storeDir.c_str());
    std::fflush(stdout);
    daemon.run();
    g_daemon = nullptr;
    std::printf("daemon stopped\n");
    return 0;
}

/** The --client mode: forward the request to a running daemon. */
int
runClient(const CliOptions &opts)
{
    service::Client client;
    std::string error;
    if (!client.connect(opts.socketPath, &error)) {
        std::fprintf(stderr, "rtlcheck_cli: %s\n", error.c_str());
        return 1;
    }

    service::Message request;
    if (opts.ping) {
        request["cmd"] = "ping";
    } else if (opts.shutdownDaemon) {
        request["cmd"] = "shutdown";
    } else if (opts.all) {
        request["cmd"] = "verify_all";
    } else if (!opts.testName.empty()) {
        request["cmd"] = "verify";
        request["test"] = opts.testName;
    } else {
        std::fprintf(stderr,
                     "rtlcheck_cli: --client needs <test-name>, "
                     "--all, --ping, or --shutdown\n");
        return 2;
    }
    request["model"] = opts.model;
    request["design"] = opts.design;
    request["config"] = opts.config;
    request["engine"] = formal::backendName(opts.engine);

    std::optional<service::Message> response =
        client.request(std::move(request));
    if (!response) {
        std::fprintf(stderr,
                     "rtlcheck_cli: daemon hung up mid-request\n");
        return 1;
    }

    // k=v responses print as-is: greppable and diffable across runs.
    for (const auto &kv : *response)
        std::printf("%s=%s\n", kv.first.c_str(), kv.second.c_str());

    auto fieldOf = [&](const char *key) -> std::string {
        auto it = response->find(key);
        return it == response->end() ? "" : it->second;
    };
    if (fieldOf("status") != "ok")
        return 1;
    if (opts.all)
        return fieldOf("failures") == "0" ? 0 : 1;
    if (!opts.testName.empty())
        return fieldOf("verified") == "1" ? 0 : 1;
    return 0;
}

} // namespace

/** Reject a malformed option value: report it, print usage, exit 2.
 *  Silent defaulting (strtoul's 0, an unknown enum falling through)
 *  has burned users before; bad input must never look like a run
 *  with different settings. */
[[noreturn]] void
badValue(const std::string &flag, const std::string &value,
         const char *expected)
{
    std::fprintf(stderr, "rtlcheck_cli: bad value '%s' for %s "
                         "(expected %s)\n",
                 value.c_str(), flag.c_str(), expected);
    usage();
    std::exit(2);
}

/** Strict decimal parse for option counts: the whole token must be
 *  digits ("abc" or "4x" exit with usage instead of becoming 0). */
std::size_t
parseCount(const std::string &flag, const std::string &value)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos)
        badValue(flag, value, "a non-negative integer");
    return static_cast<std::size_t>(
        std::strtoul(value.c_str(), nullptr, 10));
}

int
main(int argc, char **argv)
{
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                RC_FATAL("option ", arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--model") {
            opts.model = next();
            if (opts.model != "sc" && opts.model != "tso")
                badValue(arg, opts.model, "sc or tso");
        } else if (arg == "--design") {
            opts.design = next();
            if (opts.design != "fixed" && opts.design != "buggy" &&
                opts.design != "tso")
                badValue(arg, opts.design, "fixed, buggy, or tso");
        } else if (arg == "--config") {
            opts.config = next();
            if (opts.config != "hybrid" && opts.config != "full" &&
                opts.config != "unbounded")
                badValue(arg, opts.config,
                         "hybrid, full, or unbounded");
        } else if (arg == "--engine") {
            std::string name = next();
            std::optional<formal::Backend> backend =
                formal::backendFromName(name);
            if (!backend)
                badValue(arg, name, "explicit, bmc, or portfolio");
            opts.engine = *backend;
            opts.engineSet = true;
        } else if (arg == "--mutate") {
            opts.mutate = true;
        } else if (arg == "--mutate-ops") {
            std::string csv = next();
            std::stringstream ss(csv);
            std::string item;
            while (std::getline(ss, item, ',')) {
                std::optional<rtl::MutationOp> op =
                    rtl::mutationOpFromName(item);
                if (!op)
                    badValue(arg, item,
                             "operator names like write-enable-drop, "
                             "stuck-at-0, cond-invert, mux-arm-swap");
                opts.mutateOps.push_back(*op);
            }
            if (opts.mutateOps.empty())
                badValue(arg, csv, "a comma-separated operator list");
        } else if (arg == "--mutate-budget") {
            opts.mutateBudget = parseCount(arg, next());
        } else if (arg == "--mutate-seed") {
            opts.mutateSeed =
                static_cast<std::uint32_t>(parseCount(arg, next()));
        } else if (arg == "--mutate-tests") {
            opts.mutateTests = parseCount(arg, next());
        } else if (arg == "--mutate-full-matrix") {
            opts.mutateFullMatrix = true;
        } else if (arg == "--mutate-json") {
            opts.mutateJson = next();
        } else if (arg == "--synth") {
            opts.synth = true;
        } else if (arg == "--synth-run") {
            opts.synthRun = true;
        } else if (arg == "--synth-kill-loop") {
            opts.synthKillLoop = true;
        } else if (arg == "--synth-fences") {
            opts.synthFences = true;
        } else if (arg == "--synth-threads") {
            opts.synthThreads = parseCount(arg, next());
        } else if (arg == "--synth-insns") {
            opts.synthInsns = parseCount(arg, next());
        } else if (arg == "--synth-addrs") {
            opts.synthAddrs = parseCount(arg, next());
        } else if (arg == "--synth-edges") {
            opts.synthEdges = parseCount(arg, next());
        } else if (arg == "--synth-budget") {
            opts.synthBudget = parseCount(arg, next());
        } else if (arg == "--synth-seed") {
            opts.synthSeed =
                static_cast<std::uint32_t>(parseCount(arg, next()));
        } else if (arg == "--synth-batch") {
            opts.synthBatch = parseCount(arg, next());
        } else if (arg == "--synth-rounds") {
            opts.synthRounds = parseCount(arg, next());
        } else if (arg == "--synth-keep") {
            opts.synthKeep = next();
            if (opts.synthKeep != "all" &&
                opts.synthKeep != "sc-forbidden" &&
                opts.synthKeep != "tso-relaxed" &&
                opts.synthKeep != "tso-forbidden")
                badValue(arg, opts.synthKeep,
                         "all, sc-forbidden, tso-relaxed, or "
                         "tso-forbidden");
        } else if (arg == "--bmc-depth") {
            opts.bmcDepth = parseCount(arg, next());
        } else if (arg == "--induction-depth") {
            opts.inductionDepth = parseCount(arg, next());
        } else if (arg == "--sat-incremental") {
            opts.satIncremental = true;
        } else if (arg == "--no-sat-incremental") {
            opts.satIncremental = false;
        } else if (arg == "--file") {
            opts.litmusFile = next();
        } else if (arg == "--emit-sva") {
            opts.emitSva = next();
        } else if (arg == "--vcd") {
            opts.vcdPath = next();
        } else if (arg == "--jobs") {
            opts.jobs = parseCount(arg, next());
        } else if (arg == "--explore-jobs") {
            opts.exploreJobs = parseCount(arg, next());
        } else if (arg == "--cache-mb") {
            opts.cacheMb = parseCount(arg, next());
        } else if (arg == "--no-early-falsify") {
            opts.earlyFalsify = false;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--store") {
            opts.storeDir = next();
        } else if (arg == "--store-verify") {
            opts.storeVerify = true;
        } else if (arg == "--socket") {
            opts.socketPath = next();
        } else if (arg == "--serve") {
            opts.serve = true;
        } else if (arg == "--client") {
            opts.client = true;
        } else if (arg == "--ping") {
            opts.ping = true;
        } else if (arg == "--shutdown") {
            opts.shutdownDaemon = true;
        } else if (arg == "--naive") {
            opts.naive = true;
        } else if (arg == "--no-netlist-opt") {
            opts.noNetlistOpt = true;
        } else if (arg == "--uhb") {
            opts.uhb = true;
        } else if (arg == "--wave") {
            opts.wave = true;
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--all") {
            opts.all = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            return 2;
        } else {
            opts.testName = arg;
        }
    }

    if (opts.list) {
        auto listSuite = [](const char *suite,
                            const std::vector<litmus::Test> &tests) {
            for (const litmus::Test &t : tests)
                std::printf("%-14s %s  %zu cores  %2d instrs\n",
                            t.name.c_str(), suite,
                            t.threads.size(), t.numInstrs());
        };
        listSuite("standard", litmus::standardSuite());
        listSuite("fence   ", litmus::fenceSuite());
        return 0;
    }

    if (opts.storeVerify)
        return runStoreVerify(opts);

    if (opts.serve)
        return runServe(opts);

    if (opts.client)
        return runClient(opts);

    if (opts.mutate)
        return runMutate(opts);

    if (opts.synth || opts.synthRun || opts.synthKillLoop)
        return runSynth(opts);

    if (opts.all)
        return runAll(opts);

    if (!opts.litmusFile.empty()) {
        std::ifstream in(opts.litmusFile);
        if (!in)
            RC_FATAL("cannot read '", opts.litmusFile, "'");
        std::ostringstream text;
        text << in.rdbuf();
        litmus::Test test = litmus::parseTest(text.str());
        return runOne(test, opts, true);
    }

    if (opts.testName.empty()) {
        usage();
        return 2;
    }
    return runOne(litmus::suiteTest(opts.testName), opts, true);
}
