/**
 * @file
 * perfbench: the benchmark program (see README.md).
 *
 *   perfbench --workload sweep|sweep-par|bmc|daemon --seed N
 *             --seconds S --trace 0|1 --data DIR --daemon RTLCHECKD
 *             [--trace-out FILE] [--commit ID]
 *
 * prints a run descriptor line and, last, one JSON object with
 * `correct`, `attempted`, `failed` and `metrics`; it exits non-zero
 * when any operation failed. Maintenance modes regenerate the
 * checked-in inputs:
 *
 *   perfbench --make-corpus FILE        synthesize data/corpus.litmus
 *   perfbench --record-oracle FILE --data DIR
 *                                       record data/expected.tsv
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "oracle.hh"
#include "rtlcheck/runner.hh"
#include "uspec/multivscale.hh"
#include "workloads.hh"

using namespace perfbench;
using namespace rtlcheck;

namespace {

/** Corpus size and synthesis seed of data/corpus.litmus. */
constexpr std::size_t kCorpusSize = 32;
constexpr std::uint32_t kCorpusSeed = 2017;

const char *
sanitizer()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return "address";
#elif __has_feature(thread_sanitizer)
    return "thread";
#else
    return "none";
#endif
#else
    return "none";
#endif
}

bool
optimized()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

double
loadAverage()
{
    double load = -1.0;
    std::ifstream in("/proc/loadavg");
    in >> load;
    return load;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + '"';
}

/** All significant digits; a non-finite value (a tail that landed on
 *  a failed request) prints as 1e300, slower than any limit. */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 1e300);
    return buf;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload sweep|sweep-par|bmc|daemon "
                 "--seed N --seconds S --trace 0|1 --data DIR "
                 "--daemon RTLCHECKD [--trace-out FILE] [--commit ID]\n"
                 "       perfbench --make-corpus FILE\n"
                 "       perfbench --record-oracle FILE --data DIR\n");
}

int
makeCorpus(const std::string &path)
{
    std::ofstream out(path);
    out << synthesizeCorpus(kCorpusSize, kCorpusSeed);
    return out ? 0 : 1;
}

/** Record the expected verdict of every (test, design, config) the
 *  workloads run, with plain core::runTest. */
int
recordOracle(const std::string &path, const std::string &dataDir)
{
    Inputs in;
    std::string error;
    if (!loadTests(dataDir, &in, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 1;
    }
    const uspec::Model &model = uspec::multiVscaleModel();
    const std::pair<const char *, formal::EngineConfig> explicitConfigs[] = {
        {"full", formal::fullProofConfig()},
        {"hybrid", formal::hybridConfig()}};
    Oracle oracle;
    auto record = [&](const litmus::Test &t, const char *name,
                      const formal::EngineConfig &config) {
        for (vscale::MemoryVariant v :
             {vscale::MemoryVariant::Fixed, vscale::MemoryVariant::Buggy}) {
            core::RunOptions o;
            o.variant = v;
            o.config = config;
            oracle.set(t.name, designName(v), name,
                       signatureOf(core::runTest(t, model, o).verify));
        }
    };
    for (const auto *tests : {&in.paper, &in.corpus, &in.fences})
        for (const litmus::Test &t : *tests)
            for (const auto &[name, config] : explicitConfigs)
                record(t, name, config);
    for (const litmus::Test &t : in.paper)
        record(t, kBmcConfigName, bmcConfig());
    std::ofstream out(path);
    out << oracle.render();
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0) {
            usage();
            return 2;
        }
        args[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0) {
        usage();
        return 2;
    }
    if (args.count("make-corpus"))
        return makeCorpus(args["make-corpus"]);
    if (args.count("record-oracle"))
        return recordOracle(args["record-oracle"], args["data"]);

    RunConfig cfg;
    cfg.workload = args["workload"];
    cfg.dataDir = args["data"];
    cfg.daemonPath = args["daemon"];
    cfg.traceOut = args.count("trace-out") ? args["trace-out"]
                                           : "trace-" + cfg.workload + ".json";
    cfg.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    cfg.seconds = std::strtod(args["seconds"].c_str(), nullptr);
    cfg.trace = args["trace"] == "1";
    cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
    const bool known = cfg.workload == "sweep" || cfg.workload == "sweep-par" ||
                       cfg.workload == "bmc" || cfg.workload == "daemon";
    if (!known || cfg.dataDir.empty() || !(cfg.seconds > 0) ||
        (args["trace"] != "0" && args["trace"] != "1")) {
        usage();
        return 2;
    }

    const std::string buildType = PERFBENCH_BUILD_TYPE;
    if (buildType == "Debug" || !optimized() ||
        std::string(sanitizer()) != "none") {
        std::fprintf(stderr,
                     "perfbench: refusing to time a %s build (sanitizer: "
                     "%s); build RelWithDebInfo or Release\n",
                     buildType.c_str(), sanitizer());
        return 2;
    }

    const double loadAtStart = loadAverage();
    Ledger ledger;
    WorkloadResult result;
    if (cfg.workload == "sweep" || cfg.workload == "sweep-par")
        result = runSweep(cfg, ledger, cfg.workload == "sweep-par");
    else if (cfg.workload == "bmc")
        result = runBmc(cfg, ledger);
    else
        result = runDaemon(cfg, ledger);

    // The run descriptor, then the result as the last line.
    std::ostringstream d;
    d << "{\"descriptor\":{\"workload\":" << jsonString(cfg.workload)
      << ",\"seed\":" << cfg.seed << ",\"seconds\":" << jsonNumber(cfg.seconds)
      << ",\"trace\":" << (cfg.trace ? 1 : 0) << ",\"nproc\":" << cfg.nproc
      << ",\"cpu\":" << jsonString(cpuModel())
      << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER)
      << ",\"build_type\":" << jsonString(buildType)
      << ",\"sanitizer\":" << jsonString(sanitizer())
      << ",\"commit\":" << jsonString(args.count("commit") ? args["commit"]
                                                          : "unknown")
      << ",\"load_avg_at_start\":" << jsonNumber(loadAtStart)
      << ",\"notes\":[";
    for (std::size_t i = 0; i < result.notes.size(); ++i)
        d << (i ? "," : "") << jsonString(result.notes[i]);
    d << "]}}";
    std::printf("%s\n", d.str().c_str());

    for (const std::string &f : ledger.failures())
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    const bool correct = ledger.failed() == 0 && ledger.attempted() > 0;
    std::ostringstream r;
    r << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << ledger.attempted()
      << ",\"failed\":" << ledger.failed() << ",\"metrics\":{";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        r << (i ? "," : "") << jsonString(m.name)
          << ":{\"value\":" << jsonNumber(m.value)
          << ",\"unit\":" << jsonString(m.unit) << "}";
    }
    r << "}}";
    std::printf("%s\n", r.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
