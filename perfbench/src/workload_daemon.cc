/**
 * @file
 * The `daemon` workload: the shipped rtlcheckd with kWorkers workers,
 * started on an empty store. A key is a (paper or fence test, design,
 * Full_Proof or Hybrid) triple. Set-up sends one cold `verify` per
 * key; then kClients closed-loop client connections replay a round of
 * seeded key draws, each waiting for its reply before sending the
 * next request, as `rtlcheck_cli --client` and CI hooks do. Warm hits
 * skip elaboration, exploration, checking and SAT.
 */

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <csignal>
#include <filesystem>
#include <map>
#include <optional>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "probe.hh"
#include "runner_calls.hh"
#include "service/artifact_store.hh"
#include "service/client.hh"
#include "service/verdict_serial.hh"
#include "uspec/multivscale.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench {

using namespace rtlcheck;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
/** Requests per round; every round replays the same seeded sequence. */
constexpr std::size_t kRoundRequests = 512;
/** Warm replies per second on the reference machine, both clients
 *  together (see workloads.hh). */
constexpr double kRepliesPerSecond = 930.0;

constexpr vscale::MemoryVariant kVariants[] = {
    vscale::MemoryVariant::Fixed, vscale::MemoryVariant::Buggy};
constexpr const char *kConfigs[] = {"full", "hybrid"};

struct Key
{
    const litmus::Test *test;
    vscale::MemoryVariant variant;
    const char *config;
};

service::Message
requestFor(const Key &k)
{
    return {{"cmd", "verify"},          {"test", k.test->name},
            {"model", "sc"},            {"design", designName(k.variant)},
            {"config", k.config},       {"engine", "explicit"}};
}

/** The options the daemon decodes from requestFor(k). */
core::RunOptions
optionsFor(const Key &k)
{
    core::RunOptions o;
    o.variant = k.variant;
    o.config = std::string(k.config) == "hybrid" ? formal::hybridConfig()
                                                 : formal::fullProofConfig();
    o.config.jobs = 1;
    return o;
}

std::uint64_t
numberOf(const service::Message &m, const char *key)
{
    auto it = m.find(key);
    return it == m.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

/** The rtlcheckd child process. Destruction kills and reaps it. */
class DaemonProcess
{
  public:
    DaemonProcess() = default;
    ~DaemonProcess() { kill(); }
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** Spawn it in `dir` (socket dir/d.sock, store dir/store) and wait
     *  until it answers a ping. */
    bool start(const std::string &binary, const std::string &dir,
               std::string *error)
    {
        _socket = dir + "/d.sock";
        const std::string store = dir + "/store";
        const std::string workers = std::to_string(kWorkers);
        const char *argv[] = {binary.c_str(), "--socket", _socket.c_str(),
                              "--store",      store.c_str(), "--workers",
                              workers.c_str(), nullptr};
        // Its banner goes to our stderr: stdout carries the result.
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, 2, 1);
        int rc = posix_spawn(&_pid, binary.c_str(), &actions, nullptr,
                             const_cast<char **>(argv), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            _pid = -1;
            *error = "cannot start " + binary + ": " + std::strerror(rc);
            return false;
        }
        auto t0 = Clock::now();
        while (secondsSince(t0) < 20.0) {
            service::Client client;
            if (client.connect(_socket, nullptr) &&
                client.request({{"cmd", "ping"}}))
                return true;
            int status = 0;
            if (waitpid(_pid, &status, WNOHANG) == _pid) {
                _pid = -1;
                *error = "rtlcheckd exited during start-up";
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        *error = "rtlcheckd did not answer within 20 s";
        return false;
    }

    const std::string &socket() const { return _socket; }
    pid_t pid() const { return _pid; }

    service::Message stats() const
    {
        service::Client client;
        std::optional<service::Message> reply;
        if (client.connect(_socket, nullptr))
            reply = client.request({{"cmd", "stats"}});
        return reply ? *reply : service::Message{};
    }

    /** Ask for a graceful shutdown and reap; SIGKILL after 10 s. */
    void stop()
    {
        if (_pid < 0)
            return;
        service::Client client;
        if (client.connect(_socket, nullptr))
            client.request({{"cmd", "shutdown"}});
        auto t0 = Clock::now();
        while (secondsSince(t0) < 10.0) {
            int status = 0;
            if (waitpid(_pid, &status, WNOHANG) == _pid) {
                _pid = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        kill();
    }

  private:
    void kill()
    {
        if (_pid < 0)
            return;
        ::kill(_pid, SIGKILL);
        int status = 0;
        while (waitpid(_pid, &status, 0) < 0 && errno == EINTR) {
        }
        _pid = -1;
    }

    pid_t _pid = -1;
    std::string _socket;
};

/** What the client rounds run into one loop measured. */
struct Loop
{
    std::vector<Segment> rounds;
    std::vector<double> serviceMs; ///< the replies' `ms` field
    std::size_t failed = 0;
    /** Growth of the daemon's `stats` counters over the rounds. */
    std::map<std::string, std::uint64_t> deltas;

    std::uint64_t delta(const char *key) const
    {
        auto it = deltas.find(key);
        return it == deltas.end() ? 0 : it->second;
    }
};

/** One round, as one segment of `loop`: the whole `sequence`
 *  (indices into `keys`) over kClients connections, client c taking
 *  every kClients-th request from c on. A non-null tracer records
 *  one span per round trip, one lane per client. */
void
clientRound(const DaemonProcess &daemon, const std::vector<Key> &keys,
            const std::vector<std::size_t> &sequence,
            VerdictChecker &checker, Ledger &ledger, Tracer *tracer,
            Loop &loop)
{
    struct PerClient
    {
        std::vector<double> rtMs, serviceMs;
        std::size_t failed = 0;
    };
    std::vector<PerClient> per(kClients);
    const service::Message statsBefore = daemon.stats();
    const ProcSample before = sampleProcess(daemon.pid());
    auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            PerClient &mine = per[c];
            TraceLane *lane = tracer ? tracer->lane(c) : nullptr;
            service::Client client;
            std::string error;
            bool up = client.connect(daemon.socket(), &error);
            for (std::size_t i = c; i < sequence.size(); i += kClients) {
                const Key &k = keys[sequence[i]];
                if (!up) {
                    ledger.attempt();
                    ledger.fail("client cannot connect: " + error);
                    ++mine.failed;
                    continue;
                }
                auto tc = Clock::now();
                std::optional<service::Message> reply;
                {
                    auto span = traceSpan(lane, "service",
                                          "Client::request", i + 1);
                    reply = client.request(requestFor(k));
                }
                double ms = secondsSince(tc) * 1e3;
                if (!reply) {
                    ledger.attempt();
                    ledger.fail(k.test->name + ": daemon hung up");
                    ++mine.failed;
                    up = client.connect(daemon.socket(), &error);
                    continue;
                }
                if (!checker.checkReply(*k.test, k.variant, k.config, *reply,
                                        true)) {
                    ++mine.failed;
                    continue;
                }
                mine.rtMs.push_back(ms);
                mine.serviceMs.push_back(
                    std::strtod((*reply)["ms"].c_str(), nullptr));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    Segment seg;
    seg.wallS = secondsSince(t0);
    const ProcSample after = sampleProcess(daemon.pid());
    seg.cpuMs = after.cpuMs - before.cpuMs;
    seg.minflt = after.minflt - before.minflt;
    for (const PerClient &p : per) {
        seg.latMs.insert(seg.latMs.end(), p.rtMs.begin(), p.rtMs.end());
        loop.serviceMs.insert(loop.serviceMs.end(), p.serviceMs.begin(),
                              p.serviceMs.end());
        loop.failed += p.failed;
    }
    seg.verdicts = seg.latMs.size();
    loop.rounds.push_back(std::move(seg));

    const service::Message statsAfter = daemon.stats();
    for (const auto &entry : statsAfter)
        loop.deltas[entry.first] +=
            numberOf(statsAfter, entry.first.c_str()) -
            numberOf(statsBefore, entry.first.c_str());
    // The warm loop must bypass verification entirely.
    ledger.attempt();
    for (const char *key : {"graph_explores", "store_puts", "misses"})
        if (numberOf(statsAfter, key) != numberOf(statsBefore, key)) {
            ledger.fail(std::string("daemon ") + key +
                        " grew during the warm loop");
            break;
        }
}

/** The daemon's warm path, in process, once per key:
 *  core::prepareTest -> verdictKeysOf -> ArtifactStore::get ->
 *  deserializeVerdict on the daemon's store, then serializeVerdict ->
 *  ArtifactStore::put into a store of the benchmark's own. Returns
 *  each hit's time (prepare through decode) in ms. */
std::vector<double>
inProcessPath(const std::string &storeDir, const std::string &ownDir,
              const std::vector<Key> &keys, VerdictChecker &checker,
              Ledger &ledger, TraceLane *lane, Layers &l)
{
    const uspec::Model &model = uspec::multiVscaleModel();
    service::ArtifactStore store(storeDir);
    service::ArtifactStore own(ownDir);
    std::vector<double> hitMs;
    std::uint64_t id = 0;
    for (const Key &k : keys) {
        ++id;
        const core::RunOptions o = optionsFor(k);
        auto root = traceSpan(lane, "benchmark", "verdict", id);
        auto t0 = Clock::now();
        core::PreparedTest prep =
            tracedPrepare(*k.test, model, o, lane, id);
        service::VerdictKeys vk;
        {
            auto span =
                traceSpan(lane, "service", "verdictKeysOf", id);
            vk = service::verdictKeysOf(prep, o);
        }
        std::optional<std::vector<std::uint8_t>> blob;
        {
            auto span =
                traceSpan(lane, "service", "ArtifactStore::get", id);
            blob = store.get("verdict", vk.full);
        }
        std::optional<service::StoredVerdict> sv;
        if (blob) {
            auto span =
                traceSpan(lane, "service", "deserializeVerdict", id);
            sv = service::deserializeVerdict(*blob);
        }
        hitMs.push_back(secondsSince(t0) * 1e3);
        if (!sv) {
            ledger.attempt();
            ledger.fail(k.test->name + ": no stored verdict under the "
                                       "daemon's key");
            continue;
        }
        checker.check(*k.test, k.variant, k.config, sv->run.verify);
        std::vector<std::uint8_t> bytes;
        {
            auto span =
                traceSpan(lane, "service", "serializeVerdict", id);
            bytes = service::serializeVerdict(*sv);
        }
        auto span = traceSpan(lane, "service", "ArtifactStore::put", id);
        ledger.attempt();
        if (!own.put("verdict", vk.full, bytes))
            ledger.fail(k.test->name + ": store put failed");
    }
    l.storeBytesWritten = own.stats().bytesWritten;
    return hitMs;
}

struct Setup
{
    Inputs inputs;
    std::unique_ptr<VerdictChecker> checker;
    std::vector<Key> keys;
    std::vector<std::size_t> sequence;
    std::string dir;
    DaemonProcess daemon;

    ~Setup()
    {
        daemon.stop();
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }
};

/** Inputs, oracle, SC classification, the seeded keys and sequence, a
 *  fresh rtlcheckd in `dir` on an empty store, and the cold fill: one
 *  verify per key. Null (failure counted) on any error. */
std::unique_ptr<Setup>
makeSetup(const RunConfig &cfg, Ledger &ledger, const std::string &dir)
{
    auto setup = std::make_unique<Setup>();
    setup->dir = dir;
    std::error_code fsError;
    std::filesystem::remove_all(dir, fsError);
    std::filesystem::create_directories(dir, fsError);
    std::string error;
    if (!loadInputs(cfg.dataDir, &setup->inputs, &error)) {
        ledger.attempt();
        ledger.fail(error);
        return nullptr;
    }
    const Inputs &in = setup->inputs;
    setup->checker = std::make_unique<VerdictChecker>(in.oracle, ledger);
    setup->checker->registerTests(in.paper);
    setup->checker->registerTests(in.fences);

    // Every (test, design, config) is a key and is filled cold, in
    // this fixed order, so every seed starts the timed part from the
    // same daemon state; each request of a round is a seeded draw.
    for (const auto *suite : {&in.paper, &in.fences})
        for (const litmus::Test &t : *suite)
            for (vscale::MemoryVariant v : kVariants)
                for (const char *c : kConfigs)
                    setup->keys.push_back({&t, v, c});
    Rng rng(cfg.seed);
    for (std::size_t i = 0; i < kRoundRequests; ++i)
        setup->sequence.push_back(rng.below(setup->keys.size()));

    service::Client client;
    if (!setup->daemon.start(cfg.daemonPath, dir, &error) ||
        !client.connect(setup->daemon.socket(), &error)) {
        ledger.attempt();
        ledger.fail(error);
        return nullptr;
    }
    for (const Key &k : setup->keys) {
        std::optional<service::Message> reply = client.request(requestFor(k));
        if (!reply) {
            ledger.attempt();
            ledger.fail(k.test->name + ": daemon hung up on the cold fill");
            return nullptr;
        }
        setup->checker->checkReply(*k.test, k.variant, k.config, *reply,
                                   false);
    }
    return setup;
}

} // namespace

WorkloadResult
runDaemon(const RunConfig &cfg, Ledger &ledger)
{
    WorkloadResult out;
    // A traced run needs a round for each half.
    const std::size_t rounds = std::max<std::size_t>(
        cfg.trace ? 2 : 1,
        segmentsFor(cfg.seconds, kRoundRequests / kRepliesPerSecond));

    std::vector<double> setups;
    auto t0 = Clock::now();
    std::unique_ptr<Setup> setup = makeSetup(cfg, ledger, "daemon");
    if (!setup)
        return out;
    setups.push_back(secondsSince(t0));
    VerdictChecker &checker = *setup->checker;
    DaemonProcess &daemon = setup->daemon;
    const double peakRssMiB = sampleProcess(daemon.pid()).peakRssMiB;
    out.notes.push_back(std::to_string(rounds) + " timed rounds of " +
                        std::to_string(kRoundRequests) +
                        " warm requests over " +
                        std::to_string(setup->keys.size()) + " keys, " +
                        std::to_string(kClients) + " clients, " +
                        std::to_string(kWorkers) + " daemon workers");

    // The timed part: one segment per round. A traced run gives every
    // other round to traced clients, alternating which of a pair goes
    // first, so both halves see the same machine state.
    Tracer tracer(kClients);
    Loop base, traced;
    const ProcSample start = sampleProcess(daemon.pid());
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t n = setupsBefore(r, rounds); n > 0; --n) {
            auto ts = Clock::now();
            if (!makeSetup(cfg, ledger, "daemon-setup"))
                return out;
            setups.push_back(secondsSince(ts));
        }
        const bool tracedRound = cfg.trace && (r % 2 == (r / 2) % 2);
        clientRound(daemon, setup->keys, setup->sequence, checker, ledger,
                    tracedRound ? &tracer : nullptr,
                    tracedRound ? traced : base);
    }
    const ProcSample end = sampleProcess(daemon.pid());

    if (!cfg.trace) {
        reportEndToEnd(base.rounds, base.failed, peakRssMiB, setups, out);
        return out;
    }

    Layers l;
    std::vector<double> hitMs =
        inProcessPath(setup->dir + "/store", setup->dir + "/own-store",
                      setup->keys, checker, ledger, tracer.lane(0), l);

    const Segment b = totalOf(base.rounds), t = totalOf(traced.rounds);
    const std::vector<Span> spans = tracer.merged();
    auto total = totalTimeUs(spans);
    const double visits = static_cast<double>(setup->keys.size());
    l.prepareMs = total["core::prepareTest"] / 1e3 / visits;
    l.vscaleBuildMs = total["vscale::lower+buildSoc"] / 1e3 / visits;
    l.keysMs = total["verdictKeysOf"] / 1e3 / visits;
    l.storeGetUs = total["ArtifactStore::get"] / visits;
    l.decodeUs = total["deserializeVerdict"] / visits;
    l.encodeUs = total["serializeVerdict"] / visits;
    l.storePutUs = total["ArtifactStore::put"] / visits;
    const std::uint64_t hits = traced.delta("store_hits");
    const std::uint64_t lookups = hits + traced.delta("store_misses");
    l.storeHitRatio = lookups ? static_cast<double>(hits) / lookups : 0.0;
    l.daemonServiceMs = median(traced.serviceMs);
    double serviceSum = 0.0;
    for (double ms : traced.serviceMs)
        serviceSum += ms;
    l.daemonWaitMs = median(t.latMs) - l.daemonServiceMs;
    l.poolStolen = traced.delta("pool_stolen");
    l.minfltPerVerdict = static_cast<double>(b.minflt) / b.verdicts;
    l.laneBusyShare = serviceSum / 1e3 / (kWorkers * t.wallS);
    l.testMsInflation = l.daemonServiceMs / median(hitMs);
    l.rssGrowthMiB = end.rssMiB - start.rssMiB;
    l.traceOverheadPct =
        overheadPct(b.verdicts / b.wallS, t.verdicts / t.wallS);
    reportLayers(l, out);
    writeTrace(cfg.traceOut, chromeTraceJson(spans), out);
    return out;
}

} // namespace perfbench
