#include "service.hh"

#include <chrono>

#include "common/thread_pool.hh"
#include "formal/graph_serial.hh"
#include "service/verdict_serial.hh"

namespace rtlcheck::service {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

VerificationService::VerificationService(const ServiceConfig &config)
    : _config(config)
{
    if (!_config.storeDir.empty())
        _store = std::make_unique<ArtifactStore>(_config.storeDir);
    if (_config.cacheBytes)
        _cache.setBudget(_config.cacheBytes);

    if (_store && _config.persistGraphs) {
        formal::GraphCache::SpillHooks hooks;
        ArtifactStore *store = _store.get();
        hooks.load =
            [store](std::uint64_t key)
            -> std::shared_ptr<const formal::StateGraph> {
            auto bytes = store->get("graph", key);
            if (!bytes)
                return nullptr;
            return formal::deserializeGraph(*bytes);
        };
        hooks.save = [store](std::uint64_t key,
                             const formal::StateGraph &graph) {
            // Never replace a more complete artifact with a smaller
            // exploration of the same key (the in-memory cache has
            // the same keep-the-larger rule).
            if (auto existing = store->get("graph", key)) {
                auto old = formal::deserializeGraph(*existing);
                if (old && (old->complete() ||
                            old->expandedNodes() >=
                                graph.expandedNodes()))
                    return;
            }
            store->put("graph", key,
                       formal::GraphSerializer::serialize(graph));
        };
        _cache.setSpillHooks(std::move(hooks));
    }
}

std::optional<core::TestRun>
VerificationService::serveStored(const VerdictKeys &keys,
                                 bool fromKeyTable)
{
    std::optional<StoredVerdict> sv;
    bool viaCone = false;
    if (auto bytes = _store->get("verdict", keys.full))
        sv = deserializeVerdict(*bytes);
    if (!sv && _config.coneReuse && keys.coneEligible) {
        if (auto bytes = _store->get("verdict", keys.cone)) {
            sv = deserializeVerdict(*bytes);
            // The flag is re-checked on load: only clean, complete
            // results may cross designs via the cone.
            if (sv && !sv->coneReusable)
                sv.reset();
            viaCone = true;
        }
    }
    if (!sv)
        return std::nullopt;

    core::TestRun run = std::move(sv->run);
    run.servedFromStore = true;
    run.coneKey = keys.cone;
    std::lock_guard<std::mutex> lock(_mutex);
    ++(viaCone ? _stats.coneHits : _stats.fullHits);
    if (fromKeyTable)
        ++_stats.keyMemoHits;
    return run;
}

core::TestRun
VerificationService::runTest(const litmus::Test &test,
                             const uspec::Model &model,
                             const core::RunOptions &options)
{
    auto t0 = Clock::now();
    // A request prepared before goes straight to the store under the
    // keys remembered then; served runs report what *this* answer
    // cost, not what the original verification cost. A new request's
    // entry is made here, while little else is live: made after
    // prepare, the entries' long-lived allocations pinned the heap
    // above prepare's, and rtlcheckd's peak RSS over a 244-request
    // cold fill rose from 45.0 to 47.7 MiB.
    std::optional<RequestKey> request;
    if (_store)
        request = requestKeyOf(test, model, options);
    std::optional<VerdictKeys> *remembered = nullptr;
    std::optional<VerdictKeys> known;
    if (request) {
        std::lock_guard<std::mutex> lock(_keysMutex);
        remembered =
            &_requestKeys.try_emplace(std::move(*request)).first->second;
        known = *remembered;
    }
    if (known) {
        if (auto run = serveStored(*known, true)) {
            run->totalSeconds = secondsSince(t0);
            run->generationSeconds = 0.0; // nothing was generated
            return std::move(*run);
        }
    }

    core::PreparedTest prep = core::prepareTest(test, model, options);
    const VerdictKeys keys = verdictKeysOf(prep, options);
    if (remembered) {
        std::lock_guard<std::mutex> lock(_keysMutex);
        *remembered = keys;
    }
    if (_store) {
        if (auto run = serveStored(keys, false)) {
            run->totalSeconds = secondsSince(t0);
            run->generationSeconds = prep.proto.generationSeconds;
            return std::move(*run);
        }
    }

    core::RunOptions o = options;
    o.graphCache = &_cache;
    core::TestRun run = core::verifyPrepared(prep, o);
    run.coneKey = keys.cone;

    if (_store) {
        StoredVerdict sv;
        sv.run = run;
        sv.run.servedFromStore = false;
        sv.coneReusable = coneReusable(run, keys);
        const std::vector<std::uint8_t> bytes = serializeVerdict(sv);
        std::size_t stored = 0;
        stored += _store->put("verdict", keys.full, bytes) ? 1 : 0;
        if (sv.coneReusable)
            stored +=
                _store->put("verdict", keys.cone, bytes) ? 1 : 0;
        std::lock_guard<std::mutex> lock(_mutex);
        _stats.stored += stored;
    }
    std::lock_guard<std::mutex> lock(_mutex);
    ++_stats.misses;
    return run;
}

core::SuiteRun
VerificationService::runSuite(const std::vector<litmus::Test> &tests,
                              const uspec::Model &model,
                              const core::RunOptions &options,
                              std::size_t jobs)
{
    core::SuiteRun suite;
    suite.jobs = jobs ? jobs : ThreadPool::defaultJobs();
    suite.runs.resize(tests.size());

    auto t0 = Clock::now();
    if (suite.jobs > 1 && tests.size() > 1) {
        ThreadPool pool(suite.jobs);
        pool.parallelFor(tests.size(), [&](std::size_t i) {
            suite.runs[i] = runTest(tests[i], model, options);
        });
    } else {
        suite.jobs = 1;
        for (std::size_t i = 0; i < tests.size(); ++i)
            suite.runs[i] = runTest(tests[i], model, options);
    }
    suite.wallSeconds = secondsSince(t0);
    return suite;
}

VerificationService::Stats
VerificationService::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

} // namespace rtlcheck::service
