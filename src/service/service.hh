/**
 * @file
 * The verification service: RTLCheck runs with a persistent memory.
 *
 * VerificationService wraps the core runner with two durable tiers
 * backed by one ArtifactStore:
 *
 *  - Verdicts. runTest() first runs only the cheap prepare stage
 *    (SoC build + SVA generation — the paper's "just seconds" part),
 *    derives the content keys of verdict_serial.hh, and asks the
 *    store. A full-key hit skips elaboration, exploration, and
 *    checking entirely; a cone-key hit does the same for tests whose
 *    predicate cone an RTL edit did not touch (incremental
 *    re-verification). Only on a miss does verifyPrepared() run —
 *    and its result is published for the next process.
 *
 *  - Request keys. The first time a request is prepared, the service
 *    remembers its verdict keys under its RequestKey
 *    (verdict_serial.hh). A repeat of that request goes straight to
 *    the store under the remembered keys and skips prepare and key
 *    derivation; it reports generationSeconds = 0. Only the keys are
 *    remembered, never a verdict or a prepared design: the store
 *    stays the only source of verdict bytes, and every served
 *    verdict still passes its checksum. When neither key is in the
 *    store (deleted, corrupt, or never written because verification
 *    threw), the request takes the full path. Requests with a
 *    designPatch, and services without a store, bypass the table.
 *    It has no eviction: entries are bounded by the distinct
 *    requests a process makes (for rtlcheckd, the suite tests ×
 *    models × designs × configs × engines it accepts), each a test
 *    copy plus a few words.
 *
 *  - State graphs. The service installs GraphCache spill hooks, so
 *    explorations that do happen (different config, witness replay,
 *    cone-changed tests) are themselves persisted and reloaded
 *    near-zero-copy by later runs.
 *
 * Everything is content-addressed; there is no invalidation. An RTL
 * edit changes fingerprints, which changes keys, which makes the old
 * artifacts unreachable garbage (dropped by wiping the directory).
 *
 * Thread safety: runTest() may be called concurrently — runSuite()
 * fans it out across a pool — and the daemon shares one service
 * across its worker pool and connection threads.
 */

#ifndef RTLCHECK_SERVICE_SERVICE_HH
#define RTLCHECK_SERVICE_SERVICE_HH

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "formal/graph_cache.hh"
#include "rtlcheck/runner.hh"
#include "service/artifact_store.hh"
#include "service/verdict_serial.hh"

namespace rtlcheck::service {

struct ServiceConfig
{
    /** Artifact store root; empty = no persistence (the service then
     *  degrades to a plain runner with a shared graph cache). */
    std::string storeDir;
    /** GraphCache resident budget in bytes (0 = unlimited). */
    std::size_t cacheBytes = 0;
    /** Spill explored state graphs to the store. */
    bool persistGraphs = true;
    /** Serve cone-key verdict hits (see verdict_serial.hh). Full-key
     *  hits are always served. */
    bool coneReuse = true;
};

class VerificationService
{
  public:
    struct Stats
    {
        std::size_t fullHits = 0; ///< served via the exact-design key
        std::size_t coneHits = 0; ///< served via the cone key
        std::size_t misses = 0;   ///< verified from scratch
        std::size_t stored = 0;   ///< verdict artifacts written
        /** Of the hits above, those served under remembered request
         *  keys, without prepare. */
        std::size_t keyMemoHits = 0;
    };

    explicit VerificationService(const ServiceConfig &config);

    /** runTest with the warm path: identical TestRun content to
     *  core::runTest except the timing fields and, when served,
     *  servedFromStore/coneKey. `options.graphCache` is ignored —
     *  the service's own (spilling) cache is used. */
    core::TestRun runTest(const litmus::Test &test,
                          const uspec::Model &model,
                          const core::RunOptions &options);

    /** Fan runTest over a batch, `jobs` tests at a time (0 =
     *  ThreadPool::defaultJobs()); runs[i] matches runTest(tests[i])
     *  at any job count. */
    core::SuiteRun runSuite(const std::vector<litmus::Test> &tests,
                            const uspec::Model &model,
                            const core::RunOptions &options,
                            std::size_t jobs = 0);

    Stats stats() const;

    /** Null when configured without persistence. */
    ArtifactStore *store() { return _store.get(); }
    formal::GraphCache &graphCache() { return _cache; }

  private:
    /** The verdict stored under `keys`, marked served and counted as
     *  a hit (a key-table hit too when `fromKeyTable`): the full key
     *  first, then the cone key when coneReuse is on and the stored
     *  verdict is coneReusable. nullopt when neither is stored. */
    std::optional<core::TestRun> serveStored(const VerdictKeys &keys,
                                             bool fromKeyTable);

    ServiceConfig _config;
    std::unique_ptr<ArtifactStore> _store;
    formal::GraphCache _cache;
    mutable std::mutex _mutex; ///< guards _stats
    Stats _stats;
    std::mutex _keysMutex; ///< guards _requestKeys
    /** nullopt until the request's first prepare derives its keys.
     *  Entries are never erased, so references to them stay valid. */
    std::unordered_map<RequestKey, std::optional<VerdictKeys>,
                       RequestKeyHash>
        _requestKeys;
};

} // namespace rtlcheck::service

#endif // RTLCHECK_SERVICE_SERVICE_HH
