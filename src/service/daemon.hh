/**
 * @file
 * rtlcheckd: the verification daemon.
 *
 * One process owns the VerificationService — and with it the warm
 * GraphCache and the artifact store — while short-lived clients
 * (rtlcheck_cli --client, CI hooks, editors) connect over an AF_UNIX
 * socket and ask for verdicts. Keeping the process alive is the whole
 * point: the second request for a (design, test, config) triple is
 * answered from memory or the store instead of re-exploring, and
 * concurrent clients asking for the *same* job share one execution
 * (in-flight deduplication) instead of racing duplicate explorations.
 *
 * Structure:
 *  - run() accepts connections and spawns one handler thread per
 *    connection; each handler loops over framed requests
 *    (protocol.hh) and writes one response per request.
 *  - Verification requests become jobs on a work-stealing WorkPool;
 *    the handler blocks on a shared_future, so N clients requesting
 *    the same in-flight job all wake on its single completion.
 *  - Shutdown (SIGTERM/SIGINT via requestStop(), or a `shutdown`
 *    command) uses the self-pipe trick: the signal handler writes one
 *    byte, the poll() in run() wakes, and teardown happens on the
 *    main thread — in-flight jobs finish (the store's atomic-rename
 *    writes mean a torn cache entry cannot exist either way), queued
 *    jobs are failed explicitly, handler sockets are shut down, and
 *    every thread is joined before run() returns.
 */

#ifndef RTLCHECK_SERVICE_DAEMON_HH
#define RTLCHECK_SERVICE_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hh"
#include "service/service.hh"
#include "service/work_pool.hh"

namespace rtlcheck::service {

struct DaemonConfig
{
    /** AF_UNIX socket path; created on start(), unlinked on stop. */
    std::string socketPath;
    ServiceConfig service;
    /** Verification worker threads (0 = hardware concurrency). */
    std::size_t workers = 0;
};

class Daemon
{
  public:
    struct Stats
    {
        std::uint64_t connections = 0;
        std::uint64_t requests = 0;
        std::uint64_t jobs = 0;       ///< verifications submitted
        std::uint64_t dedupJoins = 0; ///< requests served by joining
                                      ///< an in-flight job
        std::uint64_t badRequests = 0;
        /** Summed over finished jobs: submit to task start (the
         *  WorkPool hop), and task start to end (runJob). */
        std::uint64_t queueWaitUs = 0;
        std::uint64_t runUs = 0;
    };

    explicit Daemon(const DaemonConfig &config);
    ~Daemon();

    /** Bind + listen. False (with *error set) when the socket cannot
     *  be created — e.g. another daemon is alive on the same path. */
    bool start(std::string *error);

    /** Accept/serve until requestStop(); returns after full teardown
     *  (socket unlinked, workers and handlers joined). */
    void run();

    /** Async-signal-safe stop trigger (writes the self-pipe). */
    void requestStop();

    VerificationService &service() { return *_service; }
    Stats stats() const;

  private:
    struct Job
    {
        std::promise<Message> promise;
        std::shared_future<Message> future;
        /** Single-shot guard: the worker task and the shutdown sweep
         *  may race to fulfill the promise. */
        std::atomic<bool> done{false};

        void fulfill(Message &&m)
        {
            if (!done.exchange(true))
                promise.set_value(std::move(m));
        }
    };

    void handleConnection(int fd, std::size_t slot);
    Message dispatch(const Message &request);
    Message handleVerify(const Message &request);
    Message handleVerifyAll(const Message &request);
    Message statsMessage();

    /** Submit (or join) the deduplicated job for one request. */
    std::shared_future<Message> submitJob(const Message &request);

    /** Run one verification job to a response message. */
    Message runJob(const Message &request);

    DaemonConfig _config;
    std::unique_ptr<VerificationService> _service;
    std::unique_ptr<WorkPool> _pool;

    int _listenFd = -1;
    int _stopPipe[2] = {-1, -1};

    mutable std::mutex _mutex; ///< guards _conns, _stats, _stopping
    std::vector<std::thread> _handlers;
    std::vector<int> _connFds; ///< -1 once a handler closed its fd
    bool _stopping = false;
    Stats _stats;

    std::mutex _jobsMutex;
    std::map<std::string, std::shared_ptr<Job>> _inflight;
};

} // namespace rtlcheck::service

#endif // RTLCHECK_SERVICE_DAEMON_HH
