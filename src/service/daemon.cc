#include "daemon.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "litmus/suite.hh"
#include "uspec/multivscale.hh"
#include "uspec/tso.hh"

namespace rtlcheck::service {

namespace {

using Clock = std::chrono::steady_clock;

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::uint64_t
microsBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(std::llround(
        std::chrono::duration<double, std::micro>(to - from).count()));
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

Message
errorMessage(const std::string &why)
{
    return {{"status", "error"}, {"error", why}};
}

/** Request field with a default (absent = default). */
std::string
field(const Message &m, const std::string &key,
      const std::string &fallback)
{
    auto it = m.find(key);
    return it == m.end() ? fallback : it->second;
}

/** Non-fatal suite lookup: the daemon must answer a bad test name
 *  with an error response, not exit (litmus::suiteTest is fatal). */
const litmus::Test *
findSuiteTest(const std::string &name)
{
    for (const litmus::Test &t : litmus::standardSuite())
        if (t.name == name)
            return &t;
    for (const litmus::Test &t : litmus::fenceSuite())
        if (t.name == name)
            return &t;
    return nullptr;
}

/** Decode the job fields shared by verify and verify_all. Returns
 *  false with *error set on a malformed value. */
bool
decodeJob(const Message &request, const uspec::Model **model,
          core::RunOptions *options, std::string *error)
{
    const std::string modelName = field(request, "model", "sc");
    if (modelName == "sc") {
        *model = &uspec::multiVscaleModel();
    } else if (modelName == "tso") {
        *model = &uspec::tsoVscaleModel();
    } else {
        *error = "bad model '" + modelName + "' (sc or tso)";
        return false;
    }

    core::RunOptions o;
    const std::string design = field(request, "design", "fixed");
    if (design == "buggy") {
        o.variant = vscale::MemoryVariant::Buggy;
    } else if (design == "tso") {
        o.pipeline = core::Pipeline::StoreBuffer;
    } else if (design != "fixed") {
        *error = "bad design '" + design + "' (fixed, buggy, or tso)";
        return false;
    }

    const std::string config = field(request, "config", "full");
    if (config == "hybrid") {
        o.config = formal::hybridConfig();
    } else if (config == "full") {
        o.config = formal::fullProofConfig();
    } else if (config == "unbounded") {
        o.config = formal::unboundedConfig();
    } else {
        *error = "bad config '" + config +
                 "' (hybrid, full, or unbounded)";
        return false;
    }

    const std::string engine = field(request, "engine", "explicit");
    std::optional<formal::Backend> backend =
        formal::backendFromName(engine);
    if (!backend) {
        *error =
            "bad engine '" + engine + "' (explicit, bmc, portfolio)";
        return false;
    }
    o.config.backend = *backend;
    // The pool already runs whole jobs concurrently; keep each job
    // single-lane so one giant job cannot starve the others.
    o.config.jobs = 1;
    *options = o;
    return true;
}

/** The deduplication key: every field that changes the answer. */
std::string
jobKeyOf(const Message &request)
{
    std::string key;
    for (const char *k : {"test", "model", "design", "config",
                          "engine"}) {
        key += field(request, k, "");
        key += '\x1f';
    }
    return key;
}

/** Per-test summary packed into one verify_all response value:
 *  name|verified|proven|bounded|falsified|cover|served. Stable
 *  fields only — clients compare these lines across runs. */
std::string
summaryLine(const Message &r)
{
    std::string s;
    for (const char *k :
         {"test", "verified", "proven", "bounded", "falsified",
          "cover", "served"}) {
        if (!s.empty())
            s += '|';
        s += field(r, k, "?");
    }
    return s;
}

} // namespace

Daemon::Daemon(const DaemonConfig &config)
    : _config(config),
      _service(std::make_unique<VerificationService>(config.service)),
      _pool(std::make_unique<WorkPool>(config.workers))
{
}

Daemon::~Daemon()
{
    if (_listenFd >= 0) {
        ::close(_listenFd);
        ::unlink(_config.socketPath.c_str());
    }
    for (int fd : _stopPipe)
        if (fd >= 0)
            ::close(fd);
}

bool
Daemon::start(std::string *error)
{
    ::signal(SIGPIPE, SIG_IGN);

    if (::pipe(_stopPipe) != 0) {
        *error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    // Non-blocking read end: the post-run drain must never block on
    // an empty pipe.
    ::fcntl(_stopPipe[0], F_SETFL,
            ::fcntl(_stopPipe[0], F_GETFL) | O_NONBLOCK);

    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (_config.socketPath.size() >= sizeof addr.sun_path) {
        *error = "socket path too long: " + _config.socketPath;
        return false;
    }
    std::strncpy(addr.sun_path, _config.socketPath.c_str(),
                 sizeof addr.sun_path - 1);

    _listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (_listenFd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }

    if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0) {
        if (errno == EADDRINUSE) {
            // A socket file exists. Probe it: a live daemon accepts,
            // a stale file (crashed daemon) refuses — reclaim only
            // the latter.
            int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            bool alive =
                probe >= 0 &&
                ::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) == 0;
            if (probe >= 0)
                ::close(probe);
            if (alive) {
                *error = "daemon already running on " +
                         _config.socketPath;
                ::close(_listenFd);
                _listenFd = -1;
                return false;
            }
            ::unlink(_config.socketPath.c_str());
            if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr) != 0) {
                *error = std::string("bind: ") + std::strerror(errno);
                ::close(_listenFd);
                _listenFd = -1;
                return false;
            }
        } else {
            *error = std::string("bind: ") + std::strerror(errno);
            ::close(_listenFd);
            _listenFd = -1;
            return false;
        }
    }

    if (::listen(_listenFd, 64) != 0) {
        *error = std::string("listen: ") + std::strerror(errno);
        ::close(_listenFd);
        ::unlink(_config.socketPath.c_str());
        _listenFd = -1;
        return false;
    }

    // A previous crash may have left half-written temp files in the
    // store; artifacts themselves are rename-atomic and need no
    // repair.
    if (_service->store())
        _service->store()->removeStale();
    return true;
}

void
Daemon::requestStop()
{
    // Async-signal-safe: one write(2), nothing else.
    const char byte = 's';
    if (_stopPipe[1] >= 0)
        (void)::write(_stopPipe[1], &byte, 1);
}

void
Daemon::run()
{
    RC_ASSERT(_listenFd >= 0, "Daemon::run before start()");

    while (true) {
        pollfd fds[2];
        fds[0] = {_listenFd, POLLIN, 0};
        fds[1] = {_stopPipe[0], POLLIN, 0};
        int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents)
            break; // stop requested
        if (!(fds[0].revents & POLLIN))
            continue;

        int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> lock(_mutex);
        if (_stopping) {
            ::close(fd);
            break;
        }
        ++_stats.connections;
        std::size_t slot = _connFds.size();
        _connFds.push_back(fd);
        _handlers.emplace_back(
            [this, fd, slot] { handleConnection(fd, slot); });
    }

    // ---- Teardown. Order matters; see the file comment. ----

    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true; // submitJob now refuses new work
    }

    // Stop accepting and remove the rendezvous point so clients fail
    // fast instead of queueing behind a dying daemon.
    ::close(_listenFd);
    _listenFd = -1;
    ::unlink(_config.socketPath.c_str());

    // In-flight verifications run to completion (their artifacts are
    // written via atomic rename, so finishing is cheap insurance, not
    // a correctness requirement); queued ones are dropped here...
    _pool->shutdown(false);

    // ...and their waiters get an explicit failure instead of a
    // hang. Job::fulfill is single-shot, so racing against a task
    // that completed between shutdown and this sweep is harmless.
    {
        std::lock_guard<std::mutex> lock(_jobsMutex);
        for (auto &kv : _inflight)
            kv.second->fulfill(
                errorMessage("daemon is shutting down"));
        _inflight.clear();
    }

    // Wake handlers blocked in recvMessage; they close their own fds.
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (int fd : _connFds)
            if (fd >= 0)
                ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread &t : _handlers)
        t.join();
    _handlers.clear();

    // Drain the stop pipe so a later run() (tests reuse the object
    // only after a fresh start()) begins clean.
    char buf[16];
    while (::read(_stopPipe[0], buf, sizeof buf) > 0) {
    }
}

void
Daemon::handleConnection(int fd, std::size_t slot)
{
    while (std::optional<Message> request = recvMessage(fd)) {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            ++_stats.requests;
        }
        Message response = dispatch(*request);
        if (!sendMessage(fd, response))
            break;
        if (field(*request, "cmd", "") == "shutdown") {
            requestStop();
            break;
        }
    }
    std::lock_guard<std::mutex> lock(_mutex);
    ::close(fd);
    _connFds[slot] = -1;
}

Message
Daemon::dispatch(const Message &request)
{
    const std::string proto = field(request, "proto", "");
    if (proto != num(kProtocolVersion)) {
        std::lock_guard<std::mutex> lock(_mutex);
        ++_stats.badRequests;
        return errorMessage("protocol version mismatch (daemon " +
                            num(kProtocolVersion) + ", client '" +
                            proto + "')");
    }

    const std::string cmd = field(request, "cmd", "");
    if (cmd == "ping")
        return {{"status", "ok"}, {"pong", "1"},
                {"proto", num(kProtocolVersion)}};
    if (cmd == "stats")
        return statsMessage();
    if (cmd == "verify")
        return handleVerify(request);
    if (cmd == "verify_all")
        return handleVerifyAll(request);
    if (cmd == "shutdown")
        return {{"status", "ok"}, {"stopping", "1"}};

    std::lock_guard<std::mutex> lock(_mutex);
    ++_stats.badRequests;
    return errorMessage("unknown cmd '" + cmd + "'");
}

Message
Daemon::handleVerify(const Message &request)
{
    if (field(request, "test", "").empty()) {
        std::lock_guard<std::mutex> lock(_mutex);
        ++_stats.badRequests;
        return errorMessage("verify needs test=<name>");
    }
    return submitJob(request).get();
}

Message
Daemon::handleVerifyAll(const Message &request)
{
    auto t0 = Clock::now();

    // Submit everything before waiting on anything, so the pool sees
    // the whole batch at once (and concurrent verify_all clients
    // dedup test-by-test against this batch).
    const std::vector<litmus::Test> &suite = litmus::standardSuite();
    std::vector<std::shared_future<Message>> futures;
    futures.reserve(suite.size());
    for (const litmus::Test &t : suite) {
        Message job = request;
        job["cmd"] = "verify";
        job["test"] = t.name;
        futures.push_back(submitJob(job));
    }

    Message response{{"status", "ok"}};
    std::size_t failures = 0, served = 0, errors = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const Message r = futures[i].get();
        if (field(r, "status", "") != "ok")
            ++errors;
        else if (field(r, "verified", "") != "1")
            ++failures;
        if (field(r, "served", "") == "1")
            ++served;
        response["t" + num(i)] = summaryLine(r);
    }
    response["tests"] = num(suite.size());
    response["failures"] = num(failures);
    response["errors"] = num(errors);
    response["served"] = num(served);
    response["wall_ms"] = num(static_cast<std::uint64_t>(
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count()));
    if (errors)
        response["status"] = "error",
        response["error"] = num(errors) + " job(s) failed";
    return response;
}

Message
Daemon::statsMessage()
{
    Message m{{"status", "ok"}};
    {
        std::lock_guard<std::mutex> lock(_mutex);
        m["connections"] = num(_stats.connections);
        m["requests"] = num(_stats.requests);
        m["jobs"] = num(_stats.jobs);
        m["dedup_joins"] = num(_stats.dedupJoins);
        m["bad_requests"] = num(_stats.badRequests);
        m["queue_wait_us"] = num(_stats.queueWaitUs);
        m["run_us"] = num(_stats.runUs);
    }
    VerificationService::Stats ss = _service->stats();
    m["full_hits"] = num(ss.fullHits);
    m["cone_hits"] = num(ss.coneHits);
    m["key_memo_hits"] = num(ss.keyMemoHits);
    m["misses"] = num(ss.misses);
    m["stored"] = num(ss.stored);
    formal::GraphCache::Stats cs = _service->graphCache().stats();
    m["graph_hits"] = num(cs.hits);
    m["graph_explores"] = num(cs.explores);
    m["graph_disk_hits"] = num(cs.diskHits);
    m["graph_disk_stores"] = num(cs.diskStores);
    if (ArtifactStore *store = _service->store()) {
        ArtifactStore::Stats as = store->stats();
        m["store_hits"] = num(as.hits);
        m["store_misses"] = num(as.misses);
        m["store_puts"] = num(as.puts);
        m["store_corrupt"] = num(as.corrupt);
        m["store_dir"] = store->dir();
    }
    WorkPool::Stats ps = _pool->stats();
    m["pool_workers"] = num(_pool->workers());
    m["pool_executed"] = num(ps.executed);
    m["pool_stolen"] = num(ps.stolen);
    return m;
}

std::shared_future<Message>
Daemon::submitJob(const Message &request)
{
    const std::string key = jobKeyOf(request);

    std::lock_guard<std::mutex> jobsLock(_jobsMutex);
    auto it = _inflight.find(key);
    if (it != _inflight.end()) {
        std::lock_guard<std::mutex> lock(_mutex);
        ++_stats.dedupJoins;
        return it->second->future;
    }

    auto job = std::make_shared<Job>();
    job->future = job->promise.get_future().share();

    bool stopping;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        stopping = _stopping;
        if (!stopping)
            ++_stats.jobs;
    }

    const Clock::time_point submitted = Clock::now();
    bool queued =
        !stopping &&
        _pool->submit([this, key, request, job, submitted] {
            const Clock::time_point started = Clock::now();
            Message result = runJob(request);
            const Clock::time_point ended = Clock::now();
            {
                std::lock_guard<std::mutex> lock(_mutex);
                _stats.queueWaitUs += microsBetween(submitted, started);
                _stats.runUs += microsBetween(started, ended);
            }
            {
                std::lock_guard<std::mutex> lock(_jobsMutex);
                _inflight.erase(key);
            }
            job->fulfill(std::move(result));
        });
    if (!queued) {
        job->fulfill(errorMessage("daemon is shutting down"));
        return job->future;
    }

    _inflight[key] = job;
    return job->future;
}

Message
Daemon::runJob(const Message &request)
{
    const std::string testName = field(request, "test", "");
    const litmus::Test *test = findSuiteTest(testName);
    if (!test)
        return errorMessage("unknown test '" + testName + "'");

    const uspec::Model *model = nullptr;
    core::RunOptions options;
    std::string error;
    if (!decodeJob(request, &model, &options, &error))
        return errorMessage(error);

    core::TestRun run;
    try {
        run = _service->runTest(*test, *model, options);
    } catch (const std::exception &e) {
        return errorMessage(std::string("verification failed: ") +
                            e.what());
    }

    Message r{{"status", "ok"}};
    r["test"] = run.testName;
    r["verified"] = run.verified() ? "1" : "0";
    r["props"] = num(static_cast<std::uint64_t>(run.numProperties));
    r["proven"] =
        num(static_cast<std::uint64_t>(run.verify.numProven()));
    r["bounded"] =
        num(static_cast<std::uint64_t>(run.verify.numBounded()));
    r["falsified"] =
        num(static_cast<std::uint64_t>(run.verify.numFalsified()));
    r["cover"] = run.verify.coverUnreachable
                     ? "unreachable"
                     : (run.verify.coverReached ? "reached"
                                                : "bounded");
    r["served"] = run.servedFromStore ? "1" : "0";
    r["cone_key"] = hex16(run.coneKey);
    r["engine"] = run.verify.engineUsed;
    char ms[32];
    std::snprintf(ms, sizeof ms, "%.3f", run.totalSeconds * 1e3);
    r["ms"] = ms;
    return r;
}

Daemon::Stats
Daemon::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

} // namespace rtlcheck::service
