/**
 * @file
 * Verdict oracle and failure accounting.
 *
 * The expected verdict of every (test, design, config) the workloads
 * run is checked in (data/expected.tsv), recorded with plain
 * core::runTest at the commit that introduced the benchmark. A
 * verdict is reduced to a signature: the cover outcome with its
 * witness length, then each property's status with its bound depth
 * (Bounded) or counterexample length (Falsified), runs of equal
 * statuses written "status*count", e.g.
 *
 *     cover=reached:9 props=P*12,B5,F7*2
 *
 * Every verdict a workload produces is compared against that file;
 * on top, a fixed-design verdict of an SC-forbidden test must be
 * clean, and every reached-cover witness must replay in the
 * simulator (core::witnessExhibitsOutcome). Each check is one
 * attempted operation; a mismatch is a failed one, and any failure
 * makes the run exit non-zero.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "formal/engine.hh"
#include "litmus/test.hh"
#include "vscale/soc.hh"

namespace perfbench {

/** The oracle's reduction of one verdict (see the file comment). */
std::string signatureOf(const rtlcheck::formal::VerifyResult &r);

/** Bit-identity digest: the signature plus every witness byte. */
std::uint64_t digestOf(const rtlcheck::formal::VerifyResult &r);

/** What a daemon `verify` reply reports, derived from a signature. */
struct ReplyCounts
{
    int proven = 0;
    int bounded = 0;
    int falsified = 0;
    std::string cover; ///< unreachable | reached | bounded
    bool verified = false;
};
ReplyCounts replyCountsOf(const std::string &signature);

const char *designName(rtlcheck::vscale::MemoryVariant variant);

class Oracle
{
  public:
    /** Parse "test<TAB>design<TAB>config<TAB>signature" lines ('#'
     *  starts a comment). False with *error set on a bad line. */
    bool parse(const std::string &text, std::string *error);
    bool load(const std::string &path, std::string *error);

    void set(const std::string &test, const std::string &design,
             const std::string &config, const std::string &signature);
    /** Null when the oracle has no entry. */
    const std::string *find(const std::string &test,
                            const std::string &design,
                            const std::string &config) const;

    /** The file form, sorted by key. */
    std::string render() const;

  private:
    std::map<std::string, std::string> _expected;
};

/** Attempted/failed operation counts; safe to share across threads. */
class Ledger
{
  public:
    void attempt(std::uint64_t n = 1);
    void fail(const std::string &why);

    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    /** The first few failure messages. */
    std::vector<std::string> failures() const;

  private:
    mutable std::mutex _mutex;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
    std::vector<std::string> _failures;
};

class VerdictChecker
{
  public:
    VerdictChecker(const Oracle &oracle, Ledger &ledger)
        : _oracle(oracle), _ledger(ledger)
    {
    }

    /** Classify `tests` with litmus::ScExecutor once, up front. */
    void registerTests(const std::vector<rtlcheck::litmus::Test> &tests);

    /** One attempted operation: compare a verdict against the oracle
     *  and the SC rule, and queue its cover witness for replay.
     *  False (and one failure counted) on any mismatch. */
    bool check(const rtlcheck::litmus::Test &test,
               rtlcheck::vscale::MemoryVariant variant,
               const std::string &config,
               const rtlcheck::formal::VerifyResult &result);

    /** One attempted operation: a daemon `verify` reply must be ok,
     *  carry the oracle's counts, verify an SC-forbidden test on the
     *  fixed design, and (when `mustBeServed`) come from the store. */
    bool checkReply(const rtlcheck::litmus::Test &test,
                    rtlcheck::vscale::MemoryVariant variant,
                    const std::string &config,
                    const std::map<std::string, std::string> &reply,
                    bool mustBeServed);

    /** Replay every queued witness not replayed before; each replay
     *  is one attempted operation. Never call it inside a timed
     *  region. */
    void replayPending();

  private:
    struct Replay
    {
        const rtlcheck::litmus::Test *test;
        rtlcheck::vscale::MemoryVariant variant;
        std::vector<std::uint8_t> inputs;
    };

    const Oracle &_oracle;
    Ledger &_ledger;
    std::set<std::string> _scForbidden;
    std::mutex _mutex; ///< guards the two members below
    std::set<std::string> _queued;
    std::vector<Replay> _pending;
};

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
