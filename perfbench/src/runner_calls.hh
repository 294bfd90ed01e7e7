/**
 * @file
 * The runner's per-test call sequence (rtlcheck/runner.cc), made
 * from the benchmark with a span around each public call:
 *
 *   core::prepareTest -> rtl::Netlist -> AssumptionSet::resolve
 *     -> (GraphCache::obtain) -> formal::verify ...
 *
 * The traced runs go through these instead of core::runTest /
 * core::runSuiteSweep so that each layer gets its own span; the
 * verdicts they produce are checked bit-identical to the untraced
 * run's, so the sequence cannot drift from runner.cc unnoticed.
 */

#ifndef PERFBENCH_RUNNER_CALLS_HH
#define PERFBENCH_RUNNER_CALLS_HH

#include <memory>
#include <vector>

#include "rtlcheck/runner.hh"
#include "spans.hh"

namespace perfbench {

/** core::prepareTest. Its SoC-build part (lower + buildSoc, reported
 *  by the call as buildSeconds - generationSeconds) becomes a child
 *  span "vscale::lower+buildSoc" at the start of the call. */
rtlcheck::core::PreparedTest
tracedPrepare(const rtlcheck::litmus::Test &test,
              const rtlcheck::uspec::Model &model,
              const rtlcheck::core::RunOptions &options, TraceLane *lane,
              std::uint64_t verdict);

/** The netlist the runner elaborates: optimize passes plus a
 *  cone-of-influence reduction rooted at every predicate signal. */
std::unique_ptr<rtlcheck::rtl::Netlist>
tracedElaborate(const rtlcheck::core::PreparedTest &prep, TraceLane *lane,
                std::uint64_t verdict);

std::vector<rtlcheck::formal::Assumption>
tracedResolve(const rtlcheck::core::PreparedTest &prep,
              const rtlcheck::rtl::Netlist &netlist, TraceLane *lane,
              std::uint64_t verdict);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_CALLS_HH
