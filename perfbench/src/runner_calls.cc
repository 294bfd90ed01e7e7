#include "runner_calls.hh"

namespace perfbench {

using namespace rtlcheck;

core::PreparedTest
tracedPrepare(const litmus::Test &test, const uspec::Model &model,
              const core::RunOptions &options, TraceLane *lane,
              std::uint64_t verdict)
{
    auto span = traceSpan(lane, "rtlcheck", "core::prepareTest", verdict);
    const double startUs = lane ? lane->nowUs() : 0.0;
    core::PreparedTest prep = core::prepareTest(test, model, options);
    if (lane) {
        const double socUs =
            (prep.buildSeconds - prep.proto.generationSeconds) * 1e6;
        lane->record("vscale", "vscale::lower+buildSoc", startUs,
                     startUs + socUs, verdict);
    }
    return prep;
}

std::unique_ptr<rtl::Netlist>
tracedElaborate(const core::PreparedTest &prep, TraceLane *lane,
                std::uint64_t verdict)
{
    auto span = traceSpan(lane, "rtl", "rtl::Netlist", verdict);
    rtl::NetlistOptions options;
    options.coneOfInfluence = true;
    for (int i = 0; i < prep.preds.size(); ++i)
        options.keepSignals.push_back(prep.preds.signalOf(i));
    return std::make_unique<rtl::Netlist>(prep.design, options);
}

std::vector<formal::Assumption>
tracedResolve(const core::PreparedTest &prep, const rtl::Netlist &netlist,
              TraceLane *lane, std::uint64_t verdict)
{
    auto span =
        traceSpan(lane, "rtlcheck", "AssumptionSet::resolve", verdict);
    return prep.assumptions.resolve(netlist);
}

} // namespace perfbench
