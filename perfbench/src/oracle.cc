#include "oracle.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/hashing.hh"
#include "litmus/sc_ref.hh"
#include "rtlcheck/runner.hh"

namespace perfbench {

using namespace rtlcheck;

std::string
signatureOf(const formal::VerifyResult &r)
{
    std::string sig = "cover=";
    if (r.coverUnreachable)
        sig += "unreachable";
    else if (r.coverReached)
        sig += "reached";
    else
        sig += "bounded";
    sig += ':' + std::to_string(r.coverWitness ? r.coverWitness->inputs.size()
                                               : 0);
    // Property tokens, with runs of equal ones written "tok*n".
    std::vector<std::string> tokens;
    for (const formal::PropertyResult &p : r.properties) {
        switch (p.status) {
        case formal::ProofStatus::Proven:
            tokens.push_back("P");
            break;
        case formal::ProofStatus::Bounded:
            tokens.push_back('B' + std::to_string(p.boundCycles));
            break;
        case formal::ProofStatus::Falsified:
            tokens.push_back(
                'F' + std::to_string(p.counterexample
                                         ? p.counterexample->inputs.size()
                                         : 0));
            break;
        }
    }
    sig += " props=";
    for (std::size_t i = 0; i < tokens.size();) {
        std::size_t run = 1;
        while (i + run < tokens.size() && tokens[i + run] == tokens[i])
            ++run;
        if (i)
            sig += ',';
        sig += tokens[i];
        if (run > 1)
            sig += '*' + std::to_string(run);
        i += run;
    }
    return sig;
}

namespace {

std::uint64_t
hashBytes(std::uint64_t h, const std::vector<std::uint8_t> &bytes)
{
    h = hashCombine(h, bytes.size());
    for (std::uint8_t b : bytes)
        h = hashCombine(h, b);
    return h;
}

} // namespace

std::uint64_t
digestOf(const formal::VerifyResult &r)
{
    std::uint64_t h = 0;
    for (char c : signatureOf(r))
        h = hashCombine(h, static_cast<unsigned char>(c));
    if (r.coverWitness)
        h = hashBytes(h, r.coverWitness->inputs);
    for (const formal::PropertyResult &p : r.properties)
        if (p.counterexample)
            h = hashBytes(h, p.counterexample->inputs);
    return h;
}

ReplyCounts
replyCountsOf(const std::string &signature)
{
    ReplyCounts c;
    std::size_t colon = signature.find(':');
    c.cover = signature.substr(6, colon - 6);
    std::size_t props = signature.find("props=");
    if (props != std::string::npos) {
        std::istringstream list(signature.substr(props + 6));
        std::string item;
        while (std::getline(list, item, ',')) {
            if (item.empty())
                continue;
            std::size_t star = item.find('*');
            int run = star == std::string::npos
                          ? 1
                          : std::atoi(item.c_str() + star + 1);
            if (item[0] == 'P')
                c.proven += run;
            else if (item[0] == 'B')
                c.bounded += run;
            else if (item[0] == 'F')
                c.falsified += run;
        }
    }
    c.verified = c.cover != "reached" && c.falsified == 0;
    return c;
}

const char *
designName(vscale::MemoryVariant variant)
{
    return variant == vscale::MemoryVariant::Buggy ? "buggy" : "fixed";
}

namespace {

std::string
keyOf(const std::string &test, const std::string &design,
      const std::string &config)
{
    return test + '\t' + design + '\t' + config;
}

} // namespace

bool
Oracle::parse(const std::string &text, std::string *error)
{
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> cols;
        std::istringstream ls(line);
        std::string col;
        while (std::getline(ls, col, '\t'))
            cols.push_back(col);
        if (cols.size() != 4 || cols[3].rfind("cover=", 0) != 0) {
            *error = "line " + std::to_string(lineNo) +
                     ": want test, design, config, signature";
            return false;
        }
        set(cols[0], cols[1], cols[2], cols[3]);
    }
    return true;
}

bool
Oracle::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    return parse(text.str(), error);
}

void
Oracle::set(const std::string &test, const std::string &design,
            const std::string &config, const std::string &signature)
{
    _expected[keyOf(test, design, config)] = signature;
}

const std::string *
Oracle::find(const std::string &test, const std::string &design,
             const std::string &config) const
{
    auto it = _expected.find(keyOf(test, design, config));
    return it == _expected.end() ? nullptr : &it->second;
}

std::string
Oracle::render() const
{
    std::string out =
        "# Expected verdicts: test, design, config, signature.\n"
        "# Regenerate only when the program's verdicts are meant to\n"
        "# change: perfbench --record-oracle <this file>.\n";
    for (const auto &[key, sig] : _expected)
        out += key + '\t' + sig + '\n';
    return out;
}

void
Ledger::attempt(std::uint64_t n)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _attempted += n;
}

void
Ledger::fail(const std::string &why)
{
    std::lock_guard<std::mutex> lock(_mutex);
    ++_failed;
    if (_failures.size() < 20)
        _failures.push_back(why);
}

std::uint64_t
Ledger::attempted() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _attempted;
}

std::uint64_t
Ledger::failed() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _failed;
}

std::vector<std::string>
Ledger::failures() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _failures;
}

void
VerdictChecker::registerTests(const std::vector<litmus::Test> &tests)
{
    for (const litmus::Test &t : tests)
        if (!litmus::ScExecutor(t).outcomeObservable())
            _scForbidden.insert(t.name);
}

bool
VerdictChecker::check(const litmus::Test &test,
                      vscale::MemoryVariant variant,
                      const std::string &config,
                      const formal::VerifyResult &result)
{
    _ledger.attempt();
    const std::string design = designName(variant);
    const std::string where = test.name + '/' + design + '/' + config;
    const std::string sig = signatureOf(result);
    const std::string *want = _oracle.find(test.name, design, config);
    if (!want) {
        _ledger.fail(where + ": no expected verdict");
        return false;
    }
    if (sig != *want) {
        _ledger.fail(where + ": got '" + sig + "', expected '" + *want +
                     "'");
        return false;
    }
    if (variant == vscale::MemoryVariant::Fixed &&
        _scForbidden.count(test.name) && !result.clean()) {
        _ledger.fail(where + ": SC-forbidden test fails on the fixed "
                             "design");
        return false;
    }
    if (result.coverReached && result.coverWitness) {
        // Keyed on the witness, not the config: Full_Proof and Hybrid
        // often return the same one.
        std::string key = test.name + '/' + design + '/';
        key.append(result.coverWitness->inputs.begin(),
                   result.coverWitness->inputs.end());
        std::lock_guard<std::mutex> lock(_mutex);
        if (_queued.insert(key).second)
            _pending.push_back(
                {&test, variant, result.coverWitness->inputs});
    }
    return true;
}

bool
VerdictChecker::checkReply(const litmus::Test &test,
                           vscale::MemoryVariant variant,
                           const std::string &config,
                           const std::map<std::string, std::string> &reply,
                           bool mustBeServed)
{
    _ledger.attempt();
    const std::string design = designName(variant);
    const std::string where = test.name + '/' + design + '/' + config;
    auto field = [&](const char *key) {
        auto it = reply.find(key);
        return it == reply.end() ? std::string() : it->second;
    };
    if (field("status") != "ok") {
        _ledger.fail(where + ": daemon replied '" + field("error") + "'");
        return false;
    }
    if (mustBeServed && field("served") != "1") {
        _ledger.fail(where + ": warm request was not served from the "
                             "store");
        return false;
    }
    const std::string *want = _oracle.find(test.name, design, config);
    if (!want) {
        _ledger.fail(where + ": no expected verdict");
        return false;
    }
    const ReplyCounts c = replyCountsOf(*want);
    const std::string verified = c.verified ? "1" : "0";
    if (field("proven") != std::to_string(c.proven) ||
        field("bounded") != std::to_string(c.bounded) ||
        field("falsified") != std::to_string(c.falsified) ||
        field("cover") != c.cover || field("verified") != verified) {
        _ledger.fail(where + ": reply disagrees with '" + *want + "'");
        return false;
    }
    if (variant == vscale::MemoryVariant::Fixed &&
        _scForbidden.count(test.name) && verified != "1") {
        _ledger.fail(where + ": SC-forbidden test fails on the fixed "
                             "design");
        return false;
    }
    return true;
}

void
VerdictChecker::replayPending()
{
    std::vector<Replay> pending;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        pending.swap(_pending);
    }
    for (const Replay &r : pending) {
        _ledger.attempt();
        core::RunOptions options;
        options.variant = r.variant;
        formal::WitnessTrace trace;
        trace.inputs = r.inputs;
        if (!core::witnessExhibitsOutcome(*r.test, options, trace))
            _ledger.fail(r.test->name + '/' + designName(r.variant) +
                         ": cover witness does not replay to the "
                         "outcome");
    }
}

} // namespace perfbench
