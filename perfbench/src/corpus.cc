#include "corpus.hh"

#include <fstream>
#include <sstream>

#include "litmus/parser.hh"
#include "litmus/suite.hh"
#include "litmus/synth.hh"

namespace perfbench {

using namespace rtlcheck;

std::uint64_t
Rng::next()
{
    std::uint64_t z = (_state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::size_t
Rng::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

std::vector<std::string>
splitCorpus(const std::string &text)
{
    std::vector<std::string> blocks;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("test ", 0) == 0)
            blocks.emplace_back();
        if (!blocks.empty() && !line.empty())
            blocks.back() += line + '\n';
    }
    return blocks;
}

std::string
synthesizeCorpus(std::size_t count, std::uint32_t seed)
{
    litmus::synth::SynthOptions options;
    options.keep = litmus::synth::KeepFilter::ScForbidden;
    litmus::synth::SynthResult result = litmus::synth::synthesize(options);

    std::vector<const litmus::Test *> fresh;
    for (const litmus::synth::SynthesizedTest &t : result.tests)
        if (t.classic.empty())
            fresh.push_back(&t.test);
    Rng rng(seed);
    rng.shuffle(fresh);
    if (fresh.size() > count)
        fresh.resize(count);

    std::string text;
    for (const litmus::Test *t : fresh)
        text += litmus::renderTest(*t);
    return text;
}

namespace {

bool
readFile(const std::string &path, std::string *text, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    *text = buf.str();
    return true;
}

} // namespace

bool
loadTests(const std::string &dataDir, Inputs *inputs, std::string *error)
{
    std::string text;
    if (!readFile(dataDir + "/corpus.litmus", &text, error))
        return false;
    inputs->corpus.clear();
    for (const std::string &block : splitCorpus(text))
        inputs->corpus.push_back(litmus::parseTest(block));
    if (inputs->corpus.empty()) {
        *error = dataDir + "/corpus.litmus holds no tests";
        return false;
    }
    inputs->paper = litmus::standardSuite();
    inputs->fences = litmus::fenceSuite();
    return true;
}

bool
loadInputs(const std::string &dataDir, Inputs *inputs, std::string *error)
{
    inputs->oracle = Oracle();
    return loadTests(dataDir, inputs, error) &&
           inputs->oracle.load(dataDir + "/expected.tsv", error);
}

} // namespace perfbench
