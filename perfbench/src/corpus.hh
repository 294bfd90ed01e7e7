/**
 * @file
 * The benchmark's inputs: the paper's 56 tests, the fence tests the
 * daemon serves, and a checked-in corpus of synthesized SC-forbidden
 * tests (data/corpus.litmus), plus the seeded draws over them.
 *
 * The corpus was rendered once with litmus::synth and
 * litmus::renderTest and is read back as litmus text, so a change to
 * the synthesizer cannot change the benchmark's inputs.
 */

#ifndef PERFBENCH_CORPUS_HH
#define PERFBENCH_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "litmus/test.hh"
#include "oracle.hh"

namespace perfbench {

/** splitmix64: a small, portable, seeded generator, so that a seed
 *  names the same inputs on every standard library. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _state(seed) {}

    std::uint64_t next();
    /** Uniform in [0, n); n > 0. */
    std::size_t below(std::size_t n);

    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t _state;
};

/** Split corpus text into one litmus block per test (each block
 *  starts at a "test" line and runs to the next one). */
std::vector<std::string> splitCorpus(const std::string &text);

/** Render `count` synthesized SC-forbidden shapes that the standard
 *  suite does not already contain, as one corpus text. */
std::string synthesizeCorpus(std::size_t count, std::uint32_t seed);

struct Inputs
{
    std::vector<rtlcheck::litmus::Test> paper;  ///< Figure 13's 56
    std::vector<rtlcheck::litmus::Test> corpus; ///< data/corpus.litmus
    std::vector<rtlcheck::litmus::Test> fences; ///< litmus::fenceSuite
    Oracle oracle;                              ///< data/expected.tsv
};

/** Read the corpus from `dataDir`; take the suites from the library. */
bool loadTests(const std::string &dataDir, Inputs *inputs,
               std::string *error);

/** loadTests, then the oracle. */
bool loadInputs(const std::string &dataDir, Inputs *inputs,
                std::string *error);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_HH
