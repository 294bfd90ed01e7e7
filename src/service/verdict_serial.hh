/**
 * @file
 * Verdict (TestRun) serialization and content-key derivation for the
 * persistent artifact store.
 *
 * ## Keys
 *
 * A verdict is a pure function of the prepared test artifacts — the
 * patched design, the generated predicates/assumptions/assertions —
 * plus the engine configuration and the runner's ablation flags. Two
 * keys are derived from that content:
 *
 *  - `full`: mixes in the whole-design fingerprint
 *    (rtl::designFingerprint). Always sound; a hit reproduces every
 *    byte of the original result, witnesses included.
 *
 *  - `cone`: mixes in only the cone-of-influence fingerprint rooted
 *    at the predicate signals (rtl::coneFingerprint). After an RTL
 *    edit outside a test's predicate cone, this key is *unchanged*,
 *    which is what lets incremental re-verification answer the test
 *    from the store without re-running anything.
 *
 * Cone-key reuse is deliberately narrower than full-key reuse.
 * Predicate truth values — hence property statuses, cover outcomes,
 * and minimal violation depths — are functions of the cone alone,
 * but witness *byte strings* and graph statistics are functions of
 * the whole design (state deduplication sees out-of-cone registers).
 * So a verdict is published under its cone key only when it is
 * `coneReusable`: a complete, uncancelled, unbounded explicit-engine
 * run with a clean outcome (no witnesses to go stale). Anything
 * carrying a witness or a truncation bound reuses only via the full
 * key, where byte identity is trivially guaranteed.
 *
 * InitialPin assumption values enter both keys through the
 * assumption digest (pins override words of the initial-state image,
 * so two runs differing only in pinned values must never alias), and
 * memory/ROM init images enter through the design and cone
 * fingerprints.
 *
 * Strings (test names, pin memories, every property's SVA text) are
 * hashed eight bytes at a time with hashBytes. The key tag
 * ("vkey^v2") changes whenever the derivation does: a store written
 * under another derivation misses and re-verifies once, as content
 * addressing implies.
 *
 * ## Request keys
 *
 * Deriving the verdict keys needs the prepared test, which costs an
 * SoC build and SVA generation. A RequestKey names the same verdict
 * keys by the request's inputs instead: the litmus test (kept whole
 * and compared with Test::operator==), a structural digest of the
 * µspec model's axioms and macros, and the configDigest and
 * optionsDigest the verdict keys mix in. Those are all the inputs of
 * prepareTest and verdictKeysOf except a designPatch, which a
 * std::function cannot key, so a patched request has no RequestKey.
 * The service remembers the verdict keys of each request it has
 * prepared, in process only: the binary that derived a key is the
 * one that reuses it, so no code version needs to enter the key.
 *
 * ## Blob format
 *
 * A flat ByteWriter dump of every TestRun field plus the
 * coneReusable flag, led by a format version that is refused on
 * mismatch. Deterministic: the same run always serializes to the
 * same bytes.
 */

#ifndef RTLCHECK_SERVICE_VERDICT_SERIAL_HH
#define RTLCHECK_SERVICE_VERDICT_SERIAL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rtlcheck/runner.hh"

namespace rtlcheck::service {

/** Bumped on any change to the serialized verdict layout. */
constexpr std::uint32_t kVerdictFormatVersion = 1;

/** The two store keys of one (prepared test, options) pair. */
struct VerdictKeys
{
    std::uint64_t full = 0; ///< exact-design key
    std::uint64_t cone = 0; ///< predicate-cone key
    /** The config qualifies for cone reuse (complete explicit
     *  exploration: results are cone-determined when clean). */
    bool coneEligible = false;
    std::uint64_t designFp = 0; ///< rtl::designFingerprint
    std::uint64_t coneFp = 0;   ///< rtl::coneFingerprint at the roots
};

VerdictKeys verdictKeysOf(const core::PreparedTest &prep,
                          const core::RunOptions &options);

/** A request as the service's key table matches it (see the file
 *  comment). Two requests with equal RequestKeys have equal
 *  VerdictKeys. */
struct RequestKey
{
    litmus::Test test;
    std::uint64_t model = 0;   ///< structural digest of the model
    std::uint64_t config = 0;  ///< configDigest(options.config)
    std::uint64_t options = 0; ///< optionsDigest(options)

    bool operator==(const RequestKey &o) const = default;
};

/** Picks a RequestKey's bucket from the test name and the digests;
 *  operator== decides a match. */
struct RequestKeyHash
{
    std::size_t operator()(const RequestKey &k) const;
};

/** nullopt when `options.designPatch` is set. */
std::optional<RequestKey> requestKeyOf(const litmus::Test &test,
                                       const uspec::Model &model,
                                       const core::RunOptions &options);

/** A verdict as stored: the run plus its reuse class. */
struct StoredVerdict
{
    core::TestRun run;
    bool coneReusable = false;
};

/** Is this freshly computed run safe to publish under its cone key?
 *  (See the file comment for why clean + complete is required.) */
bool coneReusable(const core::TestRun &run, const VerdictKeys &keys);

std::vector<std::uint8_t> serializeVerdict(const StoredVerdict &v);

/** nullopt on truncation, corruption, or version mismatch. */
std::optional<StoredVerdict>
deserializeVerdict(const std::vector<std::uint8_t> &bytes,
                   std::string *error = nullptr);

} // namespace rtlcheck::service

#endif // RTLCHECK_SERVICE_VERDICT_SERIAL_HH
