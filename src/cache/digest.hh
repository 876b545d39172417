/**
 * @file
 * 128-bit content digests for the simulation result cache.
 *
 * Cache keys are digests of a canonical byte serialization of every
 * simulation input (cache/serialize.hh), so the digest function must
 * be (a) stable across builds and hosts — the persistent warm tier
 * stores raw digests — and (b) wide enough that collisions are not a
 * practical concern across the >4,000-point design-space sweeps this
 * repo runs. MurmurHash3's 128-bit x64 variant satisfies both: it is
 * a fixed public algorithm with no seed-dependent platform variation
 * (we pin the seed), and 128 bits puts the birthday bound far beyond
 * any realistic key population.
 *
 * This is an integrity/identity hash, not a cryptographic one: the
 * cache defends against corruption and accidental key drift, not
 * against an adversary crafting collisions in their own cache file.
 */

#ifndef TIA_CACHE_DIGEST_HH
#define TIA_CACHE_DIGEST_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace tia {

/** A 128-bit digest, printable as 32 hex digits (hi first). */
struct Digest128
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    /** 32 lowercase hex digits, most significant first. */
    std::string hex() const;

    /** Parse 32 hex digits; returns false on malformed input. */
    static bool fromHex(std::string_view text, Digest128 &out);

    bool operator==(const Digest128 &) const = default;

    /** Lexicographic (hi, lo) order, for ordered containers. */
    auto operator<=>(const Digest128 &) const = default;
};

/**
 * Incremental MurmurHash3 x64 128 (fixed seed): the digest of the
 * concatenation of every update(), for any split of the input. The
 * state is small and copyable, so a caller can digest a shared prefix
 * once and finish many keys from copies of it (cache/run_cache.hh
 * does this for the uarch-independent inputs of a workload).
 */
class Digest128Builder
{
  public:
    /** Append @p size bytes at @p data. */
    Digest128Builder &update(const void *data, std::size_t size);

    Digest128Builder &
    update(std::string_view bytes)
    {
        return update(bytes.data(), bytes.size());
    }

    /** Digest of everything appended so far; the state is unchanged. */
    Digest128 finish() const;

  private:
    static constexpr std::uint64_t kSeed = 0x7469612d73696d63ull; // "tia-simc"

    std::uint64_t h1_ = kSeed;
    std::uint64_t h2_ = kSeed;
    /** Total bytes appended; length_ % 16 of them wait in tail_. */
    std::uint64_t length_ = 0;
    std::uint8_t tail_[16] = {};
};

/** MurmurHash3 x64 128 of @p size bytes at @p data (fixed seed). */
inline Digest128
digest128(const void *data, std::size_t size)
{
    return Digest128Builder().update(data, size).finish();
}

inline Digest128
digest128(std::string_view bytes)
{
    return digest128(bytes.data(), bytes.size());
}

/** Hash functor so Digest128 can key unordered containers. */
struct Digest128Hash
{
    std::size_t
    operator()(const Digest128 &d) const
    {
        // The digest is already uniformly mixed; fold the halves.
        return static_cast<std::size_t>(d.hi ^ (d.lo * 0x9e3779b97f4a7c15ull));
    }
};

} // namespace tia

#endif // TIA_CACHE_DIGEST_HH
