#include "cache/digest.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace tia {

namespace {

constexpr std::uint64_t c1 = 0x87c37b91114253d5ull;
constexpr std::uint64_t c2 = 0x4cf5ad432745937full;

inline std::uint64_t
rotl64(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

inline std::uint64_t
fmix64(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
}

/** Little-endian 64-bit load that tolerates unaligned addresses. */
inline std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v; // all supported hosts are little-endian (asserted below)
}

/** Mix one 16-byte block into the running state. */
inline void
mixBlock(std::uint64_t &h1, std::uint64_t &h2, const std::uint8_t *block)
{
    std::uint64_t k1 = load64(block);
    std::uint64_t k2 = load64(block + 8);

    k1 *= c1;
    k1 = rotl64(k1, 31);
    k1 *= c2;
    h1 ^= k1;
    h1 = rotl64(h1, 27);
    h1 += h2;
    h1 = h1 * 5 + 0x52dce729;

    k2 *= c2;
    k2 = rotl64(k2, 33);
    k2 *= c1;
    h2 ^= k2;
    h2 = rotl64(h2, 31);
    h2 += h1;
    h2 = h2 * 5 + 0x38495ab5;
}

} // namespace

// The persistent tier stores raw digests, so the value must not depend
// on host byte order. Everything this repo targets is little-endian;
// make a byte-order change loud instead of silent.
static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian hosts unsupported");
static_assert(std::endian::native == std::endian::little,
              "digest128 assumes a little-endian host (the cache "
              "file format is defined in little-endian terms)");

Digest128Builder &
Digest128Builder::update(const void *data, std::size_t size)
{
    if (size == 0)
        return *this;
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    const std::size_t pending = length_ & 15;
    length_ += size;
    // Local copies: the input bytes may alias the members, which would
    // otherwise force a store and reload per block.
    std::uint64_t h1 = h1_;
    std::uint64_t h2 = h2_;

    // Top up a partial block left by the previous update first.
    if (pending != 0) {
        const std::size_t take = std::min(size, 16 - pending);
        std::memcpy(tail_ + pending, bytes, take);
        if (pending + take < 16)
            return *this;
        mixBlock(h1, h2, tail_);
        bytes += take;
        size -= take;
    }
    for (; size >= 16; bytes += 16, size -= 16)
        mixBlock(h1, h2, bytes);
    if (size != 0)
        std::memcpy(tail_, bytes, size);
    h1_ = h1;
    h2_ = h2;
    return *this;
}

Digest128
Digest128Builder::finish() const
{
    std::uint64_t h1 = h1_;
    std::uint64_t h2 = h2_;
    const std::uint8_t *tail = tail_;
    std::uint64_t k1 = 0;
    std::uint64_t k2 = 0;
    switch (length_ & 15) {
      case 15: k2 ^= std::uint64_t(tail[14]) << 48; [[fallthrough]];
      case 14: k2 ^= std::uint64_t(tail[13]) << 40; [[fallthrough]];
      case 13: k2 ^= std::uint64_t(tail[12]) << 32; [[fallthrough]];
      case 12: k2 ^= std::uint64_t(tail[11]) << 24; [[fallthrough]];
      case 11: k2 ^= std::uint64_t(tail[10]) << 16; [[fallthrough]];
      case 10: k2 ^= std::uint64_t(tail[9]) << 8; [[fallthrough]];
      case 9:
        k2 ^= std::uint64_t(tail[8]);
        k2 *= c2;
        k2 = rotl64(k2, 33);
        k2 *= c1;
        h2 ^= k2;
        [[fallthrough]];
      case 8: k1 ^= std::uint64_t(tail[7]) << 56; [[fallthrough]];
      case 7: k1 ^= std::uint64_t(tail[6]) << 48; [[fallthrough]];
      case 6: k1 ^= std::uint64_t(tail[5]) << 40; [[fallthrough]];
      case 5: k1 ^= std::uint64_t(tail[4]) << 32; [[fallthrough]];
      case 4: k1 ^= std::uint64_t(tail[3]) << 24; [[fallthrough]];
      case 3: k1 ^= std::uint64_t(tail[2]) << 16; [[fallthrough]];
      case 2: k1 ^= std::uint64_t(tail[1]) << 8; [[fallthrough]];
      case 1:
        k1 ^= std::uint64_t(tail[0]);
        k1 *= c1;
        k1 = rotl64(k1, 31);
        k1 *= c2;
        h1 ^= k1;
        break;
      case 0:
        break;
    }

    h1 ^= length_;
    h2 ^= length_;
    h1 += h2;
    h2 += h1;
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 += h2;
    h2 += h1;
    return {h1, h2};
}

std::string
Digest128::hex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
        out[i] = digits[(hi >> (60 - 4 * i)) & 0xf];
        out[16 + i] = digits[(lo >> (60 - 4 * i)) & 0xf];
    }
    return out;
}

bool
Digest128::fromHex(std::string_view text, Digest128 &out)
{
    if (text.size() != 32)
        return false;
    std::uint64_t parts[2] = {0, 0};
    for (int half = 0; half < 2; ++half) {
        for (int i = 0; i < 16; ++i) {
            const char c = text[half * 16 + i];
            std::uint64_t nibble;
            if (c >= '0' && c <= '9')
                nibble = static_cast<std::uint64_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                nibble = static_cast<std::uint64_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                nibble = static_cast<std::uint64_t>(c - 'A' + 10);
            else
                return false;
            parts[half] = (parts[half] << 4) | nibble;
        }
    }
    out = {parts[0], parts[1]};
    return true;
}

} // namespace tia
