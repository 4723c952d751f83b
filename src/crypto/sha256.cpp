#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SON_SHA256_HAVE_SHANI 1
#include <immintrin.h>
#endif

namespace son::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) { return std::rotr(x, static_cast<int>(n)); }

void compress_scalar(Sha256State& state, const std::uint8_t* p, std::size_t nblocks) {
  while (nblocks-- > 0) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{p[4 * i]} << 24) | (std::uint32_t{p[4 * i + 1]} << 16) |
             (std::uint32_t{p[4 * i + 2]} << 8) | std::uint32_t{p[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    auto [a, b, c, d, e, f, g, h] = state;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
    p += 64;
  }
}

#if SON_SHA256_HAVE_SHANI

// SHA-NI kernel: two rounds per sha256rnds2, message schedule via
// sha256msg1/msg2 (the canonical Intel scheduling; state packed as ABEF/CDGH
// across two xmm registers for the whole multi-block run).
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(Sha256State& state,
                                                                const std::uint8_t* data,
                                                                std::size_t nblocks) {
  const __m128i kShuf = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));    // DCBA
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));    // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                            // CDAB
  st1 = _mm_shuffle_epi32(st1, 0x1B);                                            // EFGH
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);                                    // ABEF
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);                                         // CDGH

  while (nblocks-- > 0) {
    const __m128i abef_save = st0;
    const __m128i cdgh_save = st1;
    __m128i msg, msgtmp;

    // Rounds 0-3.
    __m128i m0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)), kShuf);
    msg = _mm_add_epi32(m0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 4-7.
    __m128i m1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kShuf);
    msg = _mm_add_epi32(m1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m0 = _mm_sha256msg1_epu32(m0, m1);

    // Rounds 8-11.
    __m128i m2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kShuf);
    msg = _mm_add_epi32(m2, _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m1 = _mm_sha256msg1_epu32(m1, m2);

    // Rounds 12-15.
    __m128i m3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kShuf);
    msg = _mm_add_epi32(m3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m3, m2, 4);
    m0 = _mm_add_epi32(m0, msgtmp);
    m0 = _mm_sha256msg2_epu32(m0, m3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m2 = _mm_sha256msg1_epu32(m2, m3);

    // Rounds 16-19.
    msg = _mm_add_epi32(m0, _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m0, m3, 4);
    m1 = _mm_add_epi32(m1, msgtmp);
    m1 = _mm_sha256msg2_epu32(m1, m0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m3 = _mm_sha256msg1_epu32(m3, m0);

    // Rounds 20-23.
    msg = _mm_add_epi32(m1, _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m1, m0, 4);
    m2 = _mm_add_epi32(m2, msgtmp);
    m2 = _mm_sha256msg2_epu32(m2, m1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m0 = _mm_sha256msg1_epu32(m0, m1);

    // Rounds 24-27.
    msg = _mm_add_epi32(m2, _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m2, m1, 4);
    m3 = _mm_add_epi32(m3, msgtmp);
    m3 = _mm_sha256msg2_epu32(m3, m2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m1 = _mm_sha256msg1_epu32(m1, m2);

    // Rounds 28-31.
    msg = _mm_add_epi32(m3, _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m3, m2, 4);
    m0 = _mm_add_epi32(m0, msgtmp);
    m0 = _mm_sha256msg2_epu32(m0, m3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m2 = _mm_sha256msg1_epu32(m2, m3);

    // Rounds 32-35.
    msg = _mm_add_epi32(m0, _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m0, m3, 4);
    m1 = _mm_add_epi32(m1, msgtmp);
    m1 = _mm_sha256msg2_epu32(m1, m0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m3 = _mm_sha256msg1_epu32(m3, m0);

    // Rounds 36-39.
    msg = _mm_add_epi32(m1, _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m1, m0, 4);
    m2 = _mm_add_epi32(m2, msgtmp);
    m2 = _mm_sha256msg2_epu32(m2, m1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m0 = _mm_sha256msg1_epu32(m0, m1);

    // Rounds 40-43.
    msg = _mm_add_epi32(m2, _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m2, m1, 4);
    m3 = _mm_add_epi32(m3, msgtmp);
    m3 = _mm_sha256msg2_epu32(m3, m2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m1 = _mm_sha256msg1_epu32(m1, m2);

    // Rounds 44-47.
    msg = _mm_add_epi32(m3, _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m3, m2, 4);
    m0 = _mm_add_epi32(m0, msgtmp);
    m0 = _mm_sha256msg2_epu32(m0, m3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m2 = _mm_sha256msg1_epu32(m2, m3);

    // Rounds 48-51.
    msg = _mm_add_epi32(m0, _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m0, m3, 4);
    m1 = _mm_add_epi32(m1, msgtmp);
    m1 = _mm_sha256msg2_epu32(m1, m0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m3 = _mm_sha256msg1_epu32(m3, m0);

    // Rounds 52-55.
    msg = _mm_add_epi32(m1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m1, m0, 4);
    m2 = _mm_add_epi32(m2, msgtmp);
    m2 = _mm_sha256msg2_epu32(m2, m1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 56-59.
    msg = _mm_add_epi32(m2, _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(m2, m1, 4);
    m3 = _mm_add_epi32(m3, msgtmp);
    m3 = _mm_sha256msg2_epu32(m3, m2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 60-63.
    msg = _mm_add_epi32(m3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    st0 = _mm_add_epi32(st0, abef_save);
    st1 = _mm_add_epi32(st1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(st0, 0x1B);       // FEBA
  st1 = _mm_shuffle_epi32(st1, 0xB1);       // DCHG
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);    // DCBA
  st1 = _mm_alignr_epi8(st1, tmp, 8);       // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), st1);
}

#endif  // SON_SHA256_HAVE_SHANI

bool detect_shani() {
#if SON_SHA256_HAVE_SHANI
  return __builtin_cpu_supports("sha") != 0;
#else
  return false;
#endif
}

// Dispatch state. Initialized by a dynamic initializer (single-threaded,
// before main), then only rewritten by set_sha256_kernel during
// single-threaded setup phases — concurrent hashing only ever reads it.
// son-analyze: allow(mutable-static) "written once before main by the dispatch initializer; set_sha256_kernel is documented setup-phase-only, so worker threads exclusively read"
Sha256Kernel g_kernel = detect_shani() ? Sha256Kernel::kShaNi : Sha256Kernel::kScalar;

}  // namespace

bool sha256_shani_supported() { return detect_shani(); }

Sha256Kernel sha256_kernel() { return g_kernel; }

const char* to_string(Sha256Kernel k) {
  return k == Sha256Kernel::kShaNi ? "sha-ni" : "scalar";
}

const char* sha256_kernel_name() { return to_string(g_kernel); }

Sha256Kernel set_sha256_kernel(Sha256Kernel k) {
  if (k == Sha256Kernel::kShaNi && !detect_shani()) k = Sha256Kernel::kScalar;
  g_kernel = k;
  return g_kernel;
}

namespace detail {
CompressFn compress_fn(Sha256Kernel k) {
#if SON_SHA256_HAVE_SHANI
  if (k == Sha256Kernel::kShaNi && detect_shani()) return &compress_shani;
#else
  (void)k;
#endif
  return &compress_scalar;
}
}  // namespace detail

void sha256_compress(Sha256State& state, const std::uint8_t* blocks, std::size_t nblocks) {
  detail::compress_fn(g_kernel)(state, blocks, nblocks);
}

void Sha256::reset() {
  state_ = kSha256Iv;
  buffer_len_ = 0;
  total_bytes_ = 0;
}

void Sha256::reset_from(const Sha256State& state, std::uint64_t blocks_absorbed) {
  state_ = state;
  buffer_len_ = 0;
  total_bytes_ = blocks_absorbed * 64;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0 && !data.empty()) {  // an empty span's data() may be null
    const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == 64) {
      compress_(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t whole = (data.size() - off) / 64; whole > 0) {
    compress_(state_, data.data() + off, whole);
    off += whole * 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress_(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_(state_, buffer_.data(), 1);

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest Sha256::hash(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

std::string to_hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t b : d) {
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
  return out;
}

}  // namespace son::crypto
