#include "mapsec/crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "kernels.hpp"

namespace mapsec::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace

namespace dispatch {

// The pre-dispatch compression loop, now the scalar kernel.
void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t nblocks) {
  while (nblocks--) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
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
    blocks += 64;
  }
}

// Multi-buffer reference path: each lane advanced through the scalar
// compressor in lane order. The AVX2 kernel must match this bit for bit.
void sha256_mb_scalar(std::uint32_t* const* states,
                      const std::uint8_t* const* blocks, std::size_t nlanes,
                      std::size_t nblocks) {
  for (std::size_t l = 0; l < nlanes; ++l)
    sha256_compress_scalar(states[l], blocks[l], nblocks);
}

}  // namespace dispatch

void Sha256::reset() {
  h_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
        0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::process_block(const std::uint8_t* block) {
  dispatch::sha256_compress()(h_.data(), block, 1);
}

void Sha256::update(ConstBytes data) {
  // An empty span may carry a null data(); memcpy from null is undefined
  // even for zero bytes.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buf_len_, data.size());
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == kBlockSize) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  // All whole blocks in one dispatched call: the active backend keeps the
  // chaining state in registers across the entire span.
  const std::size_t nblocks = (data.size() - off) / kBlockSize;
  if (nblocks > 0) {
    dispatch::sha256_compress()(h_.data(), data.data() + off, nblocks);
    off += nblocks * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

void Sha256::finish_into(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, kBlockSize - buf_len_);
    process_block(buf_.data());
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  store_be64(buf_.data() + 56, bit_len);
  process_block(buf_.data());
  buf_len_ = 0;

  for (int i = 0; i < 8; ++i) store_be32(out + 4 * i, h_[i]);
}

Bytes Sha256::finish() {
  Bytes digest(kDigestSize);
  finish_into(digest.data());
  return digest;
}

Bytes Sha256::hash(ConstBytes data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

void Sha256::hash_into(ConstBytes data, std::uint8_t* out) {
  Sha256 h;
  h.update(data);
  h.finish_into(out);
}

std::vector<Bytes> sha256_many(const std::vector<ConstBytes>& msgs) {
  const std::size_t n = msgs.size();
  std::vector<Bytes> digests(n);
  if (n == 0) return digests;

  // Pad every message up front (FIPS 180-2 Merkle–Damgård padding), then
  // drive all lanes lockstep through the multi-buffer compressor: each
  // round advances every still-active lane by the minimum remaining block
  // count, so a lane's state transitions are exactly the ones Sha256::hash
  // would produce and the digests are byte-identical by construction.
  std::vector<Bytes> padded(n);
  std::vector<std::array<std::uint32_t, 8>> states(
      n, {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au, 0x510e527fu,
          0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u});
  std::vector<std::size_t> remaining(n);
  std::vector<const std::uint8_t*> cursor(n);
  for (std::size_t l = 0; l < n; ++l) {
    const std::size_t len = msgs[l].size();
    const std::size_t total = ((len + 8) / Sha256::kBlockSize + 1) *
                              Sha256::kBlockSize;
    padded[l].assign(total, 0);
    std::memcpy(padded[l].data(), msgs[l].data(), len);
    padded[l][len] = 0x80;
    store_be64(padded[l].data() + total - 8, std::uint64_t{len} * 8);
    remaining[l] = total / Sha256::kBlockSize;
    cursor[l] = padded[l].data();
  }

  std::vector<std::uint32_t*> lane_states;
  std::vector<const std::uint8_t*> lane_blocks;
  std::vector<std::size_t> lane_index;
  for (;;) {
    lane_states.clear();
    lane_blocks.clear();
    lane_index.clear();
    std::size_t step = 0;
    for (std::size_t l = 0; l < n; ++l) {
      if (remaining[l] == 0) continue;
      step = step == 0 ? remaining[l] : std::min(step, remaining[l]);
      lane_states.push_back(states[l].data());
      lane_blocks.push_back(cursor[l]);
      lane_index.push_back(l);
    }
    if (lane_index.empty()) break;
    dispatch::sha256_mb()(lane_states.data(), lane_blocks.data(),
                          lane_index.size(), step);
    for (const std::size_t l : lane_index) {
      remaining[l] -= step;
      cursor[l] += step * Sha256::kBlockSize;
    }
  }

  for (std::size_t l = 0; l < n; ++l) {
    digests[l].resize(Sha256::kDigestSize);
    for (int i = 0; i < 8; ++i)
      store_be32(digests[l].data() + 4 * i, states[l][i]);
  }
  return digests;
}

}  // namespace mapsec::crypto
