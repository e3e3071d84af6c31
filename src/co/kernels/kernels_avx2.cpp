// AVX2 backend — 4 sequence-number lanes per op. Compiled with -mavx2 and
// only ever invoked after a runtime cpuid check (kernels.cpp::pick), so
// linking this TU is safe on any x86-64 machine.
//
// Unsigned u64 compares come from the usual sign-bias trick: flip the sign
// bit of both operands and use the signed VPCMPGTQ. That is exact for every
// input, including mod-2^64 sequence wrap.
#if defined(__x86_64__) || defined(_M_X64)
#if !defined(__AVX2__)
// Compiler lacks -mavx2 (the build system only sets it when supported):
// this build has no AVX2 backend, so selected() stays on scalar.
#include "src/co/kernels/kernels.h"

namespace co::proto::kern {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace co::proto::kern
#else

#include <immintrin.h>

#include <algorithm>

#include "src/co/kernels/kernels_impl.h"

namespace co::proto::kern {

namespace {

inline __m256i cmpgt_u64(__m256i a, __m256i b) {
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  return _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                            _mm256_xor_si256(b, bias));
}

inline __m256i max_u64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(b, a, cmpgt_u64(a, b));
}

/// Four mask bits (bit 0 = lane 0) from a per-u64-lane mask.
inline unsigned mask4(__m256i m) {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
}

bool v_merge_max(SeqNo* row, const SeqNo* ack, const SeqNo* mins,
                 std::size_t n) {
  __m256i dirty = _mm256_setzero_si256();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + k));
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ack + k));
    const __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mins + k));
    const __m256i gt = cmpgt_u64(a, r);
    dirty = _mm256_or_si256(dirty, _mm256_and_si256(gt, _mm256_cmpeq_epi64(r, m)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + k),
                        _mm256_blendv_epi8(r, a, gt));
  }
  bool d = !_mm256_testz_si256(dirty, dirty);
  for (; k < n; ++k) d |= detail::merge_max_lane(row, ack, mins, k);
  return d;
}

void v_column_mins(const SeqNo* table, std::size_t rows, std::size_t cols,
                   std::size_t stride, SeqNo* out) {
  if (rows == 0) {
    for (std::size_t k = 0; k < cols; ++k) out[k] = ~SeqNo{0};
    return;
  }
  std::copy_n(table, cols, out);
  for (std::size_t r = 1; r < rows; ++r) {
    const SeqNo* row = table + r * stride;
    std::size_t k = 0;
    for (; k + 4 <= cols; k += 4) {
      const __m256i o = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + k));
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + k));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                          _mm256_blendv_epi8(o, v, cmpgt_u64(o, v)));
    }
    for (; k < cols; ++k)
      if (row[k] < out[k]) out[k] = row[k];
  }
}

void v_loss_scan(const SeqNo* ack, const SeqNo* req, SeqNo* known_max,
                 std::size_t n, std::uint64_t* mask) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  for (std::size_t w = 0; w < mask_words(n); ++w) {
    std::uint64_t bits = 0;
    const std::size_t base = w * 64;
    const std::size_t limit = n - base < 64 ? n - base : 64;
    std::size_t i = 0;
    for (; i + 4 <= limit; i += 4) {
      const std::size_t k = base + i;
      const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ack + k));
      const __m256i q = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(req + k));
      const __m256i km = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(known_max + k));
      const __m256i am1 = _mm256_sub_epi64(a, one);
      const __m256i nonzero = _mm256_xor_si256(
          _mm256_cmpeq_epi64(a, zero), _mm256_set1_epi64x(-1));  // ack != 0
      const __m256i take = _mm256_and_si256(nonzero, cmpgt_u64(am1, km));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(known_max + k),
                          _mm256_blendv_epi8(km, am1, take));
      bits |= static_cast<std::uint64_t>(mask4(cmpgt_u64(a, q))) << i;
    }
    for (; i < limit; ++i) {
      const std::size_t k = base + i;
      if (detail::loss_scan_lane(ack, req, known_max, k))
        bits |= std::uint64_t{1} << i;
    }
    mask[w] = bits;
  }
}

void v_lt_mask(const SeqNo* a, const SeqNo* b, std::size_t n,
               std::uint64_t* mask) {
  for (std::size_t w = 0; w < mask_words(n); ++w) {
    std::uint64_t bits = 0;
    const std::size_t base = w * 64;
    const std::size_t limit = n - base < 64 ? n - base : 64;
    std::size_t i = 0;
    for (; i + 4 <= limit; i += 4) {
      const std::size_t k = base + i;
      const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
      const __m256i y = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + k));
      bits |= static_cast<std::uint64_t>(mask4(cmpgt_u64(y, x))) << i;
    }
    mask[w] = bits;
    if (i < limit) detail::lt_mask_tail(a, b, base + i, base + limit, mask);
  }
}

bool v_causal_gate(const SeqNo* ack, const SeqNo* high, std::size_t n,
                   std::size_t skip) {
  const __m256i one = _mm256_set1_epi64x(1);
  for (std::size_t w = 0; w < mask_words(n); ++w) {
    std::uint64_t bits = 0;
    const std::size_t base = w * 64;
    const std::size_t limit = n - base < 64 ? n - base : 64;
    std::size_t i = 0;
    for (; i + 4 <= limit; i += 4) {
      const std::size_t k = base + i;
      const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ack + k));
      const __m256i h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(high + k));
      bits |= static_cast<std::uint64_t>(mask4(cmpgt_u64(a, _mm256_add_epi64(h, one))))
              << i;
    }
    for (; i < limit; ++i) {
      const std::size_t k = base + i;
      if (ack[k] > high[k] + 1) bits |= std::uint64_t{1} << i;
    }
    if (skip >= base && skip < base + limit)
      bits &= ~(std::uint64_t{1} << (skip - base));
    if (bits != 0) return false;
  }
  return true;
}

bool v_all_set(const std::uint8_t* flags, std::size_t n, std::size_t skip) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    const __m256i f = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(flags + j));
    unsigned zeros =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(f, zero)));
    if (skip >= j && skip < j + 32) zeros &= ~(1u << (skip - j));
    if (zeros != 0) return false;
  }
  for (; j < n; ++j) {
    if (j == skip) continue;
    if (flags[j] == 0) return false;
  }
  return true;
}

constexpr KernelOps kAvx2Ops = {
    "avx2",       v_merge_max,   v_column_mins,
    v_loss_scan,  v_lt_mask,     v_causal_gate,
    v_all_set,
};

}  // namespace

const KernelOps* avx2_ops() { return &kAvx2Ops; }

}  // namespace co::proto::kern

#endif  // __AVX2__
#endif  // x86-64
