// Scalar reference backend + the one-shot backend selection.
#include "src/co/kernels/kernels.h"

#include <cstdlib>
#include <cstring>

#include "src/co/kernels/kernels_impl.h"

namespace co::proto::kern {

namespace {

bool s_merge_max(SeqNo* row, const SeqNo* ack, const SeqNo* mins,
                 std::size_t n) {
  bool dirty = false;
  for (std::size_t k = 0; k < n; ++k)
    dirty |= detail::merge_max_lane(row, ack, mins, k);
  return dirty;
}

void s_column_mins(const SeqNo* table, std::size_t rows, std::size_t cols,
                   std::size_t stride, SeqNo* out) {
  if (rows == 0) {
    for (std::size_t k = 0; k < cols; ++k) out[k] = ~SeqNo{0};
    return;
  }
  std::memcpy(out, table, cols * sizeof(SeqNo));
  for (std::size_t r = 1; r < rows; ++r) {
    const SeqNo* row = table + r * stride;
    for (std::size_t k = 0; k < cols; ++k)
      if (row[k] < out[k]) out[k] = row[k];
  }
}

void s_loss_scan(const SeqNo* ack, const SeqNo* req, SeqNo* known_max,
                 std::size_t n, std::uint64_t* mask) {
  for (std::size_t w = 0; w < mask_words(n); ++w) mask[w] = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (detail::loss_scan_lane(ack, req, known_max, k))
      mask[k / 64] |= std::uint64_t{1} << (k % 64);
}

void s_lt_mask(const SeqNo* a, const SeqNo* b, std::size_t n,
               std::uint64_t* mask) {
  for (std::size_t w = 0; w < mask_words(n); ++w) mask[w] = 0;
  detail::lt_mask_tail(a, b, 0, n, mask);
}

bool s_causal_gate(const SeqNo* ack, const SeqNo* high, std::size_t n,
                   std::size_t skip) {
  for (std::size_t j = 0; j < n; ++j) {
    if (j == skip) continue;
    if (ack[j] > high[j] + 1) return false;  // mod-2^64 add, like the caller
  }
  return true;
}

bool s_all_set(const std::uint8_t* flags, std::size_t n, std::size_t skip) {
  for (std::size_t j = 0; j < n; ++j) {
    if (j == skip) continue;
    if (flags[j] == 0) return false;
  }
  return true;
}

constexpr KernelOps kScalarOps = {
    "scalar",     s_merge_max,   s_column_mins,
    s_loss_scan,  s_lt_mask,     s_causal_gate,
    s_all_set,
};

}  // namespace

// Provided by kernels_avx2.cpp (x86-64 only); null when the compiler could
// not build the backend.
#if defined(__x86_64__) || defined(_M_X64)
const KernelOps* avx2_ops();
#endif

namespace {

/// The AVX2 backend when this build has it and the CPU can run it, else
/// null.
const KernelOps* runnable_avx2() {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return avx2_ops();
#endif
  return nullptr;
}

bool force_scalar_env() {
  const char* v = std::getenv("CO_FORCE_SCALAR");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

const KernelOps* pick() {
  if (force_scalar_env()) return &kScalarOps;
  if (const KernelOps* avx2 = runnable_avx2()) return avx2;
  return &kScalarOps;
}

}  // namespace

const KernelOps& selected() {
  static const KernelOps* const k = pick();
  return *k;
}

const KernelOps* by_name(std::string_view name) {
  if (name == "scalar") return &kScalarOps;
  if (name == "avx2") return runnable_avx2();
  return nullptr;
}

std::vector<const KernelOps*> available() {
  std::vector<const KernelOps*> out{&kScalarOps};
  if (const KernelOps* avx2 = runnable_avx2()) out.push_back(avx2);
  return out;
}

}  // namespace co::proto::kern
