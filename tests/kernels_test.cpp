// Differential property suite for the SIMD kernel layer: every backend
// kern::available() reports runnable on this machine is compared against
// the portable scalar reference, and every output — updated rows, mask
// words, booleans — must be byte-identical.
//
// Input classes deliberately target the places vector code goes wrong:
//   - full-range u64 values (the sign-bias compare must survive mod-2^64
//     sequence wrap, i.e. operands straddling the sign bit);
//   - values clustered at ~0ULL (wrap boundary itself);
//   - all-equal vectors (every compare is a tie);
//   - lengths 0, 1, odd lengths around every lane width, and n = 1024
//     (the cluster-size ceiling), so scalar tails of every length run;
//   - misaligned buffers: the kernels promise unaligned loads, so an
//     8-byte-aligned-but-not-32 pointer must behave identically.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/co/kernels/kernels.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace co::proto::kern {
namespace {

// Lengths hit every vector-width boundary (4-lane AVX2, 32-byte all_set
// blocks) plus both ends of the supported range.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8,  9,   15,  16, 17,
                                31, 32, 33, 63, 64, 65, 127, 257, 1024};

enum class Dist {
  kSmall,     // values in [0, 64): realistic young-run sequence numbers
  kFull,      // full-range u64: compares straddle the sign bit
  kNearWrap,  // within 3 of ~0ULL: mod-2^64 wrap boundary
  kAllEqual,  // one value everywhere: every compare ties
};
const Dist kDists[] = {Dist::kSmall, Dist::kFull, Dist::kNearWrap,
                       Dist::kAllEqual};

const char* dist_name(Dist d) {
  switch (d) {
    case Dist::kSmall: return "small";
    case Dist::kFull: return "full";
    case Dist::kNearWrap: return "near_wrap";
    case Dist::kAllEqual: return "all_equal";
  }
  return "?";
}

std::vector<SeqNo> make_vec(Rng& rng, std::size_t n, Dist d) {
  std::vector<SeqNo> v(n);
  const SeqNo equal = rng.next_u64();
  for (std::size_t k = 0; k < n; ++k) {
    switch (d) {
      case Dist::kSmall: v[k] = rng.next_below(64); break;
      case Dist::kFull: v[k] = rng.next_u64(); break;
      case Dist::kNearWrap: v[k] = ~SeqNo{0} - rng.next_below(4); break;
      case Dist::kAllEqual: v[k] = equal; break;
    }
  }
  return v;
}

/// A buffer whose data() is 8-byte aligned but guaranteed NOT 32-byte
/// aligned: one SeqNo into an over-allocated vector. Exercises the
/// unaligned-load promise of every backend.
struct Misaligned {
  explicit Misaligned(const std::vector<SeqNo>& src) : store(src.size() + 1) {
    std::memcpy(store.data() + 1, src.data(), src.size() * sizeof(SeqNo));
  }
  SeqNo* data() { return store.data() + 1; }
  std::vector<SeqNo> store;
};

std::vector<const KernelOps*> simd_backends() {
  std::vector<const KernelOps*> out;
  for (const KernelOps* ops : available())
    if (std::string_view(ops->name) != "scalar") out.push_back(ops);
  return out;
}

const KernelOps& scalar() {
  const KernelOps* s = by_name("scalar");
  EXPECT_NE(s, nullptr);
  return *s;
}

std::string ctx(const KernelOps* ops, std::size_t n, Dist d, int rep) {
  return std::string("backend=") + ops->name + " n=" + std::to_string(n) +
         " dist=" + dist_name(d) + " rep=" + std::to_string(rep);
}

TEST(Kernels, BackendsAreRegistered) {
  const auto all = available();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all.front()->name, "scalar");
  // selected() must be one of the runnable backends.
  bool found = false;
  for (const KernelOps* ops : all) found |= ops == &selected();
  EXPECT_TRUE(found) << "selected() returned an unlisted backend: "
                     << selected().name;
  EXPECT_EQ(by_name("no_such_backend"), nullptr);
}

TEST(Kernels, MergeMaxMatchesScalar) {
  Rng rng(0xA11CE);
  for (const KernelOps* ops : simd_backends()) {
    for (std::size_t n : kLengths) {
      for (Dist d : kDists) {
        for (int rep = 0; rep < 6; ++rep) {
          const auto row0 = make_vec(rng, n, d);
          const auto ack = make_vec(rng, n, d);
          // mins: sometimes the true column min (== row), sometimes junk.
          auto mins = rep % 2 == 0 ? row0 : make_vec(rng, n, d);
          Misaligned ack_m(ack), mins_m(mins);

          auto row_s = row0;
          auto row_v = row0;
          Misaligned row_vm(row0);
          const bool dirty_s =
              scalar().merge_max(row_s.data(), ack.data(), mins.data(), n);
          const bool dirty_v =
              ops->merge_max(row_v.data(), ack.data(), mins.data(), n);
          const bool dirty_vm =
              ops->merge_max(row_vm.data(), ack_m.data(), mins_m.data(), n);
          EXPECT_EQ(dirty_s, dirty_v) << ctx(ops, n, d, rep);
          EXPECT_EQ(dirty_s, dirty_vm) << ctx(ops, n, d, rep) << " misaligned";
          EXPECT_EQ(row_s, row_v) << ctx(ops, n, d, rep);
          EXPECT_TRUE(std::memcmp(row_s.data(), row_vm.data(),
                                  n * sizeof(SeqNo)) == 0)
              << ctx(ops, n, d, rep) << " misaligned";
        }
      }
    }
  }
}

TEST(Kernels, ColumnMinsMatchesScalar) {
  Rng rng(0xB0B);
  const std::size_t kRowCounts[] = {0, 1, 2, 3, 5, 8};
  for (const KernelOps* ops : simd_backends()) {
    for (std::size_t cols : kLengths) {
      for (Dist d : kDists) {
        for (std::size_t rows : kRowCounts) {
          // Padded stride, as SeqTable uses: pad lanes hold junk the kernel
          // must never read into a live column.
          const std::size_t stride = (cols + 7) & ~std::size_t{7};
          std::vector<SeqNo> table(rows * stride, ~SeqNo{0} - 1);
          for (std::size_t r = 0; r < rows; ++r) {
            const auto row = make_vec(rng, cols, d);
            std::memcpy(table.data() + r * stride, row.data(),
                        cols * sizeof(SeqNo));
          }
          std::vector<SeqNo> out_s(cols, 0xDEAD), out_v(cols, 0xBEEF);
          scalar().column_mins(table.data(), rows, cols, stride, out_s.data());
          ops->column_mins(table.data(), rows, cols, stride, out_v.data());
          EXPECT_EQ(out_s, out_v)
              << ctx(ops, cols, d, static_cast<int>(rows)) << " rows=" << rows;
        }
      }
    }
  }
}

TEST(Kernels, LossScanMatchesScalar) {
  Rng rng(0xF2);
  for (const KernelOps* ops : simd_backends()) {
    for (std::size_t n : kLengths) {
      for (Dist d : kDists) {
        for (int rep = 0; rep < 6; ++rep) {
          auto ack = make_vec(rng, n, d);
          // Sprinkle exact zeros so the ack[k] > 0 guard branches both ways
          // even in the full-range and near-wrap classes.
          for (std::size_t k = 0; k < n; ++k)
            if (rng.next_bool(0.2)) ack[k] = 0;
          const auto req = make_vec(rng, n, d);
          const auto km0 = make_vec(rng, n, d);
          Misaligned ack_m(ack), req_m(req);

          auto km_s = km0;
          auto km_v = km0;
          std::vector<std::uint64_t> mask_s(mask_words(n), ~0ull);
          std::vector<std::uint64_t> mask_v(mask_words(n), 0x5555);
          scalar().loss_scan(ack.data(), req.data(), km_s.data(), n,
                             mask_s.data());
          ops->loss_scan(ack_m.data(), req_m.data(), km_v.data(), n,
                         mask_v.data());
          EXPECT_EQ(km_s, km_v) << ctx(ops, n, d, rep);
          EXPECT_EQ(mask_s, mask_v) << ctx(ops, n, d, rep);
          // Contract: unused high bits of the last word are zero.
          if (n % 64 != 0 && !mask_s.empty()) {
            EXPECT_EQ(mask_s.back() >> (n % 64), 0u) << ctx(ops, n, d, rep);
          }
        }
      }
    }
  }
}

TEST(Kernels, LtMaskMatchesScalar) {
  Rng rng(0x17);
  for (const KernelOps* ops : simd_backends()) {
    for (std::size_t n : kLengths) {
      for (Dist d : kDists) {
        for (int rep = 0; rep < 6; ++rep) {
          const auto a = make_vec(rng, n, d);
          const auto b = make_vec(rng, n, d);
          Misaligned a_m(a), b_m(b);
          std::vector<std::uint64_t> mask_s(mask_words(n), ~0ull);
          std::vector<std::uint64_t> mask_v(mask_words(n), 0xAAAA);
          scalar().lt_mask(a.data(), b.data(), n, mask_s.data());
          ops->lt_mask(a_m.data(), b_m.data(), n, mask_v.data());
          EXPECT_EQ(mask_s, mask_v) << ctx(ops, n, d, rep);
          if (n % 64 != 0 && !mask_s.empty()) {
            EXPECT_EQ(mask_s.back() >> (n % 64), 0u) << ctx(ops, n, d, rep);
          }
        }
      }
    }
  }
}

TEST(Kernels, CausalGateMatchesScalar) {
  Rng rng(0xCA);
  for (const KernelOps* ops : simd_backends()) {
    for (std::size_t n : kLengths) {
      for (Dist d : kDists) {
        for (int rep = 0; rep < 8; ++rep) {
          const auto high = make_vec(rng, n, d);
          // Bias toward the pass path (ack <= high + 1) with occasional
          // violations, so both outcomes and every skip position occur.
          // high[k] = ~0 makes high[k] + 1 wrap to 0: the mod-2^64 add.
          std::vector<SeqNo> ack(n);
          for (std::size_t k = 0; k < n; ++k) {
            ack[k] = rng.next_bool(0.9) ? high[k] + rng.next_below(2)
                                        : high[k] + 2 + rng.next_below(9);
          }
          Misaligned ack_m(ack), high_m(high);
          const std::size_t skips[] = {0, n / 2, n == 0 ? 0 : n - 1, n,
                                       n + 57};
          for (std::size_t skip : skips) {
            const bool ok_s =
                scalar().causal_gate(ack.data(), high.data(), n, skip);
            const bool ok_v =
                ops->causal_gate(ack_m.data(), high_m.data(), n, skip);
            EXPECT_EQ(ok_s, ok_v)
                << ctx(ops, n, d, rep) << " skip=" << skip;
          }
        }
      }
    }
  }
}

TEST(Kernels, AllSetMatchesScalar) {
  Rng rng(0xA5);
  for (const KernelOps* ops : simd_backends()) {
    for (std::size_t n : kLengths) {
      for (int rep = 0; rep < 10; ++rep) {
        std::vector<std::uint8_t> flags(n, 1);
        // rep 0: all set; otherwise clear a few lanes (often exactly one,
        // which the skip exemption may or may not cover).
        if (rep > 0)
          for (std::size_t k = 0; k < n; ++k)
            if (rng.next_bool(rep < 5 ? 0.02 : 0.4)) flags[k] = 0;
        const std::size_t skips[] = {0, n / 2, n == 0 ? 0 : n - 1, n, n + 9};
        for (std::size_t skip : skips) {
          const bool ok_s = scalar().all_set(flags.data(), n, skip);
          const bool ok_v = ops->all_set(flags.data(), n, skip);
          EXPECT_EQ(ok_s, ok_v) << "backend=" << ops->name << " n=" << n
                                << " rep=" << rep << " skip=" << skip;
        }
      }
    }
  }
}

}  // namespace
}  // namespace co::proto::kern
