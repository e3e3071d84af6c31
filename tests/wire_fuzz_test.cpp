// Adversarial wire-codec tests: try_decode() must treat the buffer as
// untrusted input — truncations, bit flips, garbage, and hostile length
// prefixes return nullopt; they never throw, crash, or read out of bounds.
//
// Companion to wire_test.cpp (which covers the happy-path round-trips).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <variant>
#include <vector>

#include "src/co/core.h"
#include "src/co/effects.h"
#include "src/co/wire.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"

namespace co::proto {
namespace {

CoPdu sample_data(std::size_t n) {
  CoPdu p;
  p.cid = 0xc0ffee;
  p.src = 2;
  p.seq = 41;
  p.ack.assign(n, 7);
  p.buf = 9;
  p.data = {1, 2, 3, 4, 5, 6, 7, 8};
  return p;
}

RetPdu sample_ret() {
  RetPdu r;
  r.cid = 0xc0ffee;
  r.src = 1;
  r.lsrc = 0;
  r.lseq = 12;
  r.ack = {3, 4, 5};
  r.buf = 2;
  return r;
}

/// A frame: the messages' encodings back to back, built the way the host
/// packs them.
std::vector<std::uint8_t> frame_of(const std::vector<Message>& msgs) {
  std::vector<std::uint8_t> frame;
  for (const Message& m : msgs) encode_append(m, frame);
  return frame;
}

/// Data, RET, and an ack-only PDU: the three shapes a frame mixes.
std::vector<Message> mixed_messages() {
  CoPdu ack_only = sample_data(4);
  ack_only.seq = 42;
  ack_only.data.clear();
  return {Message(sample_data(4)), Message(sample_ret()), Message(ack_only)};
}

TEST(WireFuzz, ValidBuffersDecode) {
  EXPECT_TRUE(try_decode(encode(Message(sample_data(4)))).has_value());
  EXPECT_TRUE(try_decode(encode(Message(sample_ret()))).has_value());
}

// A frame is the plain concatenation of the single-message images, and it
// decodes back to the same messages in the same order.
TEST(WireFuzz, MixedFrameRoundTripsInOrder) {
  const std::vector<Message> msgs = mixed_messages();
  const std::vector<std::uint8_t> frame = frame_of(msgs);
  std::vector<std::uint8_t> concatenated;
  for (const Message& m : msgs) {
    const auto bytes = encode(m);
    concatenated.insert(concatenated.end(), bytes.begin(), bytes.end());
  }
  EXPECT_EQ(frame, concatenated);

  std::vector<Message> out;
  ASSERT_TRUE(try_decode_frame(frame, out));
  ASSERT_EQ(out.size(), msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i)
    EXPECT_EQ(encode(out[i]), encode(msgs[i])) << "message " << i;
  EXPECT_TRUE(std::holds_alternative<RetPdu>(out[1]));
}

// Every proper prefix of a 3-message frame that cuts a message is rejected
// whole and appends nothing. (A cut exactly between two messages is a
// valid shorter frame — a frame carries no count — and decodes to the
// messages before the cut; UDP delivers datagrams whole or flags them
// truncated, so the receiver never sees such a cut.)
TEST(WireFuzz, EveryFramePrefixDecodesAllOrNothing) {
  const std::vector<Message> msgs = mixed_messages();
  const std::vector<std::uint8_t> frame = frame_of(msgs);
  std::vector<std::size_t> boundaries;
  std::size_t end = 0;
  for (const Message& m : msgs) boundaries.push_back(end += encode(m).size());

  for (std::size_t len = 0; len < frame.size(); ++len) {
    std::vector<Message> out = {Message(sample_ret())};  // prior content
    const bool ok = try_decode_frame(
        std::span<const std::uint8_t>(frame.data(), len), out);
    const auto at = std::find(boundaries.begin(), boundaries.end(), len);
    if (at == boundaries.end()) {
      EXPECT_FALSE(ok) << "prefix length " << len;
      EXPECT_EQ(out.size(), 1u) << "prefix length " << len;
    } else {
      EXPECT_TRUE(ok) << "prefix length " << len;
      EXPECT_EQ(out.size(), 1u + static_cast<std::size_t>(
                                     at - boundaries.begin() + 1));
    }
  }
}

// A valid message followed by junk is rejected whole — by the frame
// decoder (nothing appended) as by the single-message one.
TEST(WireFuzz, FrameWithTrailingJunkIsRejectedWhole) {
  const std::vector<std::vector<std::uint8_t>> junks = {
      {0x00}, {0x99, 0x01}, {0x01, 0x80}, {0x02}};
  for (const auto& junk : junks) {
    auto bytes = frame_of(mixed_messages());
    bytes.insert(bytes.end(), junk.begin(), junk.end());
    std::vector<Message> out;
    EXPECT_FALSE(try_decode_frame(bytes, out));
    EXPECT_TRUE(out.empty());

    auto single = encode(Message(sample_data(4)));
    single.insert(single.end(), junk.begin(), junk.end());
    EXPECT_EQ(try_decode(single), std::nullopt);
    EXPECT_FALSE(try_decode_frame(single, out));
    EXPECT_TRUE(out.empty());
  }
  std::vector<Message> out;
  EXPECT_FALSE(try_decode_frame({}, out));  // an empty datagram is no frame
}

// Every proper prefix of a valid message is truncated input: nullopt, no
// throw. (Exhaustive, not sampled — encoded PDUs are tens of bytes.)
TEST(WireFuzz, EveryTruncationIsRejectedGracefully) {
  for (const Message& msg :
       {Message(sample_data(6)), Message(sample_ret())}) {
    const auto bytes = encode(msg);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const auto r = try_decode(
          std::span<const std::uint8_t>(bytes.data(), len));
      EXPECT_EQ(r, std::nullopt) << "prefix length " << len;
    }
  }
}

// Single-bit flips anywhere in a message or a frame either decode to
// *some* message(s) or are rejected — never crash, and a rejected frame
// appends nothing. (ASan/UBSan builds make "never crash" also mean "never
// over-read"; scripts/check.sh runs this under both.)
TEST(WireFuzz, EveryBitFlipIsHandled) {
  for (const auto& bytes :
       {encode(Message(sample_data(5))), frame_of(mixed_messages())}) {
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = bytes;
        mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
        (void)try_decode(mutated);  // must not throw or crash
        std::vector<Message> out;
        if (!try_decode_frame(mutated, out)) {
          EXPECT_TRUE(out.empty());
        }
      }
    }
  }
}

// Regression: a payload length prefix close to 2^64 used to wrap the
// ByteReader bounds check (pos_ + n overflowed std::size_t) and over-read.
// The codec must reject it, not trust it.
TEST(WireFuzz, HugeLengthPrefixIsRejected) {
  ByteWriter w;
  w.u8(1);        // CoPdu tag
  w.u32(0xc0ffee);
  w.varint(2);    // src
  w.varint(41);   // seq
  w.varint(0);    // empty ack vector
  w.varint(9);    // buf
  w.u8(0);        // dst = everyone
  w.varint(0xffffffffffffffffULL);  // hostile payload length
  const auto r = try_decode(w.data());
  EXPECT_EQ(r, std::nullopt);

  // And an oversized ack-vector length is caught by the cluster-size cap.
  ByteWriter w2;
  w2.u8(1);
  w2.u32(0xc0ffee);
  w2.varint(2);
  w2.varint(41);
  w2.varint(0xffffffffffffffffULL);  // hostile ack-vector length
  EXPECT_EQ(try_decode(w2.data()), std::nullopt);
}

TEST(WireFuzz, TruncatedVarintIsRejected) {
  // 0x80 continuation bits forever, then EOF mid-varint.
  const std::vector<std::uint8_t> bytes = {1, 0x80, 0x80, 0x80};
  EXPECT_EQ(try_decode(bytes), std::nullopt);
}

TEST(WireFuzz, UnknownTagIsRejected) {
  for (std::uint8_t tag = 0; tag < 255; ++tag) {
    const std::vector<std::uint8_t> bytes = {tag};
    // Tag-only buffers are always short; decoding must not throw.
    (void)try_decode(bytes);
  }
  EXPECT_EQ(try_decode(std::vector<std::uint8_t>{99, 0, 0, 0}), std::nullopt);
}

TEST(WireFuzz, RandomGarbageNeverCrashes) {
  Rng rng(0xfeedULL);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    (void)try_decode(junk);  // any result is fine; crashing is not
    std::vector<Message> out;
    (void)try_decode_frame(junk, out);
  }
}

// Golden bytes: the delta-coded ACK layout, pinned byte for byte. Any
// codec change that alters the wire image must update this test (and is a
// protocol compatibility break — say so in DESIGN.md).
TEST(WireFuzz, DeltaAckGoldenBytes) {
  CoPdu p;
  p.cid = 7;
  p.src = 2;
  p.seq = 5;
  p.ack = {4, 5, 7};  // deltas from seq: -1, 0, +2 -> zig-zag 1, 0, 4
  p.buf = 3;
  p.dst = kEveryone;
  p.data = {0xAA};
  const std::vector<std::uint8_t> golden = {
      0x01,                    // data tag
      0x07, 0x00, 0x00, 0x00,  // cid (LE u32)
      0x02,                    // src
      0x05,                    // seq
      0x03, 0x01, 0x00, 0x04,  // ack count + zig-zag deltas from seq
      0x03,                    // buf
      0x00,                    // dst = everyone
      0x01, 0xAA,              // payload length + bytes
  };
  EXPECT_EQ(encode(Message(p)), golden);
  // A one-message frame is the same image.
  EXPECT_EQ(frame_of({Message(p)}), golden);
}

// Property: delta-coded ACK vectors round-trip exactly for near-monotone
// vectors — including entries straddling 0 and 2^64-1, where the mod-2^64
// delta wraps. The codec's zig-zag arithmetic must be exact, not merely
// "close for sane inputs".
TEST(WireFuzz, DeltaAckRoundTripsNearMonotoneAndWrapEdges) {
  Rng rng(0xacecafeULL);
  const SeqNo edges[] = {0, 1, 2, 100, (SeqNo{1} << 32) - 1, SeqNo{1} << 32,
                         SeqNo{0} - 2, SeqNo{0} - 1};  // incl. 2^64-1
  for (int iter = 0; iter < 500; ++iter) {
    CoPdu p = sample_data(2 + rng.next_below(12));
    p.seq = edges[rng.next_below(std::size(edges))] + rng.next_below(8);
    for (auto& a : p.ack) {
      // Near-monotone around seq (the protocol's steady state), with
      // occasional far outliers and exact edge values thrown in.
      switch (rng.next_below(4)) {
        case 0: a = p.seq + rng.next_below(16); break;
        case 1: a = p.seq - rng.next_below(16); break;  // may wrap below 0
        case 2: a = edges[rng.next_below(std::size(edges))]; break;
        default: a = rng.next_u64(); break;
      }
    }
    const auto bytes = encode(Message(p));
    const Message decoded = decode(bytes);
    EXPECT_EQ(std::get<PduRef>(decoded)->ack, p.ack) << "iter " << iter;

    RetPdu r = sample_ret();
    r.lseq = p.seq;
    r.ack = p.ack;
    const Message rdec = decode(encode(Message(r)));
    EXPECT_EQ(std::get<RetPdu>(rdec).ack, r.ack) << "iter " << iter;
  }
}

// The point of delta coding: confirmations cost ~1 byte each even when the
// absolute sequence numbers are deep into multi-byte varint territory.
TEST(WireFuzz, DeltaAckStaysCompactAtHighSeq) {
  CoPdu p = sample_data(64);
  p.seq = SeqNo{1} << 40;  // 6-byte varint as an absolute value
  for (std::size_t k = 0; k < p.ack.size(); ++k)
    p.ack[k] = p.seq - 32 + k;  // healthy cluster: everyone near seq
  const auto with_acks = encode(Message(p)).size();
  CoPdu empty = p;
  empty.ack.clear();
  const auto without = encode(Message(empty)).size();
  EXPECT_LE(with_acks - without, 1 + 64 * 2);  // count + ~1-2 bytes each
}

// Regression: a wire-decodable PDU whose ACK vector is SHORTER than the
// cluster size is valid at the codec layer (the wire cap is
// kMaxClusterSize, not n — the codec does not know n) but must be dropped
// at ingest. Before the kernel layer's batched ACK scans, the short vector
// merely truncated the loss sweep; with fixed-width n-lane kernels it
// would read past the vector, so the core now rejects the shape outright
// and counts it in malformed_dropped.
TEST(WireFuzz, ShortAckVectorIsDroppedByCoreNotOverRead) {
  CoConfig cfg;
  cfg.n = 3;
  cfg.window = 8;
  cfg.defer_timeout = 2 * time::kMillisecond;
  cfg.retransmit_timeout = 4 * time::kMillisecond;
  cfg.assumed_peer_buffer = 4096;
  CoCore core(0, cfg);
  EffectBatch out;

  // Data PDU with a 1-entry ACK vector in a 3-cluster, via the real codec.
  CoPdu p;
  p.cid = 1;
  p.src = 1;
  p.seq = 1;
  p.ack = {5};  // shorter than n = 3
  p.buf = 4096;
  p.data = {42};
  const auto decoded = try_decode(encode(Message(p)));
  ASSERT_TRUE(decoded.has_value());
  core.step(Input{0, 4096, MessageArrived{1, *decoded}}, out);
  EXPECT_EQ(core.stats().snapshot().malformed_dropped, 1u);
  EXPECT_EQ(core.stats().snapshot().pdus_accepted, 0u);

  // RET variant: same shape defect on the retransmission-request path.
  RetPdu r;
  r.cid = 1;
  r.src = 1;
  r.lsrc = 0;
  r.lseq = 1;
  r.ack = {3, 4};  // shorter than n = 3
  r.buf = 4096;
  const auto decoded_ret = try_decode(encode(Message(r)));
  ASSERT_TRUE(decoded_ret.has_value());
  core.step(Input{0, 4096, MessageArrived{1, *decoded_ret}}, out);
  EXPECT_EQ(core.stats().snapshot().malformed_dropped, 2u);

  // Oversized vectors (n < size <= kMaxClusterSize) are equally malformed.
  p.ack = {5, 5, 5, 5};
  const auto decoded_long = try_decode(encode(Message(p)));
  ASSERT_TRUE(decoded_long.has_value());
  core.step(Input{0, 4096, MessageArrived{1, *decoded_long}}, out);
  EXPECT_EQ(core.stats().snapshot().malformed_dropped, 3u);

  // A well-formed PDU from the same peer still goes through: the drops
  // above left no residue in the knowledge tables.
  p.ack = {1, 2, 1};
  p.seq = 1;
  const auto decoded_ok = try_decode(encode(Message(p)));
  ASSERT_TRUE(decoded_ok.has_value());
  core.step(Input{0, 4096, MessageArrived{1, *decoded_ok}}, out);
  EXPECT_EQ(core.stats().snapshot().malformed_dropped, 3u);
  EXPECT_EQ(core.stats().snapshot().pdus_accepted, 1u);
}

// try_decode agrees with decode on well-formed input.
TEST(WireFuzz, AgreesWithThrowingDecode) {
  Rng rng(0xabcdULL);
  for (int iter = 0; iter < 200; ++iter) {
    CoPdu p = sample_data(1 + rng.next_below(10));
    p.seq = rng.next_below(1u << 20);
    p.data.assign(rng.next_below(40), static_cast<std::uint8_t>(iter));
    const auto bytes = encode(Message(p));
    const auto soft = try_decode(bytes);
    ASSERT_TRUE(soft.has_value());
    EXPECT_EQ(encode(*soft), bytes);
  }
}

}  // namespace
}  // namespace co::proto
