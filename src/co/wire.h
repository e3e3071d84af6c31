// Wire codec for CO-protocol messages.
//
// The simulator hands typed structs between layers (the paper's entities run
// in one user process per workstation and do the same across layer SAPs);
// the codec exists to (a) measure the on-wire PDU length — experiment E4:
// the PDU carries n receipt confirmations, so its length is O(n) — and
// (b) prove the formats round-trip, which tests exercise. The UDP transport
// (src/transport) ships these bytes for real.
//
// ACK vectors are delta-coded: each entry is the zig-zag varint of its
// mod-2^64 difference from the PDU's SEQ (data) or LSEQ (RET), shrinking
// the O(n) confirmation block to ~1 byte per entry in the steady state.
// tests/wire_fuzz_test.cpp pins the exact bytes (golden test) and
// round-trips adversarial vectors including wrap-around edges.
//
// Frames: every encoding is self-delimiting, so one datagram may carry
// several messages back to back — a frame is the plain concatenation of
// their encodings, with no header, and a one-message frame is byte-for-byte
// the single-message image. The host packs an entity's broadcasts into
// frames (encode_append) and unpacks arrivals with try_decode_frame.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "src/co/pdu.h"

namespace co::proto {

std::vector<std::uint8_t> encode(const CoPdu& pdu);
std::vector<std::uint8_t> encode(const RetPdu& pdu);
std::vector<std::uint8_t> encode(const Message& msg);

/// Decode a message; throws std::out_of_range / std::runtime_error on a
/// malformed buffer.
Message decode(std::span<const std::uint8_t> bytes);

/// Hardened decode for untrusted input (real transports, fuzzers): returns
/// nullopt on any malformed buffer — truncation, bit flips, bad tags,
/// oversized length prefixes — and never throws, crashes or over-reads.
std::optional<Message> try_decode(std::span<const std::uint8_t> bytes) noexcept;

/// Append the encoding of `msg` to `frame` in place — no buffer per message.
void encode_append(const Message& msg, std::vector<std::uint8_t>& frame);

/// Hardened, all-or-nothing decode of a frame (one or more concatenated
/// messages): on success appends every message to `out` in wire order and
/// returns true; if any part of the buffer fails to decode — including an
/// empty buffer or trailing junk after a valid message — appends nothing
/// and returns false. Never throws.
bool try_decode_frame(std::span<const std::uint8_t> bytes,
                      std::vector<Message>& out) noexcept;

/// On-wire size in bytes without materializing the buffer (used by benches).
std::size_t wire_size(const Message& msg);

}  // namespace co::proto
