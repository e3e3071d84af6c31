#include "src/co/wire.h"

#include <stdexcept>

#include "src/common/bytes.h"

namespace co::proto {

namespace {
constexpr std::uint8_t kTagData = 0x01;
constexpr std::uint8_t kTagRet = 0x02;

// ACK vectors are near-monotone around the PDU's own sequence number: a
// healthy sender expects roughly SEQ from everyone (everyone's stream
// advances in lockstep), so ack[k] - SEQ is a small signed number even when
// SEQ itself needs many varint bytes. Encode each entry as the zig-zag of
// its mod-2^64 delta from a base carried earlier in the PDU (SEQ for data
// PDUs, LSEQ for RETs): ~1 byte per confirmation instead of ~SEQ-sized
// varints. The mod-2^64 arithmetic is exact for any inputs — including
// wrap-around edges — so decode inverts it bit-for-bit.
std::uint64_t zigzag_delta(SeqNo value, SeqNo base) {
  const auto d = static_cast<std::int64_t>(value - base);  // mod-2^64 delta
  return (static_cast<std::uint64_t>(d) << 1) ^
         static_cast<std::uint64_t>(d >> 63);
}

SeqNo unzigzag_delta(std::uint64_t z, SeqNo base) {
  const std::uint64_t d = (z >> 1) ^ (~(z & 1) + 1);
  return base + d;  // mod-2^64, inverse of zigzag_delta
}

void put_ack(ByteWriter& w, const std::vector<SeqNo>& ack, SeqNo base) {
  w.varint(ack.size());
  for (const SeqNo a : ack) w.varint(zigzag_delta(a, base));
}

std::vector<SeqNo> get_ack(ByteReader& r, SeqNo base) {
  const std::uint64_t n = r.varint();
  if (n > kMaxClusterSize) throw std::runtime_error("wire: ACK vector too long");
  std::vector<SeqNo> ack(n);
  for (auto& a : ack) a = unzigzag_delta(r.varint(), base);
  return ack;
}

void put(ByteWriter& w, const CoPdu& pdu) {
  w.u8(kTagData);
  w.u32(pdu.cid);
  w.varint(static_cast<std::uint64_t>(pdu.src));
  w.varint(pdu.seq);
  put_ack(w, pdu.ack, pdu.seq);
  w.varint(pdu.buf);
  // Destination set: broadcast-to-all (the paper's §4 case) costs one flag
  // byte; a selective mask (extension) adds its varint encoding.
  if (pdu.dst == kEveryone) {
    w.u8(0);
  } else {
    w.u8(1);
    w.varint(pdu.dst);
  }
  w.bytes(pdu.data);
}

void put(ByteWriter& w, const RetPdu& pdu) {
  w.u8(kTagRet);
  w.u32(pdu.cid);
  w.varint(static_cast<std::uint64_t>(pdu.src));
  w.varint(static_cast<std::uint64_t>(pdu.lsrc));
  w.varint(pdu.lseq);
  put_ack(w, pdu.ack, pdu.lseq);
  w.varint(pdu.buf);
}

void put(ByteWriter& w, const Message& msg) {
  if (const auto* ref = std::get_if<PduRef>(&msg))
    put(w, **ref);
  else
    put(w, std::get<RetPdu>(msg));
}

// Reads exactly one message and leaves `r` just past it: every encoding is
// self-delimiting (a data PDU ends in its length-prefixed payload, a RET in
// its BUF varint), which is what lets a frame concatenate them.
Message read_message(ByteReader& r) {
  const std::uint8_t tag = r.u8();
  if (tag == kTagData) {
    CoPdu p;
    p.cid = r.u32();
    p.src = static_cast<EntityId>(r.varint());
    p.seq = r.varint();
    p.ack = get_ack(r, p.seq);
    p.buf = static_cast<BufUnits>(r.varint());
    const std::uint8_t dst_flag = r.u8();
    if (dst_flag == 0) {
      p.dst = kEveryone;
    } else if (dst_flag == 1) {
      p.dst = r.varint();
    } else {
      throw std::runtime_error("wire: bad destination flag");
    }
    p.data = r.bytes();
    return Message(PduRef(std::move(p)));
  }
  if (tag == kTagRet) {
    RetPdu p;
    p.cid = r.u32();
    p.src = static_cast<EntityId>(r.varint());
    p.lsrc = static_cast<EntityId>(r.varint());
    p.lseq = r.varint();
    p.ack = get_ack(r, p.lseq);
    p.buf = static_cast<BufUnits>(r.varint());
    return Message(std::move(p));
  }
  throw std::runtime_error("wire: unknown message tag");
}
}  // namespace

std::vector<std::uint8_t> encode(const CoPdu& pdu) {
  ByteWriter w;
  put(w, pdu);
  return w.take();
}

std::vector<std::uint8_t> encode(const RetPdu& pdu) {
  ByteWriter w;
  put(w, pdu);
  return w.take();
}

std::vector<std::uint8_t> encode(const Message& msg) {
  ByteWriter w;
  put(w, msg);
  return w.take();
}

void encode_append(const Message& msg, std::vector<std::uint8_t>& frame) {
  ByteWriter w(std::move(frame));
  put(w, msg);
  frame = w.take();
}

Message decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  Message msg = read_message(r);
  if (!r.exhausted()) throw std::runtime_error("wire: trailing bytes");
  return msg;
}

std::optional<Message> try_decode(std::span<const std::uint8_t> bytes) noexcept {
  try {
    return decode(bytes);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

bool try_decode_frame(std::span<const std::uint8_t> bytes,
                      std::vector<Message>& out) noexcept {
  const std::size_t mark = out.size();
  try {
    ByteReader r(bytes);
    do {
      out.push_back(read_message(r));
    } while (!r.exhausted());
    return true;
  } catch (const std::exception&) {
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(mark), out.end());
    return false;
  }
}

std::size_t wire_size(const Message& msg) { return encode(msg).size(); }

}  // namespace co::proto
