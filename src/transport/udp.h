// Thin RAII wrapper over a non-blocking IPv4 UDP socket, plus the batched
// send/receive surface the sharded host runtime drives it through.
//
// The simulator is the primary substrate of this repository; this transport
// exists so the SAME protocol entity can run over real sockets (see
// src/host). Loopback/LAN scope only — exactly the
// deployment the paper's implementation used (workstations on one Ethernet).
//
// Batching: send_many()/receive_many() move whole bursts of datagrams per
// syscall via sendmmsg(2)/recvmmsg(2) where the platform provides them
// (Linux), with a portable one-datagram-at-a-time fallback elsewhere. The
// receive side fills a caller-owned RecvBatch whose buffers are allocated
// once and reused forever, so the socket hot path allocates nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace co::transport {

struct UdpEndpoint {
  std::uint32_t ip_host_order = 0;  // e.g. 127.0.0.1 = 0x7f000001
  std::uint16_t port = 0;

  static UdpEndpoint loopback(std::uint16_t port) {
    return UdpEndpoint{0x7f000001u, port};
  }
  friend bool operator==(const UdpEndpoint&, const UdpEndpoint&) = default;
};

struct Datagram {
  UdpEndpoint from;
  std::vector<std::uint8_t> payload;
};

/// One outgoing datagram of a send_many burst. The payload is borrowed —
/// a broadcast fan-out points every destination at the same encoded bytes.
struct TxDatagram {
  UdpEndpoint to;
  std::span<const std::uint8_t> payload;
};

/// Outcome of a send_many burst: `sent` datagrams reached the kernel,
/// `dropped` were discarded because the socket buffer was full (UDP
/// semantics the protocol is built to survive).
struct TxResult {
  std::size_t sent = 0;
  std::size_t dropped = 0;
};

/// Caller-owned receive workspace for UdpSocket::receive_many: `count`
/// datagram slots of `slot_capacity` bytes each, allocated once. After a
/// receive_many the first size() slots hold one datagram each; payloads
/// larger than a slot are truncated (truncated(i) reports it) and counted
/// by the caller as decode errors — the protocol treats them as loss.
class RecvBatch {
 public:
  explicit RecvBatch(std::size_t count = 32,
                     std::size_t slot_capacity = 2048);
  ~RecvBatch();  // out of line: Sys is incomplete here
  RecvBatch(const RecvBatch&) = delete;
  RecvBatch& operator=(const RecvBatch&) = delete;

  std::size_t capacity() const { return lens_.size(); }
  std::size_t slot_capacity() const { return slot_capacity_; }

  /// Datagrams filled by the last receive_many.
  std::size_t size() const { return size_; }
  std::span<const std::uint8_t> payload(std::size_t i) const;
  UdpEndpoint from(std::size_t i) const;
  bool truncated(std::size_t i) const;

 private:
  friend class UdpSocket;
  std::size_t slot_capacity_;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> buffers_;  // count * slot_capacity, flat
  std::vector<std::uint32_t> lens_;    // received length per slot
  // Datagram exceeded its slot: set from msg_len > slot (Linux recvmmsg
  // with MSG_TRUNC) or the MSG_TRUNC msg_flags bit (portable recvmsg) —
  // both paths detect, never silently clip.
  std::vector<std::uint8_t> trunc_;
  std::vector<UdpEndpoint> froms_;
  // Opaque per-slot syscall scaffolding (mmsghdr/iovec/sockaddr arrays on
  // Linux); sized and wired by the socket on first use.
  struct Sys;
  std::unique_ptr<Sys> sys_;
};

class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;

  /// Bind a non-blocking socket to 127.0.0.1:port (port 0 = ephemeral).
  /// Throws std::system_error on failure.
  void bind_loopback(std::uint16_t port = 0);

  bool is_open() const { return fd_ >= 0; }
  void close();

  /// Local endpoint after bind (resolves the ephemeral port).
  UdpEndpoint local_endpoint() const;

  /// Non-blocking send; returns false if the kernel buffer was full (the
  /// datagram is dropped — UDP semantics the protocol is built to survive).
  bool send_to(const UdpEndpoint& to, std::span<const std::uint8_t> bytes);

  /// Batched non-blocking send: one sendmmsg(2) per burst on Linux, a
  /// send_to loop elsewhere. Datagrams the kernel refuses for lack of
  /// buffer space are dropped and counted, never retried.
  TxResult send_many(std::span<const TxDatagram> msgs);

  /// Non-blocking receive; nullopt when nothing is queued.
  std::optional<Datagram> receive();

  /// Batched non-blocking receive: drain up to batch.capacity() queued
  /// datagrams into `batch` with one recvmmsg(2) on Linux (a receive loop
  /// elsewhere). Returns the number of datagrams read (== batch.size()).
  std::size_t receive_many(RecvBatch& batch);

  /// Block until readable or `timeout_ms` elapsed (0 = just poll,
  /// negative = no timeout). EINTR restarts the wait with the residual
  /// budget — a stream of signals cannot starve it into an instant
  /// timeout.
  bool wait_readable(int timeout_ms);

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace co::transport
