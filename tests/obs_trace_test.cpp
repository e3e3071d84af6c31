// Binary event tracing: record layout, the event vocabulary, ring
// policies, .cotrace format round-trip + strict rejection, the Tracer hot
// path (single- and multi-threaded), and the fatal-signal flight dump.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/trace/crash.h"
#include "src/obs/trace/events.h"
#include "src/obs/trace/file.h"
#include "src/obs/trace/record.h"
#include "src/obs/trace/ring.h"
#include "src/obs/trace/tracer.h"

namespace co::obs::trace {
namespace {

Record make_record(time::Tick at, std::uint64_t seq, EventId event,
                   EntityId actor = 0, EntityId origin = 0,
                   std::uint32_t arg = 0) {
  Record r;
  r.at = at;
  r.seq = seq;
  r.origin = origin;
  r.actor = actor;
  r.event = static_cast<std::uint16_t>(event);
  r.stream = 0;
  r.arg = arg;
  return r;
}

bool same_records(const std::vector<Record>& a, const std::vector<Record>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Record)) == 0);
}

// ---------------------------------------------------------------------------
// Record layout + category pinning.

TEST(TraceRecord, LayoutIsPinnedTo32Bytes) {
  static_assert(sizeof(Record) == kRecordSize);
  static_assert(kRecordSize == 32);
  EXPECT_EQ(offsetof(Record, at), 0u);
  EXPECT_EQ(offsetof(Record, seq), 8u);
  EXPECT_EQ(offsetof(Record, origin), 16u);
  EXPECT_EQ(offsetof(Record, actor), 20u);
  EXPECT_EQ(offsetof(Record, event), 24u);
  EXPECT_EQ(offsetof(Record, stream), 26u);
  EXPECT_EQ(offsetof(Record, arg), 28u);
}

// EventId numbers are the .cotrace format and the names are what every
// human view prints: pin both, for every id.
TEST(TraceEvents, EveryIdAndNameIsPinned) {
  const struct {
    EventId id;
    std::uint16_t value;
    const char* name;
  } pins[] = {
      {EventId::kSend, 0, "send"},
      {EventId::kAccept, 1, "accept"},
      {EventId::kPark, 2, "park"},
      {EventId::kDup, 3, "dup"},
      {EventId::kMalformed, 4, "malformed"},
      {EventId::kF1, 5, "f1"},
      {EventId::kF2, 6, "f2"},
      {EventId::kRet, 7, "ret"},
      {EventId::kRtx, 8, "rtx"},
      {EventId::kPack, 9, "pack"},
      {EventId::kAck, 10, "ack"},
      {EventId::kDeliver, 11, "deliver"},
      {EventId::kProbe, 12, "probe"},
      {EventId::kTimerArm, 16, "timer_arm"},
      {EventId::kTimerCancel, 17, "timer_cancel"},
      {EventId::kTimerFire, 18, "timer_fire"},
      {EventId::kSubmit, 19, "submit"},
      {EventId::kWireTx, 20, "wire_tx"},
      {EventId::kWireRx, 21, "wire_rx"},
      {EventId::kViolation, 22, "violation"},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(static_cast<std::uint16_t>(pin.id), pin.value) << pin.name;
    EXPECT_EQ(event_name(pin.id), pin.name);
  }
  EXPECT_EQ(kProtocolEventCount, 13u);
  // The gap between the protocol and driver blocks is unnamed.
  for (std::uint16_t v = kProtocolEventCount; v < 16; ++v)
    EXPECT_EQ(event_name(static_cast<EventId>(v)), "?");
}

TEST(TraceEvents, DriverEventNames) {
  EXPECT_EQ(event_name(EventId::kTimerArm), "timer_arm");
  EXPECT_EQ(event_name(EventId::kTimerCancel), "timer_cancel");
  EXPECT_EQ(event_name(EventId::kTimerFire), "timer_fire");
  EXPECT_EQ(event_name(EventId::kSubmit), "submit");
  EXPECT_EQ(event_name(EventId::kWireTx), "wire_tx");
  EXPECT_EQ(event_name(EventId::kWireRx), "wire_rx");
  EXPECT_EQ(event_name(EventId::kViolation), "violation");
  EXPECT_EQ(event_name(static_cast<EventId>(4711)), "?");
}

// ---------------------------------------------------------------------------
// TraceRing.

TEST(TraceRing, RoundsCapacityToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1, true).capacity(), 2u);
  EXPECT_EQ(TraceRing(5, true).capacity(), 8u);
  EXPECT_EQ(TraceRing(64, true).capacity(), 64u);
}

TEST(TraceRing, FlightModeOverwritesOldestAndCountsDrops) {
  TraceRing ring(4, /*overwrite_oldest=*/true);
  for (std::uint64_t i = 0; i < 10; ++i)
    ring.append(make_record(static_cast<time::Tick>(i), i, EventId::kSend));
  EXPECT_EQ(ring.appended(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.size(), 4u);

  std::vector<Record> out;
  ring.copy_out(out);
  ASSERT_EQ(out.size(), 4u);
  // The newest four survive, oldest first.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].seq, 6u + i);
}

TEST(TraceRing, StreamingModeDropsNewestWhenFull) {
  TraceRing ring(4, /*overwrite_oldest=*/false);
  for (std::uint64_t i = 0; i < 10; ++i)
    ring.append(make_record(static_cast<time::Tick>(i), i, EventId::kSend));
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<Record> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 4u);
  // The oldest four survive in drop-newest mode.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].seq, i);
  EXPECT_EQ(ring.size(), 0u);

  // Drain freed the slots: appends land again.
  ring.append(make_record(99, 99, EventId::kSend));
  EXPECT_EQ(ring.size(), 1u);
}

// ---------------------------------------------------------------------------
// .cotrace format.

std::string valid_trace_bytes(const std::vector<Record>& records,
                              std::uint64_t dropped = 0) {
  std::ostringstream os(std::ios::binary);
  write_trace_header(os);
  write_trace_block(os, 0, records.data(), records.size(), dropped);
  return os.str();
}

TEST(TraceFile, RoundTripsRecordsAndDropCounters) {
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 7; ++i)
    records.push_back(make_record(static_cast<time::Tick>(100 * i), i,
                                  EventId::kAccept, 2, 1,
                                  static_cast<std::uint32_t>(i)));
  std::ostringstream os(std::ios::binary);
  write_trace_header(os);
  write_trace_block(os, 3, records.data(), 4, 11);
  write_trace_block(os, 3, records.data() + 4, 3, 17);  // dropped is monotone
  write_trace_block(os, 9, records.data(), 0, 0);       // empty block is legal

  std::istringstream in(os.str(), std::ios::binary);
  ParsedTrace parsed;
  EXPECT_EQ(read_trace(in, parsed), std::nullopt);
  ASSERT_EQ(parsed.records.size(), 7u);
  EXPECT_TRUE(same_records(parsed.records, records));
  EXPECT_EQ(parsed.dropped.at(3), 17u);  // max across blocks, not sum
  EXPECT_EQ(parsed.dropped.at(9), 0u);
  EXPECT_EQ(parsed.dropped_total(), 17u);
}

TEST(TraceFile, HeaderOnlyFileIsValidAndEmpty) {
  std::ostringstream os(std::ios::binary);
  write_trace_header(os);
  std::istringstream in(os.str(), std::ios::binary);
  ParsedTrace parsed;
  EXPECT_EQ(read_trace(in, parsed), std::nullopt);
  EXPECT_TRUE(parsed.records.empty());
}

TEST(TraceFile, RejectsBadMagic) {
  std::string bytes = valid_trace_bytes({make_record(1, 1, EventId::kSend)});
  bytes[0] = 'X';
  std::istringstream in(bytes, std::ios::binary);
  ParsedTrace parsed;
  const auto err = read_trace(in, parsed);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("magic"), std::string::npos);
}

TEST(TraceFile, RejectsUnknownVersion) {
  std::string bytes = valid_trace_bytes({make_record(1, 1, EventId::kSend)});
  bytes[8] = 42;  // version u32 LE at offset 8
  std::istringstream in(bytes, std::ios::binary);
  ParsedTrace parsed;
  const auto err = read_trace(in, parsed);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("version"), std::string::npos);
}

TEST(TraceFile, RejectsForeignRecordSize) {
  std::string bytes = valid_trace_bytes({make_record(1, 1, EventId::kSend)});
  bytes[12] = 48;  // record_size u32 LE at offset 12
  std::istringstream in(bytes, std::ios::binary);
  ParsedTrace parsed;
  const auto err = read_trace(in, parsed);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("record size"), std::string::npos);
}

TEST(TraceFile, RejectsEveryTruncationPoint) {
  const std::string bytes = valid_trace_bytes(
      {make_record(1, 1, EventId::kSend), make_record(2, 2, EventId::kAck)});
  // Any prefix that is not the full file and not exactly "header only" or
  // "header + whole blocks" must be rejected.
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    if (cut == kFileHeaderSize) continue;  // legal: empty trace
    std::istringstream in(bytes.substr(0, cut), std::ios::binary);
    ParsedTrace parsed;
    EXPECT_TRUE(read_trace(in, parsed).has_value()) << "cut at " << cut;
  }
}

TEST(TraceFile, RejectsCorruptBlockMagic) {
  std::string bytes = valid_trace_bytes({make_record(1, 1, EventId::kSend)});
  bytes[kFileHeaderSize] = 'x';
  std::istringstream in(bytes, std::ios::binary);
  ParsedTrace parsed;
  const auto err = read_trace(in, parsed);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("block"), std::string::npos);
}

// A block header's record count is untrusted input: a 56-byte file that
// promises 0xFFFFFFFF records must come back as a truncation error, not an
// attempt to allocate 128 GiB up front.
TEST(TraceFile, HugeBlockCountIsTruncationNotAllocation) {
  std::ostringstream os(std::ios::binary);
  write_trace_header(os);
  write_trace_block(os, 0, nullptr, 0, 0);
  std::string bytes = os.str();
  ASSERT_EQ(bytes.size(), kFileHeaderSize + kBlockHeaderSize);
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(&bytes[kFileHeaderSize + 8], &huge, sizeof huge);
  std::istringstream in(bytes, std::ios::binary);
  ParsedTrace parsed;
  std::optional<std::string> err;
  ASSERT_NO_THROW(err = read_trace(in, parsed));
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("truncated mid-record"), std::string::npos) << *err;
  EXPECT_TRUE(parsed.records.empty());
}

TEST(TraceFile, WriteRecordsFileRoundTrips) {
  const std::string path =
      testing::TempDir() + "co_obs_trace_records_file.cotrace";
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 5; ++i)
    records.push_back(make_record(static_cast<time::Tick>(i), i,
                                  EventId::kDeliver, 1, 0));
  ASSERT_TRUE(write_records_file(path, records, 21));
  ParsedTrace parsed;
  EXPECT_EQ(read_trace_file(path, parsed), std::nullopt);
  EXPECT_TRUE(same_records(parsed.records, records));
  EXPECT_EQ(parsed.dropped_total(), 21u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tracer.

TEST(Tracer, EmitsIntoFlightRingAndSnapshotsSorted) {
  TracerConfig config;
  config.ring_capacity = 64;
  Tracer tracer(config);
  tracer.emit(EventId::kSend, 30, 0, 0, 3);
  tracer.emit(EventId::kSend, 10, 0, 0, 1);
  tracer.emit(EventId::kSend, 20, 0, 0, 2);
  EXPECT_EQ(tracer.appended(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.stream_count(), 1u);

  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].seq, 1u);
  EXPECT_EQ(snap[1].seq, 2u);
  EXPECT_EQ(snap[2].seq, 3u);
}

TEST(Tracer, FlightModeKeepsNewestTail) {
  TracerConfig config;
  config.ring_capacity = 8;
  Tracer tracer(config);
  for (std::uint64_t i = 0; i < 100; ++i)
    tracer.emit(EventId::kSend, static_cast<time::Tick>(i), 0, 0, i);
  EXPECT_EQ(tracer.appended(), 100u);
  EXPECT_EQ(tracer.dropped(), 92u);
  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(snap[i].seq, 92u + i);
}

TEST(Tracer, StreamingModeDrainsEverythingToTheSink) {
  std::ostringstream os(std::ios::binary);
  FileStreamSink sink(os);
  TracerConfig config;
  config.ring_capacity = 16;  // tiny ring: forces many watermark drains
  config.overwrite_oldest = false;
  Tracer tracer(config, &sink);
  const std::uint64_t kEvents = 1000;
  for (std::uint64_t i = 0; i < kEvents; ++i)
    tracer.emit(EventId::kAccept, static_cast<time::Tick>(i), 1, 0, i);
  tracer.flush();

  EXPECT_EQ(tracer.dropped(), 0u);  // the watermark kept the ring ahead
  std::istringstream in(os.str(), std::ios::binary);
  ParsedTrace parsed;
  ASSERT_EQ(read_trace(in, parsed), std::nullopt);
  ASSERT_EQ(parsed.records.size(), kEvents);
  for (std::uint64_t i = 0; i < kEvents; ++i)
    EXPECT_EQ(parsed.records[i].seq, i);
}

TEST(Tracer, WriteSnapshotRoundTripsThroughStrictReader) {
  TracerConfig config;
  config.ring_capacity = 32;
  Tracer tracer(config);
  for (std::uint64_t i = 0; i < 10; ++i)
    tracer.emit(EventId::kPack, static_cast<time::Tick>(i), 2, 1, i);
  std::ostringstream os(std::ios::binary);
  tracer.write_snapshot(os);

  std::istringstream in(os.str(), std::ios::binary);
  ParsedTrace parsed;
  ASSERT_EQ(read_trace(in, parsed), std::nullopt);
  ASSERT_EQ(parsed.records.size(), 10u);
  EXPECT_TRUE(same_records(parsed.records, tracer.snapshot()));
}

// TSan-friendly multi-writer stress: each thread gets its own stream; after
// join (the quiesce edge) every record is visible and per-stream order is
// the emission order.
TEST(Tracer, MultiThreadWritersGetIndependentStreams) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  TracerConfig config;
  config.ring_capacity = 1 << 14;  // holds kPerThread without wrapping
  Tracer tracer(config);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        tracer.emit(EventId::kSend, static_cast<time::Tick>(i),
                    static_cast<EntityId>(t), static_cast<EntityId>(t), i);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(tracer.appended(), kThreads * kPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.stream_count(), kThreads);

  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), kThreads * kPerThread);
  // Sorted by timestamp, and per-actor seqs are each a permutation-free
  // 0..kPerThread-1 in order.
  std::vector<std::uint64_t> next(kThreads, 0);
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LE(snap[i - 1].at, snap[i].at);
  for (const Record& r : snap) {
    const auto actor = static_cast<std::size_t>(r.actor);
    ASSERT_LT(actor, kThreads);
    EXPECT_EQ(r.seq, next[actor]++);
  }
}

// ---------------------------------------------------------------------------
// Fatal-signal flight dump.

TEST(CrashDump, AbortLeavesAValidatableFlightDump) {
  const std::string path = testing::TempDir() + "co_trace_crash.cotrace";
  std::remove(path.c_str());

  EXPECT_EXIT(
      {
        TracerConfig config;
        config.ring_capacity = 64;
        Tracer tracer(config);
        for (std::uint64_t i = 0; i < 20; ++i)
          tracer.emit(EventId::kSend, static_cast<time::Tick>(i), 0, 0, i);
        install_crash_dump(&tracer, path.c_str());
        std::abort();
      },
      testing::KilledBySignal(SIGABRT), "");

  // The dump the dying child left behind must pass the strict reader.
  ParsedTrace parsed;
  ASSERT_EQ(read_trace_file(path, parsed), std::nullopt);
  ASSERT_EQ(parsed.records.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(parsed.records[i].seq, i);
  std::remove(path.c_str());
}

TEST(CrashDump, DisarmRestoresDefaultBehaviour) {
  TracerConfig config;
  Tracer tracer(config);
  const std::string path = testing::TempDir() + "co_trace_disarm.cotrace";
  install_crash_dump(&tracer, path.c_str());
  install_crash_dump(nullptr, nullptr);
  // Nothing to assert beyond "does not crash / no dump appears on abort in
  // a child" — covered implicitly by other death tests; here we just pin
  // that the calls are safe to pair repeatedly.
  install_crash_dump(&tracer, path.c_str());
  install_crash_dump(nullptr, nullptr);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace co::obs::trace
