#include "src/obs/trace/file.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

namespace co::obs::trace {

namespace {

void put_u16(char* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
void put_u32(char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }

std::uint16_t get_u16(const char* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
std::uint32_t get_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Records read per step while loading a block (128 KiB).
constexpr std::uint32_t kReadChunkRecords = 4096;

}  // namespace

void write_trace_header(std::ostream& os) {
  char h[kFileHeaderSize] = {};
  std::memcpy(h, kFileMagic, sizeof kFileMagic);
  put_u32(h + 8, kTraceVersion);
  put_u32(h + 12, static_cast<std::uint32_t>(kRecordSize));
  put_u64(h + 16, 0);
  put_u64(h + 24, 0);
  os.write(h, sizeof h);
}

void write_trace_block(std::ostream& os, std::uint16_t stream,
                       const Record* records, std::size_t count,
                       std::uint64_t dropped) {
  char h[kBlockHeaderSize] = {};
  put_u32(h + 0, kBlockMagic);
  put_u16(h + 4, stream);
  put_u16(h + 6, 0);
  put_u32(h + 8, static_cast<std::uint32_t>(count));
  put_u32(h + 12, 0);
  put_u64(h + 16, dropped);
  os.write(h, sizeof h);
  // Record is trivially copyable with the pinned 32-byte layout, so the
  // in-memory bytes ARE the wire bytes (same-endian machines).
  if (count != 0)
    os.write(reinterpret_cast<const char*>(records),
             static_cast<std::streamsize>(count * kRecordSize));
}

std::optional<std::string> read_trace(std::istream& in, ParsedTrace& out) {
  char h[kFileHeaderSize];
  in.read(h, sizeof h);
  if (in.gcount() != static_cast<std::streamsize>(sizeof h))
    return "truncated file header (" + std::to_string(in.gcount()) + " of " +
           std::to_string(kFileHeaderSize) + " bytes)";
  if (std::memcmp(h, kFileMagic, sizeof kFileMagic) != 0)
    return "bad magic: not a .cotrace file";
  const std::uint32_t version = get_u32(h + 8);
  if (version != kTraceVersion)
    return "unsupported trace version " + std::to_string(version) +
           " (reader handles " + std::to_string(kTraceVersion) + ")";
  const std::uint32_t rec_size = get_u32(h + 12);
  if (rec_size != kRecordSize)
    return "foreign record size " + std::to_string(rec_size) + " (expected " +
           std::to_string(kRecordSize) + ")";

  std::size_t block_index = 0;
  for (;;) {
    char bh[kBlockHeaderSize];
    in.read(bh, sizeof bh);
    const auto got = in.gcount();
    if (got == 0) break;  // clean EOF between blocks
    if (got != static_cast<std::streamsize>(sizeof bh))
      return "truncated header of block " + std::to_string(block_index);
    if (get_u32(bh + 0) != kBlockMagic)
      return "bad magic in block " + std::to_string(block_index);
    const std::uint16_t stream = get_u16(bh + 4);
    const std::uint32_t count = get_u32(bh + 8);
    const std::uint64_t dropped = get_u64(bh + 16);
    auto& worst = out.dropped[stream];
    worst = std::max(worst, dropped);
    // `count` is untrusted: grow by what the stream actually holds, one
    // bounded chunk at a time, so a corrupt header cannot demand gigabytes.
    const std::size_t base = out.records.size();
    for (std::uint32_t left = count; left != 0;) {
      const std::uint32_t chunk = std::min(left, kReadChunkRecords);
      const std::size_t at = out.records.size();
      out.records.resize(at + chunk);
      in.read(reinterpret_cast<char*>(out.records.data() + at),
              static_cast<std::streamsize>(chunk * kRecordSize));
      if (in.gcount() != static_cast<std::streamsize>(chunk * kRecordSize)) {
        out.records.resize(base);
        return "block " + std::to_string(block_index) + " truncated mid-record (" +
               std::to_string(count) + " records promised)";
      }
      left -= chunk;
    }
    ++block_index;
  }
  return std::nullopt;
}

std::optional<std::string> read_trace_file(const std::string& path,
                                           ParsedTrace& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "cannot open " + path;
  return read_trace(in, out);
}

bool write_records_file(const std::string& path,
                        const std::vector<Record>& records,
                        std::uint64_t dropped) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  write_trace_header(os);
  write_trace_block(os, 0, records.data(), records.size(), dropped);
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace co::obs::trace
