// Reader memory bounds on damaged input. This TU installs the counting
// global operator new/delete (alloc_probe), so it lives in its own test
// binary: the replacement is binary-wide and must not leak into the other
// suites.
#define HSRTCP_ALLOC_PROBE_DEFINE_GLOBALS
#include "util/alloc_probe.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>

#include "radio/profiles.h"
#include "trace/trace_binary.h"
#include "trace/trace_io.h"
#include "workload/scenario.h"

namespace hsr::trace {
namespace {

using util::AllocProbe;

// A one-flow hsrtrace-b2 file of a short real flow.
std::string one_flow_file() {
  workload::FlowRunConfig cfg;
  cfg.profile = radio::mobile_lte_highspeed();
  cfg.duration = util::Duration::seconds(5);
  cfg.seed = 20157;
  std::ostringstream os;
  write_binary_trace_header(os, 1);
  write_flow_frame(os, workload::run_flow(cfg).capture, /*seq=*/0);
  return os.str();
}

TEST(ReaderAllocTest, FlippedFrameSizeCostsAboutTheBytesPresent) {
  // Byte 3 ^ 0x41 of the frame size claims ~1 GB more than the file holds,
  // byte 4 ^ 0x0F ~60 GiB more. Reading either must allocate on the order
  // of the input, not of the claim.
  const std::string clean = one_flow_file();
  const std::size_t size_field = kBinaryTraceMagicSize + 8 + 1 + 4 + 8;
  for (const auto& [byte, mask] : {std::pair<std::size_t, unsigned char>{3, 0x41},
                                   std::pair<std::size_t, unsigned char>{4, 0x0F}}) {
    std::string bytes = clean;
    bytes[size_field + byte] = static_cast<char>(bytes[size_field + byte] ^ mask);
    std::istringstream in(bytes);
    std::uint64_t allocated = 0;
    {
      AllocProbe::Scope scope;
      const auto corpus = read_binary_corpus(in);
      allocated = scope.bytes_delta();
      ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
      EXPECT_TRUE(corpus.value().torn_tail);
    }
    EXPECT_LE(allocated, 4 * bytes.size())
        << "byte " << byte << ": " << allocated << " bytes allocated for a "
        << bytes.size() << "-byte input";
  }
}

void put_varint(std::string& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<char>((v & 0x7F) | 0x80));
  out.push_back(static_cast<char>(v));
}

// A one-frame file around `payload`, with a valid CRC: only the decoder's
// own checks stand between a hostile count and the allocator.
std::string file_with_flow_payload(const std::string& payload) {
  std::ostringstream os;
  write_binary_trace_header(os, 1);
  std::string frame;
  encode_raw_frame('F', payload, /*seq=*/0, frame);
  os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  return os.str();
}

TEST(ReaderAllocTest, HostileRecordCountsAreNamedErrorsNotAllocations) {
  // Flow 1, then a count of 2^39 where the bytes left hold a few records:
  // first as the data direction's transmission count, then as the fault
  // count after two empty directions.
  std::string padding(64, '\0');
  std::string claims_transmissions;
  put_varint(claims_transmissions, 1);
  put_varint(claims_transmissions, std::uint64_t{1} << 39);
  claims_transmissions += padding;
  std::string claims_faults;
  put_varint(claims_faults, 1);
  put_varint(claims_faults, 0);
  put_varint(claims_faults, 0);
  put_varint(claims_faults, std::uint64_t{1} << 39);
  claims_faults += padding;

  for (const auto& [payload, why] :
       {std::pair<std::string, const char*>{claims_transmissions,
                                            "transmission count exceeds the bytes present"},
        std::pair<std::string, const char*>{claims_faults,
                                            "fault count exceeds the bytes present"}}) {
    const std::string bytes = file_with_flow_payload(payload);
    std::istringstream in(bytes);
    std::uint64_t allocated = 0;
    {
      AllocProbe::Scope scope;
      const auto corpus = read_binary_corpus(in);
      allocated = scope.bytes_delta();
      ASSERT_FALSE(corpus.is_ok()) << why;
      EXPECT_NE(corpus.status().message().find(why), std::string::npos)
          << corpus.status().to_string();
      EXPECT_NE(corpus.status().message().find("frame 0"), std::string::npos)
          << corpus.status().to_string();
    }
    EXPECT_LE(allocated, 64 * bytes.size())
        << why << ": " << allocated << " bytes allocated for a " << bytes.size()
        << "-byte input";
  }
}

// Packet ids are plain data: no reader sizes anything from one. Each
// hostile id below decodes in memory of the order of the input. A table
// indexed by id and sized id + 1 would wrap to zero entries (then write out
// of bounds) for 2^64 - 1, and ask for 8 TiB for 2^40.
TEST(ReaderAllocTest, HostileTextIdsDecodeInInputSizedMemory) {
  for (const std::uint64_t id : {~std::uint64_t{0}, std::uint64_t{1} << 40}) {
    const std::string text = "hsrtrace-v2 flow=1\nD " + std::to_string(id) +
                             " 1 0 1400 1000 -1 Q 0\nA " + std::to_string(id) +
                             " 0 2 52 2000 9000 - 0\n";
    std::istringstream in(text);
    std::uint64_t allocated = 0;
    {
      AllocProbe::Scope scope;
      const auto capture = read_flow_capture(in);
      allocated = scope.bytes_delta();
      ASSERT_TRUE(capture.is_ok()) << capture.status().to_string();
      ASSERT_EQ(capture.value().data.sent_count(), 1u);
      EXPECT_EQ(capture.value().data.transmissions()[0].packet.id, id);
      EXPECT_TRUE(capture.value().data.transmissions()[0].lost());
      ASSERT_EQ(capture.value().acks.sent_count(), 1u);
      EXPECT_EQ(capture.value().acks.transmissions()[0].packet.id, id);
      EXPECT_FALSE(capture.value().acks.transmissions()[0].lost());
    }
    EXPECT_LE(allocated, 64 * text.size())
        << "id " << id << ": " << allocated << " bytes allocated for a " << text.size()
        << "-byte input";
  }
}

TEST(ReaderAllocTest, HostileBinaryIdDecodesInInputSizedMemory) {
  // The 61-byte hsrtrace-b2 file with a valid CRC that holds one data
  // transmission whose id column is 2^40, still in flight at capture end.
  constexpr std::uint64_t kId = std::uint64_t{1} << 40;
  std::string payload;
  put_varint(payload, 1);        // flow
  put_varint(payload, 1);        // data direction: one transmission
  put_varint(payload, kId << 1); // id delta, zigzag-coded
  put_varint(payload, 1 << 1);   // seq delta: seq 1
  put_varint(payload, 0);        // ack_next delta
  put_varint(payload, 1);        // size run: 1 x 1400 bytes
  put_varint(payload, 1400);
  put_varint(payload, 1);        // retx run: 1 x 0
  put_varint(payload, 0);
  put_varint(payload, 0);        // send time delta
  put_varint(payload, 1);        // fate run: 1 x in flight
  put_varint(payload, 0);
  put_varint(payload, 0);        // ACK direction: no transmissions
  put_varint(payload, 0);        // no fault records
  const std::string bytes = file_with_flow_payload(payload);
  ASSERT_EQ(bytes.size(), 61u);

  std::istringstream in(bytes);
  std::uint64_t allocated = 0;
  {
    AllocProbe::Scope scope;
    const auto corpus = read_binary_corpus(in);
    allocated = scope.bytes_delta();
    ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
    ASSERT_EQ(corpus.value().flows.size(), 1u);
    const auto& txs = corpus.value().flows[0].data.transmissions();
    ASSERT_EQ(txs.size(), 1u);
    EXPECT_EQ(txs[0].packet.id, kId);
    EXPECT_EQ(txs[0].packet.seq, 1u);
  }
  EXPECT_LE(allocated, 64 * bytes.size())
      << allocated << " bytes allocated for a " << bytes.size() << "-byte input";
}

}  // namespace
}  // namespace hsr::trace
