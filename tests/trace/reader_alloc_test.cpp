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

}  // namespace
}  // namespace hsr::trace
