// Protocol fuzz suite for the dist wire codec: exact roundtrips for every
// message kind (profit as bit patterns included), truncation at EVERY byte
// offset, single-bit flips over every encoded byte, implausible length
// fields (must fail fast, not allocate), unknown dictionary terms,
// trailing-byte rejection, and Hellos from other protocol versions.

#include "midas/dist/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "midas/core/types.h"
#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"
#include "midas/store/byte_codec.h"

namespace midas {
namespace dist {
namespace {

using store::AppendStr;
using store::AppendU32;
using store::AppendU64;

class WireCodecTest : public ::testing::Test {
 protected:
  WireCodecTest() {
    s0_ = dict_.Intern("ent/s0");
    s1_ = dict_.Intern("ent/s1");
    p0_ = dict_.Intern("pred/cat");
    p1_ = dict_.Intern("pred/origin");
    o0_ = dict_.Intern("val/rocket");
    o1_ = dict_.Intern("val/nasa");
  }

  core::DiscoveredSlice MakeSlice(double profit) const {
    core::DiscoveredSlice slice;
    slice.source_url = "http://a.com/sec0";
    slice.properties = {{p0_, o0_}, {p1_, o1_}};
    slice.entities = {s0_, s1_};
    slice.facts = {rdf::Triple(s0_, p0_, o0_), rdf::Triple(s1_, p1_, o1_)};
    slice.num_facts = 2;
    slice.num_new_facts = 1;
    slice.profit = profit;
    return slice;
  }

  WorkAssignMsg MakeAssign() const {
    WorkAssignMsg msg;
    msg.unit = 7;
    msg.assignment = 2;
    msg.consolidate = true;
    msg.url = "http://a.com/sec0";
    msg.source_ids = {4, 1, 0xfffffffeu};
    msg.child_slices = {MakeSlice(1.25), MakeSlice(-3.5e-12)};
    return msg;
  }

  WorkResultMsg MakeResult() const {
    WorkResultMsg msg;
    msg.unit = 7;
    msg.assignment = 2;
    msg.status = core::SourceStatus::kPartial;
    msg.attempts = 3;
    msg.error = "deadline after level 2";
    // A profit whose decimal rendering would lose bits: the codec must
    // carry the exact pattern.
    msg.slices = {MakeSlice(0.1 + 0.2), MakeSlice(-0.0)};
    return msg;
  }

  static std::string DescribeSlices(
      const std::vector<core::DiscoveredSlice>& slices) {
    std::string out;
    for (const auto& s : slices) {
      uint64_t bits = 0;
      std::memcpy(&bits, &s.profit, sizeof(bits));
      out += s.source_url + "|" + std::to_string(bits) + "|" +
             std::to_string(s.num_facts) + "|" +
             std::to_string(s.num_new_facts);
      for (const auto& p : s.properties) {
        out += "|c" + std::to_string(p.predicate) + ":" +
               std::to_string(p.value);
      }
      for (const auto e : s.entities) out += "|e" + std::to_string(e);
      for (const auto& f : s.facts) {
        out += "|t" + std::to_string(f.subject) + "," +
               std::to_string(f.predicate) + "," + std::to_string(f.object);
      }
      out += ";";
    }
    return out;
  }

  static std::string DescribeAssign(const WorkAssignMsg& m) {
    std::string out = std::to_string(m.unit) + "|" +
                      std::to_string(m.assignment) + "|" +
                      std::to_string(m.consolidate) + "|" + m.url;
    for (const uint32_t id : m.source_ids) out += "|s" + std::to_string(id);
    return out + "#" + DescribeSlices(m.child_slices);
  }

  static std::string DescribeResult(const WorkResultMsg& m) {
    return std::to_string(m.unit) + "|" + std::to_string(m.assignment) + "|" +
           std::to_string(static_cast<int>(m.status)) + "|" +
           std::to_string(m.attempts) + "|" + m.error + "#" +
           DescribeSlices(m.slices);
  }

  rdf::Dictionary dict_;
  rdf::TermId s0_, s1_, p0_, p1_, o0_, o1_;
};

TEST_F(WireCodecTest, HelloRoundtrip) {
  HelloMsg in;
  in.fingerprint = 0xdeadbeefcafef00dULL;
  const std::string payload = EncodeHello(in);
  ASSERT_TRUE(PeekKind(payload).ok());
  EXPECT_EQ(*PeekKind(payload), MessageKind::kHello);
  HelloMsg out;
  ASSERT_TRUE(DecodeHello(payload, &out).ok());
  EXPECT_EQ(out.protocol, kDistProtocolVersion);
  EXPECT_EQ(out.fingerprint, in.fingerprint);
}

TEST_F(WireCodecTest, WorkAssignRoundtrip) {
  const WorkAssignMsg in = MakeAssign();
  const std::string payload = EncodeWorkAssign(in, dict_);
  EXPECT_EQ(*PeekKind(payload), MessageKind::kWorkAssign);
  WorkAssignMsg out;
  ASSERT_TRUE(DecodeWorkAssign(payload, dict_, &out).ok());
  EXPECT_EQ(DescribeAssign(out), DescribeAssign(in));
}

TEST_F(WireCodecTest, WorkResultRoundtrip) {
  const WorkResultMsg in = MakeResult();
  const std::string payload = EncodeWorkResult(in, dict_);
  EXPECT_EQ(*PeekKind(payload), MessageKind::kWorkResult);
  WorkResultMsg out;
  ASSERT_TRUE(DecodeWorkResult(payload, dict_, &out).ok());
  EXPECT_EQ(DescribeResult(out), DescribeResult(in));
}

TEST_F(WireCodecTest, HeartbeatAndShutdownRoundtrip) {
  HeartbeatMsg beat;
  beat.units_completed = 42;
  const std::string hb = EncodeHeartbeat(beat);
  EXPECT_EQ(*PeekKind(hb), MessageKind::kHeartbeat);
  HeartbeatMsg out;
  ASSERT_TRUE(DecodeHeartbeat(hb, &out).ok());
  EXPECT_EQ(out.units_completed, 42u);

  const std::string quit = EncodeShutdown();
  EXPECT_EQ(*PeekKind(quit), MessageKind::kShutdown);
  EXPECT_TRUE(DecodeShutdown(quit).ok());
}

// A Hello from another protocol version decodes to its version alone, so
// the coordinator's handshake rejects the peer by number: v3 carried a
// corpus hash after the fingerprint, v2 did not, and neither body is this
// version's to parse.
TEST_F(WireCodecTest, HelloFromOtherProtocolDecodesVersionOnly) {
  std::string v3(1, 'h');
  AppendU32(&v3, 3);
  AppendU64(&v3, 0xfeedfacef00dULL);
  AppendU64(&v3, 0xabcdef0123456789ULL);  // v3's corpus hash
  HelloMsg out;
  ASSERT_TRUE(DecodeHello(v3, &out).ok());
  EXPECT_EQ(out.protocol, 3u);
  EXPECT_EQ(out.fingerprint, 0u);

  std::string v2(1, 'h');
  AppendU32(&v2, 2);
  AppendU64(&v2, 0xfeedfacef00dULL);
  ASSERT_TRUE(DecodeHello(v2, &out).ok());
  EXPECT_EQ(out.protocol, 2u);

  // This version's Hello is exactly kind + protocol + fingerprint.
  EXPECT_EQ(EncodeHello(HelloMsg{}).size(), 13u);
}

// The codec is total over its struct: no source ids, no child slices and a
// false flag roundtrip too (the worker, not the codec, rejects an ablation
// assignment without exactly one source).
TEST_F(WireCodecTest, WorkAssignBareRoundtrip) {
  WorkAssignMsg bare;
  bare.url = "http://b.com";
  const std::string payload = EncodeWorkAssign(bare, dict_);
  WorkAssignMsg out;
  ASSERT_TRUE(DecodeWorkAssign(payload, dict_, &out).ok());
  EXPECT_EQ(DescribeAssign(out), DescribeAssign(bare));
}

// A source count that overstates the ids present by one is plausible
// against the remaining bytes, so it passes the up-front check — and must
// then fail cleanly when the slice blob is read as ids.
TEST_F(WireCodecTest, WorkAssignOverstatedSourceCountFails) {
  const WorkAssignMsg in = MakeAssign();
  std::string payload = EncodeWorkAssign(in, dict_);
  // kind(1) + unit(8) + assignment(4) + consolidate(1) + url(4 + len).
  const size_t count_at = 14 + 4 + in.url.size();
  ASSERT_EQ(static_cast<uint8_t>(payload[count_at]), in.source_ids.size());
  payload[count_at] = static_cast<char>(in.source_ids.size() + 1);
  WorkAssignMsg out;
  EXPECT_FALSE(DecodeWorkAssign(payload, dict_, &out).ok());
}

TEST_F(WireCodecTest, PeekKindRejectsEmptyAndUnknown) {
  EXPECT_FALSE(PeekKind("").ok());
  EXPECT_FALSE(PeekKind("z").ok());
  EXPECT_FALSE(PeekKind(std::string(1, '\0')).ok());
}

TEST_F(WireCodecTest, DecodersRejectWrongKind) {
  const std::string hello = EncodeHello(HelloMsg{});
  WorkAssignMsg assign;
  EXPECT_FALSE(DecodeWorkAssign(hello, dict_, &assign).ok());
  WorkResultMsg result;
  EXPECT_FALSE(DecodeWorkResult(hello, dict_, &result).ok());
  HeartbeatMsg beat;
  EXPECT_FALSE(DecodeHeartbeat(hello, &beat).ok());
  EXPECT_FALSE(DecodeShutdown(hello).ok());
}

// Every strict prefix of a valid payload must fail decoding — the decoders
// consume the full structure and check nothing is left over, so there is
// no offset at which a truncation silently parses.
TEST_F(WireCodecTest, WorkAssignTruncationAtEveryByteOffsetFails) {
  const std::string assign = EncodeWorkAssign(MakeAssign(), dict_);
  for (size_t len = 0; len < assign.size(); ++len) {
    WorkAssignMsg out;
    EXPECT_FALSE(DecodeWorkAssign(assign.substr(0, len), dict_, &out).ok())
        << "WorkAssign truncated to " << len << " of " << assign.size();
  }
}

TEST_F(WireCodecTest, TruncationAtEveryByteOffsetFails) {
  const std::string result = EncodeWorkResult(MakeResult(), dict_);
  for (size_t len = 0; len < result.size(); ++len) {
    WorkResultMsg out;
    EXPECT_FALSE(DecodeWorkResult(result.substr(0, len), dict_, &out).ok())
        << "WorkResult truncated to " << len << " of " << result.size();
  }
  const std::string hello = EncodeHello(HelloMsg{});
  for (size_t len = 0; len < hello.size(); ++len) {
    HelloMsg out;
    EXPECT_FALSE(DecodeHello(hello.substr(0, len), &out).ok());
  }
  const std::string beat = EncodeHeartbeat(HeartbeatMsg{});
  for (size_t len = 0; len < beat.size(); ++len) {
    HeartbeatMsg out;
    EXPECT_FALSE(DecodeHeartbeat(beat.substr(0, len), &out).ok());
  }
}

// Trailing garbage after a well-formed message is corruption, not slack.
TEST_F(WireCodecTest, TrailingBytesRejected) {
  WorkAssignMsg assign_out;
  EXPECT_FALSE(DecodeWorkAssign(EncodeWorkAssign(MakeAssign(), dict_) + "x",
                                dict_, &assign_out)
                   .ok());
  WorkResultMsg result_out;
  EXPECT_FALSE(DecodeWorkResult(EncodeWorkResult(MakeResult(), dict_) + "x",
                                dict_, &result_out)
                   .ok());
  HelloMsg hello_out;
  EXPECT_FALSE(DecodeHello(EncodeHello(HelloMsg{}) + "x", &hello_out).ok());
  EXPECT_FALSE(DecodeShutdown(EncodeShutdown() + "x").ok());
}

// Flip every bit of every byte: the decode must either fail or yield a
// message observably different from the original. No flip may decode to an
// equal message — every encoded byte is semantic.
TEST_F(WireCodecTest, WorkAssignSingleBitFlipsNeverDecodeEqual) {
  const WorkAssignMsg assign_in = MakeAssign();
  const std::string assign = EncodeWorkAssign(assign_in, dict_);
  const std::string assign_digest = DescribeAssign(assign_in);
  for (size_t i = 0; i < assign.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = assign;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      WorkAssignMsg out;
      if (DecodeWorkAssign(flipped, dict_, &out).ok()) {
        EXPECT_NE(DescribeAssign(out), assign_digest)
            << "flip byte " << i << " bit " << bit;
      }
    }
  }
}

TEST_F(WireCodecTest, SingleBitFlipsNeverDecodeEqual) {
  const WorkResultMsg result_in = MakeResult();
  const std::string result = EncodeWorkResult(result_in, dict_);
  const std::string result_digest = DescribeResult(result_in);
  for (size_t i = 0; i < result.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = result;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      WorkResultMsg out;
      if (DecodeWorkResult(flipped, dict_, &out).ok()) {
        EXPECT_NE(DescribeResult(out), result_digest)
            << "flip byte " << i << " bit " << bit;
      }
    }
  }
}

// A length field claiming more elements than the payload could possibly
// hold must be rejected up front — before any resize tries to honor it.
TEST_F(WireCodecTest, ImplausibleCountsFailFastWithoutAllocating) {
  // kind 'a', unit, assignment, consolidate, url, then a source-id count
  // claiming gigabytes with no id bytes behind it.
  std::string payload(1, 'a');
  AppendU64(&payload, 1);
  AppendU32(&payload, 1);
  payload.push_back(1);
  AppendStr(&payload, "http://a.com");
  AppendU32(&payload, 0x40000000u);
  WorkAssignMsg out;
  EXPECT_FALSE(DecodeWorkAssign(payload, dict_, &out).ok());
  EXPECT_TRUE(out.source_ids.empty());

  // A string length near u32 max inside Hello-sized data.
  std::string result(1, 'r');
  AppendU64(&result, 1);
  AppendU32(&result, 0);  // status kOk
  AppendU32(&result, 1);  // attempts
  AppendU32(&result, std::numeric_limits<uint32_t>::max());  // error length
  WorkResultMsg rout;
  EXPECT_FALSE(DecodeWorkResult(result, dict_, &rout).ok());
}

TEST_F(WireCodecTest, WorkResultRejectsOutOfRangeStatus) {
  std::string payload(1, 'r');
  AppendU64(&payload, 1);
  AppendU32(&payload, 250);  // far past kCancelled
  AppendU32(&payload, 1);
  AppendStr(&payload, "");
  AppendStr(&payload, "");  // empty slice blob is itself invalid too
  WorkResultMsg out;
  EXPECT_FALSE(DecodeWorkResult(payload, dict_, &out).ok());
}

TEST_F(WireCodecTest, WorkAssignRejectsNonBooleanConsolidate) {
  std::string payload = EncodeWorkAssign(MakeAssign(), dict_);
  // Byte layout: kind(1) + unit(8) + assignment(4), then consolidate.
  payload[13] = 2;
  WorkAssignMsg out;
  EXPECT_FALSE(DecodeWorkAssign(payload, dict_, &out).ok());
}

// Slice terms travel as strings; a payload naming a term the receiving
// dictionary never interned means the two sides loaded different corpora.
TEST_F(WireCodecTest, UnknownDictionaryTermIsCorruption) {
  const std::string assign = EncodeWorkAssign(MakeAssign(), dict_);
  const std::string result = EncodeWorkResult(MakeResult(), dict_);
  rdf::Dictionary other;  // empty: knows none of the terms
  WorkAssignMsg aout;
  EXPECT_FALSE(DecodeWorkAssign(assign, other, &aout).ok());
  WorkResultMsg rout;
  EXPECT_FALSE(DecodeWorkResult(result, other, &rout).ok());
}

}  // namespace
}  // namespace dist
}  // namespace midas
