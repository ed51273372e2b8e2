// Golden-bytes tests: the on-disk formats must stay stable across
// releases — a payload written by this version must equal these
// byte-for-byte snapshots, and readers refuse every retired version.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/burst_engine.h"
#include "core/cm_pbe.h"
#include "core/dyadic_index.h"
#include "core/pbe1.h"
#include "core/pbe2.h"
#include "pla/linear_model.h"
#include "pla/staircase_model.h"
#include "recovery/durable_engine.h"
#include "test_util.h"

namespace bursthist {
namespace {

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char buf[4];
  for (uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(FormatStabilityTest, StaircaseModelGolden) {
  // Points (5, 2), (9, 3), (20, 10):
  //   n=3 | t0=5 zigzag->0a | dc=2 | dt=4 | dc=1 | dt=11(0x0b) | dc=7
  StaircaseModel m({{5, 2}, {9, 3}, {20, 10}});
  BinaryWriter w;
  m.Serialize(&w);
  EXPECT_EQ(Hex(w.bytes()), "030a0204010b07");
}

TEST(FormatStabilityTest, StaircaseModelReadsGolden) {
  auto bytes = FromHex("030a0204010b07");
  StaircaseModel m;
  BinaryReader r(bytes);
  ASSERT_TRUE(m.Deserialize(&r).ok());
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.points()[0], (CurvePoint{5, 2}));
  EXPECT_EQ(m.points()[2], (CurvePoint{20, 10}));
}

TEST(FormatStabilityTest, LinearModelGolden) {
  // One segment: start 4, last 10, a = 0.5, b = 2.0.
  LinearModel m;
  m.AppendSegment(PlaSegment{0.5, 2.0, 4, 10});
  BinaryWriter w;
  m.Serialize(&w);
  // n=1 | start zigzag(4)=08 | span=6 | a,b little-endian doubles.
  EXPECT_EQ(Hex(w.bytes()),
            "010806"
            "000000000000e03f"   // 0.5
            "0000000000000040");  // 2.0
}

TEST(FormatStabilityTest, Pbe1HeaderGolden) {
  Pbe1Options o;
  o.buffer_points = 4;
  o.budget_points = 2;
  Pbe1 pbe(o);
  pbe.Append(3);
  pbe.Finalize();
  BinaryWriter w;
  pbe.Serialize(&w);
  const std::string hex = Hex(w.bytes());
  // Magic "PBE1" little-endian + version 2 (CRC32C-framed payload).
  EXPECT_EQ(hex.substr(0, 16), "3145425002000000");
}

TEST(FormatStabilityTest, Pbe2HeaderGolden) {
  Pbe2 pbe;
  pbe.Append(3);
  pbe.Finalize();
  BinaryWriter w;
  pbe.Serialize(&w);
  // Magic "PBE2" + version 3 (CRC32C-framed payload).
  EXPECT_EQ(Hex(w.bytes()).substr(0, 16), "3245425003000000");
}

TEST(FormatStabilityTest, CmPbeHeaderGolden) {
  Pbe1Options cell;
  cell.buffer_points = 4;
  cell.budget_points = 2;
  CmPbeOptions grid;
  grid.depth = 1;
  grid.width = 2;
  CmPbe<Pbe1> cm(grid, cell);
  cm.Append(1, 3);
  cm.Finalize();
  BinaryWriter w;
  cm.Serialize(&w);
  // Magic "CMPB" little-endian + version 2 (CRC32C-framed payload).
  EXPECT_EQ(Hex(w.bytes()).substr(0, 16), "42504d4302000000");
}

TEST(FormatStabilityTest, DyadicHeaderGolden) {
  Pbe1Options cell;
  cell.buffer_points = 4;
  cell.budget_points = 2;
  CmPbeOptions grid;
  grid.depth = 1;
  grid.width = 2;
  DyadicBurstIndex<Pbe1> index(2, grid, cell);
  index.Append(1, 3);
  index.Finalize();
  BinaryWriter w;
  index.Serialize(&w);
  // Magic "DYAD" little-endian + version 2 (CRC32C-framed payload).
  EXPECT_EQ(Hex(w.bytes()).substr(0, 16), "4441594402000000");
}

BurstEngineOptions<Pbe1> SmallEngineOptions() {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = 2;
  o.grid.depth = 1;
  o.grid.width = 2;
  o.cell.buffer_points = 4;
  o.cell.budget_points = 2;
  return o;
}

// Bytes the retired writers emitted, frozen from the last release of
// each version. Readers refuse them all.

// Pbe1 v1: buffer 4 / budget 2, appends {1, 1, 3, 6, 10, 15, 15, 21}.
constexpr const char* kRetiredPbe1V1 =
    "314542500100000004000000000000000200000000000000000000000000f0bf0800"
    "00000000000000000000000026400000000000002640010402020903050206010000"
    "000000000000";

// Pbe2 v2: gamma 2.0, appends {1, 2, 3, 7, 9, 14, 20, 21}.
constexpr const char* kRetiredPbe2V2 =
    "32454250020000000000000000000040000000000000000000000000000000000000"
    "0000000000400800000000000000"
    "0102148c1afe36c5a8d13fbdbbbbbbbbbbeb3f";

// CmPbe<Pbe1> v1: grid depth 1 x width 2, cell buffer 4 / budget 2,
// appends (i % 3, i + 1) for i in [0, 8).
constexpr const char* kRetiredCmPbeV1 =
    "42504d4301000000010000000000000002000000000000003d57000b000000000000"
    "080000000000000001314542500100000004000000000000000200000000000000000"
    "000000000f0bf0500000000000000000000000000144000000000000014400103020"
    "1050301010000000000000000314542500100000004000000000000000200000000000"
    "000000000000000f0bf03000000000000000000000000000840000000000000084001"
    "02040106020000000000000000";

// BurstEngine<Pbe1> v2 (SmallEngineOptions(), appends (i % 2, i + 1)
// for i in [0, 6), finalized); its index is a DYAD v1 payload.
constexpr const char* kRetiredEngineV2 =
    "474e454202000000060000000000000006000000000000000101000000000000000"
    "0000000000000000044415944010000000200000002000000000000000042504d430"
    "100000001000000000000000200000000000000f6d037a900000000000106000000"
    "0000000001314542500100000004000000000000000200000000000000000000000"
    "000f0bf030000000000000000000000000000400000000000000040010202010402"
    "0000000000000000314542500100000004000000000000000200000000000000000"
    "000000000f0bf0300000000000000000000000000004000000000000000400102040"
    "10402000000000000000042504d43010000000100000000000000010000000000000"
    "0af4a6f470100000000010600000000000000013145425001000000040000000000"
    "00000200000000000000000000000000f0bf060000000000000000000000000008"
    "4000000000000008400104020103030101010100000000000000005653505301000"
    "000010000000000000000000000000000000000000000000000";

// The same engine as a v3 blob (CRC-framed, no backpressure section).
constexpr const char* kRetiredEngineV3 =
    "474e454203000000cb0100000000000006000000000000000600000000000000010"
    "100000000000000000000000000000000444159440200000075010000000000000"
    "200000002000000000000000042504d4302000000c7000000000000000100000000"
    "0000000200000000000000f6d037a9000000000001060000000000000001314542"
    "50020000003e0000000000000004000000000000000200000000000000000000000"
    "000f0bf0300000000000000000000000000004000000000000000400102020104020"
    "000000000000000c7e0bb8a31454250020000003e00000000000000040000000000"
    "00000200000000000000000000000000f0bf0300000000000000000000000000004"
    "00000000000000040010204010402000000000000000067189f2d2c9f584e42504d"
    "4302000000790000000000000001000000000000000100000000000000af4a6f47"
    "010000000001060000000000000001314542500200000042000000000000000400"
    "0000000000000200000000000000000000000000f0bf0600000000000000000000"
    "00000008400000000000000840010402010303010101010000000000000000661"
    "446b4ad7513f99c4136e25653505301000000010000000000000000000000000000"
    "000000000000000000faad9dc2";

// A reader accepts only the version its writer emits: each retired
// (magic, version) is Corruption. DYAD v1 and BENG v1 are cut out of
// the BENG v2 bytes (v1 lacked v2's watermark and pending count), a
// BENG v4 blob whose reserved re-order cap slots are not zero (a cap
// of 2 events, as the retired option wrote it) is refused, and so is
// a snapshot blob that ends without the RPLM replica-metadata
// trailer.
TEST(FormatStabilityTest, RefusesRetiredVersions) {
  const BurstEngineOptions<Pbe1> o = SmallEngineOptions();
  const std::vector<uint8_t> engine_v2 = FromHex(kRetiredEngineV2);
  constexpr size_t kV2StateEnd = 26;  // magic .. finalized flag
  constexpr size_t kV2DyadBegin = 42;  // + watermark + pending count
  std::vector<uint8_t> engine_v1(engine_v2.begin(),
                                 engine_v2.begin() + kV2StateEnd);
  engine_v1[4] = 1;
  engine_v1.insert(engine_v1.end(), engine_v2.begin() + kV2DyadBegin,
                   engine_v2.end());
  BurstEngine1 current(o);
  ASSERT_TRUE(current.Append(0, 1).ok());
  BinaryWriter untrailed;
  current.Serialize(&untrailed);
  // The u64 cap slot follows the buffered records; with
  // none buffered it sits at payload offset 34: total_count(8) +
  // last_time(8) + started(1) + finalized(1) + watermark(8) +
  // pending count(8).
  std::vector<uint8_t> capped = untrailed.bytes();
  test::PatchFramedField<uint64_t>(&capped, 34, 2);

  auto read_engine = [&](BinaryReader* r) {
    return BurstEngine1(o).Deserialize(r);
  };
  struct Row {
    const char* name;
    std::vector<uint8_t> bytes;
    std::function<Status(BinaryReader*)> read;
  };
  const std::vector<Row> rows = {
      {"PBE1 v1", FromHex(kRetiredPbe1V1),
       [&](BinaryReader* r) { return Pbe1(o.cell).Deserialize(r); }},
      {"PBE2 v2", FromHex(kRetiredPbe2V2),
       [](BinaryReader* r) { return Pbe2().Deserialize(r); }},
      {"CMPB v1", FromHex(kRetiredCmPbeV1),
       [&](BinaryReader* r) {
         return CmPbe<Pbe1>(o.grid, o.cell).Deserialize(r);
       }},
      {"DYAD v1",
       std::vector<uint8_t>(engine_v2.begin() + kV2DyadBegin, engine_v2.end()),
       [&](BinaryReader* r) {
         return DyadicBurstIndex<Pbe1>(o.universe_size, o.grid, o.cell)
             .Deserialize(r);
       }},
      {"BENG v1", engine_v1, read_engine},
      {"BENG v2", engine_v2, read_engine},
      {"BENG v3", FromHex(kRetiredEngineV3), read_engine},
      {"BENG v4 with a re-order cap of 2", capped, read_engine},
      {"BSNP blob without RPLM", untrailed.bytes(),
       [&](BinaryReader* r) {
         BURSTHIST_RETURN_IF_ERROR(read_engine(r));
         WalPosition source;
         return recovery_internal::ReadReplicaMeta(r, &source);
       }},
  };
  for (const Row& row : rows) {
    BinaryReader r(row.bytes);
    EXPECT_EQ(row.read(&r).code(), StatusCode::kCorruption) << row.name;
  }
}

TEST(FormatStabilityTest, EngineHeaderGoldenV4) {
  BurstEngine1 engine(SmallEngineOptions());
  ASSERT_TRUE(engine.Append(0, 1).ok());
  engine.Finalize();
  BinaryWriter w;
  engine.Serialize(&w);
  // Magic "GNEB" little-endian ("BENG") + version 4.
  EXPECT_EQ(Hex(w.bytes()).substr(0, 16), "474e454204000000");
}

TEST(FormatStabilityTest, RoundTripPinnedPbe1Payload) {
  // A full payload frozen from the current writer; deserializing it
  // must keep working verbatim in future versions.
  Pbe1Options o;
  o.buffer_points = 4;
  o.budget_points = 2;
  Pbe1 original(o);
  for (Timestamp t : {1, 1, 3, 6, 10, 15, 15, 21}) original.Append(t);
  original.Finalize();
  BinaryWriter w;
  original.Serialize(&w);

  Pbe1 reread;
  BinaryReader r(w.bytes());
  ASSERT_TRUE(reread.Deserialize(&r).ok());
  EXPECT_EQ(reread.TotalCount(), 8u);
  for (Timestamp t = 0; t <= 25; ++t) {
    EXPECT_DOUBLE_EQ(reread.EstimateCumulative(t),
                     original.EstimateCumulative(t));
  }
}

}  // namespace
}  // namespace bursthist
