#include "src/runtime/value.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace sac::runtime {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Unit().is_unit());
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Int(3).AsDouble(), 3.0);  // int widens
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
}

TEST(ValueTest, TupleAccess) {
  Value t = VTuple({VInt(1), VDouble(2.0), VBool(false)});
  EXPECT_EQ(t.TupleSize(), 3u);
  EXPECT_EQ(t.At(0).AsInt(), 1);
  EXPECT_EQ(t.At(1).AsDouble(), 2.0);
  EXPECT_FALSE(t.At(2).AsBool());
}

TEST(ValueTest, EqualityIsStructural) {
  Value a = VPair(VIdx2(1, 2), VDouble(3.0));
  Value b = VPair(VIdx2(1, 2), VDouble(3.0));
  Value c = VPair(VIdx2(1, 3), VDouble(3.0));
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
}

TEST(ValueTest, EqualValuesHashEqually) {
  Value a = VTuple({VInt(7), VDouble(1.5)});
  Value b = VTuple({VInt(7), VDouble(1.5)});
  EXPECT_EQ(a.Hash(), b.Hash());
  // Int and Double with the same numeric value hash equally (they also
  // compare equal), so mixed-kind keys group correctly.
  EXPECT_EQ(VInt(5).Hash(), VDouble(5.0).Hash());
  EXPECT_TRUE(VInt(5).Equals(VDouble(5.0)));
}

TEST(ValueTest, CompareIsTotalOrder) {
  EXPECT_LT(VInt(1).Compare(VInt(2)), 0);
  EXPECT_GT(VInt(2).Compare(VInt(1)), 0);
  EXPECT_EQ(VInt(2).Compare(VInt(2)), 0);
  EXPECT_LT(VIdx2(1, 5).Compare(VIdx2(2, 0)), 0);
  EXPECT_LT(VIdx2(1, 5).Compare(VIdx2(1, 6)), 0);
  // Shorter tuple sorts first on shared prefix.
  EXPECT_LT(VTuple({VInt(1)}).Compare(VTuple({VInt(1), VInt(0)})), 0);
}

TEST(ValueTest, TileValueCopyOnWrite) {
  la::Tile t(2, 2);
  t.Set(0, 0, 1.0);
  Value a = Value::TileVal(std::move(t));
  Value b = a;  // shares the tile
  EXPECT_EQ(&a.AsTile(), &b.AsTile());
  la::Tile* mut = b.MutableTile();
  mut->Set(0, 0, 9.0);
  EXPECT_EQ(a.AsTile().At(0, 0), 1.0);  // original untouched
  EXPECT_EQ(b.AsTile().At(0, 0), 9.0);
}

TEST(ValueTest, MutableTileWithoutSharingDoesNotCopy) {
  Value a = Value::TileVal(la::Tile(2, 2));
  const la::Tile* before = &a.AsTile();
  EXPECT_EQ(a.MutableTile(), before);
}

TEST(ValueTest, SerializeRoundTripScalarsAndNesting) {
  Rng rng(77);
  la::Tile t(3, 4);
  t.FillRandom(&rng, 0.0, 10.0);
  Value v = VTuple({VIdx2(5, 9), Value::TileVal(std::move(t)),
                    Value::List({VInt(1), VDouble(2.5), Value::Str("x"),
                                 Value::Unit(), VBool(true)})});
  ByteWriter w;
  v.Serialize(&w);
  EXPECT_EQ(w.size(), v.SerializedSize());
  ByteReader r(w.buffer());
  auto back = Value::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().Equals(v));
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk = {0xFF, 0x01, 0x02};
  ByteReader r(junk.data(), junk.size());
  EXPECT_FALSE(Value::Deserialize(&r).ok());
}

TEST(ValueTest, DeserializeRejectsCorruptTileHeader) {
  ByteWriter w;
  w.PutU8(7);             // tile tag
  w.PutI64(1'000'000);    // rows
  w.PutI64(1'000'000);    // cols -- far more than remaining bytes
  ByteReader r(w.buffer());
  EXPECT_FALSE(Value::Deserialize(&r).ok());
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(VInt(3).ToString(), "3");
  EXPECT_EQ(VPair(VInt(1), VBool(false)).ToString(), "(1,false)");
  EXPECT_EQ(Value::List({VInt(1), VInt(2)}).ToString(), "[1,2]");
  EXPECT_EQ(Value::Unit().ToString(), "()");
}

TEST(ValueTest, NegativeZeroHashesLikeZero) {
  EXPECT_EQ(VDouble(-0.0).Hash(), VDouble(0.0).Hash());
  EXPECT_TRUE(VDouble(-0.0).Equals(VDouble(0.0)));
}

// The shuffle routes a row to partition Hash() % P. Tile keys are small
// integers and (i,j) tuples, so the hash must spread exactly those over
// every partition count the engine uses, powers of two included.
void ExpectBalanced(const std::vector<Value>& keys, int p) {
  std::vector<int> counts(p, 0);
  for (const Value& k : keys) ++counts[k.Hash() % static_cast<uint64_t>(p)];
  const double mean = static_cast<double>(keys.size()) / p;
  for (int d = 0; d < p; ++d) {
    EXPECT_GT(counts[d], 0) << "partition " << d << " of " << p << " empty";
    EXPECT_LE(counts[d], 1.5 * mean)
        << "partition " << d << " of " << p << " holds " << counts[d]
        << " of " << keys.size() << " keys";
  }
}

TEST(ValueTest, IntKeysFillEveryPartition) {
  std::vector<Value> keys;
  for (int64_t i = 0; i < 256; ++i) keys.push_back(VInt(i));
  for (int p : {2, 3, 4, 6, 8, 16}) ExpectBalanced(keys, p);
}

TEST(ValueTest, TileGridKeysFillEveryPartition) {
  std::vector<Value> keys;
  for (int64_t i = 0; i < 32; ++i) {
    for (int64_t j = 0; j < 32; ++j) keys.push_back(VIdx2(i, j));
  }
  for (int p : {2, 3, 4, 6, 8, 16}) ExpectBalanced(keys, p);
}

}  // namespace
}  // namespace sac::runtime
