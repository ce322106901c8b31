#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cbn/codec.h"
#include "cbn/profile.h"
#include "common/random.h"
#include "common/string_util.h"
#include "expr/expression.h"

namespace cosmos {
namespace {

// Seeded structural fuzzing of the wire codec: every generated Datagram
// and Profile must survive encode -> decode -> encode with the re-encoded
// bytes identical to the first encoding (canonical form), and the decoded
// object must compare equal field-by-field. Byte-identity is the strong
// property: it catches asymmetric encoders (lossy field, reordered map,
// float formatting) that a pure equality check can miss.

Value RandomValue(Rng& rng, ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return Value(rng.NextInt(-1000000, 1000000));
    case ValueType::kDouble: {
      // Mix plain values with exact-representation hazards.
      switch (rng.NextBounded(5)) {
        case 0:
          return Value(0.0);
        case 1:
          return Value(-0.0);
        case 2:
          return Value(rng.NextDouble(-1e9, 1e9));
        case 3:
          return Value(rng.NextDouble() * 1e-300);
        default:
          return Value(rng.NextGaussian());
      }
    }
    case ValueType::kString: {
      std::string s;
      size_t len = rng.NextBounded(12);
      for (size_t i = 0; i < len; ++i) {
        // Include NUL and high bytes: strings are length-prefixed.
        s.push_back(static_cast<char>(rng.NextBounded(256)));
      }
      return Value(std::move(s));
    }
    case ValueType::kBool:
      return Value(rng.NextBool());
    case ValueType::kNull:
    default:
      return Value();
  }
}

ValueType RandomType(Rng& rng) {
  static const ValueType kTypes[] = {ValueType::kInt64, ValueType::kDouble,
                                     ValueType::kString, ValueType::kBool,
                                     ValueType::kNull};
  return kTypes[rng.NextBounded(5)];
}

Datagram RandomDatagram(Rng& rng) {
  size_t num_attrs = 1 + rng.NextBounded(6);
  std::vector<AttributeDef> defs;
  std::vector<Value> values;
  std::vector<ValueType> types;
  for (size_t i = 0; i < num_attrs; ++i) {
    ValueType t = RandomType(rng);
    types.push_back(t);
    defs.push_back({StrFormat("a%zu", i), t});
  }
  std::string stream =
      StrFormat("s%d", static_cast<int>(rng.NextBounded(4)));
  auto schema = std::make_shared<Schema>(stream, std::move(defs));
  for (size_t i = 0; i < num_attrs; ++i) {
    values.push_back(RandomValue(rng, types[i]));
  }
  Timestamp ts = static_cast<Timestamp>(rng.NextUint64() >> 1);
  return Datagram{stream, Tuple(schema, std::move(values), ts)};
}

ExprPtr RandomResidual(Rng& rng, int depth = 0) {
  if (depth >= 2 || rng.NextBool(0.4)) {
    if (rng.NextBool()) {
      return MakeColumn(StrFormat("a%d", static_cast<int>(rng.NextBounded(4))));
    }
    return MakeLiteral(RandomValue(
        rng, rng.NextBool() ? ValueType::kDouble : ValueType::kInt64));
  }
  static const CompareOp kCmp[] = {CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe,
                                   CompareOp::kEq, CompareOp::kNe};
  static const ArithOp kArith[] = {ArithOp::kAdd, ArithOp::kSub,
                                   ArithOp::kMul, ArithOp::kDiv};
  if (rng.NextBool()) {
    return MakeCompare(kCmp[rng.NextBounded(6)], RandomResidual(rng, depth + 1),
                       RandomResidual(rng, depth + 1));
  }
  return MakeArith(kArith[rng.NextBounded(4)], RandomResidual(rng, depth + 1),
                   RandomResidual(rng, depth + 1));
}

Profile RandomProfile(Rng& rng) {
  Profile p;
  size_t num_streams = 1 + rng.NextBounded(3);
  for (size_t s = 0; s < num_streams; ++s) {
    std::string stream = StrFormat("s%zu", s);
    std::vector<std::string> projection;
    size_t num_proj = rng.NextBounded(4);  // 0 = all attributes
    for (size_t i = 0; i < num_proj; ++i) {
      projection.push_back(
          StrFormat("a%d", static_cast<int>(rng.NextBounded(6))));
    }
    p.AddStream(stream, projection);
    size_t num_filters = rng.NextBounded(3);
    for (size_t f = 0; f < num_filters; ++f) {
      ConjunctiveClause clause;
      size_t num_constraints = rng.NextBounded(3);
      for (size_t c = 0; c < num_constraints; ++c) {
        std::string attr =
            StrFormat("a%d", static_cast<int>(rng.NextBounded(4)));
        switch (rng.NextBounded(4)) {
          case 0: {
            double lo = rng.NextDouble(-100, 100);
            clause.ConstrainInterval(
                attr, Interval(lo, rng.NextBool(), lo + rng.NextDouble(0, 50),
                               rng.NextBool()));
            break;
          }
          case 1:
            clause.ConstrainEquals(attr,
                                   RandomValue(rng, ValueType::kInt64));
            break;
          case 2:
            clause.ConstrainNotEquals(attr,
                                      RandomValue(rng, ValueType::kString));
            break;
          default:
            clause.ConstrainInterval(attr, Interval::AtLeast(
                rng.NextDouble(-100, 100), rng.NextBool()));
            break;
        }
      }
      if (rng.NextBool(0.3)) clause.AddResidual(RandomResidual(rng));
      p.AddFilter(Filter(stream, std::move(clause)));
    }
  }
  return p;
}

TEST(CodecFuzz, DatagramRoundTripsByteIdentical) {
  Rng rng(0xC0DEC0DEull);
  for (int i = 0; i < 10000; ++i) {
    Datagram original = RandomDatagram(rng);
    std::vector<uint8_t> bytes = EncodeDatagram(original);
    auto decoded = DecodeDatagram(bytes);
    ASSERT_TRUE(decoded.ok())
        << "case " << i << ": " << decoded.status().ToString();
    ASSERT_EQ(decoded->stream, original.stream) << "case " << i;
    ASSERT_EQ(decoded->tuple.timestamp(), original.tuple.timestamp())
        << "case " << i;
    ASSERT_EQ(decoded->tuple.num_values(), original.tuple.num_values())
        << "case " << i;
    for (size_t v = 0; v < original.tuple.num_values(); ++v) {
      ASSERT_EQ(decoded->tuple.value(v).ToString(),
                original.tuple.value(v).ToString())
          << "case " << i << " value " << v;
    }
    std::vector<uint8_t> re = EncodeDatagram(*decoded);
    ASSERT_EQ(re, bytes) << "case " << i << ": re-encode not byte-identical";
  }
}

TEST(CodecFuzz, ProfileRoundTripsByteIdentical) {
  Rng rng(0x9120F11Eull);
  for (int i = 0; i < 10000; ++i) {
    Profile original = RandomProfile(rng);
    std::vector<uint8_t> bytes = EncodeProfile(original);
    auto decoded = DecodeProfile(bytes);
    ASSERT_TRUE(decoded.ok())
        << "case " << i << ": " << decoded.status().ToString()
        << "\nprofile: " << original.ToString();
    ASSERT_EQ(decoded->ToString(), original.ToString()) << "case " << i;
    std::vector<uint8_t> re = EncodeProfile(*decoded);
    ASSERT_EQ(re, bytes) << "case " << i << ": re-encode not byte-identical"
                         << "\nprofile: " << original.ToString();
  }
}

TEST(CodecFuzz, DatagramDecodeRejectsTruncations) {
  // Every strict prefix of a valid encoding must fail cleanly, never
  // crash or succeed: the deserializer guards each read.
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    Datagram d = RandomDatagram(rng);
    std::vector<uint8_t> bytes = EncodeDatagram(d);
    for (size_t cut = 0; cut < bytes.size();
         cut += 1 + bytes.size() / 37) {
      std::vector<uint8_t> prefix(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut));
      EXPECT_FALSE(DecodeDatagram(prefix).ok());
    }
  }
}

}  // namespace
}  // namespace cosmos
