// Unit tests for src/base: Result, logging, CRC32, byte codecs and the JSON
// writer's string escaping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/crc32.h"
#include "src/base/json.h"
#include "src/base/logging.h"
#include "src/base/result.h"

namespace hypertp {
namespace {

TEST(ResultTest, ValueRoundTrip) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, ErrorCarriesCodeAndMessage) {
  Result<int> r = NotFoundError("vm 3 not found");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message(), "vm 3 not found");
  EXPECT_EQ(r.error().ToString(), "NOT_FOUND: vm 3 not found");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, VoidSuccessAndFailure) {
  Result<void> ok = OkResult();
  EXPECT_TRUE(ok.ok());
  Result<void> bad = DataLossError("checksum");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kDataLoss);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  HYPERTP_ASSIGN_OR_RETURN(int h, Half(x));
  HYPERTP_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto good = Quarter(8);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 2);

  auto bad = Quarter(6);  // 6/2 = 3, second Half fails.
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kInvalidArgument);
}

TEST(ResultTest, AllErrorCodesHaveNames) {
  for (ErrorCode code :
       {ErrorCode::kInvalidArgument, ErrorCode::kNotFound, ErrorCode::kAlreadyExists,
        ErrorCode::kFailedPrecondition, ErrorCode::kOutOfRange, ErrorCode::kResourceExhausted,
        ErrorCode::kUnimplemented, ErrorCode::kInternal, ErrorCode::kDataLoss,
        ErrorCode::kUnavailable, ErrorCode::kAborted}) {
    EXPECT_NE(ErrorCodeName(code), "UNKNOWN");
  }
}

TEST(LoggingTest, SinkReceivesMessagesAboveThreshold) {
  std::vector<std::string> lines;
  LogSink old = SetLogSink([&lines](LogSeverity sev, std::string_view comp, std::string_view msg) {
    lines.push_back(std::string(LogSeverityName(sev)) + "/" + std::string(comp) + "/" +
                    std::string(msg));
  });
  SetMinLogSeverity(LogSeverity::kInfo);

  HYPERTP_LOG(kDebug, "test") << "dropped";
  HYPERTP_LOG(kInfo, "test") << "kept " << 42;
  HYPERTP_LOG(kError, "other") << "error";

  SetMinLogSeverity(LogSeverity::kWarning);
  SetLogSink(std::move(old));

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "INFO/test/kept 42");
  EXPECT_EQ(lines[1], "ERROR/other/error");
}

TEST(Crc32Test, KnownVectors) {
  // Standard check value for "123456789".
  const char* s = "123456789";
  std::vector<uint8_t> data(s, s + std::strlen(s));
  EXPECT_EQ(Crc32(data), 0xCBF43926u);

  EXPECT_EQ(Crc32(std::span<const uint8_t>{}), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<uint8_t>(i * 37));
  }
  const uint32_t whole = Crc32(data);
  uint32_t inc = 0;
  inc = Crc32Update(inc, std::span<const uint8_t>(data).subspan(0, 400));
  inc = Crc32Update(inc, std::span<const uint8_t>(data).subspan(400));
  EXPECT_EQ(inc, whole);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(64, 0xAB);
  const uint32_t before = Crc32(data);
  data[17] ^= 0x04;
  EXPECT_NE(Crc32(data), before);
}

std::vector<uint8_t> PatternBytes(size_t n, uint32_t seed) {
  std::vector<uint8_t> data(n);
  uint32_t x = seed;
  for (size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;  // LCG; any fixed mixing works.
    data[i] = static_cast<uint8_t>(x >> 24);
  }
  return data;
}

// The streaming composition property the UISR/PRAM CRC users rely on:
// Crc32Update(Crc32(a), b) == Crc32(a || b), for every split — including the
// degenerate ones. Pinned before slice-by-8 landed, so a table bug that
// breaks composition (not just absolute values) can't slip through.
TEST(Crc32Test, StreamingComposition) {
  const std::vector<uint8_t> whole = PatternBytes(257, 0x5EED);
  const uint32_t expected = Crc32(whole);
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{64},
                       size_t{100}, size_t{256}, size_t{257}}) {
    const auto a = std::span<const uint8_t>(whole).first(split);
    const auto b = std::span<const uint8_t>(whole).subspan(split);
    EXPECT_EQ(Crc32Update(Crc32(a), b), expected) << "split at " << split;
  }
}

TEST(Crc32Test, EmptyAndSingleByte) {
  EXPECT_EQ(Crc32(std::span<const uint8_t>{}), 0u);
  // CRC of one zero byte (standard reflected CRC-32).
  const uint8_t zero = 0;
  EXPECT_EQ(Crc32(std::span<const uint8_t>(&zero, 1)), 0xD202EF8Du);
  const uint8_t ff = 0xFF;
  EXPECT_EQ(Crc32(std::span<const uint8_t>(&ff, 1)), 0xFF000000u);
  // Updating with an empty span is the identity.
  EXPECT_EQ(Crc32Update(0x12345678u, std::span<const uint8_t>{}), 0x12345678u);
}

// Slice-by-8 processes 8-byte words with scalar head/tail loops; lengths
// around the word boundary exercise every head/body/tail combination.
TEST(Crc32Test, UnalignedHeadAndTailMatchBitwise) {
  for (size_t n = 0; n <= 40; ++n) {
    const std::vector<uint8_t> data = PatternBytes(n, static_cast<uint32_t>(n) * 7919u);
    EXPECT_EQ(Crc32(data), Crc32UpdateBitwise(0, data)) << "length " << n;
    // Composition with an unaligned head chunk too.
    if (n >= 3) {
      const auto head = std::span<const uint8_t>(data).first(3);
      const auto tail = std::span<const uint8_t>(data).subspan(3);
      EXPECT_EQ(Crc32Update(Crc32Update(0, head), tail), Crc32(data)) << "length " << n;
    }
  }
}

TEST(Crc32Test, BitwiseReferenceMatchesKnownVector) {
  const char* s = "123456789";
  std::vector<uint8_t> data(s, s + std::strlen(s));
  EXPECT_EQ(Crc32UpdateBitwise(0, data), 0xCBF43926u);
  EXPECT_EQ(Crc32UpdateBitwise(0, data), Crc32(data));
}

TEST(Crc32Test, SlicedMatchesBitwiseOnLargeBuffers) {
  for (size_t n : {size_t{1000}, size_t{4096}, size_t{65536 + 13}}) {
    const std::vector<uint8_t> data = PatternBytes(n, 0xC0FFEE);
    EXPECT_EQ(Crc32(data), Crc32UpdateBitwise(0, data)) << "length " << n;
  }
}

TEST(BytesTest, IntegerRoundTrip) {
  ByteWriter w;
  w.PutU8(0x12);
  w.PutU16(0x3456);
  w.PutU32(0x789ABCDE);
  w.PutU64(0x0123456789ABCDEFull);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU8().value(), 0x12);
  EXPECT_EQ(r.ReadU16().value(), 0x3456);
  EXPECT_EQ(r.ReadU32().value(), 0x789ABCDEu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, LittleEndianLayout) {
  ByteWriter w;
  w.PutU32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(BytesTest, StringsAndBlobs) {
  ByteWriter w;
  w.PutString("hypertp");
  std::vector<uint8_t> blob = {1, 2, 3};
  w.PutLengthPrefixed(blob);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadString().value(), "hypertp");
  EXPECT_EQ(r.ReadLengthPrefixed().value(), blob);
}

TEST(BytesTest, TruncationIsDataLoss) {
  ByteWriter w;
  w.PutU16(7);
  ByteReader r(w.bytes());
  auto res = r.ReadU32();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code(), ErrorCode::kDataLoss);
}

// Every fixed-width read past the end names the width it needed, where it
// stood and what was left, in the same words.
TEST(BytesTest, TruncationMessageNamesWidthOffsetAndRemainder) {
  const std::vector<uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7};
  const auto message_at = [&bytes](size_t offset, auto read) {
    ByteReader r(bytes);
    EXPECT_TRUE(r.Skip(offset).ok());
    auto res = read(r);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.error().code(), ErrorCode::kDataLoss);
    EXPECT_EQ(r.position(), offset);  // A failed read consumes nothing.
    return res.error().message();
  };
  EXPECT_EQ(message_at(7, [](ByteReader& r) { return r.ReadU8(); }),
            "byte reader: truncated input, need 1 bytes at offset 7, have 0");
  EXPECT_EQ(message_at(6, [](ByteReader& r) { return r.ReadU16(); }),
            "byte reader: truncated input, need 2 bytes at offset 6, have 1");
  EXPECT_EQ(message_at(4, [](ByteReader& r) { return r.ReadU32(); }),
            "byte reader: truncated input, need 4 bytes at offset 4, have 3");
  EXPECT_EQ(message_at(0, [](ByteReader& r) { return r.ReadU64(); }),
            "byte reader: truncated input, need 8 bytes at offset 0, have 7");
}

TEST(BytesTest, PatchU32BackfillsSectionSize) {
  ByteWriter w;
  w.PutU32(0);  // Placeholder.
  w.PutU64(99);
  w.PatchU32(0, static_cast<uint32_t>(w.size()));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU32().value(), 12u);
}

TEST(BytesTest, SkipAdvancesAndBoundsChecks) {
  ByteWriter w;
  w.PutU64(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.Skip(4).ok());
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_FALSE(r.Skip(5).ok());
}

// A span claiming more bytes than the u32 length prefix can carry. The data
// pointer backs only a handful of real bytes — safe because the writers'
// guard fires on size() before any byte is touched.
std::span<const uint8_t> OversizedSpan(const std::vector<uint8_t>& storage) {
  return std::span<const uint8_t>(storage.data(), kMaxLengthPrefixedBytes + 1);
}

TEST(BytesDeathTest, ByteWriterRejectsOversizedLengthPrefixed) {
  const std::vector<uint8_t> storage(8, 0xAA);
  EXPECT_DEATH(
      {
        ByteWriter w;
        w.PutLengthPrefixed(OversizedSpan(storage));
      },
      "check failed");
}

TEST(BytesDeathTest, ByteWriterRejectsOversizedString) {
  const std::vector<uint8_t> storage(8, 0x41);
  EXPECT_DEATH(
      {
        ByteWriter w;
        w.PutString(std::string_view(reinterpret_cast<const char*>(storage.data()),
                                     kMaxLengthPrefixedBytes + 1));
      },
      "check failed");
}

TEST(BytesDeathTest, ByteCounterMirrorsTheGuard) {
  // The pre-pass must fail exactly where the real encode would; a counter
  // that silently wraps would mis-size the frame extent instead.
  const std::vector<uint8_t> storage(8, 0xAA);
  EXPECT_DEATH(
      {
        ByteCounter c;
        c.PutLengthPrefixed(OversizedSpan(storage));
      },
      "check failed");
}

TEST(BytesTest, SpanWriterMatchesByteWriterByteForByte) {
  const std::vector<uint8_t> blob = {9, 8, 7, 6, 5};
  auto encode = [&](auto& w) {
    w.PutU8(0x12);
    w.PutU16(0x3456);
    w.PutU32(0);  // Placeholder for the patch below.
    w.PutU64(0x0123456789ABCDEFull);
    w.PutString("hypertp");
    w.PutLengthPrefixed(blob);
    w.PatchU32(3, static_cast<uint32_t>(w.size()));
  };

  ByteWriter reference;
  encode(reference);

  ByteCounter counter;
  encode(counter);
  ASSERT_EQ(counter.size(), reference.size());

  std::vector<uint8_t> storage(counter.size());
  SpanWriter sw{std::span<uint8_t>(storage)};
  encode(sw);
  EXPECT_EQ(sw.size(), storage.size());
  EXPECT_EQ(storage, reference.bytes());
}

TEST(BytesTest, SpanWriterWrittenViewsSuffix) {
  std::vector<uint8_t> storage(16);
  SpanWriter w{std::span<uint8_t>(storage)};
  w.PutU32(0xAABBCCDD);
  w.PutU32(0x11223344);
  const auto all = w.Written(0);
  EXPECT_EQ(all.size(), 8u);
  const auto tail = w.Written(4);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail[0], 0x44);
}

TEST(BytesDeathTest, SpanWriterAbortsOnOverflow) {
  std::vector<uint8_t> storage(3);
  EXPECT_DEATH(
      {
        SpanWriter w{std::span<uint8_t>(storage)};
        w.PutU32(1);  // 4 bytes into a 3-byte span.
      },
      "check failed");
}

std::string JsonString(std::string_view s) {
  JsonWriter j;
  j.String(s);
  return j.Take();
}

TEST(JsonWriterTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonString(R"(say "hi")"), R"("say \"hi\"")");
  EXPECT_EQ(JsonString(R"(C:\tmp\x)"), R"("C:\\tmp\\x")");
}

TEST(JsonWriterTest, EscapesNamedControlCharacters) {
  EXPECT_EQ(JsonString("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonString("a\rb"), "\"a\\rb\"");
  EXPECT_EQ(JsonString("a\tb"), "\"a\\tb\"");
}

TEST(JsonWriterTest, EscapesUnnamedControlCharactersAsUnicode) {
  // Every control byte without a short escape must become \u00XX, including
  // an embedded NUL (string_view carries the length, so NUL is a real byte).
  EXPECT_EQ(JsonString(std::string_view("a\0b", 3)), "\"a\\u0000b\"");
  EXPECT_EQ(JsonString("\x01"), "\"\\u0001\"");
  EXPECT_EQ(JsonString("\x1f"), "\"\\u001f\"");
  EXPECT_EQ(JsonString("\x0b"), "\"\\u000b\"");  // Vertical tab has no short form.
}

TEST(JsonWriterTest, HighBytesPassThroughVerbatim) {
  // 8-bit bytes (UTF-8 continuation bytes, Latin-1) are not control
  // characters: a signed-char comparison must not misroute them into the
  // \u escape path.
  const std::string utf8 = "caf\xc3\xa9";  // "café" in UTF-8.
  EXPECT_EQ(JsonString(utf8), "\"" + utf8 + "\"");
  EXPECT_EQ(JsonString("\x80"), std::string("\"\x80\""));
  EXPECT_EQ(JsonString("\xff"), std::string("\"\xff\""));
}

TEST(JsonWriterTest, KeysAreEscapedToo) {
  JsonWriter j;
  j.BeginObject();
  j.Key("we\"ird").String("v");
  j.EndObject();
  EXPECT_EQ(j.Take(), R"({"we\"ird":"v"})");
}

}  // namespace
}  // namespace hypertp
