// Hardening tests for src/obs/json_lite: the parser reads untrusted bytes (committed
// baselines, live feeds, trace files), so truncated,
// garbage, and adversarial input must fail closed with a source-position diagnostic
// — never crash, hang, or silently accept. The writer, AppendJsonString, must produce
// strings the parser reads back byte for byte.

#include <gtest/gtest.h>

#include <string>

#include "src/obs/json_lite.h"

namespace ace {
namespace {

bool Parses(const std::string& text, std::string* error = nullptr) {
  JsonValue doc;
  std::string local;
  return ParseJson(text, &doc, error != nullptr ? error : &local);
}

// --- the corpus -----------------------------------------------------------------------

// Mid-token EOF at every interesting cut point: each prefix of a valid document that
// is not itself a valid document must be rejected with a diagnostic.
TEST(JsonLite, RejectsTruncatedInput) {
  const char* kTruncated[] = {
      "",            // empty input
      "{",           // object never opened a key
      "{\"a\"",      // key without ':'
      "{\"a\":",     // ':' without value
      "{\"a\":1",    // value without '}'
      "{\"a\":1,",   // ',' promising a member that never comes
      "[",           // unterminated array
      "[1,2",        // array cut after an element
      "[1,",         // array cut after ','
      "\"abc",       // unterminated string
      "\"ab\\",      // string cut inside an escape
      "\"ab\\u00",   // string cut inside a \u escape
      "tru",         // literal cut short
      "fals",        //
      "nul",         //
      "-",           // sign without digits
      "1e",          // exponent without digits
  };
  for (const char* text : kTruncated) {
    std::string error;
    EXPECT_FALSE(Parses(text, &error)) << "accepted truncated input: '" << text << "'";
    EXPECT_NE(error.find("at byte"), std::string::npos)
        << "'" << text << "': diagnostic lacks a byte offset: " << error;
  }
}

TEST(JsonLite, RejectsGarbage) {
  const char* kGarbage[] = {
      "xyz",            // bare identifier
      "{a:1}",          // unquoted key
      "{\"a\" 1}",      // missing ':'
      "{\"a\":1 \"b\":2}",  // missing ','
      "[1 2]",          // missing ',' in array
      "{\"a\":1}}",     // trailing character
      "[1,2],",         // trailing comma after document
      "{,}",            // leading comma
      "[,]",            //
      "\"a\\q\"",       // unknown escape
      "0x10",           // no hex
      "1.2.3",          // malformed number
      "\x01",           // control garbage
  };
  for (const char* text : kGarbage) {
    std::string error;
    EXPECT_FALSE(Parses(text, &error)) << "accepted garbage: '" << text << "'";
    EXPECT_FALSE(error.empty()) << text;
  }
}

// Deep nesting is an error, not a stack overflow: `[[[[...` from a hostile or
// corrupt file must be rejected at the depth limit.
TEST(JsonLite, RejectsNestingBeyondLimit) {
  std::string deep;
  for (int i = 0; i < 100000; ++i) {
    deep += '[';
  }
  std::string error;
  EXPECT_FALSE(Parses(deep, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;

  // Mixed object/array nesting hits the same guard.
  std::string mixed;
  for (int i = 0; i < 5000; ++i) {
    mixed += "{\"a\":[";
  }
  EXPECT_FALSE(Parses(mixed, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

TEST(JsonLite, AcceptsNestingWithinLimit) {
  std::string doc;
  for (int i = 0; i < 150; ++i) {
    doc += '[';
  }
  doc += "1";
  for (int i = 0; i < 150; ++i) {
    doc += ']';
  }
  EXPECT_TRUE(Parses(doc));
}

// --- diagnostics ----------------------------------------------------------------------

TEST(JsonLite, ErrorsCarryLineAndColumn) {
  // The violation sits on line 3: a bare identifier where a value belongs.
  std::string error;
  EXPECT_FALSE(Parses("{\n\"a\": 1,\n\"b\": oops\n}", &error));
  EXPECT_NE(error.find("(line 3, column "), std::string::npos) << error;
  EXPECT_NE(error.find("at byte"), std::string::npos) << error;

  // Single-line input reports line 1 with the column matching the byte offset + 1.
  EXPECT_FALSE(Parses("[1, oops]", &error));
  EXPECT_NE(error.find("at byte 4 (line 1, column 5)"), std::string::npos) << error;
}

// --- the happy path stays intact ------------------------------------------------------

// Reusing one JsonValue across ParseJson calls must not accumulate state from the
// previous document (regression: members/items used to append).
TEST(JsonLite, ReusedOutputValueIsReset) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson("{\"a\":1,\"b\":[1,2,3]}", &doc, &error)) << error;
  EXPECT_EQ(doc.members.size(), 2u);
  ASSERT_TRUE(ParseJson("{\"c\":2}", &doc, &error)) << error;
  EXPECT_EQ(doc.members.size(), 1u);
  EXPECT_EQ(doc.Find("a"), nullptr);
  ASSERT_TRUE(ParseJson("null", &doc, &error)) << error;
  EXPECT_EQ(doc.kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(doc.members.empty());
}

TEST(JsonLite, StillParsesWellFormedDocuments) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(
      "{\"s\":\"a\\n\\\"b\\\"\",\"n\":-1.5e3,\"t\":true,\"f\":false,\"z\":null,"
      "\"arr\":[1,2,3],\"obj\":{\"k\":0}}  ",
      &doc, &error))
      << error;
  EXPECT_TRUE(doc.is_object());
  EXPECT_EQ(doc.StringOr("s", ""), "a\n\"b\"");
  EXPECT_DOUBLE_EQ(doc.NumberOr("n", 0), -1500.0);
  ASSERT_NE(doc.Find("arr"), nullptr);
  EXPECT_EQ(doc.Find("arr")->items.size(), 3u);
  EXPECT_EQ(doc.Find("z")->kind, JsonValue::Kind::kNull);
}

// --- the writer ------------------------------------------------------------------------

// Write `s` with AppendJsonString and read it back with ParseJson.
std::string RoundTrip(const std::string& s) {
  std::string json;
  AppendJsonString(&json, s);
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(json, &doc, &error)) << error << " in " << json;
  EXPECT_TRUE(doc.is_string()) << json;
  return doc.str;
}

TEST(JsonLite, WriterRoundTripsEveryAsciiByte) {
  for (int b = 0x01; b <= 0x7f; ++b) {
    std::string s = "a";
    s += static_cast<char>(b);
    s += "z";
    EXPECT_EQ(RoundTrip(s), s) << "byte 0x" << std::hex << b;
  }
}

TEST(JsonLite, WriterRoundTripsUtf8QuotesAndBackslashes) {
  const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x90\x9f";
  EXPECT_EQ(RoundTrip(utf8), utf8);
  const std::string quoted = "say \"hi\" to C:\\dir\\ and \\\"both\\\"";
  EXPECT_EQ(RoundTrip(quoted), quoted);
}

TEST(JsonLite, WriterEscapesControlBytesExactly) {
  std::string json;
  AppendJsonString(&json, "\r\n\t\x01");
  EXPECT_EQ(json, "\"\\r\\n\\t\\u0001\"");
}

}  // namespace
}  // namespace ace
