// Unit tests for src/common: ProcSet, Protection helpers, core types, SplitMix64.

#include <gtest/gtest.h>

#include "src/common/proc_set.h"
#include "src/common/protection.h"
#include "src/common/splitmix64.h"
#include "src/common/types.h"

namespace ace {
namespace {

TEST(ProcSet, StartsEmpty) {
  ProcSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0);
  EXPECT_EQ(s.First(), kNoProc);
  EXPECT_FALSE(s.Contains(0));
}

TEST(ProcSet, AddRemoveContains) {
  ProcSet s;
  s.Add(3);
  s.Add(7);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(7));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_EQ(s.Count(), 2);
  s.Remove(3);
  EXPECT_FALSE(s.Contains(3));
  EXPECT_EQ(s.Count(), 1);
  s.Remove(3);  // idempotent
  EXPECT_EQ(s.Count(), 1);
}

TEST(ProcSet, AddIsIdempotent) {
  ProcSet s;
  s.Add(5);
  s.Add(5);
  EXPECT_EQ(s.Count(), 1);
}

TEST(ProcSet, FirstReturnsLowest) {
  ProcSet s;
  s.Add(9);
  s.Add(2);
  s.Add(15);
  EXPECT_EQ(s.First(), 2);
}

TEST(ProcSet, SingleFactory) {
  ProcSet s = ProcSet::Single(6);
  EXPECT_EQ(s.Count(), 1);
  EXPECT_TRUE(s.Contains(6));
}

TEST(ProcSet, ForEachVisitsInOrder) {
  ProcSet s;
  s.Add(10);
  s.Add(1);
  s.Add(4);
  std::vector<ProcId> seen;
  s.ForEach([&](ProcId p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<ProcId>{1, 4, 10}));
}

TEST(ProcSet, ForEachAllowsRemovalOfVisited) {
  // FlushAllCopies removes members while iterating; the iteration must be safe
  // because ForEach iterates over a snapshot... it iterates the live bits copy.
  ProcSet s;
  for (ProcId p = 0; p < 8; ++p) {
    s.Add(p);
  }
  std::vector<ProcId> seen;
  s.ForEach([&](ProcId p) {
    seen.push_back(p);
    s.Remove(p);
  });
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_TRUE(s.Empty());
}

TEST(ProcSet, Clear) {
  ProcSet s;
  s.Add(0);
  s.Add(15);
  s.Clear();
  EXPECT_TRUE(s.Empty());
}

TEST(ProcSet, MaxProcessorBoundary) {
  ProcSet s;
  s.Add(kMaxProcessors - 1);
  EXPECT_TRUE(s.Contains(kMaxProcessors - 1));
  EXPECT_EQ(s.First(), kMaxProcessors - 1);
}

TEST(ProcSet, Equality) {
  ProcSet a;
  ProcSet b;
  a.Add(2);
  b.Add(2);
  EXPECT_EQ(a, b);
  b.Add(3);
  EXPECT_FALSE(a == b);
}

TEST(Protection, AllowsMatrix) {
  EXPECT_FALSE(Allows(Protection::kNone, AccessKind::kFetch));
  EXPECT_FALSE(Allows(Protection::kNone, AccessKind::kStore));
  EXPECT_TRUE(Allows(Protection::kRead, AccessKind::kFetch));
  EXPECT_FALSE(Allows(Protection::kRead, AccessKind::kStore));
  EXPECT_TRUE(Allows(Protection::kReadWrite, AccessKind::kFetch));
  EXPECT_TRUE(Allows(Protection::kReadWrite, AccessKind::kStore));
}

TEST(Protection, MinProtFor) {
  EXPECT_EQ(MinProtFor(AccessKind::kFetch), Protection::kRead);
  EXPECT_EQ(MinProtFor(AccessKind::kStore), Protection::kReadWrite);
}

TEST(Protection, ProtLeqIsTotalOrder) {
  EXPECT_TRUE(ProtLeq(Protection::kNone, Protection::kRead));
  EXPECT_TRUE(ProtLeq(Protection::kRead, Protection::kReadWrite));
  EXPECT_TRUE(ProtLeq(Protection::kRead, Protection::kRead));
  EXPECT_FALSE(ProtLeq(Protection::kReadWrite, Protection::kRead));
}

TEST(Protection, Names) {
  EXPECT_STREQ(ProtName(Protection::kNone), "none");
  EXPECT_STREQ(ProtName(Protection::kRead), "read");
  EXPECT_STREQ(ProtName(Protection::kReadWrite), "read-write");
}

// Reference outputs of the SplitMix64 step, checked against an independent
// implementation: every deterministic stream in the repo (fault plans, serving
// traces, conformance ops, soak runs) depends on these exact values.
TEST(SplitMix64, MatchesReferenceOutputs) {
  SplitMix64 a(1234567);
  EXPECT_EQ(a.Next(), 6457827717110365317ULL);
  EXPECT_EQ(a.Next(), 3203168211198807973ULL);
  EXPECT_EQ(a.Next(), 9817491932198370423ULL);

  std::uint64_t state = 0;
  EXPECT_EQ(SplitMix64Next(&state), 16294208416658607535ULL);
  EXPECT_EQ(SplitMix64Next(&state), 7960286522194355700ULL);
  EXPECT_EQ(SplitMix64Next(&state), 487617019471545679ULL);
}

TEST(SplitMix64, BelowAndUnitDeriveFromNext) {
  SplitMix64 ref(99);
  SplitMix64 below(99);
  SplitMix64 unit(99);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t next = ref.Next();
    EXPECT_EQ(below.Below(1000), next % 1000);
    double u = unit.Unit();
    EXPECT_EQ(u, static_cast<double>(next >> 11) * 0x1.0p-53);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace ace
