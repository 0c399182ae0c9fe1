// Unit tests for src/mmu: translation, faults, the Rosetta single-mapping quirk.

#include <gtest/gtest.h>

#include "src/mmu/mmu.h"

namespace ace {
namespace {

TEST(Mmu, TranslateMissesOnEmpty) {
  Mmu mmu(0);
  TranslateResult r = mmu.Translate(5, AccessKind::kFetch);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.fault, FaultKind::kNoMapping);
}

TEST(Mmu, EnterThenTranslate) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kReadWrite);
  TranslateResult r = mmu.Translate(5, AccessKind::kStore);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame, FrameRef::Global(2));
  EXPECT_EQ(r.prot, Protection::kReadWrite);
}

TEST(Mmu, ProtectionFaultOnReadOnlyStore) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Local(0, 1), Protection::kRead);
  EXPECT_TRUE(mmu.Translate(5, AccessKind::kFetch).ok());
  TranslateResult r = mmu.Translate(5, AccessKind::kStore);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.fault, FaultKind::kProtection);
}

TEST(Mmu, ReplaceMappingSameVpage) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  mmu.Enter(5, FrameRef::Local(0, 3), Protection::kReadWrite);
  TranslateResult r = mmu.Translate(5, AccessKind::kStore);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame, FrameRef::Local(0, 3));
  EXPECT_EQ(mmu.MappingCount(), 1u);
}

TEST(Mmu, RosettaDisplacesSecondVirtualAddressForSameFrame) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  Mmu::EnterResult er = mmu.Enter(9, FrameRef::Global(2), Protection::kRead);
  EXPECT_TRUE(er.displaced);
  EXPECT_EQ(er.displaced_vpage, 5u);
  EXPECT_FALSE(mmu.Translate(5, AccessKind::kFetch).ok());  // displaced -> refault
  EXPECT_TRUE(mmu.Translate(9, AccessKind::kFetch).ok());
  EXPECT_EQ(mmu.MappingCount(), 1u);
}

TEST(Mmu, ReenteringSameVpageSameFrameDoesNotDisplaceItself) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  Mmu::EnterResult er = mmu.Enter(5, FrameRef::Global(2), Protection::kReadWrite);
  EXPECT_FALSE(er.displaced);
  EXPECT_EQ(mmu.Translate(5, AccessKind::kStore).prot, Protection::kReadWrite);
}

TEST(Mmu, RemoveDropsMappingAndReverseEntry) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  EXPECT_TRUE(mmu.Remove(5));
  EXPECT_FALSE(mmu.Remove(5));  // already gone
  // Frame 2 is free again: a new vpage can map it without displacement.
  Mmu::EnterResult er = mmu.Enter(9, FrameRef::Global(2), Protection::kRead);
  EXPECT_FALSE(er.displaced);
}

TEST(Mmu, DowngradeTightensButNeverLoosens) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kReadWrite);
  mmu.Downgrade(5, Protection::kRead);
  EXPECT_EQ(mmu.Translate(5, AccessKind::kFetch).prot, Protection::kRead);
  EXPECT_FALSE(mmu.Translate(5, AccessKind::kStore).ok());
  // Downgrade with a looser protection is a no-op.
  mmu.Downgrade(5, Protection::kReadWrite);
  EXPECT_EQ(mmu.Translate(5, AccessKind::kFetch).prot, Protection::kRead);
  // Downgrade of an absent vpage is a no-op.
  mmu.Downgrade(77, Protection::kRead);
}

TEST(Mmu, RemapVpageToNewFrameCleansReverseIndex) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  mmu.Enter(5, FrameRef::Global(3), Protection::kRead);  // vpage 5 now -> frame 3
  // Frame 2's reverse entry must be gone: mapping it from vpage 9 displaces nothing.
  Mmu::EnterResult er = mmu.Enter(9, FrameRef::Global(2), Protection::kRead);
  EXPECT_FALSE(er.displaced);
  EXPECT_TRUE(mmu.Translate(5, AccessKind::kFetch).ok());
  EXPECT_TRUE(mmu.Translate(9, AccessKind::kFetch).ok());
}

TEST(Mmu, RemoveAllClearsEverything) {
  Mmu mmu(0);
  for (VirtPage v = 0; v < 10; ++v) {
    mmu.Enter(v, FrameRef::Global(static_cast<std::uint32_t>(v)), Protection::kRead);
  }
  EXPECT_EQ(mmu.MappingCount(), 10u);
  mmu.RemoveAll();
  EXPECT_EQ(mmu.MappingCount(), 0u);
}

TEST(Mmu, ForEachMappingVisitsAll) {
  Mmu mmu(1);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  mmu.Enter(6, FrameRef::Local(1, 0), Protection::kReadWrite);
  int count = 0;
  mmu.ForEachMapping([&](VirtPage vpage, FrameRef frame, Protection prot) {
    ++count;
    if (vpage == 5) {
      EXPECT_EQ(frame, FrameRef::Global(2));
      EXPECT_EQ(prot, Protection::kRead);
    } else {
      EXPECT_EQ(vpage, 6u);
      EXPECT_EQ(frame, FrameRef::Local(1, 0));
    }
  });
  EXPECT_EQ(count, 2);
}

TEST(MmuArray, PerProcessorIsolation) {
  MmuArray mmus(3);
  mmus.At(0).Enter(5, FrameRef::Global(2), Protection::kRead);
  EXPECT_TRUE(mmus.At(0).Translate(5, AccessKind::kFetch).ok());
  EXPECT_FALSE(mmus.At(1).Translate(5, AccessKind::kFetch).ok());
  EXPECT_EQ(mmus.num_processors(), 3);
  EXPECT_EQ(mmus.At(2).proc(), 2);
}

}  // namespace
}  // namespace ace
