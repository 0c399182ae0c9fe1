// Unit tests for src/sim: latency model, machine config, physical memory, clocks, bus.

#include <gtest/gtest.h>

#ifdef __linux__
#include <sys/resource.h>
#endif

#include <cstring>
#include <memory>
#include <vector>

#include "src/sim/clocks.h"
#include "src/sim/machine_config.h"
#include "src/sim/physical_memory.h"
#include "src/sim/stats.h"

namespace ace {
namespace {

TEST(LatencyModel, PaperDefaults) {
  LatencyModel lat;
  EXPECT_EQ(lat.Cost(MemoryClass::kLocal, AccessKind::kFetch), 650);
  EXPECT_EQ(lat.Cost(MemoryClass::kLocal, AccessKind::kStore), 840);
  EXPECT_EQ(lat.Cost(MemoryClass::kGlobal, AccessKind::kFetch), 1500);
  EXPECT_EQ(lat.Cost(MemoryClass::kGlobal, AccessKind::kStore), 1400);
}

TEST(LatencyModel, PaperRatios) {
  LatencyModel lat;
  EXPECT_NEAR(lat.FetchRatio(), 2.31, 0.01);
  // "about 2 times slower for reference mixes that are 45% stores"
  EXPECT_NEAR(lat.MixRatio(0.45), 2.0, 0.05);
  // store-only ratio ~1.67 ("1.7 times slower on stores")
  EXPECT_NEAR(lat.MixRatio(1.0), 1.67, 0.01);
}

TEST(LatencyModel, RemoteSlowerThanGlobal) {
  LatencyModel lat;
  EXPECT_GT(lat.Cost(MemoryClass::kRemote, AccessKind::kFetch),
            lat.Cost(MemoryClass::kGlobal, AccessKind::kFetch));
}

TEST(MachineConfig, PageShift) {
  MachineConfig config;
  config.page_size = 4096;
  EXPECT_EQ(config.PageShift(), 12u);
  config.page_size = 2048;
  EXPECT_EQ(config.PageShift(), 11u);
  EXPECT_EQ(config.WordsPerPage(), 512u);
}

TEST(MachineConfig, ValidateAcceptsDefaults) {
  MachineConfig config;
  config.Validate();  // must not abort
}

TEST(MachineConfigDeath, RejectsBadProcessorCount) {
  MachineConfig config;
  config.num_processors = 0;
  EXPECT_DEATH(config.Validate(), "ACE_CHECK");
  config.num_processors = kMaxProcessors + 1;
  EXPECT_DEATH(config.Validate(), "ACE_CHECK");
}

TEST(MachineConfigDeath, RejectsNonPowerOfTwoPage) {
  MachineConfig config;
  config.page_size = 3000;
  EXPECT_DEATH(config.Validate(), "ACE_CHECK");
}

MachineConfig SmallConfig() {
  MachineConfig config;
  config.num_processors = 2;
  config.global_pages = 8;
  config.local_pages_per_proc = 4;
  return config;
}

TEST(PhysicalMemory, LocalAllocExhaustsAndRecycles) {
  PhysicalMemory phys(SmallConfig());
  EXPECT_EQ(phys.FreeLocalFrames(0), 4u);
  std::vector<FrameRef> frames;
  for (int i = 0; i < 4; ++i) {
    FrameRef f = phys.AllocLocal(0);
    ASSERT_TRUE(f.valid());
    EXPECT_EQ(f.node, 0);
    frames.push_back(f);
  }
  EXPECT_FALSE(phys.AllocLocal(0).valid());  // exhausted
  EXPECT_EQ(phys.FreeLocalFrames(0), 0u);
  // The other processor's local memory is unaffected.
  EXPECT_EQ(phys.FreeLocalFrames(1), 4u);
  phys.FreeLocal(frames[2]);
  FrameRef again = phys.AllocLocal(0);
  EXPECT_TRUE(again.valid());
  EXPECT_EQ(again.index, frames[2].index);
}

TEST(PhysicalMemory, WordReadWriteRoundTrip) {
  PhysicalMemory phys(SmallConfig());
  FrameRef g = FrameRef::Global(3);
  phys.WriteWord(g, 128, 0xabcd1234);
  EXPECT_EQ(phys.ReadWord(g, 128), 0xabcd1234u);
  EXPECT_EQ(phys.ReadWord(g, 132), 0u);  // fresh memory is zeroed
}

TEST(PhysicalMemory, CopyPageMovesBytesAndCharges) {
  MachineConfig config = SmallConfig();
  PhysicalMemory phys(config);
  FrameRef g = FrameRef::Global(0);
  FrameRef l = phys.AllocLocal(1);
  for (std::uint32_t w = 0; w < config.WordsPerPage(); ++w) {
    phys.WriteWord(g, w * 4, w * 7);
  }
  // Copier is processor 1: fetch global + store local per word.
  TimeNs cost = phys.CopyPage(g, l, 1);
  TimeNs expected = static_cast<TimeNs>(config.WordsPerPage()) *
                    (config.latency.global_fetch_ns + config.latency.local_store_ns);
  EXPECT_EQ(cost, expected);
  for (std::uint32_t w = 0; w < config.WordsPerPage(); ++w) {
    EXPECT_EQ(phys.ReadWord(l, w * 4), w * 7);
  }
}

TEST(PhysicalMemory, CopyLocalToGlobalCost) {
  MachineConfig config = SmallConfig();
  PhysicalMemory phys(config);
  FrameRef l = phys.AllocLocal(0);
  TimeNs cost = phys.CopyPage(l, FrameRef::Global(1), 0);
  TimeNs expected = static_cast<TimeNs>(config.WordsPerPage()) *
                    (config.latency.local_fetch_ns + config.latency.global_store_ns);
  EXPECT_EQ(cost, expected);
}

TEST(PhysicalMemory, CopyEfficiencyScalesCost) {
  MachineConfig config = SmallConfig();
  config.kernel.copy_efficiency = 0.25;
  PhysicalMemory phys(config);
  FrameRef l = phys.AllocLocal(0);
  TimeNs cost = phys.CopyPage(FrameRef::Global(0), l, 0);
  TimeNs full = static_cast<TimeNs>(config.WordsPerPage()) *
                (config.latency.global_fetch_ns + config.latency.local_store_ns);
  EXPECT_EQ(cost, full / 4);
}

TEST(PhysicalMemory, ZeroPage) {
  MachineConfig config = SmallConfig();
  PhysicalMemory phys(config);
  FrameRef l = phys.AllocLocal(0);
  phys.WriteWord(l, 0, 42);
  TimeNs cost = phys.ZeroPage(l, 0);
  EXPECT_EQ(cost, static_cast<TimeNs>(config.WordsPerPage()) * config.latency.local_store_ns);
  EXPECT_EQ(phys.ReadWord(l, 0), 0u);
}

// The default machine shape of the paper's Table 4 runs: 7 processors, 8 Mbyte of
// local memory each and a 16 Mbyte global board.
MachineConfig DefaultShape() {
  MachineConfig config;
  config.num_processors = 7;
  return config;
}

#ifdef __linux__
TEST(PhysicalMemory, ConstructionCommitsNoFrameMemory) {
  MachineConfig config = DefaultShape();
  rusage before{};
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_THREAD, &before), 0);
  auto phys = std::make_unique<PhysicalMemory>(config);
  ASSERT_EQ(getrusage(RUSAGE_THREAD, &after), 0);
  // 72 Mbyte of frames is 18,432 host pages; only the free lists may fault in.
  EXPECT_LT(after.ru_minflt - before.ru_minflt, 64);
  EXPECT_EQ(phys->FreeLocalFrames(6), 2048u);
}
#endif  // __linux__

TEST(PhysicalMemory, UntouchedFramesOfEverySlabReadZero) {
  MachineConfig config = DefaultShape();
  PhysicalMemory phys(config);
  const std::uint32_t last_word = config.page_size - kWordBytes;
  std::vector<FrameRef> edges = {FrameRef::Global(0), FrameRef::Global(config.global_pages - 1)};
  for (ProcId p = 0; p < config.num_processors; ++p) {
    edges.push_back(FrameRef::Local(p, 0));
    edges.push_back(FrameRef::Local(p, config.local_pages_per_proc - 1));
  }
  for (FrameRef f : edges) {
    EXPECT_EQ(phys.ReadWord(f, 0), 0u);
    EXPECT_EQ(phys.ReadWord(f, last_word), 0u);
  }
}

TEST(PhysicalMemory, ZeroAndCopyBetweenUntouchedFrames) {
  MachineConfig config = SmallConfig();
  PhysicalMemory phys(config);
  const std::vector<std::uint8_t> zeros(config.page_size, 0);
  const TimeNs words = config.WordsPerPage();

  FrameRef l0 = phys.AllocLocal(0);
  EXPECT_EQ(phys.ZeroPage(l0, 0), words * config.latency.local_store_ns);
  EXPECT_EQ(std::memcmp(phys.FrameData(l0), zeros.data(), zeros.size()), 0);

  FrameRef l1 = phys.AllocLocal(1);
  EXPECT_EQ(phys.CopyPage(FrameRef::Global(5), l1, 1),
            words * (config.latency.global_fetch_ns + config.latency.local_store_ns));
  EXPECT_EQ(std::memcmp(phys.FrameData(l1), zeros.data(), zeros.size()), 0);

  FrameRef l1b = phys.AllocLocal(1);
  EXPECT_EQ(phys.CopyPage(l1b, FrameRef::Global(6), 0),
            words * (config.latency.remote_fetch_ns + config.latency.global_store_ns));
  EXPECT_EQ(std::memcmp(phys.FrameData(FrameRef::Global(6)), zeros.data(), zeros.size()), 0);
}

TEST(PhysicalMemory, PoisonLocalOverwritesTheWholeSlab) {
  MachineConfig config = SmallConfig();
  PhysicalMemory phys(config);
  phys.WriteWord(FrameRef::Local(1, 2), 8, 42);
  phys.PoisonLocal(1, 0xDE);
  for (std::uint32_t i = 0; i < config.local_pages_per_proc; ++i) {
    for (std::uint32_t off = 0; off < config.page_size; off += kWordBytes) {
      ASSERT_EQ(phys.ReadWord(FrameRef::Local(1, i), off), 0xDEDEDEDEu) << i << "+" << off;
      ASSERT_EQ(phys.ReadWord(FrameRef::Local(0, i), off), 0u) << i << "+" << off;
    }
  }
}

TEST(FrameRef, ClassFor) {
  EXPECT_EQ(FrameRef::Global(0).ClassFor(2), MemoryClass::kGlobal);
  EXPECT_EQ(FrameRef::Local(2, 0).ClassFor(2), MemoryClass::kLocal);
  EXPECT_EQ(FrameRef::Local(1, 0).ClassFor(2), MemoryClass::kRemote);
}

TEST(ProcClocks, UserSystemIdleSplit) {
  ProcClocks clocks(3);
  clocks.ChargeUser(0, 100);
  clocks.ChargeSystem(0, 40);
  clocks.ChargeIdle(0, 7);
  EXPECT_EQ(clocks.user_ns(0), 100);
  EXPECT_EQ(clocks.system_ns(0), 40);
  EXPECT_EQ(clocks.now(0), 147);  // now includes idle...
  EXPECT_EQ(clocks.TotalUser(), 100);  // ...but the paper's totals do not
  EXPECT_EQ(clocks.TotalSystem(), 40);
  clocks.ChargeUser(2, 5);
  EXPECT_EQ(clocks.TotalUser(), 105);
  clocks.Reset();
  EXPECT_EQ(clocks.now(0), 0);
}

TEST(MachineStats, MeasuredAlpha) {
  MachineStats stats;
  EXPECT_EQ(stats.MeasuredAlpha(), 1.0);  // vacuously local
  stats.RecordRef(0, MemoryClass::kLocal, AccessKind::kFetch);
  stats.RecordRef(0, MemoryClass::kLocal, AccessKind::kStore);
  stats.RecordRef(1, MemoryClass::kGlobal, AccessKind::kFetch);
  stats.RecordRef(1, MemoryClass::kGlobal, AccessKind::kStore);
  EXPECT_NEAR(stats.MeasuredAlpha(), 0.5, 1e-9);
  ProcRefCounts total = stats.TotalRefs();
  EXPECT_EQ(total.Total(), 4u);
  EXPECT_EQ(total.fetch_local, 1u);
  EXPECT_EQ(total.store_global, 1u);
}

TEST(MachineStats, PerProcessorCounts) {
  MachineStats stats;
  stats.RecordRef(3, MemoryClass::kRemote, AccessKind::kFetch);
  EXPECT_EQ(stats.refs[3].fetch_remote, 1u);
  EXPECT_EQ(stats.refs[0].Total(), 0u);
}

}  // namespace
}  // namespace ace
