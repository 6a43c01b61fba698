// Unit tests for the device substrate: MemDevice, FileDevice, SimulatedSsd
// (data path + timing model), Raid0Device, FaultyDevice, IoStats.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "device/cached_device.h"
#include "device/faulty_device.h"
#include "device/file_device.h"
#include "device/mem_device.h"
#include "device/raid0_device.h"
#include "device/simulated_ssd.h"
#include "io/io_error.h"
#include "util/rng.h"
#include "util/timer.h"

namespace blaze::device {
namespace {

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> data(n);
  Xoshiro256 rng(seed);
  for (auto& b : data) b = static_cast<std::byte>(rng.next() & 0xff);
  return data;
}

// ---------------------------------------------------------------- MemDevice

TEST(MemDevice, RoundTrip) {
  auto data = pattern_bytes(3 * kPageSize, 1);
  MemDevice dev("m", data);
  std::vector<std::byte> out(kPageSize);
  dev.read(kPageSize, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + kPageSize));
  EXPECT_EQ(dev.stats().total_bytes(), kPageSize);
  EXPECT_EQ(dev.stats().total_reads(), 1u);
}

TEST(MemDevice, AsyncChannelCompletesSynchronously) {
  auto data = pattern_bytes(2 * kPageSize, 2);
  MemDevice dev("m", data);
  auto ch = dev.open_channel();
  std::vector<std::byte> buf(kPageSize);
  AsyncRead req{0, static_cast<std::uint32_t>(kPageSize), buf.data(), 77};
  ch->submit(req);
  std::vector<std::uint64_t> done;
  ch->wait(1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 77u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), data.begin()));
}

// --------------------------------------------------------------- FileDevice

TEST(FileDevice, ReadsRealFile) {
  auto data = pattern_bytes(2 * kPageSize, 3);
  std::string path = "/tmp/blaze_test_filedev.bin";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  }
  FileDevice dev(path);
  EXPECT_EQ(dev.size(), data.size());
  std::vector<std::byte> out(512);
  dev.read(kPageSize + 100, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(),
                         data.begin() + kPageSize + 100));
  std::remove(path.c_str());
}

TEST(FileDevice, ThrowsOnMissingFile) {
  EXPECT_THROW(FileDevice("/nonexistent/blaze_nope.bin"),
               std::runtime_error);
}

// ------------------------------------------------------------- SimulatedSsd

TEST(SimulatedSsd, DataPathMatchesBacking) {
  SimulatedSsd ssd("s", 4 * kPageSize, optane_p4800x());
  EXPECT_EQ(ssd.name(), "s");
  ssd.set_no_wait(true);
  auto pat = pattern_bytes(4 * kPageSize, 4);
  std::copy(pat.begin(), pat.end(), ssd.raw().begin());
  std::vector<std::byte> out(kPageSize);
  ssd.read(2 * kPageSize, out);
  EXPECT_TRUE(
      std::equal(out.begin(), out.end(), pat.begin() + 2 * kPageSize));
}

TEST(SimulatedSsd, BusyTimeFollowsBandwidthModel) {
  // 1 MB random reads at 100 MB/s random bandwidth => 10 ms modeled busy.
  SsdProfile slow{"slow", 200, 100, 10};
  SimulatedSsd ssd("s", 1 << 20, slow);
  ssd.set_no_wait(true);
  std::vector<std::byte> out(kPageSize);
  for (std::uint64_t p = 0; p < 256; p += 2) {  // strided => all random
    ssd.read(p * kPageSize, out);
  }
  double busy_ms = static_cast<double>(ssd.stats().busy_ns()) / 1e6;
  double expect_ms = 128.0 * kPageSize / (100.0 * 1e6) * 1e3;
  EXPECT_NEAR(busy_ms, expect_ms, expect_ms * 0.05);
}

TEST(SimulatedSsd, SequentialFasterThanRandomOnNand) {
  SsdProfile nand = nand_s3520();
  SimulatedSsd seq("seq", 1 << 22, nand), rnd("rnd", 1 << 22, nand);
  seq.set_no_wait(true);
  rnd.set_no_wait(true);
  std::vector<std::byte> out(kPageSize);
  for (std::uint64_t p = 0; p < 512; ++p) seq.read(p * kPageSize, out);
  for (std::uint64_t p = 0; p < 1024; p += 2) rnd.read(p * kPageSize, out);
  // Same byte volume; NAND random should cost ~2.9x the busy time.
  double ratio = static_cast<double>(rnd.stats().busy_ns()) /
                 static_cast<double>(seq.stats().busy_ns());
  EXPECT_NEAR(ratio, nand.seq_read_mbps / nand.rand_read_mbps, 0.3);
}

TEST(SimulatedSsd, BlockingReadTakesModeledTime) {
  // 4 MB at 100 MB/s ~ 40 ms + latency; check wall time is in range.
  SsdProfile slow{"slow", 100, 100, 50};
  SimulatedSsd ssd("s", 4 << 20, slow);
  std::vector<std::byte> out(1 << 20);
  Timer t;
  for (int i = 0; i < 4; ++i) ssd.read(static_cast<std::uint64_t>(i) << 20,
                                       out);
  double sec = t.seconds();
  EXPECT_GT(sec, 0.035);
  EXPECT_LT(sec, 0.5);
}

TEST(SimulatedSsd, AsyncChannelOverlapsLatency) {
  // A 20 ms latency dominates scheduler noise, so the bounds below tell
  // overlapped reads from serial ones even on a loaded host.
  SsdProfile prof{"p", 1000, 1000, 20000};
  SimulatedSsd ssd("s", 64 * kPageSize, prof);
  auto ch = ssd.open_channel();
  std::vector<std::vector<std::byte>> bufs(16,
                                           std::vector<std::byte>(kPageSize));
  Timer t;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ch->submit(AsyncRead{i * 2 * kPageSize,
                         static_cast<std::uint32_t>(kPageSize),
                         bufs[i].data(), i});
  }
  std::vector<std::uint64_t> done;
  while (ch->pending() > 0) ch->wait(1, done);
  double sec = t.seconds();
  EXPECT_EQ(done.size(), 16u);
  // Every read waits out at least one latency, and queued reads overlap
  // theirs: the total stays under half the serial sum (16 x 20 ms).
  EXPECT_GE(sec, 0.020);
  EXPECT_LT(sec, 16 * 0.020 / 2);
}

// -------------------------------------------------------------- Raid0Device

TEST(Raid0, MapsPagesRoundRobin) {
  std::vector<std::shared_ptr<BlockDevice>> kids;
  for (int i = 0; i < 4; ++i) {
    kids.push_back(std::make_shared<MemDevice>("k", 8 * kPageSize));
  }
  Raid0Device raid(kids);
  EXPECT_EQ(raid.name(), "raid0");
  EXPECT_EQ(raid.size(), 32 * kPageSize);
  auto [c0, o0] = raid.map(0);
  auto [c1, o1] = raid.map(kPageSize);
  auto [c5, o5] = raid.map(5 * kPageSize + 123);
  EXPECT_EQ(c0, 0u);
  EXPECT_EQ(o0, 0u);
  EXPECT_EQ(c1, 1u);
  EXPECT_EQ(o1, 0u);
  EXPECT_EQ(c5, 1u);
  EXPECT_EQ(o5, kPageSize + 123);
}

TEST(Raid0, StripedReadMatchesLogicalLayout) {
  // Fill children so that logical page p reads back as byte value p.
  std::vector<std::shared_ptr<BlockDevice>> kids;
  std::vector<MemDevice*> raw;
  for (int i = 0; i < 3; ++i) {
    auto d = std::make_shared<MemDevice>("k", 4 * kPageSize);
    raw.push_back(d.get());
    kids.push_back(d);
  }
  for (std::uint64_t p = 0; p < 12; ++p) {
    auto* dev = raw[p % 3];
    auto span = dev->raw().subspan((p / 3) * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(), static_cast<std::byte>(p));
  }
  Raid0Device raid(kids);
  std::vector<std::byte> out(3 * kPageSize);
  raid.read(4 * kPageSize, out);  // logical pages 4,5,6
  EXPECT_EQ(out[0], static_cast<std::byte>(4));
  EXPECT_EQ(out[kPageSize], static_cast<std::byte>(5));
  EXPECT_EQ(out[2 * kPageSize], static_cast<std::byte>(6));
}

TEST(Raid0, AsyncChannelSplitsAcrossChildren) {
  std::vector<std::shared_ptr<BlockDevice>> kids;
  std::vector<MemDevice*> raw;
  for (int i = 0; i < 2; ++i) {
    auto d = std::make_shared<MemDevice>("k", 4 * kPageSize);
    raw.push_back(d.get());
    kids.push_back(d);
  }
  for (std::uint64_t p = 0; p < 8; ++p) {
    auto* dev = raw[p % 2];
    auto span = dev->raw().subspan((p / 2) * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(), static_cast<std::byte>(p + 1));
  }
  Raid0Device raid(kids);
  auto ch = raid.open_channel();
  std::vector<std::byte> buf(4 * kPageSize);
  ch->submit(AsyncRead{2 * kPageSize, static_cast<std::uint32_t>(buf.size()),
                       buf.data(), 5});
  // One logical read in flight, however many child fragments it became.
  EXPECT_EQ(ch->pending(), 1u);
  std::vector<std::uint64_t> done;
  ch->wait(1, done);
  EXPECT_EQ(ch->pending(), 0u);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 5u);
  for (std::uint64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(buf[j * kPageSize], static_cast<std::byte>(2 + j + 1))
        << "page " << j;
  }
  // Both children saw traffic.
  EXPECT_GT(raid.child(0).stats().total_bytes(), 0u);
  EXPECT_GT(raid.child(1).stats().total_bytes(), 0u);
}

TEST(Raid0, EpochAccountingPerChild) {
  std::vector<std::shared_ptr<BlockDevice>> kids;
  for (int i = 0; i < 2; ++i) {
    kids.push_back(std::make_shared<MemDevice>("k", 4 * kPageSize));
  }
  Raid0Device raid(kids);
  std::vector<std::byte> out(kPageSize);
  raid.read(0, out);  // child 0
  raid.begin_epoch_all();
  raid.read(kPageSize, out);      // child 1
  raid.read(3 * kPageSize, out);  // child 1
  auto e0 = raid.child(0).stats().epoch_bytes();
  auto e1 = raid.child(1).stats().epoch_bytes();
  ASSERT_EQ(e0.size(), 2u);
  EXPECT_EQ(e0[0], kPageSize);
  EXPECT_EQ(e0[1], 0u);
  EXPECT_EQ(e1[0], 0u);
  EXPECT_EQ(e1[1], 2 * kPageSize);
}

// ------------------------------------------------------------- FaultyDevice

TEST(FaultyDevice, InjectsFailures) {
  auto inner = std::make_shared<MemDevice>("m", 8 * kPageSize);
  FaultyDevice dev(inner, [](std::uint64_t off, std::uint64_t) {
    return off == 2 * kPageSize;
  });
  std::vector<std::byte> out(kPageSize);
  EXPECT_NO_THROW(dev.read(0, out));
  EXPECT_THROW(dev.read(2 * kPageSize, out), std::runtime_error);
  EXPECT_EQ(dev.injected_failures(), 1u);
}

TEST(FaultyDevice, NameIdentifiesWrapperInStack) {
  auto inner = std::make_shared<MemDevice>("m", 8 * kPageSize);
  auto faulty = std::make_shared<FaultyDevice>(
      inner, [](std::uint64_t, std::uint64_t) { return false; });
  EXPECT_EQ(faulty->name(), "m+faulty");
  // Stacked wrappers keep every suffix, so stats/errors name the layer.
  CachedDevice cached(faulty, 4 * kPageSize, EvictionPolicy::kLru);
  EXPECT_EQ(cached.name(), "m+faulty+cache");
}

TEST(FaultyDevice, PermanentModeRaisesTypedError) {
  auto inner = std::make_shared<MemDevice>("m", 8 * kPageSize);
  FaultyDevice dev(inner, [](std::uint64_t, std::uint64_t) { return true; },
                   FaultMode::kPermanent);
  std::vector<std::byte> out(kPageSize);
  try {
    dev.read(0, out);
    FAIL() << "expected io::IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kPermanent);
    EXPECT_FALSE(e.retryable());
    EXPECT_EQ(e.device(), "m+faulty");
  }
  // Permanent means permanent: the next attempt fails too.
  EXPECT_THROW(dev.read(0, out), io::IoError);
  EXPECT_EQ(dev.injected_failures(), 2u);
}

TEST(FaultyDevice, TransientModeRecoversAfterBudget) {
  auto inner = std::make_shared<MemDevice>("m", 8 * kPageSize);
  for (std::size_t i = 0; i < inner->raw().size(); ++i) {
    inner->raw()[i] = static_cast<std::byte>(i & 0xff);
  }
  FaultyDevice dev(inner, [](std::uint64_t, std::uint64_t) { return true; },
                   FaultMode::kTransient, /*transient_budget=*/2);
  std::vector<std::byte> out(kPageSize);
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      dev.read(0, out);
      FAIL() << "expected transient failure on attempt " << attempt;
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.kind(), io::ErrorKind::kTransient);
      EXPECT_TRUE(e.retryable());
    }
  }
  // Budget spent: the retry succeeds and the data is intact.
  EXPECT_NO_THROW(dev.read(0, out));
  EXPECT_EQ(out[5], std::byte{5});
  EXPECT_EQ(dev.injected_failures(), 2u);
  EXPECT_EQ(dev.transient_budget_left(), 0u);
}

TEST(FaultyDevice, CorruptionModeFlipsBytesSilently) {
  auto inner = std::make_shared<MemDevice>("m", 4 * kPageSize);
  FaultyDevice dev(inner, [](std::uint64_t off, std::uint64_t) {
    return off == kPageSize;
  }, FaultMode::kCorruption);
  std::vector<std::byte> out(kPageSize);
  EXPECT_NO_THROW(dev.read(kPageSize, out));  // "succeeds"
  EXPECT_EQ(out[0], std::byte{0x5A});         // ...with a flipped byte
  EXPECT_EQ(dev.injected_corruptions(), 1u);
  EXPECT_EQ(dev.injected_failures(), 0u);
  // Async path corrupts at completion, too.
  auto ch = dev.open_channel();
  std::vector<std::byte> buf(kPageSize);
  ch->submit(AsyncRead{kPageSize, static_cast<std::uint32_t>(kPageSize),
                       buf.data(), 9});
  std::vector<std::uint64_t> done;
  ch->wait(1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(buf[0], std::byte{0x5A});
  EXPECT_EQ(dev.injected_corruptions(), 2u);
}

// ------------------------------------------------------------- CachedDevice

TEST(CachedDevice, ServesHitsWithoutInnerReads) {
  auto inner = std::make_shared<MemDevice>("m", 8 * kPageSize);
  for (std::uint64_t p = 0; p < 8; ++p) {
    auto span = inner->raw().subspan(p * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(), static_cast<std::byte>(p + 1));
  }
  CachedDevice dev(inner, 4 * kPageSize, EvictionPolicy::kLru);
  std::vector<std::byte> out(kPageSize);
  dev.read(2 * kPageSize, out);  // miss
  EXPECT_EQ(out[0], std::byte{3});
  auto inner_bytes = inner->stats().total_bytes();
  dev.read(2 * kPageSize, out);  // hit
  EXPECT_EQ(out[0], std::byte{3});
  EXPECT_EQ(inner->stats().total_bytes(), inner_bytes);  // no new inner IO
  EXPECT_EQ(dev.cache_counters().hits, 1u);
  EXPECT_EQ(dev.cache_counters().misses, 1u);
}

TEST(CachedDevice, LruKeepsRecentlyUsedRandomMayNot) {
  auto inner = std::make_shared<MemDevice>("m", 64 * kPageSize);
  CachedDevice dev(inner, 4 * kPageSize, EvictionPolicy::kLru);
  std::vector<std::byte> out(kPageSize);
  // Touch pages 0..3, re-touch 0, then fault in 4: page 1 must be evicted,
  // page 0 must survive.
  for (std::uint64_t p = 0; p < 4; ++p) dev.read(p * kPageSize, out);
  dev.read(0, out);
  dev.read(4 * kPageSize, out);
  auto misses_before = dev.cache_counters().misses;
  dev.read(0, out);  // still cached
  EXPECT_EQ(dev.cache_counters().misses, misses_before);
  dev.read(kPageSize, out);  // evicted -> miss
  EXPECT_EQ(dev.cache_counters().misses, misses_before + 1);
}

TEST(CachedDevice, RandomPolicyStaysCorrectUnderChurn) {
  auto inner = std::make_shared<MemDevice>("m", 64 * kPageSize);
  for (std::uint64_t p = 0; p < 64; ++p) {
    auto span = inner->raw().subspan(p * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(), static_cast<std::byte>(p));
  }
  CachedDevice dev(inner, 8 * kPageSize, EvictionPolicy::kRandom);
  std::vector<std::byte> out(kPageSize);
  Xoshiro256 rng(5);
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t p = rng.next_below(64);
    dev.read(p * kPageSize, out);
    ASSERT_EQ(out[0], static_cast<std::byte>(p)) << "iteration " << i;
  }
  EXPECT_GT(dev.cache_counters().hits, 0u);
}

TEST(CachedDevice, AsyncChannelHitsCompleteImmediately) {
  auto inner = std::make_shared<MemDevice>("m", 16 * kPageSize);
  auto dev = std::make_shared<CachedDevice>(inner, 8 * kPageSize,
                                            EvictionPolicy::kLru);
  auto ch = dev->open_channel();
  std::vector<std::byte> a(2 * kPageSize), b(2 * kPageSize);
  ch->submit(AsyncRead{0, static_cast<std::uint32_t>(a.size()), a.data(), 1});
  std::vector<std::uint64_t> done;
  ch->wait(1, done);
  ASSERT_EQ(done.size(), 1u);
  // Same (merged, multi-page) request again: full hit.
  done.clear();
  ch->submit(AsyncRead{0, static_cast<std::uint32_t>(b.size()), b.data(), 2});
  ch->wait(1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 2u);
  // Both pages of the repeat request hit.
  EXPECT_GE(dev->cache_counters().hits, 2u);
}

TEST(CachedDevice, UnalignedReadsPassThrough) {
  auto inner = std::make_shared<MemDevice>("m", 8 * kPageSize);
  for (std::size_t i = 0; i < inner->raw().size(); ++i) {
    inner->raw()[i] = static_cast<std::byte>(i & 0xff);
  }
  CachedDevice dev(inner, 4 * kPageSize, EvictionPolicy::kLru);
  std::vector<std::byte> out(100);
  dev.read(12345, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::byte>((12345 + i) & 0xff));
  }
  // The cache stores nothing, but the hit-rate statistics must still see
  // the traffic: one overlapped page, served by the inner device = 1 miss.
  EXPECT_EQ(dev.cache_counters().hits, 0u);
  EXPECT_EQ(dev.cache_counters().misses, 1u);
}

TEST(CachedDevice, UnalignedReadSpanningPagesCountsEachPageMissed) {
  auto inner = std::make_shared<MemDevice>("m", 8 * kPageSize);
  CachedDevice dev(inner, 4 * kPageSize, EvictionPolicy::kLru);
  std::vector<std::byte> out(kPageSize);  // page-sized but offset-unaligned
  dev.read(kPageSize / 2, out);           // overlaps pages 0 and 1
  EXPECT_EQ(dev.cache_counters().misses, 2u);
  EXPECT_EQ(dev.cache_counters().hits, 0u);
}

TEST(CachedDevice, AsyncPartialHitCountsWholeRequestAsMisses) {
  auto inner = std::make_shared<MemDevice>("m", 8 * kPageSize);
  for (std::uint64_t p = 0; p < 8; ++p) {
    auto span = inner->raw().subspan(p * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(), static_cast<std::byte>(p + 1));
  }
  auto dev = std::make_shared<CachedDevice>(inner, 8 * kPageSize,
                                            EvictionPolicy::kLru);
  // Prime page 0 only.
  std::vector<std::byte> one(kPageSize);
  dev->read(0, one);
  ASSERT_EQ(dev->cache_counters().misses, 1u);

  // Merged request for pages 0-1: page 0 is cached, page 1 is not. The
  // whole request is re-read from the inner device, so BOTH pages must
  // count as misses — the cached prefix must not inflate the hit rate.
  auto ch = dev->open_channel();
  std::vector<std::byte> buf(2 * kPageSize);
  const auto inner_bytes_before = inner->stats().total_bytes();
  ch->submit(AsyncRead{0, static_cast<std::uint32_t>(buf.size()),
                       buf.data(), 1});
  std::vector<std::uint64_t> done;
  ch->wait(1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(dev->cache_counters().hits, 0u);
  // 1 (prime) + 2 (partial-hit request).
  EXPECT_EQ(dev->cache_counters().misses, 3u);
  EXPECT_EQ(buf[0], std::byte{1});
  EXPECT_EQ(buf[kPageSize], std::byte{2});
  EXPECT_GT(inner->stats().total_bytes(), inner_bytes_before);

  // Now both pages are cached: the same request is a full hit, served with
  // no inner IO, and counts one hit per page.
  const auto inner_bytes_after = inner->stats().total_bytes();
  ch->submit(AsyncRead{0, static_cast<std::uint32_t>(buf.size()),
                       buf.data(), 2});
  done.clear();
  ch->wait(1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(dev->cache_counters().hits, 2u);
  EXPECT_EQ(dev->cache_counters().misses, 3u);
  EXPECT_EQ(inner->stats().total_bytes(), inner_bytes_after);
}

TEST(CachedDevice, CrossChannelMissDedupIssuesOneInnerRead) {
  // Two sessions fault the same CSR pages: the second must be served by the
  // first one's in-flight read, not a duplicate inner read. Deferral is
  // state-based, so the protocol is fully observable single-threaded.
  auto inner = std::make_shared<MemDevice>("m", 16 * kPageSize);
  for (std::uint64_t p = 0; p < 16; ++p) {
    auto span = inner->raw().subspan(p * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(), static_cast<std::byte>(p + 1));
  }
  auto dev = std::make_shared<CachedDevice>(inner, 8 * kPageSize,
                                            EvictionPolicy::kLru);
  auto cha = dev->open_channel();
  auto chb = dev->open_channel();
  std::vector<std::byte> a(2 * kPageSize), b(2 * kPageSize);
  cha->submit(AsyncRead{0, static_cast<std::uint32_t>(a.size()), a.data(), 1});
  const auto inner_reads_after_a = inner->stats().total_reads();
  // Same run on the other channel while A's read is in flight: deferred,
  // nothing new reaches the inner device.
  chb->submit(AsyncRead{0, static_cast<std::uint32_t>(b.size()), b.data(), 2});
  EXPECT_EQ(inner->stats().total_reads(), inner_reads_after_a);
  EXPECT_EQ(chb->pending(), 1u);

  std::vector<std::uint64_t> done;
  cha->wait(1, done);  // completes A's read and fills the cache
  ASSERT_EQ(done.size(), 1u);
  done.clear();
  chb->wait(1, done);  // B completes from the cache
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 2u);
  EXPECT_EQ(inner->stats().total_reads(), inner_reads_after_a);  // one read
  EXPECT_EQ(b[0], std::byte{1});
  EXPECT_EQ(b[kPageSize], std::byte{2});
  // A's pages missed once; both of B's pages rode A's read.
  const CacheCounters c = dev->cache_counters();
  EXPECT_EQ(c.dedup_hits, 2u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.hits, 2u);
}

TEST(CachedDevice, SyncReadersDedupAndKeepExactCounters) {
  // Many threads reading the same small page set through the sync path:
  // data stays correct, every page is faulted exactly once (dedup), and
  // hits + misses == total page reads (atomic counters lose nothing).
  const std::uint64_t kPages = 8;
  const int kThreads = 4, kReadsPerThread = 200;
  auto inner = std::make_shared<MemDevice>("m", kPages * kPageSize);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    auto span = inner->raw().subspan(p * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(), static_cast<std::byte>(p + 1));
  }
  CachedDevice dev(inner, kPages * kPageSize, EvictionPolicy::kLru);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(7000 + t);
      std::vector<std::byte> out(kPageSize);
      for (int i = 0; i < kReadsPerThread; ++i) {
        std::uint64_t p = rng.next_below(kPages);
        dev.read(p * kPageSize, out);
        if (out[0] != static_cast<std::byte>(p + 1)) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(dev.cache_counters().hits + dev.cache_counters().misses,
            static_cast<std::uint64_t>(kThreads) * kReadsPerThread);
  // Capacity covers the whole device, so each page misses exactly once —
  // concurrent faulters of the same page coalesce onto one inner read.
  EXPECT_EQ(dev.cache_counters().misses, kPages);
  EXPECT_EQ(inner->stats().total_reads(), kPages);
}

// ---------------------------------------------------- SimulatedSsd (audit)

TEST(SimulatedSsd, LedgerStaysConsistentUnderConcurrentSubmitters) {
  // The service-queue ledger is a spinlocked shared structure; hammer it
  // from several channels in parallel and check the accounting adds up.
  auto data = pattern_bytes(32 * kPageSize, 11);
  SimulatedSsd dev("ssd", data.size(), optane_p4800x());
  std::copy(data.begin(), data.end(), dev.raw().begin());
  dev.set_no_wait(true);  // accounting still runs; no modeled sleeps
  const int kThreads = 4, kReadsPerThread = 64;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ch = dev.open_channel();
      Xoshiro256 rng(9000 + t);
      std::vector<std::byte> buf(kPageSize);
      std::vector<std::uint64_t> done;
      for (int i = 0; i < kReadsPerThread; ++i) {
        std::uint64_t p = rng.next_below(32);
        ch->submit(AsyncRead{p * kPageSize, kPageSize, buf.data(),
                             static_cast<std::uint64_t>(i)});
        done.clear();
        ch->wait(1, done);
        if (done.size() != 1 || buf[0] != data[p * kPageSize]) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(dev.stats().total_reads(),
            static_cast<std::uint64_t>(kThreads) * kReadsPerThread);
  EXPECT_EQ(dev.stats().total_bytes(),
            static_cast<std::uint64_t>(kThreads) * kReadsPerThread *
                kPageSize);
  EXPECT_GT(dev.stats().busy_ns(), 0u);
}

// ------------------------------------------------------------------ IoStats

TEST(IoStats, TimelineRecordsBuckets) {
  IoStats stats(1'000'000);  // 1 ms buckets
  stats.record_read(1000, 0);
  stats.record_read(500, 0);
  auto tl = stats.timeline_bytes();
  ASSERT_FALSE(tl.empty());
  std::uint64_t total = std::accumulate(tl.begin(), tl.end(), 0ull);
  EXPECT_EQ(total, 1500u);
}

TEST(IoStats, ResetClearsEverything) {
  IoStats stats(1'000'000);
  stats.record_read(1000, 42);
  stats.begin_epoch();
  stats.reset();
  EXPECT_EQ(stats.total_bytes(), 0u);
  EXPECT_EQ(stats.busy_ns(), 0u);
  EXPECT_EQ(stats.epoch_bytes().size(), 1u);
  EXPECT_EQ(stats.epoch_bytes()[0], 0u);
  EXPECT_EQ(stats.timeline_overflow(), 0u);
}

// A run longer than the preallocated timeline window must clamp late
// completions into the final bucket — never index past the ring — while
// keeping sum(timeline) == total_bytes() and counting the drops.
TEST(IoStats, TimelineClampsPastWindowEnd) {
  // 1 ns buckets: the 2^16-bucket window spans ~65 us, so a completion
  // recorded after a 1 ms sleep is far past the end.
  IoStats stats(1);
  stats.record_read(100, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  stats.record_read(200, 0);
  stats.record_read(300, 0);
  EXPECT_GE(stats.timeline_overflow(), 2u);
  auto tl = stats.timeline_bytes();
  ASSERT_FALSE(tl.empty());
  // Clamped writes land in the very last ring slot.
  EXPECT_EQ(tl.size(), std::size_t{1} << 16);
  EXPECT_GE(tl.back(), 500u);
  std::uint64_t total = std::accumulate(tl.begin(), tl.end(), 0ull);
  EXPECT_EQ(total, stats.total_bytes());
  EXPECT_EQ(total, 600u);
  // reset() restarts the window and zeroes the overflow count. The
  // follow-up record may itself clamp (the ~65 us window can elapse
  // before it under sanitizer slowdown), but clamped or not the bytes
  // land in the ring.
  stats.reset();
  EXPECT_EQ(stats.timeline_overflow(), 0u);
  stats.record_read(42, 0);
  EXPECT_LE(stats.timeline_overflow(), 1u);
  tl = stats.timeline_bytes();
  std::uint64_t after = std::accumulate(tl.begin(), tl.end(), 0ull);
  EXPECT_EQ(after, 42u);
}

// reset() may race in-flight record_read()s (another session's reader
// thread): both sides use atomics, so the worst case is a few bytes
// attributed to the old or new window — never a crash or torn index.
// Run under TSan in CI.
TEST(IoStats, ResetRacesRecordRead) {
  IoStats stats(100);  // tiny buckets: exercise the clamp path too
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        stats.record_read(512, 10);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    stats.reset();
    if (i % 50 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  // Post-race invariant: the final quiescent state still reconciles.
  stats.reset();
  stats.record_read(4096, 1);
  auto tl = stats.timeline_bytes();
  std::uint64_t total = std::accumulate(tl.begin(), tl.end(), 0ull);
  EXPECT_EQ(total, stats.total_bytes());
  EXPECT_EQ(stats.total_bytes(), 4096u);
}

}  // namespace
}  // namespace blaze::device
