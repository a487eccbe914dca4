// Tiled data-vector storage: backend roundtrips, tiling edge cases (domain
// smaller than one tile, tile size not dividing N), hot-tile eviction under
// a one-tile budget, corruption quarantine, crash-at-seal recovery, and
// memory-vs-mmap answer parity at the session layer (bit-identical answers
// are the contract that makes the mmap backend a pure storage decision).
#include "engine/tile_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/strategy.h"
#include "engine/engine.h"
#include "engine/privacy.h"
#include "crash_harness.h"
#include "workload/domain.h"

namespace hdmm {
namespace {

std::string FreshDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("hdmm_tile_store_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

Vector Ramp(int64_t n) {
  Vector v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = 0.5 * static_cast<double>(i) - 3.0;
  }
  return v;
}

void FillStore(DataVectorStore* store, const Vector& data) {
  for (int64_t t = 0; t < store->num_tiles(); ++t) {
    ASSERT_TRUE(store
                    ->AppendTile(data.data() + t * store->tile_cells(),
                                 store->TileCells(t))
                    .ok());
  }
  ASSERT_TRUE(store->Seal().ok());
}

void ExpectStoreHolds(const DataVectorStore& store, const Vector& data) {
  ASSERT_EQ(store.size(), static_cast<int64_t>(data.size()));
  for (int64_t t = 0; t < store.num_tiles(); ++t) {
    StatusOr<TileRef> ref = store.Tile(t);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_EQ(ref.value().cells(), store.TileCells(t));
    EXPECT_EQ(std::memcmp(ref.value().data(),
                          data.data() + t * store.tile_cells(),
                          static_cast<size_t>(ref.value().cells()) *
                              sizeof(double)),
              0);
  }
  for (int64_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.At(i), data[static_cast<size_t>(i)]);
  }
}

class TileStoreTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DeactivateAll(); }
};

TEST_F(TileStoreTest, MemoryRoundtripNonDividingTileSize) {
  // 3 cells per tile over 10 cells: last tile is short.
  const Vector data = Ramp(10);
  MemoryVectorStore store(10, /*tile_bytes=*/3 * 8);
  EXPECT_EQ(store.tile_cells(), 3);
  EXPECT_EQ(store.num_tiles(), 4);
  EXPECT_EQ(store.TileCells(3), 1);
  FillStore(&store, data);
  ExpectStoreHolds(store, data);
  ASSERT_NE(store.ContiguousData(), nullptr);
  ASSERT_NE(store.AsVector(), nullptr);
}

TEST_F(TileStoreTest, MemoryAdoptWrapsWithoutRebuilding) {
  Vector data = Ramp(7);
  const Vector expect = data;
  auto store = MemoryVectorStore::Adopt(std::move(data), /*tile_bytes=*/16);
  ASSERT_TRUE(store->sealed());
  ExpectStoreHolds(*store, expect);
}

TEST_F(TileStoreTest, MmapRoundtripNonDividingTileSize) {
  const std::string dir = FreshDir("roundtrip");
  const Vector data = Ramp(10);
  MmapTileStore store(10, /*tile_bytes=*/3 * 8, dir,
                      /*hot_tile_budget=*/1 << 20);
  EXPECT_EQ(store.num_tiles(), 4);
  FillStore(&store, data);
  ASSERT_TRUE(std::filesystem::exists(dir + "/" +
                                      MmapTileStore::kManifestName));
  ExpectStoreHolds(store, data);
  EXPECT_EQ(store.ContiguousData(), nullptr);
}

TEST_F(TileStoreTest, DomainSmallerThanOneTile) {
  const std::string dir = FreshDir("small");
  const Vector data = Ramp(5);
  MmapTileStore store(5, /*tile_bytes=*/1 << 20, dir,
                      /*hot_tile_budget=*/1 << 20);
  EXPECT_EQ(store.num_tiles(), 1);
  EXPECT_EQ(store.TileCells(0), 5);
  FillStore(&store, data);
  ExpectStoreHolds(store, data);
}

TEST_F(TileStoreTest, RemovesDirectoryOnDestruction) {
  const std::string dir = FreshDir("cleanup");
  {
    MmapTileStore store(4, 16, dir, 1 << 20);
    FillStore(&store, Ramp(4));
    ASSERT_TRUE(std::filesystem::exists(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST_F(TileStoreTest, OneTileBudgetEvictsButStaysCorrect) {
  const std::string dir = FreshDir("evict");
  const Vector data = Ramp(12);
  // 4 cells per tile, 3 tiles; budget of one byte forces every fault to
  // evict the previous tile — the degenerate "never refuse the read" case.
  MmapTileStore store(12, /*tile_bytes=*/4 * 8, dir, /*hot_tile_budget=*/1);
  FillStore(&store, data);
  for (int round = 0; round < 2; ++round) {
    for (int64_t t = 0; t < store.num_tiles(); ++t) {
      StatusOr<TileRef> ref = store.Tile(t);
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ(ref.value().data()[0],
                data[static_cast<size_t>(t * store.tile_cells())]);
      EXPECT_EQ(store.HotTiles(), 1);
    }
  }
  // A pinned ref must stay readable across the eviction of its tile.
  StatusOr<TileRef> pinned = store.Tile(0);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(store.Tile(1).ok());  // Evicts tile 0 from the hot set.
  EXPECT_EQ(store.HotTiles(), 1);
  EXPECT_EQ(pinned.value().data()[3], data[3]);
}

TEST_F(TileStoreTest, CorruptTileQuarantinedLikeStrategyCache) {
  const std::string dir = FreshDir("corrupt");
  const Vector data = Ramp(8);
  MmapTileStore store(8, /*tile_bytes=*/4 * 8, dir, 1 << 20);
  FillStore(&store, data);

  // Flip payload bytes of tile 1 behind the store's back.
  const std::string victim = dir + "/tile-00000001.bin";
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 48, SEEK_SET), 0);
    const char junk[8] = {0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f};
    ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
    std::fclose(f);
  }

  StatusOr<TileRef> ref = store.Tile(1);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(std::filesystem::exists(victim));
  EXPECT_TRUE(std::filesystem::exists(victim + ".corrupt"));
  // The healthy tiles still serve.
  EXPECT_TRUE(store.Tile(0).ok());
}

TEST_F(TileStoreTest, TruncatedTileQuarantined) {
  const std::string dir = FreshDir("truncated");
  MmapTileStore store(8, /*tile_bytes=*/4 * 8, dir, 1 << 20);
  FillStore(&store, Ramp(8));
  const std::string victim = dir + "/tile-00000000.bin";
  ASSERT_EQ(::truncate(victim.c_str(), 16), 0);
  StatusOr<TileRef> ref = store.Tile(0);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(std::filesystem::exists(victim + ".corrupt"));
}

TEST_F(TileStoreTest, WriteFailpointSurfacesIoError) {
  const std::string dir = FreshDir("write_fp");
  MmapTileStore store(8, /*tile_bytes=*/4 * 8, dir, 1 << 20);
  ASSERT_TRUE(Failpoints::Activate("tile_store.write.io_error", "nth:2").ok());
  const Vector data = Ramp(8);
  ASSERT_TRUE(store.AppendTile(data.data(), 4).ok());
  const Status st = store.AppendTile(data.data() + 4, 4);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  Failpoints::DeactivateAll();
  // The failed append did not advance the build: retrying completes it.
  ASSERT_TRUE(store.AppendTile(data.data() + 4, 4).ok());
  ASSERT_TRUE(store.Seal().ok());
  ExpectStoreHolds(store, data);
}

TEST_F(TileStoreTest, CrashAtSealRebuildsCleanly) {
  const std::string dir = FreshDir("crash_seal");
  CrashResult crash = RunCrashChild(
      "tile_store.seal=crash", [&](const std::function<void()>& ack) {
        const Vector data = Ramp(8);
        MmapTileStore store(8, /*tile_bytes=*/4 * 8, dir, 1 << 20,
                            /*remove_dir_on_destroy=*/false);
        for (int64_t t = 0; t < store.num_tiles(); ++t) {
          if (store
                  .AppendTile(data.data() + t * store.tile_cells(),
                              store.TileCells(t))
                  .ok()) {
            ack();
          }
        }
        (void)store.Seal();  // SIGKILLed inside the failpoint.
      });
  ASSERT_TRUE(crash.forked);
  ASSERT_TRUE(crash.sigkilled);
  EXPECT_EQ(crash.acked, 2);
  // Tiles are on disk but the manifest never landed — the store was not
  // sealed, and a fresh build over the same directory must start clean and
  // succeed without tripping over the orphans.
  EXPECT_FALSE(std::filesystem::exists(dir + "/" +
                                       MmapTileStore::kManifestName));
  const Vector data = Ramp(8);
  MmapTileStore rebuilt(8, /*tile_bytes=*/4 * 8, dir, 1 << 20);
  FillStore(&rebuilt, data);
  ExpectStoreHolds(rebuilt, data);
}

// ------------------------------------------------- session-layer parity --

SessionStorageOptions MmapStorage(const std::string& dir, int64_t tile_bytes,
                                  int64_t budget = 64 << 20) {
  SessionStorageOptions storage;
  storage.backend = SessionStorage::kMmap;
  storage.tile_bytes = tile_bytes;
  storage.hot_tile_budget = budget;
  storage.dir = dir;
  return storage;
}

std::vector<BoxQuery> AllBoxQueries(const Domain& d) {
  // Every valid (lo, hi) box over the domain — exhaustive for small domains.
  std::vector<BoxQuery> queries;
  std::vector<BoxQuery> partial{BoxQuery{{}, {}}};
  for (int a = 0; a < d.NumAttributes(); ++a) {
    std::vector<BoxQuery> next;
    for (const BoxQuery& q : partial) {
      for (int64_t lo = 0; lo < d.AttributeSize(a); ++lo) {
        for (int64_t hi = lo; hi < d.AttributeSize(a); ++hi) {
          BoxQuery extended = q;
          extended.lo.push_back(lo);
          extended.hi.push_back(hi);
          next.push_back(std::move(extended));
        }
      }
    }
    partial = std::move(next);
  }
  return partial;
}

TEST_F(TileStoreTest, GenericSessionAnswersBitIdenticalAcrossBackends) {
  const Domain d({3, 4, 5});
  Rng rng(1234);
  Vector x_hat(static_cast<size_t>(d.TotalSize()));
  for (double& v : x_hat) v = rng.Uniform(-2.0, 2.0);

  MeasurementSession memory_session(d, x_hat, PrivacyCharge::Laplace(1.0),
                                    nullptr);
  // 7 cells per tile: does not divide 60, exercises seam carry.
  MeasurementSession mmap_session(
      d, x_hat, PrivacyCharge::Laplace(1.0), nullptr,
      MmapStorage(FreshDir("parity_generic"), /*tile_bytes=*/7 * 8));

  const std::vector<BoxQuery> queries = AllBoxQueries(d);
  const Vector from_memory = memory_session.AnswerBatch(queries);
  const Vector from_mmap = mmap_session.AnswerBatch(queries);
  ASSERT_EQ(from_memory.size(), from_mmap.size());
  EXPECT_EQ(std::memcmp(from_memory.data(), from_mmap.data(),
                        from_memory.size() * sizeof(double)),
            0);
  // XHat on the mmap backend densifies from tiles — also bit-identical.
  const Vector& xm = memory_session.XHat();
  const Vector& xt = mmap_session.XHat();
  ASSERT_EQ(xm.size(), xt.size());
  EXPECT_EQ(std::memcmp(xm.data(), xt.data(), xm.size() * sizeof(double)), 0);
}

TEST_F(TileStoreTest, MarginalsSessionLazyPathBitIdenticalAcrossBackends) {
  // Marginals-measured sessions materialize x_hat lazily through
  // MarginalsStreamReconstructor + the seam pass; both backends run the
  // exact same fill and accumulation order, so the densified x_hat must
  // agree to the last bit (and covered answers trivially match — they are
  // served from the same measured tables).
  const Domain d({3, 4});
  Vector theta(4, 0.0);
  theta[1] = 1.0;
  theta[2] = 0.5;
  theta[3] = 0.25;  // Full marginal: reconstruction is well-defined.
  auto strategy = std::make_shared<MarginalsStrategy>(d, theta, "mixed");
  Vector x{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0};
  const Vector y = strategy->Apply(x);

  MeasurementSession memory_session(d, strategy, y,
                                    PrivacyCharge::Gaussian(1.0));
  MeasurementSession mmap_session(
      d, strategy, y, PrivacyCharge::Gaussian(1.0),
      MmapStorage(FreshDir("parity_marginals"), /*tile_bytes=*/5 * 8));

  // XHat drives EnsureMaterialized — the lazy streaming build — on both.
  const Vector& xm = memory_session.XHat();
  const Vector& xt = mmap_session.XHat();
  ASSERT_EQ(xm.size(), xt.size());
  EXPECT_EQ(std::memcmp(xm.data(), xt.data(), xm.size() * sizeof(double)), 0);
  // And the streamed x_hat agrees with the dense closed-form reconstruction.
  const Vector dense = strategy->Reconstruct(y);
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR(xm[i], dense[i], 1e-9) << "cell " << i;
  }

  const std::vector<BoxQuery> queries = AllBoxQueries(d);
  const Vector from_memory = memory_session.AnswerBatch(queries);
  const Vector from_mmap = mmap_session.AnswerBatch(queries);
  EXPECT_EQ(std::memcmp(from_memory.data(), from_mmap.data(),
                        from_memory.size() * sizeof(double)),
            0);
}

TEST_F(TileStoreTest, StreamReconstructorMatchesClosedFormReconstruct) {
  const Domain d({3, 2, 4});
  Vector theta(8, 0.0);
  theta[0b011] = 1.0;
  theta[0b100] = 0.7;
  theta[0b111] = 0.25;
  MarginalsStrategy strategy(d, theta, "mixed");
  Rng rng(99);
  Vector x(static_cast<size_t>(d.TotalSize()));
  for (double& v : x) v = rng.Uniform(0.0, 10.0);
  Vector y = strategy.Apply(x);
  // Perturb so y is not exactly in the strategy's range (as noise makes it).
  for (double& v : y) v += rng.Uniform(-0.5, 0.5);

  const Vector dense = strategy.Reconstruct(y);
  const MarginalsStreamReconstructor stream(strategy, y);
  Vector tiled(static_cast<size_t>(d.TotalSize()), 0.0);
  // Odd-sized chunks so ranges start mid-row everywhere.
  for (int64_t begin = 0; begin < d.TotalSize(); begin += 5) {
    const int64_t end = std::min<int64_t>(begin + 5, d.TotalSize());
    stream.Fill(begin, end, tiled.data() + begin);
  }
  ASSERT_EQ(dense.size(), tiled.size());
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR(tiled[i], dense[i], 1e-9) << "cell " << i;
  }
}

TEST_F(TileStoreTest, ParseSessionStorageNames) {
  SessionStorage backend = SessionStorage::kMemory;
  EXPECT_TRUE(ParseSessionStorage("mmap", &backend));
  EXPECT_EQ(backend, SessionStorage::kMmap);
  EXPECT_TRUE(ParseSessionStorage("memory", &backend));
  EXPECT_EQ(backend, SessionStorage::kMemory);
  EXPECT_FALSE(ParseSessionStorage("disk", &backend));
  EXPECT_STREQ(SessionStorageName(SessionStorage::kMmap), "mmap");
  EXPECT_STREQ(SessionStorageName(SessionStorage::kMemory), "memory");
}

}  // namespace
}  // namespace hdmm
