// Tests of the KGRT tensor-archive checkpoint format.

#include <gtest/gtest.h>

#include <cstdio>
#include <sys/stat.h>
#include <unistd.h>

#include "core/serialize.h"
#include "graph/knowledge_graph.h"
#include "kge/kge_model.h"
#include "kge/kge_trainer.h"

namespace kgrec {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Serialize, RoundTripNamedTensors) {
  const std::string path = TempPath("roundtrip.kgrt");
  std::vector<NamedTensor> original;
  original.push_back({"alpha", 2, 3, {1, 2, 3, 4, 5, 6}});
  original.push_back({"beta", 1, 1, {-0.5f}});
  ASSERT_TRUE(SaveTensorArchive(path, original).ok());
  std::vector<NamedTensor> loaded;
  ASSERT_TRUE(LoadTensorArchive(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name, "alpha");
  EXPECT_EQ(loaded[0].rows, 2u);
  EXPECT_EQ(loaded[0].cols, 3u);
  EXPECT_EQ(loaded[0].data, original[0].data);
  EXPECT_EQ(loaded[1].name, "beta");
  EXPECT_FLOAT_EQ(loaded[1].data[0], -0.5f);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileIsIoError) {
  std::vector<NamedTensor> loaded;
  EXPECT_EQ(LoadTensorArchive("/nonexistent/dir/x.kgrt", &loaded).code(),
            StatusCode::kIoError);
}

TEST(Serialize, CorruptMagicIsInvalidArgument) {
  const std::string path = TempPath("corrupt.kgrt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOPE", 1, 4, f);
  std::fclose(f);
  std::vector<NamedTensor> loaded;
  EXPECT_EQ(LoadTensorArchive(path, &loaded).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedArchiveIsIoError) {
  const std::string path = TempPath("truncated.kgrt");
  std::vector<NamedTensor> original{{"x", 4, 4, std::vector<float>(16, 1.0f)}};
  ASSERT_TRUE(SaveTensorArchive(path, original).ok());
  // Truncate the file mid-blob.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 8), 0);
  std::vector<NamedTensor> loaded;
  EXPECT_EQ(LoadTensorArchive(path, &loaded).code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(Serialize, OverflowingShapeHeaderIsRejected) {
  // rows = cols = 2^33: the 2^66-element product wraps uint64 to 0, which
  // slipped past the old `rows * cols > 2^32` guard and made the loader
  // accept the tensor with an empty data blob but a 2^33-row shape. The
  // division-based guard must reject the header outright.
  const std::string path = TempPath("overflow.kgrt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t version = 1, count = 1, name_len = 1;
  const uint64_t rows = 1ull << 33, cols = 1ull << 33;
  ASSERT_EQ(std::fwrite("KGRT", 1, 4, f), 4u);
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&count, sizeof(count), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&name_len, sizeof(name_len), 1, f), 1u);
  ASSERT_EQ(std::fwrite("x", 1, 1, f), 1u);
  ASSERT_EQ(std::fwrite(&rows, sizeof(rows), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&cols, sizeof(cols), 1, f), 1u);
  std::fclose(f);
  ASSERT_EQ(rows * cols, 0u);  // the product wraps all the way to zero
  std::vector<NamedTensor> loaded;
  EXPECT_EQ(LoadTensorArchive(path, &loaded).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, ShapeLargerThanTheFileIsRefusedBeforeAllocating) {
  // rows * cols = 2^32 sits exactly at the element cap, so only the
  // remaining-bytes guard stands between a file holding four floats and
  // a 16 GiB zero-filled allocation. It must fail as a truncated archive.
  const std::string path = TempPath("huge_shape.kgrt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t version = 1, count = 1, name_len = 1;
  const uint64_t rows = 1ull << 16, cols = 1ull << 16;
  ASSERT_EQ(std::fwrite("KGRT", 1, 4, f), 4u);
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&count, sizeof(count), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&name_len, sizeof(name_len), 1, f), 1u);
  ASSERT_EQ(std::fwrite("x", 1, 1, f), 1u);
  ASSERT_EQ(std::fwrite(&rows, sizeof(rows), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&cols, sizeof(cols), 1, f), 1u);
  const float payload[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  ASSERT_EQ(std::fwrite(payload, sizeof(float), 4, f), 4u);
  std::fclose(f);
  std::vector<NamedTensor> loaded;
  EXPECT_EQ(LoadTensorArchive(path, &loaded).code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(Serialize, FailedSaveNeverClobbersExistingArchive) {
  // Saves write to <path>.tmp and rename into place only on success, so
  // a failed save must leave an existing good archive untouched. Force
  // the failure by squatting on the temp path with a directory.
  const std::string path = TempPath("atomic.kgrt");
  std::vector<NamedTensor> good{{"x", 1, 2, {3.0f, 4.0f}}};
  ASSERT_TRUE(SaveTensorArchive(path, good).ok());
  const std::string tmp = path + ".tmp";
  ASSERT_EQ(mkdir(tmp.c_str(), 0755), 0);
  std::vector<NamedTensor> other{{"y", 1, 1, {9.0f}}};
  EXPECT_EQ(SaveTensorArchive(path, other).code(), StatusCode::kIoError);
  std::vector<NamedTensor> loaded;
  ASSERT_TRUE(LoadTensorArchive(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "x");
  EXPECT_EQ(loaded[0].data, good[0].data);
  ASSERT_EQ(rmdir(tmp.c_str()), 0);
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchRejectedOnSave) {
  const std::string path = TempPath("badshape.kgrt");
  std::vector<NamedTensor> bad{{"x", 2, 2, {1.0f}}};  // 1 value, shape 2x2
  EXPECT_EQ(SaveTensorArchive(path, bad).code(),
            StatusCode::kInvalidArgument);
}

TEST(Serialize, KgeModelCheckpointRestoresScores) {
  // Train a model, snapshot it, restore into a fresh model: scores must
  // be bit-identical.
  KnowledgeGraph kg;
  for (int i = 0; i < 12; ++i) kg.AddEntity("e" + std::to_string(i));
  kg.AddRelation("r");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(kg.AddTriple(i, 0, (i + 1) % 12).ok());
  }
  kg.Finalize();
  Rng rng(1);
  auto trained = MakeKgeModel("transh", kg.num_entities(),
                              kg.num_relations(), 8, rng);
  KgeTrainConfig config;
  config.epochs = 10;
  TrainKge(*trained, kg, config);

  const std::string path = TempPath("transh.kgrt");
  ASSERT_TRUE(SaveTensorArchive(path, SnapshotParams(trained->Params())).ok());

  Rng rng2(999);  // different init on purpose
  auto restored = MakeKgeModel("transh", kg.num_entities(),
                               kg.num_relations(), 8, rng2);
  std::vector<NamedTensor> snapshot;
  ASSERT_TRUE(LoadTensorArchive(path, &snapshot).ok());
  std::vector<nn::Tensor> params = restored->Params();
  ASSERT_TRUE(RestoreParams(snapshot, &params).ok());

  for (int i = 0; i < 10; ++i) {
    const float a =
        trained->ScoreBatch({i}, {0}, {(i + 1) % 12}).value();
    const float b =
        restored->ScoreBatch({i}, {0}, {(i + 1) % 12}).value();
    EXPECT_FLOAT_EQ(a, b);
  }
  std::remove(path.c_str());

  // Restoring into a model of the wrong dimension fails cleanly.
  Rng rng3(5);
  auto wrong = MakeKgeModel("transh", kg.num_entities(), kg.num_relations(),
                            4, rng3);
  std::vector<nn::Tensor> wrong_params = wrong->Params();
  EXPECT_EQ(RestoreParams(snapshot, &wrong_params).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace kgrec
