// golat binary persistence: lossless round trips (types, nulls, chunking),
// integrity checks and corruption detection.
#include "storage/serde.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/random.h"
#include "common/string_util.h"
#include "test_util.h"

namespace gola {
namespace {

class SerdeTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = ::testing::TempDir() + "/serde_test.golat"; }
  void TearDown() override { std::remove(path_.c_str()); }

  Table MakeMixedTable(int64_t n, int64_t chunk_size) {
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"flag", TypeId::kBool},
        {"id", TypeId::kInt64},
        {"score", TypeId::kFloat64},
        {"name", TypeId::kString},
    });
    TableBuilder builder(schema, chunk_size);
    Rng rng(17);
    for (int64_t i = 0; i < n; ++i) {
      Value score = rng.Bernoulli(0.2) ? Value::Null() : Value::Float(rng.Normal(0, 1));
      builder.AppendRow({Value::Bool(rng.Bernoulli(0.5)), Value::Int(i), score,
                         Value::String(Format("row-%lld", static_cast<long long>(i)))});
    }
    return builder.Finish();
  }

  std::string path_;
};

TEST_F(SerdeTest, RoundTripAllTypesWithNulls) {
  Table original = MakeMixedTable(500, 128);
  ASSERT_TRUE(WriteTableBinary(original, path_).ok());
  auto loaded = ReadTableBinary(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(test::TablesEqual(*loaded, original));
  // Chunk structure preserved too.
  EXPECT_EQ(loaded->num_chunks(), original.num_chunks());
}

TEST_F(SerdeTest, EmptyTable) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"x", TypeId::kFloat64}});
  Table empty(schema);
  ASSERT_TRUE(WriteTableBinary(empty, path_).ok());
  auto loaded = ReadTableBinary(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rows(), 0);
  EXPECT_TRUE(loaded->schema()->Equals(*schema));
}

TEST_F(SerdeTest, RejectsWrongMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not a golat file";
  }
  auto r = ReadTableBinary(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("not a golat file"), std::string::npos);
}

TEST_F(SerdeTest, DetectsCorruption) {
  Table original = MakeMixedTable(200, 64);
  ASSERT_TRUE(WriteTableBinary(original, path_).ok());
  // Flip one byte in the middle of the payload.
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    char byte;
    f.seekg(100);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(100);
    f.write(&byte, 1);
  }
  auto r = ReadTableBinary(path_);
  ASSERT_FALSE(r.ok());
}

TEST_F(SerdeTest, DetectsTruncation) {
  Table original = MakeMixedTable(200, 64);
  ASSERT_TRUE(WriteTableBinary(original, path_).ok());
  // Truncate the file.
  {
    std::ifstream in(path_, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_FALSE(ReadTableBinary(path_).ok());
}

TEST_F(SerdeTest, MissingFileErrors) {
  EXPECT_FALSE(ReadTableBinary("/no/such/file.golat").ok());
}

}  // namespace
}  // namespace gola
