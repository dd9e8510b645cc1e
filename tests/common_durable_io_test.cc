// Unit suite for the crash-safe artifact I/O layer (common/durable_io.h):
// atomic-writer lifecycle, injected write faults, the deterministic retry
// schedule, and the checksummed envelope — including an exhaustive proof
// that flipping ANY single byte of a saved artifact is detected as
// Status::Corruption on load, never returned as plausible data — and the
// payload codec the resume stores share.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

std::string Slurp(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  return bytes.ok() ? *bytes : std::string();
}

// --- Checksums and bit-exact round trips ---

TEST(Fnv1a64Test, AnySingleByteSubstitutionChangesDigest) {
  const std::string data = "0 1 2.5\n1 0 3.25\n";
  const uint64_t baseline = Fnv1a64(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int delta = 1; delta < 256; delta += 85) {  // 3 substitutions/byte
      std::string mutated = data;
      mutated[i] = static_cast<char>(mutated[i] ^ delta);
      EXPECT_NE(Fnv1a64(mutated), baseline)
          << "offset " << i << " xor " << delta;
    }
  }
}

TEST(Fnv1a64Test, ChainsViaBasis) {
  const std::string data = "hello world";
  uint64_t whole = Fnv1a64(data);
  uint64_t chained = Fnv1a64(data.substr(6), Fnv1a64(data.substr(0, 6)));
  EXPECT_EQ(whole, chained);
}

TEST(BitsHexTest, DoubleRoundTripIsBitExact) {
  const double values[] = {0.0,   -0.0, 1.0 / 3.0, 1e-308, -1e308,
                           2.5e7, 1.0,  6.02214076e23};
  for (double v : values) {
    std::string hex = DoubleToBitsHex(v);
    ASSERT_EQ(hex.size(), 16u);
    auto back = DoubleFromBitsHex(hex);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(std::memcmp(&v, &*back, sizeof(double)), 0) << hex;
  }
  // -0.0 and 0.0 are distinct bit patterns and must stay distinct.
  EXPECT_NE(DoubleToBitsHex(0.0), DoubleToBitsHex(-0.0));
}

TEST(BitsHexTest, Uint64RoundTripAndErrors) {
  for (uint64_t v : {0ull, 1ull, 0xdeadbeefcafef00dull, ~0ull}) {
    auto back = Uint64FromHex(Uint64ToHex(v));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
  EXPECT_FALSE(Uint64FromHex("").ok());
  EXPECT_FALSE(Uint64FromHex("xyz").ok());
  EXPECT_FALSE(Uint64FromHex("0123456789abcdef0").ok());  // 17 digits
  // Lowercase only: a case-flipped checksum digit must read as corrupt,
  // not as the same value.
  EXPECT_FALSE(Uint64FromHex("DEADBEEF").ok());
}

// --- AtomicFileWriter lifecycle ---

TEST(AtomicFileWriterTest, CommitPublishesAndCleansTemp) {
  std::string path = TempPath("durable_commit.txt");
  std::remove(path.c_str());
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append("alpha\n").ok());
  ASSERT_TRUE(writer.Append("beta\n").ok());
  EXPECT_FALSE(FileExists(path));  // nothing published before Commit
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(Slurp(path), "alpha\nbeta\n");
  EXPECT_FALSE(FileExists(writer.temp_path()));
  std::remove(path.c_str());
}

TEST(AtomicFileWriterTest, AbortLeavesOldFileUntouched) {
  std::string path = TempPath("durable_abort.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "old contents\n").ok());
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("new contents that must not land\n").ok());
    ASSERT_TRUE(writer.Abort().ok());
    EXPECT_FALSE(FileExists(writer.temp_path()));
  }
  EXPECT_EQ(Slurp(path), "old contents\n");
  std::remove(path.c_str());
}

TEST(AtomicFileWriterTest, DestructorAbortsUncommittedWriter) {
  std::string path = TempPath("durable_dtor.txt");
  std::remove(path.c_str());
  std::string temp;
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("doomed\n").ok());
    temp = writer.temp_path();
  }
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(temp));
}

TEST(AtomicFileWriterTest, AppendBeforeOpenIsAnError) {
  AtomicFileWriter writer(TempPath("durable_noopen.txt"));
  Status st = writer.Append("x");
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

// --- Injected durability faults ---

TEST(DurableFaultTest, ShortWriteFailsCleanlyAndPreservesTarget) {
  std::string path = TempPath("durable_short.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "survivor\n").ok());
  FaultInjector injector(11);
  ScopedFaultInjector scoped(&injector);
  injector.Arm(FaultSite::kDurableShortWrite, 1);
  Status st = AtomicWriteFile(path, "this write dies halfway\n");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(injector.fire_count(FaultSite::kDurableShortWrite), 1);
  EXPECT_EQ(Slurp(path), "survivor\n");  // old file intact, no torn bytes
  std::remove(path.c_str());
}

TEST(DurableFaultTest, FsyncFailureSurfacesAsIOError) {
  std::string path = TempPath("durable_fsync.txt");
  std::remove(path.c_str());
  FaultInjector injector(11);
  ScopedFaultInjector scoped(&injector);
  injector.Arm(FaultSite::kDurableFsyncFailure, 1);
  Status st = AtomicWriteFile(path, "never durable\n");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_FALSE(FileExists(path));
}

TEST(DurableFaultTest, RenameFailureSurfacesAsIOError) {
  std::string path = TempPath("durable_rename.txt");
  std::remove(path.c_str());
  FaultInjector injector(11);
  ScopedFaultInjector scoped(&injector);
  injector.Arm(FaultSite::kDurableRenameFailure, 1);
  Status st = AtomicWriteFile(path, "never published\n");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_FALSE(FileExists(path));
}

TEST(DurableFaultTest, TransientWriteFaultIsRetriedToSuccess) {
  std::string path = TempPath("durable_retry_write.txt");
  std::remove(path.c_str());
  FaultInjector injector(11);
  ScopedFaultInjector scoped(&injector);
  injector.Arm(FaultSite::kDurableShortWrite, 2);  // first two attempts fail
  RetryOptions retry;
  retry.max_attempts = 3;
  std::vector<double> slept;
  retry.sleep = [&](double s) { slept.push_back(s); };
  ASSERT_TRUE(AtomicWriteFile(path, "third time lucky\n", retry).ok());
  EXPECT_EQ(Slurp(path), "third time lucky\n");
  EXPECT_EQ(slept.size(), 2u);  // one backoff per failed attempt
  std::remove(path.c_str());
}

TEST(DurableFaultTest, ChecksumCorruptionIsCaughtOnRead) {
  std::string path = TempPath("durable_cksum.art");
  FaultInjector injector(11);
  ScopedFaultInjector scoped(&injector);
  injector.Arm(FaultSite::kDurableChecksumCorruption, 1);
  ASSERT_TRUE(WriteArtifact(path, "demo", 1, "payload line\n").ok());
  auto loaded = ReadArtifact(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// --- Deterministic retry schedule ---

TEST(RetryBackoffTest, EqualSeedsGiveEqualSchedules) {
  RetryOptions options;
  options.base_delay_seconds = 0.01;
  options.multiplier = 2.0;
  options.jitter_fraction = 0.25;
  options.seed = 99;
  RetryBackoff a(options);
  RetryBackoff b(options);
  double expected_base = options.base_delay_seconds;
  for (int i = 0; i < 6; ++i) {
    double da = a.NextDelaySeconds();
    double db = b.NextDelaySeconds();
    EXPECT_EQ(da, db);  // bit-identical, not merely close
    // Jitter stays inside the documented band around base * multiplier^i.
    EXPECT_GE(da, expected_base * 0.75 * (1 - 1e-12));
    EXPECT_LE(da, expected_base * 1.25 * (1 + 1e-12));
    expected_base *= options.multiplier;
  }
  options.seed = 100;
  RetryBackoff c(options);
  options.seed = 99;
  RetryBackoff reference(options);
  bool any_different = false;
  for (int i = 0; i < 6; ++i) {
    if (c.NextDelaySeconds() != reference.NextDelaySeconds()) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);  // different seed, different jitter stream
}

TEST(RetryTransientIOTest, OnlyIOErrorIsRetried) {
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.sleep = [](double) {};
  int calls = 0;
  Status st = RetryTransientIO(retry, [&]() {
    ++calls;
    return Status::InvalidArgument("not transient");
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);

  calls = 0;
  st = RetryTransientIO(retry, [&]() {
    ++calls;
    return Status::Corruption("sticky by definition");
  });
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, 1);

  calls = 0;
  st = RetryTransientIO(retry, [&]() -> Status {
    ++calls;
    if (calls < 3) return Status::IOError("flaky");
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTransientIOTest, ExhaustedBudgetReturnsLastError) {
  RetryOptions retry;
  retry.max_attempts = 3;
  std::vector<double> slept;
  retry.sleep = [&](double s) { slept.push_back(s); };
  int calls = 0;
  Status st = RetryTransientIO(retry, [&]() {
    ++calls;
    return Status::IOError("always down");
  });
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(slept.size(), 2u);  // no sleep after the final failure
}

// --- Checksummed envelope ---

TEST(ArtifactTest, RoundTripPreservesPayloadAndIdentity) {
  std::string path = TempPath("artifact_roundtrip.art");
  const std::string payload = "row 1\nrow 2\nrow 3\n";
  ASSERT_TRUE(WriteArtifact(path, "demo", 3, payload).ok());
  ArtifactInfo info;
  ArtifactReadOptions options;
  options.expected_format = "demo";
  auto loaded = ReadArtifact(path, options, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, payload);
  EXPECT_EQ(info.format, "demo");
  EXPECT_EQ(info.version, 3);
  EXPECT_TRUE(info.enveloped);
  std::remove(path.c_str());
}

TEST(ArtifactTest, MissingTrailingNewlineIsAdded) {
  std::string path = TempPath("artifact_newline.art");
  ASSERT_TRUE(WriteArtifact(path, "demo", 1, "no newline").ok());
  auto loaded = ReadArtifact(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "no newline\n");
  std::remove(path.c_str());
}

TEST(ArtifactTest, FormatMustBeSingleWord) {
  EXPECT_EQ(WriteArtifact(TempPath("x"), "two words", 1, "p\n").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteArtifact(TempPath("x"), "", 1, "p\n").code(),
            StatusCode::kInvalidArgument);
}

TEST(ArtifactTest, ForeignFilePassthroughUnlessEnvelopeRequired) {
  std::string path = TempPath("artifact_foreign.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "# hand-authored fixture\n1 2 3\n").ok());
  ArtifactInfo info;
  auto loaded = ReadArtifact(path, {}, &info);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "# hand-authored fixture\n1 2 3\n");
  EXPECT_FALSE(info.enveloped);

  ArtifactReadOptions strict;
  strict.require_envelope = true;
  auto rejected = ReadArtifact(path, strict);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(ArtifactTest, WrongFormatIsAUsageErrorNotCorruption) {
  std::string path = TempPath("artifact_wrongfmt.art");
  ASSERT_TRUE(WriteArtifact(path, "demo", 1, "p\n").ok());
  ArtifactReadOptions options;
  options.expected_format = "other";
  auto loaded = ReadArtifact(path, options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ArtifactTest, MissingFileIsIOError) {
  auto loaded = ReadArtifact(TempPath("artifact_never_written.art"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// The tentpole guarantee: EVERY single-byte flip of a saved artifact —
// header, payload, footer, markers, newlines — must surface as Corruption.
// The envelope is marked at both ends precisely so one flipped byte cannot
// hide both markers at once.
TEST(ArtifactTest, EverysingleByteFlipIsDetectedAsCorruption) {
  std::string path = TempPath("artifact_flip.art");
  ASSERT_TRUE(
      WriteArtifact(path, "demo", 1, "0 1 0.5\n1 2 0.25\nfinal-row\n").ok());
  auto original = ReadFileBytes(path);
  ASSERT_TRUE(original.ok());
  std::string mutated_path = TempPath("artifact_flip_mutated.art");
  for (size_t offset = 0; offset < original->size(); ++offset) {
    for (unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string mutated = *original;
      mutated[offset] = static_cast<char>(mutated[offset] ^ mask);
      ASSERT_TRUE(AtomicWriteFile(mutated_path, mutated).ok());
      auto loaded = ReadArtifact(mutated_path);
      ASSERT_FALSE(loaded.ok())
          << "flip at offset " << offset << " mask " << int(mask)
          << " was not detected";
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
          << "flip at offset " << offset << " mask " << int(mask) << ": "
          << loaded.status().ToString();
    }
  }
  std::remove(path.c_str());
  std::remove(mutated_path.c_str());
}

// Every truncation that removes artifact bytes must be caught. (Removing
// only the final newline leaves the checksummed content fully intact and is
// legitimately accepted, so the loop stops one byte short of that.)
TEST(ArtifactTest, TruncationIsDetectedAsCorruption) {
  std::string path = TempPath("artifact_trunc.art");
  ASSERT_TRUE(WriteArtifact(path, "demo", 1, "0 1 0.5\n1 2 0.25\n").ok());
  auto original = ReadFileBytes(path);
  ASSERT_TRUE(original.ok());
  std::string truncated_path = TempPath("artifact_trunc_cut.art");
  ArtifactReadOptions strict;
  strict.require_envelope = true;  // the checkpoint-loader configuration
  for (size_t keep = 0; keep + 1 < original->size(); ++keep) {
    ASSERT_TRUE(
        AtomicWriteFile(truncated_path, original->substr(0, keep)).ok());
    auto loaded = ReadArtifact(truncated_path, strict);
    ASSERT_FALSE(loaded.ok()) << "truncation to " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "truncation to " << keep
        << " bytes: " << loaded.status().ToString();
  }
  std::remove(path.c_str());
  std::remove(truncated_path.c_str());
}

// --- Payload codec ---

TEST(PayloadCodecTest, WriterEmitsTheLineGrammar) {
  PayloadWriter out;
  out.Line("head").Int(-3).Word("x").Hex64(0xabc).Double(1.0);
  out.Line("ints").IntVec({4, -5});
  out.Line("wide").Int64Vec({int64_t{1} << 40});
  out.Line("doubles").DoubleVec({});
  EXPECT_EQ(out.Finish(),
            "head -3 x 0000000000000abc 3ff0000000000000\n"
            "ints 2 4 -5\n"
            "wide 1 1099511627776\n"
            "doubles 0\n");
}

TEST(PayloadCodecTest, ReaderRoundTripsEveryFieldKind) {
  PayloadWriter out;
  out.Line("head").Int(-3).Word("x").Hex64(0xabc).Double(-0.0);
  out.Line("ints").IntVec({4, -5}).Word("tail").Word("word");
  out.Line("wide").Int64Vec({int64_t{1} << 40});
  out.Line("doubles").DoubleVec({0.1, 1e-308});
  const std::string payload = out.Finish();

  PayloadReader in(payload);
  ASSERT_TRUE(in.Line("head").ok());
  EXPECT_EQ(in.ReadInt().value(), -3);
  EXPECT_EQ(in.ReadHex64("x").value(), 0xabcu);
  const double zero = in.ReadDouble().value();
  EXPECT_EQ(zero, 0.0);
  EXPECT_TRUE(std::signbit(zero));
  ASSERT_TRUE(in.Line("ints").ok());
  EXPECT_EQ(in.ReadIntVec().value(), (std::vector<int>{4, -5}));
  EXPECT_EQ(in.ReadWord("tail").value(), "word");
  ASSERT_TRUE(in.Line("wide").ok());
  EXPECT_EQ(in.ReadInt64Vec().value(),
            (std::vector<int64_t>{int64_t{1} << 40}));
  ASSERT_TRUE(in.Line("doubles").ok());
  EXPECT_EQ(in.ReadDoubleVec().value(), (std::vector<double>{0.1, 1e-308}));
  EXPECT_TRUE(in.Finish().ok());
}

// Reads one "v" line holding an int vector.
Status ReadVecLine(const std::string& payload) {
  PayloadReader in(payload);
  RP_RETURN_IF_ERROR(in.Line("v"));
  RP_ASSIGN_OR_RETURN(std::vector<int> values, in.ReadIntVec());
  (void)values;
  return in.Finish();
}

TEST(PayloadCodecTest, VectorCountsAreBoundedByTheLine) {
  EXPECT_TRUE(ReadVecLine("v 2 7 8\n").ok());
  EXPECT_TRUE(ReadVecLine("v 0\n").ok());
  for (const char* bad :
       {"v -1\n", "v -1 7\n", "v 100000000000 7 8\n",
        "v 18446744073709551615\n", "v 3 7 8\n", "v 3 7 8\n9\n",
        "v 1 7 8\n", "v 2 7 x\n", "v 2 7 99999999999\n", "v\n"}) {
    const Status status = ReadVecLine(bad);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << bad;
    EXPECT_NE(status.message().find("'v'"), std::string::npos)
        << status.ToString();
  }
}

TEST(PayloadCodecTest, FieldsAreStrictTokens) {
  auto read_int = [](const std::string& payload) -> Result<int> {
    PayloadReader in(payload);
    RP_RETURN_IF_ERROR(in.Line("n"));
    RP_ASSIGN_OR_RETURN(int value, in.ReadInt());
    RP_RETURN_IF_ERROR(in.Finish());
    return value;
  };
  EXPECT_EQ(read_int("n 12\n").value(), 12);
  EXPECT_EQ(read_int("n 12").value(), 12);  // final newline is optional
  for (const char* bad : {"n  12\n", "n 12 \n", "n +12\n", "n 12x\n",
                          "n 2147483648\n", "n\t12\n", "m 12\n", "\n",
                          "", "n 12\n\n"}) {
    EXPECT_EQ(read_int(bad).status().code(), StatusCode::kCorruption) << bad;
  }
}

TEST(PayloadCodecTest, ErrorsNameTheTagBeingRead) {
  PayloadReader in("key 1 valid x\n");
  ASSERT_TRUE(in.Line("key").ok());
  ASSERT_TRUE(in.ReadInt().ok());
  const Status status = in.ReadInt("valid").status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("'valid'"), std::string::npos)
      << status.ToString();

  PayloadReader wrong("key 1\n");
  const Status tag = wrong.Line("ktop");
  EXPECT_EQ(tag.code(), StatusCode::kCorruption);
  EXPECT_NE(tag.message().find("'ktop'"), std::string::npos) << tag.ToString();
  EXPECT_EQ(wrong.ReadHex64("key").status().code(), StatusCode::kCorruption);
  // A word never carries a blank a whitespace tokenizer would split at.
  PayloadReader blank("w none\tx\n");
  ASSERT_TRUE(blank.Line("w").ok());
  EXPECT_EQ(blank.ReadWord().status().code(), StatusCode::kCorruption);
  // Hex fields keep the envelope's lowercase-only rule.
  PayloadReader upper("h 0A\n");
  ASSERT_TRUE(upper.Line("h").ok());
  EXPECT_EQ(upper.ReadHex64().status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace roadpart
