#include "common/durable_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace roadpart {

namespace {

// Envelope markers. Both start with '#' so every line-oriented parser in the
// repo (and most foreign ones) reads them as comments; the two spellings are
// prefix-disjoint ("#! rpaf " vs "#! rpaf-end "), so one cannot be mistaken
// for the other.
constexpr char kHeaderMarker[] = "#! rpaf ";
constexpr char kFooterMarker[] = "#! rpaf-end ";
constexpr size_t kHeaderMarkerLen = sizeof(kHeaderMarker) - 1;
constexpr size_t kFooterMarkerLen = sizeof(kFooterMarker) - 1;

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return StrPrintf("%s %s: %s", what.c_str(), path.c_str(),
                   std::strerror(errno));
}

void SleepForSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void AppendHex64(std::string* out, uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char hex[16];
  for (int i = 15; i >= 0; --i, value >>= 4) hex[i] = kDigits[value & 0xf];
  out->append(hex, sizeof(hex));
}

}  // namespace

// --- Checksums and bit-exact number round-trips -----------------------------

uint64_t Fnv1a64(const void* data, size_t size, uint64_t basis) {
  // For a fixed position and prefix state h, h' = (h ^ byte) * prime is
  // injective in `byte` (odd prime => multiplication mod 2^64 is invertible),
  // and every later step is a bijection of the running state — which is why
  // any single-byte substitution provably changes the digest.
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = basis;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t Fnv1a64(std::string_view data, uint64_t basis) {
  return Fnv1a64(data.data(), data.size(), basis);
}

std::string DoubleToBitsHex(double value) {
  return Uint64ToHex(std::bit_cast<uint64_t>(value));
}

Result<double> DoubleFromBitsHex(std::string_view hex) {
  RP_ASSIGN_OR_RETURN(uint64_t bits, Uint64FromHex(hex));
  return std::bit_cast<double>(bits);
}

std::string Uint64ToHex(uint64_t value) {
  std::string hex;
  AppendHex64(&hex, value);
  return hex;
}

Result<uint64_t> Uint64FromHex(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) {
    return Status::InvalidArgument(
        StrPrintf("bad hex64 '%.*s'", static_cast<int>(hex.size()),
                  hex.data()));
  }
  uint64_t value = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      // No uppercase: every producer is Uint64ToHex, which emits lowercase.
      // Accepting 'A'-'F' would let a case-flipped (corrupted) checksum
      // byte parse to the same value and defeat byte-flip detection.
      return Status::InvalidArgument(
          StrPrintf("bad hex64 '%.*s'", static_cast<int>(hex.size()),
                    hex.data()));
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

// --- Deterministic bounded retry --------------------------------------------

RetryBackoff::RetryBackoff(const RetryOptions& options)
    : base_(options.base_delay_seconds),
      multiplier_(options.multiplier),
      jitter_(std::clamp(options.jitter_fraction, 0.0, 1.0)),
      rng_state_(options.seed) {}

double RetryBackoff::NextDelaySeconds() {
  double delay = base_;
  for (int i = 0; i < attempt_; ++i) delay *= multiplier_;
  ++attempt_;
  // One Rng draw per delay: equal seeds give equal schedules regardless of
  // how far apart in time the attempts land.
  Rng rng(rng_state_);
  rng_state_ = rng.Next();
  double factor = 1.0 - jitter_ + 2.0 * jitter_ * rng.NextDouble();
  return delay * factor;
}

Status RetryTransientIO(const RetryOptions& options,
                        const std::function<Status()>& op) {
  const int attempts = std::max(1, options.max_attempts);
  RetryBackoff backoff(options);
  Status status;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    status = op();
    // Only kIOError is transient. Corruption in particular is sticky: the
    // bytes on disk are wrong and will stay wrong.
    if (status.ok() || status.code() != StatusCode::kIOError) return status;
    if (attempt + 1 < attempts) {
      double delay = backoff.NextDelaySeconds();
      if (options.sleep) {
        options.sleep(delay);
      } else {
        SleepForSeconds(delay);
      }
    }
  }
  return status;
}

// --- Atomic file writes -----------------------------------------------------

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)),
      temp_path_(StrPrintf("%s.tmp.%d", path_.c_str(),
                           static_cast<int>(::getpid()))) {}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_) (void)Abort();
}

Status AtomicFileWriter::Open() {
  if (fd_ >= 0) return Status::FailedPrecondition("writer already open");
  fd_ = ::open(temp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    return Status::IOError(ErrnoMessage("cannot create temp file", temp_path_));
  }
  return Status::OK();
}

Status AtomicFileWriter::Append(std::string_view data) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("AtomicFileWriter not open: " + path_);
  }
  size_t limit = data.size();
  bool injected_short = false;
  if (RP_FAULT_FIRES(FaultSite::kDurableShortWrite)) {
    limit = data.size() / 2;  // half the buffer lands, then the device fails
    injected_short = true;
  }
  size_t written = 0;
  while (written < limit) {
    ssize_t n = ::write(fd_, data.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write failed for", temp_path_));
    }
    written += static_cast<size_t>(n);
  }
  if (injected_short) {
    return Status::IOError(
        StrPrintf("short write for %s: %zu of %zu bytes (injected fault)",
                  temp_path_.c_str(), written, data.size()));
  }
  return Status::OK();
}

Status AtomicFileWriter::Commit() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("AtomicFileWriter not open: " + path_);
  }
  // fsync before close: this is where a full disk that buffered writes
  // "accepted" finally reports ENOSPC. Checked, never assumed.
  if (RP_FAULT_FIRES(FaultSite::kDurableFsyncFailure) ||
      ::fsync(fd_) != 0) {
    Status error =
        Status::IOError(ErrnoMessage("fsync failed for", temp_path_));
    (void)Abort();
    return error;
  }
  int close_result = ::close(fd_);
  fd_ = -1;
  if (close_result != 0) {
    Status error =
        Status::IOError(ErrnoMessage("close failed for", temp_path_));
    (void)Abort();
    return error;
  }
  if (RP_FAULT_FIRES(FaultSite::kDurableRenameFailure) ||
      std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    Status error = Status::IOError(
        StrPrintf("rename %s -> %s failed: %s", temp_path_.c_str(),
                  path_.c_str(), std::strerror(errno)));
    (void)Abort();
    return error;
  }
  committed_ = true;
  // Durability of the rename itself needs the directory entry flushed.
  // Best-effort when the directory cannot be opened (e.g. bare filename in
  // a cwd we cannot re-open), but a failing fsync on an opened directory is
  // a real error.
  size_t slash = path_.rfind('/');
  std::string dir = slash == std::string::npos ? "." : path_.substr(0, slash);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    int sync_result = ::fsync(dir_fd);
    int dir_close = ::close(dir_fd);
    if (sync_result != 0 || dir_close != 0) {
      return Status::IOError(ErrnoMessage("directory fsync failed for", dir));
    }
  }
  return Status::OK();
}

Status AtomicFileWriter::Abort() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
  if (!committed_) (void)::unlink(temp_path_.c_str());
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, std::string_view contents,
                       const RetryOptions& retry) {
  return RetryTransientIO(retry, [&]() -> Status {
    AtomicFileWriter writer(path);
    RP_RETURN_IF_ERROR(writer.Open());
    Status status = writer.Append(contents);
    if (status.ok()) status = writer.Commit();
    if (!status.ok()) (void)writer.Abort();
    return status;
  });
}

// --- Checksummed artifact envelope ------------------------------------------

Status WriteArtifact(const std::string& path, std::string_view format,
                     int version, std::string_view payload,
                     const RetryOptions& retry) {
  if (format.empty() || format.find(' ') != std::string_view::npos ||
      format.find('\n') != std::string_view::npos) {
    return Status::InvalidArgument("artifact format must be a single word");
  }
  std::string body(payload);
  if (body.empty() || body.back() != '\n') body.push_back('\n');
  const uint64_t checksum = Fnv1a64(body);
  if (RP_FAULT_FIRES(FaultSite::kDurableChecksumCorruption)) {
    // Flip one payload byte *after* checksumming: the file lands exactly as
    // torn as a device-level bit flip would leave it.
    if (FaultInjector* injector = GlobalFaultInjector()) {
      std::vector<int> picked =
          injector->PickIndices(static_cast<int>(body.size()), 1);
      if (!picked.empty()) body[picked[0]] ^= 0x01;
    }
  }
  std::string file;
  file.reserve(body.size() + 128);
  file += kHeaderMarker;
  file += format;
  file += StrPrintf(" v%d\n", version);
  file += body;
  file += kFooterMarker;
  file += format;
  file += StrPrintf(" v%d len=%zu fnv=%s\n", version, body.size(),
                    Uint64ToHex(checksum).c_str());
  return AtomicWriteFile(path, file, retry);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError(ErrnoMessage("cannot open", path));
  }
  std::string out;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out.append(buffer, n);
  }
  const bool read_error = std::ferror(file) != 0;
  (void)std::fclose(file);
  if (read_error) {
    return Status::IOError(ErrnoMessage("read failed for", path));
  }
  return out;
}

namespace {

struct EnvelopeFields {
  std::string format;
  int version = 0;
  uint64_t length = 0;   // footer only
  uint64_t checksum = 0; // footer only
};

Status ParseHeaderLine(std::string_view line, EnvelopeFields* out) {
  auto fields = Split(Trim(line), ' ');
  if (fields.size() != 2 || fields[1].size() < 2 || fields[1][0] != 'v') {
    return Status::Corruption("malformed artifact header line");
  }
  auto version = ParseInt(std::string_view(fields[1]).substr(1));
  if (!version.ok()) {
    return Status::Corruption("malformed artifact header version");
  }
  out->format = fields[0];
  out->version = static_cast<int>(*version);
  return Status::OK();
}

Status ParseFooterLine(std::string_view line, EnvelopeFields* out) {
  auto fields = Split(Trim(line), ' ');
  if (fields.size() != 4 || fields[1].size() < 2 || fields[1][0] != 'v' ||
      !StartsWith(fields[2], "len=") || !StartsWith(fields[3], "fnv=")) {
    return Status::Corruption("malformed artifact footer line");
  }
  auto version = ParseInt(std::string_view(fields[1]).substr(1));
  auto length = ParseInt(std::string_view(fields[2]).substr(4));
  auto checksum = Uint64FromHex(std::string_view(fields[3]).substr(4));
  if (!version.ok() || !length.ok() || *length < 0 || !checksum.ok()) {
    return Status::Corruption("malformed artifact footer fields");
  }
  out->format = fields[0];
  out->version = static_cast<int>(*version);
  out->length = static_cast<uint64_t>(*length);
  out->checksum = *checksum;
  return Status::OK();
}

}  // namespace

Result<std::string> ReadArtifact(const std::string& path,
                                 const ArtifactReadOptions& options,
                                 ArtifactInfo* info) {
  std::string content;
  RP_RETURN_IF_ERROR(RetryTransientIO(options.retry, [&]() -> Status {
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    content = std::move(bytes).value();
    return Status::OK();
  }));

  const bool header_present =
      StartsWith(content, std::string_view(kHeaderMarker, kHeaderMarkerLen));
  size_t footer_start = std::string::npos;
  if (StartsWith(content, std::string_view(kFooterMarker, kFooterMarkerLen))) {
    footer_start = 0;
  } else {
    std::string needle = std::string("\n") + kFooterMarker;
    size_t pos = content.rfind(needle);
    if (pos != std::string::npos) footer_start = pos + 1;
  }
  const bool footer_present = footer_start != std::string::npos;

  if (!header_present && !footer_present) {
    if (options.require_envelope) {
      return Status::Corruption(path +
                                ": artifact envelope missing (file is "
                                "foreign, torn, or fully overwritten)");
    }
    if (info != nullptr) *info = ArtifactInfo{};
    return content;
  }

  // At least one marker survived: the file claims to be an artifact, so the
  // whole envelope must verify. One corrupted byte can hide one marker but
  // never both.
  if (!header_present) {
    return Status::Corruption(
        path + ": artifact header missing or damaged (footer intact)");
  }
  if (!footer_present) {
    return Status::Corruption(
        path + ": artifact footer missing — file truncated or torn mid-write");
  }
  size_t header_end = content.find('\n');
  if (header_end == std::string::npos || header_end >= footer_start) {
    return Status::Corruption(path + ": artifact header line unterminated");
  }
  size_t footer_line_end = content.find('\n', footer_start);
  if (footer_line_end != std::string::npos &&
      footer_line_end + 1 != content.size()) {
    return Status::Corruption(path + ": trailing bytes after artifact footer");
  }

  EnvelopeFields header;
  EnvelopeFields footer;
  Status parsed = ParseHeaderLine(
      std::string_view(content).substr(kHeaderMarkerLen,
                                       header_end - kHeaderMarkerLen),
      &header);
  if (!parsed.ok()) return Status::Corruption(path + ": " + parsed.message());
  size_t footer_text_begin = footer_start + kFooterMarkerLen;
  size_t footer_text_end =
      footer_line_end == std::string::npos ? content.size() : footer_line_end;
  parsed = ParseFooterLine(
      std::string_view(content).substr(footer_text_begin,
                                       footer_text_end - footer_text_begin),
      &footer);
  if (!parsed.ok()) return Status::Corruption(path + ": " + parsed.message());

  if (header.format != footer.format || header.version != footer.version) {
    return Status::Corruption(
        StrPrintf("%s: artifact header (%s v%d) and footer (%s v%d) disagree",
                  path.c_str(), header.format.c_str(), header.version,
                  footer.format.c_str(), footer.version));
  }
  if (!options.expected_format.empty() &&
      header.format != options.expected_format) {
    return Status::FailedPrecondition(
        StrPrintf("%s: artifact is '%s', expected '%s'", path.c_str(),
                  header.format.c_str(), options.expected_format.c_str()));
  }
  if (footer_start < header_end + 1) {
    return Status::Corruption(path + ": artifact envelope overlaps itself");
  }
  std::string payload =
      content.substr(header_end + 1, footer_start - header_end - 1);
  if (payload.size() != footer.length) {
    return Status::Corruption(StrPrintf(
        "%s: payload length mismatch (footer says %llu bytes, file has %zu) "
        "— truncated or torn",
        path.c_str(), static_cast<unsigned long long>(footer.length),
        payload.size()));
  }
  uint64_t actual = Fnv1a64(payload);
  if (actual != footer.checksum) {
    return Status::Corruption(StrPrintf(
        "%s: checksum mismatch (footer fnv=%s, payload fnv=%s) — artifact "
        "bytes were altered after write",
        path.c_str(), Uint64ToHex(footer.checksum).c_str(),
        Uint64ToHex(actual).c_str()));
  }
  if (info != nullptr) {
    info->format = header.format;
    info->version = header.version;
    info->enveloped = true;
  }
  return payload;
}

bool AdoptArtifact(const std::string& path, std::string_view format,
                   const RetryOptions& retry, std::string_view store,
                   std::string_view fallback,
                   const std::function<Status(std::string_view)>& decode,
                   std::vector<std::string>* warnings) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) && !ec) return false;
  auto payload = ReadArtifact(path, {.expected_format = std::string(format),
                                     .require_envelope = true,
                                     .retry = retry});
  const Status status = payload.ok() ? decode(*payload) : payload.status();
  if (status.ok()) return true;
  if (warnings != nullptr) {
    warnings->push_back(std::string(store) + " not adopted (" +
                        status.ToString() + "); " + std::string(fallback));
  }
  return false;
}

// --- Payload codec ----------------------------------------------------------

PayloadWriter& PayloadWriter::Line(std::string_view tag) {
  if (!out_.empty()) out_ += '\n';
  out_ += tag;
  return *this;
}

PayloadWriter& PayloadWriter::Word(std::string_view word) {
  out_ += ' ';
  out_ += word;
  return *this;
}

PayloadWriter& PayloadWriter::Int(int64_t value) {
  char digits[24];
  char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out_ += ' ';
  out_.append(digits, end - digits);
  return *this;
}

PayloadWriter& PayloadWriter::Hex64(uint64_t value) {
  out_ += ' ';
  AppendHex64(&out_, value);
  return *this;
}

PayloadWriter& PayloadWriter::Double(double value) {
  return Hex64(std::bit_cast<uint64_t>(value));
}

PayloadWriter& PayloadWriter::IntVec(const std::vector<int>& values) {
  Int(static_cast<int64_t>(values.size()));
  for (int v : values) Int(v);
  return *this;
}

PayloadWriter& PayloadWriter::Int64Vec(const std::vector<int64_t>& values) {
  Int(static_cast<int64_t>(values.size()));
  for (int64_t v : values) Int(v);
  return *this;
}

PayloadWriter& PayloadWriter::DoubleVec(const std::vector<double>& values) {
  Int(static_cast<int64_t>(values.size()));
  for (double v : values) Double(v);
  return *this;
}

std::string PayloadWriter::Finish() {
  if (!out_.empty()) out_ += '\n';
  return std::move(out_);
}

namespace {

template <typename T>
bool ParseDecimal(std::string_view field, T* value) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

bool ParseHex64(std::string_view field, uint64_t* value) {
  auto parsed = Uint64FromHex(field);
  if (parsed.ok()) *value = *parsed;
  return parsed.ok();
}

bool ParseBitsHex(std::string_view field, double* value) {
  auto parsed = DoubleFromBitsHex(field);
  if (parsed.ok()) *value = *parsed;
  return parsed.ok();
}

}  // namespace

Status PayloadReader::Corrupt(std::string_view what) const {
  return Status::Corruption(StrPrintf("payload '%s': %.*s", tag_.c_str(),
                                      static_cast<int>(what.size()),
                                      what.data()));
}

Status PayloadReader::Line(std::string_view tag) {
  if (!line_.empty()) return Corrupt("unread fields at end of line");
  tag_ = tag;
  if (rest_.empty()) return Corrupt("payload ends before this line");
  const size_t newline = rest_.find('\n');
  const std::string_view line = rest_.substr(0, newline);
  rest_ = newline == std::string_view::npos ? std::string_view()
                                             : rest_.substr(newline + 1);
  const size_t space = line.find(' ');
  line_ = space == std::string_view::npos ? std::string_view()
                                          : line.substr(space);
  if (line.substr(0, space) != tag) {
    return Corrupt("line has a different tag: '" +
                   std::string(line.substr(0, space)) + "'");
  }
  return Status::OK();
}

Result<std::string_view> PayloadReader::Field() {
  if (line_.empty()) return Corrupt("line ends before this field");
  const size_t end = line_.find(' ', 1);
  const std::string_view field = line_.substr(1, end - 1);
  line_ = end == std::string_view::npos ? std::string_view()
                                        : line_.substr(end);
  // Other blanks would split the field for a whitespace tokenizer.
  if (field.empty() || field.find_first_of("\t\v\f\r") != field.npos) {
    return Corrupt("empty or blank-bearing field");
  }
  return field;
}

Status PayloadReader::Expect(std::string_view tag) {
  RP_ASSIGN_OR_RETURN(std::string_view found, Field());
  tag_ = tag;
  if (found != tag) {
    return Corrupt("field has a different tag: '" + std::string(found) + "'");
  }
  return Status::OK();
}

template <typename T>
Result<T> PayloadReader::Scalar(std::string_view tag, Parser<T> parse) {
  if (!tag.empty()) RP_RETURN_IF_ERROR(Expect(tag));
  RP_ASSIGN_OR_RETURN(std::string_view field, Field());
  T value{};
  if (!parse(field, &value)) {
    return Corrupt("unreadable field '" + std::string(field) + "'");
  }
  return value;
}

template <typename T>
Result<std::vector<T>> PayloadReader::Vector(std::string_view tag,
                                             Parser<T> parse) {
  RP_ASSIGN_OR_RETURN(int64_t count, Scalar<int64_t>(tag, ParseDecimal));
  // Every value needs its own ' '-led field, so the separators left on the
  // line bound the count before anything is allocated.
  const int64_t fields_left = std::count(line_.begin(), line_.end(), ' ');
  if (count < 0 || count > fields_left) {
    return Corrupt(StrPrintf("count %lld does not fit the %lld fields left",
                             static_cast<long long>(count),
                             static_cast<long long>(fields_left)));
  }
  std::vector<T> values(static_cast<size_t>(count));
  for (T& value : values) {
    RP_ASSIGN_OR_RETURN(value, Scalar<T>({}, parse));
  }
  return values;
}

Result<std::string_view> PayloadReader::ReadWord(std::string_view tag) {
  if (!tag.empty()) RP_RETURN_IF_ERROR(Expect(tag));
  return Field();
}

Result<int> PayloadReader::ReadInt(std::string_view tag) {
  return Scalar<int>(tag, ParseDecimal);
}

Result<int64_t> PayloadReader::ReadInt64(std::string_view tag) {
  return Scalar<int64_t>(tag, ParseDecimal);
}

Result<uint64_t> PayloadReader::ReadHex64(std::string_view tag) {
  return Scalar<uint64_t>(tag, ParseHex64);
}

Result<double> PayloadReader::ReadDouble(std::string_view tag) {
  return Scalar<double>(tag, ParseBitsHex);
}

Result<std::vector<int>> PayloadReader::ReadIntVec(std::string_view tag) {
  return Vector<int>(tag, ParseDecimal);
}

Result<std::vector<int64_t>> PayloadReader::ReadInt64Vec(std::string_view tag) {
  return Vector<int64_t>(tag, ParseDecimal);
}

Result<std::vector<double>> PayloadReader::ReadDoubleVec(std::string_view tag) {
  return Vector<double>(tag, ParseBitsHex);
}

Status PayloadReader::Finish() {
  if (!line_.empty()) return Corrupt("unread fields at end of payload");
  if (!rest_.empty()) return Corrupt("unread lines at end of payload");
  return Status::OK();
}

}  // namespace roadpart
