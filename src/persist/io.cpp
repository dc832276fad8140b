#include "persist/io.hpp"

#include <array>
#include <cstdio>

#include "util/check.hpp"

namespace chs::persist {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

struct Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t kind;
};
constexpr std::size_t kHeaderSize = 16;
constexpr std::size_t kSectionHead = 4 + 8;  // tag + length
constexpr std::size_t kSectionFoot = 4;      // crc

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::string tag_name(std::uint32_t tag) {
  std::string s;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    s += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return s;
}

// One-line annotations for `describe` — every section tag any writer in
// this repo emits. A tag missing here is flagged loudly in the dump: either
// the file is from a newer format or it is not ours.
const char* tag_note(const std::string& name) {
  // engine blob (full or delta)
  if (name == "HEAD") return "parent hash + host count";
  if (name == "ENGN") return "engine loop state";
  if (name == "TOPO") return "topology graph, if changed";
  if (name == "CALS") return "delivery/hold/wakeup calendars";
  if (name == "MAIL") return "last round's delivery count";
  if (name == "NODE") return "touched hosts: state, RNGs, snapshot";
  if (name == "METR") return "run metrics";
  if (name == "PROT") return "protocol extras";
  // campaign job / campaign file
  if (name == "JOBR") return "job loop state";
  if (name == "OBSR") return "telemetry series recorder";
  if (name == "WKLD") return "serving workload driver";
  if (name == "KVDP") return "embedded KV data-plane blob";
  if (name == "ENGB") return "embedded engine blob (full or delta)";
  if (name == "ORCL") return "invariant oracle state";
  if (name == "SCEN") return "scenario text";
  if (name == "JOB ") return "per-job checkpoint slot";
  // fuzzer
  if (name == "FUZZ") return "fuzz run prefix";
  if (name == "CORP") return "fuzz corpus + scheduler state";
  return nullptr;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::uint64_t content_hash(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

const char* blob_kind_name(BlobKind k) {
  switch (k) {
    case BlobKind::kEngine: return "engine";
    case BlobKind::kJob: return "job";
    case BlobKind::kCampaign: return "campaign";
    case BlobKind::kFuzz: return "fuzz";
    case BlobKind::kRaw: return "raw";
    case BlobKind::kEngineDelta: return "engine-delta";
    case BlobKind::kJobDelta: return "job-delta";
  }
  return "?";
}

Writer::Writer(BlobKind kind) {
  const std::uint64_t magic = detail::kMagic;
  const std::uint32_t version = kFormatVersion;
  const std::uint32_t k = static_cast<std::uint32_t>(kind);
  raw(&magic, sizeof magic);
  raw(&version, sizeof version);
  raw(&k, sizeof k);
}

void Writer::begin_section(std::uint32_t tag) {
  CHS_CHECK_MSG(!in_section_, "persist sections do not nest");
  in_section_ = true;
  raw(&tag, sizeof tag);
  len_at_ = buf_.size();
  const std::uint64_t len = 0;  // patched by end_section
  raw(&len, sizeof len);
}

void Writer::end_section() {
  CHS_CHECK(in_section_);
  in_section_ = false;
  const std::size_t payload_at = len_at_ + sizeof(std::uint64_t);
  const std::uint64_t len = buf_.size() - payload_at;
  std::memcpy(buf_.data() + len_at_, &len, sizeof len);
  const std::uint32_t crc = crc32(buf_.data() + payload_at,
                                  static_cast<std::size_t>(len));
  raw(&crc, sizeof crc);
}

Status Reader::expect_header(BlobKind kind) {
  if (!ok_) return status();
  if (size_ - pos_ < kHeaderSize) {
    fail("blob too short for header");
    return status();
  }
  if (load_u64(data_ + pos_) != detail::kMagic) {
    fail("bad magic: not a chordsim checkpoint");
    return status();
  }
  const std::uint32_t version = load_u32(data_ + pos_ + 8);
  if (version != kFormatVersion) {
    fail("unsupported format version " + std::to_string(version) +
         " (this build reads version " + std::to_string(kFormatVersion) + ")");
    return status();
  }
  const std::uint32_t k = load_u32(data_ + pos_ + 12);
  if (k != static_cast<std::uint32_t>(kind)) {
    fail(std::string("blob kind mismatch: file holds a '") +
         blob_kind_name(static_cast<BlobKind>(k)) + "' blob, expected '" +
         blob_kind_name(kind) + "'");
    return status();
  }
  pos_ += kHeaderSize;
  return {};
}

Status Reader::validate_sections() const {
  std::size_t at = pos_;
  while (at < size_) {
    if (size_ - at < kSectionHead) {
      return Status::failure("truncated section header at offset " +
                             std::to_string(at));
    }
    const std::uint32_t tag = load_u32(data_ + at);
    const std::uint64_t len = load_u64(data_ + at + 4);
    at += kSectionHead;
    if (len > size_ - at || size_ - at - static_cast<std::size_t>(len) <
                                kSectionFoot) {
      return Status::failure("section '" + tag_name(tag) +
                             "' runs past end of blob");
    }
    const std::uint32_t want = load_u32(data_ + at + len);
    const std::uint32_t got = crc32(data_ + at, static_cast<std::size_t>(len));
    if (want != got) {
      return Status::failure("CRC mismatch in section '" + tag_name(tag) +
                             "': checkpoint is corrupt");
    }
    at += static_cast<std::size_t>(len) + kSectionFoot;
  }
  return {};
}

Status Reader::open_section(std::uint32_t tag) {
  if (!ok_) return status();
  if (in_section_) {
    fail("open_section inside a section");
    return status();
  }
  if (size_ - pos_ < kSectionHead) {
    fail("truncated blob: expected section '" + tag_name(tag) + "'");
    return status();
  }
  const std::uint32_t got_tag = load_u32(data_ + pos_);
  if (got_tag != tag) {
    fail("expected section '" + tag_name(tag) + "', found '" +
         tag_name(got_tag) + "' (stale or mismatched checkpoint)");
    return status();
  }
  const std::uint64_t len = load_u64(data_ + pos_ + 4);
  const std::size_t payload_at = pos_ + kSectionHead;
  if (len > size_ - payload_at ||
      size_ - payload_at - static_cast<std::size_t>(len) < kSectionFoot) {
    fail("section '" + tag_name(tag) + "' runs past end of blob");
    return status();
  }
  const std::uint32_t want = load_u32(data_ + payload_at + len);
  const std::uint32_t crc =
      crc32(data_ + payload_at, static_cast<std::size_t>(len));
  if (want != crc) {
    fail("CRC mismatch in section '" + tag_name(tag) +
         "': checkpoint is corrupt");
    return status();
  }
  pos_ = payload_at;
  section_end_ = payload_at + static_cast<std::size_t>(len);
  in_section_ = true;
  return {};
}

Status Reader::close_section() {
  if (!ok_) return status();
  CHS_CHECK(in_section_);
  if (pos_ != section_end_) {
    fail("section not fully consumed (" +
         std::to_string(section_end_ - pos_) +
         " bytes left): layout mismatch");
    return status();
  }
  in_section_ = false;
  pos_ += kSectionFoot;  // skip the already-verified CRC
  return {};
}

Status Reader::expect_end() const {
  if (!ok_) return status();
  if (pos_ != size_) {
    return Status::failure("trailing data after last section (" +
                           std::to_string(size_ - pos_) + " bytes)");
  }
  return {};
}

Status write_file(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Status::failure("cannot open '" + tmp + "' for writing");
  const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0 && n == bytes.size();
  if (!flushed) {
    std::remove(tmp.c_str());
    return Status::failure("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::failure("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return {};
}

Status read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::failure("cannot open '" + path + "'");
  out.clear();
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::failure("read error on '" + path + "'");
  return {};
}

std::string describe(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char line[160];
  if (bytes.size() < kHeaderSize) {
    return "not a checkpoint: " + std::to_string(bytes.size()) +
           " bytes, header needs " + std::to_string(kHeaderSize) + "\n";
  }
  const std::uint64_t magic = load_u64(bytes.data());
  const std::uint32_t version = load_u32(bytes.data() + 8);
  const std::uint32_t kind = load_u32(bytes.data() + 12);
  std::snprintf(line, sizeof line,
                "magic %s, format v%u, kind %s, %zu bytes\n",
                magic == detail::kMagic ? "ok" : "BAD", version,
                blob_kind_name(static_cast<BlobKind>(kind)), bytes.size());
  out += line;
  if (magic != detail::kMagic) return out;
  std::size_t at = kHeaderSize;
  while (at < bytes.size()) {
    if (bytes.size() - at < kSectionHead) {
      out += "  TRUNCATED section header at offset " + std::to_string(at) +
             "\n";
      return out;
    }
    const std::uint32_t tag = load_u32(bytes.data() + at);
    const std::uint64_t len = load_u64(bytes.data() + at + 4);
    at += kSectionHead;
    if (len > bytes.size() - at ||
        bytes.size() - at - static_cast<std::size_t>(len) < kSectionFoot) {
      out += "  section '" + tag_name(tag) + "' RUNS PAST END (claims " +
             std::to_string(len) + " bytes)\n";
      return out;
    }
    const std::uint32_t want = load_u32(bytes.data() + at + len);
    const std::uint32_t got =
        crc32(bytes.data() + at, static_cast<std::size_t>(len));
    const std::string name = tag_name(tag);
    const char* note = tag_note(name);
    std::snprintf(line, sizeof line,
                  "  section %s: %10llu bytes, crc %s  (%s)\n", name.c_str(),
                  static_cast<unsigned long long>(len),
                  want == got ? "ok" : "MISMATCH",
                  note ? note : "UNKNOWN TAG");
    out += line;
    at += static_cast<std::size_t>(len) + kSectionFoot;
  }
  return out;
}

}  // namespace chs::persist
