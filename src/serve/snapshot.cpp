#include "serve/snapshot.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "transfer/hash.h"

namespace ctrtl::serve {

namespace {

constexpr std::string_view kRecordMagic = "SNAP1";
/// A record can only start at offset 0 or right after a newline; these are
/// the two spellings of that boundary.
constexpr std::string_view kRecordStart = "SNAP1 ";
constexpr std::string_view kResyncNeedle = "\nSNAP1 ";

std::uint64_t record_checksum(std::uint64_t key, std::uint8_t flags,
                              std::string_view design,
                              std::string_view fault) {
  transfer::StreamHasher hasher;
  hasher.update(key);
  hasher.update(flags);
  hasher.update(design);
  hasher.update(fault);
  return hasher.digest();
}

bool parse_hex64(std::string_view text, std::uint64_t* value) {
  if (text.size() != 16) {
    return false;
  }
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *value, 16);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool parse_dec64(std::string_view text, std::uint64_t* value) {
  if (text.empty()) {
    return false;
  }
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *value);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// Takes the next space-delimited token off `rest`.
std::string_view next_token(std::string_view* rest) {
  const std::size_t space = rest->find(' ');
  std::string_view token;
  if (space == std::string_view::npos) {
    token = *rest;
    *rest = {};
  } else {
    token = rest->substr(0, space);
    rest->remove_prefix(space + 1);
  }
  return token;
}

/// Parsed header fields; filled by try_parse_header.
struct Header {
  std::uint64_t key = 0;
  std::uint64_t flags = 0;
  std::uint64_t design_len = 0;
  std::uint64_t fault_len = 0;
  std::uint64_t checksum = 0;
};

bool try_parse_header(std::string_view line, Header* header) {
  std::string_view rest = line;
  if (next_token(&rest) != kRecordMagic) {
    return false;
  }
  if (!parse_hex64(next_token(&rest), &header->key)) {
    return false;
  }
  if (!parse_dec64(next_token(&rest), &header->flags) || header->flags > 1) {
    return false;
  }
  if (!parse_dec64(next_token(&rest), &header->design_len)) {
    return false;
  }
  if (!parse_dec64(next_token(&rest), &header->fault_len)) {
    return false;
  }
  if (!parse_hex64(next_token(&rest), &header->checksum) || !rest.empty()) {
    return false;
  }
  // A fault blob without the fault flag (or vice versa) is structural
  // corruption, not a shorter record.
  if (header->flags == 0 && header->fault_len != 0) {
    return false;
  }
  return true;
}

}  // namespace

std::string encode_snapshot_record(const SnapshotRecord& record) {
  const std::uint8_t flags = record.has_fault_plan ? 1 : 0;
  const std::string_view fault =
      record.has_fault_plan ? std::string_view(record.fault_plan_text)
                            : std::string_view();
  std::ostringstream out;
  out << kRecordMagic << ' ' << transfer::to_hex(record.key) << ' '
      << static_cast<unsigned>(flags) << ' ' << record.design_text.size()
      << ' ' << fault.size() << ' '
      << transfer::to_hex(
             record_checksum(record.key, flags, record.design_text, fault))
      << '\n'
      << record.design_text << '\n'
      << fault << '\n';
  return out.str();
}

SnapshotParseResult parse_snapshot(std::string_view data) {
  SnapshotParseResult result;
  std::size_t pos = 0;
  while (pos < data.size()) {
    // Resynchronize: records start at offset 0 or right after a newline.
    if (data.substr(pos, kRecordStart.size()) != kRecordStart) {
      ++result.skipped;
      const std::size_t next = data.find(kResyncNeedle, pos);
      if (next == std::string_view::npos) {
        return result;
      }
      pos = next + 1;
    }
    const std::size_t header_end = data.find('\n', pos);
    if (header_end == std::string_view::npos) {
      // Torn header: the crash happened before the header newline landed.
      ++result.skipped;
      return result;
    }
    Header header;
    if (!try_parse_header(data.substr(pos, header_end - pos), &header)) {
      // Corrupt header. Count it and hunt for the next record boundary.
      ++result.skipped;
      const std::size_t next = data.find(kResyncNeedle, header_end);
      if (next == std::string_view::npos) {
        return result;
      }
      pos = next + 1;
      continue;
    }
    const std::size_t body = header_end + 1;
    const std::uint64_t body_len = header.design_len + 1 + header.fault_len + 1;
    if (data.size() - body < body_len) {
      // Torn body: the declared extent runs past the file — a mid-append
      // crash. Nothing after it can be another record.
      ++result.skipped;
      return result;
    }
    const std::string_view design = data.substr(body, header.design_len);
    const std::string_view fault =
        data.substr(body + header.design_len + 1, header.fault_len);
    const bool separators_ok =
        data[body + header.design_len] == '\n' &&
        data[body + header.design_len + 1 + header.fault_len] == '\n';
    if (!separators_ok) {
      // The lengths point at bytes that are not separators — the header
      // lied. Treat as garbage and resynchronize.
      ++result.skipped;
      const std::size_t next = data.find(kResyncNeedle, header_end);
      if (next == std::string_view::npos) {
        return result;
      }
      pos = next + 1;
      continue;
    }
    pos = body + body_len;
    const std::uint8_t flags = static_cast<std::uint8_t>(header.flags);
    if (record_checksum(header.key, flags, design, fault) != header.checksum) {
      // Framing intact, content flipped: skip exactly this record.
      ++result.skipped;
      continue;
    }
    SnapshotRecord record;
    record.key = header.key;
    record.design_text = std::string(design);
    record.has_fault_plan = flags != 0;
    record.fault_plan_text = std::string(fault);
    result.records.push_back(std::move(record));
  }
  return result;
}

bool load_snapshot_file(const std::string& path, SnapshotParseResult* out,
                        std::string* error) {
  *out = SnapshotParseResult{};
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    // First boot: no snapshot yet is the normal empty case. Only report a
    // failure if something exists at the path but cannot be read.
    std::ifstream probe(path);
    if (!probe.good()) {
      return true;
    }
    if (error != nullptr) {
      *error = "cannot open snapshot file '" + path + "'";
    }
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    if (error != nullptr) {
      *error = "read error on snapshot file '" + path + "'";
    }
    return false;
  }
  *out = parse_snapshot(buffer.str());
  return true;
}

bool SnapshotJournal::append(const SnapshotRecord& record) {
  const std::scoped_lock lock(mutex_);
  if (journaled_.contains(record.key)) {
    return true;
  }
  if (!out_.is_open()) {
    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_.is_open()) {
      out_.clear();
      return false;
    }
  }
  const std::string encoded = encode_snapshot_record(record);
  out_.write(encoded.data(),
             static_cast<std::streamsize>(encoded.size()));
  out_.flush();
  if (!out_.good()) {
    // Reopen on the next append rather than write into a failed stream.
    out_.close();
    out_.clear();
    return false;
  }
  journaled_.insert(record.key);
  return true;
}

void SnapshotJournal::note_existing(std::uint64_t key) {
  const std::scoped_lock lock(mutex_);
  journaled_.insert(key);
}

void SnapshotJournal::forget(std::uint64_t key) {
  const std::scoped_lock lock(mutex_);
  journaled_.erase(key);
}

std::size_t SnapshotJournal::journaled_keys() const {
  const std::scoped_lock lock(mutex_);
  return journaled_.size();
}

}  // namespace ctrtl::serve
