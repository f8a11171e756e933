#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace ctrtl::serve {

/// One persisted design-cache entry: the *sources* (post-validation design
/// text plus optional fault plan) rather than the lowered artifact. Reload
/// re-runs the standard parse → fault → hash → lower pipeline, so a
/// snapshot can never resurrect an artifact the current binary would not
/// have produced itself — the journaled key only cross-checks the result.
struct SnapshotRecord {
  std::uint64_t key = 0;  ///< canonical_stream_hash of the faulted pair
  std::string design_text;
  bool has_fault_plan = false;
  std::string fault_plan_text;

  friend bool operator==(const SnapshotRecord&, const SnapshotRecord&) = default;
};

/// Renders one record in the append-only snapshot format:
///
///   SNAP1 <key-hex16> <flags> <design-len> <fault-len> <checksum-hex16>\n
///   <design bytes>\n
///   <fault bytes>\n
///
/// `flags` bit 0 marks a present fault plan (fault-len must be 0 when
/// clear). `checksum` is a `transfer::StreamHasher` digest over (key,
/// flags, design, fault), so a flipped byte anywhere in the record —
/// header or body — fails verification. Records are self-delimiting and
/// independently checksummed: a reader can always skip a corrupt record
/// and resynchronize on the next `SNAP1` header.
[[nodiscard]] std::string encode_snapshot_record(const SnapshotRecord& record);

/// Outcome of scanning a snapshot stream: every record that survived
/// checksum + structure verification, plus how many corrupt, torn, or
/// unparseable regions were skipped to get there.
struct SnapshotParseResult {
  std::vector<SnapshotRecord> records;
  std::uint64_t skipped = 0;
};

/// Scans a whole snapshot image, salvaging every intact record. Corruption
/// never aborts the scan:
///
///   - a malformed header resynchronizes at the next "\nSNAP1 " boundary
///     (one skip counted per contiguous garbage region);
///   - a record whose checksum mismatches but whose framing is intact is
///     skipped exactly (the reader steps over its declared extent);
///   - a torn tail — the partial record a crash mid-append leaves behind —
///     is counted and ends the scan.
///
/// An empty image is zero records, zero skips.
[[nodiscard]] SnapshotParseResult parse_snapshot(std::string_view data);

/// Reads and scans a snapshot file. A missing file is a clean empty result
/// (first boot); an unreadable file returns false with `error` set.
bool load_snapshot_file(const std::string& path, SnapshotParseResult* out,
                        std::string* error);

/// Crash-safe append-only journal of cache entries. Each `append` writes
/// one complete encoded record to a stream opened on first use and kept
/// open, and flushes before returning, so a process killed at any instant
/// loses at most the record being written — and the per-record checksum
/// turns that torn tail into a skip, never a bad load. Keys already
/// journaled (or reported via `note_existing` after a reload) are
/// deduplicated until `forget` drops them; the service forgets a key when
/// its cache evicts it, so the dedup set never outgrows the cache.
class SnapshotJournal {
 public:
  explicit SnapshotJournal(std::string path) : path_(std::move(path)) {}

  /// Appends the record unless its key is already journaled. Returns false
  /// only on an I/O failure (the key is NOT marked journaled, so a later
  /// append retries).
  bool append(const SnapshotRecord& record);

  /// Marks a key as already present (loaded from an existing snapshot) so
  /// `append` will not duplicate it.
  void note_existing(std::uint64_t key);

  /// Drops a key from the dedup set: its next `append` writes a fresh
  /// record at the tail of the file.
  void forget(std::uint64_t key);

  /// Keys currently deduplicated.
  [[nodiscard]] std::size_t journaled_keys() const;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::unordered_set<std::uint64_t> journaled_;
};

}  // namespace ctrtl::serve
