#pragma once
// The zero-copy wire path: flat binary exertion codec, interned context
// paths, arena-backed intern storage and recycled payload buffers.
//
// Every S2S call crosses sorcer/invoke, which makes the exertion envelope
// the system-wide constant factor. The legacy envelope (kept below as the
// measured baseline) re-encodes every slash-separated path as a full string
// on every hop and rebuilds a node-per-entry map on every decode. The flat
// codec replaces that with small parallel records:
//
//   [varint name_len][name bytes]
//   [varint entry_count]
//   per entry, in sorted path order:
//     [varint key = id << 1 | definition]    — interned path id
//     [definition only: varint len, bytes]   — first use of a path on this
//                                              directed endpoint pair
//     [u8 meta = type_tag | direction << 4]
//     [value payload]                        — type-tagged column encoding:
//       double: 8 raw LE bytes     int64: zigzag varint   bool: 1 byte
//       string: varint len + bytes series: varint n + 8n raw bytes
//
// Path interning is per directed endpoint pair (PathInternTable): the
// encoder assigns dense ids and emits the literal inline exactly once; the
// decoder learns id → path from the stream, so no out-of-band negotiation is
// needed and a cold table degrades gracefully to literal strings. Decoding
// reloads the target ServiceContext in place (reload_begin/slot/end), so a
// steady-state request/response cycle reuses every buffer it touched on the
// previous call: encode buffers come from a BufferPool, path bytes live in
// the table's ContextArena, and entry storage stays inside the exertion's
// own context.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sorcer/context.h"
#include "util/ids.h"
#include "util/status.h"

namespace sensorcer::sorcer {

/// Serialized payload bytes. Pooled (BufferPool) on the wire path.
using WireBuffer = std::vector<std::uint8_t>;

/// Bump allocator for codec-adjacent variable-length storage (interned path
/// literals, decode scratch) plus a free list of ServiceContext shells whose
/// entry capacity survives reuse. Blocks are never freed individually: the
/// arena owns them until it is destroyed, so views handed out by store()
/// stay stable for the arena's lifetime. Each wire endpoint pair owns its
/// arena through its intern table — dropping the peer drops the storage
/// wholesale, which is the only deallocation the steady state ever does.
class ContextArena {
 public:
  explicit ContextArena(std::size_t block_bytes = 4096)
      : block_bytes_(block_bytes ? block_bytes : 64) {}

  /// Copy `s` into arena storage; the returned view is stable until the
  /// arena dies.
  std::string_view store(std::string_view s);

  /// Bump-allocate `n` bytes (8-byte aligned).
  char* alloc(std::size_t n);

  /// A recycled context shell: cleared, entry capacity retained.
  ServiceContext acquire();
  void release(ServiceContext&& ctx);

  [[nodiscard]] std::size_t bytes_allocated() const { return total_; }
  [[nodiscard]] std::size_t retained_contexts() const { return free_.size(); }

 private:
  std::size_t block_bytes_;
  std::size_t used_ = 0;    // bytes used in the current block
  std::size_t total_ = 0;   // bytes handed out over the arena's lifetime
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::vector<ServiceContext> free_;
};

/// Dense path-string interning for one *directed* endpoint pair. The same
/// object serves whichever role its side plays: id_for() on the encoder,
/// define()/lookup() on the decoder. Ids are assigned in first-use order on
/// the encoding side and learned from inline definitions on the decoding
/// side, so both tables agree by construction. Literal bytes live in the
/// table's arena; lookups return views into it.
class PathInternTable {
 public:
  /// Encoder side: the id for `path`. `fresh` is set when this is the first
  /// use — the caller must emit an inline definition record.
  std::uint32_t id_for(std::string_view path, bool& fresh);

  /// Decoder side: learn `id` → `path` (idempotent for replays).
  void define(std::uint32_t id, std::string_view path);

  /// Decoder side: the interned path, or empty view when unknown.
  [[nodiscard]] std::string_view lookup(std::uint32_t id) const;

  /// Loss recovery, encoder side: definitions ride only the first message
  /// that uses a path, so a dropped message strands the decoder behind this
  /// table forever. reset() forgets every assignment and advances the
  /// stream epoch — the next encode re-defines all paths inline and the
  /// decoder adopts the fresh stream by its higher epoch.
  void reset();
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  /// Decoder side: align with the epoch stamped on an incoming encoding.
  /// A newer epoch clears learned mappings (the encoder restarted the
  /// stream); an older one marks a stale in-flight message whose ids no
  /// longer mean anything.
  enum class Adopt { kCurrent, kAdopted, kStale };
  Adopt adopt_epoch(std::uint32_t epoch);

  [[nodiscard]] std::size_t size() const { return by_id_.size(); }
  [[nodiscard]] const ContextArena& arena() const { return arena_; }

 private:
  ContextArena arena_;
  std::unordered_map<std::string_view, std::uint32_t> ids_;
  std::vector<std::string_view> by_id_;
  std::uint32_t epoch_ = 0;
};

/// Which leg of a call an encoding rides. A request carries the whole
/// context and its decode reloads the provider's copy wholesale. A reply
/// carries outputs only — kIn entries stay with the requestor, which still
/// holds them — and its decode merges those outputs into the requestor's
/// context in place.
enum class Leg { kRequest, kReply };

/// Flat binary codec. encode appends to `out` (cleared first); decode
/// rebuilds (kRequest) or updates (kReply) `into` in place, reusing its
/// storage.
void encode_context(const ServiceContext& ctx, PathInternTable& interner,
                    WireBuffer& out, Leg leg = Leg::kRequest);
util::Status decode_context(const std::uint8_t* data, std::size_t size,
                            PathInternTable& interner, ServiceContext& into,
                            Leg leg = Leg::kRequest);

/// The legacy string envelope (charged with a 64-byte request envelope,
/// wire::kRequestEnvelopeBytes): full path strings on every entry, and a
/// decode that rebuilds a node-per-entry std::map exactly like the pre-flat
/// ServiceContext did. Kept as the equivalence baseline for tests and the
/// bench_exertion marshalling micro-table.
void encode_context_legacy(const ServiceContext& ctx, WireBuffer& out);
util::Status decode_context_legacy(const std::uint8_t* data, std::size_t size,
                                   ServiceContext& into);

/// Thread-safe recycling pool for wire payload buffers. Buffers circulate
/// by value: acquire() hands out a cleared buffer whose capacity survives
/// round trips, the buffer travels inside its message, and whoever decodes
/// it release()s it into *their own* endpoint's pool. A request buffer thus
/// comes back as the provider's response, and no buffer is ever tied to the
/// pool it came from. invoke.pool_acquires counts cold acquisitions (a
/// fresh buffer) and invoke.pool_reuse recycled ones.
class BufferPool {
 public:
  /// Buffers kept for reuse. Above any workload's peak of buffers in
  /// flight (a 21-CSP composite read keeps 106 requests outstanding), so a
  /// warm pool never drops a buffer it will need again.
  static constexpr std::size_t kMaxRetained = 256;

  WireBuffer acquire();
  /// Return `buf` for reuse; buffers without capacity are not worth keeping.
  void release(WireBuffer&& buf);

  [[nodiscard]] std::size_t retained() const;

 private:
  mutable std::mutex mu_;
  std::vector<WireBuffer> free_;
};

/// The per-endpoint codec state a wire peer (RemoteInvoker, ServiceProvider)
/// keeps: one intern table per directed pair (encode keyed by destination,
/// decode keyed by source) and the payload-buffer pool. Tables live as long
/// as the endpoint, which is what keeps interning warm across calls.
struct WireCodecState {
  BufferPool buffers;
  std::unordered_map<util::Uuid, PathInternTable> encode;
  std::unordered_map<util::Uuid, PathInternTable> decode;
};

/// Scoped timer around codec work at either end of a call: adds the real
/// nanoseconds spent to invoke.marshal_ns, a wall-clock counter — the codec
/// cost is genuine CPU work, not virtual time.
class MarshalTimer {
 public:
  MarshalTimer() = default;
  ~MarshalTimer();
  MarshalTimer(const MarshalTimer&) = delete;
  MarshalTimer& operator=(const MarshalTimer&) = delete;

 private:
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

}  // namespace sensorcer::sorcer
