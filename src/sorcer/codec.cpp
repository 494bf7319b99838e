#include "sorcer/codec.h"

#include <cstring>
#include <map>
#include <utility>

#include "obs/metrics.h"

namespace sensorcer::sorcer {

namespace {

struct CodecMetrics {
  obs::Counter& intern_hits;
  obs::Counter& intern_misses;
  obs::Counter& arena_bytes;
  obs::Counter& pool_acquires;
  obs::Counter& pool_reuse;
  obs::Counter& marshal_ns;
};

CodecMetrics& codec_metrics() {
  static CodecMetrics m{
      obs::metrics().counter("invoke.intern_hits"),
      obs::metrics().counter("invoke.intern_misses"),
      obs::metrics().counter("invoke.arena_bytes"),
      obs::metrics().counter("invoke.pool_acquires"),
      obs::metrics().counter("invoke.pool_reuse"),
      obs::metrics().counter("invoke.marshal_ns", obs::Clock::kWall)};
  return m;
}

// --- primitive writers/readers ----------------------------------------------

void put_varint(WireBuffer& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_bytes(WireBuffer& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

void put_double(WireBuffer& out, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  std::uint8_t raw[8];
  for (int i = 0; i < 8; ++i) raw[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  put_bytes(out, raw, 8);
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  [[nodiscard]] bool need(std::size_t n) const {
    return static_cast<std::size_t>(end - p) >= n;
  }

  bool varint(std::uint64_t& out) {
    out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == end) return false;
      const std::uint8_t b = *p++;
      out |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return true;
    }
    return false;
  }

  bool read_double(double& out) {
    if (!need(8)) return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    p += 8;
    std::memcpy(&out, &bits, sizeof out);
    return true;
  }

  bool view(std::size_t n, std::string_view& out) {
    if (!need(n)) return false;
    out = std::string_view(reinterpret_cast<const char*>(p), n);
    p += n;
    return true;
  }
};

util::Status truncated() {
  return {util::ErrorCode::kInvalidArgument, "truncated context encoding"};
}

// Type tags. Order matches the ContextValue variant alternatives.
enum : std::uint8_t {
  kTagNone = 0,
  kTagDouble = 1,
  kTagInt = 2,
  kTagBool = 3,
  kTagString = 4,
  kTagSeries = 5,
};

void encode_value(WireBuffer& out, const ContextValue& value) {
  struct Visitor {
    WireBuffer& out;
    void operator()(std::monostate) const {}
    void operator()(double d) const { put_double(out, d); }
    void operator()(std::int64_t i) const { put_varint(out, zigzag(i)); }
    void operator()(bool b) const { out.push_back(b ? 1 : 0); }
    void operator()(const std::string& s) const {
      put_varint(out, s.size());
      put_bytes(out, s.data(), s.size());
    }
    void operator()(const std::vector<double>& v) const {
      put_varint(out, v.size());
      for (double d : v) put_double(out, d);
    }
  };
  std::visit(Visitor{out}, value);
}

std::uint8_t tag_of(const ContextValue& value) {
  return static_cast<std::uint8_t>(value.index());
}

/// Decode one value of `tag` into `slot`, reusing the slot's existing
/// alternative (string / series capacity) when the type matches.
bool decode_value(Reader& r, std::uint8_t tag, ContextValue& slot) {
  switch (tag) {
    case kTagNone:
      slot = std::monostate{};
      return true;
    case kTagDouble: {
      double d = 0;
      if (!r.read_double(d)) return false;
      slot = d;
      return true;
    }
    case kTagInt: {
      std::uint64_t raw = 0;
      if (!r.varint(raw)) return false;
      slot = unzigzag(raw);
      return true;
    }
    case kTagBool: {
      if (!r.need(1)) return false;
      slot = (*r.p++ != 0);
      return true;
    }
    case kTagString: {
      std::uint64_t n = 0;
      std::string_view bytes;
      if (!r.varint(n) || !r.view(n, bytes)) return false;
      auto* s = std::get_if<std::string>(&slot);
      if (s == nullptr) {
        slot = std::string(bytes);
      } else {
        s->assign(bytes);  // reuse capacity
      }
      return true;
    }
    case kTagSeries: {
      std::uint64_t n = 0;
      if (!r.varint(n)) return false;
      if (!r.need(8 * n)) return false;
      auto* v = std::get_if<std::vector<double>>(&slot);
      if (v == nullptr) {
        slot = std::vector<double>{};
        v = std::get_if<std::vector<double>>(&slot);
      }
      v->clear();  // reuse capacity
      v->reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        double d = 0;
        (void)r.read_double(d);
        v->push_back(d);
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

// --- ContextArena ------------------------------------------------------------

char* ContextArena::alloc(std::size_t n) {
  n = (n + 7) & ~std::size_t{7};
  if (blocks_.empty() || used_ + n > block_bytes_) {
    // Oversized requests get a dedicated block; used_ lands past
    // block_bytes_ so the next alloc opens a fresh standard block.
    const std::size_t size = n > block_bytes_ ? n : block_bytes_;
    blocks_.push_back(std::make_unique<char[]>(size));
    used_ = 0;
  }
  char* out = blocks_.back().get() + used_;
  used_ += n;
  total_ += n;
  codec_metrics().arena_bytes.add(n);
  return out;
}

std::string_view ContextArena::store(std::string_view s) {
  if (s.empty()) return {};
  char* p = alloc(s.size());
  std::memcpy(p, s.data(), s.size());
  return {p, s.size()};
}

ServiceContext ContextArena::acquire() {
  if (free_.empty()) return ServiceContext{};
  ServiceContext ctx = std::move(free_.back());
  free_.pop_back();
  ctx.reload_begin("");
  ctx.reload_end();  // logical clear, capacity retained
  return ctx;
}

void ContextArena::release(ServiceContext&& ctx) {
  if (free_.size() >= 16) return;  // let it deallocate
  free_.push_back(std::move(ctx));
}

// --- PathInternTable ---------------------------------------------------------

std::uint32_t PathInternTable::id_for(std::string_view path, bool& fresh) {
  auto it = ids_.find(path);
  if (it != ids_.end()) {
    fresh = false;
    codec_metrics().intern_hits.add(1);
    return it->second;
  }
  fresh = true;
  codec_metrics().intern_misses.add(1);
  const std::string_view stored = arena_.store(path);
  const auto id = static_cast<std::uint32_t>(by_id_.size());
  by_id_.push_back(stored);
  ids_.emplace(stored, id);
  return id;
}

void PathInternTable::define(std::uint32_t id, std::string_view path) {
  if (id < by_id_.size()) return;  // replayed definition
  const std::string_view stored = arena_.store(path);
  by_id_.resize(id + 1);
  by_id_[id] = stored;
  ids_.emplace(stored, id);
}

std::string_view PathInternTable::lookup(std::uint32_t id) const {
  if (id >= by_id_.size()) return {};
  return by_id_[id];
}

void PathInternTable::reset() {
  // Arena storage stays put (outstanding views may still point into it);
  // only the assignments are forgotten, so the next encode starts a fresh
  // definition stream under a new epoch.
  ids_.clear();
  by_id_.clear();
  ++epoch_;
}

PathInternTable::Adopt PathInternTable::adopt_epoch(std::uint32_t epoch) {
  if (epoch == epoch_) return Adopt::kCurrent;
  if (epoch < epoch_) return Adopt::kStale;
  ids_.clear();
  by_id_.clear();
  epoch_ = epoch;
  return Adopt::kAdopted;
}

// --- flat codec --------------------------------------------------------------

void encode_context(const ServiceContext& ctx, PathInternTable& interner,
                    WireBuffer& out, Leg leg) {
  const auto carried = [leg](PathDirection d) {
    return leg == Leg::kRequest || d != PathDirection::kIn;
  };
  std::size_t count = 0;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (carried(ctx.entry_at(i).direction)) ++count;
  }
  out.clear();
  put_varint(out, interner.epoch());
  put_varint(out, ctx.name().size());
  put_bytes(out, ctx.name().data(), ctx.name().size());
  put_varint(out, count);
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const ServiceContext::EntryView e = ctx.entry_at(i);
    if (!carried(e.direction)) continue;
    bool fresh = false;
    const std::uint32_t id = interner.id_for(e.path, fresh);
    put_varint(out, (static_cast<std::uint64_t>(id) << 1) | (fresh ? 1 : 0));
    if (fresh) {
      put_varint(out, e.path.size());
      put_bytes(out, e.path.data(), e.path.size());
    }
    out.push_back(static_cast<std::uint8_t>(
        tag_of(e.value) | (static_cast<std::uint8_t>(e.direction) << 4)));
    encode_value(out, e.value);
  }
}

util::Status decode_context(const std::uint8_t* data, std::size_t size,
                            PathInternTable& interner, ServiceContext& into,
                            Leg leg) {
  Reader r{data, data + size};
  std::uint64_t epoch = 0;
  if (!r.varint(epoch)) return truncated();
  if (interner.adopt_epoch(static_cast<std::uint32_t>(epoch)) ==
      PathInternTable::Adopt::kStale) {
    return {util::ErrorCode::kCodecDesync,
            "stale intern epoch " + std::to_string(epoch)};
  }
  std::uint64_t name_len = 0;
  std::string_view name;
  if (!r.varint(name_len) || !r.view(name_len, name)) return truncated();
  std::uint64_t count = 0;
  if (!r.varint(count)) return truncated();

  const bool reload = leg == Leg::kRequest;
  if (reload) into.reload_begin(name);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t key = 0;
    if (!r.varint(key)) return truncated();
    const auto id = static_cast<std::uint32_t>(key >> 1);
    std::string_view path;
    if (key & 1) {
      std::uint64_t len = 0;
      if (!r.varint(len) || !r.view(len, path)) return truncated();
      interner.define(id, path);
    } else {
      // Bounds-check the id itself: the empty path is a legal intern entry,
      // so an empty lookup() result cannot signal "unknown".
      if (id >= interner.size()) {
        // The message that carried this id's definition was dropped by the
        // fabric; the caller resets the stream (see PathInternTable::reset).
        return {util::ErrorCode::kCodecDesync,
                "unknown interned path id " + std::to_string(id)};
      }
      path = interner.lookup(id);
    }
    if (!r.need(1)) return truncated();
    const std::uint8_t meta = *r.p++;
    const std::uint8_t tag = meta & 0x0f;
    const auto dir = static_cast<PathDirection>((meta >> 4) & 0x03);
    ContextValue& slot =
        reload ? into.reload_slot(path, dir) : into.merge_slot(path, dir);
    if (!decode_value(r, tag, slot)) return truncated();
  }
  if (reload) into.reload_end();
  return util::Status::ok();
}

// --- legacy codec ------------------------------------------------------------

void encode_context_legacy(const ServiceContext& ctx, WireBuffer& out) {
  out.clear();
  put_varint(out, ctx.name().size());
  put_bytes(out, ctx.name().data(), ctx.name().size());
  put_varint(out, ctx.size());
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const ServiceContext::EntryView e = ctx.entry_at(i);
    put_varint(out, e.path.size());
    put_bytes(out, e.path.data(), e.path.size());
    out.push_back(static_cast<std::uint8_t>(
        tag_of(e.value) | (static_cast<std::uint8_t>(e.direction) << 4)));
    encode_value(out, e.value);
  }
}

util::Status decode_context_legacy(const std::uint8_t* data, std::size_t size,
                                   ServiceContext& into) {
  Reader r{data, data + size};
  std::uint64_t name_len = 0;
  std::string_view name;
  if (!r.varint(name_len) || !r.view(name_len, name)) return truncated();
  std::uint64_t count = 0;
  if (!r.varint(count)) return truncated();

  // Reproduce the replaced design faithfully: a node-per-entry ordered map
  // built up per decode, then drained into the context. This is what every
  // wire hop paid before the flat codec.
  struct Slot {
    ContextValue value;
    PathDirection direction;
  };
  std::map<std::string, Slot> staged;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    std::string_view path;
    if (!r.varint(len) || !r.view(len, path)) return truncated();
    if (!r.need(1)) return truncated();
    const std::uint8_t meta = *r.p++;
    const std::uint8_t tag = meta & 0x0f;
    const auto dir = static_cast<PathDirection>((meta >> 4) & 0x03);
    Slot& slot = staged[std::string(path)];
    slot.direction = dir;
    if (!decode_value(r, tag, slot.value)) return truncated();
  }
  into.reload_begin(name);
  for (auto& [path, slot] : staged) {
    into.reload_slot(path, slot.direction) = std::move(slot.value);
  }
  into.reload_end();
  return util::Status::ok();
}

// --- BufferPool --------------------------------------------------------------

std::shared_ptr<BufferPool> BufferPool::make(std::size_t max_retained) {
  return std::shared_ptr<BufferPool>(new BufferPool(max_retained));
}

BufferPool::Handle BufferPool::acquire() {
  std::unique_ptr<WireBuffer> buf;
  {
    std::lock_guard lock(mu_);
    if (!free_.empty()) {
      buf = std::move(free_.back());
      free_.pop_back();
    }
  }
  codec_metrics().pool_acquires.add(1);
  if (buf) {
    codec_metrics().pool_reuse.add(1);
    buf->clear();
  } else {
    buf = std::make_unique<WireBuffer>();
  }
  std::weak_ptr<BufferPool> weak = weak_from_this();
  WireBuffer* raw = buf.release();
  return Handle(raw, [weak](WireBuffer* b) {
    std::unique_ptr<WireBuffer> owned(b);
    if (auto pool = weak.lock()) pool->give_back(std::move(owned));
  });
}

void BufferPool::give_back(std::unique_ptr<WireBuffer> buf) {
  std::lock_guard lock(mu_);
  if (free_.size() < max_retained_) free_.push_back(std::move(buf));
}

std::size_t BufferPool::retained() const {
  std::lock_guard lock(mu_);
  return free_.size();
}

MarshalTimer::~MarshalTimer() {
  codec_metrics().marshal_ns.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count()));
}

}  // namespace sensorcer::sorcer
