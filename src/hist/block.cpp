#include "hist/block.h"

#include <bit>
#include <cstring>
#include <limits>

namespace sensorcer::hist {
namespace {

// Serialized layout (little-endian, byte-addressed):
//
//   [0]  u8  magic 0x5B
//   [1]  u8  version (1)
//   [2]  u8  flags (bit0: quality section present)
//   [3]  u8  reserved
//   [4]  u32 count
//   [8]  u32 stream_bytes          (ts/value bitstream length)
//   [12] bitstream                 (delta-of-delta ts + XOR values)
//   [12 + stream_bytes] quality    (2 bits/reading, only if flags bit0)
//   tail: 64-byte footer           (see write_footer / read_footer)
//
// Bitstream grammar, per reading after the first (which is stored raw as
// 64-bit timestamp + 64-bit value bits):
//
//   timestamp: dod = (ts - prev_ts) - prev_delta
//     '0'                    dod == 0
//     '10'    + 7 bits       dod in [-63, 64]        (stored dod + 63)
//     '110'   + 9 bits       dod in [-255, 256]      (stored dod + 255)
//     '1110'  + 12 bits      dod in [-2047, 2048]    (stored dod + 2047)
//     '11110' + 32 bits      dod fits int32          (two's complement)
//     '11111' + 64 bits      anything                (two's complement)
//
//   value: x = bits(value) XOR bits(prev_value)
//     '0'                    x == 0
//     '10'    + prev window  meaningful bits of x fit the previous
//                            leading/length window (stored in that window)
//     '11'    + 6b leading + 6b (meaningful - 1) + meaningful bits of x
constexpr std::uint8_t kMagic = 0x5B;
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagQuality = 0x01;
constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kFooterBytes = 64;

void put_u32(std::vector<std::uint8_t>& out, std::size_t at,
             std::uint32_t v) {
  out[at] = static_cast<std::uint8_t>(v);
  out[at + 1] = static_cast<std::uint8_t>(v >> 8);
  out[at + 2] = static_cast<std::uint8_t>(v >> 16);
  out[at + 3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// MSB-first bit appender over a growing byte vector.
class BitWriter {
 public:
  /// Append the low `bits` bits of `v`, most-significant first.
  void put(std::uint64_t v, unsigned bits) {
    while (bits > 0) {
      unsigned take = 8 - fill_;
      if (take > bits) take = bits;
      std::uint64_t chunk =
          (v >> (bits - take)) & ((std::uint64_t{1} << take) - 1);
      cur_ = static_cast<std::uint8_t>((cur_ << take) | chunk);
      fill_ += take;
      bits -= take;
      if (fill_ == 8) {
        buf_.push_back(cur_);
        cur_ = 0;
        fill_ = 0;
      }
    }
  }

  /// Pad the final partial byte with zero bits and return the buffer.
  std::vector<std::uint8_t> take() {
    if (fill_ > 0) {
      buf_.push_back(static_cast<std::uint8_t>(cur_ << (8 - fill_)));
      cur_ = 0;
      fill_ = 0;
    }
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::uint8_t cur_ = 0;
  unsigned fill_ = 0;
};

/// Bounds-checked MSB-first bit reader over a byte span.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size, std::size_t bit_pos)
      : data_(data), bit_limit_(size * 8), bit_pos_(bit_pos) {}

  /// Read `bits` bits into `out`; false (without advancing past the end)
  /// when the stream is exhausted.
  bool get(unsigned bits, std::uint64_t& out) {
    if (bit_pos_ + bits > bit_limit_) return false;
    std::uint64_t v = 0;
    unsigned remaining = bits;
    while (remaining > 0) {
      std::size_t byte = bit_pos_ >> 3;
      unsigned offset = static_cast<unsigned>(bit_pos_ & 7);
      unsigned take = 8 - offset;
      if (take > remaining) take = remaining;
      unsigned shift = 8 - offset - take;
      std::uint64_t chunk =
          (static_cast<std::uint64_t>(data_[byte]) >> shift) &
          ((std::uint64_t{1} << take) - 1);
      v = (v << take) | chunk;
      bit_pos_ += take;
      remaining -= take;
    }
    out = v;
    return true;
  }

  [[nodiscard]] std::size_t bit_pos() const { return bit_pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t bit_limit_;
  std::size_t bit_pos_;
};

/// Sign-extend the low `bits` bits of `v`.
std::int64_t sign_extend(std::uint64_t v, unsigned bits) {
  if (bits >= 64) return static_cast<std::int64_t>(v);
  std::uint64_t sign = std::uint64_t{1} << (bits - 1);
  return static_cast<std::int64_t>((v ^ sign) - sign);
}

void encode_dod(BitWriter& w, std::int64_t dod) {
  if (dod == 0) {
    w.put(0, 1);
  } else if (dod >= -63 && dod <= 64) {
    w.put(0b10, 2);
    w.put(static_cast<std::uint64_t>(dod + 63), 7);
  } else if (dod >= -255 && dod <= 256) {
    w.put(0b110, 3);
    w.put(static_cast<std::uint64_t>(dod + 255), 9);
  } else if (dod >= -2047 && dod <= 2048) {
    w.put(0b1110, 4);
    w.put(static_cast<std::uint64_t>(dod + 2047), 12);
  } else if (dod >= std::numeric_limits<std::int32_t>::min() &&
             dod <= std::numeric_limits<std::int32_t>::max()) {
    w.put(0b11110, 5);
    w.put(static_cast<std::uint64_t>(static_cast<std::uint32_t>(
              static_cast<std::int32_t>(dod))),
          32);
  } else {
    w.put(0b11111, 5);
    w.put(static_cast<std::uint64_t>(dod), 64);
  }
}

}  // namespace

std::shared_ptr<const SealedBlock> SealedBlock::seal(
    const std::vector<sensor::Reading>& readings) {
  if (readings.empty() || readings.size() > std::numeric_limits<std::uint32_t>::max()) {
    return nullptr;
  }

  BitWriter stream;
  util::SimTime prev_ts = 0;
  util::SimDuration prev_delta = 0;
  std::uint64_t prev_bits = 0;
  unsigned prev_leading = 0;
  unsigned prev_meaningful = 0;
  bool window_valid = false;
  bool any_non_good = false;

  Footer footer;
  footer.first_ts = readings.front().timestamp;
  footer.last_ts = readings.back().timestamp;
  footer.count = static_cast<std::uint32_t>(readings.size());

  for (std::size_t i = 0; i < readings.size(); ++i) {
    const sensor::Reading& r = readings[i];
    const std::uint64_t vbits = double_bits(r.value);
    if (i == 0) {
      stream.put(static_cast<std::uint64_t>(r.timestamp), 64);
      stream.put(vbits, 64);
      prev_ts = r.timestamp;
      prev_delta = 0;
      prev_bits = vbits;
    } else {
      const util::SimDuration delta = r.timestamp - prev_ts;
      encode_dod(stream, delta - prev_delta);
      prev_delta = delta;
      prev_ts = r.timestamp;

      const std::uint64_t x = vbits ^ prev_bits;
      if (x == 0) {
        stream.put(0, 1);
      } else {
        unsigned leading = static_cast<unsigned>(std::countl_zero(x));
        unsigned trailing = static_cast<unsigned>(std::countr_zero(x));
        if (leading > 63) leading = 63;
        if (window_valid && leading >= prev_leading &&
            trailing >= (64 - prev_leading - prev_meaningful)) {
          // Fits the previous window: '10' + meaningful bits in that window.
          stream.put(0b10, 2);
          stream.put(x >> (64 - prev_leading - prev_meaningful),
                     prev_meaningful);
        } else {
          unsigned meaningful = 64 - leading - trailing;
          stream.put(0b11, 2);
          stream.put(leading, 6);
          stream.put(meaningful - 1, 6);
          stream.put(x >> trailing, meaningful);
          prev_leading = leading;
          prev_meaningful = meaningful;
          window_valid = true;
        }
      }
      prev_bits = vbits;
    }

    if (r.quality != sensor::Quality::kGood) any_non_good = true;
    if (r.quality != sensor::Quality::kBad) {
      if (footer.good_count == 0 || r.value < footer.min) footer.min = r.value;
      if (footer.good_count == 0 || r.value > footer.max) footer.max = r.value;
      footer.sum += r.value;
      footer.last = r.value;
      footer.last_good_ts = r.timestamp;
      ++footer.good_count;
    }
  }

  std::vector<std::uint8_t> stream_bytes = stream.take();

  auto block = std::shared_ptr<SealedBlock>(new SealedBlock());
  std::vector<std::uint8_t>& out = block->bytes_;
  std::size_t quality_bytes = any_non_good ? (readings.size() + 3) / 4 : 0;
  out.reserve(kHeaderBytes + stream_bytes.size() + quality_bytes +
              kFooterBytes);
  out.resize(kHeaderBytes, 0);
  out[0] = kMagic;
  out[1] = kVersion;
  out[2] = any_non_good ? kFlagQuality : 0;
  put_u32(out, 4, footer.count);
  put_u32(out, 8, static_cast<std::uint32_t>(stream_bytes.size()));
  out.insert(out.end(), stream_bytes.begin(), stream_bytes.end());

  if (any_non_good) {
    BitWriter qw;
    for (const sensor::Reading& r : readings) {
      qw.put(static_cast<std::uint64_t>(r.quality) & 0x3, 2);
    }
    std::vector<std::uint8_t> qbytes = qw.take();
    out.insert(out.end(), qbytes.begin(), qbytes.end());
  }

  // 64-byte footer.
  put_u64(out, static_cast<std::uint64_t>(footer.first_ts));
  put_u64(out, static_cast<std::uint64_t>(footer.last_ts));
  std::size_t counts_at = out.size();
  out.resize(out.size() + 8, 0);
  put_u32(out, counts_at, footer.count);
  put_u32(out, counts_at + 4, footer.good_count);
  put_u64(out, double_bits(footer.min));
  put_u64(out, double_bits(footer.max));
  put_u64(out, double_bits(footer.sum));
  put_u64(out, double_bits(footer.last));
  put_u64(out, static_cast<std::uint64_t>(footer.last_good_ts));

  block->footer_ = footer;
  block->stream_bytes_ = stream_bytes.size();
  block->quality_offset_ = any_non_good ? kHeaderBytes + stream_bytes.size() : 0;
  return block;
}

util::Result<std::shared_ptr<const SealedBlock>> SealedBlock::open(
    std::vector<std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    return {util::ErrorCode::kInvalidArgument, "sealed block truncated"};
  }
  if (bytes[0] != kMagic) {
    return {util::ErrorCode::kInvalidArgument, "sealed block bad magic"};
  }
  if (bytes[1] != kVersion) {
    return {util::ErrorCode::kInvalidArgument, "sealed block bad version"};
  }
  const std::uint8_t flags = bytes[2];
  if ((flags & ~kFlagQuality) != 0) {
    return {util::ErrorCode::kInvalidArgument, "sealed block bad flags"};
  }
  const std::uint32_t count = get_u32(bytes.data() + 4);
  const std::uint32_t stream_bytes = get_u32(bytes.data() + 8);
  if (count == 0) {
    return {util::ErrorCode::kInvalidArgument, "sealed block empty"};
  }
  const std::size_t quality_bytes =
      (flags & kFlagQuality) != 0 ? (static_cast<std::size_t>(count) + 3) / 4
                                  : 0;
  const std::size_t expected = kHeaderBytes +
                               static_cast<std::size_t>(stream_bytes) +
                               quality_bytes + kFooterBytes;
  if (bytes.size() != expected) {
    return {util::ErrorCode::kInvalidArgument, "sealed block size mismatch"};
  }

  auto block = std::shared_ptr<SealedBlock>(new SealedBlock());
  const std::uint8_t* footer =
      bytes.data() + bytes.size() - kFooterBytes;
  Footer& f = block->footer_;
  f.first_ts = static_cast<util::SimTime>(get_u64(footer));
  f.last_ts = static_cast<util::SimTime>(get_u64(footer + 8));
  f.count = get_u32(footer + 16);
  f.good_count = get_u32(footer + 20);
  f.min = bits_double(get_u64(footer + 24));
  f.max = bits_double(get_u64(footer + 32));
  f.sum = bits_double(get_u64(footer + 40));
  f.last = bits_double(get_u64(footer + 48));
  f.last_good_ts = static_cast<util::SimTime>(get_u64(footer + 56));
  if (f.count != count || f.good_count > f.count ||
      f.last_ts < f.first_ts) {
    return {util::ErrorCode::kInvalidArgument, "sealed block bad footer"};
  }
  block->stream_bytes_ = stream_bytes;
  block->quality_offset_ =
      (flags & kFlagQuality) != 0 ? kHeaderBytes + stream_bytes : 0;
  block->bytes_ = std::move(bytes);
  return {std::shared_ptr<const SealedBlock>(std::move(block))};
}

void SealedBlock::add_footer_stats(AggregateStats& agg) const {
  if (footer_.good_count == 0) return;
  if (agg.count == 0 || footer_.min < agg.min) agg.min = footer_.min;
  if (agg.count == 0 || footer_.max > agg.max) agg.max = footer_.max;
  agg.sum += footer_.sum;
  agg.count += footer_.good_count;
  if (footer_.last_good_ts >= agg.last_ts) {
    agg.last = footer_.last;
    agg.last_ts = footer_.last_good_ts;
  }
}

SealedBlock::Cursor::Cursor(const SealedBlock& block) : block_(block) {}

bool SealedBlock::Cursor::next(sensor::Reading& out) {
  if (truncated_ || index_ >= block_.footer_.count) return false;

  BitReader stream(block_.bytes_.data() + kHeaderBytes, block_.stream_bytes_,
                   bit_pos_);
  std::uint64_t bits = 0;

  if (index_ == 0) {
    std::uint64_t raw_ts = 0;
    if (!stream.get(64, raw_ts) || !stream.get(64, bits)) {
      truncated_ = true;
      return false;
    }
    prev_ts_ = static_cast<util::SimTime>(raw_ts);
    prev_delta_ = 0;
    prev_value_bits_ = bits;
  } else {
    // Timestamp: prefix-coded delta-of-delta class.
    std::int64_t dod = 0;
    std::uint64_t b = 0;
    if (!stream.get(1, b)) {
      truncated_ = true;
      return false;
    }
    if (b == 1) {
      unsigned klass = 1;
      while (klass < 5) {
        if (!stream.get(1, b)) {
          truncated_ = true;
          return false;
        }
        if (b == 0) break;
        ++klass;
      }
      bool ok = true;
      switch (klass) {
        case 1:
          ok = stream.get(7, bits);
          dod = static_cast<std::int64_t>(bits) - 63;
          break;
        case 2:
          ok = stream.get(9, bits);
          dod = static_cast<std::int64_t>(bits) - 255;
          break;
        case 3:
          ok = stream.get(12, bits);
          dod = static_cast<std::int64_t>(bits) - 2047;
          break;
        case 4:
          ok = stream.get(32, bits);
          dod = sign_extend(bits, 32);
          break;
        default:
          ok = stream.get(64, bits);
          dod = static_cast<std::int64_t>(bits);
          break;
      }
      if (!ok) {
        truncated_ = true;
        return false;
      }
    }
    // Corrupted input can decode to any delta-of-delta: accumulate modulo
    // 2^64, since signed overflow is undefined.
    prev_delta_ = static_cast<util::SimDuration>(
        static_cast<std::uint64_t>(prev_delta_) +
        static_cast<std::uint64_t>(dod));
    prev_ts_ = static_cast<util::SimTime>(
        static_cast<std::uint64_t>(prev_ts_) +
        static_cast<std::uint64_t>(prev_delta_));

    // Value: XOR against the previous value's bits.
    if (!stream.get(1, b)) {
      truncated_ = true;
      return false;
    }
    if (b == 1) {
      if (!stream.get(1, b)) {
        truncated_ = true;
        return false;
      }
      std::uint64_t x = 0;
      if (b == 0) {
        // Previous window.
        if (!window_valid_ || prev_meaningful_ == 0 ||
            !stream.get(prev_meaningful_, bits)) {
          truncated_ = true;
          return false;
        }
        x = bits << (64 - prev_leading_ - prev_meaningful_);
      } else {
        std::uint64_t leading = 0;
        std::uint64_t mlen = 0;
        if (!stream.get(6, leading) || !stream.get(6, mlen)) {
          truncated_ = true;
          return false;
        }
        unsigned meaningful = static_cast<unsigned>(mlen) + 1;
        if (leading + meaningful > 64 || !stream.get(meaningful, bits)) {
          truncated_ = true;
          return false;
        }
        prev_leading_ = static_cast<unsigned>(leading);
        prev_meaningful_ = meaningful;
        window_valid_ = true;
        x = bits << (64 - prev_leading_ - prev_meaningful_);
      }
      prev_value_bits_ ^= x;
    }
  }

  out.timestamp = prev_ts_;
  out.value = bits_double(prev_value_bits_);
  out.sequence = 0;
  out.quality = sensor::Quality::kGood;
  if (block_.quality_offset_ != 0) {
    const std::size_t byte = block_.quality_offset_ + index_ / 4;
    if (byte >= block_.bytes_.size() - kFooterBytes) {
      truncated_ = true;
      return false;
    }
    const unsigned shift = 6 - 2 * (index_ % 4);
    const unsigned q = (block_.bytes_[byte] >> shift) & 0x3;
    // Two-bit values cover the Quality enum exactly (kGood/kSuspect/kBad);
    // an out-of-range pattern from corruption degrades to kBad.
    out.quality = q <= 2 ? static_cast<sensor::Quality>(q)
                         : sensor::Quality::kBad;
  }

  bit_pos_ = stream.bit_pos();
  ++index_;
  return true;
}

std::shared_ptr<const TierBlock> TierBlock::from_sealed(
    const SealedBlock& block, util::SimDuration resolution) {
  auto tier = std::make_shared<TierBlock>();
  tier->resolution = resolution;
  tier->first_ts = block.first_ts();
  tier->last_ts = block.last_ts();
  SealedBlock::Cursor cursor = block.open_cursor();
  sensor::Reading r;
  while (cursor.next(r)) {
    if (r.quality == sensor::Quality::kBad) {
      ++tier->bad_dropped;
      continue;
    }
    const util::SimTime start = (r.timestamp / resolution) * resolution;
    if (tier->buckets.empty() || tier->buckets.back().start != start) {
      RollupBucket bucket;
      bucket.start = start;
      tier->buckets.push_back(bucket);
    }
    tier->buckets.back().add(r.timestamp, r.value);
    ++tier->readings;
  }
  return tier;
}

std::shared_ptr<const TierBlock> TierBlock::rebucket(
    const TierBlock& block, util::SimDuration resolution) {
  auto tier = std::make_shared<TierBlock>();
  tier->resolution = resolution;
  tier->first_ts = block.first_ts;
  tier->last_ts = block.last_ts;
  tier->readings = block.readings;
  tier->bad_dropped = block.bad_dropped;
  for (const RollupBucket& bucket : block.buckets) {
    const util::SimTime start = (bucket.start / resolution) * resolution;
    if (tier->buckets.empty() || tier->buckets.back().start != start) {
      RollupBucket merged;
      merged.start = start;
      tier->buckets.push_back(merged);
    }
    tier->buckets.back().merge(bucket);
  }
  return tier;
}

}  // namespace sensorcer::hist
