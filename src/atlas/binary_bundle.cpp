#include "atlas/binary_bundle.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>

#include "netcore/bytesource.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/trace.hpp"
#include "netcore/varint.hpp"
#include "sim/faults.hpp"

DYNADDR_LOG_MODULE(binary_bundle);

namespace dynaddr::atlas {

namespace {

using net::ByteCursor;
using net::put_varint;
using net::put_varint_signed;

enum class DatasetKind : std::uint8_t {
    ConnectionLog = 1,
    KRoot = 2,
    Uptime = 3,
    Probes = 4,
};

constexpr char kHeaderMagic[4] = {'D', 'A', 'B', '2'};
constexpr char kTailMagic[4] = {'D', 'A', 'B', 'E'};
constexpr std::uint8_t kFormatVersion = 1;
constexpr std::size_t kHeaderSize = 6;
constexpr std::size_t kTailSize = 12;  // u64 footer offset + magic

const char* dataset_file(DatasetKind kind) {
    switch (kind) {
        case DatasetKind::ConnectionLog: return "connection_log.dab";
        case DatasetKind::KRoot: return "kroot.dab";
        case DatasetKind::Uptime: return "uptime.dab";
        case DatasetKind::Probes: return "probes.dab";
    }
    return "unknown.dab";
}

const char* dataset_name(DatasetKind kind) {
    switch (kind) {
        case DatasetKind::ConnectionLog: return "connection_log";
        case DatasetKind::KRoot: return "kroot";
        case DatasetKind::Uptime: return "uptime";
        case DatasetKind::Probes: return "probes";
    }
    return "unknown";
}

// -- encoding ----------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Deterministic address dictionary: indexes assigned in first-appearance
/// order, so an encode of the same record sequence is byte-stable. The
/// lookup is a flat open-addressing table keyed by (family, hi, lo) with
/// linear probing; addresses are never removed, so there are no
/// tombstones and growth is a plain rehash at 3/4 load.
class AddressDict {
public:
    AddressDict() : slots_(kInitialSlots) {}

    std::uint64_t index_of(const PeerAddress& address) {
        const Key key = key_of(address);
        Slot& slot = find(key);
        if (slot.key.family != 0) return slot.index;
        slot = Slot{key, entries_.size()};
        entries_.push_back(address);
        if (entries_.size() * 4 > slots_.size() * 3) grow();
        return entries_.size() - 1;
    }

    /// Heap held by the table and the entry list, for memory accounting.
    [[nodiscard]] std::size_t memory_bytes() const {
        return slots_.capacity() * sizeof(Slot) +
               entries_.capacity() * sizeof(PeerAddress);
    }

    void encode(std::string& out) const {
        put_varint(out, entries_.size());
        for (const auto& address : entries_) {
            if (address.is_v4()) {
                out.push_back(char(4));
                const std::uint32_t value = address.v4.value();
                for (int shift = 24; shift >= 0; shift -= 8)
                    out.push_back(char((value >> shift) & 0xFF));
            } else {
                out.push_back(char(16));
                for (const std::uint64_t half :
                     {address.v6.hi(), address.v6.lo()})
                    for (int shift = 56; shift >= 0; shift -= 8)
                        out.push_back(char((half >> shift) & 0xFF));
            }
        }
    }

private:
    static constexpr std::size_t kInitialSlots = 64;  // power of two

    /// The family keeps an IPv4 address apart from the IPv6 address with
    /// the same low 32 bits.
    struct Key {
        std::uint64_t hi = 0;
        std::uint64_t lo = 0;
        std::uint8_t family = 0;  ///< 4 or 16; 0 marks an empty slot
        bool operator==(const Key&) const = default;
    };
    struct Slot {
        Key key;
        std::uint64_t index = 0;
    };

    static Key key_of(const PeerAddress& a) {
        return a.is_v4() ? Key{0, a.v4.value(), 4}
                         : Key{a.v6.hi(), a.v6.lo(), 16};
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    Slot& find(const Key& key) {
        const std::size_t mask = slots_.size() - 1;
        const std::uint64_t hash =
            splitmix64(key.hi ^ splitmix64(key.lo + key.family));
        for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
            Slot& slot = slots_[i];
            if (slot.key.family == 0 || slot.key == key) return slot;
        }
    }

    void grow() {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        for (const Slot& slot : old)
            if (slot.key.family != 0) find(slot.key) = slot;
    }

    std::vector<Slot> slots_;
    std::vector<PeerAddress> entries_;
};

std::vector<PeerAddress> decode_dict(ByteCursor& cursor) {
    const std::size_t count = cursor.length(cursor.remaining());
    std::vector<PeerAddress> dict;
    dict.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint8_t family = cursor.u8();
        if (family == 4) {
            const std::string_view raw = cursor.bytes(4);
            std::uint32_t value = 0;
            for (const char byte : raw)
                value = (value << 8) | std::uint8_t(byte);
            dict.push_back(PeerAddress::ipv4(net::IPv4Address{value}));
        } else if (family == 16) {
            const std::string_view raw = cursor.bytes(16);
            std::uint64_t hi = 0, lo = 0;
            for (int i8 = 0; i8 < 8; ++i8) hi = (hi << 8) | std::uint8_t(raw[i8]);
            for (int i8 = 8; i8 < 16; ++i8) lo = (lo << 8) | std::uint8_t(raw[i8]);
            dict.push_back(PeerAddress::ipv6(net::IPv6Address{hi, lo}));
        } else {
            throw ParseError("binary bundle: bad address family " +
                             std::to_string(int(family)) + " in dictionary");
        }
    }
    return dict;
}

/// Appends at most `max_bytes` to `out` through a raw pointer: the string
/// is sized for the worst case once, `write` fills it and returns the end
/// of what it wrote, and the string is trimmed back to that.
template <typename Write>
void append_bounded(std::string& out, std::size_t max_bytes, Write&& write) {
    const std::size_t size = out.size();
    out.resize(size + max_bytes);
    char* const end = write(out.data() + size);
    out.resize(std::size_t(end - out.data()));
}

/// Shared streaming encoder state for one dataset file: block buffering,
/// block index, footer/tail emission. The typed wrappers below own the
/// record buffer and the columnar payload layout.
///
/// The live writer opens the stream's file up front and appends the
/// buffered bytes to it whenever they pass kSpillBytes, so it holds at most
/// about that much of the file, plus the encoded block index, in memory.
/// The in-memory codecs leave the file closed and get the whole file back
/// in `body`.
struct BlockStream {
    static constexpr std::size_t kSpillBytes = std::size_t(256) << 10;

    DatasetKind kind;
    std::string body;               ///< file bytes not yet written out
    std::uint64_t body_offset = 0;  ///< file offset of body[0]
    std::string index;              ///< the footer's block index, encoded
    std::uint64_t blocks = 0;
    std::uint64_t last_block_offset = 0;
    std::ofstream file;
    std::filesystem::path path;

    explicit BlockStream(DatasetKind kind_) : kind(kind_) {
        body.append(kHeaderMagic, sizeof kHeaderMagic);
        body.push_back(char(std::uint8_t(kind)));
        body.push_back(char(kFormatVersion));
    }

    /// Makes this a live stream writing to `path_`.
    void open(const std::filesystem::path& path_) {
        path = path_;
        file.open(path, std::ios::binary | std::ios::trunc);
        if (!file)
            throw Error("cannot open " + path.string() +
                        " for writing (dataset " + dataset_name(kind) + ")");
    }

    void add_block(ProbeId probe, std::uint64_t count,
                   std::string_view payload) {
        const std::uint64_t offset = body_offset + body.size();
        char header[2 * net::kMaxVarintBytes];
        char* const header_end = put_varint(put_varint(header, probe), count);
        body.append(header, std::size_t(header_end - header));
        body.append(payload);
        append_bounded(index, 3 * net::kMaxVarintBytes, [&](char* out) {
            out = put_varint(out, probe);
            out = put_varint(out, offset - last_block_offset);
            return put_varint(out, count);
        });
        last_block_offset = offset;
        ++blocks;
        if (file.is_open() && body.size() >= kSpillBytes) spill();
    }

    /// Appends footer + tail; the stream is complete afterwards. A live
    /// stream writes out the rest of its file and closes it.
    void finish(const AddressDict* dict) {
        const std::uint64_t footer_offset = body_offset + body.size();
        if (dict != nullptr) {
            dict->encode(body);
        } else {
            put_varint(body, 0);  // empty dictionary
        }
        put_varint(body, blocks);
        body.append(index);
        for (int shift = 0; shift < 64; shift += 8)
            body.push_back(char((footer_offset >> shift) & 0xFF));
        body.append(kTailMagic, sizeof kTailMagic);
        if (!file.is_open()) return;
        spill();
        file.close();
        if (!file) throw write_failed();
    }

private:
    void spill() {
        file.write(body.data(), std::streamsize(body.size()));
        if (!file) throw write_failed();
        body_offset += body.size();
        body.clear();
    }

    [[nodiscard]] Error write_failed() const {
        return Error("write failed on " + path.string() + " (dataset " +
                     dataset_name(kind) + ")");
    }
};

struct ConnectionEncoder {
    static constexpr DatasetKind kind = DatasetKind::ConnectionLog;
    AddressDict dict;
    static ProbeId probe_of(const ConnectionLogEntry& e) { return e.probe; }
    void payload(std::string& out, std::span<const ConnectionLogEntry> block) {
        append_bounded(out, block.size() * 3 * net::kMaxVarintBytes, [&](char* p) {
            std::int64_t previous = 0;
            for (const auto& e : block) {
                p = put_varint_signed(p, e.start.unix_seconds() - previous);
                previous = e.start.unix_seconds();
            }
            for (const auto& e : block)
                p = put_varint_signed(
                    p, e.end.unix_seconds() - e.start.unix_seconds());
            for (const auto& e : block) p = put_varint(p, dict.index_of(e.address));
            return p;
        });
    }
};

struct KRootEncoder {
    static constexpr DatasetKind kind = DatasetKind::KRoot;
    static ProbeId probe_of(const KRootPingRecord& r) { return r.probe; }
    static void payload(std::string& out,
                        std::span<const KRootPingRecord> block) {
        append_bounded(out, block.size() * 4 * net::kMaxVarintBytes, [&](char* p) {
            std::int64_t previous = 0;
            for (const auto& r : block) {
                p = put_varint_signed(p, r.timestamp.unix_seconds() - previous);
                previous = r.timestamp.unix_seconds();
            }
            for (const auto& r : block) p = put_varint_signed(p, r.sent);
            for (const auto& r : block) p = put_varint_signed(p, r.success);
            for (const auto& r : block) p = put_varint_signed(p, r.lts_seconds);
            return p;
        });
    }
};

struct UptimeEncoder {
    static constexpr DatasetKind kind = DatasetKind::Uptime;
    static ProbeId probe_of(const UptimeRecord& r) { return r.probe; }
    static void payload(std::string& out,
                        std::span<const UptimeRecord> block) {
        append_bounded(out, block.size() * 2 * net::kMaxVarintBytes, [&](char* p) {
            std::int64_t previous = 0;
            for (const auto& r : block) {
                p = put_varint_signed(p, r.timestamp.unix_seconds() - previous);
                previous = r.timestamp.unix_seconds();
            }
            for (const auto& r : block) p = put_varint(p, r.uptime_seconds);
            return p;
        });
    }
};

struct ProbesEncoder {
    static constexpr DatasetKind kind = DatasetKind::Probes;
    static ProbeId probe_of(const ProbeMetadata& p) { return p.probe; }
    static void payload(std::string& out,
                        std::span<const ProbeMetadata> block) {
        // Per probe: version byte, two length-prefixed fields and one
        // length prefix per tag.
        std::size_t max_bytes = 0;
        for (const auto& p : block) {
            max_bytes += 1 + 2 * net::kMaxVarintBytes + p.country_code.size();
            for (const auto& tag : p.tags)
                max_bytes += net::kMaxVarintBytes + tag.size();
        }
        auto put_text = [](char* out, const std::string& text) {
            out = put_varint(out, text.size());
            return std::copy(text.begin(), text.end(), out);
        };
        append_bounded(out, max_bytes, [&](char* out_p) {
            for (const auto& p : block) {
                *out_p++ = char(int(p.version));
                out_p = put_text(out_p, p.country_code);
                out_p = put_varint(out_p, p.tags.size());
                for (const auto& tag : p.tags) out_p = put_text(out_p, tag);
            }
            return out_p;
        });
    }
};

/// One dataset's streaming encoder: records buffer per probe and flush as
/// a columnar block when the probe changes or the block fills.
template <typename Record, typename Encoder>
struct DatasetEncoder {
    BlockStream stream{Encoder::kind};
    Encoder encoder;
    std::vector<Record> buffer;
    std::string payload;  ///< one block's columns, reused across blocks
    ProbeId current = 0;
    std::size_t block_records;

    explicit DatasetEncoder(std::size_t block_records_)
        : block_records(block_records_ == 0 ? 1 : block_records_) {}

    void add(const Record& record) {
        const ProbeId probe = Encoder::probe_of(record);
        if (!buffer.empty() &&
            (probe != current || buffer.size() >= block_records))
            flush();
        current = probe;
        buffer.push_back(record);
    }

    void flush() {
        if (buffer.empty()) return;
        payload.clear();
        encoder.payload(payload, buffer);
        stream.add_block(current, buffer.size(), payload);
        buffer.clear();
    }

    /// Flushes the last block and completes the stream.
    void finish() {
        flush();
        if constexpr (std::is_same_v<Encoder, ConnectionEncoder>) {
            stream.finish(&encoder.dict);
        } else {
            stream.finish(nullptr);
        }
    }

    /// Heap held by this encoder: buffered file bytes, encoded block
    /// index, the per-probe record buffer and the address dictionary. For
    /// memory accounting.
    [[nodiscard]] std::size_t memory_bytes() const {
        std::size_t bytes = stream.body.capacity() + stream.index.capacity() +
                            buffer.capacity() * sizeof(Record) +
                            payload.capacity();
        if constexpr (std::is_same_v<Encoder, ConnectionEncoder>)
            bytes += encoder.dict.memory_bytes();
        return bytes;
    }
};

template <typename Record, typename Encoder>
std::string encode_dataset(std::span<const Record> records,
                           std::size_t block_records) {
    DatasetEncoder<Record, Encoder> encoder(block_records);
    for (const auto& record : records) encoder.add(record);
    encoder.finish();
    return std::move(encoder.stream.body);
}

// -- decoding ----------------------------------------------------------------

struct ParsedContainer {
    std::string_view data;
    std::vector<PeerAddress> dict;
    struct Block {
        ProbeId probe;
        std::uint64_t count;
        std::size_t offset;  ///< absolute, at the block's probe varint
        std::size_t size;    ///< bytes up to the next block / footer
    };
    std::vector<Block> blocks;  ///< file order

    /// Heap held by the dictionary and the block index.
    [[nodiscard]] std::size_t memory_bytes() const {
        return dict.capacity() * sizeof(PeerAddress) +
               blocks.capacity() * sizeof(Block);
    }
};

/// Parses header, tail and footer; blocks stay untouched (decoded on
/// demand, straight from the mapped bytes).
ParsedContainer parse_container(std::string_view data, DatasetKind expect) {
    if (data.size() < kHeaderSize + kTailSize)
        throw ParseError("binary bundle: file too small (" +
                         std::to_string(data.size()) + " bytes)");
    if (data.compare(0, 4, kHeaderMagic, 4) != 0)
        throw ParseError("binary bundle: bad header magic");
    if (std::uint8_t(data[4]) != std::uint8_t(expect))
        throw ParseError("binary bundle: dataset kind mismatch (file says " +
                         std::to_string(int(std::uint8_t(data[4]))) +
                         ", expected " + dataset_name(expect) + ")");
    if (std::uint8_t(data[5]) != kFormatVersion)
        throw ParseError("binary bundle: unsupported format version " +
                         std::to_string(int(std::uint8_t(data[5]))));
    if (data.compare(data.size() - 4, 4, kTailMagic, 4) != 0)
        throw ParseError("binary bundle: bad tail magic (truncated file?)");
    std::uint64_t footer_offset = 0;
    for (int i = 7; i >= 0; --i)
        footer_offset = (footer_offset << 8) |
                        std::uint8_t(data[data.size() - kTailSize + i]);
    if (footer_offset < kHeaderSize || footer_offset > data.size() - kTailSize)
        throw ParseError("binary bundle: footer offset " +
                         std::to_string(footer_offset) + " out of range");

    ParsedContainer parsed;
    parsed.data = data;
    ByteCursor cursor(data);
    cursor.seek(std::size_t(footer_offset));
    if (expect == DatasetKind::ConnectionLog) {
        parsed.dict = decode_dict(cursor);
    } else if (cursor.varint() != 0) {
        throw ParseError("binary bundle: unexpected dictionary in " +
                         std::string(dataset_name(expect)));
    }
    const std::size_t block_count = cursor.length(cursor.remaining());
    parsed.blocks.reserve(block_count);
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < block_count; ++i) {
        ParsedContainer::Block block;
        block.probe = ProbeId(cursor.varint());
        offset += cursor.varint();
        block.offset = std::size_t(offset);
        block.count = cursor.varint();
        parsed.blocks.push_back(block);
    }
    // Block extents: ascending offsets inside [header, footer).
    for (std::size_t i = 0; i < parsed.blocks.size(); ++i) {
        auto& block = parsed.blocks[i];
        const std::size_t end = i + 1 < parsed.blocks.size()
                                    ? parsed.blocks[i + 1].offset
                                    : std::size_t(footer_offset);
        if (block.offset < kHeaderSize || end > footer_offset ||
            block.offset >= end)
            throw ParseError("binary bundle: block " + std::to_string(i) +
                             " extent [" + std::to_string(block.offset) +
                             ", " + std::to_string(end) + ") out of range");
        block.size = end - block.offset;
        // Every record consumes at least one payload byte per column, so a
        // count above the byte extent is garbage; rejecting it here caps
        // the decoders' per-block allocations at the file size.
        if (block.count > block.size)
            throw ParseError("binary bundle: block " + std::to_string(i) +
                             " claims " + std::to_string(block.count) +
                             " records in " + std::to_string(block.size) +
                             " bytes");
    }
    return parsed;
}

/// A cursor over `block`'s bytes past its header, once the header has been
/// checked against the index entry.
ByteCursor open_block(const ParsedContainer& parsed,
                      const ParsedContainer::Block& block) {
    ByteCursor cursor(parsed.data.substr(block.offset, block.size));
    const ProbeId probe = ProbeId(cursor.varint());
    const std::uint64_t count = cursor.varint();
    if (probe != block.probe || count != block.count)
        throw ParseError("binary bundle: block header disagrees with index");
    return cursor;
}

/// Grows `out` by the block's record count and returns the new records.
/// The payload is column-major, so the decoders below fill these records
/// one column at a time: `out` is the only buffer a block needs.
template <typename Record>
std::span<Record> append_records(std::vector<Record>& out,
                                 const ParsedContainer::Block& block) {
    const std::size_t first = out.size();
    out.resize(first + std::size_t(block.count));
    return std::span<Record>(out).subspan(first);
}

/// Appends one block's records to `out`, bounds-checked against the index
/// entry. On a ParseError `out` may hold part of the block; callers go
/// through decode_block_atomic.
void decode_block(const ParsedContainer& parsed,
                  const ParsedContainer::Block& block,
                  std::vector<ConnectionLogEntry>& out) {
    ByteCursor cursor = open_block(parsed, block);
    const auto records = append_records(out, block);
    std::int64_t previous = 0;
    for (auto& entry : records) {
        previous += cursor.varint_signed();
        entry.probe = block.probe;
        entry.start = net::TimePoint(previous);
    }
    for (auto& entry : records)
        entry.end =
            net::TimePoint(entry.start.unix_seconds() + cursor.varint_signed());
    for (auto& entry : records) {
        const std::uint64_t dict_index = cursor.varint();
        if (dict_index >= parsed.dict.size())
            throw ParseError("binary bundle: address index " +
                             std::to_string(dict_index) +
                             " outside dictionary of " +
                             std::to_string(parsed.dict.size()));
        entry.address = parsed.dict[std::size_t(dict_index)];
    }
}

void decode_block(const ParsedContainer& parsed,
                  const ParsedContainer::Block& block,
                  std::vector<KRootPingRecord>& out) {
    ByteCursor cursor = open_block(parsed, block);
    const auto records = append_records(out, block);
    std::int64_t previous = 0;
    for (auto& record : records) {
        previous += cursor.varint_signed();
        record.probe = block.probe;
        record.timestamp = net::TimePoint(previous);
    }
    for (auto& record : records) record.sent = int(cursor.varint_signed());
    for (auto& record : records) record.success = int(cursor.varint_signed());
    for (auto& record : records) record.lts_seconds = cursor.varint_signed();
}

void decode_block(const ParsedContainer& parsed,
                  const ParsedContainer::Block& block,
                  std::vector<UptimeRecord>& out) {
    ByteCursor cursor = open_block(parsed, block);
    const auto records = append_records(out, block);
    std::int64_t previous = 0;
    for (auto& record : records) {
        previous += cursor.varint_signed();
        record.probe = block.probe;
        record.timestamp = net::TimePoint(previous);
    }
    for (auto& record : records) record.uptime_seconds = cursor.varint();
}

void decode_block(const ParsedContainer& parsed,
                  const ParsedContainer::Block& block,
                  std::vector<ProbeMetadata>& out) {
    ByteCursor cursor = open_block(parsed, block);
    for (std::uint64_t i = 0; i < block.count; ++i) {
        ProbeMetadata& meta = out.emplace_back();
        meta.probe = block.probe;
        const int version = int(cursor.u8());
        if (version < 1 || version > 3)
            throw ParseError("binary bundle: bad probe version " +
                             std::to_string(version));
        meta.version = ProbeVersion(version);
        meta.country_code =
            std::string(cursor.bytes(cursor.length(cursor.remaining())));
        const std::size_t tags = cursor.length(cursor.remaining());
        meta.tags.reserve(tags);
        for (std::size_t t = 0; t < tags; ++t)
            meta.tags.emplace_back(
                cursor.bytes(cursor.length(cursor.remaining())));
    }
}

/// Appends `block`'s records to `out` whole or not at all. The decoders
/// fill records as they parse, but the lenient contract is "drop the
/// offending block": a ParseError halfway through would otherwise leave
/// the parsed half in the output (or, streaming, in a handler that cannot
/// un-see it) while the whole block's count is tallied as rejected. So a
/// failed block is cut from `out` again; strict mode then rethrows, lenient
/// mode tallies it and the caller resumes at the next indexed block.
template <typename Record>
void decode_block_atomic(const ParsedContainer& parsed,
                         const ParsedContainer::Block& block, bool lenient,
                         BinaryDecodeStats* stats, std::vector<Record>& out) {
    const std::size_t kept = out.size();
    try {
        decode_block(parsed, block, out);
    } catch (const ParseError&) {
        out.erase(out.begin() + std::ptrdiff_t(kept), out.end());
        if (!lenient) throw;
        if (stats != nullptr) {
            stats->rows_rejected += std::size_t(block.count);
            ++stats->blocks_rejected;
        }
    }
}

template <typename Record>
std::vector<Record> decode_dataset(std::string_view data, DatasetKind kind,
                                   bool lenient, BinaryDecodeStats* stats) {
    std::vector<Record> records;
    ParsedContainer parsed;
    try {
        parsed = parse_container(data, kind);
    } catch (const ParseError&) {
        // Without a readable footer there is no index to resync on: the
        // whole file is lost even leniently.
        if (!lenient) throw;
        if (stats != nullptr) ++stats->blocks_rejected;
        return records;
    }
    for (const auto& block : parsed.blocks)
        decode_block_atomic(parsed, block, lenient, stats, records);
    return records;
}

/// Block ordinals in ascending-probe order, file order within a probe: a
/// stable LSD radix sort of (probe << 32 | ordinal) keys on the probe's
/// two 16-bit digits. O(blocks) for any id up to UINT32_MAX; it reads the
/// index once in file order and keeps 4 bytes per block.
std::vector<std::uint32_t> probe_order(
    std::span<const ParsedContainer::Block> blocks) {
    if (blocks.size() > std::numeric_limits<std::uint32_t>::max())
        throw ParseError("binary bundle: " + std::to_string(blocks.size()) +
                         " blocks exceed the 32-bit block ordinal");
    constexpr std::size_t kDigitValues = std::size_t(1) << 16;
    std::vector<std::uint32_t> low(kDigitValues), high(kDigitValues);
    for (const auto& block : blocks) {
        ++low[block.probe & 0xFFFF];
        ++high[block.probe >> 16];
    }
    // Counts become each digit value's first output slot.
    std::exclusive_scan(low.begin(), low.end(), low.begin(), std::uint32_t(0));
    std::exclusive_scan(high.begin(), high.end(), high.begin(),
                        std::uint32_t(0));
    std::vector<std::uint64_t> by_low(blocks.size());
    for (std::uint32_t i = 0; i < blocks.size(); ++i)
        by_low[low[blocks[i].probe & 0xFFFF]++] =
            std::uint64_t(blocks[i].probe) << 32 | i;
    std::vector<std::uint32_t> order(blocks.size());
    for (const std::uint64_t key : by_low)
        order[high[key >> 48]++] = std::uint32_t(key);
    return order;
}

// -- file plumbing -----------------------------------------------------------

/// Maps a .dab file; with CSV-style faults planned, copies and garbles
/// the block region (header, footer and tail stay intact, mirroring the
/// CSV corrupter's header-preserving contract). Returns the corrupted
/// copy in `scratch` when faulting, else an empty optional.
struct LoadedDataset {
    net::ByteSource source;
    std::string scratch;
    bool faulted = false;

    [[nodiscard]] std::string_view view() const {
        return faulted ? std::string_view(scratch) : source.view();
    }
};

LoadedDataset load_dataset(const std::filesystem::path& path,
                           DatasetKind kind) {
    LoadedDataset loaded;
    try {
        loaded.source = net::ByteSource::map_file(path.string());
    } catch (const Error& e) {
        throw Error("cannot open " + path.string() + " for reading (dataset " +
                    dataset_name(kind) + "): " + e.what());
    }
    sim::FaultInjector* injector = sim::fault_injector();
    if (injector != nullptr && injector->plan().csv.any()) {
        loaded.scratch = std::string(loaded.source.view());
        loaded.faulted = true;
        if (loaded.scratch.size() >= kHeaderSize + kTailSize) {
            std::uint64_t footer_offset = 0;
            for (int i = 7; i >= 0; --i)
                footer_offset =
                    (footer_offset << 8) |
                    std::uint8_t(
                        loaded.scratch[loaded.scratch.size() - kTailSize + i]);
            const std::size_t end = std::min(std::size_t(footer_offset),
                                             loaded.scratch.size() - kTailSize);
            injector->corrupt_binary(loaded.scratch, kHeaderSize, end);
        }
    }
    return loaded;
}

/// Adds a decode's lenient-mode losses to the faults.binary.* counters.
void count_rejections(const BinaryDecodeStats& stats) {
    if (stats.rows_rejected > 0)
        obs::counter("faults.binary.rows_rejected").inc(stats.rows_rejected);
    if (stats.blocks_rejected > 0)
        obs::counter("faults.binary.blocks_rejected")
            .inc(stats.blocks_rejected);
}

Error dataset_error(DatasetKind kind, const std::filesystem::path& path,
                    const ParseError& e) {
    return Error("reading dataset " + std::string(dataset_name(kind)) + " (" +
                 path.string() + "): " + e.what());
}

template <typename Record>
std::vector<Record> read_dataset_file(const std::filesystem::path& path,
                                      DatasetKind kind, bool lenient) {
    const LoadedDataset loaded = load_dataset(path, kind);
    const bool effective_lenient = lenient || loaded.faulted;
    BinaryDecodeStats stats;
    std::vector<Record> records;
    try {
        records = decode_dataset<Record>(loaded.view(), kind,
                                         effective_lenient, &stats);
    } catch (const ParseError& e) {
        throw dataset_error(kind, path, e);
    }
    count_rejections(stats);
    return records;
}

/// Blocks a stream channel gathers from its index at a time.
constexpr std::size_t kGatherBlocks = 64;

/// One dataset of a streamed bundle: the mapped file, its parsed footer,
/// the blocks' ascending-probe order and the buffer every block decodes
/// into. The buffer is cleared, never freed, so a block allocates only
/// when it outgrows every block before it.
///
/// On a live-sink file one probe's blocks lie far apart, so each block's
/// index entry and bytes miss in cache and TLB. Walking `order` one block
/// at a time serializes those misses; instead the channel copies the next
/// kGatherBlocks index entries into `window` in one tight loop, whose loads
/// overlap, and prefetches each block's bytes as it goes.
template <typename Record>
struct StreamChannel {
    LoadedDataset loaded;
    ParsedContainer parsed;  ///< views `loaded`, so a channel never moves
    std::vector<std::uint32_t> order;  ///< block ordinals, see probe_order
    std::vector<Record> block_records;
    std::array<ParsedContainer::Block, kGatherBlocks> window{};
    std::size_t window_size = 0;  ///< blocks gathered into `window`
    std::size_t window_next = 0;  ///< next block of `window` to deliver
    std::size_t gathered = 0;     ///< entries of `order` gathered so far
    bool lenient = false;

    /// Maps and parses the dataset. A footer that cannot be read is fatal
    /// in strict mode and leaves the channel empty in lenient mode.
    void open(const std::filesystem::path& dir, DatasetKind kind,
              bool lenient_requested) {
        const std::filesystem::path path = dir / dataset_file(kind);
        loaded = load_dataset(path, kind);
        lenient = lenient_requested || loaded.faulted;
        try {
            parsed = parse_container(loaded.view(), kind);
            order = probe_order(parsed.blocks);
        } catch (const ParseError& e) {
            if (!lenient) throw dataset_error(kind, path, e);
            parsed.blocks.clear();
            obs::counter("faults.binary.blocks_rejected").inc();
        }
        gather();
    }

    /// Refills `window` with the next entries of `order`, if any.
    void gather() {
        window_size = std::min(kGatherBlocks, order.size() - gathered);
        window_next = 0;
        for (std::size_t i = 0; i < window_size; ++i) {
            const auto& block = window[i] = parsed.blocks[order[gathered + i]];
            const char* bytes = parsed.data.data() + block.offset;
            __builtin_prefetch(bytes);
            __builtin_prefetch(bytes + block.size - 1);
        }
        gathered += window_size;
    }

    [[nodiscard]] bool done() const { return window_next == window_size; }
    [[nodiscard]] ProbeId probe() const { return window[window_next].probe; }

    /// Decodes `block` atomically and hands its records to `sink`.
    template <typename Sink>
    void deliver(const ParsedContainer::Block& block,
                 BinaryDecodeStats& stats, Sink&& sink) {
        block_records.clear();
        decode_block_atomic(parsed, block, lenient, &stats, block_records);
        for (const Record& record : block_records) sink(record);
    }

    /// Delivers every block of probe `id` at the front of the order.
    template <typename Sink>
    void deliver_probe(ProbeId id, BinaryDecodeStats& stats, Sink&& sink) {
        while (!done() && probe() == id) {
            deliver(window[window_next], stats, sink);
            if (++window_next == window_size) gather();
        }
    }

    /// Heap held by the index, the order and the block buffer.
    [[nodiscard]] std::size_t memory_bytes() const {
        return parsed.memory_bytes() +
               order.capacity() * sizeof(std::uint32_t) +
               block_records.capacity() * sizeof(Record);
    }
};

void write_file(const std::filesystem::path& path, DatasetKind kind,
                std::string_view body) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw Error("cannot open " + path.string() + " for writing (dataset " +
                    dataset_name(kind) + ")");
    out.write(body.data(), std::streamsize(body.size()));
    out.flush();
    if (!out)
        throw Error("write failed on " + path.string() + " (dataset " +
                    dataset_name(kind) + ")");
}

}  // namespace

// -- in-memory codecs --------------------------------------------------------

std::string encode_connection_log_binary(
    std::span<const ConnectionLogEntry> entries, std::size_t block_records) {
    return encode_dataset<ConnectionLogEntry, ConnectionEncoder>(
        entries, block_records);
}

std::string encode_kroot_binary(std::span<const KRootPingRecord> records,
                                std::size_t block_records) {
    return encode_dataset<KRootPingRecord, KRootEncoder>(records,
                                                         block_records);
}

std::string encode_uptime_binary(std::span<const UptimeRecord> records,
                                 std::size_t block_records) {
    return encode_dataset<UptimeRecord, UptimeEncoder>(records, block_records);
}

std::string encode_probes_binary(std::span<const ProbeMetadata> probes,
                                 std::size_t block_records) {
    return encode_dataset<ProbeMetadata, ProbesEncoder>(probes, block_records);
}

std::vector<ConnectionLogEntry> decode_connection_log_binary(
    std::string_view data, bool lenient, BinaryDecodeStats* stats) {
    return decode_dataset<ConnectionLogEntry>(data, DatasetKind::ConnectionLog,
                                              lenient, stats);
}

std::vector<KRootPingRecord> decode_kroot_binary(std::string_view data,
                                                 bool lenient,
                                                 BinaryDecodeStats* stats) {
    return decode_dataset<KRootPingRecord>(data, DatasetKind::KRoot,
                                           lenient, stats);
}

std::vector<UptimeRecord> decode_uptime_binary(std::string_view data,
                                               bool lenient,
                                               BinaryDecodeStats* stats) {
    return decode_dataset<UptimeRecord>(data, DatasetKind::Uptime,
                                        lenient, stats);
}

std::vector<ProbeMetadata> decode_probes_binary(std::string_view data,
                                                bool lenient,
                                                BinaryDecodeStats* stats) {
    return decode_dataset<ProbeMetadata>(data, DatasetKind::Probes,
                                         lenient, stats);
}

// -- streaming writer --------------------------------------------------------

struct BinaryBundleWriter::Impl {
    std::filesystem::path directory;
    std::size_t block_records;
    DatasetEncoder<ConnectionLogEntry, ConnectionEncoder> connections;
    DatasetEncoder<KRootPingRecord, KRootEncoder> kroot;
    DatasetEncoder<UptimeRecord, UptimeEncoder> uptime;
    DatasetEncoder<ProbeMetadata, ProbesEncoder> probes;
    bool closed = false;
    /// Capacity accounting (mem.atlas.dab2_writer): the four encoders'
    /// unwritten bytes, block indexes and buffers, published every 1024
    /// records and at close.
    obs::MemRegistration mem{"atlas.dab2_writer"};
    std::size_t mem_ops = 0;
    std::uint64_t records_added = 0;

    void note_record() {
        ++records_added;
        if ((++mem_ops & 1023) == 0) publish_mem();
    }
    void publish_mem() {
        mem.report(connections.memory_bytes() + kroot.memory_bytes() +
                       uptime.memory_bytes() + probes.memory_bytes(),
                   records_added);
    }

    Impl(std::string dir, std::size_t block_records_)
        : directory(std::move(dir)),
          block_records(block_records_),
          connections(block_records_),
          kroot(block_records_),
          uptime(block_records_),
          probes(block_records_) {
        std::filesystem::create_directories(directory);
        connections.stream.open(directory / dataset_file(DatasetKind::ConnectionLog));
        kroot.stream.open(directory / dataset_file(DatasetKind::KRoot));
        uptime.stream.open(directory / dataset_file(DatasetKind::Uptime));
        probes.stream.open(directory / dataset_file(DatasetKind::Probes));
    }
};

BinaryBundleWriter::BinaryBundleWriter(const std::string& directory,
                                       std::size_t block_records)
    : impl_(std::make_unique<Impl>(directory, block_records)) {}

BinaryBundleWriter::~BinaryBundleWriter() {
    try {
        close();
    } catch (const Error&) {
        // Destructor path: the files stay tail-less and readers reject
        // them loudly; callers wanting the error call close() themselves.
    }
}

void BinaryBundleWriter::add_connection(const ConnectionLogEntry& entry) {
    impl_->connections.add(entry);
    impl_->note_record();
}

void BinaryBundleWriter::add_kroot(const KRootPingRecord& record) {
    impl_->kroot.add(record);
    impl_->note_record();
}

void BinaryBundleWriter::add_uptime(const UptimeRecord& record) {
    impl_->uptime.add(record);
    impl_->note_record();
}

void BinaryBundleWriter::add_probe(const ProbeMetadata& meta) {
    impl_->probes.add(meta);
    impl_->note_record();
}

void BinaryBundleWriter::close() {
    if (impl_->closed) return;
    impl_->closed = true;
    impl_->publish_mem();
    impl_->connections.finish();
    impl_->kroot.finish();
    impl_->uptime.finish();
    impl_->probes.finish();
}

// -- whole-bundle I/O --------------------------------------------------------

void write_binary_bundle(const std::string& directory,
                         const DatasetBundle& bundle,
                         std::size_t block_records) {
    obs::ObsSpan span("datasets.write_binary_bundle", "io",
                      &obs::latency_histogram("datasets.write_binary_bundle"));
    const std::filesystem::path dir(directory);
    std::filesystem::create_directories(dir);
    write_file(dir / dataset_file(DatasetKind::ConnectionLog),
               DatasetKind::ConnectionLog,
               encode_connection_log_binary(bundle.connection_log,
                                            block_records));
    write_file(dir / dataset_file(DatasetKind::KRoot), DatasetKind::KRoot,
               encode_kroot_binary(bundle.kroot_pings, block_records));
    write_file(dir / dataset_file(DatasetKind::Uptime), DatasetKind::Uptime,
               encode_uptime_binary(bundle.uptime_records, block_records));
    write_file(dir / dataset_file(DatasetKind::Probes), DatasetKind::Probes,
               encode_probes_binary(bundle.probes, block_records));
}

DatasetBundle read_binary_bundle(const std::string& directory, bool lenient) {
    obs::ObsSpan span("datasets.read_binary_bundle", "io",
                      &obs::latency_histogram("datasets.read_binary_bundle"));
    const std::filesystem::path dir(directory);
    DatasetBundle bundle;
    {
        obs::ObsSpan part("datasets.read_connection_log", "io");
        bundle.connection_log = read_dataset_file<ConnectionLogEntry>(
            dir / dataset_file(DatasetKind::ConnectionLog),
            DatasetKind::ConnectionLog, lenient);
    }
    {
        obs::ObsSpan part("datasets.read_kroot", "io");
        bundle.kroot_pings = read_dataset_file<KRootPingRecord>(
            dir / dataset_file(DatasetKind::KRoot), DatasetKind::KRoot,
            lenient);
    }
    {
        obs::ObsSpan part("datasets.read_uptime", "io");
        bundle.uptime_records = read_dataset_file<UptimeRecord>(
            dir / dataset_file(DatasetKind::Uptime), DatasetKind::Uptime,
            lenient);
    }
    {
        obs::ObsSpan part("datasets.read_probes", "io");
        bundle.probes = read_dataset_file<ProbeMetadata>(
            dir / dataset_file(DatasetKind::Probes), DatasetKind::Probes,
            lenient);
    }
    obs::counter("datasets.rows_read")
        .inc(bundle.connection_log.size() + bundle.kroot_pings.size() +
             bundle.uptime_records.size() + bundle.probes.size());
    DYNADDR_LOG(Info, binary_bundle, "read binary bundle from ", directory,
                ": ", bundle.connection_log.size(), " connections, ",
                bundle.kroot_pings.size(), " kroot pings, ",
                bundle.uptime_records.size(), " uptime records, ",
                bundle.probes.size(), " probes");
    return bundle;
}

bool binary_bundle_present(const std::string& directory) {
    return std::filesystem::exists(
        std::filesystem::path(directory) /
        dataset_file(DatasetKind::ConnectionLog));
}

DatasetBundle read_bundle_auto(const std::string& directory) {
    return binary_bundle_present(directory) ? read_binary_bundle(directory)
                                            : read_bundle(directory);
}

// -- streaming read path -----------------------------------------------------

void stream_binary_bundle(const std::string& directory,
                          BundleStreamHandler& handler, bool lenient) {
    obs::ObsSpan span("datasets.stream_binary_bundle", "io",
                      &obs::latency_histogram("datasets.stream_binary_bundle"));
    const std::filesystem::path dir(directory);

    // Opened in this order so a fault plan garbles the files in the same
    // sequence as the batch reader.
    StreamChannel<ConnectionLogEntry> connections;
    StreamChannel<KRootPingRecord> kroot;
    StreamChannel<UptimeRecord> uptime;
    StreamChannel<ProbeMetadata> probes;
    connections.open(dir, DatasetKind::ConnectionLog, lenient);
    kroot.open(dir, DatasetKind::KRoot, lenient);
    uptime.open(dir, DatasetKind::Uptime, lenient);
    probes.open(dir, DatasetKind::Probes, lenient);

    // Capacity accounting (mem.atlas.dab2_reader): the four channels'
    // indexes, probe orders and block buffers; items = indexed blocks.
    obs::MemRegistration mem{"atlas.dab2_reader"};
    const auto publish_mem = [&] {
        mem.report(connections.memory_bytes() + kroot.memory_bytes() +
                       uptime.memory_bytes() + probes.memory_bytes(),
                   connections.order.size() + kroot.order.size() +
                       uptime.order.size() + probes.order.size());
    };
    publish_mem();

    BinaryDecodeStats stats;
    // Metadata first, in file order — the version map is last-wins and
    // geography follows archive order, matching the batch reader.
    for (const auto& block : probes.parsed.blocks)
        probes.deliver(block, stats, [&](const ProbeMetadata& meta) {
            handler.on_metadata(meta);
        });

    // Ascending-probe merge over the three record channels.
    while (!connections.done() || !kroot.done() || !uptime.done()) {
        ProbeId next = std::numeric_limits<ProbeId>::max();
        if (!connections.done()) next = std::min(next, connections.probe());
        if (!kroot.done()) next = std::min(next, kroot.probe());
        if (!uptime.done()) next = std::min(next, uptime.probe());
        connections.deliver_probe(next, stats,
                                  [&](const ConnectionLogEntry& entry) {
                                      handler.on_connection(entry);
                                  });
        kroot.deliver_probe(next, stats, [&](const KRootPingRecord& record) {
            handler.on_kroot(record);
        });
        uptime.deliver_probe(next, stats, [&](const UptimeRecord& record) {
            handler.on_uptime(record);
        });
        handler.on_probe_complete(next);
    }
    count_rejections(stats);
    // The reader's buffers die with this call, so the end-of-run memory
    // report (--mem-report) is captured here while they and the handler's
    // state are still alive, as the scenario runner does at the end of
    // its plan.
    publish_mem();
    obs::mem_capture_final();
}

}  // namespace dynaddr::atlas
