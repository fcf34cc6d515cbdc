#include "corpus_store.hpp"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <unordered_map>
#include <unordered_set>

#include "dataset_io.hpp"
#include "util/csv.hpp"

namespace fisone::data {

namespace {

constexpr const char* kManifestMagic = "# fisone-corpus v1";
constexpr const char* kShardMagic = "# fisone-shard v1";
constexpr const char* kBlockEnd = "end";
constexpr const char* kManifestName = "manifest.csv";
constexpr const char* kManifestTempSuffix = ".tmp";

std::string join_path(const std::string& dir, const std::string& name) {
    return (std::filesystem::path(dir) / name).string();
}

/// Check a shard file's header line. \throws std::invalid_argument when
/// it is not the shard magic.
void expect_shard_magic(std::istream& in, const char* who, const std::string& path) {
    std::string line;
    if (!std::getline(in, line) || util::trim(line) != kShardMagic)
        throw std::invalid_argument(std::string(who) + ": bad shard magic in " + path);
}

/// Gather one building block (everything up to its `end` marker) and parse
/// it — the block is the only corpus text resident. nullopt at a clean end
/// of file. \throws std::invalid_argument on a truncated or malformed block.
std::optional<building> parse_next_block(std::istream& in, const char* who,
                                         std::size_t position, const std::string& path) {
    std::string block;
    std::string line;
    bool saw_end = false;
    while (std::getline(in, line)) {
        if (util::trim(line) == kBlockEnd) {
            saw_end = true;
            break;
        }
        block += line;
        block += '\n';
    }
    if (!saw_end) {
        if (block.empty()) return std::nullopt;  // clean end of shard
        throw std::invalid_argument(std::string(who) + ": truncated block " +
                                    std::to_string(position) + " in " + path);
    }
    std::istringstream block_stream(std::move(block));
    return load_building(block_stream);
}

/// Where one block starts in its file, and the name its `name` row carries.
struct block_ref {
    std::uint64_t offset = 0;
    std::string name;
};

/// List the blocks of one shard or delta file without parsing a building:
/// a line scan for `name` rows and `end` markers. \throws exactly where
/// streaming the file would (bad magic, truncated final block).
std::vector<block_ref> scan_blocks(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::ios_base::failure("corpus_store: cannot open " + path);
    expect_shard_magic(in, "corpus_store", path);
    auto offset = static_cast<std::uint64_t>(in.tellg());
    std::vector<block_ref> blocks;
    std::string line;
    block_ref current{offset, {}};
    bool open_block = false;
    while (std::getline(in, line)) {
        offset += line.size() + 1;
        const std::string_view row = util::trim(line);
        if (row == kBlockEnd) {
            blocks.push_back(std::move(current));
            current = block_ref{offset, {}};
            open_block = false;
            continue;
        }
        open_block = true;
        // Parsed as `load_building` parses it: the last name row wins.
        if (row.rfind("name,", 0) == 0) {
            const auto fields = util::split_fields(line);
            if (fields.size() == 2) current.name = fields[1];
        }
    }
    if (open_block)
        throw std::invalid_argument("corpus_store: truncated block " +
                                    std::to_string(blocks.size()) + " in " + path);
    return blocks;
}

/// Parse the block that starts at byte \p offset of \p path.
building read_block_at(const std::string& path, std::uint64_t offset) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::ios_base::failure("corpus_store: cannot open " + path);
    in.seekg(static_cast<std::streamoff>(offset));
    std::optional<building> b = parse_next_block(in, "corpus_store", 0, path);
    if (!b)
        throw std::invalid_argument("corpus_store: no block at byte " + std::to_string(offset) +
                                    " of " + path);
    return std::move(*b);
}

}  // namespace

/// Byte offsets and names of a store's blocks. The base part is immutable
/// (base shards never change) and shared by every handle `reopen` derives;
/// the delta part covers the delta rows of its handle's manifest.
struct corpus_store::block_index {
    struct base_blocks {
        std::vector<std::uint64_t> offsets;  ///< by base corpus index
        std::unordered_map<std::string, std::size_t> first_index;  ///< first block per name
    };
    struct record_ref {
        std::size_t delta = 0;  ///< delta row
        std::uint64_t offset = 0;
    };

    std::shared_ptr<const base_blocks> base;
    /// Delta records by building name, in append order.
    std::unordered_map<std::string, std::vector<record_ref>> records;
    /// Names no base block holds, in first-appearance order: the building
    /// at local index `total_buildings() + i` is `tail[i]`.
    std::vector<std::string> tail;
    std::unordered_map<std::string, std::size_t> tail_position;

    /// Index delta row \p d of \p m; rows are added in order.
    void add_delta(const corpus_manifest& m, std::size_t d, const std::string& path) {
        const std::vector<block_ref> blocks = scan_blocks(path);
        if (blocks.size() != m.deltas[d].num_records)
            throw std::invalid_argument("corpus_store: delta " + m.deltas[d].filename +
                                        " holds " + std::to_string(blocks.size()) +
                                        " records, manifest says " +
                                        std::to_string(m.deltas[d].num_records));
        for (const block_ref& r : blocks) {
            auto [it, fresh] = records.try_emplace(r.name);
            it->second.push_back(record_ref{d, r.offset});
            if (fresh && base->first_index.count(r.name) == 0) {
                tail_position.emplace(r.name, tail.size());
                tail.push_back(r.name);
            }
        }
    }
};

/// What copies of one handle share: its block index, built once.
struct corpus_store::index_slot {
    std::mutex m;
    std::shared_ptr<const block_index> index;
};

// --- manifest ---------------------------------------------------------------

std::size_t corpus_manifest::total_buildings() const noexcept {
    std::size_t n = 0;
    for (const shard_entry& s : shards) n += s.num_buildings;
    return n;
}

void corpus_manifest::validate() const {
    // The manifest is an unquoted CSV: a delimiter or newline in the name
    // would write a store that can never be opened again. Fail at write
    // time instead.
    if (corpus_name.find_first_of(",\n\r") != std::string::npos)
        throw std::invalid_argument(
            "corpus_manifest: corpus name must not contain ',' or newlines");
    std::size_t expected_first = 0;
    std::unordered_set<std::string> seen_files;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const shard_entry& s = shards[i];
        if (s.filename.empty())
            throw std::invalid_argument("corpus_manifest: shard " + std::to_string(i) +
                                        " has an empty filename");
        if (s.num_buildings == 0)
            throw std::invalid_argument("corpus_manifest: shard " + std::to_string(i) +
                                        " is empty");
        if (s.first_index != expected_first)
            throw std::invalid_argument("corpus_manifest: shard " + std::to_string(i) +
                                        " starts at " + std::to_string(s.first_index) +
                                        ", expected " + std::to_string(expected_first));
        // A shard file listed twice mounts the same buildings under two
        // corpus-index ranges: every building id in the repeated file
        // silently shadows a distinct building the corpus claims to hold.
        if (!seen_files.insert(s.filename).second)
            throw std::invalid_argument("corpus_manifest: shard file '" + s.filename +
                                        "' is listed more than once — its building ids would "
                                        "duplicate under two index ranges");
        expected_first += s.num_buildings;
    }
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        const delta_entry& d = deltas[i];
        if (d.filename.empty())
            throw std::invalid_argument("corpus_manifest: delta " + std::to_string(i) +
                                        " has an empty filename");
        if (d.num_records == 0)
            throw std::invalid_argument("corpus_manifest: delta " + std::to_string(i) +
                                        " is empty");
        if (!seen_files.insert(d.filename).second)
            throw std::invalid_argument("corpus_manifest: delta file '" + d.filename +
                                        "' is listed more than once — its records would apply "
                                        "twice");
    }
    // Each durable append adds exactly one delta row and bumps the version
    // by one; any other relationship means the manifest is torn.
    if (version != deltas.size())
        throw std::invalid_argument("corpus_manifest: version " + std::to_string(version) +
                                    " does not match " + std::to_string(deltas.size()) +
                                    " delta rows");
}

void save_manifest(const corpus_manifest& m, std::ostream& out) {
    m.validate();
    out << kManifestMagic << '\n';
    out << "corpus," << m.corpus_name << '\n';
    // Omitted while 0: a write-once store's manifest stays byte-identical
    // to what every pre-ingestion version of this code wrote.
    if (m.version != 0) out << "version," << m.version << '\n';
    for (const shard_entry& s : m.shards)
        out << "shard," << s.filename << ',' << s.first_index << ',' << s.num_buildings << '\n';
    for (const delta_entry& d : m.deltas)
        out << "delta," << d.filename << ',' << d.num_records << '\n';
    if (!out) throw std::ios_base::failure("save_manifest: write error");
}

corpus_manifest load_manifest(std::istream& in) {
    std::string line;
    if (!std::getline(in, line) || util::trim(line) != kManifestMagic)
        throw std::invalid_argument("load_manifest: bad magic line");

    corpus_manifest m;
    bool saw_corpus_row = false;
    while (std::getline(in, line)) {
        if (util::trim(line).empty()) continue;
        const auto fields = util::split_fields(line);
        const std::string& key = fields.front();
        if (key == "corpus") {
            if (fields.size() != 2) throw std::invalid_argument("load_manifest: bad corpus row");
            // A second corpus row would silently shadow the first name.
            if (saw_corpus_row)
                throw std::invalid_argument("load_manifest: duplicate corpus row '" + fields[1] +
                                            "' (already named '" + m.corpus_name + "')");
            saw_corpus_row = true;
            m.corpus_name = fields[1];
        } else if (key == "shard") {
            if (fields.size() != 4) throw std::invalid_argument("load_manifest: bad shard row");
            shard_entry s;
            s.filename = fields[1];
            s.first_index = static_cast<std::size_t>(util::parse_int(fields[2]));
            s.num_buildings = static_cast<std::size_t>(util::parse_int(fields[3]));
            m.shards.push_back(std::move(s));
        } else if (key == "version") {
            if (fields.size() != 2)
                throw std::invalid_argument("load_manifest: bad version row");
            m.version = static_cast<std::uint64_t>(util::parse_int(fields[1]));
        } else if (key == "delta") {
            if (fields.size() != 3) throw std::invalid_argument("load_manifest: bad delta row");
            delta_entry d;
            d.filename = fields[1];
            d.num_records = static_cast<std::size_t>(util::parse_int(fields[2]));
            m.deltas.push_back(std::move(d));
        } else {
            throw std::invalid_argument("load_manifest: unknown row key '" + key + "'");
        }
    }
    m.validate();
    return m;
}

// --- shard_writer -----------------------------------------------------------

shard_writer::shard_writer(const std::string& path) : out_(path) {
    if (!out_) throw std::ios_base::failure("shard_writer: cannot open " + path);
    out_ << kShardMagic << '\n';
}

shard_writer::~shard_writer() {
    try {
        close();
    } catch (...) {
        // Destructors must not throw; call close() to observe flush errors.
    }
}

void shard_writer::append(const building& b) {
    if (closed_) throw std::logic_error("shard_writer::append: writer is closed");
    save_building(b, out_);
    out_ << kBlockEnd << '\n';
    if (!out_) throw std::ios_base::failure("shard_writer::append: write error");
    ++count_;
}

void shard_writer::close() {
    if (closed_) return;
    closed_ = true;
    out_.close();
    if (out_.fail()) throw std::ios_base::failure("shard_writer::close: flush error");
}

// --- shard_reader -----------------------------------------------------------

shard_reader::shard_reader(const std::string& path) : path_(path), in_(path) {
    if (!in_) throw std::ios_base::failure("shard_reader: cannot open " + path);
    expect_shard_magic(in_, "shard_reader", path);
}

std::optional<building> shard_reader::next() {
    std::optional<building> b = parse_next_block(in_, "shard_reader", position_, path_);
    if (b) ++position_;
    return b;
}

// --- delta merge ------------------------------------------------------------

void apply_delta_record(building& base, const building& record) {
    if (base.name != record.name)
        throw std::invalid_argument("apply_delta_record: record for '" + record.name +
                                    "' applied to building '" + base.name + "'");
    base.num_floors = std::max(base.num_floors, record.num_floors);
    base.num_macs = std::max(base.num_macs, record.num_macs);
    base.samples.insert(base.samples.end(), record.samples.begin(), record.samples.end());
}

std::string manifest_path(const std::string& dir) { return join_path(dir, kManifestName); }

std::string manifest_temp_path(const std::string& dir) {
    return join_path(dir, std::string(kManifestName) + kManifestTempSuffix);
}

// --- store ------------------------------------------------------------------

corpus_manifest write_corpus_store(const corpus& c, const std::string& dir,
                                   std::size_t shard_size) {
    if (shard_size == 0) throw std::invalid_argument("write_corpus_store: shard_size is 0");
    if (c.buildings.empty()) throw std::invalid_argument("write_corpus_store: empty corpus");
    std::filesystem::create_directories(dir);

    const std::size_t total = c.buildings.size();
    corpus_manifest m;
    m.corpus_name = c.name;
    for (std::size_t first = 0; first < total; first += shard_size) {
        const std::size_t count = std::min(shard_size, total - first);
        // Zero-padded, so shard files list in corpus order.
        std::string filename = "shard-";
        const std::string digits = std::to_string(first / shard_size);
        filename.append(digits.size() < 4 ? 4 - digits.size() : 0, '0');
        filename += digits;
        filename += ".csv";

        shard_writer writer(join_path(dir, filename));
        for (std::size_t i = 0; i < count; ++i) writer.append(c.buildings[first + i]);
        writer.close();
        m.shards.push_back(shard_entry{std::move(filename), first, count});
    }

    std::ofstream manifest_out(join_path(dir, kManifestName));
    if (!manifest_out)
        throw std::ios_base::failure("write_corpus_store: cannot open manifest in " + dir);
    save_manifest(m, manifest_out);
    manifest_out.close();
    if (manifest_out.fail())
        throw std::ios_base::failure("write_corpus_store: manifest flush error");
    return m;
}

corpus_store corpus_store::open(const std::string& dir) {
    // An interrupted append may leave `manifest.csv.tmp` behind: the
    // rename that would have made it visible never ran, so by the
    // durable-before-visible contract it holds a manifest that never
    // existed. Sweep it instead of letting it confuse a later append.
    std::error_code sweep_ec;
    std::filesystem::remove(manifest_temp_path(dir), sweep_ec);
    std::ifstream in(join_path(dir, kManifestName));
    if (!in) throw std::ios_base::failure("corpus_store::open: cannot open manifest in " + dir);
    corpus_store store;
    store.dir_ = dir;
    store.manifest_ = load_manifest(in);
    store.slot_ = std::make_shared<index_slot>();
    return store;
}

std::string corpus_store::shard_path(std::size_t shard_index) const {
    if (shard_index >= manifest_.shards.size())
        throw std::out_of_range("corpus_store::shard_path: shard " + std::to_string(shard_index) +
                                " of " + std::to_string(manifest_.shards.size()));
    return join_path(dir_, manifest_.shards[shard_index].filename);
}

shard_reader corpus_store::open_shard(std::size_t shard_index) const {
    return shard_reader(shard_path(shard_index));
}

void corpus_store::for_each_building(
    const std::function<void(std::size_t, building&&)>& fn) const {
    for (std::size_t s = 0; s < manifest_.shards.size(); ++s) {
        const shard_entry& entry = manifest_.shards[s];
        shard_reader reader = open_shard(s);
        std::size_t offset = 0;
        while (auto b = reader.next()) {
            if (offset >= entry.num_buildings)
                throw std::invalid_argument("corpus_store: shard " + entry.filename +
                                            " holds more buildings than its manifest row");
            fn(entry.first_index + offset, std::move(*b));
            ++offset;
        }
        if (offset != entry.num_buildings)
            throw std::invalid_argument("corpus_store: shard " + entry.filename + " holds " +
                                        std::to_string(offset) + " buildings, manifest says " +
                                        std::to_string(entry.num_buildings));
    }
}

void corpus_store::for_each_building_effective(
    const std::function<void(std::size_t, building&&)>& fn) const {
    // Load every delta record, grouped by building name in first-appearance
    // order. The records (one append batch each) are resident; the base
    // corpus still streams one building at a time.
    std::unordered_map<std::string, std::vector<building>> patches;
    std::vector<std::string> order;  // first appearance across all deltas
    for (const delta_entry& entry : manifest_.deltas) {
        shard_reader reader(join_path(dir_, entry.filename));
        std::size_t records = 0;
        while (auto record = reader.next()) {
            auto [it, fresh] = patches.try_emplace(record->name);
            if (fresh) order.push_back(record->name);
            it->second.push_back(std::move(*record));
            ++records;
        }
        if (records != entry.num_records)
            throw std::invalid_argument("corpus_store: delta " + entry.filename + " holds " +
                                        std::to_string(records) + " records, manifest says " +
                                        std::to_string(entry.num_records));
    }
    for_each_building([&](std::size_t index, building&& b) {
        const auto it = patches.find(b.name);
        if (it != patches.end()) {
            for (const building& record : it->second) apply_delta_record(b, record);
            patches.erase(it);
        }
        fn(index, std::move(b));
    });
    // Whatever the base did not consume introduces new buildings at the
    // tail, in first-appearance order: the first record is the building,
    // later records fold onto it.
    std::size_t next = manifest_.total_buildings();
    for (const std::string& name : order) {
        const auto it = patches.find(name);
        if (it == patches.end()) continue;  // consumed by a base building
        building b = std::move(it->second.front());
        for (std::size_t i = 1; i < it->second.size(); ++i)
            apply_delta_record(b, it->second[i]);
        patches.erase(it);
        fn(next++, std::move(b));
    }
}

corpus corpus_store::load_all() const {
    corpus c;
    c.name = manifest_.corpus_name;
    c.buildings.resize(manifest_.total_buildings());
    for_each_building([&](std::size_t index, building&& b) { c.buildings[index] = std::move(b); });
    return c;
}

corpus corpus_store::load_all_effective() const {
    corpus c;
    c.name = manifest_.corpus_name;
    for_each_building_effective([&](std::size_t index, building&& b) {
        if (index >= c.buildings.size()) c.buildings.resize(index + 1);
        c.buildings[index] = std::move(b);
    });
    return c;
}

std::shared_ptr<const corpus_store::block_index> corpus_store::index() const {
    const std::lock_guard<std::mutex> lock(slot_->m);
    if (slot_->index) return slot_->index;
    auto base = std::make_shared<block_index::base_blocks>();
    base->offsets.reserve(manifest_.total_buildings());
    for (std::size_t s = 0; s < manifest_.shards.size(); ++s) {
        const shard_entry& entry = manifest_.shards[s];
        const std::vector<block_ref> blocks = scan_blocks(shard_path(s));
        if (blocks.size() != entry.num_buildings)
            throw std::invalid_argument("corpus_store: shard " + entry.filename + " holds " +
                                        std::to_string(blocks.size()) +
                                        " buildings, manifest says " +
                                        std::to_string(entry.num_buildings));
        for (const block_ref& b : blocks) {
            base->first_index.try_emplace(b.name, base->offsets.size());
            base->offsets.push_back(b.offset);
        }
    }
    auto ix = std::make_shared<block_index>();
    ix->base = std::move(base);
    for (std::size_t d = 0; d < manifest_.deltas.size(); ++d)
        ix->add_delta(manifest_, d, join_path(dir_, manifest_.deltas[d].filename));
    slot_->index = std::move(ix);
    return slot_->index;
}

building corpus_store::read_at(const block_index& ix, std::size_t index) const {
    const std::size_t base_count = ix.base->offsets.size();
    std::optional<building> b;
    std::string name;
    if (index < base_count) {
        // The shard owning `index`: the last whose first index is <= it.
        const auto shard = std::upper_bound(
            manifest_.shards.begin(), manifest_.shards.end(), index,
            [](std::size_t i, const shard_entry& e) { return i < e.first_index; });
        b = read_block_at(
            shard_path(static_cast<std::size_t>(shard - manifest_.shards.begin()) - 1),
            ix.base->offsets[index]);
        // Delta records fold onto the first base block of their name only.
        const auto first = ix.base->first_index.find(b->name);
        if (first == ix.base->first_index.end() || first->second != index) return std::move(*b);
        name = b->name;
    } else {
        name = ix.tail[index - base_count];
    }
    const auto recs = ix.records.find(name);
    if (recs != ix.records.end()) {
        for (const block_index::record_ref& r : recs->second) {
            building record =
                read_block_at(join_path(dir_, manifest_.deltas[r.delta].filename), r.offset);
            // A new building is its first record; later records fold onto it.
            if (b)
                apply_delta_record(*b, record);
            else
                b = std::move(record);
        }
    }
    return std::move(*b);
}

std::optional<building> corpus_store::read_effective(std::size_t index) const {
    const std::shared_ptr<const block_index> ix = this->index();
    if (index >= ix->base->offsets.size() + ix->tail.size()) return std::nullopt;
    return read_at(*ix, index);
}

std::optional<located_building> corpus_store::read_effective(const std::string& name) const {
    const std::shared_ptr<const block_index> ix = this->index();
    std::size_t index = 0;
    if (const auto it = ix->base->first_index.find(name); it != ix->base->first_index.end())
        index = it->second;
    else if (const auto tail = ix->tail_position.find(name); tail != ix->tail_position.end())
        index = ix->base->offsets.size() + tail->second;
    else
        return std::nullopt;
    return located_building{index, read_at(*ix, index)};
}

corpus_store corpus_store::reopen() const {
    corpus_store next = open(dir_);
    std::shared_ptr<const block_index> built;
    {
        const std::lock_guard<std::mutex> lock(slot_->m);
        built = slot_->index;
    }
    const std::vector<delta_entry>& deltas = next.manifest_.deltas;
    // Carry the index over only when the new manifest extends this one:
    // same base shards, and this handle's delta rows as its prefix.
    if (!built || next.manifest_.shards != manifest_.shards ||
        deltas.size() < manifest_.deltas.size() ||
        !std::equal(manifest_.deltas.begin(), manifest_.deltas.end(), deltas.begin()))
        return next;
    auto ix = std::make_shared<block_index>(*built);
    for (std::size_t d = manifest_.deltas.size(); d < deltas.size(); ++d)
        ix->add_delta(next.manifest_, d, join_path(dir_, deltas[d].filename));
    next.slot_->index = std::move(ix);
    return next;
}

}  // namespace fisone::data
