#include "codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <stdexcept>

namespace fisone::api {

namespace {

// --- canonical scalar encoding ----------------------------------------------

/// Store \p v at \p dst as sizeof(T) little-endian bytes. The bytes are
/// formed by shifts in a local buffer and copied out whole: one portable
/// path for every host, which GCC (at -O2 and -O3, x86-64) turns into a
/// single move and which its loop vectoriser leaves as one.
template <class T>
void store_le(char* dst, T v) noexcept {
    char b[sizeof(T)];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < sizeof(T); ++i) b[i] = static_cast<char>(v >> (8 * i));
    std::memcpy(dst, b, sizeof(T));
}

/// Load sizeof(T) little-endian bytes from \p src; the mirror of `store_le`.
template <class T>
T load_le(const char* src) noexcept {
    unsigned char b[sizeof(T)];
    std::memcpy(b, src, sizeof(T));
    T v = 0;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v = static_cast<T>(v | static_cast<T>(b[i]) << (8 * i));
    return v;
}

/// Append-only little-endian byte writer into a caller-owned std::string
/// (so a frame's header and payload share one buffer).
class wire_writer {
public:
    explicit wire_writer(std::string& out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void raw(std::string_view s) { out_.append(s.data(), s.size()); }

    void str(std::string_view s) {
        u64(s.size());
        raw(s);
    }

    void vec_i32(const std::vector<int>& v) {
        u64(v.size());
        char* dst = grow(4 * v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            store_le(dst + 4 * i, static_cast<std::uint32_t>(v[i]));
    }

    /// Row-major cells as IEEE-754 bit patterns, sized once and stored in
    /// place (the matrix is the bulk of a building report).
    void matrix(const linalg::matrix& m) {
        u64(m.rows());
        u64(m.cols());
        const std::size_t n = m.rows() * m.cols();
        const double* src = m.data();
        char* dst = grow(8 * n);
        for (std::size_t i = 0; i < n; ++i)
            store_le(dst + 8 * i, std::bit_cast<std::uint64_t>(src[i]));
    }

private:
    template <class T>
    void put(T v) {
        char b[sizeof(T)];
        store_le(b, v);
        out_.append(b, sizeof(T));
    }

    /// Extend the buffer by \p n bytes and return where they start.
    char* grow(std::size_t n) {
        const std::size_t at = out_.size();
        out_.resize(at + n);
        return out_.data() + at;
    }

    std::string& out_;
};

/// Bounds-checked little-endian reader over a byte span. An overrun (or a
/// hostile count) sets `failed` and that read returns zero — callers check
/// once at the end. Each scalar checks the remaining bytes once; arrays
/// check their whole payload once, before reading it.
class wire_reader {
public:
    explicit wire_reader(std::string_view bytes) : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

    [[nodiscard]] std::size_t remaining() const noexcept {
        return static_cast<std::size_t>(end_ - p_);
    }
    [[nodiscard]] bool failed() const noexcept { return failed_; }
    [[nodiscard]] bool exhausted() const noexcept { return p_ == end_; }
    void fail() noexcept { failed_ = true; }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    bool boolean() { return u8() != 0; }
    double f64() { return std::bit_cast<double>(u64()); }

    /// Element count with a hostile-length guard: a count that could not
    /// possibly fit in the remaining bytes (each element needs at least
    /// \p min_element_bytes) fails before any allocation happens.
    std::size_t count(std::size_t min_element_bytes) {
        const std::uint64_t n = u64();
        if (failed_ || n > remaining() / min_element_bytes) {
            fail();
            return 0;
        }
        return static_cast<std::size_t>(n);
    }

    std::string str() {
        const std::size_t n = count(1);
        if (failed_) return {};
        std::string s(p_, n);
        p_ += n;
        return s;
    }

    std::vector<int> vec_i32() {
        const std::size_t n = count(4);
        std::vector<int> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<int>(static_cast<std::int32_t>(load_le<std::uint32_t>(p_ + 4 * i)));
        p_ += 4 * n;
        return v;
    }

    linalg::matrix matrix() {
        const std::uint64_t rows = u64();
        const std::uint64_t cols = u64();
        // Overflow-safe rows*cols*8 <= remaining check before allocating.
        // An R×0 matrix carries no payload bytes (the encoder legally
        // produces one, e.g. failed reports) — any row count is fine.
        if (failed_ || (cols != 0 && rows > remaining() / 8 / cols)) {
            fail();
            return {};
        }
        linalg::matrix m =
            linalg::matrix::uninit(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
        const std::size_t n = m.rows() * m.cols();
        double* dst = m.data();
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = std::bit_cast<double>(load_le<std::uint64_t>(p_ + 8 * i));
        p_ += 8 * n;
        return m;
    }

private:
    template <class T>
    T get() noexcept {
        if (remaining() < sizeof(T)) {
            failed_ = true;
            return T{};
        }
        const T v = load_le<T>(p_);
        p_ += sizeof(T);
        return v;
    }

    const char* p_;
    const char* end_;
    bool failed_ = false;
};

// --- message bodies ----------------------------------------------------------

void put_building(wire_writer& w, const data::building& b) {
    // The shared canonical walk — the same field sequence content_hash
    // digests, so the wire form and the content address cannot drift.
    // get_building below must mirror it (the round-trip tests pin that).
    data::visit_building_canonical(b, w);
}

data::building get_building(wire_reader& r) {
    data::building b;
    b.name = r.str();
    b.num_floors = static_cast<std::size_t>(r.u64());
    b.num_macs = static_cast<std::size_t>(r.u64());
    b.labeled_sample = static_cast<std::size_t>(r.u64());
    b.labeled_floor = r.i32();
    // One encoded sample is at least true_floor + device_id + count.
    const std::size_t num_samples = r.count(4 + 4 + 8);
    b.samples.reserve(num_samples);
    for (std::size_t i = 0; i < num_samples && !r.failed(); ++i) {
        data::rf_sample s;
        s.true_floor = r.i32();
        s.device_id = r.u32();
        const std::size_t num_obs = r.count(4 + 8);
        s.observations.reserve(num_obs);
        for (std::size_t j = 0; j < num_obs; ++j) {
            data::rf_observation o;
            o.mac_id = r.u32();
            o.rss_dbm = r.f64();
            s.observations.push_back(o);
        }
        b.samples.push_back(std::move(s));
    }
    return b;
}

/// The per-answer fields of a report: everything before its result. A
/// cache hit re-encodes only these (its index and probe time are its own).
void put_report_head(wire_writer& w, const runtime::building_report& report) {
    w.u64(report.index);
    w.str(report.name);
    w.boolean(report.ok);
    w.str(report.error);
    w.u64(report.seed);
    w.f64(report.seconds);
}

/// A report's result: the tail of its encoding, from `num_clusters` on.
void put_result(wire_writer& w, const core::fis_one_result& res) {
    w.u64(res.num_clusters);
    w.vec_i32(res.assignment);
    w.vec_i32(res.cluster_to_floor);
    w.vec_i32(res.predicted_floor);
    w.matrix(res.embeddings);
    w.boolean(res.ambiguous);
    w.boolean(res.has_ground_truth);
    w.f64(res.ari);
    w.f64(res.nmi);
    w.f64(res.edit_distance);
}

void put_report(wire_writer& w, const runtime::building_report& report) {
    put_report_head(w, report);
    put_result(w, report.result);
}

runtime::building_report get_report(wire_reader& r) {
    runtime::building_report report;
    report.index = static_cast<std::size_t>(r.u64());
    report.name = r.str();
    report.ok = r.boolean();
    report.error = r.str();
    report.seed = r.u64();
    report.seconds = r.f64();
    core::fis_one_result& res = report.result;
    res.num_clusters = static_cast<std::size_t>(r.u64());
    res.assignment = r.vec_i32();
    res.cluster_to_floor = r.vec_i32();
    res.predicted_floor = r.vec_i32();
    res.embeddings = r.matrix();
    res.ambiguous = r.boolean();
    res.has_ground_truth = r.boolean();
    res.ari = r.f64();
    res.nmi = r.f64();
    res.edit_distance = r.f64();
    return report;
}

void put_stats(wire_writer& w, const service::service_stats& s) {
    for (const service::stat_field& f : service::k_service_stat_fields) {
        if (f.kind != service::stat_kind::latency) {
            w.u64(s.*f.count);
            continue;
        }
        const obs::latency_summary& l = s.*f.latency;
        w.f64(l.p50);
        w.f64(l.p90);
        w.f64(l.p99);
        w.u64(l.count);
        w.f64(l.sum);
        w.u32(static_cast<std::uint32_t>(l.le.size()));
        for (const std::uint64_t c : l.le) w.u64(c);
    }
}

service::service_stats get_stats_body(wire_reader& r) {
    service::service_stats s;
    for (const service::stat_field& f : service::k_service_stat_fields) {
        if (f.kind != service::stat_kind::latency) {
            s.*f.count = static_cast<std::size_t>(r.u64());
            continue;
        }
        obs::latency_summary& l = s.*f.latency;
        l.p50 = r.f64();
        l.p90 = r.f64();
        l.p99 = r.f64();
        l.count = r.u64();
        l.sum = r.f64();
        // Hostile-count guard: every bucket count is a u64 still to come.
        const std::uint32_t n_le = r.u32();
        if (n_le > r.remaining() / 8) r.fail();
        if (!r.failed()) {
            l.le.reserve(n_le);
            for (std::uint32_t i = 0; i < n_le; ++i) l.le.push_back(r.u64());
        }
    }
    return s;
}

// --- per-message payload encoders -------------------------------------------

struct request_payload_encoder {
    wire_writer& w;

    void operator()(const identify_building_request& m) const {
        w.u64(m.correlation_id);
        w.boolean(m.has_index);
        w.u64(m.corpus_index);
        w.boolean(m.no_cache);
        put_building(w, m.b);
    }
    void operator()(const identify_shard_request& m) const {
        w.u64(m.correlation_id);
        w.str(m.ref.path);
        w.u64(m.ref.first_index);
        w.u64(m.ref.num_buildings);
    }
    void operator()(const get_stats_request& m) const { w.u64(m.correlation_id); }
    void operator()(const cancel_job_request& m) const {
        w.u64(m.correlation_id);
        w.u64(m.target_correlation_id);
    }
    void operator()(const flush_request& m) const { w.u64(m.correlation_id); }
    void operator()(const append_scans_request& m) const {
        w.u64(m.correlation_id);
        w.str(m.corpus_name);
        w.u64(m.records.size());
        for (const data::building& b : m.records) put_building(w, b);
    }
    void operator()(const watch_request& m) const {
        w.u64(m.correlation_id);
        w.str(m.name);
        w.boolean(m.subscribe);
    }
    void operator()(const identify_resident_request& m) const {
        w.u64(m.correlation_id);
        w.str(m.name);
        w.boolean(m.fresh);
    }
    void operator()(const subscribe_stats_request& m) const {
        w.u64(m.correlation_id);
        w.u32(m.interval_ms);
        w.boolean(m.subscribe);
    }
};

struct response_payload_encoder {
    wire_writer& w;

    void operator()(const building_response& m) const {
        w.u64(m.correlation_id);
        put_report(w, m.report);
    }
    void operator()(const stats_response& m) const {
        w.u64(m.correlation_id);
        put_stats(w, m.stats);
    }
    void operator()(const cancel_response& m) const {
        w.u64(m.correlation_id);
        w.u64(m.target_correlation_id);
        w.boolean(m.accepted);
    }
    void operator()(const flush_response& m) const { w.u64(m.correlation_id); }
    void operator()(const append_response& m) const {
        w.u64(m.correlation_id);
        w.u64(m.version);
        w.u64(m.accepted);
        w.u64(m.dirty);
    }
    void operator()(const watch_ack_response& m) const {
        w.u64(m.correlation_id);
        w.boolean(m.active);
    }
    void operator()(const push_response& m) const {
        w.u64(m.correlation_id);
        w.u64(m.version);
        put_report(w, m.report);
    }
    void operator()(const stats_update_response& m) const {
        w.u64(m.correlation_id);
        w.u64(m.window_seq);
        w.f64(m.window_seconds);
        w.u64(m.connections);
        w.u64(m.inflight);
        w.u64(m.admitted);
        w.u64(m.responses);
        w.u64(m.shed_overload);
        w.u64(m.shed_draining);
        w.u64(m.latency_count);
        w.f64(m.latency_sum);
        w.f64(m.latency_p50);
        w.f64(m.latency_p90);
        w.f64(m.latency_p99);
    }
    void operator()(const error_response& m) const {
        w.u64(m.correlation_id);
        w.u16(static_cast<std::uint16_t>(m.code));
        w.str(m.message);
    }
};

// --- per-tag payload decoders -----------------------------------------------

/// nullopt ⇔ the tag is not a request tag.
std::optional<request> parse_request(std::uint16_t tag, wire_reader& r) {
    switch (static_cast<message_tag>(tag)) {
        case message_tag::identify_building: {
            identify_building_request m;
            m.correlation_id = r.u64();
            m.has_index = r.boolean();
            m.corpus_index = r.u64();
            m.no_cache = r.boolean();
            m.b = get_building(r);
            return request(std::move(m));
        }
        case message_tag::identify_shard: {
            identify_shard_request m;
            m.correlation_id = r.u64();
            m.ref.path = r.str();
            m.ref.first_index = static_cast<std::size_t>(r.u64());
            m.ref.num_buildings = static_cast<std::size_t>(r.u64());
            return request(std::move(m));
        }
        case message_tag::get_stats: {
            get_stats_request m;
            m.correlation_id = r.u64();
            return request(m);
        }
        case message_tag::cancel_job: {
            cancel_job_request m;
            m.correlation_id = r.u64();
            m.target_correlation_id = r.u64();
            return request(m);
        }
        case message_tag::flush: {
            flush_request m;
            m.correlation_id = r.u64();
            return request(m);
        }
        case message_tag::append_scans: {
            append_scans_request m;
            m.correlation_id = r.u64();
            m.corpus_name = r.str();
            // One encoded record is at least the fixed building header
            // (name len + 3×u64 + i32 + sample count).
            const std::size_t num_records = r.count(8 + 8 + 8 + 8 + 4 + 8);
            m.records.reserve(num_records);
            for (std::size_t i = 0; i < num_records && !r.failed(); ++i)
                m.records.push_back(get_building(r));
            return request(std::move(m));
        }
        case message_tag::watch: {
            watch_request m;
            m.correlation_id = r.u64();
            m.name = r.str();
            m.subscribe = r.boolean();
            return request(std::move(m));
        }
        case message_tag::identify_resident: {
            identify_resident_request m;
            m.correlation_id = r.u64();
            m.name = r.str();
            m.fresh = r.boolean();
            return request(std::move(m));
        }
        case message_tag::subscribe_stats: {
            subscribe_stats_request m;
            m.correlation_id = r.u64();
            m.interval_ms = r.u32();
            m.subscribe = r.boolean();
            return request(m);
        }
        default: return std::nullopt;
    }
}

/// nullopt ⇔ the tag is not a response tag.
std::optional<response> parse_response(std::uint16_t tag, wire_reader& r) {
    switch (static_cast<message_tag>(tag)) {
        case message_tag::building_result: {
            building_response m;
            m.correlation_id = r.u64();
            m.report = get_report(r);
            return response(std::move(m));
        }
        case message_tag::stats_result: {
            stats_response m;
            m.correlation_id = r.u64();
            m.stats = get_stats_body(r);
            return response(m);
        }
        case message_tag::cancel_result: {
            cancel_response m;
            m.correlation_id = r.u64();
            m.target_correlation_id = r.u64();
            m.accepted = r.boolean();
            return response(m);
        }
        case message_tag::flush_done: {
            flush_response m;
            m.correlation_id = r.u64();
            return response(m);
        }
        case message_tag::append_result: {
            append_response m;
            m.correlation_id = r.u64();
            m.version = r.u64();
            m.accepted = r.u64();
            m.dirty = r.u64();
            return response(m);
        }
        case message_tag::watch_ack: {
            watch_ack_response m;
            m.correlation_id = r.u64();
            m.active = r.boolean();
            return response(m);
        }
        case message_tag::push_update: {
            push_response m;
            m.correlation_id = r.u64();
            m.version = r.u64();
            m.report = get_report(r);
            return response(std::move(m));
        }
        case message_tag::stats_update: {
            stats_update_response m;
            m.correlation_id = r.u64();
            m.window_seq = r.u64();
            m.window_seconds = r.f64();
            m.connections = r.u64();
            m.inflight = r.u64();
            m.admitted = r.u64();
            m.responses = r.u64();
            m.shed_overload = r.u64();
            m.shed_draining = r.u64();
            m.latency_count = r.u64();
            m.latency_sum = r.f64();
            m.latency_p50 = r.f64();
            m.latency_p90 = r.f64();
            m.latency_p99 = r.f64();
            return response(m);
        }
        case message_tag::error: {
            error_response m;
            m.correlation_id = r.u64();
            m.code = static_cast<error_code>(r.u16());
            m.message = r.str();
            return response(std::move(m));
        }
        default: return std::nullopt;
    }
}

// --- shared frame machinery --------------------------------------------------

template <class M>
decode_result<M> fail(error_code code, std::string message, bool fatal) {
    decode_result<M> out;
    out.error = decode_error{code, std::move(message)};
    out.fatal = fatal;
    return out;
}

/// Decode the payload of an already-framed message (header validated,
/// payload fully read — from here on every failure is recoverable).
template <class M, class ParseFn>
decode_result<M> decode_payload(std::uint32_t version, std::uint16_t tag,
                                std::string_view payload, ParseFn parse) {
    if (version != k_schema_version)
        return fail<M>(error_code::bad_version,
                       "schema version " + std::to_string(version) + " (speaking " +
                           std::to_string(k_schema_version) + ")",
                       false);
    wire_reader r(payload);
    std::optional<M> parsed = parse(tag, r);
    if (!parsed)
        return fail<M>(error_code::unknown_tag, "unknown message tag " + std::to_string(tag),
                       false);
    if (r.failed())
        return fail<M>(error_code::bad_payload,
                       "payload of tag " + std::to_string(tag) + " is malformed or too short",
                       false);
    if (!r.exhausted())
        return fail<M>(error_code::bad_payload,
                       "payload of tag " + std::to_string(tag) + " has " +
                           std::to_string(r.remaining()) + " trailing bytes",
                       false);
    decode_result<M> out;
    out.value = std::move(parsed);
    return out;
}

/// Split one frame header; shared by the stream and memory entry points.
struct frame_header {
    std::uint32_t version = 0;
    std::uint16_t tag = 0;
    std::uint32_t payload_len = 0;
};

template <class M>
std::optional<decode_result<M>> check_header(const char* header, frame_header& h) {
    if (std::memcmp(header, k_frame_magic, sizeof k_frame_magic) != 0)
        return fail<M>(error_code::bad_magic, "frame does not start with FIS1 magic", true);
    wire_reader r(std::string_view(header + 4, k_frame_header_size - 4));
    h.version = r.u32();
    h.tag = r.u16();
    h.payload_len = r.u32();
    if (h.payload_len > k_max_payload)
        return fail<M>(error_code::oversized,
                       "declared payload length " + std::to_string(h.payload_len) +
                           " exceeds the " + std::to_string(k_max_payload) + "-byte bound",
                       true);
    return std::nullopt;
}

template <class M, class ParseFn>
decode_result<M> read_frame(std::istream& in, ParseFn parse) {
    char header[k_frame_header_size];
    in.read(header, static_cast<std::streamsize>(sizeof header));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) {
        decode_result<M> out;
        out.eof = true;
        return out;
    }
    if (got < sizeof header)
        return fail<M>(error_code::truncated,
                       "stream ended inside a frame header (" + std::to_string(got) + " of " +
                           std::to_string(sizeof header) + " bytes)",
                       true);

    frame_header h;
    if (auto bad = check_header<M>(header, h)) return *std::move(bad);

    std::string payload(h.payload_len, '\0');
    in.read(payload.data(), static_cast<std::streamsize>(h.payload_len));
    if (static_cast<std::size_t>(in.gcount()) < h.payload_len)
        return fail<M>(error_code::truncated,
                       "stream ended inside a " + std::to_string(h.payload_len) +
                           "-byte payload",
                       true);

    return decode_payload<M>(h.version, h.tag, payload, parse);
}

template <class M, class ParseFn>
decode_result<M> decode_frame(std::string_view bytes, std::size_t* consumed, ParseFn parse) {
    if (consumed) *consumed = 0;
    if (bytes.empty()) {
        decode_result<M> out;
        out.eof = true;
        return out;
    }
    if (bytes.size() < k_frame_header_size)
        return fail<M>(error_code::truncated,
                       "buffer ended inside a frame header (" + std::to_string(bytes.size()) +
                           " of " + std::to_string(k_frame_header_size) + " bytes)",
                       true);

    frame_header h;
    if (auto bad = check_header<M>(bytes.data(), h)) return *std::move(bad);

    if (bytes.size() - k_frame_header_size < h.payload_len)
        return fail<M>(error_code::truncated,
                       "buffer ended inside a " + std::to_string(h.payload_len) +
                           "-byte payload",
                       true);
    if (consumed) *consumed = k_frame_header_size + h.payload_len;
    return decode_payload<M>(h.version, h.tag,
                             bytes.substr(k_frame_header_size, h.payload_len), parse);
}

/// Payload bytes to reserve before encoding: exact for the variable-size
/// parts that dominate a frame (embeddings, index vectors, scans), plus
/// slack for the fixed-width fields. A capacity hint only — the writer
/// grows past it if a message needs more.
constexpr std::size_t k_fixed_slack = 256;

std::size_t reserve_hint(const data::building& b) {
    std::size_t n = k_fixed_slack + b.name.size();
    for (const data::rf_sample& s : b.samples) n += 16 + 12 * s.observations.size();
    return n;
}

std::size_t reserve_hint(const core::fis_one_result& res) {
    return k_fixed_slack +
           4 * (res.assignment.size() + res.cluster_to_floor.size() +
                res.predicted_floor.size()) +
           8 * res.embeddings.rows() * res.embeddings.cols();
}

std::size_t reserve_hint(const runtime::building_report& r) {
    return reserve_hint(r.result) + r.name.size() + r.error.size();
}

template <class T>
std::size_t payload_hint(const T& m) {
    if constexpr (requires { m.report; }) {
        return reserve_hint(m.report);
    } else if constexpr (requires { m.b; }) {
        return reserve_hint(m.b);
    } else if constexpr (requires { m.records; }) {
        std::size_t n = k_fixed_slack;
        for (const data::building& b : m.records) n += reserve_hint(b);
        return n;
    } else {
        return k_fixed_slack;
    }
}

/// Start a frame in \p w: magic, version, \p tag and a zero payload
/// length that `seal_frame` patches once the payload is known.
void begin_frame(wire_writer& w, message_tag tag) {
    w.raw({k_frame_magic, sizeof k_frame_magic});
    w.u32(k_schema_version);
    w.u16(static_cast<std::uint16_t>(tag));
    w.u32(0);
}

/// Patch the payload length of the frame that starts \p out.
void seal_frame(std::string& out, std::size_t payload) {
    // A frame the protocol cannot carry must fail loudly at the encode
    // boundary: past the bound the decoder would fatally reject it, and
    // past 2^32 the u32 length field would wrap and desynchronise the
    // stream.
    if (payload > k_max_payload)
        throw std::length_error("api::encode: " + std::to_string(payload) +
                                "-byte payload exceeds the " + std::to_string(k_max_payload) +
                                "-byte frame bound");
    store_le(out.data() + k_frame_header_size - 4, static_cast<std::uint32_t>(payload));
}

template <class M, class Encoder>
std::string encode_message(const M& m) {
    std::string out;
    out.reserve(k_frame_header_size +
                std::visit([](const auto& msg) { return payload_hint(msg); }, m));
    wire_writer w(out);
    begin_frame(w, tag_of(m));
    std::visit(Encoder{w}, m);
    seal_frame(out, out.size() - k_frame_header_size);
    return out;
}

}  // namespace

std::string encode(const request& r) {
    return encode_message<request, request_payload_encoder>(r);
}

std::string encode(const response& r) {
    return encode_message<response, response_payload_encoder>(r);
}

std::size_t building_head_size(const runtime::building_report& report) noexcept {
    // Header, correlation id, index, name, ok, error, seed, seconds.
    return k_frame_header_size + 8 + 8 + (8 + report.name.size()) + 1 +
           (8 + report.error.size()) + 8 + 8;
}

std::string encode_building_head(std::uint64_t correlation_id,
                                 const runtime::building_report& report, std::size_t tail_size) {
    std::string out;
    out.reserve(building_head_size(report));
    wire_writer w(out);
    begin_frame(w, message_tag::building_result);
    w.u64(correlation_id);
    put_report_head(w, report);
    seal_frame(out, out.size() - k_frame_header_size + tail_size);
    return out;
}

std::string encode_result_tail(const core::fis_one_result& result) {
    std::string out;
    out.reserve(reserve_hint(result));
    wire_writer w(out);
    put_result(w, result);
    return out;
}

decode_result<request> read_request(std::istream& in) {
    return read_frame<request>(in, [](std::uint16_t tag, wire_reader& r) {
        return parse_request(tag, r);
    });
}

decode_result<response> read_response(std::istream& in) {
    return read_frame<response>(in, [](std::uint16_t tag, wire_reader& r) {
        return parse_response(tag, r);
    });
}

decode_result<request> decode_request(std::string_view bytes, std::size_t* consumed) {
    return decode_frame<request>(bytes, consumed, [](std::uint16_t tag, wire_reader& r) {
        return parse_request(tag, r);
    });
}

decode_result<response> decode_response(std::string_view bytes, std::size_t* consumed) {
    return decode_frame<response>(bytes, consumed, [](std::uint16_t tag, wire_reader& r) {
        return parse_response(tag, r);
    });
}

void frame_splitter::append(std::string_view bytes) {
    if (error_) return;
    // Compact the consumed prefix before growing: keeps the buffer bounded
    // by one maximal frame plus one append chunk.
    if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    buf_.append(bytes.data(), bytes.size());
}

std::optional<std::string> frame_splitter::next() {
    if (error_) return std::nullopt;
    const std::string_view pending(buf_.data() + pos_, buf_.size() - pos_);
    // Validate as much of the header as has arrived: magic byte-by-byte, the
    // declared length as soon as it is complete. Rejecting from the partial
    // header means a hostile peer cannot make us buffer an oversized
    // payload, and a mid-stream desync is caught at the first wrong byte.
    const std::size_t magic_got = std::min(pending.size(), sizeof k_frame_magic);
    if (std::memcmp(pending.data(), k_frame_magic, magic_got) != 0) {
        error_ = decode_error{error_code::bad_magic, "frame does not start with FIS1 magic"};
        return std::nullopt;
    }
    if (pending.size() < k_frame_header_size) return std::nullopt;
    const std::uint32_t payload_len = load_le<std::uint32_t>(pending.data() + 10);
    if (payload_len > k_max_payload) {
        error_ = decode_error{error_code::oversized,
                              "declared payload length " + std::to_string(payload_len) +
                                  " exceeds the " + std::to_string(k_max_payload) +
                                  "-byte bound"};
        return std::nullopt;
    }
    const std::size_t frame_size = k_frame_header_size + payload_len;
    if (pending.size() < frame_size) return std::nullopt;
    std::string frame(pending.substr(0, frame_size));
    pos_ += frame_size;
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    }
    return frame;
}

std::string make_frame(std::uint16_t tag, std::string_view payload, std::uint32_t version,
                       std::string_view magic) {
    std::string out;
    out.reserve(magic.size() + 10 + payload.size());
    wire_writer w(out);
    w.raw(magic);
    w.u32(version);
    w.u16(tag);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.raw(payload);
    return out;
}

}  // namespace fisone::api
