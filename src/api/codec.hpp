#pragma once

/// \file codec.hpp
/// Canonical binary codec for the API messages: length-prefixed frames,
/// little-endian scalars, explicit schema version. One frame is
///
///   offset  size  field
///        0     4  magic "FIS1"
///        4     4  u32 schema version (`k_schema_version`)
///        8     2  u16 message tag (`message_tag`)
///       10     4  u32 payload length (bytes that follow)
///       14     …  payload (message body, correlation id first)
///
/// Everything is encoded with fixed-width little-endian integers and
/// IEEE-754 bit patterns for doubles, independent of the host — encoding
/// is a *canonical serialisation*: the same logical message always
/// produces the same bytes, which is what makes the in-process loopback
/// transport byte-identical to the framed-stream path.
///
/// Decoding never exhibits UB on hostile input. Every failure is typed
/// (`error_code`) and classified as *fatal* (framing integrity lost —
/// bad magic, truncation, oversized declared length; the stream cannot be
/// resynchronised and reading must stop) or *recoverable* (the frame
/// boundary is still trustworthy — wrong schema version, unknown tag,
/// malformed payload; the decoder skips the frame and the next read
/// proceeds). Declared payload lengths are bounds-checked *before* any
/// allocation, so an adversarial length cannot trigger a huge allocation.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "message.hpp"

namespace fisone::api {

/// Frame magic: the four ASCII bytes "FIS1".
inline constexpr char k_frame_magic[4] = {'F', 'I', 'S', '1'};

/// Fixed frame-header size in bytes (magic + version + tag + length).
inline constexpr std::size_t k_frame_header_size = 14;

/// Hard bound on a declared payload length. Generous for any real
/// building (a 64 MiB payload is ≈ 8M observations) while keeping a
/// hostile length from looking like a plausible allocation.
inline constexpr std::size_t k_max_payload = 64u << 20;

/// Encode one message as a complete frame (header + payload).
/// \throws std::length_error when the payload exceeds `k_max_payload` —
///         the protocol cannot carry such a frame, and silently emitting
///         one would only move the failure to the peer's decoder.
[[nodiscard]] std::string encode(const request& r);
[[nodiscard]] std::string encode(const response& r);

/// A `building_result` frame in two pieces, for answers whose result is
/// already encoded (a result-cache entry). The report's encoding splits at
/// `num_clusters`: the *head* is the frame header, the correlation id and
/// the report's per-answer fields (index, name, ok, error, seed, seconds);
/// the *tail* is the result. For every id and report,
/// `encode_building_head(id, report, tail.size()) + encode_result_tail(report.result)`
/// is exactly `encode(response{building_response{id, report}})`.
/// \throws std::length_error as `encode` does, on the whole frame's payload.
[[nodiscard]] std::string encode_building_head(std::uint64_t correlation_id,
                                               const runtime::building_report& report,
                                               std::size_t tail_size);
[[nodiscard]] std::string encode_result_tail(const core::fis_one_result& result);

/// Bytes of \p report's `building_result` frame before its tail: where a
/// whole encoded frame of this report splits.
[[nodiscard]] std::size_t building_head_size(const runtime::building_report& report) noexcept;

/// A typed decode failure.
struct decode_error {
    error_code code = error_code::none;
    std::string message;
};

/// Outcome of pulling one frame off a stream. Exactly one of
/// {value, error, eof} is active: `eof` is a clean end-of-stream before
/// any header byte; `error` carries the typed failure (with `fatal`
/// saying whether the stream can still be read); otherwise `value` holds
/// the decoded message.
template <class M>
struct decode_result {
    std::optional<M> value;
    std::optional<decode_error> error;
    bool eof = false;
    bool fatal = false;  ///< meaningful only when `error` is set

    [[nodiscard]] bool ok() const noexcept { return value.has_value(); }
};

/// Read and decode one request / response frame from \p in. Recoverable
/// failures consume the whole frame, so the next call reads the next one.
[[nodiscard]] decode_result<request> read_request(std::istream& in);
[[nodiscard]] decode_result<response> read_response(std::istream& in);

/// Decode one frame from memory. \p consumed (optional) receives how many
/// bytes of \p bytes the frame spanned (0 when eof/fatal before a length
/// was trusted).
[[nodiscard]] decode_result<request> decode_request(std::string_view bytes,
                                                    std::size_t* consumed = nullptr);
[[nodiscard]] decode_result<response> decode_response(std::string_view bytes,
                                                      std::size_t* consumed = nullptr);

/// Assemble a raw frame around an arbitrary payload — the adversarial
/// tests' tool for crafting wrong-version / unknown-tag / short frames.
[[nodiscard]] std::string make_frame(std::uint16_t tag, std::string_view payload,
                                     std::uint32_t version = k_schema_version,
                                     std::string_view magic = {k_frame_magic, 4});

/// Incremental frame reassembly for byte-stream transports (TCP `recv`
/// hands the codec arbitrary chunks: half a header, three frames and a
/// tail, one byte at a time — any split is legal). `append` buffered bytes
/// as they arrive; `next` extracts complete frames in order. Framing
/// integrity is validated as early as the bytes allow: a bad magic or an
/// oversized declared length fails permanently (`error()` set — the stream
/// cannot be resynchronised and the connection must close), *before* the
/// bogus payload is ever buffered. Frames that are well-framed but carry a
/// wrong version / unknown tag / malformed payload pass through — the
/// message-level decoder turns those into recoverable typed errors.
///
/// Memory: the internal buffer never holds more than one maximal frame
/// (`k_frame_header_size + k_max_payload`) plus one `append` chunk, because
/// complete frames are surrendered eagerly and oversized declarations are
/// rejected from the header alone.
class frame_splitter {
public:
    /// Buffer \p bytes. No-op once a fatal framing error was detected.
    void append(std::string_view bytes);

    /// Extract the next complete frame (header + payload), or nullopt when
    /// more bytes are needed or framing failed (check `error()`).
    [[nodiscard]] std::optional<std::string> next();

    /// The fatal framing failure, if one was detected.
    [[nodiscard]] const std::optional<decode_error>& error() const noexcept { return error_; }

    /// Bytes buffered but not yet surrendered as a frame.
    [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - pos_; }

    /// True when the stream sits on a clean frame boundary — EOF here is a
    /// graceful close; EOF with `buffered() > 0` is a mid-frame disconnect.
    [[nodiscard]] bool at_boundary() const noexcept { return buffered() == 0 && !error_; }

private:
    std::string buf_;
    std::size_t pos_ = 0;  ///< consumed prefix of `buf_` (compacted lazily)
    std::optional<decode_error> error_;
};

}  // namespace fisone::api
