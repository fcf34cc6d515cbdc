#pragma once

/// \file client.hpp
/// Typed client facade over the API transports, so examples and tests
/// exercise the *real wire path*: every call encodes a request frame with
/// the canonical codec, and every result comes back by decoding response
/// frames — in both modes:
///
///  - **loopback**: frames go straight to an in-process `server::session`
///    and response frames come back through its sink. Synchronous-ish:
///    cache hits, stats, cancel and flush answers are collected by the
///    time the call returns; building results arrive as jobs complete.
///  - **framed stream**: frames are written to an `std::ostream` (the
///    server's input). Responses are collected later by `ingest`-ing the
///    server's output stream — the batch shape of a one-shot connection
///    (write requests, `server::serve`, read responses).
///
/// The two modes share every byte of codec, which is what makes them
/// byte-identical per frame. Collected responses are kept in arrival
/// (= completion) order.
///
/// Not thread-safe: one client is one caller. Read accessors assume the
/// connection is quiescent (after `flush()` / `ingest`).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "message.hpp"
#include "server.hpp"

namespace fisone::api {

class client {
public:
    /// Loopback client over \p srv (opens a dedicated session).
    explicit client(server& srv);

    /// Framed-stream client: request frames are written to \p to_server.
    /// The stream must outlive the client (or at least every send call).
    explicit client(std::ostream& to_server);

    /// Submit one building (server-assigned corpus index).
    /// Returns the request's correlation id.
    std::uint64_t identify(const data::building& b);

    /// Submit one building pinned to \p corpus_index — resubmitting a
    /// corpus at the same indices is what makes the server's result cache
    /// hit.
    std::uint64_t identify(const data::building& b, std::uint64_t corpus_index);

    /// Submit an on-disk shard (one building_response per building).
    std::uint64_t identify_shard(const service::shard_ref& ref);

    /// Ask for service + cache stats.
    std::uint64_t get_stats();

    /// Ask to cancel the job submitted under \p target_correlation_id.
    std::uint64_t cancel(std::uint64_t target_correlation_id);

    /// Completion barrier: the server answers only after every prior
    /// job's responses were emitted. In loopback mode, returns with every
    /// response collected.
    std::uint64_t flush();

    /// Append a batch of scan records to the store serving \p corpus_name.
    /// Answered with `append_response` once the delta shard and manifest
    /// are written then renamed into place, not fsynced (a bare
    /// `api::server` answers a typed bad_request: appends are a
    /// federation verb).
    std::uint64_t append_scans(const std::string& corpus_name,
                               const std::vector<data::building>& records);

    /// Subscribe to (or with \p subscribe false, drop) re-identification
    /// pushes for building \p name. Answered with `watch_ack_response`;
    /// pushes arrive later as `push_update_response` frames carrying this
    /// call's correlation id.
    std::uint64_t watch(const std::string& name, bool subscribe = true);

    /// Framed mode: decode every response frame in \p from_server into
    /// the collected set. Stops at EOF or the first fatal framing error.
    /// Returns the number of frames decoded (errors included as
    /// `error_response` entries with `error_code` context preserved).
    std::size_t ingest(std::istream& from_server);

    /// Every collected response, in arrival (completion) order.
    [[nodiscard]] const std::vector<response>& responses() const noexcept { return responses_; }

    /// All building reports across collected responses, in arrival order;
    /// pass a correlation id to restrict to one request's reports.
    [[nodiscard]] std::vector<runtime::building_report> reports() const;
    [[nodiscard]] std::vector<runtime::building_report> reports(
        std::uint64_t correlation_id) const;

    /// The most recent stats_response, if any.
    [[nodiscard]] std::optional<service::service_stats> last_stats() const;

    /// Typed protocol errors received so far.
    [[nodiscard]] std::vector<error_response> errors() const;

    /// Loopback mode: concatenated raw response frames, exactly as they
    /// crossed the transport — the byte-identity probe against a framed
    /// run (whose raw bytes are the server's output stream itself).
    [[nodiscard]] const std::string& raw_response_bytes() const noexcept { return raw_; }

private:
    void send(const request& req);
    void collect_frame(std::string_view frame);

    std::uint64_t next_correlation_ = 1;
    std::optional<server::session> session_;  ///< loopback mode
    std::ostream* to_server_ = nullptr;       ///< framed mode
    std::mutex collect_m_;  ///< loopback sink runs on worker threads
    std::vector<response> responses_;
    std::string raw_;
};

}  // namespace fisone::api
