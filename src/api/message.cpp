#include "message.hpp"

namespace fisone::api {

const char* error_code_name(error_code code) noexcept {
    switch (code) {
        case error_code::none: return "none";
        case error_code::bad_magic: return "bad_magic";
        case error_code::truncated: return "truncated";
        case error_code::oversized: return "oversized";
        case error_code::bad_version: return "bad_version";
        case error_code::unknown_tag: return "unknown_tag";
        case error_code::bad_payload: return "bad_payload";
        case error_code::bad_request: return "bad_request";
        case error_code::overloaded: return "overloaded";
        case error_code::draining: return "draining";
        case error_code::backend_unavailable: return "backend_unavailable";
        case error_code::deadline_exceeded: return "deadline_exceeded";
    }
    return "unknown";
}

std::uint64_t correlation_id(const request& r) noexcept {
    return std::visit([](const auto& m) { return m.correlation_id; }, r);
}

std::uint64_t correlation_id(const response& r) noexcept {
    return std::visit([](const auto& m) { return m.correlation_id; }, r);
}

message_tag tag_of(const request& r) noexcept {
    struct visitor {
        message_tag operator()(const identify_building_request&) const {
            return message_tag::identify_building;
        }
        message_tag operator()(const identify_shard_request&) const {
            return message_tag::identify_shard;
        }
        message_tag operator()(const get_stats_request&) const { return message_tag::get_stats; }
        message_tag operator()(const cancel_job_request&) const { return message_tag::cancel_job; }
        message_tag operator()(const flush_request&) const { return message_tag::flush; }
        message_tag operator()(const append_scans_request&) const {
            return message_tag::append_scans;
        }
        message_tag operator()(const watch_request&) const { return message_tag::watch; }
        message_tag operator()(const identify_resident_request&) const {
            return message_tag::identify_resident;
        }
        message_tag operator()(const subscribe_stats_request&) const {
            return message_tag::subscribe_stats;
        }
    };
    return std::visit(visitor{}, r);
}

message_tag tag_of(const response& r) noexcept {
    struct visitor {
        message_tag operator()(const building_response&) const {
            return message_tag::building_result;
        }
        message_tag operator()(const stats_response&) const { return message_tag::stats_result; }
        message_tag operator()(const cancel_response&) const { return message_tag::cancel_result; }
        message_tag operator()(const flush_response&) const { return message_tag::flush_done; }
        message_tag operator()(const append_response&) const { return message_tag::append_result; }
        message_tag operator()(const watch_ack_response&) const { return message_tag::watch_ack; }
        message_tag operator()(const push_response&) const { return message_tag::push_update; }
        message_tag operator()(const stats_update_response&) const {
            return message_tag::stats_update;
        }
        message_tag operator()(const error_response&) const { return message_tag::error; }
    };
    return std::visit(visitor{}, r);
}

}  // namespace fisone::api
