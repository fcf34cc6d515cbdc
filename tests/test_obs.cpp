// Tests for the tracing subsystem: the disabled path records nothing and
// installs no context, nested scoped_spans parent-link correctly, a
// cross-thread context_guard stitches worker spans into the submitting
// trace, ring wrap drops oldest records without corrupting survivors,
// the Chrome trace-event dump is well-formed, stage statistics accumulate
// exact percentiles, disabling tracing keeps the recorded tape readable,
// and — the observe-don't-steer contract — NDJSON out of the wire-framed
// API server is byte-identical with tracing on and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "api/server.hpp"
#include "obs/trace.hpp"
#include "service/ndjson_export.hpp"
#include "sim/building_generator.hpp"

namespace {

using namespace fisone;

/// Every test leaves the global recorder how it found it: off and empty.
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::set_tracing_enabled(false);
        obs::reset();
    }
    void TearDown() override {
        obs::set_tracing_enabled(false);
        obs::reset();
        obs::set_ring_capacity(16384);
    }
};

const obs::span_record* find_span(const std::vector<obs::span_record>& spans,
                                  const std::string& name) {
    for (const obs::span_record& s : spans) {
        if (s.name != nullptr && name == s.name) return &s;
    }
    return nullptr;
}

data::building tiny_building(std::size_t i) {
    sim::building_spec spec;
    spec.name = "obs-" + std::to_string(i);
    spec.num_floors = 3;
    spec.samples_per_floor = 12;
    spec.aps_per_floor = 6;
    spec.seed = 2200 + i;
    return sim::generate_building(spec).building;
}

std::string run_corpus_ndjson(std::size_t buildings) {
    api::server_config cfg;
    cfg.service.pipeline.gnn.embedding_dim = 8;
    cfg.service.pipeline.gnn.epochs = 2;
    cfg.service.pipeline.num_threads = 1;
    cfg.service.seed = 5;
    cfg.enable_cache = false;
    api::server srv(cfg);
    api::client cli(srv);
    for (std::size_t i = 0; i < buildings; ++i)
        static_cast<void>(cli.identify(tiny_building(i), i));
    static_cast<void>(cli.flush());
    std::ostringstream out;
    service::export_input_order(out, cli.reports());
    return out.str();
}

// --- disabled path -----------------------------------------------------------

TEST_F(ObsTest, DisabledSpansRecordNothingAndInstallNoContext) {
    ASSERT_FALSE(obs::tracing_enabled());
    {
        obs::scoped_span span("outer");
        EXPECT_FALSE(obs::current_context().active());
        EXPECT_FALSE(span.context().active());
        obs::scoped_span inner("inner");
        EXPECT_FALSE(obs::current_context().active());
    }
    EXPECT_EQ(obs::emit_child_span("orphan", obs::current_context(), 1, 2), 0u);
    const obs::trace_stats st = obs::stats();
    EXPECT_EQ(st.recorded, 0u);
    EXPECT_EQ(st.dropped, 0u);
    EXPECT_TRUE(obs::snapshot().empty());
    EXPECT_TRUE(obs::stage_stats().empty());
}

// --- parentage ---------------------------------------------------------------

TEST_F(ObsTest, NestedSpansLinkChildToParentWithinOneTrace) {
    obs::set_tracing_enabled(true);
    {
        obs::scoped_span outer("outer");
        ASSERT_TRUE(outer.context().active());
        EXPECT_EQ(obs::current_context().span_id, outer.context().span_id);
        obs::scoped_span inner("inner");
        EXPECT_EQ(obs::current_context().span_id, inner.context().span_id);
        EXPECT_EQ(inner.context().trace_id, outer.context().trace_id);
    }
    EXPECT_FALSE(obs::current_context().active());  // restored after both ended

    const std::vector<obs::span_record> spans = obs::snapshot();
    ASSERT_EQ(spans.size(), 2u);
    const obs::span_record* outer = find_span(spans, "outer");
    const obs::span_record* inner = find_span(spans, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->parent_id, 0u);  // rooted a fresh trace
    EXPECT_EQ(inner->parent_id, outer->span_id);
    EXPECT_EQ(inner->trace_id, outer->trace_id);
    EXPECT_LE(outer->start_ns, inner->start_ns);
    EXPECT_GE(outer->dur_ns, inner->dur_ns);
}

TEST_F(ObsTest, SeparateRootsGetSeparateTraces) {
    obs::set_tracing_enabled(true);
    { obs::scoped_span a("a"); }
    { obs::scoped_span b("b"); }
    const std::vector<obs::span_record> spans = obs::snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_NE(spans[0].trace_id, spans[1].trace_id);
}

TEST_F(ObsTest, ContextGuardCarriesTraceAcrossThreads) {
    obs::set_tracing_enabled(true);
    obs::trace_context submitted;
    {
        obs::scoped_span submit("submit");
        submitted = submit.context();
        std::thread worker([submitted] {
            obs::context_guard guard(submitted);
            obs::scoped_span work("work");
        });
        worker.join();
    }
    const std::vector<obs::span_record> spans =
        obs::spans_for_trace(submitted.trace_id);
    ASSERT_EQ(spans.size(), 2u);
    const obs::span_record* submit = find_span(spans, "submit");
    const obs::span_record* work = find_span(spans, "work");
    ASSERT_NE(submit, nullptr);
    ASSERT_NE(work, nullptr);
    EXPECT_EQ(work->parent_id, submit->span_id);
    EXPECT_NE(work->tid, submit->tid);  // distinct emitting rings
}

TEST_F(ObsTest, InactiveContextGuardIsANoOp) {
    obs::set_tracing_enabled(true);
    obs::scoped_span outer("outer");
    const std::uint64_t before = obs::current_context().span_id;
    {
        obs::context_guard guard(obs::trace_context{});  // inactive
        EXPECT_EQ(obs::current_context().span_id, before);
    }
    EXPECT_EQ(obs::current_context().span_id, before);
}

// --- ring wrap ---------------------------------------------------------------

TEST_F(ObsTest, RingWrapDropsOldestKeepsNewestIntact) {
    obs::set_ring_capacity(8);
    obs::set_tracing_enabled(true);
    for (int i = 0; i < 20; ++i) {
        obs::scoped_span span("wrap");
    }
    const obs::trace_stats st = obs::stats();
    EXPECT_EQ(st.recorded, 8u);
    EXPECT_EQ(st.dropped, 12u);
    const std::vector<obs::span_record> spans = obs::snapshot();
    ASSERT_EQ(spans.size(), 8u);
    // Survivors are the 12 oldest dropped: the resident 8 must be strictly
    // increasing span ids (records never tear or interleave on wrap) and be
    // the latest ones minted.
    for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_LT(spans[i - 1].span_id, spans[i].span_id);
        EXPECT_STREQ(spans[i].name, "wrap");
    }
    // Stage stats see every span, wrap or not: the tape is bounded, the
    // aggregates are not.
    const std::vector<obs::stage_snapshot> stages = obs::stage_stats();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].latency.count, 20u);
}

// --- lifecycle ---------------------------------------------------------------

TEST_F(ObsTest, DisablingKeepsTapeReadableAndReenablingAppends) {
    obs::set_tracing_enabled(true);
    { obs::scoped_span span("first"); }
    obs::set_tracing_enabled(false);
    { obs::scoped_span span("ignored"); }  // off: not recorded
    EXPECT_EQ(obs::snapshot().size(), 1u);
    obs::set_tracing_enabled(true);
    { obs::scoped_span span("second"); }
    const std::vector<obs::span_record> spans = obs::snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_NE(find_span(spans, "first"), nullptr);
    EXPECT_NE(find_span(spans, "second"), nullptr);
    EXPECT_EQ(find_span(spans, "ignored"), nullptr);
}

TEST_F(ObsTest, ResetDropsTapeAndStages) {
    obs::set_tracing_enabled(true);
    { obs::scoped_span span("gone"); }
    obs::reset();
    EXPECT_TRUE(obs::snapshot().empty());
    EXPECT_TRUE(obs::stage_stats().empty());
    EXPECT_TRUE(obs::tracing_enabled());  // reset leaves the switch alone
    { obs::scoped_span span("fresh"); }
    EXPECT_EQ(obs::snapshot().size(), 1u);
}

// --- exports -----------------------------------------------------------------

TEST_F(ObsTest, ChromeTraceDumpIsWellFormed) {
    obs::set_tracing_enabled(true);
    {
        obs::scoped_span outer("outer");
        obs::scoped_span inner("inner");
    }
    const std::string json = obs::chrome_trace_json();
    // First key is the format version — consumers key off it before parsing.
    EXPECT_EQ(json.rfind("{\"traceFormatVersion\":\"fisone-trace/v1\"", 0), 0u);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"recorded\":2"), std::string::npos);
    EXPECT_EQ(json.back(), '}');
    // Balanced braces/brackets — cheap structural sanity without a parser
    // (no string in the dump contains braces; names are literals, ids hex).
    int braces = 0, brackets = 0;
    for (const char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST_F(ObsTest, EmptyTapeStillDumpsValidJson) {
    const std::string json = obs::chrome_trace_json();
    EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
    EXPECT_NE(json.find("\"recorded\":0"), std::string::npos);
}

TEST_F(ObsTest, StageStatsAccumulateExactPercentiles) {
    obs::set_tracing_enabled(true);
    for (int i = 0; i < 10; ++i) {
        obs::scoped_span span("stage.a");
    }
    { obs::scoped_span span("stage.b"); }
    const std::vector<obs::stage_snapshot> stages = obs::stage_stats();
    ASSERT_EQ(stages.size(), 2u);  // sorted by name (map order)
    EXPECT_EQ(stages[0].stage, "stage.a");
    EXPECT_EQ(stages[0].latency.count, 10u);
    EXPECT_GE(stages[0].latency.p99, stages[0].latency.p50);
    EXPECT_GT(stages[0].latency.sum, 0.0);
    EXPECT_EQ(stages[1].stage, "stage.b");
    EXPECT_EQ(stages[1].latency.count, 1u);
}

// --- the observe-don't-steer contract ---------------------------------------

TEST_F(ObsTest, NdjsonByteIdenticalWithTracingOnAndOff) {
    const std::string off = run_corpus_ndjson(2);
    obs::set_tracing_enabled(true);
    const std::string on = run_corpus_ndjson(2);
    obs::set_tracing_enabled(false);
    ASSERT_FALSE(off.empty());
    EXPECT_EQ(off, on);
    // And the traced run actually instrumented the pipeline: the full stage
    // ladder is present, service and pipeline layers both.
    const std::vector<obs::stage_snapshot> stages = obs::stage_stats();
    std::vector<std::string> names;
    names.reserve(stages.size());
    for (const obs::stage_snapshot& s : stages) names.push_back(s.stage);
    for (const char* expect :
         {"api.identify", "service.queue_wait", "service.execute",
          "pipeline.graph_build", "pipeline.gnn_embed", "pipeline.cluster",
          "pipeline.index", "pipeline.export", "service.report"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expect), names.end())
            << "missing stage " << expect;
    }
}

}  // namespace
