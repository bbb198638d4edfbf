// cryo::serve tests: wire-format round trips, fingerprint coalescing,
// bounded-queue backpressure, and byte-identity of service responses
// against direct CryoSocFlow calls.
//
// The service tests use a tiny INV-only catalog in a scratch artifact
// store (characterization stays in the millisecond range) and the cheap
// query kinds (leakage / sram / sweep-leakage) that never synthesize the
// SoC; the full-catalog equivalence test loads the committed Liberty
// artifacts like test_flow does.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/flow.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace cryo::serve {
namespace {

namespace fs = std::filesystem;
using core::Corner;
using core::CryoSocFlow;
using core::FlowConfig;
using core::FlowError;

FlowConfig tiny_config(const std::string& lib_dir) {
  FlowConfig config;
  config.calibrate_devices = false;
  config.lib_dir = lib_dir;
  config.catalog.only_bases = {"INV"};
  config.catalog.drives = {1};
  config.catalog.extra_drives_common = {};
  config.catalog.include_slvt = false;
  return config;
}

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

// One richly-populated request per kind, exercising every serialized
// field.
std::vector<FlowRequest> sample_requests() {
  const Corner c{0.7, 77.0, "cold"};
  std::vector<FlowRequest> requests;
  requests.push_back(timing_request(c, "rq-timing"));

  power::ActivityProfile profile;
  profile.clock_frequency = 1.25e9;
  profile.default_activity = 0.05;
  profile.unit_activity = {{"alu", 0.45}, {"pc", 0.3}};
  profile.sram_reads_per_cycle = {{"l1d_data", 0.125}};
  profile.sram_writes_per_cycle = {{"l1d_data", 0.0625}};
  requests.push_back(power_request(c, profile, "rq-power"));

  FlowRequest measured;
  measured.kind = QueryKind::kMeasuredPower;
  measured.id = "rq-measured";
  measured.corner = c;
  measured.activity.clock_frequency = 2e9;
  measured.activity.cycles = 1000;
  measured.activity.events = 4321;
  measured.activity.glitches = 17;
  measured.activity.net_toggles = {5, 0, 12};
  measured.activity.net_glitches = {1, 0, 0};
  measured.activity.sram_reads_per_cycle = {{"l1i_tags", 0.5}};
  requests.push_back(measured);

  requests.push_back(leakage_request(c, "rq-leak"));
  requests.push_back(sram_request(c, {256, 32}, "rq-sram"));

  SweepQuery sweep;
  sweep.corners = {Corner::room(), Corner::cryo()};
  sweep.run_timing = false;
  sweep.run_leakage = true;
  sweep.run_feasibility = true;
  sweep.cycles_per_classification = 1500.0;
  sweep.qubits = 27;
  sweep.profile = profile;
  requests.push_back(sweep_request(sweep, "rq-sweep"));
  return requests;
}

// ---- Wire format ---------------------------------------------------------

TEST(ServeWire, RequestRoundTripsByteIdenticallyForEveryKind) {
  for (const FlowRequest& request : sample_requests()) {
    const std::string wire = to_json(request).dump(0);
    const FlowRequest parsed = parse_request(wire);
    EXPECT_EQ(to_json(parsed).dump(0), wire) << kind_name(request.kind);
    EXPECT_EQ(parsed.id, request.id);
    EXPECT_EQ(request_fingerprint(parsed), request_fingerprint(request))
        << kind_name(request.kind);
  }
}

TEST(ServeWire, FingerprintIgnoresIdButTracksPayload) {
  const Corner c{0.7, 10.0, ""};
  FlowRequest a = leakage_request(c, "client-1");
  FlowRequest b = leakage_request(c, "client-2");
  EXPECT_EQ(request_fingerprint(a), request_fingerprint(b));

  FlowRequest other_kind = timing_request(c);
  EXPECT_NE(request_fingerprint(a), request_fingerprint(other_kind));
  FlowRequest other_corner = leakage_request(Corner{0.7, 10.5, ""});
  EXPECT_NE(request_fingerprint(a), request_fingerprint(other_corner));
}

TEST(ServeWire, ParseRejectsMalformedRequests) {
  const auto stage_of = [](const std::string& text) {
    try {
      parse_request(text);
      return std::string("no-throw");
    } catch (const FlowError& e) {
      return e.stage();
    }
  };
  EXPECT_EQ(stage_of("{not json"), "request-parse");
  EXPECT_EQ(stage_of("[1,2,3]"), "request-parse");
  EXPECT_EQ(stage_of("{\"schema\":\"wrong-v9\",\"kind\":\"timing\"}"),
            "request-parse");
  EXPECT_EQ(stage_of("{\"schema\":\"cryosoc-req-v1\",\"kind\":\"bogus\"}"),
            "request-parse");
  // Right schema and kind but a missing corner.
  EXPECT_EQ(stage_of("{\"schema\":\"cryosoc-req-v1\",\"kind\":\"timing\"}"),
            "request-parse");
  // Corners that are not physical never reach the flow (a cold corner
  // would characterize the whole catalog for them), sweep corners
  // included; 1e400 parses as infinity.
  const auto at = [](const std::string& kind, const std::string& corner,
                     const std::string& extra = "") {
    return "{\"schema\":\"cryosoc-req-v1\",\"kind\":\"" + kind +
           "\",\"corner\":" + corner + extra + "}";
  };
  const std::string sram = ",\"macro\":{\"rows\":64,\"cols\":8}";
  for (const char* corner :
       {R"({"vdd":0.7,"temperature_k":-5})", R"({"vdd":0.7,"temperature_k":0})",
        R"({"vdd":0.7,"temperature_k":1e400})", R"({"vdd":0,"temperature_k":77})",
        R"({"vdd":-0.7,"temperature_k":77})", R"({"vdd":1e400,"temperature_k":77})"}) {
    EXPECT_EQ(stage_of(at("leakage", corner)), "request-parse") << corner;
    EXPECT_EQ(stage_of(at("timing", corner)), "request-parse") << corner;
    EXPECT_EQ(stage_of(at("sram", corner, sram)), "request-parse") << corner;
  }
  EXPECT_EQ(stage_of(at("sram", R"({"vdd":0.7,"temperature_k":4})", sram)),
            "no-throw");
  const auto sweep = [](const std::string& second) {
    return R"({"schema":"cryosoc-req-v1","kind":"sweep","sweep":{"corners":[)"
           R"({"vdd":0.7,"temperature_k":300},)" +
           second + "]}}";
  };
  EXPECT_EQ(stage_of(sweep(R"({"vdd":0.7,"temperature_k":-5})")),
            "request-parse");
  EXPECT_EQ(stage_of(sweep(R"({"vdd":0.7,"temperature_k":10})")), "no-throw");
}

TEST(ServeWire, ResponseRoundTripsByteIdenticallyForEveryKind) {
  // Hand-built responses covering every result member, including an
  // error response and optional sweep verdicts.
  std::vector<FlowResponse> responses;
  {
    FlowResponse r;
    r.kind = QueryKind::kTiming;
    r.ok = true;
    r.corner = {0.7, 300.0, "300k"};
    sta::TimingReport t;
    t.critical_delay = 7.25e-10;
    t.fmax = 1.0 / t.critical_delay;
    t.worst_hold_slack = 1.5e-11;
    t.has_hold_endpoints = true;
    t.endpoint_count = 321;
    t.critical_endpoint = "mem_wb_r17_b3";
    t.critical_path = {{"alu_x", "NAND2_X2", "A1", 1.25e-11, 5.5e-11}};
    r.timing = t;
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kPower;
    r.ok = true;
    r.corner = {0.65, 10.0, "10k"};
    power::PowerReport p;
    p.dynamic_logic = 0.011;
    p.dynamic_sram = 0.002;
    p.dynamic_glitch = 0.0005;
    p.leakage_logic = 1e-5;
    p.leakage_sram = 3e-6;
    r.power = p;
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kLeakage;
    r.ok = true;
    r.corner = {0.7, 10.0, ""};
    r.library_leakage_w = 4.25e-7;
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kSram;
    r.ok = true;
    r.corner = {0.7, 300.0, ""};
    SramResult s;
    s.macro = {512, 64};
    s.timing = {2.5e-10, 3e-11, 4e-10};
    s.power = {1e-4, 2e-13, 3e-13};
    s.leakage_per_bit_w = 3e-9;
    s.reference_gate_delay_s = 6e-12;
    r.sram = s;
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kSweep;
    r.ok = true;
    SweepOutcome o;
    SweepCornerResult ok_corner;
    ok_corner.corner = {0.7, 300.0, "300k"};
    ok_corner.ok = true;
    ok_corner.library_leakage_w = 2e-4;
    ok_corner.fits_cooling_budget = false;
    ok_corner.meets_deadline = true;
    SweepCornerResult bad_corner;
    bad_corner.corner = {0.7, 10.0, "10k"};
    bad_corner.ok = false;
    bad_corner.error_stage = "quarantine";
    bad_corner.error = "library has 1 quarantined arc(s)";
    o.corners = {ok_corner, bad_corner};
    o.failed = 1;
    o.worst_corner = 0;
    o.fmax_vs_temperature = {{10.0, 1.1e9}, {300.0, 1.2e9}};
    o.cooling_crossover_k = 47.5;
    o.cooling_verdict = CoolingVerdict::kCrossover;
    r.sweep = o;
    responses.push_back(r);
  }
  {
    // A sweep where even the coldest corner exceeds the budget: the
    // verdict (not an unset optional) carries the distinction.
    FlowResponse r;
    r.kind = QueryKind::kSweep;
    r.ok = true;
    SweepOutcome o;
    SweepCornerResult c;
    c.corner = {0.7, 10.0, "10k"};
    c.ok = true;
    c.fits_cooling_budget = false;
    o.corners = {c};
    o.cooling_verdict = CoolingVerdict::kInfeasibleEverywhere;
    r.sweep = o;
    responses.push_back(r);
  }
  {
    FlowResponse r;
    r.kind = QueryKind::kMeasuredPower;
    r.ok = false;
    r.corner = {0.7, 4.0, ""};
    r.error_stage = "characterize";
    r.error = "[flow:characterize] SPICE diverged";
    responses.push_back(r);
  }

  for (FlowResponse& response : responses) {
    response.meta.id = "resp-id";
    response.meta.sequence = 42;
    response.meta.coalesced = 3;
    response.meta.queue_seconds = 0.001953125;  // dyadic: exact in JSON
    response.meta.service_seconds = 0.25;
    response.meta.kind_latency = {7, 0.125, 0.5, 0.75};
    const std::string wire = to_json(response).dump(0);
    const FlowResponse parsed = parse_response(wire);
    EXPECT_EQ(to_json(parsed).dump(0), wire) << kind_name(response.kind);
    EXPECT_EQ(parsed.meta.sequence, 42u);
    EXPECT_EQ(parsed.meta.kind_latency.count, 7u);
  }
}

TEST(ServeWire, JsonParserHandlesEscapesAndRejectsGarbage) {
  const JsonValue v =
      json_parse("{\"a\\n\": [1, -2.5e3, \"\\u0041\"], \"b\": null}");
  ASSERT_TRUE(v.is_object());
  const JsonValue* arr = v.find("a\n");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items.size(), 3u);
  EXPECT_DOUBLE_EQ(arr->items[0].as_number("n"), 1.0);
  EXPECT_DOUBLE_EQ(arr->items[1].as_number("n"), -2500.0);
  EXPECT_EQ(arr->items[2].as_string("s"), "A");
  EXPECT_TRUE(v.at("b", "doc").is_null());

  EXPECT_THROW(json_parse("{\"a\":1} trailing"), FlowError);
  EXPECT_THROW(json_parse("{\"a\":}"), FlowError);
  EXPECT_THROW(json_parse(""), FlowError);
  EXPECT_THROW(json_parse("{\"a\":01x}"), FlowError);
}

// ---- Service: coalescing storm ------------------------------------------

TEST(ServeService, ConcurrentSameCornerStormCoalescesToOneExecution) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_storm";
  fs::remove_all(dir);
  CryoSocFlow flow(tiny_config(dir.string()));

  // Gate the worker so every one of the 32 submissions lands while the
  // first is still in flight: the coalescing then has to be exact.
  std::promise<void> all_submitted;
  std::shared_future<void> gate = all_submitted.get_future().share();
  ServiceConfig config;
  config.workers = 2;
  config.before_execute = [gate](const FlowRequest&) { gate.wait(); };

  const std::uint64_t runs0 = counter("charlib.runs");
  const std::uint64_t executed0 = counter("serve.executed");
  const std::uint64_t coalesced0 = counter("serve.coalesced");
  const std::uint64_t publications0 = counter("flow.partial_publications");

  const Corner storm_corner{0.7, 150.0, ""};  // uncached: must characterize
  std::vector<std::shared_future<FlowResponse>> futures;
  {
    FlowService service(flow, config);
    for (int i = 0; i < 32; ++i)
      futures.push_back(service.submit(
          leakage_request(storm_corner, "storm-" + std::to_string(i))));
    all_submitted.set_value();
    for (auto& f : futures) f.wait();
  }

  // Exactly one execution and one characterization; the other 31 joined.
  EXPECT_EQ(counter("serve.executed") - executed0, 1u);
  EXPECT_EQ(counter("serve.coalesced") - coalesced0, 31u);
  EXPECT_EQ(counter("charlib.runs") - runs0, 1u);
  // An INV-only catalog cannot synthesize the SoC, and leakage never asks
  // for it: the corner characterized whole, and the 300 K corner the
  // netlist would need was never touched.
  EXPECT_EQ(counter("flow.partial_publications") - publications0, 0u);
  EXPECT_FALSE(fs::exists(dir / "cryo5_300k.lib"));

  // Every storm response is byte-identical to a direct flow call against
  // the same corner state. (A *fresh* flow would reload the Liberty
  // artifact, whose %.6g rendering rounds low-order bits — cold vs warm
  // equality is the artifact format's contract, not the service's.)
  const FlowResponse direct = execute(flow, leakage_request(storm_corner));
  ASSERT_TRUE(direct.ok) << direct.error;
  const std::string expected = response_payload_json(direct).dump(0);
  for (const auto& f : futures) {
    const FlowResponse& response = f.get();
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response_payload_json(response).dump(0), expected);
    EXPECT_EQ(response.meta.coalesced, 31u);
    EXPECT_GE(response.meta.kind_latency.count, 1u);
  }
  fs::remove_all(dir);
}

// ---- Service: backpressure ----------------------------------------------

TEST(ServeService, BoundedQueueRejectsOverloadWithAdmissionError) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_overload";
  fs::remove_all(dir);
  CryoSocFlow flow(tiny_config(dir.string()));

  std::promise<void> picked_up;
  std::promise<void> release;
  std::shared_future<void> release_gate = release.get_future().share();
  std::atomic<bool> first{true};
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.before_execute = [&](const FlowRequest&) {
    if (first.exchange(false)) picked_up.set_value();
    release_gate.wait();
  };

  const std::uint64_t rejected0 = counter("serve.rejected");
  FlowService service(flow, config);

  // sram queries don't characterize: distinct temperatures give distinct
  // fingerprints, so nothing coalesces.
  const auto request_at = [](double t) {
    return sram_request(Corner{0.7, t, ""}, {64, 8});
  };
  std::vector<std::shared_future<FlowResponse>> futures;
  futures.push_back(service.submit(request_at(301.0)));
  picked_up.get_future().wait();  // worker holds it; the queue is empty

  futures.push_back(service.submit(request_at(302.0)));
  futures.push_back(service.submit(request_at(303.0)));  // queue now full
  try {
    service.submit(request_at(304.0));
    FAIL() << "expected FlowError{admission}";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "admission");
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
  }
  EXPECT_EQ(counter("serve.rejected") - rejected0, 1u);

  release.set_value();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);

  // Draining freed capacity: the same query is admitted now.
  EXPECT_TRUE(service.call(request_at(304.0)).ok);
  fs::remove_all(dir);
}

TEST(ServeService, RejectsZeroQueueCapacity) {
  CryoSocFlow flow(tiny_config("lib"));
  ServiceConfig config;
  config.queue_capacity = 0;
  try {
    FlowService service(flow, config);
    FAIL() << "expected FlowError{config}";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "config");
  }
}

// ---- Service: byte-identity vs the direct flow ---------------------------

TEST(ServeService, ResponsesMatchDirectFlowAtAnyWorkerCount) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_identity";
  fs::remove_all(dir);

  // Direct reference: execute() straight on a flow, no service.
  std::vector<FlowRequest> requests;
  requests.push_back(leakage_request(Corner{0.7, 300.0, ""}));
  requests.push_back(leakage_request(Corner{0.7, 10.0, ""}));
  requests.push_back(sram_request(Corner{0.7, 10.0, ""}, {512, 64}));
  requests.push_back(sram_request(Corner{0.7, 300.0, ""}, {1024, 32}));
  SweepQuery sweep;
  sweep.corners = {Corner{0.7, 300.0, ""}, Corner{0.7, 10.0, ""},
                   Corner{0.7, 77.0, ""}};
  sweep.run_timing = false;
  sweep.run_leakage = true;
  requests.push_back(sweep_request(sweep));

  // Warm the scratch artifact store first so the reference flow and every
  // service flow all load the same on-disk Liberty artifacts (a cold flow
  // would answer from the unrounded in-memory characterization).
  {
    CryoSocFlow warmup(tiny_config(dir.string()));
    for (const FlowRequest& request : requests) execute(warmup, request);
  }
  std::vector<std::string> expected;
  {
    CryoSocFlow flow(tiny_config(dir.string()));
    for (const FlowRequest& request : requests)
      expected.push_back(response_payload_json(execute(flow, request)).dump(0));
  }

  for (const int workers : {1, 4}) {
    CryoSocFlow flow(tiny_config(dir.string()));
    ServiceConfig config;
    config.workers = workers;
    FlowService service(flow, config);
    std::vector<std::shared_future<FlowResponse>> futures;
    for (const FlowRequest& request : requests)
      futures.push_back(service.submit(request));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const FlowResponse& response = futures[i].get();
      EXPECT_TRUE(response.ok) << response.error;
      EXPECT_EQ(response_payload_json(response).dump(0), expected[i])
          << "workers=" << workers << " request " << i;
    }
  }
  fs::remove_all(dir);
}

TEST(ServeService, FullCatalogTimingMatchesDirectFlow) {
  // The committed artifacts make this cheap enough: one timing and one
  // fmax-power query through the service must be byte-identical to the
  // direct corner-keyed calls.
  FlowConfig config;
  config.calibrate_devices = false;

  CryoSocFlow direct_flow(config);
  const Corner c300 = direct_flow.corner(300.0);
  const FlowRequest timing_req = timing_request(c300);
  power::ActivityProfile profile;
  profile.clock_frequency = 0.0;  // run at the corner's own fmax
  profile.default_activity = 0.1;
  const FlowRequest power_req = power_request(c300, profile);

  const std::string timing_expected =
      response_payload_json(execute(direct_flow, timing_req)).dump(0);
  const std::string power_expected =
      response_payload_json(execute(direct_flow, power_req)).dump(0);

  CryoSocFlow service_flow(config);
  FlowService service(service_flow);
  EXPECT_EQ(response_payload_json(service.call(timing_req)).dump(0),
            timing_expected);
  EXPECT_EQ(response_payload_json(service.call(power_req)).dump(0),
            power_expected);
}

TEST(ServeService, OneStaRunPerCornerAcrossTimingPowerAndSweep) {
  // timing, power at fmax and a 1-corner sweep at the same corner all
  // read the corner's memoized timing report: one STA run between them.
  FlowConfig config;
  config.calibrate_devices = false;
  CryoSocFlow flow(config);
  const Corner c10 = flow.corner(10.0);
  power::ActivityProfile profile;
  profile.clock_frequency = 0.0;  // run at the corner's own fmax
  profile.default_activity = 0.1;
  SweepQuery sweep;
  sweep.corners = {c10};
  sweep.run_power = true;
  sweep.profile = profile;
  sweep.threads = 1;

  const std::uint64_t runs0 = counter("sta.runs");
  const FlowResponse timing = execute(flow, timing_request(c10));
  const FlowResponse power = execute(flow, power_request(c10, profile));
  const FlowResponse swept = execute(flow, sweep_request(sweep));
  EXPECT_EQ(counter("sta.runs") - runs0, 1u);

  ASSERT_TRUE(timing.ok && power.ok && swept.ok);
  ASSERT_TRUE(swept.sweep->corners.at(0).timing.has_value());
  EXPECT_EQ(swept.sweep->corners.at(0).timing->fmax, timing.timing->fmax);
}

// ---- Service: failures become responses ----------------------------------

TEST(ServeService, AnalysisFailureIsAnOkFalseResponseNotACrash) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_badsweep";
  fs::remove_all(dir);
  CryoSocFlow flow(tiny_config(dir.string()));
  FlowService service(flow);

  // An empty sweep grid is a programmer error inside run_sweep; the
  // service turns it into a structured ok=false response.
  const FlowResponse response = service.call(sweep_request(SweepQuery{}));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_stage, "analysis");
  EXPECT_NE(response.error.find("empty corner grid"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cryo::serve
