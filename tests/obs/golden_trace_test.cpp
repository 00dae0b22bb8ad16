// Golden-trace suite: the observability layer's output contract. One
// deterministic chaos campaign (remote multiplier IP over an RmiChannel,
// driving a fault-free scheduler plus injection schedulers) is run under
// tracing, and the resulting event stream must satisfy the span grammar:
// valid Chrome trace-event JSON, per-thread timestamp monotonicity, proper
// span nesting, and client/provider flow stitching across the
// administrative-domain boundary. The metrics registry, which reads the
// ChannelStats / CampaignResult ledgers, must report them bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rmi/chaos_harness.hpp"

namespace vcad::obs {
namespace {

using chaos::ChaosOutcome;
using chaos::ChaosRig;
using chaos::runChaosCampaign;

// --- a minimal validating JSON parser --------------------------------------
// Just enough JSON to verify the Chrome trace-event schema structurally; a
// parse error throws with the byte offset.

struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool has(const std::string& key) const { return object.count(key) != 0; }
  const Json& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = parseValue();
    skipWs();
    if (pos_ != s_.size()) fail("trailing bytes after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(why + " at byte " + std::to_string(pos_));
  }

  void skipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skipWs();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json parseValue() {
    switch (peek()) {
      case '{':
        return parseObject();
      case '[':
        return parseArray();
      case '"':
        return parseString();
      case 't':
      case 'f':
        return parseBool();
      case 'n':
        return parseNull();
      default:
        return parseNumber();
    }
  }

  Json parseObject() {
    Json v;
    v.kind = Json::Kind::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      Json key = parseString();
      expect(':');
      v.object.emplace(key.str, parseValue());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parseArray() {
    Json v;
    v.kind = Json::Kind::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parseValue());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json parseString() {
    Json v;
    v.kind = Json::Kind::String;
    expect('"');
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("dangling escape");
        const char esc = s_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            v.str.push_back(esc);
            break;
          case 'n':
            v.str.push_back('\n');
            break;
          case 't':
            v.str.push_back('\t');
            break;
          case 'r':
            v.str.push_back('\r');
            break;
          case 'b':
          case 'f':
            break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            pos_ += 4;  // validated as hex below
            for (std::size_t i = pos_ - 4; i < pos_; ++i) {
              if (std::isxdigit(static_cast<unsigned char>(s_[i])) == 0) {
                fail("bad \\u escape");
              }
            }
            v.str.push_back('?');
            break;
          }
          default:
            fail("bad escape");
        }
        continue;
      }
      v.str.push_back(c);
    }
  }

  Json parseBool() {
    Json v;
    v.kind = Json::Kind::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Json parseNull() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return Json{};
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Json v;
    v.kind = Json::Kind::Number;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- event-stream helpers --------------------------------------------------

bool isComplete(const TraceEvent& e) {
  return e.phase == TraceEvent::Phase::Complete;
}

std::string nameOf(const TraceEvent& e) { return e.name; }

/// All Complete spans whose name starts with `prefix`.
std::vector<TraceEvent> spansWithPrefix(const std::vector<TraceEvent>& events,
                                        const std::string& prefix) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (isComplete(e) && nameOf(e).rfind(prefix, 0) == 0) out.push_back(e);
  }
  return out;
}

/// [ts, ts+dur] containment with shared endpoints allowed.
bool contains(const TraceEvent& outer, const TraceEvent& inner) {
  return outer.tsNs <= inner.tsNs &&
         outer.tsNs + outer.durNs >= inner.tsNs + inner.durNs;
}

ChaosOutcome runTracedIdealCampaign() {
  return runChaosCampaign(net::FaultProfile::none(), 1);
}

// --- the suite -------------------------------------------------------------

TEST(GoldenTrace, ChaosCampaignEmitsValidChromeTraceJson) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  (void)runTracedIdealCampaign();
  const std::string json = Tracer::global().toChromeJson();

  Json root;
  ASSERT_NO_THROW(root = JsonParser(json).parse()) << json.substr(0, 400);
  ASSERT_EQ(root.kind, Json::Kind::Object);
  ASSERT_TRUE(root.has("traceEvents"));
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Kind::Array);
  ASSERT_FALSE(events.array.empty());

  const std::set<std::string> phases{"X", "i", "s", "f"};
  for (const Json& ev : events.array) {
    ASSERT_EQ(ev.kind, Json::Kind::Object);
    ASSERT_TRUE(ev.has("name"));
    EXPECT_EQ(ev.at("name").kind, Json::Kind::String);
    EXPECT_FALSE(ev.at("name").str.empty());
    ASSERT_TRUE(ev.has("cat"));
    ASSERT_TRUE(ev.has("ph"));
    const std::string ph = ev.at("ph").str;
    EXPECT_TRUE(phases.count(ph) != 0) << ph;
    ASSERT_TRUE(ev.has("pid"));
    EXPECT_EQ(ev.at("pid").number, 1.0);
    ASSERT_TRUE(ev.has("tid"));
    EXPECT_EQ(ev.at("tid").kind, Json::Kind::Number);
    ASSERT_TRUE(ev.has("ts"));
    EXPECT_GE(ev.at("ts").number, 0.0);
    if (ph == "X") {
      ASSERT_TRUE(ev.has("dur"));
      EXPECT_GE(ev.at("dur").number, 0.0);
    }
    if (ph == "i") {
      ASSERT_TRUE(ev.has("s"));  // instant scope
      EXPECT_EQ(ev.at("s").str, "t");
    }
    if (ph == "s" || ph == "f") {
      // Flow events are useless without an id to pair on.
      ASSERT_TRUE(ev.has("id"));
      EXPECT_EQ(ev.at("id").str.rfind("0x", 0), 0u);
    }
    if (ph == "f") {
      ASSERT_TRUE(ev.has("bp"));  // bind to the enclosing slice
      EXPECT_EQ(ev.at("bp").str, "e");
    }
    ASSERT_TRUE(ev.has("args"));
    EXPECT_EQ(ev.at("args").kind, Json::Kind::Object);
  }
}

TEST(GoldenTrace, TimestampsAreMonotonicPerThreadAndSpansNestProperly) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  (void)runTracedIdealCampaign();
  const std::vector<TraceEvent> events = Tracer::global().collect();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(Tracer::global().droppedEvents(), 0u)
      << "campaign must fit the ring; drops would invalidate the grammar";

  // Per thread, record order (seq) must agree with the clock.
  std::map<std::uint32_t, std::vector<TraceEvent>> byTid;
  for (const TraceEvent& e : events) byTid[e.tid].push_back(e);
  for (auto& [tid, tev] : byTid) {
    std::sort(tev.begin(), tev.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.seq < b.seq;
              });
    for (std::size_t i = 1; i < tev.size(); ++i) {
      EXPECT_EQ(tev[i].seq, tev[i - 1].seq + 1) << "tid " << tid;
      // A Complete event is stamped with its START time but recorded at its
      // end, so it may carry an older ts than its predecessor; every other
      // phase is recorded at its own timestamp and must not step backwards.
      if (tev[i].phase != TraceEvent::Phase::Complete) {
        EXPECT_GE(tev[i].tsNs, tev[i - 1].tsNs)
            << "tid " << tid << " seq " << tev[i].seq << " (" << tev[i].name
            << " after " << tev[i - 1].name << ")";
      }
    }
  }

  // Spans on one thread either nest or are disjoint — never interleave.
  for (const auto& [tid, tev] : byTid) {
    std::vector<TraceEvent> spans;
    for (const TraceEvent& e : tev) {
      if (isComplete(e)) spans.push_back(e);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        const TraceEvent& a = spans[i];
        const TraceEvent& b = spans[j];
        const bool overlap = a.tsNs < b.tsNs + b.durNs &&
                             b.tsNs < a.tsNs + a.durNs;
        if (!overlap) continue;
        EXPECT_TRUE(contains(a, b) || contains(b, a))
            << "tid " << tid << ": spans " << a.name << " and " << b.name
            << " partially overlap";
      }
    }
  }

  // The expected span taxonomy showed up: the campaign root, its per-pattern
  // children, the client RMI spans, and the provider's adopted spans.
  const auto campaignSpans = spansWithPrefix(events, "campaign.run");
  ASSERT_EQ(campaignSpans.size(), 1u);
  const TraceEvent root = campaignSpans[0];
  // The campaign span names the engine setting it ran with.
  std::map<std::string, double> rootArgs;
  for (std::uint8_t a = 0; a < root.argCount; ++a) {
    rootArgs[root.args[a].key] = root.args[a].value;
  }
  EXPECT_EQ(rootArgs.count("batch"), 1u);
  EXPECT_EQ(rootArgs["batch"], 1.0);
  const auto patternSpans = spansWithPrefix(events, "campaign.pattern");
  EXPECT_GT(patternSpans.size(), 0u);
  for (const TraceEvent& p : patternSpans) {
    ASSERT_EQ(p.tid, root.tid);
    EXPECT_TRUE(contains(root, p)) << "pattern span escapes the campaign";
  }
  const auto tableSpans = spansWithPrefix(events, "rmi.GetDetectionTable");
  EXPECT_GT(tableSpans.size(), 0u);
  for (const TraceEvent& t : tableSpans) {
    EXPECT_TRUE(contains(root, t)) << "mid-campaign RMI escapes the campaign";
  }
  EXPECT_GT(spansWithPrefix(events, "provider.dispatch").size(), 0u);
}

// Golden runs have a span of their own: one campaign.golden per table
// batch, inside that batch's campaign.batch span and before its table
// fetch, so golden evaluation reads directly instead of as a remainder.
TEST(GoldenTrace, EveryTableBatchRecordsOneGoldenSpan) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  constexpr int kPatterns = 10;
  constexpr std::size_t kBatch = 4;  // batches of 4, 4 and 2 patterns
  (void)runChaosCampaign(net::FaultProfile::none(), 1, kPatterns, 0, kBatch);
  const std::vector<TraceEvent> events = Tracer::global().collect();
  ASSERT_EQ(Tracer::global().droppedEvents(), 0u);
  const auto batches = spansWithPrefix(events, "campaign.batch");
  const auto golden = spansWithPrefix(events, "campaign.golden");
  const auto fetches = spansWithPrefix(events, "campaign.tableFetch");
  ASSERT_EQ(batches.size(), 3u);
  ASSERT_EQ(golden.size(), batches.size());
  ASSERT_EQ(fetches.size(), batches.size());
  const auto byStart = [](const TraceEvent& a, const TraceEvent& b) {
    return a.tsNs < b.tsNs;
  };
  auto sortedBatches = batches, sortedGolden = golden, sortedFetches = fetches;
  std::sort(sortedBatches.begin(), sortedBatches.end(), byStart);
  std::sort(sortedGolden.begin(), sortedGolden.end(), byStart);
  std::sort(sortedFetches.begin(), sortedFetches.end(), byStart);
  for (std::size_t b = 0; b < sortedBatches.size(); ++b) {
    EXPECT_TRUE(contains(sortedBatches[b], sortedGolden[b]))
        << "golden span " << b << " escapes its batch";
    EXPECT_LE(sortedGolden[b].tsNs + sortedGolden[b].durNs,
              sortedFetches[b].tsNs)
        << "golden span " << b << " overlaps its table fetch";
  }
}

TEST(GoldenTrace, ClientAndProviderSpansStitchIntoOneFlow) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  (void)runTracedIdealCampaign();
  const std::vector<TraceEvent> events = Tracer::global().collect();

  // Every flow-finish pairs with an earlier (or simultaneous) flow-start of
  // the same id; a finish without its start would render unparented.
  std::map<std::uint64_t, std::uint64_t> flowStartTs;
  std::size_t finishes = 0;
  for (const TraceEvent& e : events) {
    if (e.phase == TraceEvent::Phase::FlowBegin) {
      ASSERT_NE(e.id, 0u);
      auto it = flowStartTs.find(e.id);
      if (it == flowStartTs.end() || e.tsNs < it->second) {
        flowStartTs[e.id] = e.tsNs;
      }
    }
  }
  for (const TraceEvent& e : events) {
    if (e.phase != TraceEvent::Phase::FlowEnd) continue;
    ++finishes;
    auto it = flowStartTs.find(e.id);
    ASSERT_TRUE(it != flowStartTs.end()) << "orphan flow finish id " << e.id;
    EXPECT_LE(it->second, e.tsNs);
  }
  EXPECT_GT(finishes, 0u);

  // Each provider.dispatch span adopted the id of exactly one client-side
  // rmi.* span: the single stitched cross-domain trace of the acceptance
  // criteria.
  std::set<std::uint64_t> clientIds;
  for (const TraceEvent& e : spansWithPrefix(events, "rmi.")) {
    if (e.id != 0) clientIds.insert(e.id);
  }
  const auto dispatches = spansWithPrefix(events, "provider.dispatch");
  ASSERT_GT(dispatches.size(), 0u);
  for (const TraceEvent& d : dispatches) {
    ASSERT_NE(d.id, 0u) << "untraced dispatch inside a traced campaign";
    EXPECT_TRUE(clientIds.count(d.id) != 0)
        << "provider span id " << d.id << " has no originating client span";
  }
}

TEST(GoldenTrace, AsyncCallStitchesAcrossThreads) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.setEnabled(true);
  {
    ChaosRig rig(net::FaultProfile::none(), 1);
    tracer.instant("test.mainThreadMarker", "test");
    auto future =
        rig.provider->callAsync(rmi::MethodId::GetCatalog, 0, rmi::Args{});
    const rmi::Response resp = future.get();
    EXPECT_EQ(resp.status, rmi::Status::Ok);
  }
  tracer.setEnabled(false);

  const std::vector<TraceEvent> events = tracer.collect();
  std::uint32_t mainTid = 0;
  bool haveMainTid = false;
  for (const TraceEvent& e : events) {
    if (nameOf(e) == "test.mainThreadMarker") {
      mainTid = e.tid;
      haveMainTid = true;
    }
  }
  ASSERT_TRUE(haveMainTid);

  // The async call's client span ran off the main thread, and its provider
  // child adopted the same flow id — a genuinely cross-thread stitch.
  TraceEvent asyncSpan;
  bool haveAsyncSpan = false;
  for (const TraceEvent& e : spansWithPrefix(events, "rmi.GetCatalog")) {
    if (e.tid != mainTid) {
      asyncSpan = e;
      haveAsyncSpan = true;
    }
  }
  ASSERT_TRUE(haveAsyncSpan) << "callAsync span did not leave the main tid";
  ASSERT_NE(asyncSpan.id, 0u);

  bool stitched = false;
  for (const TraceEvent& d : spansWithPrefix(events, "provider.dispatch")) {
    if (d.id == asyncSpan.id) stitched = true;
  }
  EXPECT_TRUE(stitched);

  bool flowBegin = false;
  bool flowEnd = false;
  for (const TraceEvent& e : events) {
    if (e.id != asyncSpan.id) continue;
    if (e.phase == TraceEvent::Phase::FlowBegin) flowBegin = true;
    if (e.phase == TraceEvent::Phase::FlowEnd) flowEnd = true;
  }
  EXPECT_TRUE(flowBegin);
  EXPECT_TRUE(flowEnd);
}

TEST(GoldenTrace, RegistryMirrorsChannelAndCampaignLedgersBitForBit) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  Registry::global().reset();
  const ChaosOutcome out = runTracedIdealCampaign();
  const Registry::Snapshot snap = Registry::global().snapshot();

  // Channel ledger: every ChannelStats field the registry reports must be
  // EXACTLY the struct's value — counters and doubles alike (the registry
  // reads the struct itself, and the retired totals start at zero).
  EXPECT_EQ(snap.counterOr("rmi.calls"), out.stats.calls);
  EXPECT_EQ(snap.counterOr("rmi.blockedCalls"), out.stats.blockedCalls);
  EXPECT_EQ(snap.counterOr("rmi.asyncCalls"), out.stats.asyncCalls);
  EXPECT_EQ(snap.counterOr("rmi.securityRejections"),
            out.stats.securityRejections);
  EXPECT_EQ(snap.counterOr("rmi.bytesSent"), out.stats.bytesSent);
  EXPECT_EQ(snap.counterOr("rmi.bytesReceived"), out.stats.bytesReceived);
  EXPECT_EQ(snap.counterOr("rmi.retries"), out.stats.retries);
  EXPECT_EQ(snap.counterOr("rmi.timeouts"), out.stats.timeouts);
  EXPECT_EQ(snap.counterOr("rmi.duplicatesSuppressed"),
            out.stats.duplicatesSuppressed);
  EXPECT_EQ(snap.counterOr("rmi.corruptedFramesDropped"),
            out.stats.corruptedFramesDropped);
  EXPECT_EQ(snap.counterOr("rmi.transportFailures"),
            out.stats.transportFailures);
  EXPECT_EQ(snap.doubleOr("rmi.feesCents"), out.stats.feesCents);
  EXPECT_EQ(snap.doubleOr("rmi.networkSec"), out.stats.networkSec);
  EXPECT_EQ(snap.doubleOr("rmi.blockingWallSec"), out.stats.blockingWallSec);
  EXPECT_EQ(snap.doubleOr("rmi.nonblockingWallSec"),
            out.stats.nonblockingWallSec);
  EXPECT_EQ(snap.doubleOr("rmi.serverCpuSec"), out.stats.serverCpuSec);

  // One histogram observation per completed call.
  ASSERT_TRUE(snap.histograms.count("rmi.callWallSec") != 0);
  EXPECT_EQ(snap.histograms.at("rmi.callWallSec").count, out.stats.calls);

  // Provider ledger: all charges of the run belong to the one session.
  EXPECT_EQ(snap.doubleOr("provider.feesCents"), out.providerFeesCents);
  EXPECT_GT(snap.counterOr("provider.dispatches"), 0u);

  // Campaign ledger.
  EXPECT_EQ(snap.counterOr("campaign.runs"), 1u);
  EXPECT_EQ(snap.counterOr("campaign.patterns"),
            out.result.detectedAfterPattern.size());
  EXPECT_EQ(snap.counterOr("campaign.faults"), out.result.faultList.size());
  EXPECT_EQ(snap.counterOr("campaign.detected"), out.result.detected.size());
  EXPECT_EQ(snap.counterOr("campaign.injections"), out.result.injections);
  EXPECT_EQ(snap.counterOr("campaign.tablesRequested"),
            out.result.detectionTablesRequested);
  EXPECT_EQ(snap.counterOr("campaign.tableRoundTrips"),
            out.result.tableFetchRoundTrips);
  EXPECT_EQ(snap.counterOr("campaign.tableCacheHits"),
            out.result.tableCacheHits);
  EXPECT_EQ(snap.counterOr("campaign.slotsLeased"), out.result.slotsLeased);
  EXPECT_EQ(snap.counterOr("campaign.schedulerResets"),
            out.result.schedulerResets);
  EXPECT_EQ(snap.gaugeOr("campaign.peakConcurrentSchedulers"),
            static_cast<std::int64_t>(out.result.peakConcurrentSchedulers));

  // Transport saw no injected faults on the ideal profile, but planned every
  // attempt.
  EXPECT_EQ(snap.counterOr("transport.attempts"), out.transport.attempts);
  EXPECT_EQ(snap.counterOr("transport.droppedRequests"), 0u);

  // The snapshot JSON export round-trips through the validating parser.
  Json root;
  ASSERT_NO_THROW(root = JsonParser(snap.toJson()).parse());
  ASSERT_TRUE(root.has("counters"));
  ASSERT_TRUE(root.has("doubles"));
  ASSERT_TRUE(root.has("gauges"));
  ASSERT_TRUE(root.has("histograms"));
  EXPECT_EQ(root.at("counters").at("rmi.calls").number,
            static_cast<double>(out.stats.calls));
}

TEST(GoldenTrace, RingBufferBoundsMemoryAndCountsDrops) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  Tracer tracer;  // private instance: the global's rings stay untouched
  tracer.setEnabled(true);
  const std::size_t total = Tracer::kRingCapacity + 3000;
  for (std::size_t i = 0; i < total; ++i) {
    tracer.instant("flood", "test", {{"i", static_cast<double>(i)}});
  }
  const std::vector<TraceEvent> events = tracer.collect();
  EXPECT_EQ(events.size(), Tracer::kRingCapacity);
  EXPECT_EQ(tracer.droppedEvents(), total - Tracer::kRingCapacity);
  // The ring dropped the OLDEST events: what survives is the tail.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().seq, total - Tracer::kRingCapacity);
  EXPECT_EQ(events.back().seq, total - 1);

  tracer.clear();
  EXPECT_TRUE(tracer.collect().empty());
  EXPECT_EQ(tracer.droppedEvents(), 0u);
}

}  // namespace
}  // namespace vcad::obs
