// Ops-plane tests: flight-recorder ring integrity under concurrent
// dump/record, ServiceState SLO accounting, the stall watchdog (unit, via
// the fault-injection hook, and integration, on a genuinely wedged serve),
// frame-lineage flow chains in the trace export of a served run, and the
// localhost introspection endpoint queried live over a raw socket. This
// suite carries the `obs` ctest label and runs under the tsan CI preset.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "beamform/das.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/ops_server.hpp"
#include "obs/service_state.hpp"
#include "obs/watchdog.hpp"
#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/phantom.hpp"

namespace tvbf::obs {
namespace {

using std::chrono::steady_clock;

/// Spins until `pred` holds or `timeout_s` passes; true when it held.
template <typename Pred>
bool wait_for(Pred pred, double timeout_s) {
  const auto deadline =
      steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    if (steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorder, RecordsInOrderAndOverwritesOldest) {
  FlightRecorder ring(8);
  for (int i = 0; i < 12; ++i)
    ring.record(EventKind::kMark, i, i * 10, i * 100, "m");
  EXPECT_EQ(ring.total_recorded(), 12);
  const auto events = ring.dump();
  ASSERT_EQ(events.size(), 8u);
  // Oldest surviving event first, sequence numbers contiguous: 4..11.
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].seq, static_cast<std::int64_t>(4 + k));
    EXPECT_EQ(events[k].session, events[k].seq);
    EXPECT_EQ(events[k].a, events[k].seq * 10);
    EXPECT_EQ(events[k].b, events[k].seq * 100);
    EXPECT_EQ(events[k].kind, EventKind::kMark);
  }
  ring.clear();
  EXPECT_TRUE(ring.dump().empty());
  EXPECT_EQ(ring.total_recorded(), 0);
}

TEST(FlightRecorder, DetailTruncatesAndKindNamesCover) {
  FlightRecorder ring(4);
  ring.record(EventKind::kSessionAdmit, 1, 0, 0,
              "a-very-long-beamformer-label-that-will-truncate");
  const auto events = ring.dump();
  ASSERT_EQ(events.size(), 1u);
  // detail is 31 bytes with a guaranteed NUL.
  EXPECT_LT(std::string(events[0].detail).size(), 31u);
  EXPECT_EQ(std::string(events[0].detail).substr(0, 6), "a-very");
  for (int k = 0; k <= static_cast<int>(EventKind::kMark); ++k)
    EXPECT_NE(std::string(event_kind_name(static_cast<EventKind>(k))),
              "unknown");
}

TEST(FlightRecorder, ConcurrentDumpSeesNoTornEvents) {
  FlightRecorder ring(64);
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&ring, &stop, t] {
      std::int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Invariant every published event must satisfy: b == 3 * a + 1.
        ring.record(EventKind::kMark, t, i, 3 * i + 1, "w");
        ++i;
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    const auto events = ring.dump();
    EXPECT_LE(events.size(), ring.capacity());
    std::int64_t last_seq = -1;
    for (const auto& e : events) {
      EXPECT_GT(e.seq, last_seq);  // strictly increasing record order
      last_seq = e.seq;
      EXPECT_EQ(e.b, 3 * e.a + 1) << "torn slot at seq " << e.seq;
      EXPECT_EQ(e.kind, EventKind::kMark);
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  const std::string json = ring.dump_json();
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\""), std::string::npos);
  ring.clear();
}

TEST(FlightRecorder, WriteFlightDumpComposesFlightAndTrace) {
  const std::string path = ::testing::TempDir() + "tvbf_flight_dump.json";
  FlightRecorder::instance().record(EventKind::kMark, -1, 0, 0, "dump-test");
  ASSERT_TRUE(write_flight_dump(path));
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string body = buf.str();
  EXPECT_NE(body.find("\"flight\""), std::string::npos);
  EXPECT_NE(body.find("\"trace\""), std::string::npos);
  EXPECT_NE(body.find("dump-test"), std::string::npos);
  std::remove(path.c_str());
  // No configured path and no explicit path: nothing to write.
  EXPECT_FALSE(write_flight_dump(""));
}

// ---------------------------------------------------------------------------
// ServiceState

TEST(ServiceState, TracksSloHealthAndGates) {
  ServiceState& st = ServiceState::instance();
  st.reset();
  EXPECT_TRUE(st.healthy());  // vacuously

  st.admit(0, "cine", "das", /*slo_frame_s=*/0.5, /*drop_budget=*/1);
  st.admit(1, "replay", "tiny_vbf", /*slo_frame_s=*/0.0,
           /*drop_budget=*/-1);
  st.heartbeat(0, 0.01);
  st.heartbeat(1, 99.0);  // no SLO: slow frames are fine
  EXPECT_TRUE(st.healthy());

  st.frame_dropped(0);
  EXPECT_TRUE(st.healthy());  // 1 drop within budget 1
  st.frame_dropped(0);
  EXPECT_FALSE(st.healthy());  // budget exceeded

  auto sessions = st.sessions();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].dropped, 2);
  EXPECT_FALSE(sessions[0].healthy());
  EXPECT_TRUE(sessions[1].healthy());
  EXPECT_NEAR(sessions[1].last_frame_s, 99.0, 1e-9);

  st.gate_update(&st, "tiny_vbf", 3, 4);
  auto gates = st.gates();
  ASSERT_EQ(gates.size(), 1u);
  EXPECT_EQ(gates[0].parked, 3u);
  EXPECT_EQ(gates[0].quorum, 4u);

  st.retire(1);
  EXPECT_TRUE(st.sessions()[1].retired);

  const std::string healthz = st.healthz_json();
  EXPECT_NE(healthz.find("\"healthy\": false"), std::string::npos);
  const std::string sessions_json = st.sessions_json();
  EXPECT_NE(sessions_json.find("\"gates\""), std::string::npos);
  EXPECT_NE(sessions_json.find("tiny_vbf"), std::string::npos);
  st.reset();
}

TEST(ServiceState, DeadlineMissMarksUnhealthy) {
  ServiceState& st = ServiceState::instance();
  st.reset();
  st.admit(0, "cine", "das", /*slo_frame_s=*/0.01, /*drop_budget=*/-1);
  st.heartbeat(0, 0.005);
  EXPECT_TRUE(st.healthy());
  st.heartbeat(0, 0.5);  // over the 10 ms SLO
  EXPECT_FALSE(st.healthy());
  EXPECT_EQ(st.sessions()[0].deadline_misses, 1);
  st.reset();
}

TEST(ServiceState, ThreadNotesAreVisibleAcrossThreads) {
  ServiceState& st = ServiceState::instance();
  st.reset();
  std::thread worker([&st] { st.thread_note("tof[0]"); });
  worker.join();
  st.thread_note("deliver");
  const auto notes = st.thread_notes();
  std::set<std::string> whats;
  for (const auto& n : notes) whats.insert(n.what);
  EXPECT_TRUE(whats.count("tof[0]") == 1 || whats.count("deliver") == 1);
  st.reset();
  EXPECT_TRUE(st.thread_notes().empty());
}

// ---------------------------------------------------------------------------
// Watchdog (unit, via the fault-injection hook)

TEST(Watchdog, TripsOncePerStallEpisodeAndRearmsOnProgress) {
  ServiceState::instance().reset();
  std::atomic<int> trips{0};
  Watchdog::Options opt;
  opt.period_s = 0.005;
  opt.stall_s = 0.03;
  opt.pending_override = [] { return true; };
  opt.on_trip = [&trips](const StallReport& r) {
    EXPECT_TRUE(r.pending_override);
    trips.fetch_add(1, std::memory_order_relaxed);
  };
  Watchdog dog(opt);
  EXPECT_FALSE(dog.running());
  EXPECT_EQ(dog.trips(), 0);
  dog.start();
  EXPECT_TRUE(dog.running());

  ASSERT_TRUE(wait_for(
      [&] { return trips.load(std::memory_order_relaxed) >= 1; }, 10.0));
  const StallReport report = dog.last_report();
  EXPECT_TRUE(report.pending_override);
  EXPECT_GE(report.stalled_s, opt.stall_s * 0.5);
  EXPECT_FALSE(report.describe().empty());

  // One diagnosis per stall episode: still wedged, no second trip.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(trips.load(std::memory_order_relaxed), 1);

  // Progress re-arms; the next stall trips again.
  telemetry::Registry::instance().counter("graph.nodes_executed").add();
  ASSERT_TRUE(wait_for(
      [&] { return trips.load(std::memory_order_relaxed) >= 2; }, 10.0));
  dog.stop();
  EXPECT_FALSE(dog.running());
  EXPECT_EQ(dog.trips(), trips.load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Prometheus rendering

TEST(OpsServerUnit, RendersPrometheusExposition) {
  telemetry::Snapshot snap;
  snap.counters.push_back({"serve.frames", 42});
  snap.gauges.push_back({"graph.ready_queue", 3});
  telemetry::HistogramSnapshot h;
  h.name = "serve.frame_s";
  h.count = 2;
  h.sum_s = 3e-3;
  h.min_s = 1e-3;
  h.max_s = 2e-3;
  h.p50_s = 1e-3;
  h.p90_s = 2e-3;
  h.p99_s = 2e-3;
  snap.histograms.push_back(h);

  const std::string text = render_prometheus(snap);
  EXPECT_NE(text.find("# TYPE tvbf_serve_frames counter"), std::string::npos);
  EXPECT_NE(text.find("tvbf_serve_frames 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tvbf_graph_ready_queue gauge"),
            std::string::npos);
  EXPECT_NE(text.find("tvbf_serve_frame_s{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("tvbf_serve_frame_s{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("tvbf_serve_frame_s_sum"), std::string::npos);
  EXPECT_NE(text.find("tvbf_serve_frame_s_count 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Ops endpoint over a raw socket

/// A socket connected to 127.0.0.1:port, or -1.
int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string http_get(int port, const std::string& path) {
  const int fd = connect_local(port);
  if (fd < 0) return {};
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    out.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return out;
}

TEST(OpsServerUnit, ServesRoutesOnEphemeralPort) {
  ServiceState::instance().reset();
  ServiceState::instance().admit(0, "cine", "das", 0.0, -1);
  OpsServer server(OpsServer::Options{0});
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());
  const int port = server.port();
  ASSERT_GT(port, 0);

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.find("tvbf_"), std::string::npos);

  const std::string healthz = http_get(port, "/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("\"healthy\": true"), std::string::npos);

  // Blow the drop budget: /healthz flips to 503.
  ServiceState::instance().admit(1, "cine", "das", 0.0, 0);
  ServiceState::instance().frame_dropped(1);
  const std::string unhealthy = http_get(port, "/healthz");
  EXPECT_NE(unhealthy.find("503"), std::string::npos);
  EXPECT_NE(unhealthy.find("\"healthy\": false"), std::string::npos);

  const std::string sessions = http_get(port, "/sessions");
  EXPECT_NE(sessions.find("\"sessions\""), std::string::npos);

  const std::string dump = http_get(port, "/dump");
  EXPECT_NE(dump.find("\"flight\""), std::string::npos);
  EXPECT_NE(dump.find("\"trace\""), std::string::npos);

  const std::string missing = http_get(port, "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), -1);
  ServiceState::instance().reset();
}

TEST(OpsServerUnit, TricklingClientHoldsTheEndpointOneDeadlineAtMost) {
  // The accept thread serves one connection at a time. A client that sends
  // its request a byte every 400 ms for 4 s must lose its connection at the
  // one-second deadline, so a second client's /healthz, queued behind it,
  // is answered within the deadline plus a margin.
  ServiceState::instance().reset();
  OpsServer server(OpsServer::Options{0});
  ASSERT_TRUE(server.start());
  const int port = server.port();
  const int slow = connect_local(port);
  ASSERT_GE(slow, 0);
  std::atomic<bool> done{false};
  std::thread trickle([&] {
    const std::string req = "GET /healthz";
    for (std::size_t i = 0; i < 10 && !done.load(); ++i) {
      if (::send(slow, req.data() + i, 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = steady_clock::now();
  const std::string healthz = http_get(port, "/healthz");
  const double waited_s =
      std::chrono::duration<double>(steady_clock::now() - t0).count();
  done.store(true);
  trickle.join();
  ::close(slow);
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_LT(waited_s, 1.0 + 1.0);
  server.stop();
}

TEST(OpsServerUnit, ClientHangingUpMidResponseLeavesServerUp) {
  // A scraper that reads the start of a large /dump and hangs up must not
  // kill the process with SIGPIPE; the endpoint answers the next request.
  // A full trace buffer makes the body (several MB) outgrow the socket
  // buffers, so the server is still sending when the client goes away.
  telemetry::trace_start(1 << 16);
  const auto t0 = steady_clock::now();
  for (int i = 0; i < (1 << 16); ++i)
    telemetry::trace_record("hang-up-fill", t0, t0);
  telemetry::trace_stop();
  OpsServer server(OpsServer::Options{0});
  ASSERT_TRUE(server.start());
  const int port = server.port();
  for (int client = 0; client < 3; ++client) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    // A small receive window keeps most of the body unsent at hang-up.
    const int rcvbuf = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string req = "GET /dump HTTP/1.1\r\nHost: localhost\r\n\r\n";
    ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    ::shutdown(fd, SHUT_WR);  // half-close after the request
    char head[64];
    EXPECT_GT(::recv(fd, head, sizeof(head), 0), 0);
    ::close(fd);  // with unread data queued, the close resets the peer
  }
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  server.stop();
  telemetry::trace_start();  // leave an empty capture behind
  telemetry::trace_stop();
}

// ---------------------------------------------------------------------------
// Served-run integration

class ObsServeTest : public ::testing::Test {
 protected:
  std::shared_ptr<rt::CineSource> cine(std::int64_t frames) const {
    us::Region region{-4e-3, 4e-3, 12e-3, 24e-3};
    rt::CineParams p;
    p.num_frames = frames;
    p.frame_rate_hz = 10.0;
    p.lateral_speed_m_s = 5e-3;
    p.axial_amplitude_m = 0.4e-3;
    p.axial_period_s = 0.8;
    p.sim = clean_;
    return std::make_shared<rt::CineSource>(
        probe_, us::make_single_point(18e-3, 0.0, region), p);
  }

  std::shared_ptr<bf::DasBeamformer> das() const {
    return std::make_shared<bf::DasBeamformer>(probe_);
  }

  rt::PipelineConfig pipeline_config() const {
    rt::PipelineConfig cfg;
    cfg.grid = grid_;
    return cfg;
  }

  us::Probe probe_ = us::Probe::test_probe(16);
  us::SimParams clean_ = [] {
    us::SimParams p = us::SimParams::in_silico();
    p.add_noise = false;
    p.max_depth = 26e-3;
    return p;
  }();
  us::ImagingGrid grid_ =
      us::ImagingGrid::reduced(probe_, 40, 32, 12e-3, 24e-3);
};

TEST_F(ObsServeTest, ServedRunExportsConnectedFrameChains) {
  telemetry::trace_start(1 << 16);
  serve::Server server;
  std::vector<std::uint64_t> ids;
  server.add_session({cine(3), das(), pipeline_config(),
                      [&ids](const rt::FrameOutput& f) {
                        ids.push_back(f.trace_id);
                      }});
  const serve::ServerReport report = server.run();
  telemetry::trace_stop();
  EXPECT_EQ(report.frames, 3);

  // Every frame minted a distinct nonzero lineage id at the source...
  ASSERT_EQ(ids.size(), 3u);
  for (const std::uint64_t id : ids) EXPECT_NE(id, 0u);
  EXPECT_EQ(std::set<std::uint64_t>(ids.begin(), ids.end()).size(), 3u);

  // ...and each renders as one connected chain in the Chrome export: a
  // flow start, at least one through, and an enclosing finish per frame.
  const std::string json = telemetry::trace_export_json();
  for (const std::uint64_t id : ids) {
    const std::string tag = "\"id\": " + std::to_string(id);
    EXPECT_NE(json.find("\"ph\": \"s\", " + tag), std::string::npos)
        << "no flow start for frame " << id;
    EXPECT_NE(json.find("\"ph\": \"t\", " + tag), std::string::npos)
        << "no flow step for frame " << id;
    EXPECT_NE(json.find("\"ph\": \"f\", " + tag), std::string::npos)
        << "no flow finish for frame " << id;
  }
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  // The chain reaches from acquisition into the graph nodes.
  EXPECT_NE(json.find("serve.acquire"), std::string::npos);
  EXPECT_NE(json.find("deliver"), std::string::npos);
}

TEST_F(ObsServeTest, WatchdogFiresOnStalledServe) {
  const std::string dump_path =
      ::testing::TempDir() + "tvbf_watchdog_trip.json";
  std::remove(dump_path.c_str());

  serve::ServerConfig cfg;
  cfg.watchdog_stall_s = 0.05;
  cfg.watchdog_period_s = 0.01;
  cfg.watchdog_dump_path = dump_path;
  std::atomic<bool> wedged{false};
  std::atomic<bool> tripped{false};
  // Injection hook: while the sink holds the deliver node hostage, tell
  // the watchdog work is pending even if the queue gauges read idle.
  cfg.watchdog_pending_override = [&wedged] {
    return wedged.load(std::memory_order_relaxed);
  };
  cfg.watchdog_on_trip = [&tripped](const StallReport& report) {
    EXPECT_FALSE(report.describe().empty());
    tripped.store(true, std::memory_order_relaxed);
  };

  serve::Server server(cfg);
  std::int64_t delivered = 0;
  server.add_session(
      {cine(2), das(), pipeline_config(),
       [&](const rt::FrameOutput& f) {
         ++delivered;
         if (f.index == 0) {
           // Wedge frame 0's deliver node until the watchdog notices (the
           // executor makes no progress while we sit here).
           wedged.store(true, std::memory_order_relaxed);
           EXPECT_TRUE(wait_for(
               [&] { return tripped.load(std::memory_order_relaxed); },
               20.0));
           wedged.store(false, std::memory_order_relaxed);
         }
       }});
  const serve::ServerReport report = server.run();
  EXPECT_TRUE(tripped.load(std::memory_order_relaxed));
  EXPECT_EQ(report.frames, 2);
  EXPECT_EQ(delivered, 2);

  // The trip wrote the flight dump with the kWatchdogTrip breadcrumb.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in) << "watchdog trip did not write " << dump_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("watchdog_trip"), std::string::npos);
  std::remove(dump_path.c_str());
}

TEST_F(ObsServeTest, OpsEndpointLiveDuringRunAndOutputBitIdentical) {
  // Reference frames from a solo pipeline of an identical source.
  std::vector<Tensor> expected;
  rt::Pipeline solo(cine(4), das(), pipeline_config());
  solo.run([&](const rt::FrameOutput& f) { expected.push_back(f.db); });

  serve::ServerConfig cfg;
  cfg.ops_port = 0;  // ephemeral
  serve::Server server(cfg);
  std::vector<Tensor> got;
  std::atomic<bool> queried{false};
  std::string metrics, healthz, sessions;
  server.add_session(
      {cine(4), das(), pipeline_config(),
       [&](const rt::FrameOutput& f) {
         if (!queried.exchange(true, std::memory_order_acq_rel)) {
           // The endpoint is up before any frame is delivered.
           const int port = server.ops_port();
           EXPECT_GT(port, 0);
           metrics = http_get(port, "/metrics");
           healthz = http_get(port, "/healthz");
           sessions = http_get(port, "/sessions");
         }
         got.push_back(f.db);
       }});
  const serve::ServerReport report = server.run();

  EXPECT_EQ(report.frames, 4);
  EXPECT_EQ(server.ops_port(), -1);  // torn down with the run
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("tvbf_"), std::string::npos);
  EXPECT_NE(healthz.find("\"healthy\": true"), std::string::npos);
  EXPECT_NE(sessions.find("\"sessions\""), std::string::npos);
  EXPECT_NE(sessions.find("DAS"), std::string::npos);

  // The ops plane observes; it must not perturb: bit-identical frames.
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(max_abs_diff(got[k], expected[k]), 0.0f) << "frame " << k;
}

}  // namespace
}  // namespace tvbf::obs
