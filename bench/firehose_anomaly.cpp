// Firehose-analog streaming anomaly benchmark (E9): throughput and
// detection quality of the three Fig. 1 anomaly kernels on biased packet
// streams, swept over stream size and key-domain size.
//
// --faults: resilience overhead mode — the fixed-key ingest measured
// bare and behind the bounded backpressure queue, reporting the
// throughput cost of flow control on the firehose path.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/timer.hpp"
#include "resilience/ingest_queue.hpp"
#include "streaming/anomaly.hpp"

using namespace ga;
using namespace ga::streaming;

namespace {

int run_faults_mode() {
  std::printf("=== Firehose resilience overhead (--faults) ===\n\n");
  PacketStreamOptions opts;
  opts.num_keys = 1ULL << 16;
  // 4M packets: long enough runs that scheduler jitter (roughly constant
  // tens of ms per run) stays small relative to what is being measured.
  opts.count = 4000000;
  opts.anomalous_key_fraction = 0.01;
  opts.bias = 0.9;
  opts.base = 0.05;
  opts.seed = 7;
  const auto stream = generate_packet_stream(opts);
  const double n = static_cast<double>(stream.packets.size());

  // The queue handoff is condvar-timing noisy, so each configuration is
  // timed over several reps and read as its median rep, which discards
  // scheduler outliers in either direction.
  constexpr int kReps = 7;
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  // Bare ingest: the no-protection baseline, same fixed-key kernel as the
  // headline mode's firehose row.
  std::size_t bare_events = 0;
  std::vector<double> bare_reps;
  for (int rep = 0; rep < kReps; ++rep) {
    FixedKeyAnomaly det(opts.num_keys);
    core::WallTimer t;
    for (const auto& p : stream.packets) det.ingest(p);
    bare_reps.push_back(t.seconds());
    bare_events = det.events().size();
  }
  const double bare_secs = median(bare_reps);

  // Backpressure: a producer thread offers the stream into a bounded
  // kBlock queue; the consumer ingests — the Fig. 2 decoupling.
  resilience::QueueStats bp_stats;
  std::vector<double> bp_reps;
  for (int rep = 0; rep < kReps; ++rep) {
    FixedKeyAnomaly det(opts.num_keys);
    resilience::QueueOptions qopts;
    qopts.capacity = 4096;
    resilience::IngestQueue<Packet> queue(qopts);
    core::WallTimer t;
    std::thread producer([&] {
      for (const auto& p : stream.packets) queue.push(p);
      queue.close();
    });
    while (auto p = queue.pop()) det.ingest(*p);
    producer.join();
    bp_reps.push_back(t.seconds());
    bp_stats = queue.stats();
    GA_CHECK(det.events().size() == bare_events,
             "backpressure changed detection");
  }
  const double bp_secs = median(bp_reps);

  // The bare row is context: a tight in-cache counter loop that nothing
  // with a thread handoff can match.
  std::printf("%-24s %12s %10s\n", "configuration", "Mpkts/s", "overhead");
  std::printf("%-24s %12.2f %10s\n", "bare (unprotected)", n / bare_secs / 1e6,
              "--");
  std::printf("%-24s %12.2f %9.1f%%  (max depth %zu, high events %llu)\n",
              "backpressure queue", n / bp_secs / 1e6,
              100.0 * (bp_secs - bare_secs) / bare_secs, bp_stats.max_depth,
              static_cast<unsigned long long>(bp_stats.high_events));
  std::printf(
      "\nShape: the bounded queue caps memory and gives the producer a\n"
      "backpressure signal instead of OOM, at the cost of one thread\n"
      "handoff per packet.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) return run_faults_mode();
  }
  const bool json = bench::has_flag(argc, argv, "--json");
  bench::JsonDoc doc("firehose_anomaly");
  // Ingest rates are scheduler-noisy; each kernel cell is the median of
  // interleavable reps (detection quality is deterministic per stream).
  constexpr int kHeadlineReps = 3;
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::printf("=== Firehose-analog anomaly kernels (E9) ===\n\n");
  std::printf("%-12s %-10s %-12s %10s %10s %10s %9s\n", "kernel", "keys",
              "packets", "Mpkts/s", "precision", "recall", "events");

  for (const std::uint64_t num_keys : {1ULL << 12, 1ULL << 16}) {
    PacketStreamOptions opts;
    opts.num_keys = num_keys;
    opts.count = 1000000;
    opts.anomalous_key_fraction = 0.01;
    opts.bias = 0.9;
    opts.base = 0.05;
    opts.seed = 7;
    const auto stream = generate_packet_stream(opts);

    const auto cell = [&](const char* tag) {
      return std::string(tag) + "_k" + std::to_string(num_keys);
    };
    {
      std::vector<double> reps;
      std::size_t events = 0;
      DetectionQuality q{};
      for (int rep = 0; rep < kHeadlineReps; ++rep) {
        FixedKeyAnomaly det(num_keys);
        core::WallTimer t;
        for (const auto& p : stream.packets) det.ingest(p);
        reps.push_back(t.seconds());
        q = score_detection(det.events(), stream.truth);
        events = det.events().size();
      }
      const double mpkts = stream.packets.size() / median(reps) / 1e6;
      std::printf("%-12s %-10llu %-12zu %10.2f %10.3f %10.3f %9zu\n",
                  "fixed-key", static_cast<unsigned long long>(num_keys),
                  stream.packets.size(), mpkts, q.precision, q.recall, events);
      if (json) {
        doc.add(cell("fixed") + "_mpkts", mpkts);
        doc.add(cell("fixed") + "_precision", q.precision);
        doc.add(cell("fixed") + "_recall", q.recall);
      }
    }
    {
      std::vector<double> reps;
      std::size_t events = 0;
      std::uint64_t evictions = 0;
      DetectionQuality q{};
      for (int rep = 0; rep < kHeadlineReps; ++rep) {
        UnboundedKeyAnomaly det(num_keys / 4);
        core::WallTimer t;
        for (const auto& p : stream.packets) det.ingest(p);
        reps.push_back(t.seconds());
        q = score_detection(det.events(), stream.truth);
        events = det.events().size();
        evictions = det.evictions();
      }
      const double mpkts = stream.packets.size() / median(reps) / 1e6;
      std::printf("%-12s %-10llu %-12zu %10.2f %10.3f %10.3f %9zu (evictions %llu)\n",
                  "unbounded", static_cast<unsigned long long>(num_keys),
                  stream.packets.size(), mpkts, q.precision, q.recall, events,
                  static_cast<unsigned long long>(evictions));
      if (json) {
        doc.add(cell("unbounded") + "_mpkts", mpkts);
        doc.add(cell("unbounded") + "_precision", q.precision);
        doc.add(cell("unbounded") + "_recall", q.recall);
      }
    }
    {
      std::vector<double> reps;
      std::size_t events = 0;
      DetectionQuality q{};
      for (int rep = 0; rep < kHeadlineReps; ++rep) {
        TwoLevelKeyAnomaly det(64);
        core::WallTimer t;
        for (const auto& p : stream.packets) det.ingest(p);
        reps.push_back(t.seconds());
        q = score_detection(det.events(), stream.truth);
        events = det.events().size();
      }
      const double mpkts = stream.packets.size() / median(reps) / 1e6;
      std::printf("%-12s %-10llu %-12zu %10.2f %10.3f %10.3f %9zu\n",
                  "two-level", static_cast<unsigned long long>(num_keys),
                  stream.packets.size(), mpkts, q.precision, q.recall, events);
      if (json) {
        doc.add(cell("twolevel") + "_mpkts", mpkts);
        doc.add(cell("twolevel") + "_precision", q.precision);
        doc.add(cell("twolevel") + "_recall", q.recall);
      }
    }
  }
  if (json) doc.write();
  std::printf(
      "\nShape: exact per-key state detects best; the bounded-memory form\n"
      "trades recall for memory (its misses are evicted tail keys).\n");
  return 0;
}
