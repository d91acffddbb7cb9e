#include "layers.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <vector>

#include "rxl/common/ring_queue.hpp"
#include "rxl/common/rng.hpp"
#include "rxl/crc/isn_crc.hpp"
#include "rxl/flit/flit.hpp"
#include "rxl/link/retry_buffer.hpp"
#include "rxl/link/sequence.hpp"
#include "rxl/rs/flit_fec.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/stats/latency_histogram.hpp"
#include "rxl/switchdev/egress_scheduler.hpp"
#include "rxl/transport/flit_codec.hpp"
#include "rxl/transport/traffic.hpp"
#include "rxl/transport/traffic_gen.hpp"
#include "rxl/txn/scoreboard.hpp"

namespace perfbench {

namespace tp = rxl::transport;
using rxl::obs::MetricsRegistry;

std::uint64_t sum_metrics(const MetricsRegistry& metrics,
                          std::string_view prefix, std::string_view suffix) {
  std::uint64_t total = 0;
  for (const rxl::obs::Metric& metric : metrics.metrics()) {
    const std::string_view name = metric.name;
    if (name.size() >= prefix.size() + suffix.size() &&
        name.substr(0, prefix.size()) == prefix &&
        name.substr(name.size() - suffix.size()) == suffix)
      total += metric.value;
  }
  return total;
}

std::uint64_t flit_hops(const MetricsRegistry& metrics) {
  return sum_metrics(metrics, "wire.", ".flits_carried") +
         sum_metrics(metrics, "hub.", ".flits_forwarded");
}

namespace {

// Keeps calibrated results observable so no call is optimised away.
volatile std::uint64_t g_sink = 0;

constexpr int kBlocks = 5;
constexpr double kBlockNs = 1e6;

/// Warms `call` up, sizes a block to about kBlockNs, then returns the median
/// ns per call over kBlocks blocks. `call(i)` gets a running call index.
template <typename Call>
double median_ns_per_call(Call&& call) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t index = 0;
  std::uint64_t sink = 0;
  auto run_block = [&](std::uint64_t count) {
    const Clock::time_point start = Clock::now();
    for (std::uint64_t k = 0; k < count; ++k) sink ^= call(index++);
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  run_block(1000);
  std::uint64_t block = 256;
  while (run_block(block) < kBlockNs) block *= 2;
  std::array<double, kBlocks> samples{};
  for (double& sample : samples)
    sample = run_block(block) / static_cast<double>(block);
  std::sort(samples.begin(), samples.end());
  g_sink = g_sink ^ sink;
  return samples[kBlocks / 2];
}

/// The workload's own data: encoded RXL data flits of its first flow's
/// payload stream.
struct CodecInputs {
  static constexpr std::size_t kCount = 64;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<rxl::flit::Flit> flits;

  explicit CodecInputs(const tp::DagConfig& config) {
    const tp::FlitCodec codec(config.protocol.protocol);
    const std::uint64_t salt = config.flows.front().salt;
    for (std::uint64_t i = 0; i < kCount; ++i) {
      payloads.push_back(tp::make_stream_payload(i, salt));
      flits.push_back(codec.encode_data(
          payloads.back(), static_cast<std::uint16_t>(i & rxl::kSeqMask),
          std::nullopt));
    }
  }
};

// --- counts ---------------------------------------------------------------

std::uint64_t endpoint_sum(const MetricsRegistry& m, std::string_view field) {
  return sum_metrics(m, "endpoint.", field);
}

std::uint64_t endpoint_encodes(const MetricsRegistry& m) {
  return endpoint_sum(m, ".data_flits_sent") +
         endpoint_sum(m, ".acks_piggybacked") +
         endpoint_sum(m, ".control_flits_sent");
}

std::uint64_t crc_calls(const MetricsRegistry& m, const tp::DagConfig&) {
  return endpoint_encodes(m) + endpoint_sum(m, ".flits_received") -
         endpoint_sum(m, ".discarded_fec");
}

std::uint64_t rs_encode_calls(const MetricsRegistry& m, const tp::DagConfig&) {
  return endpoint_encodes(m);
}

std::uint64_t fingerprint_calls(const MetricsRegistry& m,
                                const tp::DagConfig&) {
  return endpoint_sum(m, ".data_flits_sent") + endpoint_sum(m, ".retries") +
         endpoint_sum(m, ".control_flits_sent") +
         endpoint_sum(m, ".fec_corrected") +
         sum_metrics(m, "hub.", ".fec_corrected");
}

std::uint64_t rs_decode_calls(const MetricsRegistry& m, const tp::DagConfig&) {
  return endpoint_sum(m, ".discarded_fec") + endpoint_sum(m, ".fec_corrected") +
         sum_metrics(m, "hub.", ".dropped_fec") +
         sum_metrics(m, "hub.", ".fec_corrected");
}

std::uint64_t transit_calls(const MetricsRegistry& m, const tp::DagConfig&) {
  return flit_hops(m);
}

std::uint64_t retry_buffer_calls(const MetricsRegistry& m,
                                 const tp::DagConfig&) {
  return endpoint_sum(m, ".data_flits_sent");
}

std::uint64_t traffic_gen_calls(const MetricsRegistry& m,
                                const tp::DagConfig& config) {
  std::uint64_t total = 0;
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    if (config.flows[f].arrival != tp::ArrivalKind::kPoisson) continue;
    std::string name = "flow.";
    name += std::to_string(f);
    name += ".offered";
    if (const std::uint64_t* value = m.find(name)) total += *value;
  }
  return total;
}

std::uint64_t histogram_calls(const MetricsRegistry& m, const tp::DagConfig&) {
  return sum_metrics(m, "flow.", ".latency.count");
}

std::uint64_t scheduler_calls(const MetricsRegistry& m, const tp::DagConfig&) {
  return sum_metrics(m, "relay.", ".relayed_out");
}

std::uint64_t scoreboard_calls(const MetricsRegistry& m, const tp::DagConfig&) {
  return sum_metrics(m, "flow.", ".delivered");
}

// --- calibrated calls -----------------------------------------------------

double crc_ns(const tp::DagConfig& config) {
  const CodecInputs inputs(config);
  const rxl::crc::IsnCrc isn;
  return median_ns_per_call([&](std::uint64_t i) {
    const rxl::flit::Flit& flit = inputs.flits[i % CodecInputs::kCount];
    return isn.encode(flit.crc_protected_region(),
                      static_cast<std::uint16_t>(i & rxl::kSeqMask));
  });
}

double rs_encode_ns(const tp::DagConfig& config) {
  CodecInputs inputs(config);
  const rxl::rs::FlitFec fec;
  return median_ns_per_call([&](std::uint64_t i) -> std::uint64_t {
    rxl::flit::Flit& flit = inputs.flits[i % CodecInputs::kCount];
    fec.encode(flit.bytes());
    return flit.bytes()[rxl::flit::kFecOffset];
  });
}

double fingerprint_ns(const tp::DagConfig& config) {
  const CodecInputs inputs(config);
  return median_ns_per_call([&](std::uint64_t i) {
    return rxl::flit::flit_fingerprint(inputs.flits[i % CodecInputs::kCount]);
  });
}

// One corrupted symbol per flit: the error every hop's FEC corrects. The
// call includes the 256 B copy that restores the image between calls.
double rs_decode_ns(const tp::DagConfig& config) {
  const CodecInputs inputs(config);
  const rxl::rs::FlitFec fec;
  return median_ns_per_call([&](std::uint64_t i) -> std::uint64_t {
    rxl::flit::Flit flit = inputs.flits[i % CodecInputs::kCount];
    flit.bytes()[(i * 37) % rxl::kFlitBytes] ^=
        static_cast<std::uint8_t>(1 + (i & 0x7F));
    return fec.decode(flit.bytes()).corrected_symbols;
  });
}

// The workload's own error process (every edge of a workload shares one).
double phy_corrupt_ns(const tp::DagConfig& config) {
  const tp::DagEdge& edge = config.edges.front();
  const std::unique_ptr<rxl::phy::ErrorModel> model = tp::make_error_model(
      edge.ber, edge.burst_injection_rate, edge.burst_symbols);
  rxl::Xoshiro256 rng(config.seed);
  rxl::flit::Flit flit;
  return median_ns_per_call([&](std::uint64_t) {
    return model->corrupt(flit.bytes(), rng);
  });
}

// One LinkChannel send -> delivery event, error-free so phy is not counted
// twice.
double channel_ns(const tp::DagConfig& config) {
  rxl::sim::EventQueue queue;
  rxl::sim::LinkChannel channel(queue, std::make_unique<rxl::phy::NoErrors>(),
                                1, config.slot, config.edges.front().latency);
  std::uint64_t delivered = 0;
  channel.set_receiver([&delivered](rxl::sim::FlitEnvelope&&) { ++delivered; });
  rxl::sim::FlitEnvelope envelope;
  envelope.flit = CodecInputs(config).flits.front();
  return median_ns_per_call([&](std::uint64_t) {
    channel.send(envelope);
    queue.run(1);
    return delivered;
  });
}

// A data send's retry-buffer work: one push, plus the cumulative ACK that
// frees coalesce_factor entries once every coalesce_factor sends.
double retry_buffer_ns(const tp::DagConfig& config) {
  const CodecInputs inputs(config);
  rxl::link::RetryBuffer buffer(config.protocol.retry_buffer_capacity);
  const unsigned coalesce = config.protocol.coalesce_factor;
  std::uint16_t seq = 0;
  return median_ns_per_call([&](std::uint64_t i) -> std::uint64_t {
    buffer.push(seq, inputs.flits[i % CodecInputs::kCount], i);
    seq = rxl::link::seq_next(seq);
    if (buffer.size() >= 4 * coalesce)
      return buffer.ack_up_to(rxl::link::seq_add(
          *buffer.oldest_seq(), static_cast<std::uint16_t>(coalesce - 1)));
    return 0;
  });
}

// The workload's Poisson arrival process, or a one-per-slot Poisson stream
// when the workload has none (its calls are then zero).
double traffic_gen_ns(const tp::DagConfig& config) {
  tp::ArrivalSpec spec;
  spec.kind = tp::ArrivalKind::kPoisson;
  spec.interval = config.slot;
  spec.seed = config.seed;
  for (const tp::DagFlow& flow : config.flows) {
    if (flow.arrival != tp::ArrivalKind::kPoisson) continue;
    spec.interval = flow.interval;
    break;
  }
  tp::ArrivalProcess arrivals(spec);
  return median_ns_per_call([&](std::uint64_t i) { return arrivals.due(i); });
}

double histogram_ns(const tp::DagConfig& config) {
  rxl::Xoshiro256 rng(config.seed);
  std::vector<std::uint64_t> samples(4096);
  for (std::uint64_t& sample : samples) sample = 1000 + rng.bounded(1u << 24);
  rxl::stats::LatencyHistogram histogram;
  return median_ns_per_call([&](std::uint64_t i) {
    histogram.add(samples[i % samples.size()]);
    return histogram.count();
  });
}

// A relayed flit's egress-queue work as RelaySwitch does it: the payload
// copied into a TxItem, queued on its flow's VC, and picked (the queue head
// under FIFO, EgressScheduler::pick under RR/DRR).
double scheduler_ns(const tp::DagConfig& config) {
  using TxItem = tp::Endpoint::TxItem;
  const bool fifo = config.egress_policy == rxl::switchdev::EgressPolicy::kFifo;
  std::array<rxl::RingQueue<TxItem>, rxl::link::kMaxVcs> queues;
  rxl::switchdev::EgressScheduler scheduler;
  scheduler.set_policy(config.egress_policy);
  for (const tp::DagFlow& flow : config.flows)
    scheduler.set_weight(flow.vc, flow.weight);
  rxl::switchdev::DrrState state;
  const std::vector<std::uint8_t> payload =
      tp::make_stream_payload(0, config.flows.front().salt);
  auto vc_of = [&](std::uint64_t i) -> std::uint8_t {
    return fifo ? 0 : config.flows[i % config.flows.size()].vc;
  };
  for (std::uint64_t i = 0; i < 4 * config.flows.size(); ++i)
    queues[vc_of(i)].push_back(TxItem{payload, i, 0, vc_of(i)});
  return median_ns_per_call([&](std::uint64_t i) -> std::uint64_t {
    const std::uint8_t vc = vc_of(i);
    queues[vc].push_back(TxItem{payload, i, 0, vc});
    std::size_t serve = 0;
    if (!fifo) {
      bool credit_blocked = false;
      bool ecn_blocked = false;
      serve = *scheduler.pick(
          state, [&](std::size_t v) { return queues[v].empty(); },
          [](std::size_t) { return true; }, [](std::size_t) { return true; },
          &credit_blocked, &ecn_blocked);
    }
    return queues[serve].pop_front().truth_index;
  });
}

// One delivery's scoreboard work: register_sent at the source pull plus
// on_deliver at the sink.
double scoreboard_ns(const tp::DagConfig& config) {
  const CodecInputs inputs(config);
  rxl::txn::StreamScoreboard board;
  rxl::sim::FlitEnvelope envelope;
  envelope.has_truth = true;
  return median_ns_per_call([&](std::uint64_t i) {
    const std::vector<std::uint8_t>& payload =
        inputs.payloads[i % CodecInputs::kCount];
    board.register_sent(i, payload);
    envelope.truth_index = i;
    board.on_deliver(payload, envelope);
    return board.stats().in_order;
  });
}

constexpr std::array<Layer, kLayerCount> kLayers{{
    {"crc", "crc::IsnCrc::encode (242 B, ISN folded)",
     "sum endpoint.*.(data_flits_sent + acks_piggybacked + control_flits_sent"
     " + flits_received - discarded_fec)",
     crc_calls, crc_ns},
    {"rs.encode", "rs::FlitFec::encode",
     "sum endpoint.*.(data_flits_sent + acks_piggybacked + control_flits_sent)",
     rs_encode_calls, rs_encode_ns},
    {"flit.fingerprint", "flit::flit_fingerprint",
     "sum endpoint.*.(data_flits_sent + retries + control_flits_sent +"
     " fec_corrected) + sum hub.*.fec_corrected",
     fingerprint_calls, fingerprint_ns},
    {"rs.decode", "rs::FlitFec::decode (1-symbol error)",
     "sum endpoint.*.(discarded_fec + fec_corrected) + sum hub.*.(dropped_fec"
     " + fec_corrected)",
     rs_decode_calls, rs_decode_ns},
    {"phy.corrupt", "phy::ErrorModel::corrupt (workload model)",
     "sum wire.*.flits_carried + sum hub.*.flits_forwarded", transit_calls,
     phy_corrupt_ns},
    {"link.retry_buffer", "link::RetryBuffer push + cumulative-ACK free",
     "sum endpoint.*.data_flits_sent", retry_buffer_calls, retry_buffer_ns},
    {"transport.traffic_gen", "transport::ArrivalProcess::due",
     "sum flow.<f>.offered over Poisson flows f", traffic_gen_calls,
     traffic_gen_ns},
    {"stats.histogram", "stats::LatencyHistogram::add",
     "sum flow.*.latency.count", histogram_calls, histogram_ns},
    {"switchdev.scheduler", "TxItem queue + EgressScheduler pick",
     "sum relay.*.relayed_out", scheduler_calls, scheduler_ns},
    {"sim.channel", "sim::LinkChannel send -> deliver",
     "sum wire.*.flits_carried + sum hub.*.flits_forwarded", transit_calls,
     channel_ns},
    {"txn.scoreboard", "txn::StreamScoreboard register_sent + on_deliver",
     "sum flow.*.delivered", scoreboard_calls, scoreboard_ns},
}};

}  // namespace

std::span<const Layer, kLayerCount> layers() { return kLayers; }

}  // namespace perfbench
