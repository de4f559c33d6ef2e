#include "calibrate.hpp"

#include <stdexcept>
#include <vector>

#include "mapsec/analysis/stats.hpp"
#include "mapsec/crypto/mont_cache.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/crypto/rsa.hpp"
#include "mapsec/engine/packet_pipeline.hpp"
#include "mapsec/protocol/handshake.hpp"
#include "mapsec/server/wire.hpp"
#include "mapsec/ticket/ticket.hpp"

namespace sockbench {

using namespace mapsec;

namespace {

constexpr int kReps = 200;

/// Median wall time of `reps` calls to `op`, in microseconds.
template <typename Op>
double median_us(int reps, Op&& op) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  op();  // warm caches and lazy set-up
  for (int i = 0; i < reps; ++i) {
    const std::int64_t start = now_ns();
    op();
    samples.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return analysis::percentile(std::move(samples), 0.5);
}

/// Drive a client/server pair to established in memory; returns the
/// server's step_handshake time in microseconds.
double exchange(protocol::TlsClient& client, protocol::TlsServer& server) {
  crypto::Bytes msg = protocol::step_handshake(client, {}).output;
  double server_us = 0;
  bool to_server = true;
  for (int flights = 0; !(client.established() && server.established());
       ++flights) {
    if (flights > 8) throw std::runtime_error("calibration handshake stalled");
    if (to_server) {
      const std::int64_t start = now_ns();
      msg = protocol::step_handshake(server, msg).output;
      server_us += static_cast<double>(now_ns() - start) / 1e3;
    } else {
      msg = protocol::step_handshake(client, msg).output;
    }
    to_server = !to_server;
  }
  return server_us;
}

struct Handshakes {
  double full_us = 0;
  double resumed_us = 0;
  int full_rsa_ops = 0;
};

Handshakes time_handshakes(const Workload& w,
                           const server::ServerConfig& server_cfg,
                           const server::ClientConfig& client_cfg) {
  crypto::HmacDrbg client_rng(0xC1);
  crypto::HmacDrbg server_rng(0x5E);
  ticket::TicketKeyRing ring(0x71C7E7, {3, 0});
  ticket::TicketCodec codec(ring);
  protocol::SessionCache cache;

  protocol::HandshakeConfig ccfg = client_cfg.handshake;
  ccfg.rng = &client_rng;
  ccfg.offered_suites = {kShortSuite};
  ccfg.request_session_ticket = w.tickets;
  protocol::HandshakeConfig scfg = server_cfg.handshake;
  scfg.rng = &server_rng;
  if (w.tickets) scfg.ticket_codec = &codec;

  constexpr int kHandshakes = 40;
  std::vector<double> full, resumed;
  Handshakes out;
  for (int i = 0; i < kHandshakes; ++i) {
    protocol::TlsClient c(ccfg);
    protocol::TlsServer s(scfg, &cache);
    full.push_back(exchange(c, s));
    out.full_rsa_ops = s.summary().rsa_private_ops;

    // The workload's resumption: by ticket for even ids when ticket mode
    // is on, by session id otherwise.
    protocol::TlsClient rc(ccfg);
    if (w.tickets && i % 2 == 0)
      rc.set_resume_ticket(c.session_ticket(), c.master_secret(),
                           c.summary().suite);
    else
      rc.set_resume_session(c.summary().session_id, c.master_secret(),
                            c.summary().suite);
    protocol::TlsServer rs(scfg, &cache);
    resumed.push_back(exchange(rc, rs));
    if (!rs.summary().resumed)
      throw std::runtime_error("calibration resumption fell back to full");
  }
  out.full_us = analysis::percentile(std::move(full), 0.5);
  out.resumed_us = analysis::percentile(std::move(resumed), 0.5);
  return out;
}

double record_open_us_per_kib(protocol::CipherSuite suite, std::size_t bytes,
                              const server::ServerConfig& server_cfg,
                              const server::ClientConfig& client_cfg) {
  crypto::HmacDrbg client_rng(0xC2);
  crypto::HmacDrbg server_rng(0x5F);
  protocol::HandshakeConfig ccfg = client_cfg.handshake;
  ccfg.rng = &client_rng;
  ccfg.offered_suites = {suite};
  protocol::HandshakeConfig scfg = server_cfg.handshake;
  scfg.rng = &server_rng;
  protocol::TlsClient c(ccfg);
  protocol::TlsServer s(scfg);
  protocol::run_handshake(c, s);

  const crypto::Bytes payload = client_rng.bytes(bytes);
  std::vector<crypto::Bytes> records;
  for (int i = 0; i < kReps + 1; ++i) records.push_back(c.send_data(payload));
  std::size_t next = 0;
  const double us = median_us(kReps, [&] {
    if (s.recv_data(records[next++]).size() != 1)
      throw std::runtime_error("calibration record did not open");
  });
  return us / (static_cast<double>(bytes) / 1024.0);
}

}  // namespace

Calibration calibrate(const Workload& workload,
                      const server::ServerConfig& server_cfg,
                      const server::ClientConfig& client_cfg) {
  Calibration cal;
  const std::size_t payload =
      workload.bulk_slots > 0 ? kBulkPayload : kShortPayload;

  crypto::HmacDrbg rng(0xCA1);
  const crypto::RsaPrivateKey& key = *server_cfg.handshake.private_key;
  crypto::MontCache mont;
  // 48 bytes stay below a 512-bit modulus.
  const crypto::BigInt c = crypto::BigInt::from_bytes_be(rng.bytes(48));
  cal.rsa_private_us = median_us(
      kReps, [&] { (void)crypto::rsa_private_op_crt(key, c, nullptr, &mont); });

  const Handshakes hs = time_handshakes(workload, server_cfg, client_cfg);
  cal.server_handshake_full_us =
      hs.full_us - hs.full_rsa_ops * cal.rsa_private_us;
  cal.server_handshake_resumed_us = hs.resumed_us;

  cal.record_open_aes_us_per_kib =
      record_open_us_per_kib(kShortSuite, payload, server_cfg, client_cfg);
  cal.record_open_3des_us_per_kib =
      record_open_us_per_kib(kBulkSuite, payload, server_cfg, client_cfg);

  engine::PacketPipeline pipeline(server_cfg.engine_profile,
                                  server_cfg.pipeline_workers,
                                  server_cfg.pipeline_seed);
  pipeline.load_program("ccmp-out", engine::ccmp_outbound_program());
  const server::BulkKeys keys =
      server::derive_bulk_keys(rng.bytes(48), rng.bytes(16));
  pipeline.add_sa(1, server::make_bulk_sa(1, keys));
  const crypto::Bytes body = rng.bytes(payload);
  std::uint32_t seq = 1;
  cal.pipeline_batch_us = median_us(kReps, [&] {
    engine::PipelineJob job;
    job.sa_id = 1;
    job.program = "ccmp-out";
    job.packet = server::bulk_header(1, seq++);
    job.packet.insert(job.packet.end(), body.begin(), body.end());
    if (!pipeline.run_batch({job}).front().accepted)
      throw std::runtime_error("calibration pipeline job dropped");
  });

  ticket::TicketKeyRing ring(0x71C7E7, {3, 0});
  ticket::TicketCodec codec(ring);
  ticket::SessionTicket t;
  t.master_secret = rng.bytes(48);
  t.suite = static_cast<std::uint16_t>(kShortSuite);
  t.client_binding = ticket::client_binding_for(t.master_secret);
  crypto::Bytes sealed;
  cal.ticket_seal_us = median_us(kReps, [&] { sealed = codec.seal(t, rng); });
  cal.ticket_open_us = median_us(kReps, [&] {
    if (!codec.open(sealed, 0)) throw std::runtime_error("ticket did not open");
  });
  return cal;
}

}  // namespace sockbench
