// Per-operation costs of the layers that sit inside TlsServer and the
// server's flush timer, out of the traced decorators' reach. Measured in
// the benchmark's own process on the workload's shapes; the traced run
// multiplies them by the counts in ServerStats.
#pragma once

#include "common.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/server.hpp"

namespace sockbench {

struct Calibration {
  double rsa_private_us = 0;               // rsa_private_op_crt + MontCache
  double server_handshake_full_us = 0;     // TlsServer self, excl. RSA
  double server_handshake_resumed_us = 0;
  double record_open_aes_us_per_kib = 0;   // TlsServer::recv_data
  double record_open_3des_us_per_kib = 0;
  double pipeline_batch_us = 0;  // run_batch of one ccmp-out job
  double ticket_seal_us = 0;
  double ticket_open_us = 0;
};

Calibration calibrate(const Workload& workload,
                      const mapsec::server::ServerConfig& server_cfg,
                      const mapsec::server::ClientConfig& client_cfg);

}  // namespace sockbench
