#include "span_report.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace sockbench {

namespace {

constexpr std::uint32_t kAckBytes = 5;  // a link ACK; longer frames carry data

double span_us(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSession:
      return "session";
    case SpanKind::kRx:
      return "rx_handler";
    case SpanKind::kTx:
      return "tx_send";
    case SpanKind::kCache:
      return "cache";
  }
  return "?";
}

}  // namespace

SpanSummary summarize(const std::vector<std::vector<Span>>& shards,
                      std::int64_t t0_ns, std::int64_t t1_ns) {
  SpanSummary out;
  for (const std::vector<Span>& spans : shards) {
    std::vector<double> child_us(spans.size(), 0);
    for (const Span& s : spans)
      if ((s.kind == SpanKind::kTx || s.kind == SpanKind::kCache) && s.parent)
        child_us[s.parent - 1] += span_us(s);

    // Per connection: end of the last inbound data frame whose handler
    // sent no data frame, while no reply and no newer inbound data came.
    std::unordered_map<std::uint32_t, std::int64_t> waiting_since;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const bool in_window = s.start_ns >= t0_ns && s.start_ns <= t1_ns;
      const double us = span_us(s);
      if (s.kind != SpanKind::kSession && s.parent == 0) out.covered_us += us;
      switch (s.kind) {
        case SpanKind::kRx:
          if (in_window) {
            out.rx_self_us += us - child_us[i];
            out.rx_self_frame_us.push_back(us - child_us[i]);
          }
          if (s.bytes > kAckBytes) {
            if (s.flag)
              waiting_since.erase(s.conn);
            else
              waiting_since[s.conn] = s.end_ns;
          }
          break;
        case SpanKind::kTx:
          if (in_window) {
            out.tx_us += us;
            ++out.tx_frames;
          }
          if (s.bytes > kAckBytes) {
            const auto it = waiting_since.find(s.conn);
            if (it != waiting_since.end()) {
              if (in_window)
                out.reply_wait_us.push_back(
                    static_cast<double>(s.start_ns - it->second) / 1e3);
              waiting_since.erase(it);
            }
          }
          break;
        case SpanKind::kCache:
          if (in_window && s.lookup) {
            out.lookup_us += us;
            ++out.lookups;
            if (s.flag) ++out.hits;
          }
          break;
        case SpanKind::kSession:
          break;
      }
    }
  }
  return out;
}

bool write_trace(const std::string& path,
                 const std::vector<std::vector<Span>>& shards,
                 const GenResult& gen) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> client_of;
  for (const ConnectRecord& c : gen.connects)
    client_of[{c.shard, c.ordinal}] = c.gid;

  std::fprintf(f,
               "span\tshard\tconn\tclient\tparent\tbytes\tstart_ns\t"
               "end_ns\n");
  for (const TxnSpan& t : gen.txns)
    std::fprintf(f, "txn\t-\t-\t%" PRIu32 "\t0\t0\t%" PRId64 "\t%" PRId64 "\n",
                 t.gid, t.start_ns, t.end_ns);
  for (std::uint32_t shard = 0; shard < shards.size(); ++shard) {
    for (const Span& s : shards[shard]) {
      const auto it = client_of.find({shard, s.conn});
      const long long client = it == client_of.end() ? -1 : it->second;
      std::fprintf(f,
                   "%s\t%" PRIu32 "\t%" PRIu32 "\t%lld\t%" PRIu32 "\t%" PRIu32
                   "\t%" PRId64 "\t%" PRId64 "\n",
                   span_name(s.kind), shard, s.conn, client, s.parent, s.bytes,
                   s.start_ns, s.end_ns);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace sockbench
