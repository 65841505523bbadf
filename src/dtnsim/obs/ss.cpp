#include "dtnsim/obs/ss.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::obs {
namespace {

// Human-scaled rate, the way ss prints its send/pacing figures.
std::string fmt_rate(double bps) {
  if (bps >= 1e9) return strfmt("%.2fGbps", bps / 1e9);
  if (bps >= 1e6) return strfmt("%.2fMbps", bps / 1e6);
  if (bps >= 1e3) return strfmt("%.1fKbps", bps / 1e3);
  return strfmt("%.0fbps", bps);
}

std::string fmt_bytes(double bytes) {
  if (bytes >= 1e12) return strfmt("%.2fTB", bytes / 1e12);
  if (bytes >= 1e9) return strfmt("%.2fGB", bytes / 1e9);
  if (bytes >= 1e6) return strfmt("%.1fMB", bytes / 1e6);
  if (bytes >= 1e3) return strfmt("%.1fKB", bytes / 1e3);
  return strfmt("%.0fB", bytes);
}

}  // namespace

double SsReport::total_bytes_acked() const {
  double sum = 0.0;
  for (const auto& s : sockets) sum += s.bytes_acked;
  return sum;
}

double SsReport::total_delivery_rate_bps() const {
  double sum = 0.0;
  for (const auto& s : sockets) sum += s.delivery_rate_bps;
  return sum;
}

std::string format_tcp_info(const TcpInfoSnapshot& s) {
  const double mss = s.mss_bytes > 0 ? s.mss_bytes : 1.0;
  std::string out = strfmt("flow %d: ESTAB\n", s.flow);
  out += strfmt("\t %s%s mss:%.0f cwnd:%.0f ssthresh:%.0f rtt:%.3fms/%.3fms minrtt:%.3fms\n",
                s.ca_name.c_str(), s.in_slow_start ? " slow_start" : "", s.mss_bytes,
                std::round(s.snd_cwnd_bytes / mss), std::round(s.snd_ssthresh_bytes / mss),
                s.rtt_sec * 1e3, s.rttvar_sec * 1e3, s.min_rtt_sec * 1e3);
  out += strfmt("\t send %s pacing_rate %s delivery_rate %s%s\n",
                fmt_rate(s.send_rate_bps).c_str(), fmt_rate(s.pacing_rate_bps).c_str(),
                fmt_rate(s.delivery_rate_bps).c_str(),
                s.delivery_rate_app_limited ? " app_limited" : "");
  out += strfmt("\t bytes_sent:%s bytes_acked:%s bytes_retrans:%s retrans:0/%.0f\n",
                fmt_bytes(s.bytes_sent).c_str(), fmt_bytes(s.bytes_acked).c_str(),
                fmt_bytes(s.bytes_retrans).c_str(), s.segs_retrans);
  out += strfmt("\t notsent:%s rcv_space:%s rcv_rtt:%.3fms rcv_ooopack:%.0f\n",
                fmt_bytes(s.notsent_bytes).c_str(),
                fmt_bytes(s.rcv_space_bytes).c_str(), s.rcv_rtt_sec * 1e3,
                s.rcv_ooopack);
  if (s.optmem_max_bytes > 0) {
    out += strfmt(
        "\t zerocopy: sent %s copied %s (%.0f fallback sends) "
        "optmem %.0f/%.0f hiwater %.0f\n",
        fmt_bytes(s.zc_sent_bytes).c_str(), fmt_bytes(s.zc_copied_bytes).c_str(),
        s.zc_copied_sends, s.optmem_used_bytes, s.optmem_max_bytes,
        s.optmem_hiwater_bytes);
  }
  return out;
}

std::string format_ethtool(const NicCountersSnapshot& s) {
  std::string out = strfmt("NIC statistics for %s:\n", s.device.c_str());
  out += strfmt("     rx_bytes: %.0f\n", s.rx_bytes);
  out += strfmt("     rx_out_of_buffer_bytes: %.0f\n", s.rx_dropped_bytes);
  out += strfmt("     rx_out_of_buffer_events: %.0f\n", s.rx_dropped_events);
  out += strfmt("     rx_ring_hiwater_frac: %.3f\n", s.rx_ring_hiwater_frac);
  out += strfmt("     tx_pause_frames: %.0f\n", s.tx_pause_frames);
  out += strfmt("     rx_pause_frames: %.0f\n", s.rx_pause_frames);
  out += strfmt("     hw_gro_coalesced: %.0f\n", s.hw_gro_coalesced);
  return out;
}

std::string format_tc(const QdiscCountersSnapshot& s) {
  std::string out = strfmt("qdisc %s 0: root\n", s.kind.c_str());
  out += strfmt(
      " Sent %.0f bytes, throttled %.0f times, pacing delay %.3fms, "
      "dropped %.0f, backlog %s\n",
      s.sent_bytes, s.throttled, s.pacing_delay_sec * 1e3, s.drops,
      fmt_bytes(s.backlog_bytes).c_str());
  return out;
}

std::string format_ss(const SsReport& r) {
  std::string out = strfmt("# dtnsim-ss t=%.3fs engine=%s", units::to_seconds(r.ts),
                           r.engine.c_str());
  if (!r.label.empty()) out += strfmt(" label=\"%s\"", r.label.c_str());
  out += "\n";
  for (const auto& s : r.sockets) out += format_tcp_info(s);
  out += format_ethtool(r.nic);
  out += format_tc(r.qdisc);
  return out;
}

namespace {

// One diff row: field name, both values, signed delta (and percent when the
// base is nonzero). `unit` is a short suffix printed after each value.
void diff_row(std::string& out, const char* field, double a, double b,
              const char* unit = "") {
  std::string delta = strfmt("%+.6g%s", b - a, unit);
  if (a != 0.0) delta += strfmt(" (%+.1f%%)", (b - a) / std::abs(a) * 100.0);
  out += strfmt("  %-26s %16.6g%-5s %16.6g%-5s %s\n", field, a, unit, b, unit,
                b == a ? "=" : delta.c_str());
}

}  // namespace

std::string format_ss_diff(const SsReport& a, const SsReport& b) {
  const auto head = [](const SsReport& r, const char* tag) {
    return strfmt("#   %s: t=%.3fs engine=%s%s%s%s\n", tag, units::to_seconds(r.ts),
                  r.engine.c_str(), r.label.empty() ? "" : " label=\"",
                  r.label.c_str(), r.label.empty() ? "" : "\"");
  };
  std::string out = "# dtnsim-ss diff (B - A)\n";
  out += head(a, "A");
  out += head(b, "B");
  out += strfmt("  %-26s %21s %21s %s\n", "field", "A", "B", "delta");

  const TcpInfoSnapshot ea{};  // all-zero stand-in when a side has no sockets
  const TcpInfoSnapshot& fa = a.sockets.empty() ? ea : a.sockets.front();
  const TcpInfoSnapshot& fb = b.sockets.empty() ? ea : b.sockets.front();
  const auto sum = [](const SsReport& r, double TcpInfoSnapshot::* field) {
    double total = 0.0;
    for (const auto& s : r.sockets) total += s.*field;
    return total;
  };

  diff_row(out, "sockets", static_cast<double>(a.sockets.size()),
           static_cast<double>(b.sockets.size()));
  // Window dynamics from the representative flow 0, like format_tcp_info.
  diff_row(out, "cwnd (flow 0)", fa.snd_cwnd_bytes, fb.snd_cwnd_bytes, "B");
  diff_row(out, "ssthresh (flow 0)", fa.snd_ssthresh_bytes, fb.snd_ssthresh_bytes, "B");
  diff_row(out, "rtt (flow 0)", fa.rtt_sec * 1e3, fb.rtt_sec * 1e3, "ms");
  diff_row(out, "minrtt (flow 0)", fa.min_rtt_sec * 1e3, fb.min_rtt_sec * 1e3, "ms");
  diff_row(out, "pacing_rate (flow 0)", fa.pacing_rate_bps / 1e9,
           fb.pacing_rate_bps / 1e9, "Gbps");
  // Totals across sockets, the aggregate iperf3 view.
  diff_row(out, "send_rate", a.total_delivery_rate_bps() / 1e9,
           b.total_delivery_rate_bps() / 1e9, "Gbps");
  diff_row(out, "bytes_sent", sum(a, &TcpInfoSnapshot::bytes_sent),
           sum(b, &TcpInfoSnapshot::bytes_sent), "B");
  diff_row(out, "bytes_acked", a.total_bytes_acked(), b.total_bytes_acked(), "B");
  diff_row(out, "bytes_retrans", sum(a, &TcpInfoSnapshot::bytes_retrans),
           sum(b, &TcpInfoSnapshot::bytes_retrans), "B");
  diff_row(out, "retrans_segs", sum(a, &TcpInfoSnapshot::segs_retrans),
           sum(b, &TcpInfoSnapshot::segs_retrans));
  diff_row(out, "notsent", sum(a, &TcpInfoSnapshot::notsent_bytes),
           sum(b, &TcpInfoSnapshot::notsent_bytes), "B");
  diff_row(out, "zc_sent", sum(a, &TcpInfoSnapshot::zc_sent_bytes),
           sum(b, &TcpInfoSnapshot::zc_sent_bytes), "B");
  diff_row(out, "zc_copied", sum(a, &TcpInfoSnapshot::zc_copied_bytes),
           sum(b, &TcpInfoSnapshot::zc_copied_bytes), "B");
  diff_row(out, "zc_fallback_sends", sum(a, &TcpInfoSnapshot::zc_copied_sends),
           sum(b, &TcpInfoSnapshot::zc_copied_sends));
  diff_row(out, "optmem_hiwater", sum(a, &TcpInfoSnapshot::optmem_hiwater_bytes),
           sum(b, &TcpInfoSnapshot::optmem_hiwater_bytes), "B");
  // NIC and qdisc counter blocks.
  diff_row(out, "nic.rx_bytes", a.nic.rx_bytes, b.nic.rx_bytes, "B");
  diff_row(out, "nic.rx_dropped_bytes", a.nic.rx_dropped_bytes,
           b.nic.rx_dropped_bytes, "B");
  diff_row(out, "nic.rx_dropped_events", a.nic.rx_dropped_events,
           b.nic.rx_dropped_events);
  diff_row(out, "nic.ring_hiwater_frac", a.nic.rx_ring_hiwater_frac,
           b.nic.rx_ring_hiwater_frac);
  diff_row(out, "nic.tx_pause_frames", a.nic.tx_pause_frames, b.nic.tx_pause_frames);
  diff_row(out, "nic.hw_gro_coalesced", a.nic.hw_gro_coalesced, b.nic.hw_gro_coalesced);
  diff_row(out, "qdisc.sent_bytes", a.qdisc.sent_bytes, b.qdisc.sent_bytes, "B");
  diff_row(out, "qdisc.throttled", a.qdisc.throttled, b.qdisc.throttled);
  diff_row(out, "qdisc.pacing_delay", a.qdisc.pacing_delay_sec * 1e3,
           b.qdisc.pacing_delay_sec * 1e3, "ms");
  diff_row(out, "qdisc.drops", a.qdisc.drops, b.qdisc.drops);
  return out;
}

Json to_json(const TcpInfoSnapshot& s) {
  Json j = Json::object();
  j["flow"] = s.flow;
  j["ca_name"] = s.ca_name;
  j["in_slow_start"] = s.in_slow_start;
  j["mss_bytes"] = s.mss_bytes;
  j["snd_cwnd_bytes"] = s.snd_cwnd_bytes;
  j["snd_ssthresh_bytes"] = s.snd_ssthresh_bytes;
  j["rtt_sec"] = s.rtt_sec;
  j["rttvar_sec"] = s.rttvar_sec;
  j["min_rtt_sec"] = s.min_rtt_sec;
  j["pacing_rate_bps"] = s.pacing_rate_bps;
  j["delivery_rate_bps"] = s.delivery_rate_bps;
  j["delivery_rate_app_limited"] = s.delivery_rate_app_limited;
  j["send_rate_bps"] = s.send_rate_bps;
  j["bytes_sent"] = s.bytes_sent;
  j["bytes_acked"] = s.bytes_acked;
  j["bytes_retrans"] = s.bytes_retrans;
  j["segs_retrans"] = s.segs_retrans;
  j["notsent_bytes"] = s.notsent_bytes;
  j["rcv_space_bytes"] = s.rcv_space_bytes;
  j["rcv_rtt_sec"] = s.rcv_rtt_sec;
  j["rcv_ooopack"] = s.rcv_ooopack;
  j["optmem_used_bytes"] = s.optmem_used_bytes;
  j["optmem_max_bytes"] = s.optmem_max_bytes;
  j["optmem_hiwater_bytes"] = s.optmem_hiwater_bytes;
  j["zc_sent_bytes"] = s.zc_sent_bytes;
  j["zc_copied_bytes"] = s.zc_copied_bytes;
  j["zc_copied_sends"] = s.zc_copied_sends;
  return j;
}

Json to_json(const SsReport& r) {
  Json j = Json::object();
  j["ts_sec"] = units::to_seconds(r.ts);
  j["engine"] = r.engine;
  j["label"] = r.label;
  Json sockets = Json::array();
  for (const auto& s : r.sockets) sockets.push_back(to_json(s));
  j["sockets"] = std::move(sockets);
  Json nic = Json::object();
  nic["device"] = r.nic.device;
  nic["rx_bytes"] = r.nic.rx_bytes;
  nic["rx_dropped_bytes"] = r.nic.rx_dropped_bytes;
  nic["rx_dropped_events"] = r.nic.rx_dropped_events;
  nic["rx_ring_hiwater_frac"] = r.nic.rx_ring_hiwater_frac;
  nic["tx_pause_frames"] = r.nic.tx_pause_frames;
  nic["rx_pause_frames"] = r.nic.rx_pause_frames;
  nic["hw_gro_coalesced"] = r.nic.hw_gro_coalesced;
  j["nic"] = std::move(nic);
  Json qd = Json::object();
  qd["kind"] = r.qdisc.kind;
  qd["sent_bytes"] = r.qdisc.sent_bytes;
  qd["throttled"] = r.qdisc.throttled;
  qd["pacing_delay_sec"] = r.qdisc.pacing_delay_sec;
  qd["drops"] = r.qdisc.drops;
  qd["backlog_bytes"] = r.qdisc.backlog_bytes;
  j["qdisc"] = std::move(qd);
  return j;
}

TcpInfoSnapshot tcp_info_from_json(const Json& j) {
  TcpInfoSnapshot s;
  s.flow = static_cast<int>(j.number_at("flow", 0));
  s.ca_name = j.string_at("ca_name", "cubic");
  s.in_slow_start = j.bool_at("in_slow_start", false);
  s.mss_bytes = j.number_at("mss_bytes", 0);
  s.snd_cwnd_bytes = j.number_at("snd_cwnd_bytes", 0);
  s.snd_ssthresh_bytes = j.number_at("snd_ssthresh_bytes", 0);
  s.rtt_sec = j.number_at("rtt_sec", 0);
  s.rttvar_sec = j.number_at("rttvar_sec", 0);
  s.min_rtt_sec = j.number_at("min_rtt_sec", 0);
  s.pacing_rate_bps = j.number_at("pacing_rate_bps", 0);
  s.delivery_rate_bps = j.number_at("delivery_rate_bps", 0);
  s.delivery_rate_app_limited = j.bool_at("delivery_rate_app_limited", false);
  s.send_rate_bps = j.number_at("send_rate_bps", 0);
  s.bytes_sent = j.number_at("bytes_sent", 0);
  s.bytes_acked = j.number_at("bytes_acked", 0);
  s.bytes_retrans = j.number_at("bytes_retrans", 0);
  s.segs_retrans = j.number_at("segs_retrans", 0);
  s.notsent_bytes = j.number_at("notsent_bytes", 0);
  s.rcv_space_bytes = j.number_at("rcv_space_bytes", 0);
  s.rcv_rtt_sec = j.number_at("rcv_rtt_sec", 0);
  s.rcv_ooopack = j.number_at("rcv_ooopack", 0);
  s.optmem_used_bytes = j.number_at("optmem_used_bytes", 0);
  s.optmem_max_bytes = j.number_at("optmem_max_bytes", 0);
  s.optmem_hiwater_bytes = j.number_at("optmem_hiwater_bytes", 0);
  s.zc_sent_bytes = j.number_at("zc_sent_bytes", 0);
  s.zc_copied_bytes = j.number_at("zc_copied_bytes", 0);
  s.zc_copied_sends = j.number_at("zc_copied_sends", 0);
  return s;
}

SsReport report_from_json(const Json& j) {
  SsReport r;
  r.ts = units::seconds(j.number_at("ts_sec", 0));
  r.engine = j.string_at("engine", "");
  r.label = j.string_at("label", "");
  if (const Json* sockets = j.find("sockets"); sockets && sockets->is_array()) {
    for (std::size_t i = 0; i < sockets->size(); ++i) {
      r.sockets.push_back(tcp_info_from_json(*sockets->at(i)));
    }
  }
  if (const Json* nic = j.find("nic"); nic && nic->is_object()) {
    r.nic.device = nic->string_at("device", "");
    r.nic.rx_bytes = nic->number_at("rx_bytes", 0);
    r.nic.rx_dropped_bytes = nic->number_at("rx_dropped_bytes", 0);
    r.nic.rx_dropped_events = nic->number_at("rx_dropped_events", 0);
    r.nic.rx_ring_hiwater_frac = nic->number_at("rx_ring_hiwater_frac", 0);
    r.nic.tx_pause_frames = nic->number_at("tx_pause_frames", 0);
    r.nic.rx_pause_frames = nic->number_at("rx_pause_frames", 0);
    r.nic.hw_gro_coalesced = nic->number_at("hw_gro_coalesced", 0);
  }
  if (const Json* qd = j.find("qdisc"); qd && qd->is_object()) {
    r.qdisc.kind = qd->string_at("kind", "fq");
    r.qdisc.sent_bytes = qd->number_at("sent_bytes", 0);
    r.qdisc.throttled = qd->number_at("throttled", 0);
    r.qdisc.pacing_delay_sec = qd->number_at("pacing_delay_sec", 0);
    r.qdisc.drops = qd->number_at("drops", 0);
    r.qdisc.backlog_bytes = qd->number_at("backlog_bytes", 0);
  }
  return r;
}

Json ss_log_to_json(const std::vector<SsReport>& log) {
  Json doc = Json::object();
  Json snaps = Json::array();
  for (const auto& r : log) snaps.push_back(to_json(r));
  doc["snapshots"] = std::move(snaps);
  return doc;
}

std::vector<SsReport> ss_log_from_json(const Json& doc) {
  std::vector<SsReport> out;
  if (const Json* snaps = doc.find("snapshots"); snaps && snaps->is_array()) {
    for (std::size_t i = 0; i < snaps->size(); ++i) {
      out.push_back(report_from_json(*snaps->at(i)));
    }
  }
  return out;
}

bool write_ss_log(const std::string& path, const std::vector<SsReport>& log) {
  std::ofstream out(path);
  if (!out) return false;
  out << ss_log_to_json(log).dump(2) << "\n";
  return static_cast<bool>(out);
}

void cross_check_delivered(const SsReport& report, const Registry& registry) {
  const char* counter = nullptr;
  if (report.engine == "fluid") counter = "flow.delivered_bytes";
  if (report.engine == "packet") counter = "pkt.delivered_bytes";
  if (!counter || !registry.find(counter)) return;
  const double probe_view = registry.value_of(counter);
  const double ss_view = report.total_bytes_acked();
  // Per-flow vs. per-tick accumulation order differs, so allow fp drift.
  const double tol = 1e-6 * std::max({std::fabs(probe_view), std::fabs(ss_view), 1.0});
  if (std::fabs(probe_view - ss_view) > tol) {
    throw std::logic_error(strfmt(
        "ss/probe divergence at t=%.6fs: %s=%.6f bytes but ss snapshot sums "
        "bytes_acked=%.6f (the kernel-eye and iperf3-eye views of one run "
        "must agree)",
        units::to_seconds(report.ts), counter, probe_view, ss_view));
  }
}

SsWatch::SsWatch(Registry* registry, TraceSink* trace)
    : registry_(registry), trace_(trace) {}

const SsReport& SsWatch::sample(Nanos now) {
  if (!source_) {
    throw std::logic_error(
        "SsWatch::sample with no snapshot source installed (the engine "
        "registers one in setup_telemetry when ss is enabled)");
  }
  log_.push_back(source_(now));
  SsReport& r = log_.back();
  r.ts = now;
  mirror(r);
  return r;
}

void SsWatch::final_sample(Nanos now) {
  if (!source_) return;
  // A watch interval that divides the horizon already logged a report at
  // `now` — but that event fired before the enclosing round's tail was
  // accounted, so re-sample in its place rather than trusting (or
  // duplicating) it.
  if (!log_.empty() && log_.back().ts == now) log_.pop_back();
  sample(now);
}

void SsWatch::mirror(const SsReport& r) {
  if (registry_) {
    if (!g_sockets_) {
      g_sockets_ = registry_->gauge("ss.sockets", "sockets",
                                    "sockets in the latest ss snapshot");
      g_delivery_ = registry_->gauge("ss.delivery_rate_bps", "bps",
                                     "summed tcpi_delivery_rate, latest snapshot");
      g_optmem_used_ = registry_->gauge("ss.optmem_used_bytes", "bytes",
                                        "summed in-flight zerocopy charges");
      g_zc_copied_ = registry_->gauge("ss.zc_copied_bytes", "bytes",
                                      "summed zerocopy copy-fallback bytes");
      g_ring_hiwater_ = registry_->gauge("ss.nic_ring_hiwater_frac", "frac",
                                         "receiver ring high-water fraction");
      g_qdisc_throttled_ = registry_->gauge("ss.qdisc_throttled", "events",
                                            "qdisc pacing throttle count");
    }
    double optmem = 0.0, copied = 0.0;
    for (const auto& s : r.sockets) {
      optmem += s.optmem_used_bytes;
      copied += s.zc_copied_bytes;
    }
    g_sockets_->set(static_cast<double>(r.sockets.size()));
    g_delivery_->set(r.total_delivery_rate_bps());
    g_optmem_used_->set(optmem);
    g_zc_copied_->set(copied);
    g_ring_hiwater_->set(r.nic.rx_ring_hiwater_frac);
    g_qdisc_throttled_->set(r.qdisc.throttled);
  }
  if (trace_) {
    trace_->instant("ss_snapshot", "ss", r.ts, 0,
                    {{"sockets", static_cast<double>(r.sockets.size())},
                     {"delivery_rate_bps", r.total_delivery_rate_bps()},
                     {"bytes_acked", r.total_bytes_acked()}});
  }
}

void SsWatch::arm(sim::Engine& engine, Nanos interval, Nanos horizon) {
  engine.every(interval, horizon, [this, &engine] { sample(engine.now()); });
}

}  // namespace dtnsim::obs
