// Single-thread benchmark of the rt datapath engine and the §3.1 snapshot
// pipeline.  See README.md in this directory for the workloads, the metric
// definitions and why they are measured the way they are.
//
//   perfbench --workload <cc_adapt|flow_churn|lb_batch> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// per-layer measurements instead.  Either way the last stdout line is one
// JSON object {correct, attempted, failed, metrics}, and the exit code is
// nonzero when any correctness check failed.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernelsim/cost_model.hpp"
#include "quant/quantizer.hpp"
#include "runner.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// A full engine set-up runs outside the blocks before every this many
/// measured blocks; setup_s is the median of their normalized times.
constexpr std::size_t k_setup_every = 16;
/// Untimed blocks before any measurement, on every fresh routing engine.
constexpr std::size_t k_warmup_blocks = 32;
/// Traced-run blocks per --seconds: the traced run's work is fixed by it.
constexpr std::size_t k_trace_blocks_per_s = 24;
/// Traced run: every 128th route and every 32nd FIN get a span.
constexpr std::uint32_t k_route_every = 128;
constexpr std::uint32_t k_fin_every = 32;
constexpr std::size_t k_replay_batch = 64;

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

// ----------------------------------------------------------- host record --

std::string read_first_line(const char* path) {
  std::ifstream f{path};
  std::string line;
  std::getline(f, line);
  return line;
}

std::string cpu_model() {
  std::ifstream f{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

struct host_sample {
  long long steal_ticks = -1;  ///< /proc/stat aggregate steal; -1 unreadable
  long nivcsw = 0;             ///< this thread's involuntary switches
};

host_sample sample_host() {
  host_sample h;
  const std::string cpu = read_first_line("/proc/stat");
  long long v[8] = {};
  if (std::sscanf(cpu.c_str(), "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                  &v[7]) == 8) {
    h.steal_ticks = v[7];
  }
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) == 0) h.nivcsw = ru.ru_nivcsw;
  return h;
}

/// Pin the load thread to the CPU it starts on.  Returns the CPU or -1.
int pin_load_thread() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_host(int pinned_cpu, const host_sample& a, const host_sample& b,
                double timed_s) {
  const std::string clocksource = read_first_line(
      "/sys/devices/system/clocksource/clocksource0/current_clocksource");
  std::printf(
      "host {\"nproc\": %ld, \"cpu_model\": \"%s\", \"clocksource\": \"%s\", "
      "\"pinned_cpu\": %d, \"timed_s\": %.3f, \"steal_ticks\": %lld, "
      "\"involuntary_switches\": %ld}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      json_escape(clocksource.empty() ? "unknown" : clocksource).c_str(),
      pinned_cpu, timed_s,
      a.steal_ticks < 0 || b.steal_ticks < 0 ? -1LL
                                             : b.steal_ticks - a.steal_ticks,
      b.nivcsw - a.nivcsw);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// This thread's minor page faults so far.
long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_minflt;
}

// ---------------------------------------------------------------- phases --

lf::rt::engine_config config_for(const spec& s) {
  lf::rt::engine_config cfg;
  cfg.shadow.sample_rate = s.shadow_rate;
  return cfg;
}

/// Snapshot updates at every update_every-th block boundary.  On cc_adapt
/// the update goes to the routing engine and its try_switch waits one
/// shadow window (the next boundary); elsewhere it goes to a second engine
/// that routes nothing, and switches at once.
class updater {
 public:
  updater(runner& target, const inputs& in, bool deferred_switch)
      : t_{target}, in_{in}, deferred_{deferred_switch} {}

  /// Returns true when the routing engine's active snapshot flipped.
  bool boundary(check_counts& c, std::vector<double>* update_ns, tracer* tr) {
    bool flipped = false;
    if (deferred_ && pending_) {
      const auto [ns, st] = t_.try_switch(tr, pending_id_);
      flipped = finish(c, update_ns, pending_ns_ + ns, st);
      pending_ = false;
    }
    const std::uint32_t id = tr != nullptr ? tr->next_update() : 0;
    const std::uint64_t push_ns =
        t_.push_update(in_.update_model(k_), k_ + 2, tr, id);
    ++k_;
    if (deferred_) {
      pending_ = true;
      pending_ns_ = push_ns;
      pending_id_ = id;
    } else {
      const auto [ns, st] = t_.try_switch(tr, id);
      finish(c, update_ns, push_ns + ns, st);
    }
    return flipped;
  }

  /// Fast-forward boundary: install the next update and flip to it at once
  /// through the ungated switch, since the skipped packets leave the shadow
  /// gate without evidence.
  void fast_boundary(check_counts& c) {
    t_.push_update(in_.update_model(k_), k_ + 2, nullptr, 0);
    ++k_;
    ++c.updates;
    if (!t_.switch_ungated()) ++c.gate_refused;
  }

 private:
  static bool finish(check_counts& c, std::vector<double>* update_ns,
                     std::uint64_t ns, lf::rt::switch_outcome::result st) {
    ++c.updates;
    if (st != lf::rt::switch_outcome::result::flipped) ++c.gate_refused;
    if (update_ns != nullptr) update_ns->push_back(static_cast<double>(ns));
    return st == lf::rt::switch_outcome::result::flipped;
  }

  runner& t_;
  const inputs& in_;
  bool deferred_;
  std::uint64_t k_ = 0;
  bool pending_ = false;
  std::uint64_t pending_ns_ = 0;
  std::uint32_t pending_id_ = 0;
};

struct phase_cfg {
  std::size_t blocks = 0;  ///< measured blocks; 0 = until `seconds` pass
  double seconds = 0.0;
  tracer* tr = nullptr;    ///< spans for the measured blocks and updates
  /// Run outside the blocks before every `setup_every`-th measured block and
  /// followed by a probe; returns the set-up's wall time (ns).
  std::function<std::uint64_t()> setup;
  std::size_t setup_every = 0;
};

/// Median of the densest quarter of `v`: the level the host delivered most
/// often.  On a host that flips between speed levels for seconds at a
/// time, this repeats across runs better than a mean or a tail percentile
/// (see README.md).
double modal(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t k = std::max<std::size_t>(1, v.size() / 4);
  std::size_t best = 0;
  for (std::size_t i = 1; i + k <= v.size(); ++i) {
    if (v[i + k - 1] - v[i] < v[best + k - 1] - v[best]) best = i;
  }
  return percentile({v.begin() + static_cast<std::ptrdiff_t>(best),
                     v.begin() + static_cast<std::ptrdiff_t>(best + k)},
                    0.5);
}

/// Host memory-speed probe.  Neighbours on this shared host slow memory
/// access by up to 1.8x for seconds to minutes at a time, and every
/// workload slows with it.  Outside the timed calls, the probe times a
/// fixed burst of independent random reads over a benchmark-owned 8 MiB
/// buffer, which slows under contention about as the workloads do (a
/// dependent pointer chase over the same buffer does not); set-up times
/// are then scaled by k_probe_nominal_ns / probe time, and block times by
/// that factor and the format probe's together (block_normalized).  The
/// probe is part of this benchmark, so no library change moves it.
class memory_probe {
 public:
  memory_probe() : buf_(std::size_t{1} << 20) {
    for (std::size_t i = 0; i < buf_.size(); ++i) buf_[i] = i * 2654435761u;
  }
  double run_ns() {
    const std::size_t mask = buf_.size() - 1;
    std::uint64_t x = state_, sum = 0;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < 16384; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      sum += buf_[(x >> 40) & mask];
    }
    const std::uint64_t t1 = now_ns();
    state_ = x;
    sink_ = sum;  // a volatile store keeps the reads live
    return static_cast<double>(t1 - t0);
  }

 private:
  std::vector<std::uint64_t> buf_;
  std::uint64_t state_ = 1;
  volatile std::uint64_t sink_ = 0;
};

/// Host speed probe for updates.  An update is mostly number formatting
/// and parsing (freeze, load, emit C), and it slows with the host more
/// steeply than the memory probe does (see README.md).  This probe times
/// 256 snprintf("%.17g") calls appended to a string: libc and this
/// benchmark's code only, so no library change moves it.
class format_probe {
 public:
  double run_ns() {
    out_.clear();
    char buf[32];
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < 256; ++i) {
      x_ = std::fmod(x_ * 1.6180339887498949 + 0.3137, 1.0) + 0.5;
      const int n = std::snprintf(buf, sizeof buf, "%.17g, ", x_);
      out_.append(buf, static_cast<std::size_t>(n));
    }
    const std::uint64_t t1 = now_ns();
    sink_ = out_.size();  // a volatile store keeps the output live
    return static_cast<double>(t1 - t0);
  }

 private:
  std::string out_;
  double x_ = 0.5;
  volatile std::size_t sink_ = 0;
};

/// The format probe's time on this host in a quiet phase; a scale only.
constexpr double k_format_nominal_ns = 80e3;

/// The probe's time on this host when no neighbour contends (4 vCPU Xeon
/// KVM guest).  Only a scale: normalized figures read as the time or
/// throughput at that memory speed, close to the raw ones in quiet phases.
constexpr double k_probe_nominal_ns = 120e3;

/// `ns` as it would read at the nominal probe speed.
double normalized(double ns, double probe_ns) {
  return ns * k_probe_nominal_ns / probe_ns;
}

/// A block's `ns` scaled by the geometric mean of both probes' factors.
/// Routing mixes memory-bound cache lookups with compute-bound inference,
/// and the host's slow phases slow memory and compute by different
/// amounts; the memory probe alone under-corrects them (see README.md).
double block_normalized(double ns, double probe_ns, double format_ns) {
  return ns * std::sqrt(k_probe_nominal_ns / probe_ns * k_format_nominal_ns /
                        format_ns);
}

struct phase_result {
  // Per-event wall times (ns), each with its normalized twin.
  std::vector<double> block_ns, block_norm_ns;
  std::vector<double> update_ns, update_norm_ns;
  std::vector<double> setup_ns, setup_norm_ns;
  std::vector<double> probe_ns;  ///< the memory probe after each block
  std::vector<double> block_format_ns;  ///< the format probe after each block
  std::vector<double> format_ns;  ///< the format probe after each update
  check_counts checks;
  // Engine counters over the measured blocks.
  std::uint64_t routes = 0, l1 = 0, l2 = 0, misses = 0, shadow = 0;
  std::uint64_t locks = 0, rehashes = 0;
  std::uint64_t versions_live_max = 0;
  std::vector<double> post_switch_l2;
  double load_factor = 0.0;
  host_sample host0, host1;
  double timed_s = 0.0;

  /// Modal normalized routes/s.
  double routes_per_s(std::size_t block_routes) const {
    return modal(per_s(block_norm_ns, block_routes));
  }
  static std::vector<double> per_s(const std::vector<double>& ns,
                                   std::size_t work) {
    std::vector<double> out;
    for (const double t : ns) out.push_back(static_cast<double>(work) * 1e9 / t);
    return out;
  }
};

phase_result run_phase(runner& r, updater* up, const spec& s,
                       const phase_cfg& pc) {
  phase_result out;
  memory_probe probe;
  format_probe fmt;
  std::size_t block_no = 0;
  std::size_t measured_no = 0;
  auto one = [&](bool measured) {
    if (measured && pc.setup && measured_no++ % pc.setup_every == 0) {
      const double ns = static_cast<double>(pc.setup());
      out.setup_ns.push_back(ns);
      out.setup_norm_ns.push_back(normalized(ns, probe.run_ns()));
    }
    bool post_switch = false;
    if (up != nullptr && block_no % s.update_every == 0) {
      const std::size_t updates = out.update_ns.size();
      post_switch = up->boundary(out.checks,
                                 measured ? &out.update_ns : nullptr,
                                 measured ? pc.tr : nullptr);
      if (out.update_ns.size() != updates) {
        out.format_ns.push_back(fmt.run_ns());
        out.update_norm_ns.push_back(out.update_ns.back() *
                                     k_format_nominal_ns /
                                     out.format_ns.back());
      }
    }
    const std::uint64_t routes0 = r.worker().routes();
    const std::uint64_t l2_0 = r.worker().cache_hits();
    const std::uint64_t t0 = now_ns();
    if (measured && pc.tr != nullptr) {
      r.run_block_traced(*pc.tr, k_route_every, k_fin_every);
    } else {
      r.run_block();
    }
    const std::uint64_t t1 = now_ns();
    r.check(out.checks);
    if (measured) {
      const double ns = static_cast<double>(t1 - t0);
      out.probe_ns.push_back(probe.run_ns());
      out.block_format_ns.push_back(fmt.run_ns());
      out.block_ns.push_back(ns);
      out.block_norm_ns.push_back(block_normalized(
          ns, out.probe_ns.back(), out.block_format_ns.back()));
      out.versions_live_max =
          std::max(out.versions_live_max, r.engine().versions_live());
      if (post_switch) {
        out.post_switch_l2.push_back(
            static_cast<double>(r.worker().cache_hits() - l2_0) /
            static_cast<double>(r.worker().routes() - routes0));
      }
    }
    ++block_no;
  };
  if (up != nullptr && s.updates_route) {
    // Flows outlive the run, so the versions they pin would still be
    // piling up when it ends; start from their steady state instead.
    const std::uint64_t routes = r.in().longest_life_routes();
    r.fast_forward((routes + s.block_routes - 1) / s.block_routes, [&] {
      if (block_no++ % s.update_every == 0) up->fast_boundary(out.checks);
    });
  }
  for (std::size_t b = 0; b < k_warmup_blocks; ++b) one(false);

  const lf::rt::worker_handle& w = r.worker();
  const std::uint64_t routes0 = w.routes(), l1_0 = w.l1_hits(),
                      l2_0 = w.cache_hits(), miss0 = w.cache_misses(),
                      shadow0 = w.shadow_inferences();
  const lf::rt::sharded_flow_cache::totals c0 = r.engine().cache().stats();
  out.host0 = sample_host();
  const std::uint64_t start = now_ns();
  if (pc.blocks != 0) {
    for (std::size_t b = 0; b < pc.blocks; ++b) one(true);
  } else {
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(pc.seconds * 1e9);
    while (now_ns() < deadline) one(true);
  }
  out.timed_s = static_cast<double>(now_ns() - start) * 1e-9;
  out.host1 = sample_host();
  const lf::rt::sharded_flow_cache::totals c1 = r.engine().cache().stats();
  out.routes = w.routes() - routes0;
  out.l1 = w.l1_hits() - l1_0;
  out.l2 = w.cache_hits() - l2_0;
  out.misses = w.cache_misses() - miss0;
  out.shadow = w.shadow_inferences() - shadow0;
  out.locks = c1.lock_acquisitions - c0.lock_acquisitions;
  out.rehashes = c1.rehashes - c0.rehashes;
  out.load_factor =
      static_cast<double>(c1.size) / static_cast<double>(c1.capacity);
  return out;
}

/// A routing engine, plus the idle engine that takes the updates when the
/// workload's updates do not target the datapath.
struct rig {
  rig(const spec& s, const inputs& in, std::uint64_t seed, std::size_t batch,
      lf::rt::engine_config cfg)
      : route{s, in, cfg, batch, seed} {
    route.setup();
    if (!s.updates_route) {
      idle = std::make_unique<runner>(s, in, lf::rt::engine_config{}, 0,
                                      seed);
      idle->setup();
    }
    up = std::make_unique<updater>(s.updates_route ? route : *idle, in,
                                   s.updates_route);
  }
  runner route;
  std::unique_ptr<runner> idle;
  std::unique_ptr<updater> up;
};

/// Same traffic through route_batch() and route() on two fresh engines with
/// the shadow gate off.  Before every block after the first, both install
/// and switch to the same update, so batches mix flows pinned to several
/// generations.  Every result and output must agree.  Returns the mean
/// number of same-generation runs per route_batch() call.
double batch_vs_scalar(const spec& s, const inputs& in, std::uint64_t seed,
                       std::size_t blocks, check_counts& c) {
  runner a{s, in, lf::rt::engine_config{}, k_replay_batch, seed};
  runner b{s, in, lf::rt::engine_config{}, 0, seed};
  a.setup();
  b.setup();
  std::uint64_t runs = 0, calls = 0;
  for (std::size_t k = 0; k < blocks; ++k) {
    if (k != 0) {
      for (runner* r : {&a, &b}) {
        r->push_update(in.update_model(k), k + 1, nullptr, 0);
        ++c.updates;
        if (r->try_switch(nullptr, 0).second !=
            lf::rt::switch_outcome::result::flipped) {
          ++c.gate_refused;
        }
      }
    }
    a.run_block();
    b.run_block();
    a.check(c);
    b.check(c);
    for (std::size_t i = 0; i < s.block_routes; ++i) {
      const lf::rt::route_result& x = a.results()[i];
      const lf::rt::route_result& y = b.results()[i];
      if (x.gen != y.gen || x.hit != y.hit || x.served != y.served) {
        ++c.mismatched;
      }
      if (i % k_replay_batch == 0) ++calls;
      if (i % k_replay_batch == 0 || x.gen != a.results()[i - 1].gen) ++runs;
    }
    c.outputs_checked += s.block_routes;
    if (a.outputs() != b.outputs()) ++c.mismatched;
  }
  return static_cast<double>(runs) / static_cast<double>(calls);
}

void print_json_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

struct metric {
  const char* name;
  double value;
  const char* unit;
};

int print_result(const check_counts& c, const std::vector<metric>& ms) {
  std::printf("checks: routes %llu unserved %llu inconsistent %llu "
              "outputs_checked %llu mismatched %llu updates %llu "
              "gate_refused %llu drain_failures %llu\n",
              static_cast<unsigned long long>(c.routes),
              static_cast<unsigned long long>(c.unserved),
              static_cast<unsigned long long>(c.inconsistent),
              static_cast<unsigned long long>(c.outputs_checked),
              static_cast<unsigned long long>(c.mismatched),
              static_cast<unsigned long long>(c.updates),
              static_cast<unsigned long long>(c.gate_refused),
              static_cast<unsigned long long>(c.drain_failures));
  const bool ok = c.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ok ? "true" : "false",
              static_cast<unsigned long long>(c.routes + c.updates),
              static_cast<unsigned long long>(c.failed()));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", ms[i].name);
    print_json_number(ms[i].value);
    std::printf(", \"unit\": \"%s\"}", ms[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return ok ? 0 : 1;
}

// ------------------------------------------------------------ trace off --

/// Blocks of the batch check; an update and switch precede all but the
/// first.
constexpr std::size_t k_batch_check_blocks = 4;

/// One set-up on a trial engine beside the running ones; returns its wall
/// time (ns) and records its minor page faults.
std::uint64_t trial_setup(const spec& s, const inputs& in,
                          const lf::rt::engine_config& cfg, std::uint64_t seed,
                          std::vector<double>& faults) {
  // Return free heap pages to the kernel first, so that every set-up pays
  // the first-touch page faults of a set-up in a fresh process, whatever
  // the heap's history.  Otherwise a set-up reuses the pages the previous
  // trial freed in some processes and not in others.
  malloc_trim(0);
  const long f0 = minor_faults();
  runner trial{s, in, cfg, s.batch, seed};
  const std::uint64_t ns = trial.setup();
  faults.push_back(static_cast<double>(minor_faults() - f0));
  return ns;
}

int timed_run(const spec& s, const inputs& in, const args& a, int cpu) {
  const lf::rt::engine_config cfg = config_for(s);
  rig g{s, in, a.seed, s.batch, cfg};

  std::vector<double> setup_faults;
  phase_cfg pc;
  pc.seconds = a.seconds;
  pc.setup_every = k_setup_every;
  pc.setup = [&] { return trial_setup(s, in, cfg, a.seed, setup_faults); };
  phase_result ph = run_phase(g.route, g.up.get(), s, pc);
  // Before the batch check's two engines exist.
  const double rss = peak_rss_mb();

  check_counts& c = ph.checks;
  if (s.batch != 0) {
    batch_vs_scalar(s, in, a.seed, k_batch_check_blocks, c);
  }
  if (!g.route.drain_to_active()) ++c.drain_failures;

  const std::vector<double> tput =
      phase_result::per_s(ph.block_ns, s.block_routes);
  const double rps = ph.routes_per_s(s.block_routes);
  const double update_ms = percentile(ph.update_norm_ns, 0.5) * 1e-6;
  const double setup_s = percentile(ph.setup_norm_ns, 0.5) * 1e-9;

  print_host(cpu, ph.host0, ph.host1, ph.timed_s);
  std::printf("blocks: %zu of %zu routes; raw routes/s p10 %.0f p50 %.0f "
              "p90 %.0f modal %.0f; probe us p50 %.1f; format probe us p50 "
              "%.1f; normalized modal %.0f\n",
              ph.block_ns.size(), s.block_routes, percentile(tput, 0.1),
              percentile(tput, 0.5), percentile(tput, 0.9), modal(tput),
              percentile(ph.probe_ns, 0.5) * 1e-3,
              percentile(ph.block_format_ns, 0.5) * 1e-3, rps);
  std::printf("updates: %zu; raw ms min %.4f p50 %.4f; format probe us p50 "
              "%.1f; normalized p50 %.4f\n",
              ph.update_ns.size(), percentile(ph.update_ns, 0.0) * 1e-6,
              percentile(ph.update_ns, 0.5) * 1e-6,
              percentile(ph.format_ns, 0.5) * 1e-3, update_ms);
  std::printf("setups: %zu; raw s p50 %.6f; normalized p50 %.6f; minor "
              "faults p50 %.0f\n",
              ph.setup_ns.size(), percentile(ph.setup_ns, 0.5) * 1e-9,
              setup_s, percentile(setup_faults, 0.5));
  const std::vector<metric> ms = {
      {"routes_per_s", rps, "routes/s"},
      {"update_ms", update_ms, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss, "MiB"},
  };
  for (const metric& m : ms) {
    std::printf("%-14s %16.6f %s\n", m.name, m.value, m.unit);
  }
  return print_result(c, ms);
}

// ------------------------------------------------------------- trace on --

struct layer_metric {
  const char* name;
  const char* unit;
  const char* layer;
  const char* moves;  ///< end-to-end metric and workload it should move
};

/// Every per-layer metric, in print order, with the layer it measures and
/// the end-to-end metric and workload it should move.  BENCHMARK.json's
/// per_layer list names the same metrics (test_determinism.py checks).
constexpr layer_metric k_layer_metrics[] = {
    {"rt.l1_share", "ratio", "rt", "routes_per_s: cc_adapt"},
    {"rt.l2_share", "ratio", "rt", "routes_per_s: cc_adapt, flow_churn"},
    {"rt.miss_share", "ratio", "rt", "routes_per_s: flow_churn"},
    {"rt.route_hit_ns", "ns", "rt", "routes_per_s: flow_churn"},
    {"rt.route_miss_ns", "ns", "rt", "routes_per_s: flow_churn"},
    {"rt.route_overhead_ns", "ns", "rt", "routes_per_s: flow_churn, lb_batch"},
    {"rt.fin_ns", "ns", "rt", "routes_per_s: flow_churn"},
    {"rt.maintain_us", "us", "rt", "routes_per_s, peak_rss_mb: flow_churn"},
    {"rt.cache_locks_per_route", "ratio", "rt",
     "routes_per_s, peak_rss_mb: flow_churn"},
    {"rt.cache_rehashes_per_mroute", "count/Mroute", "rt",
     "routes_per_s, peak_rss_mb: flow_churn"},
    {"rt.cache_load_factor", "ratio", "rt",
     "routes_per_s, peak_rss_mb: flow_churn"},
    {"rt.batch_ns_per_route", "ns", "rt", "routes_per_s: lb_batch"},
    {"rt.batch_runs_per_call", "count", "rt", "routes_per_s: lb_batch"},
    {"rt.batch_speedup_vs_scalar", "x", "rt", "routes_per_s: lb_batch"},
    {"rt.shadow_share", "ratio", "rt/core",
     "routes_per_s, failed updates: cc_adapt"},
    {"rt.gate_blocks", "count", "rt/core",
     "routes_per_s, failed updates: cc_adapt"},
    {"rt.post_switch_l2_share", "ratio", "rt", "routes_per_s: cc_adapt"},
    {"rt.install_us", "us", "rt", "update_ms: cc_adapt"},
    {"rt.switch_us", "us", "rt", "update_ms: cc_adapt"},
    {"rt.versions_live_max", "count", "rt", "peak_rss_mb: cc_adapt"},
    {"rt.setup_minor_faults", "count", "rt", "setup_s: all workloads"},
    {"quant.infer_ns", "ns", "quant",
     "routes_per_s: cc_adapt (most of a route), flow_churn"},
    {"quant.ns_per_mac", "ns", "quant", "routes_per_s: cc_adapt, flow_churn"},
    {"quant.layer0_ns", "ns", "quant", "routes_per_s: cc_adapt"},
    {"quant.layer1_ns", "ns", "quant", "routes_per_s: cc_adapt"},
    {"quant.layer2_ns", "ns", "quant", "routes_per_s: cc_adapt"},
    {"quant.batch_ns_per_sample", "ns", "quant", "routes_per_s: lb_batch"},
    {"quant.quantize_us", "us", "quant", "update_ms: cc_adapt; setup_s"},
    {"codegen.generate_us", "us", "codegen", "update_ms: cc_adapt; setup_s"},
    {"codegen.emit_us", "us", "codegen", "update_ms: cc_adapt; setup_s"},
    {"codegen.c_source_bytes", "bytes", "codegen",
     "update_ms: cc_adapt; setup_s"},
    {"nn.freeze_us", "us", "nn", "update_ms: cc_adapt"},
    {"nn.load_us", "us", "nn", "update_ms: cc_adapt"},
    {"util.latency_every_ns", "ns", "util",
     "none gated (telemetry-on routes_per_s): flow_churn"},
    {"util.latency_1in64_ns", "ns", "util",
     "none gated (telemetry-on routes_per_s): flow_churn"},
    {"util.blackbox_ns", "ns", "util",
     "none gated (telemetry-on routes_per_s): flow_churn"},
    {"trace.overhead_share", "ratio", "benchmark",
     "none: traced vs untraced routes_per_s"},
    {"trace.clock_pair_ns", "ns", "benchmark",
     "none: subtracted from per-call spans"},
};

/// Median cost of the two steady_clock reads that bracket a span.
double clock_pair_ns() {
  std::vector<double> d(20001);
  for (double& x : d) {
    const std::uint64_t t0 = now_ns();
    x = static_cast<double>(now_ns() - t0);
  }
  return percentile(d, 0.5);
}

/// Median per-call span of `name`, less the clock pair.
double call_ns(const tracer& tr, sp name, double pair) {
  return percentile(tr.durations(name), 0.5) - pair;
}

/// Route splits for a batch workload: its traffic through sampled route()
/// calls on a fresh engine, no updates.
void traced_scalar_replay(const spec& s, const inputs& in, std::uint64_t seed,
                          lf::rt::engine_config cfg, std::size_t blocks,
                          check_counts& c, tracer& tr) {
  runner r{s, in, cfg, 0, seed};
  r.setup();
  phase_cfg pc;
  pc.blocks = blocks;
  pc.tr = &tr;
  const phase_result ph = run_phase(r, nullptr, s, pc);
  c.routes += ph.checks.routes;
  c.unserved += ph.checks.unserved;
  c.inconsistent += ph.checks.inconsistent;
  c.outputs_checked += ph.checks.outputs_checked;
  c.mismatched += ph.checks.mismatched;
}

struct replay_cfg {
  std::size_t batch;  ///< 0 = route()
  lf::rt::engine_config cfg;
};

/// Modal normalized ns per route of one fresh engine per config on the
/// workload's traffic (no updates).  The engines take turns block by block,
/// so host drift hits every config alike and their differences stand out.
std::vector<double> interleaved_replays(const spec& s, const inputs& in,
                                        std::uint64_t seed,
                                        const std::vector<replay_cfg>& cfgs,
                                        std::size_t blocks, check_counts& c) {
  std::vector<std::unique_ptr<runner>> rs;
  for (const replay_cfg& rc : cfgs) {
    rs.push_back(std::make_unique<runner>(s, in, rc.cfg, rc.batch, seed));
    rs.back()->setup();
  }
  memory_probe probe;
  format_probe fmt;
  std::vector<std::vector<double>> norm_ns(rs.size());
  for (std::size_t b = 0; b < k_warmup_blocks + blocks; ++b) {
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      rs[i]->run_block();
      const std::uint64_t t1 = now_ns();
      rs[i]->check(c);
      if (b >= k_warmup_blocks) {
        const double mem_ns = probe.run_ns();
        norm_ns[i].push_back(block_normalized(static_cast<double>(t1 - t0),
                                              mem_ns, fmt.run_ns()));
      }
    }
  }
  std::vector<double> out;
  for (const std::vector<double>& v : norm_ns) {
    out.push_back(1e9 / modal(phase_result::per_s(v, s.block_routes)));
  }
  return out;
}

/// Per-call spans of infer_into on one-layer programs cut from the active
/// program, each fed the previous layer's outputs, and of infer_batch_into
/// on 64-row batches.
void layer_replays(const inputs& in, const lf::quant::quantized_mlp& prog,
                   tracer& tr) {
  const std::size_t rows = in.rows;
  std::vector<lf::fp::s64> cur(in.pool);
  std::size_t width = in.in_size;
  lf::quant::inference_scratch scratch;
  const sp names[] = {sp::layer0, sp::layer1, sp::layer2};
  for (std::size_t li = 0; li < prog.layer_count() && li < 3; ++li) {
    const lf::quant::qdense_layer& l = prog.layer(li);
    const lf::quant::quantized_mlp one{l.input_size, prog.io_scale(), {l}};
    std::vector<lf::fp::s64> next(rows * l.output_size);
    for (int rep = 0; rep < 2; ++rep) {  // first pass warms the caches
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t t0 = now_ns();
        one.infer_into({cur.data() + r * width, width},
                       {next.data() + r * l.output_size, l.output_size},
                       scratch);
        const std::uint64_t t1 = now_ns();
        if (rep == 1) tr.add(names[li], 0, 0, t0, t1);
      }
    }
    cur.swap(next);
    width = l.output_size;
  }
  std::vector<lf::fp::s64> outs(k_replay_batch * in.out_size);
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t r = 0; r + k_replay_batch <= rows; r += k_replay_batch) {
      const std::uint64_t t0 = now_ns();
      prog.infer_batch_into(
          {in.pool.data() + r * in.in_size, k_replay_batch * in.in_size},
          k_replay_batch, outs, scratch);
      const std::uint64_t t1 = now_ns();
      if (rep == 1) tr.add(sp::infer_batch, 0, 0, t0, t1);
    }
  }
}

void print_calibration(const std::map<std::string, double>& v,
                       std::size_t params) {
  auto get = [&](const char* n) { return v.at(n); };
  const lf::kernelsim::cost_model cm;
  const double p = static_cast<double>(params);
  struct row {
    const char* constant;
    double model_ns;
    const char* measured;
    double measured_ns;
    const char* anchor;
  };
  const row rows[] = {
      {"snapshot_mac_cost", cm.snapshot_mac_cost * 1e9, "quant.ns_per_mac",
       get("quant.ns_per_mac"), "paper Fig. 15"},
      {"snapshot_query_overhead", cm.snapshot_query_overhead * 1e9,
       "rt.route_overhead_ns", get("rt.route_overhead_ns"), "paper Fig. 15"},
      {"router_switch_lock_hold", cm.router_switch_lock_hold * 1e9,
       "rt.switch_us", get("rt.switch_us") * 1e3, "paper §3.4 text"},
      {"pipeline_freeze_per_param x params",
       cm.pipeline_freeze_per_param * p * 1e9, "nn.freeze_us",
       get("nn.freeze_us") * 1e3, "estimate"},
      {"pipeline_quantize_per_param x params",
       cm.pipeline_quantize_per_param * p * 1e9, "quant.quantize_us",
       get("quant.quantize_us") * 1e3, "estimate"},
      {"pipeline_translate_per_param x params",
       cm.pipeline_translate_per_param * p * 1e9, "codegen.emit_us",
       get("codegen.emit_us") * 1e3, "estimate"},
  };
  std::printf("\nkernelsim calibration (cost_model constant vs measured, "
              "%zu parameters; constants unchanged)\n",
              params);
  std::printf("%-38s %12s  %-22s %12s %8s  %s\n", "constant", "model_ns",
              "measured", "measured_ns", "ratio", "anchored to");
  for (const row& r : rows) {
    std::printf("%-38s %12.1f  %-22s %12.1f %8.2f  %s\n", r.constant,
                r.model_ns, r.measured, r.measured_ns,
                r.measured_ns / r.model_ns, r.anchor);
  }
}

int traced_run(const spec& s, const inputs& in, const args& a, int cpu) {
  const lf::rt::engine_config cfg = config_for(s);
  const std::size_t blocks = std::max<std::size_t>(
      8, static_cast<std::size_t>(a.seconds *
                                  static_cast<double>(k_trace_blocks_per_s)));
  const std::size_t replay_blocks = std::max<std::size_t>(4, blocks / 4);
  const double pair = clock_pair_ns();

  // Untraced reference on exactly the work the traced phase does.
  double untraced_rps = 0.0;
  {
    rig g{s, in, a.seed, s.batch, cfg};
    phase_cfg pc;
    pc.blocks = blocks;
    untraced_rps =
        run_phase(g.route, g.up.get(), s, pc).routes_per_s(s.block_routes);
  }

  tracer tr;
  rig g{s, in, a.seed, s.batch, cfg};
  std::vector<double> setup_faults;
  phase_cfg pc;
  pc.blocks = blocks;
  pc.tr = &tr;
  pc.setup_every = k_setup_every;
  pc.setup = [&] { return trial_setup(s, in, cfg, a.seed, setup_faults); };
  phase_result ph = run_phase(g.route, g.up.get(), s, pc);
  check_counts& c = ph.checks;
  const double traced_rps = ph.routes_per_s(s.block_routes);

  // Route splits need sampled route() calls; lb_batch routes in batches,
  // so it replays its traffic through route() for them.
  if (s.batch != 0) {
    traced_scalar_replay(s, in, a.seed, cfg, replay_blocks, c, tr);
  }
  lf::rt::engine_config lat_every = cfg;
  lat_every.telemetry.latency = true;
  lf::rt::engine_config lat_64 = lat_every;
  lat_64.telemetry.latency_sample_shift = 6;
  lf::rt::engine_config blackbox = cfg;
  blackbox.telemetry.blackbox_events = std::size_t{1} << 12;
  const std::vector<double> replay = interleaved_replays(
      s, in, a.seed,
      {{0, cfg}, {k_replay_batch, cfg}, {0, lat_every}, {0, lat_64},
       {0, blackbox}},
      replay_blocks, c);
  const double scalar_ns = replay[0], batch_ns = replay[1],
               lat_every_ns = replay[2], lat_64_ns = replay[3],
               blackbox_ns = replay[4];
  const double runs_per_call =
      batch_vs_scalar(s, in, a.seed, k_batch_check_blocks, c);

  const lf::quant::quantized_mlp base_prog =
      lf::quant::quantize(in.models.front());
  layer_replays(in, base_prog, tr);
  if (!g.route.drain_to_active()) ++c.drain_failures;

  const double routes = static_cast<double>(ph.routes);
  const double infer_ns = call_ns(tr, sp::infer_into, pair);
  const double hit_ns = [&] {
    std::vector<double> d = tr.durations(sp::route_l1);
    const std::vector<double> l2 = tr.durations(sp::route_l2);
    d.insert(d.end(), l2.begin(), l2.end());
    return percentile(d, 0.5) - pair;
  }();
  auto median_us = [&](sp name) {
    return percentile(tr.durations(name), 0.5) * 1e-3;
  };
  double post_l2 = 0.0;
  for (const double x : ph.post_switch_l2) post_l2 += x;
  if (!ph.post_switch_l2.empty()) {
    post_l2 /= static_cast<double>(ph.post_switch_l2.size());
  }
  std::map<std::string, double> v;
  v["rt.l1_share"] = static_cast<double>(ph.l1) / routes;
  v["rt.l2_share"] = static_cast<double>(ph.l2) / routes;
  v["rt.miss_share"] = static_cast<double>(ph.misses) / routes;
  v["rt.route_hit_ns"] = hit_ns;
  v["rt.route_miss_ns"] = call_ns(tr, sp::route_miss, pair);
  v["rt.route_overhead_ns"] = hit_ns - infer_ns;
  v["rt.fin_ns"] = call_ns(tr, sp::fin, pair);
  v["rt.maintain_us"] = call_ns(tr, sp::maintain, pair) * 1e-3;
  v["rt.cache_locks_per_route"] = static_cast<double>(ph.locks) / routes;
  v["rt.cache_rehashes_per_mroute"] =
      static_cast<double>(ph.rehashes) * 1e6 / routes;
  v["rt.cache_load_factor"] = ph.load_factor;
  v["rt.batch_ns_per_route"] = batch_ns;
  v["rt.batch_runs_per_call"] = runs_per_call;
  v["rt.batch_speedup_vs_scalar"] = scalar_ns / batch_ns;
  v["rt.shadow_share"] = static_cast<double>(ph.shadow) / routes;
  v["rt.gate_blocks"] = static_cast<double>(g.route.engine().gate_blocks());
  v["rt.post_switch_l2_share"] = post_l2;
  v["rt.install_us"] = median_us(sp::install);
  v["rt.switch_us"] = median_us(sp::switch_);
  v["rt.versions_live_max"] = static_cast<double>(ph.versions_live_max);
  v["rt.setup_minor_faults"] = percentile(setup_faults, 0.5);
  v["quant.infer_ns"] = infer_ns;
  v["quant.ns_per_mac"] =
      infer_ns / static_cast<double>(base_prog.mac_count());
  v["quant.layer0_ns"] = call_ns(tr, sp::layer0, pair);
  v["quant.layer1_ns"] = call_ns(tr, sp::layer1, pair);
  v["quant.layer2_ns"] = call_ns(tr, sp::layer2, pair);
  v["quant.batch_ns_per_sample"] = call_ns(tr, sp::infer_batch, pair) /
                                   static_cast<double>(k_replay_batch);
  v["quant.quantize_us"] = median_us(sp::quantize);
  v["codegen.generate_us"] = median_us(sp::generate);
  v["codegen.emit_us"] = median_us(sp::emit);
  v["codegen.c_source_bytes"] = static_cast<double>(g.route.c_source_bytes());
  v["nn.freeze_us"] = median_us(sp::freeze);
  v["nn.load_us"] = median_us(sp::load);
  v["util.latency_every_ns"] = lat_every_ns - scalar_ns;
  v["util.latency_1in64_ns"] = lat_64_ns - scalar_ns;
  v["util.blackbox_ns"] = blackbox_ns - scalar_ns;
  v["trace.overhead_share"] = 1.0 - traced_rps / untraced_rps;
  v["trace.clock_pair_ns"] = pair;
  std::vector<metric> ms;
  for (const layer_metric& lm : k_layer_metrics) {
    ms.push_back({lm.name, v.at(lm.name), lm.unit});
  }
  if (ms.size() != v.size()) {
    std::fprintf(stderr, "perfbench: a per-layer metric lacks a table row\n");
    return 2;
  }

  print_host(cpu, ph.host0, ph.host1, ph.timed_s);
  std::printf("traced: %zu blocks of %zu routes (+%zu warm-up); untraced "
              "routes/s %.0f, traced %.0f (modal)\n",
              blocks, s.block_routes, k_warmup_blocks, untraced_rps,
              traced_rps);
  std::printf("\n%-30s %14s %-13s %-10s %s\n", "per-layer metric", "value",
              "unit", "layer", "should move");
  for (const layer_metric& lm : k_layer_metrics) {
    std::printf("%-30s %14.4f %-13s %-10s %s\n", lm.name, v.at(lm.name),
                lm.unit, lm.layer, lm.moves);
  }
  std::printf("\nobservability cost (scalar replay of this workload's "
              "traffic, modal ns/route)\n");
  std::printf("%-34s %10s %10s\n", "configuration", "ns/route", "delta_ns");
  std::printf("%-34s %10.1f %10s\n", "telemetry off", scalar_ns, "-");
  std::printf("%-34s %10.1f %10.1f\n", "latency histogram, every route",
              lat_every_ns, lat_every_ns - scalar_ns);
  std::printf("%-34s %10.1f %10.1f\n", "latency histogram, 1 in 64",
              lat_64_ns, lat_64_ns - scalar_ns);
  std::printf("%-34s %10.1f %10.1f\n", "flight recorder (4096 events)",
              blackbox_ns, blackbox_ns - scalar_ns);
  std::printf("%-34s %10.1f %10.1f\n", "this run's tracing (main phase)",
              1e9 / traced_rps, 1e9 / traced_rps - 1e9 / untraced_rps);
  std::printf("\nset-up minor page faults, each of the traced phase's %zu "
              "set-ups:",
              setup_faults.size());
  for (const double f : setup_faults) std::printf(" %.0f", f);
  std::printf("\n");
  print_calibration(v, in.models.front().parameter_count());
  std::printf("\nspans (self = span minus its child spans)\n%s",
              tr.self_time_table().c_str());
  if (!a.spans_out.empty()) {
    if (tr.write_json(a.spans_out)) {
      std::printf("spans written to %s\n", a.spans_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.spans_out.c_str());
    }
  }
  return print_result(c, ms);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cc_adapt|flow_churn|lb_batch> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans-out <f>]\n");
    return 2;
  }
  const perfbench::spec* s = perfbench::find_spec(a.workload);
  if (s == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const int cpu = perfbench::pin_load_thread();
  const perfbench::inputs in = perfbench::make_inputs(*s, a.seed);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", s->name,
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);
  return a.trace ? perfbench::traced_run(*s, in, a, cpu)
                 : perfbench::timed_run(*s, in, a, cpu);
}
