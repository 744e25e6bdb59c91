// perfbench — the measuring half of the protected-DLRM benchmark.
//
// One invocation runs one workload for a fixed wall-clock budget against
// the program's public API and prints one raw JSON record on stdout:
// samples, counters, correctness checks and (traced runs) spans. run.py
// builds this binary, runs it and turns the record into the named
// metrics; README.md explains the workloads and every metric.
//
//   perfbench --workload dlrm-serve|dlrm-offline|fault-campaign
//             --seed N --seconds S --trace 0|1
//
// Every plan is compiled for the T4 device. "Unprotected" is the
// workload's intensity-guided plan with each entry's scheme set to none,
// so both sides run the same execution tiles. Inputs are generated here
// from --seed, uniform in [-0.5, 0.5) on the FP16 grid.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <locale>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "core/global_abft.hpp"
#include "core/thread_level_abft.hpp"
#include "device/device.hpp"
#include "fault/campaign.hpp"
#include "fault/model_campaign.hpp"
#include "gemm/cost_model.hpp"
#include "gemm/functional.hpp"
#include "nn/activation.hpp"
#include "nn/zoo/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/serving.hpp"
#include "runtime/session.hpp"

namespace {

using namespace aift;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ settings --
// Fixed workload parameters; README.md gives the reasons for each value.

constexpr int kSetups = 11;  // set-ups per run; setup_s is their median

// dlrm-serve
constexpr double kLightRate = 400.0;    // requests/s, open loop
constexpr double kHeavyRate = 1200.0;   // requests/s, open loop
constexpr std::int64_t kMaxBatch = 16;  // BatchPolicy::max_batch
constexpr auto kMaxDelay = std::chrono::microseconds(2000);
constexpr auto kSlo = std::chrono::microseconds(250'000);
constexpr int kClosedOutstanding = 2 * kMaxBatch;
constexpr double kOpenPhaseSeconds = 0.6;    // per rate, per round
constexpr double kClosedPhaseSeconds = 0.2;  // per side, per pair
constexpr int kClosedPairsPerRound = 2;
constexpr double kRoundSeconds =
    2 * kOpenPhaseSeconds + 2 * kClosedPairsPerRound * kClosedPhaseSeconds;
constexpr int kServeInputs = 64;

// dlrm-offline
constexpr std::int64_t kOfflineBatch = 2048;
constexpr int kOfflineInputs = 2;

// fault-campaign
constexpr int kTrialsPerCall = 64;
constexpr std::int64_t kCampaignBatchRows = 16;  // run_model_campaign_batched
constexpr int kTracedTrials = 256;
constexpr int kSerialCheckTrials = 32;

/// CPU time all of the process's threads have used so far, in ms.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1000.0 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --------------------------------------------------------------- record --

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

// Spans live in memory and are written with the record at the end. Only
// the thread that drives the workload records spans.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::int64_t open(std::string name, std::int64_t parent = -1,
                    std::int64_t request = -1) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now_ns(), 0, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::int64_t parent = -1,
             std::int64_t request = -1)
      : t_(t), id_(t.open(std::move(name), parent, request)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

struct Record {
  std::map<std::string, std::string> text;
  std::map<std::string, double> numbers;
  std::map<std::string, std::vector<double>> series;
  std::vector<std::pair<std::string, std::string>> failures;  // name, detail
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;

  void add(const std::string& name, double v) { series[name].push_back(v); }

  /// One operation whose outcome is a correctness property: a failure
  /// counts as a failed operation and makes the run incorrect.
  void check(bool ok, const std::string& name, const std::string& detail = {}) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      if (failures.size() < 20) failures.emplace_back(name, detail);
    }
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_record(const Record& rec, const Tracer& tracer) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(17);
  const auto num = [&](double v) {
    if (std::isfinite(v)) {
      os << v;
    } else {
      os << "null";
    }
  };
  os << "{\"correct\":" << (rec.correct ? "true" : "false")
     << ",\"attempted\":" << rec.attempted << ",\"failed\":" << rec.failed;
  os << ",\"text\":{";
  bool first = true;
  for (const auto& [k, v] : rec.text) {
    os << (first ? "" : ",") << json_string(k) << ":" << json_string(v);
    first = false;
  }
  os << "},\"numbers\":{";
  first = true;
  for (const auto& [k, v] : rec.numbers) {
    os << (first ? "" : ",") << json_string(k) << ":";
    num(v);
    first = false;
  }
  os << "},\"series\":{";
  first = true;
  for (const auto& [k, vs] : rec.series) {
    os << (first ? "" : ",") << json_string(k) << ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) os << ",";
      num(vs[i]);
    }
    os << "]";
    first = false;
  }
  os << "},\"failures\":[";
  for (std::size_t i = 0; i < rec.failures.size(); ++i) {
    os << (i ? "," : "") << "[" << json_string(rec.failures[i].first) << ","
       << json_string(rec.failures[i].second) << "]";
  }
  os << "],\"spans\":[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? "," : "") << "[" << json_string(s.name) << "," << s.start_ns
       << "," << s.end_ns << "," << s.parent << "," << s.request << "]";
  }
  os << "]}\n";
  const std::string out = os.str();
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

// --------------------------------------------------------------- inputs --

/// Uniform on the FP16 grid of step 2^-12 in [-0.5, 0.5): every value is
/// exact in FP16, so the program sees exactly the drawn distribution.
Matrix<half_t> gen_input(std::mt19937_64& rng, std::int64_t rows,
                         std::int64_t cols) {
  Matrix<half_t> m(rows, cols);
  for (std::int64_t i = 0; i < m.size(); ++i) {
    const auto u = static_cast<int>(rng() >> 52);  // 12 bits: [0, 4096)
    m.data()[i] = half_t(static_cast<float>(u - 2048) / 4096.0f);
  }
  return m;
}

bool same_bits(const Matrix<half_t>& a, const Matrix<half_t>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(half_t)) == 0;
}

/// The unprotected baseline: the same plan, every scheme set to none, so
/// it runs the protected plan's execution tiles.
InferencePlan strip_protection(InferencePlan plan) {
  for (auto& e : plan.entries) e.profile.scheme = Scheme::none;
  return plan;
}

// -------------------------------------------------- independent checks --

/// Worst ratio |C - A*B| / bound over all elements, with A*B computed in
/// double precision apart from the program. The bound allows FP32
/// accumulation of K exact FP16 products in any order plus one rounding
/// to FP16, so a correct layer output gives a ratio <= 1.
double fp16_bound_ratio(const Matrix<half_t>& a, const Matrix<half_t>& w,
                        const Matrix<half_t>& c) {
  const std::int64_t m = a.rows(), k = a.cols(), n = w.cols();
  if (w.rows() != k || c.rows() != m || c.cols() != n) return INFINITY;
  std::vector<double> wd(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < k * n; ++i) {
    wd[static_cast<std::size_t>(i)] = w.data()[i].to_float();
  }
  const double u32 = std::ldexp(1.0, -24), u16 = std::ldexp(1.0, -11);
  const double acc_factor = static_cast<double>(k) * u32 * 1.01;
  std::vector<double> ref(static_cast<std::size_t>(n)),
      mag(static_cast<std::size_t>(n));
  double worst = 0.0;
  for (std::int64_t r = 0; r < m; ++r) {
    std::fill(ref.begin(), ref.end(), 0.0);
    std::fill(mag.begin(), mag.end(), 0.0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double av = a(r, kk).to_float();
      if (av == 0.0) continue;
      const double* wrow = &wd[static_cast<std::size_t>(kk * n)];
      for (std::int64_t j = 0; j < n; ++j) {
        ref[static_cast<std::size_t>(j)] += av * wrow[j];
        mag[static_cast<std::size_t>(j)] += std::fabs(av * wrow[j]);
      }
    }
    for (std::int64_t j = 0; j < n; ++j) {
      const double exact = ref[static_cast<std::size_t>(j)];
      const double acc_err = acc_factor * mag[static_cast<std::size_t>(j)];
      const double bound =
          acc_err + u16 * (std::fabs(exact) + acc_err) + std::ldexp(1.0, -25);
      const double got = c(r, j).to_float();
      const double ratio = std::fabs(got - exact) / bound;
      if (!(ratio <= worst)) worst = ratio;  // NaN propagates as failure
    }
  }
  return worst;
}

// ------------------------------------------------------ layer replay --

/// Replays a session's planned layers through the public GEMM, check and
/// activation entry points, with the benchmark's own checker instances
/// built from session.weights(l).
class LayerReplay {
 public:
  explicit LayerReplay(const InferenceSession& s) : s_(s) {
    const auto& plan = s.plan();
    for (std::size_t l = 0; l < s.num_layers(); ++l) {
      const auto& e = plan.entries[l];
      Checkers ch;
      ch.global.emplace(s.weights(l), plan.abft_options.num_checksums);
      const auto side = e.scheme() == Scheme::thread_two_sided
                            ? ThreadAbftSide::two_sided
                            : ThreadAbftSide::one_sided;
      ch.thread.emplace(e.exec_tile(), side);
      ch.thread->prepare(s.weights(l));
      checkers_.push_back(std::move(ch));
    }
  }

  struct Outcome {
    Matrix<half_t> output;
    bool flagged = false;  // any planned or counterpart check flagged
    std::vector<Matrix<half_t>> layer_in;
    std::vector<Matrix<half_t>> layer_out;
  };

  /// Runs the chain on `input`. `keep` retains each layer's operands for
  /// the double-precision comparison.
  Outcome run(const Matrix<half_t>& input, Tracer& tr, std::int64_t request,
              bool keep) const {
    Outcome out;
    const ScopedSpan root(tr, "replay", -1, request);
    Matrix<half_t> a = input;
    const std::size_t layers = s_.num_layers();
    for (std::size_t l = 0; l < layers; ++l) {
      const auto& e = s_.plan().entries[l];
      const std::string& name = e.layer.name;
      const GemmShape& g = e.layer.gemm;
      Matrix<half_t> c(g.m, g.n);
      {
        const ScopedSpan sp(tr, "gemm." + name, root.id(), request);
        if (const PackedOperand* p = s_.packed_weights(l)) {
          functional_gemm_batched(a, *p, c, g.m, e.exec_tile());
        } else {
          functional_gemm_batched(a, s_.weights(l), c, g.m, e.exec_tile());
        }
      }
      const bool planned_global = e.scheme() == Scheme::global_abft;
      if (e.scheme() != Scheme::none) {
        const ScopedSpan sp(tr, "check." + name, root.id(), request);
        out.flagged |= planned_global ? check_global(l, a, c)
                                      : check_thread(l, a, c);
      }
      {
        const ScopedSpan sp(tr, "check_other." + name, root.id(), request);
        out.flagged |= planned_global ? check_thread(l, a, c)
                                      : check_global(l, a, c);
      }
      if (keep) out.layer_in.push_back(a);
      if (l + 1 < layers) {
        const GemmShape& next = s_.plan().entries[l + 1].layer.gemm;
        const ScopedSpan sp(tr, "act." + name, root.id(), request);
        a = activate_and_repack_stacked(c, 1, s_.options().activation, next.m,
                                        next.k);
      }
      if (keep) out.layer_out.push_back(c);
      if (l + 1 == layers) out.output = std::move(c);
    }
    return out;
  }

  /// Executed MMAs of each layer on `input`'s chain via GemmCounters, and
  /// whether the counted (unbatched) GEMM reproduces the batched one.
  std::vector<GemmCounters> count(const Outcome& kept, bool* identical) const {
    std::vector<GemmCounters> counters(s_.num_layers());
    *identical = true;
    for (std::size_t l = 0; l < s_.num_layers(); ++l) {
      const auto& e = s_.plan().entries[l];
      Matrix<half_t> c(e.layer.gemm.m, e.layer.gemm.n);
      FunctionalOptions fo;
      fo.counters = &counters[l];
      if (const PackedOperand* p = s_.packed_weights(l)) {
        functional_gemm(kept.layer_in[l], *p, c, e.exec_tile(), fo);
      } else {
        functional_gemm(kept.layer_in[l], s_.weights(l), c, e.exec_tile(), fo);
      }
      *identical &= same_bits(c, kept.layer_out[l]);
    }
    return counters;
  }

 private:
  struct Checkers {
    std::optional<GlobalAbft> global;
    std::optional<ThreadLevelAbft> thread;
  };

  bool check_global(std::size_t l, const Matrix<half_t>& a,
                    const Matrix<half_t>& c) const {
    return checkers_[l].global->check(a, c).fault_detected;
  }
  bool check_thread(std::size_t l, const Matrix<half_t>& a,
                    const Matrix<half_t>& c) const {
    return checkers_[l].thread->check(a, s_.weights(l), c).fault_detected;
  }

  const InferenceSession& s_;
  std::vector<Checkers> checkers_;
};

/// Checks a session against the independent references on `inputs` and,
/// in traced runs, records the per-layer spans and counters.
/// A clean run that flags is a failed operation, except where
/// `flags_fail` is false: MLP-Top's fc3 check flags clean runs on some
/// inputs (README.md, "Faults the numbers carry"), so dlrm-offline counts
/// those flags in `clean_run_flags` instead of failing a seed-dependent
/// share of its operations.
void verify_layers(Record& rec, Tracer& tr, const InferenceSession& session,
                   const std::vector<Matrix<half_t>>& inputs, int reference_inputs,
                   const std::string& label, bool flags_fail = true) {
  const LayerReplay replay(session);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const bool keep = static_cast<int>(i) < reference_inputs;
    const auto out = replay.run(inputs[i], tr, static_cast<std::int64_t>(i), keep);
    const SessionResult run = session.run(inputs[i]);
    rec.check(same_bits(out.output, run.output), label + ".replay_bit_identical",
              "input " + std::to_string(i));
    const bool flagged = out.flagged || run.total_detections() > 0;
    if (flags_fail) {
      rec.check(!flagged, label + ".clean_run_no_detections",
                "input " + std::to_string(i));
    } else {
      rec.numbers["clean_run_flags"] += flagged ? 1 : 0;
    }
    if (!keep) continue;
    for (std::size_t l = 0; l < session.num_layers(); ++l) {
      const double ratio =
          fp16_bound_ratio(out.layer_in[l], session.weights(l), out.layer_out[l]);
      std::ostringstream d;
      d.imbue(std::locale::classic());
      d << "input " << i << " layer " << l << " error/bound " << ratio;
      rec.check(ratio <= 1.0, label + ".layer_vs_double_reference", d.str());
    }
    if (i == 0) {
      bool identical = false;
      const auto counters = replay.count(out, &identical);
      rec.check(identical, label + ".counted_gemm_bit_identical");
      for (std::size_t l = 0; l < session.num_layers(); ++l) {
        const auto& e = session.plan().entries[l];
        const std::string p = "gemm." + e.layer.name + ".";
        const GemmShape& g = e.layer.gemm;
        rec.numbers[p + "executed_macs"] =
            static_cast<double>(counters[l].mmas) * MmaShape::kM *
            MmaShape::kN * MmaShape::kK;
        rec.numbers[p + "m"] = static_cast<double>(g.m);
        rec.numbers[p + "n"] = static_cast<double>(g.n);
        rec.numbers[p + "k"] = static_cast<double>(g.k);
      }
    }
  }
}

void record_plan(Record& rec, const std::string& label, const InferencePlan& p) {
  rec.numbers["plan." + label + ".overhead_pct"] = p.overhead_pct();
  std::string schemes;
  for (const auto& e : p.entries) {
    schemes += (schemes.empty() ? "" : ",") + e.layer.name + ":" +
               scheme_name(e.scheme());
  }
  rec.text["plan." + label + ".schemes"] = schemes;
}

/// Set-up timing shared by every workload: `compile` builds the plans,
/// `build` the sessions or engine. Runs kSetups times; the caller keeps
/// the last set-up's objects.
template <typename Compile, typename Build>
void timed_setups(Record& rec, Tracer& tr, Compile&& compile, Build&& build) {
  for (int s = 0; s < kSetups; ++s) {
    const ScopedSpan root(tr, "setup", -1, s);
    const auto t0 = Clock::now();
    std::int64_t profiles = 0;
    {
      const ScopedSpan sp(tr, "plan.compile", root.id(), s);
      profiles = compile();
    }
    const auto t1 = Clock::now();
    {
      const ScopedSpan sp(tr, "session.build", root.id(), s);
      build();
    }
    const auto t2 = Clock::now();
    rec.add("setup_s", ms_between(t0, t2) / 1000.0);
    rec.add("plan.compile_ms", ms_between(t0, t1));
    rec.add("session.build_ms", ms_between(t1, t2));
    rec.numbers["plan.profiles"] = static_cast<double>(profiles);
  }
}

// ----------------------------------------------------------- dlrm-serve --

struct ServeRefs {
  std::vector<Matrix<half_t>> inputs;
  std::vector<Matrix<half_t>> outputs;  // standalone protected runs
};

bool served_ok(Record& rec, const ServeRefs& refs, std::size_t idx,
               std::future<ServedResult>& fut, ServedResult* out) {
  try {
    *out = fut.get();
  } catch (const std::exception& e) {
    ++rec.attempted;
    ++rec.failed;  // shed or failed request: a failed operation
    if (rec.failures.size() < 20) rec.failures.emplace_back("request", e.what());
    return false;
  }
  const bool ok = same_bits(out->session.output, refs.outputs[idx]) &&
                  out->session.total_detections() == 0;
  rec.check(ok, "served_equals_standalone_run", "input " + std::to_string(idx));
  return ok;
}

/// Seeded Poisson arrivals at `rate` for `seconds`; each request is timed
/// from when it was due.
std::vector<ServedResult> open_loop(Record& rec, Tracer& tr, ServingEngine& engine,
                         const ServeRefs& refs, std::mt19937_64& rng,
                         double rate, double seconds, const std::string& label) {
  std::exponential_distribution<double> gap(rate);
  std::vector<std::pair<double, std::size_t>> schedule;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    schedule.emplace_back(t, static_cast<std::size_t>(rng() % refs.inputs.size()));
  }
  struct Sent {
    std::future<ServedResult> fut;
    std::size_t idx;
    double late_ms;
  };
  std::vector<Sent> sent;
  sent.reserve(schedule.size());
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(schedule[i].first));
    std::this_thread::sleep_until(due);
    const auto t = Clock::now();
    const ScopedSpan sp(tr, "serving.submit", -1, static_cast<std::int64_t>(i));
    sent.push_back({engine.submit("protected", refs.inputs[schedule[i].second]),
                    schedule[i].second, ms_between(due, t)});
  }
  std::vector<ServedResult> served;
  for (auto& req : sent) {
    ServedResult r;
    if (!served_ok(rec, refs, req.idx, req.fut, &r)) continue;
    rec.add("generator_late_ms", req.late_ms);
    rec.add("latency_ms." + label, req.late_ms + (r.queue_us + r.execute_us) / 1000.0);
    served.push_back(std::move(r));
  }
  return served;
}

/// `kClosedOutstanding` requests in flight on `model` for `seconds`;
/// returns completed requests per second.
double closed_loop(Record& rec, Tracer& tr, ServingEngine& engine,
                   const ServeRefs& refs, const std::string& model,
                   double seconds) {
  std::deque<std::pair<std::future<ServedResult>, std::size_t>> q;
  std::size_t next = 0;
  const auto submit = [&] {
    const std::size_t idx = next++ % refs.inputs.size();
    const ScopedSpan sp(tr, "serving.submit");
    q.emplace_back(engine.submit(model, refs.inputs[idx]), idx);
  };
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_ms();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  for (int i = 0; i < kClosedOutstanding; ++i) submit();
  std::int64_t completed = 0;
  while (!q.empty()) {
    auto [fut, idx] = std::move(q.front());
    q.pop_front();
    ServedResult r;
    {
      const ScopedSpan sp(tr, "serving.wait");
      if (served_ok(rec, refs, idx, fut, &r)) ++completed;
    }
    if (Clock::now() < end) submit();
  }
  if (completed > 0) {
    rec.add(model + "_cpu_ms",
            (process_cpu_ms() - cpu0) / static_cast<double>(completed));
  }
  return static_cast<double>(completed) * 1000.0 / ms_between(t0, Clock::now());
}

/// Protected/unprotected (or traced/untraced) closed-loop phase pairs
/// filling 40% of the run.
int closed_pairs(double seconds) {
  return std::max(2, static_cast<int>(seconds * 0.4 / (2 * kClosedPhaseSeconds)));
}

void run_serve(Record& rec, Tracer& tr, std::uint64_t seed, double seconds) {
  const Model model = zoo::dlrm_mlp_bottom(1);
  BatchPolicy policy;
  policy.max_batch = kMaxBatch;
  policy.max_delay = kMaxDelay;
  policy.default_slo = kSlo;

  InferencePlan guided;
  std::unique_ptr<ServingEngine> engine;
  timed_setups(
      rec, tr,
      [&] {
        const GemmCostModel cost(devices::t4());
        const ProtectedPipeline pipe(cost);
        guided = pipe.plan(model, ProtectionPolicy::intensity_guided);
        return pipe.cache_stats().misses;
      },
      [&] {
        engine.reset();  // the previous set-up's engine
        engine = std::make_unique<ServingEngine>();
        engine->add_model("protected", guided, policy);
        engine->add_model("unprotected", strip_protection(guided), policy);
      });
  record_plan(rec, "guided", guided);

  std::mt19937_64 rng(seed);
  ServeRefs refs;
  for (int i = 0; i < kServeInputs; ++i) {
    refs.inputs.push_back(gen_input(rng, model.layers()[0].gemm.m,
                                    model.layers()[0].gemm.k));
  }
  const InferenceSession& prot = engine->session("protected");
  const InferenceSession& unprot = engine->session("unprotected");
  for (const auto& in : refs.inputs) {
    const SessionResult p = prot.run(in);
    const SessionResult u = unprot.run(in);
    rec.check(same_bits(p.output, u.output), "protected_equals_unprotected");
    rec.check(p.total_detections() == 0 && u.total_detections() == 0,
              "clean_run_no_detections");
    refs.outputs.push_back(p.output);
  }
  {
    // Independent layer references and the replay chain. Untraced runs
    // check a handful of inputs; traced runs replay all of them for the
    // per-layer spans.
    const std::vector<Matrix<half_t>> some(
        refs.inputs.begin(),
        refs.inputs.begin() + (tr.enabled() ? kServeInputs : 8));
    verify_layers(rec, tr, prot, some, 8, "serve");
  }

  // One round of light, heavy and closed-loop load, in a fixed order.
  // Rounds repeat through the run, so drift in the host's speed reaches
  // every phase alike.
  const auto round = [&](int r, bool closed) {
    (void)open_loop(rec, tr, *engine, refs, rng, kLightRate, kOpenPhaseSeconds,
                    "light");
    (void)open_loop(rec, tr, *engine, refs, rng, kHeavyRate, kOpenPhaseSeconds,
                    "heavy");
    for (int p = 0; closed && p < kClosedPairsPerRound; ++p) {
      for (const bool prot_side : {(r + p) % 2 == 0, (r + p) % 2 != 0}) {
        const std::string m = prot_side ? "protected" : "unprotected";
        rec.add(m + "_ips",
                closed_loop(rec, tr, *engine, refs, m, kClosedPhaseSeconds));
      }
    }
  };
  // Warm-up round: pool scratch, the batcher and the host reach steady
  // state before anything is recorded. Traced runs leave out its closed
  // loop, so the engine's peak queue depth is the open loop's.
  {
    const bool traced = tr.enabled();
    tr.set_enabled(false);
    round(1, !traced);
    tr.set_enabled(traced);
    for (const char* k : {"latency_ms.light", "latency_ms.heavy",
                          "generator_late_ms", "protected_ips", "unprotected_ips"}) {
      rec.series.erase(k);
    }
  }

  if (tr.enabled()) {
    // Traced: the executor behind the engine, then the heavy open loop
    // with the serving layer's own timings, then traced/untraced closed-
    // loop phases for the tracing overhead.
    const BatchExecutor ex(prot);
    for (int r = 0; r < 20; ++r) {
      std::vector<BatchRequest> batch(kMaxBatch);
      for (std::int64_t b = 0; b < kMaxBatch; ++b) {
        batch[static_cast<std::size_t>(b)].input =
            refs.inputs[static_cast<std::size_t>((r * kMaxBatch + b) % kServeInputs)];
      }
      BatchResult res;
      {
        const ScopedSpan sp(tr, "executor.run", -1, r);
        res = ex.run(batch);
      }
      for (std::int64_t b = 0; b < kMaxBatch; ++b) {
        const auto idx = static_cast<std::size_t>((r * kMaxBatch + b) % kServeInputs);
        rec.check(same_bits(res.requests[static_cast<std::size_t>(b)].output,
                            refs.outputs[idx]),
                  "executor_equals_standalone_run");
      }
      if (r == 0) {
        rec.numbers["executor.deferred_checks"] = static_cast<double>(res.stats.deferred_checks);
        rec.numbers["executor.rewinds"] = static_cast<double>(res.stats.rewinds);
        rec.numbers["executor.flushed_executions"] =
            static_cast<double>(res.stats.flushed_executions);
      }
    }
    reset_scratch_stats();
    const auto heavy = open_loop(rec, tr, *engine, refs, rng, kHeavyRate,
                                 seconds * 0.4, "heavy");
    rec.numbers["scratch.misses"] = static_cast<double>(scratch_stats().misses);
    for (const auto& r : heavy) {
      rec.add("serving.queue_ms", r.queue_us / 1000.0);
      rec.add("serving.execute_ms", r.execute_us / 1000.0);
    }
    const ServingStats st = engine->stats();
    rec.numbers["serving.batch_size.mean"] = st.mean_batch_size();
    rec.numbers["serving.queue_depth.max"] = static_cast<double>(st.max_queue_depth);
    const int pairs = closed_pairs(seconds);
    for (int p = 0; p < pairs; ++p) {
      for (const bool traced : {p % 2 == 0, p % 2 != 0}) {
        tr.set_enabled(traced);
        rec.add(traced ? "traced_ips" : "untraced_ips",
                closed_loop(rec, tr, *engine, refs, "protected",
                            kClosedPhaseSeconds));
      }
    }
    tr.set_enabled(true);
  } else {
    const int rounds = std::max(1, static_cast<int>(seconds / kRoundSeconds));
    for (int r = 0; r < rounds; ++r) round(r, true);
  }
  const ServingStats st = engine->stats();
  rec.numbers["serving.shed"] = static_cast<double>(st.shed);
  rec.numbers["serving.failed"] = static_cast<double>(st.failed);
  engine->shutdown();
}

// --------------------------------------------------------- dlrm-offline --

void run_offline(Record& rec, Tracer& tr, std::uint64_t seed, double seconds) {
  const Model model = zoo::dlrm_mlp_top(kOfflineBatch);
  InferencePlan guided;
  std::unique_ptr<InferenceSession> prot, unprot;
  timed_setups(
      rec, tr,
      [&] {
        const GemmCostModel cost(devices::t4());
        const ProtectedPipeline pipe(cost);
        guided = pipe.plan(model, ProtectionPolicy::intensity_guided);
        return pipe.cache_stats().misses;
      },
      [&] {
        prot = std::make_unique<InferenceSession>(guided);
        unprot = std::make_unique<InferenceSession>(strip_protection(guided));
      });
  record_plan(rec, "guided", guided);

  std::mt19937_64 rng(seed);
  std::vector<Matrix<half_t>> inputs;
  std::vector<Matrix<half_t>> refs;
  for (int i = 0; i < kOfflineInputs; ++i) {
    inputs.push_back(gen_input(rng, prot->input_rows(), prot->input_cols()));
    const SessionResult p = prot->run(inputs.back());
    const SessionResult u = unprot->run(inputs.back());
    rec.check(same_bits(p.output, u.output), "protected_equals_unprotected");
    rec.numbers["clean_run_flags"] += p.total_detections() > 0 ? 1 : 0;
    refs.push_back(p.output);
  }
  // Traced runs replay three times for the per-layer medians; one input
  // gets the double-precision reference either way.
  verify_layers(rec, tr, *prot,
                tr.enabled() ? std::vector<Matrix<half_t>>{inputs[0], inputs[1],
                                                           inputs[0]}
                             : std::vector<Matrix<half_t>>{inputs[0]},
                1, "offline", /*flags_fail=*/false);

  const BatchExecutor pex(*prot), uex(*unprot);
  const auto infer = [&](bool protected_side, std::size_t q, std::int64_t id) {
    std::vector<BatchRequest> batch(1);
    batch[0].input = inputs[q];
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_ms();
    BatchResult res;
    {
      const ScopedSpan sp(tr, "executor.run", -1, id);
      res = (protected_side ? pex : uex).run(batch);
    }
    const double ms = ms_between(t0, Clock::now());
    rec.add(protected_side ? "protected_cpu_ms" : "unprotected_cpu_ms",
            process_cpu_ms() - cpu0);
    rec.check(same_bits(res.requests[0].output, refs[q]),
              "inference_equals_reference");
    rec.numbers["clean_run_flags"] +=
        res.requests[0].total_detections() > 0 ? 1 : 0;
    return std::make_pair(ms, res.stats);
  };

  for (std::size_t q = 0; q < kOfflineInputs; ++q) {  // warm-up
    (void)infer(true, q, -1);
    (void)infer(false, q, -1);
  }
  reset_scratch_stats();
  const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  if (tr.enabled()) {
    const BatchStats stats = infer(true, 0, 0).second;
    rec.numbers["executor.deferred_checks"] = static_cast<double>(stats.deferred_checks);
    rec.numbers["executor.rewinds"] = static_cast<double>(stats.rewinds);
    rec.numbers["executor.flushed_executions"] =
        static_cast<double>(stats.flushed_executions);
    for (std::int64_t round = 0; Clock::now() < t_end; ++round) {
      for (const bool traced : {round % 2 == 0, round % 2 != 0}) {
        tr.set_enabled(traced);
        const auto q = static_cast<std::size_t>(round % kOfflineInputs);
        rec.add(traced ? "traced_ms" : "untraced_ms", infer(true, q, round).first);
      }
    }
    tr.set_enabled(true);
  } else {
    for (std::int64_t round = 0; Clock::now() < t_end; ++round) {
      const auto q = static_cast<std::size_t>(round % kOfflineInputs);
      for (const bool prot_side : {round % 2 == 0, round % 2 != 0}) {
        rec.add(prot_side ? "protected_ms" : "unprotected_ms",
                infer(prot_side, q, round).first);
      }
    }
  }
  rec.numbers["scratch.misses"] = static_cast<double>(scratch_stats().misses);
}

// ------------------------------------------------------- fault-campaign --

void add_campaign_counts(Record& rec, const ModelCampaignStats& s) {
  rec.numbers["campaign.trials"] += static_cast<double>(s.trials);
  rec.numbers["campaign.detected"] += static_cast<double>(s.detected);
  rec.numbers["campaign.recovered"] += static_cast<double>(s.recovered);
  rec.numbers["campaign.unrecovered"] += static_cast<double>(s.unrecovered);
  rec.numbers["campaign.masked"] += static_cast<double>(s.masked);
  rec.numbers["campaign.sdc"] += static_cast<double>(s.sdc);
}

/// The ledger of one campaign: every trial classified once, every
/// detection resolved, no corrupted output behind a passing check, and
/// (faults are transient) every detected fault recovered.
bool ledger_ok(const ModelCampaignStats& s, std::int64_t trials, bool protected_plan) {
  return s.trials == trials && s.detected + s.masked + s.sdc == s.trials &&
         s.recovered + s.unrecovered == s.detected && s.detected_corrupted == 0 &&
         s.unrecovered == 0 && (protected_plan || s.detected == 0);
}

/// Replays a campaign's trials through BatchExecutor::run_from, grouped by
/// faulted layer like the batched engine, to expose the executor counters.
/// Returns the stats the replay classifies.
ModelCampaignStats replay_campaign(Record& rec, Tracer& tr,
                                   const InferenceSession& s,
                                   const ModelCampaignConfig& cfg) {
  const auto layer_in = s.layer_inputs(s.make_input(cfg.input_seed));
  const Matrix<half_t> clean = s.run(layer_in.front()).output;
  std::vector<std::vector<FaultSpec>> by_layer(s.num_layers());
  for (std::int64_t t = 0; t < cfg.trials; ++t) {
    Rng rng(campaign_trial_seed(cfg.seed, t));
    const auto layer = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.num_layers()) - 1));
    const auto& e = s.plan().entries[layer];
    by_layer[layer].push_back(random_fault(rng, e.layer.gemm, e.exec_tile(), cfg.fault_opts));
  }
  const BatchExecutor ex(s);
  ModelCampaignStats stats;
  double reexec = 0.0;
  for (std::size_t layer = 0; layer < by_layer.size(); ++layer) {
    const auto rows = static_cast<std::size_t>(kCampaignBatchRows);
    for (std::size_t lo = 0; lo < by_layer[layer].size(); lo += rows) {
      const std::size_t hi = std::min(by_layer[layer].size(), lo + rows);
      std::vector<BatchRequest> batch;
      for (std::size_t i = lo; i < hi; ++i) {
        batch.push_back({layer_in[layer], {SessionFault{layer, by_layer[layer][i], 0}}});
      }
      BatchResult res;
      {
        const ScopedSpan sp(tr, "executor.run", -1, static_cast<std::int64_t>(layer));
        res = ex.run_from(layer, batch);
      }
      rec.numbers["executor.deferred_checks"] += static_cast<double>(res.stats.deferred_checks);
      rec.numbers["executor.rewinds"] += static_cast<double>(res.stats.rewinds);
      rec.numbers["executor.flushed_executions"] +=
          static_cast<double>(res.stats.flushed_executions);
      for (const auto& r : res.requests) {
        classify_model_trial(stats, layer, r, clean);
        reexec += r.total_retries();
      }
    }
  }
  rec.numbers["campaign.reexecutions"] += reexec;
  return stats;
}

void run_campaign(Record& rec, Tracer& tr, std::uint64_t seed, double seconds) {
  const Model model = zoo::dlrm_mlp_bottom(1);
  InferencePlan guided, global;
  std::unique_ptr<InferenceSession> s_guided, s_global, s_none;
  timed_setups(
      rec, tr,
      [&] {
        const GemmCostModel cost(devices::t4());
        const ProtectedPipeline pipe(cost);
        guided = pipe.plan(model, ProtectionPolicy::intensity_guided);
        global = pipe.plan(model, ProtectionPolicy::global_abft);
        return pipe.cache_stats().misses;
      },
      [&] {
        s_guided = std::make_unique<InferenceSession>(guided);
        s_global = std::make_unique<InferenceSession>(global);
        s_none = std::make_unique<InferenceSession>(strip_protection(guided));
      });
  record_plan(rec, "guided", guided);
  record_plan(rec, "global", global);

  std::mt19937_64 rng(seed);
  const std::uint64_t input_seed = rng();
  const auto base_config = [&](std::uint64_t campaign_seed, int trials) {
    ModelCampaignConfig c;
    c.trials = trials;
    c.seed = campaign_seed;
    c.input_seed = input_seed;
    return c;
  };

  struct Plan {
    const char* name;
    const InferenceSession* session;
    bool protected_plan;
  };
  const Plan plans[] = {{"guided", s_guided.get(), true},
                        {"global", s_global.get(), true},
                        {"unprotected", s_none.get(), false}};

  {
    const Matrix<half_t> in = s_guided->make_input(input_seed);
    const SessionResult g = s_guided->run(in), gl = s_global->run(in), u = s_none->run(in);
    rec.check(same_bits(g.output, u.output), "protected_equals_unprotected");
    rec.check(g.total_detections() == 0 && gl.total_detections() == 0,
              "clean_run_no_detections");
    std::vector<Matrix<half_t>> ins{in};
    for (int i = 0; i < (tr.enabled() ? 63 : 3); ++i) {
      ins.push_back(gen_input(rng, in.rows(), in.cols()));
    }
    verify_layers(rec, tr, *s_guided, ins, 4, "campaign");
    // Batched engine against the serial reference on a sampled subset.
    for (const Plan& p : plans) {
      const auto cfg = base_config(rng(), kSerialCheckTrials);
      rec.check(run_model_campaign_batched(*p.session, cfg, kCampaignBatchRows) ==
                    run_model_campaign_serial(*p.session, cfg),
                std::string("batched_equals_serial.") + p.name);
    }
  }

  const auto call = [&](const Plan& p, std::uint64_t campaign_seed) {
    const auto cfg = base_config(campaign_seed, kTrialsPerCall);
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_ms();
    ModelCampaignStats st;
    {
      const ScopedSpan sp(tr, "campaign.call");
      st = run_model_campaign_batched(*p.session, cfg, kCampaignBatchRows);
    }
    const double ms = ms_between(t0, Clock::now());
    rec.add(std::string("call_cpu_ms.") + p.name, process_cpu_ms() - cpu0);
    rec.check(ledger_ok(st, kTrialsPerCall, p.protected_plan),
              std::string("campaign_ledger.") + p.name);
    return ms;
  };

  for (int w = 0; w < 10; ++w) {  // warm-up
    for (const Plan& p : plans) (void)call(p, rng());
  }
  reset_scratch_stats();
  const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  if (tr.enabled()) {
    rec.numbers["executor.deferred_checks"] = 0;
    rec.numbers["executor.rewinds"] = 0;
    rec.numbers["executor.flushed_executions"] = 0;
    for (const Plan& p : {plans[0], plans[1]}) {
      const auto cfg = base_config(rng(), kTracedTrials);
      const ModelCampaignStats replayed = replay_campaign(rec, tr, *p.session, cfg);
      const ModelCampaignStats engine =
          run_model_campaign_batched(*p.session, cfg, kCampaignBatchRows);
      rec.check(replayed == engine && ledger_ok(engine, kTracedTrials, true),
                std::string("replayed_campaign_equals_engine.") + p.name);
      add_campaign_counts(rec, engine);
    }
    for (std::int64_t round = 0; Clock::now() < t_end; ++round) {
      for (const bool traced : {round % 2 == 0, round % 2 != 0}) {
        tr.set_enabled(traced);
        rec.add(traced ? "traced_ms" : "untraced_ms", call(plans[0], rng()));
      }
    }
    tr.set_enabled(true);
  } else {
    for (std::int64_t round = 0; Clock::now() < t_end; ++round) {
      for (int i = 0; i < 3; ++i) {
        const Plan& p = plans[(round + i) % 3];
        rec.add(std::string("call_ms.") + p.name, call(p, rng()));
      }
    }
  }
  rec.numbers["campaign.trials_per_call"] = kTrialsPerCall;
  rec.numbers["scratch.misses"] = static_cast<double>(scratch_stats().misses);
}

// ----------------------------------------------------------------- main --

std::string cpu_flags() {
  __builtin_cpu_init();
  std::string f;
  if (__builtin_cpu_supports("avx2")) f += "avx2 ";
  if (__builtin_cpu_supports("avx512f")) f += "avx512f ";
  if (__builtin_cpu_supports("f16c")) f += "f16c ";
  if (!f.empty()) f.pop_back();
  return f;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dlrm-serve|dlrm-offline|fault-campaign "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage();
    } else if (k == "--seconds") {
      seconds = std::strtod(v, &end);
      if (*end != '\0') return usage();
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return usage();
  }

  Record rec;
  Tracer tr(trace == 1, Clock::now());
  rec.text["workload"] = workload;
  rec.text["compiler"] = __VERSION__;
  rec.text["build_type"] = PERFBENCH_BUILD_TYPE;
  rec.text["cpu_flags"] = cpu_flags();
  rec.numbers["cores"] = std::thread::hardware_concurrency();
  rec.numbers["pool_workers"] = parallel_workers();
  try {
    if (workload == "dlrm-serve") {
      run_serve(rec, tr, seed, seconds);
    } else if (workload == "dlrm-offline") {
      run_offline(rec, tr, seed, seconds);
    } else if (workload == "fault-campaign") {
      run_campaign(rec, tr, seed, seconds);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rec.numbers["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  write_record(rec, tr);
  return 0;
}
