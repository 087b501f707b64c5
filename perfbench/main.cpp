// perfbench: the end-to-end benchmark's measuring process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --threads T --work DIR
//
// Runs one workload as a closed loop of repetitions (each starts when the
// previous returns) until S seconds have passed, timing every call into the
// program's public API from outside, and prints one JSON object with the
// raw per-repetition samples on its last stdout line. perfbench/run.py
// builds this binary, runs it and turns the samples into metrics.
//
// Workloads (the fleet seed is N):
//   study        Fleet(scale 0.2) + Study begin / 34 rounds / finish, no
//                checkpoints — what `spfail_scan --scale 0.2` runs
//   study_ckpt   the same study, checkpointing at every round boundary
//   initial_full Fleet(scale 1.0) + one initial Campaign::run
//   svc_mix      one ServiceLoop over a control script of 8 small
//                one-thread jobs
//
// Before the timed loop the workload runs once at one thread, untimed: its
// output digest is the reference every timed repetition must match, and the
// run warms the process's heap and the page and file caches.
//
// --trace 1 alternates untraced repetitions with traced ones. A traced
// repetition records spans around every public call and attaches a
// TracingRunner (runner.hpp), which yields per-slice spans; the spans are
// written to DIR/spans.jsonl.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "longitudinal/study.hpp"
#include "population/fleet.hpp"
#include "report/tables.hpp"
#include "runner.hpp"
#include "scan/campaign.hpp"
#include "scenario/scenario.hpp"
#include "snapshot/snapshot.hpp"
#include "spans.hpp"
#include "svc/control.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace spfail;
namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 2021;
  double seconds = 10;
  bool trace = false;
  int threads = 4;
  std::string work;
};

// One repetition's samples. `counts` must repeat exactly across
// repetitions; `layers` are per-layer readings.
struct Rep {
  bool traced = false;
  std::string error;  // empty = the repetition succeeded
  double setup_s = 0;
  double run_s = 0;
  std::int64_t run_start_ns = 0;  // the timed region, for trace coverage
  std::int64_t run_end_ns = 0;
  double cpu_s = 0;
  double peak_rss_kib = 0;
  std::string digest;
  double probes = 0;
  double job_runs = 0;
  std::vector<double> turnaround_s;
  std::vector<double> round_ms;
  std::map<std::string, double> counts;
  std::map<std::string, double> layers;
  std::vector<Span> spans;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Per-repetition peak resident memory. The heap the previous repetition
// freed is handed back first, so each repetition starts near where a fresh
// process would; writing "5" to clear_refs then resets the kernel's
// high-water mark (VmHWM), so each repetition reads its own peak instead of
// the process's, which would grow with the repetition count.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return 1e-9 * static_cast<double>(b - a);
}

std::string hex_digest(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(util::fnv1a(text)));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

population::FleetConfig fleet_config(double scale, std::uint64_t seed) {
  population::FleetConfig config;
  config.scale = scale;
  config.seed = seed;
  return config;
}

// The shared record cache's slot count: its ConcurrentTable doubles the
// expected entry count to a power of two and never grows.
constexpr std::size_t kRecordCacheSlots =
    std::bit_ceil(spf::SharedRecordCache::kDefaultExpected * 2);

void record_cache_layers(const population::Fleet& fleet, Rep& rep) {
  const spf::SharedRecordCache& cache = fleet.record_cache();
  const double hits = static_cast<double>(cache.hits());
  const double misses = static_cast<double>(cache.misses());
  rep.layers["spf.record_cache_hits"] = hits;
  rep.layers["spf.record_cache_misses"] = misses;
  rep.layers["spf.record_cache_size"] = static_cast<double>(cache.size());
  rep.layers["spf.record_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  // Once the table is full, lookups fall back to the evaluator's private
  // memo without counting a miss, so hits, misses and the hit ratio are then
  // partial counts and must not be read as full ones.
  rep.layers["spf.record_cache_saturated"] =
      cache.size() >= kRecordCacheSlots ? 1 : 0;
}

double conclusive_ratio(const scan::CampaignReport& report) {
  const std::size_t tested = report.addresses_tested();
  return tested == 0 ? 0
                     : static_cast<double>(report.count_verdict(
                           scan::AddressVerdict::Measured)) /
                           static_cast<double>(tested);
}

// ---------------------------------------------------------------- batch

std::string render_initial(const population::Fleet& fleet,
                           const scan::CampaignReport& report) {
  std::ostringstream os;
  os << report::table3_outcomes(fleet, report) << "\n"
     << report::table4_breakdown(fleet, report) << "\n"
     << report::table7_behaviors(fleet, report) << "\n";
  return os.str();
}

// spfail_scan's study results, plus the initial tables and the full
// per-round Fig 6/7 series so the digest covers every round.
std::string render_study(const population::Fleet& fleet,
                         const longitudinal::StudyReport& report) {
  std::ostringstream os;
  os << "Initial: "
     << util::with_commas(
            static_cast<long long>(report.initially_vulnerable_addresses))
     << " vulnerable addresses hosting "
     << util::with_commas(
            static_cast<long long>(report.initially_vulnerable_domains))
     << " domains\n\n"
     << render_initial(fleet, report.initial)
     << report::fig2_final_distribution(fleet, report) << "\n"
     << report::table5_tld_patch(fleet, report) << "\n"
     << report::notification_funnel(report) << "\n"
     << report::fig67_vulnerability_series(fleet, report, false) << "\n";
  for (const auto cohort :
       {longitudinal::Cohort::All, longitudinal::Cohort::AlexaTopList,
        longitudinal::Cohort::TwoWeekMx}) {
    const auto series = report::vulnerability_series(fleet, report, cohort);
    os << "  " << util::sparkline(series) << "  " << to_string(cohort) << "\n";
  }
  return os.str();
}

std::unique_ptr<population::Fleet> build_fleet(double scale,
                                               std::uint64_t seed,
                                               SpanRecorder* spans, Rep& rep) {
  const std::int64_t t0 = now_ns();
  std::unique_ptr<population::Fleet> fleet;
  {
    ScopedSpan span(spans, "population.fleet");
    fleet = std::make_unique<population::Fleet>(fleet_config(scale, seed));
  }
  rep.setup_s = seconds_between(t0, now_ns());
  rep.counts["population.addresses"] =
      static_cast<double>(fleet->address_count());
  return fleet;
}

// What ScanSession::write_checkpoint does at a round boundary. The outer
// span also covers freeing the snapshot and its bytes.
void checkpoint(const longitudinal::Study& study,
                const longitudinal::Study::State& state,
                const std::string& path, SpanRecorder* spans, Rep& rep) {
  ScopedSpan outer(spans, "snapshot.checkpoint");
  std::optional<snapshot::StudySnapshot> snap;
  {
    ScopedSpan span(spans, "snapshot.capture");
    snap.emplace(study.capture(state));
  }
  std::string bytes;
  {
    ScopedSpan span(spans, "snapshot.encode");
    bytes = snap->encode();
  }
  {
    ScopedSpan span(spans, "snapshot.save");
    snapshot::save_atomically(path, bytes);
  }
  rep.counts["snapshot.bytes_written"] += static_cast<double>(bytes.size());
  rep.counts["snapshot.checkpoints"] += 1;
}

// Closes a batch repetition's timed region (started at t1 / c1) and books
// what both batch workloads report. One repetition is one job run.
void finish_batch(Rep& rep, population::Fleet& fleet, std::int64_t t1,
                  double c1, const faults::DegradationReport& degradation,
                  const scan::CampaignReport& initial) {
  rep.run_start_ns = t1;
  rep.run_end_ns = now_ns();
  rep.run_s = seconds_between(t1, rep.run_end_ns);
  rep.cpu_s = cpu_seconds() - c1;
  rep.probes = static_cast<double>(degradation.probe_attempts);
  rep.job_runs = 1;
  rep.turnaround_s.push_back(rep.setup_s + rep.run_s);
  rep.counts["scan.probe_attempts"] = rep.probes;
  rep.counts["dns.query_log_entries"] =
      static_cast<double>(fleet.dns().query_log().size());
  rep.layers["dns.queries_per_probe"] =
      rep.probes > 0 ? rep.counts["dns.query_log_entries"] / rep.probes : 0;
  rep.layers["scan.conclusive_ratio"] = conclusive_ratio(initial);
  record_cache_layers(fleet, rep);
}

Rep run_study(const Args& args, bool checkpoints, SpanRecorder* spans) {
  Rep rep;
  std::unique_ptr<population::Fleet> fleet =
      build_fleet(0.2, args.seed, spans, rep);
  const std::string ckpt = args.work + "/study.ckpt";
  if (checkpoints) {
    rep.counts["snapshot.bytes_written"] = 0;
    rep.counts["snapshot.checkpoints"] = 0;
  }

  const std::int64_t t1 = now_ns();
  const double c1 = cpu_seconds();
  std::optional<TracingRunner> runner;
  longitudinal::StudyConfig config;
  config.threads = args.threads;
  if (spans != nullptr) {
    runner.emplace(*fleet, args.threads, config.sched, *spans);
    config.dist = &*runner;
  }
  longitudinal::StudyReport report;
  {
    std::optional<longitudinal::Study> study;
    {
      ScopedSpan span(spans, "longitudinal.study");
      study.emplace(*fleet, config);
    }
    longitudinal::Study::State state;
    {
      ScopedSpan span(spans, "longitudinal.begin");
      state = study->begin();
    }
    if (checkpoints) checkpoint(*study, state, ckpt, spans, rep);
    while (study->rounds_remaining(state)) {
      const std::int64_t r0 = now_ns();
      {
        ScopedSpan span(spans, "longitudinal.round",
                        static_cast<std::int64_t>(state.next_round) + 1);
        study->run_round(state);
      }
      rep.round_ms.push_back(1e3 * seconds_between(r0, now_ns()));
      if (checkpoints) checkpoint(*study, state, ckpt, spans, rep);
    }
    {
      ScopedSpan span(spans, "longitudinal.finish");
      report = study->finish(std::move(state));
    }
    {
      ScopedSpan span(spans, "report.render");
      rep.digest = hex_digest(render_study(*fleet, report));
    }
  }
  finish_batch(rep, *fleet, t1, c1, report.degradation, report.initial);
  // Conclusive observations over the longitudinal rounds: a sizing count
  // that every repetition, traced or not, reads from the report.
  double observations = 0;
  for (std::size_t round = 0; round < report.inference.rounds(); ++round) {
    observations +=
        static_cast<double>(report.inference.counts_at(round).measured());
  }
  rep.counts["longitudinal.observations"] = observations;
  return rep;
}

Rep run_initial_full(const Args& args, SpanRecorder* spans) {
  Rep rep;
  std::unique_ptr<population::Fleet> fleet =
      build_fleet(1.0, args.seed, spans, rep);

  const std::int64_t t1 = now_ns();
  const double c1 = cpu_seconds();
  std::optional<TracingRunner> runner;
  scan::CampaignConfig config;
  config.prober.responder = fleet->responder();
  config.threads = args.threads;
  if (spans != nullptr) {
    runner.emplace(*fleet, args.threads, config.sched, *spans);
    config.runner = &*runner;
  }
  scan::CampaignReport report;
  {
    ScopedSpan span(spans, "scan.campaign");
    scan::Campaign campaign(config, fleet->dns(), fleet->clock(), *fleet);
    report = campaign.run(fleet->target_source());
  }
  {
    ScopedSpan span(spans, "report.render");
    rep.digest = hex_digest(render_initial(*fleet, report));
  }
  finish_batch(rep, *fleet, t1, c1, report.degradation, report);
  return rep;
}

// -------------------------------------------------------------- service

// The job mix: two jobs contending for one explicit /24 (deferrals), a
// priority job, a recurring job run twice, a fault-injected job, a scenario
// job, a plain job and an `at`-scheduled late submit. Every other job gets a
// network of its own, so admission does not depend on the seed. The drain
// is deferred with `at` until the recurring job's second run is queued: a
// drain seen earlier cancels the recurrence. Jobs run at the --threads
// count, which run.py sets to 1 for this workload.
constexpr double kSvcScale = 0.02;
constexpr std::uint64_t kSvcDrainTick = 12;
constexpr int kSvcExpectedRuns = 9;

std::string svc_script(std::uint64_t seed, int threads) {
  const auto job = [&](const char* id, int k, const std::string& extra) {
    return "submit " + std::string(id) + " scale " + std::to_string(kSvcScale) +
           " seed " + std::to_string(seed + k) + " threads " +
           std::to_string(threads) + " " + extra + "\n";
  };
  return job("pair-a", 1, "nets 7") + job("pair-b", 2, "nets 7") +
         job("urgent", 3, "nets 11 priority 5") +
         job("nightly", 4, "nets 12 priority 3 recur 2 runs 2") +
         job("faulty", 5,
             "nets 13 fault-rate 0.1 fault-seed " + std::to_string(seed)) +
         job("staged", 6, "nets 14 scenario forwarding scenario-rounds 3") +
         job("plain", 7, "nets 15") + "at 3 " + job("late", 8, "nets 16") +
         "at " + std::to_string(kSvcDrainTick) + " drain\n";
}

// Stamps every complete line written to the service's live event stream.
class StampBuf : public std::streambuf {
 public:
  std::vector<std::pair<std::int64_t, std::string>> lines;

 protected:
  int_type overflow(int_type ch) override {
    if (ch == traits_type::eof()) return 0;
    const char c = traits_type::to_char_type(ch);
    if (c == '\n') {
      lines.emplace_back(now_ns(), std::move(current_));
      current_.clear();
    } else {
      current_.push_back(c);
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) overflow(s[i]);
    return n;
  }

 private:
  std::string current_;
};

// "tick 3: done job=x run=1 rounds=34" -> verb "done", job "x", run 1.
struct Event {
  std::int64_t at_ns = 0;
  std::string verb;
  std::string job;
  int run = 1;
};

Event parse_event(std::int64_t at_ns, const std::string& line) {
  Event e;
  e.at_ns = at_ns;
  std::istringstream in(line);
  std::string tick, number, word;
  in >> tick >> number >> e.verb;
  while (in >> word) {
    if (word.rfind("job=", 0) == 0) e.job = word.substr(4);
    if (word.rfind("run=", 0) == 0) e.run = std::stoi(word.substr(4));
  }
  return e;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Rep run_svc_mix(const Args& args, SpanRecorder* spans) {
  Rep rep;
  const fs::path dir = fs::path(args.work) / "svc";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string script = svc_script(args.seed, args.threads);
  {
    std::ofstream(dir / "control.txt") << script;
  }

  // Set-up: synthesise each submitted job's fleet once, as Job::open will
  // again inside the run (so setup_s here stands for the fleet synthesis
  // the service pays, and run_s counts it too), then build the service.
  const std::int64_t t0 = now_ns();
  double addresses = 0;
  for (const svc::Command& command : svc::parse_control_text(script)) {
    if (command.kind != svc::Command::Kind::Submit) continue;
    const session::ScanConfig scan = command.spec.to_scan_config();
    population::FleetConfig config = fleet_config(scan.scale, scan.fleet_seed);
    if (!scan.scenario.empty()) {
      config.mix =
          scenario::resolve_mix(scenario::parse_scenario_list(scan.scenario));
    }
    ScopedSpan span(spans, "population.fleet");
    addresses += static_cast<double>(population::Fleet(config).address_count());
  }
  rep.counts["population.addresses"] = addresses;

  svc::SvcConfig config;
  config.dir = dir.string();
  config.control = (dir / "control.txt").string();
  config.max_active_jobs = 4;
  config.admission.bucket_capacity = 1;
  config.max_ticks = 400;
  StampBuf stamps;
  std::ostream log(&stamps);
  svc::ServiceOptions options;
  options.log = &log;
  svc::ServiceLoop loop(config, options);
  rep.setup_s = seconds_between(t0, now_ns());

  const std::int64_t t1 = now_ns();
  const double c1 = cpu_seconds();
  std::int64_t run_span = 0;
  svc::ServiceLoop::Status status;
  {
    ScopedSpan span(spans, "svc.run");
    run_span = span.id();
    status = loop.run();
  }
  rep.run_start_ns = t1;
  rep.run_end_ns = now_ns();
  rep.run_s = seconds_between(t1, rep.run_end_ns);
  rep.cpu_s = cpu_seconds() - c1;

  // Output: the event log plus every job report, in file-name order.
  std::vector<fs::path> reports;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".report") reports.push_back(entry.path());
  }
  std::sort(reports.begin(), reports.end());
  std::string output = read_file(dir / "events.log");
  std::map<std::string, std::string> report_text;
  for (const fs::path& path : reports) {
    const std::string text = read_file(path);
    output += "== " + path.filename().string() + "\n" + text;
    report_text[path.stem().string()] = text;
    const std::size_t at = text.find("probe attempts ");
    if (at != std::string::npos) {
      rep.probes += std::stod(text.substr(at + 15));
    }
  }
  rep.digest = hex_digest(output);

  // Job runs and their turnaround: queued -> done on the live stream.
  std::vector<Event> events;
  for (const auto& [at, line] : stamps.lines) {
    events.push_back(parse_event(at, line));
  }
  // Each job run is a request: a span from its `queued` to its `done`
  // event, with one child span per step between consecutive running /
  // checkpointed / done events.
  std::map<std::string, std::int64_t> queued_at, last_step, run_span_id,
      request_of;
  std::vector<double> steps_ms;
  int deferrals_on_pair = 0;
  int runs_done = 0;
  int recurrence_done = 0;
  std::int64_t requests = 0;
  for (const Event& e : events) {
    if (e.verb == "queued") {
      queued_at[e.job] = e.at_ns;
      request_of[e.job] = ++requests;
      run_span_id[e.job] = spans != nullptr ? spans->next_id() : 0;
    } else if (e.verb == "deferred" && e.job.rfind("pair-", 0) == 0) {
      ++deferrals_on_pair;
    }
    if (e.verb == "running" || e.verb == "checkpointed" || e.verb == "done") {
      if (e.verb != "running") {
        steps_ms.push_back(1e-6 *
                           static_cast<double>(e.at_ns - last_step[e.job]));
        if (spans != nullptr) {
          spans->record(Span{"svc.job_step", last_step[e.job], e.at_ns,
                             spans->next_id(), run_span_id[e.job],
                             request_of[e.job]});
        }
      }
      last_step[e.job] = e.at_ns;
    }
    if (e.verb == "done") {
      ++runs_done;
      if (e.job == "nightly" && e.run == 2) ++recurrence_done;
      rep.turnaround_s.push_back(
          1e-9 * static_cast<double>(e.at_ns - queued_at[e.job]));
      if (spans != nullptr) {
        spans->record(Span{"svc.job_run", queued_at[e.job], e.at_ns,
                           run_span_id[e.job], run_span, request_of[e.job]});
      }
    }
  }
  rep.job_runs = runs_done;
  rep.counts["scan.probe_attempts"] = rep.probes;

  const obs::Registry& metrics = loop.metrics();
  const auto counter = [&](const char* name) -> double {
    const obs::Family* family = metrics.find(name);
    if (family == nullptr) return 0;
    double total = 0;
    for (const auto& [labels, cell] : family->cells) total += cell.counter;
    return total;
  };
  const obs::Family* wait = metrics.find("svc_admission_wait_ticks");
  rep.counts["svc.ticks"] = static_cast<double>(loop.ticks());
  rep.layers["svc.deferrals"] = counter("svc_deferrals_total");
  rep.layers["svc.force_runs"] = counter("svc_force_runs_total");
  rep.layers["svc.admission_wait_ticks_p50"] =
      wait == nullptr || wait->cells.empty()
          ? 0
          : static_cast<double>(
                wait->cells.begin()->second.histogram.quantile(0.5));
  rep.layers["svc.state_bytes"] =
      static_cast<double>(fs::file_size(dir / "svc_state"));
  rep.layers["svc.job_step_p50_ms"] = median(steps_ms);

  // The mix must have the shape it was written to have.
  std::string shape;
  if (status != svc::ServiceLoop::Status::Drained) {
    shape += "service did not drain (" + svc::to_string(status) + "); ";
  }
  if (runs_done != kSvcExpectedRuns ||
      counter("svc_jobs_completed_total") != kSvcExpectedRuns) {
    shape += "completed " + std::to_string(runs_done) + " runs, expected " +
             std::to_string(kSvcExpectedRuns) + "; ";
  }
  if (recurrence_done != 1) shape += "recurring job's second run missing; ";
  if (deferrals_on_pair == 0) shape += "no deferral on the shared /24; ";
  // The fault-injected job must retry more than any fault-free job.
  double faulty_retries = -1, clean_retries = 0;
  for (const auto& [job, text] : report_text) {
    const std::size_t at = text.find(" retries ");
    if (at == std::string::npos) continue;
    const double retries = std::stod(text.substr(at + 9));
    if (job == "faulty") {
      faulty_retries = retries;
    } else {
      clean_retries = std::max(clean_retries, retries);
    }
  }
  if (faulty_retries <= clean_retries) {
    shape += "fault-injected job retried no more than fault-free ones; ";
  }
  if (report_text["staged"].find("scenario forwarding staged ") ==
          std::string::npos ||
      report_text["staged"].find("staged 0 ") != std::string::npos) {
    shape += "scenario job staged nothing; ";
  }
  rep.error = shape;
  return rep;
}

// ------------------------------------------------------------- tracing

// Per-layer readings of one traced repetition, from its spans.
void trace_layers(const std::vector<Span>& spans, double run_s,
                  std::int64_t run_start, std::int64_t run_end, int threads,
                  Rep& rep) {
  const std::map<std::int64_t, double> self = self_seconds(spans);
  std::map<std::int64_t, std::vector<double>> slices;  // batch -> slice s
  std::map<std::string, double> total;
  std::vector<std::pair<std::int64_t, std::int64_t>> top;
  double round_self = 0, campaign_self = 0, slice_sum = 0, batch_wall = 0;
  for (const Span& s : spans) {
    total[s.name] += s.seconds();
    if (s.name.ends_with("_slice")) slices[s.parent].push_back(s.seconds());
    if (s.name == "longitudinal.round") round_self += self.at(s.id);
    if (s.name == "scan.campaign" || s.name == "longitudinal.begin") {
      campaign_self += self.at(s.id);
    }
    if (s.parent == 0 && s.start_ns >= run_start && s.end_ns <= run_end) {
      top.emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> wave_skew, observe_skew;
  bool has_batches = false;
  for (const Span& s : spans) {
    const auto it = slices.find(s.id);
    if (it == slices.end()) continue;
    has_batches = true;
    slice_sum += std::accumulate(it->second.begin(), it->second.end(), 0.0);
    batch_wall += s.seconds();
    if (it->second.size() < 2) continue;
    const double skew = *std::max_element(it->second.begin(), it->second.end()) /
                        std::max(1e-9, median(it->second));
    (s.name == "longitudinal.observe" ? observe_skew : wave_skew)
        .push_back(skew);
  }
  // A layer reads only when its spans were recorded, so a layer a workload
  // should call but did not shows up as missing, not as zero.
  const auto seen = [&](const char* name) { return total.count(name) > 0; };
  const auto book = [&](const char* metric, const char* span) {
    if (seen(span)) rep.layers[metric] = total.at(span);
  };
  book("population.fleet_build_s", "population.fleet");
  if (seen("scan.campaign") || seen("longitudinal.begin")) {
    rep.layers["scan.campaign_s"] =
        total["scan.campaign"] + total["longitudinal.begin"];
    rep.layers["scan.campaign_self_s"] = campaign_self;
  }
  book("scan.wave_s", "scan.wave");
  if (!wave_skew.empty()) rep.layers["scan.wave_slice_skew"] = median(wave_skew);
  book("longitudinal.observe_s", "longitudinal.observe");
  if (seen("longitudinal.round")) {
    rep.layers["longitudinal.round_self_s"] = round_self;
  }
  if (!observe_skew.empty()) {
    rep.layers["longitudinal.observe_slice_skew"] = median(observe_skew);
  }
  book("longitudinal.finish_s", "longitudinal.finish");
  book("snapshot.capture_s", "snapshot.capture");
  book("snapshot.encode_s", "snapshot.encode");
  book("snapshot.save_s", "snapshot.save");
  if (seen("snapshot.checkpoint")) {
    rep.layers["snapshot.checkpoint_share"] =
        total.at("snapshot.checkpoint") / run_s;
  }
  book("report.render_s", "report.render");
  if (has_batches) {
    rep.layers["util.pool_busy_share"] = slice_sum / (threads * batch_wall);
  }
  rep.layers["trace.coverage"] =
      1e-9 * static_cast<double>(covered_ns(top, run_start, run_end)) / run_s;
}

Rep run_once(const Args& args, SpanRecorder* spans) {
  if (args.workload == "study") return run_study(args, false, spans);
  if (args.workload == "study_ckpt") return run_study(args, true, spans);
  if (args.workload == "initial_full") return run_initial_full(args, spans);
  return run_svc_mix(args, spans);
}

Rep run_rep(const Args& args, bool traced) {
  SpanRecorder recorder;
  SpanRecorder* spans = traced ? &recorder : nullptr;
  Rep rep;
  reset_peak_rss();
  try {
    rep = run_once(args, spans);
  } catch (const std::exception& e) {
    rep.error = std::string("exception: ") + e.what();
  }
  rep.peak_rss_kib = peak_rss_kib();
  rep.traced = traced;
  if (traced && rep.run_s > 0) {
    rep.spans = recorder.sorted();
    trace_layers(rep.spans, rep.run_s, rep.run_start_ns, rep.run_end_ns,
                 args.threads, rep);
  }
  if (!rep.round_ms.empty() && !traced) {
    rep.layers["longitudinal.round_p50_ms"] = quantile(rep.round_ms, 0.5);
    rep.layers["longitudinal.round_p90_ms"] = quantile(rep.round_ms, 0.9);
  }
  return rep;
}

// ---------------------------------------------------------------- output

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

void json_map(std::ostream& os, const std::map<std::string, double>& m) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ',';
    first = false;
    json_string(os, k);
    os << ':' << v;
  }
  os << '}';
}

void json_list(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << ']';
}

std::string sanitizer() {
  std::string out;
#if defined(__SANITIZE_ADDRESS__)
  out += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  out += "thread ";
#endif
  return out.empty() ? "none" : out.substr(0, out.size() - 1);
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload study|study_ckpt|initial_full|"
               "svc_mix --seed N --seconds S --trace 0|1 --threads T "
               "--work DIR\n";
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--threads") {
      args.threads = std::stoi(value);
    } else if (flag == "--work") {
      args.work = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (args.workload != "study" && args.workload != "study_ckpt" &&
      args.workload != "initial_full" && args.workload != "svc_mix") {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (args.work.empty() || args.threads < 1) return usage("bad arguments");
  if (!optimized() || sanitizer() != "none") {
    std::cerr << "perfbench: refusing to time an unoptimised or sanitizer "
                 "build\n";
    return 3;
  }
  fs::create_directories(args.work);

  // The one-thread reference, untimed. Checkpointing does not change a
  // study's output, so study_ckpt's reference is the plain study's.
  Args ref_args = args;
  ref_args.threads = 1;
  if (ref_args.workload == "study_ckpt") ref_args.workload = "study";
  const Rep reference = run_rep(ref_args, false);

  // Closed loop: the next repetition starts when the previous returned.
  // Untraced runs make at least three repetitions; traced runs alternate
  // untraced and traced ones, at least two of each.
  std::vector<Rep> reps;
  const std::int64_t start = now_ns();
  const std::size_t min_reps = args.trace ? 4 : 3;
  while (reps.size() < min_reps ||
         seconds_between(start, now_ns()) < args.seconds) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    reps.push_back(run_rep(args, traced));
    if (!reps.back().error.empty()) break;
  }

  std::string spans_path;
  if (args.trace) {
    spans_path = args.work + "/spans.jsonl";
    std::ofstream out(spans_path);
    for (std::size_t i = 0; i < reps.size(); ++i) {
      write_span_jsonl(out, reps[i].spans, static_cast<int>(i));
    }
  }

  std::ostringstream os;
  os.precision(9);
  os << "{\"workload\":";
  json_string(os, args.workload);
  os << ",\"seed\":" << args.seed << ",\"threads\":" << args.threads
     << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"compiler\":";
  json_string(os, __VERSION__);
  os << ",\"sanitizer\":";
  json_string(os, sanitizer());
  os << ",\"spans_path\":";
  json_string(os, spans_path);
  os << ",\"reference_digest\":";
  json_string(os, reference.digest);
  os << ",\"reference_error\":";
  json_string(os, reference.error);
  os << ",\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    os << (i ? "," : "") << "{\"traced\":" << (r.traced ? "true" : "false")
       << ",\"error\":";
    json_string(os, r.error);
    os << ",\"setup_s\":" << r.setup_s << ",\"run_s\":" << r.run_s
       << ",\"cpu_s\":" << r.cpu_s << ",\"peak_rss_kib\":" << r.peak_rss_kib
       << ",\"probes\":" << r.probes
       << ",\"job_runs\":" << r.job_runs << ",\"digest\":";
    json_string(os, r.digest);
    os << ",\"turnaround_s\":";
    json_list(os, r.turnaround_s);
    os << ",\"counts\":";
    json_map(os, r.counts);
    os << ",\"layers\":";
    json_map(os, r.layers);
    if (r.traced) {
      // Per-layer self time: span minus the part its children cover.
      std::map<std::string, double> self_by_name, total_by_name;
      const std::map<std::int64_t, double> self = self_seconds(r.spans);
      for (const Span& s : r.spans) {
        self_by_name[s.name] += self.at(s.id);
        total_by_name[s.name] += s.seconds();
      }
      os << ",\"self_s\":";
      json_map(os, self_by_name);
      os << ",\"total_s\":";
      json_map(os, total_by_name);
    }
    os << '}';
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
